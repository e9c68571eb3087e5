//! Subscription patterns over change operations.
//!
//! "We implemented a subscription system that allows to detect changes of
//! interest in XML documents, e.g., that a new product has been added to a
//! catalog. To do that, at the time we obtain a new version of some data, we
//! diff it and verify if some of the changes that have been detected are
//! relevant to subscriptions." (§2)
//!
//! A subscription selects operations by kind ([`OpFilter`]), by the label
//! path of the affected node (a suffix pattern, so `["catalog", "product"]`
//! behaves like `//catalog/product`), optionally by document key and by a
//! substring of the affected content.

use xydelta::Op;
use xyquery::Path;

/// Which operation kinds a subscription fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpFilter {
    /// Any operation.
    Any,
    /// Subtree insertions.
    Insert,
    /// Subtree deletions.
    Delete,
    /// Text updates.
    Update,
    /// Subtree moves.
    Move,
    /// Attribute insert/delete/update.
    AttrChange,
}

impl OpFilter {
    /// Does this filter accept `op`?
    pub(crate) fn accepts(&self, op: &Op) -> bool {
        matches!(
            (self, op),
            (OpFilter::Any, _)
                | (OpFilter::Insert, Op::Insert { .. })
                | (OpFilter::Delete, Op::Delete { .. })
                | (OpFilter::Update, Op::Update { .. })
                | (OpFilter::Move, Op::Move { .. })
                | (
                    OpFilter::AttrChange,
                    Op::AttrInsert { .. } | Op::AttrDelete { .. } | Op::AttrUpdate { .. },
                )
        )
    }
}

/// A standing query over the stream of deltas.
#[derive(Debug, Clone)]
pub struct Subscription {
    /// Subscriber-chosen name, echoed in notifications.
    pub name: String,
    /// Restrict to one document key (`None` = all documents).
    pub doc_key: Option<String>,
    /// Label-path suffix the affected node's path must end with. Empty
    /// matches every path.
    pub path_suffix: Vec<String>,
    /// Operation-kind filter.
    pub filter: OpFilter,
    /// Substring that must occur in the affected content (inserted/deleted
    /// subtree text, the new value of an update, or an attribute value).
    pub content_contains: Option<String>,
    /// Full path-expression restriction: the affected node must be among the
    /// nodes this query selects in the relevant version (old for deletes,
    /// new otherwise). Strictly more expressive than `path_suffix` — it can
    /// say `//category[@name='cameras']//price`.
    pub query: Option<Path>,
}

impl Subscription {
    /// A subscription firing on every operation of every document.
    pub fn everything(name: impl Into<String>) -> Subscription {
        Subscription {
            name: name.into(),
            doc_key: None,
            path_suffix: Vec::new(),
            filter: OpFilter::Any,
            content_contains: None,
            query: None,
        }
    }

    /// Builder: restrict to a document key.
    pub fn on_document(mut self, key: impl Into<String>) -> Self {
        self.doc_key = Some(key.into());
        self
    }

    /// Builder: set the label-path suffix.
    pub fn at_path<I, S>(mut self, path: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.path_suffix = path.into_iter().map(Into::into).collect();
        self
    }

    /// Builder: set the operation filter.
    pub fn only(mut self, filter: OpFilter) -> Self {
        self.filter = filter;
        self
    }

    /// Builder: require a content substring.
    pub fn containing(mut self, needle: impl Into<String>) -> Self {
        self.content_contains = Some(needle.into());
        self
    }

    /// Builder: restrict to nodes selected by a path expression, e.g.
    /// `//category[@name='cameras']//price`.
    ///
    /// # Panics
    /// Panics when the expression does not parse — subscriptions are
    /// registered by the operator, so a bad pattern is a configuration bug
    /// best caught at registration. Use `try_at_query` for
    /// fallible registration.
    #[allow(clippy::expect_used)]
    pub fn at_query(self, path: &str) -> Self {
        // INVARIANT: documented panic — operator-supplied pattern; the
        // fallible form is try_at_query.
        self.try_at_query(path).expect("subscription query must parse")
    }

    /// Fallible form of [`Subscription::at_query`].
    pub(crate) fn try_at_query(mut self, path: &str) -> Result<Self, xyquery::QueryParseError> {
        self.query = Some(Path::parse(path)?);
        Ok(self)
    }

    /// Does the label path `path` (root-first) end with this subscription's
    /// suffix?
    pub(crate) fn path_matches(&self, path: &[String]) -> bool {
        if self.path_suffix.len() > path.len() {
            return false;
        }
        path[path.len() - self.path_suffix.len()..]
            .iter()
            .zip(&self.path_suffix)
            .all(|(a, b)| a == b)
    }

    /// Does `doc_key` pass the document restriction?
    pub(crate) fn document_matches(&self, doc_key: &str) -> bool {
        self.doc_key.as_deref().map_or(true, |k| k == doc_key)
    }

    /// Does `content` pass the substring restriction?
    pub(crate) fn content_matches(&self, content: &str) -> bool {
        self.content_contains
            .as_deref()
            .map_or(true, |needle| content.contains(needle))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xydelta::{DeltaBuilder, Xid};

    #[test]
    fn filter_dispatch() {
        let mut b = DeltaBuilder::new();
        b.update(Xid(1), "a", "b").attr_insert(Xid(1), "n", "v", 0);
        let delta = b.finish();
        let (up, attr) = (&delta.ops[0], &delta.ops[1]);
        assert!(OpFilter::Any.accepts(up));
        assert!(OpFilter::Update.accepts(up));
        assert!(!OpFilter::Insert.accepts(up));
        assert!(OpFilter::AttrChange.accepts(attr));
        assert!(!OpFilter::Move.accepts(attr));
    }

    #[test]
    fn path_suffix_semantics() {
        let s = Subscription::everything("s").at_path(["catalog", "product"]);
        let p = |v: &[&str]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert!(s.path_matches(&p(&["catalog", "product"])));
        assert!(s.path_matches(&p(&["site", "catalog", "product"])));
        assert!(!s.path_matches(&p(&["catalog", "product", "name"])));
        assert!(!s.path_matches(&p(&["product"])));
        let any = Subscription::everything("a");
        assert!(any.path_matches(&p(&[])));
        assert!(any.path_matches(&p(&["x"])));
    }

    #[test]
    fn document_and_content_restrictions() {
        let s = Subscription::everything("s")
            .on_document("doc-1")
            .containing("camera");
        assert!(s.document_matches("doc-1"));
        assert!(!s.document_matches("doc-2"));
        assert!(s.content_matches("a digital camera!"));
        assert!(!s.content_matches("a phone"));
        let open = Subscription::everything("o");
        assert!(open.document_matches("anything"));
        assert!(open.content_matches("anything"));
    }
}
