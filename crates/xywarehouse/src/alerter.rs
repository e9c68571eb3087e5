//! The alerter: matches incoming deltas against subscriptions.
//!
//! "The alerter is in charge of detecting, in the document V(n) or in the
//! delta, patterns that may interest some subscriptions." (§2, Figure 1)

use crate::subscription::Subscription;
use xydelta::{Delta, Op, Xid, XidDocument};

/// A subscription hit produced while loading one new version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Notification {
    /// Name of the subscription that fired.
    pub subscription: String,
    /// Document the change happened in.
    pub doc_key: String,
    /// Operation kind (`"insert"`, `"delete"`, `"update"`, `"move"`, …).
    pub op_kind: &'static str,
    /// Root-first label path of the affected node.
    pub path: String,
    /// A short content excerpt (inserted/deleted text, new value, …).
    pub snippet: String,
}

/// A set of subscriptions evaluated against every delta.
#[derive(Debug, Default, Clone)]
pub struct Alerter {
    subscriptions: Vec<Subscription>,
}

impl Alerter {
    /// An alerter with no subscriptions (never fires).
    pub fn new() -> Alerter {
        Alerter::default()
    }

    /// Register a subscription.
    pub fn subscribe(&mut self, sub: Subscription) {
        self.subscriptions.push(sub);
    }

    /// Evaluate a delta (computed between `old` and `new`) for document
    /// `doc_key`; returns one notification per (subscription, matching op).
    pub fn evaluate(
        &self,
        doc_key: &str,
        delta: &Delta,
        old: &XidDocument,
        new: &XidDocument,
    ) -> Vec<Notification> {
        if self.subscriptions.is_empty() || delta.is_empty() {
            return Vec::new();
        }
        // Evaluate each subscription's query once per delta (not per op):
        // the selected node sets over the old and the new version.
        let query_sets: Vec<Option<(std::collections::HashSet<xytree::NodeId>,
                                    std::collections::HashSet<xytree::NodeId>)>> = self
            .subscriptions
            .iter()
            .map(|sub| {
                sub.query.as_ref().map(|q| {
                    (
                        q.select(&old.doc.tree).into_iter().collect(),
                        q.select(&new.doc.tree).into_iter().collect(),
                    )
                })
            })
            .collect();
        let mut out = Vec::new();
        for op in &delta.ops {
            // Deletes are located in the old version, everything else in the
            // new one.
            let doc = match op {
                Op::Delete { .. } => old,
                _ => new,
            };
            let path = label_path(doc, op.anchor());
            let snippet = snippet_of(delta, op);
            let anchor_node = doc.node(op.anchor());
            for (sub, sets) in self.subscriptions.iter().zip(&query_sets) {
                let query_hit = match (sets, anchor_node) {
                    (None, _) => true, // no query restriction
                    (Some(_), None) => false,
                    (Some((old_set, new_set)), Some(n)) => {
                        let set = if matches!(op, Op::Delete { .. }) { old_set } else { new_set };
                        set.contains(&n)
                    }
                };
                if query_hit
                    && sub.document_matches(doc_key)
                    && sub.filter.accepts(op)
                    && sub.path_matches(&path)
                    && sub.content_matches(&snippet)
                {
                    out.push(Notification {
                        subscription: sub.name.clone(),
                        doc_key: doc_key.to_string(),
                        op_kind: op.kind_name(),
                        path: path.join("/"),
                        snippet: truncate(&snippet, 120),
                    });
                }
            }
        }
        out
    }
}

/// Root-first element-label path of the node carrying `xid` (the node's own
/// label included when it is an element).
fn label_path(doc: &XidDocument, xid: Xid) -> Vec<String> {
    let Some(node) = doc.node(xid) else { return Vec::new() };
    let t = &doc.doc.tree;
    let mut path: Vec<String> = Vec::new();
    if let Some(name) = t.name(node) {
        path.push(name.to_string());
    }
    for anc in t.ancestors(node) {
        if let Some(name) = t.name(anc) {
            path.push(name.to_string());
        }
    }
    path.reverse();
    path
}

/// The content an op affects, for `content_contains` filtering.
fn snippet_of(delta: &Delta, op: &Op) -> String {
    match *op {
        Op::Insert { subtree, .. } | Op::Delete { subtree, .. } => {
            // Alerting runs on stored (owned) deltas past the into_owned
            // boundary.
            let (tree, root) = delta.payload(subtree);
            tree.deep_text(root)
        }
        Op::Move { .. } => String::new(),
        Op::Update { new: value, .. }
        | Op::AttrInsert { value, .. }
        | Op::AttrUpdate { new: value, .. }
        | Op::AttrDelete { old: value, .. } => delta.text(value).to_string(),
    }
}

fn truncate(s: &str, max: usize) -> String {
    if s.len() <= max {
        s.to_string()
    } else {
        let mut cut = max;
        while !s.is_char_boundary(cut) {
            cut -= 1;
        }
        format!("{}…", &s[..cut])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subscription::OpFilter;
    use xydiff::{diff, DiffOptions};
    use xytree::Document;

    /// Diff the catalog example and evaluate subscriptions on it.
    fn catalog_case(subs: Vec<Subscription>) -> Vec<Notification> {
        let old = XidDocument::parse_initial(
            "<catalog><product><name>old-cam</name><price>$10</price></product></catalog>",
        )
        .unwrap();
        let new = Document::parse(
            "<catalog><product><name>old-cam</name><price>$12</price></product>\
             <product><name>new-cam</name><price>$99</price></product></catalog>",
        )
        .unwrap();
        let r = diff(&old, &new, &DiffOptions::default());
        let mut alerter = Alerter::new();
        for s in subs {
            alerter.subscribe(s);
        }
        alerter.evaluate("cat.xml", &r.delta, &old, &r.new_version)
    }

    #[test]
    fn new_product_subscription_fires() {
        // The paper's own example: "that a new product has been added to a
        // catalog".
        let hits = catalog_case(vec![Subscription::everything("new-products")
            .at_path(["catalog", "product"])
            .only(OpFilter::Insert)]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].op_kind, "insert");
        assert_eq!(hits[0].path, "catalog/product");
        assert!(hits[0].snippet.contains("new-cam"));
    }

    #[test]
    fn price_update_subscription_fires() {
        let hits = catalog_case(vec![Subscription::everything("price-watch")
            .at_path(["price"])
            .only(OpFilter::Update)]);
        assert!(!hits.is_empty(), "price text update must fire");
        assert!(hits.iter().any(|h| h.snippet.contains("$12")), "{hits:?}");
    }

    #[test]
    fn content_filter_narrows() {
        let hits = catalog_case(vec![
            Subscription::everything("cams").only(OpFilter::Insert).containing("new-cam"),
            Subscription::everything("phones").only(OpFilter::Insert).containing("phone"),
        ]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].subscription, "cams");
    }

    #[test]
    fn wrong_document_key_suppresses() {
        let hits = catalog_case(vec![Subscription::everything("other-doc")
            .on_document("different.xml")]);
        assert!(hits.is_empty());
    }

    #[test]
    fn empty_alerter_and_empty_delta_are_quiet() {
        let old = XidDocument::parse_initial("<a/>").unwrap();
        let alerter = Alerter::new();
        assert!(alerter.evaluate("k", &Delta::new(), &old, &old).is_empty());
        let mut with_sub = Alerter::new();
        with_sub.subscribe(Subscription::everything("s"));
        assert!(with_sub.evaluate("k", &Delta::new(), &old, &old).is_empty());
        assert_eq!(with_sub.subscriptions.len(), 1);
    }

    #[test]
    fn delete_paths_resolve_in_old_version() {
        let old = XidDocument::parse_initial(
            "<catalog><product><name>gone</name></product></catalog>",
        )
        .unwrap();
        let new = Document::parse("<catalog/>").unwrap();
        let r = diff(&old, &new, &DiffOptions::default());
        let mut alerter = Alerter::new();
        alerter.subscribe(
            Subscription::everything("deletions")
                .at_path(["catalog", "product"])
                .only(OpFilter::Delete),
        );
        let hits = alerter.evaluate("k", &r.delta, &old, &r.new_version);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].snippet.contains("gone"));
    }

    #[test]
    fn query_subscriptions_scope_to_selected_nodes() {
        // Two categories; only the cameras category's prices are watched.
        // The stable <name> texts anchor signature matching, so the changed
        // prices become updates (ambiguous same-label siblings with *no*
        // unchanged content would be replaced wholesale instead).
        let old = XidDocument::parse_initial(
            "<catalog>\
             <category name='cameras'><product><name>alpha cam</name><price>$10</price></product></category>\
             <category name='phones'><product><name>beta phone</name><price>$90</price></product></category>\
             </catalog>",
        )
        .unwrap();
        let new = Document::parse(
            "<catalog>\
             <category name='cameras'><product><name>alpha cam</name><price>$12</price></product></category>\
             <category name='phones'><product><name>beta phone</name><price>$95</price></product></category>\
             </catalog>",
        )
        .unwrap();
        let r = diff(&old, &new, &DiffOptions::default());
        assert_eq!(r.delta.counts().updates, 2, "{}", r.delta.describe());
        let mut alerter = Alerter::new();
        alerter.subscribe(
            Subscription::everything("camera-prices")
                .only(OpFilter::Update)
                .at_query("//category[@name='cameras']//text()"),
        );
        let hits = alerter.evaluate("cat", &r.delta, &old, &r.new_version);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].snippet, "$12");
    }

    #[test]
    fn query_subscription_on_deletes_uses_old_version() {
        let old = XidDocument::parse_initial(
            "<site><sec id='a'><page>x</page></sec><sec id='b'><page>y</page></sec></site>",
        )
        .unwrap();
        let new = Document::parse(
            "<site><sec id='a'><page>x</page></sec><sec id='b'/></site>",
        )
        .unwrap();
        let r = diff(&old, &new, &DiffOptions::default());
        let mut alerter = Alerter::new();
        alerter.subscribe(
            Subscription::everything("b-removals")
                .only(OpFilter::Delete)
                .at_query("//sec[@id='b']/page"),
        );
        alerter.subscribe(
            Subscription::everything("a-removals")
                .only(OpFilter::Delete)
                .at_query("//sec[@id='a']/page"),
        );
        let hits = alerter.evaluate("site", &r.delta, &old, &r.new_version);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].subscription, "b-removals");
    }

    #[test]
    fn bad_subscription_query_fails_at_registration() {
        assert!(Subscription::everything("s").try_at_query("//broken[").is_err());
    }

    #[test]
    fn truncate_respects_char_boundaries() {
        let s = "é".repeat(100);
        let t = truncate(&s, 11);
        assert!(t.ends_with('…'));
        assert!(t.len() <= 14);
    }
}
