//! Change-frequency statistics: the learning hook of §5.2.
//!
//! "The DTD or XMLSchema (or a data guide in absence of DTD) is an excellent
//! structure to record statistical information. It is therefore a useful
//! tool to introduce learning features in the algorithm, e.g. learn that a
//! price node is more likely to change than a description node." The
//! conclusion likewise calls for gathering "statistics on change frequency,
//! patterns of changes in a document".
//!
//! [`ChangeStats`] accumulates per-label operation counts from the delta
//! stream: every op is attributed to the element label it affects (the
//! updated text's parent, the inserted/deleted subtree's root, the moved
//! node). `change_rate` then answers "how often does a `price` change per
//! version?", the exact signal the paper wants to feed back into matching.

use xydelta::{Delta, Op, Xid, XidDocument};
use xytree::hash::FastHashMap;
use xytree::NodeKind;

/// Per-label operation counters over a stream of deltas.
#[derive(Debug, Clone, Default)]
pub struct ChangeStats {
    /// label → (updates, inserts, deletes, moves)
    per_label: FastHashMap<String, LabelCounts>,
    /// Number of deltas ingested.
    deltas_seen: usize,
    /// Total operations ingested.
    total_ops: usize,
}

/// Counters for one element label.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LabelCounts {
    /// Text updates under this label.
    pub updates: usize,
    /// Subtrees of this label inserted.
    pub inserts: usize,
    /// Subtrees of this label deleted.
    pub deletes: usize,
    /// Nodes of this label moved.
    pub moves: usize,
}

impl LabelCounts {
    /// Sum of all operation kinds.
    pub fn total(&self) -> usize {
        self.updates + self.inserts + self.deletes + self.moves
    }
}

impl ChangeStats {
    /// Empty statistics.
    pub fn new() -> ChangeStats {
        ChangeStats::default()
    }

    /// Ingest one delta. `old` and `new` are the versions it connects
    /// (needed to resolve op anchors to labels: deletes live in `old`,
    /// everything else in `new`).
    pub fn record(&mut self, delta: &Delta, old: &XidDocument, new: &XidDocument) {
        self.deltas_seen += 1;
        for op in &delta.ops {
            self.total_ops += 1;
            let label = match op {
                Op::Delete { subtree, .. } | Op::Insert { subtree, .. } => {
                    // The stored subtree's root labels the op directly
                    // (stats run on owned deltas past the into_owned
                    // boundary).
                    let (tree, root) = delta.payload(*subtree);
                    Some(node_label(tree, root))
                }
                Op::Update { xid, .. } => anchor_label(new, *xid).or_else(|| anchor_label(old, *xid)),
                Op::Move { xid, .. } => anchor_label(new, *xid),
                Op::AttrInsert { element, .. }
                | Op::AttrDelete { element, .. }
                | Op::AttrUpdate { element, .. } => anchor_label(new, *element),
            };
            let Some(label) = label else { continue };
            let e = self.per_label.entry(label).or_default();
            match op {
                Op::Update { .. } => e.updates += 1,
                Op::Insert { .. } => e.inserts += 1,
                Op::Delete { .. } => e.deletes += 1,
                Op::Move { .. } => e.moves += 1,
                // Attribute changes count as updates of the element.
                _ => e.updates += 1,
            }
        }
    }

    /// Counters for one label.
    pub fn counts(&self, label: &str) -> LabelCounts {
        self.per_label.get(label).copied().unwrap_or_default()
    }

    /// Average operations touching `label` per ingested delta — the
    /// "a price node is more likely to change than a description node"
    /// number.
    pub fn change_rate(&self, label: &str) -> f64 {
        if self.deltas_seen == 0 {
            0.0
        } else {
            self.counts(label).total() as f64 / self.deltas_seen as f64
        }
    }

    /// Labels ranked by total change count, most volatile first.
    pub fn most_volatile(&self, top: usize) -> Vec<(String, LabelCounts)> {
        let mut v: Vec<(String, LabelCounts)> = self
            .per_label
            .iter()
            .map(|(k, &c)| (k.clone(), c))
            .collect();
        v.sort_by(|a, b| b.1.total().cmp(&a.1.total()).then_with(|| a.0.cmp(&b.0)));
        v.truncate(top);
        v
    }

    /// Number of deltas ingested.
    pub fn deltas_seen(&self) -> usize {
        self.deltas_seen
    }

    /// Total operations ingested.
    pub fn total_ops(&self) -> usize {
        self.total_ops
    }
}

/// Label of an op anchor: for text nodes, the parent element's label (the
/// paper's "a price node is more likely to change" speaks of the element).
fn anchor_label(doc: &XidDocument, xid: Xid) -> Option<String> {
    let node = doc.node(xid)?;
    let t = &doc.doc.tree;
    match t.kind(node) {
        NodeKind::Element(e) => Some(e.name.to_string()),
        NodeKind::Text(_) | NodeKind::Comment(_) | NodeKind::Pi { .. } => {
            t.parent(node).and_then(|p| t.name(p)).map(str::to_string)
        }
        NodeKind::Document => None,
    }
}

fn node_label(tree: &xytree::Tree, node: xytree::NodeId) -> String {
    match tree.kind(node) {
        NodeKind::Element(e) => e.name.to_string(),
        NodeKind::Text(_) => "#text".to_string(),
        NodeKind::Comment(_) => "#comment".to_string(),
        NodeKind::Pi { .. } => "#pi".to_string(),
        NodeKind::Document => "#document".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xydiff::{diff, DiffOptions};
    use xytree::Document;

    fn step(stats: &mut ChangeStats, old: &XidDocument, new_xml: &str) -> XidDocument {
        let new_doc = Document::parse(new_xml).unwrap();
        let r = diff(old, &new_doc, &DiffOptions::default());
        stats.record(&r.delta, old, &r.new_version);
        r.new_version
    }

    #[test]
    fn learns_that_price_changes_more_than_description() {
        let mut stats = ChangeStats::new();
        let mut v = XidDocument::parse_initial(
            "<p><price>$1</price><description>stable text</description></p>",
        )
        .unwrap();
        for i in 2..=6 {
            v = step(
                &mut stats,
                &v,
                &format!("<p><price>${i}</price><description>stable text</description></p>"),
            );
        }
        assert_eq!(stats.deltas_seen(), 5);
        assert_eq!(stats.counts("price").updates, 5);
        assert_eq!(stats.counts("description").total(), 0);
        assert!(stats.change_rate("price") > stats.change_rate("description"));
        let top = stats.most_volatile(1);
        assert_eq!(top[0].0, "price");
    }

    #[test]
    fn attributes_count_as_element_updates() {
        let mut stats = ChangeStats::new();
        let v = XidDocument::parse_initial("<p><item k=\"1\"/></p>").unwrap();
        step(&mut stats, &v, "<p><item k=\"2\"/></p>");
        assert_eq!(stats.counts("item").updates, 1);
    }

    #[test]
    fn inserts_deletes_and_moves_attributed_to_labels() {
        let mut stats = ChangeStats::new();
        let v = XidDocument::parse_initial(
            "<cat><sec><a>keep me here</a><b>payload two</b></sec><sec2/></cat>",
        )
        .unwrap();
        // Move <b> to sec2, delete <a>, insert <c>.
        let v2 = step(
            &mut stats,
            &v,
            "<cat><sec><c>fresh</c></sec><sec2><b>payload two</b></sec2></cat>",
        );
        let _ = v2;
        assert_eq!(stats.counts("b").moves, 1, "{:?}", stats.most_volatile(5));
        assert_eq!(stats.counts("a").deletes, 1);
        assert_eq!(stats.counts("c").inserts, 1);
        assert!(stats.total_ops() >= 3);
    }

    #[test]
    fn empty_stats_report_zero() {
        let s = ChangeStats::new();
        assert_eq!(s.change_rate("anything"), 0.0);
        assert!(s.most_volatile(3).is_empty());
        assert_eq!(s.counts("x"), LabelCounts::default());
    }
}
