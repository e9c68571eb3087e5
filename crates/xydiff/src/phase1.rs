//! Phase 1: ID-attribute matching.
//!
//! "In one traversal of each tree, we register nodes that are uniquely
//! identified by an ID attribute defined in the DTD of the documents. The
//! existence of \[an\] ID attribute for a given node provides a unique
//! condition to match the node: its matching must have the same ID value. If
//! such a pair of nodes is found in the other document, they are matched.
//! Other nodes with ID attributes can not be matched, even during the next
//! phases." (§5.2)

use crate::matching::Matching;
use crate::report::DiffStats;
use xytree::hash::{fast_map, FastHashMap};
use xytree::{Document, NodeId, Symbol};

/// Match element nodes by `(label, ID value)`; forbid ID-bearing nodes that
/// find no partner.
pub(crate) fn match_by_id(
    old: &Document,
    new: &Document,
    matching: &mut Matching,
    stats: &mut DiffStats,
) {
    let old_ids = collect_id_nodes(old);
    let new_ids = collect_id_nodes(new);
    if old_ids.is_empty() && new_ids.is_empty() {
        return;
    }

    // Index old ID nodes; `None` marks a duplicated (invalid) ID value,
    // which we conservatively refuse to match on.
    let mut index: FastHashMap<(Symbol, &str), Option<NodeId>> = fast_map();
    for &(node, label, value) in &old_ids {
        index
            .entry((label, value))
            .and_modify(|slot| *slot = None)
            .or_insert(Some(node));
    }

    let mut seen_new: FastHashMap<(Symbol, &str), bool> = fast_map();
    for &(node, label, value) in &new_ids {
        let dup = seen_new.insert((label, value), true).is_some();
        if dup {
            matching.forbid_new(node);
            continue;
        }
        match index.get(&(label, value)) {
            Some(Some(old_node)) if matching.can_match(*old_node, node) => {
                matching.add(*old_node, node);
                stats.id_matches += 1;
            }
            _ => matching.forbid_new(node),
        }
    }
    // Old ID nodes that stayed unmatched are barred from later phases.
    for &(node, ..) in &old_ids {
        if !matching.is_matched_old(node) {
            matching.forbid_old(node);
        }
    }
}

/// All `(node, label, ID value)` triples of elements carrying an ID
/// attribute declared by the document's own DTD. Labels are interned and ID
/// values borrowed from the document — no per-node allocation.
fn collect_id_nodes(doc: &Document) -> Vec<(NodeId, Symbol, &str)> {
    let Some(dt) = doc.doctype.as_ref().filter(|d| d.has_id_attrs()) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for n in doc.tree.descendants(doc.tree.root()) {
        let Some(e) = doc.tree.element(n) else { continue };
        let Some(attr_name) = dt.id_attr_sym(e.name) else { continue };
        if let Some(v) = e.attr_sym(attr_name) {
            out.push((n, e.name, v));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const DTD: &str = "<!DOCTYPE cat [<!ATTLIST product id ID #REQUIRED>]>";

    fn setup(old_xml: &str, new_xml: &str) -> (Document, Document, Matching, DiffStats) {
        let old = Document::parse(old_xml).unwrap();
        let new = Document::parse(new_xml).unwrap();
        let mut m = Matching::new(old.tree.arena_len(), new.tree.arena_len());
        m.add(old.tree.root(), new.tree.root());
        (old, new, m, DiffStats::default())
    }

    fn product(d: &Document, id: &str) -> NodeId {
        d.tree
            .descendants(d.tree.root())
            .find(|&n| d.tree.attr(n, "id") == Some(id))
            .unwrap()
    }

    #[test]
    fn same_id_matches_even_with_changed_content() {
        let (old, new, mut m, mut s) = setup(
            &format!("{DTD}<cat><product id='p1'><x/></product></cat>"),
            &format!("{DTD}<cat><product id='p1'><completely-different/></product></cat>"),
        );
        match_by_id(&old, &new, &mut m, &mut s);
        assert_eq!(s.id_matches, 1);
        assert_eq!(m.old_of_new(product(&new, "p1")), Some(product(&old, "p1")));
    }

    #[test]
    fn unmatched_id_nodes_are_forbidden() {
        let (old, new, mut m, mut s) = setup(
            &format!("{DTD}<cat><product id='gone'/></cat>"),
            &format!("{DTD}<cat><product id='fresh'/></cat>"),
        );
        match_by_id(&old, &new, &mut m, &mut s);
        assert_eq!(s.id_matches, 0);
        assert!(!m.available_old(product(&old, "gone")));
        assert!(!m.available_new(product(&new, "fresh")));
    }

    #[test]
    fn id_match_requires_same_label() {
        let dtd = "<!DOCTYPE cat [<!ATTLIST product id ID #IMPLIED><!ATTLIST item id ID #IMPLIED>]>";
        let (old, new, mut m, mut s) = setup(
            &format!("{dtd}<cat><product id='p1'/></cat>"),
            &format!("{dtd}<cat><item id='p1'/></cat>"),
        );
        match_by_id(&old, &new, &mut m, &mut s);
        assert_eq!(s.id_matches, 0);
    }

    #[test]
    fn no_dtd_means_no_id_semantics() {
        let (old, new, mut m, mut s) = setup(
            "<cat><product id='p1'/></cat>",
            "<cat><product id='p1'/></cat>",
        );
        match_by_id(&old, &new, &mut m, &mut s);
        assert_eq!(s.id_matches, 0, "plain `id` attributes are not XML IDs without a DTD");
        // And nothing is forbidden either.
        assert!(m.available_new(product(&new, "p1")));
    }

    #[test]
    fn duplicate_id_values_are_refused() {
        let (old, new, mut m, mut s) = setup(
            &format!("{DTD}<cat><product id='dup'/><product id='dup'/></cat>"),
            &format!("{DTD}<cat><product id='dup'/></cat>"),
        );
        match_by_id(&old, &new, &mut m, &mut s);
        assert_eq!(s.id_matches, 0, "ambiguous IDs must not force a match");
    }

    #[test]
    fn non_id_attributes_ignored() {
        let dtd = "<!DOCTYPE cat [<!ATTLIST product name CDATA #IMPLIED>]>";
        let (old, new, mut m, mut s) = setup(
            &format!("{dtd}<cat><product name='n'/></cat>"),
            &format!("{dtd}<cat><product name='n'/></cat>"),
        );
        match_by_id(&old, &new, &mut m, &mut s);
        assert_eq!(s.id_matches, 0);
        assert_eq!(m.matched_count(), 1); // just the roots
    }
}
