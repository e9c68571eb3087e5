//! Document statistics.
//!
//! The paper's change simulator must "preserve the distribution of labels
//! which is … one of the specificities of XML trees" (§6.1) and the authors
//! validated it via "the control of measurable parameters (e.g. size, number
//! of element nodes, size of text nodes …)". [`DocStats`] is that control
//! instrument; it also doubles as the data-guide-style summary mentioned in
//! §5.2 for recording statistical information.

use crate::hash::FastHashMap;
use crate::node::NodeKind;
use crate::tree::Tree;

/// Summary statistics of a document tree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DocStats {
    /// Total nodes (excluding the document node).
    pub nodes: usize,
    /// Element nodes.
    pub elements: usize,
    /// Text nodes.
    pub text_nodes: usize,
    /// Comment nodes.
    pub comments: usize,
    /// Processing instructions.
    pub pis: usize,
    /// Total attributes across all elements.
    pub attributes: usize,
    /// Total bytes of text content.
    pub text_bytes: usize,
    /// Maximum element nesting depth (root element = 1).
    pub max_depth: usize,
    /// `label → element count`.
    pub label_histogram: FastHashMap<String, usize>,
}

impl DocStats {
    /// Walk the tree and collect statistics.
    pub(crate) fn collect(tree: &Tree) -> DocStats {
        let mut s = DocStats::default();
        for n in tree.descendants(tree.root()) {
            match tree.kind(n) {
                NodeKind::Document => continue,
                NodeKind::Element(e) => {
                    s.elements += 1;
                    s.attributes += e.attrs.len();
                    *s.label_histogram.entry(e.name.to_string()).or_insert(0) += 1;
                    s.max_depth = s.max_depth.max(tree.depth(n));
                }
                NodeKind::Text(t) => {
                    s.text_nodes += 1;
                    s.text_bytes += t.len();
                }
                NodeKind::Comment(_) => s.comments += 1,
                NodeKind::Pi { .. } => s.pis += 1,
            }
            s.nodes += 1;
        }
        s
    }

    /// The most frequent label, if any element exists.
    pub fn dominant_label(&self) -> Option<(&str, usize)> {
        self.label_histogram
            .iter()
            .max_by_key(|&(name, &c)| (c, std::cmp::Reverse(name.clone())))
            .map(|(name, &c)| (name.as_str(), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::Document;

    #[test]
    fn counts_are_correct() {
        let doc = Document::parse(
            "<a x=\"1\" y=\"2\"><b>hello</b><b>hi</b><!--c--><?p d?></a>",
        )
        .unwrap();
        let s = doc.stats();
        assert_eq!(s.elements, 3);
        assert_eq!(s.text_nodes, 2);
        assert_eq!(s.comments, 1);
        assert_eq!(s.pis, 1);
        assert_eq!(s.attributes, 2);
        assert_eq!(s.text_bytes, 7);
        assert_eq!(s.nodes, 7);
        assert_eq!(s.max_depth, 2);
        assert_eq!(s.label_histogram["b"], 2);
        assert_eq!(s.dominant_label(), Some(("b", 2)));
    }

    #[test]
    fn empty_document_stats() {
        let s = Document::default().stats();
        assert_eq!(s, DocStats::default());
        assert_eq!(s.dominant_label(), None);
    }
}
