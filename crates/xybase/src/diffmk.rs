//! A DiffMK-style XML diff: flatten the tree to a list, then line-diff it.
//!
//! "Sun released an XML specific tool named DiffMK that computes the
//! difference between two XML documents. This tool is based on the unix
//! standard diff algorithm, and uses a list description of the XML document,
//! thus losing the benefit of tree structure of XML." (§3)
//!
//! We reproduce that design: the document is serialized to a token list
//! (open tags with their attributes, text nodes, close tags, comments, PIs),
//! Myers runs over the token hashes, and the "patch" size is the byte size
//! of the inserted/deleted tokens plus hunk overhead. No moves, no
//! structure: a subtree that moved shows up as a full delete + insert.

use crate::myers::{diff_slices, Edit};
use xytree::Fnv64;
use xytree::{Document, NodeKind, Tree};

/// Outcome of a DiffMK-style diff.
#[derive(Debug, Clone, Default)]
pub struct DiffMkResult {
    /// Tokens in the old flattening.
    pub old_tokens: usize,
    /// Tokens in the new flattening.
    pub new_tokens: usize,
    /// Tokens deleted by the shortest edit script.
    pub deleted: usize,
    /// Tokens inserted by the shortest edit script.
    pub inserted: usize,
    /// Byte size of a patch carrying the deleted+inserted token texts (the
    /// delta-size analogue used in comparisons).
    pub patch_bytes: usize,
}

impl DiffMkResult {
    /// Total edit-script length (D of the token-level Myers run).
    pub fn edit_ops(&self) -> usize {
        self.deleted + self.inserted
    }
}

/// Flatten + diff two documents.
pub fn diffmk_diff(old: &Document, new: &Document) -> DiffMkResult {
    let old_toks = flatten(&old.tree);
    let new_toks = flatten(&new.tree);
    let old_hashes: Vec<u64> = old_toks.iter().map(|t| t.hash).collect();
    let new_hashes: Vec<u64> = new_toks.iter().map(|t| t.hash).collect();
    let script = diff_slices(&old_hashes, &new_hashes);

    let mut r = DiffMkResult {
        old_tokens: old_toks.len(),
        new_tokens: new_toks.len(),
        ..Default::default()
    };
    const HUNK_OVERHEAD: usize = 8; // "NcM\n" header + separators, amortized
    let mut in_hunk = false;
    for e in &script {
        match *e {
            Edit::Keep(..) => in_hunk = false,
            Edit::Delete(i) => {
                if !in_hunk {
                    r.patch_bytes += HUNK_OVERHEAD;
                    in_hunk = true;
                }
                r.deleted += 1;
                r.patch_bytes += old_toks[i].bytes + 3; // "< " + newline
            }
            Edit::Insert(j) => {
                if !in_hunk {
                    r.patch_bytes += HUNK_OVERHEAD;
                    in_hunk = true;
                }
                r.inserted += 1;
                r.patch_bytes += new_toks[j].bytes + 3; // "> " + newline
            }
        }
    }
    r
}

struct Token {
    hash: u64,
    bytes: usize,
}

/// Serialize the tree to the DiffMK token list.
fn flatten(tree: &Tree) -> Vec<Token> {
    let mut out = Vec::new();
    flatten_rec(tree, tree.root(), &mut out);
    out
}

fn flatten_rec(tree: &Tree, node: xytree::NodeId, out: &mut Vec<Token>) {
    match tree.kind(node) {
        NodeKind::Document => {
            for c in tree.children(node) {
                flatten_rec(tree, c, out);
            }
        }
        NodeKind::Element(e) => {
            // Open-tag token: label + attributes (sorted, set semantics).
            let mut h = Fnv64::with_seed(1);
            h.update(e.name.as_bytes());
            let mut bytes = e.name.len() + 2;
            let mut idx: Vec<usize> = (0..e.attrs.len()).collect();
            idx.sort_by(|&a, &b| e.attrs[a].name.cmp(&e.attrs[b].name));
            for i in idx {
                let a = &e.attrs[i];
                h.update(&[0]);
                h.update(a.name.as_bytes());
                h.update(&[1]);
                h.update(a.value.as_bytes());
                bytes += a.name.len() + a.value.len() + 4;
            }
            out.push(Token { hash: h.value(), bytes });
            for c in tree.children(node) {
                flatten_rec(tree, c, out);
            }
            // Close-tag token.
            let mut h = Fnv64::with_seed(2);
            h.update(e.name.as_bytes());
            out.push(Token { hash: h.value(), bytes: e.name.len() + 3 });
        }
        NodeKind::Text(t) => {
            let mut h = Fnv64::with_seed(3);
            h.update(t.as_bytes());
            out.push(Token { hash: h.value(), bytes: t.len() });
        }
        NodeKind::Comment(c) => {
            let mut h = Fnv64::with_seed(4);
            h.update(c.as_bytes());
            out.push(Token { hash: h.value(), bytes: c.len() + 7 });
        }
        NodeKind::Pi { target, data } => {
            let mut h = Fnv64::with_seed(5);
            h.update(target.as_bytes());
            h.update(&[0]);
            h.update(data.as_bytes());
            out.push(Token { hash: h.value(), bytes: target.len() + data.len() + 5 });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(xml: &str) -> Document {
        Document::parse(xml).unwrap()
    }

    #[test]
    fn identical_documents_produce_empty_patch() {
        let d = doc("<a><b>t</b><c/></a>");
        let r = diffmk_diff(&d, &d);
        assert_eq!(r.edit_ops(), 0);
        assert_eq!(r.patch_bytes, 0);
        assert_eq!(r.old_tokens, r.new_tokens);
    }

    #[test]
    fn token_count_is_open_close_text() {
        let d = doc("<a><b>t</b></a>");
        let r = diffmk_diff(&d, &d);
        // <a> <b> t </b> </a> = 5 tokens
        assert_eq!(r.old_tokens, 5);
    }

    #[test]
    fn text_change_is_one_replace() {
        let r = diffmk_diff(&doc("<a><b>old</b></a>"), &doc("<a><b>new</b></a>"));
        assert_eq!((r.deleted, r.inserted), (1, 1));
    }

    #[test]
    fn attribute_change_replaces_open_tag_token() {
        let r = diffmk_diff(&doc("<a x=\"1\"><b/></a>"), &doc("<a x=\"2\"><b/></a>"));
        assert_eq!((r.deleted, r.inserted), (1, 1));
    }

    #[test]
    fn attribute_order_is_canonicalized() {
        let r = diffmk_diff(&doc("<a x=\"1\" y=\"2\"/>"), &doc("<a y=\"2\" x=\"1\"/>"));
        assert_eq!(r.edit_ops(), 0);
    }

    #[test]
    fn move_costs_delete_plus_insert() {
        // The defining weakness vs XyDiff: a moved subtree is fully deleted
        // and reinserted in the token list.
        let old = doc("<a><big><x>1</x><y>2</y><z>3</z></big><tail/></a>");
        let new = doc("<a><tail/><big><x>1</x><y>2</y><z>3</z></big></a>");
        let r = diffmk_diff(&old, &new);
        // <big>…</big> is 11 tokens; either it or <tail/> gets del+ins.
        assert!(r.edit_ops() >= 4, "move must cost real edits, got {}", r.edit_ops());
        assert!(r.patch_bytes > 0);
    }

    #[test]
    fn subtree_insertion_counts_its_tokens() {
        // old tokens: <a> </a>; new: <a> <n> <m> t </m> </n> </a>.
        // LCS keeps <a> and </a>; 5 insertions, 0 deletions.
        let r = diffmk_diff(&doc("<a/>"), &doc("<a><n><m>t</m></n></a>"));
        assert_eq!((r.deleted, r.inserted), (0, 5));
    }
}
