//! The node matching between two document versions.
//!
//! "The matching of nodes between the old and new version is the first role
//! of our algorithm" (§1). A [`Matching`] is a partial bijection between the
//! old and the new tree's nodes, plus *forbidden* marks for nodes that
//! carried an ID attribute and failed to match by ID ("Other nodes with ID
//! attributes can not be matched, even during the next phases", §5.2
//! phase 1).

use xytree::NodeId;

/// A partial bijection between old-document and new-document nodes.
#[derive(Debug, Clone)]
pub struct Matching {
    old_to_new: Vec<Option<NodeId>>,
    new_to_old: Vec<Option<NodeId>>,
    forbidden_old: Vec<bool>,
    forbidden_new: Vec<bool>,
    settled: Vec<bool>,
    matched: usize,
    /// Scratch of [`crate::propagate::match_unique_children`]: the available
    /// children of one parent pair, each flagged whether it is the new one's,
    /// kept between calls for its allocation.
    pub(crate) child_table: Vec<(bool, NodeId)>,
}

impl Matching {
    /// An empty matching over arenas of the given sizes.
    pub fn new(old_len: usize, new_len: usize) -> Matching {
        Matching {
            old_to_new: vec![None; old_len],
            new_to_old: vec![None; new_len],
            forbidden_old: vec![false; old_len],
            forbidden_new: vec![false; new_len],
            settled: vec![false; new_len],
            matched: 0,
            child_table: Vec::new(),
        }
    }

    /// Clear in place and resize for arenas of the given sizes, keeping the
    /// vector allocations (the [`crate::DiffScratch`] reuse path).
    pub fn reset(&mut self, old_len: usize, new_len: usize) {
        self.old_to_new.clear();
        self.old_to_new.resize(old_len, None);
        self.new_to_old.clear();
        self.new_to_old.resize(new_len, None);
        self.forbidden_old.clear();
        self.forbidden_old.resize(old_len, false);
        self.forbidden_new.clear();
        self.forbidden_new.resize(new_len, false);
        self.settled.clear();
        self.settled.resize(new_len, false);
        self.matched = 0;
    }

    /// Record `old ↔ new`. Both must be unmatched (checked in debug builds).
    pub fn add(&mut self, old: NodeId, new: NodeId) {
        debug_assert!(self.old_to_new[old.index()].is_none(), "old node matched twice");
        debug_assert!(self.new_to_old[new.index()].is_none(), "new node matched twice");
        self.old_to_new[old.index()] = Some(new);
        self.new_to_old[new.index()] = Some(old);
        self.matched += 1;
    }

    /// The new-document partner of an old node.
    #[inline]
    pub fn new_of_old(&self, old: NodeId) -> Option<NodeId> {
        self.old_to_new[old.index()]
    }

    /// The old-document partner of a new node.
    #[inline]
    pub fn old_of_new(&self, new: NodeId) -> Option<NodeId> {
        self.new_to_old[new.index()]
    }

    /// Is this old node matched?
    #[inline]
    pub fn is_matched_old(&self, old: NodeId) -> bool {
        self.old_to_new[old.index()].is_some()
    }

    /// Is this new node matched?
    #[inline]
    pub fn is_matched_new(&self, new: NodeId) -> bool {
        self.new_to_old[new.index()].is_some()
    }

    /// Bar an old node from ever being matched.
    pub fn forbid_old(&mut self, old: NodeId) {
        self.forbidden_old[old.index()] = true;
    }

    /// Bar a new node from ever being matched.
    pub fn forbid_new(&mut self, new: NodeId) {
        self.forbidden_new[new.index()] = true;
    }

    /// Can this old/new pair still be matched?
    #[inline]
    pub fn can_match(&self, old: NodeId, new: NodeId) -> bool {
        !self.is_matched_old(old)
            && !self.is_matched_new(new)
            && !self.forbidden_old[old.index()]
            && !self.forbidden_new[new.index()]
    }

    /// Is this old node available (unmatched, not forbidden)?
    #[inline]
    pub fn available_old(&self, old: NodeId) -> bool {
        !self.is_matched_old(old) && !self.forbidden_old[old.index()]
    }

    /// Is this new node available (unmatched, not forbidden)?
    #[inline]
    pub fn available_new(&self, new: NodeId) -> bool {
        !self.is_matched_new(new) && !self.forbidden_new[new.index()]
    }

    /// Number of matched pairs.
    pub fn matched_count(&self) -> usize {
        self.matched
    }

    /// Mark `new` as the root of a subtree matched whole to an identical old
    /// subtree. Only phase 3 does this, for a subtree whose every pair it
    /// added itself in one call; the method is crate-private so that no
    /// other caller can mark a subtree with unmatched nodes, which phases 4
    /// and 5 would then never look at.
    pub(crate) fn settle(&mut self, new: NodeId) {
        self.settled[new.index()] = true;
    }

    /// Is `new` the root of a subtree matched whole?
    #[inline]
    pub fn is_settled(&self, new: NodeId) -> bool {
        self.settled[new.index()]
    }

    /// The matching as two arrays indexed by arena slot — the partner of
    /// each old node, of each new node — and the settled marks of the new
    /// nodes: what phase 5 (`xydelta::diff_by_xid::diff_matched`) reads.
    pub(crate) fn as_slices(&self) -> (&[Option<NodeId>], &[Option<NodeId>], &[bool]) {
        (&self.old_to_new, &self.new_to_old, &self.settled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn add_and_lookup() {
        let mut m = Matching::new(4, 4);
        m.add(id(1), id(2));
        assert_eq!(m.new_of_old(id(1)), Some(id(2)));
        assert_eq!(m.old_of_new(id(2)), Some(id(1)));
        assert!(m.is_matched_old(id(1)));
        assert!(m.is_matched_new(id(2)));
        assert!(!m.is_matched_old(id(0)));
        assert_eq!(m.matched_count(), 1);
    }

    #[test]
    fn forbidden_blocks_can_match() {
        let mut m = Matching::new(2, 2);
        assert!(m.can_match(id(0), id(0)));
        m.forbid_old(id(0));
        assert!(!m.can_match(id(0), id(0)));
        assert!(m.can_match(id(1), id(1)));
        m.forbid_new(id(1));
        assert!(!m.can_match(id(1), id(1)));
    }

    #[test]
    fn matched_blocks_can_match() {
        let mut m = Matching::new(3, 3);
        m.add(id(0), id(1));
        assert!(!m.can_match(id(0), id(2)));
        assert!(!m.can_match(id(2), id(1)));
        assert!(m.can_match(id(2), id(2)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "matched twice")]
    fn double_match_panics_in_debug() {
        let mut m = Matching::new(2, 2);
        m.add(id(0), id(0));
        m.add(id(0), id(1));
    }
}
