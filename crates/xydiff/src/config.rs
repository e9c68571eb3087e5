//! Tuning knobs of the BULD algorithm (§5.2 "Tuning").
//!
//! Every knob corresponds to a design choice discussed in the paper, so that
//! the ablation benchmarks (`xybench`) can measure what each one buys.

use crate::mode::MatchMode;

/// Configuration of [`crate::diff`].
#[derive(Debug, Clone)]
pub struct DiffOptions {
    /// Which matcher runs: the ordered BULD pipeline (default), the
    /// unordered X-Diff-style multiset matcher, or the LaDiff-inspired
    /// similarity comparator. Every entry point — free functions,
    /// [`Differ`](crate::Differ), warehouse, server, CLI — honours this;
    /// all modes share phase 2 and phase 5. The other fields tune BULD and
    /// phase 5; the two other matchers' tuning is a few constants beside
    /// their code.
    pub mode: MatchMode,

    /// Phase 1: use DTD-declared ID attributes to pre-match nodes. "If ID
    /// attributes are frequently used in the documents, most of the matching
    /// decisions have been done during this phase."
    pub use_id_attributes: bool,

    /// Multiplier on the ancestor look-up / upward-propagation depth
    /// `d = 1 + depth_factor · log₂(n) · W/W₀` (§5.2: "the corresponding
    /// depth value must stay in O(log(n) · W/W₀)"; §5.3 requires it for the
    /// `O(n log n)` bound). 1.0 reproduces the paper's `d = 1 + W/W₀·log n`.
    pub depth_factor: f64,

    /// Phase 5: window for the fixed-length order-preserving-subsequence
    /// heuristic ("applying this algorithm on a fixed-length set of children
    /// (e.g. 50), and merging the obtained subsequences").
    pub lis_window: usize,

    /// Phase 5: use the exact weighted algorithm instead of the windowed
    /// heuristic (ablation; the paper keeps the heuristic for `O(s)` cost).
    pub exact_lis: bool,

    /// Phase 4: enable the bottom-up/top-down structural propagation pass
    /// ("significantly improves the quality of the delta … avoids detecting
    /// unnecessary insertions and deletions").
    pub enable_propagation: bool,

    /// Phase 3: propagate a match immediately to children when both matched
    /// parents have a single child with a given label ("When both parents
    /// have a single child with a given label, we propagate the match
    /// immediately"). Disabling makes the down phase fully lazy (ablation).
    pub enable_unique_child_propagation: bool,

    /// Phase 3: candidates examined linearly before switching to the
    /// parent-keyed secondary index ("a secondary index … gives access by
    /// their parent's identifier to all candidate nodes for a given
    /// signature" — §5.3's device for keeping candidate evaluation O(1)).
    pub max_candidates_scan: usize,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            mode: MatchMode::default(),
            use_id_attributes: true,
            depth_factor: 1.0,
            lis_window: 50,
            exact_lis: false,
            enable_propagation: true,
            enable_unique_child_propagation: true,
            max_candidates_scan: 8,
        }
    }
}

impl DiffOptions {
    /// The ancestor look-up / propagation depth for a subtree of weight `w`
    /// in a document of `n` nodes and total weight `w0` (§5.2/§5.3).
    pub(crate) fn lookup_depth(&self, n: usize, w: f64, w0: f64) -> usize {
        let n = n.max(2) as f64;
        let frac = if w0 > 0.0 { (w / w0).clamp(0.0, 1.0) } else { 0.0 };
        let d = 1.0 + self.depth_factor * n.log2() * frac;
        d.floor().max(1.0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_grows_with_weight_fraction() {
        let o = DiffOptions::default();
        let d_small = o.lookup_depth(1 << 20, 1.0, 1e6);
        let d_big = o.lookup_depth(1 << 20, 5e5, 1e6);
        assert_eq!(d_small, 1, "tiny subtree in huge doc looks up one level");
        assert!(d_big >= 10, "half-weight subtree may climb ~log n / 2");
    }

    #[test]
    fn depth_is_at_least_one() {
        let o = DiffOptions::default();
        assert_eq!(o.lookup_depth(2, 0.0, 100.0), 1);
        assert_eq!(o.lookup_depth(0, 1.0, 0.0), 1);
    }

    #[test]
    fn whole_document_depth_is_log_n() {
        let o = DiffOptions::default();
        let d = o.lookup_depth(1024, 100.0, 100.0);
        assert_eq!(d, 11); // 1 + log2(1024)
    }

    #[test]
    fn factor_scales_depth() {
        let o = DiffOptions { depth_factor: 0.0, ..Default::default() };
        assert_eq!(o.lookup_depth(1 << 16, 1.0, 1.0), 1);
    }
}
