//! Diff results: the delta plus instrumentation.
//!
//! The per-phase timings exist to regenerate Figure 4 ("Time cost for the
//! different phases"), and the match-source counters support the analysis
//! claims (e.g. "if ID attributes are frequently used …, most of the
//! matching decisions have been done during [phase 1]").

use std::time::Duration;
use xydelta::{Delta, XidDocument};

/// Wall-clock time spent in each phase of one diff invocation.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Phase 1: ID-attribute matching + its propagation pass.
    pub phase1: Duration,
    /// Phase 2: signatures, weights.
    pub phase2: Duration,
    /// Phase 3: BULD matching loop.
    pub phase3: Duration,
    /// Phase 4: structural propagation.
    pub phase4: Duration,
    /// Phase 5: XID inheritance + delta construction.
    pub phase5: Duration,
}

impl PhaseTimings {
    /// Sum of all phases.
    pub fn total(&self) -> Duration {
        self.phase1 + self.phase2 + self.phase3 + self.phase4 + self.phase5
    }

    /// Phases 3 + 4 — "the core of the diff algorithm" in the paper's
    /// Figure 4 discussion.
    pub fn core(&self) -> Duration {
        self.phase3 + self.phase4
    }
}

/// Counters describing how the matching was obtained.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiffStats {
    /// Nodes in the old document (document node included).
    pub old_nodes: usize,
    /// Nodes in the new document.
    pub new_nodes: usize,
    /// Matched pairs (including the document roots).
    pub matched_nodes: usize,
    /// Pairs matched by ID attributes (phase 1).
    pub id_matches: usize,
    /// Pairs matched through identical-subtree signatures (phase 3).
    pub signature_matches: usize,
    /// Pairs matched by propagation (ancestors, unique children, phase 4).
    pub propagation_matches: usize,
}

impl DiffStats {
    /// Fraction of new-document nodes that found a match.
    pub fn match_ratio(&self) -> f64 {
        if self.new_nodes == 0 {
            0.0
        } else {
            self.matched_nodes as f64 / self.new_nodes as f64
        }
    }
}

/// Everything [`crate::diff`] produces.
#[derive(Debug, Clone)]
pub struct DiffResult {
    /// The computed delta (old → new).
    pub delta: Delta,
    /// The new version carrying inherited + fresh XIDs, ready to become the
    /// next "old" in a version chain.
    pub new_version: XidDocument,
    /// Per-phase wall-clock timings.
    pub timings: PhaseTimings,
    /// Matching statistics.
    pub stats: DiffStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let t = PhaseTimings {
            phase1: Duration::from_millis(1),
            phase2: Duration::from_millis(2),
            phase3: Duration::from_millis(3),
            phase4: Duration::from_millis(4),
            phase5: Duration::from_millis(5),
        };
        assert_eq!(t.total(), Duration::from_millis(15));
        assert_eq!(t.core(), Duration::from_millis(7));
    }

    #[test]
    fn match_ratio_handles_empty() {
        let s = DiffStats::default();
        assert_eq!(s.match_ratio(), 0.0);
        let s = DiffStats { new_nodes: 10, matched_nodes: 5, ..Default::default() };
        assert!((s.match_ratio() - 0.5).abs() < 1e-12);
    }
}
