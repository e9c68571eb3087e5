//! Caller-owned, reusable working memory for the diff pipeline.
//!
//! The paper's cost model (§5.3) is about asymptotics; in a long-running
//! ingestion service the constant factor is dominated by allocator traffic —
//! every diff used to allocate two `TreeInfo` vectors, four matching vectors,
//! the candidate hash tables, and the priority queue, then free them all.
//! [`DiffScratch`] moves ownership of that memory to the caller: one scratch
//! per worker, reused across every diff the worker runs, so steady-state
//! ingestion performs no per-diff structural allocation at all. Most callers
//! never touch it directly — a [`crate::Differ`] owns one internally.
//!
//! Reuse is semantically invisible: a [`crate::Differ`] with a fresh scratch
//! and with a thousand-times-reused scratch produce byte-identical deltas
//! (pinned by the golden-equivalence suite and a property test).

#![doc = "xylint: hot-path"]

use crate::buld::BuldScratch;
use crate::info::{LabelTable, TreeInfo};
use crate::matching::Matching;

/// Reusable working memory for the diff pipeline, owned by a
/// [`crate::Differ`] (or passed explicitly through the deprecated
/// multi-argument entry points).
///
/// Holds the phase-2 analyses and label hashes, the phase-1/3/4 matching
/// vectors, and the phase-3 candidate index + priority queue. Every component is cleared and
/// resized in place at the start of a diff, keeping its allocation.
#[derive(Debug)]
pub struct DiffScratch {
    /// Signatures/weights of the old tree (phase 2).
    pub(crate) old_info: TreeInfo,
    /// Signatures/weights of the new tree (phase 2).
    pub(crate) new_info: TreeInfo,
    /// Hash and text of every label this worker has met (phase 2).
    pub(crate) labels: LabelTable,
    /// The node matching under construction (phases 1, 3, 4).
    pub(crate) matching: Matching,
    /// Candidate index and heaviest-first queue (phase 3).
    pub(crate) buld: BuldScratch,
}

impl DiffScratch {
    /// An empty scratch. Capacity grows on first use and is retained.
    pub fn new() -> DiffScratch {
        DiffScratch {
            old_info: TreeInfo::default(),
            new_info: TreeInfo::default(),
            labels: LabelTable::default(),
            matching: Matching::new(0, 0),
            buld: BuldScratch::default(),
        }
    }
}

impl Default for DiffScratch {
    fn default() -> Self {
        DiffScratch::new()
    }
}
