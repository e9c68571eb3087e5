//! Version chains: the storage policy of the Xyleme-Change architecture.
//!
//! "When a new version of a document V(n) is received … the diff module
//! computes a delta … appended to the existing sequence of deltas for this
//! document. The old version is then possibly removed from the repository."
//! (§2, Figure 1). A [`VersionChain`] keeps exactly that: the **latest**
//! version plus the forward delta sequence, and reconstructs any past
//! version on demand by applying inverted deltas backwards — possible
//! because completed deltas are invertible (§4).

//!
//! Long chains make "querying the past" linear in the distance from the
//! latest version. [`VersionChain::compact`] bounds that walk: it folds the
//! delta chain through [`aggregate_chain`] into materialized *checkpoints*
//! every `C` versions, after which any version reconstructs from its
//! nearest anchor (a checkpoint or the latest) in at most `C` hops.

use crate::aggregate::aggregate_chain;
use crate::apply::apply_inverse;
use crate::delta::Delta;
use crate::diff_by_xid::diff_by_xid;
use crate::error::ApplyError;
use crate::xiddoc::XidDocument;

/// A materialized reconstruction anchor: one past version held in full, so
/// nearby versions reconstruct in few delta applications instead of
/// walking all the way back from the latest.
#[derive(Debug, Clone)]
struct Checkpoint {
    /// The version index this checkpoint materializes.
    version: usize,
    /// That version, with its XIDs (bit-identical to what the backward
    /// walk would produce — checkpoints are built by folding the same
    /// deltas through [`aggregate_chain`]).
    doc: XidDocument,
}

/// A document's version history: latest snapshot + forward deltas, plus
/// optional reconstruction checkpoints (see [`VersionChain::compact`]).
#[derive(Debug, Clone)]
pub struct VersionChain {
    /// `deltas[i]` transforms version `i` into version `i + 1`.
    deltas: Vec<Delta>,
    /// The newest version, `version(deltas.len())`.
    latest: XidDocument,
    /// Materialized anchors, sorted by version, each < `latest_index()`.
    checkpoints: Vec<Checkpoint>,
}

impl VersionChain {
    /// Start a chain at version 0.
    pub fn new(initial: XidDocument) -> VersionChain {
        VersionChain { deltas: Vec::new(), latest: initial, checkpoints: Vec::new() }
    }

    /// Index of the latest version (0 for a fresh chain).
    pub fn latest_index(&self) -> usize {
        self.deltas.len()
    }

    /// Number of stored versions (latest index + 1).
    pub fn version_count(&self) -> usize {
        self.deltas.len() + 1
    }

    /// Borrow the latest version.
    pub fn latest(&self) -> &XidDocument {
        &self.latest
    }

    /// The delta transforming version `i` into `i + 1`.
    pub fn delta(&self, i: usize) -> Option<&Delta> {
        self.deltas.get(i)
    }

    /// Append a new version by applying `delta` to the current latest.
    pub fn push_delta(&mut self, delta: Delta) -> Result<(), ApplyError> {
        let mut next = self.latest.clone();
        delta.apply_to(&mut next)?;
        // A chain grown this way (WAL replay) never swaps in a freshly
        // parsed tree, so what the deltas detach would pile up for good.
        next.shed_garbage();
        self.latest = next;
        self.deltas.push(delta);
        Ok(())
    }

    /// Append a new version produced elsewhere (e.g. by the diff, which
    /// returns both the delta and the XID-carrying new version). In debug
    /// builds the delta is verified against the stored latest.
    pub fn push_version(&mut self, new_version: XidDocument, delta: Delta) {
        debug_assert!(
            {
                let mut check = self.latest.clone();
                delta.apply_to(&mut check).is_ok()
                    && check.doc.to_xml() == new_version.doc.to_xml()
            },
            "pushed delta does not transform the stored latest into the pushed version"
        );
        self.deltas.push(delta);
        self.latest = new_version;
    }

    /// Reconstruct version `i` ("querying the past", §2) from the nearest
    /// anchor: forward from a checkpoint at or below `i`, or backward
    /// (inverted deltas, §4) from a checkpoint or the latest version above
    /// it — whichever needs the fewest delta applications.
    pub fn version(&self, i: usize) -> Result<XidDocument, ApplyError> {
        assert!(i <= self.latest_index(), "version {i} does not exist");
        let (anchor, _) = self.nearest_anchor(i);
        let mut doc = match self.checkpoints.iter().find(|c| c.version == anchor) {
            Some(c) => c.doc.clone(),
            // The only anchor without a checkpoint is the latest version.
            None => self.latest.clone(),
        };
        if anchor <= i {
            for d in &self.deltas[anchor..i] {
                d.apply_to(&mut doc)?;
            }
        } else {
            for d in self.deltas[i..anchor].iter().rev() {
                apply_inverse(d, &mut doc)?;
            }
        }
        Ok(doc)
    }

    /// The anchor (checkpoint version or `latest_index()`) closest to `i`,
    /// with the number of delta applications a reconstruction from it needs.
    fn nearest_anchor(&self, i: usize) -> (usize, usize) {
        let mut anchor = self.latest_index();
        let mut hops = self.latest_index() - i;
        if let Some(c) = self.checkpoints.iter().rev().find(|c| c.version <= i) {
            if i - c.version < hops {
                anchor = c.version;
                hops = i - c.version;
            }
        }
        if let Some(c) = self.checkpoints.iter().find(|c| c.version >= i) {
            if c.version - i < hops {
                anchor = c.version;
                hops = c.version - i;
            }
        }
        (anchor, hops)
    }

    /// How many delta applications reconstructing version `i` costs right
    /// now.
    pub fn reconstruct_hops(&self, i: usize) -> usize {
        assert!(i <= self.latest_index(), "version {i} does not exist");
        self.nearest_anchor(i).1
    }

    /// The worst-case [`VersionChain::reconstruct_hops`] over every stored
    /// version — the number a compaction policy bounds.
    pub fn max_reconstruct_hops(&self) -> usize {
        let mut anchors: Vec<usize> = self.checkpoints.iter().map(|c| c.version).collect();
        anchors.push(self.latest_index());
        anchors.dedup();
        // Below the first anchor only a backward walk reaches version 0;
        // between anchors the worst case sits at the midpoint.
        let mut worst = anchors[0];
        for w in anchors.windows(2) {
            worst = worst.max((w[1] - w[0]) / 2);
        }
        worst
    }

    /// Number of materialized checkpoints.
    pub fn checkpoint_count(&self) -> usize {
        self.checkpoints.len()
    }

    /// Whether reconstruction cost exceeds `every` hops — the trigger
    /// [`VersionChain::compact`] callers poll.
    pub fn needs_compaction(&self, every: usize) -> bool {
        self.max_reconstruct_hops() > every.max(1)
    }

    /// Materialize checkpoints at every multiple of `every` (≥ 1) that
    /// lacks one, folding each span of deltas into a single aggregated
    /// delta via [`aggregate_chain`] and applying it to the previous
    /// anchor. Afterwards any version reconstructs in at most `every` hops
    /// (at most `⌈every / 2⌉` in the interior). Returns the number of
    /// checkpoints added.
    ///
    /// The cost is one full document copy per `every` versions — the
    /// classic log-compaction space/time trade. Checkpoints are in-memory
    /// only: persistence stores `v0 + deltas` and a reloaded chain is
    /// re-compacted by its owner's policy.
    pub fn compact(&mut self, every: usize) -> Result<usize, ApplyError> {
        let every = every.max(1);
        let mut added = 0;
        let mut boundary = 0;
        while boundary < self.latest_index() {
            if !self.checkpoints.iter().any(|c| c.version == boundary) {
                let (prev_version, prev_doc) = match self
                    .checkpoints
                    .iter()
                    .rev()
                    .find(|c| c.version < boundary)
                {
                    Some(c) => (c.version, c.doc.clone()),
                    None => (0, self.version(0)?),
                };
                let mut doc = prev_doc;
                if boundary > prev_version {
                    let span = aggregate_chain(&doc, &self.deltas[prev_version..boundary])?;
                    span.apply_to(&mut doc)?;
                }
                // Reconstructed by applying deltas, kept for good.
                doc.shed_garbage();
                let at = self
                    .checkpoints
                    .iter()
                    .position(|c| c.version > boundary)
                    .unwrap_or(self.checkpoints.len());
                self.checkpoints.insert(at, Checkpoint { version: boundary, doc });
                added += 1;
            }
            boundary += every;
        }
        Ok(added)
    }

    /// The aggregated delta transforming version `i` into version `j`
    /// (`i <= j`) — "constructing the changes between some versions n and
    /// n′" (§2). Both endpoints are reconstructed through the bounded
    /// anchor walk, and the XID-matched diff between them *is* the
    /// aggregate of the intervening deltas (that is how [`aggregate_chain`]
    /// computes it).
    pub fn delta_between(&self, i: usize, j: usize) -> Result<Delta, ApplyError> {
        assert!(i <= j && j <= self.latest_index(), "bad version range {i}..{j}");
        let base = self.version(i)?;
        let target = self.version(j)?;
        Ok(diff_by_xid(&base, &target))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xid::Xid;

    fn text_xid(d: &XidDocument) -> Xid {
        let n = d
            .doc
            .tree
            .descendants(d.doc.tree.root())
            .find(|&n| d.doc.tree.kind(n).is_text())
            .unwrap();
        d.xid(n).unwrap()
    }

    fn update(xid: Xid, old: &str, new: &str) -> Delta {
        Delta::build(|b| {
            b.update(xid, old, new);
        })
    }

    fn chain() -> (VersionChain, Xid) {
        let v0 = XidDocument::parse_initial("<doc><p>v0</p></doc>").unwrap();
        let t = text_xid(&v0);
        let mut chain = VersionChain::new(v0);
        chain.push_delta(update(t, "v0", "v1")).unwrap();
        chain.push_delta(update(t, "v1", "v2")).unwrap();
        chain.push_delta(update(t, "v2", "v3")).unwrap();
        (chain, t)
    }

    #[test]
    fn latest_reflects_all_deltas() {
        let (chain, _) = chain();
        assert_eq!(chain.latest_index(), 3);
        assert_eq!(chain.version_count(), 4);
        assert_eq!(chain.latest().doc.to_xml(), "<doc><p>v3</p></doc>");
    }

    #[test]
    fn any_past_version_reconstructs() {
        let (chain, _) = chain();
        for i in 0..4 {
            let v = chain.version(i).unwrap();
            assert_eq!(v.doc.to_xml(), format!("<doc><p>v{i}</p></doc>"));
        }
    }

    #[test]
    fn delta_between_aggregates() {
        let (chain, _) = chain();
        let d = chain.delta_between(0, 3).unwrap();
        assert_eq!(d.len(), 1, "three updates must aggregate to one");
        let d = chain.delta_between(1, 1).unwrap();
        assert!(d.is_empty());
    }

    #[test]
    fn push_version_from_external_diff() {
        let v0 = XidDocument::parse_initial("<doc><p>a</p></doc>").unwrap();
        let t = text_xid(&v0);
        let mut v1 = v0.clone();
        let d = update(t, "a", "b");
        d.apply_to(&mut v1).unwrap();
        let mut chain = VersionChain::new(v0);
        chain.push_version(v1, d);
        assert_eq!(chain.latest().doc.to_xml(), "<doc><p>b</p></doc>");
        assert_eq!(chain.version(0).unwrap().doc.to_xml(), "<doc><p>a</p></doc>");
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn out_of_range_version_panics() {
        let (chain, _) = chain();
        let _ = chain.version(9);
    }

    fn long_chain(n: usize) -> VersionChain {
        let v0 = XidDocument::parse_initial("<doc><p>v0</p></doc>").unwrap();
        let t = text_xid(&v0);
        let mut chain = VersionChain::new(v0);
        for i in 1..=n {
            chain.push_delta(update(t, &format!("v{}", i - 1), &format!("v{i}"))).unwrap();
        }
        chain
    }

    #[test]
    fn compact_bounds_reconstruction_hops() {
        let mut chain = long_chain(40);
        assert_eq!(chain.max_reconstruct_hops(), 40, "uncompacted cost is the full walk");
        assert_eq!(chain.reconstruct_hops(0), 40);
        let added = chain.compact(8).unwrap();
        assert_eq!(added, 5, "checkpoints at 0, 8, 16, 24, 32");
        assert_eq!(chain.checkpoint_count(), 5);
        assert!(chain.max_reconstruct_hops() <= 8, "{}", chain.max_reconstruct_hops());
        for i in 0..=40 {
            assert!(chain.reconstruct_hops(i) <= 8, "version {i}");
        }
    }

    #[test]
    fn compaction_preserves_every_version_byte_identically() {
        let mut chain = long_chain(25);
        let before: Vec<String> =
            (0..=25).map(|i| chain.version(i).unwrap().doc.to_xml()).collect();
        chain.compact(4).unwrap();
        for (i, xml) in before.iter().enumerate() {
            assert_eq!(&chain.version(i).unwrap().doc.to_xml(), xml, "version {i}");
            assert_eq!(chain.version(i).unwrap().doc.to_xml(), format!("<doc><p>v{i}</p></doc>"));
        }
    }

    #[test]
    fn compact_is_idempotent_and_incremental() {
        let mut chain = long_chain(20);
        assert!(chain.compact(5).unwrap() > 0);
        assert_eq!(chain.compact(5).unwrap(), 0, "second pass adds nothing");
        // Growing the chain re-triggers compaction only when the bound is
        // exceeded, and a new pass fills in the new boundaries.
        let t = text_xid(chain.latest());
        for i in 21..=40 {
            chain.push_delta(update(t, &format!("v{}", i - 1), &format!("v{i}"))).unwrap();
        }
        assert!(chain.needs_compaction(5));
        assert!(chain.compact(5).unwrap() > 0);
        assert!(!chain.needs_compaction(5));
        for i in 0..=40 {
            assert_eq!(chain.version(i).unwrap().doc.to_xml(), format!("<doc><p>v{i}</p></doc>"));
        }
    }

    #[test]
    fn delta_between_unchanged_by_compaction() {
        let mut chain = long_chain(12);
        let before = crate::xml_io::delta_to_xml(&chain.delta_between(2, 9).unwrap());
        chain.compact(3).unwrap();
        let after = crate::xml_io::delta_to_xml(&chain.delta_between(2, 9).unwrap());
        assert_eq!(before, after);
    }

    #[test]
    fn needs_compaction_respects_threshold() {
        let chain = long_chain(10);
        assert!(chain.needs_compaction(5));
        assert!(!chain.needs_compaction(10));
        assert!(!chain.needs_compaction(64));
    }
}
