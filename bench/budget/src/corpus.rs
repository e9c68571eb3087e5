//! The stationary corpus: every version of a document is one simulated edit
//! of the *same* base (a star, not a chain).
//!
//! Iterating `xysim::simulate` on its own output compounds size — a 2.3 KB
//! catalog passes 40 MB in 31 steps — so a chained corpus would measure a
//! different document every version. Editing the base each time keeps every
//! snapshot of a key within a factor 1.5 of every other, while consecutive
//! snapshots still differ by about twice the edit rate.

use crate::layers::Base;
use crate::stats::{mix_seed, Fnv64};

/// The shape of one workload's corpus.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub docs: usize,
    /// Tree nodes of a base document, as first asked of the generator …
    pub target_nodes: usize,
    /// … and the serialized size every base is then steered to. The four
    /// families spend between 13 and 42 bytes per node, and one family's
    /// documents vary 2x at equal node count; left alone, the mean document
    /// of a 48-document corpus would move ±7% with the seed, and every
    /// per-document metric with it.
    pub nominal_bytes: usize,
    pub versions: usize,
    /// Per-node probability of each edit operation, per version.
    pub rate: f64,
}

/// Largest allowed max/min snapshot size within one key.
pub const MAX_SIZE_RATIO: f64 = 1.5;

/// An edit is kept when its size is within these factors of the base's;
/// their quotient is just under [`MAX_SIZE_RATIO`].
const NEAR: (f64, f64) = (0.82, 1.22);
/// Draws before giving up on one version.
const EDIT_DRAWS: u64 = 64;

fn near(len: usize, base: usize) -> bool {
    let ratio = len as f64 / base.max(1) as f64;
    (NEAR.0..=NEAR.1).contains(&ratio)
}

/// A base is kept when its size is within this share of the nominal size.
const BASE_TOLERANCE: f64 = 0.08;
/// Generator calls before settling for the closest base seen.
const BASE_DRAWS: usize = 8;

impl Shape {
    /// Base document `d`: generated, measured, and generated again with the
    /// node count scaled by the miss, until its size is near the nominal one.
    fn base(&self, d: usize, seed: u64) -> Base {
        let mut nodes = self.target_nodes;
        let mut closest: Option<(f64, Base)> = None;
        for _ in 0..BASE_DRAWS {
            let base = Base::generate(d, nodes, seed);
            let ratio = base.xml().len() as f64 / self.nominal_bytes as f64;
            let miss = (ratio - 1.0).abs();
            if miss <= BASE_TOLERANCE {
                return base;
            }
            nodes = ((nodes as f64 / ratio).round() as usize).max(8);
            if closest.as_ref().is_none_or(|(best, _)| miss < *best) {
                closest = Some((miss, base));
            }
        }
        closest.expect("BASE_DRAWS > 0").1
    }
}

/// The seed and size of the fixed canary corpus whose fingerprint is
/// recorded in `BENCHMARK.json` (see [`Shape::canary_fingerprint`]).
const CANARY_SEED: u64 = 11;
const CANARY_DOCS: usize = 4;
const CANARY_VERSIONS: usize = 3;

pub struct Corpus {
    /// `snapshots[d][v]`: canonical XML of version `v` of document `d`.
    pub snapshots: Vec<Vec<String>>,
    /// FNV-64 over every snapshot in (d, v) order, length-prefixed.
    pub fingerprint: u64,
    pub bytes: u64,
}

impl Shape {
    pub fn generate(&self, seed: u64) -> Result<Corpus, String> {
        let mut hash = Fnv64::new();
        let mut bytes = 0u64;
        let mut snapshots = Vec::with_capacity(self.docs);
        for d in 0..self.docs {
            let base = self.base(d, mix_seed(&[seed, d as u64]));
            let mut versions = vec![base.xml()];
            let base_len = versions[0].len();
            for v in 1..self.versions {
                // One edit can delete or clone a top-level subtree (1 in 8
                // does on a 110-node document); such a draw is taken again
                // with the next sub-seed, so the choice stays a function of
                // the seed alone.
                let edit = (0..EDIT_DRAWS)
                    .map(|draw| {
                        base.edited_xml(self.rate, mix_seed(&[seed, d as u64, v as u64, draw]))
                    })
                    .find(|xml| near(xml.len(), base_len))
                    .ok_or_else(|| {
                        format!("document {d} version {v}: no edit near the base size")
                    })?;
                versions.push(edit);
            }
            let ratio = size_ratio(&versions);
            if ratio > MAX_SIZE_RATIO {
                return Err(format!(
                    "document {d}: snapshot sizes spread by {ratio:.2}x"
                ));
            }
            for xml in &versions {
                hash.write(&(xml.len() as u64).to_le_bytes());
                hash.write(xml.as_bytes());
                bytes += xml.len() as u64;
            }
            snapshots.push(versions);
        }
        Ok(Corpus {
            snapshots,
            fingerprint: hash.finish(),
            bytes,
        })
    }

    /// Fingerprint of a small corpus of this shape at a fixed seed. It does
    /// not depend on `--seed`, so it can be recorded once: a change to the
    /// generator (or to serialization) that would silently change what the
    /// workloads measure changes this value.
    pub fn canary_fingerprint(&self) -> Result<u64, String> {
        let canary = Shape {
            docs: CANARY_DOCS,
            versions: CANARY_VERSIONS,
            ..*self
        };
        Ok(canary.generate(CANARY_SEED)?.fingerprint)
    }
}

/// max/min byte length over one key's snapshots.
pub fn size_ratio(versions: &[String]) -> f64 {
    let max = versions.iter().map(String::len).max().unwrap_or(1);
    let min = versions.iter().map(String::len).min().unwrap_or(1).max(1);
    max as f64 / min as f64
}

/// One request of an ingest stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    pub epoch: usize,
    pub version: usize,
    pub doc: usize,
}

impl Corpus {
    pub fn docs(&self) -> usize {
        self.snapshots.len()
    }

    pub fn versions(&self) -> usize {
        self.snapshots.first().map_or(0, Vec::len)
    }

    /// Request `i` of the version-major stream: within an epoch every key's
    /// version `v` precedes any key's `v + 1`, and epoch `e + 1` resends the
    /// same bytes under fresh keys once epoch `e` is complete.
    pub fn slot(&self, i: usize) -> Slot {
        let per_epoch = self.docs() * self.versions();
        Slot {
            epoch: i / per_epoch,
            version: (i % per_epoch) / self.docs(),
            doc: i % self.docs(),
        }
    }

    pub fn body(&self, slot: Slot) -> &str {
        &self.snapshots[slot.doc][slot.version]
    }
}

pub fn key(doc: usize, epoch: usize) -> String {
    format!("k{doc}-e{epoch}")
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Shape = Shape {
        docs: 8,
        target_nodes: 110,
        nominal_bytes: 3_000,
        versions: 12,
        rate: 0.04,
    };

    #[test]
    fn snapshot_sizes_of_a_key_stay_within_the_ratio() {
        // `generate` refuses a corpus that breaks the bound; also check the
        // bound is not vacuous (versions do differ).
        let corpus = SMALL.generate(3).unwrap();
        for versions in &corpus.snapshots {
            assert!(size_ratio(versions) <= MAX_SIZE_RATIO);
            assert!(
                versions.windows(2).any(|w| w[0] != w[1]),
                "edits must change the bytes"
            );
        }
        // Sixty star edits of larger documents stay bounded too, and every
        // base lands near its nominal size whatever its family.
        let long = Shape {
            docs: 4,
            target_nodes: 400,
            nominal_bytes: 10_000,
            versions: 60,
            rate: 0.02,
        };
        for versions in &long.generate(5).unwrap().snapshots {
            let miss = (versions[0].len() as f64 / 10_000.0 - 1.0).abs();
            assert!(
                miss <= 0.15,
                "base of {} bytes misses 10 000 by {miss:.2}",
                versions[0].len()
            );
        }
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = SMALL.generate(42).unwrap();
        let b = SMALL.generate(42).unwrap();
        let c = SMALL.generate(43).unwrap();
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.snapshots, b.snapshots);
        assert_ne!(a.fingerprint, c.fingerprint);
        assert_eq!(
            SMALL.canary_fingerprint().unwrap(),
            SMALL.canary_fingerprint().unwrap()
        );
    }

    #[test]
    fn stream_is_version_major_within_an_epoch() {
        let corpus = Shape {
            docs: 3,
            versions: 2,
            ..SMALL
        }
        .generate(1)
        .unwrap();
        let order: Vec<Slot> = (0..8).map(|i| corpus.slot(i)).collect();
        assert_eq!(
            order[0],
            Slot {
                epoch: 0,
                version: 0,
                doc: 0
            }
        );
        assert_eq!(
            order[2],
            Slot {
                epoch: 0,
                version: 0,
                doc: 2
            }
        );
        assert_eq!(
            order[3],
            Slot {
                epoch: 0,
                version: 1,
                doc: 0
            }
        );
        assert_eq!(
            order[6],
            Slot {
                epoch: 1,
                version: 0,
                doc: 0
            }
        );
        assert_eq!(key(2, 1), "k2-e1");
    }
}
