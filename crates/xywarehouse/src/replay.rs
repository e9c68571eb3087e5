//! Replaying a write-ahead delta log into repositories.
//!
//! The log is the warehouse's only durable form, so recovery is
//! `Wal::open` followed by [`apply_records`] over every record it returns:
//! an `Init` record creates a chain from its document, each `Delta` record
//! appends one version. Replay is **idempotent by version arithmetic**: a
//! record producing a version the chain already has is skipped (the same
//! records were folded in before), a record producing exactly the next
//! version is applied, and anything further ahead is a hard error — the
//! log skips part of a key's history, which recovery must surface rather
//! than paper over.
//!
//! Every delta record passes the static validator (`xydelta::verify`)
//! *before* it touches a chain, so a record that decodes cleanly (its WAL
//! checksum matched) but carries a semantically corrupt delta is rejected
//! here, exactly like a freshly computed delta would be on the ingest path.

use crate::repository::Repository;
use std::fmt;
use xydelta::{xml_io, XidDocument};
use xytree::Document;
use xywal::Record;

/// What a replay pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Chains created from `Init` records.
    pub initialized: usize,
    /// Delta records applied on top of existing chains.
    pub applied: usize,
    /// Records skipped because the chain already held their version.
    pub skipped: usize,
}

impl ReplayStats {
    /// Total records consumed.
    pub fn total(&self) -> usize {
        self.initialized + self.applied + self.skipped
    }
}

/// Why replay stopped. Every variant names the offending record's LSN and
/// key so an operator can find it with `xydiff wal inspect`.
#[derive(Debug)]
pub enum ReplayError {
    /// The record payload does not parse as XML / as a delta.
    Parse {
        /// Record LSN.
        lsn: u64,
        /// Document key.
        key: String,
        /// Parser message.
        message: String,
    },
    /// The delta decoded but failed static verification — it never reaches
    /// the chain.
    Invalid {
        /// Record LSN.
        lsn: u64,
        /// Document key.
        key: String,
        /// Validator message.
        message: String,
    },
    /// The record's version is ahead of the chain: the log skips part of
    /// the key's history (records lost, or logs mixed up).
    Gap {
        /// Record LSN.
        lsn: u64,
        /// Document key.
        key: String,
        /// The version the chain could accept next.
        expected: u64,
        /// The version the record claims to produce.
        found: u64,
    },
    /// The delta verified but did not apply to the reconstructed chain.
    Apply {
        /// Record LSN.
        lsn: u64,
        /// Document key.
        key: String,
        /// Application error.
        message: String,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Parse { lsn, key, message } => {
                write!(f, "wal record lsn={lsn} key={key:?} does not parse: {message}")
            }
            ReplayError::Invalid { lsn, key, message } => {
                write!(f, "wal record lsn={lsn} key={key:?} fails delta verification: {message}")
            }
            ReplayError::Gap { lsn, key, expected, found } => write!(
                f,
                "wal record lsn={lsn} key={key:?} produces version {found} but the chain \
                 expects {expected}: the log skips part of this key's history"
            ),
            ReplayError::Apply { lsn, key, message } => {
                write!(f, "wal record lsn={lsn} key={key:?} does not apply: {message}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// Fold `records` (LSN order) into `shards`, routing each key through
/// `route` exactly like live ingest does. Returns counts; fails fast on
/// the first record that cannot be reconciled.
pub fn apply_records(
    records: &[(u64, Record)],
    shards: &[Repository],
    route: impl Fn(&str) -> usize,
) -> Result<ReplayStats, ReplayError> {
    let mut stats = ReplayStats::default();
    if shards.is_empty() {
        return Ok(stats);
    }
    for (lsn, record) in records {
        let repo = &shards[route(record.key()).min(shards.len() - 1)];
        match record {
            Record::Init { key, xml } => {
                if repo.version_count(key) > 0 {
                    stats.skipped += 1;
                    continue;
                }
                let doc = Document::parse(xml).map_err(|e| ReplayError::Parse {
                    lsn: *lsn,
                    key: key.clone(),
                    message: e.to_string(),
                })?;
                repo.install_chain(key.clone(), XidDocument::assign_initial(doc));
                stats.initialized += 1;
            }
            Record::Delta { key, version, delta_xml } => {
                let have = repo.version_count(key) as u64;
                // A chain with `have` versions stores indices 0..have; the
                // next delta to arrive produces index `have`.
                if *version < have {
                    stats.skipped += 1;
                    continue;
                }
                if *version > have || have == 0 {
                    return Err(ReplayError::Gap {
                        lsn: *lsn,
                        key: key.clone(),
                        expected: have,
                        found: *version,
                    });
                }
                let delta = xml_io::parse_delta(delta_xml).map_err(|e| ReplayError::Parse {
                    lsn: *lsn,
                    key: key.clone(),
                    message: e.to_string(),
                })?;
                xydelta::verify(&delta).map_err(|e| ReplayError::Invalid {
                    lsn: *lsn,
                    key: key.clone(),
                    message: e.to_string(),
                })?;
                repo.append_replayed_delta(key, delta).map_err(|e| ReplayError::Apply {
                    lsn: *lsn,
                    key: key.clone(),
                    message: e.to_string(),
                })?;
                stats.applied += 1;
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xywal::Record;

    /// Run `versions` through a live repository, logging exactly what the
    /// ingest server would, and return (reference repo, records).
    fn ingest_and_log(key: &str, versions: &[&str]) -> (Repository, Vec<(u64, Record)>) {
        let repo = Repository::new();
        let mut records = Vec::new();
        let mut lsn = 0;
        for xml in versions {
            let out = repo.load_version(key, xml).unwrap();
            lsn += 1;
            if out.version == 0 {
                let canonical = Document::parse(xml).unwrap().to_xml();
                records.push((lsn, Record::Init { key: key.into(), xml: canonical }));
            } else {
                records.push((
                    lsn,
                    Record::Delta {
                        key: key.into(),
                        version: out.version as u64,
                        delta_xml: xml_io::delta_to_xml(&out.delta),
                    },
                ));
            }
        }
        (repo, records)
    }

    const VERSIONS: [&str; 4] = [
        "<log><e>a</e></log>",
        "<log><e>a</e><e>b</e></log>",
        "<log><e>b</e><e>a!</e></log>",
        "<log><e>b</e></log>",
    ];

    #[test]
    fn full_replay_reproduces_every_version() {
        let (reference, records) = ingest_and_log("doc", &VERSIONS);
        let fresh = vec![Repository::new()];
        let stats = apply_records(&records, &fresh, |_| 0).unwrap();
        assert_eq!(stats, ReplayStats { initialized: 1, applied: 3, skipped: 0 });
        assert_eq!(fresh[0].version_count("doc"), 4);
        for i in 0..4 {
            assert_eq!(
                fresh[0].version_xml("doc", i).unwrap(),
                reference.version_xml("doc", i).unwrap(),
                "version {i}"
            );
        }
        // Ingest continues seamlessly on the replayed chain.
        let out = fresh[0].load_version("doc", "<log><e>z</e></log>").unwrap();
        assert_eq!(out.version, 4);
    }

    #[test]
    fn replay_on_top_of_existing_chains_skips_covered_records() {
        let (reference, records) = ingest_and_log("doc", &VERSIONS);
        // A repo already holding the first two versions: their records
        // must be skipped, the rest applied.
        let partial = Repository::new();
        partial.load_version("doc", VERSIONS[0]).unwrap();
        partial.load_version("doc", VERSIONS[1]).unwrap();
        let shards = vec![partial];
        let stats = apply_records(&records, &shards, |_| 0).unwrap();
        assert_eq!(stats, ReplayStats { initialized: 0, applied: 2, skipped: 2 });
        for i in 0..4 {
            assert_eq!(
                shards[0].version_xml("doc", i).unwrap(),
                reference.version_xml("doc", i).unwrap()
            );
        }
    }

    #[test]
    fn replay_routes_keys_across_shards() {
        let (_, mut records) = ingest_and_log("a", &VERSIONS[..2]);
        let (_, more) = ingest_and_log("b", &VERSIONS[2..]);
        records.extend(more);
        let shards = vec![Repository::new(), Repository::new()];
        let stats = apply_records(&records, &shards, |k| usize::from(k == "b")).unwrap();
        assert_eq!(stats.total(), 4);
        assert_eq!(shards[0].version_count("a"), 2);
        assert_eq!(shards[0].version_count("b"), 0);
        assert_eq!(shards[1].version_count("b"), 2);
    }

    #[test]
    fn version_gap_is_a_hard_error() {
        let (_, records) = ingest_and_log("doc", &VERSIONS);
        // Drop the init + first delta: the remaining records are ahead of
        // an empty warehouse.
        let fresh = vec![Repository::new()];
        match apply_records(&records[2..], &fresh, |_| 0) {
            Err(ReplayError::Gap { expected, found, .. }) => {
                assert_eq!(expected, 0);
                assert_eq!(found, 2);
            }
            other => panic!("expected Gap, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_delta_is_rejected_before_reaching_the_chain() {
        let (_, mut records) = ingest_and_log("doc", &VERSIONS);
        // Corrupt the payload of the second delta while keeping it
        // well-formed XML: swap in a delta whose ops are inconsistent
        // (an update on a node XID that its own v-attr contradicts).
        let bogus = "<delta><update xid=\"99\" old=\"x\" new=\"y\"/></delta>";
        if let Record::Delta { delta_xml, .. } = &mut records[2].1 {
            *delta_xml = bogus.to_string();
        } else {
            panic!("record 2 should be a delta");
        }
        let fresh = vec![Repository::new()];
        let err = apply_records(&records, &fresh, |_| 0).unwrap_err();
        assert!(
            matches!(err, ReplayError::Parse { .. } | ReplayError::Invalid { .. }),
            "got {err:?}"
        );
        // The failing record was not applied; the chain holds only what
        // preceded it.
        assert_eq!(fresh[0].version_count("doc"), 2);
    }

    #[test]
    fn unparsable_init_reports_lsn_and_key() {
        let records = vec![(7u64, Record::Init { key: "k".into(), xml: "<broken".into() })];
        let fresh = vec![Repository::new()];
        match apply_records(&records, &fresh, |_| 0) {
            Err(ReplayError::Parse { lsn, key, .. }) => {
                assert_eq!(lsn, 7);
                assert_eq!(key, "k");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn empty_inputs_are_fine() {
        assert_eq!(apply_records(&[], &[Repository::new()], |_| 0).unwrap().total(), 0);
        let (_, records) = ingest_and_log("doc", &VERSIONS[..1]);
        assert_eq!(apply_records(&records, &[], |_| 0).unwrap().total(), 0);
    }
}
