//! Matcher selection: one diff pipeline, three matching philosophies.
//!
//! [`MatchMode`] is carried by [`DiffOptions`](crate::DiffOptions), and every
//! entry point — the free functions, the [`Differ`](crate::Differ) builder,
//! the warehouse, the server, the CLI — honours it. Every mode runs the same
//! phase 2 (signatures and weights) and the same phase 5 (XID inheritance
//! and delta construction), so all three emit valid,
//! `xydelta::verify`-clean XyDeltas over the same change model; the mode
//! decides only how the nodes in between are matched. Per-mode tuning is a
//! handful of constants beside the matcher that reads them.

use std::fmt;
use std::str::FromStr;

/// Which matcher the diff pipeline runs.
///
/// All modes share phase 5 (XID inheritance + delta construction), so the
/// produced delta is correct by construction regardless of the matching's
/// quality — the mode only decides *which* nodes are considered "the same",
/// i.e. how small the delta is and what it costs to compute.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum MatchMode {
    /// The paper's ordered BULD algorithm (§5.2): signature matching,
    /// heaviest-first, with up/down propagation. The production default.
    #[default]
    Buld,
    /// X-Diff-style unordered matching (Wang/DeWitt/Cai): children pair by
    /// subtree-signature **multiset** instead of position, so data-centric
    /// documents whose element order is incidental produce small deltas
    /// under reordering.
    Unordered,
    /// The LaDiff-inspired similarity comparator (§3): leaves by textual
    /// Dice similarity, internal nodes by matched-children vote.
    Similarity,
}

impl MatchMode {
    /// The stable lowercase name `--mode` takes on the CLI and the server
    /// prints in its start-up banner.
    pub fn as_str(self) -> &'static str {
        match self {
            MatchMode::Buld => "buld",
            MatchMode::Unordered => "unordered",
            MatchMode::Similarity => "similarity",
        }
    }

    /// All modes, in display order.
    pub fn all() -> [MatchMode; 3] {
        [MatchMode::Buld, MatchMode::Unordered, MatchMode::Similarity]
    }
}

impl fmt::Display for MatchMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error parsing a [`MatchMode`] name (CLI `--mode` values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseMatchModeError;

impl fmt::Display for ParseMatchModeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("unknown match mode (expected buld, unordered or similarity)")
    }
}

impl std::error::Error for ParseMatchModeError {}

impl FromStr for MatchMode {
    type Err = ParseMatchModeError;

    fn from_str(s: &str) -> Result<MatchMode, ParseMatchModeError> {
        match s {
            "buld" => Ok(MatchMode::Buld),
            "unordered" => Ok(MatchMode::Unordered),
            "similarity" => Ok(MatchMode::Similarity),
            _ => Err(ParseMatchModeError),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_names_round_trip() {
        for mode in MatchMode::all() {
            assert_eq!(mode.as_str().parse::<MatchMode>(), Ok(mode));
            assert_eq!(mode.to_string(), mode.as_str());
        }
        assert!("fuzzy".parse::<MatchMode>().is_err());
        assert!("BULD".parse::<MatchMode>().is_err(), "names are case-sensitive");
    }

    #[test]
    fn default_mode_is_buld() {
        assert_eq!(MatchMode::default(), MatchMode::Buld);
    }
}
