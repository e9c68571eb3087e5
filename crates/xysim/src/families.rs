//! Targeted change families beyond the paper's uniform simulator.
//!
//! The three-phase simulator of [`crate::change`] draws every operation
//! from one distribution; differential testing of the *matchers* needs
//! families that isolate a single axis of change:
//!
//! - [`shuffle_children`] permutes sibling order without touching content —
//!   the regime where an unordered matcher should beat an ordered one;
//! - [`attribute_churn`] mutates attribute sets in place — changes that
//!   every matcher must express purely as attribute operations.
//!
//! Both follow the simulator's contract: the result carries the new version
//! (sharing XIDs with the old one, so the perfect delta falls out of the
//! XID-matched diff) and never violates the reparse-lossless rule (two text
//! nodes are never made adjacent — "or else both data will be merged in the
//! parsing of the resulting document").

use crate::change::{SimActions, SimulatedChange};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xydelta::diff_by_xid::diff_by_xid;
use xydelta::XidDocument;
use xytree::{NodeId, NodeKind};

/// Configuration of [`shuffle_children`].
#[derive(Debug, Clone)]
pub struct ShuffleConfig {
    /// Probability that an element with at least two children has its
    /// child order permuted.
    pub p_shuffle: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ShuffleConfig {
    fn default() -> Self {
        ShuffleConfig { p_shuffle: 0.5, seed: 0 }
    }
}

/// Permute child order across the document without changing any content.
///
/// Every shuffled element keeps exactly the same child multiset; only the
/// order changes, so the perfect delta contains move operations and nothing
/// else. Permutations that would make two text nodes adjacent are redrawn a
/// few times and then skipped (preserving reparse-losslessness).
pub fn shuffle_children(old: &XidDocument, cfg: &ShuffleConfig) -> SimulatedChange {
    let p = if cfg.p_shuffle.is_finite() { cfg.p_shuffle.clamp(0.0, 1.0) } else { 0.0 };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut work = old.clone();
    let mut actions = SimActions::default();

    let root = work.doc.tree.root();
    let elements: Vec<NodeId> = work
        .doc
        .tree
        .descendants(root)
        .filter(|&n| work.doc.tree.kind(n).is_element() || n == root)
        .collect();
    for el in elements {
        let children: Vec<NodeId> = work.doc.tree.children(el).collect();
        if children.len() < 2 || !rng.gen_bool(p) {
            continue;
        }
        // Draw permutations until one is both non-identity and text-safe;
        // give up after a few tries (e.g. all-text children can never be
        // safely permuted).
        let mut order = children.clone();
        let mut ok = false;
        for _ in 0..8 {
            // Fisher–Yates.
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            let text_safe = !order
                .windows(2)
                .any(|w| {
                    work.doc.tree.kind(w[0]).is_text() && work.doc.tree.kind(w[1]).is_text()
                });
            if text_safe && order != children {
                ok = true;
                break;
            }
        }
        if !ok {
            continue;
        }
        for &c in &order {
            // Re-appending in permuted order rebuilds the sibling list;
            // XIDs ride on the (stable) node ids.
            work.doc.tree.detach(c);
        }
        for &c in &order {
            work.doc.tree.append_child(el, c);
        }
        actions.moved_subtrees += order.len();
    }

    let perfect_delta = diff_by_xid(old, &work);
    SimulatedChange { new_version: work, perfect_delta, actions }
}

/// Configuration of [`attribute_churn`].
#[derive(Debug, Clone)]
pub struct AttrChurnConfig {
    /// Probability that an existing attribute's value is rewritten.
    pub p_set: f64,
    /// Probability that an existing attribute is removed.
    pub p_remove: f64,
    /// Probability that an element receives a fresh attribute.
    pub p_add: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AttrChurnConfig {
    fn default() -> Self {
        AttrChurnConfig { p_set: 0.2, p_remove: 0.1, p_add: 0.1, seed: 0 }
    }
}

/// Mutate attribute sets in place: rewrite, remove, and add attributes on
/// the document's elements, touching nothing else.
///
/// Node identity is never disturbed, so the perfect delta consists purely
/// of attribute operations — the family that exercises every matcher's
/// attribute diffing on identical structure.
pub fn attribute_churn(old: &XidDocument, cfg: &AttrChurnConfig) -> SimulatedChange {
    let clamp = |p: f64| if p.is_finite() { p.clamp(0.0, 1.0) } else { 0.0 };
    let (p_set, p_remove, p_add) = (clamp(cfg.p_set), clamp(cfg.p_remove), clamp(cfg.p_add));
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut work = old.clone();
    let mut actions = SimActions::default();
    let mut fresh = 0u64;

    let root = work.doc.tree.root();
    let elements: Vec<NodeId> =
        work.doc.tree.descendants(root).filter(|&n| work.doc.tree.kind(n).is_element()).collect();
    for el in elements {
        let names: Vec<String> = match work.doc.tree.kind(el) {
            NodeKind::Element(e) => e.attrs.iter().map(|a| a.name.as_str().to_string()).collect(),
            _ => continue,
        };
        for name in names {
            if rng.gen_bool(p_remove) {
                work.doc.tree.remove_attr(el, &name);
                actions.updated_texts += 1;
            } else if rng.gen_bool(p_set) {
                fresh += 1;
                work.doc.tree.set_attr(el, &name, format!("churned-{fresh}"));
                actions.updated_texts += 1;
            }
        }
        if rng.gen_bool(p_add) {
            fresh += 1;
            work.doc.tree.set_attr(el, format!("added{}", fresh % 7), format!("fresh-{fresh}"));
            actions.updated_texts += 1;
        }
    }

    let perfect_delta = diff_by_xid(old, &work);
    SimulatedChange { new_version: work, perfect_delta, actions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::docgen::{generate, DocGenConfig, DocKind};

    fn base(seed: u64) -> XidDocument {
        let doc = generate(&DocGenConfig {
            kind: DocKind::Catalog,
            target_nodes: 300,
            seed,
            id_attributes: false,
        });
        XidDocument::assign_initial(doc)
    }

    #[test]
    fn shuffle_emits_moves_only() {
        for seed in 0..5u64 {
            let old = base(seed);
            let sim = shuffle_children(&old, &ShuffleConfig { p_shuffle: 0.8, seed });
            let c = sim.perfect_delta.counts();
            assert_eq!((c.deletes, c.inserts, c.updates, c.attr_ops), (0, 0, 0, 0), "seed {seed}");
            if sim.actions.moved_subtrees > 0 {
                assert!(c.moves > 0, "seed {seed}: shuffles must show up as moves");
            }
            let mut replay = old.clone();
            sim.perfect_delta.apply_to(&mut replay).unwrap();
            assert_eq!(replay.doc.to_xml(), sim.new_version.doc.to_xml(), "seed {seed}");
        }
    }

    #[test]
    fn shuffle_output_reparses_losslessly() {
        for seed in 0..5u64 {
            let old = base(seed);
            let sim = shuffle_children(&old, &ShuffleConfig { p_shuffle: 1.0, seed });
            let xml = sim.new_version.doc.to_xml();
            let reparsed = xytree::Document::parse(&xml).unwrap();
            assert_eq!(reparsed.to_xml(), xml, "seed {seed}");
        }
    }

    #[test]
    fn attr_churn_emits_attr_ops_only() {
        for seed in 0..5u64 {
            let old = base(seed);
            let sim = attribute_churn(&old, &AttrChurnConfig { seed, ..Default::default() });
            let c = sim.perfect_delta.counts();
            assert_eq!((c.deletes, c.inserts, c.updates, c.moves), (0, 0, 0, 0), "seed {seed}");
            if sim.actions.updated_texts > 0 {
                assert!(c.attr_ops > 0, "seed {seed}: churn must show up as attr ops");
            }
            let mut replay = old.clone();
            sim.perfect_delta.apply_to(&mut replay).unwrap();
            assert_eq!(replay.doc.to_xml(), sim.new_version.doc.to_xml(), "seed {seed}");
        }
    }

    #[test]
    fn zero_probability_is_identity() {
        let old = base(1);
        let s = shuffle_children(&old, &ShuffleConfig { p_shuffle: 0.0, seed: 1 });
        assert!(s.perfect_delta.is_empty());
        let a = attribute_churn(
            &old,
            &AttrChurnConfig { p_set: 0.0, p_remove: 0.0, p_add: 0.0, seed: 1 },
        );
        assert!(a.perfect_delta.is_empty());
    }
}
