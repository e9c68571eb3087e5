//! The change simulator of §6.1.
//!
//! "The change simulator reads an XML document, and stores its nodes in
//! arrays. Then, based on some parameters (probabilities for each change
//! operations) the four types of simulated operations are created in three
//! phases: **\[delete\]** given a delete probability, we delete some nodes and
//! \[their\] entire subtree. **\[update\]** the remaining text nodes are then
//! updated (with original text data) based on their update probability.
//! **\[insert/move\]** we choose random nodes in the remaining element nodes
//! and insert a child to them … according to the type of node inserted, and
//! the move probability we do either insert data that had been deleted, e.g.
//! that corresponds to a move, or we insert 'original' data."
//!
//! Faithfulness notes:
//! - probabilities are **per node** ("because we focused on the structure of
//!   data, all probabilities are given per node");
//! - after the delete phase, update/insert probabilities are **recomputed to
//!   compensate** for the reduced node count;
//! - inserted elements **copy a tag from a sibling, cousin or ascendant**
//!   ("this is important … to preserve the distribution of labels");
//! - a text node is never inserted next to another text node ("or else both
//!   data will be merged in the parsing of the resulting document");
//! - the simulator's output is both the new version and "a delta
//!   representing the exact changes that occurred" — here obtained exactly,
//!   by tracking XIDs through the edits and taking the XID-matched diff.

use crate::words::counter_text;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xydelta::diff_by_xid;
use xydelta::{Delta, XidDocument};
use xytree::NodeId;

/// Per-node operation probabilities.
#[derive(Debug, Clone)]
pub struct ChangeConfig {
    /// Probability that a node's subtree is deleted.
    pub p_delete: f64,
    /// Probability that a surviving text node is updated.
    pub p_update: f64,
    /// Probability that a surviving element receives an inserted child.
    pub p_insert: f64,
    /// Probability that a surviving element receives a *moved* child
    /// (re-inserted deleted data).
    pub p_move: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ChangeConfig {
    fn default() -> Self {
        // The Figure 4 experiment: "the probabilities for each node to be
        // modified, deleted or have a child subtree inserted, or be moved
        // were set to 10 percent each."
        ChangeConfig { p_delete: 0.1, p_update: 0.1, p_insert: 0.1, p_move: 0.1, seed: 0 }
    }
}

impl ChangeConfig {
    /// Uniform probability for all four operations.
    pub fn uniform(p: f64, seed: u64) -> ChangeConfig {
        ChangeConfig { p_delete: p, p_update: p, p_insert: p, p_move: p, seed }
    }
}

/// What the simulator actually did (raw action counters, before the delta's
/// own canonical accounting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimActions {
    /// Subtrees detached in the delete phase (some may later be moved).
    pub detached_subtrees: usize,
    /// Text nodes rewritten.
    pub updated_texts: usize,
    /// Fresh subtrees inserted.
    pub inserted_subtrees: usize,
    /// Deleted subtrees re-inserted (= moves).
    pub moved_subtrees: usize,
}

/// Result of one simulation: the new version (sharing XIDs with the old one)
/// and the exact ("perfect") delta.
#[derive(Debug, Clone)]
pub struct SimulatedChange {
    /// The changed document; matched nodes carry the old version's XIDs.
    pub new_version: XidDocument,
    /// The exact delta old → new (the Figure 5 reference).
    pub perfect_delta: Delta,
    /// Raw action counters.
    pub actions: SimActions,
}

/// Run the three-phase simulator over `old`.
///
/// Probabilities outside `[0, 1]` (including NaN) are clamped into range
/// rather than panicking deep inside the RNG.
pub fn simulate(old: &XidDocument, cfg: &ChangeConfig) -> SimulatedChange {
    let clamp = |p: f64| if p.is_finite() { p.clamp(0.0, 1.0) } else { 0.0 };
    let cfg = ChangeConfig {
        p_delete: clamp(cfg.p_delete),
        p_update: clamp(cfg.p_update),
        p_insert: clamp(cfg.p_insert),
        p_move: clamp(cfg.p_move),
        seed: cfg.seed,
    };
    let cfg = &cfg;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut work = old.clone();
    let mut actions = SimActions::default();
    let mut text_counter = 0u64;

    let root = work.doc.tree.root();
    let root_element = work.doc.root_element();
    // "Stores its nodes in arrays."
    let all: Vec<NodeId> = work.doc.tree.descendants(root).skip(1).collect();
    let n_before = all.len().max(1);

    // --- Phase 1: deletes. ---
    let mut pool: Vec<NodeId> = Vec::new();
    for &n in &all {
        if Some(n) == root_element {
            continue; // never delete the document element
        }
        if !work.doc.tree.is_attached(n) {
            continue; // inside an already-deleted subtree
        }
        if rng.gen_bool(cfg.p_delete) {
            work.doc.tree.detach(n);
            pool.push(n);
            actions.detached_subtrees += 1;
        }
    }

    // "We recompute update and insert probabilities to compensate."
    let n_after = all.iter().filter(|&&n| work.doc.tree.is_attached(n)).count().max(1);
    let compensate = n_before as f64 / n_after as f64;
    let p_update = (cfg.p_update * compensate).min(1.0);
    let p_insert = (cfg.p_insert * compensate).min(1.0);
    let p_move = (cfg.p_move * compensate).min(1.0);

    // --- Phase 2: updates on remaining text nodes. ---
    for &n in &all {
        if !work.doc.tree.is_attached(n) {
            continue;
        }
        if work.doc.tree.kind(n).is_text() && rng.gen_bool(p_update) {
            let fresh = counter_text(&mut text_counter, &mut rng);
            work.doc.tree.set_text(n, &fresh);
            actions.updated_texts += 1;
        }
    }

    // --- Phase 3: inserts & moves on remaining element nodes. ---
    let p_im = (p_insert + p_move).min(1.0);
    let mut inserted_roots: Vec<NodeId> = Vec::new();
    for &n in &all {
        if !work.doc.tree.is_attached(n) || !work.doc.tree.kind(n).is_element() {
            continue;
        }
        if p_im <= 0.0 || !rng.gen_bool(p_im) {
            continue;
        }
        let want_move = !pool.is_empty() && rng.gen_bool(p_move / p_im);
        if want_move {
            let idx = rng.gen_range(0..pool.len());
            let sub = pool[idx];
            if let Some(pos) = safe_position(&work, n, sub, &mut rng) {
                pool.swap_remove(idx);
                work.doc.tree.insert_child_at(n, pos, sub);
                actions.moved_subtrees += 1;
                continue;
            }
            // No text-safe slot: fall through to a fresh insert.
        }
        insert_original(&mut work, n, &mut rng, &mut text_counter, &mut inserted_roots);
        actions.inserted_subtrees += 1;
    }

    // Fresh nodes need XIDs before the exact diff.
    for r in inserted_roots {
        work.assign_fresh_subtree(r);
    }
    // Unreused deleted material loses its identity.
    for n in pool {
        let nodes: Vec<NodeId> = work.doc.tree.post_order(n).collect();
        for m in nodes {
            work.clear_xid(m);
        }
    }

    let perfect_delta = diff_by_xid(old, &work);
    SimulatedChange { new_version: work, perfect_delta, actions }
}

/// A child index under `parent` where attaching `sub` cannot place two text
/// nodes side by side.
fn safe_position(
    work: &XidDocument,
    parent: NodeId,
    sub: NodeId,
    rng: &mut StdRng,
) -> Option<usize> {
    let t = &work.doc.tree;
    let count = t.children_count(parent);
    if !t.kind(sub).is_text() {
        return Some(rng.gen_range(0..=count));
    }
    let kids: Vec<NodeId> = t.children(parent).collect();
    let ok = |pos: usize| {
        let before_text = pos > 0 && t.kind(kids[pos - 1]).is_text();
        let after_text = pos < kids.len() && t.kind(kids[pos]).is_text();
        !before_text && !after_text
    };
    let start = rng.gen_range(0..=count);
    (0..=count).map(|off| (start + off) % (count + 1)).find(|&p| ok(p))
}

/// Insert "original" data under `parent`: a text node where the sibling
/// types allow it, otherwise an element whose tag is copied from a sibling,
/// cousin or ascendant.
fn insert_original(
    work: &mut XidDocument,
    parent: NodeId,
    rng: &mut StdRng,
    text_counter: &mut u64,
    inserted_roots: &mut Vec<NodeId>,
) {
    let make_text = rng.gen_bool(0.3);
    if make_text {
        let txt = counter_text(text_counter, rng);
        let node = work.doc.tree.new_text(txt);
        if let Some(pos) = safe_position(work, parent, node, rng) {
            work.doc.tree.insert_child_at(parent, pos, node);
            inserted_roots.push(node);
            return;
        }
        // No safe slot: degrade to an element insert below. The detached
        // text node stays orphaned in the arena, which is harmless.
    }
    let label = copy_label(work, parent, rng);
    let elem = work.doc.tree.new_element(label);
    let txt = counter_text(text_counter, rng);
    let t = work.doc.tree.new_text(txt);
    work.doc.tree.append_child(elem, t);
    let count = work.doc.tree.children_count(parent);
    let pos = rng.gen_range(0..=count);
    work.doc.tree.insert_child_at(parent, pos, elem);
    inserted_roots.push(elem);
}

/// "We try to copy the tag from one of its siblings, or cousin, or
/// ascendant; this is important … to preserve the distribution of labels."
fn copy_label(work: &XidDocument, parent: NodeId, rng: &mut StdRng) -> String {
    let t = &work.doc.tree;
    // Child element labels of the parent (future siblings of the insert).
    let sibs: Vec<&str> = t.children(parent).filter_map(|c| t.name(c)).collect();
    if !sibs.is_empty() {
        return sibs[rng.gen_range(0..sibs.len())].to_string();
    }
    // Cousins: children of the parent's siblings.
    if let Some(gp) = t.parent(parent) {
        let cousins: Vec<&str> = t
            .children(gp)
            .flat_map(|u| t.children(u))
            .filter_map(|c| t.name(c))
            .collect();
        if !cousins.is_empty() {
            return cousins[rng.gen_range(0..cousins.len())].to_string();
        }
    }
    // Ascendant (the parent's own label), finally a fallback.
    t.name(parent).unwrap_or("item").to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::docgen::{generate, DocGenConfig, DocKind};

    fn base(nodes: usize, seed: u64) -> XidDocument {
        let doc = generate(&DocGenConfig {
            kind: DocKind::Catalog,
            target_nodes: nodes,
            seed,
            ..Default::default()
        });
        XidDocument::assign_initial(doc)
    }

    #[test]
    fn perfect_delta_transforms_old_into_new() {
        let old = base(600, 1);
        let sim = simulate(&old, &ChangeConfig::default());
        let mut replay = old.clone();
        sim.perfect_delta.apply_to(&mut replay).expect("perfect delta applies");
        assert_eq!(replay.doc.to_xml(), sim.new_version.doc.to_xml());
    }

    #[test]
    fn inverse_of_perfect_delta_restores_old() {
        let old = base(400, 2);
        let sim = simulate(&old, &ChangeConfig::default());
        let mut back = sim.new_version.clone();
        sim.perfect_delta.inverted().apply_to(&mut back).unwrap();
        assert_eq!(back.doc.to_xml(), old.doc.to_xml());
    }

    #[test]
    fn zero_probabilities_change_nothing() {
        let old = base(300, 3);
        let sim = simulate(&old, &ChangeConfig::uniform(0.0, 9));
        assert!(sim.perfect_delta.is_empty());
        assert_eq!(sim.new_version.doc.to_xml(), old.doc.to_xml());
        assert_eq!(sim.actions, SimActions::default());
    }

    #[test]
    fn deterministic_per_seed() {
        let old = base(300, 4);
        let a = simulate(&old, &ChangeConfig::uniform(0.1, 7));
        let b = simulate(&old, &ChangeConfig::uniform(0.1, 7));
        assert_eq!(a.new_version.doc.to_xml(), b.new_version.doc.to_xml());
        assert_eq!(a.actions, b.actions);
    }

    #[test]
    fn all_operation_kinds_appear_at_default_rates() {
        let old = base(1500, 5);
        let sim = simulate(&old, &ChangeConfig::default());
        let c = sim.perfect_delta.counts();
        assert!(c.deletes > 0, "no deletes: {c:?}");
        assert!(c.inserts > 0, "no inserts: {c:?}");
        assert!(c.updates > 0, "no updates: {c:?}");
        assert!(c.moves > 0, "no moves: {c:?}");
        assert!(sim.actions.moved_subtrees > 0);
    }

    #[test]
    fn higher_rates_mean_bigger_deltas() {
        let old = base(800, 6);
        let small = simulate(&old, &ChangeConfig::uniform(0.02, 1)).perfect_delta.size_bytes();
        let large = simulate(&old, &ChangeConfig::uniform(0.3, 1)).perfect_delta.size_bytes();
        assert!(large > small * 2, "rate 0.3 ({large} B) vs 0.02 ({small} B)");
    }

    #[test]
    fn new_version_reparses_to_itself() {
        // The text-adjacency rule guarantees serialize→parse is lossless.
        let old = base(700, 7);
        let sim = simulate(&old, &ChangeConfig::default());
        let xml = sim.new_version.doc.to_xml();
        let back = xytree::Document::parse(&xml).unwrap();
        assert_eq!(back.to_xml(), xml);
        assert_eq!(
            back.node_count(),
            sim.new_version.doc.node_count(),
            "no text nodes may merge on reparse"
        );
    }

    #[test]
    fn root_element_survives_heavy_deletion() {
        let old = base(300, 8);
        let sim = simulate(&old, &ChangeConfig { p_delete: 0.9, ..ChangeConfig::uniform(0.0, 3) });
        assert!(sim.new_version.doc.root_element().is_some());
    }

    #[test]
    fn move_only_configuration_yields_moves() {
        let old = base(500, 10);
        let cfg = ChangeConfig { p_delete: 0.08, p_update: 0.0, p_insert: 0.0, p_move: 0.3, seed: 4 };
        let sim = simulate(&old, &cfg);
        assert!(sim.actions.moved_subtrees > 0);
        assert!(sim.perfect_delta.counts().moves > 0);
    }

    #[test]
    fn label_distribution_is_roughly_preserved() {
        let old = base(1200, 11);
        let sim = simulate(&old, &ChangeConfig::default());
        let before = old.doc.stats();
        let after = sim.new_version.doc.stats();
        let (dom_label, _) = before.dominant_label().unwrap();
        assert!(
            after.label_histogram.contains_key(dom_label),
            "dominant label must survive"
        );
        // New labels may not be invented out of thin air.
        for label in after.label_histogram.keys() {
            assert!(
                before.label_histogram.contains_key(label),
                "label {label} appeared from nowhere"
            );
        }
    }

    #[test]
    fn validates_xid_invariants() {
        let old = base(600, 12);
        let sim = simulate(&old, &ChangeConfig::default());
        sim.new_version.validate().expect("XID indexes must stay consistent");
    }
}
