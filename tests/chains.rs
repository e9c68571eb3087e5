//! Algebraic properties of delta chains over realistic change streams:
//! reconstruction, inversion, aggregation, and the diff's idempotence.

use xydiff_suite::xydelta::{xml_io, VersionChain, XidDocument};
use xydiff_suite::xydiff::{diff, DiffOptions};
use xydiff_suite::xysim::{generate, simulate, ChangeConfig, DocGenConfig, DocKind};

/// Build a chain of `steps` simulated versions, returning the chain plus
/// every version's canonical XML.
fn build_chain(kind: DocKind, nodes: usize, rate: f64, steps: u64, seed: u64) -> (VersionChain, Vec<String>) {
    build_checkpointed_chain(kind, nodes, rate, steps, seed, 0)
}

/// [`build_chain`] with the checkpoint interval set before the first push.
fn build_checkpointed_chain(
    kind: DocKind,
    nodes: usize,
    rate: f64,
    steps: u64,
    seed: u64,
    every: usize,
) -> (VersionChain, Vec<String>) {
    let doc = generate(&DocGenConfig { kind, target_nodes: nodes, seed, id_attributes: false });
    let mut chain = VersionChain::new(XidDocument::assign_initial(doc));
    chain.set_checkpoint_every(every);
    let mut snapshots = vec![chain.latest().doc.to_xml()];
    for step in 0..steps {
        let sim = simulate(chain.latest(), &ChangeConfig::uniform(rate, seed ^ (step + 1)));
        let r = diff(chain.latest(), &sim.new_version.doc, &DiffOptions::default());
        chain.push_version(r.new_version, r.delta);
        snapshots.push(chain.latest().doc.to_xml());
    }
    (chain, snapshots)
}

#[test]
fn every_version_reconstructs_across_a_long_chain() {
    let (chain, snapshots) = build_chain(DocKind::Catalog, 500, 0.12, 6, 11);
    for (i, want) in snapshots.iter().enumerate() {
        assert_eq!(&chain.version(i).unwrap().doc.to_xml(), want, "version {i}");
    }
}

#[test]
#[allow(clippy::needless_range_loop)]
fn aggregate_of_any_range_equals_endpoint_diff() {
    let (chain, snapshots) = build_chain(DocKind::Feed, 400, 0.1, 4, 7);
    for from in 0..snapshots.len() {
        for to in from..snapshots.len() {
            let agg = chain.delta_between(from, to).unwrap();
            let mut replay = chain.version(from).unwrap();
            agg.apply_to(&mut replay).unwrap();
            assert_eq!(
                replay.doc.to_xml(),
                snapshots[to],
                "aggregate {from}->{to} must land on the endpoint"
            );
            if from == to {
                assert!(agg.is_empty());
            }
        }
    }
}

#[test]
fn inverse_chain_walks_back_to_v0() {
    let (chain, snapshots) = build_chain(DocKind::Catalog, 400, 0.15, 5, 19);
    let mut doc = chain.latest().clone();
    for i in (0..5).rev() {
        chain.delta(i).unwrap().inverted().apply_to(&mut doc).unwrap();
        assert_eq!(doc.doc.to_xml(), snapshots[i], "walking back to version {i}");
    }
}

#[test]
fn rediffing_identical_versions_is_empty_along_the_chain() {
    let (chain, _) = build_chain(DocKind::Feed, 300, 0.1, 3, 23);
    for i in 0..=3 {
        let v = chain.version(i).unwrap();
        let r = diff(&v, &v.doc, &DiffOptions::default());
        assert!(r.delta.is_empty(), "self-diff of version {i} not empty: {}", r.delta.describe());
    }
}

#[test]
fn delta_sizes_scale_with_range_width() {
    // Aggregating a longer range should never be smaller than the largest
    // single step it contains by more than noise — sanity of aggregation
    // (it cancels work, but v0->vN must still describe the net change).
    let (chain, snapshots) = build_chain(DocKind::Catalog, 600, 0.08, 4, 29);
    let whole = chain.delta_between(0, 4).unwrap();
    assert!(!whole.is_empty());
    // The aggregated delta is never larger than the sum of the parts.
    let sum: usize = (0..4).map(|i| chain.delta(i).unwrap().size_bytes()).sum();
    assert!(
        whole.size_bytes() <= sum,
        "aggregate {} B must not exceed the sum of steps {} B",
        whole.size_bytes(),
        sum
    );
    let _ = snapshots;
}

/// A chain grown by applying deltas — what WAL replay builds — never swaps
/// in a freshly parsed tree, so the slots its deltas detach and the text
/// they replace would pile up in the latest version (and in every clone and
/// checkpoint made from it) unless the chain sheds them.
#[test]
fn replayed_chain_sheds_dead_slots_and_replaced_text() {
    let pages = [
        "<r><a><x>1</x><y>2</y></a><k>t</k></r>",
        "<r><k>a much longer text than before</k><m><p>3</p><q>4</q></m></r>",
    ];
    let parse = |i: usize| xydiff_suite::xytree::Document::parse(pages[i % 2]).unwrap();
    let mut live = VersionChain::new(XidDocument::assign_initial(parse(0)));
    let mut replayed = live.clone();
    for i in 1..=200 {
        let r = diff(live.latest(), &parse(i), &DiffOptions::default());
        let counts = r.delta.counts();
        assert!(counts.inserts > 0 && counts.deletes > 0, "step {i}: {counts:?}");
        replayed.push_delta(r.delta.clone()).unwrap();
        live.push_version(r.new_version, r.delta);

        let tree = &replayed.latest().doc.tree;
        let live_nodes = tree.subtree_size(tree.root());
        assert_eq!(live_nodes, 9);
        assert!(tree.arena_len() <= 2 * live_nodes, "step {i}: {} slots", tree.arena_len());
        assert!(!tree.is_sparse(live_nodes), "step {i}: replaced text piled up");
        replayed.latest().validate().unwrap();
    }
    replayed.compact(16).unwrap();
    for i in 0..=200 {
        let v = replayed.version(i).unwrap();
        assert_eq!(v.doc.to_xml(), pages[i % 2], "version {i}");
        if i % 16 == 0 {
            // A clone of the checkpoint itself.
            assert!(v.doc.tree.arena_len() <= 18, "checkpoint {i}: {}", v.doc.tree.arena_len());
        }
    }
}

/// The readers that index a delta's payload arena, over a long chain of
/// *decoded* deltas — what a warehouse holds after a restart. Every version
/// is an edit of one base, so consecutive versions trade subtrees back and
/// forth. Uncompacted, version `i` is reached from the latest by reading
/// deltas `i..` backwards (`apply_inverse`), so reading every version reads
/// every stored insert as a delete and every delete as an insert; after
/// compaction the same versions come from checkpoints, forwards or
/// backwards, whichever is nearer.
#[test]
fn long_decoded_chain_reads_every_version_back_before_and_after_compaction() {
    for (kind, seed) in [(DocKind::Catalog, 31), (DocKind::Feed, 37)] {
        let base = XidDocument::assign_initial(generate(&DocGenConfig {
            kind,
            target_nodes: 150,
            seed,
            id_attributes: false,
        }));
        let mut chain = VersionChain::new(base.clone());
        let mut snapshots = vec![base.doc.to_xml()];
        for step in 1..=40 {
            let edit = simulate(&base, &ChangeConfig::uniform(0.04, seed << 8 | step));
            let r = diff(chain.latest(), &edit.new_version.doc, &DiffOptions::default());
            let decoded = xml_io::parse_delta(&xml_io::delta_to_xml(&r.delta)).unwrap();
            chain.push_delta(decoded).unwrap();
            snapshots.push(edit.new_version.doc.to_xml());
        }
        for compacted in [false, true] {
            if compacted {
                assert!(chain.compact(8).unwrap() > 0);
            }
            for (i, want) in snapshots.iter().enumerate() {
                assert_eq!(
                    &chain.version(i).unwrap().doc.to_xml(),
                    want,
                    "{kind:?} version {i}, compacted: {compacted}"
                );
            }
        }
    }
}

/// The versions a chain serves without a delta application: its anchors.
fn anchors(chain: &VersionChain) -> Vec<usize> {
    (0..=chain.latest_index()).filter(|&i| chain.reconstruct_hops(i) == 0).collect()
}

/// Differential oracle for the checkpoint rule: a chain that keeps the
/// version each push replaces at every multiple of `N` holds what the same
/// history grown without checkpoints and then `compact(N)`-ed holds — the
/// same anchors, and every version with the same bytes and the same XIDs —
/// whether it grows by diffing (ingest) or by applying its deltas (replay).
#[test]
fn checkpointing_on_push_equals_compacting_afterwards() {
    for (kind, every, seed) in [(DocKind::Catalog, 4, 41), (DocKind::Feed, 5, 43)] {
        let (plain, snapshots) = build_chain(kind, 200, 0.08, 23, seed);
        let (live, _) = build_checkpointed_chain(kind, 200, 0.08, 23, seed, every);
        let mut compacted = plain.clone();
        compacted.compact(every).unwrap();
        let mut replayed = VersionChain::new(plain.version(0).unwrap());
        replayed.set_checkpoint_every(every);
        for i in 0..plain.latest_index() {
            replayed.push_delta(plain.delta(i).unwrap().clone()).unwrap();
            assert!(replayed.max_reconstruct_hops() <= every / 2, "{kind:?} after push {i}");
        }
        for chain in [&live, &replayed] {
            assert_eq!(chain.checkpoint_count(), compacted.checkpoint_count(), "{kind:?}");
            assert_eq!(anchors(chain), anchors(&compacted), "{kind:?}");
            assert!(chain.max_reconstruct_hops() <= every / 2, "{kind:?}");
            for (i, want) in snapshots.iter().enumerate() {
                let (got, reference) = (chain.version(i).unwrap(), compacted.version(i).unwrap());
                assert_eq!(&got.doc.to_xml(), want, "{kind:?} version {i}");
                assert_eq!(got.doc.to_xml(), reference.doc.to_xml(), "{kind:?} version {i}");
                assert_eq!(
                    got.xid_map_of(got.doc.tree.root()),
                    reference.xid_map_of(reference.doc.tree.root()),
                    "{kind:?} version {i}"
                );
            }
        }
    }
}
