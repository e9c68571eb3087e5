//! Cross-mode differential oracle: every matcher mode, fed the same
//! simulated document pairs, must produce a delta that (a) passes static
//! verification (`xydelta::verify`) and (b) patches the old version into
//! exactly the new one. The modes disagree on *cost* (ops per delta), never
//! on *correctness* — that is the redesigned `MatchMode` API's contract.
//!
//! Every run is derived from a `u64` seed, and every assertion message
//! carries the rerun recipe (`XYMODE_SEED_START=<seed> XYMODE_SEED_COUNT=1
//! cargo test --test mode_oracle`), so a CI failure line reproduces alone.
//! CI widens the sweep with the same env vars — no code change needed.
//!
//! The seed rotates through document kinds (including the `Grid` family
//! built to separate ordered from unordered matching) and change families
//! (the paper's uniform three-phase simulator, pure child-order shuffles,
//! and attribute churn). A final aggregate check pins the headline claim:
//! on the shuffle-only family the unordered (X-Diff style) matcher emits
//! strictly fewer ops on average than ordered BULD.

mod common;

use common::seed_range;
use proptest::prelude::*;
use xydiff_suite::xydelta::diff_by_xid_with;
use xydiff_suite::xydelta::{verify, xml_io, CaptureMode, PayloadSource, XidDocument};
use xydiff_suite::xydiff::{DiffResult, Differ, MatchMode, SignatureCache};
use xydiff_suite::xytree::{Document, ParseOptions};
use xydiff_suite::xysim::{
    attribute_churn, generate, shuffle_children, simulate, AttrChurnConfig, ChangeConfig,
    DocGenConfig, DocKind, ShuffleConfig, SimulatedChange,
};

/// SplitMix64, so consecutive seeds give uncorrelated parameter draws.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const KINDS: [DocKind; 4] = [DocKind::Catalog, DocKind::Grid, DocKind::AddressBook, DocKind::Feed];

/// The seed-determined document pair: document kind, size, and change
/// family all derive from `seed`.
fn pair_for(seed: u64) -> (XidDocument, SimulatedChange, &'static str) {
    let h = mix(seed);
    let kind = KINDS[(h % KINDS.len() as u64) as usize];
    let nodes = 120 + (mix(h) % 280) as usize;
    let doc = generate(&DocGenConfig { kind, target_nodes: nodes, seed, id_attributes: false });
    let old = XidDocument::assign_initial(doc);
    let (sim, family) = match seed % 3 {
        0 => (
            simulate(
                &old,
                &ChangeConfig {
                    p_delete: 0.03,
                    p_update: 0.08,
                    p_insert: 0.05,
                    p_move: 0.03,
                    seed: h,
                },
            ),
            "uniform",
        ),
        1 => (shuffle_children(&old, &ShuffleConfig { p_shuffle: 0.6, seed: h }), "shuffle"),
        _ => (
            attribute_churn(&old, &AttrChurnConfig { seed: h, ..Default::default() }),
            "attr-churn",
        ),
    };
    (old, sim, family)
}

/// Diff under `mode`, check verify-cleanliness and apply-roundtrip, and
/// return the result. `ctx` prefixes every failure with the rerun recipe.
fn check_mode(old: &XidDocument, sim: &SimulatedChange, mode: MatchMode, ctx: &str) -> DiffResult {
    let mut differ = Differ::new().with_mode(mode);
    let opts = differ.options();
    let window = (!opts.exact_lis).then_some(opts.lis_window);
    let r = differ.diff(old, &sim.new_version.doc);
    verify(&r.delta).unwrap_or_else(|e| panic!("{ctx} mode {mode}: delta fails verify: {e}"));
    let mut replay = old.clone();
    r.delta
        .apply_to(&mut replay)
        .unwrap_or_else(|e| panic!("{ctx} mode {mode}: delta fails to apply: {e}"));
    assert_eq!(
        replay.doc.to_xml(),
        sim.new_version.doc.to_xml(),
        "{ctx} mode {mode}: replay diverged"
    );
    // The delta's XML form. The encoder that writes it directly must agree
    // byte for byte with the one it replaced (build the delta document,
    // serialize it), and decoding must be its exact inverse, giving a delta
    // that verifies like the one it came from.
    let xml = xml_io::delta_to_xml(&r.delta);
    assert!(
        xml == xml_io::delta_to_document(&r.delta).to_xml(),
        "{ctx} mode {mode}: direct and document encodings differ"
    );
    let decoded = xml_io::parse_delta(&xml)
        .unwrap_or_else(|e| panic!("{ctx} mode {mode}: own encoding does not decode: {e}"));
    verify(&decoded).unwrap_or_else(|e| panic!("{ctx} mode {mode}: decoded delta: {e}"));
    assert!(
        xml_io::delta_to_xml(&decoded) == xml,
        "{ctx} mode {mode}: decode then encode is not the identity"
    );
    // Likewise the decoder it replaced: parse the delta document, read it.
    let keep_whitespace = ParseOptions { keep_whitespace_text: true, ..Default::default() };
    let document = Document::parse_with(&xml, &keep_whitespace).expect("the encoding is XML");
    let by_document = xml_io::document_to_delta(&document)
        .unwrap_or_else(|e| panic!("{ctx} mode {mode}: reference decoder: {e}"));
    assert!(
        xml_io::delta_to_xml(&by_document) == xml,
        "{ctx} mode {mode}: direct and document decodings differ"
    );
    // Phase 5 builds the delta from the matcher's own arrays; the new
    // version carries the same matching as inherited XIDs, and the one core
    // fed it through `diff_by_xid` must agree byte for byte — what ties the
    // core's two entry points together.
    assert!(
        xml_io::delta_to_xml(&diff_by_xid_with(old, &r.new_version, window)) == xml,
        "{ctx} mode {mode}: diff_by_xid over the inherited XIDs differs from the diff"
    );
    // And the warehouse's path to the same delta: cached signatures,
    // borrowed payloads, materialized at the `into_owned` boundary.
    let mut cache = SignatureCache::new();
    let mut warehouse = Differ::new().with_mode(mode).with_capture(CaptureMode::Borrowed);
    let w = warehouse.diff_consume_with_cache(old, sim.new_version.doc.clone(), &mut cache);
    let src = PayloadSource { old: &old.doc.tree, new: &w.new_version.doc.tree };
    assert!(
        xml_io::delta_to_xml(&w.delta.into_owned(&src)) == xml,
        "{ctx} mode {mode}: the warehouse path (cache, borrowed capture) differs"
    );
    r
}

fn recipe(seed: u64) -> String {
    format!(
        "[seed {seed}: rerun with XYMODE_SEED_START={seed} XYMODE_SEED_COUNT=1 \
         cargo test --test mode_oracle]"
    )
}

/// The oracle proper: every mode, same pairs, always verify-clean, always
/// an exact patch. Cross-mode, the cheapest delta is recorded so a future
/// cost regression in any matcher shows up as a changed winner histogram
/// (printed, not asserted — cost is compared family-wise below).
#[test]
fn all_modes_patch_every_simulated_pair() {
    let mut wins = [0usize; 3];
    let range = seed_range("XYMODE", 48);
    for seed in range.clone() {
        let ctx = recipe(seed);
        let (old, sim, _family) = pair_for(seed);
        let ops: Vec<usize> = MatchMode::all()
            .iter()
            .map(|&m| check_mode(&old, &sim, m, &ctx).delta.ops.len())
            .collect();
        let best = ops.iter().copied().min().unwrap_or(0);
        for (i, &n) in ops.iter().enumerate() {
            if n == best {
                wins[i] += 1;
            }
        }
    }
    println!(
        "seeds {range:?}: cheapest-delta wins per mode {:?} = {wins:?}",
        MatchMode::all().map(|m| m.as_str())
    );
}

/// The headline cost claim: on shuffle-only changes over the `Grid` family
/// (heavy duplicate cells, light distinctive keys — adversarial for
/// position-based matching), the unordered matcher's mean ops-per-delta is
/// strictly lower than BULD's.
#[test]
fn unordered_beats_buld_on_shuffled_grids() {
    let mut buld_ops = 0usize;
    let mut unordered_ops = 0usize;
    let range = seed_range("XYMODE", 24);
    for seed in range.clone() {
        let ctx = recipe(seed);
        let doc = generate(&DocGenConfig {
            kind: DocKind::Grid,
            target_nodes: 300 + (mix(seed) % 200) as usize,
            seed,
            id_attributes: false,
        });
        let old = XidDocument::assign_initial(doc);
        let sim = shuffle_children(&old, &ShuffleConfig { p_shuffle: 0.8, seed: mix(seed) });
        buld_ops += check_mode(&old, &sim, MatchMode::Buld, &ctx).delta.ops.len();
        unordered_ops += check_mode(&old, &sim, MatchMode::Unordered, &ctx).delta.ops.len();
    }
    println!("seeds {range:?}: total ops buld={buld_ops} unordered={unordered_ops}");
    assert!(
        unordered_ops < buld_ops,
        "unordered must beat BULD on shuffled grids: {unordered_ops} !< {buld_ops} ({range:?})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A pure child permutation never costs the unordered matcher a single
    /// structural op: every node pairs by signature, so the delta repairs
    /// order (moves) and nothing else.
    #[test]
    fn unordered_shuffles_cost_no_structural_ops(
        seed in 0u64..1 << 48,
        kind_idx in 0usize..KINDS.len(),
        nodes in 60usize..320,
    ) {
        let kind = KINDS[kind_idx];
        let doc = generate(&DocGenConfig { kind, target_nodes: nodes, seed, id_attributes: false });
        let old = XidDocument::assign_initial(doc);
        let sim = shuffle_children(&old, &ShuffleConfig { p_shuffle: 1.0, seed: mix(seed) });
        let r = Differ::new().with_mode(MatchMode::Unordered).diff(&old, &sim.new_version.doc);
        let c = r.delta.counts();
        prop_assert_eq!(
            (c.deletes, c.inserts, c.updates, c.attr_ops),
            (0, 0, 0, 0),
            "shuffle must cost only moves: {}",
            r.delta.describe()
        );
        let mut replay = old.clone();
        let applied = r.delta.apply_to(&mut replay);
        prop_assert!(applied.is_ok(), "apply failed: {applied:?}");
        prop_assert_eq!(replay.doc.to_xml(), sim.new_version.doc.to_xml());
    }
}
