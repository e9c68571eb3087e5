//! Equivalence properties for the zero-copy capture path.
//!
//! The performance work (DESIGN.md §12) must be invisible in the output:
//! a delta captured with arena-borrowed payloads serializes byte-for-byte
//! like one captured with owned clones. On top of byte equality, the
//! serialized zero-copy delta must still parse and apply:
//! `apply(diff(a, b), a) == b`.

use proptest::prelude::*;
use xydiff_suite::xydelta::{xml_io, CaptureMode, PayloadSource, XidDocument};
use xydiff_suite::xydiff::{diff, DiffOptions, Differ};
use xydiff_suite::xysim::{generate, simulate, ChangeConfig, DocGenConfig, DocKind};
use xydiff_suite::xytree::Document;

const KINDS: &[DocKind] = &[DocKind::Catalog, DocKind::Feed, DocKind::Generic];

fn corpus_case(kind: DocKind, nodes: usize, rate: f64, seed: u64) -> (XidDocument, Document) {
    let doc = generate(&DocGenConfig {
        kind,
        target_nodes: nodes,
        seed,
        id_attributes: matches!(kind, DocKind::Catalog),
    });
    let old = XidDocument::assign_initial(doc);
    let sim = simulate(&old, &ChangeConfig::uniform(rate, seed ^ 0x5eed));
    (old, sim.new_version.doc.clone())
}

/// Reference output: the plain owned-capture entry point.
fn reference_xml(old: &XidDocument, new: &Document) -> String {
    xml_io::delta_to_xml(&diff(old, new, &DiffOptions::default()).delta)
}

#[test]
fn zero_copy_capture_serializes_byte_identically() {
    for (i, &kind) in KINDS.iter().enumerate() {
        for (j, rate) in [0.05f64, 0.25].into_iter().enumerate() {
            let seed = 900 + (i * 11 + j) as u64;
            let (old, new) = corpus_case(kind, 500, rate, seed);
            let want = reference_xml(&old, &new);

            let mut differ = Differ::new().with_capture(CaptureMode::Borrowed);
            let result = differ.diff_consume(&old, new.clone());
            let src = PayloadSource {
                old: &old.doc.tree,
                new: &result.new_version.doc.tree,
            };
            // Serializing straight off the borrowed arena slices…
            assert_eq!(
                xml_io::delta_to_xml_with(&result.delta, &src),
                want,
                "{kind:?}@{rate}: borrowed serialization diverged from owned"
            );
            // …and materializing first must both match the owned capture.
            let owned = result.delta.into_owned(&src);
            assert!(!owned.has_borrowed_payloads());
            assert_eq!(
                xml_io::delta_to_xml(&owned),
                want,
                "{kind:?}@{rate}: into_owned() changed the serialized delta"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Zero-copy capture against the owned reference, plus the end-to-end
    /// patch property on the serialized output: parse the delta XML the
    /// zero-copy path emitted and apply it to `a`; the result must equal
    /// `b`.
    #[test]
    fn prop_zero_copy_diff_applies(
        seed in 0u64..10_000,
        rate_pct in 0u32..35,
        kind_idx in 0usize..3,
    ) {
        let rate = f64::from(rate_pct) / 100.0;
        let (old, new) = corpus_case(KINDS[kind_idx], 350, rate, seed);
        let want = reference_xml(&old, &new);
        let mut differ = Differ::new().with_capture(CaptureMode::Borrowed);
        let result = differ.diff_consume(&old, new.clone());
        let src = PayloadSource {
            old: &old.doc.tree,
            new: &result.new_version.doc.tree,
        };
        let got = xml_io::delta_to_xml_with(&result.delta, &src);
        prop_assert_eq!(&got, &want);

        let parsed = xml_io::parse_delta(&got).expect("zero-copy delta XML parses");
        let mut replay = old.clone();
        parsed.apply_to(&mut replay).expect("zero-copy delta applies");
        prop_assert_eq!(replay.doc.to_xml(), new.to_xml(), "apply(diff(a,b), a) != b");
    }
}
