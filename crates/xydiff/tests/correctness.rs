//! End-to-end correctness of the BULD diff.
//!
//! "We show first that our algorithm is 'correct' in that it finds a set of
//! changes that is sufficient to transform the old version into the new
//! version of the XML document. In other words, it misses no changes." (§1)
//!
//! Every test here takes two versions, runs the diff, applies the delta to
//! the old version and demands byte equality with the new one — across
//! document kinds, change rates, option ablations, and the paper's own
//! Figure 2 example. Inversion must restore the old version likewise.

use xydelta::XidDocument;
use xydiff::{diff, DiffOptions};
use xysim::{generate, simulate, ChangeConfig, DocGenConfig, DocKind};
use xytree::Document;

/// Diff `old` vs `new`, apply, compare; then invert, apply, compare.
/// Returns the result for further inspection.
fn assert_correct(old: &XidDocument, new: &Document, opts: &DiffOptions) -> xydiff::DiffResult {
    let result = diff(old, new, opts);
    let mut replay = old.clone();
    result
        .delta
        .apply_to(&mut replay)
        .unwrap_or_else(|e| panic!("delta must apply: {e}\n{}", result.delta.describe()));
    assert_eq!(
        replay.doc.to_xml(),
        new.to_xml(),
        "applying the delta must reproduce the new version exactly"
    );
    let mut back = replay;
    result
        .delta
        .inverted()
        .apply_to(&mut back)
        .unwrap_or_else(|e| panic!("inverse delta must apply: {e}"));
    assert_eq!(
        back.doc.to_xml(),
        old.doc.to_xml(),
        "applying the inverse must restore the old version"
    );
    result
}

fn simulated_case(kind: DocKind, nodes: usize, rate: f64, seed: u64, opts: &DiffOptions) {
    let doc = generate(&DocGenConfig { kind, target_nodes: nodes, seed, id_attributes: false });
    let old = XidDocument::assign_initial(doc);
    let sim = simulate(&old, &ChangeConfig::uniform(rate, seed ^ 0xABCD));
    assert_correct(&old, &sim.new_version.doc, opts);
}

#[test]
fn identical_documents_yield_empty_delta() {
    let old = XidDocument::parse_initial("<a><b>x</b><c/></a>").unwrap();
    let new = Document::parse("<a><b>x</b><c/></a>").unwrap();
    let r = assert_correct(&old, &new, &DiffOptions::default());
    assert!(r.delta.is_empty(), "no changes must mean an empty delta");
    assert_eq!(r.stats.matched_nodes, r.stats.new_nodes);
}

#[test]
fn catalog_at_default_rates() {
    for seed in 0..5 {
        simulated_case(DocKind::Catalog, 800, 0.1, seed, &DiffOptions::default());
    }
}

#[test]
fn address_book_at_default_rates() {
    for seed in 0..3 {
        simulated_case(DocKind::AddressBook, 700, 0.1, seed, &DiffOptions::default());
    }
}

#[test]
fn feed_at_default_rates() {
    for seed in 0..3 {
        simulated_case(DocKind::Feed, 700, 0.1, seed, &DiffOptions::default());
    }
}

#[test]
fn generic_trees_at_default_rates() {
    for seed in 0..3 {
        simulated_case(DocKind::Generic, 900, 0.1, seed, &DiffOptions::default());
    }
}

#[test]
fn extreme_change_rates_stay_correct() {
    for rate in [0.0, 0.01, 0.3, 0.6, 0.95] {
        simulated_case(DocKind::Catalog, 400, rate, 42, &DiffOptions::default());
    }
}

#[test]
fn total_replacement_is_correct() {
    let old = XidDocument::parse_initial("<a><b>one</b></a>").unwrap();
    let new = Document::parse("<z><y>two</y><x/></z>").unwrap();
    let r = assert_correct(&old, &new, &DiffOptions::default());
    let c = r.delta.counts();
    assert!(c.deletes >= 1 && c.inserts >= 1);
}

#[test]
fn option_ablations_preserve_correctness() {
    let variants = [
        DiffOptions { enable_propagation: false, ..Default::default() },
        DiffOptions { enable_unique_child_propagation: false, ..Default::default() },
        DiffOptions { exact_lis: true, ..Default::default() },
        DiffOptions { lis_window: 3, ..Default::default() },
        DiffOptions { depth_factor: 0.0, ..Default::default() },
        DiffOptions { depth_factor: 5.0, ..Default::default() },
        DiffOptions { use_id_attributes: false, ..Default::default() },
    ];
    for (i, opts) in variants.iter().enumerate() {
        simulated_case(DocKind::Catalog, 500, 0.15, 100 + i as u64, opts);
    }
}

#[test]
fn id_attributes_guide_matching() {
    let dtd = "<!DOCTYPE catalog [<!ATTLIST product id ID #REQUIRED>]>";
    let old_xml = format!(
        "{dtd}<catalog><product id='p1'><name>alpha</name></product>\
         <product id='p2'><name>beta</name></product></catalog>"
    );
    // Both product contents change completely AND swap order; only the IDs
    // can still tell them apart.
    let new_xml = format!(
        "{dtd}<catalog><product id='p2'><name>BETA!</name></product>\
         <product id='p1'><name>ALPHA!</name></product></catalog>"
    );
    let old = XidDocument::assign_initial(Document::parse(&old_xml).unwrap());
    let new = Document::parse(&new_xml).unwrap();
    let r = assert_correct(&old, &new, &DiffOptions::default());
    assert!(r.stats.id_matches >= 2, "both products must match by ID");
    let c = r.delta.counts();
    assert!(c.moves >= 1, "the swap must appear as a move, not delete+insert");
    assert_eq!(c.deletes, 0, "ID-matched products must not be deleted: {}", r.delta.describe());
}

#[test]
fn paper_figure2_example() {
    // The running example of §4/Figure 2. Expected matching: Category,
    // Title, Discount, NewProducts match; zy456's Product moves from
    // NewProducts to Discount; its Price is updated $799 → $699; tx123's
    // Product is deleted; product abc is inserted.
    let old = XidDocument::parse_initial(xysim::corpus::FIGURE2_OLD).unwrap();
    let new = Document::parse(xysim::corpus::FIGURE2_NEW).unwrap();
    let r = assert_correct(&old, &new, &DiffOptions::default());
    let c = r.delta.counts();
    assert_eq!(c.deletes, 1, "tx123 deleted — delta:\n{}", r.delta.describe());
    assert_eq!(c.inserts, 1, "abc inserted — delta:\n{}", r.delta.describe());
    assert_eq!(c.moves, 1, "zy456 moved — delta:\n{}", r.delta.describe());
    assert_eq!(c.updates, 1, "price updated — delta:\n{}", r.delta.describe());
    assert_eq!(c.total(), 4, "the paper's delta has exactly four operations");
}

#[test]
fn figure2_delta_xml_matches_paper_shape() {
    let old = XidDocument::parse_initial(xysim::corpus::FIGURE2_OLD).unwrap();
    let new = Document::parse(xysim::corpus::FIGURE2_NEW).unwrap();
    let r = diff(&old, &new, &DiffOptions::default());
    let xml = xydelta::xml_io::delta_to_xml(&r.delta);
    // The paper's delete carries the whole tx123 product subtree.
    assert!(xml.contains("<delete"), "{xml}");
    assert!(xml.contains("tx123"), "{xml}");
    assert!(xml.contains("$499"), "{xml}");
    assert!(xml.contains("<insert"), "{xml}");
    assert!(xml.contains("abc"), "{xml}");
    assert!(xml.contains("<move"), "{xml}");
    assert!(xml.contains("<oldval>$799</oldval><newval>$699</newval>"), "{xml}");
}

#[test]
fn moves_of_large_subtrees_are_single_ops() {
    // A 50-node section relocated wholesale must be one move op.
    let doc = generate(&DocGenConfig {
        kind: DocKind::Catalog,
        target_nodes: 300,
        seed: 77,
        id_attributes: false,
    });
    let old = XidDocument::assign_initial(doc.clone());
    let mut new = doc;
    let root_elem = new.root_element().unwrap();
    let first_cat = new.tree.child_at(root_elem, 0).unwrap();
    new.tree.detach(first_cat);
    new.tree.append_child(root_elem, first_cat);
    let r = assert_correct(&old, &new, &DiffOptions::default());
    let c = r.delta.counts();
    assert_eq!(c.deletes + c.inserts, 0, "{}", r.delta.describe());
    assert_eq!(c.moves, 1, "one rotation = one move: {}", r.delta.describe());
}

#[test]
fn whitespace_and_comments_documents() {
    let old = XidDocument::parse_initial(
        "<a>\n  <!-- note -->\n  <b>text</b>\n  <?pi data?>\n</a>",
    )
    .unwrap();
    let new = Document::parse("<a>\n  <!-- note -->\n  <b>changed</b>\n  <?pi data?>\n</a>")
        .unwrap();
    let r = assert_correct(&old, &new, &DiffOptions::default());
    assert_eq!(r.delta.counts().updates, 1);
    assert_eq!(r.delta.counts().total(), 1);
}

#[test]
fn repeated_structures_with_small_edits() {
    // Near-identical records: candidate disambiguation must not cross-match
    // records (which would show up as spurious moves).
    let record = |i: usize, price: &str| {
        format!("<rec><id>{i}</id><price>{price}</price></rec>")
    };
    let old_xml = format!(
        "<db>{}{}{}{}</db>",
        record(1, "$10"),
        record(2, "$20"),
        record(3, "$30"),
        record(4, "$40")
    );
    let new_xml = format!(
        "<db>{}{}{}{}</db>",
        record(1, "$10"),
        record(2, "$25"),
        record(3, "$30"),
        record(4, "$40")
    );
    let old = XidDocument::assign_initial(Document::parse(&old_xml).unwrap());
    let new = Document::parse(&new_xml).unwrap();
    let r = assert_correct(&old, &new, &DiffOptions::default());
    let c = r.delta.counts();
    assert_eq!(c.moves, 0, "no spurious moves: {}", r.delta.describe());
    assert_eq!(c.updates, 1, "exactly the price update: {}", r.delta.describe());
}

#[test]
fn delta_roundtrips_through_xml_serialization() {
    let doc = generate(&DocGenConfig {
        kind: DocKind::Feed,
        target_nodes: 500,
        seed: 5,
        id_attributes: false,
    });
    let old = XidDocument::assign_initial(doc);
    let sim = simulate(&old, &ChangeConfig::default());
    let r = diff(&old, &sim.new_version.doc, &DiffOptions::default());
    let xml = xydelta::xml_io::delta_to_xml(&r.delta);
    let back = xydelta::xml_io::parse_delta(&xml).expect("delta XML parses");
    let mut replay = old.clone();
    back.apply_to(&mut replay).expect("re-parsed delta applies");
    assert_eq!(replay.doc.to_xml(), sim.new_version.doc.to_xml());
}

#[test]
fn new_version_chains_into_next_diff() {
    // v0 → v1 → v2 with XIDs flowing through DiffResult::new_version.
    let doc = generate(&DocGenConfig {
        kind: DocKind::Catalog,
        target_nodes: 400,
        seed: 8,
        id_attributes: false,
    });
    let v0 = XidDocument::assign_initial(doc);
    let sim1 = simulate(&v0, &ChangeConfig::uniform(0.1, 1));
    let r1 = diff(&v0, &sim1.new_version.doc, &DiffOptions::default());
    let sim2 = simulate(&r1.new_version, &ChangeConfig::uniform(0.1, 2));
    let r2 = diff(&r1.new_version, &sim2.new_version.doc, &DiffOptions::default());
    // Replay the chain from v0.
    let mut replay = v0.clone();
    r1.delta.apply_to(&mut replay).unwrap();
    r2.delta.apply_to(&mut replay).unwrap();
    assert_eq!(replay.doc.to_xml(), sim2.new_version.doc.to_xml());
}

#[test]
fn quality_close_to_perfect_on_moderate_change() {
    // Figure 5's headline: "the delta produced by diff is about the size of
    // the delta produced by the simulator". At 10% change allow 2× slack.
    let doc = generate(&DocGenConfig {
        kind: DocKind::Catalog,
        target_nodes: 2000,
        seed: 21,
        id_attributes: false,
    });
    let old = XidDocument::assign_initial(doc);
    let sim = simulate(&old, &ChangeConfig::default());
    let r = diff(&old, &sim.new_version.doc, &DiffOptions::default());
    let ours = r.delta.size_bytes();
    let perfect = sim.perfect_delta.size_bytes().max(1);
    let ratio = ours as f64 / perfect as f64;
    assert!(
        ratio < 2.0,
        "computed delta {ours} B vs perfect {perfect} B (ratio {ratio:.2})"
    );
}
