//! Scratch reuse and signature-cache equivalence.
//!
//! The working memory a [`Differ`] owns (its scratch) and `SignatureCache`
//! are pure allocation optimisations: the diff's observable output — delta,
//! new version, statistics — must be byte-identical whether the working
//! memory is fresh, reused across many unrelated diffs, or seeded from a
//! previous version's cache. These tests quantify that over random documents
//! and over warehouse version chains, in every matcher mode.

use std::cell::RefCell;

use proptest::prelude::*;
use xydiff_suite::xydelta::{xml_io, VersionChain, XidDocument};
use xydiff_suite::xydiff::{diff, Differ, DiffOptions, SignatureCache};
use xydiff_suite::xysim::{generate, simulate, ChangeConfig, DocGenConfig, DocKind};
use xydiff_suite::xytree::{Document, NodeKind, Tree};
use xydiff_suite::xywarehouse::{Alerter, Repository};

/// A recursively generated node spec (same shape as tests/props.rs: a small
/// vocabulary forces the label collisions the candidate machinery resolves).
#[derive(Debug, Clone)]
enum Spec {
    Element { name: &'static str, attrs: Vec<(&'static str, String)>, children: Vec<Spec> },
    Text(String),
    Comment(String),
}

const NAMES: &[&str] = &["a", "b", "item", "list", "x"];
const ATTRS: &[&str] = &["id", "k", "lang"];

fn arb_spec() -> impl Strategy<Value = Spec> {
    let leaf = prop_oneof![
        "[a-z]{1,8}".prop_map(Spec::Text),
        "[a-z ]{0,6}".prop_map(Spec::Comment),
        (0usize..NAMES.len()).prop_map(|i| Spec::Element {
            name: NAMES[i],
            attrs: vec![],
            children: vec![]
        }),
    ];
    leaf.prop_recursive(4, 48, 5, |inner| {
        (
            0usize..NAMES.len(),
            proptest::collection::vec((0usize..ATTRS.len(), "[a-z0-9]{0,4}"), 0..3),
            proptest::collection::vec(inner, 0..5),
        )
            .prop_map(|(n, attrs, children)| {
                let mut seen = std::collections::HashSet::new();
                let attrs = attrs
                    .into_iter()
                    .filter(|(i, _)| seen.insert(*i))
                    .map(|(i, v)| (ATTRS[i], v))
                    .collect();
                Spec::Element { name: NAMES[n], attrs, children }
            })
    })
}

fn build(spec: &Spec) -> Document {
    fn add(tree: &mut Tree, parent: xydiff_suite::xytree::NodeId, spec: &Spec) {
        match spec {
            Spec::Text(t) => {
                if t.trim().is_empty() {
                    return;
                }
                if let Some(last) = tree.last_child(parent) {
                    if tree.kind(last).is_text() {
                        tree.append_text(last, t);
                        return;
                    }
                }
                let n = tree.new_text(t.clone());
                tree.append_child(parent, n);
            }
            Spec::Comment(c) => {
                let n = tree.new_node(NodeKind::Comment(c));
                tree.append_child(parent, n);
            }
            Spec::Element { name, attrs, children } => {
                let n = tree.new_element(*name);
                for (k, v) in attrs {
                    tree.set_attr(n, *k, v.clone());
                }
                tree.append_child(parent, n);
                for c in children {
                    add(tree, n, c);
                }
            }
        }
    }
    let mut tree = Tree::new();
    let root_elem = tree.new_element("root");
    let root = tree.root();
    tree.append_child(root, root_elem);
    if let Spec::Element { children, .. } = spec {
        for c in children {
            add(&mut tree, root_elem, c);
        }
    } else {
        add(&mut tree, root_elem, spec);
    }
    Document::from_tree(tree)
}

thread_local! {
    /// One differ shared by every proptest case on this thread, so by the
    /// end of a run its scratch has been reused across 100+ diffs of
    /// unrelated documents of wildly different sizes — the dirtiest state
    /// it can be in.
    static SHARED: RefCell<Differ> = RefCell::new(Differ::new());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A reused differ produces exactly the result a fresh diff does.
    #[test]
    fn reused_differ_matches_fresh(sa in arb_spec(), sb in arb_spec()) {
        let a = XidDocument::assign_initial(build(&sa));
        let b = build(&sb);
        let fresh = diff(&a, &b, &DiffOptions::default());
        let reused = SHARED.with(|s| s.borrow_mut().diff(&a, &b));
        prop_assert_eq!(
            xml_io::delta_to_xml(&fresh.delta),
            xml_io::delta_to_xml(&reused.delta),
        );
        prop_assert_eq!(fresh.new_version.doc.to_xml(), reused.new_version.doc.to_xml());
        prop_assert_eq!(fresh.stats.matched_nodes, reused.stats.matched_nodes);
    }

    /// Same with an external cache: a cache that describes some other
    /// document state never changes the outcome (it is valid for one stamp
    /// only, so at worst it misses — the coherence rule is exercised by the
    /// chain tests).
    #[test]
    fn cached_diff_matches_fresh(sa in arb_spec(), sb in arb_spec()) {
        let a = XidDocument::assign_initial(build(&sa));
        let b = build(&sb);
        let fresh = diff(&a, &b, &DiffOptions::default());
        let mut differ = Differ::new();
        let mut cache = SignatureCache::new();
        // Leave the cache describing an unrelated version first.
        let _ = differ.diff_consume_with_cache(&XidDocument::assign_initial(b.clone()), a.doc.clone(), &mut cache);
        let warm = differ.diff_consume_with_cache(&a, b.clone(), &mut cache);
        prop_assert_eq!(
            xml_io::delta_to_xml(&fresh.delta),
            xml_io::delta_to_xml(&warm.delta),
        );
        prop_assert_eq!(fresh.new_version.doc.to_xml(), warm.new_version.doc.to_xml());
    }

    /// Interleaving matchers on one differ and one cache must not let one
    /// mode's run perturb another's. A chain of cached diffs in the order
    /// BULD → unordered → similarity → BULD (same differ, same scratch, each
    /// diff's old side the version the previous one produced) gives, at
    /// every step, the delta a fresh diff in that step's mode gives. The
    /// unordered step finds records of the ordered fold in the cache and
    /// the similarity step records of the commutative one: both must miss.
    #[test]
    fn mode_interleaving_leaves_scratch_coherent(sa in arb_spec(), sb in arb_spec()) {
        use xydiff_suite::xydiff::MatchMode;
        let (a, b) = (build(&sa), build(&sb));
        let mut differ = Differ::new();
        let mut cache = SignatureCache::new();
        let mut old = XidDocument::assign_initial(a.clone());
        let modes = [MatchMode::Buld, MatchMode::Unordered, MatchMode::Similarity, MatchMode::Buld];
        for (i, mode) in modes.into_iter().enumerate() {
            let new = if i % 2 == 0 { &b } else { &a };
            let opts = DiffOptions { mode, ..Default::default() };
            let fresh = diff(&old, new, &opts);
            differ.options_mut().mode = mode;
            let r = differ.diff_consume_with_cache(&old, new.clone(), &mut cache);
            prop_assert_eq!(
                xml_io::delta_to_xml(&fresh.delta),
                xml_io::delta_to_xml(&r.delta),
                "step {} ({})", i, mode
            );
            prop_assert_eq!(fresh.new_version.doc.to_xml(), r.new_version.doc.to_xml());
            old = r.new_version;
        }
    }
}

/// A version chain of `n` successive simulator edits over a generated doc.
fn version_chain(kind: DocKind, n: usize, seed: u64) -> Vec<String> {
    let doc = generate(&DocGenConfig {
        kind,
        target_nodes: 600,
        seed,
        id_attributes: matches!(kind, DocKind::Catalog),
    });
    let mut latest = XidDocument::assign_initial(doc);
    let mut xmls = vec![latest.doc.to_xml()];
    for i in 0..n {
        let sim = simulate(&latest, &ChangeConfig::uniform(0.12, seed ^ (i as u64 + 1)));
        latest = sim.new_version;
        xmls.push(latest.doc.to_xml());
    }
    xmls
}

/// Across a whole version chain, diffing with a carried-over signature cache
/// (the warehouse steady state) equals diffing cold — and the cache actually
/// hits, otherwise this test would be vacuous.
#[test]
fn cached_chain_equals_cold_chain() {
    for (kind, seed) in [(DocKind::Catalog, 11u64), (DocKind::Feed, 23), (DocKind::Generic, 37)] {
        let chain = version_chain(kind, 5, seed);
        let mut differ = Differ::new();
        let mut cache = SignatureCache::new();
        let mut latest = XidDocument::parse_initial(&chain[0]).unwrap();
        for new_xml in &chain[1..] {
            let new_doc = Document::parse(new_xml).unwrap();
            let cold = diff(&latest, &new_doc, &DiffOptions::default());
            let cached = differ.diff_consume_with_cache(&latest, new_doc.clone(), &mut cache);
            assert_eq!(
                xml_io::delta_to_xml(&cold.delta),
                xml_io::delta_to_xml(&cached.delta),
                "cached delta must be byte-identical ({kind:?})"
            );
            assert_eq!(cold.new_version.doc.to_xml(), cached.new_version.doc.to_xml());
            latest = cached.new_version;
        }
        let (hits, misses) = cache.counters();
        assert!(hits > 0, "the cache never hit on a {kind:?} chain (misses: {misses})");
        // After the first diff warms it, the old side of each later diff
        // should be mostly replayed, not re-hashed.
        assert!(
            hits > misses,
            "expected mostly hits on the old sides of a 5-version chain, got {hits} hits / {misses} misses"
        );
    }
}

/// The warehouse (which always carries a per-document signature cache) and
/// a bare uncached `Differ::diff_consume` chain ingest the same snapshots:
/// the warehouse must store byte-identical deltas, reconstruct the ingested
/// bytes, and actually hit its cache.
#[test]
fn warehouse_cache_on_off_is_equivalent() {
    let repo_on = Repository::with_options(DiffOptions::default(), Alerter::new());
    let mut uncached = Differ::new();

    let chains: Vec<(String, Vec<String>)> = [DocKind::Catalog, DocKind::AddressBook]
        .into_iter()
        .enumerate()
        .map(|(i, kind)| (format!("doc-{i}"), version_chain(kind, 4, 100 + i as u64)))
        .collect();

    for (key, xmls) in &chains {
        let mut latest = XidDocument::parse_initial(&xmls[0]).unwrap();
        assert_eq!(repo_on.load_version(key, &xmls[0]).unwrap().version, 0);
        for (v, xml) in xmls.iter().enumerate().skip(1) {
            let out_on = repo_on.load_version(key, xml).unwrap();
            let off = uncached.diff_consume(&latest, Document::parse(xml).unwrap());
            assert_eq!(out_on.version, v);
            assert_eq!(
                xml_io::delta_to_xml(&out_on.delta),
                xml_io::delta_to_xml(&off.delta),
                "cached and uncached deltas diverged for {key} v{v}"
            );
            latest = off.new_version;
        }
    }
    for (key, xmls) in &chains {
        for (v, xml) in xmls.iter().enumerate() {
            let on = repo_on.version_xml(key, v).unwrap();
            assert_eq!(&on, xml, "reconstruction must reproduce the ingested bytes");
        }
        let (hits, misses) = repo_on.cache_counters(key);
        assert!(hits > 0, "cache-enabled repository never hit for {key}");
        assert!(misses > 0, "the first diff of {key} runs cold and must be counted");
    }
}

/// Delta bytes of `old → new` through `cache`, checked against the uncached
/// diff of the same pair; returns the produced version.
fn cached_equals_uncached(
    differ: &mut Differ,
    old: &XidDocument,
    new: &Document,
    cache: &mut SignatureCache,
    what: &str,
) -> XidDocument {
    let plain = xml_io::delta_to_xml(&differ.diff(old, new).delta);
    let cached = differ.diff_consume_with_cache(old, new.clone(), cache);
    assert_eq!(plain, xml_io::delta_to_xml(&cached.delta), "{what}: cached delta diverged");
    cached.new_version
}

/// A warm cache describes one document state. Handed anything else — here a
/// foreign document that agrees with that state in arena length *and* in
/// the XID of every slot, so nothing short of the content tells them apart —
/// it must miss, never replay signatures of text the document does not hold.
#[test]
fn cache_paired_with_a_foreign_document_misses() {
    let mut differ = Differ::new();
    let mut cache = SignatureCache::new();
    let v0 = XidDocument::parse_initial("<a><b>x</b><c>y</c></a>").unwrap();
    let v1 = Document::parse("<a><b>x</b><c>z</c></a>").unwrap();
    let v1 = cached_equals_uncached(&mut differ, &v0, &v1, &mut cache, "warm-up");

    let foreign = XidDocument::parse_initial("<a><b>p</b><c>q</c></a>").unwrap();
    assert_eq!(foreign.doc.tree.arena_len(), v1.doc.tree.arena_len());
    for n in foreign.doc.tree.descendants(foreign.doc.tree.root()) {
        assert_eq!(foreign.xid(n), v1.xid(n), "the foreign document must look alike slot by slot");
    }
    let (_, misses_before) = cache.counters();
    // With <c>q</c> hashed as <c>z</c> the subtree match under <k> is lost
    // and the move degrades into a delete + insert.
    let target = Document::parse("<a><k><c>q</c></k><b>p</b></a>").unwrap();
    let out = cached_equals_uncached(&mut differ, &foreign, &target, &mut cache, "foreign");
    assert_eq!(out.doc.to_xml(), target.to_xml());
    assert!(cache.counters().1 > misses_before, "a foreign document must count as a miss");
}

/// The warehouse's other ways of arriving at a latest version: a chain
/// rebuilt from its log (init + deltas re-parsed and re-applied, as WAL
/// recovery does — same XIDs, different node ids) and a chain after
/// `compact`. Whatever state a cache warmed on the live chain is in, pairing
/// it with these yields the uncached delta, and the live chain keeps hitting.
#[test]
fn cache_survives_recovered_and_compacted_chains() {
    let xmls = version_chain(DocKind::Catalog, 6, 53);
    let mut differ = Differ::new();
    let mut cache = SignatureCache::new();
    let mut live = VersionChain::new(XidDocument::parse_initial(&xmls[0]).unwrap());
    let mut log = Vec::new();
    for xml in &xmls[1..5] {
        let new = Document::parse(xml).unwrap();
        let r = differ.diff_consume_with_cache(live.latest(), new, &mut cache);
        log.push(xml_io::delta_to_xml(&r.delta));
        live.push_version(r.new_version, r.delta);
    }

    let mut recovered = VersionChain::new(XidDocument::parse_initial(&xmls[0]).unwrap());
    for delta_xml in &log {
        recovered.push_delta(xml_io::parse_delta(delta_xml).unwrap()).unwrap();
    }
    assert_eq!(recovered.latest().doc.to_xml(), live.latest().doc.to_xml());
    let next = Document::parse(&xmls[5]).unwrap();
    let mut borrowed = cache.clone();
    cached_equals_uncached(&mut differ, recovered.latest(), &next, &mut borrowed, "recovered");

    live.compact(2).unwrap();
    assert!(live.checkpoint_count() > 0);
    let (hits_before, misses_before) = cache.counters();
    let v5 = cached_equals_uncached(&mut differ, live.latest(), &next, &mut cache, "compacted");
    let (hits, misses) = cache.counters();
    assert!(hits > hits_before, "compaction leaves the latest version alone: the cache must hit");
    assert_eq!(misses, misses_before);
    assert_eq!(v5.doc.to_xml(), xmls[5]);
}
