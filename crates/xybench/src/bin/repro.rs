//! Regenerate the paper's figures. Run with:
//!
//! ```text
//! cargo run -p xybench --release --bin repro -- all
//! cargo run -p xybench --release --bin repro -- fig4 fig5 fig6 scaling site ablation
//! ```
//!
//! Each subcommand prints one table; EXPERIMENTS.md records a reference run
//! and compares the shapes with the paper's claims.

use std::time::Instant;
use xybench::{fmt_bytes, fmt_dur, log_log_slope, pair_at_rate};
use xydelta::XidDocument;
use xydiff::{diff, Differ, DiffOptions};
use xysim::{evolve_site, site_snapshot, SiteConfig};
use xytree::{Document, SerializeOptions};

const KNOWN: &[&str] = &[
    "all", "fig4", "fig5", "fig6", "scaling", "site", "ablation", "index", "modes", "diff", "identity",
];

/// The digest `identity` prints for the committed matchers. A diff change
/// that is meant to be a pure speedup must leave it as it is; one that
/// changes what is matched moves it and records the new value here.
const IDENTITY_DIGEST: u64 = 0xfe88_2785_3da1_2d1d;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = args.iter().find(|a| !KNOWN.contains(&a.as_str())) {
        eprintln!("unknown experiment {bad:?}; expected one of: {}", KNOWN.join(", "));
        std::process::exit(2);
    }
    let run_all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |name: &str| run_all || args.iter().any(|a| a == name);

    if want("fig4") {
        fig4();
    }
    if want("fig5") {
        fig5();
    }
    if want("fig6") {
        fig6();
    }
    if want("scaling") {
        scaling();
    }
    if want("site") {
        site();
    }
    if want("ablation") {
        ablation();
    }
    if want("index") {
        index_maintenance();
    }
    if want("modes") {
        modes();
    }
    if want("diff") {
        diff_bench();
    }
    if want("identity") {
        identity();
    }
}

/// Byte identity as a command: one FNV-64 digest over the delta XML and the
/// produced version's XIDs of a fixed pair set — four families × two sizes
/// (~110 and ~4 000 nodes) × three edit rates × every matcher × owned and
/// borrowed capture, each pair diffed fresh and again through a chain of
/// versions on one [`Differ`] with a signature cache. Two builds that print
/// the same digest emit the same bytes on all of it. `XYBENCH_GATE=1` fails
/// the run unless the digest equals [`IDENTITY_DIGEST`].
fn identity() {
    use xydelta::{xml_io, CaptureMode, PayloadSource};
    use xydiff::{MatchMode, SignatureCache};
    use xysim::{generate, simulate, ChangeConfig, DocGenConfig, DocKind};
    use xytree::hash::Fnv64;

    println!("## Identity — one digest over every emitted delta and XID\n");
    /// Fold one diff's output into the digest.
    fn absorb(h: &mut Fnv64, old: &XidDocument, r: &xydiff::DiffResult) {
        let src = PayloadSource { old: &old.doc.tree, new: &r.new_version.doc.tree };
        h.update(xml_io::delta_to_xml_with(&r.delta, &src).as_bytes());
        let version = &r.new_version;
        for xid in version.xid_map_of(version.doc.tree.root()).xids() {
            h.update_u64(xid.0);
        }
    }
    let kinds = [DocKind::Catalog, DocKind::AddressBook, DocKind::Feed, DocKind::Generic];
    let mut h = Fnv64::new();
    let (mut pairs, mut diffs) = (0usize, 0usize);
    let t = Instant::now();
    for (k, kind) in kinds.into_iter().enumerate() {
        for nodes in [110usize, 4_000] {
            for (r, rate) in [0.001f64, 0.01, 0.05].into_iter().enumerate() {
                let seed = 2800 + (k * 100 + r * 10) as u64 + nodes as u64;
                let cfg = DocGenConfig {
                    kind,
                    target_nodes: nodes,
                    seed,
                    id_attributes: matches!(kind, DocKind::Catalog),
                };
                let base = XidDocument::assign_initial(generate(&cfg));
                let versions: Vec<Document> = (0..4)
                    .map(|v| simulate(&base, &ChangeConfig::uniform(rate, seed << 8 | v)))
                    .map(|edit| edit.new_version.doc)
                    .collect();
                pairs += versions.len();
                for mode in MatchMode::all() {
                    for capture in [CaptureMode::Owned, CaptureMode::Borrowed] {
                        for doc in &versions {
                            let r = Differ::new().with_mode(mode).with_capture(capture).diff(&base, doc);
                            absorb(&mut h, &base, &r);
                        }
                        let mut chain = Differ::new().with_mode(mode).with_capture(capture);
                        let mut cache = SignatureCache::new();
                        let mut latest = base.clone();
                        for doc in &versions {
                            let r = chain.diff_consume_with_cache(&latest, doc.clone(), &mut cache);
                            absorb(&mut h, &latest, &r);
                            latest = r.new_version;
                        }
                        diffs += 2 * versions.len();
                    }
                }
            }
        }
    }
    let digest = h.value();
    println!("{pairs} pairs, {diffs} diffs in {}", fmt_dur(t.elapsed()));
    println!("identity digest fnv64:{digest:016x} (committed fnv64:{IDENTITY_DIGEST:016x})\n");
    if std::env::var_os("XYBENCH_GATE").is_some() && digest != IDENTITY_DIGEST {
        eprintln!("identity gate FAILED: the matchers emit different bytes than the committed digest");
        std::process::exit(1);
    }
}

/// E12 (extension) — diff hot-path throughput on the xysim corpus, with a
/// machine-readable `BENCH_diff.json` next to the human table. Fast mode
/// (`XYBENCH_FAST=1`) shrinks the corpus for the CI perf-smoke job;
/// `XYBENCH_GATE=1` compares docs/sec, the phase means and `peak_rss_bytes`
/// against `bench_baseline.json` and exits non-zero on a >2x regression.
fn diff_bench() {
    use xysim::{generate, simulate, ChangeConfig, DocGenConfig, DocKind};

    println!("## Diff throughput — hot path on the xysim corpus\n");
    let fast = xybench::fast_mode();
    let (sizes, rounds): (&[usize], usize) =
        if fast { (&[20_000], 3) } else { (&[20_000, 100_000, 400_000], 5) };
    let kinds = [
        (DocKind::Catalog, "catalog"),
        (DocKind::AddressBook, "addressbook"),
        (DocKind::Feed, "feed"),
        (DocKind::Generic, "generic"),
    ];

    struct Case {
        old: XidDocument,
        new: Document,
        bytes: usize,
    }
    let mut cases = Vec::new();
    for &bytes in sizes {
        for (i, &(kind, _)) in kinds.iter().enumerate() {
            for (j, &rate) in [0.05f64, 0.2].iter().enumerate() {
                let seed = 1000 + (bytes + i * 7 + j) as u64;
                let doc = generate(&DocGenConfig {
                    kind,
                    target_nodes: (bytes / xybench::CATALOG_BYTES_PER_NODE).max(16),
                    seed,
                    id_attributes: matches!(kind, DocKind::Catalog),
                });
                let old = XidDocument::assign_initial(doc);
                let sim = simulate(&old, &ChangeConfig::uniform(rate, seed ^ 0x5eed));
                let total = old.doc.to_xml().len() + sim.new_version.doc.to_xml().len();
                cases.push(Case { old, new: sim.new_version.doc.clone(), bytes: total });
            }
        }
    }
    let bytes_per_round: usize = cases.iter().map(|c| c.bytes).sum();
    // Measured first, while the heap holds little besides the corpus; 8
    // copies put even the fast corpus at a few hundred pages.
    let texts: Vec<String> = cases.iter().map(|c| c.new.to_xml()).collect();
    let bytes_per_node = xybench::resident_bytes_per_node(&texts, 8).unwrap_or(0.0);
    drop(texts);

    // Intra-document diff parallelism: XYBENCH_DIFF_THREADS, defaulting to
    // the host's parallelism capped at 8 (1 ⇒ strictly serial pipeline).
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let diff_threads = std::env::var("XYBENCH_DIFF_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or_else(|| cores.min(8))
        .max(1);

    // One differ (options + scratch) reused across the whole run, as a
    // long-lived ingest worker would hold it: zero-copy (borrowed) payload
    // capture, fanned out over `diff_threads` threads. The warmup round
    // (untimed) also warms its scratch capacity, so the timed rounds measure
    // the allocation-free steady state.
    let mut differ =
        Differ::new().with_capture(xydelta::CaptureMode::Borrowed).with_threads(diff_threads);
    for c in &cases {
        let _ = differ.diff(&c.old, &c.new);
    }

    // The timed loop takes the consuming entry point (the ingest path), so
    // every round's input documents are cloned up front, outside the timing.
    let mut pool: Vec<Vec<Document>> = (0..rounds)
        .map(|_| cases.iter().map(|c| c.new.clone()).collect())
        .collect();

    // Per-diff per-phase samples (micros): p1..p5 + total per row.
    let mut samples: Vec<[f64; 6]> = Vec::with_capacity(rounds * cases.len());
    let t = Instant::now();
    for round in pool.drain(..) {
        for (c, new_doc) in cases.iter().zip(round) {
            let r = differ.diff_consume(&c.old, new_doc);
            let tm = r.timings;
            let mut row = [0.0f64; 6];
            for (slot, d) in row.iter_mut().zip([
                tm.phase1,
                tm.phase2,
                tm.phase3,
                tm.phase4,
                tm.phase5,
                tm.total(),
            ]) {
                *slot = d.as_secs_f64() * 1e6;
            }
            samples.push(row);
        }
    }
    let wall = t.elapsed();
    let diffs = samples.len() as f64;
    let mut phases = [0.0f64; 6]; // mean micros per diff
    for row in &samples {
        for (acc, v) in phases.iter_mut().zip(row) {
            *acc += v;
        }
    }
    for p in &mut phases {
        *p /= diffs;
    }
    // Nearest-rank percentile over the per-diff samples of one phase.
    let percentile = |phase: usize, q: f64| -> f64 {
        let mut vals: Vec<f64> = samples.iter().map(|r| r[phase]).collect();
        vals.sort_by(f64::total_cmp);
        let rank = ((q / 100.0 * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
        vals[rank - 1]
    };
    let p50: Vec<f64> = (0..6).map(|i| percentile(i, 50.0)).collect();
    let p99: Vec<f64> = (0..6).map(|i| percentile(i, 99.0)).collect();
    let docs_per_sec = diffs / wall.as_secs_f64();
    let mb_per_sec = (bytes_per_round * rounds) as f64 / 1e6 / wall.as_secs_f64();
    let peak_rss = xybench::peak_rss_bytes().unwrap_or(0);

    println!("| mode | pairs | rounds | threads | docs/sec | MB/s | mean diff | peak RSS |");
    println!("|---|---:|---:|---:|---:|---:|---:|---:|");
    println!(
        "| {} | {} | {rounds} | {diff_threads} | {docs_per_sec:.0} | {mb_per_sec:.1} | {:.0} µs | {} |",
        if fast { "fast" } else { "full" },
        cases.len(),
        phases[5],
        fmt_bytes(peak_rss as usize),
    );
    println!("\nresident bytes per held tree node: {bytes_per_node:.1}");
    println!(
        "mean per-phase micros: p1 {:.0} | p2 {:.0} | p3 {:.0} | p4 {:.0} | p5 {:.0}",
        phases[0], phases[1], phases[2], phases[3], phases[4]
    );
    println!(
        "p50 per-phase micros:  p1 {:.0} | p2 {:.0} | p3 {:.0} | p4 {:.0} | p5 {:.0}",
        p50[0], p50[1], p50[2], p50[3], p50[4]
    );
    println!(
        "p99 per-phase micros:  p1 {:.0} | p2 {:.0} | p3 {:.0} | p4 {:.0} | p5 {:.0}\n",
        p99[0], p99[1], p99[2], p99[3], p99[4]
    );

    let phase_obj = |vals: &[f64]| {
        format!(
            "{{ \"phase1\": {:.1}, \"phase2\": {:.1}, \"phase3\": {:.1}, \
             \"phase4\": {:.1}, \"phase5\": {:.1}, \"total\": {:.1} }}",
            vals[0], vals[1], vals[2], vals[3], vals[4], vals[5]
        )
    };
    let json = format!(
        "{{\n  \"bench\": \"diff\",\n  \"mode\": \"{mode}\",\n  \"pairs\": {pairs},\n  \
         \"rounds\": {rounds},\n  \"diff_threads\": {diff_threads},\n  \
         \"bytes_per_round\": {bytes_per_round},\n  \
         \"docs_per_sec\": {docs_per_sec:.2},\n  \"mb_per_sec\": {mb_per_sec:.3},\n  \
         \"phase_micros\": {means},\n  \
         \"phase_p50_micros\": {p50s},\n  \
         \"phase_p99_micros\": {p99s},\n  \
         \"bytes_per_node\": {bytes_per_node:.1},\n  \
         \"peak_rss_bytes\": {peak_rss}\n}}\n",
        mode = if fast { "fast" } else { "full" },
        pairs = cases.len(),
        means = phase_obj(&phases),
        p50s = phase_obj(&p50),
        p99s = phase_obj(&p99),
    );
    let path = xybench::bench_out_path("BENCH_diff.json");
    std::fs::write(&path, &json).unwrap_or_else(|e| eprintln!("cannot write {path:?}: {e}"));
    println!("wrote {}\n", path.display());

    if std::env::var_os("XYBENCH_GATE").is_some() {
        let mut failed = false;
        match xybench::baseline_docs_per_sec("bench_baseline.json") {
            Some(base) => {
                let floor = base / 2.0;
                println!(
                    "perf gate: {docs_per_sec:.0} docs/sec vs baseline {base:.0} (floor {floor:.0})"
                );
                if docs_per_sec < floor {
                    eprintln!("perf gate FAILED: diff throughput regressed >2x");
                    failed = true;
                }
            }
            None => eprintln!("perf gate: no bench_baseline.json found, skipping"),
        }
        // Phase-level gate: a regression hiding inside one phase (e.g. the
        // zero-copy capture path falling back to full clones) must fail even
        // when the total stays within the throughput floor. Phases that are
        // noise-sized in the baseline (< 50 µs) are skipped.
        if let Some(base_phases) = xybench::baseline_phase_micros("bench_baseline.json") {
            for (i, (name, base)) in base_phases.iter().enumerate().take(5) {
                if *base < 50.0 {
                    continue;
                }
                let ceil = base * 2.5;
                let cur = phases[i];
                println!("perf gate: {name} {cur:.0} µs vs baseline {base:.0} (ceiling {ceil:.0})");
                if cur > ceil {
                    eprintln!("perf gate FAILED: {name} mean regressed >2.5x");
                    failed = true;
                }
            }
        }
        // Memory gate, same shape as the throughput floor: the run's high-water
        // mark is the corpus, its 8 held copies and the differ's scratch, so a
        // per-node constant that doubles shows here.
        let baseline = std::fs::read_to_string("bench_baseline.json").ok();
        if let Some(base) = baseline.and_then(|t| xybench::json_number(&t, "peak_rss_bytes")) {
            let ceil = base * 2.0;
            println!("perf gate: peak RSS {peak_rss} B vs baseline {base:.0} (ceiling {ceil:.0})");
            if peak_rss as f64 > ceil {
                eprintln!("perf gate FAILED: peak_rss_bytes regressed >2x");
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}

/// E1 / Figure 4 — time cost of the different phases vs total input size.
fn fig4() {
    println!("## Figure 4 — per-phase time vs total size of both documents\n");
    println!(
        "| total size | parse | p1+p2 (hash) | p3 (BULD) | p4 (propagate) | p5 (delta) | diff total |"
    );
    println!("|---:|---:|---:|---:|---:|---:|---:|");
    let mut pts_total = Vec::new();
    let mut pts_core = Vec::new();
    for target in [1_000usize, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000, 3_000_000] {
        let (old, sim) = pair_at_rate(target, 0.1, 42);
        let old_xml = old.doc.to_xml();
        let new_xml = sim.new_version.doc.to_xml();
        let total_bytes = old_xml.len() + new_xml.len();

        let t = Instant::now();
        let old_doc = Document::parse(&old_xml).unwrap();
        let new_doc = Document::parse(&new_xml).unwrap();
        let parse = t.elapsed();
        let old_x = XidDocument::assign_initial(old_doc);
        let r = diff(&old_x, &new_doc, &DiffOptions::default());
        let tm = r.timings;
        println!(
            "| {} | {} | {} | {} | {} | {} | {} |",
            fmt_bytes(total_bytes),
            fmt_dur(parse),
            fmt_dur(tm.phase1 + tm.phase2),
            fmt_dur(tm.phase3),
            fmt_dur(tm.phase4),
            fmt_dur(tm.phase5),
            fmt_dur(tm.total()),
        );
        pts_total.push((total_bytes as f64, tm.total().as_secs_f64()));
        pts_core.push((total_bytes as f64, tm.core().as_secs_f64().max(1e-9)));
    }
    println!(
        "\ngrowth exponent (log-log slope): diff total ≈ {:.2}, phases 3+4 ≈ {:.2}  (1.0 = linear; paper: 'almost linear')\n",
        log_log_slope(&pts_total),
        log_log_slope(&pts_core)
    );
}

/// E2 / Figure 5 — computed delta size vs the simulator's perfect delta.
fn fig5() {
    println!("## Figure 5 — delta quality: computed size vs synthetic (perfect) size\n");
    println!("| doc size | change rate | perfect delta | computed delta | ratio |");
    println!("|---:|---:|---:|---:|---:|");
    let mut worst: f64 = 0.0;
    let mut ratios = Vec::new();
    for &bytes in &[5_000usize, 20_000, 100_000, 400_000] {
        for &rate in &[0.01, 0.05, 0.1, 0.2, 0.3, 0.5] {
            let (old, sim) = pair_at_rate(bytes, rate, 7 + (bytes + (rate * 100.0) as usize) as u64);
            let r = diff(&old, &sim.new_version.doc, &DiffOptions::default());
            let perfect = sim.perfect_delta.size_bytes().max(1);
            let ours = r.delta.size_bytes();
            let ratio = ours as f64 / perfect as f64;
            worst = worst.max(ratio);
            ratios.push((rate, ratio));
            println!(
                "| {} | {:>4.0}% | {} | {} | {:.2} |",
                fmt_bytes(bytes),
                rate * 100.0,
                fmt_bytes(perfect),
                fmt_bytes(ours),
                ratio
            );
        }
    }
    let mid: Vec<f64> = ratios
        .iter()
        .filter(|(r, _)| (0.2..=0.35).contains(r))
        .map(|&(_, q)| q)
        .collect();
    let mid_avg = mid.iter().sum::<f64>() / mid.len().max(1) as f64;
    println!(
        "\nworst ratio {worst:.2}; mean ratio around 30% change: {mid_avg:.2}  \
         (paper: 'about fifty percent larger' in the middle of the range)\n"
    );
}

/// E3 / Figure 6 — delta size over Unix-diff output size on web-like XML.
fn fig6() {
    println!("## Figure 6 — delta size / Unix diff size on web-like documents\n");
    println!("| doc size | layout | unix diff | xydelta | ratio |");
    println!("|---:|---|---:|---:|---:|");
    let pretty = SerializeOptions::pretty();
    for &bytes in &[2_000usize, 10_000, 20_000, 50_000, 100_000, 500_000] {
        for (layout, opts) in [("multi-line", Some(&pretty)), ("one-line", None)] {
            let (old, sim) = pair_at_rate(bytes, 0.03, 1000 + bytes as u64);
            let (old_txt, new_txt) = match opts {
                Some(o) => (old.doc.to_xml_with(o), sim.new_version.doc.to_xml_with(o)),
                None => (old.doc.to_xml(), sim.new_version.doc.to_xml()),
            };
            let unix = xybase::unix_diff_size(&old_txt, &new_txt).max(1);
            let r = diff(&old, &sim.new_version.doc, &DiffOptions::default());
            let ours = r.delta.size_bytes();
            println!(
                "| {} | {layout} | {} | {} | {:.2} |",
                fmt_bytes(old_txt.len()),
                fmt_bytes(unix),
                fmt_bytes(ours),
                ours as f64 / unix as f64
            );
        }
    }
    println!(
        "\n(paper: deltas are 'on average roughly the size of the Unix Diff result'; \
         one-line documents show Unix diff's long-line pathology)\n"
    );
}

/// E4 — BULD (n log n) vs the quadratic Selkow-variant DP and DiffMK.
fn scaling() {
    println!("## Scaling — BULD vs quadratic tree DP vs DiffMK list diff\n");
    println!("| nodes | BULD | Selkow DP | DP pairs | DiffMK | BULD delta | DP cost |");
    println!("|---:|---:|---:|---:|---:|---:|---:|");
    let mut buld_pts = Vec::new();
    let mut selkow_pts = Vec::new();
    for &bytes in &[2_000usize, 5_000, 10_000, 20_000, 50_000, 100_000] {
        let (old, sim) = pair_at_rate(bytes, 0.1, 77);
        let nodes = old.doc.node_count();

        let t = Instant::now();
        let r = diff(&old, &sim.new_version.doc, &DiffOptions::default());
        let buld_time = t.elapsed();

        let t = Instant::now();
        let s = xybase::selkow_distance(&old.doc, &sim.new_version.doc);
        let selkow_time = t.elapsed();

        let t = Instant::now();
        let mk = xybase::diffmk_diff(&old.doc, &sim.new_version.doc);
        let diffmk_time = t.elapsed();

        println!(
            "| {nodes} | {} | {} | {} | {} | {} | {} |",
            fmt_dur(buld_time),
            fmt_dur(selkow_time),
            s.pairs_examined,
            fmt_dur(diffmk_time),
            fmt_bytes(r.delta.size_bytes()),
            s.cost,
        );
        let _ = mk;
        buld_pts.push((nodes as f64, buld_time.as_secs_f64()));
        selkow_pts.push((nodes as f64, selkow_time.as_secs_f64()));
    }
    println!(
        "\ngrowth exponents: BULD ≈ {:.2}, Selkow DP ≈ {:.2}  \
         (paper: linear vs quadratic for previous algorithms)\n",
        log_log_slope(&buld_pts),
        log_log_slope(&selkow_pts)
    );
}

/// E7 — the §6.2 site-snapshot experiment (INRIA-scale, 5 MB XML).
fn site() {
    println!("## Site snapshot — §6.2 (www.inria.fr scale: ~14k pages, ~5 MB)\n");
    let cfg = SiteConfig { pages: 14_000, sections: 60, seed: 5 };
    let t = Instant::now();
    let snapshot = site_snapshot(&cfg);
    let gen_time = t.elapsed();
    let old = XidDocument::assign_initial(snapshot);
    let evolved = evolve_site(&old, 0.02, 17);
    let old_xml = old.doc.to_xml();
    let new_xml = evolved.new_version.doc.to_xml();

    let t = Instant::now();
    let _od = Document::parse(&old_xml).unwrap();
    let _nd = Document::parse(&new_xml).unwrap();
    let parse_time = t.elapsed();

    let t = Instant::now();
    let r = diff(&old, &evolved.new_version.doc, &DiffOptions::default());
    let diff_time = t.elapsed();

    let t = Instant::now();
    let delta_xml = xydelta::xml_io::delta_to_xml(&r.delta);
    let write_time = t.elapsed();

    println!("snapshot: {} ({} pages), new version: {}", fmt_bytes(old_xml.len()), cfg.pages, fmt_bytes(new_xml.len()));
    println!("generate: {} | parse both: {} | diff: {} (core p3+p4: {}) | write delta: {}",
        fmt_dur(gen_time), fmt_dur(parse_time), fmt_dur(diff_time), fmt_dur(r.timings.core()), fmt_dur(write_time));
    println!("delta: {} ops, {}", r.delta.len(), fmt_bytes(delta_xml.len()));
    println!(
        "(paper: delta in ~30 s wall incl. I/O, core < 2 s, delta ≈ 1 MB for 5 MB snapshot)\n"
    );
}

/// E16 (extension) — cross-mode delta cost: the same simulated pairs run
/// through every `MatchMode`, per change family (the uniform three-phase
/// simulator, pure child-order shuffles over the `Grid` corpus, and
/// attribute churn). Every delta is apply-checked before it is counted, so
/// the table compares costs of *correct* deltas only. Writes
/// `BENCH_modes.json`; `XYBENCH_GATE=1` fails the run unless the unordered
/// matcher's mean ops-per-delta on the shuffle family is strictly below
/// BULD's (the claim EXPERIMENTS.md records).
fn modes() {
    use xydiff::MatchMode;
    use xysim::{attribute_churn, shuffle_children, AttrChurnConfig, ShuffleConfig};

    println!("## Modes — BULD vs unordered vs similarity across change families\n");
    let fast = xybench::fast_mode();
    let pairs = if fast { 12u64 } else { 60 };

    /// One document pair for (family, seed).
    fn pair_for(family: &str, seed: u64) -> (XidDocument, xysim::SimulatedChange) {
        match family {
            "shuffle" => {
                let doc = xysim::generate(&xysim::DocGenConfig {
                    kind: xysim::DocKind::Grid,
                    target_nodes: 800,
                    seed,
                    id_attributes: false,
                });
                let old = XidDocument::assign_initial(doc);
                let sim = shuffle_children(
                    &old,
                    &ShuffleConfig { p_shuffle: 0.8, seed: seed.wrapping_mul(31).wrapping_add(7) },
                );
                (old, sim)
            }
            "attr-churn" => {
                let old = XidDocument::assign_initial(xybench::sized_catalog(20_000, seed));
                let sim = attribute_churn(
                    &old,
                    &AttrChurnConfig {
                        seed: seed.wrapping_mul(31).wrapping_add(7),
                        ..Default::default()
                    },
                );
                (old, sim)
            }
            _ => pair_at_rate(20_000, 0.08, seed),
        }
    }

    println!("| family | mode | mean ops | mean delta bytes | mean diff time |");
    println!("|---|---|---:|---:|---:|");
    let mut json = String::from("{\n  \"bench\": \"modes\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n  \"pairs_per_family\": {pairs},\n",
        if fast { "fast" } else { "full" },
    ));
    let mut shuffle_mean = [0f64; 2];
    for family in ["uniform", "shuffle", "attr-churn"] {
        for mode in MatchMode::all() {
            let mut differ = Differ::new().with_mode(mode);
            let (mut ops, mut bytes, mut wall) = (0usize, 0usize, std::time::Duration::ZERO);
            for seed in 0..pairs {
                let (old, sim) = pair_for(family, seed);
                let t = Instant::now();
                let r = differ.diff(&old, &sim.new_version.doc);
                wall += t.elapsed();
                let mut replay = old.clone();
                r.delta.apply_to(&mut replay).expect("mode delta must apply");
                assert_eq!(
                    replay.doc.to_xml(),
                    sim.new_version.doc.to_xml(),
                    "{family}/{mode} seed {seed}: replay diverged"
                );
                ops += r.delta.ops.len();
                bytes += r.delta.size_bytes();
            }
            let mean_ops = ops as f64 / pairs as f64;
            println!(
                "| {family} | {mode} | {mean_ops:.1} | {} | {} |",
                fmt_bytes(bytes / pairs as usize),
                fmt_dur(wall / pairs as u32),
            );
            let key = format!("{}_{}", family.replace('-', "_"), mode.as_str());
            json.push_str(&format!(
                "  \"{key}_mean_ops\": {mean_ops:.2},\n  \"{key}_mean_bytes\": {},\n",
                bytes / pairs as usize,
            ));
            if family == "shuffle" && mode == MatchMode::Buld {
                shuffle_mean[0] = mean_ops;
            }
            if family == "shuffle" && mode == MatchMode::Unordered {
                shuffle_mean[1] = mean_ops;
            }
        }
    }
    json.push_str(&format!("  \"peak_rss_bytes\": {}\n}}\n", xybench::peak_rss_bytes().unwrap_or(0)));
    let path = xybench::bench_out_path("BENCH_modes.json");
    std::fs::write(&path, &json).unwrap_or_else(|e| eprintln!("cannot write {path:?}: {e}"));
    println!("\nwrote {}", path.display());
    println!(
        "\n(shuffle family, mean ops: buld {:.1} vs unordered {:.1} — the X-Diff regime)\n",
        shuffle_mean[0], shuffle_mean[1],
    );

    if std::env::var_os("XYBENCH_GATE").is_some() {
        println!("modes gate: shuffle mean ops unordered {:.1} vs buld {:.1}", shuffle_mean[1], shuffle_mean[0]);
        if shuffle_mean[1] >= shuffle_mean[0] {
            eprintln!(
                "modes gate FAILED: unordered ({:.1}) must emit fewer ops than BULD ({:.1}) on shuffles",
                shuffle_mean[1], shuffle_mean[0],
            );
            std::process::exit(1);
        }
    }
}

/// E9 (extension) — diff-driven full-text index maintenance vs rebuild
/// (§2: "use the diff to maintain such indexes").
fn index_maintenance() {
    println!("## Index maintenance — incremental (delta-driven) vs full rebuild\n");
    println!("| doc size | change rate | rebuild | incremental | speedup | postings |");
    println!("|---:|---:|---:|---:|---:|---:|");
    for &bytes in &[20_000usize, 100_000, 400_000, 1_000_000] {
        for &rate in &[0.01, 0.05] {
            let (old, sim) = pair_at_rate(bytes, rate, 5);
            let r = diff(&old, &sim.new_version.doc, &DiffOptions::default());
            let base = xyindex::DocumentIndex::build(&old);

            let t = Instant::now();
            let rebuilt = xyindex::DocumentIndex::build(&r.new_version);
            let rebuild_time = t.elapsed();

            // Clone outside the timer: production maintains one index in
            // place; the clone exists only so this loop can compare.
            let mut incremental = base.clone();
            let t = Instant::now();
            incremental.apply_delta(&r.delta, &r.new_version);
            let inc_time = t.elapsed();

            assert!(incremental.same_as(&rebuilt), "incremental index must equal rebuild");
            println!(
                "| {} | {:>3.0}% | {} | {} | {:.1}x | {} |",
                fmt_bytes(bytes),
                rate * 100.0,
                fmt_dur(rebuild_time),
                fmt_dur(inc_time),
                rebuild_time.as_secs_f64() / inc_time.as_secs_f64().max(1e-9),
                rebuilt.posting_count(),
            );
        }
    }
    println!("\n(extension E9: work proportional to the change, not the document)\n");
}

/// E8 — ablations of the design choices (§5.2 "Tuning").
fn ablation() {
    println!("## Ablations — design choices of §5.2\n");
    let variants: Vec<(&str, DiffOptions)> = vec![
        ("default", DiffOptions::default()),
        ("no phase-4 propagation", DiffOptions { enable_propagation: false, ..Default::default() }),
        ("no unique-child propagation", DiffOptions { enable_unique_child_propagation: false, ..Default::default() }),
        ("exact LIS (no window)", DiffOptions { exact_lis: true, ..Default::default() }),
        ("LIS window 5", DiffOptions { lis_window: 5, ..Default::default() }),
        ("depth factor 0 (parent only)", DiffOptions { depth_factor: 0.0, ..Default::default() }),
        ("depth factor 4", DiffOptions { depth_factor: 4.0, ..Default::default() }),
    ];
    println!("| variant | time | delta bytes | ops | moves | matched |");
    println!("|---|---:|---:|---:|---:|---:|");
    let (old, sim) = pair_at_rate(200_000, 0.15, 99);
    for (name, opts) in &variants {
        let t = Instant::now();
        let r = diff(&old, &sim.new_version.doc, opts);
        let time = t.elapsed();
        let c = r.delta.counts();
        println!(
            "| {name} | {} | {} | {} | {} | {} |",
            fmt_dur(time),
            fmt_bytes(r.delta.size_bytes()),
            c.total(),
            c.moves,
            r.stats.matched_nodes,
        );
    }
    // ID-attribute ablation needs an ID-stamped corpus.
    println!("\nID attributes (catalog with DTD-declared product ids, products reordered + edited):\n");
    println!("| variant | time | delta bytes | ops | id matches |");
    println!("|---|---:|---:|---:|---:|");
    let doc = xysim::generate(&xysim::DocGenConfig {
        kind: xysim::DocKind::Catalog,
        target_nodes: 8_000,
        seed: 12,
        id_attributes: true,
    });
    let old = XidDocument::assign_initial(doc);
    let sim = xysim::simulate(&old, &xysim::ChangeConfig::uniform(0.1, 5));
    for (name, opts) in [
        ("with ID matching", DiffOptions::default()),
        ("without ID matching", DiffOptions { use_id_attributes: false, ..Default::default() }),
    ] {
        let t = Instant::now();
        let r = diff(&old, &sim.new_version.doc, &opts);
        let time = t.elapsed();
        println!(
            "| {name} | {} | {} | {} | {} |",
            fmt_dur(time),
            fmt_bytes(r.delta.size_bytes()),
            r.delta.len(),
            r.stats.id_matches,
        );
    }
    println!();
}
