//! Versions and querying the past (§2): version chains, reconstruction,
//! delta aggregation and inversion.
//!
//! ```text
//! cargo run --example version_warehouse
//! ```

use xydiff_suite::xydelta::{VersionChain, XidDocument};
use xydiff_suite::xydiff::{diff, DiffOptions};
use xydiff_suite::xytree::Document;

fn main() {
    // A feed that evolves over four crawls.
    let versions = [
        "<feed><entry><title>alpha</title></entry></feed>",
        "<feed><entry><title>alpha</title></entry><entry><title>beta</title></entry></feed>",
        "<feed><entry><title>alpha!</title></entry><entry><title>beta</title></entry></feed>",
        "<feed><entry><title>beta</title></entry><entry><title>alpha!</title></entry></feed>",
    ];

    let v0 = XidDocument::parse_initial(versions[0]).unwrap();
    let mut chain = VersionChain::new(v0);

    // Ingest each new version through the diff; the chain stores only the
    // latest snapshot plus the delta sequence (Figure 1: "the old version is
    // then possibly removed from the repository").
    for (i, xml) in versions.iter().enumerate().skip(1) {
        let new_doc = Document::parse(xml).unwrap();
        let result = diff(chain.latest(), &new_doc, &DiffOptions::default());
        println!(
            "v{} -> v{}: {} ops, {} bytes as XML",
            i - 1,
            i,
            result.delta.len(),
            result.delta.size_bytes()
        );
        chain.push_version(result.new_version, result.delta);
    }

    // Querying the past: any version reconstructs from the latest snapshot
    // by applying inverted deltas backwards.
    println!();
    for (i, expected) in versions.iter().enumerate() {
        let vi = chain.version(i).unwrap();
        assert_eq!(&vi.doc.to_xml(), expected);
        println!("reconstructed v{i}: {}", vi.doc.to_xml());
    }

    // Aggregation: one delta describing v0 -> v3 directly, the XID-matched
    // diff of the two reconstructed endpoints. It is no longer than the
    // three deltas it replaces.
    let direct = chain.delta_between(0, 3).unwrap();
    println!("\naggregated delta v0 -> v3 ({} ops):", direct.len());
    print!("{}", direct.describe());
    let mut replay = chain.version(0).unwrap();
    direct.apply_to(&mut replay).unwrap();
    assert_eq!(replay.doc.to_xml(), versions[3]);
    let steps: usize = (0..3).map(|i| chain.delta(i).unwrap().len()).sum();
    assert!(direct.len() <= steps, "{} ops aggregate {steps}", direct.len());
}
