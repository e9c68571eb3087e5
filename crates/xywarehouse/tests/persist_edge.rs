//! Regression tests: persistence round-trips for edge-case documents.
//!
//! The Xyleme setting ingests arbitrary crawled XML, so the store must
//! survive documents that stress the serializer/parser boundary: text that
//! becomes empty across versions, non-ASCII content in every syntactic
//! position, and elements that carry only attributes. Each test ingests
//! its versions through the real diff pipeline, logs them as the server
//! does (`Record` frames, encoded and decoded again), replays the frames
//! into a fresh repository, and requires every reconstructed version
//! byte-for-byte.

use xydelta::xml_io;
use xywal::{decode_frame, encode_frame, Record};
use xywarehouse::replay::apply_records;
use xywarehouse::Repository;

/// Ingest `versions` of `key` into `repo`, appending the frame the server
/// would log for each to `log`.
fn ingest_and_log(repo: &Repository, key: &str, versions: &[&str], log: &mut Vec<u8>) {
    for xml in versions {
        let out = repo.load_version(key, xml).unwrap();
        let record = if out.version == 0 {
            Record::Init { key: key.into(), xml: repo.latest_xml(key).unwrap() }
        } else {
            Record::Delta {
                key: key.into(),
                version: out.version as u64,
                delta_xml: xml_io::delta_to_xml(&out.delta),
            }
        };
        log.extend_from_slice(&encode_frame(&record));
    }
}

/// Decode every frame of `log` and replay them into a fresh repository.
fn replay(mut log: &[u8]) -> Repository {
    let mut records = Vec::new();
    while !log.is_empty() {
        let (record, used) = decode_frame(log).unwrap();
        records.push((records.len() as u64 + 1, record));
        log = &log[used..];
    }
    let shards = [Repository::new()];
    let stats = apply_records(&records, &shards, |_| 0).unwrap();
    assert_eq!(stats.skipped, 0, "a fresh repository skips nothing");
    let [repo] = shards;
    repo
}

/// Log, replay, and require every replayed version to serialize exactly as
/// the live repository's version did — the store must not lose or reorder
/// anything the data model keeps.
fn roundtrip(tag: &str, versions: &[&str]) -> Repository {
    let live = Repository::new();
    let mut log = Vec::new();
    ingest_and_log(&live, tag, versions, &mut log);
    let replayed = replay(&log);
    assert_eq!(replayed.version_count(tag), versions.len(), "version count after replay");
    for i in 0..versions.len() {
        assert_eq!(
            replayed.version_xml(tag, i).unwrap(),
            live.version_xml(tag, i).unwrap(),
            "version {i} of case {tag}"
        );
    }
    // The XID counter must survive replay so diffing can continue: the next
    // ingest hands out the same identifiers on both sides.
    let next = "<next><fresh>node</fresh></next>";
    assert_eq!(
        xml_io::delta_to_xml(&replayed.load_version(tag, next).unwrap().delta),
        xml_io::delta_to_xml(&live.load_version(tag, next).unwrap().delta),
        "first delta after replay of case {tag}"
    );
    live
}

/// [`roundtrip`], plus the stronger requirement that every version also
/// matches its source string byte-for-byte — valid when the input is already
/// in the serializer's canonical form (no entity-escape or whitespace-only
/// content the data model normalizes).
fn roundtrip_exact(tag: &str, versions: &[&str]) {
    let live = roundtrip(tag, versions);
    for (i, xml) in versions.iter().enumerate() {
        assert_eq!(
            &live.version_xml(tag, i).unwrap(),
            xml,
            "reconstructed version {i} of case {tag} vs source"
        );
    }
}

#[test]
fn text_that_becomes_empty_and_returns() {
    // A text node whose content is updated to nothing and back: the delta
    // carries an empty update value, and on reload the replay must agree.
    roundtrip_exact(
        "empty-text",
        &[
            "<note><body>hello</body><tag>x</tag></note>",
            "<note><body/><tag>x</tag></note>",
            "<note><body>back</body><tag>x</tag></note>",
        ],
    );
}

#[test]
fn whitespace_only_text_survives() {
    // The parser drops whitespace-only text nodes (default ParseOptions), so
    // the source is not canonical; the store-fidelity contract still holds.
    let _ = roundtrip(
        "ws-text",
        &[
            "<pre><code> indented </code></pre>",
            "<pre><code>  </code></pre>",
            "<pre><code> indented\tagain </code></pre>",
        ],
    );
}

#[test]
fn non_ascii_content_roundtrips() {
    roundtrip_exact(
        "non-ascii",
        &[
            "<menu><dish>crème brûlée</dish><price>€7</price></menu>",
            "<menu><dish>crème brûlée</dish><dish>日本料理</dish><price>€9</price></menu>",
            "<menu><dish>🍮 crème</dish><dish>日本料理</dish><price>€9</price></menu>",
        ],
    );
}

#[test]
fn non_ascii_attribute_values_roundtrip() {
    roundtrip_exact(
        "non-ascii-attrs",
        &[
            "<city name=\"Zürich\"><pop>400000</pop></city>",
            "<city name=\"São Paulo\"><pop>12000000</pop></city>",
        ],
    );
}

#[test]
fn attribute_only_elements_roundtrip() {
    roundtrip_exact(
        "attr-only",
        &[
            "<cfg><opt key=\"a\" value=\"1\"/><opt key=\"b\" value=\"2\"/></cfg>",
            "<cfg><opt key=\"a\" value=\"9\"/><opt key=\"c\" value=\"3\"/></cfg>",
            "<cfg><opt key=\"c\" value=\"3\"/></cfg>",
        ],
    );
}

#[test]
fn markup_characters_in_text_and_attributes() {
    // `&quot;` parses to a plain `"`, which the serializer does not
    // re-escape in text content, so the source is not canonical.
    let _ = roundtrip(
        "escapes",
        &[
            "<m a=\"x&amp;y\">1 &lt; 2 &amp; 3 &gt; 2</m>",
            "<m a=\"x&amp;y&lt;z\">now &quot;quoted&quot;</m>",
        ],
    );
}

#[test]
fn deep_nesting_with_mixed_edge_cases() {
    roundtrip_exact(
        "mixed",
        &[
            "<r><e/><t>é</t><a k=\"v\"/></r>",
            "<r><e><sub/></e><t>é…ö</t><a k=\"v\" l=\"w\"/></r>",
            "<r><t>é…ö</t><a l=\"w\"/></r>",
        ],
    );
}

/// Several keys in one log — one of them non-ASCII with a path separator —
/// continuing ingestion after replay.
#[test]
fn repository_roundtrip_with_edge_documents() {
    let live = Repository::new();
    let mut log = Vec::new();
    ingest_and_log(&live, "u/é.xml", &["<doc><t>héllo</t></doc>", "<doc><t/></doc>"], &mut log);
    ingest_and_log(&live, "attrs", &["<a k=\"1\"/>"], &mut log);

    let loaded = replay(&log);
    assert_eq!(loaded.version_xml("u/é.xml", 0).unwrap(), "<doc><t>héllo</t></doc>");
    assert_eq!(loaded.latest_xml("u/é.xml").unwrap(), "<doc><t/></doc>");
    assert_eq!(loaded.latest_xml("attrs").unwrap(), "<a k=\"1\"/>");
    let out = loaded.load_version("u/é.xml", "<doc><t>again</t></doc>").unwrap();
    assert_eq!(out.version, 2);
}
