//! Robustness: the parsers must never panic, whatever bytes arrive — the
//! warehouse ingests crawled web content (§2), which is adversarially messy.

use proptest::prelude::*;
use xydiff_suite::xyhtml::htmlize;
use xydiff_suite::xytree::Document;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The XML parser returns Ok or Err but never panics.
    #[test]
    fn xml_parser_never_panics(input in ".{0,200}") {
        let _ = Document::parse(&input);
    }

    /// Markup-dense input: bias toward XML-ish characters.
    #[test]
    fn xml_parser_never_panics_on_markup_soup(input in "[<>/='\"a-z0-9 &;!\\-\\[\\]?]{0,200}") {
        let _ = Document::parse(&input);
    }

    /// htmlize is total: never panics, and its output is always well-formed
    /// XML that re-parses.
    #[test]
    fn htmlize_output_always_reparses(input in "[<>/='\"a-zA-Z0-9 &;!\\-]{0,200}") {
        let doc = htmlize(&input);
        let xml = doc.to_xml();
        let back = Document::parse(&xml);
        prop_assert!(back.is_ok(), "htmlize({input:?}) -> {xml:?}: {:?}", back.err());
    }

    /// Whatever parses must re-serialize to something that parses to the
    /// same tree (fixpoint under serialize∘parse).
    #[test]
    fn parse_serialize_parse_is_stable(input in "[<>/='\"a-z0-9 ]{0,150}") {
        if let Ok(doc) = Document::parse(&input) {
            let once = doc.to_xml();
            let doc2 = Document::parse(&once)
                .unwrap_or_else(|e| panic!("serialize of parsed {input:?} fails: {e} in {once:?}"));
            prop_assert_eq!(doc2.to_xml(), once);
        }
    }

    /// Delta parsing is similarly total.
    #[test]
    fn delta_parser_never_panics(input in ".{0,200}") {
        let _ = xydiff_suite::xydelta::xml_io::parse_delta(&input);
    }

    /// The delta decoder reads operations straight off the tokenizer. On a
    /// real delta with a few characters overwritten — mostly malformed, now
    /// and then merely different — it must still agree with the reference
    /// decoder, which interprets the parsed delta document: the same delta
    /// out of both, or a refusal from both.
    #[test]
    fn delta_decoders_agree_on_damaged_deltas(
        damage in proptest::collection::vec((0usize..10_000, "[<>/=\"'a-z0-9 &;?!()-]"), 1..4),
    ) {
        use xydiff_suite::xydelta::{verify_all, xml_io};
        const DELTA: &str = "<delta><delete xid=\"5\" xid-map=\"(1;4-5)\" parent=\"11\" pos=\"1\">\
            <para>Intro <?xy-sep?> tail<!--c--><i k=\"v\"> </i></para></delete>\
            <insert xid=\"13\" xid-map=\"(13)\" parent=\"11\" pos=\"3\">text &amp; more</insert>\
            <move xid=\"3\" from-parent=\"5\" from-pos=\"2\" to-parent=\"10\" to-pos=\"2\"/>\
            <update xid=\"6\"><oldval>one</oldval><newval/></update>\
            <attr-insert xid=\"12\" name=\"stock\" value=\"3\" pos=\"2\"/>\
            <attr-delete xid=\"13\" name=\"lang\" old=\"en\"/>\
            <attr-update xid=\"4\" name=\"rank\" old=\"1\" new=\"2\"/></delta>";
        let mut xml = DELTA.as_bytes().to_vec();
        for (at, with) in &damage {
            let at = at % xml.len();
            xml[at] = with.as_bytes()[0];
        }
        let xml = String::from_utf8(xml).expect("ASCII stays ASCII");
        let keep_whitespace = xydiff_suite::xytree::ParseOptions {
            keep_whitespace_text: true,
            ..Default::default()
        };
        let reference = Document::parse_with(&xml, &keep_whitespace)
            .map_err(xydiff_suite::xydelta::DeltaParseError::from)
            .and_then(|doc| xml_io::document_to_delta(&doc));
        match (xml_io::parse_delta(&xml), reference) {
            (Ok(direct), Ok(reference)) => {
                prop_assert_eq!(xml_io::delta_to_xml(&direct), xml_io::delta_to_xml(&reference));
                prop_assert_eq!(verify_all(&direct), verify_all(&reference));
            }
            (Err(_), Err(_)) => {}
            (direct, reference) => prop_assert!(
                false,
                "{xml}: direct {direct:?}, reference {reference:?}"
            ),
        }
    }

    /// Path-expression parsing is total.
    #[test]
    fn query_parser_never_panics(input in ".{0,80}") {
        let _ = xydiff_suite::xyquery::Path::parse(&input);
    }
}
