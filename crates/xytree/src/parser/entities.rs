//! Entity-reference expansion: predefined entities, numeric character
//! references, and internal general entities from the DTD.

use crate::error::ParseErrorKind;
use std::borrow::Cow;
use std::collections::HashMap;

/// Maximum nesting of entity-in-entity expansion; guards against recursive
/// definitions like `<!ENTITY a "&b;"><!ENTITY b "&a;">`.
const MAX_ENTITY_DEPTH: usize = 16;

/// Replacement-text bytes one document's internal entities may expand to.
/// The depth bound alone lets a ten-level "billion laughs" DTD of 1 KB
/// expand to gigabytes; legitimate documents stay orders of magnitude below.
pub(crate) const MAX_EXPANSION_BYTES: usize = 16 << 20;

/// Expand all `&...;` references in `raw`, charging each internal entity's
/// replacement text to `budget` (the bytes the document may still expand to).
///
/// The overwhelmingly common case — element content and attribute values
/// with no references at all — borrows the input untouched; an owned string
/// is built only when expansion actually rewrites bytes. Callers copy into
/// the tree exactly once, when (and if) the text survives whitespace policy.
pub(crate) fn expand<'a>(
    raw: &'a str,
    entities: Option<&HashMap<String, String>>,
    budget: &mut usize,
) -> Result<Cow<'a, str>, ParseErrorKind> {
    if !raw.as_bytes().contains(&b'&') {
        return Ok(Cow::Borrowed(raw));
    }
    let mut out = String::with_capacity(raw.len());
    expand_rec(raw, entities, &mut out, 0, budget)?;
    Ok(Cow::Owned(out))
}

fn expand_rec(
    raw: &str,
    entities: Option<&HashMap<String, String>>,
    out: &mut String,
    depth: usize,
    budget: &mut usize,
) -> Result<(), ParseErrorKind> {
    let mut rest = raw;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        let after = &rest[amp + 1..];
        let Some(semi) = after.find(';') else {
            // A bare '&' is technically ill-formed; be lenient and keep it,
            // real web documents contain them.
            out.push('&');
            rest = after;
            continue;
        };
        let name = &after[..semi];
        rest = &after[semi + 1..];
        match name {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "apos" => out.push('\''),
            "quot" => out.push('"'),
            _ if name.starts_with('#') => {
                let body = &name[1..];
                let cp = if let Some(hex) = body.strip_prefix('x').or_else(|| body.strip_prefix('X'))
                {
                    u32::from_str_radix(hex, 16)
                } else {
                    body.parse::<u32>()
                }
                .map_err(|_| ParseErrorKind::InvalidCharRef(body.to_string()))?;
                let ch = char::from_u32(cp)
                    .ok_or_else(|| ParseErrorKind::InvalidCharRef(body.to_string()))?;
                out.push(ch);
            }
            _ => {
                let Some(value) = entities.and_then(|m| m.get(name)) else {
                    return Err(ParseErrorKind::UnknownEntity(name.to_string()));
                };
                if depth >= MAX_ENTITY_DEPTH {
                    return Err(ParseErrorKind::EntityRecursionLimit(name.to_string()));
                }
                *budget = budget
                    .checked_sub(value.len())
                    .ok_or(ParseErrorKind::EntityExpansionLimit(MAX_EXPANSION_BYTES))?;
                expand_rec(value, entities, out, depth + 1, budget)?;
            }
        }
    }
    out.push_str(rest);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expand(raw: &str, ents: &[(&str, &str)]) -> Result<String, ParseErrorKind> {
        let map: HashMap<String, String> =
            ents.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect();
        let mut budget = MAX_EXPANSION_BYTES;
        super::expand(raw, Some(&map), &mut budget).map(Cow::into_owned)
    }

    #[test]
    fn predefined() {
        assert_eq!(expand("&amp;&lt;&gt;&apos;&quot;", &[]).unwrap(), "&<>'\"");
    }

    #[test]
    fn decimal_and_hex_refs() {
        assert_eq!(expand("&#65;&#x42;&#x1F600;", &[]).unwrap(), "AB😀");
    }

    #[test]
    fn invalid_char_ref() {
        assert!(matches!(expand("&#xD800;", &[]), Err(ParseErrorKind::InvalidCharRef(_))));
        assert!(matches!(expand("&#zz;", &[]), Err(ParseErrorKind::InvalidCharRef(_))));
    }

    #[test]
    fn internal_entity() {
        assert_eq!(expand("hello &who;", &[("who", "world")]).unwrap(), "hello world");
    }

    #[test]
    fn nested_entities() {
        assert_eq!(
            expand("&outer;", &[("outer", "o-&inner;-o"), ("inner", "i")]).unwrap(),
            "o-i-o"
        );
    }

    #[test]
    fn recursion_is_caught() {
        let r = expand("&a;", &[("a", "&b;"), ("b", "&a;")]);
        assert!(matches!(r, Err(ParseErrorKind::EntityRecursionLimit(_))));
    }

    #[test]
    fn unknown_entity() {
        assert!(matches!(expand("&nope;", &[]), Err(ParseErrorKind::UnknownEntity(_))));
    }

    #[test]
    fn bare_ampersand_is_lenient() {
        assert_eq!(expand("AT&T rules", &[]).unwrap(), "AT&T rules");
    }

    #[test]
    fn no_entities_fast_path() {
        assert_eq!(expand("plain text", &[]).unwrap(), "plain text");
        let budget = &mut 0;
        assert!(matches!(super::expand("plain text", None, budget).unwrap(), Cow::Borrowed(_)));
        assert!(matches!(super::expand("a&amp;b", None, budget).unwrap(), Cow::Owned(_)));
    }

    #[test]
    fn expansion_is_charged_to_the_budget() {
        let map = HashMap::from([("e".to_string(), "12345".to_string())]);
        let mut budget = 12;
        assert_eq!(super::expand("&e;&e;", Some(&map), &mut budget).unwrap(), "1234512345");
        assert_eq!(budget, 2);
        assert_eq!(
            super::expand("&e;", Some(&map), &mut budget),
            Err(ParseErrorKind::EntityExpansionLimit(MAX_EXPANSION_BYTES))
        );
    }
}
