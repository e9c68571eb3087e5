//! Escaping of character data and attribute values for serialization.

/// Append `text` to `out` with `&`, `<`, `>` escaped — suitable for element
/// content. (`>` only strictly needs escaping in `]]>`, but escaping it
/// unconditionally is harmless and matches common practice.)
pub fn escape_text_into(text: &str, out: &mut String) {
    for ch in text.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            _ => out.push(ch),
        }
    }
}

/// Append `value` to `out` with `&`, `<`, `"` escaped — suitable for a
/// double-quoted attribute value.
pub fn escape_attr_into(value: &str, out: &mut String) {
    for ch in value.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '"' => out.push_str("&quot;"),
            '\n' => out.push_str("&#10;"),
            '\t' => out.push_str("&#9;"),
            _ => out.push(ch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escape_text(text: &str) -> String {
        let mut out = String::new();
        escape_text_into(text, &mut out);
        out
    }

    fn escape_attr(value: &str) -> String {
        let mut out = String::new();
        escape_attr_into(value, &mut out);
        out
    }

    #[test]
    fn text_escapes_markup() {
        assert_eq!(escape_text("a<b>&c"), "a&lt;b&gt;&amp;c");
    }

    #[test]
    fn text_leaves_quotes() {
        assert_eq!(escape_text(r#"say "hi""#), r#"say "hi""#);
    }

    #[test]
    fn attr_escapes_quote_and_whitespace_controls() {
        assert_eq!(escape_attr("a\"b\nc\td"), "a&quot;b&#10;c&#9;d");
    }

    #[test]
    fn attr_escapes_amp_lt() {
        assert_eq!(escape_attr("<&>"), "&lt;&amp;>");
    }

    #[test]
    fn empty_is_empty() {
        assert_eq!(escape_text(""), "");
        assert_eq!(escape_attr(""), "");
    }

    #[test]
    fn unicode_passes_through() {
        assert_eq!(escape_text("café ☕"), "café ☕");
    }
}
