//! The one JSON string escaper the workspace's hand-rolled renderers share.

use std::fmt::Write as _;

/// `s` as a quoted JSON string: quotes, backslashes and every control
/// character escaped, so a rendered document always parses.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::json_str;

    #[test]
    fn escapes_quotes_backslashes_and_control_chars() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("a\tb\nc"), "\"a\\tb\\nc\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }
}
