//! A minimal from-scratch JSON parser (RFC 8259 subset sufficient for
//! Fabric collection-definition files).
//!
//! Kept dependency-free on purpose: the workspace's allowed external crates
//! do not include a JSON library, and the collection configs the analyzer
//! reads are small, flat documents.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as f64, adequate for config files).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object with source-order-independent (sorted) keys.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The value under `key` if this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The string content if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The numeric content if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean content if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A JSON parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error.
    pub position: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns [`JsonError`] on malformed input or trailing content.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            position: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'n') => self.keyword("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn keyword(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for config
                            // files; map unpaired surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Collect the full UTF-8 sequence.
                    let start = self.pos - 1;
                    let len = utf8_len(c);
                    let end = start + len;
                    let slice = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| self.err("truncated utf-8"))?;
                    let s = std::str::from_utf8(slice).map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err("invalid number"))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_collection_config() {
        let doc = r#"[
          {
            "Name": "collectionMarbles",
            "Policy": "OR('Org1MSP.member','Org2MSP.member')",
            "RequiredPeerCount": 0,
            "MaxPeerCount": 3,
            "BlockToLive": 1000000,
            "MemberOnlyRead": true
          }
        ]"#;
        let v = parse(doc).unwrap();
        let first = &v.as_array().unwrap()[0];
        assert_eq!(
            first.get("Name").unwrap().as_str(),
            Some("collectionMarbles")
        );
        assert_eq!(first.get("RequiredPeerCount"), Some(&Value::Number(0.0)));
        assert_eq!(first.get("MemberOnlyRead"), Some(&Value::Bool(true)));
        assert!(first.get("EndorsementPolicy").is_none());
    }

    #[test]
    fn parses_scalars_and_nesting() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("-12.5e2").unwrap(), Value::Number(-1250.0));
        assert_eq!(
            parse(r#""a\n\"b\" A""#).unwrap(),
            Value::String("a\n\"b\" A".into())
        );
        let v = parse(r#"{"a":[1,{"b":[]}]}"#).unwrap();
        assert!(v.get("a").unwrap().as_array().is_some());
    }

    #[test]
    fn parses_unicode_text() {
        let v = parse(r#""héllo — ✓""#).unwrap();
        assert_eq!(v.as_str(), Some("héllo — ✓"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            r#"{"a" 1}"#,
            "tru",
            "1 2",
            r#""unterminated"#,
            "{'single': 1}",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn escape_roundtrips_through_parser() {
        let nasty = "a\"b\\c\nd\te\u{1}";
        let doc = fabric_types::json_str(nasty);
        assert_eq!(parse(&doc).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn error_reports_position() {
        let err = parse("[1, x]").unwrap_err();
        assert_eq!(err.position, 4);
        assert!(err.to_string().contains("byte 4"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Hostile input must yield errors, never panics.
        #[test]
        fn parse_never_panics(input in ".*") {
            let _ = parse(&input);
        }

        #[test]
        fn parse_never_panics_on_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            if let Ok(text) = std::str::from_utf8(&bytes) {
                let _ = parse(text);
            }
        }

        /// Escaped strings always roundtrip.
        #[test]
        fn escape_roundtrip(s in ".*") {
            let doc = fabric_types::json_str(&s);
            let parsed = parse(&doc).unwrap();
            prop_assert_eq!(parsed.as_str(), Some(s.as_str()));
        }
    }
}
