//! A dependency-free JSON value, writer and parser.
//!
//! The workspace's vendored `serde` is a no-op marker shim (the build
//! environment is offline), so the `BENCH_*.json` pipeline carries its own
//! tiny JSON: a [`Json`] tree, a deterministic pretty-printer whose object
//! members keep insertion order, and a strict recursive-descent parser for
//! reading committed baselines back.
//!
//! Numbers are `f64`; every integer the exporter emits fits in the 2^53
//! exact range and round-trips. Integral values print without a fraction so
//! the emitted files diff cleanly.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;

/// A JSON value. Objects preserve insertion order (deterministic output
/// beats hash-order output for committed, diffed artifacts).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Inserts (or replaces) a member of an object, preserving order.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn set(&mut self, key: &str, value: Json) -> &mut Json {
        let Json::Obj(members) = self else {
            panic!("Json::set on a non-object");
        };
        if let Some(slot) = members.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            members.push((key.to_string(), value));
        }
        self
    }

    /// Member of an object by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Walks a `.`-separated member path (`"phases.query.p99_us"`).
    /// Exported metric keys never contain dots.
    pub fn path(&self, path: &str) -> Option<&Json> {
        let mut node = self;
        for part in path.split('.') {
            node = node.get(part)?;
        }
        Some(node)
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is an integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Object members, in order (empty for non-objects).
    pub fn members(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(members) => members,
            _ => &[],
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline —
    /// the canonical form for committed `BENCH_*.json` artifacts.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }

    /// Parses one JSON document (trailing whitespace allowed, nothing else).
    ///
    /// # Errors
    ///
    /// [`JsonError`] with a byte offset on malformed input.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut pos = 0;
        let value = parse_value(text, &mut pos, 0)?;
        skip_ws(text.as_bytes(), &mut pos);
        if pos != text.len() {
            return Err(JsonError {
                at: pos,
                what: "trailing content after document",
            });
        }
        Ok(value)
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: what was wrong and the byte offset it was found at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub at: usize,
    /// What went wrong.
    pub what: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for JsonError {}

/// How deep arrays and objects may nest. The committed documents nest 6
/// levels; a hostile one must get a [`JsonError`], not a stack overflow.
const MAX_DEPTH: usize = 128;

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8, what: &'static str) -> Result<(), JsonError> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonError { at: *pos, what })
    }
}

fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    if depth > MAX_DEPTH && matches!(bytes.get(*pos), Some(b'{' | b'[')) {
        return Err(JsonError {
            at: *pos,
            what: "nesting too deep",
        });
    }
    match bytes.get(*pos) {
        None => Err(JsonError {
            at: *pos,
            what: "unexpected end of input",
        }),
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':', "expected ':' after object key")?;
                let value = parse_value(text, pos, depth + 1)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => {
                        return Err(JsonError {
                            at: *pos,
                            what: "expected ',' or '}' in object",
                        })
                    }
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => {
                        return Err(JsonError {
                            at: *pos,
                            what: "expected ',' or ']' in array",
                        })
                    }
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(text, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(text, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &'static str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(JsonError {
            at: *pos,
            what: "invalid literal",
        })
    }
}

/// Advances past a run of ASCII digits; returns how many there were.
fn skip_digits(bytes: &[u8], pos: &mut usize) -> usize {
    let start = *pos;
    while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    *pos - start
}

/// RFC 8259's grammar, `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`:
/// no leading `+`, no leading zeros, no bare `.` or exponent.
fn parse_number(text: &str, pos: &mut usize) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    let start = *pos;
    let invalid = JsonError {
        at: start,
        what: "invalid number",
    };
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_start = *pos;
    match skip_digits(bytes, pos) {
        0 => return Err(invalid),
        1 => {}
        _ if bytes[int_start] == b'0' => return Err(invalid),
        _ => {}
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if skip_digits(bytes, pos) == 0 {
            return Err(invalid);
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if skip_digits(bytes, pos) == 0 {
            return Err(invalid);
        }
    }
    text[start..*pos]
        .parse::<f64>()
        .map(Json::Num)
        .map_err(|_| invalid)
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, JsonError> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'"', "expected string")?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => {
                return Err(JsonError {
                    at: *pos,
                    what: "unterminated string",
                })
            }
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let invalid = JsonError {
                            at: *pos,
                            what: "invalid \\u escape",
                        };
                        let hex = text.get(*pos + 1..*pos + 5).ok_or(invalid)?;
                        // `from_str_radix` alone would take a leading `+`.
                        if !hex.bytes().all(|h| h.is_ascii_hexdigit()) {
                            return Err(invalid);
                        }
                        let code = u32::from_str_radix(hex, 16).map_err(|_| invalid)?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => {
                        return Err(JsonError {
                            at: *pos,
                            what: "invalid escape",
                        })
                    }
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => {
                return Err(JsonError {
                    at: *pos,
                    what: "unescaped control character in string",
                })
            }
            Some(_) => {
                // One UTF-8 scalar. Every step so far ended on a scalar
                // boundary, so the slice is O(1) and never fails on a &str.
                let c = text
                    .get(*pos..)
                    .and_then(|rest| rest.chars().next())
                    .ok_or(JsonError {
                        at: *pos,
                        what: "invalid UTF-8",
                    })?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_print_parse_round_trips() {
        let mut doc = Json::obj();
        doc.set("schema_version", Json::Num(1.0));
        doc.set("bench", Json::Str("queries".into()));
        let mut metrics = Json::obj();
        metrics.set("requests{layer=fog1}", Json::Num(50_000.0));
        metrics.set("ratio", Json::Num(0.125));
        doc.set("metrics", metrics);
        doc.set("tags", Json::Arr(vec![Json::Bool(true), Json::Null]));
        let text = doc.to_pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(
            back.path("metrics.requests{layer=fog1}").unwrap().as_u64(),
            Some(50_000)
        );
        assert_eq!(back.path("metrics.ratio").unwrap().as_f64(), Some(0.125));
        assert_eq!(back.get("bench").unwrap().as_str(), Some("queries"));
        assert_eq!(back.path("metrics.absent"), None);
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::Num(7.0).to_pretty(), "7\n");
        assert_eq!(Json::Num(-3.0).to_pretty(), "-3\n");
        assert_eq!(Json::Num(0.5).to_pretty(), "0.5\n");
    }

    #[test]
    fn object_order_is_insertion_order_and_set_replaces() {
        let mut doc = Json::obj();
        doc.set("z", Json::Num(1.0));
        doc.set("a", Json::Num(2.0));
        doc.set("z", Json::Num(3.0));
        assert_eq!(doc.members()[0].0, "z");
        assert_eq!(doc.get("z").unwrap().as_u64(), Some(3));
        assert_eq!(doc.members().len(), 2);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let doc = Json::Str("a\"b\\c\nd\u{1}".into());
        let text = doc.to_pretty();
        assert_eq!(text, "\"a\\\"b\\\\c\\nd\\u0001\"\n");
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn malformed_input_reports_offset() {
        let err = Json::parse("{\"a\": }").unwrap_err();
        assert_eq!(err.at, 6);
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("nul").is_err());
        assert_eq!(Json::parse("  [ ]  ").unwrap(), Json::Arr(vec![]));
    }

    #[test]
    fn rejects_what_rfc_8259_forbids() {
        for bad in [
            "\"\\u+041\"",
            "\"\\u004\"",
            "+1",
            "01",
            "-01",
            "1.",
            ".5",
            "-",
            "1e",
            "1e+",
            "\"a\u{1}b\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
        assert_eq!(Json::parse("\"\\u0041\"").unwrap(), Json::Str("A".into()));
        assert_eq!(Json::parse("-0.5e+2").unwrap(), Json::Num(-50.0));
        assert_eq!(Json::parse("0").unwrap(), Json::Num(0.0));
    }

    #[test]
    fn u64_accessor_rejects_non_integers() {
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-2.0).as_u64(), None);
        assert_eq!(Json::Num(9.0).as_u64(), Some(9));
        assert_eq!(Json::Str("9".into()).as_u64(), None);
    }
}
