//! Adversarial-input robustness for `obs::json`, the parser that reads the
//! committed `BENCH_*.json` baselines back. Every truncation and every
//! single-bit flip of a small document returns `Ok` or `Err` and never
//! panics. A hostile nesting depth is an `Err`, not a stack overflow. A
//! multi-megabyte string parses in time linear in its length.

use std::time::{Duration, Instant};

use f2c_obs::json::Json;

/// A small document that uses every production: nested objects and
/// arrays, escapes (`\uXXXX` included), multi-byte scalars, literals and
/// negative, fractional and exponent numbers.
fn sample() -> String {
    let mut inner = Json::obj();
    inner.set("p99_us", Json::Num(1234.5));
    inner.set("count", Json::Num(50_025.0));
    inner.set(
        "label",
        Json::Str("fog1 \"Nou Barris\" → cloud\n\u{1}".into()),
    );
    let mut doc = Json::obj();
    doc.set("schema_version", Json::Num(4.0));
    doc.set("delta", Json::Num(-0.125));
    doc.set("phases", inner);
    doc.set(
        "tags",
        Json::Arr(vec![
            Json::Bool(true),
            Json::Bool(false),
            Json::Null,
            Json::Arr(vec![]),
        ]),
    );
    doc.set("empty", Json::obj());
    let mut text = doc.to_pretty();
    text.insert_str(text.len() - 2, ",\n  \"exp\": 2.5e-3");
    text
}

#[test]
fn the_sample_parses() {
    let text = sample();
    let doc = Json::parse(&text).unwrap();
    assert_eq!(doc.get("exp").unwrap().as_f64(), Some(2.5e-3));
    assert_eq!(doc.path("phases.count").unwrap().as_u64(), Some(50_025));
}

#[test]
fn every_truncation_is_an_error_until_the_document_is_whole() {
    let text = sample();
    for end in 0..=text.len() {
        let Some(prefix) = text.get(..end) else {
            continue; // not a scalar boundary: no such &str
        };
        let whole = prefix.trim_end() == text.trim_end();
        assert_eq!(Json::parse(prefix).is_ok(), whole, "prefix of {end} bytes");
    }
}

#[test]
fn every_single_bit_flip_parses_or_errs() {
    let bytes = sample().into_bytes();
    let mut parsed = 0;
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut flipped = bytes.clone();
            flipped[i] ^= 1 << bit;
            if let Ok(text) = std::str::from_utf8(&flipped) {
                // Must return, either way; a panic fails the test.
                parsed += usize::from(Json::parse(text).is_ok());
            }
        }
    }
    // Flips inside string contents and digits still make documents.
    assert!(parsed > 0);
}

#[test]
fn hostile_nesting_is_an_error_not_a_stack_overflow() {
    for open in ["[", "{\"a\":"] {
        let deep = open.repeat(200_000);
        let err = Json::parse(&deep).unwrap_err();
        assert_eq!(err.what, "nesting too deep");
    }
    // The committed documents nest 6 levels; far more still parses.
    let nested = format!("{}{}", "[".repeat(64), "]".repeat(64));
    assert!(Json::parse(&nested).is_ok());
}

#[test]
fn a_multi_megabyte_string_parses_in_linear_time() {
    let body = "x→y\\n".repeat(1 << 19); // 3.5 MiB of input
    let text = format!("{{\"pad\": \"{body}\"}}");
    let start = Instant::now();
    let doc = Json::parse(&text).unwrap();
    let took = start.elapsed();
    let pad = doc.get("pad").unwrap().as_str().unwrap();
    assert_eq!(pad.chars().count(), 4 << 19);
    // Linear work is tens of milliseconds even in a debug build; the
    // parser this replaces re-validated the rest of the input as UTF-8
    // for every character, quadratic in the string's length.
    assert!(took < Duration::from_secs(30), "{took:?}");
}
