//! Observation values.

use std::fmt::{self, Write as _};

use serde::{Deserialize, Serialize};

use crate::wire::{put_decimal, Sink};

/// The measured value carried by one [`crate::Reading`].
///
/// Values are comparable for *exact* equality — that is what redundant-data
/// elimination (the paper's first aggregation technique) keys on: "each
/// sensor sends the current temperature measurements, but this type of data
/// is prone to repetitions" (§V.A). Floats are wrapped in a fixed-point
/// representation so equality is well-defined.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Value {
    /// A scalar measurement with 2 fixed decimal places (value × 100).
    Scalar(i64),
    /// A monotone counter (meter readings, flow counts).
    Counter(u64),
    /// A binary state (parking occupancy).
    Flag(bool),
    /// A percentage level 0–100 (container fill).
    Level(u8),
    /// A multi-field measurement (network analyzer, weather station):
    /// field values with 2 fixed decimal places, in a fixed field order.
    Composite(Vec<i64>),
}

impl Value {
    /// Builds a scalar from a float, keeping 2 decimal places.
    pub fn from_f64(v: f64) -> Self {
        Value::Scalar((v * 100.0).round() as i64)
    }

    /// A single numeric magnitude for analysis phases: scalars and levels
    /// map to their value, counters to their count, flags to 0/1, and
    /// composites to their first field (by convention, the primary channel).
    pub fn magnitude(&self) -> f64 {
        match self {
            Value::Scalar(raw) => *raw as f64 / 100.0,
            Value::Counter(c) => *c as f64,
            Value::Flag(b) => f64::from(u8::from(*b)),
            Value::Level(l) => f64::from(*l),
            Value::Composite(fields) => fields.first().map_or(0.0, |&v| v as f64 / 100.0),
        }
    }
}

impl Value {
    /// Heap bytes the value owns beyond its own size: a composite's
    /// field vector, nothing otherwise.
    pub fn heap_bytes(&self) -> u64 {
        match self {
            Value::Composite(fields) => crate::heap::vec_bytes(fields),
            _ => 0,
        }
    }

    /// Writes the value's wire digits — also what `Display` prints.
    pub(crate) fn write_wire(&self, out: &mut impl Sink) {
        match self {
            Value::Scalar(raw) => put_hundredths(out, *raw),
            Value::Counter(c) => put_decimal(out, *c),
            Value::Flag(b) => out.put(if *b { b"1" } else { b"0" }),
            Value::Level(l) => {
                put_decimal(out, u64::from(*l));
                out.put(b"%");
            }
            Value::Composite(fields) => {
                for (i, v) in fields.iter().enumerate() {
                    if i > 0 {
                        out.put(b"|");
                    }
                    put_hundredths(out, *v);
                }
            }
        }
    }
}

/// Writes `raw` hundredths as the two-decimal number they are
/// (`-?int.frac`, e.g. `2157` → `21.57`, `-5` → `-0.05`): integer digits
/// into a stack buffer, one `put` — no float, no `core::fmt` machinery.
/// Byte for byte what `{:.2}` prints for `raw as f64 / 100.0` while that
/// float still resolves hundredths; from `|raw| ≥ 2^52` on the float's
/// spacing exceeds a hundredth and its printout stops being the stored
/// value, so the float form — which is what the wire has always carried
/// out there — is kept for that range.
fn put_hundredths(out: &mut impl Sink, raw: i64) {
    const FLOAT_FORM_FROM: u64 = 1 << 52;
    let abs = raw.unsigned_abs();
    if abs >= FLOAT_FORM_FROM {
        struct AsFmt<'a, S>(&'a mut S);
        impl<S: Sink> fmt::Write for AsFmt<'_, S> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0.put(s.as_bytes());
                Ok(())
            }
        }
        // Only a sink can fail a write, and this one never does.
        let _ = write!(AsFmt(out), "{:.2}", raw as f64 / 100.0);
        return;
    }
    // '-', at most 14 integer digits below 2^52 / 100, '.', two decimals.
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut push = |byte: u8| {
        at -= 1;
        buf[at] = byte;
    };
    let (mut int, frac) = (abs / 100, (abs % 100) as u8);
    push(b'0' + frac % 10);
    push(b'0' + frac / 10);
    push(b'.');
    loop {
        push(b'0' + (int % 10) as u8);
        int /= 10;
        if int == 0 {
            break;
        }
    }
    if raw < 0 {
        push(b'-');
    }
    out.put(&buf[at..]);
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Formatted<'a, 'b> {
            f: &'a mut fmt::Formatter<'b>,
            result: fmt::Result,
        }
        impl Sink for Formatted<'_, '_> {
            fn put(&mut self, bytes: &[u8]) {
                if self.result.is_ok() {
                    self.result = std::str::from_utf8(bytes)
                        .map_err(|_| fmt::Error)
                        .and_then(|s| self.f.write_str(s));
                }
            }
        }
        let mut out = Formatted { f, result: Ok(()) };
        self.write_wire(&mut out);
        out.result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_point_roundtrip() {
        let v = Value::from_f64(21.57);
        assert_eq!(v, Value::Scalar(2157));
        assert_eq!(v.magnitude(), 21.57);
    }

    #[test]
    fn equality_is_exact_after_quantization() {
        // 21.571 and 21.574 quantize to the same stored value -> redundant.
        assert_eq!(Value::from_f64(21.571), Value::from_f64(21.574));
        assert_ne!(Value::from_f64(21.57), Value::from_f64(21.58));
    }

    #[test]
    fn magnitude_covers_all_variants() {
        assert_eq!(Value::from_f64(3.5).magnitude(), 3.5);
        assert_eq!(Value::Counter(17).magnitude(), 17.0);
        assert_eq!(Value::Flag(true).magnitude(), 1.0);
        assert_eq!(Value::Level(73).magnitude(), 73.0);
        assert_eq!(Value::Composite(vec![250, 100]).magnitude(), 2.5);
        assert_eq!(Value::Composite(vec![]).magnitude(), 0.0);
    }

    #[test]
    fn hundredths_print_what_the_float_form_printed() {
        let float_form = |raw: i64| format!("{:.2}", raw as f64 / 100.0);
        let check = |raw: i64| {
            assert_eq!(Value::Scalar(raw).to_string(), float_form(raw), "raw {raw}");
        };
        for raw in -200_000..=200_000 {
            check(raw);
        }
        // Both sides of the switch to the float form, and the ends.
        let switch = 1i64 << 52;
        for delta in -2_000..=2_000 {
            check(switch + delta);
            check(-switch + delta);
        }
        for raw in [i64::MIN, i64::MIN + 1, i64::MAX - 1, i64::MAX] {
            check(raw);
        }
        // Pseudo-random values across every magnitude: a xorshift stream,
        // each draw shifted down by 0..=63 bits and given either sign.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..2_100_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            check((x as i64) >> (i % 64));
        }
        let fields = vec![-5, 0, 7, switch - 1, switch, i64::MIN];
        let joined: Vec<String> = fields.iter().map(|&v| float_form(v)).collect();
        assert_eq!(Value::Composite(fields).to_string(), joined.join("|"));
    }

    #[test]
    fn display_forms_are_compact() {
        assert_eq!(Value::from_f64(21.5).to_string(), "21.50");
        assert_eq!(Value::Counter(9).to_string(), "9");
        assert_eq!(Value::Flag(false).to_string(), "0");
        assert_eq!(Value::Level(40).to_string(), "40%");
        assert_eq!(Value::Composite(vec![100, 250]).to_string(), "1.00|2.50");
    }
}
