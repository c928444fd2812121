//! Sentilo-style textual wire encoding of observations.
//!
//! Sentilo transports observations as small text messages (provider /
//! sensor / value / timestamp). The compression experiment (§V.B) operates
//! on accumulated files of such messages, so the encoding here is what the
//! [`f2c-compress`](../../compress) codec is measured against.
//!
//! Format (one observation per line):
//!
//! ```text
//! PROVIDER.type-slug.index;timestamp;value
//! ```

use crate::{Error, Reading, Result, SensorId, SensorType, Shape, Value};

/// Where a wire line's bytes go: a buffer, a byte count, a formatter.
/// A line is written once against this, so the text [`encode`] builds
/// and the length [`encoded_len`] reports cannot disagree — and neither
/// goes through `core::fmt`.
pub(crate) trait Sink {
    /// Takes the next bytes of the line (always ASCII).
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

impl Sink for String {
    fn put(&mut self, bytes: &[u8]) {
        self.extend(bytes.iter().copied().map(char::from));
    }
}

/// Writes `v` in decimal: digits into a stack buffer, one `put`.
pub(crate) fn put_decimal(out: &mut impl Sink, mut v: u64) {
    // u64::MAX has 20 digits.
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.put(&buf[at..]);
}

/// The one definition of a wire line, for any sink.
pub(crate) fn write_line(out: &mut impl Sink, reading: &Reading) {
    let ty = reading.sensor_type();
    out.put(ty.category().provider().as_bytes());
    out.put(b".");
    out.put(ty.slug().as_bytes());
    out.put(b".");
    put_decimal(out, u64::from(reading.sensor().index()));
    out.put(b";");
    put_decimal(out, reading.timestamp_s());
    out.put(b";");
    reading.value().write_wire(out);
}

/// Encodes one reading as a wire line (no trailing newline).
///
/// # Examples
///
/// ```
/// use scc_sensors::{wire, Reading, SensorId, SensorType, Value};
///
/// let r = Reading::new(SensorId::new(SensorType::Temperature, 7), 900, Value::from_f64(21.5));
/// assert_eq!(wire::encode(&r), "ENERGY.temp.7;900;21.50");
/// ```
pub fn encode(reading: &Reading) -> String {
    let mut line = String::new();
    write_line(&mut line, reading);
    line
}

/// `encode(reading).len()` without building the line: the same bytes run
/// into a sink that only counts, so sizing a record allocates nothing.
///
/// # Examples
///
/// ```
/// use scc_sensors::{wire, Reading, SensorId, SensorType, Value};
///
/// let r = Reading::new(SensorId::new(SensorType::Temperature, 7), 900, Value::from_f64(21.5));
/// assert_eq!(wire::encoded_len(&r), "ENERGY.temp.7;900;21.50".len());
/// ```
pub fn encoded_len(reading: &Reading) -> usize {
    struct ByteCount(usize);
    impl Sink for ByteCount {
        fn put(&mut self, bytes: &[u8]) {
            self.0 += bytes.len();
        }
    }
    let mut count = ByteCount(0);
    write_line(&mut count, reading);
    count.0
}

/// Encodes a batch of readings, one line each, newline-terminated.
///
/// This is the text the compression experiments and the shipment capture
/// tap work on; the live flush path never builds it. Takes anything that
/// lends readings, so records are encoded where they sit.
pub fn encode_batch<R: AsRef<Reading>>(readings: &[R]) -> Vec<u8> {
    let mut out = Vec::with_capacity(readings.len() * 32);
    for r in readings {
        write_line(&mut out, r.as_ref());
        out.push(b'\n');
    }
    out
}

/// Parses one wire line back into a [`Reading`].
///
/// The value grammar is the sensor type's [`Shape`]: a flag, a counter, a
/// level, a scalar, or a composite of exactly the type's field count.
///
/// # Errors
///
/// [`Error::MalformedObservation`] on any structural or numeric violation.
pub fn parse(line: &str) -> Result<Reading> {
    let bad = |reason: &'static str| Error::MalformedObservation {
        line: line.chars().take(80).collect(),
        reason,
    };
    let mut parts = line.trim_end().split(';');
    let head = parts.next().ok_or_else(|| bad("missing head"))?;
    let ts_str = parts.next().ok_or_else(|| bad("missing timestamp"))?;
    let val_str = parts.next().ok_or_else(|| bad("missing value"))?;
    if parts.next().is_some() {
        return Err(bad("too many fields"));
    }

    let mut head_parts = head.split('.');
    let provider = head_parts.next().ok_or_else(|| bad("missing provider"))?;
    let slug = head_parts.next().ok_or_else(|| bad("missing type slug"))?;
    let index_str = head_parts.next().ok_or_else(|| bad("missing index"))?;
    if head_parts.next().is_some() {
        return Err(bad("too many head fields"));
    }
    let ty = SensorType::from_slug(slug).ok_or_else(|| bad("unknown type slug"))?;
    if ty.category().provider() != provider {
        return Err(bad("provider does not match type"));
    }
    let index: u32 = index_str.parse().map_err(|_| bad("bad index"))?;
    let timestamp: u64 = ts_str.parse().map_err(|_| bad("bad timestamp"))?;
    let value = parse_value(ty, val_str).ok_or_else(|| bad("bad value"))?;
    Ok(Reading::new(SensorId::new(ty, index), timestamp, value))
}

/// The value `s` spells for a reading of `ty`, read by the type's
/// [`Shape`]; `None` unless the shape admits it (a composite with another
/// type's field count included).
fn parse_value(ty: SensorType, s: &str) -> Option<Value> {
    let shape = ty.shape();
    let value = match shape {
        Shape::Flag => match s {
            "0" => Value::Flag(false),
            "1" => Value::Flag(true),
            _ => return None,
        },
        Shape::Counter => Value::Counter(s.parse().ok()?),
        Shape::Level => {
            let l: u8 = s.strip_suffix('%')?.parse().ok()?;
            (l <= 100).then_some(Value::Level(l))?
        }
        Shape::Composite { .. } => Value::Composite(
            s.split('|')
                .map(|f| {
                    let v: f64 = f.parse().ok()?;
                    Some((v * 100.0).round() as i64)
                })
                .collect::<Option<_>>()?,
        ),
        Shape::Scalar => Value::from_f64(s.parse().ok()?),
    };
    shape.admits(&value).then_some(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReadingGenerator;

    #[test]
    fn roundtrip_every_sensor_type() {
        for ty in SensorType::ALL {
            let mut g = ReadingGenerator::for_population(ty, 3, 11);
            for wave_t in 0..5u64 {
                for r in g.wave(wave_t * 900) {
                    let line = encode(&r);
                    let back = parse(&line).unwrap_or_else(|e| panic!("{ty}: {e}"));
                    assert_eq!(back, r, "{ty}: {line}");
                }
            }
        }
    }

    #[test]
    fn batch_roundtrip() {
        let mut g = ReadingGenerator::for_population(SensorType::Weather, 20, 3);
        let wave = g.wave(0);
        let bytes = encode_batch(&wave);
        let text = std::str::from_utf8(&bytes).unwrap();
        let back: Vec<Reading> = text.lines().map(|line| parse(line).unwrap()).collect();
        assert_eq!(back, wave);
    }

    #[test]
    fn malformed_lines_error_not_panic() {
        for line in [
            "",
            "x",
            "ENERGY.temp.7",
            "ENERGY.temp.7;900",
            "ENERGY.temp.7;900;21.5;extra",
            "BOGUS.temp.7;900;21.5",
            "ENERGY.nope.7;900;21.5",
            "ENERGY.temp.x;900;21.5",
            "ENERGY.temp.7;notatime;21.5",
            "ENERGY.temp.7;900;notanumber",
            "PARKING.parking.1;0;2",
            "GARBAGE.cont-glass.1;0;150%",
            "GARBAGE.cont-glass.1;0;73",
            "URBANLAB.weather.3;900;1.00|2.00",
            "ENERGY.netan.3;900;1.00",
        ] {
            assert!(parse(line).is_err(), "should reject {line:?}");
        }
    }

    #[test]
    fn wire_lines_are_compact() {
        // The paper's small types report ~22 bytes per transaction; the
        // natural text encoding must stay in that ballpark for the
        // compression experiment to be representative.
        let r = Reading::new(
            SensorId::new(SensorType::Temperature, 70_000),
            86_399,
            Value::from_f64(21.5),
        );
        let line = encode(&r);
        assert!(line.len() <= 40, "line too long: {line}");
    }

    fn extreme_values() -> Vec<Value> {
        let switch = 1i64 << 52;
        vec![
            Value::Scalar(i64::MIN),
            Value::Scalar(-1),
            Value::Scalar(i64::MAX),
            Value::Scalar(switch - 1),
            Value::Scalar(switch),
            Value::Scalar(-switch),
            Value::Counter(0),
            Value::Counter(u64::MAX),
            Value::Flag(false),
            Value::Flag(true),
            Value::Level(0),
            Value::Level(u8::MAX),
            Value::Composite(Vec::new()),
            Value::Composite(vec![i64::MIN, -1, 0, 1, 99, 100, 12_345, i64::MAX]),
        ]
    }

    /// Every type, both ends of the index and timestamp ranges, every
    /// value shape at its extremes.
    fn extreme_readings() -> impl Iterator<Item = Reading> {
        SensorType::ALL.into_iter().flat_map(|ty| {
            [(0, 0), (7, 900), (u32::MAX, u64::MAX)]
                .into_iter()
                .flat_map(move |(index, ts)| {
                    extreme_values()
                        .into_iter()
                        .map(move |value| Reading::new(SensorId::new(ty, index), ts, value))
                })
        })
    }

    /// The line as `core::fmt` wrote it before the byte emitter: the
    /// reference the emitter is held to.
    fn format_line(reading: &Reading) -> String {
        let hundredths = |raw: i64| format!("{:.2}", raw as f64 / 100.0);
        let value = match reading.value() {
            Value::Scalar(raw) => hundredths(*raw),
            Value::Counter(c) => format!("{c}"),
            Value::Flag(b) => format!("{}", u8::from(*b)),
            Value::Level(l) => format!("{l}%"),
            Value::Composite(fields) => {
                let fields: Vec<String> = fields.iter().map(|&v| hundredths(v)).collect();
                fields.join("|")
            }
        };
        let ty = reading.sensor_type();
        format!(
            "{}.{}.{};{};{}",
            ty.category().provider(),
            ty.slug(),
            reading.sensor().index(),
            reading.timestamp_s(),
            value
        )
    }

    #[test]
    fn byte_emitter_writes_what_format_wrote() {
        for r in extreme_readings() {
            let expected = format_line(&r);
            assert_eq!(encode(&r), expected);
            let mut bytes = Vec::new();
            write_line(&mut bytes, &r);
            assert_eq!(bytes, expected.as_bytes());
            assert_eq!(r.value().to_string(), expected.rsplit(';').next().unwrap());
        }
        // Generated traffic of every type, batch form included.
        for ty in SensorType::ALL {
            let wave = ReadingGenerator::for_population(ty, 40, 5).wave(86_399);
            let lines: Vec<String> = wave.iter().map(|r| format_line(r) + "\n").collect();
            assert_eq!(encode_batch(&wave), lines.concat().into_bytes(), "{ty}");
        }
    }

    #[test]
    fn encoded_len_matches_encode_at_the_extremes() {
        for r in extreme_readings() {
            assert_eq!(encoded_len(&r), encode(&r).len(), "{}", encode(&r));
        }
    }

    #[test]
    fn provider_mismatch_is_rejected() {
        assert!(parse("NOISE.temp.7;900;21.50").is_err());
    }
}
