//! The combined LZ77 + canonical-Huffman stream codec ("deflate-style").
//!
//! This is the codec the experiments use where the paper used PKWARE Zip.
//! The container layout is deliberately simple (it does not need zip
//! interoperability, only the same *ratio class* on textual sensor data):
//!
//! ```text
//! magic "FZC1"            4 bytes
//! original length         u64 LE
//! CRC-32 of original      u32 LE
//! method                  1 byte: 0 = stored, 1 = huffman-coded LZ77
//! method 0: original bytes verbatim
//! method 1: 286 lit/len code lengths, 4 bits each
//!           30 distance code lengths, 4 bits each
//!           bit-packed tokens, terminated by the end-of-block symbol
//! ```
//!
//! [`code_lengths`] is called with a 15-bit limit, so every code length
//! is 0–15 and fits a 4-bit nibble exactly — which is why the header
//! stores raw nibbles instead of DEFLATE's run-length-coded header.
//! Streams where coding would expand the payload fall back to method 0,
//! so `compress` never loses more than the 17-byte header.

use crate::bitio::{BitReader, BitWriter};
use crate::crc32;
use crate::huffman::{code_lengths, Decoder, Encoder, MAX_CODE_LEN};
use crate::lz77::{self, SearchParams, Token};
use crate::{Error, Result};

const MAGIC: [u8; 4] = *b"FZC1";
const METHOD_STORED: u8 = 0;
const METHOD_DEFLATE: u8 = 1;

/// End-of-block symbol in the literal/length alphabet.
const EOB: usize = 256;
/// Size of the literal/length alphabet (literals 0–255, EOB, 29 length codes).
const NUM_LITLEN: usize = 286;
/// Size of the distance alphabet.
const NUM_DIST: usize = 30;

/// Default safety limit for declared decompressed sizes (1 GiB).
pub(crate) const DEFAULT_SIZE_LIMIT: u64 = 1 << 30;

/// Base match length for each length code 257..=285.
const LEN_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
/// Extra bits for each length code.
const LEN_EXTRA: [u32; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
/// Base distance for each distance code 0..=29.
const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
/// Extra bits for each distance code.
const DIST_EXTRA: [u32; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];

/// Compression effort presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Level {
    /// Short hash chains, greedy parsing.
    Fast,
    /// Balanced (lazy matching).
    #[default]
    Default,
    /// Longest chains, best ratio.
    Best,
}

impl Level {
    fn params(self) -> SearchParams {
        match self {
            Level::Fast => SearchParams::FAST,
            Level::Default => SearchParams::DEFAULT,
            Level::Best => SearchParams::BEST,
        }
    }
}

/// Maps a match length (3..=258) to `(code_index, extra_bits, extra_value)`.
fn length_code(len: u16) -> (usize, u32, u64) {
    debug_assert!((3..=258).contains(&len));
    let mut code = LEN_BASE.len() - 1;
    for (i, &base) in LEN_BASE.iter().enumerate() {
        if base > len {
            code = i - 1;
            break;
        }
    }
    // Length 258 has its own dedicated code (28) in DEFLATE.
    if len == 258 {
        code = 28;
    }
    let extra_bits = LEN_EXTRA[code];
    let extra_val = u64::from(len - LEN_BASE[code]);
    (code, extra_bits, extra_val)
}

/// Maps a distance (1..=32768) to `(code_index, extra_bits, extra_value)`.
fn distance_code(dist: u16) -> (usize, u32, u64) {
    debug_assert!(dist >= 1);
    let mut code = DIST_BASE.len() - 1;
    for (i, &base) in DIST_BASE.iter().enumerate() {
        if u32::from(base) > u32::from(dist) {
            code = i - 1;
            break;
        }
    }
    let extra_bits = DIST_EXTRA[code];
    let extra_val = u64::from(dist - DIST_BASE[code]);
    (code, extra_bits, extra_val)
}

/// Compresses `input` at [`Level::Default`].
///
/// # Examples
///
/// ```
/// let data = b"noise,58.2dB,sensor-17\n".repeat(64);
/// let packed = f2c_compress::compress(&data)?;
/// assert!(packed.len() < data.len() / 3);
/// # Ok::<(), f2c_compress::Error>(())
/// ```
pub fn compress(input: &[u8]) -> Result<Vec<u8>> {
    compress_with(input, Level::Default)
}

/// Compresses `input` at the given effort level.
///
/// Never fails today (the `Result` keeps the signature stable for future
/// streaming variants); the stored-method fallback bounds expansion to the
/// 17-byte header.
pub fn compress_with(input: &[u8], level: Level) -> Result<Vec<u8>> {
    let crc = crc32::checksum(input);
    let coded = encode_body(input, level);

    let mut w = BitWriter::with_capacity(coded.as_ref().map_or(input.len(), Vec::len) + 24);
    for &b in &MAGIC {
        w.write_byte(b);
    }
    w.write_u64(input.len() as u64);
    w.write_u32(crc);
    match coded {
        Some(body) if body.len() < input.len() => {
            w.write_byte(METHOD_DEFLATE);
            let mut out = w.into_bytes();
            out.extend_from_slice(&body);
            Ok(out)
        }
        _ => {
            w.write_byte(METHOD_STORED);
            let mut out = w.into_bytes();
            out.extend_from_slice(input);
            Ok(out)
        }
    }
}

/// Entropy-codes the LZ77 token stream; `None` if the input is empty.
fn encode_body(input: &[u8], level: Level) -> Option<Vec<u8>> {
    if input.is_empty() {
        return None;
    }
    let tokens = lz77::tokenize(input, &level.params());

    // Pass 1: frequencies.
    let mut litlen_freq = vec![0u64; NUM_LITLEN];
    let mut dist_freq = vec![0u64; NUM_DIST];
    for t in &tokens {
        match *t {
            Token::Literal(b) => litlen_freq[b as usize] += 1,
            Token::Match { length, distance } => {
                litlen_freq[257 + length_code(length).0] += 1;
                dist_freq[distance_code(distance).0] += 1;
            }
        }
    }
    litlen_freq[EOB] = 1;

    let litlen_lens = code_lengths(&litlen_freq, MAX_CODE_LEN);
    let dist_lens = code_lengths(&dist_freq, MAX_CODE_LEN);
    let litlen_enc = Encoder::from_lengths(&litlen_lens);
    let dist_enc = Encoder::from_lengths(&dist_lens);

    // Pass 2: emit header nibbles then coded tokens.
    let mut w = BitWriter::with_capacity(input.len() / 2 + 256);
    for &l in &litlen_lens {
        w.write_bits(u64::from(l), 4);
    }
    for &l in &dist_lens {
        w.write_bits(u64::from(l), 4);
    }
    for t in &tokens {
        match *t {
            Token::Literal(b) => litlen_enc.encode(&mut w, b as usize),
            Token::Match { length, distance } => {
                let (lc, lx, lv) = length_code(length);
                litlen_enc.encode(&mut w, 257 + lc);
                w.write_bits(lv, lx);
                let (dc, dx, dv) = distance_code(distance);
                dist_enc.encode(&mut w, dc);
                w.write_bits(dv, dx);
            }
        }
    }
    litlen_enc.encode(&mut w, EOB);
    Some(w.into_bytes())
}

/// Decompresses a stream produced by [`compress`], with the default 1 GiB
/// declared-size limit.
pub fn decompress(input: &[u8]) -> Result<Vec<u8>> {
    decompress_with_limit(input, DEFAULT_SIZE_LIMIT)
}

/// Decompresses with an explicit declared-size safety limit.
///
/// # Errors
///
/// * [`Error::BadMagic`] / [`Error::UnexpectedEof`] on malformed input,
/// * [`Error::SizeLimitExceeded`] if the header declares more than `limit`,
/// * [`Error::ChecksumMismatch`] if the payload was corrupted,
/// * [`Error::InvalidSymbol`] / [`Error::InvalidBackReference`] on corrupt
///   coded bodies.
pub(crate) fn decompress_with_limit(input: &[u8], limit: u64) -> Result<Vec<u8>> {
    if input.len() < 4 {
        return Err(Error::UnexpectedEof {
            offset: input.len(),
        });
    }
    if input[..4] != MAGIC {
        return Err(Error::BadMagic {
            found: [input[0], input[1], input[2], input[3]],
        });
    }
    let mut r = BitReader::new(&input[4..]);
    let declared = r.read_u64()?;
    let crc_expected = r.read_u32()?;
    let method = r.read_bits(8)? as u8;
    if declared > limit {
        return Err(Error::SizeLimitExceeded { declared, limit });
    }
    let out = match method {
        METHOD_STORED => {
            let body = &input[4 + 13..];
            if (body.len() as u64) < declared {
                return Err(Error::UnexpectedEof {
                    offset: input.len(),
                });
            }
            body[..declared as usize].to_vec()
        }
        METHOD_DEFLATE => decode_body(&mut r, declared as usize)?,
        other => {
            return Err(Error::SymbolOutOfRange {
                symbol: u16::from(other),
            })
        }
    };
    let crc_actual = crc32::checksum(&out);
    if crc_actual != crc_expected {
        return Err(Error::ChecksumMismatch {
            expected: crc_expected,
            actual: crc_actual,
        });
    }
    Ok(out)
}

fn decode_body(r: &mut BitReader<'_>, expected_len: usize) -> Result<Vec<u8>> {
    let mut litlen_lens = vec![0u8; NUM_LITLEN];
    for l in litlen_lens.iter_mut() {
        *l = r.read_bits(4)? as u8;
    }
    let mut dist_lens = vec![0u8; NUM_DIST];
    for l in dist_lens.iter_mut() {
        *l = r.read_bits(4)? as u8;
    }
    let litlen_dec = Decoder::from_lengths(&litlen_lens);
    let dist_dec = Decoder::from_lengths(&dist_lens);

    let mut out: Vec<u8> = Vec::with_capacity(expected_len);
    loop {
        let sym = litlen_dec.decode(r)? as usize;
        if sym < 256 {
            out.push(sym as u8);
        } else if sym == EOB {
            break;
        } else {
            let code = sym - 257;
            if code >= LEN_BASE.len() {
                return Err(Error::SymbolOutOfRange { symbol: sym as u16 });
            }
            let len = LEN_BASE[code] as usize + r.read_bits(LEN_EXTRA[code])? as usize;
            let dsym = dist_dec.decode(r)? as usize;
            if dsym >= DIST_BASE.len() {
                return Err(Error::SymbolOutOfRange {
                    symbol: dsym as u16,
                });
            }
            let dist = DIST_BASE[dsym] as usize + r.read_bits(DIST_EXTRA[dsym])? as usize;
            if dist == 0 || dist > out.len() {
                return Err(Error::InvalidBackReference {
                    distance: dist,
                    produced: out.len(),
                });
            }
            let start = out.len() - dist;
            for k in 0..len {
                let b = out[start + k];
                out.push(b);
            }
        }
        if out.len() > expected_len {
            return Err(Error::UnexpectedEof { offset: out.len() });
        }
    }
    if out.len() != expected_len {
        return Err(Error::UnexpectedEof { offset: out.len() });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_at(data: &[u8], level: Level) {
        let packed = compress_with(data, level).unwrap();
        assert_eq!(decompress(&packed).unwrap(), data, "level {level:?}");
    }

    fn roundtrip(data: &[u8]) {
        roundtrip_at(data, Level::Fast);
        roundtrip_at(data, Level::Default);
        roundtrip_at(data, Level::Best);
    }

    #[test]
    fn empty_input() {
        roundtrip(b"");
        let packed = compress(b"").unwrap();
        assert_eq!(packed.len(), 17); // header only
    }

    #[test]
    fn tiny_inputs_use_stored_method() {
        for data in [&b"x"[..], b"ab", b"xyz"] {
            let packed = compress(data).unwrap();
            assert_eq!(packed[16], METHOD_STORED);
            assert_eq!(decompress(&packed).unwrap(), data);
        }
    }

    #[test]
    fn repetitive_text_compresses_well() {
        let data = b"parking,section-41,occupied,2017-03-01T08:15:00Z\n".repeat(200);
        let packed = compress(&data).unwrap();
        assert!(
            packed.len() * 10 < data.len(),
            "expected >90% reduction, got {} -> {}",
            data.len(),
            packed.len()
        );
        roundtrip(&data);
    }

    #[test]
    fn sensor_csv_hits_zip_class_ratio() {
        // The paper reports ~78% reduction on daily observation dumps.
        let mut data = Vec::new();
        for i in 0..5000u32 {
            data.extend_from_slice(
                format!(
                    "urban.weather.{:06};2017-03-01T{:02}:{:02}:00Z;temp={:.1};hum={};wind={:.1}\n",
                    i % 900,
                    (i / 60) % 24,
                    i % 60,
                    15.0 + (i % 70) as f64 / 10.0,
                    40 + i % 30,
                    (i % 95) as f64 / 10.0
                )
                .as_bytes(),
            );
        }
        let packed = compress(&data).unwrap();
        let reduction = 1.0 - packed.len() as f64 / data.len() as f64;
        assert!(
            reduction > 0.70,
            "expected zip-class (>70%) reduction, got {:.1}%",
            reduction * 100.0
        );
        roundtrip(&data);
    }

    #[test]
    fn incompressible_data_falls_back_to_stored() {
        // Pseudo-random bytes: coding cannot win, stored keeps us honest.
        let mut state = 88172645463325252u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state & 0xFF) as u8
            })
            .collect();
        let packed = compress(&data).unwrap();
        assert!(packed.len() <= data.len() + 17);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn binary_with_long_runs() {
        let mut data = vec![0u8; 5000];
        data.extend_from_slice(b"midmarker");
        data.extend(vec![0xFFu8; 5000]);
        roundtrip(&data);
    }

    #[test]
    fn all_byte_values_roundtrip() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        roundtrip(&data);
    }

    #[test]
    fn max_length_matches_roundtrip() {
        // Long uniform run exercises the dedicated 258-length code.
        let data = vec![b'z'; 100_000];
        let packed = compress(&data).unwrap();
        assert!(packed.len() < 1000);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn corrupted_magic_rejected() {
        let mut packed = compress(b"hello hello hello hello").unwrap();
        packed[0] = b'X';
        assert!(matches!(decompress(&packed), Err(Error::BadMagic { .. })));
    }

    #[test]
    fn corrupted_body_detected_by_crc_or_decode() {
        let data = b"garbage,container-glass,fill=73%\n".repeat(100);
        let packed = compress(&data).unwrap();
        // Flip a bit somewhere in the coded body.
        for &pos in &[20usize, packed.len() / 2, packed.len() - 2] {
            let mut bad = packed.clone();
            bad[pos] ^= 0x10;
            assert!(decompress(&bad).is_err(), "flip at {pos} went undetected");
        }
    }

    #[test]
    fn truncated_stream_rejected() {
        let packed = compress(&b"energy,meter,22.5kWh\n".repeat(50)).unwrap();
        for cut in [0, 3, 10, packed.len() / 2, packed.len() - 1] {
            assert!(decompress(&packed[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn size_limit_is_enforced() {
        let data = vec![b'a'; 1024];
        let packed = compress(&data).unwrap();
        assert!(matches!(
            decompress_with_limit(&packed, 512),
            Err(Error::SizeLimitExceeded {
                declared: 1024,
                limit: 512
            })
        ));
    }

    #[test]
    fn length_code_table_is_consistent() {
        for len in 3..=258u16 {
            let (code, extra, val) = length_code(len);
            assert!(code < 29);
            let reconstructed = LEN_BASE[code] as u64 + val;
            assert_eq!(reconstructed, u64::from(len), "len {len}");
            assert!(val < (1u64 << extra.max(1)) || extra == 0 && val == 0);
        }
    }

    #[test]
    fn distance_code_table_is_consistent() {
        for dist in (1..=32768u32).step_by(7) {
            let d = dist.min(32768) as u16;
            let (code, extra, val) = distance_code(d);
            assert!(code < 30);
            assert_eq!(DIST_BASE[code] as u64 + val, u64::from(d), "dist {d}");
            if extra == 0 {
                assert_eq!(val, 0);
            }
        }
    }

    #[test]
    fn levels_trade_ratio_monotonically_on_text() {
        let data = b"the city of barcelona generates sensor data all day long ".repeat(300);
        let fast = compress_with(&data, Level::Fast).unwrap().len();
        let best = compress_with(&data, Level::Best).unwrap().len();
        assert!(best <= fast, "best {best} should be <= fast {fast}");
    }
}
