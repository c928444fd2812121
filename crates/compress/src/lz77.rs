//! LZ77 tokenization with a hash-chain match finder and optional lazy
//! matching, in the style of zlib's deflate front end.
//!
//! The tokenizer turns a byte slice into a stream of [`Token`]s — literals
//! and `(length, distance)` back-references into a sliding window of the
//! previous `WINDOW_SIZE` bytes. The [`deflate`](crate::deflate) module
//! entropy-codes that stream; [`reconstruct`] inverts it (and is what the
//! decoder uses).

use crate::{Error, Result};

/// Sliding-window size: matches may reach at most this far back.
pub(crate) const WINDOW_SIZE: usize = 32 * 1024;
/// Shortest back-reference worth emitting.
pub(crate) const MIN_MATCH: usize = 3;
/// Longest representable back-reference.
pub(crate) const MAX_MATCH: usize = 258;

const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;

/// One LZ77 token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A single verbatim byte.
    Literal(u8),
    /// Copy `length` bytes starting `distance` bytes back in the output.
    Match {
        /// Number of bytes to copy, `MIN_MATCH..=MAX_MATCH`.
        length: u16,
        /// How far back the copy starts, `1..=WINDOW_SIZE`.
        distance: u16,
    },
}

/// Match-finder effort knobs; see [`crate::Level`] for the public presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchParams {
    /// Maximum number of chain candidates examined per position.
    pub max_chain: usize,
    /// Whether to defer a match by one byte when the next position matches
    /// longer (zlib-style lazy matching).
    pub lazy: bool,
    /// Stop searching early once a match of at least this length is found.
    pub good_enough: usize,
}

impl SearchParams {
    /// Fast: short chains, greedy.
    pub(crate) const FAST: SearchParams = SearchParams {
        max_chain: 16,
        lazy: false,
        good_enough: 32,
    };
    /// Balanced: the default.
    pub const DEFAULT: SearchParams = SearchParams {
        max_chain: 128,
        lazy: true,
        good_enough: 128,
    };
    /// Best ratio: long chains, lazy.
    pub(crate) const BEST: SearchParams = SearchParams {
        max_chain: 1024,
        lazy: true,
        good_enough: MAX_MATCH,
    };
}

#[inline]
fn hash3(data: &[u8], i: usize) -> usize {
    let v = u32::from(data[i]) | (u32::from(data[i + 1]) << 8) | (u32::from(data[i + 2]) << 16);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Hash-chain match finder over the whole input.
struct Chains {
    /// `head[h]` = most recent position with hash `h`, +1 (0 = none).
    head: Vec<u32>,
    /// `prev[i]` = previous position with the same hash as `i`, +1.
    prev: Vec<u32>,
}

impl Chains {
    fn new(len: usize) -> Self {
        Self {
            head: vec![0; HASH_SIZE],
            prev: vec![0; len],
        }
    }

    #[inline]
    fn insert(&mut self, data: &[u8], i: usize) {
        if i + MIN_MATCH <= data.len() {
            let h = hash3(data, i);
            self.prev[i] = self.head[h];
            self.head[h] = (i + 1) as u32;
        }
    }

    /// Longest match for position `i`, or `None`.
    fn longest_match(
        &self,
        data: &[u8],
        i: usize,
        params: &SearchParams,
    ) -> Option<(usize, usize)> {
        if i + MIN_MATCH > data.len() {
            return None;
        }
        let max_len = MAX_MATCH.min(data.len() - i);
        let window_floor = i.saturating_sub(WINDOW_SIZE);
        let mut cand = self.head[hash3(data, i)];
        let mut best_len = MIN_MATCH - 1;
        let mut best_dist = 0;
        let mut chain = params.max_chain;
        while cand != 0 && chain > 0 {
            let j = (cand - 1) as usize;
            if j < window_floor || j >= i {
                break;
            }
            // Quick reject: check the byte just past the current best.
            if i + best_len < data.len() && data[j + best_len] == data[i + best_len] {
                let mut len = 0;
                while len < max_len && data[j + len] == data[i + len] {
                    len += 1;
                }
                if len > best_len {
                    best_len = len;
                    best_dist = i - j;
                    if len >= params.good_enough || len == max_len {
                        break;
                    }
                }
            }
            cand = self.prev[j];
            chain -= 1;
        }
        if best_len >= MIN_MATCH {
            Some((best_len, best_dist))
        } else {
            None
        }
    }
}

/// Tokenizes `input` into literals and back-references.
///
/// # Examples
///
/// ```
/// use f2c_compress::lz77::{tokenize, reconstruct, SearchParams};
///
/// let data = b"abcabcabcabc";
/// let tokens = tokenize(data, &SearchParams::DEFAULT);
/// assert!(tokens.len() < data.len()); // back-references found
/// assert_eq!(reconstruct(&tokens)?, data);
/// # Ok::<(), f2c_compress::Error>(())
/// ```
pub fn tokenize(input: &[u8], params: &SearchParams) -> Vec<Token> {
    let mut tokens = Vec::with_capacity(input.len() / 3 + 4);
    let mut chains = Chains::new(input.len());
    let mut i = 0;
    while i < input.len() {
        let found = chains.longest_match(input, i, params);
        match found {
            Some((len, dist)) => {
                // Lazy matching: if the next position matches strictly
                // longer, emit this byte as a literal instead.
                let deferred = if params.lazy && len < params.good_enough && i + 1 < input.len() {
                    chains.insert(input, i);
                    match chains.longest_match(input, i + 1, params) {
                        Some((len2, _)) if len2 > len => {
                            tokens.push(Token::Literal(input[i]));
                            i += 1;
                            true
                        }
                        _ => false,
                    }
                } else {
                    chains.insert(input, i);
                    false
                };
                if !deferred {
                    tokens.push(Token::Match {
                        length: len as u16,
                        distance: dist as u16,
                    });
                    // Index every position the match covers (the first was
                    // inserted above).
                    for k in i + 1..i + len {
                        chains.insert(input, k);
                    }
                    i += len;
                }
            }
            None => {
                chains.insert(input, i);
                tokens.push(Token::Literal(input[i]));
                i += 1;
            }
        }
    }
    tokens
}

/// Expands a token stream back into bytes.
///
/// # Errors
///
/// Returns [`Error::InvalidBackReference`] when a match reaches before the
/// start of the produced output, which indicates stream corruption.
pub fn reconstruct(tokens: &[Token]) -> Result<Vec<u8>> {
    let mut out: Vec<u8> = Vec::with_capacity(tokens.len() * 2);
    for token in tokens {
        match *token {
            Token::Literal(b) => out.push(b),
            Token::Match { length, distance } => {
                let dist = distance as usize;
                let len = length as usize;
                if dist == 0 || dist > out.len() {
                    return Err(Error::InvalidBackReference {
                        distance: dist,
                        produced: out.len(),
                    });
                }
                let start = out.len() - dist;
                // Overlapping copies are valid (e.g. dist 1 repeats a byte).
                for k in 0..len {
                    let byte = out[start + k];
                    out.push(byte);
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_with(data: &[u8], params: &SearchParams) {
        let tokens = tokenize(data, params);
        assert_eq!(reconstruct(&tokens).unwrap(), data);
    }

    fn roundtrip(data: &[u8]) {
        roundtrip_with(data, &SearchParams::FAST);
        roundtrip_with(data, &SearchParams::DEFAULT);
        roundtrip_with(data, &SearchParams::BEST);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"abc");
    }

    #[test]
    fn repetitive_text_finds_matches() {
        let data = b"the fog the fog the fog the fog".to_vec();
        let tokens = tokenize(&data, &SearchParams::DEFAULT);
        assert!(
            tokens.iter().any(|t| matches!(t, Token::Match { .. })),
            "expected at least one back-reference: {tokens:?}"
        );
        roundtrip(&data);
    }

    #[test]
    fn overlapping_match_run() {
        // "aaaa..." should compress to one literal + one long overlapping match.
        let data = vec![b'a'; 1000];
        let tokens = tokenize(&data, &SearchParams::DEFAULT);
        assert!(tokens.len() <= 1 + 1000 / MIN_MATCH);
        roundtrip(&data);
    }

    #[test]
    fn csv_like_sensor_payload() {
        let mut data = Vec::new();
        for i in 0..2000 {
            data.extend_from_slice(
                format!(
                    "ENERGY.electricity_meter.{:05},2017-03-01T{:02}:00:00Z,{}.{}\n",
                    i % 700,
                    i % 24,
                    20 + i % 5,
                    i % 10
                )
                .as_bytes(),
            );
        }
        let tokens = tokenize(&data, &SearchParams::DEFAULT);
        let matched: usize = tokens
            .iter()
            .map(|t| match t {
                Token::Match { length, .. } => *length as usize,
                _ => 0,
            })
            .sum();
        assert!(
            matched * 10 > data.len() * 8,
            "expected >80% of bytes covered by matches, got {}/{}",
            matched,
            data.len()
        );
        roundtrip(&data);
    }

    #[test]
    fn match_lengths_and_distances_in_bounds() {
        let mut data = Vec::new();
        for i in 0..40_000u32 {
            data.push((i % 251) as u8);
            if i % 97 == 0 {
                data.extend_from_slice(b"repeated-block-repeated-block");
            }
        }
        for t in tokenize(&data, &SearchParams::BEST) {
            if let Token::Match { length, distance } = t {
                assert!((MIN_MATCH..=MAX_MATCH).contains(&(length as usize)));
                assert!((1..=WINDOW_SIZE).contains(&(distance as usize)));
            }
        }
    }

    #[test]
    fn window_limit_respected_across_far_repeats() {
        // Two identical blocks separated by > WINDOW_SIZE of noise: the
        // second block must not reference the first.
        let block = b"unique-marker-block-0123456789".to_vec();
        let mut data = block.clone();
        data.extend((0..WINDOW_SIZE + 100).map(|i| (i * 7 % 256) as u8));
        data.extend_from_slice(&block);
        roundtrip(&data);
    }

    #[test]
    fn reconstruct_rejects_bad_distance() {
        let tokens = [Token::Match {
            length: 3,
            distance: 5,
        }];
        assert!(matches!(
            reconstruct(&tokens),
            Err(Error::InvalidBackReference { .. })
        ));
    }

    #[test]
    fn lazy_matching_never_hurts_correctness() {
        let data: Vec<u8> = (0..5000)
            .map(|i| ((i * i) % 7 + (i % 13) * 3) as u8)
            .collect();
        roundtrip(&data);
    }
}
