//! Length-limited canonical Huffman coding.
//!
//! Code lengths are computed with the *package-merge* algorithm, which yields
//! an optimal prefix code under a maximum-length constraint (15 bits here,
//! the same limit DEFLATE uses). Codes are then assigned canonically —
//! shorter codes first, ties broken by symbol value — so a decoder can be
//! rebuilt from the length array alone, which is all the stream header
//! stores.

use crate::bitio::{BitReader, BitWriter};
use crate::{Error, Result};

/// Maximum code length supported by [`code_lengths`] and the stream format.
pub(crate) const MAX_CODE_LEN: u8 = 15;

/// Computes optimal length-limited code lengths for `freqs`.
///
/// Symbols with zero frequency get length 0 (absent from the code). If only
/// one symbol occurs it is assigned length 1.
///
/// # Panics
///
/// Panics if `limit` is 0, exceeds `MAX_CODE_LEN`, or cannot accommodate
/// the number of distinct symbols (`count > 2^limit`).
///
/// # Examples
///
/// ```
/// use f2c_compress::huffman::code_lengths;
///
/// // One very frequent symbol gets the shortest code.
/// let lens = code_lengths(&[90, 5, 5], 15);
/// assert!(lens[0] <= lens[1] && lens[0] <= lens[2]);
/// ```
pub fn code_lengths(freqs: &[u64], limit: u8) -> Vec<u8> {
    assert!((1..=MAX_CODE_LEN).contains(&limit), "limit out of range");
    let mut lens = vec![0u8; freqs.len()];
    let active: Vec<usize> = (0..freqs.len()).filter(|&i| freqs[i] > 0).collect();
    let n = active.len();
    if n == 0 {
        return lens;
    }
    if n == 1 {
        lens[active[0]] = 1;
        return lens;
    }
    assert!(
        (n as u64) <= 1u64 << limit,
        "{n} symbols cannot fit in {limit}-bit codes"
    );

    // Package-merge. Each list entry carries the set of original symbols it
    // contains; a symbol's final code length is the number of selected
    // packages it appears in. Alphabets here are small (<= 286 symbols), so
    // the flattened representation is plenty fast.
    let mut items: Vec<(u64, Vec<u32>)> =
        active.iter().map(|&i| (freqs[i], vec![i as u32])).collect();
    items.sort_by_key(|e| e.0);

    let mut level: Vec<(u64, Vec<u32>)> = items.clone();
    for _ in 1..limit {
        // Pair adjacent entries into packages.
        let mut packages: Vec<(u64, Vec<u32>)> = Vec::with_capacity(level.len() / 2);
        let mut it = level.into_iter();
        while let (Some(a), Some(b)) = (it.next(), it.next()) {
            let mut syms = a.1;
            syms.extend_from_slice(&b.1);
            packages.push((a.0 + b.0, syms));
        }
        // Merge packages with the original items, keeping weight order.
        let mut merged = Vec::with_capacity(items.len() + packages.len());
        let (mut i, mut p) = (0, 0);
        while i < items.len() || p < packages.len() {
            let take_item = p >= packages.len() || (i < items.len() && items[i].0 <= packages[p].0);
            if take_item {
                merged.push(items[i].clone());
                i += 1;
            } else {
                merged.push(std::mem::take(&mut packages[p]));
                p += 1;
            }
        }
        level = merged;
    }

    for entry in level.iter().take(2 * n - 2) {
        for &sym in &entry.1 {
            lens[sym as usize] += 1;
        }
    }
    debug_assert!(kraft_sum_times_2pow(&lens, limit) <= 1u64 << limit);
    lens
}

/// Σ 2^(limit − len) over all coded symbols; ≤ 2^limit iff Kraft holds.
fn kraft_sum_times_2pow(lens: &[u8], limit: u8) -> u64 {
    lens.iter()
        .filter(|&&l| l > 0)
        .map(|&l| 1u64 << (limit - l))
        .sum()
}

/// Assigns canonical codes (MSB-first values) to a length array.
///
/// Returns `codes[i]` such that symbol `i` with length `lens[i]` has code
/// `codes[i]` when read most-significant-bit first.
fn canonical_codes(lens: &[u8]) -> Vec<u32> {
    let max_len = lens.iter().copied().max().unwrap_or(0);
    let mut count = vec![0u32; max_len as usize + 1];
    for &l in lens {
        if l > 0 {
            count[l as usize] += 1;
        }
    }
    let mut next = vec![0u32; max_len as usize + 2];
    let mut code = 0u32;
    for len in 1..=max_len as usize {
        code = (code + count[len - 1]) << 1;
        next[len] = code;
    }
    let mut codes = vec![0u32; lens.len()];
    for (i, &l) in lens.iter().enumerate() {
        if l > 0 {
            codes[i] = next[l as usize];
            next[l as usize] += 1;
        }
    }
    codes
}

/// Reverses the low `len` bits of `code` (MSB-first value → LSB-first wire).
fn reverse_bits(code: u32, len: u8) -> u32 {
    let mut out = 0u32;
    for bit in 0..len {
        out |= ((code >> bit) & 1) << (len - 1 - bit);
    }
    out
}

/// Canonical Huffman encoder: writes codes to a [`BitWriter`].
#[derive(Debug, Clone)]
pub(crate) struct Encoder {
    /// Wire-order (bit-reversed) code per symbol.
    wire: Vec<u32>,
    lens: Vec<u8>,
}

impl Encoder {
    /// Builds an encoder from a code-length array (as produced by
    /// [`code_lengths`]).
    pub(crate) fn from_lengths(lens: &[u8]) -> Self {
        let codes = canonical_codes(lens);
        let wire = codes
            .iter()
            .zip(lens)
            .map(|(&c, &l)| reverse_bits(c, l))
            .collect();
        Self {
            wire,
            lens: lens.to_vec(),
        }
    }

    /// Emits the code for `symbol`.
    ///
    /// # Panics
    ///
    /// Panics if `symbol` has no code (length 0) — encoding a symbol that
    /// was absent from the frequency table is a programming error.
    pub(crate) fn encode(&self, w: &mut BitWriter, symbol: usize) {
        let len = self.lens[symbol];
        assert!(len > 0, "symbol {symbol} has no assigned code");
        w.write_bits(u64::from(self.wire[symbol]), u32::from(len));
    }
}

/// Canonical Huffman decoder built from the same length array.
#[derive(Debug, Clone)]
pub(crate) struct Decoder {
    /// `first_code[len]` = canonical code value of the first symbol of that
    /// length (MSB-first).
    first_code: Vec<u32>,
    /// `first_index[len]` = index into `symbols` of that first symbol.
    first_index: Vec<u32>,
    /// Count of symbols per length.
    count: Vec<u32>,
    /// Symbols ordered canonically (by length, then value).
    symbols: Vec<u16>,
    max_len: u8,
}

impl Decoder {
    /// Builds a decoder from a code-length array.
    pub(crate) fn from_lengths(lens: &[u8]) -> Self {
        let max_len = lens.iter().copied().max().unwrap_or(0);
        let mut count = vec![0u32; max_len as usize + 1];
        for &l in lens {
            if l > 0 {
                count[l as usize] += 1;
            }
        }
        let mut first_code = vec![0u32; max_len as usize + 1];
        let mut first_index = vec![0u32; max_len as usize + 1];
        let mut code = 0u32;
        let mut index = 0u32;
        for len in 1..=max_len as usize {
            code = (code + count[len - 1]) << 1;
            first_code[len] = code;
            first_index[len] = index;
            index += count[len];
        }
        let mut symbols: Vec<u16> = Vec::with_capacity(index as usize);
        for len in 1..=max_len {
            for (sym, &l) in lens.iter().enumerate() {
                if l == len {
                    symbols.push(sym as u16);
                }
            }
        }
        Self {
            first_code,
            first_index,
            count,
            symbols,
            max_len,
        }
    }

    /// Decodes one symbol from `r`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidSymbol`] if no code matches within the length limit;
    /// [`Error::UnexpectedEof`] if the stream runs out mid-code.
    pub(crate) fn decode(&self, r: &mut BitReader<'_>) -> Result<u16> {
        let mut code = 0u32;
        for len in 1..=self.max_len as usize {
            code = (code << 1) | u32::from(r.read_bit()?);
            let n = self.count[len];
            if n > 0 {
                let first = self.first_code[len];
                if code >= first && code < first + n {
                    let idx = self.first_index[len] + (code - first);
                    return Ok(self.symbols[idx as usize]);
                }
            }
        }
        Err(Error::InvalidSymbol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kraft_holds(lens: &[u8]) -> bool {
        kraft_sum_times_2pow(lens, MAX_CODE_LEN) <= 1u64 << MAX_CODE_LEN
    }

    #[test]
    fn lengths_for_skewed_distribution() {
        let freqs = [1000, 10, 10, 10, 1];
        let lens = code_lengths(&freqs, 15);
        assert!(kraft_holds(&lens));
        assert!(lens[0] < lens[4], "frequent symbol must get shorter code");
        assert!(lens.iter().all(|&l| l >= 1));
    }

    #[test]
    fn zero_frequency_symbols_get_no_code() {
        let lens = code_lengths(&[5, 0, 3, 0, 2], 15);
        assert_eq!(lens[1], 0);
        assert_eq!(lens[3], 0);
        assert!(lens[0] > 0 && lens[2] > 0 && lens[4] > 0);
    }

    #[test]
    fn single_symbol_gets_length_one() {
        let lens = code_lengths(&[0, 0, 42, 0], 15);
        assert_eq!(lens, vec![0, 0, 1, 0]);
    }

    #[test]
    fn empty_alphabet_is_all_zero() {
        assert_eq!(code_lengths(&[0, 0, 0], 15), vec![0, 0, 0]);
    }

    #[test]
    fn length_limit_is_enforced() {
        // Fibonacci-like frequencies force deep unconstrained Huffman trees.
        let mut freqs = vec![0u64; 32];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        for limit in [5u8, 8, 15] {
            let lens = code_lengths(&freqs, limit);
            assert!(lens.iter().all(|&l| l <= limit), "limit {limit}: {lens:?}");
            assert!(kraft_sum_times_2pow(&lens, limit) <= 1u64 << limit);
        }
    }

    #[test]
    fn limited_code_is_still_complete_enough_to_decode() {
        let freqs: Vec<u64> = (1..=60).map(|i| i * i).collect();
        let lens = code_lengths(&freqs, 8);
        let enc = Encoder::from_lengths(&lens);
        let dec = Decoder::from_lengths(&lens);
        let mut w = BitWriter::new();
        let stream: Vec<usize> = (0..60).chain((0..60).rev()).collect();
        for &s in &stream {
            enc.encode(&mut w, s);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &s in &stream {
            assert_eq!(dec.decode(&mut r).unwrap() as usize, s);
        }
    }

    #[test]
    fn roundtrip_random_symbol_streams() {
        // Deterministic pseudo-random frequencies and messages.
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..20 {
            let nsyms = 2 + (next() % 200) as usize;
            let freqs: Vec<u64> = (0..nsyms).map(|_| next() % 1000).collect();
            if freqs.iter().all(|&f| f == 0) {
                continue;
            }
            let lens = code_lengths(&freqs, 15);
            let enc = Encoder::from_lengths(&lens);
            let dec = Decoder::from_lengths(&lens);
            let coded: Vec<usize> = (0..nsyms).filter(|&i| freqs[i] > 0).collect();
            let msg: Vec<usize> = (0..500)
                .map(|_| coded[(next() % coded.len() as u64) as usize])
                .collect();
            let mut w = BitWriter::new();
            for &s in &msg {
                enc.encode(&mut w, s);
            }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            for &s in &msg {
                assert_eq!(dec.decode(&mut r).unwrap() as usize, s, "trial {trial}");
            }
        }
    }

    #[test]
    fn optimality_two_symbols() {
        let lens = code_lengths(&[7, 3], 15);
        assert_eq!(lens, vec![1, 1]);
    }

    #[test]
    fn expected_length_beats_fixed_code_on_skew() {
        // Entropy coding must beat a flat 8-bit code on a skewed alphabet.
        let mut freqs = vec![1u64; 256];
        freqs[b' ' as usize] = 5000;
        freqs[b'e' as usize] = 3000;
        freqs[b'0' as usize] = 2000;
        let lens = code_lengths(&freqs, 15);
        let total: u64 = freqs.iter().sum();
        let bits: u64 = freqs
            .iter()
            .zip(&lens)
            .map(|(&f, &l)| f * u64::from(l))
            .sum();
        assert!(
            bits < total * 8,
            "expected < 8 bits/symbol, got {bits}/{total}"
        );
    }

    #[test]
    fn decoder_rejects_garbage_when_code_incomplete() {
        // Single-symbol code: only "0" is valid; an endless run of 1s is not.
        let lens = [1u8];
        let dec = Decoder::from_lengths(&lens);
        let bytes = [0xFFu8, 0xFF];
        let mut r = BitReader::new(&bytes);
        assert_eq!(dec.decode(&mut r), Err(Error::InvalidSymbol));
    }
}
