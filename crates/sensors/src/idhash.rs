//! Hashing for tables keyed by ids this program generated.
//!
//! A [`crate::SensorId`], a cache key, a column value the encoder itself
//! produced: a few small integers and enum tags each, none chosen by a
//! peer. SipHash's resistance to crafted keys buys such a table nothing
//! and costs a probe several times the multiply-rotate below. The rule
//! for choosing: a table filled from this program's own ids is an
//! [`IdMap`]; a table filled from decoded bytes keeps the standard keyed
//! hasher (or needs no hash at all). Neither may be iterated where output
//! depends on the order.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher: one rotate, xor and multiply per integer
/// written.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.write_u64(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn finish(&self) -> u64 {
        // A product's low bits see only its factors' low bits (bucket
        // starts are multiples of 900); fold the high half down, where
        // the table takes its index from.
        self.0 ^ (self.0 >> 32)
    }
}

/// [`IdHasher`] as a `BuildHasher`.
pub type BuildIdHasher = BuildHasherDefault<IdHasher>;

/// A `HashMap` over [`IdHasher`], for keys this program generated.
pub type IdMap<K, V> = HashMap<K, V, BuildIdHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SensorId, SensorType};
    use std::hash::{BuildHasher, Hash};

    fn hash_of(key: impl Hash) -> u64 {
        BuildIdHasher::default().hash_one(key)
    }

    #[test]
    fn a_types_population_spreads_over_the_low_bits() {
        // A section's wave is one type with consecutive indices; the table
        // indexes by the low bits, so they must not collapse.
        for ty in SensorType::ALL {
            let mut low: Vec<u64> = (0..4_096u32)
                .map(|i| hash_of(SensorId::new(ty, i)) & 0xFFF)
                .collect();
            low.sort_unstable();
            low.dedup();
            assert!(low.len() > 2_300, "{ty}: {} of 4096 buckets", low.len());
        }
    }

    #[test]
    fn bytes_hash_as_the_words_they_spell() {
        let mut by_bytes = IdHasher::default();
        by_bytes.write(&[1, 0, 0, 0, 0, 0, 0, 0, 2]);
        let mut by_words = IdHasher::default();
        by_words.write_u64(1);
        by_words.write_u8(2);
        assert_eq!(by_bytes.finish(), by_words.finish());
    }
}
