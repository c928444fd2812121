//! CRC-32 (IEEE 802.3, the polynomial used by zip/gzip/PNG).
//!
//! The deflate-style stream stores a CRC-32 of its whole payload, so
//! corrupted or truncated data is detected on decode rather than silently
//! propagated into the experiments.
//! Every flush payload and every sketch partial is sealed and checked with
//! it on each hop, so [`Hasher::update`] consumes eight bytes per step
//! (slicing-by-8) instead of one.

/// Reflected CRC-32 polynomial (IEEE 802.3).
const POLY: u32 = 0xEDB8_8320;

/// Lookup tables, built at compile time. `TABLES[0]` is the classic
/// byte-indexed table; `TABLES[k][b]` is the CRC of byte `b` followed by
/// `k` zero bytes, which is what lets eight input bytes fold in one step.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// One byte into the running CRC: the definition the eight-byte step is
/// held to.
fn step(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize]
}

/// Computes the CRC-32 of `data` in one shot.
///
/// # Examples
///
/// ```
/// // Standard check value for the ASCII string "123456789".
/// assert_eq!(f2c_compress::crc32::checksum(b"123456789"), 0xCBF4_3926);
/// ```
pub fn checksum(data: &[u8]) -> u32 {
    let mut h = Hasher::new();
    h.update(data);
    h.finalize()
}

/// Incremental CRC-32 hasher.
///
/// # Examples
///
/// ```
/// use f2c_compress::crc32::{checksum, Hasher};
///
/// let mut h = Hasher::new();
/// h.update(b"1234");
/// h.update(b"56789");
/// assert_eq!(h.finalize(), checksum(b"123456789"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hasher {
    state: u32,
}

impl Hasher {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feeds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let mut crc = self.state;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            crc = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][usize::from(w[4])]
                ^ TABLES[2][usize::from(w[5])]
                ^ TABLES[1][usize::from(w[6])]
                ^ TABLES[0][usize::from(w[7])];
        }
        for &byte in words.remainder() {
            crc = step(crc, byte);
        }
        self.state = crc;
    }

    /// Returns the final checksum value.
    pub fn finalize(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Hasher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(checksum(b""), 0);
        assert_eq!(checksum(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            checksum(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(checksum(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(checksum(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        for split in [0, 1, 37, 5_000, 9_999, 10_000] {
            let mut h = Hasher::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), checksum(&data), "split at {split}");
        }
    }

    /// The bytewise loop `update` was before slicing-by-8.
    fn bytewise(state: u32, data: &[u8]) -> u32 {
        data.iter().fold(state, |crc, &byte| step(crc, byte))
    }

    fn noise(len: usize, mut x: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn slicing_by_eight_equals_the_bytewise_loop() {
        let data = noise(64, 0x9E37_79B9_7F4A_7C15);
        // Every length around the eight-byte step, every split of a
        // two-call update.
        for len in 0..=64 {
            let expected = bytewise(0xFFFF_FFFF, &data[..len]) ^ 0xFFFF_FFFF;
            assert_eq!(checksum(&data[..len]), expected, "len {len}");
            for split in 0..=len {
                let mut h = Hasher::new();
                h.update(&data[..split]);
                h.update(&data[split..len]);
                assert_eq!(h.finalize(), expected, "len {len} split {split}");
            }
        }
        for (i, kib) in [1usize, 3, 17, 64].into_iter().enumerate() {
            let data = noise(kib * 1024 + i, 0xD1B5_4A32_D192_ED03 + i as u64);
            let expected = bytewise(0xFFFF_FFFF, &data) ^ 0xFFFF_FFFF;
            assert_eq!(checksum(&data), expected, "{kib} KiB");
        }
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let mut data = b"fog layer 1 observation payload".to_vec();
        let base = checksum(&data);
        data[7] ^= 0x01;
        assert_ne!(checksum(&data), base);
    }

    #[test]
    fn default_equals_new() {
        assert_eq!(Hasher::default(), Hasher::new());
    }
}
