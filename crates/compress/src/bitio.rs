//! LSB-first bit-level I/O.
//!
//! Both the Huffman coder and the deflate-style stream write codes one bit at
//! a time, least-significant bit first (the same orientation DEFLATE uses).
//! [`BitWriter`] accumulates bits into a byte vector; [`BitReader`] replays
//! them and reports a precise offset on truncation.

use crate::{Error, Result};

/// Accumulates bits (LSB-first) into an owned byte buffer.
///
/// # Examples
///
/// ```
/// use f2c_compress::bitio::BitWriter;
///
/// let mut w = BitWriter::new();
/// w.write_bits(0b101, 3);
/// w.write_bits(0b1, 1);
/// let bytes = w.into_bytes();
/// assert_eq!(bytes, vec![0b0000_1101]);
/// ```
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Bits accumulated but not yet flushed to `buf` (low bits valid).
    acc: u64,
    /// Number of valid bits in `acc` (0..=63).
    nbits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with `capacity` bytes preallocated.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
            acc: 0,
            nbits: 0,
        }
    }

    /// Appends the low `count` bits of `value`, LSB first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 57` (the accumulator would overflow) — callers in
    /// this crate never need more than 16 bits per call.
    pub fn write_bits(&mut self, value: u64, count: u32) {
        assert!(count <= 57, "write_bits supports at most 57 bits per call");
        let mask = if count == 0 { 0 } else { (1u64 << count) - 1 };
        self.acc |= (value & mask) << self.nbits;
        self.nbits += count;
        while self.nbits >= 8 {
            self.buf.push((self.acc & 0xFF) as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }

    /// Appends a whole byte (8 bits).
    pub(crate) fn write_byte(&mut self, byte: u8) {
        self.write_bits(u64::from(byte), 8);
    }

    /// Appends a `u32` as 32 LSB-first bits (i.e. little-endian).
    pub(crate) fn write_u32(&mut self, value: u32) {
        self.write_bits(u64::from(value & 0xFFFF), 16);
        self.write_bits(u64::from(value >> 16), 16);
    }

    /// Appends a `u64` little-endian.
    pub(crate) fn write_u64(&mut self, value: u64) {
        self.write_u32((value & 0xFFFF_FFFF) as u32);
        self.write_u32((value >> 32) as u32);
    }

    /// Pads with zero bits to the next byte boundary.
    pub(crate) fn align_to_byte(&mut self) {
        if self.nbits > 0 {
            let pad = 8 - self.nbits;
            self.write_bits(0, pad);
        }
    }

    /// Flushes any partial byte (zero-padded) and returns the buffer.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.align_to_byte();
        self.buf
    }
}

/// Replays a byte slice bit by bit, LSB-first.
///
/// # Examples
///
/// ```
/// use f2c_compress::bitio::BitReader;
///
/// let mut r = BitReader::new(&[0b0000_1101]);
/// assert_eq!(r.read_bits(3)?, 0b101);
/// assert_eq!(r.read_bits(1)?, 1);
/// # Ok::<(), f2c_compress::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Index of the next byte to load into the accumulator.
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    fn refill(&mut self) {
        while self.nbits <= 56 && self.pos < self.data.len() {
            self.acc |= u64::from(self.data[self.pos]) << self.nbits;
            self.pos += 1;
            self.nbits += 8;
        }
    }

    /// Reads `count` bits (LSB-first). Errors with [`Error::UnexpectedEof`]
    /// if fewer than `count` bits remain.
    pub fn read_bits(&mut self, count: u32) -> Result<u64> {
        assert!(count <= 57, "read_bits supports at most 57 bits per call");
        self.refill();
        if self.nbits < count {
            return Err(Error::UnexpectedEof { offset: self.pos });
        }
        let mask = if count == 0 { 0 } else { (1u64 << count) - 1 };
        let out = self.acc & mask;
        self.acc >>= count;
        self.nbits -= count;
        Ok(out)
    }

    /// Reads a single bit.
    pub(crate) fn read_bit(&mut self) -> Result<u8> {
        Ok(self.read_bits(1)? as u8)
    }

    /// Reads a little-endian `u32`.
    pub(crate) fn read_u32(&mut self) -> Result<u32> {
        let lo = self.read_bits(16)?;
        let hi = self.read_bits(16)?;
        Ok((lo | (hi << 16)) as u32)
    }

    /// Reads a little-endian `u64`.
    pub(crate) fn read_u64(&mut self) -> Result<u64> {
        let lo = u64::from(self.read_u32()?);
        let hi = u64::from(self.read_u32()?);
        Ok(lo | (hi << 32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_single_bits() {
        let mut w = BitWriter::new();
        let pattern = [1u8, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1];
        for &b in &pattern {
            w.write_bits(u64::from(b), 1);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap(), b);
        }
    }

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0x2A, 7);
        w.write_bits(0x1FFF, 13);
        w.write_bits(0x3, 2);
        w.write_u32(0xDEAD_BEEF);
        w.write_u64(0x0123_4567_89AB_CDEF);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(7).unwrap(), 0x2A);
        assert_eq!(r.read_bits(13).unwrap(), 0x1FFF);
        assert_eq!(r.read_bits(2).unwrap(), 0x3);
        assert_eq!(r.read_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.read_u64().unwrap(), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn eof_reports_offset() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        let err = r.read_bits(1).unwrap_err();
        assert_eq!(err, Error::UnexpectedEof { offset: 1 });
    }

    #[test]
    fn align_pads_with_zeros() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.align_to_byte();
        w.write_byte(0xAB);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0x01, 0xAB]);
    }

    #[test]
    fn zero_width_reads_and_writes_are_noops() {
        let mut w = BitWriter::new();
        w.write_bits(0, 0);
        w.write_bits(0b1, 1);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(0).unwrap(), 0);
        assert_eq!(r.read_bit().unwrap(), 1);
    }
}
