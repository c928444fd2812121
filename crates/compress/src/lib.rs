//! From-scratch compression stack for the F2C smart-city reproduction.
//!
//! The paper ("A Novel Architecture for Efficient Fog to Cloud Data
//! Management in Smart Cities", ICDCS 2017, §V.B) compresses one day of
//! aggregated sensor observations with PKWARE Zip at fog layer 1 and reports
//! a ≈78 % size reduction. Zip's deflate is LZ77 + canonical Huffman coding,
//! so this crate implements exactly that class of codec from scratch:
//!
//! * [`bitio`] — LSB-first bit-level reader/writer,
//! * [`crc32`] — CRC-32 (IEEE 802.3) integrity checksums,
//! * [`lz77`] — hash-chain LZ77 tokenizer with lazy matching,
//! * [`huffman`] — length-limited canonical Huffman codes (package-merge),
//! * [`deflate`] — the combined LZ77+Huffman stream codec,
//! * [`tsenc`] — the columnar time-series codec the flush path ships
//!   with: per-column technique probing (raw / delta / delta-of-delta /
//!   RLE / dict / XOR), a cross-batch sensor dictionary, and a tagged
//!   DEFLATE fallback for irregular batches.
//!
//! # Quickstart
//!
//! ```
//! use f2c_compress::{compress, decompress};
//!
//! let input = b"sensor,42,21.5C,2017-03-01T10:00:00Z\n".repeat(100);
//! let packed = compress(&input)?;
//! assert!(packed.len() < input.len());
//! assert_eq!(decompress(&packed)?, input);
//! # Ok::<(), f2c_compress::Error>(())
//! ```
//!
//! The stream format is *not* zlib/zip compatible (the experiment only needs
//! the ratio class, not interoperability); see [`deflate`] for the layout.

#![warn(unreachable_pub)]

pub mod bitio;
pub mod crc32;
pub mod deflate;
mod error;
pub mod huffman;
pub mod lz77;
pub mod tsenc;

pub use deflate::{compress, compress_with, decompress, Level};
pub use error::{Error, Result};
pub use tsenc::{StreamDecoder, StreamEncoder, Technique};
