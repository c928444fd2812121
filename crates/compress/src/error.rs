use std::fmt;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced while encoding or decoding compressed streams.
///
/// The variants are deliberately descriptive: a corrupted stream reports
/// *what* was malformed so failure-injection tests can assert on the cause.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// The stream does not start with the expected magic bytes.
    BadMagic {
        /// The bytes actually found at the start of the stream.
        found: [u8; 4],
    },
    /// The stream ended before the declared payload was fully decoded.
    UnexpectedEof {
        /// Byte offset (in the compressed stream) where input ran out.
        offset: usize,
    },
    /// The CRC-32 of the decompressed payload does not match the header.
    ChecksumMismatch {
        /// Checksum recorded in the stream header.
        expected: u32,
        /// Checksum computed over the decoded payload.
        actual: u32,
    },
    /// A Huffman-coded symbol could not be resolved within the length limit.
    InvalidSymbol,
    /// An LZ77 back-reference points before the start of the output.
    InvalidBackReference {
        /// Distance of the offending match.
        distance: usize,
        /// Output length at the time the match was decoded.
        produced: usize,
    },
    /// A symbol outside the alphabet was encountered while decoding.
    SymbolOutOfRange {
        /// The offending symbol value.
        symbol: u16,
    },
    /// The declared decompressed size exceeds the configured safety limit.
    SizeLimitExceeded {
        /// Size declared by the stream header.
        declared: u64,
        /// Maximum size the decoder was willing to produce.
        limit: u64,
    },
    /// A structurally invalid `tsenc` stream: internal framing that
    /// contradicts itself (lying lengths, out-of-range codes, trailing
    /// bytes). The CRC may well be valid — this is the decoder's own
    /// bounds checking, the last line of defence of the robustness
    /// contract (`Err`, never a panic or an over-allocation).
    Malformed {
        /// What was inconsistent.
        reason: &'static str,
        /// Byte offset (in the encoded stream) of the inconsistency.
        offset: usize,
    },
    /// A `tsenc` batch holds a reading its columns cannot carry: a value
    /// of another variant than its sensor type's shape, or a composite
    /// beyond the columnar limits. Acquisition refuses such a reading
    /// where it enters, so this is a caller's bug; nothing was staged.
    UnshippableRecord {
        /// Position of the reading in the batch.
        record: usize,
        /// What is wrong with it.
        reason: &'static str,
    },
    /// A `tsenc` batch names a section its receiver does not accept from
    /// the sender: a fog-1 batch another section than the sender's own,
    /// or a fog-2 batch a section outside the sender's district. The
    /// stream is well formed, so this is a sender's bug, not damage.
    ForeignSection {
        /// The section the batch named.
        section: u16,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::BadMagic { found } => {
                write!(f, "bad stream magic {found:02x?}")
            }
            Error::UnexpectedEof { offset } => {
                write!(f, "unexpected end of compressed stream at byte {offset}")
            }
            Error::ChecksumMismatch { expected, actual } => write!(
                f,
                "checksum mismatch: header says {expected:#010x}, payload hashes to {actual:#010x}"
            ),
            Error::InvalidSymbol => write!(f, "undecodable Huffman symbol"),
            Error::InvalidBackReference { distance, produced } => write!(
                f,
                "LZ77 back-reference distance {distance} exceeds produced output {produced}"
            ),
            Error::SymbolOutOfRange { symbol } => {
                write!(f, "symbol {symbol} outside the coding alphabet")
            }
            Error::SizeLimitExceeded { declared, limit } => write!(
                f,
                "declared payload size {declared} exceeds decoder limit {limit}"
            ),
            Error::Malformed { reason, offset } => {
                write!(f, "malformed stream at byte {offset}: {reason}")
            }
            Error::UnshippableRecord { record, reason } => {
                write!(f, "batch record {record} cannot ship: {reason}")
            }
            Error::ForeignSection { section } => {
                write!(
                    f,
                    "batch names section {section}, which its sender does not serve"
                )
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_for_all_variants() {
        let variants: Vec<Error> = vec![
            Error::BadMagic { found: *b"ZZZZ" },
            Error::UnexpectedEof { offset: 7 },
            Error::ChecksumMismatch {
                expected: 1,
                actual: 2,
            },
            Error::InvalidSymbol,
            Error::InvalidBackReference {
                distance: 10,
                produced: 3,
            },
            Error::SymbolOutOfRange { symbol: 999 },
            Error::SizeLimitExceeded {
                declared: 10,
                limit: 5,
            },
            Error::Malformed {
                reason: "probe",
                offset: 12,
            },
            Error::UnshippableRecord {
                record: 3,
                reason: "probe",
            },
            Error::ForeignSection { section: 9 },
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            Error::UnexpectedEof { offset: 3 },
            Error::UnexpectedEof { offset: 3 }
        );
        assert_ne!(
            Error::UnexpectedEof { offset: 3 },
            Error::UnexpectedEof { offset: 4 }
        );
    }
}
