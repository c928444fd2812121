use std::fmt;

/// Result alias used throughout the crate.
pub(crate) type Result<T> = std::result::Result<T, Error>;

/// Errors from archive access.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A query's time range is inverted.
    InvertedRange {
        /// Range start (seconds).
        from_s: u64,
        /// Range end (seconds).
        until_s: u64,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvertedRange { from_s, until_s } => {
                write!(f, "inverted time range [{from_s}, {until_s})")
            }
        }
    }
}

impl std::error::Error for Error {}
