use std::fmt;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors from aggregation configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A zero-length window (a sketch ledger's bucket width) was requested.
    EmptyWindow,
    /// A sketch was configured with a parameter outside its range.
    DegenerateSketch {
        /// Which parameter was zero.
        parameter: &'static str,
    },
    /// A shipped aggregate partial failed its integrity checks.
    CorruptPartial {
        /// Which check refused it (magic, layout, or CRC).
        reason: &'static str,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::EmptyWindow => write!(f, "window length must be positive"),
            Error::DegenerateSketch { parameter } => {
                write!(f, "sketch parameter {parameter} must be positive")
            }
            Error::CorruptPartial { reason } => {
                write!(f, "shipped partial failed integrity check: {reason}")
            }
        }
    }
}

impl std::error::Error for Error {}
