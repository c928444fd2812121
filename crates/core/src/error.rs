use std::fmt;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors from architecture configuration and operation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A flush policy with a zero period.
    ZeroFlushPeriod,
    /// An off-peak window that does not fit in a day.
    BadOffPeakWindow {
        /// Window start, seconds since midnight.
        start_s: u64,
        /// Window end, seconds since midnight.
        end_s: u64,
    },
    /// A placement request no layer can satisfy.
    Unplaceable {
        /// Human-readable reason.
        reason: String,
    },
    /// A simulation configuration problem.
    BadConfig {
        /// Which field.
        field: &'static str,
        /// Why it is invalid.
        reason: &'static str,
    },
    /// An underlying network error surfaced during simulation.
    Network(citysim::Error),
    /// An underlying compression error surfaced during flushing.
    Compression(f2c_compress::Error),
    /// A shipped sketch partial failed its integrity checks.
    Sketch(f2c_aggregate::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::ZeroFlushPeriod => write!(f, "flush period must be positive"),
            Error::BadOffPeakWindow { start_s, end_s } => {
                write!(
                    f,
                    "off-peak window [{start_s}, {end_s}) must lie within a day"
                )
            }
            Error::Unplaceable { reason } => write!(f, "service cannot be placed: {reason}"),
            Error::BadConfig { field, reason } => {
                write!(f, "bad configuration for {field}: {reason}")
            }
            Error::Network(e) => write!(f, "network error: {e}"),
            Error::Compression(e) => write!(f, "compression error: {e}"),
            Error::Sketch(e) => write!(f, "sketch error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Network(e) => Some(e),
            Error::Compression(e) => Some(e),
            Error::Sketch(e) => Some(e),
            _ => None,
        }
    }
}

impl From<citysim::Error> for Error {
    fn from(e: citysim::Error) -> Self {
        Error::Network(e)
    }
}

impl From<f2c_compress::Error> for Error {
    fn from(e: f2c_compress::Error) -> Self {
        Error::Compression(e)
    }
}

impl From<f2c_aggregate::Error> for Error {
    fn from(e: f2c_aggregate::Error) -> Self {
        Error::Sketch(e)
    }
}
