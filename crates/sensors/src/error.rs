use std::fmt;

/// Result alias used throughout the crate.
pub(crate) type Result<T> = std::result::Result<T, Error>;

/// Errors from catalog construction and wire parsing.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A sensor type was added to a catalog twice.
    DuplicateType {
        /// The offending type's display name.
        name: String,
    },
    /// A type spec had a zero field that must be positive.
    InvalidSpec {
        /// The offending type's display name.
        name: String,
        /// Which field was invalid.
        field: &'static str,
    },
    /// A wire-format observation line could not be parsed.
    MalformedObservation {
        /// The offending line (possibly truncated).
        line: String,
        /// What was wrong with it.
        reason: &'static str,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::DuplicateType { name } => {
                write!(f, "sensor type {name:?} already present in catalog")
            }
            Error::InvalidSpec { name, field } => {
                write!(f, "type spec for {name:?} has invalid {field}")
            }
            Error::MalformedObservation { line, reason } => {
                write!(f, "malformed observation line {line:?}: {reason}")
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_specifics() {
        let e = Error::InvalidSpec {
            name: "Temperature".into(),
            field: "sensors",
        };
        let msg = e.to_string();
        assert!(msg.contains("Temperature") && msg.contains("sensors"));
    }
}
