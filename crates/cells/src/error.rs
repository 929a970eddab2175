//! Structured errors for library construction and validation.
//!
//! A gate library is the root of every downstream computation: a zero
//! area feeds the placer a degenerate core, a zero pin capacitance makes
//! delay-mode mapping divide by nothing, a NaN delay parameter poisons
//! every arrival time. [`Library::try_from_gates`] rejects these at the
//! door with a [`LibraryError`] instead of letting them surface as
//! panics (or silent nonsense) deep inside the flow.
//!
//! [`Library::try_from_gates`]: crate::Library::try_from_gates

use std::error::Error;
use std::fmt;

/// Why a [`Library`](crate::Library) could not be constructed.
#[derive(Debug, Clone, PartialEq)]
pub enum LibraryError {
    /// Two gates share a name.
    DuplicateGate {
        /// The duplicated gate name.
        name: String,
    },
    /// No 1-input gate computing `!a` was supplied; mapping and fanout
    /// repair need a designated inverter.
    NoInverter,
    /// A gate carries an unusable parameter (zero/negative/non-finite
    /// area, pin capacitance, or delay coefficient).
    InvalidGate {
        /// The offending gate's name.
        gate: String,
        /// What is wrong with it.
        message: String,
    },
    /// A technology parasitic (`cap_h`, `cap_v` or `pin_cap`) is
    /// negative or non-finite. Loads are sums of these, and the placed
    /// mapper's delay bound relies on a load never shrinking as terms
    /// are added.
    InvalidTechnology {
        /// What is wrong with it.
        message: String,
    },
}

impl fmt::Display for LibraryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DuplicateGate { name } => write!(f, "duplicate gate `{name}`"),
            Self::NoInverter => write!(f, "library must contain an inverter"),
            Self::InvalidGate { gate, message } => write!(f, "invalid gate `{gate}`: {message}"),
            Self::InvalidTechnology { message } => write!(f, "invalid technology: {message}"),
        }
    }
}

impl Error for LibraryError {}

/// Why a [`MappedNetwork`](crate::MappedNetwork) failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MappedError {
    /// A cell's fanin count disagrees with its gate's pin count.
    FaninMismatch {
        /// Index of the offending cell.
        cell: usize,
        /// Name of the gate the cell instantiates.
        gate: String,
        /// Fanins the cell actually has.
        have: usize,
        /// Pins the gate wants.
        want: usize,
    },
}

impl fmt::Display for MappedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::FaninMismatch { cell, gate, have, want } => {
                write!(f, "cell {cell} ({gate}) has {have} fanins, gate wants {want}")
            }
        }
    }
}

impl Error for MappedError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert_eq!(
            LibraryError::DuplicateGate { name: "inv".into() }.to_string(),
            "duplicate gate `inv`"
        );
        assert_eq!(LibraryError::NoInverter.to_string(), "library must contain an inverter");
        assert_eq!(
            LibraryError::InvalidGate { gate: "nand2".into(), message: "area is 0".into() }
                .to_string(),
            "invalid gate `nand2`: area is 0"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<LibraryError>();
    }
}
