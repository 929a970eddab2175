//! Standard-cell gate libraries and pattern graphs for technology
//! mapping.
//!
//! Section 2 of the paper: *"Each library gate is also represented by a
//! graph consisting of only base functions. Each such graph is called a
//! pattern graph. (Each library gate may have many different pattern
//! graphs.)"* This crate provides:
//!
//! * [`Gate`] — one library cell: logic function, layout area, and the
//!   per-pin linear delay model of Section 4 (intrinsic delay `I_i`,
//!   output resistance `R_i`, input capacitance, rise/fall separated).
//! * [`pattern`] — pattern graphs (NAND2/INV leaf-trees) and their
//!   exhaustive generation: every unordered binary decomposition of a
//!   wide gate is emitted, so the matcher sees all `k`-input NAND
//!   bracketings.
//! * [`Library`] — a named collection of gates with a designated
//!   inverter. [`Library::tiny`] (fanin ≤ 3) and [`Library::big`]
//!   (fanin ≤ 6) mirror the two libraries of the paper's Section 5
//!   experiment; parameters are calibrated to the MSU 3µ cells the paper
//!   cites (uniform 0.25 pF input capacitance) and can be scaled to 1µ
//!   via [`Technology::scaled`].
//! * [`MappedNetwork`] — the output of a mapper: placed library cells
//!   wired together, with simulation support for equivalence checking.

pub mod error;
pub mod gate;
pub mod genlib;
pub mod kinds;
pub mod library;
pub mod mapped;
pub mod npn;
pub mod pattern;
pub mod technology;
pub mod verilog;

pub use error::{LibraryError, MappedError};
pub use gate::{DelayParams, Gate, GateId, Pin, Unateness};
pub use kinds::GateKind;
pub use library::Library;
pub use mapped::{CellId, MappedCell, MappedNetwork, NetPins, SignalSource};
pub use npn::{npn_canon, npn_key, NpnIndex, PinAssignment};
pub use pattern::{PatternGraph, PatternNode};
pub use technology::Technology;
