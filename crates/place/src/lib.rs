//! Placement substrate: quadratic global placement, pad assignment and
//! row legalization.
//!
//! The paper (Section 3.1) uses GORDIAN-style global placement: *"The
//! global placement phase generates a balanced point placement for all
//! gates subject to the given I/O pad assignment which minimizes the
//! Euclidean distance squared metric summed over all connected gates. It
//! uses quadratic optimization and bi-partitioning techniques."* This
//! crate reimplements that stack from scratch:
//!
//! * [`geom`] — points and rectangles (fanin/fanout rectangles, regions).
//! * [`sparse`] — CSR symmetric matrices and a Jacobi-preconditioned
//!   conjugate-gradient solver.
//! * [`quadratic`] — the clique-model quadratic placement formulation
//!   with fixed pads.
//! * [`global`] — recursive bi-partitioning with anchor refinement,
//!   yielding the *balanced point placement* Lily's wire estimates rely
//!   on.
//! * [`multilevel`] — clustered coarsen→solve→interpolate→refine
//!   placement for large instances (100k+ modules), behind the
//!   automatic size threshold in `lily-core`'s flow options.
//! * [`pads`] — connectivity-driven bottom-up I/O pad assignment
//!   (paper's reference \[20\]).
//! * [`legalize`] — row-based detailed placement of the mapped netlist
//!   with median-relocation and swap improvement, and [`anneal`] — a
//!   simulated-annealing refiner (stand-ins for the TimberWolf-era
//!   detailed placers the paper used).
//! * [`area`] — the standard-cell layout image and chip-area model
//!   (paper's reference \[15\]).

pub mod anneal;
pub mod area;
pub mod error;
pub mod geom;
pub mod global;
pub mod legalize;
pub mod multilevel;
pub mod pads;
pub mod problem;
pub mod quadratic;
pub mod sparse;

pub use anneal::{try_anneal, AnnealOptions, AnnealStats};
pub use area::AreaModel;
pub use error::PlaceError;
pub use geom::{Point, Rect};
pub use global::try_global_place;
pub use multilevel::{
    try_multilevel_place, ClusterHierarchy, ClusterLevel, MultilevelOptions, MultilevelPlacement,
    MultilevelSystem,
};
pub use pads::{assign_pads, assign_pads_with_interior};
pub use problem::SubjectPlacement;
pub use quadratic::{try_solve_quadratic, PinRef, PlacementProblem};
