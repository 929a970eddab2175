//! `lily-check` — structural invariant and equivalence analysis for
//! every artifact of the Lily flow.
//!
//! Technology mapping is a chain of representation changes — Boolean
//! network → NAND2/INV subject graph → mapped netlist → placement →
//! timing — and a bug in any stage silently corrupts everything
//! downstream. This crate provides an independent referee: one analysis
//! pass per representation, each returning a [`Report`] of structured
//! [`Diagnostic`]s with stable codes (`SG001`, `MAP003`, `PL002`, …)
//! instead of panicking.
//!
//! The passes are:
//!
//! | pass | artifact | codes |
//! |------|----------|-------|
//! | [`check_network`] | [`lily_netlist::Network`] | `NET001`–`NET003` |
//! | [`check_subject`] | [`lily_netlist::SubjectGraph`] | `SG001`–`SG007` |
//! | [`check_network_subject`] | decomposition equivalence | `EQ001` |
//! | [`check_cuts`] | enumerated K-feasible cut sets | `CUT001`–`CUT005` |
//! | [`check_mapped`] | [`lily_cells::MappedNetwork`] | `MAP001`–`MAP005` |
//! | [`check_mapped_subject`] | cover equivalence | `EQ002` |
//! | [`check_placement`] | placed netlist vs core | `PL001`–`PL004` |
//! | [`check_hierarchy`] | multilevel cluster hierarchy | `PL005`–`PL006` |
//! | [`check_timing`] | [`lily_timing::StaResult`] | `TM001`–`TM004` |
//!
//! The `lily-core` flow runs these between stages when
//! `FlowOptions::verify` is set (the default in debug builds), and
//! [`check_flow`] runs all of them, in pipeline order, over one flow's
//! artifacts (the `lily-check` CLI and the contract tests call it). The
//! full code catalogue is documented in the repository's DESIGN.md.

pub mod cuts;
pub mod diag;
pub mod equiv;
pub mod flow;
pub mod mapped;
pub mod network;
pub mod placement;
pub mod subject;
pub mod timing;

pub use cuts::check_cuts;
pub use diag::{Code, Diagnostic, Locus, Report, Severity};
pub use equiv::{check_mapped_subject, check_network_subject, DEFAULT_SEED, DEFAULT_VECTORS};
pub use flow::{check_flow, FlowCheckError, FlowReport};
pub use mapped::{check_mapped, kahn_order};
pub use network::check_network;
pub use placement::{check_hierarchy, check_placement};
pub use subject::check_subject;
pub use timing::check_timing;
