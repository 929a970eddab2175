//! # Lily — Layout Driven Technology Mapping
//!
//! A from-scratch Rust reproduction of *"Layout Driven Technology
//! Mapping"* (Massoud Pedram and Narasimha Bhat, DAC 1991): a technology
//! mapper that folds a dynamically updated global placement of the
//! unmapped (*inchoate*) Boolean network into the dynamic-programming
//! DAG-covering algorithm of DAGON/MIS, so that wiring area and wire
//! delay are optimized during gate selection rather than being left to
//! the physical design tools.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`netlist`] — Boolean networks, NAND2/INV subject graphs,
//!   decomposition, cones and trees, the node life cycle, BLIF I/O.
//! * [`cells`] — gate libraries, pattern graphs, mapped netlists.
//! * [`place`] — quadratic global placement, pad assignment and row
//!   legalization.
//! * [`route`] — wire-length estimation (HPWL, Steiner, spanning trees,
//!   congestion).
//! * [`timing`] — the linear delay model, block arrival times, and
//!   static timing analysis.
//! * [`core`] — the mappers: the wire-blind MIS/DAGON baseline and the
//!   layout-driven Lily mapper, plus the end-to-end evaluation flows.
//! * [`workloads`] — synthetic stand-ins for the paper's MCNC/ISCAS
//!   benchmark circuits.
//! * [`check`] — structural invariant and equivalence analysis passes
//!   over every flow artifact, plus the `lily-check` CLI.
//! * [`par`] — the deterministic scoped-thread parallel runtime
//!   (`LILY_THREADS`); results are byte-identical at any thread count.
//! * [`fault`] — deterministic fault injection and cooperative
//!   cancellation for chaos-testing the flow.
//!
//! # Quickstart
//!
//! ```
//! use lily::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A tiny optimized network, as technology-independent synthesis
//! // would hand it to the mapper.
//! let network = lily::workloads::circuits::misex1();
//! let library = Library::big();
//!
//! // The wire-blind baseline (MIS 2.1 style).
//! let mis = FlowOptions::mis_area().run(&network, &library)?;
//! // The layout-driven mapper (Lily).
//! let lily = FlowOptions::lily_area().run(&network, &library)?;
//!
//! println!("wire length: MIS {:.1} vs Lily {:.1}", mis.wire_length, lily.wire_length);
//! # Ok(())
//! # }
//! ```

pub use lily_cells as cells;
pub use lily_check as check;
pub use lily_core as core;
pub use lily_fault as fault;
pub use lily_netlist as netlist;
pub use lily_par as par;
pub use lily_place as place;
pub use lily_route as route;
pub use lily_serve as serve;
pub use lily_timing as timing;
pub use lily_workloads as workloads;

pub mod replay;

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use lily_cells::{Gate, Library};
    pub use lily_core::flow::{
        compare_flows, run_flow, Degradation, FlowComparison, FlowMetrics, FlowOptions, FlowResult,
        PhysicalOptions,
    };
    pub use lily_core::stage::StageMetrics;
    pub use lily_core::{LilyMapper, MapError, MapMode, MapOptions, MisMapper};
    pub use lily_netlist::decompose::{decompose, DecomposeOrder};
    pub use lily_netlist::{Network, NodeFunc, SubjectGraph};
}
