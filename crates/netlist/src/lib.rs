//! Boolean networks and NAND2/INV subject graphs for technology mapping.
//!
//! This crate provides the logic-network substrate that the Lily
//! layout-driven technology mapper (Pedram & Bhat, DAC 1991) operates on:
//!
//! * [`Network`] — a multi-level combinational Boolean network, the output
//!   of technology-independent optimization (what MIS would hand to its
//!   mapper).
//! * [`SubjectGraph`] — the network decomposed into 2-input NAND and
//!   inverter *base functions*; the paper calls this the *inchoate
//!   network*.
//! * [`decompose`] — technology decomposition from [`Network`] to
//!   [`SubjectGraph`], pairing fanins balanced, as a chain, or in a
//!   seeded shuffle (the layout-oblivious order of Figure 1.1(b)).
//! * [`cones`] — logic cones (per primary output) and maximal-tree
//!   partitions, the two covering scopes used by MIS and DAGON, plus the
//!   exit-line matrix and the cone-ordering heuristic of Section 3.5.
//! * [`lifecycle`] — the egg / nestling / dove / hawk node life cycle of
//!   Section 2, used to build fanin rectangles during mapping.
//! * [`blif`] — a reader/writer for a practical subset of BLIF.
//! * [`sim`] — bit-parallel simulation and random equivalence checking.
//! * [`hash`] — FNV-1a 64, the workspace's stable fingerprint hash.
//!
//! # Example
//!
//! ```
//! use lily_netlist::{Network, NodeFunc};
//! use lily_netlist::decompose::{decompose, DecomposeOrder};
//!
//! # fn main() -> Result<(), lily_netlist::NetlistError> {
//! let mut net = Network::new("adder_bit");
//! let a = net.add_input("a");
//! let b = net.add_input("b");
//! let cin = net.add_input("cin");
//! let ab = net.add_node("ab", NodeFunc::Xor, vec![a, b])?;
//! let sum = net.add_node("sum", NodeFunc::Xor, vec![ab, cin])?;
//! net.add_output("sum", sum);
//! let subject = decompose(&net, DecomposeOrder::Balanced)?;
//! assert!(subject.node_count() > 0);
//! # Ok(())
//! # }
//! ```

pub mod blif;
pub mod cones;
pub mod cuts;
pub mod decompose;
pub mod error;
pub mod func;
pub mod hash;
pub mod lifecycle;
pub mod network;
pub mod sim;
pub mod subject;

pub use cuts::{cut_cone, cut_table, Cut, CutConfig, CutCounts, CutScratch, CutSet, CutStats};
pub use error::NetlistError;
pub use func::{NodeFunc, Sop, TruthTable};
pub use lifecycle::{LifeCycle, LifeCycleStats, NodeState};
pub use network::{Network, Node, NodeId};
pub use subject::{SubjectGraph, SubjectKind, SubjectNodeId};
