//! The Lily technology mapper — the paper's contribution — together with
//! the DAGON/MIS baseline it is measured against.
//!
//! Technology mapping is DAG covering: bind the NAND2/INV *subject
//! graph* to library gates via structural *pattern graph* matching, with
//! dynamic programming over maximal trees (DAGON) or logic cones (MIS).
//! The baseline minimizes active cell area (or a wire-blind arrival
//! time). Lily adds what the paper is about:
//!
//! * a **global placement of the inchoate network** consulted during
//!   cost evaluation;
//! * **dynamic position updating** — every candidate match gets a
//!   `mapPosition` (CM-of-Merged or CM-of-Fans, Section 3.2);
//! * **fanin/fanout rectangles** over *true fanouts* (Section 3.3) for
//!   wire-length estimation (half-perimeter × Chung–Hwang factor or
//!   spanning tree, Section 3.4);
//! * **cone ordering** minimizing exit lines into unmapped cones
//!   (Section 3.5);
//! * a **delay mode** whose load includes placement-derived wiring
//!   capacitance, made incremental by block arrival times (Section 4).
//!
//! [`flow`] assembles the two end-to-end evaluation pipelines of
//! Section 5 (map → place → route-estimate → measure), and
//! [`experiments`] reproduces the motivating figures.

pub mod baseline;
pub mod checkpoint;
pub mod cover;
pub mod cuts;
pub mod error;
pub mod experiments;
pub mod fanout;
pub mod flow;
pub mod json;
pub mod lily;
pub mod matching;
pub mod mem;
pub mod plot;
pub mod position;
pub mod rects;
pub mod stage;

pub use baseline::MisMapper;
pub use cover::{MapMode, MapResult, MapStats, Partition};
pub use cuts::{cut_matches, CutIndex, CutMapper};
pub use error::MapError;
pub use fanout::{buffer_fanout, FanoutOptions};
pub use flow::{compare_flows, run_flow, FlowComparison, FlowOptions, FlowRun, PhysicalOptions};
pub use lily::{LayoutOptions, LilyMapper, MapOptions};
pub use matching::{Match, MatchIndex, MatchSlot};
pub use mem::{estimate_peak_bytes, MemExceeded, MemGauge, MemReservation};
pub use position::PositionUpdate;
pub use stage::{FlowContext, Mapper, Stage, StageMetrics, StageRecord};
