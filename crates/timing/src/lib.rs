//! Timing substrate: the linear delay model, block arrival times, and
//! static timing analysis over placed mapped networks.
//!
//! Section 4 of the paper: the delay through a gate from input `i` is
//! `t_y = t_i + I_i + R_i·C_L` with separate rise/fall parameters, and
//! the load `C_L = Σ C_j + C_w` includes a lumped wiring capacitance
//! `C_w = c_h·X + c_v·Y` computed from the estimated net extents. The
//! *block arrival time* `b_i = t_i + I_i` splits the calculation into a
//! load-independent part (stored per match during mapping) and a
//! load-dependent part `R_i·C_L` (recomputed as fanout loads become
//! known) — Section 4.3's key device.
//!
//! * [`arrival`] — rise/fall arrival tuples, arc propagation, and the
//!   block-arrival split.
//! * [`load`] — output load computation (pin caps + wiring cap).
//! * [`sta`] — full static timing analysis with critical-path
//!   extraction and slacks.

pub mod arrival;
pub mod error;
pub mod load;
pub mod report;
pub mod sta;

pub use arrival::{block_arrival, ld_arrival, propagate, Arrival, Unateness};
pub use error::TimingError;
pub use load::{net_wire_cap, output_load, WireLoad};
pub use report::{critical_path_report, slack_summary};
pub use sta::{try_analyze, StaOptions, StaResult};
