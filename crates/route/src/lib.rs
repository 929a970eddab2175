//! Wire-length estimation: the routing substrate of the Lily
//! reproduction.
//!
//! Section 3.4 of the paper describes two wiring models: *"the half
//! perimeter length of the fanin rectangle … multiplied by the ratio of
//! minimum rectilinear Steiner tree length to half perimeter of
//! enclosing rectangle as given by [Chung–Hwang 1979]"*, and *"another
//! wiring model based on finding the rectilinear spanning tree
//! connecting all pins on a given net"*. Both are implemented here,
//! plus an iterated 1-Steiner heuristic that stands in for the
//! TimberWolf + YACR global/detailed routing step the paper uses to
//! measure final interconnection length, and a congestion grid that
//! models routing-induced detours.
//!
//! * [`hpwl`] — half-perimeter bounding box estimates.
//! * [`steiner_factor`] — the Chung–Hwang pin-count correction.
//! * [`rst`] — rectilinear minimum spanning trees (Prim).
//! * [`rsmt`] — iterated 1-Steiner rectilinear Steiner trees.
//! * [`congestion`] — a bin-grid demand model and detour factors.
//! * [`estimate`] — the [`WireModel`] enum tying it all together.

pub mod channel;
pub mod congestion;
pub mod estimate;
pub mod groute;
pub mod hpwl;
pub mod rsmt;
pub mod rst;
pub mod steiner_factor;

pub use channel::{channel_densities, channel_routing_area};
pub use congestion::{BinBox, CongestionGrid};
pub use estimate::{net_length, net_length_with, WireModel};
pub use groute::{GlobalRouteGrid, RouteSummary};
pub use hpwl::{half_perimeter, net_extents};
pub use rsmt::{rsmt_length, rsmt_length_with, RsmtScratch};
pub use rst::{rst_length, PrimScratch};
pub use steiner_factor::chung_hwang_factor;
