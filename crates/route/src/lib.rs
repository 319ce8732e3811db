//! Routing estimator: rectilinear spanning trees, congestion, RC trees.
//!
//! The paper's ground-truth labels come from Cadence Innovus routing plus
//! sign-off STA. This crate is the simulated equivalent: it builds a
//! rectilinear (Prim) spanning tree per net, applies a congestion-dependent
//! detour factor derived from a RUDY map, and produces per-net RC trees with
//! Elmore sink delays. Sign-off wire delays therefore differ from the
//! pre-routing Manhattan estimate in a *layout-dependent* way — exactly the
//! gap the paper's model must learn.
//!
//! # Example
//!
//! ```
//! use rtt_netlist::CellLibrary;
//! use rtt_circgen::ripple_carry_adder;
//! use rtt_place::{place, PlaceConfig};
//! use rtt_route::{route, RouteConfig};
//!
//! let lib = CellLibrary::asap7_like();
//! let nl = ripple_carry_adder(4, &lib);
//! let pl = place(&nl, &lib, 0, &PlaceConfig::default());
//! let routing = route(&nl, &lib, &pl, &RouteConfig::default());
//! assert!(routing.total_wirelength() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod rc;
mod router;
mod steiner;

pub use rc::{elmore_delays, RcTree};
pub use router::{route, rudy_map, RouteConfig, RoutedNet, Routing, UNIT_CAP_FF_PER_UM};
pub use steiner::{rectilinear_mst, tree_length};
