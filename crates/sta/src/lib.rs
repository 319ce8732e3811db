//! Static timing analysis over the pin-level timing graph.
//!
//! Implements the classic PERT-style single traversal (the paper's reference
//! \[5\]): arrival times propagate in topological order, wire delays come
//! from the routed [`rtt_route`] RC trees (sign-off), and cell delays use a
//! linear `intrinsic + R_drive · C_load` model.
//!
//! The report exposes exactly the quantities the paper's experiments need:
//! per-endpoint arrival times (the prediction target), WNS/TNS (Table I),
//! and per net-edge / cell-edge delay lookups (local labels for the
//! baselines and the Table I churn statistics).
//!
//! # Example
//!
//! ```
//! use rtt_netlist::{CellLibrary, TimingGraph};
//! use rtt_circgen::ripple_carry_adder;
//! use rtt_place::{place, PlaceConfig};
//! use rtt_route::{route, RouteConfig};
//! use rtt_sta::run_sta;
//!
//! let lib = CellLibrary::asap7_like();
//! let nl = ripple_carry_adder(4, &lib);
//! let pl = place(&nl, &lib, 0, &PlaceConfig::default());
//! let rt = route(&nl, &lib, &pl, &RouteConfig::default());
//! let graph = TimingGraph::build(&nl, &lib);
//! let report = run_sta(&nl, &lib, &graph, &rt, 500.0);
//! assert!(report.wns <= report.clock_period_ps);
//! assert!(!report.endpoint_arrivals().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod propagate;
mod report;

pub use propagate::{fanout_cone, propagate, run_sta};
pub use report::StaReport;
