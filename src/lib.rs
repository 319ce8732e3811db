//! Restructure-tolerant pre-routing timing prediction via multimodal
//! (GNN + CNN) fusion — a full Rust reproduction of the DAC 2023 paper,
//! including every substrate it depends on.
//!
//! This facade crate re-exports the workspace under stable module names:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`netlist`] | `rtt-netlist` | cell library, netlist, pin-level timing graph |
//! | [`circgen`] | `rtt-circgen` | synthetic design generator, paper-named presets |
//! | [`place`] | `rtt-place` | floorplanning, global placement, density |
//! | [`route`] | `rtt-route` | Steiner routing estimator, RC trees, RUDY |
//! | [`sta`] | `rtt-sta` | Elmore/PERT static timing analysis |
//! | [`opt`] | `rtt-opt` | restructuring timing optimizer + netlist diff |
//! | [`nn`] | `rtt-nn` | reverse-mode autodiff tensor engine |
//! | [`obs`] | `rtt-obs` | deterministic spans, counters, trace exporters |
//! | [`features`] | `rtt-features` | node features, layout maps, endpoint masks |
//! | [`model`] | `rtt-core` | the endpoint-embedding multimodal model |
//! | [`baselines`] | `rtt-baselines` | DAC19 / DAC22-he / DAC22-guo |
//! | [`flow`] | `rtt-flow` | dataset generation, metrics, table experiments |
//! | [`serve`] | `rtt-serve` | fault-tolerant HTTP prediction daemon |
//!
//! # Quickstart
//!
//! ```
//! use restructure_timing::prelude::*;
//!
//! // Generate, place, and analyze a small design.
//! let lib = CellLibrary::asap7_like();
//! let design = preset("xgate", Scale::Tiny).expect("known preset").generate(&lib);
//! let placement = place(&design.netlist, &lib, 0, &PlaceConfig::default());
//! let routing = route(&design.netlist, &lib, &placement, &RouteConfig::default());
//! let graph = TimingGraph::build(&design.netlist, &lib);
//! let sta = run_sta(&design.netlist, &lib, &graph, &routing, 500.0);
//! assert!(!sta.endpoint_arrivals().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rtt_baselines as baselines;
pub use rtt_circgen as circgen;
pub use rtt_core as model;
pub use rtt_features as features;
pub use rtt_flow as flow;
pub use rtt_netlist as netlist;
pub use rtt_nn as nn;
pub use rtt_obs as obs;
pub use rtt_opt as opt;
pub use rtt_place as place;
pub use rtt_route as route;
pub use rtt_serve as serve;
pub use rtt_sta as sta;

/// The most common imports, for examples and quick experiments.
pub mod prelude {
    pub use rtt_circgen::{preset, ripple_carry_adder, GenParams, Scale};
    pub use rtt_core::{ModelConfig, ModelVariant, PreparedDesign, TimingModel, TrainConfig};
    pub use rtt_features::{endpoint_masks, LayoutMaps};
    pub use rtt_flow::{r2_score, Dataset, DesignData, FlowConfig};
    pub use rtt_netlist::{CellLibrary, GateFn, Netlist, TimingGraph};
    pub use rtt_opt::{diff_netlists, optimize};
    pub use rtt_place::{place, PlaceConfig, Placement};
    pub use rtt_route::{route, RouteConfig};
    pub use rtt_sta::{run_sta, StaReport};
}
