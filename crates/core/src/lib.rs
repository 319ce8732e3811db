//! The paper's contribution: restructure-tolerant endpoint-embedding
//! timing prediction via multimodal fusion.
//!
//! For every timing endpoint the model builds an embedding from two
//! modalities and regresses the sign-off arrival time:
//!
//! * **Netlist branch** (Section IV): a customized GNN propagates messages
//!   over the pin-level DAG in topological order. Cell nodes aggregate
//!   their fanin with a *max* (worst-arrival semantics) through `f_c1` and
//!   combine with their cell features through `f_c2`; net nodes add the
//!   single driver message to `f_n` of their net features (Equation 3).
//! * **Layout branch** (Section V): a CNN compresses the stacked density /
//!   RUDY / macro maps into a global layout map `M^L` at quarter
//!   resolution; each endpoint's critical-region mask (Equations 4–6)
//!   selects its relevant region via a Hadamard product, and a shared FC
//!   layer produces the layout embedding.
//!
//! The concatenated embedding feeds an MLP regressor trained with MSE on
//! endpoint arrival times (Equation 2). [`ModelVariant`] exposes the
//! paper's ablations (GNN-only, CNN-only) plus two design-choice ablations
//! (mean aggregation, unmasked layout).
//!
//! # Example
//!
//! Train on a tiny design and predict its endpoint arrivals:
//!
//! ```
//! use rtt_core::{ModelConfig, PreparedDesign, TimingModel, TrainConfig};
//! use rtt_netlist::{CellLibrary, TimingGraph};
//! use rtt_circgen::ripple_carry_adder;
//! use rtt_place::{place, PlaceConfig};
//!
//! let lib = CellLibrary::asap7_like();
//! let nl = ripple_carry_adder(4, &lib);
//! let pl = place(&nl, &lib, 0, &PlaceConfig::default());
//! let graph = TimingGraph::build(&nl, &lib);
//! // Toy targets: one per endpoint.
//! let targets = vec![100.0; graph.endpoints().len()];
//! let cfg = ModelConfig::tiny();
//! let prep = PreparedDesign::prepare(&nl, &lib, &pl, &graph, &cfg, targets);
//! let mut model = TimingModel::new(cfg);
//! model.train(&[prep.clone()], &TrainConfig { epochs: 3, ..TrainConfig::default() });
//! let pred = model.predict(&prep);
//! assert_eq!(pred.len(), graph.endpoints().len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cnn;
mod config;
mod gnn;
mod incremental;
mod model;
pub mod model_io;
mod prepare;

pub use cnn::LayoutCnn;
pub use config::{Aggregation, ModelConfig, ModelVariant, TrainConfig};
pub use gnn::{GnnSchedule, LevelFeats, NetlistGnn, READOUT_SCALE};
pub use incremental::{
    IncrementalCtx, EPS_REUSED_COUNTER, EPS_TOTAL_COUNTER, ROWS_RECOMPUTED_COUNTER,
    ROWS_TOTAL_COUNTER,
};
pub use model::{TimingModel, TrainLog};
pub use prepare::{
    PrepareCtx, PreparedDesign, PREP_MASKS_RECOMPUTED_COUNTER, PREP_MASKS_TOTAL_COUNTER,
};
