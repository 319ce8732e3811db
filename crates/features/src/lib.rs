//! The paper's model inputs: netlist features, layout maps, endpoint masks.
//!
//! Three feature families feed the model (Sections IV-A and V):
//!
//! * **Node features** for the GNN — net distance on net nodes; driving
//!   strength, gate-type one-hot, and pin capacitance on cell nodes.
//! * **Layout maps** for the CNN — cell density, RUDY, and macro-region
//!   maps over an `M × N` binning of the die (Fig. 5).
//! * **Endpoint-wise critical-region masks** — the longest topological path
//!   of each endpoint, dilated into the union of its net-edge bounding
//!   boxes (Equations 4–6, Fig. 6).
//!
//! Everything here is plain data extraction: no learning, no randomness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod maps;
mod mask;
mod node_features;

pub use maps::LayoutMaps;
pub use mask::{endpoint_mask, endpoint_masks, longest_path, MaskRuns};
pub use node_features::{NodeFeatures, CELL_FEATURE_DIM, DIST_NORM_UM, NET_FEATURE_DIM};
