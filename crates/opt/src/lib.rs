//! Layout-aware timing optimization with netlist restructuring.
//!
//! This crate simulates the commercial timing optimizer whose impact the
//! paper models. Each pass runs sign-off STA, traces the critical paths of
//! the worst endpoints, and applies four transforms:
//!
//! * **gate sizing** (structure-preserved) — upsize overloaded drivers;
//! * **buffer insertion** (structure-destructed) — split long critical net
//!   edges with a buffer at the midpoint;
//! * **gate decomposition** (structure-destructed) — rebuild 3/4-input
//!   AND/OR gates as chains of 2-input gates ordered by input arrival so the
//!   latest signal traverses the least logic;
//! * **buffer/inverter-pair bypass** (structure-destructed) — short-circuit
//!   redundant repeaters on critical paths.
//!
//! Every structure-destructing transform requires *layout legality*: bin
//! density below a limit and a position outside macro blocks. This is the
//! paper's central coupling — the optimizer's efficacy depends on local
//! whitespace, which is exactly the signal the CNN + endpoint-mask branch
//! of the model is designed to capture. Timing endpoints (ports, flip-flop
//! data pins) are never replaced, matching the paper's key observation.
//!
//! [`diff_netlists`] computes the paper's Table I replacement statistics by
//! structurally diffing the optimized netlist against its input (stable ids
//! make this exact).
//!
//! # Example
//!
//! ```
//! use rtt_netlist::CellLibrary;
//! use rtt_circgen::ripple_carry_adder;
//! use rtt_place::{place, PlaceConfig};
//! use rtt_opt::optimize;
//!
//! let lib = CellLibrary::asap7_like();
//! let mut nl = ripple_carry_adder(8, &lib);
//! let mut pl = place(&nl, &lib, 0, &PlaceConfig::default());
//! let report = optimize(&mut nl, &mut pl, &lib, 80.0);
//! assert!(report.wns_after >= report.wns_before);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod diff;
mod legal;
mod optimizer;
mod transforms;

pub use config::OptReport;
pub use diff::{diff_netlists, dirty_seed_pins, NetlistDiff};
pub use legal::{DensityTracker, LegalityViolation};
pub use optimizer::optimize;
pub use transforms::{
    bypass_inverter_pair, bypass_repeater, decompose_gate, insert_buffer, prune_dangling,
    split_high_fanout, TransformError,
};
