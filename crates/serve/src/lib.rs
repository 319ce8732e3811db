//! `rtt-serve`: a fault-tolerant HTTP/1.1 prediction daemon over the
//! tape-free inference path.
//!
//! The library path ([`rtt_core::TimingModel::predict_batch`] on a
//! recycled [`rtt_nn::InferCtx`] arena) answers ~100k endpoints/sec on
//! one core; this crate puts a process boundary around it without giving
//! up that arithmetic or its bit-identity contract. Each design keeps its
//! activations cached between requests
//! ([`rtt_core::TimingModel::predict_cached`]), so a read of an unchanged
//! design runs only the per-endpoint readout tail. Everything is built
//! on `std::net` — no async runtime, no HTTP dependency — in the same
//! spirit as `crates/lint`'s hand-rolled lexer:
//!
//! * [`http`] — an incremental, byte-budgeted HTTP/1.1 request parser
//!   and response encoder. Arbitrary bytes never panic (fuzzed).
//! * [`queue`] — a bounded `Mutex`+`Condvar` request queue. When it is
//!   full the acceptor answers `503` + `Retry-After` inline; memory use
//!   is bounded no matter how fast clients arrive.
//! * [`reload`] — model hot-swap behind an `Arc` generation pointer. A
//!   corrupt or mismatched reload keeps the old model serving and
//!   surfaces the typed error on `/stats`.
//! * [`fault`] — deterministic, seeded fault injection (short reads and
//!   writes, disconnects, stalls, corrupt reloads, queue-full bursts),
//!   env-gated via `RTT_FAULTS`.
//! * [`stats`] / [`server`] — request counters, bounded latency rings,
//!   and the daemon itself: a fixed worker pool, one recycled `InferCtx`
//!   per worker, per-request deadlines, graceful drain on shutdown.
//!
//! The chaos suite (`tests/chaos.rs`) drives every fault mode at once
//! and asserts the daemon never panics, never wedges, answers every
//! surviving connection with a well-formed response, and — before,
//! during, and after the storm — returns predictions bit-identical to
//! the library path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod http;
pub mod queue;
pub mod reload;
pub mod server;
pub mod stats;

pub use fault::{FaultMode, FaultPlan, FaultSpec};
pub use http::{parse_request, HttpError, Limits, ParseStatus, Request, Response};
pub use queue::Queue;
pub use reload::{ModelSwap, ReloadError};
pub use server::{ServeConfig, Server, ShutdownReport};
pub use stats::{Stats, StatsSnapshot};

/// The crate's single clock read. Deadlines and latency measurements are
/// observability/robustness plumbing, not model arithmetic: nothing
/// numeric depends on them, so the determinism contract (same inputs →
/// bit-identical predictions) is preserved.
pub(crate) fn now() -> std::time::Instant {
    // rtt-lint: allow(D002, reason = "serving deadlines and latency metrics need a real clock; predictions never depend on it")
    std::time::Instant::now()
}
