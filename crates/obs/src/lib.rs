//! `rtt-obs` — a zero-dependency, deterministic tracing + metrics layer.
//!
//! The pipeline crates (circgen → place → route → sta → features → nn →
//! core → flow) record *where time goes* and *how much work was done*
//! through a process-global registry:
//!
//! - **Spans** ([`span()`], [`root_span`], [`span!`]) form a tree of
//!   `"/"`-joined paths (`"flow::design_flow/sta::run/sta::propagate"`).
//!   Each path accumulates a call count, total wall time, and optional
//!   per-span counters attached via [`SpanGuard::add`].
//! - **Flat counters** (static [`Counter`]s) are order-independent `u64`
//!   sums for hot paths (matmul flops, arena bytes, cache reuse) where
//!   span bookkeeping would be too costly or the call site runs inside a
//!   parallel region. A bump is one relaxed atomic add: no lock, no map
//!   lookup.
//! - **Series** ([`series_push`]) hold ordered `f64` time series
//!   (per-epoch loss/R²/MAE). They may only be written from serial
//!   orchestration code.
//!
//! # Determinism contract
//!
//! The span *tree* (set of paths, call counts, counter values) and all
//! flat counters are bit-identical across `RTT_THREADS` settings; only
//! recorded durations may differ. Three rules make this hold under the
//! workspace's order-preserving parallel layer (see DESIGN.md):
//!
//! 1. Any closure executed by a parallel fan-out (`rtt_nn`'s `par_map`)
//!    must open a [`root_span`] before opening child spans.
//!    Worker threads inherit an empty span stack while the calling
//!    thread keeps its ambient stack, so a plain nested [`span()`] would
//!    parent differently depending on which thread ran the closure.
//! 2. Hot-path metrics inside parallel regions use flat counters only:
//!    `u64` addition commutes, so the final sums are independent of
//!    execution order and thread count.
//! 3. Series are written from serial code only (they are ordered-append
//!    and would otherwise race).
//!
//! `rtt-lint` cannot check these rules mechanically; they are enforced
//! by the tier-1 test `tests/observability.rs`, which runs the pipeline
//! at 1 and 4 threads and compares [`Snapshot::structure_json`] output.
//!
//! # Exporters
//!
//! [`Snapshot::render_tree`] produces a human-readable tree (the CLI
//! prints it to stderr under `--trace`); [`Snapshot::to_json`] produces
//! a JSON document whose `"structure"` member holds the deterministic
//! part and whose `"timing_ms"` member holds per-path durations, so
//! structural comparison is "parse, take `structure`, compare". The
//! [`json`] module has the matching zero-dependency parser.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Accumulated statistics for one span path.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanStats {
    /// Number of times a span with this exact path was closed.
    pub count: u64,
    /// Total wall time spent inside the span, in nanoseconds. The only
    /// field excluded from the determinism contract.
    pub total_ns: u128,
    /// Per-span counters attached with [`SpanGuard::add`].
    pub counters: BTreeMap<String, u64>,
}

/// A point-in-time copy of the global registry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Span statistics keyed by the `"/"`-joined span path.
    pub spans: BTreeMap<String, SpanStats>,
    /// Flat order-independent counters: every static [`Counter`] with a
    /// nonzero value.
    pub counters: BTreeMap<String, u64>,
    /// Ordered time series (serial writers only).
    pub series: BTreeMap<String, Vec<f64>>,
}

#[derive(Default)]
struct Registry {
    spans: BTreeMap<String, SpanStats>,
    series: BTreeMap<String, Vec<f64>>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

/// A poisoned registry only means another thread panicked mid-update of
/// plain counters; the data stays structurally valid, so keep going.
fn lock() -> MutexGuard<'static, Registry> {
    registry().lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// The current span path of this thread, `"/"`-joined.
    static PATH: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Clears every span and series, and zeroes every registered static
/// [`Counter`].
pub fn reset() {
    *lock() = Registry::default();
    let statics = static_counters().lock().unwrap_or_else(PoisonError::into_inner);
    for c in statics.iter() {
        c.value.store(0, Ordering::Relaxed);
    }
}

fn static_counters() -> &'static Mutex<Vec<&'static Counter>> {
    static STATICS: OnceLock<Mutex<Vec<&'static Counter>>> = OnceLock::new();
    // rtt-lint: allow(P001, reason = "registry vec is created once per process, not per call")
    STATICS.get_or_init(|| Mutex::new(Vec::new()))
}

/// A flat global counter cheap enough for per-kernel-call hot paths: one
/// relaxed atomic add per bump, no lock and no map lookup. Declare as a
/// `static` and bump with [`Counter::add`]:
///
/// ```
/// static FLOPS: rtt_obs::Counter = rtt_obs::Counter::new("nn::matmul_flops");
/// FLOPS.add(128);
/// ```
///
/// Values appear in the flat-counter section of [`snapshot`] (omitted
/// while zero). `u64` sums commute, so counters keep the
/// cross-thread-count determinism contract.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// Creates an unregistered counter; registration happens on first
    /// [`Counter::add`].
    pub const fn new(name: &'static str) -> Self {
        Self { name, value: AtomicU64::new(0), registered: AtomicBool::new(false) }
    }

    /// Adds `delta`. Safe from any thread and any parallel region.
    pub fn add(&'static self, delta: u64) {
        if !self.registered.load(Ordering::Acquire) {
            let mut statics = static_counters().lock().unwrap_or_else(PoisonError::into_inner);
            // Double-checked under the lock so a racing first add cannot
            // register the counter twice.
            if !self.registered.load(Ordering::Relaxed) {
                // rtt-lint: allow(P001, reason = "lazy registration runs once per counter name")
                statics.push(self);
                self.registered.store(true, Ordering::Release);
            }
        }
        self.value.fetch_add(delta, Ordering::Relaxed);
    }
}

/// Opens a span nested under the current thread's innermost open span.
/// The returned guard records the elapsed wall time and increments the
/// path's call count when dropped. Guards must be dropped in LIFO order
/// (which plain scoping guarantees).
///
/// Inside a closure run by a parallel fan-out, open a [`root_span`]
/// first — see the crate-level determinism contract.
pub fn span(name: &str) -> SpanGuard {
    let (prev_len, path_end) = PATH.with(|p| {
        let mut buf = p.borrow_mut();
        let prev = buf.len();
        if !buf.is_empty() {
            buf.push('/');
        }
        buf.push_str(name);
        (prev, buf.len())
    });
    // rtt-lint: allow(D002, reason = "span wall time is the measured quantity; excluded from the determinism contract")
    SpanGuard { prev_len, path_end, start: Instant::now(), _not_send: PhantomData }
}

/// Opens a span as a new tree root, hiding the calling thread's ambient
/// span stack for the guard's lifetime. Required at the entry of any
/// unit of work executed by a parallel fan-out, so the recorded path is
/// the same whether the closure runs inline, on the caller (chunk 0),
/// or on a worker thread.
pub fn root_span(name: &str) -> RootGuard {
    let saved = PATH.with(|p| std::mem::take(&mut *p.borrow_mut()));
    RootGuard { inner: Some(span(name)), saved, _not_send: PhantomData }
}

/// Opens a [`span()`] bound to a hidden local that lives until the end of
/// the enclosing block: `rtt_obs::span!("sta::propagate");`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        let _rtt_obs_span = $crate::span($name);
    };
}

/// RAII guard for one open span; see [`span()`].
pub struct SpanGuard {
    prev_len: usize,
    path_end: usize,
    start: Instant,
    /// Span guards manipulate a thread-local path stack and must stay
    /// on the thread that opened them.
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    /// Adds `delta` to a counter attached to this span's path.
    ///
    /// Counters added here are part of the determinism contract: the
    /// per-path sums must not depend on thread count, which holds
    /// whenever the spans themselves follow the [`root_span`] rule.
    pub fn add(&self, counter: &str, delta: u64) {
        let path = PATH.with(|p| p.borrow()[..self.path_end].to_owned());
        let mut reg = lock();
        let slot =
            reg.spans.entry(path).or_default().counters.entry(counter.to_owned()).or_default();
        *slot += delta;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let elapsed_ns = self.start.elapsed().as_nanos();
        let path = PATH.with(|p| {
            let mut buf = p.borrow_mut();
            let path = buf[..self.path_end].to_owned();
            buf.truncate(self.prev_len);
            path
        });
        let mut reg = lock();
        let stats = reg.spans.entry(path).or_default();
        stats.count += 1;
        stats.total_ns += elapsed_ns;
    }
}

/// RAII guard for a detached root span; see [`root_span`].
pub struct RootGuard {
    /// `Some` until drop, which closes it before restoring `saved`.
    inner: Option<SpanGuard>,
    saved: String,
    _not_send: PhantomData<*const ()>,
}

impl RootGuard {
    /// Adds `delta` to a counter attached to this root span's path.
    pub fn add(&self, counter: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            inner.add(counter, delta);
        }
    }
}

impl Drop for RootGuard {
    fn drop(&mut self) {
        // Close the root span first, then restore the ambient stack.
        self.inner = None;
        PATH.with(|p| *p.borrow_mut() = std::mem::take(&mut self.saved));
    }
}

/// Appends one value to an ordered series (e.g. per-epoch loss). Serial
/// orchestration code only: appends from a parallel region would land in
/// thread order and break the determinism contract.
pub fn series_push(name: &str, value: f64) {
    lock().series.entry(name.to_owned()).or_default().push(value);
}

/// A bounded, thread-safe sample ring for live quantile queries — the
/// serving layer's latency series.
///
/// Unlike [`series_push`], whose series grow without bound (fine for
/// per-epoch loss curves, fatal for per-request latencies under heavy
/// traffic), a `Ring` keeps only the most recent `capacity` samples and
/// overwrites the oldest. `push` is one short mutex hold and no
/// allocation after construction, so it can sit on a request hot path;
/// `quantile` copies the window out and sorts, so it belongs on query
/// paths (`/stats`), not hot ones.
#[derive(Debug)]
pub struct Ring {
    inner: Mutex<RingInner>,
}

#[derive(Debug)]
struct RingInner {
    buf: Vec<f64>,
    /// Next write position (wraps at `buf.capacity()`).
    next: usize,
    /// Total samples ever pushed (≥ `buf.len()`).
    count: u64,
}

impl Ring {
    /// Creates a ring holding at most `capacity` samples (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(RingInner {
                buf: Vec::with_capacity(capacity.max(1)),
                next: 0,
                count: 0,
            }),
        }
    }

    /// Records one sample, evicting the oldest once full.
    pub fn push(&self, value: f64) {
        let mut r = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if r.buf.len() < r.buf.capacity() {
            r.buf.push(value);
        } else {
            let i = r.next;
            r.buf[i] = value;
        }
        r.next = (r.next + 1) % r.buf.capacity().max(1);
        r.count += 1;
    }

    /// Samples currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).buf.len()
    }

    /// `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total samples ever pushed (including evicted ones).
    pub fn count(&self) -> u64 {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).count
    }

    /// The `q`-quantile (`0.0..=1.0`, nearest-rank) of the current
    /// window, or `None` while empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let mut window = {
            let r = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            r.buf.clone()
        };
        if window.is_empty() {
            return None;
        }
        window.sort_by(f64::total_cmp);
        let rank = (q.clamp(0.0, 1.0) * (window.len() - 1) as f64).round() as usize;
        window.get(rank).copied()
    }

    /// Largest sample in the current window, or `None` while empty.
    pub fn max(&self) -> Option<f64> {
        let r = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        r.buf.iter().copied().max_by(f64::total_cmp)
    }
}

/// Copies the current registry contents and every registered static
/// [`Counter`] with a nonzero value.
pub fn snapshot() -> Snapshot {
    let mut snap = {
        let reg = lock();
        Snapshot { spans: reg.spans.clone(), counters: BTreeMap::new(), series: reg.series.clone() }
    };
    let statics = static_counters().lock().unwrap_or_else(PoisonError::into_inner);
    for c in statics.iter() {
        let v = c.value.load(Ordering::Relaxed);
        if v > 0 {
            *snap.counters.entry(c.name.to_owned()).or_default() += v;
        }
    }
    snap
}

impl Snapshot {
    /// Renders a human-readable span tree plus counter and series
    /// sections; the CLI prints this to stderr under `--trace`.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str("spans (count, total ms):\n");
        }
        for (path, stats) in &self.spans {
            let depth = path.matches('/').count();
            let name = path.rsplit('/').next().unwrap_or(path);
            let ms = stats.total_ns as f64 / 1e6;
            out.push_str(&format!(
                "{:indent$}{name:<width$} x{:<7} {ms:>12.3} ms",
                "",
                stats.count,
                indent = depth * 2,
                width = 44usize.saturating_sub(depth * 2),
            ));
            for (k, v) in &stats.counters {
                out.push_str(&format!("  {k}={v}"));
            }
            out.push('\n');
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &self.counters {
                out.push_str(&format!("  {k:<46} {v}\n"));
            }
        }
        if !self.series.is_empty() {
            out.push_str("series:\n");
            for (k, vs) in &self.series {
                out.push_str(&format!("  {k:<46} {} points", vs.len()));
                if let (Some(first), Some(last)) = (vs.first(), vs.last()) {
                    out.push_str(&format!(" (first {first}, last {last})"));
                }
                out.push('\n');
            }
        }
        out
    }

    /// Serializes the deterministic part of the snapshot (spans without
    /// durations, counters, series) as canonical JSON. Two runs
    /// that obey the determinism contract produce byte-identical output
    /// regardless of `RTT_THREADS`.
    pub fn structure_json(&self) -> String {
        let mut out = String::new();
        self.write_structure(&mut out);
        out
    }

    /// Serializes the full snapshot as JSON: `{"version": 1,
    /// "structure": ..., "timing_ms": {path: ms}}`. Only `timing_ms`
    /// may differ between runs.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"version\":1,\"structure\":");
        self.write_structure(&mut out);
        out.push_str(",\"timing_ms\":{");
        for (i, (path, stats)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_string(&mut out, path);
            out.push(':');
            out.push_str(&format!("{:.6}", stats.total_ns as f64 / 1e6));
        }
        out.push_str("}}");
        out
    }

    fn write_structure(&self, out: &mut String) {
        out.push_str("{\"spans\":{");
        for (i, (path, stats)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_string(out, path);
            out.push_str(&format!(":{{\"count\":{},\"counters\":{{", stats.count));
            for (j, (k, v)) in stats.counters.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                json::write_string(out, k);
                out.push_str(&format!(":{v}"));
            }
            out.push_str("}}");
        }
        out.push_str("},\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_string(out, k);
            out.push_str(&format!(":{v}"));
        }
        out.push_str("},\"series\":{");
        for (i, (k, vs)) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_string(out, k);
            out.push_str(":[");
            for (j, v) in vs.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                json::write_f64(out, *v);
            }
            out.push(']');
        }
        out.push_str("}}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global and `cargo test` runs tests in
    /// parallel, so every test that resets or snapshots the registry
    /// serializes on this lock.
    fn test_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn spans_nest_and_accumulate() {
        let _g = test_lock();
        reset();
        {
            let outer = span("outer");
            outer.add("widgets", 3);
            {
                span!("inner");
            }
            {
                span!("inner");
            }
        }
        let snap = snapshot();
        assert_eq!(snap.spans["outer"].count, 1);
        assert_eq!(snap.spans["outer"].counters["widgets"], 3);
        assert_eq!(snap.spans["outer/inner"].count, 2);
    }

    #[test]
    fn root_span_detaches_from_ambient_stack() {
        let _g = test_lock();
        reset();
        {
            span!("ambient");
            {
                let r = root_span("detached");
                r.add("n", 1);
                span!("child");
            }
            span!("after");
        }
        let snap = snapshot();
        let paths: Vec<&str> = snap.spans.keys().map(String::as_str).collect();
        assert_eq!(paths, ["ambient", "ambient/after", "detached", "detached/child"]);
        assert_eq!(snap.spans["detached"].counters["n"], 1);
    }

    #[test]
    fn flat_counters_gauges_series_round_trip() {
        let _g = test_lock();
        reset();
        static A: Counter = Counter::new("a");
        static B: Counter = Counter::new("b");
        A.add(2);
        A.add(3);
        B.add(1);
        series_push("s", 1.0);
        series_push("s", 2.0);
        let snap = snapshot();
        assert_eq!(snap.counters["a"], 5);
        assert_eq!(snap.counters["b"], 1);
        assert_eq!(snap.series["s"].len(), 2);
    }

    #[test]
    fn static_counters_register_merge_and_reset() {
        let _g = test_lock();
        reset();
        static WIDGETS: Counter = Counter::new("static::widgets");
        static UNTOUCHED: Counter = Counter::new("static::untouched");
        WIDGETS.add(2);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| WIDGETS.add(25));
            }
        });
        let snap = snapshot();
        assert_eq!(snap.counters["static::widgets"], 102);
        assert!(!snap.counters.contains_key("static::untouched"), "zero counters are omitted");
        let _ = &UNTOUCHED;
        reset();
        assert!(!snapshot().counters.contains_key("static::widgets"));
    }

    #[test]
    fn counters_sum_identically_across_threads() {
        let _g = test_lock();
        reset();
        static HITS: Counter = Counter::new("hits");
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        HITS.add(1);
                    }
                });
            }
        });
        assert_eq!(snapshot().counters["hits"], 400);
    }

    #[test]
    fn structure_json_parses_and_omits_durations() {
        let _g = test_lock();
        reset();
        {
            let g = span("stage \"q\"");
            g.add("pins", 7);
        }
        series_push("nan_series", f64::NAN);
        let snap = snapshot();
        let structure = json::Value::parse(&snap.structure_json()).expect("valid JSON");
        assert!(snap.structure_json().contains("\\\""), "span name must be escaped");
        assert!(structure.get("spans").is_some());
        let full = json::Value::parse(&snap.to_json()).expect("valid JSON");
        assert_eq!(full.get("structure"), Some(&structure));
        assert!(full.get("timing_ms").is_some());
    }

    #[test]
    fn snapshot_render_tree_lists_all_sections() {
        let _g = test_lock();
        reset();
        {
            span!("top");
        }
        static C: Counter = Counter::new("c");
        C.add(1);
        series_push("s", 3.0);
        let text = snapshot().render_tree();
        for needle in ["spans", "top", "counters:", "series:", "1 points"] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn ring_quantiles_over_a_bounded_window() {
        let ring = Ring::new(4);
        assert!(ring.is_empty());
        assert_eq!(ring.quantile(0.5), None);
        for v in [1.0, 2.0, 3.0, 4.0] {
            ring.push(v);
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.quantile(0.0), Some(1.0));
        assert_eq!(ring.quantile(1.0), Some(4.0));
        assert_eq!(ring.max(), Some(4.0));
        // Overflow evicts the oldest: window becomes [5, 2, 3, 4].
        ring.push(5.0);
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.count(), 5);
        assert_eq!(ring.quantile(0.0), Some(2.0));
        assert_eq!(ring.max(), Some(5.0));
        // p50 of [2,3,4,5] at nearest rank: index round(0.5*3) = 2 -> 4.
        assert_eq!(ring.quantile(0.5), Some(4.0));
    }
}
