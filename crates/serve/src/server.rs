//! The daemon: acceptor, bounded queue, fixed worker pool, routes.
//!
//! Thread layout is deliberately boring — one acceptor plus a fixed
//! worker pool, joined on shutdown:
//!
//! * The **acceptor** owns the listener. It never parses bytes; it only
//!   accepts, stamps the deadline, and offers the connection to the
//!   bounded queue. A full queue (or an injected `QueueFull` fault) is
//!   answered inline with `503` + `Retry-After` and a close — the one
//!   fixed-cost path that keeps memory bounded under any arrival rate.
//! * Each **worker** owns one recycled [`InferCtx`] arena for its whole
//!   lifetime, so steady-state `/predict` traffic allocates nothing in
//!   the model. A read of an unchanged design runs only the readout tail
//!   over the design's activation cache, so that arena stays tail-sized;
//!   a cold cache refresh, whose scratch reaches the design's widest
//!   level, runs on a short-lived arena instead. Worker bodies run under
//!   `catch_unwind`: a panic is counted on `/stats` and the worker keeps
//!   serving (`/stats` reading zero `worker_panics` after a chaos run is
//!   the real assertion).
//! * **Shutdown** is: stop flag → self-connect to unblock `accept` →
//!   join acceptor → close queue → workers drain what's queued → join.
//!   Queued requests are answered, not dropped (their deadlines still
//!   apply).
//!
//! Every registered design, whether seeded by [`Server::start`] or added
//! by `/load`, is one kind of record: its netlist and placement, their
//! preparation, and its activation cache. So each accepts `/transform`,
//! which prepares the transformed design cold; the next read refreshes
//! the cache, which finds what the transform changed by itself.
//!
//! Per-request deadlines are enforced at the two places a slow peer or
//! an overloaded queue can park work: queue-dequeue (expired requests
//! get `503` without touching the model) and response-write (a stalled
//! client can't pin a worker for more than one deadline budget, counted
//! from the moment the response is ready).

use std::collections::BTreeMap;
use std::io::{self, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rtt_core::{IncrementalCtx, ModelConfig, PreparedDesign, TimingModel};
use rtt_netlist::{CellId, CellLibrary, NetId, Netlist, PinId, TimingGraph};
use rtt_nn::InferCtx;
use rtt_place::{Placement, Point};

use crate::fault::{FaultMode, FaultPlan};
use crate::http::{parse_request, HttpError, Limits, ParseStatus, Request, Response};
use crate::now;
use crate::queue::Queue;
use crate::reload::{ModelState, ModelSwap};
use crate::stats::{Stats, StatsSnapshot};

/// Daemon configuration. `Default` binds an ephemeral localhost port
/// with two workers — the smoke-test shape; production callers override.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads (each owns one recycled `InferCtx`).
    pub workers: usize,
    /// Bounded request-queue capacity; beyond it, `503` + `Retry-After`.
    pub queue_capacity: usize,
    /// Per-request deadline, enforced at dequeue and request read; the
    /// response write gets its own budget of the same length.
    pub deadline_ms: u64,
    /// Socket read/write timeout (bounds each blocking IO call).
    pub io_timeout_ms: u64,
    /// HTTP parse budgets.
    pub limits: Limits,
    /// File `/reload` re-reads; `None` disables `/reload`.
    pub weights_path: Option<std::path::PathBuf>,
    /// Cap on designs the `/load` registry will hold.
    pub max_designs: usize,
    /// Fault-injection plan (disabled unless tests or `RTT_FAULTS` say
    /// otherwise).
    pub faults: FaultPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_capacity: 64,
            deadline_ms: 2_000,
            io_timeout_ms: 1_000,
            limits: Limits::default(),
            weights_path: None,
            max_designs: 16,
            faults: FaultPlan::disabled(),
        }
    }
}

/// Requests served per connection before it is closed.
const KEEP_ALIVE_REQUESTS: u32 = 32;

/// Latency samples kept for `/stats` quantiles.
const LATENCY_WINDOW: usize = 1024;

/// Final counters handed back by [`Server::shutdown`].
#[derive(Clone, Debug)]
pub struct ShutdownReport {
    /// Stats at the moment the last worker exited.
    pub stats: StatsSnapshot,
}

/// One accepted connection waiting for a worker.
struct Conn {
    stream: TcpStream,
    deadline: Instant,
}

/// One registered design plus its incremental-inference state.
///
/// `sources` (the live netlist + placement) are what `/transform`
/// mutates, and `prep` is their cold preparation, which `/transform`
/// replaces. `model_generation` records which model generation the
/// activation cache was computed under — a `/reload` between predicts
/// invalidates it.
struct DesignEntry {
    sources: (Netlist, Placement),
    prep: PreparedDesign,
    inc: IncrementalCtx,
    design_generation: u64,
    model_generation: u64,
    /// The design generation `inc` was last refreshed at; `None` while
    /// cold. `prep` only ever changes in `/transform`'s publish block,
    /// which bumps `design_generation`, so a matching stamp means the
    /// cache was refreshed on exactly the `prep` being served.
    cached_at: Option<u64>,
}

impl DesignEntry {
    /// Builds the design's timing graph and prepares it cold, keeping the
    /// sources for `/transform`. Fails on a netlist without a valid graph.
    fn load(
        netlist: Netlist,
        placement: Placement,
        library: &CellLibrary,
        config: &ModelConfig,
    ) -> Result<Self, String> {
        let graph =
            TimingGraph::try_build(&netlist, library).map_err(|e| format!("timing graph: {e}"))?;
        // Serving only predicts; targets are a training-time concept, but
        // prepare() wants one per endpoint.
        let targets = vec![0.0f32; graph.endpoints().len()];
        let prep = PreparedDesign::prepare(&netlist, library, &placement, &graph, config, targets);
        Ok(Self {
            sources: (netlist, placement),
            prep,
            inc: IncrementalCtx::new(),
            design_generation: 1,
            model_generation: 0,
            cached_at: None,
        })
    }

    /// Predicts `indices` of `prep`, this entry's current preparation,
    /// through the activation cache: tail-only when the cache is current
    /// (same model generation, stamped at the current design generation),
    /// otherwise after a refresh.
    fn predict(
        &mut self,
        shared: &Shared,
        state: &ModelState,
        ctx: &InferCtx,
        indices: &[u32],
    ) -> Vec<f32> {
        if self.model_generation != state.generation {
            self.inc.reset();
            self.cached_at = None;
            self.model_generation = state.generation;
        }
        if self.cached_at == Some(self.design_generation) {
            shared.stats.record_cache_hit();
            return state.model.predict_cached(ctx, &mut self.inc, &self.prep, indices);
        }
        // The cache is taken out for the refresh: a refresh that unwinds
        // leaves the entry cold and unstamped, never stamped over a
        // half-refreshed cache.
        self.cached_at = None;
        let mut inc = std::mem::take(&mut self.inc);
        // A cold refresh recomputes every row, so its scratch reaches the
        // design's widest level; it goes with a short-lived arena, so no
        // worker arena stays sized to one.
        let cold = (!inc.is_warm()).then(InferCtx::new);
        let ctx = cold.as_ref().unwrap_or(ctx);
        let preds = state.model.predict_incremental(ctx, &mut inc, &self.prep, &[], indices);
        self.inc = inc;
        self.cached_at = Some(self.design_generation);
        shared.stats.record_cache_refresh();
        preds
    }
}

/// State shared by the acceptor, the workers, and the handle.
struct Shared {
    cfg: ServeConfig,
    swap: ModelSwap,
    /// The cell library every design is parsed, transformed and prepared
    /// against, built once at start.
    library: CellLibrary,
    designs: Mutex<BTreeMap<String, Arc<Mutex<DesignEntry>>>>,
    stats: Stats,
    queue: Queue<Conn>,
    stop: AtomicBool,
    shutdown_requested: AtomicBool,
}

/// A running daemon. Dropping it shuts it down gracefully.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Prepares the seed `designs` (name, netlist, placement), then binds,
    /// spawns the acceptor and worker pool, and returns a handle. A seeded
    /// design is registered exactly as `/load` registers one, so it too
    /// accepts `/transform`; `/load` can add more at runtime.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::InvalidInput`] if a seeded netlist has no valid timing
    /// graph; otherwise the bind's error.
    pub fn start(
        cfg: ServeConfig,
        model: TimingModel,
        designs: Vec<(String, Netlist, Placement)>,
    ) -> io::Result<Server> {
        let library = CellLibrary::asap7_like();
        let mut registry = BTreeMap::new();
        for (name, netlist, placement) in designs {
            let entry = DesignEntry::load(netlist, placement, &library, model.config())
                .map_err(|e| io::Error::new(ErrorKind::InvalidInput, format!("{name}: {e}")))?;
            registry.insert(name, Arc::new(Mutex::new(entry)));
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            stats: Stats::new(cfg.workers.max(1), LATENCY_WINDOW),
            queue: Queue::new(cfg.queue_capacity),
            swap: ModelSwap::new(model),
            library,
            designs: Mutex::new(registry),
            stop: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            cfg,
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, &listener))
        };
        let workers = (0..shared.cfg.workers.max(1))
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, w))
            })
            .collect();

        Ok(Server { shared, addr, acceptor: Some(acceptor), workers })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `true` once a client has POSTed `/shutdown`.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Point-in-time counters (same numbers `/stats` serves).
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Current model generation (bumped by each successful `/reload`).
    pub fn generation(&self) -> u64 {
        self.shared.swap.current().generation
    }

    /// Graceful shutdown: stop accepting, drain every queued request,
    /// join all threads. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) -> ShutdownReport {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking accept() with a throwaway
        // connection; it checks the stop flag before queueing anything.
        drop(TcpStream::connect(self.addr));
        if let Some(handle) = self.acceptor.take() {
            drop(handle.join());
        }
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            drop(handle.join());
        }
        ShutdownReport { stats: self.shared.stats.snapshot() }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(shared: &Shared, listener: &TcpListener) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        shared.stats.record_accept();
        let deadline = now() + Duration::from_millis(shared.cfg.deadline_ms);
        let conn = Conn { stream, deadline };
        let rejected = if shared.cfg.faults.decide(FaultMode::QueueFull) {
            Some(conn)
        } else {
            shared.queue.try_push(conn).err()
        };
        if let Some(mut conn) = rejected {
            shared.stats.record_queue_rejection();
            shared.stats.record_response(503);
            let resp = Response::text(503, "queue full\n").with_header("Retry-After", "1");
            // Best-effort: the peer gets the 503 unless it already left.
            drop(conn.stream.set_write_timeout(Some(Duration::from_millis(100))));
            drop(conn.stream.write_all(&resp.encode(false)));
        }
    }
}

/// Bytes asked of the socket per read: a 3 MB `/load` body arrives in
/// about 50 reads, each followed by one incremental parse of the buffer.
const READ_CHUNK: usize = 64 * 1024;

fn worker_loop(shared: &Shared, worker: usize) {
    let ctx = InferCtx::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    while let Some(conn) = shared.queue.pop() {
        // A panic anywhere in the handler (a bug, not a policy) must not
        // take the worker down mid-chaos; it is counted and visible on
        // /stats, and the chaos suite asserts the count stays zero.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            handle_connection(shared, worker, &ctx, &mut chunk, conn);
        }));
        if outcome.is_err() {
            shared.stats.record_worker_panic();
        }
        shared.stats.set_arena_bytes(worker, ctx.arena_bytes());
    }
}

/// Serves one connection: reads requests (incrementally, through the
/// fault layer, into the worker's `chunk`), routes them, and writes
/// responses until the peer closes, an error ends the exchange, or the
/// keep-alive budget runs out.
// rtt-lint: entry
fn handle_connection(shared: &Shared, worker: usize, ctx: &InferCtx, chunk: &mut [u8], conn: Conn) {
    let mut stream = conn.stream;
    let mut deadline = conn.deadline;
    let io_timeout = Duration::from_millis(shared.cfg.io_timeout_ms.max(1));
    if stream.set_read_timeout(Some(io_timeout)).is_err()
        || stream.set_write_timeout(Some(io_timeout)).is_err()
    {
        shared.stats.record_io_error();
        return;
    }

    // Dequeue-side deadline: if this connection waited out its budget in
    // the queue, answer 503 without touching the parser or the model.
    if now() > deadline {
        shared.stats.record_deadline_drop();
        shared.stats.record_response(503);
        drop(write_response(
            shared,
            &mut stream,
            &Response::text(503, "deadline expired in queue\n").with_header("Retry-After", "1"),
            false,
            deadline + Duration::from_millis(100),
        ));
        return;
    }

    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut served: u32 = 0;
    loop {
        let request = match read_one_request(shared, &mut stream, &mut buf, chunk, deadline) {
            ReadOutcome::Request(request) => request,
            ReadOutcome::PeerClosed => return,
            ReadOutcome::IoError => {
                shared.stats.record_io_error();
                return;
            }
            ReadOutcome::Timeout => {
                shared.stats.record_response(408);
                drop(write_response(
                    shared,
                    &mut stream,
                    &Response::text(408, "request timed out\n"),
                    false,
                    deadline,
                ));
                return;
            }
            ReadOutcome::Malformed(err) => {
                shared.stats.record_response(err.status());
                drop(write_response(
                    shared,
                    &mut stream,
                    &Response::text(err.status(), format!("{err}\n")),
                    false,
                    deadline,
                ));
                return;
            }
        };

        shared.stats.record_request();
        let response = route(shared, worker, ctx, &request);
        served += 1;
        let keep_alive = !request.wants_close()
            && served < KEEP_ALIVE_REQUESTS
            && !shared.stop.load(Ordering::SeqCst);
        let status = response.status;
        // The write gets a fresh budget: the handler's effect (a /load, a
        // /transform) is already committed, so a handler that outlived the
        // request deadline must still deliver its reply. Slow peers stay
        // bounded by this budget.
        let write_deadline = now() + Duration::from_millis(shared.cfg.deadline_ms);
        if write_response(shared, &mut stream, &response, keep_alive, write_deadline).is_err() {
            shared.stats.record_io_error();
            return;
        }
        shared.stats.record_response(status);
        if !keep_alive {
            return;
        }
        // Each keep-alive exchange gets a fresh deadline.
        deadline = now() + Duration::from_millis(shared.cfg.deadline_ms);
    }
}

enum ReadOutcome {
    Request(Box<Request>),
    PeerClosed,
    IoError,
    Timeout,
    Malformed(HttpError),
}

/// Accumulates socket bytes (through the fault layer) until `buf` holds
/// one complete request, then splits it off.
fn read_one_request(
    shared: &Shared,
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    chunk: &mut [u8],
    deadline: Instant,
) -> ReadOutcome {
    loop {
        match parse_request(buf, &shared.cfg.limits) {
            Ok(ParseStatus::Complete { request, consumed }) => {
                buf.drain(..consumed);
                return ReadOutcome::Request(request);
            }
            Ok(ParseStatus::Partial) => {}
            Err(err) => return ReadOutcome::Malformed(err),
        }
        if now() > deadline {
            return ReadOutcome::Timeout;
        }
        match shared.cfg.faults.read(stream, chunk) {
            Ok(0) => {
                // Clean EOF between requests is a normal close; EOF with
                // a half-request buffered is the peer giving up.
                return if buf.is_empty() { ReadOutcome::PeerClosed } else { ReadOutcome::IoError };
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // One read-timeout tick: loop to re-check the deadline.
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return ReadOutcome::IoError,
        }
    }
}

/// Writes a full encoded response, resuming across short writes, bounded
/// by the request deadline.
fn write_response(
    shared: &Shared,
    stream: &mut TcpStream,
    response: &Response,
    keep_alive: bool,
    deadline: Instant,
) -> io::Result<()> {
    let bytes = response.encode(keep_alive);
    let mut off = 0;
    while off < bytes.len() {
        if now() > deadline {
            shared.stats.record_deadline_drop();
            return Err(io::Error::new(ErrorKind::TimedOut, "deadline during response write"));
        }
        match shared.cfg.faults.write(stream, &bytes[off..]) {
            Ok(0) => return Err(io::Error::new(ErrorKind::WriteZero, "peer stopped reading")),
            Ok(n) => off += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    stream.flush()
}

/// Dispatches one parsed request to its endpoint handler.
// rtt-lint: entry
fn route(shared: &Shared, worker: usize, ctx: &InferCtx, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/stats") => stats_response(shared),
        ("POST", "/predict") => predict(shared, worker, ctx, req),
        ("POST", "/transform") => transform(shared, req),
        ("POST", "/reload") => reload(shared),
        ("POST", "/load") => load_design(shared, req),
        ("POST", "/shutdown") => {
            shared.shutdown_requested.store(true, Ordering::SeqCst);
            Response::text(200, "shutting down\n")
        }
        (
            _,
            "/healthz" | "/stats" | "/predict" | "/transform" | "/reload" | "/load" | "/shutdown",
        ) => Response::text(405, "method not allowed\n"),
        _ => Response::text(404, "not found\n"),
    }
}

fn stats_response(shared: &Shared) -> Response {
    let mut json = String::with_capacity(512);
    json.push('{');
    shared.stats.snapshot().write_json_members(&mut json);
    json.push_str(",\"generation\":");
    json.push_str(&shared.swap.current().generation.to_string());
    json.push_str(",\"queue_depth\":");
    json.push_str(&shared.queue.len().to_string());
    json.push_str(",\"designs\":");
    let designs = shared.designs.lock().unwrap_or_else(PoisonError::into_inner).len();
    json.push_str(&designs.to_string());
    json.push_str(",\"faults_injected\":{");
    for (i, (mode, count)) in shared.cfg.faults.injected_counts().iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push('"');
        json.push_str(mode.name());
        json.push_str("\":");
        json.push_str(&count.to_string());
    }
    json.push_str("}}");
    Response::json(200, json)
}

/// Resolves a design by name (or the sole registered design when no name
/// is given), or explains why it can't.
fn resolve_design(
    shared: &Shared,
    design_name: Option<&str>,
) -> Result<Arc<Mutex<DesignEntry>>, Response> {
    let entry = {
        let registry = shared.designs.lock().unwrap_or_else(PoisonError::into_inner);
        match design_name {
            Some(name) => registry.get(name).cloned(),
            None if registry.len() == 1 => registry.values().next().cloned(),
            None => {
                return Err(Response::text(
                    400,
                    format!("design= is required ({} designs registered)\n", registry.len()),
                ))
            }
        }
    };
    entry.ok_or_else(|| Response::text(404, "unknown design\n"))
}

/// `POST /predict` — body lines `design=NAME` (optional when exactly one
/// design is registered) and `indices=0,5,9` (optional; defaults to all
/// endpoints). Answers `n=COUNT`, `generation=G` (the model generation),
/// then one arrival per line, printed with Rust's shortest-round-trip
/// float formatting so clients recover the f32 bits exactly. A
/// `mode=full` or `mode=incremental` line, which selected between two
/// paths in earlier releases, is accepted and ignored; any other mode is
/// a `400`.
///
/// Every read goes through the design's [`IncrementalCtx`] under the
/// entry lock, which serializes the cache's users. The entry stamps the
/// cache with the design generation it was last refreshed at. A read of
/// a design unchanged since then runs only the readout tail
/// ([`TimingModel::predict_cached`]); any other read refreshes first
/// ([`TimingModel::predict_incremental`]) — of every row after `/load`
/// or a `/reload` (the cache is keyed to the model generation), of what
/// changed after a `/transform`. Either way the answer
/// is bit-identical to [`TimingModel::predict_batch`]. `/stats` counts
/// both kinds of read (`predict_cache_hits`, `predict_cache_refreshes`).
fn predict(shared: &Shared, worker: usize, ctx: &InferCtx, req: &Request) -> Response {
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return Response::text(400, "body must be utf-8\n");
    };
    let mut design_name: Option<&str> = None;
    let mut indices_spec: Option<&str> = None;
    for line in body.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match line.split_once('=') {
            Some(("design", v)) => design_name = Some(v),
            Some(("indices", v)) => indices_spec = Some(v),
            Some(("mode", "full" | "incremental")) => {}
            Some(("mode", v)) => return Response::text(400, format!("unknown mode: {v}\n")),
            _ => return Response::text(400, format!("unrecognized body line: {line}\n")),
        }
    }

    let entry = match resolve_design(shared, design_name) {
        Ok(entry) => entry,
        Err(resp) => return resp,
    };
    let requested: Option<Vec<u32>> = match indices_spec {
        None => None,
        Some(spec) => {
            let mut out = Vec::new();
            for tok in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
                let Ok(i) = tok.parse::<u32>() else {
                    return Response::text(400, format!("bad index: {tok}\n"));
                };
                out.push(i);
            }
            Some(out)
        }
    };

    let state = shared.swap.current();
    let t0 = now();
    let preds = {
        let mut entry = entry.lock().unwrap_or_else(PoisonError::into_inner);
        // Indices are checked against the preparation this read serves,
        // under the same lock as the cache stamp.
        let n = entry.prep.num_endpoints() as u32;
        let indices = requested.unwrap_or_else(|| (0..n).collect());
        if let Some(&i) = indices.iter().find(|&&i| i >= n) {
            return Response::text(422, format!("index {i} out of range (n={n})\n"));
        }
        entry.predict(shared, &state, ctx, &indices)
    };
    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    shared.stats.record_predict(latency_ms, preds.len());
    shared.stats.set_arena_bytes(worker, ctx.arena_bytes());

    let mut body = String::with_capacity(16 + preds.len() * 12);
    body.push_str("n=");
    body.push_str(&preds.len().to_string());
    body.push_str("\ngeneration=");
    body.push_str(&state.generation.to_string());
    body.push('\n');
    for p in preds {
        // f32 Display is shortest-round-trip: parsing the line back
        // recovers the exact bits, which the chaos suite relies on.
        body.push_str(&p.to_string());
        body.push('\n');
    }
    Response::text(200, body)
}

/// `POST /transform` — applies one netlist transform to a registered
/// design, whether it was seeded at start or added by `/load`.
///
/// Body lines: `design=NAME` (optional when exactly one design is
/// registered), `op=buffer|resize|bypass|prune`, plus the op's operands:
///
/// * `op=buffer` — `net=I sink=I pos=X,Y`: insert a buffer between the
///   net's driver and one sink, placed at `pos`, which must lie on the
///   design's die (`422` otherwise).
/// * `op=resize` — `cell=I drive=N`: swap the cell's master for the
///   same-function variant at drive strength `N`.
/// * `op=bypass` — `cell=I`: short-circuit a repeater (buffer) cell.
/// * `op=prune` — remove dangling combinational logic.
///
/// The transform runs on *clones* of the stored netlist and placement and
/// is published atomically only after everything — the mutation itself,
/// the timing-graph rebuild, and feature preparation — has succeeded.
/// Any failure (including an injected [`FaultMode::TransformAbort`])
/// leaves the design, its generation, and its activation cache and stamp
/// exactly as they were: a client that retries observes no torn state,
/// and a current cache stays current. On success the response is
/// `generation=G`, the bumped design generation, which makes the next
/// `/predict` refresh the cache.
fn transform(shared: &Shared, req: &Request) -> Response {
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return Response::text(400, "body must be utf-8\n");
    };
    let mut design_name: Option<&str> = None;
    let mut op: Option<&str> = None;
    let mut net: Option<u32> = None;
    let mut sink: Option<u32> = None;
    let mut cell: Option<u32> = None;
    let mut drive: Option<u8> = None;
    let mut pos: Option<Point> = None;
    for line in body.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Some((key, v)) = line.split_once('=') else {
            return Response::text(400, format!("unrecognized body line: {line}\n"));
        };
        let bad = |what: &str| Response::text(400, format!("bad {what}: {v}\n"));
        match key {
            "design" => design_name = Some(v),
            "op" => op = Some(v),
            "net" => match v.parse() {
                Ok(i) => net = Some(i),
                Err(_) => return bad("net"),
            },
            "sink" => match v.parse() {
                Ok(i) => sink = Some(i),
                Err(_) => return bad("sink"),
            },
            "cell" => match v.parse() {
                Ok(i) => cell = Some(i),
                Err(_) => return bad("cell"),
            },
            "drive" => match v.parse() {
                Ok(i) => drive = Some(i),
                Err(_) => return bad("drive"),
            },
            "pos" => {
                let coord = |s: &str| s.trim().parse::<f32>().ok().filter(|c| c.is_finite());
                match v.split_once(',').and_then(|(x, y)| Some(Point::new(coord(x)?, coord(y)?))) {
                    Some(p) => pos = Some(p),
                    None => return bad("pos"),
                }
            }
            _ => return Response::text(400, format!("unrecognized body line: {line}\n")),
        }
    }
    let Some(op) = op else {
        return Response::text(400, "op= is required\n");
    };

    let entry = match resolve_design(shared, design_name) {
        Ok(entry) => entry,
        Err(resp) => return resp,
    };
    let mut entry = entry.lock().unwrap_or_else(PoisonError::into_inner);
    let DesignEntry { sources, prep, design_generation, .. } = &mut *entry;

    // Every mutation happens on clones; the stored entry is untouched
    // until the single publish block at the end.
    let library = &shared.library;
    let (mut nl, mut pl) = sources.clone();
    let need = |param: Option<u32>, what: &str| {
        param.ok_or_else(|| Response::text(400, format!("{what}= is required for op={op}\n")))
    };
    let outcome: Result<(), Response> = (|| match op {
        "buffer" => {
            let net = NetId::from_index(need(net, "net")? as usize);
            let sink = PinId::from_index(need(sink, "sink")? as usize);
            let pos = pos.ok_or_else(|| {
                Response::text(400, "pos= is required for op=buffer\n".to_owned())
            })?;
            if !pl.floorplan().die.contains(pos) {
                return Err(Response::text(422, "pos lies outside the die\n"));
            }
            if net.index() >= nl.net_capacity() || sink.index() >= nl.pin_capacity() {
                return Err(Response::text(422, "net/sink id out of range\n"));
            }
            rtt_opt::insert_buffer(&mut nl, &mut pl, library, net, sink, pos)
                .map(drop)
                .map_err(|e| Response::text(422, format!("{e}\n")))
        }
        "resize" => {
            let cell = CellId::from_index(need(cell, "cell")? as usize);
            let drive =
                drive.ok_or_else(|| Response::text(400, "drive= is required for op=resize\n"))?;
            if cell.index() >= nl.cell_capacity() || !nl.cell(cell).is_alive() {
                return Err(Response::text(422, "cell id out of range or dead\n"));
            }
            let gate = library.cell_type(nl.cell(cell).type_id).gate;
            let new_type = library.pick(gate, drive).ok_or_else(|| {
                Response::text(422, format!("no drive-{drive} variant for this gate\n"))
            })?;
            nl.resize_cell(cell, new_type, library)
                .map_err(|e| Response::text(422, format!("{e}\n")))
        }
        "bypass" => {
            let cell = CellId::from_index(need(cell, "cell")? as usize);
            if cell.index() >= nl.cell_capacity() {
                return Err(Response::text(422, "cell id out of range\n"));
            }
            rtt_opt::bypass_repeater(&mut nl, library, cell)
                .map_err(|e| Response::text(422, format!("{e}\n")))
        }
        "prune" => {
            rtt_opt::prune_dangling(&mut nl, library);
            Ok(())
        }
        _ => Err(Response::text(400, format!("unknown op: {op}\n"))),
    })();
    if let Err(resp) = outcome {
        return resp;
    }

    // The injected abort fires at the most adversarial moment: the clones
    // are fully mutated but nothing has been published. The chaos suite
    // asserts the next incremental /predict still matches a cold daemon.
    if shared.cfg.faults.decide(FaultMode::TransformAbort) {
        return Response::text(500, "injected transform abort\n");
    }

    let graph = match TimingGraph::try_build(&nl, library) {
        Ok(g) => g,
        Err(e) => return Response::text(422, format!("timing graph: {e}\n")),
    };
    let config = shared.swap.current().model.config().clone();
    let targets = vec![0.0f32; graph.endpoints().len()];
    let new_prep = PreparedDesign::prepare(&nl, library, &pl, &graph, &config, targets);

    // Publish: everything below is infallible, so partial updates are
    // impossible.
    *sources = (nl, pl);
    *prep = new_prep;
    *design_generation += 1;
    Response::text(200, format!("generation={design_generation}\n"))
}

/// `POST /reload` — re-reads the configured weights file (through the
/// `CorruptReload` fault stream) and swaps it in if and only if it fully
/// validates. Failure keeps the old model and reports on `/stats`.
fn reload(shared: &Shared) -> Response {
    let Some(path) = &shared.cfg.weights_path else {
        return Response::text(400, "no weights path configured\n");
    };
    let bytes = match std::fs::read(path) {
        Ok(bytes) => shared.cfg.faults.corrupt_reload(bytes),
        Err(e) => {
            let why = format!("read {}: {e}", path.display());
            shared.stats.record_reload(Err(why.clone()));
            return Response::text(500, format!("{why}\n"));
        }
    };
    match shared.swap.reload_from_bytes(&bytes) {
        Ok(generation) => {
            shared.stats.record_reload(Ok(()));
            Response::text(200, format!("generation={generation}\n"))
        }
        Err(e) => {
            shared.stats.record_reload(Err(e.to_string()));
            Response::text(422, format!("{e}\n"))
        }
    }
}

/// `POST /load?name=NAME` — registers a design at runtime. The body is
/// the structural verilog followed by the placement file; the
/// `X-Netlist-Bytes` header says where the split is.
///
/// A new name past `max_designs` answers 422. The cap is checked before
/// the parse, to spare the work, and again under the lock that inserts,
/// since concurrent loads of new names can all pass the first check.
fn load_design(shared: &Shared, req: &Request) -> Response {
    let Some(name) = req.query_param("name").filter(|n| !n.is_empty()) else {
        return Response::text(400, "name= query parameter is required\n");
    };
    let full = |registry: &BTreeMap<String, Arc<Mutex<DesignEntry>>>| {
        registry.len() >= shared.cfg.max_designs && !registry.contains_key(name)
    };
    if full(&shared.designs.lock().unwrap_or_else(PoisonError::into_inner)) {
        return Response::text(422, "design registry full\n");
    }
    let Some(split) = req.header("x-netlist-bytes").and_then(|v| v.parse::<usize>().ok()) else {
        return Response::text(400, "X-Netlist-Bytes header is required\n");
    };
    if split > req.body.len() {
        return Response::text(400, "X-Netlist-Bytes exceeds body length\n");
    }
    let (Ok(verilog), Ok(placement)) =
        (std::str::from_utf8(&req.body[..split]), std::str::from_utf8(&req.body[split..]))
    else {
        return Response::text(400, "body must be utf-8\n");
    };

    let library = &shared.library;
    let netlist = match rtt_netlist::parse_verilog(verilog, library) {
        Ok(nl) => nl,
        Err(e) => return Response::text(422, format!("verilog: {e}\n")),
    };
    let placement = match rtt_place::parse_placement(&netlist, placement) {
        Ok(pl) => pl,
        Err(e) => return Response::text(422, format!("placement: {e}\n")),
    };
    let config = shared.swap.current().model.config().clone();
    let entry = match DesignEntry::load(netlist, placement, library, &config) {
        Ok(entry) => entry,
        Err(e) => return Response::text(422, format!("{e}\n")),
    };
    let endpoints = entry.prep.num_endpoints();
    let mut registry = shared.designs.lock().unwrap_or_else(PoisonError::into_inner);
    if full(&registry) {
        return Response::text(422, "design registry full\n");
    }
    registry.insert(name.to_owned(), Arc::new(Mutex::new(entry)));
    Response::text(200, format!("endpoints={endpoints}\n"))
}
