//! The two serving workloads: `query_huge` and `restructure_small`.
//!
//! End-to-end numbers go only through the daemon's HTTP API: an in-process
//! `rtt_serve::Server` with one worker per core, driven by one keep-alive
//! client per core in a closed loop. The traced run then replays the same
//! op stream through the crates' public functions, one span per call.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtt_circgen::Scale;
use rtt_core::{IncrementalCtx, ModelConfig, NetlistGnn, PrepareCtx, PreparedDesign};
use rtt_core::{TimingModel, READOUT_SCALE};
use rtt_features::{endpoint_masks, LayoutMaps, NodeFeatures};
use rtt_netlist::{CellId, CellLibrary, NetId, Netlist, PinId, TimingGraph, DRIVE_STRENGTHS};
use rtt_nn::{ops, InferCtx, Tensor};
use rtt_obs::json::Value;
use rtt_place::{place, PlaceConfig, Placement, Point};
use rtt_serve::{ServeConfig, Server};

use crate::client::{Client, Counts};
use crate::trace::{Breakdown, Trace};
use crate::weights::Weights;
use crate::{median, mix, quantile, Args, Report};

/// `/load` of jpeg-huge takes seconds (cold prepare), well past the
/// default 2 s request deadline, which drops the reply after the design is
/// registered. The deadline is a deployment setting; this one covers it.
const DEADLINE_MS: u64 = 60_000;
/// Per-request endpoint count range of `query_huge`.
const MAX_QUERY_ENDPOINTS: usize = 16;
/// Sampled `/predict` responses per client that are re-checked in-process.
const CHECKED_PER_CLIENT: usize = 12;
/// Daemon set-ups per run whose median is `setup_s`: a huge `/load` takes
/// seconds, two small ones a tenth of a second.
const QUERY_SETUPS: usize = 3;
const RESTRUCTURE_SETUPS: usize = 25;

/// A generated design as the files a user would `/load`.
struct DesignText {
    verilog: String,
    placement: String,
}

impl DesignText {
    /// The preset's circuit, placed from the seed. The circuit itself stays
    /// fixed: redrawing it moved step cost by over 10 % between seeds.
    fn generate(preset: &str, scale: Scale, seed: u64, lib: &CellLibrary) -> Self {
        let d = rtt_circgen::preset(preset, scale).expect("known preset").generate(lib);
        let cfg = PlaceConfig { seed: mix(seed, 2), ..PlaceConfig::default() };
        let pl = place(&d.netlist, lib, d.num_macros, &cfg);
        Self {
            verilog: rtt_netlist::write_verilog(&d.netlist, lib),
            placement: rtt_place::write_placement(&d.netlist, &pl),
        }
    }

    /// Parses the files exactly as the daemon's `/load` does, so ids match.
    fn parse(&self, lib: &CellLibrary) -> (Netlist, Placement) {
        let nl = rtt_netlist::parse_verilog(&self.verilog, lib).expect("generated verilog parses");
        let pl = rtt_place::parse_placement(&nl, &self.placement).expect("placement parses");
        (nl, pl)
    }
}

/// The daemon's model: untrained weights cost the same arithmetic.
fn model() -> TimingModel {
    TimingModel::new(ModelConfig::small())
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A daemon with every design loaded.
struct Daemon {
    server: Server,
    counts: Counts,
    answers: Vec<String>,
    setup_s: f64,
}

/// Starts a daemon and `/load`s every design. Set-up time runs from daemon
/// start until the last `/load` is answered with 200.
fn start_loaded(designs: &[(String, &DesignText)]) -> Result<Daemon, String> {
    let t0 = Instant::now();
    let cfg = ServeConfig { workers: workers(), deadline_ms: DEADLINE_MS, ..Default::default() };
    let server = Server::start(cfg, model(), Vec::new()).map_err(|e| format!("bind: {e}"))?;
    let mut client = Client::new(server.addr());
    let mut answers = Vec::new();
    for (name, text) in designs {
        let mut body = text.verilog.clone().into_bytes();
        body.extend_from_slice(text.placement.as_bytes());
        let split = ("X-Netlist-Bytes", text.verilog.len().to_string());
        let reply = client
            .request("POST", &format!("/load?name={name}"), &[split], &body)
            .map_err(|e| format!("/load {name} dropped: {e}"))?;
        if reply.status != 200 {
            return Err(format!("/load {name} answered {}: {}", reply.status, reply.text()));
        }
        answers.push(reply.text().to_owned());
    }
    Ok(Daemon { server, counts: client.counts, answers, setup_s: t0.elapsed().as_secs_f64() })
}

/// Median set-up time over the measured daemon and `reps - 1` more, each
/// shut down after its loads. They run after the measured daemon is gone,
/// so its peak memory is its own.
fn median_setup(designs: &[(String, &DesignText)], first: f64, reps: usize) -> Result<f64, String> {
    let mut times = vec![first];
    for _ in 1..reps {
        times.push(start_loaded(designs)?.setup_s);
    }
    Ok(median(&times))
}

fn endpoints_of(answer: &str) -> Result<u32, String> {
    answer
        .trim()
        .strip_prefix("endpoints=")
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("unexpected /load answer: {answer}"))
}

/// Parses a `/predict` body back into exact f32 bits.
fn parse_predictions(body: &str) -> Result<Vec<f32>, String> {
    let mut lines = body.lines();
    let n: usize = lines
        .next()
        .and_then(|l| l.strip_prefix("n="))
        .and_then(|n| n.parse().ok())
        .ok_or("predict reply has no n= line")?;
    let vals: Vec<f32> = lines
        .filter(|l| !l.starts_with("generation="))
        .map(|l| l.parse::<f32>().map_err(|e| format!("bad float {l}: {e}")))
        .collect::<Result<_, _>>()?;
    if vals.len() != n {
        return Err(format!("predict reply has {} values for n={n}", vals.len()));
    }
    Ok(vals)
}

fn bits_equal(what: &str, got: &[f32], want: &[f32]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{what}: {} values, expected {}", got.len(), want.len()));
    }
    match got.iter().zip(want).position(|(a, b)| a.to_bits() != b.to_bits()) {
        Some(i) => Err(format!("{what}: value {i} is {} but the reference is {}", got[i], want[i])),
        None => Ok(()),
    }
}

fn stat_f64(stats: &Value, key: &str) -> f64 {
    match stats.get(key) {
        Some(Value::Num(n)) => n.parse().unwrap_or(0.0),
        _ => 0.0,
    }
}

/// Reads `/stats` (the per-layer figures come from it), then drains the
/// daemon and checks its final counters against what the clients saw:
/// every request, every status class, every dropped exchange, and no
/// panics. The daemon counts a response after writing it, so a client can
/// hold a reply whose counter has not moved yet; the counters are compared
/// once the workers have joined.
fn stats_and_drain(mut server: Server, mut seen: Counts) -> Result<Value, String> {
    let mut client = Client::new(server.addr());
    let reply = client.request("GET", "/stats", &[], b"").map_err(|e| format!("/stats: {e}"))?;
    seen.merge(&client.counts);
    let stats = Value::parse(reply.text()).map_err(|e| format!("/stats json: {e}"))?;
    // Close the connection first: a worker holds an open one until its
    // deadline.
    drop(client);
    let fin = server.shutdown().stats;
    let pairs = [
        ("requests", fin.requests, seen.sent),
        ("responses_2xx", fin.responses_2xx, seen.status_2xx),
        ("responses_4xx", fin.responses_4xx, seen.status_4xx),
        ("responses_5xx", fin.responses_5xx, seen.status_5xx),
        ("deadline_drops + io_errors", fin.deadline_drops + fin.io_errors, seen.dropped),
        ("worker_panics", fin.worker_panics, 0),
    ];
    for (key, got, want) in pairs {
        if got != want {
            return Err(format!("daemon {key} = {got}, clients saw {want}"));
        }
    }
    Ok(stats)
}

/// What one closed-loop client measured.
struct ClientRun {
    /// Successful op latencies (ms): the whole op, then its requests.
    op_ms: Vec<f64>,
    req_ms: BTreeMap<&'static str, Vec<f64>>,
    attempted: u64,
    failed: u64,
    counts: Counts,
    trace: Trace,
    /// Per-workload payload handed back to the checks.
    checked: Vec<(Vec<u32>, Vec<f32>)>,
    steps_done: usize,
    last_reply: Option<String>,
    /// The client's own request stream, a pure function of the seed.
    rng: StdRng,
}

impl ClientRun {
    fn new(addr: SocketAddr, origin: Instant, rng: StdRng) -> (Self, Client) {
        let run = Self {
            op_ms: Vec::new(),
            req_ms: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            counts: Counts::default(),
            trace: Trace::new(origin),
            checked: Vec::new(),
            steps_done: 0,
            last_reply: None,
            rng,
        };
        (run, Client::new(addr))
    }

    /// Sends one request of an op, timing it as a child span when traced.
    fn send(
        &mut self,
        client: &mut Client,
        root: Option<usize>,
        name: &'static str,
        body: &str,
    ) -> Option<String> {
        let t0 = Instant::now();
        let span = root.map(|r| {
            let op = self.trace.spans[r].op;
            self.trace.begin(op, name, Some(r))
        });
        let reply =
            client.post(if name == "serve.transform" { "/transform" } else { "/predict" }, body);
        if let Some(s) = span {
            self.trace.end(s);
        }
        match reply {
            Ok(r) if r.status == 200 => {
                self.req_ms.entry(name).or_default().push(t0.elapsed().as_secs_f64() * 1e3);
                Some(String::from_utf8_lossy(&r.body).into_owned())
            }
            Ok(r) => {
                eprintln!("perfbench: {name} answered {}: {}", r.status, r.text().trim());
                None
            }
            Err(e) => {
                eprintln!("perfbench: {name} dropped: {e}");
                None
            }
        }
    }
}

/// Runs `clients` closed-loop clients for `seconds`; `op(c, i, run, client,
/// root)` performs op `i` of client `c` and returns `None` to stop early.
/// Client `c` draws its requests from `client_rng(seed, c)`.
fn closed_loop(
    addr: SocketAddr,
    clients: usize,
    args: &Args,
    op: impl Fn(usize, usize, &mut ClientRun, &mut Client, Option<usize>) -> Option<bool> + Sync,
) -> (Vec<ClientRun>, f64) {
    let origin = Instant::now();
    let stop = origin + Duration::from_secs_f64(args.seconds);
    let traced = args.trace;
    let runs: Vec<(ClientRun, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let op = &op;
                s.spawn(move || {
                    let (mut run, mut client) =
                        ClientRun::new(addr, origin, client_rng(args.seed, c));
                    let mut i = 0;
                    while Instant::now() < stop {
                        let t0 = Instant::now();
                        let root = traced
                            .then(|| run.trace.begin(((c as u64) << 32) | i as u64, "op", None));
                        let Some(ok) = op(c, i, &mut run, &mut client, root) else { break };
                        if let Some(r) = root {
                            run.trace.end(r);
                        }
                        run.attempted += 1;
                        if ok {
                            run.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                        } else {
                            run.failed += 1;
                        }
                        i += 1;
                    }
                    run.counts = client.counts;
                    (run, origin.elapsed().as_secs_f64())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let wall = runs.iter().map(|(_, t)| *t).fold(0.0, f64::max);
    (runs.into_iter().map(|(r, _)| r).collect(), wall)
}

/// End-to-end figures of one measured phase.
fn phase_metrics(runs: &[ClientRun], wall: f64, setup_s: f64, prefix: &str, out: &mut Report) {
    let all: Vec<f64> = runs.iter().flat_map(|r| r.op_ms.iter().copied()).collect();
    out.put(&format!("{prefix}setup_s"), setup_s);
    out.put(&format!("{prefix}latency_p50_ms"), median(&all));
    out.put(&format!("{prefix}latency_p90_ms"), quantile(&all, 0.9));
    out.put(&format!("{prefix}ops_per_s"), all.len() as f64 / wall.max(1e-9));
    if prefix.is_empty() {
        out.note(format!("{} ops in {wall:.2} s from {} clients", all.len(), runs.len()));
    }
}

fn request_median(runs: &[ClientRun], name: &str) -> f64 {
    let v: Vec<f64> =
        runs.iter().flat_map(|r| r.req_ms.get(name).into_iter().flatten().copied()).collect();
    if v.is_empty() {
        0.0
    } else {
        median(&v)
    }
}

/// The daemon-side serve metrics shared by both workloads.
fn serve_metrics(runs: &[ClientRun], stats: &Value, out: &mut Report) {
    let arena: u64 = match stats.get("arena_bytes") {
        Some(Value::Arr(a)) => a
            .iter()
            .filter_map(|v| match v {
                Value::Num(n) => n.parse::<u64>().ok(),
                _ => None,
            })
            .sum(),
        _ => 0,
    };
    out.put("serve.arena_bytes", arena as f64);
    let predict = request_median(runs, "serve.predict");
    out.put("serve.predict_ms", predict);
    out.put("serve.transform_ms", request_median(runs, "serve.transform"));
    out.put("serve.outside_model_ms", predict - stat_f64(stats, "latency_p50_ms"));
}

/// Cold load through the crates' public functions, as `/load` does it.
struct Loaded {
    nl: Netlist,
    pl: Placement,
    graph: TimingGraph,
    prep: PreparedDesign,
    pctx: PrepareCtx,
}

fn load_in_process(text: &DesignText, lib: &CellLibrary, trace: &mut Trace, op: u64) -> Loaded {
    let cfg = ModelConfig::small();
    let root = trace.begin(op, "load", None);
    let nl = trace.time(root, "netlist.parse_verilog", || {
        rtt_netlist::parse_verilog(&text.verilog, lib).expect("verilog parses")
    });
    let pl = trace.time(root, "place.parse_placement", || {
        rtt_place::parse_placement(&nl, &text.placement).expect("placement parses")
    });
    let graph = trace.time(root, "netlist.timing_graph", || {
        TimingGraph::try_build(&nl, lib).expect("graph builds")
    });
    let targets = vec![0.0; graph.endpoints().len()];
    let (prep, pctx) = trace.time(root, "core.prepare", || {
        PreparedDesign::prepare_full(&nl, lib, &pl, &graph, &cfg, targets)
    });
    trace.end(root);
    Loaded { nl, pl, graph, prep, pctx }
}

/// Cold, direct calls of the three feature extractors on a loaded design.
fn features_in_process(d: &Loaded, lib: &CellLibrary, trace: &mut Trace, op: u64) {
    let cfg = ModelConfig::small();
    let root = trace.begin(op, "features", None);
    trace.time(root, "features.node_features", || {
        NodeFeatures::extract(&d.nl, lib, &d.graph, &d.pl)
    });
    trace.time(root, "features.layout_maps", || LayoutMaps::extract(&d.nl, lib, &d.pl, cfg.grid));
    trace.time(root, "features.endpoint_masks", || {
        endpoint_masks(&d.nl, &d.pl, &d.graph, cfg.pooled_grid())
    });
    trace.end(root);
}

/// Replay op ids live above every client's op ids.
const REPLAY_OP: u64 = 1 << 48;

/// Layer metrics of the load and features replay ops.
fn load_metrics(bd: &Breakdown, pins: usize, out: &mut Report) {
    for layer in [
        "netlist.parse_verilog",
        "place.parse_placement",
        "features.node_features",
        "features.layout_maps",
        "features.endpoint_masks",
        "core.prepare",
    ] {
        out.put(&format!("{layer}_ms"), bd.median_ms(layer));
    }
    out.put(
        "core.prepare_pins_per_s",
        pins as f64 / (bd.median_ms("core.prepare") / 1e3).max(1e-12),
    );
}

// ------------------------------------------------------------ query_huge

/// The daemon model's layers, so the GNN/CNN/tail split can be timed call
/// by call. Scratch buffers persist across calls, as the daemon's arena
/// does.
struct Parts {
    w: Weights,
    cfg: ModelConfig,
    bufs: Vec<Tensor>,
    argmax: Vec<u32>,
}

impl Parts {
    fn new(cfg: ModelConfig) -> Self {
        let bufs = (0..NetlistGnn::FLAT_SCRATCH + 11).map(|_| Tensor::zeros(&[1])).collect();
        Self { w: Weights::new(&cfg).0, cfg, bufs, argmax: Vec::new() }
    }

    /// `predict_batch` as three timed calls: GNN, CNN, readout tail. The
    /// untrained model's target normalization is mean 0, std 1.
    fn predict(
        &mut self,
        trace: &mut Trace,
        root: usize,
        d: &PreparedDesign,
        idx: &[u32],
    ) -> Vec<f32> {
        let Self { w, cfg, bufs, argmax } = self;
        let Weights { store, gnn, trunk, fc, regressor } = w;
        let (gbufs, rest) = bufs.split_at_mut(NetlistGnn::FLAT_SCRATCH);
        let [a, b, gmap, col, ep, masks, lemb, fused, r0, r1, pred] = rest else {
            unreachable!("scratch layout")
        };
        trace.time(root, "core.gnn", || {
            gnn.forward_flat(store, &d.schedule, &d.feats, cfg.aggregation, gbufs)
        });
        trace
            .time(root, "core.cnn", || trunk.forward_into(store, &d.maps, a, b, gmap, col, argmax));
        trace.time(root, "core.tail", || {
            let ep_rows = d.schedule.flat_endpoint_rows();
            let rows: Vec<u32> = idx.iter().map(|&i| ep_rows[i as usize]).collect();
            ops::gather_rows_flat(&gbufs[0], &rows, ep);
            if cfg.residual {
                ep.scale_assign(READOUT_SCALE);
            }
            d.dense_mask_rows_into(idx, masks);
            ops::mul_row_in_place(masks, gmap.data());
            fc.forward_into(store, masks, lemb);
            ops::concat_cols(ep, lemb, fused);
            regressor.forward_into(store, fused, r0, r1, pred);
            pred.data().iter().map(|p| p * 1.0 + 0.0).collect()
        })
    }
}

fn client_rng(seed: u64, client: usize) -> StdRng {
    StdRng::seed_from_u64(mix(seed, 100 + client as u64))
}

/// One `query_huge` request: 1–16 seeded-random endpoints.
fn query_indices(rng: &mut StdRng, n_ep: u32) -> Vec<u32> {
    let k = rng.gen_range(1..MAX_QUERY_ENDPOINTS + 1);
    (0..k).map(|_| rng.gen_range(0..n_ep)).collect()
}

fn query_body(idx: &[u32]) -> String {
    let list: Vec<String> = idx.iter().map(u32::to_string).collect();
    format!("design=jpeg\nindices={}\n", list.join(","))
}

pub fn query_huge(args: &Args) -> Result<Report, String> {
    let lib = CellLibrary::asap7_like();
    let text = DesignText::generate("jpeg", Scale::Huge, args.seed, &lib);
    let designs = [("jpeg".to_owned(), &text)];
    let daemon = start_loaded(&designs)?;
    let n_ep = endpoints_of(&daemon.answers[0])?;
    let clients = workers();

    let (runs, wall) =
        closed_loop(daemon.server.addr(), clients, args, |_, i, run, client, root| {
            let idx = query_indices(&mut run.rng, n_ep);
            let reply = run.send(client, root, "serve.predict", &query_body(&idx));
            if let Some(body) = &reply {
                if i % 8 == 0 && run.checked.len() < CHECKED_PER_CLIENT {
                    run.checked.push((idx, parse_predictions(body).unwrap_or_default()));
                }
            }
            Some(reply.is_some())
        });

    let mut seen = daemon.counts;
    runs.iter().for_each(|r| seen.merge(&r.counts));
    let stats = stats_and_drain(daemon.server, seen)?;
    let mut out = Report::default();
    out.put("peak_rss_mb", crate::peak_rss_mb());
    let setup_s = median_setup(&designs, daemon.setup_s, QUERY_SETUPS)?;
    phase_metrics(&runs, wall, setup_s, if args.trace { "traced." } else { "" }, &mut out);
    out.attempted = runs.iter().map(|r| r.attempted).sum();
    out.failed = runs.iter().map(|r| r.failed).sum();

    // Output check: sampled replies equal in-process predict_batch bits.
    let mut trace = Trace::new(Instant::now());
    let loaded = load_in_process(&text, &lib, &mut trace, REPLAY_OP);
    let model = model();
    let ctx = InferCtx::new();
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for (idx, vals) in runs.iter().flat_map(|r| &r.checked) {
        let reference = model.predict_batch(&ctx, &loaded.prep, idx);
        bits_equal("sampled /predict reply", vals, &reference)?;
        got.extend_from_slice(vals);
        want.extend(reference);
    }
    out.put("test_r2", f64::from(rtt_flow::r2_score(&got, &want)));
    out.note(format!(
        "{} sampled replies match predict_batch bit for bit",
        runs.iter().map(|r| r.checked.len()).sum::<usize>()
    ));

    if args.trace {
        serve_metrics(&runs, &stats, &mut out);
        out.put("serve.failed_share", out.failed as f64 / out.attempted.max(1) as f64);
        features_in_process(&loaded, &lib, &mut trace, REPLAY_OP + 1);
        // Replay client 0's op stream until the time budget runs out.
        let mut parts = Parts::new(ModelConfig::small());
        let mut rng = client_rng(args.seed, 0);
        let replay_ctx = InferCtx::new();
        let stop = Instant::now() + Duration::from_secs_f64(args.seconds);
        let mut op = REPLAY_OP + 2;
        while Instant::now() < stop {
            let idx = query_indices(&mut rng, n_ep);
            let raw = format!(
                "POST /predict HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{}",
                query_body(&idx).len(),
                query_body(&idx)
            );
            let root = trace.begin(op, "predict", None);
            let parsed = trace.time(root, "serve.parse", || {
                rtt_serve::parse_request(raw.as_bytes(), &Default::default())
            });
            parsed.map_err(|e| format!("replayed request does not parse: {e}"))?;
            let full = trace.time(root, "core.predict", || {
                model.predict_batch(&replay_ctx, &loaded.prep, &idx)
            });
            trace.time(root, "serve.encode", || {
                let mut body = format!("n={}\ngeneration=1\n", full.len());
                full.iter().for_each(|p| body.push_str(&format!("{p}\n")));
                rtt_serve::Response::text(200, body).encode(true)
            });
            trace.end(root);
            let root = trace.begin(op + 1, "predict_split", None);
            let split = parts.predict(&mut trace, root, &loaded.prep, &idx);
            trace.end(root);
            bits_equal("GNN/CNN/tail split", &split, &full)?;
            op += 2;
        }
        out.put("nn.arena_bytes", replay_ctx.arena_bytes() as f64);
        runs.into_iter().for_each(|r| trace.absorb(r.trace));
        let bd = Breakdown::of(&trace)?;
        load_metrics(&bd, loaded.graph.num_nodes(), &mut out);
        out.put("netlist.timing_graph_ms", bd.median_ms("netlist.timing_graph"));
        for layer in ["core.predict", "core.gnn", "core.cnn", "core.tail"] {
            out.put(&format!("{layer}_ms"), bd.median_ms(layer));
        }
        out.finish_trace(&trace, &bd, args)?;
    }
    Ok(out)
}

// ----------------------------------------------------- restructure_small

/// One transform, with ids resolved against the design it applies to.
#[derive(Clone, Copy, Debug)]
enum Op {
    Buffer { net: NetId, sink: PinId, pos: Point },
    Resize { cell: CellId, drive: u8 },
    Bypass { cell: CellId },
}

impl Op {
    /// Applies the op as the daemon's `/transform` handler does.
    fn apply(self, nl: &mut Netlist, pl: &mut Placement, lib: &CellLibrary) -> Option<CellId> {
        match self {
            Op::Buffer { net, sink, pos } => Some(
                rtt_opt::insert_buffer(nl, pl, lib, net, sink, pos).expect("buffer site is valid"),
            ),
            Op::Resize { cell, drive } => {
                let ty = lib
                    .pick(lib.cell_type(nl.cell(cell).type_id).gate, drive)
                    .expect("drive exists");
                nl.resize_cell(cell, ty, lib).expect("resize is valid");
                None
            }
            Op::Bypass { cell } => {
                rtt_opt::bypass_repeater(nl, lib, cell).expect("bypass is valid");
                None
            }
        }
    }

    fn body(self, design: &str) -> String {
        match self {
            Op::Buffer { net, sink, pos } => format!(
                "design={design}\nop=buffer\nnet={}\nsink={}\npos={},{}\n",
                net.index(),
                sink.index(),
                pos.x,
                pos.y
            ),
            Op::Resize { cell, drive } => {
                format!("design={design}\nop=resize\ncell={}\ndrive={drive}\n", cell.index())
            }
            Op::Bypass { cell } => format!("design={design}\nop=bypass\ncell={}\n", cell.index()),
        }
    }
}

/// Draws the next transform uniformly over the live design, in roughly
/// equal shares of buffer insertion, resize, and bypass of an earlier
/// inserted buffer, and applies it to the mirror.
fn next_op(
    rng: &mut StdRng,
    nl: &mut Netlist,
    pl: &mut Placement,
    lib: &CellLibrary,
    inserted: &mut Vec<CellId>,
) -> Op {
    loop {
        let op = match rng.gen_range(0..3u32) {
            0 => {
                let nets: Vec<NetId> =
                    nl.nets().filter(|(_, n)| !n.sinks.is_empty()).map(|(id, _)| id).collect();
                let net = nets[rng.gen_range(0..nets.len())];
                let sinks = &nl.net(net).sinks;
                let sink = sinks[rng.gen_range(0..sinks.len())];
                let a = pl.pin_position(nl, nl.net(net).driver);
                let b = pl.pin_position(nl, sink);
                // Round-trip through the request text so mirror and daemon
                // place the buffer at bit-identical coordinates.
                let x: f32 = format!("{}", (a.x + b.x) * 0.5).parse().expect("f32 round trip");
                let y: f32 = format!("{}", (a.y + b.y) * 0.5).parse().expect("f32 round trip");
                Op::Buffer { net, sink, pos: Point::new(x, y) }
            }
            1 => {
                let cells: Vec<CellId> = nl
                    .cells()
                    .filter(|(_, c)| !lib.cell_type(c.type_id).is_sequential())
                    .map(|(id, _)| id)
                    .collect();
                let cell = cells[rng.gen_range(0..cells.len())];
                let drive = DRIVE_STRENGTHS[rng.gen_range(0..DRIVE_STRENGTHS.len())];
                let current = nl.cell(cell).type_id;
                match lib.pick(lib.cell_type(current).gate, drive) {
                    Some(ty) if ty != current => Op::Resize { cell, drive },
                    _ => continue,
                }
            }
            _ => {
                inserted.retain(|&c| nl.cell(c).is_alive());
                if inserted.is_empty() {
                    continue;
                }
                let k = rng.gen_range(0..inserted.len());
                Op::Bypass { cell: inserted.swap_remove(k) }
            }
        };
        if let Some(buf) = op.apply(nl, pl, lib) {
            inserted.push(buf);
        }
        return op;
    }
}

/// Precomputes `n` valid transforms for one client from the seed.
fn op_stream(text: &DesignText, lib: &CellLibrary, seed: u64, n: usize) -> Vec<Op> {
    let (mut nl, mut pl) = text.parse(lib);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inserted = Vec::new();
    (0..n).map(|_| next_op(&mut rng, &mut nl, &mut pl, lib, &mut inserted)).collect()
}

pub fn restructure_small(args: &Args) -> Result<Report, String> {
    let lib = CellLibrary::asap7_like();
    let text = DesignText::generate("jpeg", Scale::Small, args.seed, &lib);
    let clients = workers();
    let names: Vec<String> = (0..clients).map(|c| format!("jpeg{c}")).collect();
    // Ample headroom: steps run at tens per second per client.
    let steps = (args.seconds * 200.0).ceil() as usize;
    let streams: Vec<Vec<Op>> = (0..clients)
        .map(|c| op_stream(&text, &lib, mix(args.seed, 200 + c as u64), steps))
        .collect();
    let loads: Vec<(String, &DesignText)> = names.iter().map(|n| (n.clone(), &text)).collect();
    let daemon = start_loaded(&loads)?;

    let (runs, wall) =
        closed_loop(daemon.server.addr(), clients, args, |c, i, run, client, root| {
            let op = streams[c].get(i)?;
            let ok = run.send(client, root, "serve.transform", &op.body(&names[c])).is_some();
            let reply = run.send(
                client,
                root,
                "serve.predict",
                &format!("design={}\nmode=incremental\n", names[c]),
            );
            run.steps_done = i + 1;
            let ok = ok && reply.is_some();
            if ok {
                run.last_reply = reply;
            }
            Some(ok)
        });
    if runs.iter().any(|r| r.steps_done == steps) {
        eprintln!("perfbench: a client ran out of precomputed steps");
    }

    let mut seen = daemon.counts;
    runs.iter().for_each(|r| seen.merge(&r.counts));
    let stats = stats_and_drain(daemon.server, seen)?;
    let mut out = Report::default();
    out.put("peak_rss_mb", crate::peak_rss_mb());
    let setup_s = median_setup(&loads, daemon.setup_s, RESTRUCTURE_SETUPS)?;
    phase_metrics(&runs, wall, setup_s, if args.trace { "traced." } else { "" }, &mut out);
    out.attempted = runs.iter().map(|r| r.attempted).sum();
    out.failed = runs.iter().map(|r| r.failed).sum();

    // Output check: the daemon's incremental answer for each client's final
    // design equals a cold prepare + predict_batch of the mirror.
    let model = model();
    let ctx = InferCtx::new();
    let cfg = ModelConfig::small();
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for (c, run) in runs.iter().enumerate() {
        let (mut nl, mut pl) = text.parse(&lib);
        for op in &streams[c][..run.steps_done] {
            op.apply(&mut nl, &mut pl, &lib);
        }
        let graph = TimingGraph::build(&nl, &lib);
        let n = graph.endpoints().len();
        let prep = PreparedDesign::prepare(&nl, &lib, &pl, &graph, &cfg, vec![0.0; n]);
        let all: Vec<u32> = (0..n as u32).collect();
        let reference = model.predict_batch(&ctx, &prep, &all);
        let vals = parse_predictions(run.last_reply.as_deref().ok_or("client completed no step")?)?;
        bits_equal(&format!("client {c} final incremental prediction"), &vals, &reference)?;
        got.extend(vals);
        want.extend(reference);
    }
    out.put("test_r2", f64::from(rtt_flow::r2_score(&got, &want)));
    out.note(format!(
        "final designs after {:?} steps match a cold prepare bit for bit",
        runs.iter().map(|r| r.steps_done).collect::<Vec<_>>()
    ));

    if args.trace {
        serve_metrics(&runs, &stats, &mut out);
        out.put("serve.failed_share", out.failed as f64 / out.attempted.max(1) as f64);
        let mut trace = Trace::new(Instant::now());
        let mut cur = load_in_process(&text, &lib, &mut trace, REPLAY_OP);
        features_in_process(&cur, &lib, &mut trace, REPLAY_OP + 1);
        let pins = cur.graph.num_nodes();
        let mut inc = IncrementalCtx::new();
        let counter = |k: &str| rtt_obs::snapshot().counters.get(k).copied().unwrap_or(0) as f64;
        let keys = [
            rtt_core::PREP_MASKS_RECOMPUTED_COUNTER,
            rtt_core::PREP_MASKS_TOTAL_COUNTER,
            rtt_core::ROWS_RECOMPUTED_COUNTER,
            rtt_core::ROWS_TOTAL_COUNTER,
            rtt_core::EPS_REUSED_COUNTER,
            rtt_core::EPS_TOTAL_COUNTER,
        ];
        let before: Vec<f64> = keys.iter().map(|k| counter(k)).collect();
        let stop = Instant::now() + Duration::from_secs_f64(args.seconds);
        for (i, op) in streams[0].iter().enumerate() {
            if Instant::now() >= stop {
                break;
            }
            let root = trace.begin(REPLAY_OP + 2 + i as u64, "step", None);
            let (mut nl, mut pl) =
                trace.time(root, "serve.clone", || (cur.nl.clone(), cur.pl.clone()));
            trace.time(root, "opt.transform", || op.apply(&mut nl, &mut pl, &lib));
            let graph = trace.time(root, "netlist.timing_graph", || {
                TimingGraph::try_build(&nl, &lib).expect("graph")
            });
            let seeds =
                trace.time(root, "opt.dirty_seeds", || rtt_opt::dirty_seed_pins(&cur.nl, &nl));
            let n = graph.endpoints().len();
            let prep = trace.time(root, "core.prepare_update", || {
                cur.prep.update(
                    &mut cur.pctx,
                    (&cur.nl, &cur.pl),
                    (&nl, &pl),
                    &lib,
                    &graph,
                    &cfg,
                    &seeds,
                    vec![0.0; n],
                )
            });
            let all: Vec<u32> = (0..n as u32).collect();
            trace.time(root, "core.predict_incremental", || {
                model.predict_incremental(&ctx, &mut inc, &prep, &seeds, &all)
            });
            trace.end(root);
            cur = Loaded { nl, pl, graph, prep, pctx: cur.pctx };
        }
        let delta: Vec<f64> = keys.iter().zip(&before).map(|(k, b)| counter(k) - b).collect();
        out.put("core.masks_recomputed_share", delta[0] / delta[1].max(1.0));
        out.put("core.rows_recomputed_share", delta[2] / delta[3].max(1.0));
        out.put("core.eps_reused_share", delta[4] / delta[5].max(1.0));
        out.put("nn.arena_bytes", ctx.arena_bytes() as f64);
        runs.into_iter().for_each(|r| trace.absorb(r.trace));
        let bd = Breakdown::of(&trace)?;
        load_metrics(&bd, pins, &mut out);
        for layer in [
            "serve.clone",
            "opt.transform",
            "netlist.timing_graph",
            "opt.dirty_seeds",
            "core.prepare_update",
            "core.predict_incremental",
        ] {
            out.put(&format!("{layer}_ms"), bd.median_ms(layer));
        }
        out.finish_trace(&trace, &bd, args)?;
    }
    Ok(out)
}
