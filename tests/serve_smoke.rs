//! Tier-1 smoke test for the prediction daemon: ephemeral port, HTTP
//! predictions bit-exact against the library path, hot-reload swapping
//! real weights, runtime design registration, and a clean drain.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use restructure_timing::model::model_io::save_model;
use restructure_timing::netlist::write_verilog;
use restructure_timing::place::write_placement;
use restructure_timing::prelude::*;
use restructure_timing::serve::{ServeConfig, Server};

fn fixture(bits: usize) -> (CellLibrary, Netlist, Placement, TimingGraph) {
    let lib = CellLibrary::asap7_like();
    let nl = ripple_carry_adder(bits, &lib);
    let pl = place(&nl, &lib, 0, &PlaceConfig::default());
    let graph = TimingGraph::build(&nl, &lib);
    (lib, nl, pl, graph)
}

fn prepared(
    lib: &CellLibrary,
    nl: &Netlist,
    pl: &Placement,
    graph: &TimingGraph,
    cfg: &ModelConfig,
) -> PreparedDesign {
    let targets = vec![0.0f32; graph.endpoints().len()];
    PreparedDesign::prepare(nl, lib, pl, graph, cfg, targets)
}

/// Minimal blocking HTTP client: one request, one parsed response.
fn http(addr: SocketAddr, raw: &[u8]) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    stream.write_all(raw).expect("send request");
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some((status, head_len, body_len)) = head(&buf) {
            if buf.len() >= head_len + body_len {
                return (status, buf[head_len..head_len + body_len].to_vec());
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => panic!("connection closed before a full response"),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("read: {e}"),
        }
    }
}

fn head(buf: &[u8]) -> Option<(u16, usize, usize)> {
    let end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let text = std::str::from_utf8(&buf[..end]).ok()?;
    let status = text.split(' ').nth(1)?.parse().ok()?;
    let body_len = text
        .lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))?
        .1
        .trim()
        .parse()
        .ok()?;
    Some((status, end, body_len))
}

fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").into_bytes()
}

fn post(path: &str, headers: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n{headers}Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

fn predict_bits(body: &[u8]) -> (u64, Vec<u32>) {
    let text = std::str::from_utf8(body).expect("utf-8 predict body");
    let mut lines = text.lines();
    let n: usize = lines
        .next()
        .and_then(|l| l.strip_prefix("n="))
        .and_then(|v| v.parse().ok())
        .expect("n= line");
    let generation: u64 = lines
        .next()
        .and_then(|l| l.strip_prefix("generation="))
        .and_then(|v| v.parse().ok())
        .expect("generation= line");
    let bits: Vec<u32> = lines.map(|l| l.parse::<f32>().expect("float line").to_bits()).collect();
    assert_eq!(bits.len(), n);
    (generation, bits)
}

fn bits_of(preds: &[f32]) -> Vec<u32> {
    preds.iter().map(|p| p.to_bits()).collect()
}

#[test]
fn daemon_serves_bit_exact_predictions_reloads_and_drains() {
    let (lib, nl, pl, graph) = fixture(8);
    let cfg = ModelConfig::tiny();
    let prep = prepared(&lib, &nl, &pl, &graph, &cfg);
    let boot_model = TimingModel::new(cfg.clone());

    // A second model with genuinely different weights, for the reload.
    let mut trained = TimingModel::new(cfg.clone());
    {
        let targets: Vec<f32> = (0..graph.endpoints().len()).map(|i| 50.0 + i as f32).collect();
        let train_prep = PreparedDesign::prepare(&nl, &lib, &pl, &graph, &cfg, targets);
        trained.train(&[train_prep], &TrainConfig { epochs: 2, ..TrainConfig::default() });
    }

    let dir = std::env::temp_dir().join(format!("rtt-serve-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let weights = dir.join("model.rttm");
    std::fs::write(&weights, save_model(&boot_model)).expect("write boot weights");

    let serve_cfg = ServeConfig { weights_path: Some(weights.clone()), ..ServeConfig::default() };
    let mut server =
        Server::start(serve_cfg, boot_model.clone(), vec![("rca".to_owned(), prep.clone())])
            .expect("daemon starts on an ephemeral port");
    let addr = server.addr();

    let (status, body) = http(addr, &get("/healthz"));
    assert_eq!((status, body.as_slice()), (200, &b"ok\n"[..]));

    // Bit-exactness against the library fast path, full and subset.
    let ctx = restructure_timing::nn::InferCtx::new();
    let all: Vec<u32> = (0..prep.num_endpoints() as u32).collect();
    let expect_all = bits_of(&boot_model.predict_batch(&ctx, &prep, &all));
    let (status, body) = http(addr, &post("/predict", "", b"design=rca\n"));
    assert_eq!(status, 200);
    let (generation, got) = predict_bits(&body);
    assert_eq!(generation, 1);
    assert_eq!(got, expect_all, "HTTP predictions must match the library bit-for-bit");

    let subset = [4u32, 0, 9];
    let expect_subset = bits_of(&boot_model.predict_batch(&ctx, &prep, &subset));
    let (status, body) = http(addr, &post("/predict", "", b"design=rca\nindices=4,0,9\n"));
    assert_eq!(status, 200);
    assert_eq!(predict_bits(&body).1, expect_subset, "index subsets too");

    // Typed client errors, not panics.
    let (status, _) = http(addr, &post("/predict", "", b"design=missing\n"));
    assert_eq!(status, 404);
    let (status, _) = http(addr, &post("/predict", "", b"design=rca\nindices=999999\n"));
    assert_eq!(status, 422);
    let (status, _) = http(addr, &get("/nope"));
    assert_eq!(status, 404);

    // Hot-reload: overwrite the weights file and POST /reload; new
    // predictions must be bit-exact for the *new* model.
    std::fs::write(&weights, save_model(&trained)).expect("write trained weights");
    let (status, body) = http(addr, &post("/reload", "", b""));
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    assert_eq!(body, b"generation=2\n");
    let expect_trained = bits_of(&trained.predict_batch(&ctx, &prep, &all));
    let (status, body) = http(addr, &post("/predict", "", b"design=rca\n"));
    assert_eq!(status, 200);
    let (generation, got) = predict_bits(&body);
    assert_eq!(generation, 2, "reload must bump the generation");
    assert_eq!(got, expect_trained, "post-reload predictions use the new weights");
    assert_ne!(got, expect_all, "the reload really changed the weights");

    // Runtime design registration over HTTP, then predict on it.
    let (lib2, nl2, pl2, _) = fixture(4);
    let verilog = write_verilog(&nl2, &lib2);
    let placement = write_placement(&nl2, &pl2);
    let mut body2 = verilog.clone().into_bytes();
    body2.extend_from_slice(placement.as_bytes());
    let (status, body) = http(
        addr,
        &post("/load?name=rca4", &format!("X-Netlist-Bytes: {}\r\n", verilog.len()), &body2),
    );
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    // The text round-trip can reorder cells/pins, so build the reference
    // from the same serialized files the server parsed.
    let nl2 = restructure_timing::netlist::parse_verilog(&verilog, &lib2).expect("round-trip");
    let pl2 = restructure_timing::place::parse_placement(&nl2, &placement).expect("round-trip");
    let graph2 = TimingGraph::build(&nl2, &lib2);
    let prep2 = prepared(&lib2, &nl2, &pl2, &graph2, &cfg);
    let all2: Vec<u32> = (0..prep2.num_endpoints() as u32).collect();
    let expect2 = bits_of(&trained.predict_batch(&ctx, &prep2, &all2));
    let (status, body) = http(addr, &post("/predict", "", b"design=rca4\n"));
    assert_eq!(status, 200);
    assert_eq!(predict_bits(&body).1, expect2, "a design loaded over HTTP predicts bit-exactly");

    // /stats is valid JSON with sane counters.
    let (status, body) = http(addr, &get("/stats"));
    assert_eq!(status, 200);
    let doc =
        restructure_timing::obs::json::Value::parse(std::str::from_utf8(&body).expect("utf-8"))
            .expect("stats parses as JSON");
    let num = |key: &str| -> u64 {
        match doc.get(key) {
            Some(restructure_timing::obs::json::Value::Num(n)) => n.parse().expect("integer"),
            other => panic!("stats[{key}] = {other:?}"),
        }
    };
    assert!(num("requests") >= 8);
    assert_eq!(num("worker_panics"), 0);
    assert_eq!(num("generation"), 2);
    assert_eq!(num("designs"), 2);
    assert!(num("endpoints_predicted") >= 2 * prep.num_endpoints() as u64);

    // POST /shutdown flips the flag the CLI loop watches; the drain
    // itself must answer everything and join.
    let (status, _) = http(addr, &post("/shutdown", "", b""));
    assert_eq!(status, 200);
    assert!(server.shutdown_requested());
    let report = server.shutdown();
    assert_eq!(report.stats.worker_panics, 0);
    assert!(report.stats.responses_2xx >= 8);
    drop(std::fs::remove_dir_all(dir));
}

/// Server-side restructuring: `/load` a design with sources, `/transform`
/// it, and check an incremental `/predict` is byte-identical to a cold
/// daemon booted directly on the transformed design. Then, under a
/// mid-transform injected abort, check the design and its activation
/// cache are left exactly as they were (no torn state, no stale cache).
#[test]
fn daemon_transforms_designs_and_serves_incremental_predictions() {
    use restructure_timing::opt;
    use restructure_timing::serve::fault::{FaultMode, FaultSpec};

    let (lib, nl, pl, _) = fixture(6);
    let cfg = ModelConfig::tiny();
    let model = TimingModel::new(cfg.clone());

    let server = Server::start(ServeConfig::default(), model.clone(), vec![])
        .expect("daemon starts on an ephemeral port");
    let addr = server.addr();

    // Register the design over HTTP so the daemon retains its sources.
    let verilog = write_verilog(&nl, &lib);
    let placement_txt = write_placement(&nl, &pl);
    let mut load_body = verilog.clone().into_bytes();
    load_body.extend_from_slice(placement_txt.as_bytes());
    let (status, body) = http(
        addr,
        &post("/load?name=rca", &format!("X-Netlist-Bytes: {}\r\n", verilog.len()), &load_body),
    );
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    // The text round-trip can reorder cells/pins; the reference mirrors
    // the server by re-parsing the same serialized files.
    let mut nl = restructure_timing::netlist::parse_verilog(&verilog, &lib).expect("round-trip");
    let mut pl =
        restructure_timing::place::parse_placement(&nl, &placement_txt).expect("round-trip");

    // Priming pass: a cold incremental predict is an ordinary full
    // forward, so its response must already be byte-identical to full mode.
    let (status, warm0) = http(addr, &post("/predict", "", b"design=rca\nmode=incremental\n"));
    assert_eq!(status, 200);
    let (status, full0) = http(addr, &post("/predict", "", b"design=rca\nmode=full\n"));
    assert_eq!(status, 200);
    assert_eq!(warm0, full0, "cold incremental /predict must equal full /predict byte-for-byte");

    // Transform server-side: insert a buffer on the first sink-bearing net.
    let (net, sink) = nl
        .nets()
        .find_map(|(id, n)| n.sinks.first().map(|&s| (id, s)))
        .expect("fixture has a net with sinks");
    let a = pl.pin_position(&nl, nl.net(net).driver);
    let b = pl.pin_position(&nl, sink);
    let pos = restructure_timing::place::Point::new((a.x + b.x) * 0.5, (a.y + b.y) * 0.5);
    let req = format!(
        "design=rca\nop=buffer\nnet={}\nsink={}\npos={},{}\n",
        net.index(),
        sink.index(),
        pos.x,
        pos.y
    );
    let (status, body) = http(addr, &post("/transform", "", req.as_bytes()));
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let text = String::from_utf8(body).expect("utf-8 transform body");
    assert!(text.starts_with("generation=2\n"), "design generation must bump: {text:?}");
    let dirty: usize = text
        .lines()
        .find_map(|l| l.strip_prefix("dirty="))
        .and_then(|v| v.parse().ok())
        .expect("dirty= line");
    assert!(dirty >= 1, "buffer insertion must seed dirty pins");

    // Cold daemon booted directly on the transformed design: the warm
    // daemon's incremental response must match it byte-for-byte.
    opt::insert_buffer(&mut nl, &mut pl, &lib, net, sink, pos).expect("reference transform");
    let graph_t = TimingGraph::build(&nl, &lib);
    let prep_t = prepared(&lib, &nl, &pl, &graph_t, &cfg);
    let cold_server =
        Server::start(ServeConfig::default(), model.clone(), vec![("rca".to_owned(), prep_t)])
            .expect("cold daemon starts");
    let (status, cold) = http(cold_server.addr(), &post("/predict", "", b"design=rca\n"));
    assert_eq!(status, 200);
    let (status, warm) = http(addr, &post("/predict", "", b"design=rca\nmode=incremental\n"));
    assert_eq!(status, 200);
    assert_eq!(warm, cold, "incremental /predict must be byte-identical to a cold daemon");

    // Index subsets ride the same cache.
    let (status, cold_sub) =
        http(cold_server.addr(), &post("/predict", "", b"design=rca\nindices=2,0,5\n"));
    assert_eq!(status, 200);
    let (status, warm_sub) =
        http(addr, &post("/predict", "", b"design=rca\nindices=2,0,5\nmode=incremental\n"));
    assert_eq!(status, 200);
    assert_eq!(warm_sub, cold_sub, "subset predictions too");

    // Chaos: with TransformAbort firing on every decision, /transform
    // mutates its working copies, then aborts before publishing. Nothing
    // — generation, pending seeds, activation cache — may change.
    let chaos_cfg = ServeConfig {
        faults: FaultSpec::new(11).mode(FaultMode::TransformAbort, 1.0).build(),
        ..ServeConfig::default()
    };
    let chaos = Server::start(chaos_cfg, model, vec![]).expect("chaos daemon starts");
    let (status, body) = http(
        chaos.addr(),
        &post("/load?name=rca", &format!("X-Netlist-Bytes: {}\r\n", verilog.len()), &load_body),
    );
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let (status, primed) =
        http(chaos.addr(), &post("/predict", "", b"design=rca\nmode=incremental\n"));
    assert_eq!(status, 200);
    let (status, body) = http(chaos.addr(), &post("/transform", "", req.as_bytes()));
    assert_eq!(status, 500, "injected abort must surface as 500");
    assert_eq!(body, b"injected transform abort\n");
    let (status, after_abort) =
        http(chaos.addr(), &post("/predict", "", b"design=rca\nmode=incremental\n"));
    assert_eq!(status, 200);
    assert_eq!(after_abort, primed, "an aborted transform must not leave a stale cache");
    let (status, after_full) = http(chaos.addr(), &post("/predict", "", b"design=rca\n"));
    assert_eq!(status, 200);
    assert_eq!(after_abort, after_full, "incremental still agrees with full after the abort");

    // The injected fault is visible on /stats.
    let (status, body) = http(chaos.addr(), &get("/stats"));
    assert_eq!(status, 200);
    let text = String::from_utf8(body).expect("utf-8 stats");
    assert!(text.contains("\"transform_abort\":1"), "stats must count the injected abort: {text}");
}

/// `(predict_cache_hits, predict_cache_refreshes)` from `/stats`.
fn cache_counts(addr: SocketAddr) -> (u64, u64) {
    use restructure_timing::obs::json::Value;
    let (status, body) = http(addr, &get("/stats"));
    assert_eq!(status, 200);
    let doc = Value::parse(std::str::from_utf8(&body).expect("utf-8")).expect("stats parses");
    let num = |key: &str| match doc.get(key) {
        Some(Value::Num(n)) => n.parse::<u64>().expect("integer"),
        other => panic!("stats[{key}] = {other:?}"),
    };
    (num("predict_cache_hits"), num("predict_cache_refreshes"))
}

/// Reads of a design that has not changed since the last read are served
/// from its activation cache: the first read after `/load` refreshes it,
/// later ones run only the readout tail. A rejected `/transform`
/// publishes nothing, so the cache stays current; a published one makes
/// the next read refresh even when it queued no dirty seeds. `mode=` no
/// longer selects a path.
#[test]
fn daemon_serves_unchanged_designs_from_the_activation_cache() {
    let (lib, nl, pl, _) = fixture(6);
    let cfg = ModelConfig::tiny();
    let model = TimingModel::new(cfg.clone());
    let server = Server::start(ServeConfig::default(), model.clone(), vec![])
        .expect("daemon starts on an ephemeral port");
    let addr = server.addr();
    let verilog = write_verilog(&nl, &lib);
    let placement = write_placement(&nl, &pl);
    let mut load_body = verilog.clone().into_bytes();
    load_body.extend_from_slice(placement.as_bytes());
    let (status, body) = http(
        addr,
        &post("/load?name=rca", &format!("X-Netlist-Bytes: {}\r\n", verilog.len()), &load_body),
    );
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let nl = restructure_timing::netlist::parse_verilog(&verilog, &lib).expect("round-trip");
    let pl = restructure_timing::place::parse_placement(&nl, &placement).expect("round-trip");
    let graph = TimingGraph::build(&nl, &lib);
    let prep = prepared(&lib, &nl, &pl, &graph, &cfg);
    let ctx = restructure_timing::nn::InferCtx::new();
    let all: Vec<u32> = (0..prep.num_endpoints() as u32).collect();
    let expect = bits_of(&model.predict_batch(&ctx, &prep, &all));
    let read = || {
        let (status, body) = http(addr, &post("/predict", "", b"design=rca\n"));
        assert_eq!(status, 200);
        predict_bits(&body).1
    };

    const READS: u64 = 4;
    for k in 0..READS {
        assert_eq!(read(), expect, "read {k} must equal predict_batch");
    }
    let expect_subset = bits_of(&model.predict_batch(&ctx, &prep, &[3, 1, 3]));
    let (status, body) = http(addr, &post("/predict", "", b"design=rca\nindices=3,1,3\n"));
    assert_eq!(status, 200);
    assert_eq!(predict_bits(&body).1, expect_subset, "subsets read the same cache");
    assert_eq!(cache_counts(addr), (READS, 1), "one refresh after /load, then hits");

    let (status, body) =
        http(addr, &post("/transform", "", b"design=rca\nop=resize\ncell=999999\ndrive=1\n"));
    assert_eq!(status, 422, "{}", String::from_utf8_lossy(&body));
    assert_eq!(read(), expect);
    assert_eq!(cache_counts(addr), (READS + 1, 1), "a rejected transform keeps the cache current");

    // A non-finite buffer position is rejected before anything runs, and
    // a finite one off the die before the transform runs, so the prune
    // below still publishes generation 2.
    let (net, sink) = nl
        .nets()
        .find_map(|(id, n)| n.sinks.first().map(|&s| (id, s)))
        .expect("fixture has a net with sinks");
    for pos in ["NaN,NaN", "inf,-inf"] {
        let req = format!(
            "design=rca\nop=buffer\nnet={}\nsink={}\npos={pos}\n",
            net.index(),
            sink.index()
        );
        let (status, body) = http(addr, &post("/transform", "", req.as_bytes()));
        assert_eq!(status, 400, "pos={pos}: {}", String::from_utf8_lossy(&body));
        assert_eq!(body, format!("bad pos: {pos}\n").into_bytes());
    }
    let req = format!(
        "design=rca\nop=buffer\nnet={}\nsink={}\npos=3e38,3e38\n",
        net.index(),
        sink.index()
    );
    let (status, body) = http(addr, &post("/transform", "", req.as_bytes()));
    assert_eq!(status, 422, "{}", String::from_utf8_lossy(&body));
    assert_eq!(body, b"pos lies outside the die\n");

    let (status, body) = http(addr, &post("/transform", "", b"design=rca\nop=prune\n"));
    assert_eq!(status, 200);
    assert_eq!(body, b"generation=2\ndirty=0\n", "the fixture has nothing to prune");
    assert_eq!(read(), expect, "pruning nothing leaves the predictions as they were");
    assert_eq!(cache_counts(addr), (READS + 1, 2), "a published transform forces a refresh");

    let mut replies = Vec::new();
    for body in ["design=rca\n", "design=rca\nmode=full\n", "design=rca\nmode=incremental\n"] {
        let (status, reply) = http(addr, &post("/predict", "", body.as_bytes()));
        assert_eq!(status, 200);
        replies.push(reply);
    }
    assert_eq!(replies[0], replies[1], "mode=full is ignored");
    assert_eq!(replies[0], replies[2], "mode=incremental is ignored");
    let (status, _) = http(addr, &post("/predict", "", b"design=rca\nmode=bogus\n"));
    assert_eq!(status, 400, "an unknown mode is still refused");
}

/// A handler that outlives the request deadline has already committed its
/// effect, so its reply must still go out: a `/load` whose prepare takes
/// longer than `deadline_ms` answers 200, and the design then serves
/// `/predict`.
#[test]
fn load_outlasting_the_deadline_still_answers() {
    use restructure_timing::netlist::parse_verilog;
    use restructure_timing::place::parse_placement;
    use std::time::Instant;

    let lib = CellLibrary::asap7_like();
    let design = GenParams::new("slow", 1500, 17).generate(&lib);
    let pl = place(&design.netlist, &lib, 0, &PlaceConfig::default());
    let verilog = write_verilog(&design.netlist, &lib);
    let placement = write_placement(&design.netlist, &pl);
    let mut body = verilog.clone().into_bytes();
    body.extend_from_slice(placement.as_bytes());
    let cfg = ModelConfig::tiny();
    let model = TimingModel::new(cfg.clone());

    // Time the work `/load` does, in this build profile, and give the
    // daemon a deadline a quarter of it: reading the request fits, the
    // handler does not.
    let t0 = Instant::now();
    let nl = parse_verilog(&verilog, &lib).expect("round-trip");
    let pl = parse_placement(&nl, &placement).expect("round-trip");
    let graph = TimingGraph::build(&nl, &lib);
    let prep = prepared(&lib, &nl, &pl, &graph, &cfg);
    let deadline_ms = (t0.elapsed().as_millis() as u64 / 4).max(1);

    let serve_cfg = ServeConfig { deadline_ms, ..ServeConfig::default() };
    let server = Server::start(serve_cfg, model.clone(), vec![]).expect("daemon starts");
    let load = post("/load?name=slow", &format!("X-Netlist-Bytes: {}\r\n", verilog.len()), &body);
    // 503/408 mean the deadline ran out before the handler started (a
    // stalled scheduler), which is not the case under test: try again.
    let mut outcome = None;
    for _ in 0..5 {
        let t = Instant::now();
        let (status, reply) = http(server.addr(), &load);
        if status != 503 && status != 408 {
            outcome = Some((status, reply, t.elapsed().as_millis() as u64));
            break;
        }
    }
    let (status, reply, took_ms) = outcome.expect("the request reached the handler");
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&reply));
    assert!(took_ms > deadline_ms, "the load ({took_ms} ms) must outlast the deadline");

    let ctx = restructure_timing::nn::InferCtx::new();
    let all: Vec<u32> = (0..prep.num_endpoints() as u32).collect();
    let expect = bits_of(&model.predict_batch(&ctx, &prep, &all));
    let (status, reply) = http(server.addr(), &post("/predict", "", b"design=slow\n"));
    assert_eq!(status, 200);
    assert_eq!(predict_bits(&reply).1, expect, "the loaded design serves predictions");
}

/// Concurrent `/load`s of new names race past the cap check that runs
/// before parsing; the insert must check again. With `max_designs: 1`,
/// exactly one of them registers and the rest answer 422.
#[test]
fn concurrent_loads_never_overfill_the_registry() {
    let (lib, nl, pl, _) = fixture(4);
    let model = TimingModel::new(ModelConfig::tiny());
    let serve_cfg = ServeConfig { max_designs: 1, workers: 4, ..ServeConfig::default() };
    let server = Server::start(serve_cfg, model, vec![]).expect("daemon starts");
    let addr = server.addr();
    let verilog = write_verilog(&nl, &lib);
    let mut body = verilog.clone().into_bytes();
    body.extend_from_slice(write_placement(&nl, &pl).as_bytes());
    let header = format!("X-Netlist-Bytes: {}\r\n", verilog.len());

    let loads = 4;
    let start = std::sync::Barrier::new(loads);
    let replies: Vec<(u16, Vec<u8>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..loads)
            .map(|i| {
                let request = post(&format!("/load?name=d{i}"), &header, &body);
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    http(addr, &request)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let ok = replies.iter().filter(|(status, _)| *status == 200).count();
    assert_eq!(ok, 1, "exactly one load registers: {replies:?}");
    for (status, reply) in replies.iter().filter(|(status, _)| *status != 200) {
        assert_eq!((*status, reply.as_slice()), (422, &b"design registry full\n"[..]));
    }
    let (status, stats) = http(addr, &get("/stats"));
    assert_eq!(status, 200);
    let text = String::from_utf8(stats).expect("utf-8 stats");
    assert!(text.contains("\"designs\":1,"), "one design registered: {text}");
}
