//! The chaos suite: every fault mode at once, and the daemon must not
//! care.
//!
//! Invariants asserted here (the PR's acceptance bar):
//! * no worker panics (`worker_panics == 0` on the final snapshot);
//! * no stuck worker — the daemon keeps answering after the storm and
//!   shuts down (drains and joins) within a watchdog budget;
//! * every byte a client receives is a well-formed HTTP/1.1 response
//!   prefix — truncation by injected disconnect is legal, garbage is
//!   not;
//! * a corrupt hot-reload is refused and the old model keeps serving;
//! * predictions over HTTP are **bit-identical** to the library path
//!   before, during, and after the storm.
//!
//! Set `RTT_CHAOS_SECS=30` to soak: the storm loops until the clock
//! runs out (nightly CI does this).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rtt_circgen::ripple_carry_adder;
use rtt_core::model_io::save_model;
use rtt_core::{ModelConfig, PreparedDesign, TimingModel};
use rtt_netlist::{CellLibrary, Netlist, TimingGraph};
use rtt_nn::InferCtx;
use rtt_place::{place, PlaceConfig, Placement};
use rtt_serve::{FaultMode, FaultSpec, ServeConfig, Server};

/// A small but non-trivial design plus a deterministic model.
/// The model, its library-path prediction bits over every endpoint, and
/// the design's sources, which the daemon prepares itself.
fn fixture() -> (TimingModel, Vec<u32>, Netlist, Placement) {
    let lib = CellLibrary::asap7_like();
    let nl = ripple_carry_adder(8, &lib);
    let pl = place(&nl, &lib, 0, &PlaceConfig::default());
    let graph = TimingGraph::build(&nl, &lib);
    let cfg = ModelConfig::tiny();
    let targets = vec![0.0f32; graph.endpoints().len()];
    let prep = PreparedDesign::prepare(&nl, &lib, &pl, &graph, &cfg, targets);
    let model = TimingModel::new(cfg);
    let all: Vec<u32> = (0..prep.num_endpoints() as u32).collect();
    let expected = model.predict_batch(&InferCtx::new(), &prep, &all);
    (model, expected.iter().map(|p| p.to_bits()).collect(), nl, pl)
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rtt-serve-chaos-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

/// What one HTTP exchange produced from the client's point of view.
enum Exchange {
    /// Full response: status plus body (exactly `Content-Length` bytes).
    Complete(u16, Vec<u8>),
    /// The connection died early; whatever prefix arrived was verified
    /// to look like an HTTP response (or nothing arrived at all).
    Died,
}

/// Sends raw bytes, reads the response, and enforces the "well-formed
/// or clean close" contract on whatever comes back.
fn exchange(addr: SocketAddr, raw: &[u8]) -> Exchange {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return Exchange::Died;
    };
    let timeout = Some(Duration::from_millis(2_000));
    if stream.set_read_timeout(timeout).is_err() || stream.set_write_timeout(timeout).is_err() {
        return Exchange::Died;
    }
    if stream.write_all(raw).is_err() {
        // The server may have closed mid-upload (injected disconnect);
        // fall through and still try to read what it said.
    }
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let complete = loop {
        if let Some((status, head_len, body_len)) = response_head(&buf) {
            if buf.len() >= head_len + body_len {
                break Some((status, buf[head_len..head_len + body_len].to_vec()));
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => break None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => break None,
        }
    };
    // The contract: anything the daemon sent must be an HTTP response
    // prefix. Arbitrary garbage or a non-HTTP byte stream is a failure
    // even when the connection died before the response finished.
    if !buf.is_empty() {
        let head = b"HTTP/1.1 ";
        let check = buf.len().min(head.len());
        assert_eq!(
            &buf[..check],
            &head[..check],
            "daemon sent a non-HTTP prefix: {:?}",
            String::from_utf8_lossy(&buf[..buf.len().min(64)])
        );
    }
    match complete {
        Some((status, body)) => Exchange::Complete(status, body),
        None => Exchange::Died,
    }
}

/// Parses a response head: (status, head bytes, declared body bytes).
fn response_head(buf: &[u8]) -> Option<(u16, usize, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let body_len = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())?;
    Some((status, head_end, body_len))
}

fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").into_bytes()
}

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Parses a 200 `/predict` body into prediction bits.
fn parse_predict(body: &[u8]) -> Vec<u32> {
    let text = std::str::from_utf8(body).expect("predict body is utf-8");
    let mut lines = text.lines();
    let n: usize = lines
        .next()
        .and_then(|l| l.strip_prefix("n="))
        .and_then(|v| v.parse().ok())
        .expect("n= line");
    lines.next().and_then(|l| l.strip_prefix("generation=")).expect("generation= line");
    let preds: Vec<u32> = lines.map(|l| l.parse::<f32>().expect("float line").to_bits()).collect();
    assert_eq!(preds.len(), n, "body line count matches n=");
    preds
}

/// Retries an exchange until a complete response with `status` arrives
/// (fault injection can kill any individual attempt).
fn until_complete(addr: SocketAddr, raw: &[u8], status: u16, tries: usize) -> Vec<u8> {
    for _ in 0..tries {
        if let Exchange::Complete(got, body) = exchange(addr, raw) {
            if got == status {
                return body;
            }
        }
    }
    panic!("no complete {status} response after {tries} attempts");
}

#[test]
fn chaos_storm_never_panics_never_wedges_and_stays_bit_identical() {
    let (model, expected, nl, pl) = fixture();

    let dir = tmpdir("storm");
    let weights = dir.join("model.rttm");
    std::fs::write(&weights, save_model(&model)).expect("write weights");

    let cfg = ServeConfig {
        workers: 4,
        queue_capacity: 8,
        deadline_ms: 1_500,
        io_timeout_ms: 100,
        weights_path: Some(weights),
        faults: FaultSpec::new(0xC4A05)
            .mode(FaultMode::ShortRead, 0.10)
            .mode(FaultMode::ShortWrite, 0.10)
            .mode(FaultMode::Disconnect, 0.05)
            .mode(FaultMode::Stall, 0.05)
            .mode(FaultMode::QueueFull, 0.10)
            .mode(FaultMode::CorruptReload, 0.50)
            .stall_ms(5)
            .build(),
        ..ServeConfig::default()
    };
    let mut server =
        Server::start(cfg, model, vec![("rca8".to_owned(), nl, pl)]).expect("daemon starts");
    let addr = server.addr();

    // Before the storm: HTTP answers must match the library bit-for-bit.
    let body = until_complete(addr, &post("/predict", "design=rca8\n"), 200, 200);
    assert_eq!(parse_predict(&body), expected, "pre-chaos bit-identity");

    let soak_secs: u64 =
        std::env::var("RTT_CHAOS_SECS").ok().and_then(|v| v.parse().ok()).unwrap_or(0);
    let storm_until = Instant::now() + Duration::from_secs(soak_secs.max(1));
    let matched = Arc::new(AtomicU64::new(0));
    loop {
        let handles: Vec<_> = (0..8)
            .map(|client| {
                let expected = expected.clone();
                let matched = Arc::clone(&matched);
                std::thread::spawn(move || {
                    for round in 0..12 {
                        let pick = (client * 31 + round * 7) % 10;
                        match pick {
                            0..=2 => {
                                // /predict under fire: any COMPLETE 200
                                // must carry bit-exact predictions.
                                let raw = post("/predict", "design=rca8\n");
                                if let Exchange::Complete(200, body) = exchange(addr, &raw) {
                                    assert_eq!(
                                        parse_predict(&body),
                                        expected,
                                        "mid-chaos bit-identity"
                                    );
                                    matched.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            3 => {
                                let raw = post("/predict", "design=rca8\nindices=0,3,1\n");
                                if let Exchange::Complete(200, body) = exchange(addr, &raw) {
                                    let got = parse_predict(&body);
                                    let want = [expected[0], expected[3], expected[1]];
                                    assert_eq!(got, want, "subset bit-identity");
                                }
                            }
                            4 => drop(exchange(addr, &get("/stats"))),
                            5 => drop(exchange(addr, &get("/healthz"))),
                            6 => {
                                // Hot-reload under fire; half the reads
                                // come back corrupted and must be refused
                                // without disturbing serving.
                                drop(exchange(addr, &post("/reload", "")));
                            }
                            7 => {
                                // Malformed request: typed 4xx, no panic.
                                drop(exchange(addr, b"NOT HTTP AT ALL\r\n\r\n"));
                            }
                            8 => {
                                // Client gives up mid-request.
                                if let Ok(mut s) = TcpStream::connect(addr) {
                                    drop(s.write_all(b"POST /predict HTTP/1.1\r\nContent-Le"));
                                }
                            }
                            _ => {
                                // Connection burst against the bounded
                                // queue; rejects must be clean 503s.
                                let conns: Vec<_> =
                                    (0..6).filter_map(|_| TcpStream::connect(addr).ok()).collect();
                                drop(conns);
                            }
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
        if Instant::now() >= storm_until {
            break;
        }
    }
    assert!(
        matched.load(Ordering::Relaxed) > 0,
        "at least one full /predict must survive the storm"
    );

    // After the storm: the daemon still answers (no stuck worker), the
    // model is still generation-consistent, and predictions still match.
    let body = until_complete(addr, &get("/healthz"), 200, 200);
    assert_eq!(body, b"ok\n");
    let body = until_complete(addr, &post("/predict", "design=rca8\n"), 200, 200);
    assert_eq!(parse_predict(&body), expected, "post-chaos bit-identity");
    let stats = until_complete(addr, &get("/stats"), 200, 200);
    let doc = rtt_obs::json::Value::parse(std::str::from_utf8(&stats).expect("utf-8"))
        .expect("stats is valid json");
    assert_eq!(
        doc.get("worker_panics"),
        Some(&rtt_obs::json::Value::Num("0".into())),
        "no worker may panic under chaos: {doc}"
    );

    // Graceful shutdown must drain and join within the watchdog budget.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let report = server.shutdown();
        drop(tx.send(report));
    });
    let report = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("shutdown drained and joined (no wedged worker)");
    assert_eq!(report.stats.worker_panics, 0);
    drop(std::fs::remove_dir_all(dir));
}

#[test]
fn corrupt_hot_reload_keeps_the_old_model_serving() {
    let (model, expected, nl, pl) = fixture();
    let dir = tmpdir("reload");
    let weights = dir.join("model.rttm");
    std::fs::write(&weights, save_model(&model)).expect("write weights");

    // Every reload read comes back corrupted.
    let cfg = ServeConfig {
        weights_path: Some(weights),
        faults: FaultSpec::new(11).mode(FaultMode::CorruptReload, 1.0).build(),
        ..ServeConfig::default()
    };
    let mut server =
        Server::start(cfg, model, vec![("d".to_owned(), nl, pl)]).expect("daemon starts");
    let addr = server.addr();

    for _ in 0..3 {
        let body = until_complete(addr, &post("/reload", ""), 422, 50);
        let text = String::from_utf8_lossy(&body);
        assert!(text.contains("rejected"), "typed rejection, got: {text}");
    }

    // The old model never stopped serving, bit-for-bit.
    let body = until_complete(addr, &post("/predict", ""), 200, 50);
    assert_eq!(parse_predict(&body), expected, "old model keeps serving after corrupt reloads");

    // And /stats reports the failure for operators.
    let stats = until_complete(addr, &get("/stats"), 200, 50);
    let doc = rtt_obs::json::Value::parse(std::str::from_utf8(&stats).expect("utf-8"))
        .expect("stats json");
    assert_eq!(doc.get("reloads_ok"), Some(&rtt_obs::json::Value::Num("0".into())));
    assert_eq!(doc.get("generation"), Some(&rtt_obs::json::Value::Num("1".into())));
    match doc.get("reloads_failed") {
        Some(rtt_obs::json::Value::Num(n)) => {
            assert!(n.parse::<u64>().expect("number") >= 3, "reloads_failed={n}")
        }
        other => panic!("reloads_failed missing: {other:?}"),
    }
    assert!(
        matches!(doc.get("last_reload_error"), Some(rtt_obs::json::Value::Str(_))),
        "last_reload_error must carry the typed error"
    );

    server.shutdown();
    drop(std::fs::remove_dir_all(dir));
}
