//! `restructure-timing` — command-line front end for the flow.
//!
//! ```text
//! restructure-timing gen  --design rocket [--scale small] --out DIR
//! restructure-timing sta  --netlist F.v --placement F.place [--period PS]
//! restructure-timing opt  --netlist F.v --placement F.place --period PS --out DIR
//! restructure-timing flow --design rocket [--scale small]
//! ```
//!
//! `gen` writes a synthetic design as structural Verilog plus a placement
//! file; `sta` re-imports such files and reports sign-off timing; `opt`
//! runs the restructuring optimizer and writes the optimized design back
//! out; `flow` runs the paper's two-flow comparison and prints a Table-I
//! style summary for one design; `serve` exposes a trained model as a
//! fault-tolerant HTTP prediction daemon (see `rtt-serve`).

#![allow(clippy::print_stdout)] // reports/tables go to stdout by design

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use restructure_timing::flow::{run_design_flow, FlowConfig};
use restructure_timing::netlist::{parse_verilog, write_verilog, Netlist};
use restructure_timing::opt::diff_netlists;
use restructure_timing::place::{parse_placement, write_placement, Placement};
use restructure_timing::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return ExitCode::from(2);
    };
    let opts = parse_opts(&args[1..]);
    let result = match cmd.as_str() {
        "gen" => cmd_gen(&opts),
        "sta" => cmd_sta(&opts),
        "opt" => cmd_opt(&opts),
        "flow" => cmd_flow(&opts),
        "train" => cmd_train(&opts),
        "predict" => cmd_predict(&opts),
        "serve" => cmd_serve(&opts),
        "--help" | "-h" | "help" => {
            usage();
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    // Trace export runs even when the command failed (a partial trace is
    // often exactly what's needed to debug the failure), but an export
    // failure turns a successful command into an error exit.
    let result = match (result, emit_traces(&opts)) {
        (Err(e), _) => Err(e),
        (Ok(()), r) => r,
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// Handles `--trace` (human-readable span tree to stderr) and
/// `--trace-out FILE` (JSON trace document).
fn emit_traces(opts: &HashMap<String, String>) -> Result<(), String> {
    if opts.contains_key("trace") {
        eprint!("{}", restructure_timing::obs::snapshot().render_tree());
    }
    if let Some(path) = opts.get("trace-out") {
        if path.is_empty() {
            return Err("missing value for --trace-out".to_owned());
        }
        std::fs::write(path, restructure_timing::obs::snapshot().to_json())
            .map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

fn usage() {
    eprintln!(
        "restructure-timing <command> [options]\n\
         \n\
         commands:\n\
         \x20 gen  --design NAME [--scale tiny|small|paper] [--seed N] --out DIR\n\
         \x20 sta  --netlist FILE.v --placement FILE.place [--period PS]\n\
         \x20 opt  --netlist FILE.v --placement FILE.place --period PS --out DIR\n\
         \x20      [--weights FILE]  (incremental model prediction across the opt)\n\
         \x20 flow --design NAME [--scale tiny|small|paper]\n\
         \x20 train   [--scale S] [--epochs N] --weights FILE\n\
         \x20 predict --netlist FILE.v --placement FILE.place --weights FILE\n\
         \x20 serve   --weights FILE [--addr HOST:PORT] [--workers N]\n\
         \x20         [--netlist FILE.v --placement FILE.place [--name NAME]]\n\
         \n\
         every command also accepts:\n\
         \x20 --trace           print the span tree (counts, wall time, counters) to stderr\n\
         \x20 --trace-out FILE  write the JSON trace document to FILE\n"
    );
}

fn parse_opts(args: &[String]) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            // A following `--flag` is the next option, not this one's value,
            // so value-less flags (`--trace`) compose with valued ones.
            let value = match it.peek() {
                Some(next) if !next.starts_with("--") => it.next().cloned().unwrap_or_default(),
                _ => String::new(),
            };
            out.insert(key.to_owned(), value);
        }
    }
    out
}

fn opt_scale(opts: &HashMap<String, String>) -> Result<Scale, String> {
    match opts.get("scale") {
        None => Ok(Scale::Small),
        Some(s) => s.parse(),
    }
}

fn required<'a>(opts: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    opts.get(key).map(String::as_str).ok_or_else(|| format!("missing --{key}"))
}

fn load_design(
    opts: &HashMap<String, String>,
) -> Result<(CellLibrary, Netlist, Placement), String> {
    let lib = CellLibrary::asap7_like();
    let v_path = required(opts, "netlist")?;
    let p_path = required(opts, "placement")?;
    let v_text = std::fs::read_to_string(v_path).map_err(|e| format!("{v_path}: {e}"))?;
    let netlist = parse_verilog(&v_text, &lib).map_err(|e| format!("{v_path}: {e}"))?;
    let p_text = std::fs::read_to_string(p_path).map_err(|e| format!("{p_path}: {e}"))?;
    let placement = parse_placement(&netlist, &p_text).map_err(|e| format!("{p_path}: {e}"))?;
    Ok((lib, netlist, placement))
}

fn write_design(
    dir: &Path,
    stem: &str,
    netlist: &Netlist,
    library: &CellLibrary,
    placement: &Placement,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let v = dir.join(format!("{stem}.v"));
    std::fs::write(&v, write_verilog(netlist, library))
        .map_err(|e| format!("{}: {e}", v.display()))?;
    let p = dir.join(format!("{stem}.place"));
    std::fs::write(&p, write_placement(netlist, placement))
        .map_err(|e| format!("{}: {e}", p.display()))?;
    println!("wrote {} and {}", v.display(), p.display());
    Ok(())
}

fn cmd_gen(opts: &HashMap<String, String>) -> Result<(), String> {
    let name = required(opts, "design")?;
    let scale = opt_scale(opts)?;
    let out = PathBuf::from(required(opts, "out")?);
    let lib = CellLibrary::asap7_like();
    let mut params = preset(name, scale).ok_or_else(|| {
        format!(
            "unknown design `{name}` (known: {})",
            restructure_timing::circgen::preset_names().join(", ")
        )
    })?;
    if let Some(seed) = opts.get("seed") {
        params.seed = seed.parse().map_err(|e| format!("bad --seed: {e}"))?;
    }
    let design = params.generate(&lib);
    let placement = place(&design.netlist, &lib, design.num_macros, &PlaceConfig::default());
    println!(
        "generated `{name}` at scale {scale}: {} cells, {} nets, {} macros",
        design.netlist.num_cells(),
        design.netlist.num_nets(),
        placement.floorplan().macros.len()
    );
    write_design(&out, name, &design.netlist, &lib, &placement)
}

fn cmd_sta(opts: &HashMap<String, String>) -> Result<(), String> {
    let (lib, netlist, placement) = load_design(opts)?;
    let graph = TimingGraph::build(&netlist, &lib);
    let routing = route(&netlist, &lib, &placement, &RouteConfig::default());
    let period: f32 = match opts.get("period") {
        Some(p) => p.parse().map_err(|e| format!("bad --period: {e}"))?,
        None => {
            let probe = run_sta(&netlist, &lib, &graph, &routing, 1.0);
            probe.max_arrival()
        }
    };
    let report = run_sta(&netlist, &lib, &graph, &routing, period);
    println!(
        "{}: {} endpoints, period {:.1} ps, wns {:.2} ps, tns {:.2} ps",
        netlist.name,
        report.endpoint_arrivals().len(),
        period,
        report.wns,
        report.tns
    );
    let mut worst: Vec<(String, f32)> = report
        .endpoint_arrivals()
        .iter()
        .map(|&(pin, a)| (netlist.pin_name(pin).into_owned(), a))
        .collect();
    worst.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    println!("worst endpoints:");
    for (name, a) in worst.into_iter().take(5) {
        println!("  {name:<24} arrival {a:>10.2} ps  slack {:>10.2} ps", period - a);
    }
    Ok(())
}

fn cmd_opt(opts: &HashMap<String, String>) -> Result<(), String> {
    let (lib, mut netlist, mut placement) = load_design(opts)?;
    let period: f32 =
        required(opts, "period")?.parse().map_err(|e| format!("bad --period: {e}"))?;
    let out = PathBuf::from(required(opts, "out")?);
    let before = netlist.clone();
    let before_placement = placement.clone();
    let report = optimize(&mut netlist, &mut placement, &lib, period);
    let diff = diff_netlists(&before, &netlist, &lib);
    println!(
        "wns {:.1} -> {:.1} ps | {} upsized, {} downsized, {} drv buffers, {} buffers, \
         {} decomposed, {} bypassed | {:.1}% net edges, {:.1}% cell edges replaced",
        report.wns_before,
        report.wns_after,
        report.sizing_ops,
        report.downsize_ops,
        report.drv_buffer_ops,
        report.buffer_ops,
        report.decompose_ops,
        report.bypass_ops,
        diff.net_replaced_fraction() * 100.0,
        diff.cell_replaced_fraction() * 100.0,
    );
    // Optional model-in-the-loop: with --weights, predict the optimized
    // design incrementally from a cache primed on the input design, and
    // check the result against a cold full forward pass.
    if let Some(weights) = opts.get("weights").filter(|w| !w.is_empty()) {
        opt_incremental_report(
            &lib,
            (&before, &before_placement),
            (&netlist, &placement),
            weights,
        )?;
    }
    let stem = format!("{}_opt", netlist.name);
    write_design(&out, &stem, &netlist, &lib, &placement)
}

/// Predicts the optimized design's endpoint arrivals twice — incrementally
/// (refreshing activations cached for the input design) and with a full
/// forward pass — over one cold preparation of it, reporting the reuse
/// ratio and verifying that the predictions agree bit-for-bit.
fn opt_incremental_report(
    lib: &CellLibrary,
    (before, before_placement): (&Netlist, &Placement),
    (after, after_placement): (&Netlist, &Placement),
    weights: &str,
) -> Result<(), String> {
    use restructure_timing::model::{IncrementalCtx, ROWS_RECOMPUTED_COUNTER, ROWS_TOTAL_COUNTER};
    use restructure_timing::nn::InferCtx;

    let model = load_model_file(weights)?;
    let cfg = model.config().clone();
    let prepare = |nl: &Netlist, pl: &Placement| -> Result<PreparedDesign, String> {
        let graph = TimingGraph::try_build(nl, lib).map_err(|e| format!("timing graph: {e}"))?;
        let targets = vec![0.0; graph.endpoints().len()];
        Ok(PreparedDesign::prepare(nl, lib, pl, &graph, &cfg, targets))
    };
    let prep_before = prepare(before, before_placement)?;
    let prep_after = prepare(after, after_placement)?;

    let counters_at =
        |key: &str| restructure_timing::obs::snapshot().counters.get(key).copied().unwrap_or(0);

    let ctx = InferCtx::new();
    let mut inc = IncrementalCtx::new();
    // Prime the cache on the input design: a new context's base is empty,
    // so this refresh computes every row.
    let all_before: Vec<u32> = (0..prep_before.num_endpoints() as u32).collect();
    let _ = model.predict_incremental(&ctx, &mut inc, &prep_before, &[], &all_before);

    let all_after: Vec<u32> = (0..prep_after.num_endpoints() as u32).collect();
    let (rows0, total0) = (counters_at(ROWS_RECOMPUTED_COUNTER), counters_at(ROWS_TOTAL_COUNTER));
    let t0 = std::time::Instant::now();
    let inc_pred = model.predict_incremental(&ctx, &mut inc, &prep_after, &[], &all_after);
    let inc_s = t0.elapsed().as_secs_f64();
    let rows = counters_at(ROWS_RECOMPUTED_COUNTER) - rows0;
    let total = counters_at(ROWS_TOTAL_COUNTER) - total0;

    let t1 = std::time::Instant::now();
    let full_pred = model.predict_batch(&ctx, &prep_after, &all_after);
    let full_s = t1.elapsed().as_secs_f64();
    let identical = inc_pred.len() == full_pred.len()
        && inc_pred.iter().zip(&full_pred).all(|(a, b)| a.to_bits() == b.to_bits());
    println!(
        "incremental predict: {rows}/{total} rows recomputed, {:.1} ms vs {:.1} ms full",
        inc_s * 1e3,
        full_s * 1e3,
    );
    if !identical {
        return Err("incremental prediction diverged from the full forward pass".to_owned());
    }
    println!("incremental prediction is bit-identical to the full forward pass");
    Ok(())
}

/// The model architecture `train` uses at each scale.
fn model_config_for(scale: Scale) -> ModelConfig {
    match scale {
        Scale::Tiny => ModelConfig::tiny(),
        // `Huge` scales the circuits, not the model: it exists for
        // preparation benchmarks, which are architecture-independent.
        Scale::Small | Scale::Huge => ModelConfig::small(),
        Scale::Paper => ModelConfig::paper(),
    }
}

fn cmd_train(opts: &HashMap<String, String>) -> Result<(), String> {
    let scale = opt_scale(opts)?;
    let weights_path = PathBuf::from(required(opts, "weights")?);
    let epochs: usize = opts
        .get("epochs")
        .map(|e| e.parse().map_err(|e| format!("bad --epochs: {e}")))
        .transpose()?
        .unwrap_or(match scale {
            Scale::Tiny => 60,
            _ => 300,
        });
    eprintln!("generating the training dataset at scale {scale} (two full flows per design) ...");
    let dataset = Dataset::generate(&FlowConfig { scale });
    let cfg = model_config_for(scale);
    let train: Vec<PreparedDesign> =
        dataset.train_designs().iter().map(|d| d.prepared(&dataset.library, &cfg)).collect();
    let mut model = TimingModel::new(cfg.clone());
    eprintln!("training {} parameters for {epochs} epochs ...", model.num_parameters());
    let log = model
        .train(&train, &TrainConfig { epochs, lr: 2e-3, log_every: 25, ..TrainConfig::default() });
    eprintln!("final training loss {:.5}", log.final_loss());
    for d in dataset.test_designs() {
        let prep = d.prepared(&dataset.library, &cfg);
        let r2 = restructure_timing::flow::r2_score(&model.predict(&prep), &d.endpoint_targets());
        println!("held-out {:<10} R² = {r2:.4}", d.name);
    }
    // The versioned container (magic + config + checksum) rather than the
    // raw weight blob: `predict`/`serve` recover the architecture from the
    // file itself, and corruption is caught with a typed error instead of
    // a shape mismatch deep in the loader.
    std::fs::write(&weights_path, restructure_timing::model::model_io::save_model(&model))
        .map_err(|e| format!("{}: {e}", weights_path.display()))?;
    println!("wrote weights to {}", weights_path.display());
    Ok(())
}

/// Loads a model file written by `train`: the versioned `RTTM`
/// container, which carries its own architecture.
fn load_model_file(path: &str) -> Result<TimingModel, String> {
    let blob = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    restructure_timing::model::model_io::load_model(&blob).map_err(|e| format!("{path}: {e}"))
}

fn cmd_predict(opts: &HashMap<String, String>) -> Result<(), String> {
    let (lib, netlist, placement) = load_design(opts)?;
    let model = load_model_file(required(opts, "weights")?)?;
    let cfg = model.config().clone();

    let graph = TimingGraph::build(&netlist, &lib);
    let prep = PreparedDesign::prepare(
        &netlist,
        &lib,
        &placement,
        &graph,
        &cfg,
        vec![0.0; graph.endpoints().len()],
    );
    let t0 = std::time::Instant::now();
    let pred = model.predict(&prep);
    let secs = t0.elapsed().as_secs_f64();
    println!("endpoint\tpredicted_arrival_ps");
    for (&v, p) in graph.endpoints().iter().zip(&pred) {
        println!("{}\t{p:.2}", netlist.pin_name(graph.pin_of(v)));
    }
    eprintln!(
        "predicted {} endpoints in {secs:.3} s ({:.0} endpoints/s, tape-free)",
        pred.len(),
        pred.len() as f64 / secs.max(1e-9)
    );
    Ok(())
}

/// `serve` — run the fault-tolerant prediction daemon until a client
/// POSTs `/shutdown` (or the process is killed). Designs can be seeded
/// from the command line and added at runtime via `POST /load`; fault
/// injection is enabled by the `RTT_FAULTS` environment variable.
fn cmd_serve(opts: &HashMap<String, String>) -> Result<(), String> {
    use restructure_timing::serve::{FaultPlan, ServeConfig, Server};

    let weights_path = required(opts, "weights")?;
    let model = load_model_file(weights_path)?;

    let mut designs = Vec::new();
    if opts.contains_key("netlist") {
        let (_, netlist, placement) = load_design(opts)?;
        let name = match opts.get("name") {
            Some(n) if !n.is_empty() => n.clone(),
            _ => netlist.name.clone(),
        };
        designs.push((name, netlist, placement));
    }

    let mut serve_cfg = ServeConfig {
        weights_path: Some(PathBuf::from(weights_path)),
        faults: FaultPlan::from_env(),
        ..ServeConfig::default()
    };
    if let Some(addr) = opts.get("addr") {
        if !addr.is_empty() {
            serve_cfg.addr = addr.clone();
        }
    }
    if let Some(workers) = opts.get("workers") {
        serve_cfg.workers = workers.parse().map_err(|e| format!("bad --workers: {e}"))?;
    }
    if serve_cfg.faults.active() {
        eprintln!("fault injection active (RTT_FAULTS)");
    }

    let names: Vec<String> = designs.iter().map(|(name, ..)| name.clone()).collect();
    let mut server = Server::start(serve_cfg, model, designs).map_err(|e| format!("serve: {e}"))?;
    for name in names {
        println!("registered design `{name}`");
    }
    println!("serving on http://{}/ (POST /shutdown to stop)", server.addr());
    while !server.shutdown_requested() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let report = server.shutdown();
    println!(
        "drained: {} requests, {} endpoints predicted, {} reload(s), {} queue rejection(s)",
        report.stats.requests,
        report.stats.endpoints_predicted,
        report.stats.reloads_ok,
        report.stats.queue_rejections
    );
    Ok(())
}

fn cmd_flow(opts: &HashMap<String, String>) -> Result<(), String> {
    let name = required(opts, "design")?;
    let scale = opt_scale(opts)?;
    let lib = CellLibrary::asap7_like();
    let params = preset(name, scale).ok_or_else(|| format!("unknown design `{name}`"))?;
    let data = run_design_flow(&params, &lib);
    println!(
        "{name}: {} pins, {} endpoints, period {:.1} ps",
        data.input_netlist.num_pins(),
        data.input_graph.endpoints().len(),
        data.clock_period_ps
    );
    println!("  without opt: wns {:.1} ps, tns {:.1} ps", data.no_opt.wns, data.no_opt.tns);
    println!(
        "  with opt:    wns {:.1} ps, tns {:.1} ps ({} ops, {:.1}s opt / {:.1}s route / {:.1}s sta)",
        data.signoff.wns,
        data.signoff.tns,
        data.opt_report.total_ops(),
        data.timings.opt_s,
        data.timings.route_s,
        data.timings.sta_s,
    );
    println!(
        "  replaced: {:.1}% net edges, {:.1}% cell edges",
        data.diff.net_replaced_fraction() * 100.0,
        data.diff.cell_replaced_fraction() * 100.0
    );
    Ok(())
}
