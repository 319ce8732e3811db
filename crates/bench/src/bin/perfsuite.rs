//! Workspace performance suite.
//!
//! Times the two workloads that fan out across threads — dataset
//! generation (one design per item) and a training epoch (one design's
//! forward/backward pass per item) — with one thread and with all
//! available cores, then writes the results to `BENCH_PR10.json` in the
//! current directory (and prints them). The kernels underneath are
//! serial, and both workloads are bit-identical across thread counts, so
//! this suite measures speed only. Each side of a ratio (serial against
//! parallel, taped against tape-free, full against incremental, batched
//! against one endpoint per call) is timed in alternating reps and
//! reported as its own median, so both sides see the same host state. A
//! `lint` section records the wall time of the full rtt-lint workspace
//! pass (parse + call graph + reachability).
//!
//! The training row times several epochs per rep, so that each design's
//! tape arena is reused, and reports seconds per epoch. A `training`
//! section records the bytes the arenas grow by in the first epoch and in
//! the epochs after it. A `masks` section records the endpoint masks of
//! jpeg at small and huge scale as stored (row runs) under
//! `ModelConfig::small()`: runs, set bins and heap bytes.
//!
//! Every bound the suite checks on a measured figure is a gate: each one's
//! name, value, bound and result go into the `gates` list, and the suite
//! exits nonzero after writing the file if any gate failed. Bit-equality
//! checks panic at once.
//!
//! The report also contains a `stages` section: the rtt-obs span breakdown
//! (wall time, call counts, counters) of one instrumented end-to-end pass —
//! circuit generation through placement, routing, STA, feature extraction,
//! and a training epoch (forward, backward, optimizer step).
//!
//! An `inference` section compares the tape-free serving path
//! (`TimingModel::predict_with` on a persistent `InferCtx` arena) against
//! the tape-backed reference (`predict_taped`): endpoints/sec for both,
//! the speedup, and bytes allocated per pass by each backend, read from
//! one untimed pass each. It also gates `predict_batch` over every
//! endpoint against one call per endpoint over the first 16: batching
//! shares one GNN+CNN pass, so its endpoints/sec must be at least the
//! single-endpoint rate.
//!
//! An `incremental` section sweeps `TimingModel::predict_incremental` over
//! dirty-cone sizes (~5%, ~20%, ~50% of pins, seeds chosen via rtt-sta's
//! `fanout_cone`): wall time and speedup versus the full `predict_batch`
//! pass, plus the rows-recomputed counters that prove how much of the GNN
//! each cone actually redid. The ≤10%-dirty row must clear a 4x speedup.
//!
//! A `prepare` section measures the preparation pipeline: cold
//! `PreparedDesign::prepare` pins/sec per circgen tier (including the
//! `huge` preset tier, where preparation dominates the flow), the two
//! `/load` parsers (`parse_verilog`, `parse_placement`) on jpeg's written
//! text at small and huge scale, and the
//! transform→predict round trip after a buffer insertion: a cold prepare
//! plus `predict_incremental` over an activation cache that holds the
//! design on the other side of the transform (the reps cross it in both
//! directions), against a cold prepare plus a full `predict_batch`. The
//! incremental round trip must clear a 3x speedup.

#![allow(clippy::print_stdout)] // reports/tables go to stdout by design

use std::time::Instant;

use rtt_circgen::{GenParams, Scale};
use rtt_core::{IncrementalCtx, ModelConfig, PreparedDesign, TimingModel, TrainConfig};
use rtt_features::endpoint_masks;
use rtt_flow::{Dataset, FlowConfig};
use rtt_netlist::{parse_verilog, write_verilog, CellLibrary, PinId, TimingGraph};
use rtt_nn::{parallel, InferCtx};
use rtt_place::{parse_placement, place, write_placement, PlaceConfig};
use rtt_route::{route, RouteConfig};
use rtt_sta::{fanout_cone, run_sta};

/// Wall-clock seconds of one call of `f`.
fn time_once<R>(f: &mut impl FnMut() -> R) -> f64 {
    let t = Instant::now();
    std::hint::black_box(f());
    t.elapsed().as_secs_f64()
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median wall-clock seconds over `reps` runs of `f`.
fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    median((0..reps.max(1)).map(|_| time_once(&mut f)).collect())
}

/// Times the two sides of a ratio in alternating reps — `a`, then `b`, in
/// each of `reps` — so both see the same host state, and returns each
/// side's median seconds.
fn time_pair<A, B>(reps: usize, mut a: impl FnMut() -> A, mut b: impl FnMut() -> B) -> (f64, f64) {
    let (mut sa, mut sb) = (Vec::new(), Vec::new());
    for _ in 0..reps.max(1) {
        sa.push(time_once(&mut a));
        sb.push(time_once(&mut b));
    }
    (median(sa), median(sb))
}

struct Row {
    name: &'static str,
    serial_s: f64,
    parallel_s: f64,
}

/// A bound on a measured figure: `value` must be `rule` `bound`.
struct Gate {
    name: &'static str,
    value: f64,
    rule: &'static str,
    bound: f64,
    passed: bool,
}

impl Gate {
    fn at_least(name: &'static str, value: f64, bound: f64) -> Self {
        Self { name, value, rule: ">=", bound, passed: value >= bound }
    }

    fn below(name: &'static str, value: f64, bound: f64) -> Self {
        Self { name, value, rule: "<", bound, passed: value < bound }
    }

    fn at_most(name: &'static str, value: f64, bound: f64) -> Self {
        Self { name, value, rule: "<=", bound, passed: value <= bound }
    }
}

impl Row {
    fn speedup(&self) -> f64 {
        self.serial_s / self.parallel_s.max(1e-12)
    }
}

/// Times one workload with 1 thread and with all cores, in alternating
/// reps, in seconds per each of the `ops` operations one call of `f` runs.
fn serial_vs_parallel<R>(
    name: &'static str,
    cores: usize,
    reps: usize,
    ops: usize,
    f: impl Fn() -> R,
) -> Row {
    let (serial_s, parallel_s) = time_pair(
        reps,
        || {
            parallel::set_num_threads(1);
            f()
        },
        || {
            parallel::set_num_threads(cores);
            f()
        },
    );
    parallel::set_num_threads(1);
    let row = Row { name, serial_s: serial_s / ops as f64, parallel_s: parallel_s / ops as f64 };
    println!(
        "{:<22} serial {:>9.4}s  parallel {:>9.4}s  speedup {:>5.2}x",
        row.name,
        row.serial_s,
        row.parallel_s,
        row.speedup()
    );
    row
}

fn prepare_design(cells: usize, seed: u64, cfg: &ModelConfig, lib: &CellLibrary) -> PreparedDesign {
    let d = GenParams::new(format!("perf{seed}"), cells, seed).generate(lib);
    let pl = place(&d.netlist, lib, 0, &PlaceConfig::default());
    let rt = route(&d.netlist, lib, &pl, &RouteConfig::default());
    let graph = TimingGraph::build(&d.netlist, lib);
    let sta = run_sta(&d.netlist, lib, &graph, &rt, 500.0);
    let targets = sta.endpoint_arrivals().iter().map(|&(_, a)| a).collect();
    PreparedDesign::prepare(&d.netlist, lib, &pl, &graph, cfg, targets)
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("perfsuite: {cores} core(s) available");

    let mut rows = Vec::new();
    let lib = CellLibrary::asap7_like();

    // 1. Dataset generation: ten tiny designs through both flows, fanned
    //    out one design per thread. A generation takes only 20-30 ms, so
    //    the row takes the median of 15 reps per side.
    let flow_cfg = FlowConfig { scale: Scale::Tiny };
    rows.push(serial_vs_parallel("dataset_generate", cores, 15, 1, || {
        Dataset::generate(&flow_cfg)
    }));

    // 2. Training over four 2000-cell designs (per-design gradient
    //    fan-out). A rep runs several epochs, so every design's tape arena
    //    is filled once and then reused, as in a real run; the row is
    //    seconds per epoch.
    let cfg = ModelConfig::small();
    let designs: Vec<PreparedDesign> =
        (0..4).map(|s| prepare_design(2000, 100 + s, &cfg, &lib)).collect();
    let train_epochs = 4;
    let train = |epochs| {
        TimingModel::new(cfg.clone())
            .train(&designs, &TrainConfig { epochs, ..TrainConfig::default() })
    };
    rows.push(serial_vs_parallel("train_epoch_4x2000", cores, 3, train_epochs, || {
        train(train_epochs)
    }));
    let arena_bytes = |epochs| {
        rtt_obs::reset();
        train(epochs);
        rtt_obs::snapshot().counters.get("nn::tape_arena_bytes").copied().unwrap_or(0)
    };
    let arena_first = arena_bytes(1);
    let arena_later = arena_bytes(train_epochs) - arena_first;
    println!(
        "{:<22} tape arenas grew {arena_first} B in the first epoch, {arena_later} B in the \
         next {}",
        "",
        train_epochs - 1
    );
    let mut gates =
        vec![Gate::at_most("train_arena_bytes_after_first_epoch", arena_later as f64, 0.0)];

    // Inference: tape-free serving vs the tape-backed reference on a
    // 2000-cell design. One InferCtx persists across passes, so
    // steady-state passes should allocate (nearly) nothing; the tape
    // re-appends every pass.
    let gnn_design = prepare_design(2000, 21, &cfg, &lib);
    let gnn_model = TimingModel::new(cfg.clone());
    let infer_reps = 7;
    let n_ep = gnn_design.num_endpoints();
    let ctx = InferCtx::new();
    // Warm the arena. Bytes per pass come from one untimed pass per side:
    // the timed reps alternate the sides, so their counters would mix.
    let _ = gnn_model.predict_with(&ctx, &gnn_design);
    let counter = |key: &str| rtt_obs::snapshot().counters.get(key).copied().unwrap_or(0);
    rtt_obs::reset();
    let _ = gnn_model.predict_taped(&gnn_design);
    let tape_bytes = counter("nn::tape_bytes");
    rtt_obs::reset();
    let _ = gnn_model.predict_with(&ctx, &gnn_design);
    let arena_growth = counter("nn::infer_arena_bytes");
    let (taped_s, infer_s) = time_pair(
        infer_reps,
        || gnn_model.predict_taped(&gnn_design),
        || gnn_model.predict_with(&ctx, &gnn_design),
    );
    let arena_resident = ctx.arena_bytes();
    let infer_speedup = taped_s / infer_s.max(1e-12);
    println!(
        "\ninference ({n_ep} endpoints):\n\
         {:<22} {:>9.4}s  {:>10.0} ep/s  {:>12} bytes/pass\n\
         {:<22} {:>9.4}s  {:>10.0} ep/s  {:>12} bytes/pass ({} resident)\n\
         {:<22} {infer_speedup:>8.2}x",
        "tape-backed",
        taped_s,
        n_ep as f64 / taped_s.max(1e-12),
        tape_bytes,
        "tape-free",
        infer_s,
        n_ep as f64 / infer_s.max(1e-12),
        arena_growth,
        arena_resident,
        "speedup"
    );
    gates.push(Gate::below(
        "inference_arena_growth_below_tape_bytes",
        arena_growth as f64,
        tape_bytes as f64,
    ));
    // Batching shares one GNN+CNN pass across a call's endpoints, so
    // `predict_batch` over every endpoint must beat one call per endpoint
    // in endpoints/s. The single-endpoint side calls the first
    // `single_calls` endpoints, each paying a full pass.
    let single_calls = 16.min(n_ep);
    let all_eps: Vec<u32> = (0..n_ep as u32).collect();
    let (batched_s, single_s) = time_pair(
        5,
        || gnn_model.predict_batch(&ctx, &gnn_design, &all_eps),
        || {
            for i in 0..single_calls as u32 {
                std::hint::black_box(gnn_model.predict_batch(&ctx, &gnn_design, &[i]));
            }
        },
    );
    let batched_eps = n_ep as f64 / batched_s.max(1e-12);
    let single_eps = single_calls as f64 / single_s.max(1e-12);
    println!(
        "{:<22} {batched_eps:>10.0} ep/s batched, {single_eps:>10.0} ep/s one endpoint per call \
         ({single_calls} calls)",
        ""
    );
    gates.push(Gate::at_least(
        "batched_inference_beats_single_endpoint",
        batched_eps / single_eps.max(1e-12),
        1.0,
    ));

    // Incremental inference: dirty-cone `predict_incremental` against the
    // full `predict_batch` pass on the same design, in alternating reps.
    // The design never changes, so the refresh's row compare finds
    // nothing; the seed pins passed as `dirty_pins` force the cones
    // instead. They are chosen so their fan-out cone (per rtt-sta's
    // `fanout_cone`) covers ~5% / ~20% / ~50% of pins; every rep forces
    // the same cone, so each timed call pays that cone's GNN recompute,
    // the CNN global map (which every refresh recomputes), and the
    // readout tail of every requested endpoint.
    let inc_d = GenParams::new("perfinc".to_owned(), 2000, 55).generate(&lib);
    let inc_pl = place(&inc_d.netlist, &lib, 0, &PlaceConfig::default());
    let inc_rt = route(&inc_d.netlist, &lib, &inc_pl, &RouteConfig::default());
    let inc_graph = TimingGraph::build(&inc_d.netlist, &lib);
    let inc_sta = run_sta(&inc_d.netlist, &lib, &inc_graph, &inc_rt, 500.0);
    let inc_targets = inc_sta.endpoint_arrivals().iter().map(|&(_, a)| a).collect();
    let inc_prep =
        PreparedDesign::prepare(&inc_d.netlist, &lib, &inc_pl, &inc_graph, &cfg, inc_targets);
    let inc_pins = inc_graph.num_nodes();
    let inc_eps: Vec<u32> = (0..inc_prep.num_endpoints() as u32).collect();
    let mut inc = IncrementalCtx::new();
    let _ = gnn_model.predict_incremental(&ctx, &mut inc, &inc_prep, &[], &inc_eps); // prime cache
    println!("\nincremental inference ({} endpoints, {inc_pins} pins):", inc_eps.len());
    // Score candidate seeds by their individual cone size and union
    // smallest-first: one high-fanout root (a PI or clock buffer) would
    // otherwise blanket most of the design and every target fraction
    // would collapse to the same near-full dirty set.
    let mut inc_candidates: Vec<(usize, u32)> =
        (0..inc_pins as u32).step_by(3).map(|v| (fanout_cone(&inc_graph, &[v]).len(), v)).collect();
    inc_candidates.sort_unstable();
    #[allow(clippy::type_complexity)]
    let mut inc_rows: Vec<(f64, usize, u64, u64, u64, u64, f64, f64, f64)> = Vec::new();
    for &target in &[0.05f64, 0.20, 0.50] {
        // Grow the seed set until the union fan-out cone covers the
        // target fraction of pins. Mid-sized cones (at most half the
        // target, largest first) model a real transform site; the
        // tiniest cones sit right at the endpoints and would skew the
        // dirty set toward pure readout-tail work.
        let want = (target * inc_pins as f64).ceil() as usize;
        let cone_cap = (want / 2).max(4);
        let mut seed_nodes: Vec<u32> = Vec::new();
        for &(_, v) in inc_candidates.iter().filter(|&&(c, _)| c <= cone_cap).rev() {
            seed_nodes.push(v);
            if fanout_cone(&inc_graph, &seed_nodes).len() >= want {
                break;
            }
        }
        let seed_pins: Vec<PinId> = seed_nodes.iter().map(|&v| inc_graph.pin_of(v)).collect();
        rtt_obs::reset();
        let probe = gnn_model.predict_incremental(&ctx, &mut inc, &inc_prep, &seed_pins, &inc_eps);
        let counters = rtt_obs::snapshot().counters;
        let recomputed = counters.get(rtt_core::ROWS_RECOMPUTED_COUNTER).copied().unwrap_or(0);
        let total = counters.get(rtt_core::ROWS_TOTAL_COUNTER).copied().unwrap_or(0);
        let eps_reused = counters.get(rtt_core::EPS_REUSED_COUNTER).copied().unwrap_or(0);
        let eps_total = counters.get(rtt_core::EPS_TOTAL_COUNTER).copied().unwrap_or(0);
        let full_ref = gnn_model.predict_batch(&ctx, &inc_prep, &inc_eps);
        assert!(
            probe.len() == full_ref.len()
                && probe.iter().zip(&full_ref).all(|(a, b)| a.to_bits() == b.to_bits()),
            "incremental diverged from full predict_batch at cone fraction {target}"
        );
        let (full_s, inc_s) = time_pair(
            infer_reps,
            || gnn_model.predict_batch(&ctx, &inc_prep, &inc_eps),
            || gnn_model.predict_incremental(&ctx, &mut inc, &inc_prep, &seed_pins, &inc_eps),
        );
        let speedup = full_s / inc_s.max(1e-12);
        let dirty_frac = recomputed as f64 / total.max(1) as f64;
        println!(
            "  cone ~{:>2.0}%  {:>4} seeds  {recomputed:>6}/{total} rows recomputed \
             ({:>5.1}% dirty)  {eps_reused}/{eps_total} eps reused  full {full_s:>7.4}s  \
             incremental {inc_s:>7.4}s  speedup {speedup:>5.2}x",
            target * 100.0,
            seed_nodes.len(),
            dirty_frac * 100.0
        );
        if dirty_frac <= 0.10 {
            // The bound is a target the suite does not reach yet: six
            // runs on a 2-vCPU host read 2.65-2.77, because the refresh
            // also pays the CNN global map and every endpoint's tail
            // (ROADMAP item 3).
            gates.push(Gate::at_least("incremental_speedup_at_most_10pct_dirty", speedup, 4.0));
        }
        inc_rows.push((
            target,
            seed_nodes.len(),
            recomputed,
            total,
            eps_reused,
            eps_total,
            full_s,
            inc_s,
            speedup,
        ));
    }

    // Preparation: cold `prepare` throughput per circgen tier — the
    // `huge` tier is where preparation cost dominates the whole flow —
    // then the transform→predict round trip both ways on the 2000-cell
    // incremental design: prepare + `predict_incremental` versus prepare
    // + full `predict_batch`, after one buffer insertion.
    println!("\ncold prepare throughput:");
    let mut prep_tiers: Vec<(String, usize, usize, f64, f64)> = Vec::new();
    // The jpeg tiers' endpoint masks as stored: tier, runs, set bins and
    // heap bytes.
    let mut mask_tiers: Vec<(String, usize, usize, usize)> = Vec::new();
    // The jpeg tiers' `/load` parsers on their own written text: tier,
    // pins, parse_verilog and parse_placement seconds.
    let mut parse_tiers: Vec<(String, usize, f64, f64)> = Vec::new();
    for (pname, scale) in [("jpeg", Scale::Small), ("hwacha", Scale::Small), ("jpeg", Scale::Huge)]
    {
        let params = rtt_circgen::preset(pname, scale).expect("known preset");
        let d = params.generate(&lib);
        let pl = place(&d.netlist, &lib, 0, &PlaceConfig::default());
        let graph = TimingGraph::build(&d.netlist, &lib);
        let tier_pins = graph.num_nodes();
        let tier_eps = graph.endpoints().len();
        let reps = if tier_pins > 20_000 { 2 } else { 3 };
        let s = time_median(reps, || {
            PreparedDesign::prepare(&d.netlist, &lib, &pl, &graph, &cfg, vec![0.0; tier_eps])
        });
        let pins_per_s = tier_pins as f64 / s.max(1e-12);
        println!(
            "  {pname:<8} {scale:<5} {tier_pins:>7} pins  {tier_eps:>6} endpoints  {s:>9.4}s  \
             {pins_per_s:>12.0} pins/s"
        );
        prep_tiers.push((format!("{pname}-{scale}"), tier_pins, tier_eps, s, pins_per_s));
        if pname == "jpeg" {
            let masks = endpoint_masks(&d.netlist, &pl, &graph, cfg.pooled_grid());
            let runs: usize = (0..masks.len()).map(|e| masks.runs(e).len()).sum();
            let bins: usize = (0..masks.len()).map(|e| masks.bins(e).count()).sum();
            println!(
                "  {pname:<8} {scale:<5} masks: {runs} runs over {bins} set bins, {} bytes",
                masks.heap_bytes()
            );
            mask_tiers.push((format!("{pname}-{scale}"), runs, bins, masks.heap_bytes()));
            let verilog = write_verilog(&d.netlist, &lib);
            let placement = write_placement(&d.netlist, &pl);
            let parsed = parse_verilog(&verilog, &lib).expect("written verilog parses");
            let (v_s, p_s) = time_pair(
                5,
                || parse_verilog(&verilog, &lib).expect("written verilog parses"),
                || parse_placement(&parsed, &placement).expect("written placement parses"),
            );
            println!(
                "  {pname:<8} {scale:<5} parse: verilog {v_s:>9.4}s ({:>10.0} pins/s), \
                 placement {p_s:>9.4}s ({:>10.0} pins/s)",
                tier_pins as f64 / v_s.max(1e-12),
                tier_pins as f64 / p_s.max(1e-12),
            );
            parse_tiers.push((format!("{pname}-{scale}"), tier_pins, v_s, p_s));
        }
    }

    let base_prep = PreparedDesign::prepare(
        &inc_d.netlist,
        &lib,
        &inc_pl,
        &inc_graph,
        &cfg,
        vec![0.0f32; inc_graph.endpoints().len()],
    );
    let mut tnl = inc_d.netlist.clone();
    let mut tpl = inc_pl.clone();
    // A local transform site: the net with the smallest (non-trivial)
    // driver fan-out cone, the shape of a real optimizer fix — a
    // PI-adjacent site would dirty most of the design and measure a
    // full GNN pass instead of a dirty cone.
    let (tr_net, tr_sink) = inc_candidates
        .iter()
        .filter(|&&(cone, _)| cone >= 2)
        .find_map(|&(_, v)| {
            let p = inc_graph.pin_of(v);
            let net = inc_d.netlist.pin(p).net?;
            let n = inc_d.netlist.net(net);
            (n.driver == p && !n.sinks.is_empty()).then(|| (net, n.sinks[0]))
        })
        .expect("incremental design has a small-cone net");
    let buf_pos = tpl.floorplan().die.center();
    rtt_opt::insert_buffer(&mut tnl, &mut tpl, &lib, tr_net, tr_sink, buf_pos)
        .expect("buffer insertion succeeds");
    let tgraph = TimingGraph::build(&tnl, &lib);
    // A buffer adds no endpoint, so both designs share these.
    let t_targets = vec![0.0f32; tgraph.endpoints().len()];
    let t_eps: Vec<u32> = (0..tgraph.endpoints().len() as u32).collect();
    let mut rt_inc = IncrementalCtx::new();
    // Prime the activation cache on the pre-transform design, as a serving
    // loop would have. The incremental reps then refresh it onto the
    // transformed design and back in turn, so each one re-scores a design
    // one buffer insertion away from the cached one.
    let _ = gnn_model.predict_incremental(&ctx, &mut rt_inc, &base_prep, &[], &t_eps);
    let rt_sides = [(&tnl, &tpl, &tgraph), (&inc_d.netlist, &inc_pl, &inc_graph)];
    let mut rt_rep = 0;
    let (cold_rt_s, inc_rt_s) = time_pair(
        infer_reps,
        || {
            let p = PreparedDesign::prepare(&tnl, &lib, &tpl, &tgraph, &cfg, t_targets.clone());
            gnn_model.predict_batch(&ctx, &p, &t_eps)
        },
        || {
            let (nl, pl, graph) = rt_sides[rt_rep % 2];
            rt_rep += 1;
            let p = PreparedDesign::prepare(nl, &lib, pl, graph, &cfg, t_targets.clone());
            gnn_model.predict_incremental(&ctx, &mut rt_inc, &p, &[], &t_eps)
        },
    );
    let rt_speedup = cold_rt_s / inc_rt_s.max(1e-12);
    println!(
        "\ntransform→predict round trip ({} pins):\n\
         {:<22} {cold_rt_s:>9.4}s  (prepare + predict_batch)\n\
         {:<22} {inc_rt_s:>9.4}s  (prepare + predict_incremental)\n\
         {:<22} {rt_speedup:>8.2}x",
        inc_pins, "full", "incremental", "speedup"
    );
    gates.push(Gate::at_least("transform_round_trip_speedup", rt_speedup, 3.0));

    // Static analysis wall time: the full rtt-lint workspace pass (parse,
    // call graph, reachability) must stay fast enough to sit in tier-1 CI
    // (< 5 s target; see ISSUE acceptance).
    let lint_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let lint_s = time_median(3, || rtt_lint::lint_workspace(&lint_root).expect("lint pass runs"));
    let lint_report = rtt_lint::lint_workspace(&lint_root).expect("lint pass runs");
    println!(
        "\nrtt-lint workspace pass: {lint_s:.3}s ({} files, {} edges, {} entry points, {} hot fns)",
        lint_report.files_checked,
        lint_report.call_edges,
        lint_report.entry_points,
        lint_report.hot_fns,
    );

    // Per-stage breakdown: reset the span registry so it reflects exactly
    // one instrumented end-to-end pass (generation → place → route → STA →
    // features → one training epoch), then dump the tree.
    rtt_obs::reset();
    let stage_design = prepare_design(2000, 300, &cfg, &lib);
    let mut stage_model = TimingModel::new(cfg.clone());
    stage_model.train(&[stage_design], &TrainConfig { epochs: 1, ..TrainConfig::default() });
    let snap = rtt_obs::snapshot();
    println!("\nper-stage breakdown (one end-to-end pass):");
    print!("{}", snap.render_tree());

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"cores\": {cores},\n"));
    json.push_str("  \"benchmarks\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"serial_s\": {:.6}, \"parallel_s\": {:.6}, \"speedup\": {:.3}}}{}\n",
            r.name,
            r.serial_s,
            r.parallel_s,
            r.speedup(),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"training\": {{\"row\": \"train_epoch_4x2000\", \"epochs_per_rep\": {train_epochs}, \
         \"arena_bytes_first_epoch\": {arena_first}, \
         \"arena_bytes_after_first_epoch\": {arena_later}}},\n"
    ));
    json.push_str("  \"masks\": {\"config\": \"small\", \"grid\": ");
    json.push_str(&format!("{}, \"tiers\": [\n", cfg.pooled_grid()));
    for (i, (tier, runs, bins, bytes)) in mask_tiers.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"tier\": \"{tier}\", \"runs\": {runs}, \"set_bins\": {bins}, \
             \"resident_bytes\": {bytes}}}{}\n",
            if i + 1 < mask_tiers.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]},\n");
    json.push_str("  \"gates\": [\n");
    for (i, g) in gates.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"value\": {:.3}, \"rule\": \"{}\", \"bound\": {:.3}, \
             \"passed\": {}}}{}\n",
            g.name,
            g.value,
            g.rule,
            g.bound,
            g.passed,
            if i + 1 < gates.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"inference\": {{\"endpoints\": {n_ep}, \"threads\": 1, \
         \"taped_s\": {taped_s:.6}, \"taped_endpoints_per_s\": {:.1}, \
         \"tape_bytes_per_pass\": {tape_bytes}, \
         \"infer_s\": {infer_s:.6}, \"infer_endpoints_per_s\": {:.1}, \
         \"arena_growth_bytes_per_pass\": {arena_growth}, \
         \"arena_resident_bytes\": {arena_resident}, \
         \"speedup\": {infer_speedup:.3}, \
         \"batched_endpoints_per_s\": {batched_eps:.1}, \
         \"single_endpoint_calls\": {single_calls}, \
         \"single_endpoint_endpoints_per_s\": {single_eps:.1}}},\n",
        n_ep as f64 / taped_s.max(1e-12),
        n_ep as f64 / infer_s.max(1e-12),
    ));
    json.push_str(&format!(
        "  \"incremental\": {{\"endpoints\": {}, \"pins\": {inc_pins}, \"threads\": 1, \
         \"rows\": [\n",
        inc_eps.len(),
    ));
    for (i, (target, seeds, recomputed, total, eps_reused, eps_total, full_s, inc_s, speedup)) in
        inc_rows.iter().enumerate()
    {
        json.push_str(&format!(
            "    {{\"target_fraction\": {target:.2}, \"seed_pins\": {seeds}, \
             \"rows_recomputed\": {recomputed}, \"rows_total\": {total}, \
             \"dirty_fraction\": {:.4}, \"endpoints_reused\": {eps_reused}, \
             \"endpoints_requested\": {eps_total}, \"full_batch_s\": {full_s:.6}, \
             \"incremental_s\": {inc_s:.6}, \
             \"speedup\": {speedup:.3}}}{}\n",
            *recomputed as f64 / (*total).max(1) as f64,
            if i + 1 < inc_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]},\n");
    json.push_str("  \"prepare\": {\"tiers\": [\n");
    for (i, (tier, tp, te, s, pps)) in prep_tiers.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"tier\": \"{tier}\", \"pins\": {tp}, \"endpoints\": {te}, \
             \"cold_prepare_s\": {s:.6}, \"pins_per_s\": {pps:.1}}}{}\n",
            if i + 1 < prep_tiers.len() { "," } else { "" }
        ));
    }
    json.push_str("  ], \"parse\": [\n");
    for (i, (tier, tp, v_s, p_s)) in parse_tiers.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"tier\": \"{tier}\", \"pins\": {tp}, \"parse_verilog_s\": {v_s:.6}, \
             \"parse_verilog_pins_per_s\": {:.1}, \"parse_placement_s\": {p_s:.6}, \
             \"parse_placement_pins_per_s\": {:.1}}}{}\n",
            *tp as f64 / v_s.max(1e-12),
            *tp as f64 / p_s.max(1e-12),
            if i + 1 < parse_tiers.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  ], \"transform_replay\": {{\"pins\": {inc_pins}, \
         \"cold_round_trip_s\": {cold_rt_s:.6}, \"incremental_round_trip_s\": {inc_rt_s:.6}, \
         \"speedup\": {rt_speedup:.3}}}}},\n",
    ));
    json.push_str(&format!(
        "  \"lint\": {{\"wall_s\": {lint_s:.6}, \"files_checked\": {}, \"call_edges\": {}, \
         \"entry_points\": {}, \"hot_fns\": {}}},\n",
        lint_report.files_checked,
        lint_report.call_edges,
        lint_report.entry_points,
        lint_report.hot_fns,
    ));
    json.push_str("  \"stages\": {\n");
    let n_spans = snap.spans.len();
    for (i, (path, s)) in snap.spans.iter().enumerate() {
        json.push_str(&format!(
            "    \"{path}\": {{\"count\": {}, \"total_ms\": {:.6}}}{}\n",
            s.count,
            s.total_ns as f64 / 1e6,
            if i + 1 < n_spans { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");
    std::fs::write("BENCH_PR10.json", json).expect("write BENCH_PR10.json");
    eprintln!("[written to BENCH_PR10.json]");
    let failed: Vec<String> = gates
        .iter()
        .filter(|g| !g.passed)
        .map(|g| format!("{} = {:.3}, wanted {} {:.3}", g.name, g.value, g.rule, g.bound))
        .collect();
    if !failed.is_empty() {
        eprintln!("failed gates:\n  {}", failed.join("\n  "));
        std::process::exit(1);
    }
}
