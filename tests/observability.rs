//! Tier-1 determinism contract of the observability layer: the recorded
//! span tree, call counts, counters, and series must be bit-identical
//! for any thread count — only wall-clock durations may differ (and they
//! are excluded from [`structure_json`]).
//!
//! Kept as a single `#[test]` on purpose: the rtt-obs registry is process
//! global, and the default test harness runs `#[test]` functions of one
//! binary concurrently.
//!
//! [`structure_json`]: restructure_timing::obs::Snapshot::structure_json

use restructure_timing::nn::parallel;
use restructure_timing::obs;
use restructure_timing::prelude::*;

/// An instrumented workload touching every span family: the parallel
/// dataset fan-out (circgen/place/route/sta/opt under `flow::design_flow`
/// roots), feature extraction, and a short train/predict cycle (parallel
/// design passes, nn kernel counters, epoch-loss series).
fn run_workload() {
    let flow_cfg = FlowConfig { scale: Scale::Tiny };
    let dataset = Dataset::generate_subset(&flow_cfg, 2, 0);

    let lib = CellLibrary::asap7_like();
    let d = GenParams::new("obs", 200, 11).generate(&lib);
    let pl = place(&d.netlist, &lib, 0, &PlaceConfig::default());
    let rt = route(&d.netlist, &lib, &pl, &RouteConfig::default());
    let graph = TimingGraph::build(&d.netlist, &lib);
    let sta = run_sta(&d.netlist, &lib, &graph, &rt, 500.0);
    let targets: Vec<f32> = sta.endpoint_arrivals().iter().map(|&(_, a)| a).collect();

    let cfg = ModelConfig::tiny();
    let preps: Vec<PreparedDesign> = dataset
        .designs
        .iter()
        .map(|dd| dd.prepared(&dataset.library, &cfg))
        .chain(std::iter::once(PreparedDesign::prepare(
            &d.netlist, &lib, &pl, &graph, &cfg, targets,
        )))
        .collect();
    let mut model = TimingModel::new(cfg);
    model.train(&preps, &TrainConfig { epochs: 2, ..TrainConfig::default() });
    model.predict(&preps[0]);
}

#[test]
fn trace_structure_is_bit_identical_across_thread_counts() {
    let mut structures = Vec::new();
    for threads in [1, 4] {
        parallel::set_num_threads(threads);
        obs::reset();
        run_workload();
        structures.push(obs::snapshot().structure_json());
    }
    parallel::set_num_threads(1);
    assert!(
        structures[0] == structures[1],
        "span structure diverged between 1 and 4 threads:\n--- 1 thread ---\n{}\n--- 4 threads ---\n{}",
        structures[0],
        structures[1]
    );
    // Sanity: the workload actually recorded the pipeline spans.
    for needle in [
        "\"flow::design_flow\"",
        "\"core::train\"",
        "\"core::train::design_pass/core::forward\"",
        "\"core::train::design_pass/nn::backward\"",
        "\"core::train/nn::optimizer_step\"",
        "\"core::predict/nn::infer\"",
        "nn::infer_arena_bytes",
        "nn::matmul_flops",
        "core::train::epoch_loss",
    ] {
        assert!(structures[0].contains(needle), "missing `{needle}` in {}", structures[0]);
    }
}
