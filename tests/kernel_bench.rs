//! Nightly kernel micro-benchmarks for the batched inference path.
//!
//! Run with:
//!
//! ```text
//! cargo test --release --test kernel_bench -- --ignored --nocapture
//! ```
//!
//! The batched-vs-single-endpoint comparison is asserted: batching shares
//! one GNN/CNN pass across endpoints, so batched endpoints/sec must be at
//! least the single-endpoint rate. Timings are reported in the log.

use std::time::Instant;

use restructure_timing::nn::InferCtx;
use restructure_timing::prelude::*;

/// Median wall-clock seconds over `reps` runs of `f`.
fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The perfsuite's 2000-cell design under the small (paper-ish) config.
fn bench_design() -> (PreparedDesign, TimingModel) {
    let lib = CellLibrary::asap7_like();
    let cfg = ModelConfig::small();
    let d = GenParams::new("kbench", 2000, 21).generate(&lib);
    let pl = place(&d.netlist, &lib, 0, &PlaceConfig::default());
    let rt = route(&d.netlist, &lib, &pl, &RouteConfig::default());
    let graph = TimingGraph::build(&d.netlist, &lib);
    let sta = run_sta(&d.netlist, &lib, &graph, &rt, 500.0);
    let targets = sta.endpoint_arrivals().iter().map(|&(_, a)| a).collect();
    let prep = PreparedDesign::prepare(&d.netlist, &lib, &pl, &graph, &cfg, targets);
    (prep, TimingModel::new(cfg))
}

/// Batched serving must be at least as fast per endpoint as calling
/// `predict_batch` once per endpoint: every call pays one full GNN+CNN
/// pass, batching amortizes it.
#[test]
#[ignore = "nightly micro-bench; run explicitly with -- --ignored"]
fn batched_inference_beats_single_endpoint() {
    let (prep, model) = bench_design();
    let n = prep.num_endpoints();
    let all: Vec<u32> = (0..n as u32).collect();
    let ctx = InferCtx::new();
    let _ = model.predict_batch(&ctx, &prep, &all); // warm the arena
    let _ = model.predict_batch(&ctx, &prep, &[0]);

    let batched_s = time_median(5, || model.predict_batch(&ctx, &prep, &all));
    let single_s = time_median(3, || {
        for &i in &all {
            std::hint::black_box(model.predict_batch(&ctx, &prep, &[i]));
        }
    });
    let batched_eps = n as f64 / batched_s.max(1e-12);
    let single_eps = n as f64 / single_s.max(1e-12);
    eprintln!(
        "batched {batched_eps:.0} ep/s vs single-endpoint {single_eps:.0} ep/s \
         ({n} endpoints, amortization {:.1}x)",
        batched_eps / single_eps.max(1e-12)
    );
    assert!(
        batched_eps >= single_eps,
        "batched serving ({batched_eps:.0} ep/s) slower than per-endpoint calls \
         ({single_eps:.0} ep/s)"
    );
}
