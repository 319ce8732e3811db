//! The model as a fast evaluator inside a timing-driven loop.
//!
//! The paper motivates pre-routing prediction as quick feedback for
//! timing-driven placement: instead of running optimize+route+STA for every
//! candidate placement, ask the model. This example trains on one design
//! and then ranks three candidate placements of a second design by
//! predicted mean endpoint arrival, comparing against the ground truth
//! ranking from the full flow.
//!
//! ```sh
//! cargo run --release --example timing_driven_eval
//! ```

#![allow(clippy::print_stdout)] // reports/tables go to stdout by design

use std::time::Instant;

use restructure_timing::flow::FlowConfig;
use restructure_timing::prelude::*;

fn main() {
    // Build a small training dataset through the real two-flow pipeline.
    let flow_cfg = FlowConfig { scale: Scale::Tiny };
    let dataset = Dataset::generate_subset(&flow_cfg, 3, 1);
    let lib = &dataset.library;
    let cfg = ModelConfig::tiny();

    let train: Vec<PreparedDesign> =
        dataset.train_designs().iter().map(|d| d.prepared(lib, &cfg)).collect();
    let mut model = TimingModel::new(cfg.clone());
    println!("training on {} designs ...", train.len());
    model.train(&train, &TrainConfig { epochs: 30, ..TrainConfig::default() });

    // Candidate placements of the held-out design at different utilizations.
    let held_out = dataset.test_designs()[0];
    let netlist = &held_out.input_netlist;
    println!("\nranking placements of `{}`:", held_out.name);
    let mut rows = Vec::new();
    for (label, util) in [("sparse", 0.40f32), ("medium", 0.55), ("dense", 0.70)] {
        let pcfg = PlaceConfig { utilization: util, seed: 42, ..PlaceConfig::default() };
        let placement = place(netlist, lib, 1, &pcfg);
        let graph = TimingGraph::build(netlist, lib);

        // Model path: milliseconds.
        let t0 = Instant::now();
        let prep = PreparedDesign::prepare(
            netlist,
            lib,
            &placement,
            &graph,
            &cfg,
            vec![0.0; graph.endpoints().len()],
        );
        let pred = model.predict(&prep);
        let model_s = t0.elapsed().as_secs_f64();
        let pred_mean = pred.iter().sum::<f32>() / pred.len() as f32;

        // Ground truth path: the full flow.
        let t1 = Instant::now();
        let mut opt_nl = netlist.clone();
        let mut opt_pl = placement.clone();
        let probe = {
            let rt = route(netlist, lib, &placement, &RouteConfig::default());
            run_sta(netlist, lib, &graph, &rt, 1.0)
        };
        let period = probe.max_arrival() * 0.6;
        optimize(&mut opt_nl, &mut opt_pl, lib, period);
        let opt_graph = TimingGraph::build(&opt_nl, lib);
        let rt = route(&opt_nl, lib, &opt_pl, &RouteConfig::default());
        let signoff = run_sta(&opt_nl, lib, &opt_graph, &rt, period);
        let truth_mean = {
            let arr: Vec<f32> = signoff.endpoint_arrivals().iter().map(|&(_, a)| a).collect();
            arr.iter().sum::<f32>() / arr.len() as f32
        };
        let flow_s = t1.elapsed().as_secs_f64();

        println!(
            "  {label:<7} util {util:.2}: model {pred_mean:8.1} ps in {model_s:.3}s | \
             flow {truth_mean:8.1} ps in {flow_s:.3}s ({:.0}× slower)",
            flow_s / model_s.max(1e-9)
        );
        rows.push((label, pred_mean, truth_mean));
    }

    // Report whether the model's ranking agrees with the flow's.
    let mut by_model = rows.clone();
    by_model.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
    let mut by_truth = rows.clone();
    by_truth.sort_by(|a, b| a.2.partial_cmp(&b.2).expect("finite"));
    let model_order: Vec<&str> = by_model.iter().map(|r| r.0).collect();
    let truth_order: Vec<&str> = by_truth.iter().map(|r| r.0).collect();
    println!("\nmodel ranking:  {model_order:?}");
    println!("flow ranking:   {truth_order:?}");
}
