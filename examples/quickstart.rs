//! Quickstart: the whole pipeline on one small design.
//!
//! Generates a design, runs both flows (with/without timing optimization),
//! trains a small multimodal model on the sign-off labels, and reports the
//! prediction quality.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

#![allow(clippy::print_stdout)] // reports/tables go to stdout by design

use restructure_timing::prelude::*;

fn main() {
    // 1. A design and its physical implementation.
    let lib = CellLibrary::asap7_like();
    let design = preset("chacha", Scale::Small).expect("known preset").generate(&lib);
    let mut netlist = design.netlist.clone();
    let mut placement = place(&netlist, &lib, design.num_macros, &PlaceConfig::default());
    println!(
        "design {}: {} cells, {} nets, die {:.0} µm²",
        netlist.name,
        netlist.num_cells(),
        netlist.num_nets(),
        placement.floorplan().die.area()
    );

    // 2. Pre-optimization timing defines the clock target.
    let graph = TimingGraph::build(&netlist, &lib);
    let routing = route(&netlist, &lib, &placement, &RouteConfig::default());
    let probe = run_sta(&netlist, &lib, &graph, &routing, 1.0);
    let period = probe.max_arrival() * 0.6;
    println!("critical path {:.1} ps, clock target {:.1} ps", probe.max_arrival(), period);

    // 3. Timing optimization restructures the netlist.
    let input_netlist = netlist.clone();
    let report = optimize(&mut netlist, &mut placement, &lib, period);
    let diff = diff_netlists(&input_netlist, &netlist, &lib);
    println!(
        "optimizer: wns {:.1} -> {:.1} ps; {} sizings, {} buffers, {} decompositions, \
         {} bypasses; {:.1}% net edges and {:.1}% cell edges replaced",
        report.wns_before,
        report.wns_after,
        report.sizing_ops,
        report.buffer_ops,
        report.decompose_ops,
        report.bypass_ops,
        diff.net_replaced_fraction() * 100.0,
        diff.cell_replaced_fraction() * 100.0,
    );

    // 4. Sign-off labels from the optimized design.
    let opt_graph = TimingGraph::build(&netlist, &lib);
    let opt_routing = route(&netlist, &lib, &placement, &RouteConfig::default());
    let signoff = run_sta(&netlist, &lib, &opt_graph, &opt_routing, period);

    // 5. Train the paper's model: inputs are PRE-optimization netlist +
    //    placement; targets are POST-optimization sign-off arrivals.
    //    (Endpoints survive restructuring, so the mapping is total.)
    let input_placement = place(&input_netlist, &lib, design.num_macros, &PlaceConfig::default());
    let input_graph = TimingGraph::build(&input_netlist, &lib);
    let targets: Vec<f32> = input_graph
        .endpoints()
        .iter()
        .map(|&v| signoff.arrival(input_graph.pin_of(v)).expect("endpoint survives"))
        .collect();
    let cfg = ModelConfig::small();
    let prep = PreparedDesign::prepare(
        &input_netlist,
        &lib,
        &input_placement,
        &input_graph,
        &cfg,
        targets.clone(),
    );
    let mut model = TimingModel::new(cfg);
    println!("training {} parameters ...", model.num_parameters());
    model.train(std::slice::from_ref(&prep), &TrainConfig { epochs: 40, ..TrainConfig::default() });

    // 6. Predict and score.
    let pred = model.predict(&prep);
    println!(
        "endpoint arrival prediction R² = {:.4} over {} endpoints",
        r2_score(&pred, &targets),
        targets.len()
    );
}
