//! End-to-end tests of the three baselines on a small restructured design.

use std::collections::HashMap;

use rtt_baselines::{BaselineInputs, GuoConfig, GuoModel, TwoStageKind, TwoStageModel};
use rtt_circgen::GenParams;
use rtt_netlist::{CellLibrary, EdgeKind, Netlist, PinId, TimingGraph};
use rtt_opt::{diff_netlists, optimize};
use rtt_place::{place, PlaceConfig, Placement};
use rtt_route::{route, RouteConfig};
use rtt_sta::run_sta;

/// One design with its sign-off labels after a real optimize+route flow.
struct World {
    lib: CellLibrary,
    netlist: Netlist,
    placement: Placement,
    graph: TimingGraph,
    net_delays: HashMap<(PinId, PinId), f32>,
    cell_delays: HashMap<(PinId, PinId), f32>,
    arrivals: HashMap<PinId, f32>,
    endpoint_targets: Vec<f32>,
}

impl World {
    fn inputs(&self) -> BaselineInputs<'_> {
        BaselineInputs {
            name: "test",
            netlist: &self.netlist,
            library: &self.lib,
            placement: &self.placement,
            graph: &self.graph,
            signoff_net_delays: &self.net_delays,
            signoff_cell_delays: &self.cell_delays,
            signoff_arrivals: &self.arrivals,
            endpoint_targets: &self.endpoint_targets,
        }
    }
}

fn build_world(cells: usize, seed: u64) -> World {
    let lib = CellLibrary::asap7_like();
    let d = GenParams::new(format!("w{seed}"), cells, seed).generate(&lib);
    let input_netlist = d.netlist.clone();
    let input_placement = place(&input_netlist, &lib, 0, &PlaceConfig::default());

    // Sign-off flow: optimize a clone, then route + STA.
    let mut opt_netlist = d.netlist;
    let mut opt_placement = input_placement.clone();
    let pre_graph = TimingGraph::build(&input_netlist, &lib);
    let pre_rt = route(&input_netlist, &lib, &input_placement, &RouteConfig::default());
    let pre_sta = run_sta(&input_netlist, &lib, &pre_graph, &pre_rt, 1.0);
    let period = pre_sta.max_arrival() * 0.6;
    optimize(&mut opt_netlist, &mut opt_placement, &lib, period);
    let opt_graph = TimingGraph::build(&opt_netlist, &lib);
    let opt_rt = route(&opt_netlist, &lib, &opt_placement, &RouteConfig::default());
    let signoff = run_sta(&opt_netlist, &lib, &opt_graph, &opt_rt, period);

    // Labels on survivors only.
    let diff = diff_netlists(&input_netlist, &opt_netlist, &lib);
    let mut net_delays = HashMap::new();
    for &(drv, snk) in diff.surviving_net_edges() {
        if let Some(d) = signoff.net_edge_delay(drv, snk) {
            net_delays.insert((drv, snk), d);
        }
    }
    let mut cell_delays = HashMap::new();
    for &(inp, out) in diff.surviving_cell_edges() {
        if let Some(d) = signoff.cell_edge_delay(inp, out) {
            cell_delays.insert((inp, out), d);
        }
    }
    let mut arrivals = HashMap::new();
    for (pid, _) in input_netlist.pins() {
        if opt_netlist.pin(pid).is_alive() {
            if let Some(a) = signoff.arrival(pid) {
                arrivals.insert(pid, a);
            }
        }
    }
    let endpoint_targets: Vec<f32> = pre_graph
        .endpoints()
        .iter()
        .map(|&v| {
            let pin = pre_graph.pin_of(v);
            signoff.arrival(pin).expect("endpoints always survive")
        })
        .collect();

    World {
        lib,
        netlist: input_netlist,
        placement: input_placement,
        graph: pre_graph,
        net_delays,
        cell_delays,
        arrivals,
        endpoint_targets,
    }
}

fn r2(pairs: &[(f32, f32)]) -> f32 {
    let n = pairs.len() as f32;
    let mean = pairs.iter().map(|p| p.1).sum::<f32>() / n;
    let ss_tot: f32 = pairs.iter().map(|p| (p.1 - mean).powi(2)).sum();
    let ss_res: f32 = pairs.iter().map(|p| (p.0 - p.1).powi(2)).sum();
    1.0 - ss_res / ss_tot.max(1e-9)
}

#[test]
fn labels_exist_only_on_survivors() {
    let w = build_world(250, 7);
    assert!(!w.net_delays.is_empty());
    assert!(!w.cell_delays.is_empty());
    // Some edges should be missing labels (they were replaced).
    let total_net_edges = w.graph.num_net_edges();
    assert!(
        w.net_delays.len() < total_net_edges,
        "no restructuring happened: {} == {total_net_edges}",
        w.net_delays.len()
    );
    assert_eq!(w.endpoint_targets.len(), w.graph.endpoints().len());
}

#[test]
fn two_stage_models_train_and_predict() {
    let w = build_world(250, 8);
    let inputs = w.inputs();
    for kind in [TwoStageKind::Dac19, TwoStageKind::Dac22He] {
        let mut model = TwoStageModel::new(kind, 1);
        model.train(&[&inputs], 60, 3e-3);
        let ep = model.predict_endpoints(&inputs);
        assert_eq!(ep.len(), w.endpoint_targets.len());
        assert!(ep.iter().all(|v| v.is_finite()));
        // After training on the same design, local fit should beat the
        // untrained model decisively.
        let local = model.local_eval(&inputs);
        assert!(!local.is_empty());
        // Both repeat bit for bit, the local pairs in the same order.
        let bits = |v: &[(f32, f32)]| -> Vec<(u32, u32)> {
            v.iter().map(|&(p, l)| (p.to_bits(), l.to_bits())).collect()
        };
        assert_eq!(bits(&local), bits(&model.local_eval(&inputs)), "{} local_eval", kind.label());
        let again = model.predict_endpoints(&inputs);
        assert!(
            ep.iter().zip(&again).all(|(a, b)| a.to_bits() == b.to_bits()),
            "{} predict_endpoints",
            kind.label()
        );
        let fit = r2(&local);
        assert!(fit > 0.0, "{} local R² = {fit}", kind.label());
        // Endpoint prediction correlates with truth at least grossly.
        let pairs: Vec<(f32, f32)> =
            ep.into_iter().zip(w.endpoint_targets.iter().copied()).collect();
        let er2 = r2(&pairs);
        assert!(er2 > -1.0, "{} endpoint R² = {er2}", kind.label());
    }
}

#[test]
fn guo_model_trains_and_predicts() {
    let w = build_world(220, 9);
    let inputs = w.inputs();
    let mut model = GuoModel::new(GuoConfig::default());
    model.train(&[&inputs], 40, 3e-3);
    let ep = model.predict_endpoints(&inputs);
    assert_eq!(ep.len(), w.endpoint_targets.len());
    assert!(ep.iter().all(|v| v.is_finite()));
    let pairs: Vec<(f32, f32)> = ep.into_iter().zip(w.endpoint_targets.iter().copied()).collect();
    let er2 = r2(&pairs);
    assert!(er2 > 0.0, "guo train-set endpoint R² = {er2}");
    let (net_pairs, cell_pairs) = model.local_eval(&inputs);
    assert!(!net_pairs.is_empty());
    assert!(!cell_pairs.is_empty());
}

#[test]
fn stage_labels_compose_cell_and_net() {
    let w = build_world(150, 10);
    let inputs = w.inputs();
    let mut found_composite = false;
    // Walk the labelled stages in the graph's edge order, not hash order.
    for e in w.graph.edges().iter().filter(|e| e.kind == EdgeKind::Net) {
        let (drv, snk) = (w.graph.pin_of(e.from), w.graph.pin_of(e.to));
        let Some(&net_d) = w.net_delays.get(&(drv, snk)) else { continue };
        if let Some(stage) = inputs.stage_label(drv, snk) {
            assert!(stage >= net_d - 1e-4, "stage must include the net part");
            if stage > net_d + 1e-4 {
                found_composite = true;
            }
        }
    }
    assert!(found_composite, "no stage included a cell delay");
}
