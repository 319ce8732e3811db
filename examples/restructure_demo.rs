//! Fig. 1 in action: watch the timing optimizer restructure a netlist.
//!
//! Builds a small circuit containing a wide AND cone (the paper's Fig. 1
//! motif), runs the optimizer against a tight clock, and prints the
//! sub-netlist before and after — showing which of the original net/cell
//! edges are *replaced* and therefore unlabellable for local-view models.
//!
//! ```sh
//! cargo run --release --example restructure_demo
//! ```

#![allow(clippy::print_stdout)] // reports/tables go to stdout by design

use restructure_timing::prelude::*;

fn dump(netlist: &Netlist, lib: &CellLibrary, title: &str) {
    println!("--- {title} ---");
    for (_, cell) in netlist.cells() {
        let ty = lib.cell_type(cell.type_id);
        let inputs: Vec<String> = cell
            .inputs
            .iter()
            .map(|&p| match netlist.pin(p).net {
                Some(n) => netlist.net(n).name.clone(),
                None => "-".to_owned(),
            })
            .collect();
        let out = match netlist.pin(cell.output).net {
            Some(n) => netlist.net(n).name.clone(),
            None => "-".to_owned(),
        };
        println!("  {:<10} {:<9} ({}) -> {}", cell.name, ty.name, inputs.join(", "), out);
    }
}

fn main() {
    let lib = CellLibrary::asap7_like();

    // A deliberately unbalanced circuit: a 4-input AND fed by a slow chain
    // on one input (so decomposition pays off), driving an output port.
    let mut nl = Netlist::new("fig1_demo");
    let early: Vec<_> = (0..3).map(|i| nl.add_input_port(format!("a{i}"))).collect();
    let late = nl.add_input_port("late");
    let inv_t = lib.pick(GateFn::Inv, 1).expect("INV_X1");
    let and4_t = lib.pick(GateFn::And4, 1).expect("AND4_X1");
    let buf_t = lib.pick(GateFn::Buf, 1).expect("BUF_X1");

    // Slow chain: late -> INV -> INV -> INV -> AND4 input.
    let mut prev = late;
    for i in 0..3 {
        let (c, o) = nl.add_cell(format!("chain{i}"), inv_t, &lib);
        let ci = nl.cell(c).inputs[0];
        nl.connect_net(format!("ch{i}"), prev, &[ci]).expect("fresh pins");
        prev = o;
    }
    // A redundant buffer the optimizer can bypass.
    let (bc, bo) = nl.add_cell("u_buf", buf_t, &lib);
    let bi = nl.cell(bc).inputs[0];
    nl.connect_net("chb", prev, &[bi]).expect("fresh pins");

    let (and_c, and_o) = nl.add_cell("u_and4", and4_t, &lib);
    let ins = nl.cell(and_c).inputs.clone();
    for (k, &p) in early.iter().enumerate() {
        nl.connect_net(format!("e{k}"), p, &[ins[k]]).expect("fresh pins");
    }
    nl.connect_net("nlate", bo, &[ins[3]]).expect("fresh pins");
    let y = nl.add_output_port("y");
    nl.connect_net("ny", and_o, &[y]).expect("fresh pins");
    nl.validate().expect("demo circuit is valid");

    let before = nl.clone();
    dump(&before, &lib, "before optimization");

    let mut placement = place(&nl, &lib, 0, &PlaceConfig::default());
    let graph = TimingGraph::build(&nl, &lib);
    let routing = route(&nl, &lib, &placement, &RouteConfig::default());
    let probe = run_sta(&nl, &lib, &graph, &routing, 1.0);
    let period = probe.max_arrival() * 0.5;

    let report = optimize(&mut nl, &mut placement, &lib, period);
    dump(&nl, &lib, "after optimization");

    let diff = diff_netlists(&before, &nl, &lib);
    println!("\noptimizer report: {report:#?}");
    println!(
        "replaced: {}/{} net edges, {}/{} cell edges",
        diff.replaced_net_edges,
        diff.total_net_edges,
        diff.replaced_cell_edges,
        diff.total_cell_edges
    );
    println!(
        "=> a local-view model trained on pre-optimization features has no valid \
         labels for the replaced region — the mismatch the paper's Fig. 1 describes."
    );
}
