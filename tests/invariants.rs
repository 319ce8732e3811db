//! Cross-crate invariants the paper's argument rests on.

use restructure_timing::flow::run_design_flow;
use restructure_timing::prelude::*;

#[test]
fn endpoints_survive_optimization_on_every_preset() {
    // The paper's central observation: "timing endpoints are never
    // replaced". Verify it across all ten designs at tiny scale.
    let lib = CellLibrary::asap7_like();
    for preset_name in restructure_timing::circgen::preset_names() {
        let params = preset(preset_name, Scale::Tiny).expect("known preset");
        let d = run_design_flow(&params, &lib);
        for &v in d.input_graph.endpoints() {
            let pin = d.input_graph.pin_of(v);
            assert!(
                d.opt_netlist.pin(pin).is_alive(),
                "{preset_name}: endpoint pin {pin} was replaced"
            );
            assert!(
                d.signoff.arrival(pin).is_some(),
                "{preset_name}: endpoint pin {pin} lost its sign-off arrival"
            );
        }
    }
}

#[test]
fn optimized_netlists_remain_valid_dags() {
    let lib = CellLibrary::asap7_like();
    for name in ["jpeg", "or1200", "hwacha"] {
        let params = preset(name, Scale::Tiny).expect("known preset");
        let d = run_design_flow(&params, &lib);
        d.opt_netlist.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        let g =
            TimingGraph::try_build(&d.opt_netlist, &lib).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(g.num_nodes() > 0);
    }
}

#[test]
fn optimization_never_degrades_signoff_wns() {
    let lib = CellLibrary::asap7_like();
    for name in ["rocket", "sha3", "steelcore"] {
        let params = preset(name, Scale::Tiny).expect("known preset");
        let d = run_design_flow(&params, &lib);
        assert!(
            d.signoff.wns >= d.no_opt.wns - 1e-3,
            "{name}: optimizer degraded wns {} -> {}",
            d.no_opt.wns,
            d.signoff.wns
        );
    }
}

#[test]
fn replacement_fractions_are_plausible() {
    // Table I reports 28–50% net edges and 8–39% cell edges replaced; at
    // tiny scale we only require a nonzero, sane range across the suite.
    let lib = CellLibrary::asap7_like();
    let mut any_net = false;
    for name in restructure_timing::circgen::preset_names() {
        let params = preset(name, Scale::Tiny).expect("known preset");
        let d = run_design_flow(&params, &lib);
        let nf = d.diff.net_replaced_fraction();
        let cf = d.diff.cell_replaced_fraction();
        assert!((0.0..=0.95).contains(&nf), "{name}: net replaced {nf}");
        assert!((0.0..=0.95).contains(&cf), "{name}: cell replaced {cf}");
        any_net |= nf > 0.0;
    }
    assert!(any_net, "no design was restructured at all");
}
