//! Arrival-time propagation.

use std::collections::{BTreeMap, HashMap};

use rtt_netlist::{CellLibrary, EdgeKind, Netlist, PinDir, PinId, TimingEdge, TimingGraph};
use rtt_route::Routing;

/// Generic PERT traversal: computes the arrival time of every node given a
/// per-edge delay function and a per-source launch time function.
///
/// This is shared by the real STA (physical delays) and by the local-view
/// baselines, which re-assemble *predicted* local delays into endpoint
/// arrivals exactly this way.
pub fn propagate<D, S>(graph: &TimingGraph, mut edge_delay: D, mut source_time: S) -> Vec<f32>
where
    D: FnMut(&TimingEdge) -> f32,
    S: FnMut(u32) -> f32,
{
    let obs = rtt_obs::span("sta::propagate");
    let mut edges = 0u64;
    let mut max_level = 0u32;
    let mut arrival = vec![0.0f32; graph.num_nodes()];
    for v in graph.topo_order() {
        // `None` means "no fanin yet" — distinct from any arrival value, so
        // sources need no sentinel and no float-equality test.
        let mut best: Option<f32> = None;
        for e in graph.fanin(v) {
            let a = arrival[e.from as usize] + edge_delay(e);
            edges += 1;
            best = Some(match best {
                Some(b) if b >= a => b,
                _ => a,
            });
        }
        max_level = max_level.max(graph.level(v));
        arrival[v as usize] = best.unwrap_or_else(|| source_time(v));
    }
    obs.add("nodes", graph.num_nodes() as u64);
    obs.add("edges_relaxed", edges);
    obs.add("levels", u64::from(max_level) + u64::from(graph.num_nodes() > 0));
    arrival
}

/// Transitive fan-out cone of `seeds` (the seeds included), in the same
/// PERT/topological order [`propagate`] visits nodes. One in-order sweep
/// suffices because every edge points from an earlier to a later node in
/// `topo_order`. This is the cone an incremental predictor must
/// recompute when the seed pins change, and the cone a restructuring
/// transform invalidates — callers use it both to bound dirty-set sizes
/// and to pick transform sites with a target cone fraction.
pub fn fanout_cone(graph: &TimingGraph, seeds: &[u32]) -> Vec<u32> {
    let mut marked = vec![false; graph.num_nodes()];
    for &s in seeds {
        marked[s as usize] = true;
    }
    let mut cone = Vec::new();
    for v in graph.topo_order() {
        if !marked[v as usize] && graph.fanin(v).any(|e| marked[e.from as usize]) {
            marked[v as usize] = true;
        }
        if marked[v as usize] {
            cone.push(v);
        }
    }
    cone
}

/// Runs sign-off STA over `routing` and assembles an [`crate::StaReport`].
///
/// Wire delays are the routed RC trees' Elmore sink delays, and a driver's
/// load is its routed net's total capacitance. Flip-flop outputs launch at
/// the cell's intrinsic (clock-to-Q) delay; primary inputs launch at time 0.
pub fn run_sta(
    netlist: &Netlist,
    library: &CellLibrary,
    graph: &TimingGraph,
    routing: &Routing,
    clock_period_ps: f32,
) -> crate::StaReport {
    rtt_obs::span!("sta::run");
    // Per-driver output load (for the cell delay model).
    let load_of = |driver: PinId| -> f32 {
        netlist.pin(driver).net.and_then(|n| routing.net(n)).map_or(0.0, |rn| rn.total_cap_ff)
    };

    let edge_delay = |e: &TimingEdge| -> f32 {
        match e.kind {
            EdgeKind::Net => e
                .net
                .and_then(|nid| routing.net(nid))
                .and_then(|rn| rn.sink_delay(graph.pin_of(e.to)))
                .unwrap_or(0.0),
            EdgeKind::Cell => match e.cell {
                Some(cell) => {
                    let ty = library.cell_type(netlist.cell(cell).type_id);
                    let out = netlist.cell(cell).output;
                    ty.intrinsic_ps + ty.drive_res_kohm * load_of(out)
                }
                None => {
                    // TimingGraph construction attaches the cell id to
                    // every cell edge; zero delay is the safe fallback.
                    debug_assert!(false, "cell edge {}->{} lost its cell id", e.from, e.to);
                    0.0
                }
            },
        }
    };

    let source_time = |v: u32| -> f32 {
        let pin = netlist.pin(graph.pin_of(v));
        match (pin.cell, pin.dir) {
            // Flip-flop Q pin: clock-to-Q launch.
            (Some(c), PinDir::Drive) => {
                let ty = library.cell_type(netlist.cell(c).type_id);
                if ty.is_sequential() {
                    ty.intrinsic_ps
                } else {
                    0.0
                }
            }
            _ => 0.0,
        }
    };

    // Compute every edge delay once, up front: the arrival and required
    // passes and the report all read from this cache, and a miss is
    // structurally impossible because the same edge iterator fills it.
    let mut edge_delay_cache: HashMap<(PinId, PinId), f32> = HashMap::new();
    for e in graph.edges() {
        edge_delay_cache.insert((graph.pin_of(e.from), graph.pin_of(e.to)), edge_delay(e));
    }
    let cached_delay = |from: u32, to: u32| -> f32 {
        let d = edge_delay_cache.get(&(graph.pin_of(from), graph.pin_of(to))).copied();
        debug_assert!(d.is_some(), "edge {from}->{to} was cached above");
        d.unwrap_or(0.0)
    };
    let arrival_nodes = propagate(graph, |e| cached_delay(e.from, e.to), source_time);

    // Split the cache by edge kind for the report's per-edge lookups.
    let mut net_edge_delay = BTreeMap::new();
    let mut cell_edge_delay = BTreeMap::new();
    for e in graph.edges() {
        let key = (graph.pin_of(e.from), graph.pin_of(e.to));
        let d = cached_delay(e.from, e.to);
        match e.kind {
            EdgeKind::Net => net_edge_delay.insert(key, d),
            EdgeKind::Cell => cell_edge_delay.insert(key, d),
        };
    }

    // Required times: backward min-propagation from the endpoints.
    let mut required_nodes = vec![f32::INFINITY; graph.num_nodes()];
    for &v in graph.endpoints() {
        required_nodes[v as usize] = clock_period_ps;
    }
    let order: Vec<u32> = graph.topo_order().collect();
    for &v in order.iter().rev() {
        for e in graph.fanout(v) {
            let d = cached_delay(e.from, e.to);
            let r = required_nodes[e.to as usize] - d;
            if r < required_nodes[v as usize] {
                required_nodes[v as usize] = r;
            }
        }
    }

    // Re-index arrivals/required by pin id and collect endpoints.
    let mut arrival = vec![f32::NAN; netlist.pin_capacity()];
    let mut required = vec![f32::NAN; netlist.pin_capacity()];
    for v in 0..graph.num_nodes() as u32 {
        arrival[graph.pin_of(v).index()] = arrival_nodes[v as usize];
        let r = required_nodes[v as usize];
        required[graph.pin_of(v).index()] = if r.is_finite() { r } else { f32::NAN };
    }
    let endpoints: Vec<(PinId, f32)> =
        graph.endpoints().iter().map(|&v| (graph.pin_of(v), arrival_nodes[v as usize])).collect();

    let mut wns = f32::INFINITY;
    let mut tns = 0.0f32;
    for &(_, a) in &endpoints {
        let slack = clock_period_ps - a;
        wns = wns.min(slack);
        if slack < 0.0 {
            tns += slack;
        }
    }
    if endpoints.is_empty() {
        wns = 0.0;
    }

    crate::StaReport {
        clock_period_ps,
        wns,
        tns,
        arrival,
        required,
        endpoints,
        net_edge_delay,
        cell_edge_delay,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtt_circgen::ripple_carry_adder;
    use rtt_netlist::TimingGraph;
    use rtt_place::{place, PlaceConfig};
    use rtt_route::{route, RouteConfig};

    struct World {
        lib: CellLibrary,
        nl: Netlist,
        rt: Routing,
        graph: TimingGraph,
    }

    fn world(nl_builder: impl FnOnce(&CellLibrary) -> Netlist) -> World {
        let lib = CellLibrary::asap7_like();
        let nl = nl_builder(&lib);
        let pl = place(&nl, &lib, 0, &PlaceConfig::default());
        let rt = route(&nl, &lib, &pl, &RouteConfig::default());
        let graph = TimingGraph::build(&nl, &lib);
        World { lib, nl, rt, graph }
    }

    #[test]
    fn arrivals_increase_along_paths() {
        let w = world(|lib| ripple_carry_adder(8, lib));
        let rep = run_sta(&w.nl, &w.lib, &w.graph, &w.rt, 500.0);
        for e in w.graph.edges() {
            let a = rep.arrival(w.graph.pin_of(e.from)).unwrap();
            let b = rep.arrival(w.graph.pin_of(e.to)).unwrap();
            assert!(b >= a, "arrival not monotonic along edge");
        }
    }

    #[test]
    fn carry_chain_dominates() {
        let w = world(|lib| ripple_carry_adder(8, lib));
        let rep = run_sta(&w.nl, &w.lib, &w.graph, &w.rt, 500.0);
        // cout (end of the carry chain) must be the slowest endpoint.
        let cout =
            w.nl.output_ports().iter().copied().find(|&p| w.nl.pin_name(p) == "cout").unwrap();
        let cout_arr = rep.arrival(cout).unwrap();
        assert!((rep.max_arrival() - cout_arr).abs() < 1e-3);
    }

    #[test]
    fn wns_tns_match_endpoints() {
        let w = world(|lib| ripple_carry_adder(6, lib));
        let rep = run_sta(&w.nl, &w.lib, &w.graph, &w.rt, 100.0);
        let min_slack =
            rep.endpoint_arrivals().iter().map(|&(_, a)| 100.0 - a).fold(f32::INFINITY, f32::min);
        assert!((rep.wns - min_slack).abs() < 1e-4);
        let neg: f32 = rep.endpoint_arrivals().iter().map(|&(_, a)| (100.0 - a).min(0.0)).sum();
        assert!((rep.tns - neg).abs() < 1e-3);
        assert!(rep.tns <= 0.0);
    }

    #[test]
    fn flop_outputs_launch_at_clk2q() {
        let w = world(|lib| ripple_carry_adder(4, lib));
        let rep = run_sta(&w.nl, &w.lib, &w.graph, &w.rt, 500.0);
        let (dff_c, dff) =
            w.nl.cells().find(|(_, c)| w.lib.cell_type(c.type_id).is_sequential()).unwrap();
        let _ = dff_c;
        let q_arr = rep.arrival(dff.output).unwrap();
        let clk2q = w.lib.cell_type(dff.type_id).intrinsic_ps;
        assert!((q_arr - clk2q).abs() < 1e-4);
    }

    #[test]
    fn edge_delays_are_exposed() {
        let w = world(|lib| ripple_carry_adder(2, lib));
        let rep = run_sta(&w.nl, &w.lib, &w.graph, &w.rt, 500.0);
        for e in w.graph.edges() {
            let (from, to) = (w.graph.pin_of(e.from), w.graph.pin_of(e.to));
            match e.kind {
                EdgeKind::Net => {
                    let d = rep.net_edge_delay(from, to).expect("every net edge has a delay");
                    assert!(d.is_finite() && d >= 0.0);
                }
                EdgeKind::Cell => {
                    let d = rep.cell_edge_delay(from, to).expect("every cell edge has a delay");
                    assert!(d > 0.0, "cell delay includes intrinsic");
                }
            }
        }
    }

    #[test]
    fn generic_propagate_with_unit_delays_counts_levels() {
        let w = world(|lib| ripple_carry_adder(3, lib));
        let arr = propagate(&w.graph, |_| 1.0, |_| 0.0);
        for v in 0..w.graph.num_nodes() as u32 {
            assert!(
                (arr[v as usize] - w.graph.level(v) as f32).abs() < 1e-5,
                "unit-delay arrival must equal topological level"
            );
        }
    }

    #[test]
    fn upsizing_a_driver_reduces_its_cell_delay() {
        let lib = CellLibrary::asap7_like();
        let mut nl = ripple_carry_adder(4, &lib);
        let (cid, cell) = nl
            .cells()
            .find(|(_, c)| !lib.cell_type(c.type_id).is_sequential())
            .map(|(id, c)| (id, c.clone()))
            .unwrap();
        let input = cell.inputs[0];
        let out = cell.output;

        let pl = place(&nl, &lib, 0, &PlaceConfig::default());
        let rt = route(&nl, &lib, &pl, &RouteConfig::default());
        let g = TimingGraph::build(&nl, &lib);
        let before = run_sta(&nl, &lib, &g, &rt, 500.0).cell_edge_delay(input, out).unwrap();

        let stronger = lib.pick(lib.cell_type(cell.type_id).gate, 8).unwrap();
        nl.resize_cell(cid, stronger, &lib).unwrap();
        let rt2 = route(&nl, &lib, &pl, &RouteConfig::default());
        let g2 = TimingGraph::build(&nl, &lib);
        let after = run_sta(&nl, &lib, &g2, &rt2, 500.0).cell_edge_delay(input, out).unwrap();
        assert!(after < before, "upsize should speed the cell: {after} vs {before}");
    }
}

#[cfg(test)]
mod required_tests {
    use super::*;
    use rtt_circgen::ripple_carry_adder;
    use rtt_netlist::TimingGraph;
    use rtt_place::{place, PlaceConfig};
    use rtt_route::{route, RouteConfig};

    #[test]
    fn slack_matches_endpoint_definition() {
        let lib = CellLibrary::asap7_like();
        let nl = ripple_carry_adder(6, &lib);
        let pl = place(&nl, &lib, 0, &PlaceConfig::default());
        let rt = route(&nl, &lib, &pl, &RouteConfig::default());
        let g = TimingGraph::build(&nl, &lib);
        let rep = run_sta(&nl, &lib, &g, &rt, 200.0);
        // At an endpoint, slack = period - arrival exactly.
        for &(pin, a) in rep.endpoint_arrivals() {
            let s = rep.pin_slack(pin).unwrap();
            assert!((s - (200.0 - a)).abs() < 1e-3, "slack {s} vs {}", 200.0 - a);
        }
        // Along every edge, slack never increases toward the endpoint side
        // beyond numerical noise on the *critical* fanout; generally
        // required(from) <= required(to) - delay for the tightest fanout.
        let min_pin_slack = (0..g.num_nodes() as u32)
            .filter_map(|v| rep.pin_slack(g.pin_of(v)))
            .fold(f32::INFINITY, f32::min);
        assert!((min_pin_slack - rep.wns).abs() < 1e-3, "wns must be the min slack");
    }

    #[test]
    fn required_is_infinite_only_off_path() {
        let lib = CellLibrary::asap7_like();
        let nl = ripple_carry_adder(3, &lib);
        let pl = place(&nl, &lib, 0, &PlaceConfig::default());
        let rt = route(&nl, &lib, &pl, &RouteConfig::default());
        let g = TimingGraph::build(&nl, &lib);
        let rep = run_sta(&nl, &lib, &g, &rt, 300.0);
        // Every pin in the adder reaches an endpoint, so all have required.
        for v in 0..g.num_nodes() as u32 {
            assert!(rep.required(g.pin_of(v)).is_some());
        }
    }
}
