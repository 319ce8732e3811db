//! The optimization driver: analyze, trace critical paths, transform.

use std::collections::HashSet;

use rtt_netlist::{
    CellId, CellLibrary, CellTypeId, EdgeKind, GateFn, NetId, Netlist, PinId, TimingGraph,
};
use rtt_place::{Placement, Point};
use rtt_route::{route, RouteConfig};
use rtt_sta::{run_sta, StaReport};

use crate::legal::LegalityViolation;
use crate::transforms::{
    bypass_inverter_pair, bypass_repeater, decompose_gate, insert_buffer, prune_dangling,
};
use crate::{DensityTracker, OptReport};

/// Maximum slack-driven passes (each pass = STA + transforms).
const MAX_PASSES: usize = 6;

/// Bin utilization above which gate insertion/growth is illegal.
const DENSITY_LIMIT: f32 = 0.80;

/// Resolution of the legality density grid.
const LEGALITY_GRID: usize = 24;

/// Net edges longer than this many µm are buffering candidates (and
/// repeaters whose bridged wire would stay shorter are bypass candidates):
/// the break-even length `√(2·t_buf/(r·c))` of the routed wire parasitics.
const BUFFER_LENGTH_UM: f32 = 30.0;

/// Maximum legal fanout before a net is split behind buffers.
const MAX_FANOUT: usize = 8;

/// One transform decided during the planning phase of a pass.
#[derive(Clone, Debug)]
enum Action {
    Bypass(CellId),
    InvPair(CellId, CellId),
    Decompose(CellId, Vec<PinId>),
    Upsize(CellId, CellTypeId),
    Buffer(NetId, PinId, Point),
}

/// Runs the layout-aware timing optimizer in place, closing timing against
/// `clock_period_ps`.
///
/// Stages: design-wide DRV fixing (max-fanout and max-length buffering),
/// cone-wide decomposition, then slack-driven passes. Each pass: sign-off
/// STA → trace the critical path of every violating endpoint → plan legal
/// transforms (bypass, decomposition, sizing, buffering) → apply →
/// dead-logic sweep. Passes stop when timing is met, no transform applies,
/// or `MAX_PASSES` is reached; area recovery runs last.
///
/// Endpoint pins (ports and flip-flop data pins) are never removed.
pub fn optimize(
    netlist: &mut Netlist,
    placement: &mut Placement,
    library: &CellLibrary,
    clock_period_ps: f32,
) -> OptReport {
    let obs = rtt_obs::span("opt::optimize");
    let mut report = OptReport::default();
    let route_cfg = RouteConfig::default();

    let analyze = |nl: &Netlist, pl: &Placement| -> StaReport {
        let graph = TimingGraph::build(nl, library);
        let routing = route(nl, library, pl, &route_cfg);
        run_sta(nl, library, &graph, &routing, clock_period_ps)
    };

    let mut sta = analyze(netlist, placement);
    report.wns_before = sta.wns;
    report.tns_before = sta.tns;

    // Every stage is greedy, but the final result is the best state seen
    // by (WNS, TNS) — including the untouched input — so optimization
    // never ends worse than it started. (Op counters report *attempted*
    // work, even if a late state is rolled back.)
    let mut best = BestState::new(netlist, placement, &sta);

    // Stage 1: design-wide DRV fixing (max-fanout and max-length
    // buffering). Commercial flows run this unconditionally; it is a
    // dominant source of netlist restructuring.
    drv_fix(netlist, placement, library, &mut report);
    sta = analyze(netlist, placement);
    best.offer(netlist, placement, &sta);

    // Stage 2: cone-wide Boolean restructuring — decompose wide AND/OR
    // gates throughout the fanin cones of violating endpoints, ordered by
    // input arrival. This models the gate-decomposition/remapping step of
    // commercial optimizers and is the main source of *cell* replacement.
    if sta.wns < 0.0 {
        restructure_cones(netlist, placement, library, &sta, &mut report);
        prune_dangling(netlist, library);
        sta = analyze(netlist, placement);
        best.offer(netlist, placement, &sta);
    }

    // Stage 3: slack-driven critical-path passes (sizing, buffering,
    // bypass, residual decomposition).
    for _ in 0..MAX_PASSES {
        if sta.wns >= 0.0 {
            break;
        }
        let graph = TimingGraph::build(netlist, library);
        let actions = plan_pass(netlist, placement, library, &graph, &sta, &mut report);
        if actions.is_empty() {
            break;
        }
        let applied = apply_actions(netlist, placement, library, actions, &mut report);
        prune_dangling(netlist, library);
        report.passes += 1;
        sta = analyze(netlist, placement);
        best.offer(netlist, placement, &sta);
        if applied == 0 {
            break;
        }
    }

    if best.is_better_than(&sta) {
        let (bn, bp) = best.into_state();
        *netlist = bn;
        *placement = bp;
        sta = analyze(netlist, placement);
    }

    // Stage 4: area/leakage recovery — downsize comfortably-slack cells.
    // It churns the delays of the non-critical majority of the netlist, a
    // major contributor to the paper's Δdelay on unreplaced elements.
    // Accepted only if WNS stays above min(previous, 0): recovery may eat
    // positive slack but must never (re)break timing.
    let floor = sta.wns.min(0.0) - 1e-3;
    for margin in [3.0f32, 6.0] {
        let snapshot = netlist.clone();
        let ops = recover_area(netlist, library, &sta, margin);
        if ops == 0 {
            break;
        }
        let new_sta = analyze(netlist, placement);
        if new_sta.wns >= floor {
            report.downsize_ops += ops;
            sta = new_sta;
            break;
        }
        *netlist = snapshot; // too aggressive: retry conservatively
    }

    report.wns_after = sta.wns;
    report.tns_after = sta.tns;
    obs.add("passes", report.passes as u64);
    obs.add("sizing_ops", report.sizing_ops as u64);
    obs.add("buffer_ops", (report.buffer_ops + report.drv_buffer_ops) as u64);
    obs.add("decompose_ops", report.decompose_ops as u64);
    obs.add("bypass_ops", report.bypass_ops as u64);
    obs.add("downsize_ops", report.downsize_ops as u64);
    debug_assert!(netlist.validate().is_ok(), "optimizer left an invalid netlist");
    report
}

/// One sweep of area recovery: downsizes every combinational cell whose
/// output slack comfortably covers the estimated delay increase (scaled by
/// `margin` to absorb accumulation along shared paths). Returns the number
/// of cells downsized.
fn recover_area(
    netlist: &mut Netlist,
    library: &CellLibrary,
    sta: &StaReport,
    margin: f32,
) -> usize {
    let guard = 0.05 * sta.clock_period_ps;
    let candidates: Vec<(CellId, CellTypeId, f32)> = netlist
        .cells()
        .filter(|(_, c)| !library.cell_type(c.type_id).is_sequential())
        .filter_map(|(cid, c)| {
            let down = library.downsize(c.type_id)?;
            let slack = sta.pin_slack(c.output)?;
            let ty = library.cell_type(c.type_id);
            let dty = library.cell_type(down);
            // Current load-dependent part of the cell delay, from any arc.
            let cell_delay = c.inputs.iter().find_map(|&i| sta.cell_edge_delay(i, c.output))?;
            let drive_part = (cell_delay - ty.intrinsic_ps).max(0.0);
            let delta = drive_part * (dty.drive_res_kohm / ty.drive_res_kohm - 1.0)
                + (dty.intrinsic_ps - ty.intrinsic_ps);
            (slack > margin * delta.max(0.0) + guard).then_some((cid, down, delta))
        })
        .collect();
    let mut ops = 0;
    for (cid, down, _) in candidates {
        if netlist.resize_cell(cid, down, library).is_ok() {
            ops += 1;
        }
    }
    ops
}

/// Builds the shared legality tracker: grid coarse enough that an average
/// bin holds many cells, and a limit that floats with the design's global
/// utilization so blocking happens precisely in *locally* hot bins — for
/// both sparse and dense designs.
fn make_density_tracker(
    netlist: &Netlist,
    placement: &Placement,
    library: &CellLibrary,
) -> DensityTracker {
    let bins =
        ((netlist.num_cells() as f32 / 16.0).sqrt().floor() as usize).clamp(2, LEGALITY_GRID);
    let util_global =
        (netlist.total_cell_area(library) as f32 / placement.floorplan().die.area()).min(1.0);
    let limit = DENSITY_LIMIT.max(util_global * 1.45);
    DensityTracker::new(netlist, library, placement, bins, limit)
}

/// Tracks the best (WNS, then TNS) netlist/placement state seen so far.
struct BestState {
    netlist: Netlist,
    placement: Placement,
    wns: f32,
    tns: f32,
}

impl BestState {
    fn new(netlist: &Netlist, placement: &Placement, sta: &StaReport) -> Self {
        Self { netlist: netlist.clone(), placement: placement.clone(), wns: sta.wns, tns: sta.tns }
    }

    fn offer(&mut self, netlist: &Netlist, placement: &Placement, sta: &StaReport) {
        if sta.wns > self.wns + 1e-6 || (sta.wns >= self.wns - 1e-6 && sta.tns > self.tns + 1e-6) {
            self.netlist = netlist.clone();
            self.placement = placement.clone();
            self.wns = sta.wns;
            self.tns = sta.tns;
        }
    }

    fn is_better_than(&self, sta: &StaReport) -> bool {
        self.wns > sta.wns + 1e-6 || (self.wns >= sta.wns - 1e-6 && self.tns > sta.tns + 1e-6)
    }

    fn into_state(self) -> (Netlist, Placement) {
        (self.netlist, self.placement)
    }
}

/// Decomposes every eligible wide AND/OR gate in the fanin cones of the
/// violating endpoints, latest-arrival input closest to the output.
fn restructure_cones(
    netlist: &mut Netlist,
    placement: &mut Placement,
    library: &CellLibrary,
    sta: &StaReport,
    report: &mut OptReport,
) {
    let graph = TimingGraph::build(netlist, library);
    // Mark the union of fanin cones of violating endpoints.
    let mut in_cone = vec![false; graph.num_nodes()];
    let mut stack: Vec<u32> = graph
        .endpoints()
        .iter()
        .copied()
        .filter(|&v| sta.arrival(graph.pin_of(v)).is_some_and(|a| a > sta.clock_period_ps))
        .collect();
    for &v in &stack {
        in_cone[v as usize] = true;
    }
    while let Some(v) = stack.pop() {
        for e in graph.fanin(v) {
            if !in_cone[e.from as usize] {
                in_cone[e.from as usize] = true;
                stack.push(e.from);
            }
        }
    }

    let mut density = make_density_tracker(netlist, placement, library);

    let candidates: Vec<CellId> = netlist
        .cells()
        .filter(|(_, c)| {
            matches!(
                library.cell_type(c.type_id).gate,
                GateFn::And3 | GateFn::And4 | GateFn::Or3 | GateFn::Or4
            )
        })
        .filter(|(_, c)| graph.node_of(c.output).is_some_and(|v| in_cone[v as usize]))
        .map(|(id, _)| id)
        .collect();

    for cell in candidates {
        let ty = library.cell_type(netlist.cell(cell).type_id);
        let two_input =
            if matches!(ty.gate, GateFn::And3 | GateFn::And4) { GateFn::And2 } else { GateFn::Or2 };
        let Some(ty2) = library
            .pick(two_input, ty.drive)
            .or_else(|| library.variants(two_input).first().copied())
        else {
            continue;
        };
        let extra =
            (library.cell_type(ty2).area_um2 * (ty.num_inputs() - 1) as f32 - ty.area_um2).max(0.0);
        let pos = placement.cell_pos(cell);
        match density.check(placement, pos, extra) {
            Ok(()) => {
                let mut order: Vec<(PinId, f32)> = netlist
                    .cell(cell)
                    .inputs
                    .iter()
                    .map(|&p| (p, sta.arrival(p).unwrap_or(0.0)))
                    .collect();
                order.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
                let order: Vec<PinId> = order.into_iter().map(|(p, _)| p).collect();
                if decompose_gate(netlist, placement, library, cell, &order).is_ok() {
                    density.commit(pos, extra);
                    report.decompose_ops += 1;
                }
            }
            Err(LegalityViolation::Density) => report.blocked_by_density += 1,
            Err(LegalityViolation::Macro) => report.blocked_by_macro += 1,
        }
    }
}

/// Design-wide DRV fixing: split every net above the fanout limit, then
/// buffer every remaining net edge longer than the buffering threshold.
/// Both are layout-legality gated — the paper's coupling between whitespace
/// and optimizer efficacy applies here most of all.
fn drv_fix(
    netlist: &mut Netlist,
    placement: &mut Placement,
    library: &CellLibrary,
    report: &mut OptReport,
) {
    let mut density = make_density_tracker(netlist, placement, library);

    // Max-fanout splitting.
    let nets: Vec<NetId> = netlist.nets().map(|(id, _)| id).collect();
    for net in &nets {
        if netlist.net(*net).sinks.len() <= MAX_FANOUT {
            continue;
        }
        let mut blocked_density = 0usize;
        let mut blocked_macro = 0usize;
        let floorplan = placement.floorplan().clone();
        let inserted = {
            let density_ref = &mut density;
            crate::transforms::split_high_fanout(
                netlist,
                placement,
                library,
                *net,
                MAX_FANOUT,
                |pos, area| match density_ref.check_floorplan(&floorplan, pos, area, 1.0) {
                    Ok(()) => {
                        density_ref.commit(pos, area);
                        true
                    }
                    Err(LegalityViolation::Density) => {
                        blocked_density += 1;
                        false
                    }
                    Err(LegalityViolation::Macro) => {
                        blocked_macro += 1;
                        false
                    }
                },
            )
        };
        report.blocked_by_density += blocked_density;
        report.blocked_by_macro += blocked_macro;
        if let Ok(bufs) = inserted {
            report.drv_buffer_ops += bufs.len();
        }
    }

    // Max-length buffering on every remaining long edge.
    let edges: Vec<(NetId, PinId)> =
        netlist.nets().flat_map(|(id, n)| n.sinks.iter().map(move |&s| (id, s))).collect();
    for (net, sink) in edges {
        if !netlist.net(net).is_alive() || !netlist.net(net).sinks.contains(&sink) {
            continue;
        }
        let driver = netlist.net(net).driver;
        let dp = placement.pin_position(netlist, driver);
        let sp = placement.pin_position(netlist, sink);
        if dp.manhattan(sp) <= BUFFER_LENGTH_UM {
            continue;
        }
        let mid = Point::new((dp.x + sp.x) * 0.5, (dp.y + sp.y) * 0.5);
        let area = buffer_area(library);
        match density.find_legal_near(placement, mid, area) {
            Ok(pos) => {
                if insert_buffer(netlist, placement, library, net, sink, pos).is_ok() {
                    density.commit(pos, area);
                    report.drv_buffer_ops += 1;
                }
            }
            Err(LegalityViolation::Density) => report.blocked_by_density += 1,
            Err(LegalityViolation::Macro) => report.blocked_by_macro += 1,
        }
    }
}

/// Plans the transforms for one pass (read-only on the netlist).
fn plan_pass(
    netlist: &Netlist,
    placement: &Placement,
    library: &CellLibrary,
    graph: &TimingGraph,
    sta: &StaReport,
    report: &mut OptReport,
) -> Vec<Action> {
    // Every violating endpoint, worst first.
    let mut crit: Vec<(u32, f32)> = graph
        .endpoints()
        .iter()
        .filter_map(|&v| {
            let a = sta.arrival(graph.pin_of(v))?;
            (a > sta.clock_period_ps).then_some((v, a))
        })
        .collect();
    if crit.is_empty() {
        return Vec::new();
    }
    crit.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite arrivals"));

    let mut density = make_density_tracker(netlist, placement, library);
    let mut touched_cells: HashSet<CellId> = HashSet::new();
    let mut touched_sinks: HashSet<PinId> = HashSet::new();
    let mut actions = Vec::new();

    for &(ep, _) in &crit {
        for edge in trace_critical_path(graph, sta, ep) {
            match edge.kind {
                EdgeKind::Cell => {
                    let cell = edge.cell.expect("cell edge");
                    if touched_cells.contains(&cell) {
                        continue;
                    }
                    if let Some(a) = plan_cell_action(
                        netlist,
                        placement,
                        library,
                        sta,
                        &mut density,
                        report,
                        cell,
                    ) {
                        if let Action::InvPair(_, second) = a {
                            touched_cells.insert(second);
                        }
                        touched_cells.insert(cell);
                        actions.push(a);
                    }
                }
                EdgeKind::Net => {
                    let net = edge.net.expect("net edge");
                    let driver = graph.pin_of(edge.from);
                    let sink = graph.pin_of(edge.to);
                    if touched_sinks.contains(&sink) {
                        continue;
                    }
                    let dp = placement.pin_position(netlist, driver);
                    let sp = placement.pin_position(netlist, sink);
                    if dp.manhattan(sp) <= BUFFER_LENGTH_UM {
                        continue;
                    }
                    let mid = Point::new((dp.x + sp.x) * 0.5, (dp.y + sp.y) * 0.5);
                    let area = buffer_area(library);
                    match density.find_legal_near(placement, mid, area) {
                        Ok(pos) => {
                            density.commit(pos, area);
                            touched_sinks.insert(sink);
                            actions.push(Action::Buffer(net, sink, pos));
                        }
                        Err(LegalityViolation::Density) => report.blocked_by_density += 1,
                        Err(LegalityViolation::Macro) => report.blocked_by_macro += 1,
                    }
                }
            }
        }
    }
    actions
}

/// Picks a transform for one cell on a critical path.
fn plan_cell_action(
    netlist: &Netlist,
    placement: &Placement,
    library: &CellLibrary,
    sta: &StaReport,
    density: &mut DensityTracker,
    report: &mut OptReport,
    cell: CellId,
) -> Option<Action> {
    let c = netlist.cell(cell);
    if !c.is_alive() {
        return None;
    }
    let ty = library.cell_type(c.type_id);
    let pos = placement.cell_pos(cell);

    // Repeater bypass: free speedup, no legality needed — but only for
    // buffers that are not doing useful wire splitting (short wires on both
    // sides), so the optimizer never undoes its own insertions.
    if ty.gate == GateFn::Buf && repeater_is_useless(netlist, placement, cell) {
        return Some(Action::Bypass(cell));
    }
    if ty.gate == GateFn::Inv {
        if let Some(second) = inverter_partner(netlist, library, cell) {
            return Some(Action::InvPair(cell, second));
        }
    }

    // Timing-driven decomposition of wide AND/OR gates.
    if matches!(ty.gate, GateFn::And3 | GateFn::And4 | GateFn::Or3 | GateFn::Or4) {
        let two_input =
            if matches!(ty.gate, GateFn::And3 | GateFn::And4) { GateFn::And2 } else { GateFn::Or2 };
        let ty2 = library
            .pick(two_input, ty.drive)
            .or_else(|| library.variants(two_input).first().copied())?;
        let new_area = library.cell_type(ty2).area_um2 * (ty.num_inputs() - 1) as f32;
        let extra = (new_area - ty.area_um2).max(0.0);
        match density.check(placement, pos, extra) {
            Ok(()) => {
                density.commit(pos, extra);
                let mut order: Vec<(PinId, f32)> =
                    c.inputs.iter().map(|&p| (p, sta.arrival(p).unwrap_or(0.0))).collect();
                order.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
                return Some(Action::Decompose(cell, order.into_iter().map(|(p, _)| p).collect()));
            }
            Err(LegalityViolation::Density) => report.blocked_by_density += 1,
            Err(LegalityViolation::Macro) => report.blocked_by_macro += 1,
        }
    }

    // Structure-preserved sizing: in-place growth tolerates denser bins.
    if let Some(up) = library.upsize(c.type_id) {
        let extra = library.cell_type(up).area_um2 - ty.area_um2;
        match density.check_scaled(placement, pos, extra, 1.4) {
            Ok(()) => {
                density.commit(pos, extra);
                return Some(Action::Upsize(cell, up));
            }
            Err(LegalityViolation::Density) => report.blocked_by_density += 1,
            Err(LegalityViolation::Macro) => report.blocked_by_macro += 1,
        }
    }
    None
}

/// A buffer is useless (bypass candidate) when bridging it would not create
/// a wire longer than the buffering threshold.
fn repeater_is_useless(netlist: &Netlist, placement: &Placement, cell: CellId) -> bool {
    let c = netlist.cell(cell);
    let Some(in_net) = netlist.pin(c.inputs[0]).net else { return true };
    let driver = netlist.net(in_net).driver;
    let dp = placement.pin_position(netlist, driver);
    let Some(out_net) = netlist.pin(c.output).net else { return true };
    netlist
        .net(out_net)
        .sinks
        .iter()
        .all(|&s| dp.manhattan(placement.pin_position(netlist, s)) <= BUFFER_LENGTH_UM)
}

/// Finds the inverter `second` such that `first` drives only `second`'s
/// input, making the pair a logic identity.
fn inverter_partner(netlist: &Netlist, library: &CellLibrary, first: CellId) -> Option<CellId> {
    let out_net = netlist.pin(netlist.cell(first).output).net?;
    let sinks = &netlist.net(out_net).sinks;
    if sinks.len() != 1 {
        return None;
    }
    let second = netlist.pin(sinks[0]).cell?;
    let sty = library.cell_type(netlist.cell(second).type_id);
    (sty.gate == GateFn::Inv && second != first).then_some(second)
}

/// Applies planned actions, counting successes (stale plans fail silently).
fn apply_actions(
    netlist: &mut Netlist,
    placement: &mut Placement,
    library: &CellLibrary,
    actions: Vec<Action>,
    report: &mut OptReport,
) -> usize {
    let mut applied = 0;
    for action in actions {
        let ok = match action {
            Action::Bypass(c) => {
                bypass_repeater(netlist, library, c).map(|_| report.bypass_ops += 1).is_ok()
            }
            Action::InvPair(a, b) => {
                bypass_inverter_pair(netlist, library, a, b).map(|_| report.bypass_ops += 1).is_ok()
            }
            Action::Decompose(c, order) => decompose_gate(netlist, placement, library, c, &order)
                .map(|_| report.decompose_ops += 1)
                .is_ok(),
            Action::Upsize(c, ty) => {
                netlist.resize_cell(c, ty, library).map(|()| report.sizing_ops += 1).is_ok()
            }
            Action::Buffer(net, sink, pos) => {
                insert_buffer(netlist, placement, library, net, sink, pos)
                    .map(|_| report.buffer_ops += 1)
                    .is_ok()
            }
        };
        if ok {
            applied += 1;
        }
    }
    applied
}

fn buffer_area(library: &CellLibrary) -> f32 {
    library.pick(GateFn::Buf, 4).map(|t| library.cell_type(t).area_um2).unwrap_or(0.5)
}

/// Walks the critical path backwards from endpoint node `ep`: at each node,
/// follow the fanin edge whose `arrival + delay` dominates.
fn trace_critical_path(
    graph: &TimingGraph,
    sta: &StaReport,
    ep: u32,
) -> Vec<rtt_netlist::TimingEdge> {
    let mut path = Vec::new();
    let mut v = ep;
    loop {
        let mut best: Option<(f32, rtt_netlist::TimingEdge)> = None;
        for e in graph.fanin(v) {
            let from_pin = graph.pin_of(e.from);
            let to_pin = graph.pin_of(e.to);
            let delay = match e.kind {
                EdgeKind::Net => sta.net_edge_delay(from_pin, to_pin),
                EdgeKind::Cell => sta.cell_edge_delay(from_pin, to_pin),
            }
            .unwrap_or(0.0);
            let a = sta.arrival(from_pin).unwrap_or(0.0) + delay;
            if best.as_ref().is_none_or(|(ba, _)| a > *ba) {
                best = Some((a, *e));
            }
        }
        let Some((_, e)) = best else { break };
        path.push(e);
        v = e.from;
    }
    path.reverse();
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff_netlists;
    use rtt_circgen::{preset, ripple_carry_adder, GenParams, Scale};
    use rtt_place::{place, PlaceConfig};

    fn tight_period(nl: &Netlist, pl: &Placement, lib: &CellLibrary, frac: f32) -> f32 {
        let g = TimingGraph::build(nl, lib);
        let rt = route(nl, lib, pl, &RouteConfig::default());
        let rep = run_sta(nl, lib, &g, &rt, 1.0);
        rep.max_arrival() * frac
    }

    #[test]
    fn optimizer_improves_wns_on_adder() {
        let lib = CellLibrary::asap7_like();
        let mut nl = ripple_carry_adder(16, &lib);
        let mut pl = place(&nl, &lib, 0, &PlaceConfig::default());
        let period = tight_period(&nl, &pl, &lib, 0.6);
        let rep = optimize(&mut nl, &mut pl, &lib, period);
        assert!(rep.wns_before < 0.0, "period should start violated");
        assert!(rep.wns_after > rep.wns_before, "wns {} -> {}", rep.wns_before, rep.wns_after);
        assert!(rep.total_ops() > 0);
        nl.validate().unwrap();
    }

    #[test]
    fn optimizer_restructures_random_designs() {
        let lib = CellLibrary::asap7_like();
        let d = GenParams::new("o", 500, 21).generate(&lib);
        let before = d.netlist.clone();
        let mut nl = d.netlist;
        let mut pl = place(&nl, &lib, 1, &PlaceConfig::default());
        let period = tight_period(&nl, &pl, &lib, 0.55);
        let rep = optimize(&mut nl, &mut pl, &lib, period);
        assert!(rep.destructive_ops() > 0, "no restructuring happened: {rep:?}");
        let diff = diff_netlists(&before, &nl, &lib);
        assert!(diff.replaced_net_edges > 0);
        assert!(diff.net_replaced_fraction() < 1.0);
    }

    #[test]
    fn endpoints_are_never_replaced() {
        let lib = CellLibrary::asap7_like();
        let d = GenParams::new("e", 400, 33).generate(&lib);
        let before = d.netlist.clone();
        let graph_before = TimingGraph::build(&before, &lib);
        let endpoint_pins: Vec<PinId> =
            graph_before.endpoints().iter().map(|&v| graph_before.pin_of(v)).collect();

        let mut nl = d.netlist;
        let mut pl = place(&nl, &lib, 0, &PlaceConfig::default());
        let period = tight_period(&nl, &pl, &lib, 0.5);
        optimize(&mut nl, &mut pl, &lib, period);

        for p in endpoint_pins {
            assert!(nl.pin(p).is_alive(), "endpoint pin {p} was removed");
        }
    }

    #[test]
    fn met_timing_means_no_work() {
        let lib = CellLibrary::asap7_like();
        let mut nl = ripple_carry_adder(4, &lib);
        let mut pl = place(&nl, &lib, 0, &PlaceConfig::default());
        let rep = optimize(&mut nl, &mut pl, &lib, 1e6);
        assert_eq!(rep.total_ops(), 0);
        assert_eq!(rep.passes, 0);
        assert!(rep.wns_before > 0.0);
    }

    #[test]
    fn area_recovery_downsizes_slack_cells_without_breaking_timing() {
        let lib = CellLibrary::asap7_like();
        let d = GenParams::new("ar", 500, 91).generate(&lib);
        let mut nl = d.netlist;
        let mut pl = place(&nl, &lib, 0, &PlaceConfig::default());
        // Generous period: everything has slack, so the only work left for
        // the optimizer is recovery.
        let period = tight_period(&nl, &pl, &lib, 2.0);
        let area_before = nl.total_cell_area(&lib);
        let rep = optimize(&mut nl, &mut pl, &lib, period);
        assert!(rep.downsize_ops > 0, "no recovery happened: {rep:?}");
        assert!(nl.total_cell_area(&lib) < area_before, "area must shrink");
        assert!(rep.wns_after >= -1e-2, "recovery must not break timing: {rep:?}");
    }

    #[test]
    fn drv_fixing_splits_high_fanout_nets() {
        let lib = CellLibrary::asap7_like();
        // jpeg is the one preset with a net above MAX_FANOUT sinks at
        // small scale.
        let d = preset("jpeg", Scale::Small).unwrap().generate(&lib);
        let mut nl = d.netlist;
        let high: Vec<NetId> =
            nl.nets().filter(|(_, n)| n.sinks.len() > MAX_FANOUT).map(|(id, _)| id).collect();
        assert!(!high.is_empty(), "fixture lost its high-fanout net");
        let mut pl = place(&nl, &lib, d.num_macros, &PlaceConfig::default());
        let mut rep = OptReport::default();
        drv_fix(&mut nl, &mut pl, &lib, &mut rep);
        let split = nl.cells().filter(|(_, c)| c.name.starts_with("opt_fbuf")).count();
        assert!(split > 0, "no fanout fixing: {rep:?}");
        assert!(rep.drv_buffer_ops >= split);
        for net in high {
            assert!(nl.net(net).sinks.len() <= MAX_FANOUT, "net {net} is still over the limit");
        }
    }

    #[test]
    fn denser_placement_blocks_more_transforms() {
        let lib = CellLibrary::asap7_like();
        let run = |util: f32| -> OptReport {
            let d = GenParams::new("d", 600, 77).generate(&lib);
            let mut nl = d.netlist;
            let pcfg = PlaceConfig { utilization: util, ..PlaceConfig::default() };
            let mut pl = place(&nl, &lib, 0, &pcfg);
            let period = tight_period(&nl, &pl, &lib, 0.55);
            optimize(&mut nl, &mut pl, &lib, period)
        };
        let sparse = run(0.35);
        let dense = run(0.72);
        assert!(
            dense.blocked_by_density > sparse.blocked_by_density,
            "dense {} vs sparse {}",
            dense.blocked_by_density,
            sparse.blocked_by_density
        );
    }
}
