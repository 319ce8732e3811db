//! Net routing: topology + congestion detour + RC reduction.

use rtt_netlist::{CellLibrary, NetId, Netlist, PinId};
use rtt_place::{Grid, Placement, Point, Rect};

use crate::rc::{elmore_delays, RcTree};
use crate::steiner::rectilinear_mst;

/// Load presented by a top-level output port, fF.
const PORT_CAP_FF: f32 = 1.0;

/// Resolution of the RUDY congestion map used for detours.
const RUDY_GRID: usize = 32;

// ASAP7-like thin-wire parasitics: ~130 Ω/µm, ~0.2 fF/µm, so a 50 µm net
// costs tens of ps — comparable to a gate delay.

/// Wire resistance, kΩ per µm.
const UNIT_RES_KOHM_PER_UM: f32 = 0.13;

/// Wire capacitance, fF per µm.
pub const UNIT_CAP_FF_PER_UM: f32 = 0.20;

/// Routing configuration (congestion response).
#[derive(Clone, Debug, PartialEq)]
pub struct RouteConfig {
    /// How strongly congestion above the die average stretches wires.
    pub detour_strength: f32,
    /// Extra detour applied per unit of macro overlap along an edge.
    pub macro_detour: f32,
}

impl Default for RouteConfig {
    fn default() -> Self {
        Self { detour_strength: 0.35, macro_detour: 0.45 }
    }
}

/// One routed net: topology length and reduced RC timing quantities.
#[derive(Clone, Debug)]
pub struct RoutedNet {
    /// The net this entry describes.
    pub net: NetId,
    /// Total routed wirelength (detours included), µm.
    pub wirelength_um: f32,
    /// Total capacitance seen by the driver (wire + sink pins), fF.
    pub total_cap_ff: f32,
    sink_delay: Vec<(PinId, f32)>,
}

impl RoutedNet {
    /// Elmore wire delay from the driver to `sink`, ps.
    pub fn sink_delay(&self, sink: PinId) -> Option<f32> {
        self.sink_delay.iter().find(|(p, _)| *p == sink).map(|(_, d)| *d)
    }

    /// All `(sink, delay_ps)` pairs.
    pub fn sink_delays(&self) -> &[(PinId, f32)] {
        &self.sink_delay
    }
}

/// Result of routing a whole design.
#[derive(Clone, Debug)]
pub struct Routing {
    nets: Vec<Option<RoutedNet>>,
    congestion: Grid,
    total_wl: f64,
}

impl Routing {
    /// The routed entry for `net`, if it is live.
    pub fn net(&self, net: NetId) -> Option<&RoutedNet> {
        self.nets.get(net.index()).and_then(Option::as_ref)
    }

    /// The RUDY congestion map the detours were derived from.
    pub fn congestion(&self) -> &Grid {
        &self.congestion
    }

    /// Total routed wirelength, µm.
    pub fn total_wirelength(&self) -> f64 {
        self.total_wl
    }
}

/// Builds the RUDY (rectangular uniform wire density) map — the paper's
/// second layout feature. Each net smears `hpwl / bbox_area` over its
/// bounding box; values are per-µm² wire volume.
pub fn rudy_map(netlist: &Netlist, placement: &Placement, w: usize, h: usize) -> Grid {
    let mut g = Grid::new(w, h, placement.floorplan().die);
    for (_, net) in netlist.nets() {
        let mut r = {
            let d = placement.pin_position(netlist, net.driver);
            Rect::new(d.x, d.y, d.x, d.y)
        };
        for &s in &net.sinks {
            let p = placement.pin_position(netlist, s);
            r = Rect::new(r.x0.min(p.x), r.y0.min(p.y), r.x1.max(p.x), r.y1.max(p.y));
        }
        let hpwl = r.width() + r.height();
        if hpwl > 0.0 {
            g.splat(r, hpwl);
        }
    }
    g.normalize_by_bin_area();
    g
}

/// Routes every live net of `netlist` over `placement`.
///
/// Deterministic: no randomness is involved; detours come from the static
/// RUDY estimate and macro overlaps.
pub fn route(
    netlist: &Netlist,
    library: &CellLibrary,
    placement: &Placement,
    config: &RouteConfig,
) -> Routing {
    let obs = rtt_obs::span("route::route");
    obs.add("nets", netlist.num_nets() as u64);
    let congestion = rudy_map(netlist, placement, RUDY_GRID, RUDY_GRID);
    let mean_c = {
        let v = congestion.values();
        let s: f32 = v.iter().sum();
        (s / v.len() as f32).max(f32::MIN_POSITIVE)
    };
    let macros = &placement.floorplan().macros;

    let mut nets: Vec<Option<RoutedNet>> = vec![None; netlist.net_capacity()];
    let mut total_wl = 0.0f64;
    for (nid, net) in netlist.nets() {
        let mut points = Vec::with_capacity(1 + net.sinks.len());
        points.push(placement.pin_position(netlist, net.driver));
        for &s in &net.sinks {
            points.push(placement.pin_position(netlist, s));
        }
        let edges = rectilinear_mst(&points);

        let mut tree = RcTree::with_nodes(points.len());
        let mut wl = 0.0f32;
        for &(a, b) in &edges {
            let base = points[a].manhattan(points[b]).max(1e-3);
            let factor = detour_factor(&congestion, mean_c, macros, points[a], points[b], config);
            let len = base * factor;
            wl += len;
            tree.set_edge(a, b, len * UNIT_RES_KOHM_PER_UM, len * UNIT_CAP_FF_PER_UM);
        }
        for (i, &s) in net.sinks.iter().enumerate() {
            let cap = match netlist.pin(s).cell {
                Some(c) => library.cell_type(netlist.cell(c).type_id).pin_cap_ff,
                None => PORT_CAP_FF,
            };
            tree.add_node_cap(i + 1, cap);
        }
        let delays = elmore_delays(&tree);
        let sink_delay = net.sinks.iter().enumerate().map(|(i, &s)| (s, delays[i + 1])).collect();
        total_wl += f64::from(wl);
        nets[nid.index()] = Some(RoutedNet {
            net: nid,
            wirelength_um: wl,
            total_cap_ff: tree.total_cap(),
            sink_delay,
        });
    }
    Routing { nets, congestion, total_wl }
}

/// Detour multiplier for a tree edge: 1 plus congestion pressure plus macro
/// blockage pressure.
fn detour_factor(
    congestion: &Grid,
    mean_c: f32,
    macros: &[Rect],
    a: Point,
    b: Point,
    config: &RouteConfig,
) -> f32 {
    // Sample congestion at the endpoints and midpoint.
    let mid = Point::new((a.x + b.x) * 0.5, (a.y + b.y) * 0.5);
    let mut c = 0.0;
    for p in [a, mid, b] {
        let (bx, by) = congestion.bin_of(p.x, p.y);
        c += congestion.at(bx, by);
    }
    c /= 3.0;
    let pressure = ((c / mean_c) - 1.0).clamp(0.0, 3.0);

    // Macro blockage: fraction of the edge bounding box covered by macros.
    let bbox = Rect::bounding(a, b);
    let mut blocked = 0.0f32;
    if bbox.area() > 0.0 {
        for m in macros {
            if m.overlaps(&bbox) {
                let ox = (bbox.x1.min(m.x1) - bbox.x0.max(m.x0)).max(0.0);
                let oy = (bbox.y1.min(m.y1) - bbox.y0.max(m.y0)).max(0.0);
                blocked += (ox * oy) / bbox.area();
            }
        }
    }
    1.0 + config.detour_strength * pressure + config.macro_detour * blocked.min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtt_circgen::{ripple_carry_adder, GenParams};
    use rtt_place::{place, PlaceConfig};

    fn setup(cells: usize, macros: usize) -> (CellLibrary, Netlist, Placement) {
        let lib = CellLibrary::asap7_like();
        let d = GenParams::new("r", cells, 5).generate(&lib);
        let pl = place(&d.netlist, &lib, macros, &PlaceConfig::default());
        (lib, d.netlist, pl)
    }

    #[test]
    fn every_live_net_is_routed() {
        let (lib, nl, pl) = setup(200, 1);
        let r = route(&nl, &lib, &pl, &RouteConfig::default());
        for (nid, net) in nl.nets() {
            let rn = r.net(nid).expect("routed");
            assert_eq!(rn.sink_delays().len(), net.sinks.len());
            assert!(rn.total_cap_ff > 0.0);
            for &(_, d) in rn.sink_delays() {
                assert!(d.is_finite() && d >= 0.0);
            }
        }
        assert!(r.total_wirelength() > 0.0);
    }

    #[test]
    fn longer_nets_have_larger_delay() {
        let lib = CellLibrary::asap7_like();
        let nl = ripple_carry_adder(8, &lib);
        let pl = place(&nl, &lib, 0, &PlaceConfig::default());
        let r = route(&nl, &lib, &pl, &RouteConfig::default());
        // Across all 2-pin nets, delay should correlate with wirelength:
        // the longest 2-pin net must be slower than the shortest.
        let mut two_pin: Vec<(f32, f32)> = nl
            .nets()
            .filter(|(_, n)| n.sinks.len() == 1)
            .map(|(nid, n)| {
                let rn = r.net(nid).unwrap();
                (rn.wirelength_um, rn.sink_delay(n.sinks[0]).unwrap())
            })
            .collect();
        two_pin.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let (short, long) = (two_pin.first().unwrap(), two_pin.last().unwrap());
        assert!(long.0 > short.0);
        assert!(long.1 > short.1, "delay {} !> {}", long.1, short.1);
    }

    #[test]
    fn routing_is_deterministic() {
        let (lib, nl, pl) = setup(150, 0);
        let a = route(&nl, &lib, &pl, &RouteConfig::default());
        let b = route(&nl, &lib, &pl, &RouteConfig::default());
        assert_eq!(a.total_wirelength(), b.total_wirelength());
    }

    #[test]
    fn detours_only_lengthen() {
        let (lib, nl, pl) = setup(300, 2);
        let no_detour = RouteConfig { detour_strength: 0.0, macro_detour: 0.0 };
        let base = route(&nl, &lib, &pl, &no_detour);
        let full = route(&nl, &lib, &pl, &RouteConfig::default());
        assert!(full.total_wirelength() >= base.total_wirelength());
    }

    #[test]
    fn rudy_mass_tracks_hpwl() {
        let (_, nl, pl) = setup(200, 0);
        let g = rudy_map(&nl, &pl, 16, 16);
        let (bw, bh) = g.bin_size();
        let mass: f32 = g.values().iter().map(|v| v * bw * bh).sum();
        let hpwl = pl.hpwl(&nl) as f32;
        assert!((mass - hpwl).abs() / hpwl < 0.05, "mass {mass} vs hpwl {hpwl}");
    }

    #[test]
    fn dead_net_is_not_routed() {
        let (lib, mut nl, pl) = setup(100, 0);
        let (nid, _) = nl.nets().next().unwrap();
        nl.remove_net(nid).unwrap();
        let r = route(&nl, &lib, &pl, &RouteConfig::default());
        assert!(r.net(nid).is_none());
    }
}
