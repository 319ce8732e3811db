//! Force-directed global placement with macro carving and bin spreading.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rtt_netlist::{CellId, CellLibrary, Netlist, PinId};

use crate::{Floorplan, Grid, Point, Rect};

/// Largest spreading-grid resolution (bins per die edge).
const MAX_SPREAD_BINS: usize = 24;

/// Die area fraction consumed by each macro block.
const MACRO_FRACTION: f32 = 0.07;

/// Placement configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct PlaceConfig {
    /// Target standard-cell utilization of the non-macro die area. The
    /// optimizer's freedom (and hence the paper's layout signal) depends on
    /// the whitespace this leaves.
    pub utilization: f32,
    /// Force-directed iterations.
    pub iterations: usize,
    /// RNG seed for initial placement and spreading decisions.
    pub seed: u64,
}

impl Default for PlaceConfig {
    fn default() -> Self {
        Self { utilization: 0.55, iterations: 24, seed: 1 }
    }
}

/// A completed placement: die, macros, cell positions, port positions.
#[derive(Clone, Debug)]
pub struct Placement {
    floorplan: Floorplan,
    cell_pos: Vec<Point>,
    port_pos: Vec<Option<Point>>,
}

impl Placement {
    /// Creates an all-at-origin placement for `netlist` over `floorplan`;
    /// positions are filled in with [`Self::place_cell`] /
    /// [`Self::place_port`] (used by the placement parser).
    pub fn empty(floorplan: Floorplan, netlist: &Netlist) -> Self {
        Self {
            floorplan,
            cell_pos: vec![Point::default(); netlist.cell_capacity()],
            port_pos: vec![None; netlist.pin_capacity()],
        }
    }

    /// The floorplan (die outline and macro blocks).
    pub fn floorplan(&self) -> &Floorplan {
        &self.floorplan
    }

    /// Sets the location of a top-level port pin.
    pub fn place_port(&mut self, pin: PinId, p: Point) {
        if pin.index() >= self.port_pos.len() {
            self.port_pos.resize(pin.index() + 1, None);
        }
        self.port_pos[pin.index()] = Some(p);
    }

    /// Position of cell `c` (its center).
    ///
    /// # Panics
    ///
    /// Panics if the cell was never placed (out of range).
    pub fn cell_pos(&self, c: CellId) -> Point {
        self.cell_pos[c.index()]
    }

    /// Moves (or first places) cell `c`, growing the table if `c` was
    /// created after the initial placement — this is how the timing
    /// optimizer legalizes inserted buffers.
    pub fn place_cell(&mut self, c: CellId, p: Point) {
        if c.index() >= self.cell_pos.len() {
            self.cell_pos.resize(c.index() + 1, Point::default());
        }
        self.cell_pos[c.index()] = p;
    }

    /// Position of any pin: its cell's position, or the port location.
    ///
    /// Every port is placed by the placer before timing or feature code
    /// runs; that invariant is debug-checked, and release builds fall
    /// back to the origin instead of panicking on the serving path.
    pub fn pin_position(&self, netlist: &Netlist, pin: PinId) -> Point {
        match netlist.pin(pin).cell {
            Some(c) => self.cell_pos(c),
            None => {
                let p = self.port_pos.get(pin.index()).copied().flatten();
                debug_assert!(p.is_some(), "port {pin} was placed");
                p.unwrap_or_default()
            }
        }
    }

    /// Total half-perimeter wirelength over all live nets, in µm.
    pub fn hpwl(&self, netlist: &Netlist) -> f64 {
        let mut total = 0.0f64;
        for (_, net) in netlist.nets() {
            let d = self.pin_position(netlist, net.driver);
            let (mut x0, mut x1, mut y0, mut y1) = (d.x, d.x, d.y, d.y);
            for &s in &net.sinks {
                let p = self.pin_position(netlist, s);
                x0 = x0.min(p.x);
                x1 = x1.max(p.x);
                y0 = y0.min(p.y);
                y1 = y1.max(p.y);
            }
            total += f64::from((x1 - x0) + (y1 - y0));
        }
        total
    }
}

/// Places `netlist` on a die sized for `config.utilization`, carving
/// `num_macros` macro blocks first.
///
/// Deterministic for fixed inputs and seed.
pub fn place(
    netlist: &Netlist,
    library: &CellLibrary,
    num_macros: usize,
    config: &PlaceConfig,
) -> Placement {
    let obs = rtt_obs::span("place::place");
    obs.add("cells", netlist.num_cells() as u64);
    obs.add("iterations", config.iterations as u64);
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Die sizing: standard-cell area / utilization, plus macro area.
    let cell_area = netlist.total_cell_area(library) as f32;
    let std_area = (cell_area / config.utilization.max(0.05)).max(1.0);
    let macro_blowup = 1.0 / (1.0 - MACRO_FRACTION * num_macros as f32).max(0.3);
    let side = (std_area * macro_blowup).sqrt().max(2.0);
    let die = Rect::new(0.0, 0.0, side, side);

    let macros = carve_macros(die, num_macros, &mut rng);
    let floorplan = Floorplan { die, macros };

    // Ports: inputs on the left edge, outputs on the right, evenly spread.
    let mut port_pos = vec![None; netlist.pin_capacity()];
    for (edge_x, ports) in [(die.x0, netlist.input_ports()), (die.x1, netlist.output_ports())] {
        let n = ports.len().max(1) as f32;
        for (i, &p) in ports.iter().enumerate() {
            let y = die.y0 + die.height() * (i as f32 + 0.5) / n;
            port_pos[p.index()] = Some(Point::new(edge_x, y));
        }
    }

    // Initial placement: random placeable points.
    let mut cell_pos = vec![Point::default(); netlist.cell_capacity()];
    for (cid, _) in netlist.cells() {
        cell_pos[cid.index()] = random_placeable(&floorplan, &mut rng);
    }

    let placement = Placement { floorplan, cell_pos, port_pos };
    refine(netlist, library, placement, config, &mut rng)
}

/// Carves non-overlapping macro rectangles of about `MACRO_FRACTION` of the
/// die each, near the die corners/edges.
fn carve_macros(die: Rect, count: usize, rng: &mut StdRng) -> Vec<Rect> {
    let mut macros: Vec<Rect> = Vec::with_capacity(count);
    let die_area = die.area();
    'outer: for k in 0..count {
        let area = die_area * MACRO_FRACTION * rng.gen_range(0.8..1.2);
        for _attempt in 0..64 {
            let aspect = rng.gen_range(0.6..1.6);
            let w = (area * aspect).sqrt().min(die.width() * 0.45);
            let h = (area / aspect).sqrt().min(die.height() * 0.45);
            // Prefer corners (k cycles through them), then random interior.
            let (x0, y0) = match k % 4 {
                0 => (die.x0, die.y0),
                1 => (die.x1 - w, die.y0),
                2 => (die.x0, die.y1 - h),
                3 => (die.x1 - w, die.y1 - h),
                _ => unreachable!(),
            };
            let jitter = rng.gen_range(0.0..0.15f32);
            let cand = Rect::new(
                (x0 + jitter * die.width()).clamp(die.x0, die.x1 - w),
                (y0 + jitter * die.height()).clamp(die.y0, die.y1 - h),
                0.0,
                0.0,
            );
            let cand = Rect::new(cand.x0, cand.y0, cand.x0 + w, cand.y0 + h);
            if !macros.iter().any(|m| m.overlaps(&cand.inflate(die.width() * 0.02))) {
                macros.push(cand);
                continue 'outer;
            }
        }
        // Could not fit this macro without overlap: skip it.
    }
    macros
}

fn random_placeable(fp: &Floorplan, rng: &mut StdRng) -> Point {
    for _ in 0..128 {
        let p =
            Point::new(rng.gen_range(fp.die.x0..fp.die.x1), rng.gen_range(fp.die.y0..fp.die.y1));
        if fp.is_placeable(p) {
            return p;
        }
    }
    fp.die.center()
}

/// Force-directed refinement: pull every cell toward the centroid of its
/// connected pins, then spread overfull bins.
fn refine(
    netlist: &Netlist,
    library: &CellLibrary,
    mut placement: Placement,
    config: &PlaceConfig,
    rng: &mut StdRng,
) -> Placement {
    rtt_obs::span!("place::refine");
    let live_cells: Vec<CellId> = netlist.cells().map(|(c, _)| c).collect();
    for iter in 0..config.iterations {
        // Cooling schedule: strong pull early, gentler later.
        let alpha = 0.75 * (1.0 - iter as f32 / config.iterations as f32) + 0.15;
        for &cid in &live_cells {
            let cell = netlist.cell(cid);
            let mut sx = 0.0f32;
            let mut sy = 0.0f32;
            let mut n = 0u32;
            for &pin in cell.inputs.iter().chain(std::iter::once(&cell.output)) {
                let Some(net_id) = netlist.pin(pin).net else { continue };
                let net = netlist.net(net_id);
                for &other in std::iter::once(&net.driver).chain(net.sinks.iter()) {
                    if netlist.pin(other).cell == Some(cid) {
                        continue;
                    }
                    let p = placement.pin_position(netlist, other);
                    sx += p.x;
                    sy += p.y;
                    n += 1;
                }
            }
            if n == 0 {
                continue;
            }
            let old = placement.cell_pos(cid);
            let target = Point::new(sx / n as f32, sy / n as f32);
            let mut new =
                Point::new(old.x + alpha * (target.x - old.x), old.y + alpha * (target.y - old.y));
            new = placement.floorplan.die.clamp(new);
            new = push_out_of_macros(&placement.floorplan, new, old);
            placement.cell_pos[cid.index()] = new;
        }
        spread(netlist, library, &mut placement, config, rng);
    }
    placement
}

/// If `p` landed in a macro, push it to the macro edge nearest to `p`.
fn push_out_of_macros(fp: &Floorplan, p: Point, fallback: Point) -> Point {
    for m in &fp.macros {
        if m.contains(p) {
            // Candidate exits on all four sides; take the closest inside die.
            let eps = 1e-3;
            let cands = [
                Point::new(m.x0 - eps, p.y),
                Point::new(m.x1 + eps, p.y),
                Point::new(p.x, m.y0 - eps),
                Point::new(p.x, m.y1 + eps),
            ];
            let best = cands
                .into_iter()
                .filter(|c| fp.die.contains(*c))
                .min_by(|a, b| a.manhattan(p).partial_cmp(&b.manhattan(p)).expect("finite"));
            return best.unwrap_or(fallback);
        }
    }
    p
}

/// Moves cells out of overfull bins into nearby underfull bins.
fn spread(
    netlist: &Netlist,
    library: &CellLibrary,
    placement: &mut Placement,
    config: &PlaceConfig,
    rng: &mut StdRng,
) {
    rtt_obs::span!("place::spread");
    let fp = placement.floorplan.clone();
    // Adapt the grid so an average bin holds several cells; a grid finer
    // than the design cannot express meaningful density.
    let bins =
        ((netlist.num_cells() as f32 / 8.0).sqrt().floor() as usize).clamp(2, MAX_SPREAD_BINS);
    let mut occupancy = Grid::new(bins, bins, fp.die);
    let mut members: Vec<Vec<CellId>> = vec![Vec::new(); bins * bins];
    for (cid, cell) in netlist.cells() {
        let p = placement.cell_pos(cid);
        let (bx, by) = occupancy.bin_of(p.x, p.y);
        let area = library.cell_type(cell.type_id).area_um2;
        occupancy.set(bx, by, occupancy.at(bx, by) + area);
        members[by * bins + bx].push(cid);
    }
    let (bw, bh) = occupancy.bin_size();
    let capacity = bw * bh; // utilization-1.0 capacity per bin
                            // Allow modest clumping over the average, hard-capped below 1.0 so the
                            // downstream optimizer's legality checks see real whitespace structure
                            // rather than uniformly saturated bins.
    let limit = capacity * (config.utilization.max(0.2) * 1.25).min(0.92);

    for by in 0..bins {
        for bx in 0..bins {
            let mut load = occupancy.at(bx, by);
            if load <= limit {
                continue;
            }
            let cells = members[by * bins + bx].clone();
            for cid in cells {
                if load <= limit {
                    break;
                }
                // Find the least-loaded neighbor bin within radius 2.
                let mut best: Option<(usize, usize, f32)> = None;
                for dy in -2i32..=2 {
                    for dx in -2i32..=2 {
                        if dx == 0 && dy == 0 {
                            continue;
                        }
                        let nx = bx as i32 + dx;
                        let ny = by as i32 + dy;
                        if nx < 0 || ny < 0 || nx >= bins as i32 || ny >= bins as i32 {
                            continue;
                        }
                        let (nx, ny) = (nx as usize, ny as usize);
                        let l = occupancy.at(nx, ny);
                        if best.is_none_or(|(_, _, bl)| l < bl) {
                            best = Some((nx, ny, l));
                        }
                    }
                }
                let Some((nx, ny, _)) = best else { break };
                let r = occupancy.bin_rect(nx, ny);
                let p = Point::new(
                    rng.gen_range(r.x0..r.x1.max(r.x0 + 1e-3)),
                    rng.gen_range(r.y0..r.y1.max(r.y0 + 1e-3)),
                );
                if !fp.is_placeable(p) {
                    continue;
                }
                let area = library.cell_type(netlist.cell(cid).type_id).area_um2;
                placement.cell_pos[cid.index()] = p;
                load -= area;
                occupancy.set(bx, by, load);
                occupancy.set(nx, ny, occupancy.at(nx, ny) + area);
            }
        }
    }
}

/// Builds the standard-cell density map: per-bin placed cell area divided by
/// bin area (the paper's first layout feature).
pub fn density_map(
    netlist: &Netlist,
    library: &CellLibrary,
    placement: &Placement,
    w: usize,
    h: usize,
) -> Grid {
    let mut g = Grid::new(w, h, placement.floorplan().die);
    for (cid, cell) in netlist.cells() {
        let p = placement.cell_pos(cid);
        let area = library.cell_type(cell.type_id).area_um2;
        let (bx, by) = g.bin_of(p.x, p.y);
        g.set(bx, by, g.at(bx, by) + area);
    }
    g.normalize_by_bin_area();
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtt_circgen::GenParams;

    fn placed(cells: usize, macros: usize, seed: u64) -> (CellLibrary, Netlist, Placement) {
        let lib = CellLibrary::asap7_like();
        let d = GenParams::new("p", cells, seed).generate(&lib);
        let cfg = PlaceConfig { seed, ..PlaceConfig::default() };
        let pl = place(&d.netlist, &lib, macros, &cfg);
        (lib, d.netlist, pl)
    }

    #[test]
    fn all_cells_inside_die_and_outside_macros() {
        let (_, nl, pl) = placed(400, 2, 3);
        for (cid, _) in nl.cells() {
            let p = pl.cell_pos(cid);
            assert!(pl.floorplan().die.contains(p), "cell {cid} at {p} off-die");
            for m in &pl.floorplan().macros {
                assert!(!m.contains(p), "cell {cid} at {p} inside macro");
            }
        }
    }

    #[test]
    fn ports_sit_on_die_edges() {
        let (_, nl, pl) = placed(200, 0, 5);
        for &p in nl.input_ports() {
            assert_eq!(pl.pin_position(&nl, p).x, pl.floorplan().die.x0);
        }
        for &p in nl.output_ports() {
            assert_eq!(pl.pin_position(&nl, p).x, pl.floorplan().die.x1);
        }
    }

    #[test]
    fn refinement_reduces_wirelength() {
        let lib = CellLibrary::asap7_like();
        let d = GenParams::new("wl", 400, 9).generate(&lib);
        let zero = PlaceConfig { iterations: 0, seed: 9, ..PlaceConfig::default() };
        let many = PlaceConfig { iterations: 24, seed: 9, ..PlaceConfig::default() };
        let p0 = place(&d.netlist, &lib, 0, &zero);
        let p1 = place(&d.netlist, &lib, 0, &many);
        assert!(
            p1.hpwl(&d.netlist) < p0.hpwl(&d.netlist) * 0.8,
            "refined {} vs initial {}",
            p1.hpwl(&d.netlist),
            p0.hpwl(&d.netlist)
        );
    }

    #[test]
    fn placement_is_deterministic() {
        let (_, nl, a) = placed(150, 1, 7);
        let (_, _, b) = placed(150, 1, 7);
        for (cid, _) in nl.cells() {
            assert_eq!(a.cell_pos(cid), b.cell_pos(cid));
        }
    }

    #[test]
    fn macros_do_not_overlap() {
        let (_, _, pl) = placed(600, 4, 11);
        let ms = &pl.floorplan().macros;
        assert!(!ms.is_empty());
        for i in 0..ms.len() {
            for j in i + 1..ms.len() {
                assert!(!ms[i].overlaps(&ms[j]));
            }
        }
    }

    #[test]
    fn place_cell_grows_table() {
        let (_, _, mut pl) = placed(50, 0, 13);
        let far = CellId::from_index(10_000);
        pl.place_cell(far, Point::new(1.0, 2.0));
        assert_eq!(pl.cell_pos(far), Point::new(1.0, 2.0));
    }

    #[test]
    fn density_map_reflects_utilization() {
        let (lib, nl, pl) = placed(500, 0, 17);
        let g = density_map(&nl, &lib, &pl, 16, 16);
        let total_area: f32 = nl.total_cell_area(&lib) as f32;
        let (bw, bh) = g.bin_size();
        // Total mass (density × bin area) equals total placed area.
        let mass: f32 = g.values().iter().map(|v| v * bw * bh).sum();
        assert!((mass - total_area).abs() / total_area < 1e-3);
        // Mean utilization should be near the configured target.
        let die_area = pl.floorplan().die.area();
        let util = total_area / die_area;
        assert!(util > 0.3 && util < 0.8, "utilization {util}");
    }

    #[test]
    fn hpwl_is_positive_and_finite() {
        let (_, nl, pl) = placed(120, 0, 19);
        let wl = pl.hpwl(&nl);
        assert!(wl.is_finite() && wl > 0.0);
    }
}
