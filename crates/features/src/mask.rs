//! Longest-path search and endpoint-wise critical-region masks
//! (paper Section V-B, Equations 4–6).

use rayon::prelude::*;

use rtt_netlist::{EdgeKind, Netlist, TimingGraph};
use rtt_place::{Grid, Placement, Rect};

/// Finds (one of) the longest path(s) from the sources to endpoint node
/// `ep` using the paper's level-descent rule: from a node at topological
/// level `l`, step to any fanin at level `l - 1` (such a fanin always
/// exists on a longest path because levels are longest distances).
///
/// Returns node ids ordered source → endpoint. Deterministic: the first
/// qualifying fanin is taken.
pub fn longest_path(graph: &TimingGraph, ep: u32) -> Vec<u32> {
    let mut path = Vec::new();
    longest_path_into(graph, ep, &mut path);
    path
}

/// [`longest_path`] into a caller-provided buffer, so batched callers
/// reuse one allocation across endpoints.
pub fn longest_path_into(graph: &TimingGraph, ep: u32, path: &mut Vec<u32>) {
    path.clear();
    path.resize(graph.level(ep) as usize + 1, 0);
    let n = fill_path(graph, ep, path);
    path.truncate(n);
}

/// Allocation-free core of [`longest_path_into`]: writes the path into
/// `buf` — which must hold at least `level(ep) + 1` entries — and
/// returns its length. The batched mask kernels call this with one
/// scratch buffer sized to `max_level + 1` per task, keeping the hot
/// loop free of `Vec` growth.
fn fill_path(graph: &TimingGraph, ep: u32, buf: &mut [u32]) -> usize {
    assert!(buf.len() > graph.level(ep) as usize, "buf holds level(ep) + 1 nodes");
    buf[0] = ep;
    let mut n = 1;
    let mut v = ep;
    while graph.level(v) > 0 {
        let want = graph.level(v) - 1;
        // Levels are longest distances, so a node at level l > 0 always
        // has a fanin at level l - 1 on a validated graph. This runs on
        // the serving path (R003), so a violated invariant truncates the
        // path instead of panicking.
        let pred = graph.fanin(v).find(|e| graph.level(e.from) == want).map(|e| e.from);
        debug_assert!(pred.is_some(), "a node at level l has a fanin at level l-1");
        let Some(pred) = pred else { break };
        buf[n] = pred;
        n += 1;
        v = pred;
    }
    buf[..n].reverse();
    n
}

/// Builds the critical-region mask of one endpoint at `grid × grid`
/// resolution: bins overlapping the union of the bounding boxes of the
/// *net edges* along the endpoint's longest path are 1, others 0.
pub fn endpoint_mask(
    netlist: &Netlist,
    placement: &Placement,
    graph: &TimingGraph,
    path: &[u32],
    grid: usize,
) -> Grid {
    let mut mask = Grid::new(grid, grid, placement.floorplan().die);
    for pair in path.windows(2) {
        let (u, v) = (pair[0], pair[1]);
        // Only net edges count: cell-internal regions are not usable by the
        // optimizer (paper Section V-B).
        let is_net = graph.fanin(v).any(|e| e.from == u && e.kind == EdgeKind::Net);
        if !is_net {
            continue;
        }
        let a = placement.pin_position(netlist, graph.pin_of(u));
        let b = placement.pin_position(netlist, graph.pin_of(v));
        mark_bins(&mut mask, Rect::bounding(a, b));
    }
    mask
}

/// Marks every bin overlapping `r` with 1.
fn mark_bins(mask: &mut Grid, r: Rect) {
    let (x0, y0) = mask.bin_of(r.x0, r.y0);
    let (x1, y1) = mask.bin_of(r.x1, r.y1);
    for y in y0..=y1 {
        for x in x0..=x1 {
            mask.set(x, y, 1.0);
        }
    }
}

/// Endpoints per parallel task in [`endpoint_masks_for`]: large enough to
/// amortize task overhead and keep the reused scratch warm.
const MASK_CHUNK: usize = 64;

/// Computes the critical-region mask of every endpoint, aligned with
/// `graph.endpoints()`, in sparse form: per endpoint, the ascending
/// row-major indices of the set bins of its `grid × grid` mask.
///
/// Bit-identical to the set bins of [`endpoint_mask`] on the endpoint's
/// [`longest_path`]: the shared geometry grid carries the same die
/// rectangle and bin pitch, so `bin_of` lands every rectangle corner in
/// the same bins. No dense `endpoints × grid²` buffer is ever built.
pub fn endpoint_masks(
    netlist: &Netlist,
    placement: &Placement,
    graph: &TimingGraph,
    grid: usize,
) -> Vec<Vec<u32>> {
    endpoint_masks_for(netlist, placement, graph, grid, graph.endpoints())
}

/// [`endpoint_masks`] for an arbitrary list of endpoint nodes `eps`, in
/// that order. This is the cone-scoped recompute behind the delta-prepare
/// path: only endpoints whose fan-in cone a transform invalidated are
/// listed, and every other endpoint's row is carried over from the
/// previous preparation.
///
/// Masks are independent per endpoint, exactly as the paper notes the
/// path-finding can run in parallel. Endpoints are processed in chunks of
/// [`MASK_CHUNK`], each task reusing one path buffer and one bin bitmap,
/// so the fan-out is deterministic at any thread count.
pub fn endpoint_masks_for(
    netlist: &Netlist,
    placement: &Placement,
    graph: &TimingGraph,
    grid: usize,
    eps: &[u32],
) -> Vec<Vec<u32>> {
    let obs = rtt_obs::span("features::endpoint_masks");
    obs.add("endpoints", eps.len() as u64);
    let mut out: Vec<Vec<u32>> = vec![Vec::new(); eps.len()];
    // Geometry only: read by `bin_of`, never written.
    let geom = Grid::new(grid, grid, placement.floorplan().die);
    out.par_chunks_mut(MASK_CHUNK).enumerate().for_each(|(c, rows)| {
        let mut path = vec![0u32; graph.max_level() as usize + 1];
        let mut marked = vec![false; grid * grid];
        for (j, bins) in rows.iter_mut().enumerate() {
            let ep = eps[c * MASK_CHUNK + j];
            mask_bins(netlist, placement, graph, &geom, ep, &mut path, &mut marked, bins);
        }
    });
    out
}

/// Collects one endpoint's set mask bins into `bins`, ascending. `path`
/// is a caller-owned scratch of at least `max_level + 1` entries;
/// `marked` is an all-`false` `grid²` bitmap, returned all-`false`. Boxes
/// are marked by row-range fills, then only their bounding box is scanned
/// (row-major, so bins come out sorted) and cleared.
#[allow(clippy::too_many_arguments)]
fn mask_bins(
    netlist: &Netlist,
    placement: &Placement,
    graph: &TimingGraph,
    geom: &Grid,
    ep: u32,
    path: &mut [u32],
    marked: &mut [bool],
    bins: &mut Vec<u32>,
) {
    let grid = geom.width();
    let n = fill_path(graph, ep, path);
    let (mut lo_x, mut lo_y, mut hi_x, mut hi_y) = (usize::MAX, usize::MAX, 0, 0);
    for pair in path[..n].windows(2) {
        let (u, v) = (pair[0], pair[1]);
        let is_net = graph.fanin(v).any(|e| e.from == u && e.kind == EdgeKind::Net);
        if !is_net {
            continue;
        }
        let a = placement.pin_position(netlist, graph.pin_of(u));
        let b = placement.pin_position(netlist, graph.pin_of(v));
        let r = Rect::bounding(a, b);
        let (x0, y0) = geom.bin_of(r.x0, r.y0);
        let (x1, y1) = geom.bin_of(r.x1, r.y1);
        for y in y0..=y1 {
            marked[y * grid + x0..=y * grid + x1].fill(true);
        }
        (lo_x, lo_y, hi_x, hi_y) = (lo_x.min(x0), lo_y.min(y0), hi_x.max(x1), hi_y.max(y1));
    }
    // No net edge on the path leaves `lo_y > hi_y`: nothing to scan.
    for y in lo_y..=hi_y {
        let first = y * grid + lo_x;
        for (bin, seen) in (first..).zip(&mut marked[first..=y * grid + hi_x]) {
            if *seen {
                *seen = false;
                bins.push(bin as u32);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtt_circgen::{ripple_carry_adder, GenParams};
    use rtt_netlist::CellLibrary;
    use rtt_place::{place, PlaceConfig};

    fn world() -> (CellLibrary, Netlist, Placement, TimingGraph) {
        let lib = CellLibrary::asap7_like();
        let nl = ripple_carry_adder(6, &lib);
        let pl = place(&nl, &lib, 0, &PlaceConfig::default());
        let g = TimingGraph::build(&nl, &lib);
        (lib, nl, pl, g)
    }

    #[test]
    fn longest_path_descends_one_level_per_step() {
        let (_, _, _, g) = world();
        for &ep in g.endpoints() {
            let path = longest_path(&g, ep);
            assert_eq!(path.len() as u32, g.level(ep) + 1);
            for (i, &v) in path.iter().enumerate() {
                assert_eq!(g.level(v), i as u32);
            }
            assert_eq!(*path.last().unwrap(), ep);
            assert_eq!(g.fanin(path[0]).count(), 0, "path starts at a source");
        }
    }

    #[test]
    fn longest_path_edges_exist() {
        let (_, _, _, g) = world();
        let ep = g.endpoints()[g.endpoints().len() - 1];
        let path = longest_path(&g, ep);
        for w in path.windows(2) {
            assert!(
                g.fanin(w[1]).any(|e| e.from == w[0]),
                "consecutive path nodes must be connected"
            );
        }
    }

    #[test]
    fn mask_is_binary_and_nonempty_for_deep_endpoints() {
        let (_, nl, pl, g) = world();
        let ep = *g.endpoints().iter().max_by_key(|&&e| g.level(e)).unwrap();
        let path = longest_path(&g, ep);
        let mask = endpoint_mask(&nl, &pl, &g, &path, 16);
        // rtt-lint: allow(D003, reason = "mask entries are written as exact 0.0/1.0 literals")
        assert!(mask.values().iter().all(|&v| v == 0.0 || v == 1.0));
        assert!(mask.total() > 0.0, "deep endpoint must have a critical region");
    }

    #[test]
    fn mask_covers_path_pin_bins() {
        let (_, nl, pl, g) = world();
        let ep = *g.endpoints().iter().max_by_key(|&&e| g.level(e)).unwrap();
        let path = longest_path(&g, ep);
        let mask = endpoint_mask(&nl, &pl, &g, &path, 16);
        // Every pin on a net edge of the path must sit in a marked bin.
        for pair in path.windows(2) {
            let is_net = g.fanin(pair[1]).any(|e| e.from == pair[0] && e.kind == EdgeKind::Net);
            if !is_net {
                continue;
            }
            for &v in pair {
                let p = pl.pin_position(&nl, g.pin_of(v));
                let (bx, by) = mask.bin_of(p.x, p.y);
                assert_eq!(mask.at(bx, by), 1.0);
            }
        }
    }

    /// The set bins of a single-endpoint reference mask.
    fn reference_bins(
        nl: &Netlist,
        pl: &Placement,
        g: &TimingGraph,
        ep: u32,
        grid: usize,
    ) -> Vec<u32> {
        let mask = endpoint_mask(nl, pl, g, &longest_path(g, ep), grid);
        let set = mask.values().iter().enumerate().filter(|(_, &v)| v > 0.0);
        set.map(|(i, _)| i as u32).collect()
    }

    #[test]
    fn batched_masks_match_individual() {
        let (_, nl, pl, g) = world();
        let grid = 8;
        let all = endpoint_masks(&nl, &pl, &g, grid);
        assert_eq!(all.len(), g.endpoints().len());
        for (row, &ep) in all.iter().zip(g.endpoints()) {
            assert_eq!(row, &reference_bins(&nl, &pl, &g, ep, grid));
        }
        assert!(all.iter().any(|row| !row.is_empty()), "some endpoint has a critical region");
    }

    #[test]
    fn subset_masks_follow_the_requested_order() {
        let (_, nl, pl, g) = world();
        let grid = 8;
        let eps: Vec<u32> = g.endpoints().iter().rev().step_by(2).copied().collect();
        let rows = endpoint_masks_for(&nl, &pl, &g, grid, &eps);
        for (row, &ep) in rows.iter().zip(&eps) {
            assert_eq!(row, &reference_bins(&nl, &pl, &g, ep, grid));
        }
    }

    #[test]
    fn different_endpoints_get_different_masks() {
        let lib = CellLibrary::asap7_like();
        let d = GenParams::new("dm", 300, 11).generate(&lib);
        let pl = place(&d.netlist, &lib, 0, &PlaceConfig::default());
        let g = TimingGraph::build(&d.netlist, &lib);
        let masks = endpoint_masks(&d.netlist, &pl, &g, 12);
        let distinct: std::collections::HashSet<&Vec<u32>> = masks.iter().collect();
        assert!(distinct.len() > masks.len() / 4, "masks are suspiciously uniform");
    }
}
