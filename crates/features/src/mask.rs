//! Longest-path search and endpoint-wise critical-region masks
//! (paper Section V-B, Equations 4–6).

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
    let mut path = vec![ep];
    while let Some(pred) = critical_pred(graph, path[path.len() - 1]) {
        path.push(pred);
    }
    path.reverse();
    path
}

/// The node the level-descent rule steps to from `v`: its first fanin one
/// level down, or `None` at a source.
fn critical_pred(graph: &TimingGraph, v: u32) -> Option<u32> {
    let want = graph.level(v).checked_sub(1)?;
    // Levels are longest distances, so a node at level l > 0 always has a
    // fanin at level l - 1 on a validated graph. This runs on the serving
    // path (R003), so a violated invariant ends the path instead of
    // panicking.
    let pred = graph.fanin(v).find(|e| graph.level(e.from) == want).map(|e| e.from);
    debug_assert!(pred.is_some(), "a node at level l has a fanin at level l-1");
    pred
}

/// Whether `u → v` is a net edge. Only net edges count towards a mask:
/// cell-internal regions are not usable by the optimizer (paper Section
/// V-B).
fn is_net_edge(graph: &TimingGraph, u: u32, v: u32) -> bool {
    graph.fanin(v).any(|e| e.from == u && e.kind == EdgeKind::Net)
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
        if !is_net_edge(graph, u, v) {
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

/// Critical-region masks of a list of endpoints, stored as row runs: the
/// set bins of row `e` are the union of `start..start + len` over its runs
/// `[start, len]`. Runs ascend, are non-empty and neither overlap nor
/// touch, so they are maximal and two `MaskRuns` are equal exactly when
/// every row has the same set bins. All rows share one flat run array
/// (CSR), so a mask costs 8 bytes per run and no allocation of its own.
///
/// A row is built by [`Self::push_bin`] calls in ascending bin order and
/// closed by [`Self::end_row`]:
///
/// ```
/// use rtt_features::MaskRuns;
///
/// let mut masks = MaskRuns::default();
/// for bin in [3, 4, 5, 9] {
///     masks.push_bin(bin);
/// }
/// masks.end_row();
/// masks.end_row(); // an empty mask
/// assert_eq!(masks.runs(0), &[[3, 3], [9, 1]]);
/// assert_eq!(masks.bins(0).collect::<Vec<_>>(), [3, 4, 5, 9]);
/// assert!(masks.runs(1).is_empty());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MaskRuns {
    /// Row `e`'s runs are `runs[off[e]..off[e + 1]]`; the last offset also
    /// starts the row being built.
    off: Vec<u32>,
    /// `[start bin, length]` of each run.
    runs: Vec<[u32; 2]>,
}

impl Default for MaskRuns {
    fn default() -> Self {
        Self { off: vec![0], runs: Vec::new() }
    }
}

impl MaskRuns {
    /// `rows` masks that each cover all `bins` bins: the one full run the
    /// unmasked ablation reads.
    pub fn full(rows: usize, bins: usize) -> Self {
        Self { off: (0..=rows as u32).collect(), runs: vec![[0, bins as u32]; rows] }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.off.len() - 1
    }

    /// `true` if there is no row.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `e`'s runs `[start, len]`, in ascending bin order.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn runs(&self, e: usize) -> &[[u32; 2]] {
        &self.runs[self.off[e] as usize..self.off[e + 1] as usize]
    }

    /// Row `e`'s set bins, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn bins(&self, e: usize) -> impl Iterator<Item = u32> + '_ {
        self.runs(e).iter().flat_map(|&[start, len]| start..start + len)
    }

    /// Sets `bin` in the row being built. Bins must come in ascending order.
    pub fn push_bin(&mut self, bin: u32) {
        let in_row = self.runs.len() > self.off.last().copied().unwrap_or(0) as usize;
        match self.runs.last_mut() {
            Some(run) if in_row && run[0] + run[1] == bin => run[1] += 1,
            _ => {
                debug_assert!(
                    !in_row || self.runs.last().is_some_and(|r| r[0] + r[1] < bin),
                    "bins ascend"
                );
                self.runs.push([bin, 1]);
            }
        }
    }

    /// Closes the row being built; the next bin starts a new row.
    pub fn end_row(&mut self) {
        self.off.push(self.runs.len() as u32);
    }

    /// Appends a copy of row `e` of `other` as a new row.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn push_row(&mut self, other: &MaskRuns, e: usize) {
        self.runs.extend_from_slice(other.runs(e));
        self.end_row();
    }

    /// The rows `rows` of `self`, in that order (a row listed twice is
    /// copied twice).
    ///
    /// # Panics
    ///
    /// Panics if a row is out of range.
    pub fn select(&self, rows: &[u32]) -> MaskRuns {
        let mut out = MaskRuns::default();
        out.off.reserve(rows.len());
        for &e in rows {
            out.push_row(self, e as usize);
        }
        out
    }

    /// Bytes of heap memory the masks hold.
    pub fn heap_bytes(&self) -> usize {
        self.off.capacity() * std::mem::size_of::<u32>()
            + self.runs.capacity() * std::mem::size_of::<[u32; 2]>()
    }
}

/// Computes the critical-region mask of every endpoint, aligned with
/// `graph.endpoints()`, as row runs of its `grid × grid` mask.
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
) -> MaskRuns {
    endpoint_masks_for(netlist, placement, graph, grid, graph.endpoints())
}

/// [`endpoint_masks`] for an arbitrary list of endpoint nodes `eps`, in
/// that order; an endpoint listed twice gets two rows. This is the
/// cone-scoped recompute behind the delta-prepare path: only endpoints
/// whose fan-in cone a transform invalidated are listed, and every other
/// endpoint's row is carried over from the previous preparation.
///
/// Every node has one critical predecessor, so the listed endpoints'
/// longest paths merge into a forest no larger than the graph, and
/// one depth-first walk over it yields every mask. The work is the forest
/// size times the bins of one box plus the bins of each endpoint's
/// bounding box, independent of path depth.
pub fn endpoint_masks_for(
    netlist: &Netlist,
    placement: &Placement,
    graph: &TimingGraph,
    grid: usize,
    eps: &[u32],
) -> MaskRuns {
    let obs = rtt_obs::span("features::endpoint_masks");
    obs.add("endpoints", eps.len() as u64);
    // Geometry only: read by `bin_of`, never written.
    let geom = Grid::new(grid, grid, placement.floorplan().die);
    Forest::resolve(netlist, placement, graph, &geom, eps).masks(grid)
}

/// "No node" and "no row" in [`Forest`]'s index arrays.
const NONE: u32 = u32::MAX;

/// Inclusive bin range `[x0, y0, x1, y1]`. [`EMPTY_BOX`] has `x0 > x1`
/// and `y0 > y1`, so it spans no bin and widening it yields the other box.
type BinBox = [usize; 4];

const EMPTY_BOX: BinBox = [usize::MAX, usize::MAX, 0, 0];

/// The union of the listed endpoints' longest paths. A path meeting an
/// earlier one shares every node from there back to the source, so each
/// graph node appears at most once and the paths form a forest whose
/// roots are sources (or, on a graph violating the level invariant,
/// nodes with no fanin one level down).
struct Forest {
    /// Graph node of each forest node.
    node: Vec<u32>,
    /// Forest index of each node's critical predecessor; [`NONE`] at a
    /// root.
    parent: Vec<u32>,
    /// Bins of the net edge from the predecessor; `None` for a cell edge
    /// and at a root.
    bins: Vec<Option<BinBox>>,
    /// First output row listed at each graph node, or [`NONE`]; the rows
    /// of an endpoint listed more than once chain through `next_row`.
    first_row: Vec<u32>,
    next_row: Vec<u32>,
}

/// One step of the depth-first walk in [`Forest::masks`].
enum Step {
    /// Enter a forest node whose root path's boxes span the given box.
    Enter(usize, BinBox),
    /// Leave a forest node, removing its box from the coverage count.
    Leave(usize),
}

impl Forest {
    /// Walks from each endpoint of `eps` down its longest path until a
    /// node already resolved, recording each new node's predecessor and
    /// net-edge box once.
    fn resolve(
        netlist: &Netlist,
        placement: &Placement,
        graph: &TimingGraph,
        geom: &Grid,
        eps: &[u32],
    ) -> Self {
        let n = graph.num_nodes();
        let mut index = vec![NONE; n];
        let mut f = Self {
            node: Vec::new(),
            parent: Vec::new(),
            bins: Vec::new(),
            first_row: vec![NONE; n],
            next_row: vec![NONE; eps.len()],
        };
        for (row, &ep) in eps.iter().enumerate() {
            let mut v = ep;
            while index[v as usize] == NONE {
                index[v as usize] = f.node.len() as u32;
                let pred = critical_pred(graph, v);
                f.node.push(v);
                // A graph node for now; mapped to its forest index below.
                f.parent.push(pred.unwrap_or(NONE));
                f.bins.push(pred.filter(|&u| is_net_edge(graph, u, v)).map(|u| {
                    let a = placement.pin_position(netlist, graph.pin_of(u));
                    let b = placement.pin_position(netlist, graph.pin_of(v));
                    let r = Rect::bounding(a, b);
                    let (x0, y0) = geom.bin_of(r.x0, r.y0);
                    let (x1, y1) = geom.bin_of(r.x1, r.y1);
                    [x0, y0, x1, y1]
                }));
                let Some(pred) = pred else { break };
                v = pred;
            }
            f.next_row[row] = f.first_row[ep as usize];
            f.first_row[ep as usize] = row as u32;
        }
        for p in &mut f.parent {
            if *p != NONE {
                *p = index[*p as usize];
            }
        }
        f
    }

    /// One depth-first walk from every root, keeping a per-bin count of
    /// the boxes on the current root path. At a listed endpoint the
    /// counted bins are exactly its mask, and they all lie inside the
    /// bounding box of its path's boxes, which is scanned row-major so
    /// bins come out ascending.
    fn masks(&self, grid: usize) -> MaskRuns {
        let k = self.node.len();
        // Children in CSR form: those of node `c` are
        // `child[off[c]..off[c + 1]]`.
        let mut off = vec![0usize; k + 1];
        for &p in self.parent.iter().filter(|&&p| p != NONE) {
            off[p as usize + 1] += 1;
        }
        for c in 0..k {
            off[c + 1] += off[c];
        }
        let mut cursor = off.clone();
        let mut child = vec![0usize; off[k]];
        for (c, &p) in self.parent.iter().enumerate().filter(|&(_, &p)| p != NONE) {
            child[cursor[p as usize]] = c;
            cursor[p as usize] += 1;
        }

        // Masks in the order the walk reaches them; `slot[row]` is where
        // listed row `row`'s mask sits, shared by an endpoint's rows.
        let mut walked = MaskRuns::default();
        let mut slot = vec![NONE; self.next_row.len()];
        let mut cover = vec![0i32; grid * grid];
        let roots = (0..k).filter(|&c| self.parent[c] == NONE);
        let mut todo: Vec<Step> = roots.map(|c| Step::Enter(c, EMPTY_BOX)).collect();
        while let Some(step) = todo.pop() {
            match step {
                Step::Enter(c, outer) => {
                    let mut bbox = outer;
                    if let Some(b) = self.bins[c] {
                        add_box(&mut cover, grid, b, 1);
                        let [x0, y0, x1, y1] = bbox;
                        bbox = [x0.min(b[0]), y0.min(b[1]), x1.max(b[2]), y1.max(b[3])];
                    }
                    let mut row = self.first_row[self.node[c] as usize];
                    if row != NONE {
                        let [x0, y0, x1, y1] = bbox;
                        for y in y0..=y1 {
                            let first = y * grid + x0;
                            for (bin, &n) in (first..).zip(&cover[first..=y * grid + x1]) {
                                if n > 0 {
                                    walked.push_bin(bin as u32);
                                }
                            }
                        }
                        walked.end_row();
                        while row != NONE {
                            slot[row as usize] = walked.len() as u32 - 1;
                            row = self.next_row[row as usize];
                        }
                    }
                    todo.push(Step::Leave(c));
                    todo.extend(child[off[c]..off[c + 1]].iter().map(|&ch| Step::Enter(ch, bbox)));
                }
                Step::Leave(c) => {
                    if let Some(b) = self.bins[c] {
                        add_box(&mut cover, grid, b, -1);
                    }
                }
            }
        }

        // Every listed endpoint is a forest node, and the walk reaches every
        // node; a row it missed on a malformed graph stays empty.
        let mut out = MaskRuns::default();
        out.off.reserve(slot.len());
        out.runs.reserve(walked.runs.len());
        for &s in &slot {
            match s {
                NONE => out.end_row(),
                s => out.push_row(&walked, s as usize),
            }
        }
        out.off.shrink_to_fit();
        out.runs.shrink_to_fit();
        out
    }
}

/// Adds `delta` to the coverage count of every bin in `b`.
fn add_box(cover: &mut [i32], grid: usize, [x0, y0, x1, y1]: BinBox, delta: i32) {
    for y in y0..=y1 {
        for n in &mut cover[y * grid + x0..=y * grid + x1] {
            *n += delta;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtt_circgen::{ripple_carry_adder, GenParams};
    use rtt_netlist::{CellLibrary, GateFn};
    use rtt_place::{place, PlaceConfig};
    use std::collections::BTreeSet;

    fn world() -> (CellLibrary, Netlist, Placement, TimingGraph) {
        let lib = CellLibrary::asap7_like();
        let nl = ripple_carry_adder(6, &lib);
        placed(lib, nl)
    }

    fn placed(lib: CellLibrary, nl: Netlist) -> (CellLibrary, Netlist, Placement, TimingGraph) {
        let pl = place(&nl, &lib, 0, &PlaceConfig::default());
        let g = TimingGraph::build(&nl, &lib);
        (lib, nl, pl, g)
    }

    /// A chain of 200 buffers with an output port tapped on every
    /// buffer's output net, plus one unconnected output port. The taps
    /// branch off one spine, so the paths form a branching forest whose
    /// summed length grows with the square of the chain; the unconnected
    /// port's path has no net edge.
    fn buffer_chain() -> (CellLibrary, Netlist, Placement, TimingGraph) {
        let lib = CellLibrary::asap7_like();
        let buf = lib.pick(GateFn::Buf, 1).expect("BUF_X1");
        let mut nl = Netlist::new("chain");
        let mut drive = nl.add_input_port("in");
        let mut sinks = Vec::new();
        for i in 0..200 {
            let (cell, out) = nl.add_cell(format!("b{i}"), buf, &lib);
            sinks.push(nl.cell(cell).inputs[0]);
            nl.connect_net(format!("n{i}"), drive, &sinks).expect("fresh pins");
            drive = out;
            sinks = vec![nl.add_output_port(format!("tap{i}"))];
        }
        nl.connect_net("n200", drive, &sinks).expect("fresh pins");
        nl.add_output_port("floating");
        nl.validate().expect("chain is structurally valid");
        placed(lib, nl)
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

    /// Row `e` of `masks` as set bins, after checking that its runs are
    /// maximal: non-empty, ascending, neither overlapping nor touching.
    fn expanded(masks: &MaskRuns, e: usize) -> Vec<u32> {
        let runs = masks.runs(e);
        assert!(runs.iter().all(|r| r[1] > 0), "empty run in {runs:?}");
        assert!(runs.windows(2).all(|w| w[0][0] + w[0][1] < w[1][0]), "runs not maximal: {runs:?}");
        masks.bins(e).collect()
    }

    #[test]
    fn batched_masks_match_individual() {
        for (_, nl, pl, g) in [world(), buffer_chain()] {
            let grid = 8;
            let all = endpoint_masks(&nl, &pl, &g, grid);
            assert_eq!(all.len(), g.endpoints().len());
            for (e, &ep) in g.endpoints().iter().enumerate() {
                assert_eq!(expanded(&all, e), reference_bins(&nl, &pl, &g, ep, grid));
            }
            assert!((0..all.len()).any(|e| !all.runs(e).is_empty()), "some endpoint has a mask");
        }
    }

    #[test]
    fn subset_masks_follow_the_requested_order() {
        for (_, nl, pl, g) in [world(), buffer_chain()] {
            let grid = 8;
            let mut eps: Vec<u32> = g.endpoints().iter().rev().step_by(2).copied().collect();
            eps.push(eps[eps.len() / 2]);
            let rows = endpoint_masks_for(&nl, &pl, &g, grid, &eps);
            assert_eq!(rows.len(), eps.len(), "a repeated endpoint gets its own row");
            for (e, &ep) in eps.iter().enumerate() {
                assert_eq!(expanded(&rows, e), reference_bins(&nl, &pl, &g, ep, grid));
            }
        }
    }

    #[test]
    fn runs_merge_select_and_cover_full_rows() {
        let mut m = MaskRuns::default();
        // Bins 6 and 7 end the second row of a 4-wide grid and 8 starts the
        // third: one run.
        for bin in [1, 6, 7, 8, 10] {
            m.push_bin(bin);
        }
        m.end_row();
        m.end_row();
        m.push_bin(2);
        m.end_row();
        assert_eq!(m.runs(0), &[[1, 1], [6, 3], [10, 1]]);
        assert_eq!(expanded(&m, 0), [1, 6, 7, 8, 10]);
        // A row never merges into the previous one.
        assert_eq!(m.runs(2), &[[2, 1]]);
        let picked = m.select(&[2, 1, 0, 2]);
        assert_eq!(picked.len(), 4);
        assert_eq!(picked.runs(0), picked.runs(3));
        assert!(picked.runs(1).is_empty());
        assert_eq!(picked.runs(2), m.runs(0));
        let full = MaskRuns::full(3, 16);
        assert!((0..3).all(|e| full.runs(e) == [[0, 16]]));
        assert_eq!(MaskRuns::full(0, 16), MaskRuns::default());
    }

    #[test]
    fn forest_is_the_union_of_longest_paths() {
        let (_, nl, pl, g) = buffer_chain();
        let geom = Grid::new(8, 8, pl.floorplan().die);
        let forest = Forest::resolve(&nl, &pl, &g, &geom, g.endpoints());
        let paths: Vec<Vec<u32>> = g.endpoints().iter().map(|&ep| longest_path(&g, ep)).collect();
        let steps: usize = paths.iter().map(Vec::len).sum();
        assert!(steps > 10 * g.num_nodes(), "{steps} path steps over {} pins", g.num_nodes());

        // Each node once, and exactly the nodes of some longest path.
        let nodes: BTreeSet<u32> = forest.node.iter().copied().collect();
        assert_eq!(nodes.len(), forest.node.len());
        assert_eq!(nodes, paths.iter().flatten().copied().collect());
        // Each path is a root-to-node chain of parent links.
        let at = |v: u32| forest.node.iter().position(|&u| u == v).expect("forest node") as u32;
        for path in &paths {
            assert_eq!(forest.parent[at(path[0]) as usize], NONE, "paths start at a root");
            for w in path.windows(2) {
                assert_eq!(forest.parent[at(w[1]) as usize], at(w[0]));
            }
        }
        let mut children = vec![0; forest.node.len()];
        for &p in forest.parent.iter().filter(|&&p| p != NONE) {
            children[p as usize] += 1;
        }
        assert!(children.iter().any(|&c| c > 1), "the forest branches");

        let rows = endpoint_masks(&nl, &pl, &g, 8);
        let floating = g.endpoints().iter().position(|&ep| nl.pin_name(g.pin_of(ep)) == "floating");
        assert!(
            rows.runs(floating.expect("an endpoint")).is_empty(),
            "the floating port has no mask"
        );
    }

    #[test]
    fn different_endpoints_get_different_masks() {
        let lib = CellLibrary::asap7_like();
        let d = GenParams::new("dm", 300, 11).generate(&lib);
        let pl = place(&d.netlist, &lib, 0, &PlaceConfig::default());
        let g = TimingGraph::build(&d.netlist, &lib);
        let masks = endpoint_masks(&d.netlist, &pl, &g, 12);
        let distinct: std::collections::HashSet<&[[u32; 2]]> =
            (0..masks.len()).map(|e| masks.runs(e)).collect();
        assert!(distinct.len() > masks.len() / 4, "masks are suspiciously uniform");
    }
}
