//! Per-node GNN input features (paper Section IV-A).

use rtt_netlist::{CellLibrary, GateFn, Netlist, NodeKind, PinDir, TimingGraph};
use rtt_place::Placement;

/// Width of the cell-node feature vector: driving strength, pin
/// capacitance, and the gate-type one-hot.
pub const CELL_FEATURE_DIM: usize = 2 + GateFn::ALL.len();

/// Width of the net-node feature vector: the net distance.
pub const NET_FEATURE_DIM: usize = 1;

/// Physical normalization constant for distances, µm.
///
/// Distances must be normalized by a *fixed* length, not the die size:
/// wire delay depends on absolute micrometres, and the test designs have
/// different die sizes than the training designs.
pub const DIST_NORM_UM: f32 = 50.0;

/// Extracted per-node features, aligned with a [`TimingGraph`]'s node ids.
///
/// Every node gets both representations so the model can pick by
/// [`NodeKind`]: net nodes use [`Self::net_row`], cell nodes and sources
/// use [`Self::cell_row`].
#[derive(Clone, Debug)]
pub struct NodeFeatures {
    cell: Vec<f32>, // num_nodes × CELL_FEATURE_DIM
    net: Vec<f32>,  // num_nodes × NET_FEATURE_DIM
    num_nodes: usize,
}

impl NodeFeatures {
    /// Extracts features for every node of `graph`.
    ///
    /// Distances are normalized by the fixed [`DIST_NORM_UM`], strengths by
    /// the maximum drive, capacitances to a ~unit scale, so all inputs are
    /// O(1) *and* comparable across designs of different die sizes.
    pub fn extract(
        netlist: &Netlist,
        library: &CellLibrary,
        graph: &TimingGraph,
        placement: &Placement,
    ) -> Self {
        rtt_obs::span!("features::node_features");
        let n = graph.num_nodes();
        let mut cell = vec![0.0f32; n * CELL_FEATURE_DIM];
        let mut net = vec![0.0f32; n * NET_FEATURE_DIM];

        for v in 0..n as u32 {
            fill_node_rows(netlist, library, graph, placement, v, &mut cell, &mut net);
        }
        Self { cell, net, num_nodes: n }
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.num_nodes
    }

    /// `true` if there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.num_nodes == 0
    }

    /// Cell-feature row of node `v`.
    pub fn cell_row(&self, v: u32) -> &[f32] {
        &self.cell[v as usize * CELL_FEATURE_DIM..(v as usize + 1) * CELL_FEATURE_DIM]
    }

    /// Net-feature row of node `v`.
    pub fn net_row(&self, v: u32) -> &[f32] {
        &self.net[v as usize * NET_FEATURE_DIM..(v as usize + 1) * NET_FEATURE_DIM]
    }
}

/// Computes both feature rows of node `v` into the flat buffers.
// rtt-lint: hot
fn fill_node_rows(
    netlist: &Netlist,
    library: &CellLibrary,
    graph: &TimingGraph,
    placement: &Placement,
    v: u32,
    cell: &mut [f32],
    net: &mut [f32],
) {
    let pin_id = graph.pin_of(v);
    let pin = netlist.pin(pin_id);

    // Cell-side features from the owning cell (ports get zeros plus
    // a port marker via zero one-hot; flop sources get DFF features).
    if let Some(cid) = pin.cell {
        let ty = library.cell_type(netlist.cell(cid).type_id);
        let row = &mut cell[v as usize * CELL_FEATURE_DIM..(v as usize + 1) * CELL_FEATURE_DIM];
        row[0] = f32::from(ty.drive) / 8.0;
        row[1] = ty.pin_cap_ff / 2.0;
        row[2 + ty.gate.one_hot_index()] = 1.0;
    }

    // Net distance for net nodes: Manhattan driver → this sink.
    if graph.node_kind(v) == NodeKind::NetSink && pin.dir == PinDir::Sink {
        if let Some(net_id) = pin.net {
            let driver = netlist.net(net_id).driver;
            let d = placement
                .pin_position(netlist, driver)
                .manhattan(placement.pin_position(netlist, pin_id));
            net[v as usize] = d / DIST_NORM_UM;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtt_circgen::ripple_carry_adder;
    use rtt_place::{place, PlaceConfig};

    fn world() -> (CellLibrary, Netlist, Placement, TimingGraph) {
        let lib = CellLibrary::asap7_like();
        let nl = ripple_carry_adder(4, &lib);
        let pl = place(&nl, &lib, 0, &PlaceConfig::default());
        let g = TimingGraph::build(&nl, &lib);
        (lib, nl, pl, g)
    }

    #[test]
    fn dimensions_match_graph() {
        let (lib, nl, pl, g) = world();
        let f = NodeFeatures::extract(&nl, &lib, &g, &pl);
        assert_eq!(f.len(), g.num_nodes());
        assert_eq!(f.cell_row(0).len(), CELL_FEATURE_DIM);
        assert_eq!(f.net_row(0).len(), NET_FEATURE_DIM);
    }

    #[test]
    fn gate_one_hot_is_exclusive() {
        let (lib, nl, pl, g) = world();
        let f = NodeFeatures::extract(&nl, &lib, &g, &pl);
        for v in 0..g.num_nodes() as u32 {
            let hot: f32 = f.cell_row(v)[2..].iter().sum();
            let is_port = nl.pin(g.pin_of(v)).cell.is_none();
            if is_port {
                assert_eq!(hot, 0.0, "ports carry no gate type");
            } else {
                assert_eq!(hot, 1.0, "cell pins carry exactly one gate type");
            }
        }
    }

    #[test]
    fn net_distance_only_on_net_sinks() {
        let (lib, nl, pl, g) = world();
        let f = NodeFeatures::extract(&nl, &lib, &g, &pl);
        for v in 0..g.num_nodes() as u32 {
            match g.node_kind(v) {
                NodeKind::NetSink => {} // may be zero if coincident pins
                _ => assert_eq!(f.net_row(v)[0], 0.0),
            }
        }
        // At least one net sink must have a positive distance.
        let any_positive = (0..g.num_nodes() as u32)
            .any(|v| g.node_kind(v) == NodeKind::NetSink && f.net_row(v)[0] > 0.0);
        assert!(any_positive);
    }

    #[test]
    fn features_are_normalized() {
        let (lib, nl, pl, g) = world();
        let f = NodeFeatures::extract(&nl, &lib, &g, &pl);
        for v in 0..g.num_nodes() as u32 {
            for &x in f.cell_row(v) {
                assert!((0.0..=2.0).contains(&x), "cell feature {x} out of range");
            }
            // Net distances are in units of DIST_NORM_UM; they stay modest
            // for any realistic die.
            assert!(f.net_row(v)[0].is_finite() && f.net_row(v)[0] < 50.0);
        }
    }

    #[test]
    fn stronger_cells_have_larger_strength_feature() {
        let lib = CellLibrary::asap7_like();
        let mut nl = ripple_carry_adder(2, &lib);
        let (cid, cell) = nl
            .cells()
            .find(|(_, c)| !lib.cell_type(c.type_id).is_sequential())
            .map(|(i, c)| (i, c.clone()))
            .unwrap();
        let out_pin = cell.output;
        let pl = place(&nl, &lib, 0, &PlaceConfig::default());
        let g = TimingGraph::build(&nl, &lib);
        let before = NodeFeatures::extract(&nl, &lib, &g, &pl);
        let v = g.node_of(out_pin).unwrap();
        let s_before = before.cell_row(v)[0];
        nl.resize_cell(cid, lib.pick(lib.cell_type(cell.type_id).gate, 8).unwrap(), &lib).unwrap();
        let g2 = TimingGraph::build(&nl, &lib);
        let after = NodeFeatures::extract(&nl, &lib, &g2, &pl);
        let v2 = g2.node_of(out_pin).unwrap();
        assert!(after.cell_row(v2)[0] > s_before);
    }
}
