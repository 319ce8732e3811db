//! Per-design preprocessing: everything the model needs, computed cold
//! from one design state (see DESIGN.md "Preparation pipeline").

use rtt_features::{endpoint_masks, LayoutMaps, MaskRuns, NodeFeatures};
use rtt_netlist::{CellLibrary, Netlist, PinId, TimingGraph};
use rtt_nn::Tensor;
use rtt_place::Placement;

use crate::gnn::{GnnSchedule, LevelFeats};
use crate::ModelConfig;

/// Flat counter: endpoint masks computed by [`PreparedDesign::update`],
/// which prepares cold, so it always equals [`PREP_MASKS_TOTAL_COUNTER`].
pub const PREP_MASKS_RECOMPUTED_COUNTER: &str = "core::prepare_masks_recomputed";
/// Flat counter: endpoints seen by [`PreparedDesign::update`].
pub const PREP_MASKS_TOTAL_COUNTER: &str = "core::prepare_masks_total";

static PREP_MASKS_RECOMPUTED: rtt_obs::Counter =
    rtt_obs::Counter::new(PREP_MASKS_RECOMPUTED_COUNTER);
static PREP_MASKS_TOTAL: rtt_obs::Counter = rtt_obs::Counter::new(PREP_MASKS_TOTAL_COUNTER);

/// Fieldless, and read by nothing. The type remains only as
/// [`PreparedDesign::prepare_full`]'s second value and
/// [`PreparedDesign::update`]'s first parameter, which perfbench names;
/// ROADMAP item 1 deletes all three.
#[derive(Clone, Debug)]
pub struct PrepareCtx;

/// A design converted into model inputs: GNN schedule and features, stacked
/// layout maps, endpoint masks, and (optionally meaningful) targets.
///
/// This corresponds to the paper's *preprocessing* stage of Table III:
/// graph construction, topological levels, and endpoint-wise critical
/// region generation.
///
/// Masks are stored as row runs ([`MaskRuns`]): a dense
/// `[num_endpoints, (G/4)²]` matrix would need gigabytes at the paper's
/// 512×512 grid on endpoint-heavy designs, and one index per set bin still
/// took 1.3 GB at jpeg-paper, where the runs take 27.5 MB. The model reads the runs directly
/// ([`rtt_nn::ops::masked_readout`]) and never builds a dense mask row.
#[derive(Clone, Debug)]
pub struct PreparedDesign {
    /// Design name (for reporting).
    pub name: String,
    /// Levelized propagation plan.
    pub schedule: GnnSchedule,
    /// Static node feature matrices, in schedule row order.
    pub feats: LevelFeats,
    /// Stacked `[3, G, G]` layout maps (density, RUDY, macro).
    pub maps: Tensor,
    /// Each endpoint's critical-region mask at pooled resolution, as row
    /// runs of row-major bins of the `(G/4)²` map, one row per endpoint.
    pub masks: MaskRuns,
    /// Pooled mask width (`G/4`).
    pub mask_grid: usize,
    /// Ground-truth endpoint arrival times, aligned with
    /// `graph.endpoints()` order (ps).
    pub targets: Vec<f32>,
}

impl PreparedDesign {
    /// Prepares a design for training or inference.
    ///
    /// `targets` must be aligned with `graph.endpoints()`; pass zeros for
    /// pure inference.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len()` differs from the endpoint count.
    pub fn prepare(
        netlist: &Netlist,
        library: &CellLibrary,
        placement: &Placement,
        graph: &TimingGraph,
        config: &ModelConfig,
        targets: Vec<f32>,
    ) -> Self {
        rtt_obs::span!("core::prepare");
        assert_eq!(targets.len(), graph.endpoints().len(), "one target per endpoint");
        let schedule = GnnSchedule::build(graph);
        let features = NodeFeatures::extract(netlist, library, graph, placement);
        let feats = LevelFeats::assemble(&schedule, graph, &features);
        let layout = LayoutMaps::extract(netlist, library, placement, config.grid);
        let maps = Tensor::from_vec(&[3, config.grid, config.grid], layout.stacked());
        let mg = config.pooled_grid();
        let masks = endpoint_masks(netlist, placement, graph, mg);
        Self { name: netlist.name.clone(), schedule, feats, maps, masks, mask_grid: mg, targets }
    }

    /// [`Self::prepare`] paired with the fieldless [`PrepareCtx`].
    pub fn prepare_full(
        netlist: &Netlist,
        library: &CellLibrary,
        placement: &Placement,
        graph: &TimingGraph,
        config: &ModelConfig,
        targets: Vec<f32>,
    ) -> (Self, PrepareCtx) {
        (Self::prepare(netlist, library, placement, graph, config, targets), PrepareCtx)
    }

    /// An alias of [`Self::prepare`] on `after`, kept because perfbench
    /// calls it: it reads nothing from `self`, `ctx`, `before` or `seeds`,
    /// and it adds the endpoint count to both `PREP_MASKS_*` counters, so
    /// every mask counts as recomputed. `graph` is `after`'s timing graph.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len()` differs from the endpoint count.
    #[allow(clippy::too_many_arguments)]
    pub fn update(
        &self,
        _ctx: &mut PrepareCtx,
        _before: (&Netlist, &Placement),
        (netlist, placement): (&Netlist, &Placement),
        library: &CellLibrary,
        graph: &TimingGraph,
        config: &ModelConfig,
        _seeds: &[PinId],
        targets: Vec<f32>,
    ) -> Self {
        let prep = Self::prepare(netlist, library, placement, graph, config, targets);
        PREP_MASKS_RECOMPUTED.add(prep.masks.len() as u64);
        PREP_MASKS_TOTAL.add(prep.masks.len() as u64);
        prep
    }

    /// Number of endpoints (prediction rows).
    pub fn num_endpoints(&self) -> usize {
        self.targets.len()
    }

    /// Materializes dense 0/1 mask rows for the given endpoint indices
    /// (`[indices.len(), (G/4)²]`, row-major). The model never calls it:
    /// it is the dense reference that the readout tests and perfbench's
    /// replica of the model compare the sparse readout against.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn dense_mask_rows(&self, indices: &[u32]) -> Tensor {
        let mut out = Tensor::default();
        self.dense_mask_rows_into(indices, &mut out);
        out
    }

    /// [`Self::dense_mask_rows`] into a caller-provided buffer, so a
    /// reference loop over chunks reuses one allocation.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn dense_mask_rows_into(&self, indices: &[u32], out: &mut Tensor) {
        let cols = self.mask_grid * self.mask_grid;
        out.reset(&[indices.len().max(1), cols], 0.0);
        let data = out.data_mut();
        for (r, &ep) in indices.iter().enumerate() {
            for bin in self.masks.bins(ep as usize) {
                data[r * cols + bin as usize] = 1.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use rtt_circgen::ripple_carry_adder;
    use rtt_place::{place, PlaceConfig};

    #[test]
    fn prepared_shapes_are_consistent() {
        let lib = CellLibrary::asap7_like();
        let nl = ripple_carry_adder(4, &lib);
        let pl = place(&nl, &lib, 0, &PlaceConfig::default());
        let graph = TimingGraph::build(&nl, &lib);
        let cfg = ModelConfig::tiny();
        let n_ep = graph.endpoints().len();
        let prep = PreparedDesign::prepare(&nl, &lib, &pl, &graph, &cfg, vec![1.0; n_ep]);
        assert_eq!(prep.num_endpoints(), n_ep);
        assert_eq!(prep.maps.shape(), &[3, cfg.grid, cfg.grid]);
        assert_eq!(prep.masks.len(), n_ep);
        assert_eq!(prep.mask_grid, cfg.pooled_grid());
        // Dense materialization matches the sparse storage.
        let idx: Vec<u32> = (0..n_ep as u32).collect();
        let dense = prep.dense_mask_rows(&idx);
        assert_eq!(dense.shape(), &[n_ep, cfg.pooled_grid() * cfg.pooled_grid()]);
        for r in 0..n_ep {
            let ones = dense.row(r).iter().filter(|&&v| v.to_bits() == 1.0f32.to_bits()).count();
            assert_eq!(ones, prep.masks.bins(r).count());
        }
        assert_eq!(prep.schedule.num_endpoints(), n_ep);
        assert_eq!(prep.name, nl.name);
    }

    #[test]
    #[should_panic(expected = "one target per endpoint")]
    fn target_count_is_checked() {
        let lib = CellLibrary::asap7_like();
        let nl = ripple_carry_adder(2, &lib);
        let pl = place(&nl, &lib, 0, &PlaceConfig::default());
        let graph = TimingGraph::build(&nl, &lib);
        let _ = PreparedDesign::prepare(&nl, &lib, &pl, &graph, &ModelConfig::tiny(), vec![]);
    }

    /// `update` is `prepare` of `after` under another name: it returns a
    /// cold preparation's masks and maps, not the previous one's, and
    /// counts every endpoint's mask as recomputed.
    #[test]
    fn update_prepares_after_cold_and_counts_every_mask() {
        let lib = CellLibrary::asap7_like();
        let nl = ripple_carry_adder(4, &lib);
        let pl = place(&nl, &lib, 0, &PlaceConfig::default());
        let moved = place(&nl, &lib, 7, &PlaceConfig::default());
        let graph = TimingGraph::build(&nl, &lib);
        let cfg = ModelConfig::tiny();
        let zeros = || vec![0.0f32; graph.endpoints().len()];
        let (prev, mut ctx) = PreparedDesign::prepare_full(&nl, &lib, &pl, &graph, &cfg, zeros());
        let counter = |key: &str| rtt_obs::snapshot().counters.get(key).copied().unwrap_or(0);
        let counters =
            || (counter(PREP_MASKS_RECOMPUTED_COUNTER), counter(PREP_MASKS_TOTAL_COUNTER));

        let (r0, t0) = counters();
        let upd =
            prev.update(&mut ctx, (&nl, &pl), (&nl, &moved), &lib, &graph, &cfg, &[], zeros());
        let (r1, t1) = counters();
        let cold = PreparedDesign::prepare(&nl, &lib, &moved, &graph, &cfg, zeros());
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(upd.masks, cold.masks);
        assert_eq!(bits(&upd.maps), bits(&cold.maps));
        assert_ne!(bits(&upd.maps), bits(&prev.maps), "the re-placement moves the maps");
        let n = graph.endpoints().len() as u64;
        assert_eq!((r1 - r0, t1 - t0), (n, n), "every mask counts as recomputed");
    }
}
