//! Per-design preprocessing: everything the model needs, computed once —
//! and, after a restructuring transform, *updated*:
//! [`PreparedDesign::update`] rebuilds the schedule, node features, and
//! layout maps, and carries the endpoint masks outside the transform's
//! dirty cone over (see DESIGN.md "Preparation pipeline").

use rtt_features::{endpoint_masks, endpoint_masks_for, LayoutMaps, MaskRuns, NodeFeatures};
use rtt_netlist::{CellId, CellLibrary, Netlist, PinId, TimingGraph};
use rtt_nn::Tensor;
use rtt_place::Placement;

use crate::gnn::{GnnSchedule, LevelFeats};
use crate::ModelConfig;

/// Flat counter: endpoint masks recomputed by the delta-prepare path.
pub const PREP_MASKS_RECOMPUTED_COUNTER: &str = "core::prepare_masks_recomputed";
/// Flat counter: total endpoints seen by the delta-prepare path.
pub const PREP_MASKS_TOTAL_COUNTER: &str = "core::prepare_masks_total";

static PREP_MASKS_RECOMPUTED: rtt_obs::Counter =
    rtt_obs::Counter::new(PREP_MASKS_RECOMPUTED_COUNTER);
static PREP_MASKS_TOTAL: rtt_obs::Counter = rtt_obs::Counter::new(PREP_MASKS_TOTAL_COUNTER);

/// Retained preparation state that lets [`PreparedDesign::update`] carry
/// clean endpoint masks across a transform: the pin-keyed identity of the
/// previous graph (nodes and endpoint ordinals are not stable across a
/// tombstoning edit; [`PinId`]s are).
#[derive(Clone, Debug)]
pub struct PrepareCtx {
    /// Previous graph: pin index → node (`u32::MAX` = not a node).
    node_of_pin: Vec<u32>,
    /// Pin index → endpoint ordinal of the previous prepared design
    /// (`u32::MAX` = not an endpoint).
    mask_of_pin: Vec<u32>,
}

impl PrepareCtx {
    fn capture(netlist: &Netlist, graph: &TimingGraph) -> Self {
        let mut node_of_pin = vec![u32::MAX; netlist.pin_capacity()];
        for v in 0..graph.num_nodes() as u32 {
            node_of_pin[graph.pin_of(v).index()] = v;
        }
        let mut mask_of_pin = vec![u32::MAX; netlist.pin_capacity()];
        for (i, &ep) in graph.endpoints().iter().enumerate() {
            mask_of_pin[graph.pin_of(ep).index()] = i as u32;
        }
        Self { node_of_pin, mask_of_pin }
    }
}

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
        Self::prepare_full(netlist, library, placement, graph, config, targets).0
    }

    /// [`Self::prepare`], additionally returning the [`PrepareCtx`] that
    /// [`Self::update`] needs to carry clean masks across a transform.
    pub fn prepare_full(
        netlist: &Netlist,
        library: &CellLibrary,
        placement: &Placement,
        graph: &TimingGraph,
        config: &ModelConfig,
        targets: Vec<f32>,
    ) -> (Self, PrepareCtx) {
        rtt_obs::span!("core::prepare");
        assert_eq!(targets.len(), graph.endpoints().len(), "one target per endpoint");
        let (schedule, feats, maps) = Self::build_dense(netlist, library, placement, graph, config);
        let mg = config.pooled_grid();
        let masks = endpoint_masks(netlist, placement, graph, mg);
        let prep = Self {
            name: netlist.name.clone(),
            schedule,
            feats,
            maps,
            masks,
            mask_grid: mg,
            targets,
        };
        (prep, PrepareCtx::capture(netlist, graph))
    }

    /// The schedule, node features, and stacked layout maps: everything
    /// but the masks, built cold by both prepare paths.
    fn build_dense(
        netlist: &Netlist,
        library: &CellLibrary,
        placement: &Placement,
        graph: &TimingGraph,
        config: &ModelConfig,
    ) -> (GnnSchedule, LevelFeats, Tensor) {
        let schedule = GnnSchedule::build(graph);
        let features = NodeFeatures::extract(netlist, library, graph, placement);
        let feats = LevelFeats::assemble(&schedule, &features);
        let layout = LayoutMaps::extract(netlist, library, placement, config.grid);
        let maps = Tensor::from_vec(&[3, config.grid, config.grid], layout.stacked());
        (schedule, feats, maps)
    }

    /// Delta preparation: derives `after`'s [`PreparedDesign`] from
    /// `self` (the preparation of `before`), recomputing only the endpoint
    /// masks the transform's dirty cone reaches. Bit-identical to a cold
    /// [`Self::prepare`] of `after`.
    ///
    /// * `ctx` — the context returned by [`Self::prepare_full`] (or a
    ///   previous `update`) for `before`; replaced in place so updates
    ///   chain across a transform sequence.
    /// * `seeds` — `opt::dirty_seed_pins(before, after)`: every pin whose
    ///   gather topology may have changed. `update` adds the pins of
    ///   moved cells and moved ports.
    /// * `graph` — `after`'s freshly built [`TimingGraph`].
    ///
    /// The schedule, node features, and layout maps are rebuilt exactly
    /// as a cold prepare builds them. Endpoint masks are recomputed only
    /// for endpoints inside the fan-out cone of the dirty pins and copied
    /// across by endpoint pin otherwise: an endpoint's mask depends only
    /// on its fan-in cone, so a clean cone means an identical longest
    /// path over identical pin positions (soundness argument in
    /// DESIGN.md). A die, macro, or mask-grid change moves every mask and
    /// falls back to a cold prepare internally.
    ///
    /// Both netlists must share an id space (`after` produced by mutating
    /// a clone of `before`), exactly as for `opt::dirty_seed_pins`.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len()` differs from the endpoint count.
    #[allow(clippy::too_many_arguments)]
    pub fn update(
        &self,
        ctx: &mut PrepareCtx,
        before: (&Netlist, &Placement),
        after: (&Netlist, &Placement),
        library: &CellLibrary,
        graph: &TimingGraph,
        config: &ModelConfig,
        seeds: &[PinId],
        targets: Vec<f32>,
    ) -> Self {
        rtt_obs::span!("core::prepare_delta");
        let (bnl, bpl) = before;
        let (anl, apl) = after;
        assert_eq!(targets.len(), graph.endpoints().len(), "one target per endpoint");

        // Global invalidation: a floorplan or mask-resolution change moves
        // every mask at once.
        if bpl.floorplan().die != apl.floorplan().die
            || bpl.floorplan().macros != apl.floorplan().macros
            || self.mask_grid != config.pooled_grid()
        {
            let (prep, fresh) = Self::prepare_full(anl, library, apl, graph, config, targets);
            *ctx = fresh;
            PREP_MASKS_RECOMPUTED.add(prep.masks.len() as u64);
            PREP_MASKS_TOTAL.add(prep.masks.len() as u64);
            return prep;
        }
        let (schedule, feats, maps) = Self::build_dense(anl, library, apl, graph, config);

        // Dirty pin mask over `after`'s id space: caller seeds, then pins
        // of moved cells and moved ports.
        let mut dirty_pin = vec![false; anl.pin_capacity()];
        for &p in seeds {
            if p.index() < dirty_pin.len() {
                dirty_pin[p.index()] = true;
            }
        }
        for ci in 0..anl.cell_capacity().min(bnl.cell_capacity()) {
            let cid = CellId::from_index(ci);
            if !(anl.cell(cid).is_alive() && bnl.cell(cid).is_alive()) {
                continue;
            }
            let (a, b) = (apl.cell_pos(cid), bpl.cell_pos(cid));
            if a.x.to_bits() != b.x.to_bits() || a.y.to_bits() != b.y.to_bits() {
                let cell = anl.cell(cid);
                for &p in &cell.inputs {
                    dirty_pin[p.index()] = true;
                }
                dirty_pin[cell.output.index()] = true;
            }
        }
        for &p in anl.input_ports().iter().chain(anl.output_ports()) {
            let existed = p.index() < bnl.pin_capacity() && bnl.pin(p).is_alive();
            if existed {
                let (a, b) = (apl.pin_position(anl, p), bpl.pin_position(bnl, p));
                if a.x.to_bits() != b.x.to_bits() || a.y.to_bits() != b.y.to_bits() {
                    dirty_pin[p.index()] = true;
                }
            }
        }

        // Endpoint masks: recompute inside the fan-out cone of the dirty
        // pins and of nodes new to the graph, carry clean rows over by
        // endpoint pin.
        let n = graph.num_nodes();
        let mg = config.pooled_grid();
        let cone_seeds: Vec<u32> = (0..n as u32)
            .filter(|&v| {
                let p = graph.pin_of(v);
                dirty_pin[p.index()]
                    || ctx.node_of_pin.get(p.index()).copied().unwrap_or(u32::MAX) == u32::MAX
            })
            .collect();
        let mut node_dirty = vec![false; n];
        for &v in &rtt_sta::fanout_cone(graph, &cone_seeds) {
            node_dirty[v as usize] = true;
        }
        let eps = graph.endpoints();
        // Each endpoint's previous mask row, or `u32::MAX` to recompute.
        let prev: Vec<u32> = (eps.iter())
            .map(|&ep| match ctx.mask_of_pin.get(graph.pin_of(ep).index()) {
                Some(&row) if !node_dirty[ep as usize] => row,
                _ => u32::MAX,
            })
            .collect();
        let nodes: Vec<u32> =
            eps.iter().zip(&prev).filter(|&(_, &p)| p == u32::MAX).map(|(&ep, _)| ep).collect();
        let fresh = endpoint_masks_for(anl, apl, graph, mg, &nodes);
        let mut masks = MaskRuns::default();
        let mut next = 0;
        for &p in &prev {
            if p == u32::MAX {
                masks.push_row(&fresh, next);
                next += 1;
            } else {
                masks.push_row(&self.masks, p as usize);
            }
        }
        PREP_MASKS_RECOMPUTED.add(nodes.len() as u64);
        PREP_MASKS_TOTAL.add(eps.len() as u64);

        *ctx = PrepareCtx::capture(anl, graph);
        Self { name: anl.name.clone(), schedule, feats, maps, masks, mask_grid: mg, targets }
    }

    /// Field-by-field bit equality against `other`, reporting the first
    /// divergent field — the verification contract of [`Self::update`]
    /// (a delta-updated preparation must be indistinguishable from a
    /// cold one).
    ///
    /// # Errors
    ///
    /// Returns the name of the first mismatching field.
    pub fn bit_eq(&self, other: &Self) -> Result<(), String> {
        if self.name != other.name {
            return Err(format!("name: {} vs {}", self.name, other.name));
        }
        if self.mask_grid != other.mask_grid {
            return Err(format!("mask_grid: {} vs {}", self.mask_grid, other.mask_grid));
        }
        if !self.schedule.bit_eq(&other.schedule) {
            return Err("schedule".into());
        }
        let opt_tensor = |a: Option<&Tensor>, b: Option<&Tensor>| match (a, b) {
            (Some(a), Some(b)) => {
                a.shape() == b.shape()
                    && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (None, None) => true,
            _ => false,
        };
        if !opt_tensor(self.feats.cell_src_flat.as_ref(), other.feats.cell_src_flat.as_ref())
            || !opt_tensor(self.feats.net_flat.as_ref(), other.feats.net_flat.as_ref())
        {
            return Err("feats".into());
        }
        if !opt_tensor(Some(&self.maps), Some(&other.maps)) {
            return Err("maps".into());
        }
        if self.masks != other.masks {
            return Err("masks".into());
        }
        if self.targets.len() != other.targets.len()
            || self.targets.iter().zip(&other.targets).any(|(a, b)| a.to_bits() != b.to_bits())
        {
            return Err("targets".into());
        }
        Ok(())
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

    fn counter(key: &str) -> u64 {
        rtt_obs::snapshot().counters.get(key).copied().unwrap_or(0)
    }

    /// Chained delta updates (buffer insertion, then a cell move, then a
    /// no-op) each yield a `PreparedDesign` bit-identical to a cold
    /// prepare, and the no-op step recomputes no mask.
    #[test]
    fn delta_update_matches_cold_prepare_bitwise() {
        let lib = CellLibrary::asap7_like();
        let nl0 = ripple_carry_adder(4, &lib);
        let pl0 = place(&nl0, &lib, 0, &PlaceConfig::default());
        let g0 = TimingGraph::build(&nl0, &lib);
        let cfg = ModelConfig::tiny();
        let zeros = |g: &TimingGraph| vec![0.0f32; g.endpoints().len()];

        let (prep0, mut ctx) =
            PreparedDesign::prepare_full(&nl0, &lib, &pl0, &g0, &cfg, zeros(&g0));

        // Step 1: insert a buffer in front of some net sink. Seeds follow
        // the `opt::dirty_seed_pins` contract: pins of the new cell plus
        // sinks of the new/changed net edges.
        let mut nl1 = nl0.clone();
        let mut pl1 = pl0.clone();
        let (net_id, sink) =
            nl1.nets().map(|(id, net)| (id, net.sinks[0])).next().expect("adder has nets");
        nl1.disconnect_sink(net_id, sink).unwrap();
        let buf_ty = lib.pick(rtt_netlist::GateFn::Buf, 1).expect("library has a buffer");
        let (buf, buf_out) = nl1.add_cell("delta_buf", buf_ty, &lib);
        let buf_in = nl1.cell(buf).inputs[0];
        nl1.add_sink(net_id, buf_in).unwrap();
        nl1.connect_net("delta_buf_net", buf_out, &[sink]).unwrap();
        pl1.place_cell(buf, pl1.floorplan().die.center());
        let g1 = TimingGraph::build(&nl1, &lib);
        let seeds = [buf_in, buf_out, sink];
        let prep1 =
            prep0.update(&mut ctx, (&nl0, &pl0), (&nl1, &pl1), &lib, &g1, &cfg, &seeds, zeros(&g1));
        let cold1 = PreparedDesign::prepare(&nl1, &lib, &pl1, &g1, &cfg, zeros(&g1));
        prep1.bit_eq(&cold1).expect("delta after buffer insertion matches cold prepare");

        // Step 2: chained update — move a cell; no structural seeds.
        let mut pl2 = pl1.clone();
        let (victim, _) = nl1.cells().next().expect("adder has cells");
        let die = pl2.floorplan().die;
        pl2.place_cell(victim, rtt_place::Point { x: die.x0 + 1.0, y: die.y1 - 1.0 });
        let prep2 =
            prep1.update(&mut ctx, (&nl1, &pl1), (&nl1, &pl2), &lib, &g1, &cfg, &[], zeros(&g1));
        let cold2 = PreparedDesign::prepare(&nl1, &lib, &pl2, &g1, &cfg, zeros(&g1));
        prep2.bit_eq(&cold2).expect("delta after cell move matches cold prepare");

        // Step 3: no-op update — no mask may be recomputed.
        let before = counter(PREP_MASKS_RECOMPUTED_COUNTER);
        let prep3 =
            prep2.update(&mut ctx, (&nl1, &pl2), (&nl1, &pl2), &lib, &g1, &cfg, &[], zeros(&g1));
        prep3.bit_eq(&cold2).expect("no-op delta is stable");
        let after = counter(PREP_MASKS_RECOMPUTED_COUNTER);
        assert_eq!(before, after, "a no-op update must recompute zero masks");
    }

    /// A floorplan change falls back to a cold prepare internally and
    /// still produces a bit-identical result.
    #[test]
    fn delta_update_survives_floorplan_change() {
        let lib = CellLibrary::asap7_like();
        let nl = ripple_carry_adder(2, &lib);
        let pl = place(&nl, &lib, 0, &PlaceConfig::default());
        let graph = TimingGraph::build(&nl, &lib);
        let cfg = ModelConfig::tiny();
        let zeros = vec![0.0f32; graph.endpoints().len()];
        let (prep, mut ctx) =
            PreparedDesign::prepare_full(&nl, &lib, &pl, &graph, &cfg, zeros.clone());
        // Re-place with a different seed: every cell moves, and the die
        // may differ — exercises the global-invalidation path.
        let pl2 = place(&nl, &lib, 7, &PlaceConfig::default());
        let upd =
            prep.update(&mut ctx, (&nl, &pl), (&nl, &pl2), &lib, &graph, &cfg, &[], zeros.clone());
        let cold = PreparedDesign::prepare(&nl, &lib, &pl2, &graph, &cfg, zeros);
        upd.bit_eq(&cold).expect("update across a re-place matches cold prepare");
    }
}
