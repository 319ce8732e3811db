//! Activation cache for re-scoring a design after each transform.
//!
//! [`IncrementalCtx`] caches the flat GNN activation matrix and the CNN
//! global map of a *base* design. When the caller re-predicts after a
//! netlist transform, [`crate::TimingModel::predict_incremental`]
//! compares every live row of the new design with the cached base row of
//! the same number and seeds the rows that differ. It then walks the
//! levels in order, in place in the cached matrix, and recomputes a row
//! only when it is a seed or when a row it gathers changed bits earlier
//! in the same refresh; every other row keeps its cached value. The
//! refresh stops where bits stop changing, usually well inside the
//! transform's static fan-out cone, and its output is bit-identical to a
//! full pass. A new or reset context holds an empty base, against which
//! every live row is a seed, so its first refresh computes every row in
//! the same level loop. The cache then holds the just-predicted design,
//! so an optimizer inner loop only ever pays for what its latest
//! transform changed. A caller that knows the design has not changed
//! since the last refresh reads through
//! [`crate::TimingModel::predict_cached`] instead, which skips the
//! refresh and runs only the per-endpoint readout tail.
//!
//! A flat row is its pin's index, and [`PinId`]s are stable under the
//! tombstoning edits of `rtt_netlist`, so a surviving pin keeps its row
//! across a transform and rows match by number. The row compare finds
//! every change by itself: new pins, node-kind changes, a net row's new
//! driver, and any bit-level static feature change (which also covers
//! placement moves of surviving cells). It needs no hint from the caller
//! and holds for any pair of designs.
//!
//! Every refresh follows one rule: it reuses the GNN rows whose inputs
//! kept their bits, recomputes the CNN global map, and empties the
//! per-endpoint tail cache. A cached tail output depends on its
//! endpoint's flat row, its mask runs and the global map; all three
//! change only with the design, and every design change goes through a
//! refresh, so an entry is valid exactly until the next one.

use rtt_netlist::PinId;
use rtt_nn::{ParamStore, Tensor};

use crate::gnn::{rows_bit_eq, GnnPlan, LevelFeats, NetlistGnn, RefreshLevel};
use crate::{Aggregation, PreparedDesign};

/// Observability counter: flat GNN rows recomputed by the last
/// incremental refresh (a cold refresh counts every row).
pub const ROWS_RECOMPUTED_COUNTER: &str = "core::incremental_rows_recomputed";
/// Observability counter: total flat GNN rows seen by the last refresh.
pub const ROWS_TOTAL_COUNTER: &str = "core::incremental_rows_total";
/// Observability counter: endpoint predictions served from the
/// per-endpoint tail cache instead of recomputed.
pub const EPS_REUSED_COUNTER: &str = "core::incremental_eps_reused";
/// Observability counter: endpoint predictions requested from
/// [`crate::TimingModel::predict_incremental`] and
/// [`crate::TimingModel::predict_cached`].
pub const EPS_TOTAL_COUNTER: &str = "core::incremental_eps_total";

/// Node-kind tag per flat row (cell / net / source, or a hole left by a
/// dead pin), used to detect kind flips (e.g. a pin losing its driver
/// turns `NetSink` into `Source`) that a pure feature compare could miss.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum RowKind {
    Cell,
    Net,
    Src,
    Hole,
}

/// Cached state for one base design (empty, with no rows, when cold).
#[derive(Clone, Debug, Default)]
pub(crate) struct BaseCache {
    /// `[total_rows, embed_dim]` flat activations of the base design.
    pub(crate) flat: Tensor,
    /// Node kind, static-feature row (into the matching feature matrix)
    /// and, for a net row, its driver's flat row, per base flat row.
    meta: Vec<(RowKind, u32, u32)>,
    /// A copy of the base design's static features, kept for the
    /// bit-level compare against the next design.
    feats: LevelFeats,
}

/// Reusable incremental-inference context, one per model: it refreshes
/// onto any design, and must be reset whenever the model weights change.
/// A refresh recomputes, level by level, the rows its row compare seeds
/// and the rows that gather a row whose bits changed in the same refresh;
/// every other row keeps its cached bits.
#[derive(Clone, Debug, Default)]
pub struct IncrementalCtx {
    cache: BaseCache,
    /// CNN global map of the design the last refresh saw.
    gmap: Option<Tensor>,
    /// Tail outputs read since the last refresh, indexed by the
    /// endpoint's flat row.
    ep: Vec<Option<f32>>,
    /// Per flat row: a seed of the refresh, then whether its bits
    /// changed (recycled).
    dirty: Vec<bool>,
    /// The refresh's recycled one-level sub-plan.
    level: RefreshLevel,
}

fn row_meta(plan: &GnnPlan) -> Vec<(RowKind, u32, u32)> {
    let mut meta = vec![(RowKind::Hole, 0, 0); plan.total_rows];
    for fl in &plan.levels {
        for (j, &r) in fl.cell_dst.iter().enumerate() {
            meta[r as usize] = (RowKind::Cell, (fl.cell_feat_off + j) as u32, 0);
        }
        for (j, (&r, &driver)) in fl.net_dst.iter().zip(&fl.net_gather).enumerate() {
            meta[r as usize] = (RowKind::Net, (fl.net_feat_off + j) as u32, driver);
        }
        for (j, &r) in fl.src_dst.iter().enumerate() {
            meta[r as usize] = (RowKind::Src, (fl.src_feat_off + j) as u32, 0);
        }
    }
    meta
}

/// Static-feature row `row` of a `kind` row: nets read the `f_n` input,
/// cells and sources the `f_c2` one.
fn feat_row(feats: &LevelFeats, kind: RowKind, row: u32) -> &[f32] {
    let t = if kind == RowKind::Net { &feats.net_flat } else { &feats.cell_src_flat };
    t.as_ref().map_or(&[], |t| t.row(row as usize))
}

/// Clones `src` into `dst`, reusing `dst`'s allocation when possible.
fn clone_feat(dst: &mut Option<Tensor>, src: Option<&Tensor>) {
    match (dst.as_mut(), src) {
        (Some(d), Some(s)) => d.copy_from(s),
        _ => *dst = src.cloned(),
    }
}

impl BaseCache {
    /// Sets `dirty` to one flag per row of `meta`, the row meta of the
    /// design whose static features are `feats`, and flags the seeds: the
    /// live rows that differ from the cached base. A live row's value is a
    /// function of its node kind, its static features and the rows it
    /// gathers, so a row is seeded when it is new (a hole or past the end
    /// in the base) or one of the three differs from the base row of the
    /// same number. The only gather that can differ is a net row's
    /// driver, which the meta holds: a cell-output row gathers its cell's
    /// input pins, which `Netlist::add_cell` allocates right before the
    /// output, so the row and the gate one-hot in its features fix them,
    /// and pins are tombstoned, never reassigned. So the compare is
    /// complete for any two designs. An unchanged design has no seed, and
    /// against the empty base every live row is one.
    fn seed(&self, meta: &[(RowKind, u32, u32)], feats: &LevelFeats, dirty: &mut Vec<bool>) {
        dirty.clear();
        dirty.resize(meta.len(), false);
        for (r, &(kind, feat, driver)) in
            meta.iter().enumerate().filter(|(_, m)| m.0 != RowKind::Hole)
        {
            let new = feat_row(feats, kind, feat);
            let clean = self.meta.get(r).is_some_and(|&(k, f, d)| {
                k == kind && d == driver && rows_bit_eq(new, feat_row(&self.feats, k, f))
            });
            dirty[r] = !clean;
        }
    }
}

impl IncrementalCtx {
    /// A fresh (cold) context: its base is empty.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops all cached activations: the next refresh computes every
    /// live row. Call after a weight reload.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// `true` once a refresh has run: the context holds the activations
    /// of the design it last saw.
    pub fn is_warm(&self) -> bool {
        !self.cache.meta.is_empty() || self.gmap.is_some()
    }

    /// Starts a refresh: empties the tail cache, whose entries read the
    /// previous design.
    pub(crate) fn clear_tail(&mut self) {
        self.ep.clear();
    }

    /// Refreshes the cached flat GNN matrix for `design`: seeds the rows
    /// that differ from the cached base, and the live rows of
    /// `dirty_pins`, then recomputes the seeds and every row that gathers
    /// a row whose bits changed (every live row is a seed against a cold
    /// context's empty base). The cache then holds `design`'s activations;
    /// returns the number of rows recomputed.
    pub(crate) fn refresh_gnn(
        &mut self,
        gnn: &NetlistGnn,
        store: &ParamStore,
        design: &PreparedDesign,
        aggregation: Aggregation,
        dirty_pins: &[PinId],
        bufs: &mut [Tensor],
    ) -> usize {
        static ROWS_RECOMPUTED: rtt_obs::Counter = rtt_obs::Counter::new(ROWS_RECOMPUTED_COUNTER);
        static ROWS_TOTAL: rtt_obs::Counter = rtt_obs::Counter::new(ROWS_TOTAL_COUNTER);
        let plan = design.schedule.plan();
        let meta = row_meta(plan);
        let cache = &mut self.cache;
        cache.seed(&meta, &design.feats, &mut self.dirty);
        // Rows the caller forces; no answer depends on them.
        for p in dirty_pins {
            if meta.get(p.index()).is_some_and(|m| m.0 != RowKind::Hole) {
                self.dirty[p.index()] = true;
            }
        }
        let recomputed = gnn.refresh_flat(
            store,
            plan,
            &design.feats,
            aggregation,
            &mut self.dirty,
            &mut self.level,
            &mut cache.flat,
            bufs,
        );
        cache.meta = meta;
        clone_feat(&mut cache.feats.cell_src_flat, design.feats.cell_src_flat.as_ref());
        clone_feat(&mut cache.feats.net_flat, design.feats.net_flat.as_ref());
        ROWS_RECOMPUTED.add(recomputed as u64);
        ROWS_TOTAL.add(plan.live_rows as u64);
        recomputed
    }

    /// The cached flat activation matrix (meaningful once a model with a
    /// GNN branch has refreshed).
    pub(crate) fn flat(&self) -> &Tensor {
        &self.cache.flat
    }

    /// Stores the CNN global map of the design being refreshed.
    pub(crate) fn set_gmap(&mut self, gmap: &Tensor) {
        self.gmap.get_or_insert_with(Tensor::default).copy_from(gmap);
    }

    /// The cached CNN global map, if any.
    pub(crate) fn gmap(&self) -> Option<&Tensor> {
        self.gmap.as_ref()
    }

    /// The tail output of the endpoint at flat row `row`, if read since
    /// the last refresh.
    pub(crate) fn ep_get(&self, row: u32) -> Option<f32> {
        self.ep.get(row as usize).copied().flatten()
    }

    /// Caches the tail output `val` of the endpoint at `row` until the
    /// next refresh.
    pub(crate) fn ep_put(&mut self, row: u32, val: f32) {
        if self.ep.len() <= row as usize {
            self.ep.resize(row as usize + 1, None);
        }
        self.ep[row as usize] = Some(val);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelConfig, ModelVariant, TimingModel};
    use rand::SeedableRng;
    use rtt_circgen::GenParams;
    use rtt_netlist::{CellLibrary, Netlist, TimingGraph};
    use rtt_nn::InferCtx;
    use rtt_place::{place, PlaceConfig, Placement};

    /// A warm refresh at an unchanged row count runs in place: the cached
    /// matrix keeps its allocation, so the context holds one whole-design
    /// matrix.
    #[test]
    fn warm_refresh_keeps_the_cached_matrix_allocation() {
        let lib = CellLibrary::asap7_like();
        let nl = GenParams::new("g", 150, 3).generate(&lib).netlist;
        let graph = TimingGraph::build(&nl, &lib);
        let (cfg, zeros) = (ModelConfig::tiny(), vec![0.0; graph.endpoints().len()]);
        let mut pl = place(&nl, &lib, 0, &PlaceConfig::default());
        let base = PreparedDesign::prepare(&nl, &lib, &pl, &graph, &cfg, zeros.clone());
        // A moved cell changes static features, not the row count.
        let (cell, centre) = (nl.cells().next().expect("cells").0, pl.floorplan().die.center());
        pl.place_cell(cell, centre);
        let moved = PreparedDesign::prepare(&nl, &lib, &pl, &graph, &cfg, zeros);

        let model = TimingModel::new(cfg);
        let (ctx, mut inc) = (InferCtx::new(), IncrementalCtx::new());
        let all: Vec<u32> = (0..base.num_endpoints() as u32).collect();
        model.predict_incremental(&ctx, &mut inc, &base, &[], &all);
        assert!(!inc.flat().is_empty(), "a cold refresh fills the cache");
        let ptr = inc.flat().data().as_ptr();
        for design in [&moved, &base, &base] {
            model.predict_incremental(&ctx, &mut inc, design, &[], &all);
            assert_eq!(inc.flat().data().as_ptr(), ptr, "the matrix moved");
        }
    }

    /// A cold refresh runs the level loop a warm one runs, so the caller's
    /// arena keeps one level's scratch and the readout tail's, never a
    /// whole-design matrix.
    #[test]
    fn a_cold_refresh_leaves_no_whole_design_scratch() {
        let lib = CellLibrary::asap7_like();
        let nl = GenParams::new("g", 2_000, 55).generate(&lib).netlist;
        let graph = TimingGraph::build(&nl, &lib);
        let cfg = ModelConfig::small().with_variant(ModelVariant::GnnOnly);
        let pl = place(&nl, &lib, 0, &PlaceConfig::default());
        let zeros = vec![0.0; graph.endpoints().len()];
        let design = PreparedDesign::prepare(&nl, &lib, &pl, &graph, &cfg, zeros);
        let (ctx, all) = (InferCtx::new(), (0..design.num_endpoints() as u32).collect::<Vec<_>>());
        let model = TimingModel::new(cfg.clone());
        model.predict_incremental(&ctx, &mut IncrementalCtx::new(), &design, &[], &all);
        let (scratch, matrix) = (ctx.arena_bytes(), graph.num_nodes() * cfg.embed_dim * 4);
        assert!((scratch as usize) < matrix, "{scratch} bytes of scratch, a {matrix}-byte matrix");
    }

    /// Refreshes warm `inc` onto `design` with no dirty pins and requires
    /// the bits of a full pass.
    fn assert_refresh_is_exact(
        model: &TimingModel,
        inc: &mut IncrementalCtx,
        design: &PreparedDesign,
    ) {
        let (ctx, all) = (InferCtx::new(), (0..design.num_endpoints() as u32).collect::<Vec<_>>());
        let bits = |p: Vec<f32>| p.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        let got = model.predict_incremental(&ctx, inc, design, &[], &all);
        assert_eq!(bits(got), bits(model.predict_batch(&ctx, design, &all)));
    }

    /// A sink moved onto a driver placed where its old driver sits keeps
    /// its node kind and its distance feature: only the driver in the row
    /// meta tells the refresh that the row changed.
    #[test]
    fn refresh_sees_a_sink_redriven_at_equal_distance() {
        let lib = CellLibrary::asap7_like();
        let cfg = ModelConfig::tiny();
        let prepare = |nl: &Netlist, pl: &Placement| {
            let graph = TimingGraph::try_build(nl, &lib).expect("the re-drive makes no loop");
            let zeros = vec![0.0; graph.endpoints().len()];
            PreparedDesign::prepare(nl, &lib, pl, &graph, &cfg, zeros)
        };
        let mut nl = GenParams::new("g", 150, 3).generate(&lib).netlist;
        let mut pl = place(&nl, &lib, 0, &PlaceConfig::default());
        let graph = TimingGraph::build(&nl, &lib);
        let level = |pin: PinId| graph.level(graph.node_of(pin).expect("live pin"));
        let comb = |ty| !lib.cell_type(ty).is_sequential();
        // Cell `a` drives input `s` of combinational cell `c` on a net
        // that keeps another sink; cell `b`'s output sits below `c`'s.
        let (a, net_a, s, c_out) = nl
            .cells()
            .filter(|(_, cell)| comb(cell.type_id))
            .find_map(|(a, cell)| {
                let net = nl.pin(cell.output).net.filter(|&n| nl.net(n).sinks.len() > 1)?;
                nl.net(net).sinks.iter().find_map(|&s| {
                    let c = nl.cell(nl.pin(s).cell?);
                    comb(c.type_id).then_some((a, net, s, c.output))
                })
            })
            .expect("a combinational sink on a shared net");
        let (b, net_b) = nl
            .cells()
            .filter(|&(b, cell)| b != a && comb(cell.type_id) && level(cell.output) < level(c_out))
            .find_map(|(b, cell)| Some((b, nl.pin(cell.output).net?)))
            .expect("a driver below the sink's cell");
        pl.place_cell(b, pl.cell_pos(a));
        let before = prepare(&nl, &pl);
        nl.disconnect_sink(net_a, s).expect("s is on a's net");
        nl.add_sink(net_b, s).expect("s is free");
        let after = prepare(&nl, &pl);

        let model = TimingModel::new(cfg.clone());
        let mut inc = IncrementalCtx::new();
        assert_refresh_is_exact(&model, &mut inc, &before);
        assert_refresh_is_exact(&model, &mut inc, &after);
        // The compare holds between unrelated designs too.
        let other = GenParams::new("h", 120, 5).generate(&lib).netlist;
        assert_refresh_is_exact(
            &model,
            &mut inc,
            &prepare(&other, &place(&other, &lib, 0, &PlaceConfig::default())),
        );
    }

    /// Design A, and B: A after one buffer insertion and one resize, both
    /// prepared under `cfg`, with B's timing graph.
    fn buffered_and_resized(cfg: &ModelConfig) -> (PreparedDesign, PreparedDesign, TimingGraph) {
        let lib = CellLibrary::asap7_like();
        let prepare = |nl: &Netlist, pl: &Placement| {
            let graph = TimingGraph::build(nl, &lib);
            let zeros = vec![0.0; graph.endpoints().len()];
            (PreparedDesign::prepare(nl, &lib, pl, &graph, cfg, zeros), graph)
        };
        let mut nl = GenParams::new("g", 200, 3).generate(&lib).netlist;
        let mut pl = place(&nl, &lib, 0, &PlaceConfig::default());
        let (a, _) = prepare(&nl, &pl);
        let (net, sink) = nl
            .nets()
            .find_map(|(id, net)| Some((id, *net.sinks.first()?)))
            .expect("a net with a sink");
        let pos = pl.floorplan().die.center();
        rtt_opt::insert_buffer(&mut nl, &mut pl, &lib, net, sink, pos).expect("buffer inserts");
        let (cell, ty) = nl
            .cells()
            .find_map(|(c, cell)| Some((c, lib.upsize(cell.type_id)?)))
            .expect("an upsizable cell");
        nl.resize_cell(cell, ty, &lib).expect("resize applies");
        let (b, graph) = prepare(&nl, &pl);
        (a, b, graph)
    }

    /// A GNN under `cfg`, a warm context refreshed cold onto `base`, and
    /// scratch for further refreshes.
    fn warm_on(
        cfg: &ModelConfig,
        base: &PreparedDesign,
    ) -> (NetlistGnn, ParamStore, IncrementalCtx, Vec<Tensor>) {
        let mut store = ParamStore::new();
        let gnn = NetlistGnn::new(&mut store, &mut rand::rngs::StdRng::seed_from_u64(7), cfg);
        let (mut inc, mut bufs) =
            (IncrementalCtx::new(), vec![Tensor::default(); NetlistGnn::FLAT_SCRATCH]);
        inc.refresh_gnn(&gnn, &store, base, cfg.aggregation, &[], &mut bufs);
        (gnn, store, inc, bufs)
    }

    /// The row compare's seeds of `design` against the design warm `inc`
    /// holds.
    fn seeds_of(inc: &IncrementalCtx, design: &PreparedDesign) -> Vec<bool> {
        let mut seeds = Vec::new();
        inc.cache.seed(&row_meta(design.schedule.plan()), &design.feats, &mut seeds);
        seeds
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// A cold refresh onto A writes A's full-pass bits, and a refresh from
    /// there onto B writes B's, for residual on and off and max and mean
    /// aggregation. The seeds' cached values are NaN, so a seed that is
    /// read instead of recomputed shows.
    #[test]
    fn refresh_onto_a_transformed_design_equals_its_full_pass() {
        for residual in [false, true] {
            for aggregation in [Aggregation::Max, Aggregation::Mean] {
                let cfg = ModelConfig { residual, aggregation, ..ModelConfig::tiny() };
                let tag = format!("residual={residual} {aggregation:?}");
                let (a, b, _) = buffered_and_resized(&cfg);
                let (gnn, store, mut inc, mut bufs) = warm_on(&cfg, &a);
                gnn.forward_flat(&store, &a.schedule, &a.feats, aggregation, &mut bufs);
                assert_eq!(bits(inc.flat()), bits(&bufs[0]), "{tag}: cold refresh onto A");
                let seeds = seeds_of(&inc, &b);
                let flat = &mut inc.cache.flat;
                let d = flat.cols();
                flat.resize_rows(seeds.len());
                for r in (0..seeds.len()).filter(|&r| seeds[r]) {
                    flat.data_mut()[r * d..(r + 1) * d].fill(f32::NAN);
                }
                let recomputed = inc.refresh_gnn(&gnn, &store, &b, aggregation, &[], &mut bufs);
                gnn.forward_flat(&store, &b.schedule, &b.feats, aggregation, &mut bufs);
                assert_eq!(bits(inc.flat()), bits(&bufs[0]), "{tag}");
                let n_seeds = seeds.iter().filter(|&&s| s).count();
                assert!(0 < n_seeds && n_seeds <= recomputed, "{tag}: {n_seeds} seeds");
            }
        }
    }

    /// Seeds forced on an unchanged design each recompute to their cached
    /// bits, so nothing past them runs and no bit moves.
    #[test]
    fn forced_seeds_on_an_unchanged_design_recompute_only_themselves() {
        let cfg = ModelConfig::tiny();
        let (a, _, _) = buffered_and_resized(&cfg);
        let (gnn, store, mut inc, mut bufs) = warm_on(&cfg, &a);
        let before = bits(inc.flat());
        let levels = &a.schedule.plan().levels;
        let live =
            levels.iter().flat_map(|fl| fl.cell_dst.iter().chain(&fl.net_dst).chain(&fl.src_dst));
        let pins: Vec<PinId> = live.step_by(5).map(|&r| PinId::from_index(r as usize)).collect();
        assert!(pins.len() > 20, "only {} seeds", pins.len());
        let recomputed = inc.refresh_gnn(&gnn, &store, &a, cfg.aggregation, &pins, &mut bufs);
        assert_eq!(recomputed, pins.len());
        assert_eq!(bits(inc.flat()), before);
    }

    /// On A → B, the refresh stops inside the static fan-out cone of the
    /// row compare's seeds.
    #[test]
    fn refresh_recomputes_fewer_rows_than_the_seeds_fanout_cone() {
        let cfg = ModelConfig::tiny();
        let (a, b, graph) = buffered_and_resized(&cfg);
        let (gnn, store, mut inc, mut bufs) = warm_on(&cfg, &a);
        let seeds = seeds_of(&inc, &b);
        let nodes: Vec<u32> = (0..seeds.len())
            .filter(|&r| seeds[r])
            .map(|r| graph.node_of(PinId::from_index(r)).expect("a seed is live"))
            .collect();
        let cone = rtt_sta::fanout_cone(&graph, &nodes).len();
        let recomputed = inc.refresh_gnn(&gnn, &store, &b, cfg.aggregation, &[], &mut bufs);
        assert!(recomputed < cone, "{recomputed} rows recomputed, static cone {cone}");
    }
}
