//! Dirty-cone incremental inference state.
//!
//! [`IncrementalCtx`] caches the flat GNN activation matrix and the CNN
//! global map of a *base* design. When the caller re-predicts after a
//! netlist transform, [`crate::TimingModel::predict_incremental`]
//! compares every live row of the new design with the cached base row of
//! the same number, closes the rows that differ over the level-ordered
//! fan-out cones, and recomputes only those dirty rows, in place in the
//! cached matrix; every clean row keeps its cached value — bit-identical
//! to a full pass, at cone-proportional cost. The cache then holds the
//! just-predicted design, so an optimizer inner loop only ever pays for
//! the cone of its latest transform. A caller that knows the design has
//! not changed since the last refresh reads through
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
//! Every refresh follows one rule: it reuses the GNN rows outside the
//! dirty cone, recomputes the CNN global map, and empties the
//! per-endpoint tail cache. A cached tail output depends on its
//! endpoint's flat row, its mask runs and the global map; all three
//! change only with the design, and every design change goes through a
//! refresh, so an entry is valid exactly until the next one.

use rtt_netlist::PinId;
use rtt_nn::{ParamStore, Tensor};

use crate::gnn::{GnnPlan, IncCompact, LevelFeats, NetlistGnn};
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

/// Cached state for one base design.
#[derive(Clone, Debug)]
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
#[derive(Clone, Debug, Default)]
pub struct IncrementalCtx {
    cache: Option<BaseCache>,
    /// CNN global map of the design the last refresh saw.
    gmap: Option<Tensor>,
    /// Tail outputs read since the last refresh, indexed by the
    /// endpoint's flat row.
    ep: Vec<Option<f32>>,
    /// Recycled dirty-set scratch.
    dirty: Vec<bool>,
    /// Recycled dirty-row sub-plan (built here, outside the hot kernel,
    /// so the kernel itself never allocates).
    compact: IncCompact,
}

fn row_meta(plan: &GnnPlan) -> Vec<(RowKind, u32, u32)> {
    let mut meta = vec![(RowKind::Hole, 0, 0); plan.total_rows];
    for fl in &plan.levels {
        for j in 0..fl.n_cells {
            meta[fl.cell_dst[j] as usize] = (RowKind::Cell, (fl.cell_feat_off + j) as u32, 0);
        }
        for j in 0..fl.n_nets {
            let feat = (fl.net_feat_off + j) as u32;
            meta[fl.net_dst[j] as usize] = (RowKind::Net, feat, fl.net_gather[j]);
        }
        for j in 0..fl.n_srcs {
            meta[fl.src_dst[j] as usize] = (RowKind::Src, (fl.src_feat_off + j) as u32, 0);
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

/// Bit-level row compare (`==` on f32 would call NaNs unequal even when
/// the recomputed value would be byte-identical).
fn rows_bit_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(u, v)| u.to_bits() == v.to_bits())
}

/// Clones `src` into `dst`, reusing `dst`'s allocation when possible.
fn clone_feat(dst: &mut Option<Tensor>, src: Option<&Tensor>) {
    match (dst.as_mut(), src) {
        (Some(d), Some(s)) => d.copy_from(s),
        (_, None) => *dst = None,
        (None, Some(s)) => *dst = Some(s.clone()),
    }
}

impl IncrementalCtx {
    /// A fresh (cold) context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops all cached activations; the next prediction runs a full
    /// pass. Call after a weight reload.
    pub fn reset(&mut self) {
        self.cache = None;
        self.gmap = None;
        self.ep.clear();
    }

    /// `true` once a refresh has run: the context holds the activations
    /// of the design it last saw.
    pub fn is_warm(&self) -> bool {
        self.cache.is_some() || self.gmap.is_some()
    }

    /// Starts a refresh: empties the tail cache, whose entries read the
    /// previous design.
    pub(crate) fn clear_tail(&mut self) {
        self.ep.clear();
    }

    /// Refreshes the cached flat GNN matrix for `design`, recomputing
    /// only the fan-out cones of the rows that differ from the cached
    /// base, plus those of `dirty_pins` (cold caches run one full pass).
    /// The cache then holds `design`'s activations; returns the number
    /// of rows recomputed.
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
        let schedule = &design.schedule;
        let plan = schedule.plan();
        let n = plan.total_rows;
        let meta = row_meta(plan);

        let recomputed = match &mut self.cache {
            None => {
                gnn.forward_flat(store, schedule, &design.feats, aggregation, bufs);
                // Move the output out of the scratch slot rather than copy
                // it: the cache owns the one whole-design matrix, and the
                // caller's arena does not stay sized to it.
                self.cache = Some(BaseCache {
                    flat: std::mem::take(&mut bufs[0]),
                    meta,
                    feats: design.feats.clone(),
                });
                plan.live_rows
            }
            Some(cache) => {
                self.dirty.clear();
                self.dirty.resize(n, false);
                // A live row's value is a function of its node kind, its
                // static features and the rows it gathers, so each live
                // row is seeded when it is new (a hole or past the end in
                // the base) or one of the three differs from the base row
                // of the same number. The only gather that can differ is a
                // net row's driver, which the meta holds: a cell-output
                // row gathers its cell's input pins, which
                // `Netlist::add_cell` allocates right before the output,
                // so the row and the gate one-hot in its features fix
                // them, and pins are tombstoned, never reassigned. So the
                // compare is complete for any two designs. An unchanged
                // design has no dirty row.
                for (r, &(kind, feat, driver)) in
                    meta.iter().enumerate().filter(|(_, m)| m.0 != RowKind::Hole)
                {
                    let new = feat_row(&design.feats, kind, feat);
                    let clean = cache.meta.get(r).is_some_and(|&(k, f, d)| {
                        k == kind && d == driver && rows_bit_eq(new, feat_row(&cache.feats, k, f))
                    });
                    self.dirty[r] = !clean;
                }
                // Extra cones the caller asked for; no answer depends on
                // them.
                for p in dirty_pins {
                    if meta.get(p.index()).is_some_and(|m| m.0 != RowKind::Hole) {
                        self.dirty[p.index()] = true;
                    }
                }
                let recomputed = schedule.propagate_dirty(&mut self.dirty);
                self.compact.build(plan, &self.dirty);
                cache.flat.resize_rows(n);
                gnn.forward_flat_incremental(
                    store,
                    schedule,
                    &design.feats,
                    aggregation,
                    &self.compact,
                    &mut cache.flat,
                    bufs,
                );
                cache.meta = meta;
                clone_feat(&mut cache.feats.cell_src_flat, design.feats.cell_src_flat.as_ref());
                clone_feat(&mut cache.feats.net_flat, design.feats.net_flat.as_ref());
                recomputed
            }
        };
        ROWS_RECOMPUTED.add(recomputed as u64);
        ROWS_TOTAL.add(plan.live_rows as u64);
        recomputed
    }

    /// The cached flat activation matrix (once a model with a GNN branch
    /// has refreshed).
    pub(crate) fn flat(&self) -> Option<&Tensor> {
        self.cache.as_ref().map(|c| &c.flat)
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
    use crate::{ModelConfig, TimingModel};
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
        let ptr = inc.flat().expect("a cold refresh fills the cache").data().as_ptr();
        for design in [&moved, &base, &base] {
            model.predict_incremental(&ctx, &mut inc, design, &[], &all);
            assert_eq!(inc.flat().map(|t| t.data().as_ptr()), Some(ptr), "the matrix moved");
        }
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
}
