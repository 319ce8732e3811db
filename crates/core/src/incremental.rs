//! Dirty-cone incremental inference state.
//!
//! [`IncrementalCtx`] caches the flat GNN activation matrix and the CNN
//! global map of a *base* design. When the caller re-predicts after a
//! netlist transform, [`crate::TimingModel::predict_incremental`] seeds a
//! dirty set from the transform's touched pins, closes it over the
//! level-ordered fan-out cones, and recomputes only the dirty rows, in
//! place in the cached matrix; every clean row keeps its cached value —
//! bit-identical to a full pass, at cone-proportional cost. The cache
//! then holds the just-predicted design, so an optimizer inner loop only
//! ever pays for the cone of its latest transform. A caller that knows
//! the design has not changed since the last refresh reads through
//! [`crate::TimingModel::predict_cached`] instead, which skips the
//! refresh and runs only the per-endpoint readout tail.
//!
//! A flat row is its pin's index, and [`PinId`]s are stable under the
//! tombstoning edits of `rtt_netlist`, so a surviving pin keeps its row
//! across a transform and rows match by number. The caller's dirty seeds
//! must cover **topology** changes (a pin whose gather sources changed —
//! `rtt_opt::dirty_seed_pins` derives exactly that from a netlist diff);
//! the context itself detects the rest: new pins, node-kind changes, and
//! any bit-level static feature change (which also covers placement moves
//! of surviving cells).
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
    /// Node kind and static-feature row (into the matching feature
    /// matrix) per base flat row.
    meta: Vec<(RowKind, u32)>,
    /// A copy of the base design's static features, kept for the
    /// bit-level compare against the next design.
    feats: LevelFeats,
}

/// Reusable incremental-inference context. One per (model, design
/// lineage): reset it whenever the model weights change or prediction
/// moves to an unrelated design.
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

fn row_meta(plan: &GnnPlan) -> Vec<(RowKind, u32)> {
    let mut meta = vec![(RowKind::Hole, 0); plan.total_rows];
    for fl in &plan.levels {
        for j in 0..fl.n_cells {
            meta[fl.cell_dst[j] as usize] = (RowKind::Cell, (fl.cell_feat_off + j) as u32);
        }
        for j in 0..fl.n_nets {
            meta[fl.net_dst[j] as usize] = (RowKind::Net, (fl.net_feat_off + j) as u32);
        }
        for j in 0..fl.n_srcs {
            meta[fl.src_dst[j] as usize] = (RowKind::Src, (fl.src_feat_off + j) as u32);
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
    /// pass. Call after a weight reload or when switching to an
    /// unrelated design.
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
    /// only the cones dirtied by `dirty_pins` (cold caches run one full
    /// pass). The cache then holds `design`'s activations; returns the
    /// number of rows recomputed.
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
                // A surviving pin keeps its row, so each live row compares
                // with the base row of the same number and is seeded when
                // it is new (a hole or past the end in the base), changed
                // kind, or changed features at the bit level. An unchanged
                // design has no dirty row.
                for (r, &(kind, feat)) in
                    meta.iter().enumerate().filter(|(_, m)| m.0 != RowKind::Hole)
                {
                    let new = feat_row(&design.feats, kind, feat);
                    let clean = cache.meta.get(r).is_some_and(|&(k, f)| {
                        k == kind && rows_bit_eq(new, feat_row(&cache.feats, k, f))
                    });
                    self.dirty[r] = !clean;
                }
                // Caller-provided seeds: live pins whose gather topology
                // changed (the part a row-local compare cannot see).
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
    use rtt_netlist::{CellLibrary, TimingGraph};
    use rtt_nn::InferCtx;
    use rtt_place::{place, PlaceConfig};

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
}
