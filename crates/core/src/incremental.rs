//! Dirty-cone incremental inference state.
//!
//! [`IncrementalCtx`] caches the flat GNN activation matrix and the CNN
//! global map of a *base* design. When the caller re-predicts after a
//! netlist transform, [`crate::TimingModel::predict_incremental`] seeds a
//! dirty set from the transform's touched pins, closes it over the
//! level-ordered fan-out cones, recomputes only the dirty rows, and
//! copies every clean row straight out of the cache — bit-identical to a
//! full pass, at cone-proportional cost. On success the cache *rebases*
//! to the just-predicted design, so an optimizer inner loop only ever
//! pays for the cone of its latest transform. A caller that knows the
//! design has not changed since the last refresh reads through
//! [`crate::TimingModel::predict_cached`] instead, which skips the
//! refresh and runs only the per-endpoint readout tail.
//!
//! Row matching across designs is keyed by [`PinId`] (stable under the
//! tombstoning edits of `rtt_netlist`), never by flat row number. The
//! caller's dirty seeds must cover **topology** changes (a pin whose
//! gather sources changed — `rtt_opt::dirty_seed_pins` derives exactly
//! that from a netlist diff); the context itself detects the rest:
//! unmapped rows (new pins), node-kind changes, and any bit-level static
//! feature change (which also covers placement moves of surviving
//! cells).
//!
//! Every refresh follows one rule: it reuses the GNN rows outside the
//! dirty cone, recomputes the CNN global map, and empties the
//! per-endpoint tail cache. A cached tail output depends on its
//! endpoint's flat row, its mask runs and the global map; all three
//! change only with the design, and every design change goes through a
//! refresh, so an entry is valid exactly until the next one.

use rtt_netlist::PinId;
use rtt_nn::{ParamStore, Tensor};

use crate::gnn::{GnnPlan, IncCompact, NetlistGnn};
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

/// Node-kind tag per flat row (cell / net / source), used to detect kind
/// flips (e.g. a pin losing its driver turns `NetSink` into `Source`)
/// that a pure feature compare could miss.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum RowKind {
    Cell,
    Net,
    Src,
}

/// Cached state for one base design (plus the reusable spare buffer the
/// next refresh writes into).
#[derive(Clone, Debug)]
pub(crate) struct BaseCache {
    /// `[total_rows, embed_dim]` flat activations of the base design.
    pub(crate) flat: Tensor,
    /// Swap target for the next refresh (recycled allocation).
    spare: Tensor,
    /// Pin index → base flat row (`u32::MAX` = pin absent).
    row_of_pin: Vec<u32>,
    /// Node kind per base flat row.
    row_kind: Vec<RowKind>,
    /// Static-feature row (into the matching feature matrix) per base
    /// flat row.
    row_feat: Vec<u32>,
    /// Clones of the base design's static feature matrices, kept for the
    /// bit-level feature compare against the next design.
    feat_cell_src: Option<Tensor>,
    feat_net: Option<Tensor>,
}

/// Reusable incremental-inference context. One per (model, design
/// lineage): reset it whenever the model weights change or prediction
/// moves to an unrelated design.
#[derive(Clone, Debug, Default)]
pub struct IncrementalCtx {
    cache: Option<BaseCache>,
    /// CNN global map of the design the last refresh saw.
    gmap: Option<Tensor>,
    /// Tail outputs read since the last refresh, indexed by endpoint pin
    /// index.
    ep: Vec<Option<f32>>,
    // Recycled index scratch.
    dirty: Vec<bool>,
    map_rows: Vec<u32>,
    row_of_pin_new: Vec<u32>,
    /// Recycled dirty-row sub-plan (built here, outside the hot kernel,
    /// so the kernel itself never allocates).
    compact: IncCompact,
}

fn row_meta(plan: &GnnPlan) -> (Vec<RowKind>, Vec<u32>) {
    let mut kind = vec![RowKind::Cell; plan.total_rows];
    let mut feat = vec![0u32; plan.total_rows];
    for fl in &plan.levels {
        for j in 0..fl.n_cells {
            kind[fl.cell_dst[j] as usize] = RowKind::Cell;
            feat[fl.cell_dst[j] as usize] = (fl.cell_feat_off + j) as u32;
        }
        for j in 0..fl.n_nets {
            kind[fl.net_dst[j] as usize] = RowKind::Net;
            feat[fl.net_dst[j] as usize] = (fl.net_feat_off + j) as u32;
        }
        for j in 0..fl.n_srcs {
            kind[fl.src_dst[j] as usize] = RowKind::Src;
            feat[fl.src_dst[j] as usize] = (fl.src_feat_off + j) as u32;
        }
    }
    (kind, feat)
}

/// Bit-level row compare (`==` on f32 would call NaNs unequal even when
/// the recomputed value would be byte-identical).
fn rows_bit_eq(a: Option<&Tensor>, ra: u32, b: Option<&Tensor>, rb: u32) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => {
            let (x, y) = (a.row(ra as usize), b.row(rb as usize));
            x.len() == y.len() && x.iter().zip(y).all(|(u, v)| u.to_bits() == v.to_bits())
        }
        _ => false,
    }
}

/// Clones `src` into `dst`, reusing `dst`'s allocation when possible.
fn clone_feat(dst: &mut Option<Tensor>, src: Option<&Tensor>) {
    match (dst.as_mut(), src) {
        (Some(d), Some(s)) => d.copy_from(s),
        (_, None) => *dst = None,
        (None, Some(s)) => *dst = Some(s.clone()),
    }
}

fn build_row_of_pin(pins: &[PinId], out: &mut Vec<u32>) {
    let cap = pins.iter().map(|p| p.index() + 1).max().unwrap_or(0);
    out.clear();
    out.resize(cap, u32::MAX);
    for (r, p) in pins.iter().enumerate() {
        out[p.index()] = r as u32;
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
    /// pass). Rebases the cache onto `design` and returns the number of
    /// rows recomputed.
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
        let pins = schedule.flat_row_pins();
        let (new_kind, new_feat) = row_meta(plan);
        build_row_of_pin(pins, &mut self.row_of_pin_new);

        let recomputed = match &mut self.cache {
            None => {
                gnn.forward_flat(store, schedule, &design.feats, aggregation, bufs);
                // Move the output out of the scratch slot rather than copy
                // it: the cache owns the one whole-design matrix, and the
                // caller's arena does not stay sized to it.
                self.cache = Some(BaseCache {
                    flat: std::mem::take(&mut bufs[0]),
                    spare: Tensor::default(),
                    row_of_pin: std::mem::take(&mut self.row_of_pin_new),
                    row_kind: new_kind,
                    row_feat: new_feat,
                    feat_cell_src: design.feats.cell_src_flat.clone(),
                    feat_net: design.feats.net_flat.clone(),
                });
                n
            }
            Some(cache) => {
                self.dirty.clear();
                self.dirty.resize(n, false);
                self.map_rows.clear();
                self.map_rows.resize(n, u32::MAX);
                // Map every new row to its base row by pin, auto-seeding
                // rows that are new, changed kind, or changed features at
                // the bit level. An unchanged design maps onto itself
                // with no dirty row.
                for (r, p) in pins.iter().enumerate() {
                    let q = cache.row_of_pin.get(p.index()).copied().unwrap_or(u32::MAX);
                    let clean = q != u32::MAX && cache.row_kind[q as usize] == new_kind[r] && {
                        let (new_t, old_t) = match new_kind[r] {
                            RowKind::Net => {
                                (design.feats.net_flat.as_ref(), cache.feat_net.as_ref())
                            }
                            _ => {
                                (design.feats.cell_src_flat.as_ref(), cache.feat_cell_src.as_ref())
                            }
                        };
                        rows_bit_eq(new_t, new_feat[r], old_t, cache.row_feat[q as usize])
                    };
                    if clean {
                        self.map_rows[r] = q;
                    } else {
                        self.dirty[r] = true;
                    }
                }
                // Caller-provided seeds: pins whose gather topology
                // changed (the part a row-local compare cannot see).
                for p in dirty_pins {
                    if let Some(&r) = self.row_of_pin_new.get(p.index()) {
                        if r != u32::MAX {
                            self.dirty[r as usize] = true;
                        }
                    }
                }
                let recomputed = schedule.propagate_dirty(&mut self.dirty);
                for (m, &d) in self.map_rows.iter_mut().zip(&self.dirty) {
                    if d {
                        *m = u32::MAX;
                    }
                }
                self.compact.build(plan, &self.dirty);
                gnn.forward_flat_incremental(
                    store,
                    schedule,
                    &design.feats,
                    aggregation,
                    &self.compact,
                    &self.map_rows,
                    &cache.flat,
                    &mut cache.spare,
                    bufs,
                );
                std::mem::swap(&mut cache.flat, &mut cache.spare);
                std::mem::swap(&mut cache.row_of_pin, &mut self.row_of_pin_new);
                cache.row_kind = new_kind;
                cache.row_feat = new_feat;
                clone_feat(&mut cache.feat_cell_src, design.feats.cell_src_flat.as_ref());
                clone_feat(&mut cache.feat_net, design.feats.net_flat.as_ref());
                recomputed
            }
        };
        ROWS_RECOMPUTED.add(recomputed as u64);
        ROWS_TOTAL.add(n as u64);
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

    /// Endpoint `pin`'s tail output, if read since the last refresh.
    pub(crate) fn ep_get(&self, pin: PinId) -> Option<f32> {
        self.ep.get(pin.index()).copied().flatten()
    }

    /// Caches endpoint `pin`'s tail output `val` until the next refresh.
    pub(crate) fn ep_put(&mut self, pin: PinId, val: f32) {
        if self.ep.len() <= pin.index() {
            self.ep.resize(pin.index() + 1, None);
        }
        self.ep[pin.index()] = Some(val);
    }
}
