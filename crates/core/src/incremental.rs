//! Dirty-cone incremental inference state.
//!
//! [`IncrementalCtx`] caches the flat GNN activation matrix (and the CNN
//! global map) of a *base* design. When the caller re-predicts after a
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
//! The context also caches the per-endpoint readout-tail outputs, keyed
//! by endpoint pin. A cached prediction is reused only when every tail
//! input is bit-identical to the run that produced it: the endpoint's
//! flat row was *not* recomputed by the refresh, its sparse mask bins
//! are unchanged, and the CNN global map came from the cache — so reuse
//! is bit-exact by construction, not by tolerance.

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

/// Cached readout-tail output for one endpoint: the prediction plus the
/// sparse mask bins it was computed under.
#[derive(Clone, Debug)]
pub(crate) struct EpEntry {
    pub(crate) val: f32,
    pub(crate) mask: Vec<u32>,
}

/// Reusable incremental-inference context. One per (model, design
/// lineage): reset it whenever the model weights change or prediction
/// moves to an unrelated design.
#[derive(Clone, Debug, Default)]
pub struct IncrementalCtx {
    cache: Option<BaseCache>,
    /// CNN global-map cache: valid while the design's layout maps are
    /// bit-identical to `maps_key`.
    gmap: Option<(Tensor, Tensor)>,
    /// Per-endpoint tail-output cache, indexed by endpoint pin index.
    /// Entries are invalidated when the pin's flat row goes dirty and
    /// wholesale when the global map recomputes.
    ep: Vec<Option<EpEntry>>,
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

/// Bit-level whole-tensor compare (shape and every element).
fn feat_bits_eq(a: Option<&Tensor>, b: Option<&Tensor>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => {
            a.shape() == b.shape()
                && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
        }
        (None, None) => true,
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

    /// `true` once a base design's activations are cached.
    pub fn is_warm(&self) -> bool {
        self.cache.is_some()
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
        let schedule = &design.schedule;
        let plan = schedule.plan();
        let n = plan.total_rows;
        let pins = schedule.flat_row_pins();
        let (new_kind, new_feat) = row_meta(plan);
        build_row_of_pin(pins, &mut self.row_of_pin_new);

        let recomputed = match &mut self.cache {
            None => {
                self.ep.clear();
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
                // Fast path: when the pin map, node kinds, feature
                // indices, and feature bits all match the base exactly,
                // the per-row clean criterion below holds everywhere
                // with an identity map — skip the branchy row loop (and
                // the feature re-clone). This is the steady-state shape
                // of a daemon re-predicting an unchanged design.
                let same_structure = self.row_of_pin_new == cache.row_of_pin
                    && new_kind == cache.row_kind
                    && new_feat == cache.row_feat
                    && feat_bits_eq(
                        design.feats.cell_src_flat.as_ref(),
                        cache.feat_cell_src.as_ref(),
                    )
                    && feat_bits_eq(design.feats.net_flat.as_ref(), cache.feat_net.as_ref());
                if same_structure {
                    for (r, m) in self.map_rows.iter_mut().enumerate() {
                        *m = r as u32;
                    }
                } else {
                    // Map every new row to its base row by pin,
                    // auto-seeding rows that are new, changed kind, or
                    // changed features at the bit level.
                    for (r, p) in pins.iter().enumerate() {
                        let q = cache.row_of_pin.get(p.index()).copied().unwrap_or(u32::MAX);
                        let clean = q != u32::MAX && cache.row_kind[q as usize] == new_kind[r] && {
                            let (new_t, old_t) = match new_kind[r] {
                                RowKind::Net => {
                                    (design.feats.net_flat.as_ref(), cache.feat_net.as_ref())
                                }
                                _ => (
                                    design.feats.cell_src_flat.as_ref(),
                                    cache.feat_cell_src.as_ref(),
                                ),
                            };
                            rows_bit_eq(new_t, new_feat[r], old_t, cache.row_feat[q as usize])
                        };
                        if clean {
                            self.map_rows[r] = q;
                        } else {
                            self.dirty[r] = true;
                        }
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
                for (r, &d) in self.dirty.iter().enumerate() {
                    if d {
                        self.map_rows[r] = u32::MAX;
                        // A dirty row's activation may change, so any
                        // cached tail output reading it is stale. (Pins
                        // absent from this design keep their entries:
                        // reappearing as a live row forces that row
                        // dirty, which invalidates them right here.)
                        if let Some(slot) = self.ep.get_mut(pins[r].index()) {
                            *slot = None;
                        }
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
                if !same_structure {
                    std::mem::swap(&mut cache.row_of_pin, &mut self.row_of_pin_new);
                    cache.row_kind = new_kind;
                    cache.row_feat = new_feat;
                    clone_feat(&mut cache.feat_cell_src, design.feats.cell_src_flat.as_ref());
                    clone_feat(&mut cache.feat_net, design.feats.net_flat.as_ref());
                }
                recomputed
            }
        };
        rtt_obs::add_many(&[
            (ROWS_RECOMPUTED_COUNTER, recomputed as u64),
            (ROWS_TOTAL_COUNTER, n as u64),
        ]);
        recomputed
    }

    /// The cached flat activation matrix (once warm).
    pub(crate) fn flat(&self) -> Option<&Tensor> {
        self.cache.as_ref().map(|c| &c.flat)
    }

    /// `true` when the cached CNN global map was computed from layout
    /// maps bit-identical to `maps`.
    pub(crate) fn gmap_matches(&self, maps: &Tensor) -> bool {
        self.gmap.as_ref().is_some_and(|(key, _)| {
            key.shape() == maps.shape()
                && key.data().iter().zip(maps.data()).all(|(a, b)| a.to_bits() == b.to_bits())
        })
    }

    /// Caches the CNN global map `gmap` keyed by the layout maps that
    /// produced it. Every cached endpoint output read the previous
    /// global map, so a recompute invalidates them all.
    pub(crate) fn set_gmap(&mut self, maps: &Tensor, gmap: &Tensor) {
        for e in &mut self.ep {
            *e = None;
        }
        match &mut self.gmap {
            Some((key, g)) => {
                key.copy_from(maps);
                g.copy_from(gmap);
            }
            slot => {
                let (mut key, mut g) = (Tensor::default(), Tensor::default());
                key.copy_from(maps);
                g.copy_from(gmap);
                *slot = Some((key, g));
            }
        }
    }

    /// The cached CNN global map, if any.
    pub(crate) fn gmap(&self) -> Option<&Tensor> {
        self.gmap.as_ref().map(|(_, g)| g)
    }

    /// The cached tail output for endpoint `pin`, if still valid.
    pub(crate) fn ep_get(&self, pin: PinId) -> Option<&EpEntry> {
        self.ep.get(pin.index()).and_then(|e| e.as_ref())
    }

    /// Caches endpoint `pin`'s tail output `val`, computed under the
    /// sparse `mask` bins (empty when masking is inactive).
    pub(crate) fn ep_put(&mut self, pin: PinId, val: f32, mask: &[u32]) {
        if self.ep.len() <= pin.index() {
            self.ep.resize(pin.index() + 1, None);
        }
        match &mut self.ep[pin.index()] {
            Some(e) => {
                e.val = val;
                e.mask.clear();
                e.mask.extend_from_slice(mask);
            }
            slot => *slot = Some(EpEntry { val, mask: mask.to_vec() }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gmap_cache_is_keyed_by_exact_map_bits() {
        let mut ctx = IncrementalCtx::new();
        let maps = Tensor::from_vec(&[1, 4], vec![1.0, 2.0, 3.0, 4.0]);
        let gmap = Tensor::from_vec(&[1, 2], vec![9.0, 8.0]);
        assert!(!ctx.gmap_matches(&maps));
        ctx.set_gmap(&maps, &gmap);
        assert!(ctx.gmap_matches(&maps));
        assert_eq!(ctx.gmap().unwrap().data(), &[9.0, 8.0]);
        let moved = Tensor::from_vec(&[1, 4], vec![1.0, 2.0, 3.0, 4.5]);
        assert!(!ctx.gmap_matches(&moved), "any map change must invalidate the global map");
        ctx.reset();
        assert!(!ctx.gmap_matches(&maps));
        assert!(!ctx.is_warm());
    }
}
