//! The end-to-end endpoint-embedding model and its trainer.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use rtt_netlist::PinId;
use rtt_nn::{mse, ops, Adam, Exec, Grads, InferCtx, Linear, Mlp, ParamStore, Tape, Tensor, Var};

use crate::cnn::LayoutCnn;
use crate::gnn::NetlistGnn;
use crate::{IncrementalCtx, ModelConfig, ModelVariant, PreparedDesign, TrainConfig};

/// Training history.
#[derive(Clone, Debug, Default)]
pub struct TrainLog {
    /// Mean training loss (normalized MSE) per epoch.
    pub epoch_loss: Vec<f32>,
}

impl TrainLog {
    /// Loss of the final epoch.
    pub fn final_loss(&self) -> f32 {
        self.epoch_loss.last().copied().unwrap_or(f32::NAN)
    }
}

/// The restructure-tolerant timing predictor (Fig. 2).
#[derive(Clone, Debug)]
pub struct TimingModel {
    config: ModelConfig,
    store: ParamStore,
    gnn: Option<NetlistGnn>,
    cnn: Option<(LayoutCnn, Linear)>,
    regressor: Mlp,
    target_mean: f32,
    target_std: f32,
    rng: StdRng,
}

impl TimingModel {
    /// Builds a model with freshly initialized weights.
    pub fn new(config: ModelConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut store = ParamStore::new();
        let gnn = (config.variant != ModelVariant::CnnOnly)
            .then(|| NetlistGnn::new(&mut store, &mut rng, &config));
        let cnn = (config.variant != ModelVariant::GnnOnly).then(|| {
            let trunk = LayoutCnn::new(&mut store, &mut rng, &config);
            let mg = config.pooled_grid();
            let fc = Linear::new(&mut store, &mut rng, mg * mg, config.embed_dim);
            (trunk, fc)
        });
        let regressor = Mlp::new(
            &mut store,
            &mut rng,
            &[config.fused_dim(), config.regressor_hidden, config.regressor_hidden, 1],
        );
        Self { config, store, gnn, cnn, regressor, target_mean: 0.0, target_std: 1.0, rng }
    }

    /// The model's configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Total scalar weight count.
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    /// One taped forward pass over a design for the endpoint rows in
    /// `batch` (`None` = all endpoints); returns normalized predictions
    /// `[rows, 1]`.
    ///
    /// The GNN necessarily computes every node (messages flow through the
    /// whole DAG), but the layout branch and regressor run only on the
    /// requested rows — this is what keeps masked-layout training cheap and
    /// paper-scale masks out of memory (they are densified per batch).
    fn forward<'t>(
        &self,
        tape: &'t Tape,
        design: &PreparedDesign,
        batch: Option<&[u32]>,
    ) -> Var<'t> {
        rtt_obs::span!("core::forward");
        let all: Vec<u32>;
        let indices: &[u32] = match batch {
            Some(b) => b,
            None => {
                all = (0..design.num_endpoints() as u32).collect();
                &all
            }
        };
        let netlist_emb = self.gnn.as_ref().map(|gnn| {
            let emb = gnn.forward(
                tape,
                &self.store,
                &design.schedule,
                &design.feats,
                self.config.aggregation,
            );
            let rows = tape.gather_rows(emb, indices);
            if self.config.residual {
                // Residual embeddings accumulate over up to hundreds of
                // levels; rescale into an O(1) regime for the regressor.
                tape.scale(rows, crate::READOUT_SCALE)
            } else {
                rows
            }
        });
        let layout_emb = self.cnn.as_ref().map(|(trunk, fc)| {
            let maps = tape.constant(design.maps.clone());
            let global_map = trunk.forward(tape, &self.store, maps);
            let masks = if self.config.masking {
                tape.constant(design.dense_mask_rows(indices))
            } else {
                // Ablation A2: every endpoint sees the full layout map.
                let cols = design.mask_grid * design.mask_grid;
                tape.constant(Tensor::full(&[indices.len().max(1), cols], 1.0))
            };
            let masked = tape.mul_row(masks, global_map);
            fc.forward(tape, &self.store, masked)
        });
        let fused = match (netlist_emb, layout_emb) {
            (Some(n), Some(l)) => tape.concat_cols(n, l),
            (Some(n), None) => n,
            (None, Some(l)) => l,
            (None, None) => unreachable!("at least one branch is active"),
        };
        self.regressor.forward(tape, &self.store, fused)
    }

    /// Trains on the given designs with MSE on standardized arrival
    /// times; the de-normalization is stored in the model.
    ///
    /// Each epoch runs every design's forward/backward pass in parallel
    /// against the epoch-start weights, sums the gradients in a fixed-order
    /// tree, and takes a single optimizer step — so loss curves are
    /// bit-identical for any thread count (`RTT_THREADS=1` included).
    pub fn train(&mut self, designs: &[PreparedDesign], tc: &TrainConfig) -> TrainLog {
        let obs = rtt_obs::span("core::train");
        assert!(!designs.is_empty(), "training needs at least one design");
        obs.add("designs", designs.len() as u64);
        obs.add("epochs", tc.epochs as u64);
        let all: Vec<f32> = designs.iter().flat_map(|d| d.targets.iter().copied()).collect();
        let n = all.len() as f32;
        self.target_mean = all.iter().sum::<f32>() / n;
        let var = all.iter().map(|t| (t - self.target_mean).powi(2)).sum::<f32>() / n;
        self.target_std = var.sqrt().max(1e-6);

        // Per-design loss weights ∝ 1/variance: designs span a wide range
        // of arrival magnitudes, and an unweighted standardized MSE lets
        // the large designs drown out the small ones (destroying their
        // per-design R², the paper's metric). Weighting by inverse target
        // variance makes each design's term ≈ its (1 − R²).
        let global_var = self.target_std * self.target_std;
        let weights: Vec<f32> = designs
            .iter()
            .map(|d| {
                let ts = &d.targets;
                let m = ts.iter().sum::<f32>() / ts.len().max(1) as f32;
                let v = ts.iter().map(|t| (t - m).powi(2)).sum::<f32>() / ts.len().max(1) as f32;
                (global_var / v.max(1e-9)).clamp(0.05, 50.0)
            })
            .collect();

        let mut adam = Adam::new(tc.lr);
        let mut log = TrainLog::default();
        let mut order: Vec<usize> = (0..designs.len()).collect();

        for epoch in 0..tc.epochs {
            order.shuffle(&mut self.rng);
            // Minibatch indices are drawn serially, in shuffled design
            // order, so the RNG stream is identical no matter how many
            // threads run the forward/backward passes below.
            let batches: Vec<(usize, Vec<u32>)> = order
                .iter()
                .map(|&di| {
                    let n_ep = designs[di].num_endpoints();
                    let idx: Vec<u32> = if n_ep > tc.batch_endpoints {
                        sample_indices(&mut self.rng, n_ep, tc.batch_endpoints)
                    } else {
                        (0..n_ep as u32).collect()
                    };
                    (di, idx)
                })
                .collect();
            // Each design's forward/backward pass sees the same epoch-start
            // weights, so the passes are independent and run in parallel;
            // gradients reduce in a fixed-order pairwise tree and the
            // optimizer takes one step per epoch over the accumulated sum.
            let this: &TimingModel = self;
            let results: Vec<(f32, Grads)> = batches
                .par_iter()
                .map(|(di, idx)| {
                    // Root span: worker threads must not inherit (or leak
                    // into) the caller's span stack, or the recorded tree
                    // would depend on RTT_THREADS.
                    let _pass = rtt_obs::root_span("core::train::design_pass");
                    let design = &designs[*di];
                    let tape = Tape::new();
                    let pred_b = this.forward(&tape, design, Some(idx));
                    let data: Vec<f32> = idx
                        .iter()
                        .map(|&i| (design.targets[i as usize] - this.target_mean) / this.target_std)
                        .collect();
                    let target_b = tape.constant(Tensor::from_vec(&[idx.len(), 1], data));
                    let loss = mse(&tape, pred_b, target_b).scale(weights[*di]);
                    (tape.value(loss).data()[0], tape.backward(loss))
                })
                .collect();
            let mut epoch_loss = 0.0;
            let mut grad_sets = Vec::with_capacity(results.len());
            for (l, g) in results {
                epoch_loss += l;
                grad_sets.push(g);
            }
            adam.step(&mut self.store, &Grads::tree_sum(grad_sets));
            epoch_loss /= designs.len() as f32;
            rtt_obs::series_push("core::train::epoch_loss", f64::from(epoch_loss));
            log.epoch_loss.push(epoch_loss);
            if tc.log_every > 0 && (epoch + 1) % tc.log_every == 0 {
                eprintln!("epoch {:>4}: loss {epoch_loss:.5}", epoch + 1);
            }
        }
        log
    }

    /// Predicts endpoint arrival times (ps) for a prepared design on the
    /// tape-free inference backend.
    ///
    /// Endpoints are processed in chunks so that even paper-scale designs
    /// (hundreds of thousands of endpoints, 128×128 pooled masks) never
    /// materialize the full dense mask matrix. All chunks share one
    /// [`InferCtx`] arena, so after the first chunk the forward pass
    /// allocates (nearly) nothing. Outputs are bit-identical to
    /// [`Self::predict_taped`] because both backends run the same
    /// [`rtt_nn::ops`] kernels in the same order.
    // rtt-lint: entry
    pub fn predict(&self, design: &PreparedDesign) -> Vec<f32> {
        self.predict_with(&InferCtx::new(), design)
    }

    /// Like [`Self::predict`], but on a caller-owned [`InferCtx`], so the
    /// buffer arena persists across designs: a serving loop that scores
    /// many designs (or the same design repeatedly) through one context
    /// allocates on the first pass and reuses those buffers afterwards.
    // rtt-lint: entry
    pub fn predict_with(&self, ctx: &InferCtx, design: &PreparedDesign) -> Vec<f32> {
        let all: Vec<u32> = (0..design.num_endpoints() as u32).collect();
        self.predict_batch(ctx, design, &all)
    }

    /// Batched tape-free prediction for an arbitrary set of endpoint
    /// `indices` (output order follows `indices`): the GNN flat pass and
    /// the CNN global map run **once** and are shared by every endpoint
    /// chunk, instead of being recomputed per chunk as the taped
    /// reference does. This is the serving-loop fast path — on the flat kernels of
    /// [`rtt_nn::ops`], driven by the plan precomputed in
    /// [`crate::gnn::GnnSchedule::build`].
    ///
    /// Outputs are bit-identical to [`Self::predict`] /
    /// [`Self::predict_taped`] on the same indices; the equivalence suite
    /// asserts it at several batch sizes and thread counts.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    // rtt-lint: entry
    pub fn predict_batch(
        &self,
        ctx: &InferCtx,
        design: &PreparedDesign,
        indices: &[u32],
    ) -> Vec<f32> {
        let obs = rtt_obs::span("core::predict");
        obs.add("endpoints", indices.len() as u64);
        if indices.is_empty() {
            return Vec::new();
        }
        // Scratch layout: the GNN's buffers, then CNN ping-pong (2) +
        // global map, then the tail's.
        let mut out = Vec::with_capacity(indices.len());
        ctx.with_scratch(NetlistGnn::FLAT_SCRATCH + 3 + Self::TAIL_SCRATCH, |bufs, argmax, col| {
            let (gbufs, rest) = bufs.split_at_mut(NetlistGnn::FLAT_SCRATCH);
            let (cnn_bufs, tail_bufs) = rest.split_at_mut(3);
            if let Some(gnn) = &self.gnn {
                gnn.forward_flat(
                    &self.store,
                    &design.schedule,
                    &design.feats,
                    self.config.aggregation,
                    gbufs,
                );
            }
            if let Some((trunk, _)) = &self.cnn {
                let [cnn_a, cnn_b, gmap] = cnn_bufs else {
                    unreachable!("scratch layout mismatch")
                };
                trunk.forward_into(&self.store, &design.maps, cnn_a, cnn_b, gmap, col, argmax);
            }
            let flat = self.gnn.is_some().then(|| &gbufs[0]);
            let gmap = self.cnn.is_some().then(|| &cnn_bufs[2]);
            self.predict_tail(design, indices, flat, gmap, tail_bufs, &mut out);
        });
        out
    }

    /// Incremental twin of [`Self::predict_batch`]: reuses the flat GNN
    /// activations cached in `inc` for a base design, recomputing only
    /// the fan-out cones of `dirty_pins` (plus any rows whose static
    /// features, node kind, or existence changed — those are detected
    /// internally). A cold `inc` runs one full pass. On return the cache
    /// has rebased onto `design`, so a transform sequence only ever pays
    /// for its latest step's cone. The readout tail then runs as in
    /// [`Self::predict_cached`], so outputs are bit-identical to
    /// [`Self::predict_batch`] on the same design and indices.
    ///
    /// Caller contract:
    /// * `dirty_pins` must cover every pin whose *gather topology*
    ///   changed versus the design `inc` last saw —
    ///   `rtt_opt::dirty_seed_pins` derives exactly that set from a
    ///   before/after netlist pair (pin ids must be shared with the
    ///   cached base, i.e. `design` descends from it by tombstoning
    ///   edits);
    /// * call [`IncrementalCtx::reset`] whenever the model weights
    ///   change (e.g. a hot-reload) or the design lineage breaks.
    ///
    /// CNN-only variants have no per-node state to cache and simply
    /// forward to [`Self::predict_batch`].
    // rtt-lint: entry
    pub fn predict_incremental(
        &self,
        ctx: &InferCtx,
        inc: &mut IncrementalCtx,
        design: &PreparedDesign,
        dirty_pins: &[PinId],
        indices: &[u32],
    ) -> Vec<f32> {
        let obs = rtt_obs::span("core::predict_incremental");
        obs.add("endpoints", indices.len() as u64);
        let Some(gnn) = &self.gnn else {
            return self.predict_batch(ctx, design, indices);
        };
        ctx.with_scratch(NetlistGnn::FLAT_SCRATCH + 3, |bufs, argmax, col| {
            let (gbufs, cnn_bufs) = bufs.split_at_mut(NetlistGnn::FLAT_SCRATCH);
            // The cache refreshes even for an empty index set, so a
            // caller draining queued transforms can always hand the
            // seeds over exactly once.
            inc.refresh_gnn(gnn, &self.store, design, self.config.aggregation, dirty_pins, gbufs);
            if let Some((trunk, _)) = &self.cnn {
                if !inc.gmap_matches(&design.maps) {
                    let [cnn_a, cnn_b, gmap] = cnn_bufs else {
                        unreachable!("scratch layout mismatch")
                    };
                    trunk.forward_into(&self.store, &design.maps, cnn_a, cnn_b, gmap, col, argmax);
                    inc.set_gmap(&design.maps, gmap);
                }
            }
        });
        self.read_cache(ctx, inc, design, indices)
    }

    /// Tail-only read over the activations cached in `inc`: the GNN and
    /// the CNN global map do not run, only the per-endpoint readout
    /// (endpoint-row gather, masked layout embedding, fusion, regressor)
    /// for endpoints the tail cache does not already hold. A cold `inc`
    /// first runs one full pass, exactly as [`Self::predict_incremental`]
    /// would. Outputs are bit-identical to [`Self::predict_batch`] on the
    /// same design and indices.
    ///
    /// Caller contract: a warm `inc` must have been last refreshed (by
    /// [`Self::predict_incremental`] or this method) on `design` itself,
    /// under the current weights. Nothing here compares the design with
    /// the cache — that comparison is the refresh this method skips — so
    /// after any change to the design, refresh instead.
    ///
    /// CNN-only variants have no per-node state to cache and simply
    /// forward to [`Self::predict_batch`].
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    // rtt-lint: entry
    pub fn predict_cached(
        &self,
        ctx: &InferCtx,
        inc: &mut IncrementalCtx,
        design: &PreparedDesign,
        indices: &[u32],
    ) -> Vec<f32> {
        // Warm means both branches' activations are cached; CNN-only
        // models never warm the context.
        if !inc.is_warm() || (self.cnn.is_some() && inc.gmap().is_none()) {
            return self.predict_incremental(ctx, inc, design, &[], indices);
        }
        let obs = rtt_obs::span("core::predict_cached");
        obs.add("endpoints", indices.len() as u64);
        self.read_cache(ctx, inc, design, indices)
    }

    /// The readout tail over a refreshed `inc`. An endpoint whose flat row
    /// survived the last refresh untouched, whose mask bins are unchanged
    /// and whose global map came from the cache is served its cached
    /// prediction, which is the same bits recomputation would produce;
    /// the rest run [`Self::predict_tail`] and are cached.
    fn read_cache(
        &self,
        ctx: &InferCtx,
        inc: &mut IncrementalCtx,
        design: &PreparedDesign,
        indices: &[u32],
    ) -> Vec<f32> {
        if indices.is_empty() {
            return Vec::new();
        }
        // Split the request into cache hits (tail inputs bit-equal to the
        // run that produced the entry) and endpoints that must recompute;
        // scatter both into the caller's order.
        let pins = design.schedule.flat_row_pins();
        let ep_rows = design.schedule.flat_endpoint_rows();
        let masked = self.cnn.is_some() && self.config.masking;
        let mut out = vec![0.0; indices.len()];
        let mut todo: Vec<u32> = Vec::new();
        let mut todo_pos: Vec<usize> = Vec::new();
        for (k, &i) in indices.iter().enumerate() {
            let pin = pins[ep_rows[i as usize] as usize];
            let hit = inc.ep_get(pin).filter(|e| !masked || e.mask == design.masks[i as usize]);
            match hit {
                Some(e) => out[k] = e.val,
                None => {
                    todo.push(i);
                    todo_pos.push(k);
                }
            }
        }
        rtt_obs::add_many(&[
            (crate::EPS_REUSED_COUNTER, (indices.len() - todo.len()) as u64),
            (crate::EPS_TOTAL_COUNTER, indices.len() as u64),
        ]);
        if todo.is_empty() {
            return out;
        }
        let mut fresh = Vec::with_capacity(todo.len());
        ctx.with_scratch(Self::TAIL_SCRATCH, |bufs, _, _| {
            self.predict_tail(design, &todo, inc.flat(), inc.gmap(), bufs, &mut fresh);
        });
        for ((&v, &k), &i) in fresh.iter().zip(&todo_pos).zip(&todo) {
            out[k] = v;
            let pin = pins[ep_rows[i as usize] as usize];
            let mask: &[u32] = if masked { &design.masks[i as usize] } else { &[] };
            inc.ep_put(pin, v, mask);
        }
        out
    }

    /// Scratch tensors [`Self::predict_tail`] consumes: endpoint rows,
    /// dense masks, layout embedding, fused features, regressor
    /// ping-pong (2), predictions.
    const TAIL_SCRATCH: usize = 7;

    /// The shared per-endpoint readout tail of [`Self::predict_batch`]
    /// and the cached reads ([`Self::predict_incremental`],
    /// [`Self::predict_cached`]): endpoint-row gather + readout rescale,
    /// masked layout embedding, fusion, and the regressor, in
    /// [`Self::PREDICT_CHUNK`]-row chunks. Every entry point runs this
    /// exact code, which is what makes their outputs bit-comparable.
    ///
    /// `flat` must be present iff the GNN branch is active, `gmap` iff
    /// the CNN branch is.
    fn predict_tail(
        &self,
        design: &PreparedDesign,
        indices: &[u32],
        flat: Option<&Tensor>,
        gmap: Option<&Tensor>,
        bufs: &mut [Tensor],
        out: &mut Vec<f32>,
    ) {
        let [ep, masks, lemb, fused, r0, r1, pred] = bufs else {
            unreachable!("tail scratch layout mismatch")
        };
        let ep_rows = design.schedule.flat_endpoint_rows();
        let mut rows: Vec<u32> = Vec::new();
        for chunk in indices.chunks(Self::PREDICT_CHUNK) {
            let span = rtt_obs::span("nn::infer");
            span.add("endpoints", chunk.len() as u64);
            if let Some(flat) = flat {
                rows.clear();
                rows.extend(chunk.iter().map(|&i| ep_rows[i as usize]));
                ops::gather_rows_flat(flat, &rows, ep);
                if self.config.residual {
                    // Same rescale as the taped path (values identical:
                    // `scale` is a copy + in-place multiply).
                    ep.scale_assign(crate::READOUT_SCALE);
                }
            }
            if let Some(gmap) = gmap {
                let Some((_, fc)) = self.cnn.as_ref() else {
                    unreachable!("gmap implies an active CNN branch")
                };
                if self.config.masking {
                    design.dense_mask_rows_into(chunk, masks);
                } else {
                    let cols = design.mask_grid * design.mask_grid;
                    masks.reset(&[chunk.len().max(1), cols], 1.0);
                }
                ops::mul_row_in_place(masks, gmap.data());
                fc.forward_into(&self.store, masks, lemb);
            }
            let fused_ref: &Tensor = match (flat.is_some(), gmap.is_some()) {
                (true, true) => {
                    ops::concat_cols(ep, lemb, fused);
                    fused
                }
                (true, false) => ep,
                (false, true) => lemb,
                (false, false) => unreachable!("at least one branch is active"),
            };
            self.regressor.forward_into(&self.store, fused_ref, r0, r1, pred);
            rtt_nn::sanitize::check_finite("regressor_out", pred);
            out.extend(pred.data().iter().map(|p| p * self.target_std + self.target_mean));
        }
    }

    /// Endpoints per forward pass in [`Self::predict`] /
    /// [`Self::predict_taped`].
    const PREDICT_CHUNK: usize = 8192;

    /// Reference implementation of [`Self::predict`] on the tape backend.
    ///
    /// Builds (and throws away) a gradient tape per chunk exactly as the
    /// pre-split `predict` did. Kept public so the equivalence suite and
    /// the perf harness can compare the two backends; serving code should
    /// call [`Self::predict`].
    pub fn predict_taped(&self, design: &PreparedDesign) -> Vec<f32> {
        let obs = rtt_obs::span("core::predict_taped");
        obs.add("endpoints", design.num_endpoints() as u64);
        let n = design.num_endpoints();
        let mut out = Vec::with_capacity(n);
        let mut start = 0usize;
        while start < n {
            let end = (start + Self::PREDICT_CHUNK).min(n);
            let idx: Vec<u32> = (start as u32..end as u32).collect();
            let tape = Tape::new();
            let pred = self.forward(&tape, design, Some(&idx));
            out.extend(
                tape.value(pred).data().iter().map(|p| p * self.target_std + self.target_mean),
            );
            start = end;
        }
        out
    }

    /// Serializes the weights (plus the target normalization) to bytes.
    pub fn save_weights(&self) -> Vec<u8> {
        let mut out = self.target_mean.to_le_bytes().to_vec();
        out.extend_from_slice(&self.target_std.to_le_bytes());
        out.extend_from_slice(&self.store.to_bytes());
        out
    }

    /// Restores weights saved by [`Self::save_weights`].
    ///
    /// # Errors
    ///
    /// Returns a [`rtt_nn::WeightsError`] if the blob is truncated,
    /// corrupt, or does not match this architecture. On error the model is
    /// unchanged — the normalization header is committed only after the
    /// parameter store accepted the rest of the blob, so a failed load
    /// (e.g. a corrupt hot-reload) never leaves partial state behind.
    pub fn load_weights(&mut self, bytes: &[u8]) -> Result<(), rtt_nn::WeightsError> {
        if bytes.len() < 8 {
            return Err(rtt_nn::WeightsError::Truncated { needed: 8, available: bytes.len() });
        }
        let mean = f32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        let std = f32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        self.store.load_bytes(&bytes[8..])?;
        self.target_mean = mean;
        self.target_std = std;
        Ok(())
    }
}

/// Samples `k` distinct indices from `0..n` (partial Fisher–Yates).
fn sample_indices(rng: &mut StdRng, n: usize, k: usize) -> Vec<u32> {
    let mut idx: Vec<u32> = (0..n as u32).collect();
    for i in 0..k.min(n) {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(k.min(n));
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtt_circgen::GenParams;
    use rtt_netlist::{CellLibrary, TimingGraph};
    use rtt_place::{place, PlaceConfig};
    use rtt_route::{route, RouteConfig};
    use rtt_sta::{run_sta, WireModel};

    fn prepared(cells: usize, seed: u64, cfg: &ModelConfig) -> PreparedDesign {
        let lib = CellLibrary::asap7_like();
        let d = GenParams::new(format!("m{seed}"), cells, seed).generate(&lib);
        let pl = place(&d.netlist, &lib, 0, &PlaceConfig::default());
        let rt = route(&d.netlist, &lib, &pl, &RouteConfig::default());
        let graph = TimingGraph::build(&d.netlist, &lib);
        let sta = run_sta(&d.netlist, &lib, &graph, WireModel::Routed(&rt), 500.0);
        let targets = sta.endpoint_arrivals().iter().map(|&(_, a)| a).collect();
        PreparedDesign::prepare(&d.netlist, &lib, &pl, &graph, cfg, targets)
    }

    #[test]
    fn training_reduces_loss() {
        let cfg = ModelConfig::tiny();
        let prep = prepared(120, 1, &cfg);
        let mut model = TimingModel::new(cfg);
        let log =
            model.train(&[prep], &TrainConfig { epochs: 30, lr: 3e-3, ..TrainConfig::default() });
        let first = log.epoch_loss[0];
        let last = log.final_loss();
        assert!(last < first * 0.5, "loss {first} -> {last}");
    }

    #[test]
    fn model_learns_real_sta_targets() {
        // The model should fit one design's real arrivals to high accuracy
        // (memorization sanity check that gradients are correct end-to-end).
        let cfg = ModelConfig::tiny();
        let prep = prepared(150, 2, &cfg);
        let mut model = TimingModel::new(cfg);
        model.train(
            std::slice::from_ref(&prep),
            &TrainConfig { epochs: 120, lr: 3e-3, ..TrainConfig::default() },
        );
        let pred = model.predict(&prep);
        let mean = prep.targets.iter().sum::<f32>() / prep.targets.len() as f32;
        let ss_tot: f32 = prep.targets.iter().map(|t| (t - mean).powi(2)).sum();
        let ss_res: f32 = pred.iter().zip(&prep.targets).map(|(p, t)| (p - t).powi(2)).sum();
        let r2 = 1.0 - ss_res / ss_tot;
        assert!(r2 > 0.7, "train-set R² only {r2}");
    }

    #[test]
    fn variants_have_expected_parameter_relationship() {
        let full = TimingModel::new(ModelConfig::tiny());
        let gnn = TimingModel::new(ModelConfig::tiny().with_variant(ModelVariant::GnnOnly));
        let cnn = TimingModel::new(ModelConfig::tiny().with_variant(ModelVariant::CnnOnly));
        assert!(gnn.num_parameters() < full.num_parameters());
        assert!(cnn.num_parameters() < full.num_parameters());
    }

    #[test]
    fn predictions_have_one_value_per_endpoint() {
        let cfg = ModelConfig::tiny();
        let prep = prepared(80, 3, &cfg);
        let model = TimingModel::new(cfg);
        assert_eq!(model.predict(&prep).len(), prep.num_endpoints());
    }

    #[test]
    fn weight_roundtrip_preserves_predictions() {
        let cfg = ModelConfig::tiny();
        let prep = prepared(80, 4, &cfg);
        let mut model = TimingModel::new(cfg.clone());
        model.train(
            std::slice::from_ref(&prep),
            &TrainConfig { epochs: 3, ..TrainConfig::default() },
        );
        let before = model.predict(&prep);
        let blob = model.save_weights();
        let mut fresh = TimingModel::new(cfg);
        fresh.load_weights(&blob).unwrap();
        assert_eq!(fresh.predict(&prep), before);
    }

    #[test]
    fn load_rejects_other_architecture() {
        let mut a = TimingModel::new(ModelConfig::tiny());
        let b = TimingModel::new(ModelConfig::tiny().with_variant(ModelVariant::CnnOnly));
        assert!(a.load_weights(&b.save_weights()).is_err());
    }

    #[test]
    fn masking_changes_predictions() {
        let cfg = ModelConfig::tiny();
        let prep = prepared(100, 5, &cfg);
        let masked = TimingModel::new(cfg.clone());
        let unmasked = TimingModel::new(ModelConfig { masking: false, ..cfg });
        assert_ne!(masked.predict(&prep), unmasked.predict(&prep));
    }

    #[test]
    fn sample_indices_are_distinct() {
        let mut rng = StdRng::seed_from_u64(9);
        let idx = sample_indices(&mut rng, 50, 20);
        assert_eq!(idx.len(), 20);
        let set: std::collections::HashSet<u32> = idx.iter().copied().collect();
        assert_eq!(set.len(), 20);
        assert!(idx.iter().all(|&i| i < 50));
        // k >= n returns everything.
        assert_eq!(sample_indices(&mut rng, 5, 10).len(), 5);
    }
}
