//! The end-to-end endpoint-embedding model and its trainer.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use rtt_features::MaskRuns;
use rtt_netlist::PinId;
use rtt_nn::parallel::par_map;
use rtt_nn::{
    mse, ops, Adam, Exec, Grads, InferCtx, Linear, Mlp, ParamStore, Tape, TapeArena, Tensor, Var,
};

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

    /// One taped forward pass over a design for the endpoint rows
    /// `indices`; returns normalized predictions `[rows, 1]`.
    ///
    /// The GNN necessarily computes every node (messages flow through the
    /// whole DAG), but the layout branch and regressor run only on the
    /// requested rows. The masked layout embedding is one fused node over
    /// the batch's mask runs ([`Self::readout`]), so no `[rows, (G/4)²]`
    /// tensor is recorded.
    fn forward<'t>(&self, tape: &'t Tape, design: &PreparedDesign, indices: &[u32]) -> Var<'t> {
        rtt_obs::span!("core::forward");
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
            let maps = tape.constant_with(design.maps.len(), |t| t.copy_from(&design.maps));
            let global_map = trunk.forward(tape, &self.store, maps);
            let runs = if self.config.masking {
                design.masks.select(indices)
            } else {
                // Ablation A2: every endpoint sees the full layout map.
                MaskRuns::full(indices.len(), design.mask_grid * design.mask_grid)
            };
            self.readout(tape, fc, global_map, runs)
        });
        let fused = match (netlist_emb, layout_emb) {
            (Some(n), Some(l)) => tape.concat_cols(n, l),
            (Some(n), None) => n,
            (None, Some(l)) => l,
            (None, None) => unreachable!("at least one branch is active"),
        };
        self.regressor.forward(tape, &self.store, fused)
    }

    /// Records the masked layout embedding of the endpoints whose masks
    /// are `runs`, `fc` applied to each mask times the global map, as one
    /// fused node over [`ops::masked_readout`]: each row sums
    /// `gmap[b]·W[b, :]` over its mask's bins. The backward
    /// ([`ops::masked_readout_backward`]) visits only masked `(row, bin)`
    /// pairs, in the order the dense `mul_row` + [`Linear`] path
    /// accumulates them, so values and gradients match that path bit for
    /// bit.
    fn readout<'t>(&self, tape: &'t Tape, fc: &Linear, gmap: Var<'t>, runs: MaskRuns) -> Var<'t> {
        let [w, b] = fc.params().map(|id| tape.param(&self.store, id));
        let rows = runs.len();
        let runs = Arc::new(runs);
        let forward = |v: &[&Tensor], out: &mut Tensor| {
            ops::masked_readout(v[1], v[0].data(), v[2].data(), rows, |i| runs.runs(i), out);
        };
        let back = Arc::clone(&runs);
        tape.fused(&[gmap, w, b], rows.max(1) * fc.out_dim(), forward, move |v, _, g, gin| {
            let [g_gmap, g_w, g_b] = gin else {
                unreachable!("inputs are the global map and the layer's weight and bias")
            };
            ops::add_row_sums(g, g_b);
            let runs_of = |i| back.runs(i);
            ops::masked_readout_backward(
                v[0].data(),
                v[1],
                g,
                rows,
                runs_of,
                g_gmap.data_mut(),
                g_w,
            );
        })
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
        // One tape arena per design: a design runs the same ops at the
        // same sizes every epoch, so from its second pass on, its arena has
        // a spare for every buffer and the pass allocates nothing
        // design-sized. Per design rather than shared, so what an arena
        // grows by does not depend on which passes run at the same time.
        let mut arenas: Vec<TapeArena> = designs.iter().map(|_| TapeArena::default()).collect();

        for epoch in 0..tc.epochs {
            order.shuffle(&mut self.rng);
            // Minibatch indices are drawn serially, in shuffled design
            // order, so the RNG stream is identical no matter how many
            // threads run the forward/backward passes below.
            let batches: Vec<(usize, Vec<u32>, TapeArena)> = order
                .iter()
                .map(|&di| {
                    let n_ep = designs[di].num_endpoints();
                    let idx: Vec<u32> = if n_ep > tc.batch_endpoints {
                        sample_indices(&mut self.rng, n_ep, tc.batch_endpoints)
                    } else {
                        (0..n_ep as u32).collect()
                    };
                    (di, idx, std::mem::take(&mut arenas[di]))
                })
                .collect();
            // Each design's forward/backward pass sees the same epoch-start
            // weights, so the passes are independent and run in parallel;
            // gradients reduce in a fixed-order pairwise tree and the
            // optimizer takes one step per epoch over the accumulated sum.
            let this: &TimingModel = self;
            let results = par_map(batches, |(di, idx, arena)| {
                // Root span: worker threads must not inherit (or leak into)
                // the caller's span stack, or the recorded tree would
                // depend on RTT_THREADS.
                let _pass = rtt_obs::root_span("core::train::design_pass");
                let design = &designs[di];
                let tape = Tape::with_arena(arena);
                let pred_b = this.forward(&tape, design, &idx);
                let target_b = tape.constant_with(idx.len(), |t| {
                    t.reset_for_overwrite(&[idx.len(), 1]);
                    for (y, &i) in t.data_mut().iter_mut().zip(&idx) {
                        *y = (design.targets[i as usize] - this.target_mean) / this.target_std;
                    }
                });
                let loss = mse(&tape, pred_b, target_b).scale(weights[di]);
                let value = tape.value(loss).data()[0];
                let mut grads = tape.backward(loss);
                let mut arena = tape.into_arena();
                arena.reclaim(&mut grads);
                (di, value, grads, arena)
            });
            let mut epoch_loss = 0.0;
            let mut grad_sets = Vec::with_capacity(results.len());
            for (di, l, g, arena) in results {
                epoch_loss += l;
                grad_sets.push(g);
                arenas[di] = arena;
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
    /// Endpoints are processed in chunks, and the masked layout embedding
    /// reads each endpoint's mask runs, so no mask is densified even at
    /// paper scale (hundreds of thousands of endpoints, 128×128 pooled
    /// masks). All chunks share one [`InferCtx`] arena, so after the first
    /// chunk the forward pass allocates (nearly) nothing. Outputs are
    /// bit-identical to [`Self::predict_taped`] because both backends run
    /// the same [`rtt_nn::ops`] kernels in the same order.
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

    /// Incremental twin of [`Self::predict_batch`]: refreshes the
    /// activations cached in `inc` onto `design`, then runs the readout
    /// tail as in [`Self::predict_cached`], so outputs are bit-identical
    /// to [`Self::predict_batch`] on the same design and indices.
    ///
    /// Every refresh follows one rule, for every model variant: the GNN
    /// seeds the rows that differ from the design `inc` last saw (new
    /// pins, node kinds, net drivers and static features, all detected
    /// internally), then walks the levels in order, in place in the cached
    /// matrix, and recomputes a row only when it is a seed or gathers a
    /// row whose bits changed earlier in the same refresh; the rest keep
    /// their cached bits. The CNN global map is recomputed, and the
    /// per-endpoint tail cache is emptied. A cold `inc` runs one full
    /// pass. On return the cache holds `design`'s activations, so a
    /// transform sequence only ever pays for what its latest step changed.
    ///
    /// `dirty_pins` forces their rows to recompute as seeds; a forced row
    /// whose bits do not change recomputes nothing past itself, and no
    /// output depends on it. The refresh is sound for any design, so the
    /// only caller contract is to call [`IncrementalCtx::reset`] whenever
    /// the model weights change (e.g. a hot-reload).
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
        inc.clear_tail();
        ctx.with_scratch(NetlistGnn::FLAT_SCRATCH + 3, |bufs, argmax, col| {
            let (gbufs, cnn_bufs) = bufs.split_at_mut(NetlistGnn::FLAT_SCRATCH);
            // The cache refreshes even for an empty index set, so on
            // return it holds `design`, which `predict_cached` relies on.
            if let Some(gnn) = &self.gnn {
                inc.refresh_gnn(
                    gnn,
                    &self.store,
                    design,
                    self.config.aggregation,
                    dirty_pins,
                    gbufs,
                );
            }
            if let Some((trunk, _)) = &self.cnn {
                let [cnn_a, cnn_b, gmap] = cnn_bufs else {
                    unreachable!("scratch layout mismatch")
                };
                trunk.forward_into(&self.store, &design.maps, cnn_a, cnn_b, gmap, col, argmax);
                inc.set_gmap(gmap);
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
        if !inc.is_warm() {
            return self.predict_incremental(ctx, inc, design, &[], indices);
        }
        self.read_cache(ctx, inc, design, indices)
    }

    /// The readout tail over a refreshed `inc`. An endpoint already read
    /// since the last refresh is served its cached prediction: its tail
    /// inputs (flat row, mask runs, global map) change only with the
    /// design, and a design change goes through a refresh, which empties
    /// the cache. The rest run [`Self::predict_tail`] and are cached.
    fn read_cache(
        &self,
        ctx: &InferCtx,
        inc: &mut IncrementalCtx,
        design: &PreparedDesign,
        indices: &[u32],
    ) -> Vec<f32> {
        static EPS_REUSED: rtt_obs::Counter = rtt_obs::Counter::new(crate::EPS_REUSED_COUNTER);
        static EPS_TOTAL: rtt_obs::Counter = rtt_obs::Counter::new(crate::EPS_TOTAL_COUNTER);
        if indices.is_empty() {
            return Vec::new();
        }
        // Split the request into cache hits and endpoints that must
        // recompute; scatter both into the caller's order.
        let ep_rows = design.schedule.flat_endpoint_rows();
        let mut out = vec![0.0; indices.len()];
        let mut todo: Vec<u32> = Vec::new();
        let mut todo_pos: Vec<usize> = Vec::new();
        for (k, &i) in indices.iter().enumerate() {
            match inc.ep_get(ep_rows[i as usize]) {
                Some(v) => out[k] = v,
                None => {
                    todo.push(i);
                    todo_pos.push(k);
                }
            }
        }
        EPS_REUSED.add((indices.len() - todo.len()) as u64);
        EPS_TOTAL.add(indices.len() as u64);
        if todo.is_empty() {
            return out;
        }
        let mut fresh = Vec::with_capacity(todo.len());
        ctx.with_scratch(Self::TAIL_SCRATCH, |bufs, _, _| {
            self.predict_tail(design, &todo, inc.flat(), inc.gmap(), bufs, &mut fresh);
        });
        for ((&v, &k), &i) in fresh.iter().zip(&todo_pos).zip(&todo) {
            out[k] = v;
            inc.ep_put(ep_rows[i as usize], v);
        }
        out
    }

    /// Scratch tensors [`Self::predict_tail`] consumes: endpoint rows,
    /// layout embedding, fused features, regressor ping-pong (2),
    /// predictions.
    const TAIL_SCRATCH: usize = 6;

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
        let [ep, lemb, fused, r0, r1, pred] = bufs else {
            unreachable!("tail scratch layout mismatch")
        };
        // Ablation A2: every endpoint's mask is the one full run.
        let full = [[0, (design.mask_grid * design.mask_grid) as u32]];
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
                let [w, b] = fc.params().map(|id| self.store.value(id));
                let (gmap, bias) = (gmap.data(), b.data());
                if self.config.masking {
                    let runs_of = |i: usize| design.masks.runs(chunk[i] as usize);
                    ops::masked_readout(w, gmap, bias, chunk.len(), runs_of, lemb);
                } else {
                    ops::masked_readout(w, gmap, bias, chunk.len(), |_| &full, lemb);
                }
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
            let pred = self.forward(&tape, design, &idx);
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
    use rtt_sta::run_sta;

    fn prepared(cells: usize, seed: u64, cfg: &ModelConfig) -> PreparedDesign {
        let lib = CellLibrary::asap7_like();
        let d = GenParams::new(format!("m{seed}"), cells, seed).generate(&lib);
        let pl = place(&d.netlist, &lib, 0, &PlaceConfig::default());
        let rt = route(&d.netlist, &lib, &pl, &RouteConfig::default());
        let graph = TimingGraph::build(&d.netlist, &lib);
        let sta = run_sta(&d.netlist, &lib, &graph, &rt, 500.0);
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

    /// A chain of 200 buffers with an output port tapped on every
    /// buffer's output net, plus one unconnected output port, whose mask
    /// is empty. Returns the design and the unconnected port's endpoint.
    fn buffer_chain(cfg: &ModelConfig) -> (PreparedDesign, u32) {
        let lib = CellLibrary::asap7_like();
        let buf = lib.pick(rtt_netlist::GateFn::Buf, 1).expect("BUF_X1");
        let mut nl = rtt_netlist::Netlist::new("chain");
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
        let pl = place(&nl, &lib, 0, &PlaceConfig::default());
        let graph = TimingGraph::build(&nl, &lib);
        let floating = (graph.endpoints().iter())
            .position(|&ep| nl.pin_name(graph.pin_of(ep)) == "floating")
            .expect("the floating port is an endpoint");
        let targets = vec![0.0; graph.endpoints().len()];
        (PreparedDesign::prepare(&nl, &lib, &pl, &graph, cfg, targets), floating as u32)
    }

    /// The fused readout node against the dense path it replaced: dense
    /// 0/1 mask rows (all ones for `masking: false`), `mul_row` by the
    /// global map and the layer's taped forward. Output and the gradients
    /// of the map, weight and bias must match bit for bit, over an empty
    /// mask (the unconnected port), a repeated endpoint and map bins that
    /// are +0, −0 or negative.
    #[test]
    fn fused_readout_matches_the_dense_path_bitwise() {
        let cfg = ModelConfig::tiny();
        let (prep, floating) = buffer_chain(&cfg);
        let mut model = TimingModel::new(cfg);
        let Some((_, fc)) = model.cnn.clone() else { unreachable!("the full model has a CNN") };
        let [w_id, b_id] = fc.params();
        let mut rng = StdRng::seed_from_u64(5);
        let bias = Tensor::uniform(&mut rng, &[fc.out_dim()], 0.5);
        model.store.value_mut(b_id).copy_from(&bias);
        let bins = prep.mask_grid * prep.mask_grid;
        let mut gmap = Tensor::uniform(&mut rng, &[bins], 1.0);
        for (b, v) in gmap.data_mut().iter_mut().enumerate() {
            *v = [0.0, -0.0, -v.abs(), *v][b % 4];
        }
        let n_ep = prep.num_endpoints() as u32;
        let idx = [floating, 7, n_ep - 1, 7, 120];
        assert!(prep.masks.runs(floating as usize).is_empty());
        assert!(
            idx.iter().any(|&i| prep.masks.runs(i as usize).len() > 1),
            "a mask of several runs"
        );
        let c = Tensor::uniform(&mut rng, &[idx.len(), fc.out_dim()], 1.0);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        for masking in [true, false] {
            let run = |sparse: bool| {
                let tape = Tape::new();
                let gv = tape.constant(gmap.clone());
                let out = if sparse {
                    let runs = if masking {
                        prep.masks.select(&idx)
                    } else {
                        MaskRuns::full(idx.len(), bins)
                    };
                    model.readout(&tape, &fc, gv, runs)
                } else {
                    let dense = if masking {
                        prep.dense_mask_rows(&idx)
                    } else {
                        Tensor::full(&[idx.len(), bins], 1.0)
                    };
                    fc.forward(&tape, &model.store, tape.constant(dense).mul_row(gv))
                };
                let grads = tape.backward(out.mul(tape.constant(c.clone())).mean());
                let grad = |g: Option<&Tensor>| bits(g.expect("a gradient"));
                [
                    bits(&tape.value(out)),
                    grad(grads.wrt(gv.id())),
                    grad(grads.of(w_id)),
                    grad(grads.of(b_id)),
                ]
            };
            let (got, want) = (run(true), run(false));
            for (what, (g, w)) in
                ["output", "map", "weight", "bias"].iter().zip(got.iter().zip(&want))
            {
                assert_eq!(g, w, "masking {masking}: {what} differs from the dense path");
            }
        }
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
