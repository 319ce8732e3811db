//! The customized GNN of Section IV: levelized message passing with
//! distinct aggregators for cell edges and net edges (Equation 3).

use std::sync::Arc;

use rand::Rng;

use rtt_features::{NodeFeatures, CELL_FEATURE_DIM, NET_FEATURE_DIM};
use rtt_netlist::{EdgeKind, NodeKind, TimingGraph};
use rtt_nn::{ops, Mlp, MlpScratch, ParamStore, Tape, Tensor, Var};

use crate::{Aggregation, ModelConfig};

/// Readout scale for residual embeddings: they accumulate over up to
/// hundreds of topological levels, so readout heads should rescale them
/// into an O(1) regime.
pub const READOUT_SCALE: f32 = 0.05;

/// A static execution plan for one design: where each node's messages
/// come from, and where each level's results land. Building it once per
/// design and reusing it across epochs and requests is what makes CPU
/// training and serving viable.
///
/// A node's flat row is its pin's index (`graph.pin_of(v).index()`): pin
/// ids survive every tombstoning edit, so a pin keeps its row across a
/// transform.
#[derive(Clone, Debug)]
pub struct GnnSchedule {
    /// The batched plan both GNN passes run, shared with the tape nodes
    /// that train through it.
    plan: Arc<GnnPlan>,
}

/// The batched execution plan over one flat `[total_rows, embed_dim]`
/// embedding matrix. Each level splits into cell, net and source groups,
/// whose fanin messages are gathered by flat row, reduced over CSR runs,
/// and scattered back to the group's rows. All of it is index arithmetic
/// done once per design, so the per-pass inner loops are straight-line
/// gathers, contiguous reductions, and row memcpys.
#[derive(Clone, Debug, Default)]
pub(crate) struct GnnPlan {
    pub(crate) levels: Vec<FlatLevel>,
    /// Flat row of each endpoint, aligned with `TimingGraph::endpoints()`.
    pub(crate) endpoint_rows: Vec<u32>,
    /// Rows of the flat matrix: one past the largest live pin's index.
    pub(crate) total_rows: usize,
    /// Rows that belong to a live pin (= graph nodes). The other rows are
    /// holes left by dead pins: no gather or scatter names them.
    pub(crate) live_rows: usize,
}

#[derive(Clone, Debug, Default)]
pub(crate) struct FlatLevel {
    pub(crate) n_cells: usize,
    pub(crate) n_nets: usize,
    pub(crate) n_srcs: usize,
    /// Flat source row of each gathered cell fanin message.
    pub(crate) cell_gather: Vec<u32>,
    /// CSR offsets into `cell_gather`: cell `i` reduces messages
    /// `cell_seg_off[i]..cell_seg_off[i + 1]` (`len = n_cells + 1`).
    pub(crate) cell_seg_off: Vec<u32>,
    /// `1 / max(fanin, 1)` per cell (mean aggregation).
    pub(crate) cell_inv_fanin: Vec<f32>,
    /// Flat source row of each net node's driver message.
    pub(crate) net_gather: Vec<u32>,
    /// Flat destination row of each cell / net / source group row.
    pub(crate) cell_dst: Vec<u32>,
    pub(crate) net_dst: Vec<u32>,
    pub(crate) src_dst: Vec<u32>,
    /// Row offsets of this level's groups inside the concatenated static
    /// feature matrices of [`LevelFeats`].
    pub(crate) cell_feat_off: usize,
    pub(crate) net_feat_off: usize,
    pub(crate) src_feat_off: usize,
}

impl GnnSchedule {
    /// Plans the levelized propagation for `graph`.
    pub fn build(graph: &TimingGraph) -> Self {
        let num_levels = graph.max_level() as usize + 1;
        // A node's row is its pin's index; rows of dead pins are holes.
        let nodes = 0..graph.num_nodes() as u32;
        let row_of = |v: u32| graph.pin_of(v).index() as u32;
        let total_rows = nodes.clone().map(|v| row_of(v) as usize + 1).max().unwrap_or(0);
        // Group lists follow level order, and inside a level the graph's
        // own node order; cell groups' static features come first in the
        // concatenated `f_c2` input, source groups after them.
        let total_cell_rows = nodes.filter(|&v| graph.node_kind(v) == NodeKind::CellOut).count();

        let (mut cell_off, mut net_off, mut src_off) = (0usize, 0usize, total_cell_rows);
        let mut levels = Vec::with_capacity(num_levels);
        for l in 0..num_levels as u32 {
            let mut fl = FlatLevel {
                cell_feat_off: cell_off,
                net_feat_off: net_off,
                src_feat_off: src_off,
                cell_seg_off: vec![0],
                ..FlatLevel::default()
            };
            // Message gathers reference earlier levels only.
            for &v in graph.nodes_at_level(l) {
                let row = row_of(v);
                match graph.node_kind(v) {
                    NodeKind::CellOut => {
                        let before = fl.cell_gather.len();
                        for e in graph.fanin(v) {
                            debug_assert_eq!(e.kind, EdgeKind::Cell);
                            fl.cell_gather.push(row_of(e.from));
                        }
                        // Fanin counts are tiny (gate arity ≤ 4 plus
                        // buffers); `as f32` is exact far beyond any real
                        // value.
                        let fanin = fl.cell_gather.len() - before;
                        debug_assert!(fanin < (1 << 24), "fanin {fanin} exceeds f32 exact range");
                        fl.cell_seg_off.push(fl.cell_gather.len() as u32);
                        fl.cell_inv_fanin.push(1.0 / (fanin as f32).max(1.0));
                        fl.cell_dst.push(row);
                    }
                    NodeKind::NetSink => {
                        // `TimingGraph::try_build` rejects driverless net
                        // sinks, so a missing driver is a debug invariant;
                        // release builds gather row 0 instead of panicking.
                        let driver = graph.fanin(v).next().map(|e| {
                            debug_assert_eq!(e.kind, EdgeKind::Net);
                            row_of(e.from)
                        });
                        debug_assert!(driver.is_some(), "net node {v} has a driver");
                        fl.net_gather.push(driver.unwrap_or(0));
                        fl.net_dst.push(row);
                    }
                    NodeKind::Source => fl.src_dst.push(row),
                }
            }
            fl.n_cells = fl.cell_dst.len();
            fl.n_nets = fl.net_dst.len();
            fl.n_srcs = fl.src_dst.len();
            cell_off += fl.n_cells;
            net_off += fl.n_nets;
            src_off += fl.n_srcs;
            levels.push(fl);
        }
        // Debug-build plan validation (rtt_nn::sanitize): every gather
        // and scatter index must address a real flat row, and segment
        // offsets must tile the gathered messages exactly.
        if rtt_nn::sanitize::enabled() {
            for fl in &levels {
                rtt_nn::sanitize::check_csr(
                    "gnn_plan.cell_seg",
                    &fl.cell_seg_off,
                    &fl.cell_gather,
                    total_rows,
                );
                rtt_nn::sanitize::check_rows("gnn_plan.net_gather", &fl.net_gather, total_rows);
                rtt_nn::sanitize::check_rows("gnn_plan.cell_dst", &fl.cell_dst, total_rows);
                rtt_nn::sanitize::check_rows("gnn_plan.net_dst", &fl.net_dst, total_rows);
                rtt_nn::sanitize::check_rows("gnn_plan.src_dst", &fl.src_dst, total_rows);
            }
        }

        let plan = Arc::new(GnnPlan {
            levels,
            endpoint_rows: graph.endpoints().iter().map(|&v| row_of(v)).collect(),
            total_rows,
            live_rows: graph.num_nodes(),
        });
        Self { plan }
    }

    /// Number of topological levels.
    pub fn num_levels(&self) -> usize {
        self.plan.levels.len()
    }

    /// Number of endpoints the schedule will embed.
    pub fn num_endpoints(&self) -> usize {
        self.plan.endpoint_rows.len()
    }

    /// Row of each endpoint in the flat embedding matrix, aligned with
    /// `TimingGraph::endpoints()` order.
    pub fn flat_endpoint_rows(&self) -> &[u32] {
        &self.plan.endpoint_rows
    }

    /// The flat execution plan (crate-internal: the activation cache walks
    /// its levels directly).
    pub(crate) fn plan(&self) -> &GnnPlan {
        &self.plan
    }
}

/// Static node features consumed by the GNN passes, in the row order of
/// a [`GnnSchedule`]'s groups.
#[derive(Clone, Debug, Default)]
pub struct LevelFeats {
    /// Every cell-group row (all levels, level order) followed by every
    /// source-group row, `[cells + sources, CELL_FEATURE_DIM]`: both
    /// groups feed `f_c2`. Level `l`'s cells start at row
    /// `cell_feat_off`, its sources at `src_feat_off` of its plan level.
    /// `None` when the design has neither.
    pub cell_src_flat: Option<Tensor>,
    /// Every net-group row (all levels, level order),
    /// `[nets, NET_FEATURE_DIM]`, the `f_n` input. `None` without nets.
    pub net_flat: Option<Tensor>,
}

impl LevelFeats {
    /// Assembles the group feature matrices from the node features
    /// extracted over `graph`, the graph `schedule` was built from.
    pub fn assemble(schedule: &GnnSchedule, graph: &TimingGraph, features: &NodeFeatures) -> Self {
        let mut node_of_row = vec![0u32; schedule.plan.total_rows];
        for v in 0..graph.num_nodes() as u32 {
            node_of_row[graph.pin_of(v).index()] = v;
        }
        let levels = &schedule.plan.levels;
        let cells = levels.iter().flat_map(|fl| &fl.cell_dst);
        let sources = levels.iter().flat_map(|fl| &fl.src_dst);
        let cell_src: Vec<u32> = cells.chain(sources).map(|&r| node_of_row[r as usize]).collect();
        let nets: Vec<u32> =
            levels.iter().flat_map(|fl| &fl.net_dst).map(|&r| node_of_row[r as usize]).collect();
        Self {
            cell_src_flat: stack_rows(&cell_src, CELL_FEATURE_DIM, |v| features.cell_row(v)),
            net_flat: stack_rows(&nets, NET_FEATURE_DIM, |v| features.net_row(v)),
        }
    }
}

/// Stacks one `dim`-wide feature row per node; `None` for no nodes.
fn stack_rows<'f>(nodes: &[u32], dim: usize, row: impl Fn(u32) -> &'f [f32]) -> Option<Tensor> {
    if nodes.is_empty() {
        return None;
    }
    let mut data = Vec::with_capacity(nodes.len() * dim);
    for &v in nodes {
        data.extend_from_slice(row(v));
    }
    Some(Tensor::from_vec(&[nodes.len(), dim], data))
}

/// The three MLPs of Equation 3 and the levelized forward pass.
#[derive(Clone, Debug)]
pub struct NetlistGnn {
    f_c1: Mlp,
    f_c2: Mlp,
    f_n: Mlp,
    residual: bool,
}

impl NetlistGnn {
    /// Registers the GNN parameters (`f_c1`, `f_c2`, `f_n` — 3-layer MLPs
    /// as in the paper).
    pub fn new<R: Rng>(store: &mut ParamStore, rng: &mut R, config: &ModelConfig) -> Self {
        let d = config.embed_dim;
        let h = config.gnn_hidden;
        if config.residual {
            // Small-increment initialization: fanin cones reach hundreds of
            // levels, so per-level increments must start near zero.
            Self {
                f_c1: Mlp::new_scaled(store, rng, &[d, h, d], 0.1),
                f_c2: Mlp::new_scaled(store, rng, &[CELL_FEATURE_DIM, h, d], 0.1),
                f_n: Mlp::new_scaled(store, rng, &[NET_FEATURE_DIM, h, d], 0.1),
                residual: true,
            }
        } else {
            Self {
                f_c1: Mlp::new(store, rng, &[d, h, d]),
                f_c2: Mlp::new(store, rng, &[CELL_FEATURE_DIM, h, d]),
                f_n: Mlp::new(store, rng, &[NET_FEATURE_DIM, h, d]),
                residual: false,
            }
        }
    }

    /// Runs levelized propagation on the tape and returns the endpoint
    /// embedding matrix `[num_endpoints, embed_dim]`, rows aligned with
    /// `TimingGraph::endpoints()`.
    ///
    /// # Panics
    ///
    /// Panics if `feats` does not match `schedule`.
    pub fn forward<'t>(
        &self,
        tape: &'t Tape,
        store: &ParamStore,
        schedule: &GnnSchedule,
        feats: &LevelFeats,
        aggregation: Aggregation,
    ) -> Var<'t> {
        rtt_obs::span!("core::gnn_forward");
        let flat = self.forward_nodes(tape, store, schedule, feats, aggregation);
        tape.gather_rows(flat, &schedule.plan.endpoint_rows)
    }

    /// Like [`Self::forward`], but returns the whole flat embedding matrix
    /// (one row per pin index, holes zeroed), so callers can read out any
    /// node at its pin's index (the end-to-end baseline predicts at all
    /// pins, not only endpoints).
    ///
    /// The static `f_c2` / `f_n` products over the whole design are
    /// ordinary tape ops. The level loop is one fused tape node: its
    /// forward is the in-place loop [`Self::forward_flat`] runs, over the
    /// full plan, and its backward (`level_loop_backward`) walks
    /// the same levels in reverse.
    ///
    /// # Panics
    ///
    /// Panics if `feats` does not match `schedule`.
    pub fn forward_nodes<'t>(
        &self,
        tape: &'t Tape,
        store: &ParamStore,
        schedule: &GnnSchedule,
        feats: &LevelFeats,
        aggregation: Aggregation,
    ) -> Var<'t> {
        let d = self.f_c1.out_dim();
        let product = |mlp: &Mlp, x: &Option<Tensor>| match x {
            Some(x) => mlp.forward(tape, store, tape.constant_with(x.len(), |t| t.copy_from(x))),
            None => tape.constant(Tensor::zeros(&[0, d])),
        };
        let sc = product(&self.f_c2, &feats.cell_src_flat);
        let sn = product(&self.f_n, &feats.net_flat);
        // Residual nets add `relu(f_n(feat))` as their increment.
        let sn = if self.residual { sn.relu() } else { sn };
        self.level_loop(tape, store, &schedule.plan, aggregation, sc, sn)
    }

    /// Records [`Self::run_levels`] over `plan` as one fused tape node. Its
    /// inputs are `sc` (the `f_c2` product over every cell row, then every
    /// source row), `sn` (the `f_n` product over every net row, ReLU'd for
    /// residual nets) and `f_c1`'s weight and bias per layer.
    fn level_loop<'t>(
        &self,
        tape: &'t Tape,
        store: &ParamStore,
        plan: &Arc<GnnPlan>,
        aggregation: Aggregation,
        sc: Var<'t>,
        sn: Var<'t>,
    ) -> Var<'t> {
        let mut inputs = vec![sc, sn];
        inputs.extend(self.f_c1.params().map(|id| tape.param(store, id)));
        let shape = [plan.total_rows, self.f_c1.out_dim()];
        let forward = |v: &[&Tensor], flat: &mut Tensor| {
            plan.reset_flat(flat, shape[1]);
            let mut scratch: [Tensor; 5] = Default::default();
            self.run_levels(store, &plan.levels, aggregation, v[0], v[1], flat, &mut scratch);
        };
        let (gnn, plan) = (self.clone(), Arc::clone(plan));
        tape.fused(&inputs, shape[0] * shape[1], forward, move |inputs, flat, grad, gin| {
            gnn.level_loop_backward(&plan.levels, aggregation, inputs, flat, grad, gin);
        })
    }

    /// The backward of the node [`Self::level_loop`] records: one reverse
    /// loop over `levels`, adding each input's gradient into `gin`. A row
    /// is written by its own level and read only by later ones, so when the
    /// loop reaches a level, the gradients of that level's rows are
    /// complete; they accumulate in place in `g_flat`, the flat matrix's
    /// gradient. The tape keeps only the flat matrix; each level's gather,
    /// reduction and `f_c1` activations are recomputed from it with the
    /// forward's kernels.
    fn level_loop_backward(
        &self,
        levels: &[FlatLevel],
        aggregation: Aggregation,
        inputs: &[&Tensor],
        flat: &Tensor,
        g_flat: &mut Tensor,
        gin: &mut [Tensor],
    ) {
        let [g_sc, g_sn, g_c1 @ ..] = gin else {
            unreachable!("inputs are the two static products and f_c1's tensors")
        };
        let (sc, c1) = (inputs[0], &inputs[2..]);
        let [mut msgs, mut agg, mut ctx, mut h, mut g_h, mut g_msgs]: [Tensor; 6] =
            Default::default();
        let mut mlp = MlpScratch::new(c1);
        for fl in levels.iter().rev() {
            if fl.n_srcs > 0 {
                ops::gather_rows_flat(g_flat, &fl.src_dst, &mut g_h);
                ops::gather_rows_flat(flat, &fl.src_dst, &mut h);
                ops::relu_backward(&mut g_h, &h);
                add_to_rows(g_sc, fl.src_feat_off, &g_h);
            }
            if fl.n_nets > 0 {
                ops::gather_rows_flat(g_flat, &fl.net_dst, &mut g_h);
                if !self.residual {
                    ops::gather_rows_flat(flat, &fl.net_dst, &mut h);
                    ops::relu_backward(&mut g_h, &h);
                }
                add_to_rows(g_sn, fl.net_feat_off, &g_h);
                ops::scatter_add_rows(&g_h, &fl.net_gather, g_flat);
            }
            if fl.n_cells == 0 {
                continue;
            }
            fl.aggregate(flat, aggregation, &mut msgs, &mut agg);
            let x = if self.residual {
                ops::tanh_to(&agg, &mut ctx);
                &ctx
            } else {
                &agg
            };
            ops::gather_rows_flat(g_flat, &fl.cell_dst, &mut g_h);
            // `z` is f_c1(x) plus the cells' f_c2 rows, before the ReLU.
            let g_x = self.f_c1.backward(c1, x, g_c1, &mut mlp, |z, g| {
                ops::add_rows_range(z, sc, fl.cell_feat_off);
                g.copy_from(&g_h);
                ops::relu_backward(g, z);
                add_to_rows(g_sc, fl.cell_feat_off, g);
            });
            let g_agg = if self.residual {
                // `agg + relu(z)`: the skip passes `g_h` through, and the
                // `f_c1` path goes back through tanh.
                for ((g, gx), y) in g_h.data_mut().iter_mut().zip(g_x.data()).zip(ctx.data()) {
                    *g += gx * (1.0 - y * y);
                }
                &g_h
            } else {
                g_x
            };
            // Max routes to the first row of the run equal to the output,
            // the row the kernel's strict `>` kept (a zeroed column has
            // none); mean routes `1 / fanin` to every row of the run.
            g_msgs.reset(msgs.shape(), 0.0);
            let d = msgs.cols();
            for (s, run) in fl.cell_seg_off.windows(2).enumerate() {
                let rows = run[0] as usize..run[1] as usize;
                for c in 0..d {
                    let g = g_agg.at(s, c);
                    match aggregation {
                        Aggregation::Max => {
                            if let Some(r) = rows.clone().find(|&r| msgs.at(r, c) == agg.at(s, c)) {
                                g_msgs.data_mut()[r * d + c] += g;
                            }
                        }
                        Aggregation::Mean => {
                            for r in rows.clone() {
                                g_msgs.data_mut()[r * d + c] += g * fl.cell_inv_fanin[s];
                            }
                        }
                    }
                }
            }
            ops::scatter_add_rows(&g_msgs, &fl.cell_gather, g_flat);
        }
    }

    /// Number of scratch tensors [`Self::forward_flat`] consumes (a cache
    /// refresh shares its layout, so one arena region serves both).
    pub const FLAT_SCRATCH: usize = 8;

    /// Batched, tape-free levelized forward over the flat plan built by
    /// [`GnnSchedule::build`]. Fills `bufs[0]` with the flat embedding
    /// matrix, one row per pin index up to the largest live pin, with the
    /// rows of dead pins zeroed; read node embeddings out of it via
    /// [`GnnSchedule::flat_endpoint_rows`] or at a node's pin index.
    ///
    /// The tape's [`Self::forward_nodes`] runs the same level loop, so the
    /// two are bit-identical. The static `f_c2` / `f_n` products are
    /// hoisted out of the loop, which is row-wise exact: matmul rows are
    /// independent and accumulate in ascending-`k` order, and bias and
    /// ReLU are elementwise.
    ///
    /// # Panics
    ///
    /// Panics if `bufs.len() != FLAT_SCRATCH` or `feats` does not match
    /// `schedule`.
    // rtt-lint: hot
    pub fn forward_flat(
        &self,
        store: &ParamStore,
        schedule: &GnnSchedule,
        feats: &LevelFeats,
        aggregation: Aggregation,
        bufs: &mut [Tensor],
    ) {
        rtt_obs::span!("core::gnn_forward");
        let [flat, sc, sn, scratch @ ..] = bufs else {
            unreachable!("forward_flat needs {} scratch buffers", Self::FLAT_SCRATCH)
        };
        let plan = &schedule.plan;
        if let Some(cs) = &feats.cell_src_flat {
            self.embed(&self.f_c2, false, store, cs, sc, scratch);
        }
        if let Some(nf) = &feats.net_flat {
            self.embed(&self.f_n, self.residual, store, nf, sn, scratch);
        }
        plan.reset_flat(flat, self.f_c1.out_dim());
        self.run_levels(store, &plan.levels, aggregation, sc, sn, flat, scratch);
        rtt_nn::sanitize::check_finite("gnn_forward_flat", flat);
    }

    /// Refreshes `flat` in place onto the design of `plan` and `feats`.
    /// `flat` is a `[total_rows, embed_dim]` matrix holding the bits a
    /// full pass wrote for the design the cache last saw (its rows are that
    /// design's pins, resized to this plan's row count). `bufs` has the
    /// [`Self::FLAT_SCRATCH`] layout; `bufs[0]` holds a level's gathered
    /// feature rows, then the saved values of its rows.
    ///
    /// On entry `dirty` (one flag per flat row) marks the seeds: the rows
    /// the cache's row compare found new or changed, and any the caller
    /// forces. The loop walks the plan's levels in order and recomputes a
    /// row only when it is a seed or when a row it gathers changed bits
    /// earlier in this refresh. Per level it gathers the selected rows'
    /// static features and embeds only those through `f_c2` / `f_n` (which
    /// is row-wise exact, like the hoisted products of a full pass), saves
    /// the rows' cached values, runs [`Self::run_levels`] over the
    /// one-level sub-plan in place, and marks a written row changed when
    /// its bits differ from the saved value. On return `dirty[r]` says
    /// whether row `r` changed bits. Returns the number of rows recomputed.
    ///
    /// Bit-identity argument (induction over levels): once every level
    /// below `l` holds a full pass's bits, a row of level `l` that is not
    /// a seed has the node kind, static features and gathered rows it had
    /// in the cached design, and every row it gathers holds the bits it
    /// held there (it was not recomputed, or it was and its bits did not
    /// change). So its cached value is what a full pass computes. A
    /// recomputed row runs the same kernels over the same message rows in
    /// the same ascending order as a full pass. Gathers reference only
    /// earlier levels, so no row reads a row of its own level.
    ///
    /// # Panics
    ///
    /// Panics if `bufs.len() != FLAT_SCRATCH`, or `flat` or `dirty` does
    /// not cover every flat row of `plan`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn refresh_flat(
        &self,
        store: &ParamStore,
        plan: &GnnPlan,
        feats: &LevelFeats,
        aggregation: Aggregation,
        dirty: &mut [bool],
        sub: &mut RefreshLevel,
        flat: &mut Tensor,
        bufs: &mut [Tensor],
    ) -> usize {
        rtt_obs::span!("core::gnn_refresh");
        let [held, sc, sn, scratch @ ..] = bufs else {
            unreachable!("refresh_flat needs {} scratch buffers", Self::FLAT_SCRATCH)
        };
        assert_eq!(flat.rows(), plan.total_rows, "cached matrix must cover every flat row");
        assert_eq!(dirty.len(), plan.total_rows, "dirty flags must cover every flat row");
        let mut recomputed = 0;
        for fl in &plan.levels {
            if !sub.select(fl, dirty) {
                continue;
            }
            recomputed += sub.rows.len();
            if !sub.cs_feat.is_empty() {
                let Some(cs) = feats.cell_src_flat.as_ref() else {
                    unreachable!("cell/source feats present whenever cell or source rows exist")
                };
                ops::gather_rows_flat(cs, &sub.cs_feat, held);
                self.embed(&self.f_c2, false, store, held, sc, scratch);
            }
            if !sub.net_feat.is_empty() {
                let Some(nf) = feats.net_flat.as_ref() else {
                    unreachable!("net feats present whenever net rows exist")
                };
                ops::gather_rows_flat(nf, &sub.net_feat, held);
                self.embed(&self.f_n, self.residual, store, held, sn, scratch);
            }
            ops::gather_rows_flat(flat, &sub.rows, held);
            let level = std::slice::from_ref(&sub.level);
            self.run_levels(store, level, aggregation, sc, sn, flat, scratch);
            for (k, &r) in sub.rows.iter().enumerate() {
                dirty[r as usize] = !rows_bit_eq(flat.row(r as usize), held.row(k));
            }
        }
        rtt_nn::sanitize::check_finite("gnn_refresh_flat", flat);
        recomputed
    }

    /// The static-embedding prologue of a full pass and a refresh: `mlp`
    /// over feature rows `x` into `out`, through ReLU if `relu`. Cells'
    /// `f_c2` rows stay raw, since they join the pre-activation sum with
    /// `f_c1`; residual nets add `relu(f_n(feat))` as their increment. The
    /// level loop's last two scratch slots serve as the MLP's temporaries.
    fn embed(
        &self,
        mlp: &Mlp,
        relu: bool,
        store: &ParamStore,
        x: &Tensor,
        out: &mut Tensor,
        scratch: &mut [Tensor],
    ) {
        let [.., t0, t1] = scratch else { unreachable!("level-loop scratch layout mismatch") };
        mlp.forward_into(store, x, t0, t1, out);
        if relu {
            ops::relu_in_place(out);
        }
    }

    /// The one in-place level loop, over the whole plan
    /// ([`Self::forward_flat`] and the tape's [`Self::forward_nodes`]) or
    /// the one-level sub-plan of the rows a cache refresh recomputes
    /// ([`Self::refresh_flat`]). Per level:
    /// cells gather their fanin rows from `flat`, reduce each CSR run, add
    /// the `sc` rows at the level's feature offset and scatter back; nets
    /// add their `sn` rows to the driver's row; sources copy their `sc`
    /// rows through ReLU. `scratch` is five tensors.
    // rtt-lint: hot
    #[allow(clippy::too_many_arguments)]
    fn run_levels(
        &self,
        store: &ParamStore,
        levels: &[FlatLevel],
        aggregation: Aggregation,
        sc: &Tensor,
        sn: &Tensor,
        flat: &mut Tensor,
        scratch: &mut [Tensor],
    ) {
        let [msgs, agg, ctxv, t0, t1] = scratch else {
            unreachable!("level-loop scratch layout mismatch")
        };
        for fl in levels {
            if fl.n_cells > 0 {
                fl.aggregate(flat, aggregation, msgs, agg);
                if self.residual {
                    // Residual: accumulate a *bounded* non-negative
                    // increment on top of the worst fanin message,
                    // mirroring arrival-time propagation. The context into
                    // f_c1 is tanh-bounded: an increment proportional to
                    // the accumulated magnitude would grow exponentially
                    // over hundred-level cones.
                    ops::tanh_to(agg, ctxv);
                    self.f_c1.forward_into(store, ctxv, t0, t1, msgs);
                    ops::add_rows_range(msgs, sc, fl.cell_feat_off);
                    ops::relu_in_place(msgs);
                    agg.add_assign(msgs);
                    ops::scatter_rows(agg, 0, &fl.cell_dst, flat);
                } else {
                    // Literal Equation 3.
                    self.f_c1.forward_into(store, agg, t0, t1, msgs);
                    ops::add_rows_range(msgs, sc, fl.cell_feat_off);
                    ops::relu_in_place(msgs);
                    ops::scatter_rows(msgs, 0, &fl.cell_dst, flat);
                }
            }
            if fl.n_nets > 0 {
                ops::gather_rows_flat(flat, &fl.net_gather, msgs);
                ops::add_rows_range(msgs, sn, fl.net_feat_off);
                if !self.residual {
                    ops::relu_in_place(msgs);
                }
                ops::scatter_rows(msgs, 0, &fl.net_dst, flat);
            }
            if fl.n_srcs > 0 {
                ops::scatter_rows(sc, fl.src_feat_off, &fl.src_dst, flat);
                let d = flat.cols();
                for &r in &fl.src_dst {
                    for v in &mut flat.data_mut()[r as usize * d..(r as usize + 1) * d] {
                        *v = v.max(0.0);
                    }
                }
            }
        }
    }
}

impl GnnPlan {
    /// Shapes `flat` to `[total_rows, d]` for a pass over the whole plan,
    /// which writes every live row; hole rows, if any, are zero-filled.
    fn reset_flat(&self, flat: &mut Tensor, d: usize) {
        let shape = [self.total_rows, d];
        if self.live_rows < self.total_rows {
            flat.reset(&shape, 0.0);
        } else {
            flat.reset_for_overwrite(&shape);
        }
    }
}

impl FlatLevel {
    /// Gathers the cells' fanin rows of `flat` into `msgs` and reduces
    /// each CSR run into `agg`: the aggregation of Equation 3.
    // rtt-lint: hot
    fn aggregate(
        &self,
        flat: &Tensor,
        aggregation: Aggregation,
        msgs: &mut Tensor,
        agg: &mut Tensor,
    ) {
        ops::gather_rows_flat(flat, &self.cell_gather, msgs);
        match aggregation {
            Aggregation::Max => ops::segment_max_csr(msgs, &self.cell_seg_off, agg),
            Aggregation::Mean => {
                ops::segment_sum_csr(msgs, &self.cell_seg_off, agg);
                ops::scale_rows_in_place(agg, &self.cell_inv_fanin);
            }
        }
    }
}

/// `dst[row0 + i] += src[i]` for every row `i` of `src`.
fn add_to_rows(dst: &mut Tensor, row0: usize, src: &Tensor) {
    let d = src.cols();
    for (x, g) in dst.data_mut()[row0 * d..][..src.len()].iter_mut().zip(src.data()) {
        *x += g;
    }
}

/// Bit-level row compare (`==` on f32 would call NaNs unequal even when
/// the recomputed value is byte-identical).
pub(crate) fn rows_bit_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(u, v)| u.to_bits() == v.to_bits())
}

/// The rows of one level that [`NetlistGnn::refresh_flat`] recomputes: a
/// one-level plan in the full pass's row order, whose feature offsets
/// index the level's own `f_c2` / `f_n` products, and the static-feature
/// rows those products embed. Owned by `IncrementalCtx` and recycled
/// across levels and refreshes, so a warm refresh allocates nothing once
/// the vectors have grown to the widest selection.
#[derive(Clone, Debug, Default)]
pub(crate) struct RefreshLevel {
    level: FlatLevel,
    /// Feature rows of the selected cells, then sources, in `cell_src_flat`.
    cs_feat: Vec<u32>,
    /// Feature rows of the selected nets, in `net_flat`.
    net_feat: Vec<u32>,
    /// The selected rows: cells, nets, then sources.
    rows: Vec<u32>,
}

impl RefreshLevel {
    /// Selects the rows of `fl` to recompute: those flagged in `dirty`
    /// (seeds) and those that gather a flagged row (one of an earlier
    /// level whose bits changed). Returns `false` when there are none.
    fn select(&mut self, fl: &FlatLevel, dirty: &[bool]) -> bool {
        let sl = &mut self.level;
        sl.cell_gather.clear();
        sl.cell_seg_off.clear();
        sl.cell_seg_off.push(0);
        sl.cell_inv_fanin.clear();
        sl.cell_dst.clear();
        sl.net_gather.clear();
        sl.net_dst.clear();
        sl.src_dst.clear();
        self.cs_feat.clear();
        self.net_feat.clear();
        for (j, run) in fl.cell_seg_off.windows(2).enumerate() {
            let (dst, gather) = (fl.cell_dst[j], &fl.cell_gather[run[0] as usize..run[1] as usize]);
            if dirty[dst as usize] || gather.iter().any(|&g| dirty[g as usize]) {
                sl.cell_gather.extend_from_slice(gather);
                sl.cell_seg_off.push(sl.cell_gather.len() as u32);
                sl.cell_inv_fanin.push(fl.cell_inv_fanin[j]);
                sl.cell_dst.push(dst);
                self.cs_feat.push((fl.cell_feat_off + j) as u32);
            }
        }
        for (j, (&dst, &g)) in fl.net_dst.iter().zip(&fl.net_gather).enumerate() {
            if dirty[dst as usize] || dirty[g as usize] {
                sl.net_gather.push(g);
                sl.net_dst.push(dst);
                self.net_feat.push((fl.net_feat_off + j) as u32);
            }
        }
        // Sources have no fanin, and their `f_c2` rows follow the cells'.
        for (j, &dst) in fl.src_dst.iter().enumerate() {
            if dirty[dst as usize] {
                sl.src_dst.push(dst);
                self.cs_feat.push((fl.src_feat_off + j) as u32);
            }
        }
        (sl.n_cells, sl.n_nets, sl.n_srcs) =
            (sl.cell_dst.len(), sl.net_dst.len(), sl.src_dst.len());
        (sl.cell_feat_off, sl.net_feat_off, sl.src_feat_off) = (0, 0, sl.n_cells);
        self.rows.clear();
        self.rows.extend(sl.cell_dst.iter().chain(&sl.net_dst).chain(&sl.src_dst));
        !self.rows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rtt_circgen::{ripple_carry_adder, GenParams};
    use rtt_netlist::{CellLibrary, GateFn};
    use rtt_nn::Tape;
    use rtt_place::{place, PlaceConfig};

    fn world(cells: usize) -> (GnnSchedule, LevelFeats, usize) {
        let (graph, features) = design(cells);
        let schedule = GnnSchedule::build(&graph);
        let feats = LevelFeats::assemble(&schedule, &graph, &features);
        (schedule, feats, graph.endpoints().len())
    }

    fn design(cells: usize) -> (TimingGraph, NodeFeatures) {
        let lib = CellLibrary::asap7_like();
        let nl = if cells == 0 {
            ripple_carry_adder(4, &lib)
        } else {
            GenParams::new("g", cells, 3).generate(&lib).netlist
        };
        let pl = place(&nl, &lib, 0, &PlaceConfig::default());
        let graph = TimingGraph::build(&nl, &lib);
        let features = NodeFeatures::extract(&nl, &lib, &graph, &pl);
        (graph, features)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn schedule_covers_all_endpoints() {
        let (schedule, _, n_ep) = world(0);
        assert_eq!(schedule.num_endpoints(), n_ep);
        assert!(schedule.num_levels() > 3);
    }

    #[test]
    fn sources_only_at_level_zero() {
        let (schedule, _, _) = world(200);
        let levels = &schedule.plan().levels;
        for fl in &levels[1..] {
            assert_eq!(fl.n_srcs, 0, "source above level 0");
            assert_eq!(fl.cell_gather.is_empty(), fl.n_cells == 0);
        }
        // A node is a cell output only through a cell fanin edge, so every
        // cell's CSR run is non-empty: the level loop never reduces a
        // level whose gather is empty.
        for (l, fl) in levels.iter().enumerate() {
            for (j, run) in fl.cell_seg_off.windows(2).enumerate() {
                assert!(run[0] < run[1], "cell {j} of level {l} has an empty fanin run");
            }
        }
        assert!(levels[0].n_srcs > 0);
        assert_eq!(levels[0].n_cells, 0);
    }

    #[test]
    fn gathers_reference_earlier_levels_only() {
        let (schedule, _, _) = world(200);
        let plan = schedule.plan();
        let mut written = vec![false; plan.total_rows];
        for (l, fl) in plan.levels.iter().enumerate() {
            for &row in fl.cell_gather.iter().chain(&fl.net_gather) {
                assert!(written[row as usize], "level {l} gathers row {row} before it is written");
            }
            for &row in fl.cell_dst.iter().chain(&fl.net_dst).chain(&fl.src_dst) {
                assert!(!written[row as usize], "row {row} written twice");
                written[row as usize] = true;
            }
        }
    }

    /// After a bypass (which kills pins) and a buffer insertion (which
    /// adds pins past the old count), a node's row is still its pin's
    /// index. The dead pins' rows are holes: no plan list names them, and
    /// a full pass over a stale buffer leaves them at `+0.0`.
    #[test]
    fn rows_are_pin_indices_and_dead_pins_leave_zero_holes() {
        let lib = CellLibrary::asap7_like();
        let mut nl = GenParams::new("g", 150, 3).generate(&lib).netlist;
        let mut pl = place(&nl, &lib, 0, &PlaceConfig::default());
        let old_pins = nl.pin_capacity();
        let is_buf = |c: &rtt_netlist::Cell| lib.cell_type(c.type_id).gate == GateFn::Buf;
        let (buf, _) = nl.cells().find(|(_, c)| is_buf(c)).expect("generated design has a buffer");
        let dead = [nl.cell(buf).inputs[0], nl.cell(buf).output];
        rtt_opt::bypass_repeater(&mut nl, &lib, buf).expect("buffer bypass applies");
        let (net, sink) = nl.nets().map(|(id, net)| (id, net.sinks[0])).next().expect("nets");
        let pos = pl.floorplan().die.center();
        rtt_opt::insert_buffer(&mut nl, &mut pl, &lib, net, sink, pos).expect("buffer inserts");

        let graph = TimingGraph::build(&nl, &lib);
        let schedule = GnnSchedule::build(&graph);
        let plan = schedule.plan();
        assert!(plan.total_rows > old_pins, "the new buffer's pins lie past the old count");
        let mut live = vec![false; plan.total_rows];
        for v in 0..graph.num_nodes() as u32 {
            live[graph.pin_of(v).index()] = true;
        }
        assert!(dead.iter().all(|p| !live[p.index()]), "bypassed pins are holes");
        for fl in &plan.levels {
            let lists = [&fl.cell_gather, &fl.net_gather, &fl.cell_dst, &fl.net_dst, &fl.src_dst];
            assert!(lists.into_iter().flatten().all(|&r| live[r as usize]), "a list names a hole");
        }

        let features = NodeFeatures::extract(&nl, &lib, &graph, &pl);
        let feats = LevelFeats::assemble(&schedule, &graph, &features);
        let cfg = ModelConfig::tiny();
        let mut store = ParamStore::new();
        let gnn = NetlistGnn::new(&mut store, &mut rand::rngs::StdRng::seed_from_u64(3), &cfg);
        let mut bufs = vec![Tensor::default(); NetlistGnn::FLAT_SCRATCH];
        bufs[0] = Tensor::full(&[plan.total_rows, cfg.embed_dim], f32::NAN);
        gnn.forward_flat(&store, &schedule, &feats, Aggregation::Max, &mut bufs);
        let mut holes = (0..plan.total_rows).filter(|&r| !live[r]).flat_map(|r| bufs[0].row(r));
        assert!(holes.all(|v| v.to_bits() == 0), "a hole row is not +0.0");
    }

    /// Equation 3 evaluated node by node straight from the timing graph,
    /// one `[1, dim]` row at a time through `Mlp::forward_into`, with no
    /// plan and no level loop. Row-at-a-time is exact because matmul rows
    /// are independent.
    #[test]
    fn flat_forward_matches_an_independent_eq3_reference_bitwise() {
        let (graph, features) = design(150);
        let schedule = GnnSchedule::build(&graph);
        let feats = LevelFeats::assemble(&schedule, &graph, &features);
        let relu = |v: Vec<f32>| -> Vec<f32> { v.into_iter().map(|x| x.max(0.0)).collect() };
        let add =
            |a: &[f32], b: &[f32]| -> Vec<f32> { a.iter().zip(b).map(|(x, y)| x + y).collect() };
        for residual in [false, true] {
            let cfg = ModelConfig { residual, ..ModelConfig::tiny() };
            let mut store = ParamStore::new();
            let gnn = NetlistGnn::new(&mut store, &mut rand::rngs::StdRng::seed_from_u64(4), &cfg);
            let mlp = |m: &Mlp, x: &[f32]| {
                let [mut t0, mut t1, mut out] = <[Tensor; 3]>::default();
                let x = Tensor::from_vec(&[1, x.len()], x.to_vec());
                m.forward_into(&store, &x, &mut t0, &mut t1, &mut out);
                out.data().to_vec()
            };
            for aggregation in [Aggregation::Max, Aggregation::Mean] {
                let mut h = vec![Vec::new(); graph.num_nodes()];
                for l in 0..=graph.max_level() {
                    for &v in graph.nodes_at_level(l) {
                        let fanin: Vec<&[f32]> =
                            graph.fanin(v).map(|e| h[e.from as usize].as_slice()).collect();
                        let (cell, net) = (features.cell_row(v), features.net_row(v));
                        h[v as usize] = match (graph.node_kind(v), residual) {
                            (NodeKind::Source, _) => relu(mlp(&gnn.f_c2, cell)),
                            (NodeKind::NetSink, true) => add(fanin[0], &relu(mlp(&gnn.f_n, net))),
                            (NodeKind::NetSink, false) => relu(add(fanin[0], &mlp(&gnn.f_n, net))),
                            (NodeKind::CellOut, _) => {
                                let column = |c: usize| fanin.iter().map(move |r| r[c]);
                                let agg: Vec<f32> = (0..cfg.embed_dim)
                                    .map(|c| match aggregation {
                                        Aggregation::Max => {
                                            column(c).fold(f32::NEG_INFINITY, f32::max)
                                        }
                                        Aggregation::Mean => {
                                            column(c).fold(0.0, |s, x| s + x)
                                                * (1.0 / fanin.len() as f32)
                                        }
                                    })
                                    .collect();
                                let ctx: Vec<f32> = agg
                                    .iter()
                                    .map(|&a| if residual { a.tanh() } else { a })
                                    .collect();
                                let z = relu(add(&mlp(&gnn.f_c1, &ctx), &mlp(&gnn.f_c2, cell)));
                                if residual {
                                    add(&agg, &z)
                                } else {
                                    z
                                }
                            }
                        };
                    }
                }
                let mut bufs = vec![Tensor::default(); NetlistGnn::FLAT_SCRATCH];
                gnn.forward_flat(&store, &schedule, &feats, aggregation, &mut bufs);
                for (v, want) in h.iter().enumerate() {
                    let got = bufs[0].row(graph.pin_of(v as u32).index());
                    let same = got.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(
                        same,
                        "residual={residual} {aggregation:?} node {v}: {got:?} vs {want:?}"
                    );
                }
            }
        }
    }

    /// Central finite differences against the fused level-loop node, with
    /// respect to the `f_c2` and `f_n` products and each `f_c1` tensor. The
    /// plan is a small design's, with one cell's second fanin row replaced
    /// by its first (a max tie); the loss reads every flat row.
    #[test]
    fn grad_check_level_loop_node() {
        let (schedule, feats, _) = world(0);
        let mut plan = GnnPlan::clone(schedule.plan());
        let fl = plan.levels.iter_mut().find(|fl| fl.cell_seg_off.get(1) > Some(&1));
        let fl = fl.expect("a level whose first cell has two fanins");
        fl.cell_gather[1] = fl.cell_gather[0];
        let plan = Arc::new(plan);
        let rows = |t: &Option<Tensor>| t.as_ref().map_or(0, Tensor::rows);
        let (n_cs, n_net) = (rows(&feats.cell_src_flat), rows(&feats.net_flat));
        let readout: Vec<u32> = (0..plan.total_rows as u32).collect();
        let fixed = |shape: &[usize], seed: u64| {
            Tensor::uniform(&mut rand::rngs::StdRng::seed_from_u64(seed), shape, 1.0)
        };
        for aggregation in [Aggregation::Max, Aggregation::Mean] {
            for residual in [false, true] {
                let cfg =
                    ModelConfig { embed_dim: 3, gnn_hidden: 4, residual, ..ModelConfig::tiny() };
                let mut store = ParamStore::new();
                let gnn =
                    NetlistGnn::new(&mut store, &mut rand::rngs::StdRng::seed_from_u64(5), &cfg);
                let ids: Vec<_> = gnn.f_c1.params().collect();
                // The products, then f_c1's tensors. The biases are random
                // too: with the zero initial ones, a cell whose fanin rows
                // are all ReLU'd to zero sits exactly on a ReLU kink.
                let mut x = vec![fixed(&[n_cs, 3], 11), fixed(&[n_net, 3], 12)];
                x.extend(
                    ids.iter().zip(20..).map(|(&id, seed)| fixed(store.value(id).shape(), seed)),
                );
                let run = |x: &[Tensor]| {
                    let mut store = store.clone();
                    for (&id, t) in ids.iter().zip(&x[2..]) {
                        *store.value_mut(id) = t.clone();
                    }
                    let tape = Tape::new();
                    let (sc, sn) = (tape.constant(x[0].clone()), tape.constant(x[1].clone()));
                    let flat = gnn.level_loop(&tape, &store, &plan, aggregation, sc, sn);
                    let out = tape.gather_rows(flat, &readout);
                    let loss = out.mul(out).mean();
                    let g = tape.backward(loss);
                    let mut grads = vec![g.wrt(sc.id()).cloned(), g.wrt(sn.id()).cloned()];
                    grads.extend(ids.iter().map(|&id| g.of(id).cloned()));
                    (tape.value(loss).data()[0], grads)
                };
                for (k, analytic) in run(&x).1.into_iter().enumerate() {
                    let analytic = analytic.expect("every input has a gradient");
                    for (i, &a) in analytic.data().iter().enumerate() {
                        let at = |e: f32| {
                            let mut y = x.clone();
                            y[k].data_mut()[i] += e;
                            run(&y).0
                        };
                        let numeric = (at(3e-3) - at(-3e-3)) / 6e-3;
                        assert!(
                            (numeric - a).abs() <= 2e-2 * (1.0 + numeric.abs().max(a.abs())),
                            "{aggregation:?} residual={residual} input {k}[{i}]: numeric {numeric} \
                             vs analytic {a}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn forward_produces_endpoint_matrix_and_trains_all_three_mlps() {
        let (schedule, feats, n_ep) = world(150);
        let mut store = ParamStore::new();
        let cfg = ModelConfig::tiny();
        let gnn = NetlistGnn::new(&mut store, &mut rand::rngs::StdRng::seed_from_u64(1), &cfg);
        let mut outputs = Vec::new();
        for aggregation in [Aggregation::Max, Aggregation::Mean] {
            let tape = Tape::new();
            let emb = gnn.forward(&tape, &store, &schedule, &feats, aggregation);
            let t = tape.value(emb);
            assert_eq!(t.shape(), &[n_ep, cfg.embed_dim]);
            assert!(t.data().iter().all(|v| v.is_finite()));
            // Embeddings must differ across endpoints (no collapse at init).
            assert!((1..n_ep).any(|r| t.row(r) != t.row(0)));
            // The taped pass is the serving pass.
            let mut bufs = vec![Tensor::default(); NetlistGnn::FLAT_SCRATCH];
            gnn.forward_flat(&store, &schedule, &feats, aggregation, &mut bufs);
            let mut served = Tensor::default();
            ops::gather_rows_flat(&bufs[0], schedule.flat_endpoint_rows(), &mut served);
            assert_eq!(bits(&t), bits(&served), "{aggregation:?}");
            let grads = tape.backward(emb.mul(emb).mean());
            // 3 MLPs × 2 layers × (w, b) = 12 parameter tensors.
            let with_grad =
                store.iter().filter(|&(id, _)| grads.of(id).is_some_and(|g| g.norm() > 0.0));
            assert!(with_grad.count() >= 10, "too few params receive gradient");
            outputs.push(t);
        }
        assert_ne!(bits(&outputs[0]), bits(&outputs[1]), "max and mean aggregation must differ");
    }
}
