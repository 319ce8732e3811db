//! Define-by-run computation graph with reverse-mode differentiation.

use std::cell::{Cell, RefCell};

use crate::exec::Exec;
use crate::ops;
use crate::ops::{col2im, im2col, rank3};
use crate::store::{Grads, ParamId, ParamStore};
use crate::Tensor;

/// A node handle on a [`Tape`].
///
/// `Var` is `Copy`; all arithmetic builds new nodes on the owning tape.
#[derive(Clone, Copy)]
pub struct Var<'t> {
    tape: &'t Tape,
    id: usize,
}

enum Op {
    Leaf {
        param: Option<ParamId>,
    },
    MatMul(usize, usize),
    Add(usize, usize),
    AddRow(usize, usize),
    AddChannel(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    MulRow(usize, usize),
    Scale(usize, f32),
    Relu(usize),
    Tanh(usize),
    GatherRows(usize, Vec<u32>),
    /// A sub-computation recorded as one node (see [`Tape::fused`]).
    Fused {
        inputs: Vec<usize>,
        backward: Box<FusedBackward>,
    },
    ConcatCols(usize, usize),
    Conv2d {
        x: usize,
        w: usize,
        pad: usize,
    },
    MaxPool2d {
        x: usize,
        argmax: Vec<u32>,
    },
    Reshape(usize),
    Mean(usize),
}

struct Node {
    value: Tensor,
    op: Op,
}

/// The backward of a [`Tape::fused`] node: `(inputs, value, grad, gin)`
/// adds the gradient with respect to each input into `gin`.
type FusedBackward = dyn Fn(&[&Tensor], &Tensor, &mut Tensor, &mut [Tensor]);

/// Spare tensors a [`Tape`] draws its buffers from, carried from one pass
/// to the next.
///
/// Hand one in with [`Tape::with_arena`] and take it back with
/// [`Tape::into_arena`]. A request takes the smallest spare with room for
/// it, so a pass that repeats the previous pass's ops over same-sized
/// inputs finds a spare for every buffer and allocates nothing. Bytes
/// allocated because no spare had room are tallied on the global
/// `nn::tape_arena_bytes` counter.
///
/// ```
/// use rtt_nn::{Tape, TapeArena, Tensor};
///
/// let x = Tensor::from_rows(&[&[1.0, -2.0], &[3.0, 4.0]]);
/// let mut arena = TapeArena::default();
/// for _ in 0..3 {
///     let tape = Tape::with_arena(arena);
///     let xv = tape.constant_with(x.len(), |t| t.copy_from(&x));
///     let loss = xv.matmul(xv).relu().mean();
///     let mut grads = tape.backward(loss);
///     arena = tape.into_arena();
///     // The input's gradient goes back too, for the next pass to reuse.
///     arena.reclaim(&mut grads);
/// }
/// ```
#[derive(Default)]
pub struct TapeArena {
    spares: Vec<Tensor>,
}

impl TapeArena {
    /// Moves the constant-leaf gradients of `grads` (the ones
    /// [`Grads::wrt`] answers) into the arena as spares, leaving the
    /// parameter gradients.
    pub fn reclaim(&mut self, grads: &mut Grads) {
        self.spares.extend(grads.take_leaf_grads());
    }
}

/// A define-by-run tape: forward ops append nodes; [`Tape::backward`]
/// sweeps them in reverse to produce [`Grads`].
///
/// Every tensor the tape records (except a [`Tape::constant`] handed in
/// by value) and every buffer its backward needs (except the parameter
/// gradients, which leave with [`Grads`]) comes from the tape's arena (see
/// [`TapeArena`]). A buffer the sweep is done with goes back to it at
/// once, so a non-leaf gradient lives only until its node has been
/// processed. [`Tape::new`] starts with an empty arena.
#[derive(Default)]
pub struct Tape {
    nodes: RefCell<Vec<Node>>,
    /// Bytes of tensor data recorded on the tape since the last flush;
    /// tallied lock-free here and flushed to the global `nn::tape_bytes`
    /// counter in [`Tape::backward`] / `Drop`.
    pending_bytes: Cell<u64>,
    /// Leaf node of each parameter injected so far, indexed by
    /// [`ParamId`]: a parameter used N times is one leaf whose gradient
    /// sums all N uses.
    param_leaf: RefCell<Vec<Option<usize>>>,
    /// The buffers requests draw from, each flagged `true` while it is a
    /// spare handed in with the arena that no request has taken yet.
    free: RefCell<Vec<(Tensor, bool)>>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty tape that draws its buffers from `arena`.
    pub fn with_arena(arena: TapeArena) -> Self {
        let tape = Self::default();
        *tape.free.borrow_mut() = arena.spares.into_iter().map(|t| (t, true)).collect();
        tape
    }

    /// Ends the pass and returns its arena: every recorded tensor and every
    /// buffer the pass gave back. Spares the pass never took are dropped,
    /// so an arena holds one pass's worth of memory.
    pub fn into_arena(self) -> TapeArena {
        let given_back = self.free.take().into_iter().filter(|&(_, untouched)| !untouched);
        let values = self.nodes.take().into_iter().map(|n| n.value);
        let spares = given_back.map(|(t, _)| t).chain(values);
        TapeArena { spares: spares.filter(|t| t.capacity() > 0).collect() }
    }

    /// A buffer from the arena that `write` fills, as an [`ops`] kernel
    /// fills its output: the smallest spare with room for `len` elements,
    /// holding stale data, or an empty tensor if no spare has room. Any
    /// growth is tallied on `nn::tape_arena_bytes`.
    ///
    /// Buffers this pass gave back come before the spares handed in with
    /// the arena. A pass that repeats the previous one then makes the same
    /// choices among the former, and where the previous pass allocated, it
    /// takes the spare allocated there: an arena stops growing after one
    /// pass, where a single smallest-first pool could still grow in the
    /// second.
    fn buffer(&self, len: usize, write: impl FnOnce(&mut Tensor)) -> Tensor {
        static ARENA_BYTES: rtt_obs::Counter = rtt_obs::Counter::new("nn::tape_arena_bytes");
        let mut t = {
            let mut free = self.free.borrow_mut();
            let best = (free.iter().enumerate())
                .filter(|(_, (t, _))| t.capacity() >= len)
                .min_by_key(|&(_, (t, untouched))| (*untouched, t.capacity()))
                .map(|(i, _)| i);
            best.map(|i| free.swap_remove(i).0).unwrap_or_default()
        };
        t.recycle(len);
        let cap = t.capacity();
        write(&mut t);
        let grown = t.capacity().saturating_sub(cap);
        if grown > 0 {
            ARENA_BYTES.add(4 * grown as u64);
        }
        t
    }

    /// Gives buffers back to the arena for later requests of this pass.
    fn give(&self, bufs: impl IntoIterator<Item = Tensor>) {
        let mut free = self.free.borrow_mut();
        free.extend(bufs.into_iter().filter(|t| t.capacity() > 0).map(|t| (t, false)));
    }

    fn push(&self, value: Tensor, op: Op) -> Var<'_> {
        self.pending_bytes.set(self.pending_bytes.get() + 4 * value.len() as u64);
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node { value, op });
        Var { tape: self, id: nodes.len() - 1 }
    }

    /// Records a node whose value `write` computes from the recorded
    /// values into an arena buffer with room for `len` elements.
    fn record(&self, len: usize, op: Op, write: impl FnOnce(&[Node], &mut Tensor)) -> Var<'_> {
        let value = {
            let nodes = self.nodes.borrow();
            self.buffer(len, |out| write(&nodes, out))
        };
        self.push(value, op)
    }

    /// Moves the locally tallied recorded bytes into the global counter.
    fn flush_bytes(&self) {
        static TAPE_BYTES: rtt_obs::Counter = rtt_obs::Counter::new("nn::tape_bytes");
        let bytes = self.pending_bytes.take();
        if bytes > 0 {
            TAPE_BYTES.add(bytes);
        }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// `true` if no ops have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.borrow().is_empty()
    }

    /// Element count of node `id`'s value.
    fn len_of(&self, id: usize) -> usize {
        self.nodes.borrow()[id].value.len()
    }

    /// Adds a non-trainable input leaf.
    pub fn constant(&self, value: Tensor) -> Var<'_> {
        self.push(value, Op::Leaf { param: None })
    }

    /// Adds a non-trainable input leaf whose value `fill` writes into an
    /// arena buffer with room for `len` elements. The buffer holds stale
    /// data of any shape, so `fill` sets the shape and every element, as
    /// the [`ops`] kernels do (e.g. with [`Tensor::copy_from`]).
    pub fn constant_with(&self, len: usize, fill: impl FnOnce(&mut Tensor)) -> Var<'_> {
        self.push(self.buffer(len, fill), Op::Leaf { param: None })
    }

    /// Injects a trainable parameter from `store` as a leaf; its gradient
    /// will be retrievable from [`Grads::of`] after `backward`. A parameter
    /// already on this tape returns its existing leaf, so every use adds
    /// into one gradient.
    pub fn param(&self, store: &ParamStore, id: ParamId) -> Var<'_> {
        if let Some(&Some(leaf)) = self.param_leaf.borrow().get(id.0) {
            return Var { tape: self, id: leaf };
        }
        let value = store.value(id);
        let value = self.buffer(value.len(), |t| t.copy_from(value));
        let v = self.push(value, Op::Leaf { param: Some(id) });
        let mut leaves = self.param_leaf.borrow_mut();
        if leaves.len() <= id.0 {
            leaves.resize(id.0 + 1, None);
        }
        leaves[id.0] = Some(v.id);
        v
    }

    /// The current value of `v` (cloned).
    pub fn value(&self, v: Var<'_>) -> Tensor {
        self.nodes.borrow()[v.id].value.clone()
    }

    /// Selects rows `idx` from matrix `x`; an empty `idx` yields one zero
    /// row. Runs the serving kernel [`ops::gather_rows_flat`].
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or `x` is not a matrix.
    pub fn gather_rows<'t>(&'t self, x: Var<'t>, idx: &[u32]) -> Var<'t> {
        let len = idx.len().max(1) * self.nodes.borrow()[x.id].value.cols();
        self.record(len, Op::GatherRows(x.id, idx.to_vec()), |nodes, out| {
            ops::gather_rows_flat(&nodes[x.id].value, idx, out);
        })
    }

    /// Records a whole sub-computation as one node that carries its own
    /// backward, femtoGPT's `Computation { inps, func: Box<dyn Function> }`
    /// pattern. `forward(inputs, out)` writes the value from the inputs'
    /// values into an arena buffer with room for `len` elements, as an
    /// [`ops`] kernel writes its output: the buffer holds stale data of any
    /// shape, so `forward` sets the shape and every element.
    /// `backward(inputs, value, grad, gin)` later adds the gradient with
    /// respect to each input into `gin`, which holds one zero-filled
    /// tensor per input, in input order and shaped like it. `grad` is the
    /// gradient of the loss with respect to the value; the sweep discards
    /// it afterwards, so `backward` may overwrite it. The tape keeps only
    /// the inputs and the value, so whatever else the backward needs, it
    /// recomputes.
    ///
    /// # Panics
    ///
    /// [`Tape::backward`] panics if `backward` reshapes a gradient in
    /// `gin`.
    pub fn fused<'t>(
        &'t self,
        inputs: &[Var<'t>],
        len: usize,
        forward: impl FnOnce(&[&Tensor], &mut Tensor),
        backward: impl Fn(&[&Tensor], &Tensor, &mut Tensor, &mut [Tensor]) + 'static,
    ) -> Var<'t> {
        let inputs: Vec<usize> = inputs.iter().map(|v| v.id).collect();
        let value = {
            let nodes = self.nodes.borrow();
            let values: Vec<&Tensor> = inputs.iter().map(|&i| &nodes[i].value).collect();
            self.buffer(len, |out| forward(&values, out))
        };
        self.push(value, Op::Fused { inputs, backward: Box::new(backward) })
    }

    /// Concatenates `a` and `b` side by side (matrices with equal rows) —
    /// the paper's multimodal fusion `[v_n ; v_l]`.
    ///
    /// # Panics
    ///
    /// Panics on row mismatch.
    pub fn concat_cols<'t>(&'t self, a: Var<'t>, b: Var<'t>) -> Var<'t> {
        let len = self.len_of(a.id) + self.len_of(b.id);
        self.record(len, Op::ConcatCols(a.id, b.id), |nodes, out| {
            ops::concat_cols(&nodes[a.id].value, &nodes[b.id].value, out);
        })
    }

    /// 2-D convolution, stride 1: `x` is `[C_in, H, W]`, `w` is
    /// `[C_out, C_in, kh, kw]`, output `[C_out, H', W']` with
    /// `H' = H + 2·pad - kh + 1`. The im2col matrix is transient: it comes
    /// from the arena and goes back once the output is written.
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatch or if the kernel exceeds the padded
    /// input.
    pub fn conv2d<'t>(&'t self, x: Var<'t>, w: Var<'t>, pad: usize) -> Var<'t> {
        let value = {
            let nodes = self.nodes.borrow();
            let (tx, tw) = (&nodes[x.id].value, &nodes[w.id].value);
            let (cin, h, wd) = rank3(tx);
            let ws = tw.shape();
            let (oh, ow) = (h + 2 * pad + 1 - ws[2], wd + 2 * pad + 1 - ws[3]);
            let mut value = Tensor::default();
            let col = self.buffer(cin * ws[2] * ws[3] * oh * ow, |col| {
                value = self.buffer(ws[0] * oh * ow, |out| ops::conv2d(tx, tw, pad, col, out));
            });
            self.give([col]);
            value
        };
        self.push(value, Op::Conv2d { x: x.id, w: w.id, pad })
    }

    /// Max pooling with a square window and equal stride over `[C, H, W]`.
    ///
    /// # Panics
    ///
    /// Panics if `size` does not divide H and W.
    pub fn maxpool2d<'t>(&'t self, x: Var<'t>, size: usize) -> Var<'t> {
        let mut argmax = Vec::new();
        let value = {
            let nodes = self.nodes.borrow();
            let tx = &nodes[x.id].value;
            self.buffer(tx.len() / (size * size).max(1), |out| {
                ops::maxpool2d(tx, size, out, &mut argmax);
            })
        };
        self.push(value, Op::MaxPool2d { x: x.id, argmax })
    }

    /// Runs the reverse sweep from scalar `loss` and collects gradients.
    /// A non-leaf node's gradient goes back to the arena as soon as the
    /// node has been processed, so the result holds only the leaves'.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a single-element tensor.
    pub fn backward(&self, loss: Var<'_>) -> Grads {
        rtt_obs::span!("nn::backward");
        self.flush_bytes();
        let nodes = self.nodes.borrow();
        let seed = &nodes[loss.id].value;
        assert_eq!(seed.len(), 1, "loss must be scalar");
        let mut sweep = Sweep { tape: self, nodes: &nodes, grads: vec![None; nodes.len()] };
        sweep.grads[loss.id] = Some(self.buffer(1, |t| t.reset(seed.shape(), 1.0)));
        for id in (0..nodes.len()).rev() {
            if matches!(nodes[id].op, Op::Leaf { .. }) {
                continue;
            }
            let Some(mut g) = sweep.grads[id].take() else { continue };
            sweep.node(id, &mut g);
            self.give([g]);
        }

        let mut out = Grads::default();
        for (id, node) in nodes.iter().enumerate() {
            if let Op::Leaf { param: Some(pid) } = node.op {
                if let Some(g) = sweep.grads[id].take() {
                    out.insert_param(pid, g);
                }
            }
        }
        out.set_leaf_grads(sweep.grads);
        out
    }
}

impl Drop for Tape {
    fn drop(&mut self) {
        // Forward-only tapes (prediction) never reach `backward`; account
        // for their nodes here.
        self.flush_bytes();
    }
}

/// The state of one reverse sweep: the gradient of every node still
/// pending.
struct Sweep<'a> {
    tape: &'a Tape,
    nodes: &'a [Node],
    grads: Vec<Option<Tensor>>,
}

impl Sweep<'_> {
    /// Adds into node `i`'s gradient through `add`, starting it at zero:
    /// a parameter's from a fresh tensor, since it leaves with [`Grads`]
    /// for good, and every other from the arena.
    fn accumulate(&mut self, i: usize, add: impl FnOnce(&mut Tensor)) {
        let (tape, node) = (self.tape, &self.nodes[i]);
        let g = self.grads[i].get_or_insert_with(|| match node.op {
            Op::Leaf { param: Some(_) } => Tensor::zeros(node.value.shape()),
            _ => tape.buffer(node.value.len(), |t| t.reset(node.value.shape(), 0.0)),
        });
        add(g);
    }

    /// Propagates node `id`'s gradient `g` into its inputs' gradients.
    #[allow(clippy::too_many_lines)]
    fn node(&mut self, id: usize, g: &mut Tensor) {
        let (tape, nodes) = (self.tape, self.nodes);
        match &nodes[id].op {
            Op::Leaf { .. } => {}
            Op::MatMul(a, b) => {
                let (ta, tb) = (&nodes[*a].value, &nodes[*b].value);
                let tb_t =
                    tape.buffer(tb.len(), |t| tb.transpose_view_into(tb.rows(), tb.cols(), t));
                let ga = tape.buffer(g.rows() * tb_t.cols(), |t| g.matmul_into(&tb_t, t));
                let ta_t =
                    tape.buffer(ta.len(), |t| ta.transpose_view_into(ta.rows(), ta.cols(), t));
                let gb = tape.buffer(ta_t.rows() * g.cols(), |t| ta_t.matmul_into(g, t));
                self.accumulate(*a, |t| t.add_assign(&ga));
                self.accumulate(*b, |t| t.add_assign(&gb));
                tape.give([tb_t, ga, ta_t, gb]);
            }
            Op::Add(a, b) => {
                for src in [a, b] {
                    self.accumulate(*src, |t| t.add_assign(g));
                }
            }
            Op::Sub(a, b) => {
                self.accumulate(*a, |t| t.add_assign(g));
                self.accumulate(*b, |t| {
                    for (x, y) in t.data_mut().iter_mut().zip(g.data()) {
                        *x -= y;
                    }
                });
            }
            Op::AddRow(a, row) => {
                self.accumulate(*a, |t| t.add_assign(g));
                self.accumulate(*row, |t| ops::add_row_sums(g, t));
            }
            Op::AddChannel(x, b) => {
                self.accumulate(*x, |t| t.add_assign(g));
                let (c, h, w) = rank3(&nodes[*x].value);
                self.accumulate(*b, |t| {
                    for ch in 0..c {
                        let s: f32 = g.data()[ch * h * w..(ch + 1) * h * w].iter().sum();
                        t.data_mut()[ch] += s;
                    }
                });
            }
            Op::Mul(a, b) => {
                let (ta, tb) = (&nodes[*a].value, &nodes[*b].value);
                self.accumulate(*a, |t| {
                    for ((x, gv), bv) in t.data_mut().iter_mut().zip(g.data()).zip(tb.data()) {
                        *x += gv * bv;
                    }
                });
                self.accumulate(*b, |t| {
                    for ((x, gv), av) in t.data_mut().iter_mut().zip(g.data()).zip(ta.data()) {
                        *x += gv * av;
                    }
                });
            }
            Op::MulRow(a, row) => {
                let ta = &nodes[*a].value;
                let tr = &nodes[*row].value;
                let n = tr.len();
                self.accumulate(*a, |t| {
                    for (i, (x, gv)) in t.data_mut().iter_mut().zip(g.data()).enumerate() {
                        *x += gv * tr.data()[i % n];
                    }
                });
                self.accumulate(*row, |t| {
                    for (i, gv) in g.data().iter().enumerate() {
                        t.data_mut()[i % n] += gv * ta.data()[i];
                    }
                });
            }
            Op::Scale(a, s) => {
                self.accumulate(*a, |t| {
                    for (x, gv) in t.data_mut().iter_mut().zip(g.data()) {
                        *x += gv * s;
                    }
                });
            }
            Op::Relu(a) => {
                let ta = &nodes[*a].value;
                self.accumulate(*a, |t| {
                    for ((x, gv), av) in t.data_mut().iter_mut().zip(g.data()).zip(ta.data()) {
                        if *av > 0.0 {
                            *x += gv;
                        }
                    }
                });
            }
            Op::Tanh(a) => {
                let ty = &nodes[id].value;
                self.accumulate(*a, |t| {
                    for ((x, gv), yv) in t.data_mut().iter_mut().zip(g.data()).zip(ty.data()) {
                        *x += gv * (1.0 - yv * yv);
                    }
                });
            }
            Op::GatherRows(a, idx) => {
                self.accumulate(*a, |t| ops::scatter_add_rows(g, idx, t));
            }
            Op::Fused { inputs, backward } => {
                let values: Vec<&Tensor> = inputs.iter().map(|&i| &nodes[i].value).collect();
                let mut gin: Vec<Tensor> = (values.iter())
                    .map(|v| tape.buffer(v.len(), |t| t.reset(v.shape(), 0.0)))
                    .collect();
                backward(&values, &nodes[id].value, g, &mut gin);
                for (&i, gi) in inputs.iter().zip(&gin) {
                    self.accumulate(i, |t| t.add_assign(gi));
                }
                tape.give(gin);
            }
            Op::ConcatCols(a, b) => {
                let (p, q) = (nodes[*a].value.cols(), nodes[*b].value.cols());
                let m = nodes[*a].value.rows();
                self.accumulate(*a, |t| {
                    for r in 0..m {
                        for c in 0..p {
                            t.data_mut()[r * p + c] += g.data()[r * (p + q) + c];
                        }
                    }
                });
                self.accumulate(*b, |t| {
                    for r in 0..m {
                        for c in 0..q {
                            t.data_mut()[r * q + c] += g.data()[r * (p + q) + p + c];
                        }
                    }
                });
            }
            Op::Conv2d { x, w, pad } => {
                let tx = &nodes[*x].value;
                let tw = &nodes[*w].value;
                let (cin, h, wd) = rank3(tx);
                let ws = tw.shape();
                let (cout, kh, kw) = (ws[0], ws[2], ws[3]);
                let (oh, ow) = (h + 2 * pad + 1 - kh, wd + 2 * pad + 1 - kw);
                let (pad, k) = (*pad, cin * kh * kw);
                // Both gradients route through the forward's im2col matrix:
                //   gw = g₂d · colᵀ        [cout, cin·kh·kw]
                //   gx = col2im(w₂dᵀ · g₂d) [cin, h, w]
                // so the heavy lifting is two blocked matmuls; the
                // im2col matrix is recomputed rather than kept alive on the
                // tape (memory over speed — one col per graph node would
                // dominate the tape's footprint).
                let col = tape.buffer(k * oh * ow, |t| im2col(tx, kh, kw, pad, oh, ow, t));
                let g2d = tape.buffer(g.len(), |t| {
                    t.copy_from(g);
                    t.reshape_in_place(&[cout, oh * ow]);
                });
                let col_t = tape.buffer(col.len(), |t| col.transpose_view_into(k, oh * ow, t));
                let gw2d = tape.buffer(cout * k, |t| g2d.matmul_into(&col_t, t));
                let w2d_t = tape.buffer(tw.len(), |t| tw.transpose_view_into(cout, k, t));
                let gcol = tape.buffer(col.len(), |t| w2d_t.matmul_into(&g2d, t));
                self.accumulate(*x, |gx| col2im(&gcol, cin, h, wd, kh, kw, pad, gx));
                self.accumulate(*w, |gw| {
                    for (dst, src) in gw.data_mut().iter_mut().zip(gw2d.data()) {
                        *dst += src;
                    }
                });
                tape.give([col, g2d, col_t, gw2d, w2d_t, gcol]);
            }
            Op::MaxPool2d { x, argmax } => {
                self.accumulate(*x, |t| {
                    for (oi, &ii) in argmax.iter().enumerate() {
                        t.data_mut()[ii as usize] += g.data()[oi];
                    }
                });
            }
            Op::Reshape(a) => {
                self.accumulate(*a, |t| {
                    for (x, gv) in t.data_mut().iter_mut().zip(g.data()) {
                        *x += gv;
                    }
                });
            }
            Op::Mean(a) => {
                let n = nodes[*a].value.len() as f32;
                let gv = g.data()[0] / n;
                self.accumulate(*a, |t| {
                    for x in t.data_mut() {
                        *x += gv;
                    }
                });
            }
        }
    }
}

impl<'t> Var<'t> {
    /// Node index on the tape (for debugging).
    pub fn id(self) -> usize {
        self.id
    }

    /// Records a node whose value is `f(self, out)` over this var's
    /// tensor, with room for `len` elements.
    fn unary(self, len: usize, op: Op, f: impl FnOnce(&Tensor, &mut Tensor)) -> Var<'t> {
        self.tape.record(len, op, |nodes, out| f(&nodes[self.id].value, out))
    }

    /// Records a node whose value is `f(self, other, out)`, with room for
    /// `len` elements.
    fn binary(
        self,
        other: Var<'t>,
        len: usize,
        op: Op,
        f: impl FnOnce(&Tensor, &Tensor, &mut Tensor),
    ) -> Var<'t> {
        self.tape.record(len, op, |nodes, out| {
            f(&nodes[self.id].value, &nodes[other.id].value, out);
        })
    }

    /// Element count of this var's value.
    fn len(self) -> usize {
        self.tape.len_of(self.id)
    }

    /// Matrix product.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matmul(self, other: Var<'t>) -> Var<'t> {
        let len = {
            let nodes = self.tape.nodes.borrow();
            nodes[self.id].value.rows() * nodes[other.id].value.cols()
        };
        self.binary(other, len, Op::MatMul(self.id, other.id), ops::matmul)
    }

    /// Elementwise sum (same shape).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Var<'t>) -> Var<'t> {
        self.binary(other, self.len(), Op::Add(self.id, other.id), ops::add)
    }

    /// Adds a rank-1 row vector to every row of a matrix (bias add).
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.cols()`.
    pub fn add_row(self, row: Var<'t>) -> Var<'t> {
        self.binary(row, self.len(), Op::AddRow(self.id, row.id), ops::add_row)
    }

    /// Adds a per-channel bias `[C]` to a feature map `[C, H, W]`.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != C`.
    pub fn add_channel(self, bias: Var<'t>) -> Var<'t> {
        self.binary(bias, self.len(), Op::AddChannel(self.id, bias.id), ops::add_channel)
    }

    /// Elementwise difference (same shape).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Var<'t>) -> Var<'t> {
        self.binary(other, self.len(), Op::Sub(self.id, other.id), ops::sub)
    }

    /// Elementwise (Hadamard) product — the paper's Equation 6 masking.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Var<'t>) -> Var<'t> {
        self.binary(other, self.len(), Op::Mul(self.id, other.id), ops::mul)
    }

    /// Multiplies every row of a matrix by a rank-1 vector (broadcast
    /// Hadamard — each endpoint mask row times the shared layout map): the
    /// dense reference of the model's masked readout.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.cols()`.
    pub fn mul_row(self, row: Var<'t>) -> Var<'t> {
        self.binary(row, self.len(), Op::MulRow(self.id, row.id), ops::mul_row)
    }

    /// Scalar multiple.
    pub fn scale(self, s: f32) -> Var<'t> {
        self.unary(self.len(), Op::Scale(self.id, s), |x, out| ops::scale(x, s, out))
    }

    /// Rectified linear unit.
    pub fn relu(self) -> Var<'t> {
        self.unary(self.len(), Op::Relu(self.id), ops::relu)
    }

    /// Hyperbolic tangent.
    pub fn tanh(self) -> Var<'t> {
        self.unary(self.len(), Op::Tanh(self.id), ops::tanh_to)
    }

    /// Reshaped view (copy) with identical element count.
    ///
    /// # Panics
    ///
    /// Panics if volumes differ.
    pub fn reshape(self, shape: &[usize]) -> Var<'t> {
        self.unary(self.len(), Op::Reshape(self.id), |x, out| ops::reshape(x, shape, out))
    }

    /// Mean of all elements (scalar output).
    pub fn mean(self) -> Var<'t> {
        self.unary(1, Op::Mean(self.id), ops::mean)
    }
}

/// The tape is the training backend of the [`Exec`] abstraction: every op
/// records a node so [`Tape::backward`] can differentiate through it.
/// All methods delegate to the inherent `Tape`/[`Var`] API.
impl<'t> Exec for &'t Tape {
    type Value = Var<'t>;

    fn constant(self, t: Tensor) -> Var<'t> {
        Tape::constant(self, t)
    }

    fn param(self, store: &ParamStore, id: ParamId) -> Var<'t> {
        Tape::param(self, store, id)
    }

    fn value(self, v: Var<'t>) -> Tensor {
        Tape::value(self, v)
    }

    fn len(self, v: Var<'t>) -> usize {
        self.len_of(v.id)
    }

    fn matmul(self, a: Var<'t>, b: Var<'t>) -> Var<'t> {
        a.matmul(b)
    }

    fn add(self, a: Var<'t>, b: Var<'t>) -> Var<'t> {
        a.add(b)
    }

    fn add_row(self, a: Var<'t>, row: Var<'t>) -> Var<'t> {
        a.add_row(row)
    }

    fn add_channel(self, x: Var<'t>, bias: Var<'t>) -> Var<'t> {
        x.add_channel(bias)
    }

    fn sub(self, a: Var<'t>, b: Var<'t>) -> Var<'t> {
        a.sub(b)
    }

    fn mul(self, a: Var<'t>, b: Var<'t>) -> Var<'t> {
        a.mul(b)
    }

    fn mul_row(self, a: Var<'t>, row: Var<'t>) -> Var<'t> {
        a.mul_row(row)
    }

    fn scale(self, x: Var<'t>, s: f32) -> Var<'t> {
        x.scale(s)
    }

    fn relu(self, x: Var<'t>) -> Var<'t> {
        x.relu()
    }

    fn tanh(self, x: Var<'t>) -> Var<'t> {
        x.tanh()
    }

    fn reshape(self, x: Var<'t>, shape: &[usize]) -> Var<'t> {
        x.reshape(shape)
    }

    fn mean(self, x: Var<'t>) -> Var<'t> {
        x.mean()
    }

    fn concat_cols(self, a: Var<'t>, b: Var<'t>) -> Var<'t> {
        Tape::concat_cols(self, a, b)
    }

    fn conv2d(self, x: Var<'t>, w: Var<'t>, pad: usize) -> Var<'t> {
        Tape::conv2d(self, x, w, pad)
    }

    fn maxpool2d(self, x: Var<'t>, size: usize) -> Var<'t> {
        Tape::maxpool2d(self, x, size)
    }
}

/// Mean-squared-error loss between same-shape tensors — the paper's
/// Equation 2.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn mse<'t>(_tape: &'t Tape, pred: Var<'t>, target: Var<'t>) -> Var<'t> {
    let diff = pred.sub(target);
    diff.mul(diff).mean()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn t2(rows: &[&[f32]]) -> Tensor {
        Tensor::from_rows(rows)
    }

    #[test]
    fn forward_values() {
        let tape = Tape::new();
        let a = tape.constant(t2(&[&[1.0, -2.0], &[3.0, 4.0]]));
        let b = tape.constant(t2(&[&[1.0, 1.0], &[1.0, 1.0]]));
        assert_eq!(tape.value(a.add(b)).data(), &[2.0, -1.0, 4.0, 5.0]);
        assert_eq!(tape.value(a.relu()).data(), &[1.0, 0.0, 3.0, 4.0]);
        assert_eq!(tape.value(a.scale(2.0)).data(), &[2.0, -4.0, 6.0, 8.0]);
        assert_eq!(tape.value(a.mean()).data(), &[1.5]);
        assert_eq!(tape.value(tape.gather_rows(a, &[1, 0])).data(), &[3.0, 4.0, 1.0, -2.0]);
    }

    #[test]
    fn concat_cols_interleaves_rows() {
        let tape = Tape::new();
        let a = tape.constant(t2(&[&[1.0], &[2.0]]));
        let b = tape.constant(t2(&[&[3.0], &[4.0]]));
        let c = tape.concat_cols(a, b);
        assert_eq!(tape.value(c).data(), &[1.0, 3.0, 2.0, 4.0]);
    }

    #[test]
    fn conv_identity_kernel() {
        let tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(&[1, 3, 3], (1..=9).map(|v| v as f32).collect()));
        // 1x1 kernel with weight 2: doubles the map.
        let w = tape.constant(Tensor::from_vec(&[1, 1, 1, 1], vec![2.0]));
        let y = tape.conv2d(x, w, 0);
        assert_eq!(tape.value(y).shape(), &[1, 3, 3]);
        assert_eq!(tape.value(y).data()[4], 10.0);
    }

    #[test]
    fn conv_same_padding_shape() {
        let tape = Tape::new();
        let x = tape.constant(Tensor::zeros(&[3, 8, 8]));
        let w = tape.constant(Tensor::zeros(&[5, 3, 3, 3]));
        let y = tape.conv2d(x, w, 1);
        assert_eq!(tape.value(y).shape(), &[5, 8, 8]);
    }

    #[test]
    fn maxpool_picks_maxima() {
        let tape = Tape::new();
        let x = tape
            .constant(Tensor::from_vec(&[1, 2, 4], vec![1.0, 5.0, 2.0, 0.0, 3.0, -1.0, 9.0, 2.0]));
        let y = tape.maxpool2d(x, 2);
        assert_eq!(tape.value(y).shape(), &[1, 1, 2]);
        assert_eq!(tape.value(y).data(), &[5.0, 9.0]);
    }

    #[test]
    fn mse_of_equal_tensors_is_zero() {
        let tape = Tape::new();
        let a = tape.constant(t2(&[&[1.0, 2.0]]));
        let b = tape.constant(t2(&[&[1.0, 2.0]]));
        assert_eq!(tape.value(mse(&tape, a, b)).data(), &[0.0]);
    }

    #[test]
    fn backward_through_simple_chain() {
        // loss = mean((2x)^2), dloss/dx = 8x / n
        let tape = Tape::new();
        let x = tape.constant(t2(&[&[1.0, -3.0]]));
        let y = x.scale(2.0);
        let loss = y.mul(y).mean();
        let grads = tape.backward(loss);
        let gx = grads.wrt(x.id()).unwrap();
        assert!((gx.data()[0] - 4.0).abs() < 1e-5);
        assert!((gx.data()[1] + 12.0).abs() < 1e-5);
    }

    /// Central finite-difference gradient check of a scalar-valued function
    /// of one tensor input.
    fn grad_check<F>(shape: &[usize], f: F)
    where
        F: for<'a> Fn(&'a Tape, Var<'a>) -> Var<'a>,
    {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let x0 = Tensor::uniform(&mut rng, shape, 1.0);

        let eval = |t: &Tensor| -> f32 {
            let tape = Tape::new();
            let x = tape.constant(t.clone());
            tape.value(f(&tape, x)).data()[0]
        };

        let tape = Tape::new();
        let x = tape.constant(x0.clone());
        let loss = f(&tape, x);
        let grads = tape.backward(loss);
        let analytic = grads.wrt(x.id()).expect("input grad").clone();

        let eps = 3e-3;
        for i in 0..x0.len() {
            let mut plus = x0.clone();
            plus.data_mut()[i] += eps;
            let mut minus = x0.clone();
            minus.data_mut()[i] -= eps;
            let numeric = (eval(&plus) - eval(&minus)) / (2.0 * eps);
            let a = analytic.data()[i];
            assert!(
                (numeric - a).abs() <= 2e-2 * (1.0 + numeric.abs().max(a.abs())),
                "element {i}: numeric {numeric} vs analytic {a}"
            );
        }
    }

    #[test]
    fn grad_check_matmul() {
        grad_check(&[3, 4], |tape, x| {
            let w = tape.constant(Tensor::full(&[4, 2], 0.5));
            x.matmul(w).mul(x.matmul(w)).mean()
        });
    }

    #[test]
    fn grad_check_relu_tanh() {
        grad_check(&[2, 5], |_tape, x| x.relu().tanh().mean());
    }

    #[test]
    fn grad_check_add_row_mul_row() {
        grad_check(&[3, 4], |tape, x| {
            let r = tape.constant(Tensor::from_vec(&[4], vec![0.5, -1.0, 2.0, 0.1]));
            x.add_row(r).mul_row(r).mean()
        });
    }

    #[test]
    fn grad_check_concat_cols() {
        grad_check(&[2, 3], |tape, x| {
            let cols = tape.concat_cols(x, x.scale(2.0));
            cols.mul(cols).mean()
        });
    }

    #[test]
    fn grad_check_conv_pool() {
        grad_check(&[2, 4, 4], |tape, x| {
            let w = tape.constant(Tensor::full(&[3, 2, 3, 3], 0.2));
            let b = tape.constant(Tensor::from_vec(&[3], vec![0.1, -0.1, 0.2]));
            let y = tape.conv2d(x, w, 1).add_channel(b).relu();
            let p = tape.maxpool2d(y, 2);
            p.mul(p).mean()
        });
    }

    #[test]
    fn grad_check_gather_reshape_sub() {
        grad_check(&[2, 6], |tape, x| {
            // Row 1 is gathered twice: its gradient sums both copies.
            let y = tape.gather_rows(x, &[1, 0, 1]).reshape(&[6, 3]);
            let z = tape.constant(Tensor::full(&[6, 3], 0.3));
            let d = y.sub(z);
            d.mul(d).mean()
        });
    }

    #[test]
    fn grads_accumulate_on_reuse() {
        // loss = mean(x + x) -> dloss/dx = 2/n each.
        let tape = Tape::new();
        let x = tape.constant(t2(&[&[1.0, 1.0]]));
        let loss = x.add(x).mean();
        let grads = tape.backward(loss);
        let gx = grads.wrt(x.id()).unwrap();
        assert!((gx.data()[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn a_parameter_used_twice_sums_both_gradients() {
        // loss = 2w + 5w -> dloss/dw = 7.
        let mut store = ParamStore::new();
        let id = store.register(Tensor::from_vec(&[1], vec![1.0]));
        let tape = Tape::new();
        let loss = tape.param(&store, id).scale(2.0).add(tape.param(&store, id).scale(5.0));
        let grads = tape.backward(loss);
        assert_eq!(grads.of(id).unwrap().data(), &[7.0]);
    }

    #[test]
    fn a_repeated_pass_takes_the_buffers_of_the_previous_one() {
        // In the first pass the 6 takes the given-back 10. Smallest-first
        // alone would hand it the spare 7 in the second pass, the 7 would
        // take the 10, and the last 10 would find no spare with room.
        let pass = |arena| {
            let tape = Tape::with_arena(arena);
            let take = |len: usize| tape.buffer(len, |t| t.reset(&[len], 0.0));
            tape.give([take(10)]);
            let (six, seven) = (take(6), take(7));
            tape.give([six]);
            let ten = take(10);
            tape.give([seven, ten]);
            let arena = tape.into_arena();
            let mut capacities: Vec<usize> = arena.spares.iter().map(Tensor::capacity).collect();
            capacities.sort_unstable();
            (capacities, arena)
        };
        let (first, arena) = pass(TapeArena::default());
        assert_eq!(first, [7, 10]);
        assert_eq!(pass(arena).0, first, "the second pass allocated");
    }

    #[test]
    #[should_panic(expected = "loss must be scalar")]
    fn backward_requires_scalar() {
        let tape = Tape::new();
        let x = tape.constant(t2(&[&[1.0, 2.0]]));
        let _ = tape.backward(x);
    }
}
