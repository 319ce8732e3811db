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
    /// `argmax[s * d + c]` is the input row that won output element
    /// `(s, c)`, or `u32::MAX` where no row did (the element is zero).
    SegmentMaxCsr {
        x: usize,
        argmax: Vec<u32>,
    },
    SegmentSumCsr {
        x: usize,
        seg_off: Vec<u32>,
        scale: Vec<f32>,
    },
    /// In-place write into node `dst`; the scatter node itself holds no
    /// value (see [`Tape::scatter_rows`]).
    ScatterRows {
        src: usize,
        src_row0: usize,
        dst: usize,
        rows: Vec<u32>,
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

/// A define-by-run tape: forward ops append nodes; [`Tape::backward`]
/// sweeps them in reverse to produce [`Grads`].
#[derive(Default)]
pub struct Tape {
    nodes: RefCell<Vec<Node>>,
    /// Bytes of tensor data appended to the tape arena since the last
    /// flush; tallied lock-free here and flushed to the global
    /// `nn::tape_bytes` counter in [`Tape::backward`] / `Drop`.
    pending_bytes: Cell<u64>,
    /// Recycled im2col scratch shared by every [`Tape::conv2d`] on this
    /// tape: the col matrix is transient (only the conv output is kept as
    /// a node), so one buffer sized for the largest conv serves all calls
    /// instead of regrowing a fresh allocation per invocation.
    conv_col: RefCell<Tensor>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&self, value: Tensor, op: Op) -> Var<'_> {
        self.pending_bytes.set(self.pending_bytes.get() + 4 * value.len() as u64);
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node { value, op });
        Var { tape: self, id: nodes.len() - 1 }
    }

    /// Moves the locally tallied arena bytes into the global counter.
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

    /// Adds a non-trainable input leaf.
    pub fn constant(&self, value: Tensor) -> Var<'_> {
        self.push(value, Op::Leaf { param: None })
    }

    /// Injects a trainable parameter from `store` as a leaf; its gradient
    /// will be retrievable from [`Grads::of`] after `backward`.
    pub fn param(&self, store: &ParamStore, id: ParamId) -> Var<'_> {
        self.push(store.value(id).clone(), Op::Leaf { param: Some(id) })
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
        let mut out = Tensor::default();
        ops::gather_rows_flat(&self.nodes.borrow()[x.id].value, idx, &mut out);
        self.push(out, Op::GatherRows(x.id, idx.to_vec()))
    }

    /// Per-segment column-wise maximum over CSR runs: segment `s` reduces
    /// rows `seg_off[s]..seg_off[s + 1]` of `x` (the paper's `max`
    /// aggregation for cell nodes). Empty segments produce zero rows.
    ///
    /// The value comes from the serving kernel [`ops::segment_max_csr`];
    /// the node also keeps the winning row of every output element for
    /// the backward pass. The kernel selects on strict `>` in ascending
    /// row order, so the winner is the first row of the run equal to the
    /// output; a zeroed element (empty segment, or no row beat `-inf`)
    /// has no equal row and routes no gradient.
    ///
    /// # Panics
    ///
    /// Panics if `seg_off` is not a CSR offset array over `x`'s rows.
    pub fn segment_max_csr<'t>(&'t self, x: Var<'t>, seg_off: &[u32]) -> Var<'t> {
        let mut out = Tensor::default();
        let argmax = {
            let nodes = self.nodes.borrow();
            let src = &nodes[x.id].value;
            ops::segment_max_csr(src, seg_off, &mut out);
            let d = src.cols();
            let mut argmax = vec![u32::MAX; out.len()];
            for (s, w) in seg_off.windows(2).enumerate() {
                for c in 0..d {
                    let best = out.at(s, c);
                    argmax[s * d + c] =
                        (w[0]..w[1]).find(|&r| src.at(r as usize, c) == best).unwrap_or(u32::MAX);
                }
            }
            argmax
        };
        self.push(out, Op::SegmentMaxCsr { x: x.id, argmax })
    }

    /// Per-segment column-wise sum over CSR runs, with segment `s`'s row
    /// then multiplied by `scale[s]` (`1 / max(fanin, 1)` gives the mean
    /// aggregation). Empty segments produce zero rows. The value comes
    /// from [`ops::segment_sum_csr`] and [`ops::scale_rows_in_place`].
    ///
    /// # Panics
    ///
    /// Panics if `seg_off` is not a CSR offset array over `x`'s rows or
    /// `scale` does not hold one factor per segment.
    pub fn segment_sum_csr<'t>(&'t self, x: Var<'t>, seg_off: &[u32], scale: &[f32]) -> Var<'t> {
        let mut out = Tensor::default();
        ops::segment_sum_csr(&self.nodes.borrow()[x.id].value, seg_off, &mut out);
        ops::scale_rows_in_place(&mut out, scale);
        let op = Op::SegmentSumCsr { x: x.id, seg_off: seg_off.to_vec(), scale: scale.to_vec() };
        self.push(out, op)
    }

    /// Writes row `src_row0 + i` of `src` over row `rows[i]` of `dst`, in
    /// place: the level scatter of the flat GNN plan, which fills one
    /// `[total_rows, d]` matrix per pass instead of recording a copy per
    /// level.
    ///
    /// Because later scatters change `dst`'s value, `dst` must only be
    /// read through [`Tape::gather_rows`], whose backward never looks at
    /// input values. The backward pass visits this node after every op
    /// recorded later, so the written rows' gradients are complete when it
    /// hands them to `src`; it then zeroes them on `dst`, so a read that
    /// happened before the write routes its gradient to the value it saw.
    ///
    /// # Panics
    ///
    /// Panics if `src` is `dst`, a row index is out of range, or the
    /// column counts differ.
    pub fn scatter_rows<'t>(&'t self, src: Var<'t>, src_row0: usize, rows: &[u32], dst: Var<'t>) {
        assert_ne!(src.id, dst.id, "scatter_rows source and target must differ");
        {
            let mut nodes = self.nodes.borrow_mut();
            let mut target = std::mem::take(&mut nodes[dst.id].value);
            ops::scatter_rows(&nodes[src.id].value, src_row0, rows, &mut target);
            nodes[dst.id].value = target;
        }
        let op = Op::ScatterRows { src: src.id, src_row0, dst: dst.id, rows: rows.to_vec() };
        self.push(Tensor::default(), op);
    }

    /// Concatenates `a` and `b` side by side (matrices with equal rows) —
    /// the paper's multimodal fusion `[v_n ; v_l]`.
    ///
    /// # Panics
    ///
    /// Panics on row mismatch.
    pub fn concat_cols<'t>(&'t self, a: Var<'t>, b: Var<'t>) -> Var<'t> {
        let mut out = Tensor::default();
        {
            let nodes = self.nodes.borrow();
            ops::concat_cols(&nodes[a.id].value, &nodes[b.id].value, &mut out);
        }
        self.push(out, Op::ConcatCols(a.id, b.id))
    }

    /// 2-D convolution, stride 1: `x` is `[C_in, H, W]`, `w` is
    /// `[C_out, C_in, kh, kw]`, output `[C_out, H', W']` with
    /// `H' = H + 2·pad - kh + 1`.
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatch or if the kernel exceeds the padded
    /// input.
    pub fn conv2d<'t>(&'t self, x: Var<'t>, w: Var<'t>, pad: usize) -> Var<'t> {
        let mut out = Tensor::default();
        {
            let mut col = self.conv_col.borrow_mut();
            let nodes = self.nodes.borrow();
            ops::conv2d(&nodes[x.id].value, &nodes[w.id].value, pad, &mut col, &mut out);
        }
        self.push(out, Op::Conv2d { x: x.id, w: w.id, pad })
    }

    /// Max pooling with a square window and equal stride over `[C, H, W]`.
    ///
    /// # Panics
    ///
    /// Panics if `size` does not divide H and W.
    pub fn maxpool2d<'t>(&'t self, x: Var<'t>, size: usize) -> Var<'t> {
        let mut out = Tensor::default();
        let mut argmax = Vec::new();
        ops::maxpool2d(&self.nodes.borrow()[x.id].value, size, &mut out, &mut argmax);
        self.push(out, Op::MaxPool2d { x: x.id, argmax })
    }

    /// Runs the reverse sweep from scalar `loss` and collects gradients.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a single-element tensor.
    pub fn backward(&self, loss: Var<'_>) -> Grads {
        rtt_obs::span!("nn::backward");
        self.flush_bytes();
        let nodes = self.nodes.borrow();
        assert_eq!(nodes[loss.id].value.len(), 1, "loss must be scalar");
        let mut grads: Vec<Option<Tensor>> = vec![None; nodes.len()];
        grads[loss.id] = Some(Tensor::full(nodes[loss.id].value.shape(), 1.0));

        for id in (0..nodes.len()).rev() {
            if let Op::ScatterRows { src, src_row0, dst, rows } = &nodes[id].op {
                scatter_backward(&nodes, (*src, *src_row0), (*dst, rows), &mut grads);
                continue;
            }
            let Some(g) = grads[id].take() else { continue };
            backward_node(&nodes, id, &g, &mut grads);
            grads[id] = Some(g);
        }

        let mut out = Grads::default();
        for (id, node) in nodes.iter().enumerate() {
            if let Op::Leaf { param: Some(pid) } = node.op {
                if let Some(g) = grads[id].take() {
                    out.insert_param(pid, g);
                }
            }
        }
        out.set_var_grads(grads);
        out
    }
}

impl Drop for Tape {
    fn drop(&mut self) {
        // Forward-only tapes (prediction) never reach `backward`; account
        // for their arena here.
        self.flush_bytes();
    }
}

fn accumulate(slot: &mut Option<Tensor>, shape: &[usize], add: impl FnOnce(&mut Tensor)) {
    let g = slot.get_or_insert_with(|| Tensor::zeros(shape));
    add(g);
}

/// Backward of [`Tape::scatter_rows`]: moves the gradient of each written
/// `dst` row onto its `src` row and zeroes it on `dst` (the overwritten
/// value it replaced received none of it).
fn scatter_backward(
    nodes: &[Node],
    (src, src_row0): (usize, usize),
    (dst, rows): (usize, &[u32]),
    grads: &mut [Option<Tensor>],
) {
    let Some(mut gd) = grads[dst].take() else { return };
    let d = gd.cols();
    accumulate(&mut grads[src], nodes[src].value.shape(), |t| {
        for (i, &r) in rows.iter().enumerate() {
            let from = &mut gd.data_mut()[r as usize * d..(r as usize + 1) * d];
            let to = &mut t.data_mut()[(src_row0 + i) * d..(src_row0 + i + 1) * d];
            for (x, gv) in to.iter_mut().zip(from.iter()) {
                *x += gv;
            }
            from.fill(0.0);
        }
    });
    grads[dst] = Some(gd);
}

#[allow(clippy::too_many_lines)]
fn backward_node(nodes: &[Node], id: usize, g: &Tensor, grads: &mut [Option<Tensor>]) {
    match &nodes[id].op {
        Op::Leaf { .. } => {}
        Op::MatMul(a, b) => {
            let (ta, tb) = (&nodes[*a].value, &nodes[*b].value);
            let ga = g.matmul(&tb.transposed());
            let gb = ta.transposed().matmul(g);
            accumulate(&mut grads[*a], ta.shape(), |t| t.add_assign(&ga));
            accumulate(&mut grads[*b], tb.shape(), |t| t.add_assign(&gb));
        }
        Op::Add(a, b) => {
            for src in [a, b] {
                accumulate(&mut grads[*src], nodes[*src].value.shape(), |t| t.add_assign(g));
            }
        }
        Op::Sub(a, b) => {
            accumulate(&mut grads[*a], nodes[*a].value.shape(), |t| t.add_assign(g));
            accumulate(&mut grads[*b], nodes[*b].value.shape(), |t| {
                for (x, y) in t.data_mut().iter_mut().zip(g.data()) {
                    *x -= y;
                }
            });
        }
        Op::AddRow(a, row) => {
            accumulate(&mut grads[*a], nodes[*a].value.shape(), |t| t.add_assign(g));
            let n = nodes[*row].value.len();
            accumulate(&mut grads[*row], nodes[*row].value.shape(), |t| {
                for (i, v) in g.data().iter().enumerate() {
                    t.data_mut()[i % n] += v;
                }
            });
        }
        Op::AddChannel(x, b) => {
            accumulate(&mut grads[*x], nodes[*x].value.shape(), |t| t.add_assign(g));
            let (c, h, w) = rank3(&nodes[*x].value);
            accumulate(&mut grads[*b], nodes[*b].value.shape(), |t| {
                for ch in 0..c {
                    let s: f32 = g.data()[ch * h * w..(ch + 1) * h * w].iter().sum();
                    t.data_mut()[ch] += s;
                }
            });
        }
        Op::Mul(a, b) => {
            let (ta, tb) = (&nodes[*a].value, &nodes[*b].value);
            accumulate(&mut grads[*a], ta.shape(), |t| {
                for ((x, gv), bv) in t.data_mut().iter_mut().zip(g.data()).zip(tb.data()) {
                    *x += gv * bv;
                }
            });
            accumulate(&mut grads[*b], tb.shape(), |t| {
                for ((x, gv), av) in t.data_mut().iter_mut().zip(g.data()).zip(ta.data()) {
                    *x += gv * av;
                }
            });
        }
        Op::MulRow(a, row) => {
            let ta = &nodes[*a].value;
            let tr = &nodes[*row].value;
            let n = tr.len();
            accumulate(&mut grads[*a], ta.shape(), |t| {
                for (i, (x, gv)) in t.data_mut().iter_mut().zip(g.data()).enumerate() {
                    *x += gv * tr.data()[i % n];
                }
            });
            accumulate(&mut grads[*row], tr.shape(), |t| {
                for (i, gv) in g.data().iter().enumerate() {
                    t.data_mut()[i % n] += gv * ta.data()[i];
                }
            });
        }
        Op::Scale(a, s) => {
            accumulate(&mut grads[*a], nodes[*a].value.shape(), |t| {
                for (x, gv) in t.data_mut().iter_mut().zip(g.data()) {
                    *x += gv * s;
                }
            });
        }
        Op::Relu(a) => {
            let ta = &nodes[*a].value;
            accumulate(&mut grads[*a], ta.shape(), |t| {
                for ((x, gv), av) in t.data_mut().iter_mut().zip(g.data()).zip(ta.data()) {
                    if *av > 0.0 {
                        *x += gv;
                    }
                }
            });
        }
        Op::Tanh(a) => {
            let ty = &nodes[id].value;
            accumulate(&mut grads[*a], nodes[*a].value.shape(), |t| {
                for ((x, gv), yv) in t.data_mut().iter_mut().zip(g.data()).zip(ty.data()) {
                    *x += gv * (1.0 - yv * yv);
                }
            });
        }
        Op::GatherRows(a, idx) => {
            let d = nodes[*a].value.cols();
            accumulate(&mut grads[*a], nodes[*a].value.shape(), |t| {
                for (i, &r) in idx.iter().enumerate() {
                    let dst = &mut t.data_mut()[r as usize * d..(r as usize + 1) * d];
                    for (x, gv) in dst.iter_mut().zip(&g.data()[i * d..(i + 1) * d]) {
                        *x += gv;
                    }
                }
            });
        }
        Op::SegmentMaxCsr { x, argmax } => {
            let d = nodes[*x].value.cols();
            accumulate(&mut grads[*x], nodes[*x].value.shape(), |t| {
                for (oi, &r) in argmax.iter().enumerate() {
                    if r != u32::MAX {
                        t.data_mut()[r as usize * d + oi % d] += g.data()[oi];
                    }
                }
            });
        }
        Op::SegmentSumCsr { x, seg_off, scale } => {
            let d = nodes[*x].value.cols();
            accumulate(&mut grads[*x], nodes[*x].value.shape(), |t| {
                for (s, (w, &f)) in seg_off.windows(2).zip(scale).enumerate() {
                    let gs = &g.data()[s * d..(s + 1) * d];
                    for r in w[0] as usize..w[1] as usize {
                        for (x, gv) in t.data_mut()[r * d..(r + 1) * d].iter_mut().zip(gs) {
                            *x += gv * f;
                        }
                    }
                }
            });
        }
        Op::ScatterRows { .. } => unreachable!("scatter nodes are handled by scatter_backward"),
        Op::ConcatCols(a, b) => {
            let (p, q) = (nodes[*a].value.cols(), nodes[*b].value.cols());
            let m = nodes[*a].value.rows();
            accumulate(&mut grads[*a], nodes[*a].value.shape(), |t| {
                for r in 0..m {
                    for c in 0..p {
                        t.data_mut()[r * p + c] += g.data()[r * (p + q) + c];
                    }
                }
            });
            accumulate(&mut grads[*b], nodes[*b].value.shape(), |t| {
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
            let ws = tw.shape().to_vec();
            let (cout, kh, kw) = (ws[0], ws[2], ws[3]);
            let (oh, ow) = (h + 2 * pad + 1 - kh, wd + 2 * pad + 1 - kw);
            let pad = *pad;
            // Both gradients route through the forward's im2col matrix:
            //   gw = g₂d · colᵀ        [cout, cin·kh·kw]
            //   gx = col2im(w₂dᵀ · g₂d) [cin, h, w]
            // so the heavy lifting is two blocked/parallel matmuls; the
            // im2col matrix is recomputed rather than kept alive on the
            // tape (memory over speed — one col per graph node would
            // dominate the tape's footprint).
            let mut col = Tensor::default();
            im2col(tx, kh, kw, pad, oh, ow, &mut col);
            let g2d = Tensor::from_vec(&[cout, oh * ow], g.data().to_vec());
            let w2d = Tensor::from_vec(&[cout, cin * kh * kw], tw.data().to_vec());
            let gw2d = g2d.matmul(&col.transposed());
            let gcol = w2d.transposed().matmul(&g2d);
            accumulate(&mut grads[*x], tx.shape(), |gx| {
                col2im(&gcol, cin, h, wd, kh, kw, pad, gx);
            });
            accumulate(&mut grads[*w], tw.shape(), |gw| {
                for (dst, src) in gw.data_mut().iter_mut().zip(gw2d.data()) {
                    *dst += src;
                }
            });
        }
        Op::MaxPool2d { x, argmax } => {
            accumulate(&mut grads[*x], nodes[*x].value.shape(), |t| {
                for (oi, &ii) in argmax.iter().enumerate() {
                    t.data_mut()[ii as usize] += g.data()[oi];
                }
            });
        }
        Op::Reshape(a) => {
            accumulate(&mut grads[*a], nodes[*a].value.shape(), |t| {
                for (x, gv) in t.data_mut().iter_mut().zip(g.data()) {
                    *x += gv;
                }
            });
        }
        Op::Mean(a) => {
            let n = nodes[*a].value.len() as f32;
            let gv = g.data()[0] / n;
            accumulate(&mut grads[*a], nodes[*a].value.shape(), |t| {
                for x in t.data_mut() {
                    *x += gv;
                }
            });
        }
    }
}

impl<'t> Var<'t> {
    /// Node index on the tape (for debugging).
    pub fn id(self) -> usize {
        self.id
    }

    /// Records a node whose value is `f(self, out)` over this var's tensor.
    fn unary(self, op: Op, f: impl FnOnce(&Tensor, &mut Tensor)) -> Var<'t> {
        let mut out = Tensor::default();
        f(&self.tape.nodes.borrow()[self.id].value, &mut out);
        self.tape.push(out, op)
    }

    /// Records a node whose value is `f(self, other, out)`.
    fn binary(
        self,
        other: Var<'t>,
        op: Op,
        f: impl FnOnce(&Tensor, &Tensor, &mut Tensor),
    ) -> Var<'t> {
        let mut out = Tensor::default();
        {
            let nodes = self.tape.nodes.borrow();
            f(&nodes[self.id].value, &nodes[other.id].value, &mut out);
        }
        self.tape.push(out, op)
    }

    /// Matrix product.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matmul(self, other: Var<'t>) -> Var<'t> {
        self.binary(other, Op::MatMul(self.id, other.id), ops::matmul)
    }

    /// Elementwise sum (same shape).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Var<'t>) -> Var<'t> {
        self.binary(other, Op::Add(self.id, other.id), ops::add)
    }

    /// Adds a rank-1 row vector to every row of a matrix (bias add).
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.cols()`.
    pub fn add_row(self, row: Var<'t>) -> Var<'t> {
        self.binary(row, Op::AddRow(self.id, row.id), ops::add_row)
    }

    /// Adds a per-channel bias `[C]` to a feature map `[C, H, W]`.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != C`.
    pub fn add_channel(self, bias: Var<'t>) -> Var<'t> {
        self.binary(bias, Op::AddChannel(self.id, bias.id), ops::add_channel)
    }

    /// Elementwise difference (same shape).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Var<'t>) -> Var<'t> {
        self.binary(other, Op::Sub(self.id, other.id), ops::sub)
    }

    /// Elementwise (Hadamard) product — the paper's Equation 6 masking.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Var<'t>) -> Var<'t> {
        self.binary(other, Op::Mul(self.id, other.id), ops::mul)
    }

    /// Multiplies every row of a matrix by a rank-1 vector (broadcast
    /// Hadamard — each endpoint mask row times the shared layout map).
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.cols()`.
    pub fn mul_row(self, row: Var<'t>) -> Var<'t> {
        self.binary(row, Op::MulRow(self.id, row.id), ops::mul_row)
    }

    /// Scalar multiple.
    pub fn scale(self, s: f32) -> Var<'t> {
        self.unary(Op::Scale(self.id, s), |x, out| ops::scale(x, s, out))
    }

    /// Rectified linear unit.
    pub fn relu(self) -> Var<'t> {
        self.unary(Op::Relu(self.id), ops::relu)
    }

    /// Hyperbolic tangent.
    pub fn tanh(self) -> Var<'t> {
        self.unary(Op::Tanh(self.id), ops::tanh)
    }

    /// Reshaped view (copy) with identical element count.
    ///
    /// # Panics
    ///
    /// Panics if volumes differ.
    pub fn reshape(self, shape: &[usize]) -> Var<'t> {
        self.unary(Op::Reshape(self.id), |x, out| ops::reshape(x, shape, out))
    }

    /// Mean of all elements (scalar output).
    pub fn mean(self) -> Var<'t> {
        self.unary(Op::Mean(self.id), ops::mean)
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
        self.nodes.borrow()[v.id].value.len()
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
    }

    #[test]
    fn gather_and_csr_segment_ops() {
        let tape = Tape::new();
        let x = tape.constant(t2(&[&[1.0, 2.0], &[5.0, 0.0], &[3.0, 4.0]]));
        let g = tape.gather_rows(x, &[1, 0]);
        assert_eq!(tape.value(g).data(), &[5.0, 0.0, 1.0, 2.0]);
        // Segments: rows 0..2, the empty run 2..2, then row 2.
        let off = [0, 2, 2, 3];
        let m = tape.segment_max_csr(x, &off);
        assert_eq!(tape.value(m).data(), &[5.0, 2.0, 0.0, 0.0, 3.0, 4.0]);
        let s = tape.segment_sum_csr(x, &off, &[0.5, 1.0, 2.0]);
        assert_eq!(tape.value(s).data(), &[3.0, 1.0, 0.0, 0.0, 6.0, 8.0]);
    }

    #[test]
    fn segment_max_csr_routes_ties_to_the_first_row() {
        let tape = Tape::new();
        let x = tape.constant(t2(&[&[1.0, 7.0], &[1.0, 7.0], &[0.0, 9.0]]));
        let m = tape.segment_max_csr(x, &[0, 3]);
        let grads = tape.backward(m.mean());
        assert_eq!(grads.wrt(x.id()).unwrap().data(), &[0.5, 0.0, 0.0, 0.0, 0.0, 0.5]);
    }

    #[test]
    fn scatter_rows_writes_in_place() {
        let tape = Tape::new();
        let flat = tape.constant(Tensor::zeros(&[3, 2]));
        let a = tape.constant(t2(&[&[1.0, 2.0], &[3.0, 4.0]]));
        tape.scatter_rows(a, 1, &[0], flat);
        tape.scatter_rows(a, 0, &[2], flat);
        assert_eq!(tape.value(flat).data(), &[3.0, 4.0, 0.0, 0.0, 1.0, 2.0]);
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
    fn grad_check_gather_segment_max_csr() {
        // Row 2 is gathered twice into the first segment, so wherever it
        // wins that segment the two copies tie; the second segment is
        // empty.
        grad_check(&[4, 3], |tape, x| {
            let g = tape.gather_rows(x, &[2, 0, 2, 3, 1, 2]);
            let m = tape.segment_max_csr(g, &[0, 3, 3, 6]);
            m.mul(m).mean()
        });
    }

    #[test]
    fn grad_check_segment_sum_csr() {
        grad_check(&[4, 3], |tape, x| {
            let s = tape.segment_sum_csr(x, &[0, 1, 1, 4], &[0.5, 1.0, 1.0 / 3.0]);
            s.mul(s).mean()
        });
    }

    #[test]
    fn grad_check_scatter_rows() {
        grad_check(&[2, 3], |tape, x| {
            let flat = tape.constant(Tensor::zeros(&[3, 3]));
            tape.scatter_rows(x, 0, &[2, 0], flat);
            let y = tape.gather_rows(flat, &[0, 2, 2]).tanh();
            // Overwrite row 0: x's row written there keeps only the
            // gradient of the read above.
            tape.scatter_rows(y, 1, &[0, 1], flat);
            let out = tape.gather_rows(flat, &[0, 1, 2]);
            out.mul(out).mean()
        });
    }

    #[test]
    fn grad_check_concat_cols() {
        grad_check(&[2, 3], |tape, x| {
            let cols = tape.concat_cols(x, x.scale(2.0));
            cols.mul(cols).mean()
        });
    }

    /// One flat GNN pass driven through the tape ops the way
    /// `NetlistGnn::forward` drives them: every node owns one row of a
    /// single flat matrix, and each level gathers from earlier rows,
    /// reduces, and scatters into its own. Rows `0..3` are sources, `3..6`
    /// cells (the third has no fanin) and `6..8` net sinks. `feat` holds
    /// one feature row per node; `w` is the one weight every MLP shares.
    fn flat_gnn<'t>(
        tape: &'t Tape,
        feat: Var<'t>,
        w: Var<'t>,
        mean: bool,
        residual: bool,
    ) -> Var<'t> {
        let flat = tape.constant(Tensor::zeros(&[8, 3]));
        let src = tape.gather_rows(feat, &[0, 1, 2]).matmul(w).relu();
        tape.scatter_rows(src, 0, &[0, 1, 2], flat);

        let msgs = tape.gather_rows(flat, &[0, 2, 1]);
        let seg_off = [0, 2, 3, 3];
        let agg = if mean {
            tape.segment_sum_csr(msgs, &seg_off, &[0.5, 1.0, 1.0])
        } else {
            tape.segment_max_csr(msgs, &seg_off)
        };
        let cell_feat = tape.gather_rows(feat, &[3, 4, 5]).matmul(w);
        let cells = if residual {
            agg.add(agg.tanh().matmul(w).add(cell_feat).relu())
        } else {
            agg.matmul(w).add(cell_feat).relu()
        };
        tape.scatter_rows(cells, 0, &[4, 3, 5], flat);

        let msg = tape.gather_rows(flat, &[4, 3]);
        let net_feat = tape.gather_rows(feat, &[6, 7]).matmul(w);
        let nets = if residual { msg.add(net_feat.relu()) } else { msg.add(net_feat).relu() };
        tape.scatter_rows(nets, 0, &[7, 6], flat);

        let out = tape.gather_rows(flat, &[6, 7, 3, 5]);
        out.mul(out).mean()
    }

    #[test]
    fn grad_check_flat_gnn_pass() {
        let fixed = |shape: &[usize], seed: u64| {
            Tensor::uniform(&mut rand::rngs::StdRng::seed_from_u64(seed), shape, 1.0)
        };
        for mean in [false, true] {
            for residual in [false, true] {
                grad_check(&[8, 3], |tape, feat| {
                    let w = tape.constant(fixed(&[3, 3], 11));
                    flat_gnn(tape, feat, w, mean, residual)
                });
                grad_check(&[3, 3], |tape, w| {
                    let feat = tape.constant(fixed(&[8, 3], 12));
                    flat_gnn(tape, feat, w, mean, residual)
                });
            }
        }
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
    fn grad_check_reshape_sub() {
        grad_check(&[2, 6], |tape, x| {
            let y = x.reshape(&[3, 4]);
            let z = tape.constant(Tensor::full(&[3, 4], 0.3));
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
    #[should_panic(expected = "loss must be scalar")]
    fn backward_requires_scalar() {
        let tape = Tape::new();
        let x = tape.constant(t2(&[&[1.0, 2.0]]));
        let _ = tape.backward(x);
    }
}
