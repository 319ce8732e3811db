//! Layer zoo: linear, MLP, and 2-D convolution.

use rand::Rng;

use crate::{ops, Exec, ParamId, ParamStore, Tensor};

/// A fully-connected layer `y = x·W + b`.
#[derive(Clone, Debug)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a Xavier-initialized layer in `store`.
    pub fn new<R: Rng>(store: &mut ParamStore, rng: &mut R, in_dim: usize, out_dim: usize) -> Self {
        let w = store.register(Tensor::xavier(rng, in_dim, out_dim));
        let b = store.register(Tensor::zeros(&[out_dim]));
        Self { w, b, in_dim, out_dim }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The weight and bias handles, in that order.
    pub fn params(&self) -> [ParamId; 2] {
        [self.w, self.b]
    }

    /// Applies the layer to a `[rows, in_dim]` matrix on an [`Exec`]
    /// backend (the training tape).
    ///
    /// # Panics
    ///
    /// Panics if the input width mismatches.
    pub fn forward<E: Exec>(&self, ex: E, store: &ParamStore, x: E::Value) -> E::Value {
        let w = ex.param(store, self.w);
        let b = ex.param(store, self.b);
        ex.add_row(ex.matmul(x, w), b)
    }

    /// Tape-free forward directly into a caller-provided buffer: one
    /// matmul plus an in-place bias add, bit-identical to
    /// [`Linear::forward`] (the kernels and their order are the same;
    /// only the intermediate copies disappear).
    ///
    /// # Panics
    ///
    /// Panics if the input width mismatches.
    // rtt-lint: hot
    pub fn forward_into(&self, store: &ParamStore, x: &Tensor, out: &mut Tensor) {
        ops::matmul(x, store.value(self.w), out);
        ops::add_row_in_place(out, store.value(self.b).data());
    }
}

/// A multi-layer perceptron with ReLU between layers — the paper's
/// `f^MLP` blocks (3 layers in all experiments).
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
    // Cached from `widths` at construction so the dim accessors stay
    // panic-free on the serving path (R003).
    in_dim: usize,
    out_dim: usize,
}

impl Mlp {
    /// Builds an MLP through the given widths, e.g. `[in, hidden, out]`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new<R: Rng>(store: &mut ParamStore, rng: &mut R, widths: &[usize]) -> Self {
        assert!(widths.len() >= 2, "an MLP needs at least input and output widths");
        let layers = widths.windows(2).map(|w| Linear::new(store, rng, w[0], w[1])).collect();
        Self { layers, in_dim: widths[0], out_dim: widths[widths.len() - 1] }
    }

    /// Builds an MLP whose *final* layer is initialized `output_scale`
    /// smaller, with a small positive bias.
    ///
    /// This is the standard initialization for residual increments: the
    /// block starts near (but not exactly at) zero, so a deep residual
    /// stack neither explodes at initialization nor starves the ReLU of
    /// gradient.
    pub fn new_scaled<R: Rng>(
        store: &mut ParamStore,
        rng: &mut R,
        widths: &[usize],
        output_scale: f32,
    ) -> Self {
        let mlp = Self::new(store, rng, widths);
        if let Some(last) = mlp.layers.last() {
            store.value_mut(last.w).scale_assign(output_scale);
            for v in store.value_mut(last.b).data_mut() {
                *v = 0.02;
            }
        }
        mlp
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Every layer's weight and bias handle, in layer order: `w0, b0, w1,
    /// b1, …`.
    pub fn params(&self) -> impl Iterator<Item = ParamId> + '_ {
        self.layers.iter().flat_map(Linear::params)
    }

    /// Applies all layers with ReLU on every hidden activation (the output
    /// layer is linear).
    pub fn forward<E: Exec>(&self, ex: E, store: &ParamStore, x: E::Value) -> E::Value {
        let mut h = x;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(ex, store, h);
            if i + 1 < self.layers.len() {
                h = ex.relu(h);
            }
        }
        h
    }

    /// Tape-free forward through all layers into `out`, ping-ponging the
    /// hidden activations between `tmp0` and `tmp1` with in-place ReLU.
    /// Bit-identical to [`Mlp::forward`] (same kernels, same order).
    // rtt-lint: hot
    pub fn forward_into(
        &self,
        store: &ParamStore,
        x: &Tensor,
        tmp0: &mut Tensor,
        tmp1: &mut Tensor,
        out: &mut Tensor,
    ) {
        let n = self.layers.len();
        if n == 1 {
            self.layers[0].forward_into(store, x, out);
            return;
        }
        self.layers[0].forward_into(store, x, tmp0);
        for (i, layer) in self.layers.iter().enumerate().skip(1) {
            ops::relu_in_place(tmp0);
            if i + 1 == n {
                layer.forward_into(store, tmp0, out);
            } else {
                layer.forward_into(store, tmp0, tmp1);
                std::mem::swap(tmp0, tmp1);
            }
        }
    }

    /// Backward through this MLP at input `x`, with its weight and bias
    /// values `params` in [`Mlp::params`] order. Recomputes the forward
    /// with [`Mlp::forward_into`]'s kernels, lets `head` turn the output
    /// (which it may change in place) into the output's gradient, written
    /// into its second argument, adds each parameter's gradient into
    /// `grads` and returns the input's. Every buffer comes from `scratch`,
    /// so repeated calls allocate only when a shape grows; the products
    /// run on [`ops::matmul`], as the tape's matmul adjoint does, so the
    /// gradients are the tape's bit for bit.
    ///
    /// # Panics
    ///
    /// Panics unless `params` and `grads` hold one weight and bias per
    /// layer and `scratch` has one transposed weight per layer. In debug
    /// builds, also panics unless those are `params`' weights transposed.
    pub fn backward<'s>(
        &self,
        params: &[&Tensor],
        x: &Tensor,
        grads: &mut [Tensor],
        scratch: &'s mut MlpScratch,
        head: impl FnOnce(&mut Tensor, &mut Tensor),
    ) -> &'s Tensor {
        let n = self.layers.len();
        assert!(params.len() == 2 * n && grads.len() == 2 * n, "one weight and bias per layer");
        let MlpScratch { w_t, acts, x_t, g, next, prod } = scratch;
        assert_eq!(w_t.len(), n, "scratch made for another MLP");
        debug_assert!(
            w_t.iter().zip(params.iter().step_by(2)).all(|(t, w)| *t == w.transposed()),
            "scratch made for other weight values"
        );
        acts.resize_with(n, Tensor::default);
        for (i, p) in params.chunks(2).enumerate() {
            let (done, rest) = acts.split_at_mut(i);
            let out = &mut rest[0];
            ops::matmul(done.last().unwrap_or(x), p[0], out);
            ops::add_row_in_place(out, p[1].data());
            if i + 1 < n {
                ops::relu_in_place(out);
            }
        }
        head(&mut acts[n - 1], g);
        for i in (0..n).rev() {
            let input = if i == 0 { x } else { &acts[i - 1] };
            ops::add_row_sums(g, &mut grads[2 * i + 1]);
            input.transpose_view_into(input.rows(), input.cols(), x_t);
            ops::matmul(x_t, g, prod);
            grads[2 * i].add_assign(prod);
            ops::matmul(g, &w_t[i], next);
            std::mem::swap(g, next);
            if i > 0 {
                ops::relu_backward(g, input);
            }
        }
        g
    }
}

/// The buffers repeated [`Mlp::backward`] calls reuse: each weight
/// transposed once, the recomputed activations, the input's transpose,
/// the gradient being propagated and the products that form it. A
/// scratch holds the weight values it was made from, so it is valid only
/// until those change (an optimizer step, another MLP).
#[derive(Clone, Debug, Default)]
pub struct MlpScratch {
    w_t: Vec<Tensor>,
    acts: Vec<Tensor>,
    x_t: Tensor,
    g: Tensor,
    next: Tensor,
    prod: Tensor,
}

impl MlpScratch {
    /// Scratch for the weight and bias values `params`, in
    /// [`Mlp::params`] order.
    pub fn new(params: &[&Tensor]) -> Self {
        let w_t = params.iter().step_by(2).map(|w| w.transposed()).collect();
        Self { w_t, ..Self::default() }
    }
}

/// A 2-D convolution layer with per-channel bias, stride 1.
#[derive(Clone, Debug)]
pub struct Conv2d {
    w: ParamId,
    b: ParamId,
    pad: usize,
}

impl Conv2d {
    /// Registers a conv layer with a `[out_ch, in_ch, k, k]` kernel.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        rng: &mut R,
        in_ch: usize,
        out_ch: usize,
        k: usize,
        pad: usize,
    ) -> Self {
        let fan_in = in_ch * k * k;
        let bound = (6.0 / (fan_in + out_ch * k * k) as f32).sqrt();
        let w = store.register(Tensor::uniform(rng, &[out_ch, in_ch, k, k], bound));
        let b = store.register(Tensor::zeros(&[out_ch]));
        Self { w, b, pad }
    }

    /// Applies the convolution to a `[in_ch, H, W]` feature map.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn forward<E: Exec>(&self, ex: E, store: &ParamStore, x: E::Value) -> E::Value {
        let w = ex.param(store, self.w);
        let b = ex.param(store, self.b);
        ex.add_channel(ex.conv2d(x, w, self.pad), b)
    }

    /// Tape-free forward into `out`, reusing the caller's im2col scratch
    /// `col` across calls. Bit-identical to [`Conv2d::forward`].
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    // rtt-lint: hot
    pub fn forward_into(&self, store: &ParamStore, x: &Tensor, col: &mut Tensor, out: &mut Tensor) {
        ops::conv2d(x, store.value(self.w), self.pad, col, out);
        ops::add_channel_in_place(out, store.value(self.b).data());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mse, Adam, Tape};
    use rand::SeedableRng;

    #[test]
    fn linear_shapes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let l = Linear::new(&mut store, &mut rng, 3, 5);
        assert_eq!((l.in_dim(), l.out_dim()), (3, 5));
        let tape = Tape::new();
        let x = tape.constant(Tensor::zeros(&[7, 3]));
        let y = l.forward(&tape, &store, x);
        assert_eq!(tape.value(y).shape(), &[7, 5]);
    }

    #[test]
    fn mlp_learns_xor() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, &mut rng, &[2, 8, 8, 1]);
        let x = Tensor::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let y = Tensor::from_rows(&[&[0.0], &[1.0], &[1.0], &[0.0]]);
        let mut adam = Adam::new(0.02);
        let mut last = f32::INFINITY;
        for _ in 0..400 {
            let tape = Tape::new();
            let pred = mlp.forward(&tape, &store, tape.constant(x.clone()));
            let loss = mse(&tape, pred, tape.constant(y.clone()));
            last = tape.value(loss).data()[0];
            let grads = tape.backward(loss);
            adam.step(&mut store, &grads);
        }
        assert!(last < 0.02, "xor loss stayed at {last}");
    }

    #[test]
    fn mlp_backward_matches_the_tape() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, &mut rng, &[3, 5, 4, 2]);
        let x = Tensor::uniform(&mut rng, &[6, 3], 1.0);
        let tape = Tape::new();
        let xv = tape.constant(x.clone());
        let want = tape.backward(mlp.forward(&tape, &store, xv).mean());
        let params: Vec<&Tensor> = mlp.params().map(|id| store.value(id)).collect();
        let mean_grad =
            |out: &mut Tensor, g: &mut Tensor| g.reset(out.shape(), 1.0 / out.len() as f32);
        let mut scratch = MlpScratch::new(&params);
        // The second call runs on the first one's buffers.
        for _ in 0..2 {
            let mut grads: Vec<Tensor> = params.iter().map(|p| Tensor::zeros(p.shape())).collect();
            let gx = mlp.backward(&params, &x, &mut grads, &mut scratch, mean_grad);
            assert_eq!(gx.data(), want.wrt(xv.id()).unwrap().data());
            for (id, g) in mlp.params().zip(&grads) {
                assert_eq!(g.data(), want.of(id).unwrap().data());
            }
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "scratch made for other weight values")]
    fn mlp_backward_rejects_a_stale_scratch() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, &mut rng, &[3, 4, 2]);
        let params: Vec<&Tensor> = mlp.params().map(|id| store.value(id)).collect();
        let mut scratch = MlpScratch::new(&params);
        // The same MLP after a step: its first weight has moved.
        let mut stepped = params[0].clone();
        stepped.scale_assign(2.0);
        let params = [&stepped, params[1], params[2], params[3]];
        let mut grads: Vec<Tensor> = params.iter().map(|p| Tensor::zeros(p.shape())).collect();
        let x = Tensor::uniform(&mut rng, &[5, 3], 1.0);
        mlp.backward(&params, &x, &mut grads, &mut scratch, |out, g| g.copy_from(out));
    }

    #[test]
    fn conv_output_shape_with_padding() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let conv = Conv2d::new(&mut store, &mut rng, 3, 6, 3, 1);
        let tape = Tape::new();
        let x = tape.constant(Tensor::zeros(&[3, 16, 16]));
        let y = conv.forward(&tape, &store, x);
        assert_eq!(tape.value(y).shape(), &[6, 16, 16]);
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn mlp_needs_two_widths() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let _ = Mlp::new(&mut store, &mut rng, &[4]);
    }
}
