//! The layout CNN of Section V-A: stacked density/RUDY/macro maps to the
//! global layout information map `M^L` at quarter resolution.

use rand::Rng;

use rtt_nn::{ops, Conv2d, Exec, ParamStore, Tensor};

use crate::ModelConfig;

/// Convolutional trunk: `3×G×G → 1×(G/4)×(G/4)` through two conv+pool
/// stages and a 1×1 fusion convolution (Fig. 4).
#[derive(Clone, Debug)]
pub struct LayoutCnn {
    conv1: Conv2d,
    conv2: Conv2d,
    fuse: Conv2d,
}

impl LayoutCnn {
    /// Registers the CNN parameters.
    pub fn new<R: Rng>(store: &mut ParamStore, rng: &mut R, config: &ModelConfig) -> Self {
        let c = config.cnn_channels;
        Self {
            conv1: Conv2d::new(store, rng, 3, c, 3, 1),
            conv2: Conv2d::new(store, rng, c, c, 3, 1),
            fuse: Conv2d::new(store, rng, c, 1, 1, 0),
        }
    }

    /// Computes the flattened global layout map `M^L` as a rank-1 vector of
    /// length `(G/4)²`, ready for the endpoint-mask Hadamard product.
    ///
    /// # Panics
    ///
    /// Panics if `maps` is not `[3, G, G]` with `G` a multiple of 4.
    pub fn forward<E: Exec>(&self, ex: E, store: &ParamStore, maps: E::Value) -> E::Value {
        rtt_obs::span!("core::cnn_forward");
        let h1 = ex.relu(self.conv1.forward(ex, store, maps));
        let p1 = ex.maxpool2d(h1, 2);
        let h2 = ex.relu(self.conv2.forward(ex, store, p1));
        let p2 = ex.maxpool2d(h2, 2);
        let fused = self.fuse.forward(ex, store, p2);
        let n = ex.len(fused);
        ex.reshape(fused, &[n])
    }

    /// Tape-free [`Self::forward`] directly over caller-provided buffers:
    /// `maps` is consumed in place (no constant copy), activations
    /// ping-pong through `a` / `b`, and the flattened global map lands in
    /// `out`. `col` is the shared im2col scratch, `argmax` the recycled
    /// maxpool bookkeeping. Bit-identical to [`Self::forward`] (same
    /// kernels in the same order; in-place bias/ReLU produce the same
    /// values as the copying tape ops).
    ///
    /// # Panics
    ///
    /// Panics if `maps` is not `[3, G, G]` with `G` a multiple of 4.
    #[allow(clippy::too_many_arguments)]
    // rtt-lint: hot
    pub fn forward_into(
        &self,
        store: &ParamStore,
        maps: &Tensor,
        a: &mut Tensor,
        b: &mut Tensor,
        out: &mut Tensor,
        col: &mut Tensor,
        argmax: &mut Vec<u32>,
    ) {
        rtt_obs::span!("core::cnn_forward");
        self.conv1.forward_into(store, maps, col, a);
        ops::relu_in_place(a);
        ops::maxpool2d(a, 2, b, argmax);
        self.conv2.forward_into(store, b, col, a);
        ops::relu_in_place(a);
        ops::maxpool2d(a, 2, b, argmax);
        self.fuse.forward_into(store, b, col, out);
        let n = out.len();
        out.reshape_in_place(&[n]);
        rtt_nn::sanitize::check_finite("cnn_global_map", out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rtt_nn::{Tape, Tensor};

    #[test]
    fn output_is_quarter_resolution() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let cfg = ModelConfig::tiny(); // grid 16
        let cnn = LayoutCnn::new(&mut store, &mut rng, &cfg);
        let tape = Tape::new();
        let x = tape.constant(Tensor::full(&[3, cfg.grid, cfg.grid], 0.5));
        let y = cnn.forward(&tape, &store, x);
        assert_eq!(tape.value(y).shape(), &[cfg.pooled_grid() * cfg.pooled_grid()]);
    }

    #[test]
    fn gradients_reach_all_conv_layers() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let cfg = ModelConfig::tiny();
        let cnn = LayoutCnn::new(&mut store, &mut rng, &cfg);
        let tape = Tape::new();
        let mut input = Tensor::zeros(&[3, cfg.grid, cfg.grid]);
        for (i, v) in input.data_mut().iter_mut().enumerate() {
            *v = (i % 7) as f32 / 7.0;
        }
        let x = tape.constant(input);
        let y = cnn.forward(&tape, &store, x);
        let loss = y.mul(y).mean();
        let grads = tape.backward(loss);
        let live =
            store.iter().filter(|(id, _)| grads.of(*id).is_some_and(|g| g.norm() > 0.0)).count();
        assert!(live >= 5, "only {live}/6 conv params receive gradient");
    }

    #[test]
    fn different_inputs_give_different_maps() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let cfg = ModelConfig::tiny();
        let cnn = LayoutCnn::new(&mut store, &mut rng, &cfg);
        let tape = Tape::new();
        let a = tape.constant(Tensor::full(&[3, cfg.grid, cfg.grid], 0.1));
        let b = tape.constant(Tensor::full(&[3, cfg.grid, cfg.grid], 0.9));
        let ya = tape.value(cnn.forward(&tape, &store, a));
        let yb = tape.value(cnn.forward(&tape, &store, b));
        assert_ne!(ya.data(), yb.data());
    }
}
