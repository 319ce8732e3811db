//! The Adam optimizer.

use std::collections::HashMap;

use crate::{Grads, ParamId, ParamStore, Tensor};

/// Adam (Kingma & Ba) with bias correction — the paper trains with Adam at
/// a learning rate of 0.001.
#[derive(Clone, Debug)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical floor.
    pub eps: f32,
    t: u64,
    m: HashMap<ParamId, Tensor>,
    v: HashMap<ParamId, Tensor>,
}

impl Adam {
    /// Creates Adam with the usual β₁ = 0.9, β₂ = 0.999.
    pub fn new(lr: f32) -> Self {
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: HashMap::new(), v: HashMap::new() }
    }

    /// Applies one Adam update from `grads`.
    pub fn step(&mut self, store: &mut ParamStore, grads: &Grads) {
        rtt_obs::span!("nn::optimizer_step");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let ids: Vec<ParamId> = store.iter().map(|(id, _)| id).collect();
        for id in ids {
            let Some(g) = grads.of(id) else { continue };
            let shape = g.shape().to_vec();
            let m = self.m.entry(id).or_insert_with(|| Tensor::zeros(&shape));
            let v = self.v.entry(id).or_insert_with(|| Tensor::zeros(&shape));
            let p = store.value_mut(id);
            for i in 0..g.len() {
                let gi = g.data()[i];
                let mi = self.beta1 * m.data()[i] + (1.0 - self.beta1) * gi;
                let vi = self.beta2 * v.data()[i] + (1.0 - self.beta2) * gi * gi;
                m.data_mut()[i] = mi;
                v.data_mut()[i] = vi;
                let m_hat = mi / bc1;
                let v_hat = vi / bc2;
                p.data_mut()[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mse, Tape};

    /// Minimize ||x - target||² over a single parameter tensor.
    fn fit(optimizer: &mut dyn FnMut(&mut ParamStore, &Grads), steps: usize) -> f32 {
        let mut store = ParamStore::new();
        let p = store.register(Tensor::zeros(&[1, 3]));
        let target = Tensor::from_rows(&[&[1.0, -2.0, 0.5]]);
        let mut last = f32::INFINITY;
        for _ in 0..steps {
            let tape = Tape::new();
            let x = tape.param(&store, p);
            let loss = mse(&tape, x, tape.constant(target.clone()));
            last = tape.value(loss).data()[0];
            let grads = tape.backward(loss);
            optimizer(&mut store, &grads);
        }
        last
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut adam = Adam::new(0.1);
        let last = fit(&mut |s, g| adam.step(s, g), 200);
        assert!(last < 1e-4, "adam loss {last}");
    }

    #[test]
    fn adam_ignores_missing_grads() {
        let mut store = ParamStore::new();
        let a = store.register(Tensor::full(&[2], 3.0));
        let _unused = store.register(Tensor::full(&[2], 7.0));
        let mut adam = Adam::new(0.1);
        let tape = Tape::new();
        let x = tape.param(&store, a);
        let loss = x.mul(x).mean();
        let grads = tape.backward(loss);
        adam.step(&mut store, &grads);
        // Unused parameter untouched; used one moved.
        assert_eq!(store.value(ParamId(1)).data(), &[7.0, 7.0]);
        assert!(store.value(a).data()[0] < 3.0);
    }
}
