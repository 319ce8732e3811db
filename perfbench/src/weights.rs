//! The model's layers rebuilt from its config seed, so the traced replays
//! can call each layer on its own.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rtt_core::{LayoutCnn, ModelConfig, NetlistGnn};
use rtt_nn::{Linear, Mlp, ParamStore};

/// The layers of `TimingModel::new(cfg)` for the full variant, initialized
/// in its constructor's order from the same seed, so they hold the same
/// weights.
pub struct Weights {
    pub store: ParamStore,
    pub gnn: NetlistGnn,
    pub trunk: LayoutCnn,
    pub fc: Linear,
    pub regressor: Mlp,
}

impl Weights {
    /// Also returns the RNG, which training keeps drawing from.
    pub fn new(cfg: &ModelConfig) -> (Self, StdRng) {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let gnn = NetlistGnn::new(&mut store, &mut rng, cfg);
        let trunk = LayoutCnn::new(&mut store, &mut rng, cfg);
        let mg = cfg.pooled_grid();
        let fc = Linear::new(&mut store, &mut rng, mg * mg, cfg.embed_dim);
        let h = cfg.regressor_hidden;
        let regressor = Mlp::new(&mut store, &mut rng, &[cfg.fused_dim(), h, h, 1]);
        (Self { store, gnn, trunk, fc, regressor }, rng)
    }
}
