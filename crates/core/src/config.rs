//! Model and training configuration.

/// Which branches of the model are active.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ModelVariant {
    /// GNN + CNN multimodal fusion (the paper's full model).
    #[default]
    Full,
    /// Netlist branch only ("our GNN-only" column of Table II).
    GnnOnly,
    /// Layout branch only ("our CNN-only" column of Table II).
    CnnOnly,
}

/// Fanin aggregation used for cell nodes (Equation 3 uses max; mean is the
/// A2 design-choice ablation).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Aggregation {
    /// Column-wise maximum — matches the worst-arrival semantics of timing.
    #[default]
    Max,
    /// Column-wise mean.
    Mean,
}

/// Hyper-parameters of the model.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelConfig {
    /// Active branches.
    pub variant: ModelVariant,
    /// Cell-node aggregation.
    pub aggregation: Aggregation,
    /// Apply the endpoint-wise critical-region mask (disablable for the A2
    /// ablation: a shared unmasked layout map for every endpoint).
    pub masking: bool,
    /// Node/endpoint embedding width (paper: 128).
    pub embed_dim: usize,
    /// Hidden width of the GNN MLPs (paper: 256).
    pub gnn_hidden: usize,
    /// Channels of the CNN trunk.
    pub cnn_channels: usize,
    /// Layout map resolution `G` (paper: 512); pooled to `G/4`. Must be a
    /// multiple of 4.
    pub grid: usize,
    /// Hidden width of the regression MLP (paper: 512).
    pub regressor_hidden: usize,
    /// Residual message passing: each node's embedding is its aggregated
    /// fanin message *plus* a non-negative ReLU increment
    /// (`h_v = agg + relu(f_c1(agg) + f_c2(x_v))`), instead of the literal
    /// Equation 3 form (`h_v = relu(f_c1(agg) + f_c2(x_v))`).
    ///
    /// The literal form must push gradients through hundreds of stacked
    /// MLP applications (fanin cones reach depth 400 in the paper) and
    /// collapses to a fixpoint in practice; the residual form mirrors
    /// arrival-time accumulation — monotone non-decreasing along paths —
    /// and trains reliably. Disablable for the ablation study.
    pub residual: bool,
    /// RNG seed for weight initialization and batching.
    pub seed: u64,
}

impl ModelConfig {
    /// The paper's configuration (512×512 maps, 128-d embeddings, 256/512
    /// hidden). Heavy on CPU — use for `--scale paper` runs.
    pub fn paper() -> Self {
        Self {
            variant: ModelVariant::Full,
            aggregation: Aggregation::Max,
            masking: true,
            embed_dim: 128,
            gnn_hidden: 256,
            cnn_channels: 16,
            grid: 512,
            regressor_hidden: 512,
            residual: true,
            seed: 0xDAC2023,
        }
    }

    /// Default experiment scale: same architecture, reduced widths.
    pub fn small() -> Self {
        Self {
            embed_dim: 32,
            gnn_hidden: 32,
            cnn_channels: 8,
            grid: 64,
            regressor_hidden: 64,
            ..Self::paper()
        }
    }

    /// Minimal dimensions for tests and doc examples.
    pub fn tiny() -> Self {
        Self {
            embed_dim: 8,
            gnn_hidden: 8,
            cnn_channels: 4,
            grid: 16,
            regressor_hidden: 16,
            ..Self::paper()
        }
    }

    /// Pooled layout-map edge length (`grid / 4`).
    ///
    /// # Panics
    ///
    /// Panics if `grid` is not a multiple of 4.
    pub fn pooled_grid(&self) -> usize {
        assert!(
            self.grid.is_multiple_of(4) && self.grid > 0,
            "grid must be a positive multiple of 4"
        );
        self.grid / 4
    }

    /// Returns a copy with another variant.
    #[must_use]
    pub fn with_variant(mut self, variant: ModelVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Width of the fused embedding entering the regressor.
    pub fn fused_dim(&self) -> usize {
        match self.variant {
            ModelVariant::Full => 2 * self.embed_dim,
            ModelVariant::GnnOnly | ModelVariant::CnnOnly => self.embed_dim,
        }
    }
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self::small()
    }
}

/// Training-loop configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainConfig {
    /// Epochs over the training designs (paper: 200).
    pub epochs: usize,
    /// Adam learning rate (paper: 0.001).
    pub lr: f32,
    /// Endpoints sampled per design per step (paper batch: 1024).
    pub batch_endpoints: usize,
    /// Print progress every N epochs (0 = silent).
    pub log_every: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self { epochs: 60, lr: 1e-3, batch_endpoints: 1024, log_every: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_the_text() {
        let p = ModelConfig::paper();
        assert_eq!(p.embed_dim, 128);
        assert_eq!(p.gnn_hidden, 256);
        assert_eq!(p.grid, 512);
        assert_eq!(p.pooled_grid(), 128);
        assert_eq!(p.regressor_hidden, 512);
        assert_eq!(TrainConfig { epochs: 200, ..TrainConfig::default() }.lr, 1e-3);
    }

    #[test]
    fn fused_dim_depends_on_variant() {
        let c = ModelConfig::small();
        assert_eq!(c.fused_dim(), 64);
        assert_eq!(c.with_variant(ModelVariant::GnnOnly).fused_dim(), 32);
    }

    #[test]
    #[should_panic(expected = "multiple of 4")]
    fn grid_must_divide() {
        let c = ModelConfig { grid: 30, ..ModelConfig::tiny() };
        let _ = c.pooled_grid();
    }
}
