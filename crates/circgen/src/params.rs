//! Generation parameters and scale presets.

/// Global scale knob applied on top of a design preset.
///
/// The paper trains on an RTX 3090; this reproduction runs on CPU cores, so
/// the default experiment scale is reduced while preserving the designs'
/// relative proportions. `Paper` restores the full magnitudes for users with
/// time to spare.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Scale {
    /// ~1/40 of `Small`; used by integration tests and doc examples.
    Tiny,
    /// Default experiment scale: single-core minutes per table.
    #[default]
    Small,
    /// 8× `Small`: the perfsuite's large preparation tier — large
    /// enough that preparation cost dominates, still CPU-minutes.
    Huge,
    /// Full paper-scale pin counts (hours of CPU time).
    Paper,
}

impl Scale {
    /// Multiplicative factor applied to preset cell/flop/port counts.
    pub fn factor(self) -> f64 {
        match self {
            Scale::Tiny => 0.025,
            Scale::Small => 1.0,
            Scale::Huge => 8.0,
            Scale::Paper => 40.0,
        }
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Huge => "huge",
            Scale::Paper => "paper",
        })
    }
}

impl std::str::FromStr for Scale {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "tiny" => Ok(Scale::Tiny),
            "small" => Ok(Scale::Small),
            "huge" => Ok(Scale::Huge),
            "paper" => Ok(Scale::Paper),
            other => Err(format!("unknown scale `{other}` (expected tiny|small|huge|paper)")),
        }
    }
}

/// Parameters of one synthetic design.
///
/// Construct via [`crate::preset`] for the paper's ten designs, or directly
/// for custom workloads, then call [`GenParams::generate`].
#[derive(Clone, Debug, PartialEq)]
pub struct GenParams {
    /// Design name (also the netlist name).
    pub name: String,
    /// Number of combinational cells to create.
    pub comb_cells: usize,
    /// Number of primary input ports.
    pub inputs: usize,
    /// Number of primary output ports.
    pub outputs: usize,
    /// Number of flip-flops (each contributes one endpoint and one startpoint).
    pub flops: usize,
    /// Number of macro blocks the placer should carve out.
    pub macros: usize,
    /// Probability that a gate input extends the deepest recent cone
    /// (higher → deeper logic, longer critical paths).
    pub depth_bias: f64,
    /// Size of the recency window used for reconvergent sampling.
    pub window: usize,
    /// RNG seed; the generator is fully deterministic given the params.
    pub seed: u64,
}

impl GenParams {
    /// Reasonable defaults for a custom design of `comb_cells` gates.
    pub fn new(name: impl Into<String>, comb_cells: usize, seed: u64) -> Self {
        let flops = (comb_cells / 6).max(1);
        Self {
            name: name.into(),
            comb_cells,
            inputs: (comb_cells / 40).clamp(4, 512),
            outputs: (comb_cells / 50).clamp(2, 512),
            flops,
            macros: 0,
            depth_bias: 0.42,
            window: 64,
            seed,
        }
    }

    /// Applies a [`Scale`] factor to all count parameters.
    #[must_use]
    pub fn scaled(mut self, scale: Scale) -> Self {
        let f = scale.factor();
        let s = |v: usize, lo: usize| ((v as f64 * f).round() as usize).max(lo);
        self.comb_cells = s(self.comb_cells, 8);
        self.inputs = s(self.inputs, 2);
        self.outputs = s(self.outputs, 1);
        self.flops = s(self.flops, 1);
        // Macro count grows sub-linearly with scale.
        if f > 1.0 {
            self.macros = ((self.macros as f64) * f.sqrt()).round() as usize;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_factors_are_ordered() {
        assert!(Scale::Tiny.factor() < Scale::Small.factor());
        assert!(Scale::Small.factor() < Scale::Huge.factor());
        assert!(Scale::Huge.factor() < Scale::Paper.factor());
    }

    #[test]
    fn scale_parses_and_displays() {
        for s in [Scale::Tiny, Scale::Small, Scale::Huge, Scale::Paper] {
            assert_eq!(s.to_string().parse::<Scale>().unwrap(), s);
        }
        assert!("gigantic".parse::<Scale>().is_err());
    }

    #[test]
    fn scaled_respects_minimums() {
        let p = GenParams::new("t", 10, 1).scaled(Scale::Tiny);
        assert!(p.comb_cells >= 8);
        assert!(p.inputs >= 2);
        assert!(p.outputs >= 1);
        assert!(p.flops >= 1);
    }

    #[test]
    fn defaults_are_proportional() {
        let p = GenParams::new("d", 4000, 7);
        assert_eq!(p.flops, 666);
        assert!(p.inputs >= 4 && p.outputs >= 2);
    }
}
