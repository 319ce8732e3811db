//! The two-stage baselines: local stage-delay regression + PERT assembly.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rtt_netlist::{EdgeKind, GateFn, PinDir, PinId};
use rtt_nn::{mse, Adam, Mlp, ParamStore, Tape, Tensor};
use rtt_route::{route, RouteConfig, UNIT_CAP_FF_PER_UM};
use rtt_sta::propagate;

use crate::BaselineInputs;

/// Which published two-stage method to emulate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TwoStageKind {
    /// Barboza et al., DAC 2019: handcrafted local features.
    Dac19,
    /// He et al., DAC 2022: adds a look-ahead RC (detour-free Elmore)
    /// stage-delay estimate as a feature.
    Dac22He,
}

impl TwoStageKind {
    fn feature_dim(self) -> usize {
        let base = 7 + GateFn::ALL.len();
        match self {
            TwoStageKind::Dac19 => base,
            TwoStageKind::Dac22He => base + 1,
        }
    }

    /// Human-readable name as used in Table II.
    pub fn label(self) -> &'static str {
        match self {
            TwoStageKind::Dac19 => "DAC19",
            TwoStageKind::Dac22He => "DAC22-he",
        }
    }
}

/// Per-design stage features: one row per net edge of the input graph.
struct StageFeatures {
    /// `(driver, sink)` keys, aligned with feature rows.
    edges: Vec<(PinId, PinId)>,
    feats: Tensor,
}

fn extract_features(inputs: &BaselineInputs<'_>, kind: TwoStageKind) -> StageFeatures {
    let dim = kind.feature_dim();
    let dist_norm = rtt_features::DIST_NORM_UM;
    // Look-ahead RC network: an estimated detour-free routing (He et al.).
    let lookahead = (kind == TwoStageKind::Dac22He).then(|| {
        let cfg = RouteConfig { detour_strength: 0.0, macro_detour: 0.0 };
        route(inputs.netlist, inputs.library, inputs.placement, &cfg)
    });

    let mut edges = Vec::new();
    let mut data = Vec::new();
    for e in inputs.graph.edges() {
        if e.kind != EdgeKind::Net {
            continue;
        }
        let driver = inputs.graph.pin_of(e.from);
        let sink = inputs.graph.pin_of(e.to);
        // Net edges always carry their net id; skip rather than assume.
        let Some(net_id) = e.net else { continue };
        let net = inputs.netlist.net(net_id);

        let dp = inputs.placement.pin_position(inputs.netlist, driver);
        let sp = inputs.placement.pin_position(inputs.netlist, sink);
        let mut row = vec![0.0f32; dim];
        row[0] = dp.manhattan(sp) / dist_norm;
        row[1] = (1.0 + net.sinks.len() as f32).log2();
        if let Some(cid) = inputs.netlist.pin(driver).cell {
            let ty = inputs.library.cell_type(inputs.netlist.cell(cid).type_id);
            row[2] = f32::from(ty.drive) / 8.0;
            row[3] = ty.intrinsic_ps / 20.0;
            row[4] = ty.drive_res_kohm / 10.0;
            row[7 + ty.gate.one_hot_index()] = 1.0;
        }
        row[5] = match inputs.netlist.pin(sink).cell {
            Some(c) => inputs.library.cell_type(inputs.netlist.cell(c).type_id).pin_cap_ff / 2.0,
            None => 0.5,
        };
        // Star-estimate of the driver's total load.
        row[6] = net
            .sinks
            .iter()
            .map(|&s| {
                let p = inputs.placement.pin_position(inputs.netlist, s);
                dp.manhattan(p) * UNIT_CAP_FF_PER_UM
            })
            .sum::<f32>()
            / 10.0;
        // A net the look-ahead router skipped contributes no RC estimate
        // (feature stays 0) instead of sinking the whole extraction.
        if let Some(rn) = lookahead.as_ref().and_then(|la| la.net(net_id)) {
            let wire = rn.sink_delay(sink).unwrap_or(0.0);
            let cell = match inputs.netlist.pin(driver).cell {
                Some(cid) => {
                    let ty = inputs.library.cell_type(inputs.netlist.cell(cid).type_id);
                    ty.intrinsic_ps + ty.drive_res_kohm * rn.total_cap_ff
                }
                None => 0.0,
            };
            row[dim - 1] = (wire + cell) / 50.0;
        }
        edges.push((driver, sink));
        data.extend_from_slice(&row);
    }
    let n = edges.len().max(1);
    StageFeatures { edges, feats: Tensor::from_vec(&[n, dim], data) }
}

/// A two-stage baseline: MLP stage-delay regressor + PERT traversal.
#[derive(Debug)]
pub struct TwoStageModel {
    kind: TwoStageKind,
    store: ParamStore,
    mlp: Mlp,
    label_mean: f32,
    label_std: f32,
    rng: StdRng,
}

impl TwoStageModel {
    /// Creates an untrained model.
    pub fn new(kind: TwoStageKind, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, &mut rng, &[kind.feature_dim(), 32, 32, 1]);
        Self { kind, store, mlp, label_mean: 0.0, label_std: 1.0, rng }
    }

    /// The emulated method.
    pub fn kind(&self) -> TwoStageKind {
        self.kind
    }

    /// Trains on the surviving stage labels of the given designs
    /// (semi-supervised: replaced stages have no labels).
    pub fn train(&mut self, designs: &[&BaselineInputs<'_>], epochs: usize, lr: f32) {
        rtt_obs::span!("baselines::two_stage_train");
        // Assemble the supervised subset.
        let mut rows: Vec<f32> = Vec::new();
        let mut labels: Vec<f32> = Vec::new();
        let dim = self.kind.feature_dim();
        for d in designs {
            let sf = extract_features(d, self.kind);
            for (i, &(driver, sink)) in sf.edges.iter().enumerate() {
                if let Some(l) = d.stage_label(driver, sink) {
                    rows.extend_from_slice(sf.feats.row(i));
                    labels.push(l);
                }
            }
        }
        if labels.is_empty() {
            return;
        }
        // Stage delays span several orders of magnitude; regress in log
        // space (same adaptation as the main model — see DESIGN.md).
        let encoded: Vec<f32> = labels.iter().map(|&l| (1.0 + l.max(0.0)).ln()).collect();
        let n = encoded.len();
        self.label_mean = encoded.iter().sum::<f32>() / n as f32;
        let var = encoded.iter().map(|l| (l - self.label_mean).powi(2)).sum::<f32>() / n as f32;
        self.label_std = var.sqrt().max(1e-6);
        let normalized: Vec<f32> =
            encoded.iter().map(|l| (l - self.label_mean) / self.label_std).collect();

        let batch = 1024.min(n);
        let mut adam = Adam::new(lr);
        for _ in 0..epochs {
            // One random batch per epoch-step keeps CPU cost bounded.
            let mut bx = Vec::with_capacity(batch * dim);
            let mut by = Vec::with_capacity(batch);
            for _ in 0..batch {
                let i = self.rng.gen_range(0..n);
                bx.extend_from_slice(&rows[i * dim..(i + 1) * dim]);
                by.push(normalized[i]);
            }
            let tape = Tape::new();
            let x = tape.constant(Tensor::from_vec(&[batch, dim], bx));
            let y = tape.constant(Tensor::from_vec(&[batch, 1], by));
            let pred = self.mlp.forward(&tape, &self.store, x);
            let loss = mse(&tape, pred, y);
            let grads = tape.backward(loss);
            adam.step(&mut self.store, &grads);
        }
    }

    /// Predicts the stage delay of every net edge of a design, keyed by
    /// `(driver, sink)`. The map iterates in key order, so every pass over
    /// it (and every sum over [`Self::local_eval`]'s pairs) repeats bit
    /// for bit.
    // rtt-lint: entry
    pub fn predict_stages(&self, inputs: &BaselineInputs<'_>) -> BTreeMap<(PinId, PinId), f32> {
        let sf = extract_features(inputs, self.kind);
        let tape = Tape::new();
        let vals = tape.value(self.mlp.forward(&tape, &self.store, tape.constant(sf.feats)));
        sf.edges
            .into_iter()
            .zip(vals.data())
            .map(|(k, &v)| (k, (v * self.label_std + self.label_mean).exp() - 1.0))
            .collect()
    }

    /// `(prediction, label)` pairs on the *surviving* stages, in
    /// `(driver, sink)` order — the data behind the left columns of
    /// Table II.
    pub fn local_eval(&self, inputs: &BaselineInputs<'_>) -> Vec<(f32, f32)> {
        let stages = self.predict_stages(inputs);
        stages.iter().filter_map(|(&(d, s), &p)| inputs.stage_label(d, s).map(|l| (p, l))).collect()
    }

    /// Assembles endpoint arrival times by PERT traversal over the
    /// predicted stage delays (cell arcs fold into the stage of their
    /// output net edge).
    // rtt-lint: entry
    pub fn predict_endpoints(&self, inputs: &BaselineInputs<'_>) -> Vec<f32> {
        self.assemble_endpoints(inputs, &self.predict_stages(inputs))
    }

    fn assemble_endpoints(
        &self,
        inputs: &BaselineInputs<'_>,
        stages: &BTreeMap<(PinId, PinId), f32>,
    ) -> Vec<f32> {
        let graph = inputs.graph;
        let arrivals = propagate(
            graph,
            |e| match e.kind {
                EdgeKind::Net => stages
                    .get(&(graph.pin_of(e.from), graph.pin_of(e.to)))
                    .copied()
                    .unwrap_or(0.0)
                    .max(0.0),
                EdgeKind::Cell => 0.0,
            },
            |v| {
                let pin = inputs.netlist.pin(graph.pin_of(v));
                match (pin.cell, pin.dir) {
                    (Some(c), PinDir::Drive) => {
                        let ty = inputs.library.cell_type(inputs.netlist.cell(c).type_id);
                        if ty.is_sequential() {
                            ty.intrinsic_ps
                        } else {
                            0.0
                        }
                    }
                    _ => 0.0,
                }
            },
        );
        graph.endpoints().iter().map(|&v| arrivals[v as usize]).collect()
    }
}
