//! The end-to-end GNN baseline (Guo et al., DAC 2022): topological message
//! passing with auxiliary local supervision (net delay, cell delay, pin
//! arrival) on the surviving elements.

use rand::rngs::StdRng;
use rand::SeedableRng;

use rtt_core::{Aggregation, GnnSchedule, LevelFeats, ModelConfig, NetlistGnn};
use rtt_features::NodeFeatures;
use rtt_netlist::NodeKind;
use rtt_nn::{mse, Adam, Mlp, ParamStore, Tape, Tensor, Var};

use crate::BaselineInputs;

/// Weight of the auxiliary local losses relative to the endpoint loss.
const AUX_WEIGHT: f32 = 1.0;

/// Seed for initialization.
const INIT_SEED: u64 = 0x99;

/// Hyper-parameters of the Guo baseline.
#[derive(Clone, Debug)]
pub struct GuoConfig {
    /// Node embedding width.
    pub embed_dim: usize,
    /// Hidden width of the message/readout MLPs.
    pub hidden: usize,
}

impl Default for GuoConfig {
    fn default() -> Self {
        Self { embed_dim: 32, hidden: 32 }
    }
}

/// Per-design prepared state for the Guo model. The `*_rows` vectors
/// index the GNN's flat embedding matrix.
struct Prepared {
    schedule: GnnSchedule,
    feats: LevelFeats,
    ep_labels: Vec<f32>,
    arr_rows: Vec<u32>,
    arr_labels: Vec<f32>,
    net_rows: Vec<u32>,
    net_labels: Vec<f32>,
    cell_rows: Vec<u32>,
    cell_labels: Vec<f32>,
}

fn prepare(inputs: &BaselineInputs<'_>) -> Prepared {
    let graph = inputs.graph;
    let schedule = GnnSchedule::build(graph);
    let features = NodeFeatures::extract(inputs.netlist, inputs.library, graph, inputs.placement);
    let feats = LevelFeats::assemble(&schedule, graph, &features);

    let ep_labels = inputs.endpoint_targets.to_vec();

    let mut arr_rows = Vec::new();
    let mut arr_labels = Vec::new();
    let mut net_rows = Vec::new();
    let mut net_labels = Vec::new();
    let mut cell_rows = Vec::new();
    let mut cell_labels = Vec::new();
    for v in 0..graph.num_nodes() as u32 {
        let pin = graph.pin_of(v);
        let row = pin.index() as u32;
        if let Some(&a) = inputs.signoff_arrivals.get(&pin) {
            arr_rows.push(row);
            arr_labels.push(a);
        }
        match graph.node_kind(v) {
            NodeKind::NetSink => {
                // A net sink without a driver edge carries no delay label.
                let Some(e) = graph.fanin(v).next() else { continue };
                let key = (graph.pin_of(e.from), pin);
                if let Some(&d) = inputs.signoff_net_delays.get(&key) {
                    net_rows.push(row);
                    net_labels.push(d);
                }
            }
            NodeKind::CellOut => {
                for e in graph.fanin(v) {
                    let key = (graph.pin_of(e.from), pin);
                    if let Some(&d) = inputs.signoff_cell_delays.get(&key) {
                        cell_rows.push(row);
                        cell_labels.push(d);
                        break; // one shared delay per cell in our model
                    }
                }
            }
            NodeKind::Source => {}
        }
    }
    Prepared {
        schedule,
        feats,
        ep_labels,
        arr_rows,
        arr_labels,
        net_rows,
        net_labels,
        cell_rows,
        cell_labels,
    }
}

/// The end-to-end GNN baseline model.
pub struct GuoModel {
    store: ParamStore,
    gnn: NetlistGnn,
    arrival_head: Mlp,
    net_head: Mlp,
    cell_head: Mlp,
    arr_mean: f32,
    arr_std: f32,
    delay_std: f32,
}

impl GuoModel {
    /// Creates an untrained model.
    pub fn new(config: GuoConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(INIT_SEED);
        let mut store = ParamStore::new();
        // Reuse the levelized GNN machinery with this baseline's widths.
        let mc = ModelConfig {
            embed_dim: config.embed_dim,
            gnn_hidden: config.hidden,
            ..ModelConfig::tiny()
        };
        let gnn = NetlistGnn::new(&mut store, &mut rng, &mc);
        let d = config.embed_dim;
        let h = config.hidden;
        let arrival_head = Mlp::new(&mut store, &mut rng, &[d, h, 1]);
        let net_head = Mlp::new(&mut store, &mut rng, &[d, h, 1]);
        let cell_head = Mlp::new(&mut store, &mut rng, &[d, h, 1]);
        Self {
            store,
            gnn,
            arrival_head,
            net_head,
            cell_head,
            arr_mean: 0.0,
            arr_std: 1.0,
            delay_std: 1.0,
        }
    }

    /// Trains with the multi-task loss: endpoint arrival + auxiliary local
    /// labels on survivors.
    pub fn train(&mut self, designs: &[&BaselineInputs<'_>], epochs: usize, lr: f32) {
        rtt_obs::span!("baselines::guo_train");
        let prepared: Vec<Prepared> = designs.iter().map(|d| prepare(d)).collect();
        // Arrivals are regressed linearly, as the main model regresses
        // them (log space makes upward extrapolation exponential); delays,
        // which span several orders of magnitude locally, stay in log
        // space.
        let arrivals: Vec<f32> = prepared
            .iter()
            .flat_map(|p| p.ep_labels.iter().chain(&p.arr_labels))
            .copied()
            .collect();
        if arrivals.is_empty() {
            return;
        }
        self.arr_mean = arrivals.iter().sum::<f32>() / arrivals.len() as f32;
        let var = arrivals.iter().map(|a| (a - self.arr_mean).powi(2)).sum::<f32>()
            / arrivals.len() as f32;
        self.arr_std = var.sqrt().max(1e-6);
        let delays: Vec<f32> = prepared
            .iter()
            .flat_map(|p| p.net_labels.iter().chain(&p.cell_labels))
            .map(|&d| encode(d))
            .collect();
        let dvar = delays.iter().map(|d| d * d).sum::<f32>() / delays.len().max(1) as f32;
        self.delay_std = dvar.sqrt().max(1e-6);

        let mut adam = Adam::new(lr);
        for _ in 0..epochs {
            for p in &prepared {
                let tape = Tape::new();
                let flat = self.node_embeddings(&tape, p);
                let mut loss = {
                    let emb = tape
                        .gather_rows(flat, p.schedule.flat_endpoint_rows())
                        .scale(rtt_core::READOUT_SCALE);
                    let pred = self.arrival_head.forward(&tape, &self.store, emb);
                    let t = self.norm_arr(&tape, &p.ep_labels);
                    mse(&tape, pred, t)
                };
                if !p.arr_rows.is_empty() {
                    let emb = tape.gather_rows(flat, &p.arr_rows).scale(rtt_core::READOUT_SCALE);
                    let pred = self.arrival_head.forward(&tape, &self.store, emb);
                    let t = self.norm_arr(&tape, &p.arr_labels);
                    loss = loss.add(mse(&tape, pred, t).scale(AUX_WEIGHT));
                }
                if !p.net_rows.is_empty() {
                    // Local delays are not cumulative: bound the readout so
                    // depth-accumulated embedding magnitude cannot leak in.
                    let emb =
                        tape.gather_rows(flat, &p.net_rows).scale(rtt_core::READOUT_SCALE).tanh();
                    let pred = self.net_head.forward(&tape, &self.store, emb);
                    let t = self.norm_delay(&tape, &p.net_labels);
                    loss = loss.add(mse(&tape, pred, t).scale(AUX_WEIGHT));
                }
                if !p.cell_rows.is_empty() {
                    let emb =
                        tape.gather_rows(flat, &p.cell_rows).scale(rtt_core::READOUT_SCALE).tanh();
                    let pred = self.cell_head.forward(&tape, &self.store, emb);
                    let t = self.norm_delay(&tape, &p.cell_labels);
                    loss = loss.add(mse(&tape, pred, t).scale(AUX_WEIGHT));
                }
                let grads = tape.backward(loss);
                adam.step(&mut self.store, &grads);
            }
        }
    }

    fn norm_arr<'t>(&self, tape: &'t Tape, labels: &[f32]) -> rtt_nn::Var<'t> {
        let data: Vec<f32> = labels.iter().map(|&a| (a - self.arr_mean) / self.arr_std).collect();
        tape.constant(Tensor::from_vec(&[labels.len(), 1], data))
    }

    fn norm_delay<'t>(&self, tape: &'t Tape, labels: &[f32]) -> rtt_nn::Var<'t> {
        let data: Vec<f32> = labels.iter().map(|&d| encode(d) / self.delay_std).collect();
        tape.constant(Tensor::from_vec(&[labels.len(), 1], data))
    }

    /// The GNN's flat node-embedding matrix for a design, on the tape.
    fn node_embeddings<'t>(&self, tape: &'t Tape, p: &Prepared) -> Var<'t> {
        self.gnn.forward_nodes(tape, &self.store, &p.schedule, &p.feats, Aggregation::Max)
    }

    /// Predicts endpoint arrivals for a design: one GNN pass over the
    /// flat plan, one gather of every endpoint row, one pass through the
    /// arrival head — the forward this model trains on.
    // rtt-lint: entry
    pub fn predict_endpoints(&self, inputs: &BaselineInputs<'_>) -> Vec<f32> {
        let p = prepare(inputs);
        let tape = Tape::new();
        let flat = self.node_embeddings(&tape, &p);
        let emb =
            tape.gather_rows(flat, p.schedule.flat_endpoint_rows()).scale(rtt_core::READOUT_SCALE);
        let pred = tape.value(self.arrival_head.forward(&tape, &self.store, emb));
        pred.data().iter().map(|v| v * self.arr_std + self.arr_mean).collect()
    }

    /// `(prediction, label)` pairs for the auxiliary local tasks on the
    /// survivors: `(net delays, cell delays)` — the split local columns the
    /// paper reports for this baseline.
    #[allow(clippy::type_complexity)]
    pub fn local_eval(&self, inputs: &BaselineInputs<'_>) -> (Vec<(f32, f32)>, Vec<(f32, f32)>) {
        let p = prepare(inputs);
        let tape = Tape::new();
        let flat = self.node_embeddings(&tape, &p);
        let eval = |rows: &[u32], labels: &[f32], head: &Mlp| -> Vec<(f32, f32)> {
            if rows.is_empty() {
                return Vec::new();
            }
            let emb = tape.gather_rows(flat, rows).scale(rtt_core::READOUT_SCALE).tanh();
            let pred = tape.value(head.forward(&tape, &self.store, emb));
            pred.data()
                .iter()
                .zip(labels)
                .map(|(&pv, &l)| (decode(pv * self.delay_std), l))
                .collect()
        };
        (
            eval(&p.net_rows, &p.net_labels, &self.net_head),
            eval(&p.cell_rows, &p.cell_labels, &self.cell_head),
        )
    }
}

/// Log-space label transform shared with the main model (see DESIGN.md).
fn encode(x: f32) -> f32 {
    (1.0 + x.max(0.0)).ln()
}

/// Clamped inverse: an out-of-range head prediction must not overflow to
/// astronomical delays.
fn decode(x: f32) -> f32 {
    x.clamp(0.0, 15.0).exp() - 1.0
}
