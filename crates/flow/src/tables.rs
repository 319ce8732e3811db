//! The paper's experiments: Tables I–III and the design-choice ablations.

use std::time::Instant;

use rtt_baselines::{GuoConfig, GuoModel, TwoStageKind, TwoStageModel};
use rtt_circgen::TRAIN_DESIGNS;
use rtt_core::{Aggregation, ModelConfig, ModelVariant, TimingModel, TrainConfig};

use crate::{r2_score, Dataset, DesignData};

// ---------------------------------------------------------------- Table I

/// One row of Table I: input statistics and optimization impact.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Design name.
    pub name: String,
    /// `true` for the training split.
    pub train: bool,
    /// Live pins in the input design.
    pub pins: usize,
    /// Timing endpoints.
    pub endpoints: usize,
    /// Net edges in the input graph.
    pub net_edges: usize,
    /// Cell edges in the input graph.
    pub cell_edges: usize,
    /// Relative WNS change between flows with/without optimization.
    pub d_wns: f64,
    /// Relative TNS change between flows with/without optimization.
    pub d_tns: f64,
    /// Fraction of input net edges replaced.
    pub net_replaced: f64,
    /// Mean relative delay change on unreplaced net edges.
    pub net_d_delay: f64,
    /// Fraction of input cell edges replaced.
    pub cell_replaced: f64,
    /// Mean relative delay change on unreplaced cell edges.
    pub cell_d_delay: f64,
}

fn relative_change(after: f32, before: f32) -> f64 {
    let denom = before.abs().max(1e-3);
    f64::from((after - before).abs() / denom)
}

/// Mean relative delay churn over surviving edges between the two flows.
fn delay_churn(
    design: &DesignData,
    edges: &[(rtt_netlist::PinId, rtt_netlist::PinId)],
    lookup: impl Fn(&rtt_sta::StaReport, rtt_netlist::PinId, rtt_netlist::PinId) -> Option<f32>,
) -> f64 {
    let mut total = 0.0f64;
    let mut count = 0usize;
    for &(a, b) in edges {
        let (Some(with), Some(without)) =
            (lookup(&design.signoff, a, b), lookup(&design.no_opt, a, b))
        else {
            continue;
        };
        total += f64::from((with - without).abs() / without.abs().max(0.5));
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// Computes Table I for every design of the dataset.
pub fn table1(dataset: &Dataset) -> Vec<Table1Row> {
    dataset
        .designs
        .iter()
        .map(|d| Table1Row {
            name: d.name.clone(),
            train: TRAIN_DESIGNS.contains(&d.name.as_str()),
            pins: d.input_netlist.num_pins(),
            endpoints: d.input_graph.endpoints().len(),
            net_edges: d.input_graph.num_net_edges(),
            cell_edges: d.input_graph.num_cell_edges(),
            d_wns: relative_change(d.signoff.wns, d.no_opt.wns),
            d_tns: relative_change(d.signoff.tns, d.no_opt.tns),
            net_replaced: d.diff.net_replaced_fraction(),
            net_d_delay: delay_churn(d, d.diff.surviving_net_edges(), |r, a, b| {
                r.net_edge_delay(a, b)
            }),
            cell_replaced: d.diff.cell_replaced_fraction(),
            cell_d_delay: delay_churn(d, d.diff.surviving_cell_edges(), |r, a, b| {
                r.cell_edge_delay(a, b)
            }),
        })
        .collect()
}

/// Renders Table I as markdown.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::from(
        "| design | split | #pin | #edp | #e_n | #e_c | Δwns | Δtns | net #repl | net Δdelay | cell #repl | cell Δdelay |\n\
         |---|---|---|---|---|---|---|---|---|---|---|---|\n",
    );
    for r in rows {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {:.1}% | {:.1}% | {:.1}% | {:.1}% | {:.1}% | {:.1}% |\n",
            r.name,
            if r.train { "train" } else { "test" },
            r.pins,
            r.endpoints,
            r.net_edges,
            r.cell_edges,
            r.d_wns * 100.0,
            r.d_tns * 100.0,
            r.net_replaced * 100.0,
            r.net_d_delay * 100.0,
            r.cell_replaced * 100.0,
            r.cell_d_delay * 100.0,
        ));
    }
    out
}

// --------------------------------------------------------------- Table II

/// Learning rate for the Table II baselines.
const BASELINE_LR: f32 = 2e-3;

/// Configuration of the Table II experiment.
#[derive(Clone, Debug)]
pub struct Table2Config {
    /// Architecture of our model (all three variants share it).
    pub model: ModelConfig,
    /// Training schedule of our model.
    pub train: TrainConfig,
    /// Epochs for the two-stage baselines.
    pub two_stage_epochs: usize,
    /// Epochs for the Guo baseline.
    pub guo_epochs: usize,
}

/// One row of Table II (a test benchmark).
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Benchmark name.
    pub benchmark: String,
    /// DAC19 local stage-delay R².
    pub dac19_local: f32,
    /// DAC22-he local stage-delay R².
    pub he_local: f32,
    /// DAC22-guo local net-delay R².
    pub guo_local_net: f32,
    /// DAC22-guo local cell-delay R².
    pub guo_local_cell: f32,
    /// DAC19 endpoint-arrival R².
    pub dac19_ep: f32,
    /// DAC22-he endpoint-arrival R².
    pub he_ep: f32,
    /// DAC22-guo endpoint-arrival R².
    pub guo_ep: f32,
    /// Our CNN-only endpoint R².
    pub cnn_only: f32,
    /// Our GNN-only endpoint R².
    pub gnn_only: f32,
    /// Our full model endpoint R².
    pub full: f32,
}

/// Owned per-design label bundles feeding [`rtt_baselines::BaselineInputs`].
struct Labels {
    nets: std::collections::HashMap<(rtt_netlist::PinId, rtt_netlist::PinId), f32>,
    cells: std::collections::HashMap<(rtt_netlist::PinId, rtt_netlist::PinId), f32>,
    arrivals: std::collections::HashMap<rtt_netlist::PinId, f32>,
    endpoints: Vec<f32>,
}

impl Labels {
    fn of(d: &DesignData) -> Self {
        Self {
            nets: d.surviving_net_delays(),
            cells: d.surviving_cell_delays(),
            arrivals: d.surviving_arrivals(),
            endpoints: d.endpoint_targets(),
        }
    }
}

fn r2_pairs(pairs: &[(f32, f32)]) -> f32 {
    let (pred, truth): (Vec<f32>, Vec<f32>) = pairs.iter().copied().unzip();
    r2_score(&pred, &truth)
}

/// Runs the full Table II experiment: trains every method on the training
/// designs and evaluates on the held-out designs.
pub fn table2(dataset: &Dataset, config: &Table2Config) -> Vec<Table2Row> {
    let lib = &dataset.library;
    let train: Vec<&DesignData> = dataset.train_designs();
    let test: Vec<&DesignData> = dataset.test_designs();
    let train_labels: Vec<Labels> = train.iter().map(|d| Labels::of(d)).collect();
    let test_labels: Vec<Labels> = test.iter().map(|d| Labels::of(d)).collect();

    let train_inputs: Vec<rtt_baselines::BaselineInputs<'_>> = train
        .iter()
        .zip(&train_labels)
        .map(|(d, l)| d.baseline_inputs(lib, &l.nets, &l.cells, &l.arrivals, &l.endpoints))
        .collect();
    let train_refs: Vec<&rtt_baselines::BaselineInputs<'_>> = train_inputs.iter().collect();

    // Baselines.
    let mut dac19 = TwoStageModel::new(TwoStageKind::Dac19, 1);
    dac19.train(&train_refs, config.two_stage_epochs, BASELINE_LR);
    let mut he = TwoStageModel::new(TwoStageKind::Dac22He, 2);
    he.train(&train_refs, config.two_stage_epochs, BASELINE_LR);
    let mut guo = GuoModel::new(GuoConfig {
        embed_dim: config.model.embed_dim,
        hidden: config.model.gnn_hidden,
    });
    guo.train(&train_refs, config.guo_epochs, BASELINE_LR);

    // Our three variants.
    let train_prepared: Vec<rtt_core::PreparedDesign> =
        train.iter().map(|d| d.prepared(lib, &config.model)).collect();
    let mut variants = Vec::new();
    for variant in [ModelVariant::CnnOnly, ModelVariant::GnnOnly, ModelVariant::Full] {
        let mut model = TimingModel::new(config.model.clone().with_variant(variant));
        model.train(&train_prepared, &config.train);
        variants.push(model);
    }

    // Evaluation on the held-out designs.
    test.iter()
        .zip(&test_labels)
        .map(|(d, l)| {
            let inputs = d.baseline_inputs(lib, &l.nets, &l.cells, &l.arrivals, &l.endpoints);
            let truth = &l.endpoints;

            let (guo_net_pairs, guo_cell_pairs) = guo.local_eval(&inputs);
            let our: Vec<f32> = variants
                .iter()
                .map(|m| {
                    let prep = d.prepared(lib, m.config());
                    r2_score(&m.predict(&prep), truth)
                })
                .collect();

            Table2Row {
                benchmark: d.name.clone(),
                dac19_local: r2_pairs(&dac19.local_eval(&inputs)),
                he_local: r2_pairs(&he.local_eval(&inputs)),
                guo_local_net: r2_pairs(&guo_net_pairs),
                guo_local_cell: r2_pairs(&guo_cell_pairs),
                dac19_ep: r2_score(&dac19.predict_endpoints(&inputs), truth),
                he_ep: r2_score(&he.predict_endpoints(&inputs), truth),
                guo_ep: r2_score(&guo.predict_endpoints(&inputs), truth),
                cnn_only: our[0],
                gnn_only: our[1],
                full: our[2],
            }
        })
        .collect()
}

/// Column-wise average row for Table II.
pub fn table2_average(rows: &[Table2Row]) -> Table2Row {
    let n = rows.len().max(1) as f32;
    let avg = |f: fn(&Table2Row) -> f32| rows.iter().map(f).sum::<f32>() / n;
    Table2Row {
        benchmark: "avg".to_owned(),
        dac19_local: avg(|r| r.dac19_local),
        he_local: avg(|r| r.he_local),
        guo_local_net: avg(|r| r.guo_local_net),
        guo_local_cell: avg(|r| r.guo_local_cell),
        dac19_ep: avg(|r| r.dac19_ep),
        he_ep: avg(|r| r.he_ep),
        guo_ep: avg(|r| r.guo_ep),
        cnn_only: avg(|r| r.cnn_only),
        gnn_only: avg(|r| r.gnn_only),
        full: avg(|r| r.full),
    }
}

/// Renders Table II as markdown (local columns left, endpoint columns
/// right, as in the paper).
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut out = String::from(
        "| benchmark | DAC19 loc | DAC22-he loc | DAC22-guo loc (net/cell) | DAC19 ep | DAC22-he ep | DAC22-guo ep | CNN-only | GNN-only | full |\n\
         |---|---|---|---|---|---|---|---|---|---|\n",
    );
    for r in rows {
        out.push_str(&format!(
            "| {} | {:.4} | {:.4} | {:.4} / {:.4} | {:.4} | {:.4} | {:.4} | {:.4} | {:.4} | **{:.4}** |\n",
            r.benchmark,
            r.dac19_local,
            r.he_local,
            r.guo_local_net,
            r.guo_local_cell,
            r.dac19_ep,
            r.he_ep,
            r.guo_ep,
            r.cnn_only,
            r.gnn_only,
            r.full,
        ));
    }
    out
}

// -------------------------------------------------------------- Table III

/// One row of Table III: runtime comparison.
#[derive(Clone, Debug)]
pub struct Table3Row {
    /// Design name.
    pub design: String,
    /// Optimization seconds ("commercial" flow).
    pub opt_s: f64,
    /// Routing seconds.
    pub route_s: f64,
    /// Sign-off STA seconds.
    pub sta_s: f64,
    /// Total flow seconds.
    pub total_s: f64,
    /// Our preprocessing seconds (graph, levels, masks, maps).
    pub pre_s: f64,
    /// Our inference seconds.
    pub infer_s: f64,
    /// Speedup of ours over the flow.
    pub speedup: f64,
}

/// Measures the runtime comparison of Table III on every design.
///
/// The model's weights do not affect inference cost, so a freshly
/// initialized model of the given architecture is used. Inference runs
/// the production predict path — the tape-free [`rtt_nn::InferCtx`]
/// backend — so the `infer (s)` column pays no autodiff bookkeeping and
/// reuses one buffer arena across endpoint chunks.
pub fn table3(dataset: &Dataset, model_config: &ModelConfig) -> Vec<Table3Row> {
    let model = TimingModel::new(model_config.clone());
    dataset
        .designs
        .iter()
        .map(|d| {
            // rtt-lint: allow(D002, reason = "Table III reports measured runtimes")
            let t0 = Instant::now();
            let prep = d.prepared(&dataset.library, model_config);
            let pre_s = t0.elapsed().as_secs_f64();
            // rtt-lint: allow(D002, reason = "Table III reports measured runtimes")
            let t1 = Instant::now();
            let _ = model.predict(&prep);
            let infer_s = t1.elapsed().as_secs_f64();
            let ours = (pre_s + infer_s).max(1e-9);
            Table3Row {
                design: d.name.clone(),
                opt_s: d.timings.opt_s,
                route_s: d.timings.route_s,
                sta_s: d.timings.sta_s,
                total_s: d.timings.total_s(),
                pre_s,
                infer_s,
                speedup: d.timings.total_s() / ours,
            }
        })
        .collect()
}

/// Renders Table III as markdown.
pub fn render_table3(rows: &[Table3Row]) -> String {
    let mut out = String::from(
        "| design | opt (s) | route (s) | sta (s) | total (s) | pre (s) | infer (s) | ours (s) | speedup |\n\
         |---|---|---|---|---|---|---|---|---|\n",
    );
    for r in rows {
        out.push_str(&format!(
            "| {} | {:.3} | {:.3} | {:.3} | {:.3} | {:.4} | {:.4} | {:.4} | {:.0}× |\n",
            r.design,
            r.opt_s,
            r.route_s,
            r.sta_s,
            r.total_s,
            r.pre_s,
            r.infer_s,
            r.pre_s + r.infer_s,
            r.speedup,
        ));
    }
    out
}

// -------------------------------------------------------------- Ablations

/// One ablation result: a model variant and its average test R².
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Variant description.
    pub variant: String,
    /// Average endpoint R² over the test designs.
    pub avg_test_r2: f32,
}

/// Runs the A2 design-choice ablations: max vs mean cell aggregation, and
/// endpoint masking vs a shared layout map.
pub fn ablation(
    dataset: &Dataset,
    base: &ModelConfig,
    train_cfg: &TrainConfig,
) -> Vec<AblationRow> {
    let lib = &dataset.library;
    let train: Vec<rtt_core::PreparedDesign> =
        dataset.train_designs().iter().map(|d| d.prepared(lib, base)).collect();
    let cases = [
        ("full (max agg, masked)".to_owned(), base.clone()),
        (
            "mean aggregation".to_owned(),
            ModelConfig { aggregation: Aggregation::Mean, ..base.clone() },
        ),
        ("no endpoint masking".to_owned(), ModelConfig { masking: false, ..base.clone() }),
    ];
    cases
        .into_iter()
        .map(|(name, cfg)| {
            let mut model = TimingModel::new(cfg);
            model.train(&train, train_cfg);
            let scores: Vec<f32> = dataset
                .test_designs()
                .iter()
                .map(|d| {
                    let prep = d.prepared(lib, model.config());
                    r2_score(&model.predict(&prep), &d.endpoint_targets())
                })
                .collect();
            AblationRow {
                variant: name,
                avg_test_r2: scores.iter().sum::<f32>() / scores.len().max(1) as f32,
            }
        })
        .collect()
}

/// Renders the ablation table as markdown.
pub fn render_ablation(rows: &[AblationRow]) -> String {
    let mut out = String::from("| variant | avg test R² |\n|---|---|\n");
    for r in rows {
        out.push_str(&format!("| {} | {:.4} |\n", r.variant, r.avg_test_r2));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowConfig;
    use rtt_circgen::Scale;

    fn tiny_dataset() -> Dataset {
        Dataset::generate_subset(&FlowConfig { scale: Scale::Tiny }, 2, 2)
    }

    #[test]
    fn table1_rows_are_sane() {
        let ds = tiny_dataset();
        let rows = table1(&ds);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.pins > 0 && r.endpoints > 0);
            assert!((0.0..=1.0).contains(&r.net_replaced));
            assert!((0.0..=1.0).contains(&r.cell_replaced));
            assert!(r.net_d_delay >= 0.0);
        }
        let md = render_table1(&rows);
        assert!(md.contains("jpeg"));
        assert!(md.lines().count() >= 6);
    }

    #[test]
    fn table2_runs_at_tiny_scale() {
        let ds = tiny_dataset();
        let cfg = Table2Config {
            model: rtt_core::ModelConfig::tiny(),
            train: rtt_core::TrainConfig { epochs: 4, ..Default::default() },
            two_stage_epochs: 20,
            guo_epochs: 4,
        };
        let rows = table2(&ds, &cfg);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            for v in [r.dac19_ep, r.he_ep, r.guo_ep, r.cnn_only, r.gnn_only, r.full] {
                assert!(v.is_finite(), "{}: non-finite R²", r.benchmark);
                assert!(v <= 1.0 + 1e-5);
            }
        }
        let avg = table2_average(&rows);
        assert_eq!(avg.benchmark, "avg");
        let md = render_table2(&rows);
        assert!(md.contains("hwacha"));
    }

    #[test]
    fn table3_speedup_is_positive() {
        let ds = tiny_dataset();
        let rows = table3(&ds, &rtt_core::ModelConfig::tiny());
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.speedup > 0.0);
            assert!(r.total_s >= r.opt_s);
            assert!((r.total_s - (r.opt_s + r.route_s + r.sta_s)).abs() < 1e-9);
        }
        let md = render_table3(&rows);
        assert!(md.contains("speedup"));
    }

    #[test]
    fn ablation_produces_three_variants() {
        let ds = tiny_dataset();
        let rows = ablation(
            &ds,
            &rtt_core::ModelConfig::tiny(),
            &rtt_core::TrainConfig { epochs: 3, ..Default::default() },
        );
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.avg_test_r2.is_finite()));
        assert!(render_ablation(&rows).contains("mean aggregation"));
    }
}
