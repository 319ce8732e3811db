//! Regenerates **Table II**: R² comparison of the three prior baselines
//! (DAC19, DAC22-he, DAC22-guo) and our CNN-only / GNN-only / full models
//! on the held-out test designs.

#![allow(clippy::print_stdout)] // reports/tables go to stdout by design

use rtt_bench::Cli;
use rtt_circgen::Scale;
use rtt_core::{ModelConfig, TrainConfig};
use rtt_flow::tables::{render_table2, table2, table2_average, Table2Config};
use rtt_flow::{Dataset, FlowConfig};

fn main() {
    let cli = Cli::parse();
    eprintln!("[table2] generating dataset at scale {} ...", cli.scale);
    let dataset = Dataset::generate(&FlowConfig { scale: cli.scale });

    let (model, epochs, two_stage, guo) = match cli.scale {
        Scale::Tiny => (ModelConfig::tiny(), 40, 80, 10),
        // Huge scales the circuits for prepare benchmarks, not the model.
        Scale::Small | Scale::Huge => (ModelConfig::small(), 300, 800, 120),
        Scale::Paper => (ModelConfig::paper(), 200, 2000, 200),
    };
    let epochs = cli.epochs.unwrap_or(epochs);
    let cfg = Table2Config {
        model,
        train: TrainConfig { epochs, lr: 2e-3, log_every: 25, ..TrainConfig::default() },
        two_stage_epochs: two_stage,
        guo_epochs: guo,
    };
    eprintln!("[table2] training all methods ({epochs} epochs for ours) ...");
    let mut rows = table2(&dataset, &cfg);
    rows.push(table2_average(&rows));

    let mut report = format!(
        "# Table II (scale: {}, {} epochs)\n\nLeft columns: local delay R² on unreplaced \
         elements. Right columns: endpoint arrival R².\n\n",
        cli.scale, epochs
    );
    report.push_str(&render_table2(&rows));
    cli.write_report("table2", &report);
    cli.finish_trace();
}
