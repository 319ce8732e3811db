//! Regenerates the **A2 design-choice ablations** called out in DESIGN.md:
//! max vs mean cell-edge aggregation, and endpoint-wise masking vs a shared
//! layout map (the paper's Section V-B argument).

#![allow(clippy::print_stdout)] // reports/tables go to stdout by design

use rtt_bench::Cli;
use rtt_circgen::Scale;
use rtt_core::{ModelConfig, TrainConfig};
use rtt_flow::tables::{ablation, render_ablation};
use rtt_flow::{Dataset, FlowConfig};

fn main() {
    let cli = Cli::parse();
    eprintln!("[ablation] generating dataset at scale {} ...", cli.scale);
    let dataset = Dataset::generate(&FlowConfig { scale: cli.scale });
    let (model, default_epochs) = match cli.scale {
        Scale::Tiny => (ModelConfig::tiny(), 10),
        // Huge scales the circuits for prepare benchmarks, not the model.
        Scale::Small | Scale::Huge => (ModelConfig::small(), 300),
        Scale::Paper => (ModelConfig::paper(), 200),
    };
    let epochs = cli.epochs.unwrap_or(default_epochs);
    eprintln!("[ablation] training 3 variants × {epochs} epochs ...");
    let rows = ablation(
        &dataset,
        &model,
        &TrainConfig { epochs, lr: 2e-3, log_every: 25, ..TrainConfig::default() },
    );
    let mut report =
        format!("# Design-choice ablations (scale: {}, {epochs} epochs)\n\n", cli.scale);
    report.push_str(&render_ablation(&rows));
    cli.write_report("ablation", &report);
    cli.finish_trace();
}
