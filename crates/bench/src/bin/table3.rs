//! Regenerates **Table III**: runtime of the optimize+route+STA flow vs our
//! preprocessing + inference, with per-design speedups.

#![allow(clippy::print_stdout)] // reports/tables go to stdout by design

use rtt_bench::Cli;
use rtt_circgen::Scale;
use rtt_core::ModelConfig;
use rtt_flow::tables::{render_table3, table3, Table3Row};
use rtt_flow::{Dataset, FlowConfig};

fn main() {
    let cli = Cli::parse();
    eprintln!("[table3] generating dataset at scale {} (flow stages are timed) ...", cli.scale);
    let dataset = Dataset::generate(&FlowConfig { scale: cli.scale });
    let model_cfg = match cli.scale {
        Scale::Tiny => ModelConfig::tiny(),
        // Huge scales the circuits for prepare benchmarks, not the model.
        Scale::Small | Scale::Huge => ModelConfig::small(),
        Scale::Paper => ModelConfig::paper(),
    };
    let mut rows = table3(&dataset, &model_cfg);

    let n = rows.len().max(1) as f64;
    let avg = Table3Row {
        design: "avg".to_owned(),
        opt_s: rows.iter().map(|r| r.opt_s).sum::<f64>() / n,
        route_s: rows.iter().map(|r| r.route_s).sum::<f64>() / n,
        sta_s: rows.iter().map(|r| r.sta_s).sum::<f64>() / n,
        total_s: rows.iter().map(|r| r.total_s).sum::<f64>() / n,
        pre_s: rows.iter().map(|r| r.pre_s).sum::<f64>() / n,
        infer_s: rows.iter().map(|r| r.infer_s).sum::<f64>() / n,
        speedup: rows.iter().map(|r| r.total_s).sum::<f64>()
            / rows.iter().map(|r| r.pre_s + r.infer_s).sum::<f64>().max(1e-9),
    };
    rows.push(avg);

    let mut report = format!("# Table III (scale: {})\n\n", cli.scale);
    report.push_str(&render_table3(&rows));
    cli.write_report("table3", &report);
    cli.finish_trace();
}
