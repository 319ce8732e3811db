//! Regenerates **Table I**: dataset statistics and the impact of timing
//! optimization on sign-off metrics.

#![allow(clippy::print_stdout)] // reports/tables go to stdout by design

use rtt_bench::Cli;
use rtt_flow::tables::{render_table1, table1, Table1Row};
use rtt_flow::{Dataset, FlowConfig};

fn average(rows: &[&Table1Row], label: &str) -> Table1Row {
    let n = rows.len().max(1);
    let nf = n as f64;
    Table1Row {
        name: label.to_owned(),
        train: label == "avg train",
        pins: rows.iter().map(|r| r.pins).sum::<usize>() / n,
        endpoints: rows.iter().map(|r| r.endpoints).sum::<usize>() / n,
        net_edges: rows.iter().map(|r| r.net_edges).sum::<usize>() / n,
        cell_edges: rows.iter().map(|r| r.cell_edges).sum::<usize>() / n,
        d_wns: rows.iter().map(|r| r.d_wns).sum::<f64>() / nf,
        d_tns: rows.iter().map(|r| r.d_tns).sum::<f64>() / nf,
        net_replaced: rows.iter().map(|r| r.net_replaced).sum::<f64>() / nf,
        net_d_delay: rows.iter().map(|r| r.net_d_delay).sum::<f64>() / nf,
        cell_replaced: rows.iter().map(|r| r.cell_replaced).sum::<f64>() / nf,
        cell_d_delay: rows.iter().map(|r| r.cell_d_delay).sum::<f64>() / nf,
    }
}

fn main() {
    let cli = Cli::parse();
    eprintln!("[table1] generating dataset at scale {} ...", cli.scale);
    let dataset = Dataset::generate(&FlowConfig { scale: cli.scale });
    let mut rows = table1(&dataset);
    let train: Vec<&Table1Row> = rows.iter().filter(|r| r.train).collect();
    let test: Vec<&Table1Row> = rows.iter().filter(|r| !r.train).collect();
    let avg_train = average(&train, "avg train");
    let avg_test = average(&test, "avg test");
    rows.push(avg_train);
    rows.push(avg_test);

    let mut report = format!("# Table I (scale: {})\n\n", cli.scale);
    report.push_str(&render_table1(&rows));
    cli.write_report("table1", &report);
    cli.finish_trace();
}
