//! Golden-run regression tests: a short, fully seeded train/predict cycle
//! and the simulated dataset flow (place, optimize, route, sign-off STA),
//! each compared byte-for-byte against a checked-in golden file.
//!
//! The entire pipeline is deterministic by contract (fixed seeds, ordered
//! reductions, thread-count-invariant math), so any diff here means a
//! behavioral change — intended or not. To re-bless both files after an
//! *intended* numeric change:
//!
//! ```text
//! RTT_BLESS=1 cargo test --test golden_run
//! ```
//!
//! then commit the updated files under `tests/golden/` and call out the
//! re-bless (with why) in the PR description.

use std::fmt::Write as _;
use std::path::PathBuf;

use restructure_timing::circgen::all_presets;
use restructure_timing::flow::run_design_flow;
use restructure_timing::prelude::*;

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(file)
}

/// Runs the canonical two-epoch golden workload and renders every output
/// that must stay bit-stable: final loss, per-epoch losses, and every
/// prediction (as both decimal and the exact f32 bit pattern).
fn run_golden_workload() -> String {
    let lib = CellLibrary::asap7_like();
    let design = GenParams::new("golden", 150, 7).generate(&lib);
    let pl = place(&design.netlist, &lib, 0, &PlaceConfig::default());
    let rt = route(&design.netlist, &lib, &pl, &RouteConfig::default());
    let graph = TimingGraph::build(&design.netlist, &lib);
    let sta = run_sta(&design.netlist, &lib, &graph, &rt, 500.0);
    let targets: Vec<f32> = sta.endpoint_arrivals().iter().map(|&(_, a)| a).collect();

    let cfg = ModelConfig::tiny();
    let prep = PreparedDesign::prepare(&design.netlist, &lib, &pl, &graph, &cfg, targets);
    let mut model = TimingModel::new(cfg);
    let log = model
        .train(std::slice::from_ref(&prep), &TrainConfig { epochs: 2, ..TrainConfig::default() });
    let pred = model.predict(&prep);

    let mut out = String::new();
    writeln!(out, "golden run: design=golden cells=150 seed=7 epochs=2").unwrap();
    for (i, l) in log.epoch_loss.iter().enumerate() {
        writeln!(out, "epoch {i} loss {l:.9e} bits 0x{:08x}", l.to_bits()).unwrap();
    }
    writeln!(out, "endpoints {}", pred.len()).unwrap();
    for (i, p) in pred.iter().enumerate() {
        writeln!(out, "pred {i} {p:.9e} bits 0x{:08x}", p.to_bits()).unwrap();
    }
    out
}

/// FNV-1a over 32-bit words: a stable digest for long bit vectors.
fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Runs the dataset flow on the ten presets at `Scale::Tiny` plus jpeg at
/// `Scale::Small` (the one design that exercises every optimizer
/// transform) and renders one line per design: clock period, sign-off and
/// no-opt WNS/TNS bits, replaced edges, every optimizer count, and digests
/// of the endpoint targets and the optimized cell types.
fn run_flow_workload() -> String {
    let lib = CellLibrary::asap7_like();
    let mut designs = all_presets(Scale::Tiny);
    designs.push(preset("jpeg", Scale::Small).expect("known preset"));
    let mut out = String::new();
    for (params, scale) in designs.iter().zip([Scale::Tiny; 10].into_iter().chain([Scale::Small])) {
        let d = run_design_flow(params, &lib);
        let r = &d.opt_report;
        let targets = fnv1a(d.endpoint_targets().iter().map(|t| t.to_bits()));
        let cells = fnv1a(d.opt_netlist.cells().flat_map(|(c, cell)| [c.0, cell.type_id.0]));
        writeln!(
            out,
            "{} {scale:?} period 0x{:08x} signoff 0x{:08x} 0x{:08x} no_opt 0x{:08x} 0x{:08x} \
             replaced net {} cell {} passes {} sizing {} downsize {} drv_buffer {} buffer {} \
             decompose {} bypass {} blocked density {} macro {} targets {targets:016x} \
             cells {cells:016x}",
            d.name,
            d.clock_period_ps.to_bits(),
            d.signoff.wns.to_bits(),
            d.signoff.tns.to_bits(),
            d.no_opt.wns.to_bits(),
            d.no_opt.tns.to_bits(),
            d.diff.replaced_net_edges,
            d.diff.replaced_cell_edges,
            r.passes,
            r.sizing_ops,
            r.downsize_ops,
            r.drv_buffer_ops,
            r.buffer_ops,
            r.decompose_ops,
            r.bypass_ops,
            r.blocked_by_density,
            r.blocked_by_macro,
        )
        .unwrap();
    }
    out
}

/// Compares `text` with the golden `file`, or rewrites the file under
/// `RTT_BLESS`.
fn check_golden(file: &str, text: &str) {
    let path = golden_path(file);
    if std::env::var_os("RTT_BLESS").is_some() {
        std::fs::write(&path, text).expect("write golden file");
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nmissing or unreadable golden file; create it with \
             `RTT_BLESS=1 cargo test --test golden_run`",
            path.display()
        )
    });
    assert!(
        text == golden,
        "golden-run output drifted from {}.\n\
         If the numeric change is intended, re-bless with \
         `RTT_BLESS=1 cargo test --test golden_run` and commit the new file.\n\
         --- expected ---\n{golden}\n--- actual ---\n{text}",
        path.display()
    );
}

#[test]
fn golden_run_matches_blessed_output() {
    check_golden("golden_run.txt", &run_golden_workload());
}

#[test]
fn flow_run_matches_blessed_output() {
    check_golden("flow_run.txt", &run_flow_workload());
}
