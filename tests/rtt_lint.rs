//! Tier-1 enforcement: the workspace must lint clean. This runs the same
//! pass as `cargo run -p rtt-lint --release`, so `cargo test` fails when
//! new findings land without a fix, an inline reason, or a baseline entry.

use std::path::Path;

#[test]
fn workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = rtt_lint::lint_workspace(root).expect("lint pass runs");
    assert!(report.files_checked > 50, "walker must cover the workspace");
    for w in &report.warnings {
        eprintln!("warning: {w}");
    }
    assert!(
        report.warnings.is_empty(),
        "malformed suppressions or unreadable files: {:?}",
        report.warnings
    );
    let rendered: String = report.findings.iter().map(|f| f.render_text()).collect();
    assert!(
        report.findings.is_empty(),
        "rtt-lint found {} unsuppressed finding(s):\n{rendered}",
        report.findings.len()
    );
}

#[test]
fn call_graph_covers_the_serving_surface() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = rtt_lint::lint_workspace(root).expect("lint pass runs");
    // The serving surface: TimingModel::{predict, predict_with,
    // predict_batch, predict_incremental, predict_cached}, the daemon's
    // handle_connection and route, plus the baselines' three predict
    // paths (GuoModel::predict_endpoints, TwoStageModel::{predict_stages,
    // predict_endpoints}), which run the taped forward they train on.
    // Losing a marker would silently turn R003 off for that path.
    assert!(report.entry_points >= 7, "only {} entry points annotated", report.entry_points);
    // The kernel hot set: ops kernels, layer forward_into paths, and the
    // inference-arena primitives.
    assert!(report.hot_fns >= 20, "only {} hot fns annotated", report.hot_fns);
    assert!(report.call_edges > 1_000, "call graph collapsed: {} edges", report.call_edges);
}

#[test]
fn baseline_entries_point_at_real_files() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("lint-allow.toml")).expect("baseline exists");
    let baseline = rtt_lint::Baseline::parse(&text).expect("baseline parses");
    assert!(!baseline.entries.is_empty());
    for e in &baseline.entries {
        assert!(root.join(&e.path).is_file(), "stale baseline entry: {}", e.path);
        assert!(!e.reason.trim().is_empty(), "empty reason for {}", e.path);
    }
}
