//! End-to-end tests of the `restructure-timing` command-line tool: the
//! gen → sta → opt file-interchange loop on real temp files.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_restructure-timing"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rtt_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn gen_sta_opt_pipeline_roundtrips_through_files() {
    let dir = tmpdir("pipeline");
    // gen
    let out = bin()
        .args(["gen", "--design", "xgate", "--scale", "tiny", "--out"])
        .arg(&dir)
        .output()
        .expect("run gen");
    assert!(out.status.success(), "gen failed: {}", String::from_utf8_lossy(&out.stderr));
    let v = dir.join("xgate.v");
    let p = dir.join("xgate.place");
    assert!(v.exists() && p.exists());

    // sta
    let out = bin()
        .args(["sta", "--netlist"])
        .arg(&v)
        .arg("--placement")
        .arg(&p)
        .output()
        .expect("run sta");
    assert!(out.status.success(), "sta failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("wns"), "sta output missing wns: {text}");
    assert!(text.contains("worst endpoints"));

    // opt (tight period forces work)
    let out = bin()
        .args(["opt", "--netlist"])
        .arg(&v)
        .arg("--placement")
        .arg(&p)
        .args(["--period", "120", "--out"])
        .arg(&dir)
        .output()
        .expect("run opt");
    assert!(out.status.success(), "opt failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(dir.join("xgate_opt.v").exists());
    assert!(dir.join("xgate_opt.place").exists());

    // The optimized design re-enters the flow cleanly.
    let out = bin()
        .args(["sta", "--netlist"])
        .arg(dir.join("xgate_opt.v"))
        .arg("--placement")
        .arg(dir.join("xgate_opt.place"))
        .args(["--period", "120"])
        .output()
        .expect("run sta on optimized design");
    assert!(out.status.success(), "sta2 failed: {}", String::from_utf8_lossy(&out.stderr));

    std::fs::remove_dir_all(&dir).ok();
}

/// `opt --weights` predicts the optimized design through an activation
/// cache primed on the input design and checks it against a full pass.
#[test]
fn opt_with_weights_reports_bit_identical_incremental_prediction() {
    use restructure_timing::model::{model_io::save_model, ModelConfig, TimingModel};

    let dir = tmpdir("opt_weights");
    let out = bin()
        .args(["gen", "--design", "xgate", "--scale", "tiny", "--out"])
        .arg(&dir)
        .output()
        .expect("run gen");
    assert!(out.status.success(), "gen failed: {}", String::from_utf8_lossy(&out.stderr));
    let weights = dir.join("model.rttm");
    std::fs::write(&weights, save_model(&TimingModel::new(ModelConfig::tiny())))
        .expect("write weights");

    let out = bin()
        .args(["opt", "--netlist"])
        .arg(dir.join("xgate.v"))
        .arg("--placement")
        .arg(dir.join("xgate.place"))
        .args(["--period", "120", "--out"])
        .arg(&dir)
        .arg("--weights")
        .arg(&weights)
        .output()
        .expect("run opt --weights");
    assert!(out.status.success(), "opt failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("incremental prediction is bit-identical to the full forward pass"),
        "missing the bit-identity line: {text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_command_and_missing_args_fail_cleanly() {
    let out = bin().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out =
        bin().args(["gen", "--design", "no_such_design", "--out", "/tmp"]).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown design"));

    let out = bin().arg("sta").output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing --netlist"));
}

#[test]
fn trace_out_writes_well_formed_json() {
    let dir = tmpdir("trace");
    let path = dir.join("trace.json");
    let out = bin()
        .args(["flow", "--design", "chacha", "--scale", "tiny", "--trace", "--trace-out"])
        .arg(&path)
        .output()
        .expect("run flow with trace");
    assert!(out.status.success(), "flow failed: {}", String::from_utf8_lossy(&out.stderr));
    // --trace prints the human tree to stderr.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("flow::design_flow"), "span tree missing: {stderr}");

    let text = std::fs::read_to_string(&path).expect("trace file exists");
    let doc = restructure_timing::obs::json::Value::parse(&text).expect("trace JSON parses");
    let structure = doc.get("structure").expect("structure member");
    let spans = structure.get("spans").expect("spans member");
    for span in ["flow::design_flow", "flow::design_flow/opt::optimize"] {
        assert!(spans.get(span).is_some(), "trace missing span `{span}`");
    }
    // Durations live outside the structural member.
    assert!(doc.get("timing_ms").is_some());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_structure_is_identical_across_thread_counts() {
    let dir = tmpdir("trace_threads");
    let mut structures = Vec::new();
    for threads in ["1", "4"] {
        let path = dir.join(format!("trace_{threads}.json"));
        let out = bin()
            .args(["flow", "--design", "chacha", "--scale", "tiny", "--trace-out"])
            .arg(&path)
            .env("RTT_THREADS", threads)
            .output()
            .expect("run flow");
        assert!(out.status.success(), "flow failed: {}", String::from_utf8_lossy(&out.stderr));
        let text = std::fs::read_to_string(&path).expect("trace file");
        let doc = restructure_timing::obs::json::Value::parse(&text).expect("trace JSON parses");
        structures.push(doc.get("structure").expect("structure member").to_string());
    }
    assert_eq!(structures[0], structures[1], "span tree / counters must not depend on RTT_THREADS");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_out_to_unwritable_path_fails() {
    let out = bin()
        .args([
            "flow",
            "--design",
            "chacha",
            "--scale",
            "tiny",
            "--trace-out",
            "/nonexistent_dir_rtt/trace.json",
        ])
        .output()
        .expect("run flow");
    assert!(!out.status.success(), "unwritable --trace-out must exit nonzero");
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
}

#[test]
fn flow_command_prints_replacement_summary() {
    let out =
        bin().args(["flow", "--design", "chacha", "--scale", "tiny"]).output().expect("run flow");
    assert!(out.status.success(), "flow failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("without opt"));
    assert!(text.contains("with opt"));
    assert!(text.contains("replaced"));
}
