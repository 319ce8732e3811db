//! `rtt-lint` — workspace-specific determinism and robustness lints.
//!
//! A from-scratch static-analysis pass over this workspace's Rust sources:
//! a hand-rolled lexer (no `syn`; the build environment is offline) feeds
//! per-file token matchers plus a workspace-level call graph:
//!
//! | id   | checks |
//! |------|--------|
//! | D001 | HashMap/HashSet iteration (hash order), in every file |
//! | D002 | ambient entropy (`thread_rng`, `SystemTime::now`, `Instant::now`) |
//! | D003 | exact float `==` / `!=` comparison |
//! | D004 | `par_iter()` reduced with `.sum()`/`.reduce()` (scheduling-order) |
//! | P001 | allocation reachable from a `// rtt-lint: hot` function |
//! | P002 | unhoisted bounds check in a hot function's inner loop |
//! | R001 | `unwrap()`/`expect()` in library code |
//! | R002 | `panic!`/`todo!`/`unimplemented!` in library code |
//! | R003 | panic site reachable from a `// rtt-lint: entry` function |
//! | U001 | `unsafe` without a `// SAFETY:` comment |
//!
//! D–U rules are per-file token matchers (v1); P/R003 run on a
//! conservative cross-crate call graph built by `parse` + `callgraph`
//! (v2). Findings are suppressed either inline
//! (`// rtt-lint: allow(D001, reason = "...")`) or through the checked-in
//! `lint-allow.toml` baseline; both channels require a reason, and
//! baseline entries that no longer match any finding are a hard error so
//! stale suppressions cannot rot silently.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod diag;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod suppress;
pub mod walk;

pub use diag::{Finding, Rule};
pub use rules::{FileContext, FileKind};
pub use suppress::Baseline;

use std::path::Path;

/// Output of one lint run.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// Unsuppressed findings, sorted by (file, line, col, rule).
    pub findings: Vec<Finding>,
    /// Non-fatal problems: malformed suppressions, unreadable files.
    pub warnings: Vec<String>,
    /// Number of findings silenced by inline suppressions.
    pub suppressed_inline: usize,
    /// Number of findings silenced by the baseline.
    pub suppressed_baseline: usize,
    /// Number of files checked.
    pub files_checked: usize,
    /// `// rtt-lint: entry` functions found (R003 roots).
    pub entry_points: usize,
    /// `// rtt-lint: hot` functions found (P001/P002 roots).
    pub hot_fns: usize,
    /// Resolved call-graph edges.
    pub call_edges: usize,
}

/// Lints a set of `(context, source)` pairs as one unit: per-file rules
/// plus the cross-file call-graph rules over all of them together. This is
/// the core both `lint_source` and `lint_workspace` funnel through; the
/// baseline is **not** consulted here — only inline suppressions.
pub fn lint_files(files: &[(FileContext, &str)]) -> LintReport {
    let mut report = LintReport { files_checked: files.len(), ..LintReport::default() };
    let mut raw: Vec<Finding> = Vec::new();
    let mut parsed: Vec<parse::ParsedFile> = Vec::new();
    // (path, allows) per file; graph findings are matched back by path.
    let mut allow_map: Vec<(String, Vec<suppress::InlineAllow>)> = Vec::new();
    for (ctx, source) in files {
        let lexed = lexer::lex(source);
        raw.extend(rules::check_file(&lexed, ctx, source));
        parsed.push(parse::parse_file(&lexed, ctx));
        let (allows, warnings) = suppress::parse_inline(&lexed.comments, &ctx.path);
        report.warnings.extend(warnings);
        allow_map.push((ctx.path.clone(), allows));
    }

    let graph = callgraph::CallGraph::build(&parsed);
    report.entry_points = graph.entry_count();
    report.hot_fns = graph.hot_count();
    report.call_edges = graph.edge_count();
    raw.extend(graph.check());

    for f in raw {
        let allows = allow_map
            .iter()
            .find(|(path, _)| *path == f.file)
            .map(|(_, a)| a.as_slice())
            .unwrap_or(&[]);
        if allows.iter().any(|a| a.covers(f.rule, f.line)) {
            report.suppressed_inline += 1;
        } else {
            report.findings.push(f);
        }
    }
    sort_findings(&mut report.findings);
    report
}

/// Lints a single source string under an explicit context. This is the
/// entry point used by fixture tests. Call-graph rules see only this one
/// file (entries, hot fns, and callees must be in it).
pub fn lint_source(source: &str, ctx: &FileContext) -> LintReport {
    lint_files(&[(ctx.clone(), source)])
}

/// Lints every workspace source file under `root`, applying inline
/// suppressions and the `lint-allow.toml` baseline (when present). Errors
/// when a baseline entry matches no finding: stale suppressions must be
/// deleted, not carried.
pub fn lint_workspace(root: &Path) -> Result<LintReport, String> {
    let baseline = match std::fs::read_to_string(root.join("lint-allow.toml")) {
        Ok(text) => Baseline::parse(&text)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Baseline::default(),
        Err(e) => return Err(format!("lint-allow.toml: {e}")),
    };
    let paths = walk::workspace_rs_files(root)?;
    let mut sources: Vec<(FileContext, String)> = Vec::new();
    let mut warnings = Vec::new();
    for path in paths {
        let rel = match path.strip_prefix(root) {
            Ok(r) => r.to_string_lossy().replace('\\', "/"),
            Err(_) => path.to_string_lossy().replace('\\', "/"),
        };
        match std::fs::read_to_string(&path) {
            Ok(s) => sources.push((walk::classify(&rel), s)),
            Err(e) => warnings.push(format!("{rel}: unreadable: {e}")),
        }
    }
    let refs: Vec<(FileContext, &str)> =
        sources.iter().map(|(ctx, s)| (ctx.clone(), s.as_str())).collect();
    let mut report = lint_files(&refs);
    report.warnings.extend(warnings);

    let mut used = vec![false; baseline.entries.len()];
    let mut findings = Vec::new();
    for f in std::mem::take(&mut report.findings) {
        let mut covered = false;
        for (i, e) in baseline.entries.iter().enumerate() {
            if e.rule == f.rule && e.path == f.file {
                used[i] = true;
                covered = true;
            }
        }
        if covered {
            report.suppressed_baseline += 1;
        } else {
            findings.push(f);
        }
    }
    report.findings = findings;

    let stale: Vec<String> = baseline
        .entries
        .iter()
        .zip(&used)
        .filter(|&(_, u)| !u)
        .map(|(e, _)| format!("{} in {}", e.rule, e.path))
        .collect();
    if !stale.is_empty() {
        return Err(format!(
            "lint-allow.toml has {} stale entr{} matching no finding (delete {}): {}",
            stale.len(),
            if stale.len() == 1 { "y" } else { "ies" },
            if stale.len() == 1 { "it" } else { "them" },
            stale.join(", ")
        ));
    }
    sort_findings(&mut report.findings);
    Ok(report)
}

fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_ctx(crate_name: &str) -> FileContext {
        FileContext {
            path: format!("crates/{crate_name}/src/lib.rs"),
            crate_name: crate_name.to_owned(),
            kind: FileKind::Lib,
        }
    }

    #[test]
    fn inline_suppression_silences_and_counts() {
        let src = "fn f(m: &std::collections::HashMap<u32, u32>) -> u32 {\n\
                   // rtt-lint: allow(D001, reason = \"sum is order-independent over ints\")\n\
                   m.values().sum()\n}\n";
        let report = lint_source(src, &lib_ctx("sta"));
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.suppressed_inline, 1);
    }

    #[test]
    fn findings_sorted_by_position() {
        let src =
            "fn f() {\n    let x = 1.0f32;\n    let b = x == 0.0;\n    let c = x != 1.0;\n}\n";
        let report = lint_source(src, &lib_ctx("sta"));
        assert_eq!(report.findings.len(), 2);
        assert!(report.findings[0].line < report.findings[1].line);
    }

    #[test]
    fn graph_rules_cross_files_and_report_stats() {
        let a_ctx = lib_ctx("core");
        let b_ctx = FileContext {
            path: "crates/nn/src/ops.rs".to_owned(),
            crate_name: "nn".to_owned(),
            kind: FileKind::Lib,
        };
        let a = "// rtt-lint: entry\npub fn predict() { kernel(); }\n";
        // rtt-lint in `b`: unwrap is both R001 (per-file) and R003 (graph).
        let b = "pub fn kernel() { inner().unwrap(); }\n\
                 fn inner() -> Option<u32> { None }\n";
        let report = lint_files(&[(a_ctx, a), (b_ctx, b)]);
        assert_eq!(report.entry_points, 1);
        assert!(report.call_edges >= 2, "{}", report.call_edges);
        assert!(report.findings.iter().any(|f| f.rule == Rule::R003), "{:?}", report.findings);
        assert!(report.findings.iter().any(|f| f.rule == Rule::R001), "{:?}", report.findings);
    }

    #[test]
    fn inline_allow_covers_graph_findings_too() {
        let src = "// rtt-lint: entry\npub fn serve() {\n\
                   // rtt-lint: allow(R003, R001, reason = \"demo: both channels covered\")\n\
                   opt().unwrap();\n}\nfn opt() -> Option<u32> { None }\n";
        let report = lint_source(src, &lib_ctx("core"));
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.suppressed_inline, 2);
    }
}
