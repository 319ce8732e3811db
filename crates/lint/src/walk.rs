//! Deterministic workspace walker and file classification.

use crate::rules::{FileContext, FileKind};
use std::path::{Path, PathBuf};

/// Collects every `.rs` file under the workspace root that the lint pass
/// covers, sorted by path so output order is stable. Skips `target/` and
/// any directory named `fixtures` (lint test inputs are intentionally
/// dirty).
pub fn workspace_rs_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    for top in ["crates", "compat", "src", "tests", "examples", "benches"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect(&dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        paths.push(entry.path());
    }
    paths.sort();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Classifies a repo-relative path into a [`FileContext`].
pub fn classify(rel: &str) -> FileContext {
    let segments: Vec<&str> = rel.split('/').collect();
    let crate_name = match segments.first() {
        Some(&"crates") | Some(&"compat") => segments.get(1).copied().unwrap_or(""),
        // Root `src/`, `tests/`, `examples/` belong to the facade package.
        _ => "restructure-timing",
    };
    let kind = if segments.contains(&"tests") {
        FileKind::Test
    } else if segments.contains(&"examples") {
        FileKind::Example
    } else if segments.contains(&"benches") || crate_name == "bench" {
        FileKind::Bench
    } else if segments.contains(&"bin") || segments.last().is_some_and(|s| *s == "main.rs") {
        FileKind::Bin
    } else {
        FileKind::Lib
    };
    FileContext { path: rel.to_owned(), crate_name: crate_name.to_owned(), kind }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_the_layout() {
        let c = classify("crates/sta/src/propagate.rs");
        assert_eq!(c.crate_name, "sta");
        assert_eq!(c.kind, FileKind::Lib);

        let c = classify("crates/flow/src/bin/table3.rs");
        assert_eq!(c.kind, FileKind::Bin);

        let c = classify("crates/nn/tests/determinism.rs");
        assert_eq!(c.kind, FileKind::Test);

        let c = classify("crates/bench/src/lib.rs");
        assert_eq!(c.kind, FileKind::Bench);

        let c = classify("src/lib.rs");
        assert_eq!(c.crate_name, "restructure-timing");
        assert_eq!(c.kind, FileKind::Lib);

        let c = classify("examples/end_to_end.rs");
        assert_eq!(c.kind, FileKind::Example);

        let c = classify("compat/rand/src/lib.rs");
        assert_eq!(c.crate_name, "rand");
    }
}
