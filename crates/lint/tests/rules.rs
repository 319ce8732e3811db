//! Fixture-based positive/negative tests: every rule id must fire on its
//! positive fixture and stay silent on its negative one.

use rtt_lint::{lint_source, FileContext, FileKind, Rule};

/// Context of a library file — the strictest setting, so every rule is
/// active.
fn strict_ctx() -> FileContext {
    FileContext {
        path: "crates/sta/src/fixture.rs".to_owned(),
        crate_name: "sta".to_owned(),
        kind: FileKind::Lib,
    }
}

fn findings_of(source: &str, rule: Rule) -> usize {
    lint_source(source, &strict_ctx()).findings.iter().filter(|f| f.rule == rule).count()
}

macro_rules! fixture_case {
    ($name:ident, $rule:expr, $pos:literal, $neg:literal, $expect_pos:expr) => {
        #[test]
        fn $name() {
            let pos = include_str!(concat!("fixtures/", $pos));
            let neg = include_str!(concat!("fixtures/", $neg));
            let hits = findings_of(pos, $rule);
            assert_eq!(
                hits, $expect_pos,
                "{} should fire {} times on {}",
                $rule, $expect_pos, $pos
            );
            assert_eq!(findings_of(neg, $rule), 0, "{} must stay silent on {}", $rule, $neg);
        }
    };
}

fixture_case!(d001_hash_iteration, Rule::D001, "d001_pos.rs", "d001_neg.rs", 5);
fixture_case!(d002_ambient_entropy, Rule::D002, "d002_pos.rs", "d002_neg.rs", 3);
fixture_case!(d003_float_equality, Rule::D003, "d003_pos.rs", "d003_neg.rs", 4);
fixture_case!(d004_par_reduction, Rule::D004, "d004_pos.rs", "d004_neg.rs", 2);
fixture_case!(r001_unwrap_expect, Rule::R001, "r001_pos.rs", "r001_neg.rs", 2);
fixture_case!(r002_panic_macros, Rule::R002, "r002_pos.rs", "r002_neg.rs", 3);
fixture_case!(u001_unsafe_no_comment, Rule::U001, "u001_pos.rs", "u001_neg.rs", 1);

/// The reachability rules (R003/P001/P002) need the call graph, so their
/// fixtures go through `lint_files` — with each file in a different crate
/// to keep the resolution cross-crate — instead of `lint_source`.
fn graph_rule_findings(files: &[(&str, &str)], rule: Rule) -> usize {
    let ctxs: Vec<(FileContext, &str)> = files
        .iter()
        .map(|(path, src)| {
            let crate_name = path.split('/').nth(1).unwrap_or("nn").to_owned();
            let ctx = FileContext { path: (*path).to_owned(), crate_name, kind: FileKind::Lib };
            (ctx, *src)
        })
        .collect();
    rtt_lint::lint_files(&ctxs).findings.iter().filter(|f| f.rule == rule).count()
}

#[test]
fn r003_fixture_panic_reachability_is_cross_crate() {
    let pos = include_str!("fixtures/r003_pos.rs");
    let neg = include_str!("fixtures/r003_neg.rs");
    let helper = include_str!("fixtures/r003_helper.rs");
    assert_eq!(
        graph_rule_findings(
            &[("crates/nn/src/r003_pos.rs", pos), ("crates/core/src/r003_helper.rs", helper)],
            Rule::R003,
        ),
        1,
        "entry -> helper_lookup -> map index must be reported once"
    );
    assert_eq!(
        graph_rule_findings(
            &[("crates/nn/src/r003_neg.rs", neg), ("crates/core/src/r003_helper.rs", helper)],
            Rule::R003,
        ),
        0,
        "an unreached panic site must stay silent"
    );
}

#[test]
fn p001_fixture_flags_hot_allocations_only() {
    let pos = include_str!("fixtures/p001_pos.rs");
    let neg = include_str!("fixtures/p001_neg.rs");
    assert_eq!(
        graph_rule_findings(&[("crates/nn/src/p001_pos.rs", pos)], Rule::P001),
        2,
        "both the direct to_vec and the reachable push must be reported"
    );
    assert_eq!(
        graph_rule_findings(&[("crates/nn/src/p001_neg.rs", neg)], Rule::P001),
        0,
        "allocation in a cold fn must stay silent"
    );
}

#[test]
fn p002_fixture_wants_hoisted_length_asserts() {
    let pos = include_str!("fixtures/p002_pos.rs");
    let neg = include_str!("fixtures/p002_neg.rs");
    assert!(
        graph_rule_findings(&[("crates/nn/src/p002_pos.rs", pos)], Rule::P002) >= 1,
        "unguarded indexing in the hot inner loop must be reported"
    );
    assert_eq!(
        graph_rule_findings(&[("crates/nn/src/p002_neg.rs", neg)], Rule::P002),
        0,
        "a hoisted assert_eq on the indexed slices must satisfy the rule"
    );
}

#[test]
fn negative_fixtures_are_fully_clean() {
    for (name, neg) in [
        ("d001", include_str!("fixtures/d001_neg.rs")),
        ("d002", include_str!("fixtures/d002_neg.rs")),
        ("d003", include_str!("fixtures/d003_neg.rs")),
        ("d004", include_str!("fixtures/d004_neg.rs")),
        ("r001", include_str!("fixtures/r001_neg.rs")),
        ("r002", include_str!("fixtures/r002_neg.rs")),
        ("u001", include_str!("fixtures/u001_neg.rs")),
    ] {
        let report = lint_source(neg, &strict_ctx());
        assert!(
            report.findings.is_empty(),
            "{name}_neg.rs must pass every rule, got {:?}",
            report.findings
        );
    }
}

#[test]
fn relaxed_contexts_disable_the_right_rules() {
    let pos_d001 = include_str!("fixtures/d001_pos.rs");
    let mut ctx = strict_ctx();
    ctx.crate_name = "place".to_owned();
    ctx.path = "crates/place/src/fixture.rs".to_owned();
    assert!(
        lint_source(pos_d001, &ctx).findings.iter().any(|f| f.rule == Rule::D001),
        "D001 applies in every crate"
    );

    let pos_r001 = include_str!("fixtures/r001_pos.rs");
    for kind in [FileKind::Bin, FileKind::Test, FileKind::Example, FileKind::Bench] {
        let mut ctx = strict_ctx();
        ctx.kind = kind;
        assert!(
            lint_source(pos_r001, &ctx).findings.iter().all(|f| f.rule != Rule::R001),
            "R001 must be silent in {kind:?} files"
        );
    }
}

#[test]
fn inline_suppression_covers_positive_fixture_lines() {
    // Suppressing U001 on the unsafe line silences the only finding.
    let src = "pub fn f(x: u32) -> f32 {\n\
               // rtt-lint: allow(U001, reason = \"transmute of pod types\")\n\
               unsafe { std::mem::transmute(x) }\n}\n";
    let report = lint_source(src, &strict_ctx());
    assert!(report.findings.is_empty());
    assert_eq!(report.suppressed_inline, 1);
}
