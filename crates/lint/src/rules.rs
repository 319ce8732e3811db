//! Token-stream rule matchers.
//!
//! Every rule is a deliberately simple, documented heuristic over the token
//! stream: no type information exists without `syn` + a type checker, so
//! the matchers trade completeness for zero false negatives on the patterns
//! this workspace actually uses (tracked variable names for D001, literal
//! adjacency for D003, chain scanning for D004). False positives are
//! handled by inline suppressions with mandatory reasons.

use crate::diag::{Finding, Rule};
use crate::lexer::{Comment, Lexed, Token, TokenKind};

/// What kind of source a file is; decides which rules apply.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FileKind {
    /// Library code: every rule applies.
    Lib,
    /// Binary target (`src/bin/`, `main.rs`): R001/R002/D002 exempt.
    Bin,
    /// `examples/`: R001/R002/D002 exempt.
    Example,
    /// Integration tests (`tests/`): R001/R002/D002 exempt.
    Test,
    /// `benches/` or the `bench` crate: R001/R002/D002 exempt (timing is
    /// the point of a benchmark).
    Bench,
}

/// Per-file lint context.
#[derive(Clone, Debug)]
pub struct FileContext {
    /// Repo-relative path, forward slashes (used in diagnostics).
    pub path: String,
    /// Owning crate directory name (`sta`, `nn`, …).
    pub crate_name: String,
    /// File classification.
    pub kind: FileKind,
}

/// Iterator adaptors whose order reflects hash order.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Rayon entry points that start a parallel chain.
const PAR_CHAIN_STARTS: &[&str] =
    &["par_iter", "par_iter_mut", "into_par_iter", "par_bridge", "par_chunks", "par_windows"];

/// Runs every applicable rule over one lexed file.
pub fn check_file(lexed: &Lexed, ctx: &FileContext, source: &str) -> Vec<Finding> {
    let toks = &lexed.tokens;
    let lines: Vec<&str> = source.lines().collect();
    let depth = cumulative_depth(toks);
    let test_spans = test_spans(toks);
    let lib_code = |line: u32| -> bool {
        ctx.kind == FileKind::Lib && !test_spans.iter().any(|&(s, e)| line >= s && line <= e)
    };

    let mut findings = Vec::new();
    let mut push = |rule: Rule, t: &Token, message: String| {
        let excerpt = lines.get(t.line as usize - 1).map(|s| (*s).to_owned()).unwrap_or_default();
        findings.push(Finding {
            rule,
            file: ctx.path.clone(),
            line: t.line,
            col: t.col,
            message,
            excerpt,
        });
    };

    d001(toks, &mut push);
    if ctx.kind == FileKind::Lib {
        d002(toks, &mut push);
    }
    d003(toks, &mut push);
    d004(toks, &depth, &mut push);
    for i in 0..toks.len() {
        // R001: `.unwrap()` / `.expect(` outside bins, examples, and tests.
        if toks[i].is_punct(".") && lib_code(toks[i].line) {
            if let Some(m) = toks.get(i + 1) {
                let call = toks.get(i + 2).is_some_and(|t| t.is_punct("("));
                if call && (m.is_ident("unwrap") || m.is_ident("expect")) {
                    push(
                        Rule::R001,
                        m,
                        format!("`{}` can panic; library code must return errors", m.text),
                    );
                }
            }
        }
        // R002: panic-family macros in the same contexts.
        if toks[i].kind == TokenKind::Ident
            && matches!(toks[i].text.as_str(), "panic" | "todo" | "unimplemented")
            && toks.get(i + 1).is_some_and(|t| t.is_punct("!"))
            && lib_code(toks[i].line)
        {
            push(Rule::R002, &toks[i], format!("`{}!` aborts at runtime", toks[i].text));
        }
        // U001: `unsafe` needs an adjacent `// SAFETY:` comment.
        if toks[i].is_ident("unsafe") && !has_safety_comment(&lexed.comments, toks[i].line) {
            push(Rule::U001, &toks[i], "`unsafe` without a `// SAFETY:` comment".to_owned());
        }
    }
    findings
}

/// D001 — iteration over `HashMap`/`HashSet`, in every file. Tracks names
/// declared with a hash-map type in this file (let bindings, struct fields,
/// fn params) and flags order-sensitive iteration through them.
fn d001(toks: &[Token], push: &mut impl FnMut(Rule, &Token, String)) {
    let names = hash_typed_names(toks);
    if names.is_empty() {
        return;
    }
    for i in 0..toks.len() {
        let t = &toks[i];
        // `name.iter()` / `name.keys()` / … — also matches `self.name.iter()`.
        if t.kind == TokenKind::Ident && names.contains(&t.text) {
            if let (Some(dot), Some(m), Some(paren)) =
                (toks.get(i + 1), toks.get(i + 2), toks.get(i + 3))
            {
                if dot.is_punct(".")
                    && paren.is_punct("(")
                    && HASH_ITER_METHODS.iter().any(|h| m.is_ident(h))
                {
                    push(
                        Rule::D001,
                        m,
                        format!(
                            "`{}` is a HashMap/HashSet; `.{}()` visits hash order",
                            t.text, m.text
                        ),
                    );
                }
            }
        }
        // `for pat in [&[mut]] path.to.name {` — flag when the iterated
        // expression's final identifier is hash-typed.
        if t.is_ident("for") {
            if let Some((expr_start, expr_end)) = for_in_expr(toks, i) {
                let expr = &toks[expr_start..expr_end];
                let last_ident = expr.iter().rev().find(|t| t.kind == TokenKind::Ident);
                let has_call = expr.iter().any(|t| t.is_punct("("));
                if let Some(last) = last_ident {
                    if !has_call
                        && expr.last().is_some_and(|t| t.kind == TokenKind::Ident)
                        && names.contains(&last.text)
                    {
                        push(
                            Rule::D001,
                            last,
                            format!("`for … in {}` visits hash order", last.text),
                        );
                    }
                }
            }
        }
    }
}

/// Collects identifiers declared with a `HashMap`/`HashSet` type in this
/// file: `name: [&][std::collections::]HashMap<…>` (fields, params, typed
/// lets) and `let [mut] name = HashMap::new()/with_capacity()/from(…)`.
fn hash_typed_names(toks: &[Token]) -> Vec<String> {
    let mut names = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        if t.is_ident("HashMap") || t.is_ident("HashSet") {
            // Walk left over path/reference noise to the `name :` or
            // `name = ` introducer.
            let mut j = i;
            while j > 0
                && (toks[j - 1].is_punct("::")
                    || toks[j - 1].is_ident("std")
                    || toks[j - 1].is_ident("collections")
                    || toks[j - 1].is_punct("&")
                    || toks[j - 1].kind == TokenKind::Lifetime
                    || toks[j - 1].is_ident("mut"))
            {
                j -= 1;
            }
            if j >= 2 && toks[j - 1].is_punct(":") && toks[j - 2].kind == TokenKind::Ident {
                names.push(toks[j - 2].text.clone());
            } else if j >= 3 && toks[j - 1].is_punct("=") && toks[j - 2].kind == TokenKind::Ident {
                // `let [mut] name = HashMap::new()` — require a constructor
                // call right of the type to skip consts and reassignment of
                // unrelated values.
                let ctor = toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
                    && toks.get(i + 2).is_some_and(|t| {
                        t.is_ident("new") || t.is_ident("with_capacity") || t.is_ident("from")
                    });
                let mut k = j - 2;
                while k > 0 && toks[k - 1].is_ident("mut") {
                    k -= 1;
                }
                if ctor && k >= 1 && toks[k - 1].is_ident("let") {
                    names.push(toks[j - 2].text.clone());
                }
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

/// For a `for` at `toks[i]`, returns the token range of the iterated
/// expression (exclusive of the loop body `{`).
fn for_in_expr(toks: &[Token], i: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    let mut j = i + 1;
    // Find the `in` at pattern depth 0.
    loop {
        let t = toks.get(j)?;
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "in" if depth == 0 && t.kind == TokenKind::Ident => break,
            "{" | ";" => return None,
            _ => {}
        }
        j += 1;
    }
    let start = j + 1;
    let mut k = start;
    let mut d = 0i32;
    loop {
        let t = toks.get(k)?;
        match t.text.as_str() {
            "(" | "[" => d += 1,
            ")" | "]" => d -= 1,
            "{" if d == 0 => return Some((start, k)),
            ";" => return None,
            _ => {}
        }
        k += 1;
    }
}

/// D002 — ambient entropy: `thread_rng()`, `SystemTime::now`, and
/// `Instant::now` in library code.
fn d002(toks: &[Token], push: &mut impl FnMut(Rule, &Token, String)) {
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.is_ident("thread_rng") && toks.get(i + 1).is_some_and(|n| n.is_punct("(")) {
            push(Rule::D002, t, "`thread_rng()` draws unseeded entropy".to_owned());
        }
        if (t.is_ident("SystemTime") || t.is_ident("Instant"))
            && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && toks.get(i + 2).is_some_and(|n| n.is_ident("now"))
        {
            push(Rule::D002, t, format!("`{}::now()` reads the ambient clock", t.text));
        }
    }
}

/// D003 — exact float comparison: `==`/`!=` with a float literal or an
/// `f32::`/`f64::` constant as one operand. Operands that immediately call
/// a method (`1.0f32.to_bits()`) are skipped — those compare integers.
fn d003(toks: &[Token], push: &mut impl FnMut(Rule, &Token, String)) {
    for i in 0..toks.len() {
        let t = &toks[i];
        if !(t.is_punct("==") || t.is_punct("!=")) {
            continue;
        }
        let right_float = toks.get(i + 1).is_some_and(|n| n.kind == TokenKind::Float)
            && !toks.get(i + 2).is_some_and(|n| n.is_punct("."));
        let right_const =
            is_float_const(toks, i + 1) && !toks.get(i + 4).is_some_and(|n| n.is_punct("."));
        let left_float = i >= 1
            && toks[i - 1].kind == TokenKind::Float
            && !(i >= 2 && toks[i - 2].is_punct("."));
        let left_const = i >= 3
            && toks[i - 1].kind == TokenKind::Ident
            && toks[i - 2].is_punct("::")
            && (toks[i - 3].is_ident("f32") || toks[i - 3].is_ident("f64"))
            && is_float_const_name(&toks[i - 1].text);
        if right_float || right_const || left_float || left_const {
            push(
                Rule::D003,
                t,
                format!(
                    "float `{}` comparison is exact; epsilon or bit-pattern intent unclear",
                    t.text
                ),
            );
        }
    }
}

fn is_float_const(toks: &[Token], i: usize) -> bool {
    toks.get(i).is_some_and(|t| t.is_ident("f32") || t.is_ident("f64"))
        && toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
        && toks
            .get(i + 2)
            .is_some_and(|t| t.kind == TokenKind::Ident && is_float_const_name(&t.text))
}

fn is_float_const_name(s: &str) -> bool {
    matches!(s, "INFINITY" | "NEG_INFINITY" | "NAN" | "EPSILON" | "MAX" | "MIN" | "MIN_POSITIVE")
}

/// D004 — `.sum()` / `.reduce()` / `.product()` at the same chain depth as
/// a rayon entry point: the reduction order then depends on work-stealing.
/// Reductions *inside* closures passed to the chain sit at a deeper paren
/// depth and are not flagged.
fn d004(toks: &[Token], depth: &[i32], push: &mut impl FnMut(Rule, &Token, String)) {
    for i in 0..toks.len() {
        if !(toks[i].kind == TokenKind::Ident
            && PAR_CHAIN_STARTS.iter().any(|p| toks[i].is_ident(p)))
        {
            continue;
        }
        let base = depth.get(i).copied().unwrap_or(0);
        let mut j = i + 1;
        while let Some(t) = toks.get(j) {
            let d = depth.get(j).copied().unwrap_or(0);
            if d < base || (t.is_punct(";") && d <= base) {
                break;
            }
            if d == base
                && t.is_punct(".")
                && toks.get(j + 1).is_some_and(|m| {
                    m.is_ident("sum") || m.is_ident("reduce") || m.is_ident("product")
                })
            {
                let m = &toks[j + 1];
                push(
                    Rule::D004,
                    m,
                    format!(
                        "`.{}()` after `{}` reduces in scheduling order; use the fixed-order tree sum",
                        m.text, toks[i].text
                    ),
                );
            }
            j += 1;
        }
    }
}

/// Paren/bracket/brace depth *before* each token.
fn cumulative_depth(toks: &[Token]) -> Vec<i32> {
    let mut out = Vec::with_capacity(toks.len());
    let mut d = 0i32;
    for t in toks {
        out.push(d);
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => d += 1,
                ")" | "]" | "}" => d -= 1,
                _ => {}
            }
        }
    }
    out
}

/// Line spans of `#[cfg(test)]` / `#[test]` items (mod or fn), so R001 and
/// R002 skip test code embedded in library files (the parser reuses this to
/// keep test functions out of the call graph).
pub(crate) fn test_spans(toks: &[Token]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct("#") && toks.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            // Collect the attribute tokens up to the matching `]`.
            let mut j = i + 2;
            let mut depth = 1i32;
            let mut is_test = false;
            while let Some(t) = toks.get(j) {
                match t.text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    "test" if t.kind == TokenKind::Ident => is_test = true,
                    _ => {}
                }
                j += 1;
            }
            if is_test {
                // Skip any further attributes, then span the next braced item.
                let mut k = j + 1;
                while toks.get(k).is_some_and(|t| t.is_punct("#"))
                    && toks.get(k + 1).is_some_and(|t| t.is_punct("["))
                {
                    let mut d = 0i32;
                    while let Some(t) = toks.get(k) {
                        match t.text.as_str() {
                            "[" => d += 1,
                            "]" => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    k += 1;
                }
                // Find the opening `{` of the item, then its matching `}`.
                while toks.get(k).is_some_and(|t| !t.is_punct("{") && !t.is_punct(";")) {
                    k += 1;
                }
                if toks.get(k).is_some_and(|t| t.is_punct("{")) {
                    let start_line = toks[i].line;
                    let mut d = 0i32;
                    while let Some(t) = toks.get(k) {
                        match t.text.as_str() {
                            "{" => d += 1,
                            "}" => {
                                d -= 1;
                                if d == 0 {
                                    spans.push((start_line, t.line));
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    i = k;
                }
            } else {
                i = j;
            }
        }
        i += 1;
    }
    spans
}

/// `true` if a `// SAFETY:` comment sits on the `unsafe` line or within the
/// three lines above it (allowing a short justification paragraph).
fn has_safety_comment(comments: &[Comment], line: u32) -> bool {
    comments
        .iter()
        .any(|c| c.text.trim_start().starts_with("SAFETY:") && c.line <= line && c.line + 3 >= line)
}
