//! Findings and their rustc-style / JSON rendering.

use std::fmt;

/// Identifier of one lint rule.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Rule {
    /// Nondeterministic `HashMap`/`HashSet` iteration.
    D001,
    /// Ambient entropy: `thread_rng`, `SystemTime`, `Instant::now`.
    D002,
    /// Float `==` / `!=` comparison.
    D003,
    /// `par_iter()` chain reduced with `.sum()` / `.reduce()`, bypassing the
    /// fixed-order tree sum.
    D004,
    /// Allocation transitively reachable from a `// rtt-lint: hot` function.
    P001,
    /// Indexed access in a hot function's innermost loop without a
    /// dominating length `assert!`.
    P002,
    /// `unwrap()` / `expect()` in library code.
    R001,
    /// `panic!` / `todo!` / `unimplemented!` in library code.
    R002,
    /// Panic site transitively reachable from a `// rtt-lint: entry`
    /// serving entry point.
    R003,
    /// `unsafe` without a `// SAFETY:` comment.
    U001,
}

impl Rule {
    /// All rules, in reporting order.
    pub const ALL: [Rule; 10] = [
        Rule::D001,
        Rule::D002,
        Rule::D003,
        Rule::D004,
        Rule::P001,
        Rule::P002,
        Rule::R001,
        Rule::R002,
        Rule::R003,
        Rule::U001,
    ];

    /// The rule id as written in suppressions (`D001`, …).
    pub fn id(self) -> &'static str {
        match self {
            Rule::D001 => "D001",
            Rule::D002 => "D002",
            Rule::D003 => "D003",
            Rule::D004 => "D004",
            Rule::P001 => "P001",
            Rule::P002 => "P002",
            Rule::R001 => "R001",
            Rule::R002 => "R002",
            Rule::R003 => "R003",
            Rule::U001 => "U001",
        }
    }

    /// Parses a rule id.
    pub fn parse(s: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == s)
    }

    /// One-line description used in diagnostics.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::D001 => "iteration over HashMap/HashSet",
            Rule::D002 => "ambient entropy source in library code",
            Rule::D003 => "exact float comparison",
            Rule::D004 => "order-sensitive reduction over a parallel iterator",
            Rule::P001 => "allocation reachable from a hot-path function",
            Rule::P002 => "unhoisted bounds check in a hot inner loop",
            Rule::R001 => "unwrap()/expect() in library code",
            Rule::R002 => "panic-family macro in library code",
            Rule::R003 => "panic site reachable from a serving entry point",
            Rule::U001 => "unsafe without a `// SAFETY:` comment",
        }
    }

    /// Remediation hint appended to text diagnostics.
    pub fn help(self) -> &'static str {
        match self {
            Rule::D001 => "use BTreeMap/BTreeSet, or collect and sort keys before traversal",
            Rule::D002 => "thread a seeded rng / take timestamps at the boundary and pass them in",
            Rule::D003 => "compare with an epsilon, or f32::to_bits for exact sentinel checks",
            Rule::D004 => "reduce with the fixed-shape tree sum (see rtt_nn::Grads::tree_sum)",
            Rule::P001 => {
                "hoist the allocation into a reused arena/scratch buffer, or move the \
                           function out of the hot set"
            }
            Rule::P002 => {
                "assert the slice lengths before the loop so LLVM hoists the bounds \
                           checks and vectorizes"
            }
            Rule::R001 => "return a typed error (see rtt_netlist::error) or document the invariant",
            Rule::R002 => "return an error; panics turn malformed inputs into aborts",
            Rule::R003 => {
                "make the callee fallible, hoist the check to plan/build time, or break \
                           the call edge"
            }
            Rule::U001 => "add a `// SAFETY:` comment stating why the invariants hold",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One lint finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Repo-relative path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Specific message for this site.
    pub message: String,
    /// Verbatim source line, for the excerpt.
    pub excerpt: String,
}

impl Finding {
    /// Renders the finding in rustc style.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("error[{}]: {}\n", self.rule, self.message));
        out.push_str(&format!("  --> {}:{}:{}\n", self.file, self.line, self.col));
        if !self.excerpt.is_empty() {
            let gutter = format!("{}", self.line);
            out.push_str(&format!("{:>w$} |\n", "", w = gutter.len()));
            out.push_str(&format!("{gutter} | {}\n", self.excerpt.trim_end()));
            let pad = self.excerpt.chars().take_while(|c| c.is_whitespace()).count();
            let caret = (self.col as usize).saturating_sub(1).max(pad);
            out.push_str(&format!(
                "{:>w$} | {:caret$}^\n",
                "",
                "",
                w = gutter.len(),
                caret = caret
            ));
        }
        out.push_str(&format!("  = help: {}\n", self.rule.help()));
        out
    }

    /// Renders the finding as one JSON object.
    pub fn render_json(&self) -> String {
        format!(
            r#"{{"rule":"{}","file":"{}","line":{},"col":{},"message":"{}","excerpt":"{}"}}"#,
            self.rule,
            json_escape(&self.file),
            self.line,
            self.col,
            json_escape(&self.message),
            json_escape(self.excerpt.trim()),
        )
    }
}

/// Escapes a string for embedding in JSON output.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_roundtrip() {
        for r in Rule::ALL {
            assert_eq!(Rule::parse(r.id()), Some(r));
        }
        assert_eq!(Rule::parse("X999"), None);
    }

    #[test]
    fn text_rendering_is_rustc_style() {
        let f = Finding {
            rule: Rule::D001,
            file: "crates/sta/src/propagate.rs".into(),
            line: 12,
            col: 5,
            message: "HashMap iterated via `.iter()`".into(),
            excerpt: "    map.iter().for_each(|_| {});".into(),
        };
        let text = f.render_text();
        assert!(text.starts_with("error[D001]:"));
        assert!(text.contains("--> crates/sta/src/propagate.rs:12:5"));
        assert!(text.contains("= help:"));
    }

    #[test]
    fn json_rendering_escapes() {
        let f = Finding {
            rule: Rule::R001,
            file: "a.rs".into(),
            line: 1,
            col: 1,
            message: "say \"hi\"".into(),
            excerpt: "x\ty".into(),
        };
        let j = f.render_json();
        assert!(j.contains(r#""rule":"R001""#));
        assert!(j.contains(r#"say \"hi\""#));
        assert!(j.contains(r"x\ty"));
    }
}
