//! Span recording from the benchmark's own code.
//!
//! Each span has a name, a start, an end and a parent; the spans of one op
//! share the op id. Spans stay in memory and are written out when the run
//! ends. A layer's self time is its span minus its children, and each op's
//! `other` residual is the op span's own self time, so an op's layer self
//! times plus `other` sum back to its duration exactly (integer ns).

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span buffer. All buffers of a run share `origin`.
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(origin: Instant) -> Self {
        Self { origin, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, op: u64, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { op, name, parent, start_ns, end_ns: start_ns });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn time<R>(&mut self, parent: usize, name: &'static str, f: impl FnOnce() -> R) -> R {
        let op = self.spans[parent].op;
        let id = self.begin(op, name, Some(parent));
        let out = std::hint::black_box(f());
        self.end(id);
        out
    }

    /// Appends another buffer, rebasing its parent links.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Per-op self times by layer, and op counts by kind.
#[derive(Default)]
pub struct Breakdown {
    /// `layer -> self ns of that layer in each op that ran it`.
    self_ns: BTreeMap<&'static str, Vec<u64>>,
    /// `op kind -> ops of that kind`.
    ops: BTreeMap<&'static str, usize>,
}

impl Breakdown {
    /// Checks span nesting and computes self times. Fails if a child
    /// escapes its parent, siblings overlap, or an op's layer self times
    /// plus `other` do not sum to its duration.
    pub fn of(trace: &Trace) -> Result<Self, String> {
        let spans = &trace.spans;
        let mut child_ns = vec![0u64; spans.len()];
        let mut last_child_end: Vec<u64> = spans.iter().map(|s| s.start_ns).collect();
        for s in spans {
            if s.end_ns < s.start_ns {
                return Err(format!("span {} ends before it starts", s.name));
            }
            let Some(p) = s.parent else { continue };
            let ps = &spans[p];
            if ps.op != s.op || s.start_ns < ps.start_ns || s.end_ns > ps.end_ns {
                return Err(format!("span {} escapes its parent {}", s.name, ps.name));
            }
            if s.start_ns < last_child_end[p] {
                return Err(format!("span {} overlaps a sibling", s.name));
            }
            last_child_end[p] = s.end_ns;
            child_ns[p] += s.end_ns - s.start_ns;
        }
        // Per op: (root index, layer -> self ns), the root's own time as
        // `other`.
        let mut per_op: BTreeMap<u64, (Option<usize>, BTreeMap<&'static str, u64>)> =
            BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns) - child_ns[i];
            let (root, layers) = per_op.entry(s.op).or_default();
            let layer = match s.parent {
                None if root.replace(i).is_some() => {
                    return Err(format!("op {} has two roots", s.op))
                }
                None => "other",
                Some(_) => s.name,
            };
            *layers.entry(layer).or_default() += own;
        }
        let mut out = Breakdown::default();
        for (op, (root, layers)) in per_op {
            let root = &spans[root.ok_or_else(|| format!("op {op} has no root"))?];
            let total = root.end_ns - root.start_ns;
            let sum: u64 = layers.values().sum();
            if sum != total {
                return Err(format!(
                    "op {op} ({}): split sums to {sum} ns of {total} ns",
                    root.name
                ));
            }
            for (layer, ns) in layers {
                out.self_ns.entry(layer).or_default().push(ns);
            }
            *out.ops.entry(root.name).or_default() += 1;
        }
        Ok(out)
    }

    /// Median self time (ms) of `layer` over the ops that ran it, or 0 when
    /// none did (the workload bypasses that layer).
    pub fn median_ms(&self, layer: &str) -> f64 {
        self.self_ns.get(layer).map_or(0.0, |v| {
            crate::median(&v.iter().map(|&ns| ns as f64 / 1e6).collect::<Vec<_>>())
        })
    }

    /// Number of ops of one kind.
    pub fn ops(&self, kind: &str) -> usize {
        self.ops.get(kind).copied().unwrap_or(0)
    }
}

/// Writes every span as one JSON document.
pub fn write_json(trace: &Trace, path: &std::path::Path) -> std::io::Result<()> {
    let mut out = String::from("{\"spans\":[\n");
    for (i, s) in trace.spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}{}\n",
            s.op,
            s.name,
            s.start_ns,
            s.end_ns,
            if i + 1 < trace.spans.len() { "," } else { "" }
        ));
    }
    out.push_str("]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
