//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark itself around calls into each
//! layer's public functions: name, start, end, parent, and an optional
//! tag (the syscall of a tapped event). They stay in memory on the
//! thread that recorded them and are folded into self times when the
//! run ends: a span's self time is its duration minus the time its
//! child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub tag: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

thread_local! {
    static TRACER: RefCell<Tracer> =
        RefCell::new(Tracer { origin: Instant::now(), spans: Vec::new(), stack: Vec::new() });
}

/// Opens a span as a child of the innermost open span.
pub fn enter(name: &'static str, tag: &'static str) -> usize {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let start = t.origin.elapsed().as_nanos() as u64;
        let parent = t.stack.last().copied();
        let id = t.spans.len();
        t.spans.push(Span { name, tag, start, end: start, parent });
        t.stack.push(id);
        id
    })
}

/// Closes the innermost span, which must be `id`.
pub fn exit(id: usize) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let end = t.origin.elapsed().as_nanos() as u64;
        assert_eq!(t.stack.pop(), Some(id), "spans must close innermost first");
        t.spans[id].end = end;
    });
}

/// Runs `f` inside a span.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = enter(name, "");
    let out = f();
    exit(id);
    out
}

/// Takes every span recorded on this thread so far.
pub fn take() -> Vec<Span> {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        assert!(t.stack.is_empty(), "take() with open spans");
        std::mem::take(&mut t.spans)
    })
}

/// Self time per span name, and the roots' total.
pub struct Fold {
    /// Sum of root-span durations, ns.
    pub total_ns: u64,
    /// Roots folded.
    pub roots: u64,
    /// Self ns per span name (roots included: their self time is the
    /// part of an operation no layer span covers).
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Spans per name.
    pub count: BTreeMap<&'static str, u64>,
}

pub fn fold(spans: &[Span]) -> Fold {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_ns[p] += span.ns();
        }
    }
    let mut fold = Fold { total_ns: 0, roots: 0, self_ns: BTreeMap::new(), count: BTreeMap::new() };
    for (span, children) in spans.iter().zip(&child_ns) {
        if span.parent.is_none() {
            fold.total_ns += span.ns();
            fold.roots += 1;
        }
        *fold.self_ns.entry(span.name).or_default() += span.ns() - children;
        *fold.count.entry(span.name).or_default() += 1;
    }
    fold
}

/// Durations of every span called `name`, in microseconds.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.ns() as f64 / 1e3).collect()
}

impl Fold {
    /// Mean self time of `name` per root, in microseconds.
    pub fn per_root_us(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e3 / self.roots.max(1) as f64
    }

    /// Mean self time of one `name` span, in microseconds.
    pub fn per_span_us(&self, name: &str) -> f64 {
        let n = self.count.get(name).copied().unwrap_or(0);
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e3 / n.max(1) as f64
    }

    /// The attribution table: each layer's self time per root, their
    /// sum, the measured total and the residual (the roots' own self
    /// time), all in microseconds per operation. Returns the lines and
    /// `(total, layers, residual)`.
    pub fn attribution(&self, root: &str) -> (Vec<String>, f64, f64, f64) {
        let total = self.total_ns as f64 / 1e3 / self.roots.max(1) as f64;
        let residual = self.per_root_us(root);
        let mut lines =
            vec![format!("layer self time per {root} (us), over {} {root} spans:", self.roots)];
        let mut layers = 0.0;
        let mut rows: Vec<(&str, f64)> = self
            .self_ns
            .keys()
            .filter(|n| **n != root)
            .map(|n| (*n, self.per_root_us(n)))
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (name, us) in rows {
            layers += us;
            lines.push(format!(
                "  {name:<28} {us:>12.3} {:>6.1}%  ({} spans)",
                100.0 * us / total.max(1e-12),
                self.count[name]
            ));
        }
        lines.push(format!("  {:<28} {layers:>12.3}", "sum of layers"));
        lines.push(format!(
            "  {:<28} {residual:>12.3} {:>6.1}%",
            "residual (unattributed)",
            100.0 * residual / total.max(1e-12)
        ));
        lines.push(format!("  {:<28} {total:>12.3}  (layers + residual)", "measured total"));
        (lines, total, layers, residual)
    }
}
