//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! each layer's public functions: a span names its layer and, when it
//! runs inside another span, that parent's layer. Spans stay in memory
//! until the run ends; [`Ledger::self_ns`] then subtracts the time each
//! layer's children cover from its own, and [`Ledger::print`] writes the
//! per-layer table to standard error.

use std::collections::BTreeSet;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: &'static str,
    parent: Option<&'static str>,
    ns: u64,
}

/// In-memory spans of one traced run.
#[derive(Debug, Default)]
pub struct Ledger {
    spans: Vec<Span>,
}

impl Ledger {
    /// Runs `f` inside a span of `layer` (child of `parent`) and returns
    /// its result.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        parent: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(layer, parent, start.elapsed().as_nanos() as u64);
        out
    }

    /// Records a span measured by the caller.
    pub fn record(&mut self, layer: &'static str, parent: Option<&'static str>, ns: u64) {
        self.spans.push(Span { layer, parent, ns });
    }

    /// Durations of every span of `layer`, in ns.
    pub fn samples(&self, layer: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.ns as f64)
            .collect()
    }

    /// Total ns of every span of `layer`.
    pub fn total_ns(&self, layer: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.ns)
            .sum()
    }

    /// Self time of `layer`: its total minus the total of spans whose
    /// parent it is.
    pub fn self_ns(&self, layer: &str) -> i64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(layer))
            .map(|s| s.ns)
            .sum();
        self.total_ns(layer) as i64 - children as i64
    }

    /// Writes one row per layer — span count, total and self time — to
    /// standard error.
    pub fn print(&self, title: &str) {
        let layers: BTreeSet<&str> = self.spans.iter().map(|s| s.layer).collect();
        eprintln!("--- span ledger: {title} ---");
        eprintln!(
            "{:<34} {:>9} {:>14} {:>14}",
            "layer", "spans", "total_ms", "self_ms"
        );
        for layer in layers {
            eprintln!(
                "{:<34} {:>9} {:>14.3} {:>14.3}",
                layer,
                self.samples(layer).len(),
                self.total_ns(layer) as f64 / 1e6,
                self.self_ns(layer) as f64 / 1e6
            );
        }
    }
}
