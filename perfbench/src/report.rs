//! Result bookkeeping: order statistics, the per-run outcome counts, the
//! metric list, and the one-line JSON result the benchmark ends with.

use std::fmt::Write as _;

/// The `p`-th percentile (0..=100) of `samples`, nearest rank, the rule
/// `flexnet_sim::Metrics::latency_percentile` uses. `NaN` when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * (v.len() as f64 - 1.0)).round() as usize;
    v[rank.min(v.len() - 1)]
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The arithmetic mean of `samples`.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The distance between the first and third quartile of `samples`.
pub fn iqr(samples: &[f64]) -> f64 {
    percentile(samples, 75.0) - percentile(samples, 25.0)
}

/// Timing samples of a measured loop, in ns: a uniform random sample of
/// at most [`Samples::CAP`] of them (reservoir sampling).
///
/// The buffer is allocated and written in full before measuring, and
/// order statistics sort it in place, so the benchmark's own memory is
/// the same however fast the program runs and `peak_rss_mb` stays the
/// program's.
#[derive(Debug)]
pub struct Samples {
    buf: Vec<f32>,
    seen: u64,
    rng: u64,
}

impl Samples {
    /// Samples kept: enough for a p99 with hundreds beyond it.
    pub const CAP: usize = 1 << 16;

    /// An empty reservoir.
    pub fn new() -> Samples {
        Samples {
            buf: vec![f32::NAN; Samples::CAP],
            seen: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Offers one sample to the reservoir.
    pub fn push(&mut self, ns: f64) {
        let slot = if self.seen < Samples::CAP as u64 {
            self.seen
        } else {
            // xorshift64: a fixed stream, so a run's choice of kept samples
            // does not depend on anything but their count.
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            self.rng % (self.seen + 1)
        };
        if let Some(x) = self.buf.get_mut(slot as usize) {
            *x = ns as f32;
        }
        self.seen += 1;
    }

    /// Forgets every sample, keeping the buffer.
    pub fn clear(&mut self) {
        self.seen = 0;
    }

    /// The `p`-th percentile, nearest rank; `NaN` when empty.
    pub fn percentile(&mut self, p: f64) -> f64 {
        let kept = &mut self.buf[..(self.seen as usize).min(Samples::CAP)];
        if kept.is_empty() {
            return f64::NAN;
        }
        kept.sort_unstable_by(f32::total_cmp);
        let rank = ((p / 100.0) * (kept.len() as f64 - 1.0)).round() as usize;
        kept[rank.min(kept.len() - 1)] as f64
    }
}

/// Wall times of a run's operations, kept per part of the run: a rig, a
/// simulation or a fleet. The run's `op_us_p50` and `op_us_p99` are the
/// means across parts of each part's own percentiles; parts rotate over
/// the CPUs (see `pin.rs`).
#[derive(Debug)]
pub struct OpTimes {
    part: Samples,
    p50: Vec<f64>,
    p99: Vec<f64>,
}

impl OpTimes {
    /// No parts yet.
    pub fn new() -> OpTimes {
        OpTimes {
            part: Samples::new(),
            p50: Vec::new(),
            p99: Vec::new(),
        }
    }

    /// Records one operation of the current part, in ns.
    pub fn push(&mut self, ns: f64) {
        self.part.push(ns);
    }

    /// Closes the current part.
    pub fn end_part(&mut self) {
        self.p50.push(self.part.percentile(50.0));
        self.p99.push(self.part.percentile(99.0));
        self.part.clear();
    }

    /// Adds `op_us_p50` and `op_us_p99` to `report`.
    pub fn report(&self, report: &mut Report) {
        report.metric("op_us_p50", mean(&self.p50) / 1e3, "us");
        report.metric("op_us_p99", mean(&self.p99) / 1e3, "us");
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or `NaN`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Outcome counts and metrics of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Checked operations whose outputs deviated from the expectation.
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Counts one checked operation, failed unless `ok`; a failure is
    /// explained on standard error.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.tally(1, u64::from(!ok), what);
    }

    /// Counts `attempted` checked operations of which `failed` deviated;
    /// a failure is explained on standard error.
    pub fn tally(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        if failed > 0 {
            if self.failed < 20 {
                eprintln!("CHECK FAILED: {}", what());
            }
            self.failed += failed;
        }
    }

    /// Counts a determinism violation: a clock-free count or a
    /// simulated-time figure that differs between two runs of one seed.
    pub fn determinism(
        &mut self,
        what: &str,
        first: &dyn std::fmt::Debug,
        again: &dyn std::fmt::Debug,
    ) {
        let a = format!("{first:?}");
        let b = format!("{again:?}");
        self.check(a == b, || {
            format!("determinism bug: {what} differs between runs of one seed: {a} vs {b}")
        });
    }

    /// Folds another report's counts and metrics into this one.
    pub fn absorb(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
    }

    /// Whether every check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// Prints every metric as a table on standard error.
    pub fn print_table(&self, title: &str) {
        eprintln!("--- {title} ---");
        for (n, v, u) in &self.metrics {
            eprintln!("{n:<40} {v:>16.4} {u}");
        }
        eprintln!(
            "checked {} operations, {} failed",
            self.attempted, self.failed
        );
    }

    /// The result line: one JSON object with the metrics named in `keep`,
    /// in that order. A metric missing from the run is reported as `NaN`
    /// text, which makes the line fail to parse instead of hiding a gap.
    pub fn json(&self, keep: &[(&str, &str)]) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in keep.iter().enumerate() {
            let value = self
                .metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .map_or(f64::NAN, |(_, v, _)| *v);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}
