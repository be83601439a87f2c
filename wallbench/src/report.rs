//! Metrics with their unit and clock, and the run's output.
//!
//! Every figure names the clock it was read on: `wall` (host time this
//! program spent), `virtual` (simulated 1993-testbed seconds, exact and
//! deterministic) or `count` (a tally, or a ratio of tallies). A virtual
//! or counted figure can therefore never be read as a measured speed-up.

use std::fmt::Write as _;

/// The clock a metric is read on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall-clock time.
    Wall,
    /// Simulated testbed time.
    Virtual,
    /// A tally or a ratio of tallies (also sizes such as resident MB).
    Count,
}

impl Clock {
    /// The label printed next to the value.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Virtual => "virtual",
            Clock::Count => "count",
        }
    }
}

/// One named figure of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json` or the per-layer table.
    pub name: String,
    /// Unit (`s`, `ms`, `us`, `ns`, `1/s`, `MB`, `count`, `ratio`, ...).
    pub unit: &'static str,
    /// Clock the value was read on.
    pub clock: Clock,
    /// The value.
    pub value: f64,
    /// Samples behind the value (0 for a single reading).
    pub samples: usize,
}

/// An ordered set of metrics.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Record a metric (replacing an earlier one of the same name).
    pub fn put(
        &mut self,
        name: &str,
        unit: &'static str,
        clock: Clock,
        value: f64,
        samples: usize,
    ) {
        self.0.retain(|m| m.name != name);
        self.0.push(Metric { name: name.to_owned(), unit, clock, value, samples });
    }
}

/// Operation tallies and the correctness verdict of a run.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or failed their correctness check.
    pub failed: u64,
    /// One line per failure: workload, item and what differed.
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one attempt; `Err` records a failure with its description.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.failures.push(why);
        }
    }

    /// Failed share of attempted operations.
    pub fn error_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The human-readable row of one metric.
pub fn render_row(m: &Metric) -> String {
    let n = if m.samples > 0 { format!("  n={}", m.samples) } else { String::new() };
    format!("{:<36} {:>16} {:<6} [{}]{n}", m.name, fmt_value(m.value), m.unit, m.clock.label())
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.6e}")
    } else {
        format!("{v:.6}")
    }
}

/// The final JSON line: `correct`, `attempted`, `failed` and the listed
/// metrics, each value printed with all its digits.
pub fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(out, "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    out.push_str("}}");
    out
}
