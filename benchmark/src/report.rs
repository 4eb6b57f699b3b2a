//! The run's result: named metrics with units, op counts, and the
//! disagreements that make a run incorrect.

use std::fmt::Write as _;

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Ops whose outcome was checked.
    pub attempted: u64,
    /// Ops whose outcome disagreed with the oracle, panicked or were
    /// refused.
    pub failed: u64,
    /// One line per disagreement or failed self-check.
    problems: Vec<String>,
}

impl Report {
    /// Records metric `name` in `unit`.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.problem(format!("metric {name} is not finite ({value})"));
        }
        self.metrics.push((name, value, unit));
    }

    /// Counts one checked op; `ok == false` counts it as failed and
    /// records `what` went wrong.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                self.problems.push(what());
            }
        }
    }

    /// Records a failed self-check.
    pub fn problem(&mut self, msg: String) {
        self.problems.push(msg);
    }

    /// Records a self-check: `ok == false` makes the run incorrect.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.problem(msg());
        }
    }

    /// Whether every outcome agreed with its oracle and every
    /// self-check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// Prints the human-readable table and any problems to stderr,
    /// then the result object as the last line of stdout.
    ///
    /// Times and rates are printed scaled to the reference machine:
    /// divided (times) or multiplied (rates) by `slowdown`, the run's
    /// calibration time over
    /// [`REFERENCE_CALIBRATION_S`](crate::stats::REFERENCE_CALIBRATION_S).
    /// The table on
    /// stderr shows the raw figures beside them.
    pub fn print(&self, slowdown: f64) {
        let width = self.metrics.iter().map(|m| m.0.len()).max().unwrap_or(0);
        eprintln!("{:<width$}  {:>14} {:>14}", "metric", "raw", "scaled");
        for (name, value, unit) in &self.metrics {
            let scaled = scale(*value, unit, slowdown);
            eprintln!("{name:<width$}  {value:>14.4} {scaled:>14.4} {unit}");
        }
        eprintln!("machine slowdown against the reference: {slowdown:.4}");
        for p in &self.problems {
            eprintln!("PROBLEM: {p}");
        }
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = scale(*value, unit, slowdown);
            let value = if value.is_finite() { value } else { -1.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        println!("{out}");
    }
}

/// Scales a time or rate measured on a machine running `slowdown`
/// times slower than the reference to the reference machine; other
/// units are left as they are.
fn scale(value: f64, unit: &str, slowdown: f64) -> f64 {
    match unit {
        "s" | "ms" | "us" => value / slowdown,
        "MB/s" | "1/s" => value * slowdown,
        _ => value,
    }
}
