//! The result line: correctness, attempts, failures and named metrics.

use std::fmt::Write;

/// What one benchmark run prints as its last line.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations (discoveries, or explorer candidate runs) attempted.
    pub attempted: u64,
    /// Operations whose result broke a requirement or budget, livelocked,
    /// or (explorer) produced a violation.
    pub failed: u64,
    /// Checks of the benchmark itself that failed (traced run differing
    /// from the untraced one, counts not repeating, accounting residual…).
    pub problems: Vec<String>,
    /// `(name, value, unit)`, in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Records a failed check.
    pub fn fail(&mut self, problem: &str) {
        eprintln!("perfbench: {problem}");
        self.problems.push(problem.to_string());
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Whether every operation and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The human-readable table: one metric per line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            writeln!(out, "{name:<34} {value:>18.6} {unit}").unwrap();
        }
        out
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .unwrap();
        }
        out.push_str("}}");
        out
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload never ran).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median of `v` (0 for an empty slice).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}
