//! What one workload run reports: metrics with units, the output-check
//! tally, and the final JSON line.

use crate::provenance::esc;

#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, String)>,
    /// Units of work the run attempted (cells, requests, checks).
    pub attempted: u64,
    /// Attempts that panicked, errored or failed an output check.
    pub failed: u64,
    /// One line per failed check, printed before the result.
    pub failures: Vec<String>,
    /// Human-readable notes (sample counts, search steps).
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.metrics.push((name.into(), value, unit.to_string()));
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Counts one attempt, failing it with `why` unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(why());
        }
    }

    /// Records a failure that is not tied to one attempt (a metric that
    /// cannot be reported honestly, a server that would not start).
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    esc(name),
                    num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }

    /// Metrics as an aligned table, then notes and failures.
    pub fn human(&self, workload: &str) -> String {
        let mut out = format!("== {workload}\n");
        for (name, value, unit) in &self.metrics {
            out.push_str(&format!("  {name:<36} {value:>16.6} {unit}\n"));
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        out.push_str(&format!(
            "  {:<36} {error_rate:>16.6} failed/attempted ({} of {})\n",
            "error_rate", self.failed, self.attempted
        ));
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        for failure in &self.failures {
            out.push_str(&format!("  CHECK FAILED: {failure}\n"));
        }
        out
    }
}

/// A JSON number with all its digits; non-finite values become null
/// (and [`crate::finish`] fails the run over them).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}
