//! The result of one run: human-readable notes, then one JSON line.

/// Outcome and metrics of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: wrong answer, typed error, shed request
    /// or timeout.
    pub failed: u64,
    checks: Vec<(String, bool)>,
    metrics: Vec<(&'static str, f64, &'static str, String)>,
    notes: Vec<String>,
}

impl Report {
    /// Records a named correctness check.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    /// Records a metric with its unit.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit, String::new()));
    }

    /// Records a metric with its unit and a remark for the table.
    pub fn metric_with(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        remark: String,
    ) {
        self.metrics.push((name, value, unit, remark));
    }

    /// Records a line printed ahead of the result.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every operation and every check passed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The notes, the checks and the metric table, then the JSON line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            out.push_str(&format!("# {n}\n"));
        }
        for (what, ok) in &self.checks {
            out.push_str(&format!(
                "# check {}: {what}\n",
                if *ok { "ok" } else { "FAILED" }
            ));
        }
        out.push_str(&format!(
            "# ops {} ops_failed {}\n",
            self.attempted, self.failed
        ));
        for (name, value, unit, remark) in &self.metrics {
            out.push_str(&format!("# {name:<28} {value:>16.4} {unit:<6} {remark}\n"));
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit, _)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ));
        out
    }
}
