//! What one run reports, and how it is printed.

use std::fmt::Write as _;

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json` or the README.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples behind a timing; `None` for counts and ratios.
    pub samples: Option<usize>,
}

/// Everything a run found.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (publishes, uploads, enrollments, ...).
    pub attempted: u64,
    /// Failed, errored, timed-out, missing or duplicated operations,
    /// plus failed output checks.
    pub failed: u64,
    /// Named output checks and whether they passed.
    pub checks: Vec<(String, bool)>,
    /// Every metric the run measured.
    pub metrics: Vec<Metric>,
    /// Free-form findings (flags, breakdowns) printed with the report.
    pub notes: Vec<String>,
}

impl Report {
    /// Record a metric.
    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64, samples: Option<usize>) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            unit,
            value,
            samples,
        });
    }

    /// Record an output check; a failed check counts as a failure.
    pub fn check(&mut self, name: impl Into<String>, passed: bool) {
        if !passed {
            self.failed += 1;
        }
        self.checks.push((name.into(), passed));
    }

    /// Look a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Human-readable lines: every metric with its unit and sample count,
    /// every check and note.
    pub fn lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        for m in &self.metrics {
            let mut line = format!("metric {} = {} {}", m.name, m.value, m.unit);
            if let Some(n) = m.samples {
                let _ = write!(line, " (n={n})");
            }
            out.push(line);
        }
        for (name, passed) in &self.checks {
            out.push(format!(
                "check {name}: {}",
                if *passed { "ok" } else { "FAILED" }
            ));
        }
        for note in &self.notes {
            out.push(format!("note {note}"));
        }
        out
    }
}

/// Escape a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `correct`, `attempted`, `failed` and the metrics
/// named in `wanted` (in that order). Fails when one is missing or not a
/// finite number.
pub fn result_json(
    report: &Report,
    correct: bool,
    wanted: &[(&str, &str)],
) -> Result<String, String> {
    let mut metrics = Vec::new();
    for (name, unit) in wanted {
        let m = report
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !m.value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        if m.unit != *unit {
            return Err(format!("metric {name} has unit {} not {unit}", m.unit));
        }
        metrics.push(format!(
            "{}: {{\"value\": {:?}, \"unit\": {}}}",
            json_str(name),
            m.value,
            json_str(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        r.metric("a_ms", "ms", 1.5, Some(10));
        r.metric("b", "count", 3.0, None);
        let line = result_json(&r, true, &[("a_ms", "ms")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        assert!(result_json(&r, true, &[("c", "s")]).is_err());
        assert!(result_json(&r, true, &[("b", "ms")]).is_err());
    }

    #[test]
    fn failed_checks_count_as_failures() {
        let mut r = Report::default();
        r.check("good", true);
        r.check("bad", false);
        assert_eq!(r.failed, 1);
        assert!(r.lines().iter().any(|l| l == "check bad: FAILED"));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
