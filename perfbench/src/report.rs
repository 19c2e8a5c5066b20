//! Metrics, their summary statistics, and the result line.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name (as in `BENCHMARK.json`).
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// Builds a [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit: unit.to_owned(),
    }
}

/// What one workload run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Whether every checked output was correct.
    pub correct: bool,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed (errors, sheds, panics, wrong outputs).
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

/// The `q`-quantile (0 ≤ q ≤ 1) of sorted samples, interpolating
/// linearly between order statistics. 0 for no samples.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0] as f64,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
        }
    }
}

/// The median of unsorted values (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The geometric mean of positive values (0 for none).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` prints the shortest representation that round-trips,
        // i.e. every digit the measurement has.
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

fn json_string(out: &mut String, s: &str) {
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
}

impl Outcome {
    /// The one-line JSON result: `correct`, `attempted`, `failed`,
    /// `metrics` (each `{"value", "unit"}`).
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json_string(&mut out, &m.name);
            let _ = write!(out, ": {{\"value\": {}, \"unit\": ", json_number(m.value));
            json_string(&mut out, &m.unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// Parses a line written by [`Outcome::json`] (names and units
    /// carry no escapes).
    pub fn parse_json(line: &str) -> Option<Outcome> {
        let rest = line.trim().strip_prefix("{\"correct\": ")?;
        let (correct, rest) = rest.split_once(", \"attempted\": ")?;
        let (attempted, rest) = rest.split_once(", \"failed\": ")?;
        let (failed, rest) = rest.split_once(", \"metrics\": {")?;
        let mut body = rest.strip_suffix("}}")?;
        let mut metrics = Vec::new();
        while let Some(after) = body.strip_prefix('"') {
            let (name, after) = after.split_once("\": {\"value\": ")?;
            let (value, after) = after.split_once(", \"unit\": \"")?;
            let (unit, after) = after.split_once("\"}")?;
            metrics.push(metric(name, value.parse().ok()?, unit));
            body = after.strip_prefix(", ").unwrap_or(after);
        }
        body.is_empty().then_some(())?;
        Some(Outcome {
            correct: correct.parse().ok()?,
            attempted: attempted.parse().ok()?,
            failed: failed.parse().ok()?,
            metrics,
            notes: Vec::new(),
        })
    }

    /// The human-readable table: notes, then one line per metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "{note}");
        }
        for m in &self.metrics {
            let _ = writeln!(out, "  {:<28} {:>18.6} {}", m.name, m.value, m.unit);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [10, 20, 30, 40, 50];
        assert_eq!(quantile(&s, 0.5), 30.0);
        assert_eq!(quantile(&s, 0.25), 20.0);
        assert_eq!(quantile(&s, 0.1), 14.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![metric("a.b", 1.5, "ms"), metric("c", 2.0, "s")],
            notes: Vec::new(),
        };
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a.b\": {\"value\": 1.5, \"unit\": \"ms\"}, \"c\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
        let back = Outcome::parse_json(&o.json()).expect("parses");
        assert_eq!(back.metrics, o.metrics);
        assert_eq!((back.correct, back.attempted, back.failed), (true, 3, 0));
    }
}
