//! Small statistics and reporting helpers.

/// Median of `v` (mean of the two middle values for even lengths).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Fewest samples a reported tail must hold.
pub const MIN_TAIL: usize = 10;

/// Mean of the slowest `share` (in `(0, 1)`) of `v`, the tail's expected
/// value. Refused (`None`) unless the tail holds at least [`MIN_TAIL`]
/// samples: fewer are no tail.
pub fn tail_mean(v: &[f64], share: f64) -> Option<f64> {
    assert!(share > 0.0 && share < 1.0, "tail share must lie in (0, 1)");
    let k = (share * v.len() as f64).floor() as usize;
    if k < MIN_TAIL {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s[s.len() - k..].iter().sum::<f64>() / k as f64)
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// An ordered `name → (value, unit)` list printed as the result line.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_metric_name(&name), "bad metric name {name:?}");
        assert!(
            self.0.iter().all(|(n, _, _)| *n != name),
            "duplicate metric {name}"
        );
        self.0.push((name, value, unit));
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                // Non-finite values are not JSON; a metric that cannot be
                // measured reads as null and fails the run's check.
                let v = if v.is_finite() {
                    format!("{v:?}")
                } else {
                    "null".into()
                };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_mean_needs_ten_samples() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // The slowest 5% of 200 is ten samples, 191..=200.
        assert_eq!(tail_mean(&v, 0.05), Some(195.5));
        // Of 199 it would be nine — refused.
        assert_eq!(tail_mean(&v[..199], 0.05), None);
        assert_eq!(tail_mean(&v[..20], 0.5), Some(15.5));
        assert_eq!(tail_mean(&v[..19], 0.5), None);
        assert_eq!(tail_mean(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn metric_names_are_restricted() {
        assert!(valid_metric_name("dpe.matvec_us.16x8"));
        assert!(valid_metric_name("setup_s"));
        assert!(!valid_metric_name(".hidden"));
        assert!(!valid_metric_name("a b"));
        assert!(!valid_metric_name("µs"));
        assert!(!valid_metric_name(&"x".repeat(65)));
    }

    #[test]
    fn result_line_is_json() {
        let mut m = Metrics::default();
        m.push("latency_ms", 1.25, "ms");
        let line = m.result_json(true, 10, 0);
        let v = cim_sim::json::parse(&line).expect("valid JSON");
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("latency_ms"))
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64()),
            Some(1.25)
        );
        assert_eq!(v.get("attempted").and_then(|v| v.as_u64()), Some(10));
    }
}
