//! Order statistics and the metric table printed for every run.

use std::fmt::Write as _;

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Geometric mean of positive ratios.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// One reported metric: every sample a run took of it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, samples: Vec<f64>) -> Self {
        Metric { name: name.to_string(), unit, samples }
    }

    pub fn one(name: &str, unit: &'static str, value: f64) -> Self {
        Metric::new(name, unit, vec![value])
    }

    pub fn value(&self) -> f64 {
        median(&self.samples)
    }
}

/// The human-readable table: name, unit, median, quartiles and sample
/// count. With fewer than ten samples beyond it no upper percentile is
/// meaningful, so the quartiles stand in for the spread.
pub fn table(metrics: &[Metric]) -> String {
    let mut out = format!(
        "{:<28} {:>9} {:>14} {:>14} {:>14} {:>4}\n",
        "metric", "unit", "median", "p25", "p75", "n"
    );
    for m in metrics {
        let _ = writeln!(
            out,
            "{:<28} {:>9} {:>14.6} {:>14.6} {:>14.6} {:>4}",
            m.name,
            m.unit,
            m.value(),
            quantile(&m.samples, 0.25),
            quantile(&m.samples, 0.75),
            m.samples.len()
        );
    }
    out
}

/// The result line: `metrics` holds each metric's median.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let v = m.value();
        let v = if v.is_finite() { format!("{v}") } else { "null".to_string() };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            m.name,
            v,
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
