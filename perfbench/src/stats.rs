//! Aggregation rules. Timings from different models are never pooled
//! into one median: each model gets its own median, and the models are
//! combined by geometric mean, so every model weighs the same however
//! fast it is.

use std::collections::BTreeMap;

/// Linear-interpolation quantile (`q` in `[0, 1]`) of `values`; 0 when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean of `values` without the lowest and highest `trim` share of them
/// (`trim` in `[0, 0.5)`); 0 when empty. Where samples fall into two
/// host speed modes, it moves with the share of each mode, where a
/// median jumps from one mode to the other.
pub fn trimmed_mean(values: &[f64], trim: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = (v.len() as f64 * trim) as usize;
    let kept = &v[cut..v.len() - cut];
    if kept.is_empty() {
        return 0.0;
    }
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Samples grouped by model.
#[derive(Debug, Default, Clone)]
pub struct PerModel(BTreeMap<&'static str, Vec<f64>>);

impl PerModel {
    pub fn push(&mut self, model: &'static str, value: f64) {
        self.0.entry(model).or_default().push(value);
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Geometric mean over models of each model's `q`-quantile.
    pub fn geo_of(&self, q: f64) -> f64 {
        let per: Vec<f64> = self.0.values().map(|v| quantile(v, q)).collect();
        geomean(&per)
    }

    /// Geometric mean over models of each model's median.
    pub fn geo_of_medians(&self) -> f64 {
        self.geo_of(0.5)
    }

    /// Model → (median, sample count).
    pub fn summary(&self) -> BTreeMap<&'static str, (f64, usize)> {
        self.0
            .iter()
            .map(|(m, v)| (*m, (median(v), v.len())))
            .collect()
    }

    /// Model → median.
    pub fn medians(&self) -> BTreeMap<&'static str, f64> {
        self.0.iter().map(|(m, v)| (*m, median(v))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trimmed_mean_drops_both_ends() {
        let v = [9.0, 1.0, 2.0, 3.0, 100.0];
        assert_eq!(trimmed_mean(&v, 0.2), (2.0 + 3.0 + 9.0) / 3.0);
        assert_eq!(trimmed_mean(&v, 0.0), 23.0);
        assert_eq!(trimmed_mean(&[], 0.2), 0.0);
    }
}
