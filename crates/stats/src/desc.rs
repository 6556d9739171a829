//! Descriptive statistics and empirical CDFs.

use std::cmp::Ordering;

/// Arithmetic mean; NaN for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Quantile with linear interpolation between order statistics
/// (type-7, the R/numpy default). `q` is clamped to [0, 1]. NaN for empty
/// input.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    quantile_sorted(&sorted, q)
}

/// Quantile over an already-sorted slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    quantile_by_rank(sorted.len(), q, |k| sorted[k])
}

/// The type-7 quantile `q` of `len > 0` sorted values, where `at(k)`
/// returns the k-th smallest. `at` is called with non-decreasing ranks
/// (at most twice), so it may walk a running prefix scan.
pub(crate) fn quantile_by_rank(len: usize, q: f64, mut at: impl FnMut(usize) -> f64) -> f64 {
    let q = q.clamp(0.0, 1.0);
    let pos = q * (len - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        at(lo)
    } else {
        let frac = pos - lo as f64;
        let (a, b) = (at(lo), at(hi));
        a * (1.0 - frac) + b * frac
    }
}

/// Stable ascending index order of `xs`: `order[k]` is the index of the
/// k-th smallest value, equal values keep their input order. `None` if
/// `xs` holds a NaN.
pub(crate) fn argsort(xs: &[f64]) -> Option<Vec<usize>> {
    if xs.iter().any(|x| x.is_nan()) {
        return None;
    }
    let mut order: Vec<usize> = (0..xs.len()).collect();
    order.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).unwrap_or(Ordering::Equal));
    Some(order)
}

/// Median (0.5 quantile).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Weighted quantile with the Harrell–Davis-free "sorted cumulative
/// weight" definition: sort by value, walk the cumulative normalised
/// weight, return the first value whose cumulative weight reaches `q`.
/// Weights must be non-negative; NaN for empty/degenerate input or a NaN
/// value.
pub fn weighted_quantile(xs: &[f64], weights: &[f64], q: f64) -> f64 {
    if xs.is_empty() || xs.len() != weights.len() {
        return f64::NAN;
    }
    let total: f64 = weights.iter().map(|w| w.max(0.0)).sum();
    if total <= 0.0 {
        return f64::NAN;
    }
    let Some(order) = argsort(xs) else {
        return f64::NAN;
    };
    let q = q.clamp(0.0, 1.0);
    let mut cumulative = 0.0;
    for &i in &order {
        cumulative += weights[i].max(0.0) / total;
        if cumulative >= q {
            return xs[i];
        }
    }
    xs[order[order.len() - 1]]
}

/// Weighted median.
pub fn weighted_median(xs: &[f64], weights: &[f64]) -> f64 {
    weighted_quantile(xs, weights, 0.5)
}

/// Empirical CDF: returns `(sorted values, cumulative probabilities)`,
/// where probability `i` is `(i+1)/n` — the fraction of observations at or
/// below the value. Suitable for plotting Figures 4 and 6.
pub fn ecdf(xs: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in ecdf input"));
    let n = sorted.len();
    let probs = (0..n).map(|i| (i + 1) as f64 / n as f64).collect();
    (sorted, probs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_a_known_sample() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_are_nan() {
        assert!(mean(&[]).is_nan());
        assert!(median(&[]).is_nan());
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quantile_interpolation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 1.0 / 3.0) - 2.0).abs() < 1e-12);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_clamps_q() {
        let xs = [1.0, 2.0];
        assert_eq!(quantile(&xs, -1.0), 1.0);
        assert_eq!(quantile(&xs, 2.0), 2.0);
    }

    #[test]
    fn ecdf_properties() {
        let xs = [5.0, 1.0, 3.0];
        let (vals, probs) = ecdf(&xs);
        assert_eq!(vals, vec![1.0, 3.0, 5.0]);
        assert_eq!(probs, vec![1.0 / 3.0, 2.0 / 3.0, 1.0]);
    }

    #[test]
    fn weighted_quantile_reduces_to_plain_with_unit_weights() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        let w = [1.0; 5];
        assert_eq!(weighted_median(&xs, &w), 3.0);
        assert_eq!(weighted_quantile(&xs, &w, 0.0), 1.0);
        assert_eq!(weighted_quantile(&xs, &w, 1.0), 5.0);
    }

    #[test]
    fn weighted_quantile_respects_weights() {
        // Nearly all mass on the value 10.
        let xs = [1.0, 10.0];
        let w = [0.01, 0.99];
        assert_eq!(weighted_median(&xs, &w), 10.0);
        let w2 = [0.99, 0.01];
        assert_eq!(weighted_median(&xs, &w2), 1.0);
    }

    #[test]
    fn weighted_quantile_degenerate_inputs() {
        assert!(weighted_quantile(&[], &[], 0.5).is_nan());
        assert!(weighted_quantile(&[1.0], &[], 0.5).is_nan());
        assert!(weighted_quantile(&[1.0], &[0.0], 0.5).is_nan());
        assert!(weighted_quantile(&[1.0, 2.0], &[-1.0, 1.0], 0.5) == 2.0);
    }

    #[test]
    fn argsort_is_stable_and_rejects_nan() {
        assert_eq!(
            argsort(&[3.0, 1.0, 3.0, 2.0, 1.0]).unwrap(),
            vec![1, 4, 3, 0, 2]
        );
        assert_eq!(argsort(&[]).unwrap(), Vec::<usize>::new());
        assert!(argsort(&[1.0, f64::NAN]).is_none());
        assert!(weighted_median(&[1.0, f64::NAN], &[1.0, 1.0]).is_nan());
    }
}
