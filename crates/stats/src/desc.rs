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
/// (type-7, the R/numpy default). `q` is clamped to [0, 1]; a NaN `q`
/// gives NaN. NaN for empty input.
///
/// O(n): `xs` is copied once, the lower order statistic is found by
/// selection and the upper one, when `q` interpolates, by selecting the
/// minimum of the partition above it. No full sort. The result is bit-identical
/// to [`quantile_sorted`] over a stable ascending sort of `xs`: equal
/// non-zero values have equal bits, and a selected zero is replaced by
/// the zero a stable sort puts at its rank `k`, the (k − #negatives)-th
/// zero of `xs` in input order, so `-0.0`/`+0.0` ties keep input order.
/// Panics with "NaN in quantile input" on a NaN in `xs` when
/// `xs.len() >= 2`; a lone NaN is returned as is.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut work = xs.to_vec();
    // No value before `placed` is larger than any value from it on, so
    // rank k is rank k - placed of `work[placed..]`.
    let mut placed = 0;
    quantile_by_rank(xs.len(), q, |k| {
        let x = *work[placed..]
            .select_nth_unstable_by(k - placed, |a, b| {
                a.partial_cmp(b).expect("NaN in quantile input")
            })
            .1;
        placed = k + 1;
        if x == 0.0 {
            stable_zero(xs, k)
        } else {
            x
        }
    })
}

/// The zero a stable ascending sort of `xs` puts at rank `k`, given
/// that rank `k` holds a zero: the (k − #negatives)-th zero of `xs` in
/// input order.
fn stable_zero(xs: &[f64], k: usize) -> f64 {
    let negatives = xs.iter().filter(|&&x| x < 0.0).count();
    xs.iter()
        .copied()
        .filter(|&x| x == 0.0)
        .nth(k - negatives)
        .expect("rank k holds a zero")
}

/// Quantile over an already-sorted slice; a NaN `q` gives NaN.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    quantile_by_rank(sorted.len(), q, |k| sorted[k])
}

/// The type-7 quantile `q` of `len > 0` sorted values, where `at(k)`
/// returns the k-th smallest. `at` is called with non-decreasing ranks
/// (at most twice, the second time with the rank after the first), so
/// it may walk a running prefix scan. A NaN `q` gives NaN without
/// calling `at`.
pub(crate) fn quantile_by_rank(len: usize, q: f64, mut at: impl FnMut(usize) -> f64) -> f64 {
    if q.is_nan() {
        return f64::NAN;
    }
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

/// Median (the 0.5 [`quantile`]): O(n) selection, with `-0.0`/`+0.0`
/// ties in input order.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// [`median`] without the copy: sorts `xs` in place with a stable sort
/// (so `-0.0`/`+0.0` ties keep input order), then takes the type-7 0.5
/// [`quantile_sorted`]. Bit-identical to [`median`] of the unsorted
/// input; NaN for empty input. Panics with "NaN in median input" on a
/// NaN in `xs` when `xs.len() >= 2`.
pub fn median_in_place(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("NaN in median input"));
    quantile_sorted(xs, 0.5)
}

/// Weighted quantile with the Harrell–Davis-free "sorted cumulative
/// weight" definition: sort by value, walk the cumulative normalised
/// weight, return the first value whose cumulative weight reaches `q`.
/// Weights must be non-negative; NaN for empty/degenerate input, a NaN
/// value or a NaN `q`.
fn weighted_quantile(xs: &[f64], weights: &[f64], q: f64) -> f64 {
    if xs.is_empty() || xs.len() != weights.len() || q.is_nan() {
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
    use proptest::prelude::*;

    /// The sort-based quantile `quantile` replaces: a full stable sort,
    /// then `quantile_sorted`.
    fn sorted_quantile(xs: &[f64], q: f64) -> f64 {
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
        quantile_sorted(&sorted, q)
    }

    /// `quantile` and the sort-based reference agree bit for bit at
    /// q = 0, q = 1, every `rank_step`-th exact rank and each of `qs`.
    fn assert_matches_sort(xs: &[f64], rank_step: usize, qs: &[f64]) {
        let top = (xs.len() - 1).max(1) as f64;
        let ranks = (0..xs.len()).step_by(rank_step).map(|k| k as f64 / top);
        for q in [0.0, 1.0]
            .into_iter()
            .chain(ranks)
            .chain(qs.iter().copied())
        {
            assert_eq!(
                quantile(xs, q).to_bits(),
                sorted_quantile(xs, q).to_bits(),
                "q {q} of {xs:?}"
            );
        }
    }

    /// Heavy duplicates: a handful of values, both zeros and both
    /// infinities among them.
    fn tied_value() -> impl Strategy<Value = f64> {
        const TIED: [f64; 8] = [
            f64::NEG_INFINITY,
            -3.5,
            -1.0,
            -0.0,
            0.0,
            0.25,
            2.0,
            f64::INFINITY,
        ];
        (0..TIED.len()).prop_map(|i| TIED[i])
    }

    fn any_value() -> impl Strategy<Value = f64> {
        prop_oneof![tied_value(), -1e6f64..1e6]
    }

    proptest! {
        #[test]
        fn selection_is_the_sorted_quantile(
            xs in proptest::collection::vec(any_value(), 1..=64),
            qs in proptest::collection::vec(0.0f64..1.0, 4),
        ) {
            assert_matches_sort(&xs, 1, &qs);
        }

        #[test]
        fn selection_is_the_sorted_quantile_on_ties(
            xs in proptest::collection::vec(tied_value(), 1..=64),
            qs in proptest::collection::vec(0.0f64..1.0, 4),
        ) {
            assert_matches_sort(&xs, 1, &qs);
        }
    }

    proptest! {
        // A debug-build copy and selection of 10k values per q: few
        // cases, a strided subset of the exact ranks.
        #![proptest_config(ProptestConfig::with_cases(4))]

        #[test]
        fn selection_is_the_sorted_quantile_on_long_inputs(
            xs in proptest::collection::vec(any_value(), 9_000..11_000),
            qs in proptest::collection::vec(0.0f64..1.0, 8),
        ) {
            assert_matches_sort(&xs, 997, &qs);
        }
    }

    #[test]
    fn signed_zero_ties_keep_input_order() {
        // Every sign pattern of up to 8 zeros, beside a negative and a
        // positive value, at every exact rank and between ranks.
        for n in 1..=8 {
            for mask in 0u32..1 << n {
                let mut xs: Vec<f64> = (0..n)
                    .map(|i| if mask >> i & 1 == 1 { -0.0 } else { 0.0 })
                    .collect();
                assert_matches_sort(&xs, 1, &[0.3, 0.5, 0.77]);
                xs.insert(mask as usize % (n + 1), -2.0);
                xs.push(5.0);
                assert_matches_sort(&xs, 1, &[0.3, 0.5, 0.77]);
            }
        }
        assert_eq!(median(&[-0.0, 0.0, -0.0]).to_bits(), 0.0f64.to_bits());
        assert_eq!(median(&[0.0, -0.0, 0.0]).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn a_lone_nan_is_its_own_quantile() {
        assert!(quantile(&[f64::NAN], 0.5).is_nan());
        assert!(median(&[f64::NAN]).is_nan());
    }

    #[test]
    #[should_panic(expected = "NaN in quantile input")]
    fn a_nan_beside_a_value_panics() {
        quantile(&[1.0, f64::NAN], 0.5);
    }

    #[test]
    fn a_nan_q_is_nan() {
        let xs = [3.0, 1.0, 2.0];
        assert!(quantile(&xs, f64::NAN).is_nan());
        assert!(quantile_sorted(&[1.0, 2.0, 3.0], f64::NAN).is_nan());
        assert!(weighted_quantile(&xs, &[1.0; 3], f64::NAN).is_nan());
    }

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
