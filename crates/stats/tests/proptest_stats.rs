//! Property-based tests for the statistics substrate.

use dohperf_stats::desc::median_in_place;
use dohperf_stats::prelude::*;
use proptest::prelude::*;

fn finite_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1e6f64..1e6, len)
}

proptest! {
    /// Quantiles are monotone in q and bounded by min/max.
    #[test]
    fn quantiles_monotone(xs in finite_vec(1..200), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = quantile(&xs, lo);
        let b = quantile(&xs, hi);
        prop_assert!(a <= b + 1e-9);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(a >= min - 1e-9 && b <= max + 1e-9);
    }

    /// The median is translation-equivariant.
    #[test]
    fn median_translation(xs in finite_vec(1..100), shift in -1e5f64..1e5) {
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        prop_assert!((median(&shifted) - (median(&xs) + shift)).abs() < 1e-6);
    }

    /// The in-place median the campaign and validation take (sort, then
    /// the type-7 0.5 quantile) equals `median` to the bit, at odd and
    /// even lengths 1-64, and always at the campaign's two runs per
    /// client and the validation's ten runs.
    #[test]
    fn in_place_median_is_bit_identical_to_median(
        xs in proptest::collection::vec(1e-3f64..1e4, 1..65),
    ) {
        for n in [xs.len(), 2, 10] {
            if n > xs.len() {
                continue;
            }
            let sample = &xs[..n];
            let mut sorted = sample.to_vec();
            let (in_place, copied) = (median_in_place(&mut sorted), median(sample));
            prop_assert!(
                in_place.to_bits() == copied.to_bits(),
                "n {}: {} vs {}", n, in_place, copied
            );
        }
    }

    /// The ECDF is a valid distribution function: probabilities ascend to 1
    /// and values are sorted.
    #[test]
    fn ecdf_valid(xs in finite_vec(1..200)) {
        let (vals, probs) = ecdf(&xs);
        prop_assert_eq!(vals.len(), xs.len());
        prop_assert!((probs[probs.len() - 1] - 1.0).abs() < 1e-12);
        for w in vals.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        for w in probs.windows(2) {
            prop_assert!(w[0] < w[1] + 1e-12);
        }
    }

    /// Mean lies within [min, max].
    #[test]
    fn mean_bounded(xs in finite_vec(1..100)) {
        let m = mean(&xs);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= min - 1e-9 && m <= max + 1e-9);
    }

    /// Matrix inverse roundtrips for random well-conditioned matrices
    /// (diagonally dominant by construction).
    #[test]
    fn inverse_roundtrip(vals in proptest::collection::vec(-1.0f64..1.0, 9)) {
        let mut rows = Vec::new();
        for i in 0..3 {
            let mut row: Vec<f64> = (0..3).map(|j| vals[i * 3 + j]).collect();
            row[i] += 5.0; // diagonal dominance ensures invertibility
            rows.push(row);
        }
        let m = Matrix::from_rows(&rows);
        let inv = m.inverse().expect("diagonally dominant matrix is invertible");
        let prod = m.matmul(&inv);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                prop_assert!((prod[(i, j)] - expect).abs() < 1e-8);
            }
        }
    }

    /// OLS on noiseless data recovers the generating coefficients for any
    /// slope/intercept.
    #[test]
    fn ols_recovers_exact_line(b0 in -100.0f64..100.0, b1 in -100.0f64..100.0) {
        let mut reg = OlsRegression::new(&["x"]);
        for i in 0..30 {
            let x = i as f64;
            reg.push(&[x], b0 + b1 * x);
        }
        let fit = reg.fit().unwrap();
        prop_assert!((fit.coef("(intercept)").unwrap().estimate - b0).abs() < 1e-6);
        prop_assert!((fit.coef("x").unwrap().estimate - b1).abs() < 1e-6);
    }

    /// normal_cdf is monotone and bounded.
    #[test]
    fn normal_cdf_monotone(a in -6.0f64..6.0, b in -6.0f64..6.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(normal_cdf(lo) <= normal_cdf(hi) + 1e-12);
        prop_assert!(normal_cdf(lo) >= 0.0 && normal_cdf(hi) <= 1.0);
    }

    /// MinMax scaling maps observed data into [0,1].
    #[test]
    fn minmax_in_unit_interval(rows in proptest::collection::vec(finite_vec(3..4), 2..50)) {
        if let Some(s) = MinMaxScaler::fit(&rows) {
            for row in &rows {
                for v in s.transform(row) {
                    prop_assert!((-1e-9..=1.0 + 1e-9).contains(&v));
                }
            }
        }
    }
}
