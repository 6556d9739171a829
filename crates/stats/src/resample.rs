//! Resampling inference: bootstrap confidence intervals.
//!
//! The paper reports point estimates; for robustness the reproduction adds
//! percentile-bootstrap confidence intervals on medians and other
//! statistics, with a deterministic internal PRNG (xorshift) so reports
//! are reproducible without threading an RNG through the analyses.

use crate::desc;
use std::cmp::Ordering;

/// A two-sided confidence interval around a point estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// The statistic on the original sample.
    pub estimate: f64,
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// Confidence level, e.g. 0.95.
    pub level: f64,
}

impl ConfidenceInterval {
    /// Width of the interval.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether a value lies inside the interval.
    pub fn contains(&self, value: f64) -> bool {
        (self.lo..=self.hi).contains(&value)
    }
}

/// Bootstrap CI for the median — the workhorse for latency summaries.
///
/// A percentile bootstrap over 1000 resamples by a rank-count kernel:
/// `xs` is sorted once, and each resample draws n indices from a
/// deterministic xorshift stream but only counts how often each rank is
/// drawn. A prefix scan over the counts then finds the two middle order
/// statistics, which are combined with the arithmetic of
/// `desc::quantile_sorted`. O(n) per resample, with no comparisons and
/// no allocation inside the resample loop. The unit tests hold it
/// bit-identical to the generic bootstrap that copies each resample and
/// takes its `desc::median`, with one exception: when `xs` holds both
/// `-0.0` and `+0.0`, the generic path orders tied zeros by draw order
/// and this kernel by their order in `xs`, so a zero bound may differ
/// in sign. Latencies are never `-0.0`. `None` for empty input, a level
/// outside [0, 1), a NaN in `xs` or a NaN resample median.
pub fn median_ci(xs: &[f64], level: f64, seed: u64) -> Option<ConfidenceInterval> {
    const RESAMPLES: usize = 1000;
    if xs.is_empty() || !(0.0..1.0).contains(&level) {
        return None;
    }
    let order = desc::argsort(xs)?;
    let n = xs.len();
    let sorted: Vec<f64> = order.iter().map(|&i| xs[i]).collect();
    let mut rank = vec![0usize; n];
    for (r, &i) in order.iter().enumerate() {
        rank[i] = r;
    }
    drop(order);
    let estimate = desc::quantile_sorted(&sorted, 0.5);
    let mut rng = XorShift::new(seed);
    let mut counts = vec![0u32; n];
    let mut stats = Vec::with_capacity(RESAMPLES);
    for _ in 0..RESAMPLES {
        for _ in 0..n {
            counts[rank[rng.next_index(n)]] += 1;
        }
        // Running prefix scan: `next` is the first rank not yet passed,
        // `below` how many draws fall on ranks before it.
        let (mut next, mut below) = (0, 0);
        stats.push(desc::quantile_by_rank(n, 0.5, |k| {
            while below <= k {
                below += counts[next] as usize;
                next += 1;
            }
            sorted[next - 1]
        }));
        counts.fill(0);
    }
    percentile_interval(estimate, stats, level)
}

/// The percentile interval at `level` over the bootstrap statistics;
/// `None` if any statistic is NaN.
fn percentile_interval(
    estimate: f64,
    mut stats: Vec<f64>,
    level: f64,
) -> Option<ConfidenceInterval> {
    if stats.iter().any(|s| s.is_nan()) {
        return None;
    }
    stats.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
    let alpha = (1.0 - level) / 2.0;
    let lo = desc::quantile_sorted(&stats, alpha);
    let hi = desc::quantile_sorted(&stats, 1.0 - alpha);
    Some(ConfidenceInterval {
        estimate,
        lo,
        hi,
        level,
    })
}

/// Spearman rank correlation between two equal-length samples.
/// Returns `None` on mismatched/short input or a NaN.
pub fn spearman(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let rx = ranks(xs)?;
    let ry = ranks(ys)?;
    pearson(&rx, &ry)
}

/// 1-based ranks, averaged over ties; `None` on a NaN.
fn ranks(xs: &[f64]) -> Option<Vec<f64>> {
    let order = desc::argsort(xs)?;
    let mut out = vec![0.0; xs.len()];
    let mut i = 0;
    while i < order.len() {
        // Average ranks over ties.
        let mut j = i;
        while j + 1 < order.len() && xs[order[j + 1]] == xs[order[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            out[idx] = avg_rank;
        }
        i = j + 1;
    }
    Some(out)
}

fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx).powi(2);
        vy += (y - my).powi(2);
    }
    if vx <= 0.0 || vy <= 0.0 {
        return None;
    }
    Some(cov / (vx * vy).sqrt())
}

/// Minimal xorshift64* PRNG for deterministic resampling.
struct XorShift {
    state: u64,
}

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift {
            state: (seed ^ 0x9E3779B97F4A7C15).max(1),
        }
    }
    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
    fn next_index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Percentile bootstrap for an arbitrary statistic: the oracle that
    /// `median_ci` is held to. Each resample is copied out and handed to
    /// `statistic`. `None` for empty input, a level outside [0, 1), a
    /// NaN in `xs`, or a NaN statistic.
    fn bootstrap_ci<F>(
        xs: &[f64],
        statistic: F,
        resamples: usize,
        level: f64,
        seed: u64,
    ) -> Option<ConfidenceInterval>
    where
        F: Fn(&[f64]) -> f64,
    {
        if xs.is_empty() || !(0.0..1.0).contains(&level) || xs.iter().any(|x| x.is_nan()) {
            return None;
        }
        let estimate = statistic(xs);
        let mut rng = XorShift::new(seed);
        let mut stats = Vec::with_capacity(resamples);
        let mut buffer = vec![0.0; xs.len()];
        for _ in 0..resamples.max(1) {
            for slot in buffer.iter_mut() {
                *slot = xs[rng.next_index(xs.len())];
            }
            stats.push(statistic(&buffer));
        }
        percentile_interval(estimate, stats, level)
    }

    fn finite_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(-1e6f64..1e6, len)
    }

    fn sample(n: usize) -> Vec<f64> {
        // Deterministic right-skewed sample.
        (0..n)
            .map(|i| {
                let u = ((i * 2654435761) % 1000) as f64 / 1000.0;
                100.0 * (1.0 - u).max(1e-6).ln().abs()
            })
            .collect()
    }

    #[test]
    fn median_ci_contains_the_estimate() {
        let xs = sample(500);
        let ci = median_ci(&xs, 0.95, 7).unwrap();
        assert!(ci.contains(ci.estimate));
        assert!(ci.width() > 0.0);
        assert_eq!(ci.level, 0.95);
    }

    #[test]
    fn ci_narrows_with_sample_size() {
        let small = median_ci(&sample(50), 0.95, 7).unwrap();
        let large = median_ci(&sample(5000), 0.95, 7).unwrap();
        assert!(large.width() < small.width());
    }

    #[test]
    fn ci_is_deterministic() {
        let xs = sample(200);
        let a = median_ci(&xs, 0.95, 42).unwrap();
        let b = median_ci(&xs, 0.95, 42).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn wider_level_wider_interval() {
        let xs = sample(300);
        let ci90 = median_ci(&xs, 0.90, 7).unwrap();
        let ci99 = median_ci(&xs, 0.99, 7).unwrap();
        assert!(ci99.width() > ci90.width());
    }

    #[test]
    fn empty_and_bad_level_rejected() {
        assert!(median_ci(&[], 0.95, 1).is_none());
        assert!(median_ci(&[1.0], 1.5, 1).is_none());
    }

    #[test]
    fn median_ci_returns_none_on_nan() {
        let mut xs = sample(100);
        xs[37] = f64::NAN;
        assert!(median_ci(&xs, 0.95, 7).is_none());
    }

    #[test]
    fn bootstrap_ci_returns_none_on_nan() {
        let mut xs = sample(100);
        xs[0] = f64::NAN;
        assert!(bootstrap_ci(&xs, desc::median, 100, 0.95, 7).is_none());
        // A statistic that is NaN on finite input is rejected too.
        let nan_stat = |_: &[f64]| f64::NAN;
        assert!(bootstrap_ci(&sample(10), nan_stat, 100, 0.95, 7).is_none());
    }

    proptest! {
        // Each case runs the generic bootstrap: 1000 medians of up to
        // 3000 values, slow in a debug build.
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The rank-count median bootstrap is bit-identical to the
        /// generic bootstrap over `desc::median`: tiny, odd and even
        /// lengths, with and without heavy ties. (No `-0.0`: see
        /// `median_ci`.)
        #[test]
        fn median_ci_is_the_generic_bootstrap(
            xs in prop_oneof![
                finite_vec(1..8),
                finite_vec(1..3000),
                // Heavy ties: at most 8 distinct values.
                proptest::collection::vec((0u32..8).prop_map(|v| f64::from(v) * 12.5), 1..3000),
            ],
            level in 0.0f64..1.0,
            seed in any::<u64>(),
        ) {
            let fast = median_ci(&xs, level, seed).unwrap();
            let generic = bootstrap_ci(&xs, desc::median, 1000, level, seed).unwrap();
            for (a, b) in [
                (fast.estimate, generic.estimate),
                (fast.lo, generic.lo),
                (fast.hi, generic.hi),
                (fast.level, generic.level),
            ] {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn spearman_returns_none_on_nan() {
        let xs = [1.0, 2.0, f64::NAN, 4.0];
        let ys = [1.0, 2.0, 3.0, 4.0];
        assert!(spearman(&xs, &ys).is_none());
        assert!(spearman(&ys, &xs).is_none());
    }

    #[test]
    fn spearman_perfect_monotone() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.exp()).collect(); // monotone, nonlinear
        assert!((spearman(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = xs.iter().map(|x| -x).collect();
        assert!((spearman(&xs, &neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_handles_ties() {
        let xs = [1.0, 1.0, 2.0, 3.0];
        let ys = [2.0, 2.0, 4.0, 6.0];
        assert!((spearman(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_independent_near_zero() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 48271) % 997) as f64).collect();
        let ys: Vec<f64> = (0..1000).map(|i| ((i * 16807) % 991) as f64).collect();
        let rho = spearman(&xs, &ys).unwrap();
        assert!(rho.abs() < 0.1, "rho {rho}");
    }

    #[test]
    fn spearman_rejects_bad_input() {
        assert!(spearman(&[1.0], &[1.0]).is_none());
        assert!(spearman(&[1.0, 2.0], &[1.0]).is_none());
        assert!(spearman(&[1.0, 1.0], &[2.0, 2.0]).is_none()); // zero variance
    }
}
