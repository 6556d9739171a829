//! A bounded-memory quantile summary for the per-window latency
//! quantiles of `repro timeline`.
//!
//! [`GkSketch`] is a Greenwald–Khanna ε-approximate quantile sketch.
//! Space is O(1/ε · log(εn)) regardless of stream length; any quantile
//! query is answered within ε of the true rank.
//!
//! The sketch is deterministic: the same insertion sequence produces
//! the same internal state.

/// One GK tuple: a stored value with its rank-uncertainty bookkeeping.
///
/// `g` is the gap between this entry's minimum rank and the previous
/// entry's; `delta` is the extra uncertainty in this entry's maximum
/// rank. Invariant: `g + delta <= floor(2·ε·n)` after compression.
#[derive(Debug, Clone, Copy, PartialEq)]
struct GkEntry {
    value: f64,
    g: u64,
    delta: u64,
}

/// Greenwald–Khanna ε-approximate streaming quantile sketch.
#[derive(Debug, Clone, PartialEq)]
pub struct GkSketch {
    epsilon: f64,
    entries: Vec<GkEntry>,
    count: u64,
    /// Inserts since the last compression pass.
    since_compress: u64,
}

impl GkSketch {
    /// Create a sketch answering quantile queries within `epsilon` of
    /// the true rank. `epsilon` is clamped to [1e-6, 0.5].
    pub fn new(epsilon: f64) -> Self {
        GkSketch {
            epsilon: epsilon.clamp(1e-6, 0.5),
            entries: Vec::new(),
            count: 0,
            since_compress: 0,
        }
    }

    /// Observations inserted so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Insert one observation. Non-finite values are ignored (the
    /// campaign never produces them; a corrupt store could).
    pub fn insert(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        // Position of the first entry with a strictly greater value.
        let pos = self.entries.partition_point(|e| e.value <= value);
        let delta = if pos == 0 || pos == self.entries.len() {
            0 // new minimum or maximum: rank is certain
        } else {
            (2.0 * self.epsilon * self.count as f64).floor() as u64
        };
        self.entries.insert(pos, GkEntry { value, g: 1, delta });
        self.count += 1;
        self.since_compress += 1;
        if self.since_compress as f64 >= 1.0 / (2.0 * self.epsilon) {
            self.compress();
            self.since_compress = 0;
        }
    }

    /// The value at quantile `q` (clamped to [0, 1]); NaN when empty.
    pub fn query(&self, q: f64) -> f64 {
        if self.count == 0 || self.entries.is_empty() {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let slack = (self.epsilon * self.count as f64).floor() as u64;
        let mut rmin = 0u64;
        let mut prev = self.entries[0].value;
        for e in &self.entries {
            rmin += e.g;
            if rmin + e.delta > target + slack {
                return prev;
            }
            prev = e.value;
        }
        prev
    }

    /// Drop entries whose combined uncertainty stays within the bound.
    /// The first and last entries (exact min/max) are never removed.
    fn compress(&mut self) {
        if self.entries.len() < 3 {
            return;
        }
        let bound = (2.0 * self.epsilon * self.count as f64).floor() as u64;
        let mut kept: Vec<GkEntry> = Vec::with_capacity(self.entries.len());
        kept.push(self.entries[0]);
        // Walk interior entries; fold an entry into its successor when
        // the successor can absorb its gap without breaking the bound.
        let mut pending_g = 0u64;
        for idx in 1..self.entries.len() {
            let e = self.entries[idx];
            let is_last = idx == self.entries.len() - 1;
            if !is_last
                && pending_g + e.g + self.entries[idx + 1].g + self.entries[idx + 1].delta <= bound
            {
                pending_g += e.g;
            } else {
                kept.push(GkEntry {
                    value: e.value,
                    g: e.g + pending_g,
                    delta: e.delta,
                });
                pending_g = 0;
            }
        }
        self.entries = kept;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random stream (LCG) — no RNG dependency.
    fn stream(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Map the top bits to a latency-like range [5, 1005).
                5.0 + (state >> 11) as f64 / (1u64 << 53) as f64 * 1000.0
            })
            .collect()
    }

    /// Rank error of `approx` within `xs`: |rank(approx) − q·n| / n.
    fn rank_error(xs: &[f64], approx: f64, q: f64) -> f64 {
        let below = xs.iter().filter(|&&x| x <= approx).count() as f64;
        let n = xs.len() as f64;
        ((below - q * n) / n).abs()
    }

    #[test]
    fn sketch_answers_within_epsilon() {
        let xs = stream(20_000, 42);
        let mut sk = GkSketch::new(0.01);
        for &x in &xs {
            sk.insert(x);
        }
        for &q in &[0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let err = rank_error(&xs, sk.query(q), q);
            assert!(err <= 0.011, "q={q}: rank error {err}");
        }
    }

    #[test]
    fn sketch_space_stays_sublinear() {
        let xs = stream(50_000, 7);
        let mut sk = GkSketch::new(0.01);
        for &x in &xs {
            sk.insert(x);
        }
        assert!(
            sk.entries.len() < 2_500,
            "{} entries for 50k inserts at eps=0.01",
            sk.entries.len()
        );
    }

    #[test]
    fn small_streams_are_exact_at_extremes() {
        let mut sk = GkSketch::new(0.01);
        for x in [3.0, 1.0, 2.0] {
            sk.insert(x);
        }
        assert_eq!(sk.query(0.0), 1.0);
        assert_eq!(sk.query(1.0), 3.0);
        assert_eq!(sk.count(), 3);
    }

    #[test]
    fn empty_sketch_queries_nan() {
        let sk = GkSketch::new(0.01);
        assert!(sk.query(0.5).is_nan());
    }

    #[test]
    fn non_finite_values_are_ignored() {
        let mut sk = GkSketch::new(0.01);
        for x in [1.0, f64::NAN, 2.0, f64::INFINITY, 3.0] {
            sk.insert(x);
        }
        assert_eq!(sk.count(), 3);
        assert_eq!(sk.query(1.0), 3.0);
    }
}
