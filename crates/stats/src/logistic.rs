//! Logistic regression via iteratively reweighted least squares.
//!
//! Fits `P(y=1 | x) = sigmoid(x'β)` by Newton–Raphson / IRLS and reports
//! odds ratios with Wald standard errors and p-values — exactly the
//! quantities in the paper's Table 4.

use crate::matrix::Matrix;
use crate::special::two_sided_p;

/// Maximum IRLS iterations before declaring non-convergence.
const MAX_ITERATIONS: usize = 50;
/// Convergence threshold on the max absolute coefficient update.
const TOLERANCE: f64 = 1e-8;

/// Per-coefficient logistic inference.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticCoefficient {
    /// Feature name.
    pub name: String,
    /// Log-odds estimate.
    pub estimate: f64,
    /// Wald standard error.
    pub std_error: f64,
    /// z statistic.
    pub z_value: f64,
    /// Two-sided p-value.
    pub p_value: f64,
    /// Odds ratio, `exp(estimate)`.
    pub odds_ratio: f64,
}

/// A fitted logistic model.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticFit {
    /// Intercept + features in design order.
    pub coefficients: Vec<LogisticCoefficient>,
    /// Whether IRLS converged.
    pub converged: bool,
    /// Iterations used.
    pub iterations: usize,
    /// Final log-likelihood.
    pub log_likelihood: f64,
    /// Observations.
    pub n: usize,
}

impl LogisticFit {
    /// Look up a coefficient by name.
    pub fn coef(&self, name: &str) -> Option<&LogisticCoefficient> {
        self.coefficients.iter().find(|c| c.name == name)
    }
}

/// Logistic regression builder.
///
/// ```
/// use dohperf_stats::logistic::LogisticRegression;
/// let mut reg = LogisticRegression::new(&["treated"]);
/// // Odds 1:1 untreated, 3:1 treated -> odds ratio 3.
/// for _ in 0..300 { reg.push(&[0.0], true); reg.push(&[0.0], false); }
/// for _ in 0..450 { reg.push(&[1.0], true); }
/// for _ in 0..150 { reg.push(&[1.0], false); }
/// let fit = reg.fit().unwrap();
/// assert!((fit.coef("treated").unwrap().odds_ratio - 3.0).abs() < 0.2);
/// ```
#[derive(Debug, Default)]
pub struct LogisticRegression {
    feature_names: Vec<String>,
    /// Row-major design, one row of `1 + features` values per
    /// observation: the intercept's 1.0, then the features.
    design: Vec<f64>,
    targets: Vec<bool>,
}

impl LogisticRegression {
    /// Start a regression with named features (the intercept is implicit).
    pub fn new(feature_names: &[&str]) -> Self {
        LogisticRegression {
            feature_names: feature_names.iter().map(|s| s.to_string()).collect(),
            design: Vec::new(),
            targets: Vec::new(),
        }
    }

    /// Reserve room for `additional` more observations, so a caller that
    /// knows its row count fills the design without regrowing it.
    pub fn reserve(&mut self, additional: usize) {
        let k = self.feature_names.len() + 1;
        self.design.reserve_exact(additional * k);
        self.targets.reserve_exact(additional);
    }

    /// Add one observation.
    pub fn push(&mut self, features: &[f64], y: bool) {
        assert_eq!(
            features.len(),
            self.feature_names.len(),
            "feature count mismatch"
        );
        self.design.push(1.0);
        self.design.extend_from_slice(features);
        self.targets.push(y);
    }

    /// Number of observations so far.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    fn sigmoid(z: f64) -> f64 {
        if z >= 0.0 {
            1.0 / (1.0 + (-z).exp())
        } else {
            let e = z.exp();
            e / (1.0 + e)
        }
    }

    /// Fit by IRLS. Returns `None` on a singular information matrix, a
    /// non-finite feature, or an empty/degenerate problem.
    pub fn fit(&self) -> Option<LogisticFit> {
        let n = self.targets.len();
        let k = self.feature_names.len() + 1;
        if n < k || self.design.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let mut beta = vec![0.0; k];
        let mut converged = false;
        let mut iterations = 0;
        let mut info_inv: Option<Matrix> = None;
        for iter in 0..MAX_ITERATIONS {
            iterations = iter + 1;
            // Linear predictor and weights.
            let mut gradient = vec![0.0; k];
            let mut info = Matrix::zeros(k, k);
            for (x, &target) in self.design.chunks_exact(k).zip(&self.targets) {
                let p = Self::sigmoid(linear_predictor(x, &beta));
                let w = (p * (1.0 - p)).max(1e-10);
                let y = if target { 1.0 } else { 0.0 };
                let resid = y - p;
                for j in 0..k {
                    gradient[j] += x[j] * resid;
                    for l in j..k {
                        info[(j, l)] += x[j] * x[l] * w;
                    }
                }
            }
            // Mirror the upper triangle.
            for j in 0..k {
                for l in 0..j {
                    info[(j, l)] = info[(l, j)];
                }
            }
            let inv = info.inverse()?;
            // Newton step: beta += inv * gradient.
            let mut max_delta = 0.0f64;
            let mut new_beta = beta.clone();
            for j in 0..k {
                let mut step = 0.0;
                for l in 0..k {
                    step += inv[(j, l)] * gradient[l];
                }
                new_beta[j] += step;
                max_delta = max_delta.max(step.abs());
            }
            beta = new_beta;
            info_inv = Some(inv);
            if max_delta < TOLERANCE {
                converged = true;
                break;
            }
        }
        let info_inv = info_inv?;
        // Log-likelihood at the fitted coefficients.
        let mut ll = 0.0;
        for (x, &target) in self.design.chunks_exact(k).zip(&self.targets) {
            let p = Self::sigmoid(linear_predictor(x, &beta)).clamp(1e-12, 1.0 - 1e-12);
            ll += if target { p.ln() } else { (1.0 - p).ln() };
        }
        let mut coefficients = Vec::with_capacity(k);
        for j in 0..k {
            let estimate = beta[j];
            let std_error = info_inv[(j, j)].max(0.0).sqrt();
            let z_value = if std_error > 0.0 {
                estimate / std_error
            } else {
                0.0
            };
            let name = if j == 0 {
                "(intercept)".to_string()
            } else {
                self.feature_names[j - 1].clone()
            };
            coefficients.push(LogisticCoefficient {
                name,
                estimate,
                std_error,
                z_value,
                p_value: two_sided_p(z_value),
                odds_ratio: estimate.exp(),
            });
        }
        Some(LogisticFit {
            coefficients,
            converged,
            iterations,
            log_likelihood: ll,
            n,
        })
    }
}

/// `x'β`, summed in coefficient order.
fn linear_predictor(x: &[f64], beta: &[f64]) -> f64 {
    let mut eta = 0.0;
    for (xj, bj) in x.iter().zip(beta) {
        eta += xj * bj;
    }
    eta
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random in [0,1).
    fn unit(i: u64) -> f64 {
        let mut x = i.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(12345);
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51AFD7ED558CCD);
        x ^= x >> 33;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    fn simulate(beta0: f64, beta1: f64, n: u64) -> LogisticRegression {
        let mut reg = LogisticRegression::new(&["x"]);
        for i in 0..n {
            let x = unit(i) * 4.0 - 2.0;
            let p = LogisticRegression::sigmoid(beta0 + beta1 * x);
            let y = unit(i + 1_000_000) < p;
            reg.push(&[x], y);
        }
        reg
    }

    #[test]
    fn recovers_generating_coefficients() {
        let reg = simulate(-0.5, 1.5, 20_000);
        let fit = reg.fit().unwrap();
        assert!(fit.converged, "IRLS should converge");
        let b0 = fit.coef("(intercept)").unwrap().estimate;
        let b1 = fit.coef("x").unwrap().estimate;
        assert!((b0 + 0.5).abs() < 0.1, "b0 {b0}");
        assert!((b1 - 1.5).abs() < 0.1, "b1 {b1}");
    }

    #[test]
    fn odds_ratio_is_exp_of_estimate() {
        let reg = simulate(0.0, 0.7, 5_000);
        let fit = reg.fit().unwrap();
        let c = fit.coef("x").unwrap();
        assert!((c.odds_ratio - c.estimate.exp()).abs() < 1e-12);
        assert!(c.odds_ratio > 1.0);
    }

    #[test]
    fn strong_effect_is_significant_null_is_not() {
        let mut reg = LogisticRegression::new(&["x", "junk"]);
        for i in 0..10_000u64 {
            let x = unit(i) * 2.0 - 1.0;
            let junk = unit(i + 5_000_000) * 2.0 - 1.0;
            let p = LogisticRegression::sigmoid(1.2 * x);
            let y = unit(i + 9_000_000) < p;
            reg.push(&[x, junk], y);
        }
        let fit = reg.fit().unwrap();
        assert!(fit.coef("x").unwrap().p_value < 0.001);
        assert!(fit.coef("junk").unwrap().p_value > 0.01);
    }

    #[test]
    fn binary_covariate_odds_ratio_matches_crosstab() {
        // Construct counts with a known odds ratio of exactly 3:
        // group 0: 1000 successes, 1000 failures (odds 1)
        // group 1: 1500 successes,  500 failures (odds 3)
        let mut reg = LogisticRegression::new(&["g"]);
        for _ in 0..1000 {
            reg.push(&[0.0], true);
            reg.push(&[0.0], false);
        }
        for _ in 0..1500 {
            reg.push(&[1.0], true);
        }
        for _ in 0..500 {
            reg.push(&[1.0], false);
        }
        let fit = reg.fit().unwrap();
        let or = fit.coef("g").unwrap().odds_ratio;
        assert!((or - 3.0).abs() < 0.05, "odds ratio {or}");
    }

    #[test]
    fn underdetermined_returns_none() {
        let mut reg = LogisticRegression::new(&["a", "b"]);
        reg.push(&[1.0, 2.0], true);
        assert!(reg.fit().is_none());
    }

    #[test]
    fn collinear_returns_none() {
        let mut reg = LogisticRegression::new(&["a", "b"]);
        for i in 0..100u64 {
            let a = unit(i);
            reg.push(&[a, 2.0 * a], unit(i + 77) < 0.5);
        }
        assert!(reg.fit().is_none());
    }

    #[test]
    fn non_finite_feature_returns_none() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut reg = simulate(-0.5, 1.5, 200);
            assert!(reg.fit().is_some());
            reg.push(&[bad], true);
            assert!(reg.fit().is_none(), "{bad}");
        }
    }

    #[test]
    fn balanced_coin_gives_near_zero_intercept() {
        let mut reg = LogisticRegression::new(&["x"]);
        for i in 0..2_000u64 {
            reg.push(&[unit(i)], i % 2 == 0);
        }
        let fit = reg.fit().unwrap();
        assert!(fit.coef("(intercept)").unwrap().estimate.abs() < 0.2);
        assert!(fit.log_likelihood < 0.0);
    }
}
