//! Ordinary least squares with inference.
//!
//! Fits `y = X β + ε` by solving the normal equations, and reports
//! coefficient standard errors, z statistics and two-sided
//! normal-approximation p-values (sample sizes in the paper's regressions
//! are in the thousands, where t and normal quantiles coincide).

use crate::matrix::Matrix;
use crate::special::two_sided_p;

/// Per-coefficient inference results.
#[derive(Debug, Clone, PartialEq)]
pub struct Coefficient {
    /// Feature name (from the caller).
    pub name: String,
    /// Point estimate.
    pub estimate: f64,
    /// Standard error.
    pub std_error: f64,
    /// z statistic (estimate / SE).
    pub z_value: f64,
    /// Two-sided p-value.
    pub p_value: f64,
}

/// A fitted OLS model.
#[derive(Debug, Clone, PartialEq)]
pub struct OlsFit {
    /// Intercept + feature coefficients, in design order.
    pub coefficients: Vec<Coefficient>,
    /// Residual sum of squares.
    pub rss: f64,
    /// Total sum of squares.
    pub tss: f64,
    /// Coefficient of determination.
    pub r_squared: f64,
    /// Observations.
    pub n: usize,
}

impl OlsFit {
    /// Look up a coefficient by name.
    pub fn coef(&self, name: &str) -> Option<&Coefficient> {
        self.coefficients.iter().find(|c| c.name == name)
    }
}

/// OLS regression builder.
///
/// ```
/// use dohperf_stats::ols::OlsRegression;
/// let mut reg = OlsRegression::new(&["x"]);
/// for i in 0..10 {
///     let x = f64::from(i);
///     reg.push(&[x], 3.0 + 2.0 * x);
/// }
/// let fit = reg.fit().unwrap();
/// assert!((fit.coef("x").unwrap().estimate - 2.0).abs() < 1e-9);
/// ```
#[derive(Debug, Default)]
pub struct OlsRegression {
    feature_names: Vec<String>,
    /// Row-major design, one row of `1 + features` values per
    /// observation: the intercept's 1.0, then the features.
    design: Vec<f64>,
    targets: Vec<f64>,
}

impl OlsRegression {
    /// Start a regression with named features (the intercept is implicit).
    pub fn new(feature_names: &[&str]) -> Self {
        OlsRegression {
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

    /// Add one observation. Panics if the feature count mismatches.
    pub fn push(&mut self, features: &[f64], y: f64) {
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

    /// True when no observations have been added.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Fit the model. Returns `None` when the design is singular, a
    /// feature or target is non-finite, or there are fewer observations
    /// than parameters.
    pub fn fit(&self) -> Option<OlsFit> {
        let n = self.targets.len();
        let k = self.feature_names.len() + 1; // + intercept
        let finite = |v: &f64| v.is_finite();
        if n < k || !self.design.iter().chain(&self.targets).all(finite) {
            return None;
        }
        // X'X and X'y straight from the design rows. Each entry sums its
        // rows in row order and skips zero design values, exactly as
        // `Matrix::matmul` of the transposed design would.
        let mut xtx = Matrix::zeros(k, k);
        let mut xty = Matrix::zeros(k, 1);
        for (x, &y) in self.design.chunks_exact(k).zip(&self.targets) {
            for (i, &a) in x.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                for (j, &b) in x.iter().enumerate() {
                    xtx[(i, j)] += a * b;
                }
                xty[(i, 0)] += a * y;
            }
        }
        let beta = xtx.solve(&xty)?;
        // Residuals, with each fitted value summed as `Matrix::matmul`
        // of the design and `beta` would.
        let mut rss = 0.0;
        for (x, &y) in self.design.chunks_exact(k).zip(&self.targets) {
            let mut fitted = 0.0;
            for (j, &a) in x.iter().enumerate() {
                if a != 0.0 {
                    fitted += a * beta[(j, 0)];
                }
            }
            let r = y - fitted;
            rss += r * r;
        }
        let ybar = self.targets.iter().sum::<f64>() / n as f64;
        let tss: f64 = self.targets.iter().map(|v| (v - ybar).powi(2)).sum();
        // Coefficient covariance: sigma^2 (X'X)^-1.
        let dof = (n - k).max(1);
        let sigma2 = rss / dof as f64;
        let xtx_inv = xtx.inverse()?;
        let mut coefficients = Vec::with_capacity(k);
        for j in 0..k {
            let estimate = beta[(j, 0)];
            let var = (sigma2 * xtx_inv[(j, j)]).max(0.0);
            let std_error = var.sqrt();
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
            coefficients.push(Coefficient {
                name,
                estimate,
                std_error,
                z_value,
                p_value: two_sided_p(z_value),
            });
        }
        let r_squared = if tss > 0.0 { 1.0 - rss / tss } else { 0.0 };
        Some(OlsFit {
            coefficients,
            rss,
            tss,
            r_squared,
            n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        // y = 3 + 2x with no noise.
        let mut reg = OlsRegression::new(&["x"]);
        for i in 0..20 {
            let x = i as f64;
            reg.push(&[x], 3.0 + 2.0 * x);
        }
        let fit = reg.fit().unwrap();
        assert!((fit.coef("(intercept)").unwrap().estimate - 3.0).abs() < 1e-9);
        assert!((fit.coef("x").unwrap().estimate - 2.0).abs() < 1e-9);
        assert!(fit.r_squared > 0.999999);
    }

    #[test]
    fn noisy_line_recovered_with_inference() {
        // Deterministic pseudo-noise.
        let mut reg = OlsRegression::new(&["x"]);
        for i in 0..500 {
            let x = i as f64 / 10.0;
            let noise = ((i * 2654435761u64) % 1000) as f64 / 1000.0 - 0.5;
            reg.push(&[x], 1.0 + 0.5 * x + noise);
        }
        let fit = reg.fit().unwrap();
        let slope = fit.coef("x").unwrap();
        assert!(
            (slope.estimate - 0.5).abs() < 0.01,
            "slope {}",
            slope.estimate
        );
        assert!(slope.p_value < 0.001);
        assert!(slope.std_error > 0.0);
    }

    #[test]
    fn irrelevant_feature_not_significant() {
        let mut reg = OlsRegression::new(&["x", "junk"]);
        for i in 0..400 {
            let x = i as f64 / 10.0;
            // junk cycles independently of y.
            let junk = ((i * 48271) % 97) as f64;
            let noise = ((i * 2654435761u64) % 1000) as f64 / 100.0 - 5.0;
            reg.push(&[x, junk], 2.0 * x + noise);
        }
        let fit = reg.fit().unwrap();
        assert!(fit.coef("x").unwrap().p_value < 0.001);
        assert!(fit.coef("junk").unwrap().p_value >= 0.001);
    }

    #[test]
    fn multivariate_recovery() {
        // y = 1 + 2a - 3b
        let mut reg = OlsRegression::new(&["a", "b"]);
        for i in 0..100 {
            let a = (i % 10) as f64;
            let b = (i / 10) as f64;
            reg.push(&[a, b], 1.0 + 2.0 * a - 3.0 * b);
        }
        let fit = reg.fit().unwrap();
        assert!((fit.coef("a").unwrap().estimate - 2.0).abs() < 1e-9);
        assert!((fit.coef("b").unwrap().estimate + 3.0).abs() < 1e-9);
    }

    #[test]
    fn underdetermined_returns_none() {
        let mut reg = OlsRegression::new(&["a", "b", "c"]);
        reg.push(&[1.0, 2.0, 3.0], 1.0);
        reg.push(&[2.0, 3.0, 4.0], 2.0);
        assert!(reg.fit().is_none());
    }

    #[test]
    fn collinear_design_returns_none() {
        let mut reg = OlsRegression::new(&["a", "b"]);
        for i in 0..50 {
            let a = i as f64;
            reg.push(&[a, 2.0 * a], a); // b = 2a exactly
        }
        assert!(reg.fit().is_none());
    }

    #[test]
    fn non_finite_target_returns_none() {
        let mut reg = OlsRegression::new(&["x"]);
        for i in 0..200 {
            let x = f64::from(i);
            reg.push(&[x], 1.0 + 0.5 * x);
        }
        assert!(reg.fit().is_some());
        reg.push(&[3.0], f64::NAN);
        assert!(reg.fit().is_none());
    }

    #[test]
    fn non_finite_feature_returns_none() {
        for bad in [f64::NAN, f64::INFINITY] {
            let mut reg = OlsRegression::new(&["x"]);
            for i in 0..200 {
                let x = f64::from(i);
                reg.push(&[x], 1.0 + 0.5 * x);
            }
            reg.push(&[bad], 2.0);
            assert!(reg.fit().is_none(), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "feature count mismatch")]
    fn wrong_arity_panics() {
        let mut reg = OlsRegression::new(&["a"]);
        reg.push(&[1.0, 2.0], 0.0);
    }

    #[test]
    fn constant_target_gives_zero_r2() {
        let mut reg = OlsRegression::new(&["x"]);
        for i in 0..10 {
            reg.push(&[i as f64], 5.0);
        }
        let fit = reg.fit().unwrap();
        assert!(fit.r_squared.abs() < 1e-9);
        assert!((fit.coef("(intercept)").unwrap().estimate - 5.0).abs() < 1e-9);
    }
}
