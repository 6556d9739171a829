//! # dohperf-stats
//!
//! The statistics substrate for the paper's analyses:
//!
//! * [`desc`] — descriptive statistics: mean, variance, quantiles with
//!   linear interpolation, and empirical CDFs (Figures 3, 4, 6).
//! * [`matrix`] — a small dense-matrix kernel (row-major `f64`) with
//!   multiplication, transpose and a partially pivoted Gaussian solver.
//! * [`ols`] — ordinary least squares with standard errors, t statistics
//!   and normal-approximation p-values (Tables 5 and 6).
//! * [`logistic`] — logistic regression fitted by iteratively reweighted
//!   least squares, reporting odds ratios and Wald p-values (Table 4).
//! * [`scale`] — min–max feature scaling used for the paper's "scaled
//!   coefficients".
//! * [`sketch`] — a Greenwald–Khanna quantile sketch for the per-window
//!   latency quantiles of `repro timeline`.
//! * [`special`] — `erf` and the standard normal CDF, implemented from
//!   scratch (the offline crate set has no special-functions crate).
//!
//! Everything is deterministic and dependency-free.

pub mod desc;
pub mod logistic;
pub mod matrix;
pub mod ols;
pub mod resample;
pub mod scale;
pub mod sketch;
pub mod special;

pub use desc::{ecdf, mean, median, quantile, stddev, Summary};
pub use logistic::{LogisticFit, LogisticRegression};
pub use matrix::Matrix;
pub use ols::{OlsFit, OlsRegression};
pub use resample::{bootstrap_ci, median_ci, spearman, ConfidenceInterval};
pub use scale::MinMaxScaler;
pub use sketch::GkSketch;
pub use special::{erf, normal_cdf};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::desc::{ecdf, mean, median, quantile, stddev, Summary};
    pub use crate::logistic::{LogisticFit, LogisticRegression};
    pub use crate::matrix::Matrix;
    pub use crate::ols::{OlsFit, OlsRegression};
    pub use crate::scale::MinMaxScaler;
    pub use crate::sketch::GkSketch;
    pub use crate::special::{erf, normal_cdf};
}
