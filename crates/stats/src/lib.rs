//! # dohperf-stats
//!
//! The statistics substrate for the paper's analyses:
//!
//! * [`desc`] — descriptive statistics: mean, weighted quantiles,
//!   empirical CDFs (Figures 3, 4, 6), and the type-7 quantile with
//!   linear interpolation that is the workspace's one quantile
//!   definition (headline, figures and per-window timeline alike).
//! * [`matrix`] — a small dense-matrix kernel (row-major `f64`) with
//!   multiplication, transpose and a partially pivoted Gaussian solver.
//! * [`ols`] — ordinary least squares with standard errors, t statistics
//!   and normal-approximation p-values (Tables 5 and 6).
//! * [`logistic`] — logistic regression fitted by iteratively reweighted
//!   least squares, reporting odds ratios and Wald p-values (Table 4).
//! * [`resample`] — bootstrap confidence intervals and Spearman rank
//!   correlation for the robustness report.
//! * [`scale`] — min–max feature scaling used for the paper's "scaled
//!   coefficients".
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
pub mod special;

pub use desc::{ecdf, mean, median, quantile};
pub use logistic::{LogisticFit, LogisticRegression};
pub use matrix::Matrix;
pub use ols::{OlsFit, OlsRegression};
pub use resample::{median_ci, spearman, ConfidenceInterval};
pub use scale::MinMaxScaler;
pub use special::{erf, normal_cdf};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::desc::{ecdf, mean, median, quantile};
    pub use crate::logistic::{LogisticFit, LogisticRegression};
    pub use crate::matrix::Matrix;
    pub use crate::ols::{OlsFit, OlsRegression};
    pub use crate::scale::MinMaxScaler;
    pub use crate::special::{erf, normal_cdf};
}
