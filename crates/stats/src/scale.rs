//! Min–max feature scaling.
//!
//! The paper reports "scaled coefficients": the effect of moving an
//! explanatory variable across its whole observed range. For a linear
//! model, scaling a feature to [0, 1] multiplies its coefficient by
//! `max - min`, which is exactly what [`MinMaxScaler::scaled_coefficient`]
//! computes.

/// Per-feature min–max scaler.
#[derive(Debug, Clone, PartialEq)]
pub struct MinMaxScaler {
    mins: Vec<f64>,
    maxs: Vec<f64>,
}

impl MinMaxScaler {
    /// Fit to a feature matrix given as rows of observations (`Vec`s,
    /// arrays or slices). Returns `None` for empty input or ragged rows.
    pub fn fit<R: AsRef<[f64]>>(rows: &[R]) -> Option<Self> {
        let k = rows.first()?.as_ref().len();
        if rows.iter().any(|r| r.as_ref().len() != k) {
            return None;
        }
        let mut mins = vec![f64::INFINITY; k];
        let mut maxs = vec![f64::NEG_INFINITY; k];
        for row in rows {
            for (j, &v) in row.as_ref().iter().enumerate() {
                mins[j] = mins[j].min(v);
                maxs[j] = maxs[j].max(v);
            }
        }
        Some(MinMaxScaler { mins, maxs })
    }

    /// The observed range (max − min) of feature `j`.
    pub fn range(&self, j: usize) -> f64 {
        self.maxs[j] - self.mins[j]
    }

    /// Transform one observation to [0, 1] per feature. Constant features
    /// map to 0.
    pub fn transform(&self, row: &[f64]) -> Vec<f64> {
        row.iter()
            .enumerate()
            .map(|(j, &v)| {
                let range = self.range(j);
                if range <= 0.0 {
                    0.0
                } else {
                    (v - self.mins[j]) / range
                }
            })
            .collect()
    }

    /// Convert an unscaled regression coefficient for feature `j` into the
    /// "scaled coefficient" the paper tabulates: the predicted change in
    /// the outcome when the feature moves across its full observed range.
    pub fn scaled_coefficient(&self, j: usize, coef: f64) -> f64 {
        coef * self.range(j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_and_transform() {
        let rows = vec![vec![0.0, 10.0], vec![5.0, 20.0], vec![10.0, 30.0]];
        let s = MinMaxScaler::fit(&rows).unwrap();
        assert_eq!(s.transform(&[0.0, 10.0]), vec![0.0, 0.0]);
        assert_eq!(s.transform(&[10.0, 30.0]), vec![1.0, 1.0]);
        assert_eq!(s.transform(&[5.0, 20.0]), vec![0.5, 0.5]);
    }

    #[test]
    fn constant_feature_maps_to_zero() {
        let rows = vec![vec![7.0], vec![7.0]];
        let s = MinMaxScaler::fit(&rows).unwrap();
        assert_eq!(s.transform(&[7.0]), vec![0.0]);
        assert_eq!(s.scaled_coefficient(0, 123.0), 0.0);
    }

    #[test]
    fn scaled_coefficient_is_coef_times_range() {
        let rows = vec![vec![2.0], vec![12.0]];
        let s = MinMaxScaler::fit(&rows).unwrap();
        assert!((s.scaled_coefficient(0, -2.26) - (-22.6)).abs() < 1e-9);
    }

    #[test]
    fn empty_or_ragged_rejected() {
        assert!(MinMaxScaler::fit::<Vec<f64>>(&[]).is_none());
        assert!(MinMaxScaler::fit(&[vec![1.0], vec![1.0, 2.0]]).is_none());
    }
}
