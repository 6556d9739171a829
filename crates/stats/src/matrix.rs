//! A small dense-matrix kernel.
//!
//! Regression design matrices here are at most a few dozen columns, so a
//! straightforward row-major implementation with partially pivoted Gaussian
//! elimination is both sufficient and easy to audit.

use std::fmt;

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from nested rows. Panics on ragged input.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        Matrix {
            rows: r,
            cols: c,
            data: rows.concat(),
        }
    }

    /// A column vector.
    pub fn column(values: &[f64]) -> Self {
        Matrix {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Matrix product. Panics on dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }

    /// Solve `self * x = b` for square `self` by Gaussian elimination with
    /// partial pivoting. Returns `None` if the matrix is singular to
    /// working precision.
    pub fn solve(&self, b: &Matrix) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "solve requires a square matrix");
        assert_eq!(self.rows, b.rows, "rhs row mismatch");
        let n = self.rows;
        let m = b.cols;
        // Augmented working copy.
        let mut a = self.clone();
        let mut x = b.clone();
        for col in 0..n {
            // Pivot.
            let mut pivot_row = col;
            let mut pivot_val = a[(col, col)].abs();
            for r in col + 1..n {
                let v = a[(r, col)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < 1e-12 {
                return None;
            }
            if pivot_row != col {
                a.swap_rows(col, pivot_row);
                x.swap_rows(col, pivot_row);
            }
            // Eliminate below.
            let pivot = a[(col, col)];
            for r in col + 1..n {
                let factor = a[(r, col)] / pivot;
                if factor == 0.0 {
                    continue;
                }
                for c in col..n {
                    let v = a[(col, c)];
                    a[(r, c)] -= factor * v;
                }
                for c in 0..m {
                    let v = x[(col, c)];
                    x[(r, c)] -= factor * v;
                }
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let pivot = a[(col, col)];
            for c in 0..m {
                let mut sum = x[(col, c)];
                for k in col + 1..n {
                    sum -= a[(col, k)] * x[(k, c)];
                }
                x[(col, c)] = sum / pivot;
            }
        }
        Some(x)
    }

    /// Inverse via `solve` against the identity.
    pub fn inverse(&self) -> Option<Matrix> {
        self.solve(&Matrix::identity(self.rows))
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for j in 0..self.cols {
            self.data.swap(a * self.cols + j, b * self.cols + j);
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:>12.5}", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_indexing() {
        let i3 = Matrix::identity(3);
        assert_eq!(i3[(0, 0)], 1.0);
        assert_eq!(i3[(0, 1)], 0.0);
        assert_eq!(i3.rows(), 3);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]));
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_rows(&[vec![2.0, -1.0], vec![0.5, 3.0]]);
        assert_eq!(a.matmul(&Matrix::identity(2)), a);
        assert_eq!(Matrix::identity(2).matmul(&a), a);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().rows(), 3);
    }

    #[test]
    fn solve_simple_system() {
        // x + y = 3; 2x - y = 0 -> x = 1, y = 2
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, -1.0]]);
        let b = Matrix::column(&[3.0, 0.0]);
        let x = a.solve(&b).unwrap();
        assert!((x[(0, 0)] - 1.0).abs() < 1e-10);
        assert!((x[(1, 0)] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let b = Matrix::column(&[5.0, 7.0]);
        let x = a.solve(&b).unwrap();
        assert!((x[(0, 0)] - 7.0).abs() < 1e-12);
        assert!((x[(1, 0)] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_returns_none() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(a.solve(&Matrix::column(&[1.0, 2.0])).is_none());
        assert!(a.inverse().is_none());
    }

    #[test]
    fn inverse_roundtrip() {
        let a = Matrix::from_rows(&[
            vec![4.0, 7.0, 2.0],
            vec![3.0, 6.0, 1.0],
            vec![2.0, 5.0, 3.0],
        ]);
        let inv = a.inverse().unwrap();
        let prod = a.matmul(&inv);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - expect).abs() < 1e-10, "({i},{j})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_dimension_check() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
