//! Minimal dense linear algebra: row-major matrices and a pivoted solver.
//!
//! Scoped to exactly what the regression and neural-network code needs:
//! matrix products and solving small symmetric-positive systems
//! (normal equations). Gaussian elimination with partial pivoting is plenty
//! at the sizes SENSEI encounters (tens to a few hundred unknowns).

use crate::MlError;

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Builds a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds the identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from nested rows.
    ///
    /// # Errors
    ///
    /// Returns an error when rows are empty or ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, MlError> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(MlError::DegenerateTrainingSet("empty matrix"));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(MlError::DimensionMismatch {
                    context: "from_rows",
                    expected: cols,
                    actual: r.len(),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix product `self · other`.
    ///
    /// # Errors
    ///
    /// Returns an error on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, MlError> {
        if self.cols != other.rows {
            return Err(MlError::DimensionMismatch {
                context: "matmul",
                expected: self.cols,
                actual: other.rows,
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product.
    ///
    /// # Errors
    ///
    /// Returns an error on dimension mismatch.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, MlError> {
        if self.cols != v.len() {
            return Err(MlError::DimensionMismatch {
                context: "matvec",
                expected: self.cols,
                actual: v.len(),
            });
        }
        Ok((0..self.rows)
            .map(|i| (0..self.cols).map(|j| self[(i, j)] * v[j]).sum())
            .collect())
    }

    /// Adds `lambda` to the diagonal in place (ridge regularizer).
    pub fn add_diagonal(&mut self, lambda: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += lambda;
        }
    }

    /// Solves `self · x = b` by Gaussian elimination with partial pivoting.
    /// `self` must be square.
    ///
    /// # Errors
    ///
    /// Returns an error on dimension mismatch or when the system is
    /// singular to working precision.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, MlError> {
        if self.rows != self.cols {
            return Err(MlError::DimensionMismatch {
                context: "solve: matrix must be square",
                expected: self.rows,
                actual: self.cols,
            });
        }
        if b.len() != self.rows {
            return Err(MlError::DimensionMismatch {
                context: "solve: rhs length",
                expected: self.rows,
                actual: b.len(),
            });
        }
        let n = self.rows;
        // Augmented working copy.
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        for col in 0..n {
            // Partial pivot.
            let mut pivot = col;
            let mut best = a[col * n + col].abs();
            for row in col + 1..n {
                let v = a[row * n + col].abs();
                if v > best {
                    best = v;
                    pivot = row;
                }
            }
            if best < 1e-12 {
                return Err(MlError::SingularSystem);
            }
            if pivot != col {
                for j in 0..n {
                    a.swap(col * n + j, pivot * n + j);
                }
                x.swap(col, pivot);
            }
            // Eliminate below.
            let diag = a[col * n + col];
            for row in col + 1..n {
                let factor = a[row * n + col] / diag;
                if factor == 0.0 {
                    continue;
                }
                for j in col..n {
                    a[row * n + j] -= factor * a[col * n + j];
                }
                x[row] -= factor * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut sum = x[col];
            for j in col + 1..n {
                sum -= a[col * n + j] * x[j];
            }
            x[col] = sum / a[col * n + col];
        }
        Ok(x)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve_returns_rhs() {
        let m = Matrix::identity(3);
        let x = m.solve(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solve_known_system() {
        // 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
        let m = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]).unwrap();
        let x = m.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let m = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let x = m.solve(&[7.0, 9.0]).unwrap();
        assert!((x[0] - 9.0).abs() < 1e-12);
        assert!((x[1] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn singular_system_is_detected() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        assert_eq!(m.solve(&[1.0, 2.0]).unwrap_err(), MlError::SingularSystem);
    }

    #[test]
    fn matmul_works() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
        assert!(a.matmul(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn matvec_works() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn ragged_rows_rejected() {
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(Matrix::from_rows(&[]).is_err());
    }

    #[test]
    fn add_diagonal_ridge() {
        let mut m = Matrix::zeros(2, 2);
        m.add_diagonal(0.5);
        assert_eq!(m[(0, 0)], 0.5);
        assert_eq!(m[(1, 1)], 0.5);
        assert_eq!(m[(0, 1)], 0.0);
    }

    #[test]
    fn solve_rejects_non_square_and_bad_rhs() {
        let m = Matrix::zeros(2, 3);
        assert!(m.solve(&[1.0, 2.0]).is_err());
        let m = Matrix::identity(2);
        assert!(m.solve(&[1.0]).is_err());
    }
}
