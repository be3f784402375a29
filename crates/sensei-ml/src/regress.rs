//! Ridge linear regression via the normal equations.
//!
//! This is the workhorse behind two parts of the paper: fitting KSQI-style
//! QoE coefficients to MOS labels, and SENSEI's per-chunk weight inference
//! (§4.2): given rendered videos with per-chunk quality estimates `q_{i,j}`
//! and crowdsourced QoE `Q_j`, solve `Q_j = Σ_i w_i · q_{i,j}` for the
//! weights `w` — "we can then infer the w_i using a linear regression."

use crate::linalg::Matrix;
use crate::MlError;

/// A fitted linear model `y = w·x (+ b)`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearModel {
    weights: Vec<f64>,
    intercept: f64,
}

impl LinearModel {
    /// Fits ridge regression: minimizes `‖Xw − y‖² + λ‖w‖²`.
    ///
    /// When `fit_intercept` is true, an unregularized intercept is fit by
    /// centering the data first.
    ///
    /// # Errors
    ///
    /// Returns an error on dimension mismatch, an empty training set, or a
    /// singular normal-equation system (use `lambda > 0` to avoid this).
    pub fn fit(
        x: &[Vec<f64>],
        y: &[f64],
        lambda: f64,
        fit_intercept: bool,
    ) -> Result<Self, MlError> {
        if x.is_empty() || x.len() != y.len() {
            return Err(MlError::DegenerateTrainingSet(
                "empty training set or x/y length mismatch",
            ));
        }
        if !(lambda.is_finite() && lambda >= 0.0) {
            return Err(MlError::InvalidHyperparameter {
                name: "lambda",
                value: lambda,
            });
        }
        let d = x[0].len();
        let n = x.len();
        // Optionally center features and targets so the intercept absorbs
        // the means without being regularized.
        let (x_mean, y_mean) = if fit_intercept {
            let mut xm = vec![0.0; d];
            for row in x {
                if row.len() != d {
                    return Err(MlError::DimensionMismatch {
                        context: "fit: ragged feature row",
                        expected: d,
                        actual: row.len(),
                    });
                }
                for (m, &v) in xm.iter_mut().zip(row) {
                    *m += v;
                }
            }
            for m in &mut xm {
                *m /= n as f64;
            }
            (xm, y.iter().sum::<f64>() / n as f64)
        } else {
            (vec![0.0; d], 0.0)
        };

        // Normal equations on (possibly centered) data: (XᵀX + λI) w = Xᵀy.
        let mut xtx = Matrix::zeros(d, d);
        let mut xty = vec![0.0; d];
        for (row, &target) in x.iter().zip(y) {
            if row.len() != d {
                return Err(MlError::DimensionMismatch {
                    context: "fit: ragged feature row",
                    expected: d,
                    actual: row.len(),
                });
            }
            let yc = target - y_mean;
            for i in 0..d {
                let xi = row[i] - x_mean[i];
                xty[i] += xi * yc;
                for j in i..d {
                    let v = xi * (row[j] - x_mean[j]);
                    xtx[(i, j)] += v;
                }
            }
        }
        // Mirror the upper triangle.
        for i in 0..d {
            for j in 0..i {
                xtx[(i, j)] = xtx[(j, i)];
            }
        }
        xtx.add_diagonal(lambda);
        let weights = xtx.solve(&xty)?;
        let intercept = if fit_intercept {
            y_mean - weights.iter().zip(&x_mean).map(|(w, m)| w * m).sum::<f64>()
        } else {
            0.0
        };
        Ok(Self { weights, intercept })
    }

    /// The fitted coefficient vector.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The fitted intercept (0 when `fit_intercept` was false).
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Predicts one sample.
    ///
    /// # Errors
    ///
    /// Returns an error on feature-dimension mismatch.
    pub fn predict(&self, x: &[f64]) -> Result<f64, MlError> {
        if x.len() != self.weights.len() {
            return Err(MlError::DimensionMismatch {
                context: "predict",
                expected: self.weights.len(),
                actual: x.len(),
            });
        }
        Ok(self.weights.iter().zip(x).map(|(w, v)| w * v).sum::<f64>() + self.intercept)
    }

    /// Predicts a batch.
    ///
    /// # Errors
    ///
    /// Returns an error on feature-dimension mismatch in any row.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Result<Vec<f64>, MlError> {
        xs.iter().map(|x| self.predict(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn recovers_exact_linear_relationship() {
        // y = 2a + 3b, no intercept.
        let x = vec![
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![2.0, 1.0],
        ];
        let y = vec![2.0, 3.0, 5.0, 7.0];
        let m = LinearModel::fit(&x, &y, 0.0, false).unwrap();
        assert!((m.weights()[0] - 2.0).abs() < 1e-9);
        assert!((m.weights()[1] - 3.0).abs() < 1e-9);
        assert!((m.predict(&[3.0, 1.0]).unwrap() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn recovers_intercept() {
        // y = 2x + 5.
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..10).map(|i| 2.0 * i as f64 + 5.0).collect();
        let m = LinearModel::fit(&x, &y, 0.0, true).unwrap();
        assert!((m.weights()[0] - 2.0).abs() < 1e-9);
        assert!((m.intercept() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn ridge_shrinks_weights() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| 3.0 * i as f64).collect();
        let w0 = LinearModel::fit(&x, &y, 0.0, false).unwrap().weights()[0];
        let w1 = LinearModel::fit(&x, &y, 100.0, false).unwrap().weights()[0];
        assert!(w1 < w0);
        assert!(w1 > 0.0);
    }

    #[test]
    fn ridge_rescues_collinear_features() {
        // Perfectly collinear features: OLS singular, ridge fine.
        let x = vec![vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]];
        let y = vec![1.0, 2.0, 3.0];
        assert_eq!(
            LinearModel::fit(&x, &y, 0.0, false).unwrap_err(),
            MlError::SingularSystem
        );
        assert!(LinearModel::fit(&x, &y, 1e-3, false).is_ok());
    }

    #[test]
    fn noisy_recovery_is_close() {
        let mut rng = StdRng::seed_from_u64(3);
        let true_w = [1.5, -0.7, 0.3];
        let x: Vec<Vec<f64>> = (0..200)
            .map(|_| (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| {
                r.iter().zip(&true_w).map(|(a, b)| a * b).sum::<f64>() + rng.gen_range(-0.05..0.05)
            })
            .collect();
        let m = LinearModel::fit(&x, &y, 1e-6, false).unwrap();
        for (est, tru) in m.weights().iter().zip(&true_w) {
            assert!((est - tru).abs() < 0.05, "est {est} vs true {tru}");
        }
    }

    #[test]
    fn input_validation() {
        assert!(LinearModel::fit(&[], &[], 0.0, false).is_err());
        assert!(LinearModel::fit(&[vec![1.0]], &[1.0, 2.0], 0.0, false).is_err());
        assert!(LinearModel::fit(&[vec![1.0]], &[1.0], -1.0, false).is_err());
        assert!(LinearModel::fit(&[vec![1.0], vec![1.0, 2.0]], &[1.0, 2.0], 0.0, false).is_err());
        let m = LinearModel::fit(&[vec![1.0], vec![2.0]], &[1.0, 2.0], 0.0, false).unwrap();
        assert!(m.predict(&[1.0, 2.0]).is_err());
    }
}
