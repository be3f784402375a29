//! Per-chunk sensitivity weights — the paper's key abstraction (§3).
//!
//! "The enabler behind SENSEI is the abstraction of video chunk-level
//! weights that describe the inherent quality sensitivity of different parts
//! of a video." A [`SensitivityWeights`] vector has one positive entry per
//! chunk, normalized to mean 1 so that a weight of 2 means "twice as
//! sensitive as the video's average chunk".

use std::sync::Arc;

use crate::content::SourceVideo;
use crate::VideoError;

/// A per-chunk quality-sensitivity weight vector.
///
/// The weights are immutable once built, so clones share one allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityWeights {
    w: Arc<[f64]>,
}

impl SensitivityWeights {
    /// Builds a weight vector, normalizing to mean 1.
    ///
    /// # Errors
    ///
    /// Returns an error when the vector is empty or any entry is
    /// non-positive or non-finite.
    pub fn new(raw: Vec<f64>) -> Result<Self, VideoError> {
        if raw.is_empty() {
            return Err(VideoError::InvalidWeights("empty weight vector".into()));
        }
        for (i, &v) in raw.iter().enumerate() {
            if !v.is_finite() || v <= 0.0 {
                return Err(VideoError::InvalidWeights(format!(
                    "weight {i} is {v}; weights must be positive and finite"
                )));
            }
        }
        let mean = raw.iter().sum::<f64>() / raw.len() as f64;
        Ok(Self {
            w: raw.iter().map(|&v| v / mean).collect(),
        })
    }

    /// The uniform (sensitivity-unaware) weight vector: every chunk 1.0.
    /// This is what every pre-SENSEI QoE model implicitly assumes.
    pub fn uniform(num_chunks: usize) -> Result<Self, VideoError> {
        Self::new(vec![1.0; num_chunks])
    }

    /// The ground-truth weights of a source video: its
    /// [`SourceVideo::true_sensitivity`], the vector the crowd pipeline
    /// tries to recover. An experiment keeps them as every asset's
    /// `true_weights`, which its lane scorer feeds the true-QoE oracle;
    /// its `GroundTruth` weight source hands them to the policies as well.
    /// Table 1, Fig. 6's offline assignment and Fig. 20 read them too.
    pub fn ground_truth(source: &SourceVideo) -> Self {
        Self {
            w: source.true_sensitivity().collect(),
        }
    }

    /// Number of chunks.
    pub fn len(&self) -> usize {
        self.w.len()
    }

    /// Whether the vector is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.w.is_empty()
    }

    /// The normalized weights.
    pub fn as_slice(&self) -> &[f64] {
        &self.w
    }

    /// Weight of one chunk.
    ///
    /// # Errors
    ///
    /// Returns an error when `index` is out of range.
    pub fn get(&self, index: usize) -> Result<f64, VideoError> {
        self.w
            .get(index)
            .copied()
            .ok_or(VideoError::ChunkOutOfRange {
                index,
                len: self.w.len(),
            })
    }

    /// Weights of the next `horizon` chunks starting at `from`, truncated at
    /// the video end — the ABR lookahead input of §5.1.
    pub fn window(&self, from: usize, horizon: usize) -> &[f64] {
        let start = from.min(self.w.len());
        let end = from.saturating_add(horizon).min(self.w.len());
        &self.w[start..end]
    }

    /// Max/min weight ratio — a spread measure used for corpus calibration.
    pub fn spread(&self) -> f64 {
        let max = self.w.iter().cloned().fold(0.0, f64::max);
        let min = self.w.iter().cloned().fold(f64::INFINITY, f64::min);
        max / min
    }

    /// Mean absolute error against another weight vector of the same length
    /// — used to validate crowd inference against ground truth.
    ///
    /// # Errors
    ///
    /// Returns an error when the lengths differ.
    pub fn mae(&self, other: &SensitivityWeights) -> Result<f64, VideoError> {
        if self.len() != other.len() {
            return Err(VideoError::InvalidWeights(format!(
                "length mismatch: {} vs {}",
                self.len(),
                other.len()
            )));
        }
        Ok(self
            .w
            .iter()
            .zip(other.w.iter())
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / self.w.len() as f64)
    }

    /// Indices of chunks whose weight deviates from 1.0 by more than
    /// `alpha` (e.g. 0.06 = 6%) — the α-outlier selection of the two-step
    /// scheduler (§4.3).
    pub fn outliers(&self, alpha: f64) -> Vec<usize> {
        self.w
            .iter()
            .enumerate()
            .filter(|(_, &w)| (w - 1.0).abs() > alpha)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::{Genre, SceneKind, SceneSpec};

    #[test]
    fn normalizes_to_mean_one() {
        let w = SensitivityWeights::new(vec![2.0, 4.0, 6.0]).unwrap();
        let mean = w.as_slice().iter().sum::<f64>() / 3.0;
        assert!((mean - 1.0).abs() < 1e-12);
        assert!((w.get(2).unwrap() / w.get(0).unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_invalid_weights() {
        assert!(SensitivityWeights::new(vec![]).is_err());
        assert!(SensitivityWeights::new(vec![1.0, 0.0]).is_err());
        assert!(SensitivityWeights::new(vec![1.0, -2.0]).is_err());
        assert!(SensitivityWeights::new(vec![1.0, f64::NAN]).is_err());
    }

    #[test]
    fn uniform_is_all_ones() {
        let w = SensitivityWeights::uniform(4).unwrap();
        assert_eq!(w.as_slice(), &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(w.spread(), 1.0);
        assert!(SensitivityWeights::uniform(0).is_err());
    }

    #[test]
    fn window_truncates_at_end() {
        let w = SensitivityWeights::new(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(w.window(0, 2).len(), 2);
        assert_eq!(w.window(3, 5).len(), 1);
        assert_eq!(w.window(4, 5).len(), 0);
        assert_eq!(w.window(9, 5).len(), 0);
        // A horizon whose end overflows `usize` truncates the same way.
        assert_eq!(w.window(1, usize::MAX), &w.as_slice()[1..]);
        assert_eq!(w.window(usize::MAX, usize::MAX).len(), 0);
    }

    #[test]
    fn ground_truth_matches_source() {
        let v = SourceVideo::from_script(
            "t",
            Genre::Sports,
            &[
                SceneSpec::new(SceneKind::Scenic, 3),
                SceneSpec::new(SceneKind::KeyMoment, 3),
            ],
            2,
        )
        .unwrap();
        let w = SensitivityWeights::ground_truth(&v);
        assert_eq!(w.len(), 6);
        assert!(w.get(5).unwrap() > w.get(0).unwrap());
    }

    #[test]
    fn mae_and_length_check() {
        let a = SensitivityWeights::new(vec![1.0, 1.0]).unwrap();
        let b = SensitivityWeights::new(vec![1.0, 3.0]).unwrap();
        assert!(a.mae(&b).unwrap() > 0.0);
        assert_eq!(a.mae(&a).unwrap(), 0.0);
        let c = SensitivityWeights::new(vec![1.0]).unwrap();
        assert!(a.mae(&c).is_err());
    }

    #[test]
    fn outlier_selection() {
        let w = SensitivityWeights::new(vec![1.0, 1.0, 1.0, 2.0, 0.4]).unwrap();
        let out = w.outliers(0.06);
        // After normalization the extreme chunks deviate; flat ones may not.
        assert!(out.contains(&3));
        assert!(out.contains(&4));
        assert!(!out.is_empty());
        // Everything is an outlier at alpha = 0.
        assert_eq!(w.outliers(0.0).len(), 5);
    }
}
