//! QoE models for the SENSEI reproduction.
//!
//! §2.1 taxonomizes QoE models into pixel-based visual quality and
//! streaming-incident models, and picks three state-of-the-art baselines
//! with open-source implementations: KSQI (linear, additive), P.1203
//! (random forest), and LSTM-QoE (recurrent). SENSEI's own model (§4.2) is
//! any *additive* base model reweighted by per-chunk sensitivity:
//!
//! ```text
//! Q = Σ_i q_i          (Eq. 1 — base additive model)
//! Q = Σ_i w_i · q_i    (Eq. 2 — SENSEI reweighting)
//! ```
//!
//! This crate implements all four against the [`QoeModel`] trait, and the
//! evaluation metrics of §7 ([`eval`]). KSQI's per-chunk quality
//! `q(vq, stall, switch)` ([`Ksqi::chunk_quality`]) is also the ABR
//! objectives' (Fugu's `q(b, t)`). The per-chunk stall and switch terms the
//! models charge are one walk, [`sensei_video::IncidentWalk`].

// Chunk indices and counts convert to f64 for model math; all are
// far below 2^52, so the conversions are exact.
#![allow(clippy::cast_precision_loss)]

pub mod eval;
pub mod ksqi;
pub mod lstm_qoe;
pub mod p1203;
pub mod sensei_model;

pub use ksqi::Ksqi;
pub use lstm_qoe::LstmQoe;
pub use p1203::P1203Like;
pub use sensei_model::SenseiQoe;

use sensei_video::RenderedVideo;

/// Errors produced by QoE models.
#[derive(Debug, Clone, PartialEq)]
pub enum QoeError {
    /// The training set is empty or labels mismatch.
    DegenerateTrainingSet(String),
    /// A label is outside the normalized `[0, 1]` range.
    InvalidLabel {
        /// Index of the offending sample.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// An underlying ML-substrate error.
    Ml(sensei_ml::MlError),
    /// An underlying video-substrate error.
    Video(sensei_video::VideoError),
}

impl std::fmt::Display for QoeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QoeError::DegenerateTrainingSet(msg) => write!(f, "degenerate training set: {msg}"),
            QoeError::InvalidLabel { index, value } => {
                write!(f, "label {index} = {value} outside [0, 1]")
            }
            QoeError::Ml(e) => write!(f, "ml error: {e}"),
            QoeError::Video(e) => write!(f, "video error: {e}"),
        }
    }
}

impl std::error::Error for QoeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QoeError::Ml(e) => Some(e),
            QoeError::Video(e) => Some(e),
            _ => None,
        }
    }
}

impl From<sensei_ml::MlError> for QoeError {
    fn from(e: sensei_ml::MlError) -> Self {
        QoeError::Ml(e)
    }
}

impl From<sensei_video::VideoError> for QoeError {
    fn from(e: sensei_video::VideoError) -> Self {
        QoeError::Video(e)
    }
}

/// A model that predicts normalized QoE (`[0, 1]`) for a rendered video.
pub trait QoeModel {
    /// Model name for reports (e.g. `"KSQI"`).
    fn name(&self) -> &str;

    /// Predicts normalized QoE for one rendered video.
    ///
    /// # Errors
    ///
    /// Returns an error when the render is structurally incompatible with
    /// the model (never for well-formed renders).
    fn predict(&self, render: &RenderedVideo) -> Result<f64, QoeError>;

    /// Predicts a batch; default implementation maps [`Self::predict`].
    ///
    /// # Errors
    ///
    /// Propagates the first prediction error.
    fn predict_batch(&self, renders: &[RenderedVideo]) -> Result<Vec<f64>, QoeError> {
        renders.iter().map(|r| self.predict(r)).collect()
    }
}

/// Boxed models are models, so crate boundaries can trade in
/// `Box<dyn QoeModel>` without unwrapping.
impl<M: QoeModel + ?Sized> QoeModel for Box<M> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn predict(&self, render: &RenderedVideo) -> Result<f64, QoeError> {
        (**self).predict(render)
    }

    fn predict_batch(&self, renders: &[RenderedVideo]) -> Result<Vec<f64>, QoeError> {
        (**self).predict_batch(renders)
    }
}

/// The trait must stay object-safe: swappable QoE backends are held as
/// `Box<dyn QoeModel>` across crate boundaries.
const _: fn(&dyn QoeModel) = |_| {};

/// Validates a labeled training set: non-empty, labels in `[0, 1]`.
pub(crate) fn validate_training_set(
    renders: &[RenderedVideo],
    labels: &[f64],
) -> Result<(), QoeError> {
    if renders.is_empty() || renders.len() != labels.len() {
        return Err(QoeError::DegenerateTrainingSet(format!(
            "{} renders vs {} labels",
            renders.len(),
            labels.len()
        )));
    }
    for (index, &value) in labels.iter().enumerate() {
        if !(value.is_finite() && (0.0..=1.0).contains(&value)) {
            return Err(QoeError::InvalidLabel { index, value });
        }
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared fixtures for the QoE model tests.
    use sensei_video::content::{Genre, SceneKind, SceneSpec};
    use sensei_video::{BitrateLadder, Incident, RenderedVideo, SourceVideo};

    /// A 10-chunk test video: 4 normal, 2 key-moment, 2 ad, 2 scenic chunks.
    pub fn source() -> SourceVideo {
        SourceVideo::from_script(
            "qoe-test",
            Genre::Sports,
            &[
                SceneSpec::new(SceneKind::NormalPlay, 4),
                SceneSpec::new(SceneKind::KeyMoment, 2),
                SceneSpec::new(SceneKind::AdBreak, 2),
                SceneSpec::new(SceneKind::Scenic, 2),
            ],
            42,
        )
        .unwrap()
    }

    /// Renders with a 1-second rebuffer at each chunk plus the pristine one.
    pub fn rebuffer_series() -> Vec<RenderedVideo> {
        let src = source();
        let ladder = BitrateLadder::default_paper();
        let mut out = vec![RenderedVideo::pristine(&src, &ladder)];
        for chunk in 0..src.num_chunks() {
            out.push(
                RenderedVideo::with_incidents(
                    &src,
                    &ladder,
                    &[Incident::Rebuffer {
                        chunk,
                        duration_s: 1.0,
                    }],
                )
                .unwrap(),
            );
        }
        out
    }
}
