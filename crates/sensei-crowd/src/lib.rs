//! Crowdsourcing substrate: the simulated MTurk platform of §4.
//!
//! The paper elicits QoE ratings from real MTurk workers. This crate
//! replaces those humans with a *simulated rater population* drawing from a
//! hidden ground-truth QoE function, which judges by the latent per-chunk
//! sensitivity of a source video (the [`oracle`] module names everything
//! else that reads it). Each campaign and profiling run borrows the oracle
//! its raters draw from; an experiment owns the one it uses.
//! Everything SENSEI's pipeline learns, it learns the way the paper did:
//! through noisy 1–5 Likert ratings, quality-control rejections, and money.
//!
//! * [`oracle`] — the hidden QoE function. Per-chunk degradations are
//!   amplified by latent sensitivity, and session judgment follows the
//!   peak-end rule (a salient bad moment dominates the rating rather than
//!   averaging away), which is what makes a single 1-second stall in a
//!   3:40 video move MOS the way Fig. 1 shows.
//! * [`rater`] — biased, noisy, occasionally unreliable raters.
//! * [`campaign`] — MTurk campaign mechanics: K clips per participant,
//!   randomized viewing order, a pristine reference clip, the §B rejection
//!   criteria, MOS aggregation, and cost/delay accounting.
//! * [`series`] — the §2.3 video-series methodology (same video, one
//!   incident at varying positions) behind Figs. 1, 3, 4, 5.
//! * [`profiler`] — the §4.3 two-step scheduler: probe every chunk with a
//!   1-second stall, then refine α-outlier chunks with more incident types;
//!   weight inference by regression against KSQI chunk scores.
//! * [`cv_baselines`] — the Appendix-D computer-vision highlight detectors
//!   (AMVM, DSN, Video2GIF proxies) that fail to predict sensitivity.

// Rater counts and campaign sizes are tiny; f64 conversions for
// MOS statistics are exact.
#![allow(clippy::cast_precision_loss)]

pub mod campaign;
pub mod cv_baselines;
pub mod oracle;
pub mod profiler;
pub mod rater;
pub mod series;

pub use campaign::{Campaign, CampaignConfig, CampaignResult};
pub use oracle::{QoeFold, TrueQoe};
pub use profiler::{ProfilerConfig, WeightProfile, WeightProfiler};
pub use rater::{Rater, RaterPool};

/// Errors produced by the crowdsourcing substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum CrowdError {
    /// A campaign was configured with no rendered videos.
    NoRenders,
    /// A campaign was configured with zero raters.
    NoRaters,
    /// The render does not belong to the given source video.
    SourceMismatch {
        /// Name carried by the render.
        render: String,
        /// Name of the source video supplied.
        source: String,
    },
    /// Too many ratings were rejected to aggregate a MOS.
    InsufficientRatings {
        /// Render index with too few surviving ratings.
        render: usize,
        /// Ratings that survived quality control.
        kept: usize,
    },
    /// An underlying video-substrate error.
    Video(sensei_video::VideoError),
    /// An underlying ML-substrate error.
    Ml(sensei_ml::MlError),
}

impl std::fmt::Display for CrowdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrowdError::NoRenders => write!(f, "campaign has no rendered videos"),
            CrowdError::NoRaters => write!(f, "campaign has no raters"),
            CrowdError::SourceMismatch { render, source } => {
                write!(f, "render '{render}' does not belong to source '{source}'")
            }
            CrowdError::InsufficientRatings { render, kept } => {
                write!(
                    f,
                    "render {render} kept only {kept} ratings after rejection"
                )
            }
            CrowdError::Video(e) => write!(f, "video error: {e}"),
            CrowdError::Ml(e) => write!(f, "ml error: {e}"),
        }
    }
}

impl std::error::Error for CrowdError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CrowdError::Video(e) => Some(e),
            CrowdError::Ml(e) => Some(e),
            _ => None,
        }
    }
}

impl From<sensei_video::VideoError> for CrowdError {
    fn from(e: sensei_video::VideoError) -> Self {
        CrowdError::Video(e)
    }
}

impl From<sensei_ml::MlError> for CrowdError {
    fn from(e: sensei_ml::MlError) -> Self {
        CrowdError::Ml(e)
    }
}
