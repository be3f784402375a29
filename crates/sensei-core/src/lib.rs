//! SENSEI: the end-to-end system (Fig. 7 of the paper).
//!
//! This crate ties the substrates together into the two things SENSEI
//! actually ships:
//!
//! * [`pipeline`] — per-video onboarding: crowdsource the sensitivity
//!   weights (§4), build the weight-extended DASH manifest (§6), and
//!   construct the reweighted QoE model (Eq. 2).
//! * [`experiment`] — the evaluation harness behind every table and figure:
//!   the Table-1 corpus, the 10-trace set, trained ABR policies, and the
//!   (policy × video × trace) grid with true-QoE scoring.

pub mod experiment;
pub mod pipeline;

pub use experiment::{
    BatchFailure, CellResult, Experiment, ExperimentConfig, LaneScore, PolicyKind, SessionRuntime,
};
pub use pipeline::{OnboardedVideo, Sensei};

/// Errors produced by the SENSEI system layer.
#[derive(Debug)]
pub enum CoreError {
    /// Crowdsourcing failed.
    Crowd(sensei_crowd::CrowdError),
    /// Manifest construction failed.
    Dash(sensei_dash::DashError),
    /// Simulation failed.
    Sim(sensei_sim::SimError),
    /// ABR construction or training failed.
    Abr(sensei_abr::AbrError),
    /// Video-substrate failure.
    Video(sensei_video::VideoError),
    /// QoE model failure.
    Qoe(sensei_qoe::QoeError),
    /// ML-substrate failure.
    Ml(sensei_ml::MlError),
    /// Trace-substrate failure.
    Trace(sensei_trace::TraceError),
    /// Fleet-engine failure. Type-erased because `sensei-fleet` sits
    /// *above* this crate in the workspace DAG (it orchestrates
    /// experiments), so the concrete `FleetError` cannot be named here;
    /// `From<FleetError> for CoreError` lives in `sensei-fleet`.
    Fleet(Box<dyn std::error::Error + Send + Sync>),
    /// The experiment configuration is unusable.
    BadConfig(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Crowd(e) => write!(f, "crowdsourcing error: {e}"),
            CoreError::Dash(e) => write!(f, "manifest error: {e}"),
            CoreError::Sim(e) => write!(f, "simulation error: {e}"),
            CoreError::Abr(e) => write!(f, "abr error: {e}"),
            CoreError::Video(e) => write!(f, "video error: {e}"),
            CoreError::Qoe(e) => write!(f, "qoe error: {e}"),
            CoreError::Ml(e) => write!(f, "ml error: {e}"),
            CoreError::Trace(e) => write!(f, "trace error: {e}"),
            CoreError::Fleet(e) => write!(f, "fleet error: {e}"),
            CoreError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Crowd(e) => Some(e),
            CoreError::Dash(e) => Some(e),
            CoreError::Sim(e) => Some(e),
            CoreError::Abr(e) => Some(e),
            CoreError::Video(e) => Some(e),
            CoreError::Qoe(e) => Some(e),
            CoreError::Ml(e) => Some(e),
            CoreError::Trace(e) => Some(e),
            CoreError::Fleet(e) => Some(&**e),
            CoreError::BadConfig(_) => None,
        }
    }
}

macro_rules! from_error {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for CoreError {
            fn from(e: $ty) -> Self {
                CoreError::$variant(e)
            }
        }
    };
}

from_error!(Crowd, sensei_crowd::CrowdError);
from_error!(Dash, sensei_dash::DashError);
from_error!(Sim, sensei_sim::SimError);
from_error!(Abr, sensei_abr::AbrError);
from_error!(Video, sensei_video::VideoError);
from_error!(Qoe, sensei_qoe::QoeError);
from_error!(Ml, sensei_ml::MlError);
from_error!(Trace, sensei_trace::TraceError);
