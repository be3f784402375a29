//! Chunked adaptive-streaming session simulator.
//!
//! Reproduces the standard DASH client loop the ABR literature simulates
//! (and that the paper's §2.2 experiments replay): chunks are downloaded
//! sequentially over a throughput trace while playback drains the buffer.
//! Two SENSEI-specific extensions (§5.1, §6):
//!
//! * **Intentional rebuffering.** Traditional players stall only when the
//!   buffer is empty. SENSEI "initiates a short rebuffering event ... even
//!   when the buffer is not empty" via the MSE delayed-append trick. Here a
//!   policy returns a pause alongside its bitrate choice and the simulator
//!   freezes playback at the next playback chunk boundary.
//! * **Stall attribution.** Because sensitivity is per-chunk, the simulator
//!   tracks *which* chunk every stall precedes (both forced and
//!   intentional), producing a [`sensei_video::RenderedVideo`] whose
//!   per-chunk stalls feed the QoE models.
//!
//! The information boundary matters: policies see chunk sizes, per-level
//! visual quality (legitimately shippable in a manifest), buffer state,
//! throughput history, and — for SENSEI variants — the sensitivity weights.
//! They never see the latent per-chunk sensitivity of the source video.

// Lane counts and chunk indices are far below 2^52; f64
// conversions for buffer math are exact.
#![allow(clippy::cast_precision_loss)]

pub mod batch;
pub mod policy;
#[cfg(test)]
mod reference;
pub mod session;

pub use batch::{
    simulate_batch_in, simulate_lanes_in, BatchLanes, BatchStates, LaneFailure, LaneView,
    SessionBatch,
};
pub use policy::{AbrPolicy, Decision, PlayerState, SessionContext};
pub use session::{simulate, PlayerConfig, SessionResult};

/// Errors produced by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The encoded video and source video disagree on chunk count.
    ChunkCountMismatch {
        /// Chunks in the source video.
        source: usize,
        /// Chunks in the encoded video.
        encoded: usize,
    },
    /// A policy returned an out-of-range bitrate level.
    InvalidLevel {
        /// The offending level.
        level: usize,
        /// Number of ladder levels.
        ladder_len: usize,
    },
    /// A policy returned an invalid pause duration.
    InvalidPause(f64),
    /// A [`PlayerConfig`] field is out of its valid range.
    InvalidPlayerConfig {
        /// Name of the offending field.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The sensitivity weights do not cover the video.
    WeightLengthMismatch {
        /// Chunks in the video.
        chunks: usize,
        /// Entries in the weight vector.
        weights: usize,
    },
    /// An underlying video-substrate error.
    Video(sensei_video::VideoError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::ChunkCountMismatch { source, encoded } => {
                write!(f, "source has {source} chunks, encoding has {encoded}")
            }
            SimError::InvalidLevel { level, ladder_len } => {
                write!(f, "policy chose level {level}, ladder has {ladder_len}")
            }
            SimError::InvalidPause(p) => write!(f, "invalid intentional pause: {p} s"),
            SimError::InvalidPlayerConfig { field, value } => {
                write!(f, "invalid player config: {field} = {value}")
            }
            SimError::WeightLengthMismatch { chunks, weights } => {
                write!(f, "video has {chunks} chunks, weights cover {weights}")
            }
            SimError::Video(e) => write!(f, "video error: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Video(e) => Some(e),
            _ => None,
        }
    }
}

impl From<sensei_video::VideoError> for SimError {
    fn from(e: sensei_video::VideoError) -> Self {
        SimError::Video(e)
    }
}
