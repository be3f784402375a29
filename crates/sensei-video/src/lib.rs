//! Video-content substrate for the SENSEI reproduction.
//!
//! The paper's experiments run over 16 real source videos (Table 1) drawn
//! from LIVE-MOBILE, LIVE-NFLX-II, YouTube-UGC and WaterlooSQOE-III. Real
//! pixels are not required by any experiment — what matters is each chunk's
//! *content profile*: how sensitive users are to quality incidents in it
//! (the paper's latent quantity), how "dynamic" it looks to motion-based QoE
//! heuristics, how hard it is to encode, and how object-rich it appears to
//! computer-vision highlight detectors. This crate models videos at exactly
//! that granularity:
//!
//! * [`content`] — genres, scene kinds, per-chunk [`content::ChunkContent`],
//!   and [`content::SourceVideo`] built from scripted scene graphs (a
//!   32-byte profile and a 1-byte scene label per chunk).
//! * [`corpus`] — the 16-video Table-1 test set with per-video scene scripts
//!   (the goal in Soccer1, the scoreboard in Soccer2, the scenic lulls in
//!   Space, the bully-trap in BigBuckBunny, ...), plus
//!   [`corpus::generate_family`]: procedurally composed scene scripts that
//!   scale the corpus to hundreds of distinct deterministic videos for
//!   fleet evaluation.
//! * [`encode`] — the {300, 750, 1200, 1850, 2850} kbps ladder and a VBR
//!   chunk-size model; an encoding stores 16 bytes per chunk (VBR factor
//!   and half-saturation bitrate) and derives sizes and qualities.
//! * [`quality`] — the `vq(bitrate, complexity)` perceptual-quality curve
//!   standing in for VMAF.
//! * [`render`] — [`render::RenderedVideo`]: a video as actually streamed
//!   (bitrates, stalls, startup delay), plus quality-incident injection used
//!   by the crowdsourcing pipeline.
//! * [`weights`] — [`weights::SensitivityWeights`], the paper's per-chunk
//!   weight abstraction (§3).

// Chunk counts and bit sizes are far below 2^52, and the one
// float→int site (procedural corpus sizing) rounds a small clamped
// value.
#![allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]

pub mod content;
pub mod corpus;
pub mod encode;
pub mod quality;
pub mod render;
pub mod weights;

pub use content::{ChunkContent, Genre, SceneKind, SourceVideo};
pub use corpus::{generate_family, CorpusEntry, GenreMix};
pub use encode::{BitrateLadder, EncodedVideo};
pub use quality::visual_quality;
pub use render::{Incident, IncidentWalk, RenderedChunk, RenderedVideo};
pub use weights::SensitivityWeights;

/// Canonical chunk duration used throughout the paper (§2.4, §7.1).
pub const CHUNK_DURATION_S: f64 = 4.0;

/// Errors produced by the video substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum VideoError {
    /// A video must contain at least one chunk.
    NoChunks,
    /// No Table-1 video has this name.
    UnknownVideo(String),
    /// A chunk index is out of range.
    ChunkOutOfRange {
        /// Requested chunk index.
        index: usize,
        /// Number of chunks in the video.
        len: usize,
    },
    /// A content field (sensitivity, motion, complexity, objects) is invalid.
    InvalidContent {
        /// Name of the offending field.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A bitrate ladder must be non-empty, positive, and strictly increasing.
    InvalidLadder,
    /// A bitrate is not present in the ladder.
    UnknownBitrate(f64),
    /// Weight vectors must be positive, finite, and match the chunk count.
    InvalidWeights(String),
    /// A procedural genre mix must have non-negative finite weights with a
    /// positive sum.
    InvalidGenreMix(String),
    /// A video needs exactly one scene label per chunk profile.
    SceneCountMismatch {
        /// Number of chunk profiles.
        chunks: usize,
        /// Number of scene labels.
        scenes: usize,
    },
}

impl std::fmt::Display for VideoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VideoError::NoChunks => write!(f, "video has no chunks"),
            VideoError::UnknownVideo(name) => write!(f, "no Table-1 video is named {name}"),
            VideoError::ChunkOutOfRange { index, len } => {
                write!(f, "chunk {index} out of range for {len}-chunk video")
            }
            VideoError::InvalidContent { field, value } => {
                write!(f, "invalid content field {field}: {value}")
            }
            VideoError::InvalidLadder => write!(
                f,
                "bitrate ladder must be non-empty, positive, strictly increasing"
            ),
            VideoError::UnknownBitrate(b) => write!(f, "bitrate {b} kbps is not in the ladder"),
            VideoError::InvalidWeights(msg) => write!(f, "invalid sensitivity weights: {msg}"),
            VideoError::InvalidGenreMix(msg) => write!(f, "invalid genre mix: {msg}"),
            VideoError::SceneCountMismatch { chunks, scenes } => {
                write!(f, "{scenes} scene labels for {chunks} chunk profiles")
            }
        }
    }
}

impl std::error::Error for VideoError {}
