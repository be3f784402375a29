//! Bitrate ladders and the VBR chunk-size model.
//!
//! The paper encodes every chunk with H.264/AVC at five bitrate levels,
//! {300, 750, 1200, 1850, 2850} kbps, corresponding to 240p–1080p on
//! YouTube (§7.1). Real encoders are variable-bitrate: a chunk's actual size
//! deviates from `bitrate × duration` depending on content complexity. The
//! [`EncodedVideo`] model reproduces that: complex chunks come out slightly
//! larger, simple chunks slightly smaller, with seeded per-chunk jitter.
//!
//! An encoding stores 16 bytes per chunk, whatever the ladder's length: the
//! chunk's VBR factor and its half-saturation bitrate (the one parameter of
//! the rate–quality curve in [`crate::quality`]). Sizes and visual
//! qualities are derived from them on demand.

use crate::content::SourceVideo;
use crate::quality::{half_saturation_kbps, saturating_quality};
use crate::VideoError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The paper's five-level bitrate ladder in kbps.
pub const DEFAULT_LADDER_KBPS: [f64; 5] = [300.0, 750.0, 1200.0, 1850.0, 2850.0];

/// An ordered set of available encoding bitrates. Cloning shares the
/// levels, so every encoding of one ladder holds the same allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct BitrateLadder {
    kbps: Arc<[f64]>,
}

impl BitrateLadder {
    /// Builds a ladder from bitrates in kbps.
    ///
    /// # Errors
    ///
    /// Returns [`VideoError::InvalidLadder`] unless the list is non-empty,
    /// positive, finite, and strictly increasing.
    pub fn new(kbps: Vec<f64>) -> Result<Self, VideoError> {
        if kbps.is_empty() {
            return Err(VideoError::InvalidLadder);
        }
        for w in kbps.windows(2) {
            if w[0] >= w[1] {
                return Err(VideoError::InvalidLadder);
            }
        }
        if kbps.iter().any(|&b| !b.is_finite() || b <= 0.0) {
            return Err(VideoError::InvalidLadder);
        }
        Ok(Self { kbps: kbps.into() })
    }

    /// The paper's default {300, 750, 1200, 1850, 2850} kbps ladder.
    pub fn default_paper() -> Self {
        Self::new(DEFAULT_LADDER_KBPS.to_vec()).expect("the default ladder is valid")
    }

    /// All levels in kbps, lowest first.
    pub fn levels(&self) -> &[f64] {
        &self.kbps
    }

    /// Number of levels.
    pub fn len(&self) -> usize {
        self.kbps.len()
    }

    /// Whether the ladder has no levels (never true for a constructed ladder).
    pub fn is_empty(&self) -> bool {
        self.kbps.is_empty()
    }

    /// Bitrate of a level.
    ///
    /// # Errors
    ///
    /// Returns an error when `level` is out of range.
    pub fn kbps(&self, level: usize) -> Result<f64, VideoError> {
        self.kbps
            .get(level)
            .copied()
            .ok_or(VideoError::UnknownBitrate(level as f64))
    }

    /// Lowest bitrate in kbps.
    pub fn min_kbps(&self) -> f64 {
        self.kbps[0]
    }

    /// Highest bitrate in kbps.
    pub fn max_kbps(&self) -> f64 {
        *self.kbps.last().expect("ladder is non-empty")
    }

    /// Highest level whose bitrate does not exceed `kbps` (level 0 if all
    /// exceed it).
    pub fn highest_at_most(&self, kbps: f64) -> usize {
        self.kbps.iter().rposition(|&b| b <= kbps).unwrap_or(0)
    }
}

/// A source video encoded at every ladder level, with per-chunk VBR sizes
/// and per-chunk, per-level visual quality (the manifest metadata a real
/// system ships — Puffer carries per-chunk SSIM the same way).
///
/// The encoding keeps what the encoder decides per chunk, flat: one VBR
/// factor and one half-saturation bitrate, 16 bytes per chunk whatever
/// the ladder's length. A chunk's size and its quality at each level are
/// derived from those two values on demand, so no per-level table is
/// stored. The ladder is shared with every other encoding of it.
#[derive(Debug, Clone)]
pub struct EncodedVideo {
    ladder: BitrateLadder,
    chunk_duration_s: f64,
    chunks: Vec<EncodedChunk>,
}

/// What the encoder decides for one chunk, shared by every level.
#[derive(Debug, Clone, Copy)]
struct EncodedChunk {
    /// The VBR factor sizes scale by.
    factor: f64,
    /// `half_saturation_kbps(complexity)`: the rate–quality curve's one
    /// parameter.
    half_sat_kbps: f64,
}

impl EncodedVideo {
    /// Encodes `source` at every level of `ladder`.
    ///
    /// The VBR factor is `0.92 + 0.16·complexity + ε`, ε ~ N(0, 0.03),
    /// clamped to `[0.8, 1.25]` — complex chunks overshoot their target
    /// bitrate, simple chunks undershoot, mirroring real H.264 encodes.
    pub fn encode(source: &SourceVideo, ladder: &BitrateLadder, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let chunks = source
            .chunks()
            .iter()
            .map(|c| {
                let eps: f64 = {
                    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                    let u2: f64 = rng.gen_range(0.0..1.0);
                    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos() * 0.03
                };
                EncodedChunk {
                    factor: (0.92 + 0.16 * c.complexity + eps).clamp(0.8, 1.25),
                    half_sat_kbps: half_saturation_kbps(c.complexity),
                }
            })
            .collect();
        Self {
            ladder: ladder.clone(),
            chunk_duration_s: source.chunk_duration_s(),
            chunks,
        }
    }

    /// Visual quality of one chunk at one level:
    /// `visual_quality(kbps, complexity)`, bit for bit, from the chunk's
    /// stored half-saturation bitrate.
    ///
    /// # Panics
    ///
    /// Panics when the chunk or level is out of range, as indexing a
    /// table would.
    #[inline]
    pub fn vq(&self, chunk: usize, level: usize) -> f64 {
        let half_sat_kbps = self.half_sat_kbps(chunk);
        saturating_quality(self.ladder.levels()[level], half_sat_kbps)
    }

    /// Visual quality of one chunk at every level, lowest level first.
    ///
    /// # Panics
    ///
    /// Panics when the chunk is out of range.
    #[inline]
    pub fn vq_row(&self, chunk: usize) -> impl ExactSizeIterator<Item = f64> + '_ {
        let half_sat_kbps = self.half_sat_kbps(chunk);
        self.ladder
            .levels()
            .iter()
            .map(move |&kbps| saturating_quality(kbps, half_sat_kbps))
    }

    /// The chunk's half-saturation bitrate.
    #[inline]
    fn half_sat_kbps(&self, chunk: usize) -> f64 {
        match self.chunks.get(chunk) {
            Some(c) => c.half_sat_kbps,
            None => panic!(
                "chunk {chunk} out of range for {}-chunk video",
                self.chunks.len()
            ),
        }
    }

    /// The ladder this video was encoded with.
    pub fn ladder(&self) -> &BitrateLadder {
        &self.ladder
    }

    /// Chunk duration in seconds.
    pub fn chunk_duration_s(&self) -> f64 {
        self.chunk_duration_s
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Size in bits of one chunk at one level: the level's nominal
    /// `bitrate × duration` scaled by the chunk's VBR factor.
    ///
    /// # Errors
    ///
    /// Returns an error when the chunk or level is out of range.
    #[inline]
    pub fn size_bits(&self, chunk: usize, level: usize) -> Result<f64, VideoError> {
        let c = self.chunks.get(chunk).ok_or(VideoError::ChunkOutOfRange {
            index: chunk,
            len: self.chunks.len(),
        })?;
        let kbps = self
            .ladder
            .levels()
            .get(level)
            .ok_or(VideoError::UnknownBitrate(level as f64))?;
        Ok(kbps * 1000.0 * self.chunk_duration_s * c.factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::{Genre, SceneKind, SceneSpec};

    fn video() -> SourceVideo {
        SourceVideo::from_script(
            "t",
            Genre::Sports,
            &[
                SceneSpec::new(SceneKind::Scenic, 4),
                SceneSpec::new(SceneKind::KeyMoment, 4),
            ],
            1,
        )
        .unwrap()
    }

    #[test]
    fn ladder_validation() {
        assert!(BitrateLadder::new(vec![]).is_err());
        assert!(BitrateLadder::new(vec![300.0, 300.0]).is_err());
        assert!(BitrateLadder::new(vec![750.0, 300.0]).is_err());
        assert!(BitrateLadder::new(vec![-1.0, 300.0]).is_err());
        assert!(BitrateLadder::new(vec![300.0, f64::NAN]).is_err());
        assert!(BitrateLadder::new(vec![300.0, 750.0]).is_ok());
    }

    #[test]
    fn default_ladder_matches_paper() {
        let l = BitrateLadder::default_paper();
        assert_eq!(l.levels(), &[300.0, 750.0, 1200.0, 1850.0, 2850.0]);
        assert_eq!(l.min_kbps(), 300.0);
        assert_eq!(l.max_kbps(), 2850.0);
        assert_eq!(l.len(), 5);
    }

    #[test]
    fn ladder_lookups() {
        let l = BitrateLadder::default_paper();
        assert_eq!(l.highest_at_most(1000.0), 1);
        assert_eq!(l.highest_at_most(100.0), 0);
        assert_eq!(l.highest_at_most(9999.0), 4);
        assert!(l.kbps(5).is_err());
        assert_eq!(l.kbps(0).unwrap(), 300.0);
    }

    #[test]
    fn encode_sizes_near_nominal() {
        let v = video();
        let l = BitrateLadder::default_paper();
        let e = EncodedVideo::encode(&v, &l, 3);
        assert_eq!(e.num_chunks(), 8);
        for chunk in 0..8 {
            for (level, &b) in l.levels().iter().enumerate() {
                let nominal = b * 1000.0 * 4.0;
                let actual = e.size_bits(chunk, level).unwrap();
                let ratio = actual / nominal;
                assert!((0.8..=1.25).contains(&ratio), "ratio {ratio}");
            }
        }
    }

    #[test]
    fn complex_chunks_are_larger() {
        let v = video();
        let l = BitrateLadder::default_paper();
        let e = EncodedVideo::encode(&v, &l, 3);
        // Chunks 0-3 are scenic (low complexity), 4-7 key moments (high).
        let scenic: f64 = (0..4).map(|c| e.size_bits(c, 4).unwrap()).sum();
        let key: f64 = (4..8).map(|c| e.size_bits(c, 4).unwrap()).sum();
        assert!(key > scenic, "key {key} vs scenic {scenic}");
    }

    #[test]
    fn encode_is_deterministic() {
        let v = video();
        let l = BitrateLadder::default_paper();
        let a = EncodedVideo::encode(&v, &l, 9);
        let b = EncodedVideo::encode(&v, &l, 9);
        assert_eq!(a.size_bits(3, 2).unwrap(), b.size_bits(3, 2).unwrap());
    }

    #[test]
    fn out_of_range_lookups_error() {
        let v = video();
        let l = BitrateLadder::default_paper();
        let e = EncodedVideo::encode(&v, &l, 3);
        assert!(e.size_bits(8, 0).is_err());
        assert!(e.size_bits(0, 5).is_err());
    }
}
