//! Bitrate ladders and the VBR chunk-size model.
//!
//! The paper encodes every chunk with H.264/AVC at five bitrate levels,
//! {300, 750, 1200, 1850, 2850} kbps, corresponding to 240p–1080p on
//! YouTube (§7.1). Real encoders are variable-bitrate: a chunk's actual size
//! deviates from `bitrate × duration` depending on content complexity. The
//! [`EncodedVideo`] model reproduces that: complex chunks come out slightly
//! larger, simple chunks slightly smaller, with seeded per-chunk jitter.

use crate::content::SourceVideo;
use crate::quality::visual_quality;
use crate::VideoError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's five-level bitrate ladder in kbps.
pub const DEFAULT_LADDER_KBPS: [f64; 5] = [300.0, 750.0, 1200.0, 1850.0, 2850.0];

/// An ordered set of available encoding bitrates.
#[derive(Debug, Clone, PartialEq)]
pub struct BitrateLadder {
    kbps: Vec<f64>,
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
        Ok(Self { kbps })
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

    /// Index of an exact bitrate value.
    ///
    /// # Errors
    ///
    /// Returns an error when the bitrate is not a ladder level.
    pub fn index_of(&self, kbps: f64) -> Result<usize, VideoError> {
        self.kbps
            .iter()
            .position(|&b| (b - kbps).abs() < 1e-9)
            .ok_or(VideoError::UnknownBitrate(kbps))
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
/// The encoding keeps what the encoder draws, flat: one VBR factor per
/// chunk (8 bytes) and one row-major `chunk·L + level` visual-quality
/// table (`8·L` bytes per chunk). A chunk's size is derived from its
/// factor on demand, so no per-level size table is stored.
#[derive(Debug, Clone)]
pub struct EncodedVideo {
    ladder: BitrateLadder,
    chunk_duration_s: f64,
    /// `factors[chunk]`: the chunk's VBR factor, shared by every level.
    factors: Vec<f64>,
    /// `vq[chunk·L + level]`, precomputed at encode time so the session
    /// hot path never recomputes the perceptual-quality curve.
    vq: Vec<f64>,
}

impl EncodedVideo {
    /// Encodes `source` at every level of `ladder`.
    ///
    /// The VBR factor is `0.92 + 0.16·complexity + ε`, ε ~ N(0, 0.03),
    /// clamped to `[0.8, 1.25]` — complex chunks overshoot their target
    /// bitrate, simple chunks undershoot, mirroring real H.264 encodes.
    pub fn encode(source: &SourceVideo, ladder: &BitrateLadder, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let chunks = source.chunks();
        let factors = chunks
            .iter()
            .map(|c| {
                // One VBR factor per chunk: all levels share the content.
                let eps: f64 = {
                    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                    let u2: f64 = rng.gen_range(0.0..1.0);
                    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos() * 0.03
                };
                (0.92 + 0.16 * c.complexity + eps).clamp(0.8, 1.25)
            })
            .collect();
        let mut vq = Vec::with_capacity(chunks.len() * ladder.len());
        for c in chunks {
            vq.extend(
                ladder
                    .levels()
                    .iter()
                    .map(|&b| visual_quality(b, c.complexity)),
            );
        }
        Self {
            ladder: ladder.clone(),
            chunk_duration_s: source.chunk_duration_s(),
            factors,
            vq,
        }
    }

    /// Visual quality of one chunk at one level — an encode artifact,
    /// computed once at encode time rather than per session.
    ///
    /// # Panics
    ///
    /// Panics when the chunk or level is out of range, as indexing a
    /// table would.
    #[inline]
    pub fn vq(&self, chunk: usize, level: usize) -> f64 {
        self.vq_row(chunk)[level]
    }

    /// Visual quality of one chunk at every level, lowest level first.
    ///
    /// # Panics
    ///
    /// Panics when the chunk is out of range.
    #[inline]
    pub fn vq_row(&self, chunk: usize) -> &[f64] {
        let n_levels = self.ladder.len();
        &self.vq[chunk * n_levels..(chunk + 1) * n_levels]
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
        self.factors.len()
    }

    /// Size in bits of one chunk at one level: the level's nominal
    /// `bitrate × duration` scaled by the chunk's VBR factor.
    ///
    /// # Errors
    ///
    /// Returns an error when the chunk or level is out of range.
    #[inline]
    pub fn size_bits(&self, chunk: usize, level: usize) -> Result<f64, VideoError> {
        let factor = self.factors.get(chunk).ok_or(VideoError::ChunkOutOfRange {
            index: chunk,
            len: self.factors.len(),
        })?;
        let kbps = self
            .ladder
            .levels()
            .get(level)
            .ok_or(VideoError::UnknownBitrate(level as f64))?;
        Ok(kbps * 1000.0 * self.chunk_duration_s * factor)
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
        assert_eq!(l.index_of(1200.0).unwrap(), 2);
        assert!(l.index_of(1000.0).is_err());
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
