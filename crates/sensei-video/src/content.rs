//! Genres, scene kinds, and the per-chunk content model.
//!
//! §2.3 of the paper identifies three archetypes of attention shifts: key
//! moments in a storyline (goal in Soccer1, the trap in BigBuckBunny),
//! information-delivery moments (scoreboard in Soccer2, looting in FPS2),
//! and low-attention transitions (the universe background in Space). The
//! paper also documents two *confounders* that break heuristic QoE models:
//! highly dynamic but unimportant content (ads, quick scans of players)
//! fools motion-based models like LSTM-QoE, and object-rich but unimportant
//! content (crowd shots) fools CV highlight detectors (Appendix D).
//!
//! [`SceneKind`] encodes those archetypes; each carries a canonical profile
//! of (sensitivity, motion, complexity, object-richness) from which chunks
//! are sampled with seeded jitter.

use crate::VideoError;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Content genre, matching Table 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Genre {
    /// Live sports: basketball, soccer, discus, wrestling, motor racing.
    Sports,
    /// Gaming footage: tank battles, first-person shooters.
    Gaming,
    /// Nature and scenery: mountains, animals, space.
    Nature,
    /// Animated content.
    Animation,
}

impl Genre {
    /// Human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Genre::Sports => "Sports",
            Genre::Gaming => "Gaming",
            Genre::Nature => "Nature",
            Genre::Animation => "Animation",
        }
    }
}

/// Scene archetype; determines the latent content profile of its chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SceneKind {
    /// Baseline content: normal gameplay, dialogue, routine action.
    NormalPlay,
    /// Storyline climax where tension has built up (goal, buzzer beater,
    /// trap springing). Highest quality sensitivity.
    KeyMoment,
    /// Information delivery the viewer must not miss (scoreboard change,
    /// item pickup). High sensitivity, low motion.
    Informational,
    /// Celebrations, replays, crowd shots. Moderate sensitivity but very
    /// object-rich — the CV-baseline confounder of Appendix D.
    Replay,
    /// Scenic transitions and backgrounds. Lowest sensitivity.
    Scenic,
    /// Ads and rapid camera scans: highly dynamic yet unimportant — the
    /// motion-heuristic confounder of §2.3.
    AdBreak,
}

impl SceneKind {
    /// All scene kinds, for enumeration in tests and generators.
    pub const ALL: [SceneKind; 6] = [
        SceneKind::NormalPlay,
        SceneKind::KeyMoment,
        SceneKind::Informational,
        SceneKind::Replay,
        SceneKind::Scenic,
        SceneKind::AdBreak,
    ];

    /// Canonical content profile `(sensitivity, motion, complexity, objects)`
    /// for this scene kind. Sensitivity is a positive multiplier (corpus mean
    /// near 1); the other three live in `[0, 1]`.
    pub fn profile(self) -> (f64, f64, f64, f64) {
        match self {
            SceneKind::NormalPlay => (0.90, 0.70, 0.60, 0.50),
            SceneKind::KeyMoment => (1.95, 0.80, 0.65, 0.60),
            SceneKind::Informational => (1.45, 0.30, 0.40, 0.40),
            SceneKind::Replay => (1.05, 0.60, 0.60, 0.90),
            SceneKind::Scenic => (0.55, 0.15, 0.30, 0.15),
            SceneKind::AdBreak => (0.60, 0.88, 0.70, 0.70),
        }
    }

    /// Jitter scale applied to the sensitivity component when sampling.
    fn sensitivity_jitter(self) -> f64 {
        match self {
            SceneKind::KeyMoment => 0.12,
            SceneKind::Informational => 0.10,
            _ => 0.07,
        }
    }
}

/// Latent per-chunk content profile.
///
/// `sensitivity` is the ground-truth quantity the paper crowdsources;
/// `motion` is what dynamics-based QoE heuristics observe; `complexity`
/// drives encoding difficulty and the rate–quality curve; `objects` is the
/// object-richness channel CV highlight detectors key on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkContent {
    /// Scene archetype this chunk belongs to.
    pub scene: SceneKind,
    /// Latent quality sensitivity, positive, corpus mean near 1.
    pub sensitivity: f64,
    /// Apparent motion / scene dynamics in `[0, 1]`.
    pub motion: f64,
    /// Spatial encoding complexity in `[0, 1]`.
    pub complexity: f64,
    /// Object richness in `[0, 1]`.
    pub objects: f64,
}

impl ChunkContent {
    /// Validates field ranges.
    ///
    /// # Errors
    ///
    /// Returns an error when sensitivity is not positive-finite or when any
    /// of the `[0, 1]` fields fall outside their range.
    pub fn validate(&self) -> Result<(), VideoError> {
        if !(self.sensitivity.is_finite() && self.sensitivity > 0.0) {
            return Err(VideoError::InvalidContent {
                field: "sensitivity",
                value: self.sensitivity,
            });
        }
        for (field, value) in [
            ("motion", self.motion),
            ("complexity", self.complexity),
            ("objects", self.objects),
        ] {
            if !(value.is_finite() && (0.0..=1.0).contains(&value)) {
                return Err(VideoError::InvalidContent { field, value });
            }
        }
        Ok(())
    }
}

/// A scripted scene: `len_chunks` chunks of the given kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SceneSpec {
    /// Scene archetype.
    pub kind: SceneKind,
    /// Scene length in chunks.
    pub len_chunks: usize,
}

impl SceneSpec {
    /// Shorthand constructor.
    pub fn new(kind: SceneKind, len_chunks: usize) -> Self {
        Self { kind, len_chunks }
    }
}

/// A source video: an ordered list of chunk content profiles.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceVideo {
    name: String,
    genre: Genre,
    chunk_duration_s: f64,
    chunks: Vec<ChunkContent>,
}

impl SourceVideo {
    /// Builds a video from explicit chunk profiles.
    ///
    /// # Errors
    ///
    /// Returns an error when the chunk list is empty, the chunk duration
    /// is not finite and positive, or any profile is invalid.
    pub fn new(
        name: impl Into<String>,
        genre: Genre,
        chunk_duration_s: f64,
        chunks: Vec<ChunkContent>,
    ) -> Result<Self, VideoError> {
        if chunks.is_empty() {
            return Err(VideoError::NoChunks);
        }
        validate_chunk_duration(chunk_duration_s)?;
        for c in &chunks {
            c.validate()?;
        }
        Ok(Self {
            name: name.into(),
            genre,
            chunk_duration_s,
            chunks,
        })
    }

    /// Builds a video by sampling chunks from a scene script, with seeded
    /// jitter around each scene kind's canonical profile.
    ///
    /// # Errors
    ///
    /// Returns an error when the script contains no chunks.
    pub fn from_script(
        name: impl Into<String>,
        genre: Genre,
        script: &[SceneSpec],
        seed: u64,
    ) -> Result<Self, VideoError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut chunks = Vec::with_capacity(script.iter().map(|spec| spec.len_chunks).sum());
        for spec in script {
            for _ in 0..spec.len_chunks {
                chunks.push(sample_chunk(spec.kind, &mut rng));
            }
        }
        Self::new(name, genre, crate::CHUNK_DURATION_S, chunks)
    }

    /// Video name (Table-1 identifier).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Content genre.
    pub fn genre(&self) -> Genre {
        self.genre
    }

    /// Chunk duration in seconds (4 s throughout the paper).
    pub fn chunk_duration_s(&self) -> f64 {
        self.chunk_duration_s
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Total duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.chunks.len() as f64 * self.chunk_duration_s
    }

    /// All chunk profiles in order.
    pub fn chunks(&self) -> &[ChunkContent] {
        &self.chunks
    }

    /// One chunk profile.
    ///
    /// # Errors
    ///
    /// Returns an error when `index` is out of range.
    pub fn chunk(&self, index: usize) -> Result<&ChunkContent, VideoError> {
        self.chunks.get(index).ok_or(VideoError::ChunkOutOfRange {
            index,
            len: self.chunks.len(),
        })
    }

    /// The latent sensitivity vector (ground truth the crowd pipeline tries
    /// to recover). Normalized to mean 1 so videos are comparable.
    pub fn true_sensitivity(&self) -> Vec<f64> {
        self.normalized_sensitivity().collect()
    }

    /// [`Self::true_sensitivity`] as an iterator, for callers that collect
    /// it into storage of their own.
    pub(crate) fn normalized_sensitivity(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        let mean =
            self.chunks.iter().map(|c| c.sensitivity).sum::<f64>() / self.chunks.len() as f64;
        self.chunks.iter().map(move |c| c.sensitivity / mean)
    }
}

/// Rejects a chunk duration that is not finite and positive. A zero
/// duration would score every session as all stall, and a negative or
/// NaN one would reach the network as a non-finite download size.
pub(crate) fn validate_chunk_duration(chunk_duration_s: f64) -> Result<(), VideoError> {
    if chunk_duration_s.is_finite() && chunk_duration_s > 0.0 {
        Ok(())
    } else {
        Err(VideoError::InvalidContent {
            field: "chunk_duration_s",
            value: chunk_duration_s,
        })
    }
}

/// Samples one chunk for a scene kind with seeded jitter.
fn sample_chunk<R: rand::Rng>(kind: SceneKind, rng: &mut R) -> ChunkContent {
    let (s, m, c, o) = kind.profile();
    let jitter = |rng: &mut R, scale: f64| sensei_gaussian(rng) * scale;
    ChunkContent {
        scene: kind,
        sensitivity: (s + jitter(rng, kind.sensitivity_jitter())).max(0.05),
        motion: (m + jitter(rng, 0.06)).clamp(0.0, 1.0),
        complexity: (c + jitter(rng, 0.06)).clamp(0.0, 1.0),
        objects: (o + jitter(rng, 0.06)).clamp(0.0, 1.0),
    }
}

/// Standard-normal draw (Box–Muller); local copy to avoid a dependency
/// cycle with `sensei-trace`.
fn sensei_gaussian<R: rand::Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scene_profiles_encode_paper_confounders() {
        // Key moments are the most sensitive content.
        let key = SceneKind::KeyMoment.profile().0;
        for kind in SceneKind::ALL {
            assert!(kind.profile().0 <= key);
        }
        // Ads are more dynamic than key moments but far less sensitive
        // (the LSTM-QoE confounder).
        let (ad_s, ad_m, _, _) = SceneKind::AdBreak.profile();
        let (key_s, key_m, _, _) = SceneKind::KeyMoment.profile();
        assert!(ad_m > key_m && ad_s < 0.5 * key_s);
        // Replays are the most object-rich but not the most sensitive
        // (the CV-baseline confounder).
        let (rep_s, _, _, rep_o) = SceneKind::Replay.profile();
        for kind in SceneKind::ALL {
            assert!(kind.profile().3 <= rep_o);
        }
        assert!(rep_s < key_s);
    }

    #[test]
    fn from_script_produces_expected_layout() {
        let script = [
            SceneSpec::new(SceneKind::NormalPlay, 3),
            SceneSpec::new(SceneKind::KeyMoment, 2),
        ];
        let v = SourceVideo::from_script("t", Genre::Sports, &script, 1).unwrap();
        assert_eq!(v.num_chunks(), 5);
        assert_eq!(v.chunks()[0].scene, SceneKind::NormalPlay);
        assert_eq!(v.chunks()[4].scene, SceneKind::KeyMoment);
        assert_eq!(v.duration_s(), 20.0);
        // Key moments sampled more sensitive than normal play.
        assert!(v.chunks()[3].sensitivity > v.chunks()[0].sensitivity);
    }

    #[test]
    fn from_script_is_deterministic() {
        let script = [SceneSpec::new(SceneKind::NormalPlay, 10)];
        let a = SourceVideo::from_script("t", Genre::Sports, &script, 5).unwrap();
        let b = SourceVideo::from_script("t", Genre::Sports, &script, 5).unwrap();
        assert_eq!(a, b);
        let c = SourceVideo::from_script("t", Genre::Sports, &script, 6).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn empty_script_is_rejected() {
        assert_eq!(
            SourceVideo::from_script("t", Genre::Sports, &[], 0).unwrap_err(),
            VideoError::NoChunks
        );
    }

    #[test]
    fn invalid_content_is_rejected() {
        let mut c = ChunkContent {
            scene: SceneKind::NormalPlay,
            sensitivity: 1.0,
            motion: 0.5,
            complexity: 0.5,
            objects: 0.5,
        };
        assert!(c.validate().is_ok());
        c.sensitivity = 0.0;
        assert!(c.validate().is_err());
        c.sensitivity = 1.0;
        c.motion = 1.5;
        assert!(matches!(
            c.validate().unwrap_err(),
            VideoError::InvalidContent {
                field: "motion",
                ..
            }
        ));
    }

    #[test]
    fn true_sensitivity_is_mean_one() {
        let script = [
            SceneSpec::new(SceneKind::Scenic, 5),
            SceneSpec::new(SceneKind::KeyMoment, 5),
        ];
        let v = SourceVideo::from_script("t", Genre::Nature, &script, 3).unwrap();
        let s = v.true_sensitivity();
        let mean = s.iter().sum::<f64>() / s.len() as f64;
        assert!((mean - 1.0).abs() < 1e-12);
        // Ordering preserved: key moments above scenic chunks.
        assert!(s[7] > s[2]);
    }

    #[test]
    fn chunk_duration_must_be_finite_and_positive() {
        let chunk = ChunkContent {
            scene: SceneKind::NormalPlay,
            sensitivity: 1.0,
            motion: 0.5,
            complexity: 0.5,
            objects: 0.5,
        };
        assert!(SourceVideo::new("t", Genre::Sports, 4.0, vec![chunk]).is_ok());
        for bad in [f64::NAN, 0.0, -4.0, f64::INFINITY] {
            let err = SourceVideo::new("t", Genre::Sports, bad, vec![chunk]).unwrap_err();
            match err {
                VideoError::InvalidContent { field, value } => {
                    assert_eq!(field, "chunk_duration_s");
                    assert_eq!(value.to_bits(), bad.to_bits());
                }
                other => panic!("chunk duration {bad}: expected InvalidContent, got {other}"),
            }
        }
    }

    #[test]
    fn chunk_accessor_bounds() {
        let script = [SceneSpec::new(SceneKind::NormalPlay, 2)];
        let v = SourceVideo::from_script("t", Genre::Sports, &script, 0).unwrap();
        assert!(v.chunk(1).is_ok());
        assert!(matches!(
            v.chunk(2).unwrap_err(),
            VideoError::ChunkOutOfRange { index: 2, len: 2 }
        ));
    }
}
