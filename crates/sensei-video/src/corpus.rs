//! The 16-video test corpus of Table 1.
//!
//! Each video reproduces the paper's name, genre, and length, and carries a
//! scripted scene graph matching the content description in Fig. 19 of the
//! appendix (e.g. Soccer1 is "a goal after a failed shoot", Soccer2
//! "presenting the scoreboard after a goal", Space "a satellite taking
//! pictures of Earth", BigBuckBunny "a rabbit dealing with three tiny
//! bullies"). Chunk-level profiles are sampled from the scripts with seeded
//! jitter, so the corpus is deterministic given a seed.
//!
//! Beyond Table 1, [`generate_family`] composes scene scripts
//! *procedurally* — genre-specific key-moment density, ad-break placement,
//! and the §2.3/Appendix-D confounder scenes — so fleet-scale evaluation
//! can run hundreds to thousands of distinct, deterministic videos instead
//! of the fixed sixteen.

use crate::content::{Genre, SceneKind, SceneSpec, SourceVideo};
use crate::VideoError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use SceneKind::{AdBreak, Informational, KeyMoment, NormalPlay, Replay, Scenic};

/// One corpus entry: a source video plus its (simulated) dataset of origin.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// The scripted source video.
    pub video: SourceVideo,
    /// Name of the public dataset the paper drew this video from.
    pub source_dataset: &'static str,
}

impl CorpusEntry {
    /// Length formatted `m:ss` as in Table 1.
    pub fn length_label(&self) -> String {
        let secs = self.video.duration_s().round() as u64;
        format!("{}:{:02}", secs / 60, secs % 60)
    }
}

/// Scene script and metadata for one Table-1 video.
struct Spec {
    name: &'static str,
    genre: Genre,
    dataset: &'static str,
    script: &'static [SceneSpec],
}

const fn s(kind: SceneKind, len: usize) -> SceneSpec {
    SceneSpec {
        kind,
        len_chunks: len,
    }
}

/// Table 1 in script form. Chunk counts × 4 s reproduce the paper lengths:
/// 55 chunks = 3:40, 50 = 3:20, 21 = 1:24, 149 = 9:56.
const SPECS: [Spec; 16] = [
    Spec {
        name: "Basket1",
        genre: Genre::Sports,
        dataset: "LIVE-MOBILE",
        // A buzzer beater at the end of a basketball game.
        script: &[
            s(NormalPlay, 10),
            s(AdBreak, 3),
            s(NormalPlay, 8),
            s(Replay, 3),
            s(NormalPlay, 9),
            s(Informational, 2),
            s(NormalPlay, 10),
            s(KeyMoment, 4),
            s(Replay, 4),
            s(Informational, 2),
        ],
    },
    Spec {
        name: "Soccer1",
        genre: Genre::Sports,
        dataset: "LIVE-NFLX-II",
        // A goal after a failed shoot (the Fig. 1 video).
        script: &[
            s(NormalPlay, 12),
            s(AdBreak, 4),
            s(NormalPlay, 10),
            s(KeyMoment, 4),
            s(Replay, 4),
            s(Informational, 2),
            s(NormalPlay, 10),
            s(Scenic, 4),
        ],
    },
    Spec {
        name: "Basket2",
        genre: Genre::Sports,
        dataset: "YouTube-UGC",
        // A free throw followed by a one-on-one defense.
        script: &[
            s(NormalPlay, 8),
            s(Informational, 3),
            s(NormalPlay, 12),
            s(KeyMoment, 3),
            s(Replay, 3),
            s(NormalPlay, 10),
            s(AdBreak, 4),
            s(NormalPlay, 9),
            s(Informational, 3),
        ],
    },
    Spec {
        name: "Soccer2",
        genre: Genre::Sports,
        dataset: "YouTube-UGC",
        // Presenting the scoreboard after a goal.
        script: &[
            s(NormalPlay, 14),
            s(KeyMoment, 3),
            s(Informational, 4),
            s(Replay, 3),
            s(NormalPlay, 12),
            s(AdBreak, 4),
            s(NormalPlay, 11),
            s(Informational, 4),
        ],
    },
    Spec {
        name: "Discus",
        genre: Genre::Sports,
        dataset: "YouTube-UGC",
        // A man throwing a discus.
        script: &[
            s(NormalPlay, 10),
            s(Scenic, 4),
            s(NormalPlay, 8),
            s(KeyMoment, 3),
            s(Replay, 4),
            s(NormalPlay, 10),
            s(Informational, 3),
            s(NormalPlay, 9),
            s(Scenic, 4),
        ],
    },
    Spec {
        name: "Wrestling",
        genre: Genre::Sports,
        dataset: "YouTube-UGC",
        // Two wrestling players.
        script: &[
            s(NormalPlay, 12),
            s(KeyMoment, 4),
            s(Replay, 3),
            s(NormalPlay, 10),
            s(AdBreak, 4),
            s(NormalPlay, 10),
            s(KeyMoment, 3),
            s(Replay, 3),
            s(Informational, 3),
            s(Scenic, 3),
        ],
    },
    Spec {
        name: "Motor",
        genre: Genre::Sports,
        dataset: "YouTube-UGC",
        // Motor racing.
        script: &[
            s(NormalPlay, 14),
            s(AdBreak, 4),
            s(NormalPlay, 10),
            s(KeyMoment, 3),
            s(Replay, 4),
            s(NormalPlay, 12),
            s(Scenic, 5),
            s(Informational, 3),
        ],
    },
    Spec {
        name: "Tank",
        genre: Genre::Gaming,
        dataset: "YouTube-UGC",
        // A tank attacking a house.
        script: &[
            s(NormalPlay, 12),
            s(KeyMoment, 4),
            s(Replay, 2),
            s(NormalPlay, 10),
            s(Informational, 3),
            s(NormalPlay, 12),
            s(KeyMoment, 3),
            s(Scenic, 5),
            s(NormalPlay, 4),
        ],
    },
    Spec {
        name: "FPS1",
        genre: Genre::Gaming,
        dataset: "YouTube-UGC",
        // A first-person shooting game.
        script: &[
            s(NormalPlay, 10),
            s(KeyMoment, 4),
            s(Informational, 2),
            s(NormalPlay, 12),
            s(KeyMoment, 3),
            s(NormalPlay, 10),
            s(Scenic, 4),
            s(NormalPlay, 10),
        ],
    },
    Spec {
        name: "FPS2",
        genre: Genre::Gaming,
        dataset: "YouTube-UGC",
        // A player robbing supplies after killing an enemy (§2.3).
        script: &[
            s(NormalPlay, 10),
            s(KeyMoment, 3),
            s(Informational, 4),
            s(NormalPlay, 12),
            s(KeyMoment, 3),
            s(Informational, 3),
            s(NormalPlay, 12),
            s(Scenic, 4),
            s(NormalPlay, 4),
        ],
    },
    Spec {
        name: "Mountain",
        genre: Genre::Nature,
        dataset: "LIVE-MOBILE",
        // Mountain scenery (1:24).
        script: &[
            s(Scenic, 8),
            s(NormalPlay, 4),
            s(Informational, 2),
            s(Scenic, 7),
        ],
    },
    Spec {
        name: "Animal",
        genre: Genre::Nature,
        dataset: "YouTube-UGC",
        // Warthogs bathing and grooming.
        script: &[
            s(Scenic, 10),
            s(NormalPlay, 8),
            s(KeyMoment, 2),
            s(Scenic, 12),
            s(NormalPlay, 8),
            s(Informational, 2),
            s(Scenic, 13),
        ],
    },
    Spec {
        name: "Space",
        genre: Genre::Nature,
        dataset: "YouTube-UGC",
        // A satellite photographing Earth; the universe background is the
        // paper's example of a low-attention transition (§2.3).
        script: &[
            s(Scenic, 16),
            s(Informational, 3),
            s(Scenic, 12),
            s(NormalPlay, 5),
            s(Scenic, 14),
            s(Informational, 2),
            s(Scenic, 3),
        ],
    },
    Spec {
        name: "Girl",
        genre: Genre::Animation,
        dataset: "YouTube-UGC",
        // A girl falling off a cliff.
        script: &[
            s(NormalPlay, 12),
            s(Scenic, 5),
            s(KeyMoment, 4),
            s(NormalPlay, 10),
            s(Informational, 3),
            s(NormalPlay, 10),
            s(Replay, 3),
            s(Scenic, 8),
        ],
    },
    Spec {
        name: "Lava",
        genre: Genre::Animation,
        dataset: "LIVE-NFLX-II",
        // A lava creature waking up.
        script: &[
            s(Scenic, 12),
            s(NormalPlay, 10),
            s(KeyMoment, 4),
            s(NormalPlay, 8),
            s(Scenic, 8),
            s(KeyMoment, 3),
            s(Replay, 3),
            s(Scenic, 7),
        ],
    },
    Spec {
        name: "BigBuckBunny",
        genre: Genre::Animation,
        dataset: "WaterlooSQOE-III",
        // The rabbit dealing with three tiny bullies; the trap scene is the
        // paper's storyline key-moment example (9:56).
        script: &[
            s(Scenic, 15),
            s(NormalPlay, 20),
            s(Informational, 4),
            s(NormalPlay, 18),
            s(KeyMoment, 5),
            s(Replay, 4),
            s(NormalPlay, 20),
            s(Scenic, 10),
            s(NormalPlay, 18),
            s(KeyMoment, 4),
            s(Replay, 4),
            s(NormalPlay, 15),
            s(Scenic, 12),
        ],
    },
];

/// Builds the full 16-video Table-1 corpus with the given seed.
pub fn table1(seed: u64) -> Vec<CorpusEntry> {
    table1_where(seed, |_| true)
}

/// The Table-1 video names, in corpus order.
pub fn table1_names() -> impl ExactSizeIterator<Item = &'static str> {
    SPECS.iter().map(|spec| spec.name)
}

/// Builds only the Table-1 videos whose names `keep` accepts, in corpus
/// order, each exactly as [`table1`] builds it.
pub fn table1_where(seed: u64, keep: impl Fn(&str) -> bool) -> Vec<CorpusEntry> {
    (0..SPECS.len())
        .filter(|&i| keep(SPECS[i].name))
        .map(|i| table1_entry(i, seed))
        .collect()
}

/// Fetches a single corpus video by its Table-1 name, building only that
/// video.
///
/// # Errors
///
/// Returns [`VideoError::UnknownVideo`] when no Table-1 video has the name.
pub fn by_name(name: &str, seed: u64) -> Result<CorpusEntry, VideoError> {
    SPECS
        .iter()
        .position(|spec| spec.name == name)
        .map(|i| table1_entry(i, seed))
        .ok_or_else(|| VideoError::UnknownVideo(name.to_string()))
}

/// Builds Table-1 video `i`, seeded by its index.
fn table1_entry(i: usize, seed: u64) -> CorpusEntry {
    let spec = &SPECS[i];
    CorpusEntry {
        video: SourceVideo::from_script(
            spec.name,
            spec.genre,
            spec.script,
            seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )
        .expect("corpus scripts are non-empty"),
        source_dataset: spec.dataset,
    }
}

/// Relative genre weights for procedural corpus generation. Weights need
/// not sum to 1; only their ratios matter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenreMix {
    /// Weight of [`Genre::Sports`].
    pub sports: f64,
    /// Weight of [`Genre::Gaming`].
    pub gaming: f64,
    /// Weight of [`Genre::Nature`].
    pub nature: f64,
    /// Weight of [`Genre::Animation`].
    pub animation: f64,
}

impl GenreMix {
    /// Equal weight for all four genres.
    #[must_use]
    pub fn uniform() -> Self {
        Self {
            sports: 1.0,
            gaming: 1.0,
            nature: 1.0,
            animation: 1.0,
        }
    }

    /// The Table-1 genre proportions (7 sports : 3 gaming : 3 nature :
    /// 3 animation).
    #[must_use]
    pub fn table1() -> Self {
        Self {
            sports: 7.0,
            gaming: 3.0,
            nature: 3.0,
            animation: 3.0,
        }
    }

    /// Validates that the weights are non-negative, finite, and not all
    /// zero.
    ///
    /// # Errors
    ///
    /// Returns [`VideoError::InvalidGenreMix`] otherwise.
    pub fn validate(&self) -> Result<(), VideoError> {
        let weights = [self.sports, self.gaming, self.nature, self.animation];
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(VideoError::InvalidGenreMix(format!(
                "weights must be non-negative and finite, got {weights:?}"
            )));
        }
        if weights.iter().sum::<f64>() <= 0.0 {
            return Err(VideoError::InvalidGenreMix(
                "weights must not all be zero".to_string(),
            ));
        }
        Ok(())
    }

    /// Draws one genre proportionally to the weights.
    fn sample<R: Rng>(&self, rng: &mut R) -> Genre {
        let total = self.sports + self.gaming + self.nature + self.animation;
        let mut x = rng.gen_range(0.0..total);
        for (weight, genre) in [
            (self.sports, Genre::Sports),
            (self.gaming, Genre::Gaming),
            (self.nature, Genre::Nature),
            (self.animation, Genre::Animation),
        ] {
            if x < weight {
                return genre;
            }
            x -= weight;
        }
        // Floating-point edge: `x` landed exactly on `total`.
        Genre::Animation
    }
}

/// Composes one procedural scene script for a genre. The knobs mirror
/// what the Table-1 scripts encode by hand: how often the storyline
/// climaxes (key-moment density), where ad breaks land, and which
/// confounder follows a climax — sports replay the goal (the object-rich
/// CV confounder of Appendix D) and cut to the scoreboard, gaming loots
/// the kill (§2.3's information-delivery moment), nature/animation fall
/// back to scenery.
fn compose_script<R: Rng>(genre: Genre, rng: &mut R) -> Vec<SceneSpec> {
    // (target chunk range, key-moment density, ad spacing, scenic share).
    type Knobs = ((usize, usize), f64, Option<(usize, usize)>, f64);
    let (target_range, key_prob, ad_spacing, scenic_prob): Knobs = match genre {
        Genre::Sports => ((40, 68), 0.40, Some((16, 26)), 0.10),
        Genre::Gaming => ((40, 68), 0.45, None, 0.15),
        Genre::Nature => ((34, 64), 0.10, Some((24, 34)), 0.65),
        Genre::Animation => ((44, 75), 0.30, Some((20, 30)), 0.35),
    };
    let target = rng.gen_range(target_range.0..=target_range.1);
    let mut next_ad = ad_spacing.map(|(lo, hi)| rng.gen_range(lo..=hi));
    let mut script: Vec<SceneSpec> = Vec::new();
    let mut total = 0usize;
    let push = |script: &mut Vec<SceneSpec>, total: &mut usize, kind, len: usize| {
        script.push(SceneSpec::new(kind, len));
        *total += len;
    };
    while total < target {
        // Ad-break placement: fires once the scheduled position passes.
        if let (Some(at), Some((lo, hi))) = (next_ad, ad_spacing) {
            if total >= at {
                let len = rng.gen_range(3..=4);
                push(&mut script, &mut total, AdBreak, len);
                next_ad = Some(total + rng.gen_range(lo..=hi));
                continue;
            }
        }
        // Baseline block: normal play or a scenic transition.
        let baseline = if rng.gen_bool(scenic_prob) {
            Scenic
        } else {
            NormalPlay
        };
        let len = rng.gen_range(5..=12);
        push(&mut script, &mut total, baseline, len);
        // Climax cluster: a key moment plus its genre-typical tail.
        if rng.gen_bool(key_prob) {
            let key = rng.gen_range(2..=4);
            push(&mut script, &mut total, KeyMoment, key);
            match genre {
                Genre::Sports => {
                    let rep = rng.gen_range(2..=4);
                    push(&mut script, &mut total, Replay, rep);
                    if rng.gen_bool(0.7) {
                        let info = rng.gen_range(2..=3);
                        push(&mut script, &mut total, Informational, info);
                    }
                }
                Genre::Gaming => {
                    let info = rng.gen_range(2..=4);
                    push(&mut script, &mut total, Informational, info);
                }
                Genre::Nature => {
                    let sc = rng.gen_range(3..=6);
                    push(&mut script, &mut total, Scenic, sc);
                }
                Genre::Animation => {
                    if rng.gen_bool(0.5) {
                        let rep = rng.gen_range(2..=3);
                        push(&mut script, &mut total, Replay, rep);
                    }
                }
            }
        }
    }
    script
}

/// Generates a procedural video family: `count` videos with genres drawn
/// from `genre_mix`, each with a procedurally composed scene script and
/// seeded chunk jitter. Fully deterministic in `seed` — the same
/// `(genre_mix, count, seed)` triple always produces byte-identical
/// videos, on any machine, which is what lets fleet runs treat a family
/// spec as a reproducible corpus identifier.
///
/// Entries are named `proc-{genre}-{index:04}` and carry
/// `source_dataset: "procedural"`.
///
/// # Errors
///
/// Returns [`VideoError::InvalidGenreMix`] when the mix weights are
/// negative, non-finite, or all zero.
pub fn generate_family(
    genre_mix: &GenreMix,
    count: usize,
    seed: u64,
) -> Result<Vec<CorpusEntry>, VideoError> {
    genre_mix.validate()?;
    // One family-level stream for genre and script draws; per-video chunk
    // jitter gets its own derived seed (same scheme as `table1`) so a
    // video's profile depends only on (seed, index), not on how many
    // siblings preceded it in sampling.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9_FA417);
    (0..count)
        .map(|i| {
            let genre = genre_mix.sample(&mut rng);
            let script = compose_script(genre, &mut rng);
            let name = format!("proc-{}-{i:04}", genre.label().to_lowercase());
            let video = SourceVideo::from_script(
                name,
                genre,
                &script,
                seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            )?;
            Ok(CorpusEntry {
                video,
                source_dataset: "procedural",
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_sixteen_videos_with_table1_names() {
        let corpus = table1(2021);
        assert_eq!(corpus.len(), 16);
        let names: Vec<&str> = corpus.iter().map(|e| e.video.name()).collect();
        for expected in [
            "Basket1",
            "Soccer1",
            "Basket2",
            "Soccer2",
            "Discus",
            "Wrestling",
            "Motor",
            "Tank",
            "FPS1",
            "FPS2",
            "Mountain",
            "Animal",
            "Space",
            "Girl",
            "Lava",
            "BigBuckBunny",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn lengths_match_table1() {
        for e in table1(7) {
            let expected = match e.video.name() {
                "Soccer1" => "3:20",
                "Mountain" => "1:24",
                "BigBuckBunny" => "9:56",
                _ => "3:40",
            };
            assert_eq!(
                e.length_label(),
                expected,
                "video {} has wrong length",
                e.video.name()
            );
        }
    }

    #[test]
    fn genres_match_table1() {
        let corpus = table1(7);
        let genre_of = |n: &str| {
            corpus
                .iter()
                .find(|e| e.video.name() == n)
                .unwrap()
                .video
                .genre()
        };
        assert_eq!(genre_of("Wrestling"), Genre::Sports);
        assert_eq!(genre_of("FPS2"), Genre::Gaming);
        assert_eq!(genre_of("Space"), Genre::Nature);
        assert_eq!(genre_of("BigBuckBunny"), Genre::Animation);
    }

    #[test]
    fn datasets_match_table1() {
        let corpus = table1(7);
        let ds_of = |n: &str| {
            corpus
                .iter()
                .find(|e| e.video.name() == n)
                .unwrap()
                .source_dataset
        };
        assert_eq!(ds_of("Basket1"), "LIVE-MOBILE");
        assert_eq!(ds_of("Soccer1"), "LIVE-NFLX-II");
        assert_eq!(ds_of("Basket2"), "YouTube-UGC");
        assert_eq!(ds_of("BigBuckBunny"), "WaterlooSQOE-III");
    }

    #[test]
    fn sports_videos_have_high_sensitivity_variance() {
        // §2.3: quality sensitivity varies substantially within videos; key
        // moments must clearly dominate scenic/ad chunks.
        let soccer = by_name("Soccer1", 7).unwrap().video;
        let s: Vec<f64> = soccer.true_sensitivity().collect();
        let max = s.iter().cloned().fold(0.0, f64::max);
        let min = s.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min > 2.0, "max/min = {}", max / min);
    }

    #[test]
    fn nature_videos_are_flatter_than_sports() {
        let space = by_name("Space", 7).unwrap().video;
        let soccer = by_name("Soccer1", 7).unwrap().video;
        let spread = |v: &SourceVideo| {
            let s: Vec<f64> = v.true_sensitivity().collect();
            let max = s.iter().cloned().fold(0.0, f64::max);
            let min = s.iter().cloned().fold(f64::INFINITY, f64::min);
            max / min
        };
        assert!(spread(&space) < spread(&soccer));
    }

    #[test]
    fn by_name_rejects_unknown() {
        assert_eq!(
            by_name("NotAVideo", 7).unwrap_err(),
            VideoError::UnknownVideo("NotAVideo".to_string())
        );
        // Each name builds the video `table1` builds at its index.
        for (entry, name) in table1(7).iter().zip(table1_names()) {
            let named = by_name(name, 7).unwrap();
            assert_eq!(named.video, entry.video, "{name}");
            assert_eq!(named.source_dataset, entry.source_dataset, "{name}");
        }
    }

    #[test]
    fn corpus_is_deterministic_per_seed() {
        let a = table1(11);
        let b = table1(11);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.video, y.video);
        }
        let c = table1(12);
        assert_ne!(a[0].video, c[0].video);
    }

    #[test]
    fn generated_family_is_deterministic_and_labeled() {
        let mix = GenreMix::uniform();
        let a = generate_family(&mix, 12, 99).unwrap();
        let b = generate_family(&mix, 12, 99).unwrap();
        assert_eq!(a.len(), 12);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.video, y.video);
            assert_eq!(x.source_dataset, "procedural");
        }
        let c = generate_family(&mix, 12, 100).unwrap();
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.video != y.video),
            "different seeds must differ"
        );
        // Names are stable identifiers.
        assert!(a[0].video.name().starts_with("proc-"));
        assert!(a[0].video.name().ends_with("0000"));
    }

    #[test]
    fn genre_mix_weights_steer_the_family() {
        let sports_only = GenreMix {
            sports: 1.0,
            gaming: 0.0,
            nature: 0.0,
            animation: 0.0,
        };
        for e in generate_family(&sports_only, 10, 3).unwrap() {
            assert_eq!(e.video.genre(), Genre::Sports);
        }
        let mixed = generate_family(&GenreMix::uniform(), 64, 3).unwrap();
        let genres: std::collections::BTreeSet<_> = mixed.iter().map(|e| e.video.genre()).collect();
        assert_eq!(genres.len(), 4, "64 uniform draws should hit all genres");
    }

    #[test]
    fn generated_scripts_encode_the_paper_structure() {
        // Sports videos must contain the §2.3 archetypes: key moments,
        // the object-rich replay confounder, and ad breaks (the motion
        // confounder) — and every video is non-trivially long.
        let sports_only = GenreMix {
            sports: 1.0,
            gaming: 0.0,
            nature: 0.0,
            animation: 0.0,
        };
        let family = generate_family(&sports_only, 16, 21).unwrap();
        let mut saw = (false, false, false);
        for e in &family {
            assert!(e.video.num_chunks() >= 34, "{}", e.video.name());
            for k in 0..e.video.num_chunks() {
                match e.video.scene(k).unwrap() {
                    SceneKind::KeyMoment => saw.0 = true,
                    SceneKind::Replay => saw.1 = true,
                    SceneKind::AdBreak => saw.2 = true,
                    _ => {}
                }
            }
        }
        assert!(saw.0 && saw.1 && saw.2, "archetypes missing: {saw:?}");
        // Nature families skew scenic (flatter sensitivity than sports).
        let nature_only = GenreMix {
            sports: 0.0,
            gaming: 0.0,
            nature: 1.0,
            animation: 0.0,
        };
        let nature = generate_family(&nature_only, 8, 21).unwrap();
        let scenic_share = |entries: &[CorpusEntry]| {
            let (mut scenic, mut total) = (0usize, 0usize);
            for e in entries {
                total += e.video.num_chunks();
                scenic += (0..e.video.num_chunks())
                    .filter(|&k| e.video.scene(k) == Ok(SceneKind::Scenic))
                    .count();
            }
            scenic as f64 / total as f64
        };
        assert!(scenic_share(&nature) > 2.0 * scenic_share(&family));
    }

    #[test]
    fn invalid_genre_mixes_are_rejected() {
        let zero = GenreMix {
            sports: 0.0,
            gaming: 0.0,
            nature: 0.0,
            animation: 0.0,
        };
        assert!(matches!(
            generate_family(&zero, 1, 0),
            Err(VideoError::InvalidGenreMix(_))
        ));
        let negative = GenreMix {
            sports: -1.0,
            ..GenreMix::uniform()
        };
        assert!(matches!(
            generate_family(&negative, 1, 0),
            Err(VideoError::InvalidGenreMix(_))
        ));
        assert!(GenreMix::table1().validate().is_ok());
    }

    #[test]
    fn soccer1_goal_is_late_in_video() {
        // Fig. 1: the key moment sits past the midpoint of Soccer1.
        let soccer = by_name("Soccer1", 7).unwrap().video;
        let s: Vec<f64> = soccer.true_sensitivity().collect();
        let peak = s
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        assert!(
            peak >= soccer.num_chunks() / 2,
            "goal at chunk {peak} of {}",
            soccer.num_chunks()
        );
    }

    /// Asserts `video`'s scene labels are `script` expanded chunk by chunk.
    fn assert_scenes_follow(video: &SourceVideo, script: &[SceneSpec]) {
        let expanded: Vec<SceneKind> = script
            .iter()
            .flat_map(|spec| std::iter::repeat_n(spec.kind, spec.len_chunks))
            .collect();
        assert_eq!(video.num_chunks(), expanded.len(), "{}", video.name());
        for (k, &kind) in expanded.iter().enumerate() {
            assert_eq!(video.scene(k), Ok(kind), "{} chunk {k}", video.name());
        }
    }

    #[test]
    fn table1_scene_labels_follow_their_scripts() {
        for (entry, spec) in table1(2021).iter().zip(&SPECS) {
            assert_scenes_follow(&entry.video, spec.script);
        }
    }

    #[test]
    fn generated_scene_labels_follow_their_scripts() {
        // Replays `generate_family`'s family-level draws to recover each
        // video's composed script.
        let (mix, seed) = (GenreMix::uniform(), 77);
        let family = generate_family(&mix, 24, seed).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9_FA417);
        for entry in &family {
            let genre = mix.sample(&mut rng);
            assert_eq!(entry.video.genre(), genre);
            assert_scenes_follow(&entry.video, &compose_script(genre, &mut rng));
        }
    }
}
