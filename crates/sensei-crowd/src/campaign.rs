//! MTurk campaign mechanics (§4.1, §6, Appendix B).
//!
//! A campaign publishes a set of rendered videos of one source video, each
//! to be rated by M participants. Participants rate K clips each plus a
//! pristine *reference* clip, in randomized order. The §B quality controls
//! are enforced:
//!
//! * any clip rated above the reference → all of the participant's ratings
//!   rejected (and the participant is not paid);
//! * any clip not watched in full (per the playback log) → rejected;
//! * rejected slots are re-recruited until every render has its M ratings.
//!
//! Cost is `watch-hours × hourly wage` for *accepted* participants plus a
//! platform fee; delay follows the §4.3 observation that recruitment
//! dominates ("tens of minutes to get 100 participants") since surveys run
//! in parallel.
//!
//! A campaign runs over clips — a clip's true QoE and its watch time
//! are all the mechanics read — so the oracle scores each clip once, and
//! the profiler can publish probes it never renders. Each participant
//! costs O(n) over `n` clips: the n − 1 draws of a fresh shuffle, one
//! bucket pass that picks the K clips with the highest remaining need,
//! and the K + 1 ratings.

use crate::oracle::TrueQoe;
use crate::rater::RaterPool;
use crate::CrowdError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sensei_video::{RenderedVideo, SourceVideo};

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Ratings required per rendered video (M).
    pub raters_per_render: usize,
    /// Clips assigned per participant (K), excluding the reference clip.
    pub clips_per_rater: usize,
    /// Hourly wage in USD (§B: $10/hr).
    pub hourly_wage_usd: f64,
    /// Platform fee as a fraction of payments (MTurk charges 20%).
    pub platform_fee: f64,
    /// Participant signup rate per minute (reputation-dependent, §C).
    pub signup_rate_per_min: f64,
    /// Minimum surviving ratings per render before declaring failure.
    pub min_ratings: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            raters_per_render: 10,
            clips_per_rater: 8,
            hourly_wage_usd: 10.0,
            platform_fee: 0.20,
            signup_rate_per_min: 2.0,
            min_ratings: 3,
        }
    }
}

/// Result of a completed campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Normalized MOS (`(rating − 1) / 4` averaged) per rendered video, in
    /// input order.
    pub mos01: Vec<f64>,
    /// Surviving ratings per render.
    pub ratings_kept: Vec<usize>,
    /// Participants recruited in total.
    pub raters_recruited: usize,
    /// Participants rejected by quality control.
    pub raters_rejected: usize,
    /// Total cost in USD (accepted participants only, plus platform fee).
    pub cost_usd: f64,
    /// End-to-end delay estimate in minutes (recruitment-dominated).
    pub delay_minutes: f64,
}

/// One published clip as the campaign sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Clip {
    /// The oracle's normalized QoE of the clip; ratings scatter around it.
    pub(crate) true_qoe01: f64,
    /// Wall-clock seconds a participant spends watching it (content plus
    /// stalls).
    pub(crate) watch_s: f64,
}

impl Clip {
    /// The clip of `render`, a rendering of `source`.
    fn of_render(
        oracle: &TrueQoe,
        source: &SourceVideo,
        render: &RenderedVideo,
    ) -> Result<Self, CrowdError> {
        Ok(Self {
            true_qoe01: oracle.qoe01(source, render)?,
            watch_s: render.content_duration_s() + render.total_rebuffer_s(),
        })
    }
}

/// A ready-to-run campaign over clips of one source video.
#[derive(Debug)]
pub struct Campaign<'a> {
    /// The pristine clip every participant rates first.
    reference: Clip,
    clips: Vec<Clip>,
    pool: &'a RaterPool,
    config: CampaignConfig,
}

impl<'a> Campaign<'a> {
    /// Builds a campaign. `reference` must be the pristine rendering used
    /// for rater calibration; `renders` are the clips to be rated.
    ///
    /// # Errors
    ///
    /// Returns an error when there are no renders, the config requests zero
    /// raters, or any render does not belong to `source`.
    pub fn new(
        source: &SourceVideo,
        reference: RenderedVideo,
        renders: &[RenderedVideo],
        oracle: &TrueQoe,
        pool: &'a RaterPool,
        config: CampaignConfig,
    ) -> Result<Self, CrowdError> {
        check(renders.len(), &config)?;
        for r in renders.iter().chain(std::iter::once(&reference)) {
            if r.source_name() != source.name() {
                return Err(CrowdError::SourceMismatch {
                    render: r.source_name().to_string(),
                    source: source.name().to_string(),
                });
            }
        }
        let clip = |render| Clip::of_render(oracle, source, render);
        Ok(Self {
            reference: clip(&reference)?,
            clips: renders.iter().map(clip).collect::<Result<_, _>>()?,
            pool,
            config,
        })
    }

    /// A campaign over clips scored elsewhere (the profiler's probes).
    ///
    /// # Errors
    ///
    /// As [`Self::new`]: no clips, or zero raters or clips per rater.
    pub(crate) fn from_clips(
        reference: Clip,
        clips: Vec<Clip>,
        pool: &'a RaterPool,
        config: CampaignConfig,
    ) -> Result<Self, CrowdError> {
        check(clips.len(), &config)?;
        Ok(Self {
            reference,
            clips,
            pool,
            config,
        })
    }

    /// Runs the campaign to completion.
    ///
    /// # Errors
    ///
    /// Returns an error when quality control rejects so many ratings that a
    /// render cannot reach `min_ratings` (bounded recruitment).
    pub fn run(&self, seed: u64) -> Result<CampaignResult, CrowdError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = self.clips.len();
        let m = self.config.raters_per_render;
        let k = self.config.clips_per_rater;

        let mut needs = Needs::new(n, m);
        // Per clip: the sum and count of its accepted normalized ratings.
        let mut kept: Vec<(f64, usize)> = vec![(0.0, 0); n];
        let mut recruited = 0usize;
        let mut rejected = 0usize;
        let mut paid_watch_seconds = 0.0;
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut assigned: Vec<usize> = Vec::with_capacity(k);
        let mut ratings: Vec<u8> = Vec::with_capacity(k);
        // Bounded recruitment: allow generous headroom over the ideal
        // participant count before giving up.
        let ideal = (n * m).div_ceil(k);
        let max_participants = ideal * 4 + 16;
        // Raters are drawn from the pool lazily as they "sign up".
        for rater in self.pool.stream().take(max_participants) {
            if needs.open == 0 {
                break;
            }
            recruited += 1;
            // Assign the K clips with the highest remaining need (random
            // tie-break via pre-shuffled index order).
            order.clear();
            order.extend(0..n);
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            needs.select(&order, k, &mut assigned);
            // The participant watches the reference plus assignments, in
            // randomized viewing order (no order effects are modeled, but
            // the machinery mirrors §B).
            let ref_rating = rater.rate(self.reference.true_qoe01, &mut rng);
            ratings.clear();
            let mut watched_all = rater.watched_fully(&mut rng);
            for &idx in &assigned {
                watched_all &= rater.watched_fully(&mut rng);
                ratings.push(rater.rate(self.clips[idx].true_qoe01, &mut rng));
            }
            // §B rejection criteria.
            let rated_above_reference = ratings.iter().any(|&r| r > ref_rating);
            if !watched_all || rated_above_reference {
                rejected += 1;
                continue; // rejected participants are not paid
            }
            for (&idx, &rating) in assigned.iter().zip(&ratings) {
                let (sum, count) = &mut kept[idx];
                *sum += (f64::from(rating) - 1.0) / 4.0;
                *count += 1;
                needs.fulfil(idx);
            }
            let watch_s: f64 = assigned.iter().map(|&i| self.clips[i].watch_s).sum::<f64>()
                + self.reference.watch_s;
            paid_watch_seconds += watch_s;
        }

        let mut mos01 = Vec::with_capacity(n);
        let mut ratings_kept = Vec::with_capacity(n);
        for (render, &(sum, count)) in kept.iter().enumerate() {
            if count < self.config.min_ratings {
                return Err(CrowdError::InsufficientRatings {
                    render,
                    kept: count,
                });
            }
            mos01.push(sum / count as f64);
            ratings_kept.push(count);
        }
        let cost_usd = paid_watch_seconds / 3600.0
            * self.config.hourly_wage_usd
            * (1.0 + self.config.platform_fee);
        // Recruitment dominates end-to-end delay; surveys run in parallel
        // (§4.3). A fixed publication overhead plus signup staggering.
        let longest_survey_min =
            self.clips.iter().map(|c| c.watch_s).fold(0.0, f64::max) * (k + 1) as f64 / 60.0;
        let delay_minutes =
            8.0 + recruited as f64 / self.config.signup_rate_per_min + longest_survey_min;
        Ok(CampaignResult {
            mos01,
            ratings_kept,
            raters_recruited: recruited,
            raters_rejected: rejected,
            cost_usd,
            delay_minutes,
        })
    }
}

/// The checks both constructors apply, in [`Campaign::new`]'s order.
fn check(clips: usize, config: &CampaignConfig) -> Result<(), CrowdError> {
    if clips == 0 {
        return Err(CrowdError::NoRenders);
    }
    if config.raters_per_render == 0 || config.clips_per_rater == 0 {
        return Err(CrowdError::NoRaters);
    }
    Ok(())
}

/// The ratings each clip still needs, with the bookkeeping that makes a
/// participant's assignment one partial pass over the shuffled order.
#[derive(Debug)]
struct Needs {
    /// Ratings still needed per clip (`0..=M`).
    per_clip: Vec<usize>,
    /// `at[v]`: clips that still need exactly `v` ratings.
    at: Vec<usize>,
    /// Ratings still needed, summed over clips: zero ends recruitment.
    open: usize,
    /// Scratch: the next assignment slot per need level.
    slot: Vec<usize>,
}

impl Needs {
    /// `n` clips that need `m` ratings each.
    fn new(n: usize, m: usize) -> Self {
        let mut at = vec![0; m + 1];
        at[m] = n;
        Self {
            per_clip: vec![m; n],
            at,
            open: n * m,
            slot: vec![0; m + 1],
        }
    }

    /// Records one accepted rating of `clip`, which must still need one.
    fn fulfil(&mut self, clip: usize) {
        let need = self.per_clip[clip];
        self.at[need] -= 1;
        self.at[need - 1] += 1;
        self.per_clip[clip] = need - 1;
        self.open -= 1;
    }

    /// Fills `assigned` with what a stable sort of `order` by descending
    /// need, a filter of met needs and a `take(k)` give: every clip of
    /// the levels the `k` picks exhaust, then the first clips of the
    /// lowest level they reach, highest need first and in `order` within
    /// a level. The level counts fix each level's slots up front, so one
    /// pass over `order` fills them and stops at the last pick.
    fn select(&mut self, order: &[usize], k: usize, assigned: &mut Vec<usize>) {
        let top = self.at.len() - 1;
        let mut lowest = top;
        let mut above = 0;
        while lowest > 1 && above + self.at[lowest] < k {
            above += self.at[lowest];
            lowest -= 1;
        }
        let picks = (above + self.at[lowest]).min(k);
        let mut next = 0;
        for level in (lowest..=top).rev() {
            self.slot[level] = next;
            next += self.at[level];
        }
        assigned.clear();
        assigned.resize(picks, 0);
        let mut placed = 0;
        for &clip in order {
            if placed == picks {
                break;
            }
            let need = self.per_clip[clip];
            if need < lowest || self.slot[need] >= picks {
                continue;
            }
            assigned[self.slot[need]] = clip;
            self.slot[need] += 1;
            placed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sensei_video::content::{Genre, SceneKind, SceneSpec};
    use sensei_video::{BitrateLadder, Incident};
    use std::cmp::Reverse;

    /// What the campaign's assignment must equal: a stable sort of
    /// `order` by descending need, met needs dropped, the first `k` kept.
    fn sorted_selection(order: &[usize], needs: &[usize], k: usize) -> Vec<usize> {
        let mut sorted = order.to_vec();
        sorted.sort_by_key(|&i| Reverse(needs[i]));
        sorted
            .into_iter()
            .filter(|&i| needs[i] > 0)
            .take(k)
            .collect()
    }

    proptest! {
        /// Need levels reached by random accepted ratings, random orders.
        #[test]
        fn need_selection_matches_a_stable_sort(
            n in 1usize..40,
            m in 1usize..7,
            k in 1usize..12,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut needs = Needs::new(n, m);
            let mut order: Vec<usize> = (0..n).collect();
            let mut assigned = Vec::new();
            while needs.open > 0 {
                for i in (1..n).rev() {
                    order.swap(i, rng.gen_range(0..=i));
                }
                needs.select(&order, k, &mut assigned);
                prop_assert_eq!(&assigned, &sorted_selection(&order, &needs.per_clip, k));
                prop_assert!(!assigned.is_empty());
                for clip in 0..n {
                    if needs.per_clip[clip] > 0 && rng.gen_bool(0.3) {
                        needs.fulfil(clip);
                    }
                }
                prop_assert_eq!(needs.open, needs.per_clip.iter().sum::<usize>());
            }
        }
    }

    /// The rater loop before need buckets, as the reference for
    /// [`Campaign::run`]: a stable sort of each participant's shuffle,
    /// a scan of every need for the stop test, and `4 × ideal + 16`
    /// raters sampled up front. Returns each clip's accepted ratings,
    /// the recruited and rejected counts, and the paid watch seconds.
    fn sorting_run(campaign: &Campaign<'_>, seed: u64) -> (Vec<Vec<f64>>, usize, usize, f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = campaign.clips.len();
        let m = campaign.config.raters_per_render;
        let k = campaign.config.clips_per_rater;
        let mut needs = vec![m; n];
        let mut scores: Vec<Vec<f64>> = vec![Vec::new(); n];
        let (mut recruited, mut rejected, mut paid) = (0, 0, 0.0);
        for rater in &campaign.pool.sample((n * m).div_ceil(k) * 4 + 16) {
            if needs.iter().all(|&v| v == 0) {
                break;
            }
            recruited += 1;
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            let assigned = sorted_selection(&order, &needs, k);
            let ref_rating = rater.rate(campaign.reference.true_qoe01, &mut rng);
            let mut clip_ratings = Vec::new();
            let mut watched_all = rater.watched_fully(&mut rng);
            for &idx in &assigned {
                watched_all &= rater.watched_fully(&mut rng);
                clip_ratings.push((idx, rater.rate(campaign.clips[idx].true_qoe01, &mut rng)));
            }
            if !watched_all || clip_ratings.iter().any(|&(_, r)| r > ref_rating) {
                rejected += 1;
                continue;
            }
            for (idx, rating) in clip_ratings {
                scores[idx].push((f64::from(rating) - 1.0) / 4.0);
                needs[idx] -= 1;
            }
            paid += assigned
                .iter()
                .map(|&i| campaign.clips[i].watch_s)
                .sum::<f64>()
                + campaign.reference.watch_s;
        }
        (scores, recruited, rejected, paid)
    }

    proptest! {
        /// Random clip sets, rater pools and campaign shapes: the same
        /// ratings, participants, cost and delay, bit for bit — or the
        /// same shortfall.
        #[test]
        fn campaign_run_matches_the_sorting_loop(
            clips in prop::collection::vec((0.0f64..1.0, 1.0f64..60.0), 1..30),
            m in 1usize..12,
            k in 1usize..10,
            general in 0u8..2,
            pool_seed in 0u64..1_000_000,
            seed in 0u64..1_000_000,
        ) {
            let pool = if general == 1 {
                RaterPool::general(pool_seed)
            } else {
                RaterPool::masters(pool_seed)
            };
            let clips: Vec<Clip> = clips
                .iter()
                .map(|&(true_qoe01, watch_s)| Clip { true_qoe01, watch_s })
                .collect();
            let reference = Clip { true_qoe01: 0.9, watch_s: 40.0 };
            let config = CampaignConfig {
                raters_per_render: m,
                clips_per_rater: k,
                min_ratings: m.min(3),
                ..CampaignConfig::default()
            };
            let campaign = Campaign::from_clips(reference, clips, &pool, config.clone()).unwrap();
            let (scores, recruited, rejected, paid) = sorting_run(&campaign, seed);
            match campaign.run(seed) {
                Ok(result) => {
                    prop_assert_eq!(result.raters_recruited, recruited);
                    prop_assert_eq!(result.raters_rejected, rejected);
                    for (i, s) in scores.iter().enumerate() {
                        prop_assert_eq!(result.ratings_kept[i], s.len());
                        let mean = s.iter().sum::<f64>() / s.len() as f64;
                        prop_assert_eq!(result.mos01[i].to_bits(), mean.to_bits());
                    }
                    let cost = paid / 3600.0 * config.hourly_wage_usd * (1.0 + config.platform_fee);
                    prop_assert_eq!(result.cost_usd.to_bits(), cost.to_bits());
                }
                Err(CrowdError::InsufficientRatings { render, kept }) => {
                    let short = scores.iter().position(|s| s.len() < config.min_ratings);
                    prop_assert_eq!(short, Some(render));
                    prop_assert_eq!(scores[render].len(), kept);
                }
                Err(e) => {
                    prop_assert!(false, "unexpected error {e}");
                }
            }
        }
    }

    fn source() -> SourceVideo {
        SourceVideo::from_script(
            "campaign-test",
            Genre::Sports,
            &[
                SceneSpec::new(SceneKind::NormalPlay, 4),
                SceneSpec::new(SceneKind::KeyMoment, 2),
                SceneSpec::new(SceneKind::Scenic, 2),
            ],
            21,
        )
        .unwrap()
    }

    fn setup() -> (SourceVideo, RenderedVideo, Vec<RenderedVideo>) {
        let src = source();
        let ladder = BitrateLadder::default_paper();
        let reference = RenderedVideo::pristine(&src, &ladder);
        let renders: Vec<RenderedVideo> = (0..src.num_chunks())
            .map(|chunk| {
                RenderedVideo::with_incidents(
                    &src,
                    &ladder,
                    &[Incident::Rebuffer {
                        chunk,
                        duration_s: 1.0,
                    }],
                )
                .unwrap()
            })
            .collect();
        (src, reference, renders)
    }

    #[test]
    fn campaign_collects_required_ratings() {
        let (src, reference, renders) = setup();
        let oracle = TrueQoe::default();
        let pool = RaterPool::general(3);
        let config = CampaignConfig::default();
        let campaign =
            Campaign::new(&src, reference, &renders, &oracle, &pool, config.clone()).unwrap();
        let result = campaign.run(7).unwrap();
        assert_eq!(result.mos01.len(), renders.len());
        for &kept in &result.ratings_kept {
            assert!(kept >= config.min_ratings);
        }
        assert!(result.cost_usd > 0.0);
        assert!(result.delay_minutes > 8.0);
    }

    #[test]
    fn mos_tracks_true_sensitivity_ordering() {
        let (src, reference, renders) = setup();
        let oracle = TrueQoe::default();
        // Plenty of raters to average noise down.
        let pool = RaterPool::masters(5);
        let config = CampaignConfig {
            raters_per_render: 30,
            ..CampaignConfig::default()
        };
        let campaign = Campaign::new(&src, reference, &renders, &oracle, &pool, config).unwrap();
        let result = campaign.run(11).unwrap();
        // Chunks 4-5 are key moments, 6-7 scenic: stalling a key moment
        // must rate clearly worse.
        let key = (result.mos01[4] + result.mos01[5]) / 2.0;
        let scenic = (result.mos01[6] + result.mos01[7]) / 2.0;
        assert!(
            scenic > key + 0.02,
            "scenic-stall MOS {scenic} vs key-stall MOS {key}"
        );
    }

    #[test]
    fn quality_control_rejects_some_participants() {
        let (src, reference, renders) = setup();
        let oracle = TrueQoe::default();
        // General pool: 8% unreliable → rejections should occur.
        let pool = RaterPool::general(13);
        let config = CampaignConfig {
            raters_per_render: 20,
            ..CampaignConfig::default()
        };
        let campaign = Campaign::new(&src, reference, &renders, &oracle, &pool, config).unwrap();
        let result = campaign.run(3).unwrap();
        assert!(
            result.raters_rejected > 0,
            "expected quality control to fire"
        );
        assert!(result.raters_recruited > result.raters_rejected);
    }

    #[test]
    fn campaign_is_deterministic() {
        let (src, reference, renders) = setup();
        let oracle = TrueQoe::default();
        let pool = RaterPool::general(3);
        let run = |seed| {
            let campaign = Campaign::new(
                &src,
                reference.clone(),
                &renders,
                &oracle,
                &pool,
                CampaignConfig::default(),
            )
            .unwrap();
            campaign.run(seed).unwrap().mos01
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn validation_rejects_bad_campaigns() {
        let (src, reference, renders) = setup();
        let oracle = TrueQoe::default();
        let pool = RaterPool::general(3);
        assert!(matches!(
            Campaign::new(
                &src,
                reference.clone(),
                &[],
                &oracle,
                &pool,
                CampaignConfig::default()
            ),
            Err(CrowdError::NoRenders)
        ));
        let zero_raters = CampaignConfig {
            raters_per_render: 0,
            ..CampaignConfig::default()
        };
        assert!(matches!(
            Campaign::new(
                &src,
                reference.clone(),
                &renders,
                &oracle,
                &pool,
                zero_raters
            ),
            Err(CrowdError::NoRaters)
        ));
        // Mismatched source.
        let other = SourceVideo::from_script(
            "other",
            Genre::Nature,
            &[SceneSpec::new(SceneKind::Scenic, 8)],
            1,
        )
        .unwrap();
        assert!(matches!(
            Campaign::new(
                &other,
                reference,
                &renders,
                &oracle,
                &pool,
                CampaignConfig::default()
            ),
            Err(CrowdError::SourceMismatch { .. })
        ));
    }

    #[test]
    fn mturk_agrees_with_in_lab_study() {
        // §4.1 sanity check: the paper rates three clips of widely
        // different quality on MTurk and in-lab and finds < 3% relative
        // difference after normalization. Here "in-lab" is the noise-free
        // oracle and "MTurk" the quality-controlled campaign.
        let src = source();
        let ladder = BitrateLadder::default_paper();
        let reference = RenderedVideo::pristine(&src, &ladder);
        // Three clips spanning the quality range, like the paper's check.
        let renders = vec![
            reference.clone(),
            RenderedVideo::with_incidents(
                &src,
                &ladder,
                &[Incident::Rebuffer {
                    chunk: 4,
                    duration_s: 1.0,
                }],
            )
            .unwrap(),
            RenderedVideo::with_incidents(
                &src,
                &ladder,
                &[
                    Incident::Rebuffer {
                        chunk: 4,
                        duration_s: 4.0,
                    },
                    Incident::BitrateDrop {
                        chunk: 0,
                        len_chunks: 8,
                        level: 0,
                    },
                ],
            )
            .unwrap(),
        ];
        let oracle = TrueQoe::default();
        let pool = RaterPool::masters(17);
        let config = CampaignConfig {
            raters_per_render: 30,
            ..CampaignConfig::default()
        };
        let campaign = Campaign::new(&src, reference, &renders, &oracle, &pool, config).unwrap();
        let result = campaign.run(23).unwrap();
        let lab: Vec<f64> = renders
            .iter()
            .map(|r| oracle.qoe01(&src, r).unwrap())
            .collect();
        let norm = |v: &[f64]| {
            let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            v.iter().map(|&x| (x - lo) / (hi - lo)).collect::<Vec<_>>()
        };
        let a = norm(&result.mos01);
        let b = norm(&lab);
        let mean_diff: f64 =
            a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum::<f64>() / a.len() as f64;
        assert!(mean_diff < 0.06, "mturk vs lab mean diff = {mean_diff}");
    }
}
