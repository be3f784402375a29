//! The two-step crowdsourcing scheduler and weight inference (§4.2–§4.3).
//!
//! Step 1 probes *every* chunk with a single 1-second rebuffering event,
//! rated by M1 participants. The per-chunk weight is inferred from the MOS
//! drop relative to the pristine reference, scaled by the KSQI chunk-score
//! delta of the probe (the diagonal case of the paper's regression
//! `Q_j = Σ_i w_i·q_{i,j}`).
//!
//! Step 2 re-probes only the α-outlier chunks (weights ≥ α away from 1)
//! with B extra bitrate-drop levels and F extra rebuffering durations,
//! rated by M2 participants, and pools the per-probe estimates. "It is more
//! important to identify which chunks have very high/low quality
//! sensitivity than to precisely estimate the quality sensitivity of each
//! chunk" (§4.3).
//!
//! The exhaustive variant (every chunk × every incident × 30 raters) is
//! what Fig. 12c's "w/o cost pruning" line pays for.
//!
//! No probe is rendered. One O(n) pass over the pristine reference of an
//! `n`-chunk video keeps the oracle's fold state before every chunk and
//! every chunk's oracle and KSQI terms. A probe at chunk `k` changes only
//! the chunks of its incident and the switch term of the chunk after
//! them, so its true QoE resumes the reference's fold at `k` — O(n − k),
//! with the unchanged tail folded from the kept terms — and its `Δq` sums
//! over those few chunks alone. Rating then costs O(n) per participant
//! (see [`crate::campaign`]).

use crate::campaign::{Campaign, CampaignConfig, CampaignResult, Clip};
use crate::oracle::{QoeFold, TrueQoe};
use crate::rater::RaterPool;
use crate::CrowdError;
use sensei_qoe::Ksqi;
use sensei_video::{
    BitrateLadder, Incident, IncidentWalk, RenderedChunk, RenderedVideo, SensitivityWeights,
    SourceVideo,
};

/// Configuration of the two-step scheduler.
#[derive(Debug, Clone)]
pub struct ProfilerConfig {
    /// Raters per rendered video in step 1 (paper: 10).
    pub m1: usize,
    /// Raters per rendered video in step 2 (paper: 5).
    pub m2: usize,
    /// Outlier threshold α: chunks with `|w − 1| > α` are re-probed
    /// (paper: 0.06).
    pub alpha: f64,
    /// Number of bitrate-drop levels used in step 2 (paper: B = 2).
    pub bitrate_levels: usize,
    /// Number of extra rebuffering durations in step 2 (paper: F = 1).
    pub rebuffer_levels: usize,
    /// Campaign mechanics (wage, clips per rater, ...).
    pub campaign: CampaignConfig,
    /// Weight floor: inferred weights are clamped here before
    /// normalization.
    pub min_weight: f64,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        Self {
            m1: 10,
            m2: 5,
            alpha: 0.06,
            bitrate_levels: 2,
            rebuffer_levels: 1,
            campaign: CampaignConfig::default(),
            min_weight: 0.05,
        }
    }
}

/// Output of a profiling run.
#[derive(Debug, Clone)]
pub struct WeightProfile {
    /// Inferred per-chunk sensitivity weights (mean 1).
    pub weights: SensitivityWeights,
    /// Total crowdsourcing cost in USD.
    pub cost_usd: f64,
    /// End-to-end delay in minutes.
    pub delay_minutes: f64,
    /// Rendered videos published.
    pub renders_rated: usize,
    /// Participants recruited across both steps.
    pub raters_recruited: usize,
}

impl WeightProfile {
    /// Cost normalized per minute of source video — the paper's headline
    /// unit ("$31.4 per min video").
    pub fn cost_per_minute_usd(&self, source: &SourceVideo) -> f64 {
        self.cost_usd / (source.duration_s() / 60.0)
    }
}

/// The profiling pipeline: rater pool + scheduler configuration. Each run
/// borrows the oracle its raters judge by.
#[derive(Debug, Clone)]
pub struct WeightProfiler {
    pool: RaterPool,
    config: ProfilerConfig,
}

/// Per-chunk probe estimates: `(weight estimate, Δq)` pairs.
type Estimates = Vec<Vec<(f64, f64)>>;

impl WeightProfiler {
    /// Builds a profiler with the given rater pool and configuration.
    pub fn new(pool: RaterPool, config: ProfilerConfig) -> Self {
        Self { pool, config }
    }

    /// A profiler with paper-default parameters and a master-worker pool.
    pub fn paper_default(seed: u64) -> Self {
        Self::new(RaterPool::masters(seed), ProfilerConfig::default())
    }

    /// Runs the full two-step profiling pipeline on one source video,
    /// with raters judging by `oracle`.
    ///
    /// # Errors
    ///
    /// Propagates campaign errors (quality-control exhaustion).
    pub fn profile(
        &self,
        oracle: &TrueQoe,
        source: &SourceVideo,
        ladder: &BitrateLadder,
        seed: u64,
    ) -> Result<WeightProfile, CrowdError> {
        let n = source.num_chunks();
        let mut reference = PristineFold::new(oracle, source, ladder);
        let mut estimates: Estimates = vec![Vec::new(); n];

        // ---- Step 1: 1-second stall at every chunk, M1 raters. ----
        let probes1: Vec<(usize, Incident)> = (0..n)
            .map(|k| {
                (
                    k,
                    Incident::Rebuffer {
                        chunk: k,
                        duration_s: 1.0,
                    },
                )
            })
            .collect();
        let result1 = self.rate_probes(
            &mut reference,
            &probes1,
            self.config.m1,
            seed,
            &mut estimates,
        )?;
        let step1_weights = finalize(&estimates, self.config.min_weight);

        // ---- Step 2: refine α-outliers with more incident types. ----
        let provisional = SensitivityWeights::new(step1_weights)?;
        let outliers = provisional.outliers(self.config.alpha);
        let mut probes2: Vec<(usize, Incident)> = Vec::new();
        for &k in &outliers {
            // B bitrate-drop levels below the top. The *lowest* levels are
            // used: a drop to 300 kbps moves MOS enough to measure, whereas
            // a 1850→2850 kbps delta drowns in rater quantization noise.
            for level in 0..self.config.bitrate_levels.min(ladder.len() - 1) {
                probes2.push((
                    k,
                    Incident::BitrateDrop {
                        chunk: k,
                        len_chunks: 1,
                        level,
                    },
                ));
            }
            // F extra rebuffering durations (2 s, 3 s, ...).
            for f in 0..self.config.rebuffer_levels {
                probes2.push((
                    k,
                    Incident::Rebuffer {
                        chunk: k,
                        duration_s: 2.0 + f as f64,
                    },
                ));
            }
        }
        let mut total_cost = result1.cost_usd;
        let mut total_delay = result1.delay_minutes;
        let mut renders_rated = probes1.len();
        let mut recruited = result1.raters_recruited;
        if !probes2.is_empty() && self.config.m2 > 0 {
            let result2 = self.rate_probes(
                &mut reference,
                &probes2,
                self.config.m2,
                seed ^ 0x0005_7E92,
                &mut estimates,
            )?;
            total_cost += result2.cost_usd;
            // Step 2 recruitment overlaps step 1's tail in practice; charge
            // the serial part only.
            total_delay += result2.delay_minutes * 0.5;
            renders_rated += probes2.len();
            recruited += result2.raters_recruited;
        }

        let final_weights = finalize(&estimates, self.config.min_weight);
        Ok(WeightProfile {
            weights: SensitivityWeights::new(final_weights)?,
            cost_usd: total_cost,
            delay_minutes: total_delay,
            renders_rated,
            raters_recruited: recruited,
        })
    }

    /// The no-pruning strawman: every chunk × every below-top bitrate ×
    /// rebuffering durations {1, 2, 3, 4} s, 30 raters per render, judging
    /// by `oracle`.
    ///
    /// # Errors
    ///
    /// Propagates campaign errors.
    pub fn profile_exhaustive(
        &self,
        oracle: &TrueQoe,
        source: &SourceVideo,
        ladder: &BitrateLadder,
        seed: u64,
    ) -> Result<WeightProfile, CrowdError> {
        let n = source.num_chunks();
        let mut reference = PristineFold::new(oracle, source, ladder);
        let mut probes: Vec<(usize, Incident)> = Vec::new();
        for k in 0..n {
            for secs in [1.0, 2.0, 3.0, 4.0] {
                probes.push((
                    k,
                    Incident::Rebuffer {
                        chunk: k,
                        duration_s: secs,
                    },
                ));
            }
            for level in 0..ladder.len() - 1 {
                probes.push((
                    k,
                    Incident::BitrateDrop {
                        chunk: k,
                        len_chunks: 1,
                        level,
                    },
                ));
            }
        }
        let mut estimates: Estimates = vec![Vec::new(); n];
        let result = self.rate_probes(&mut reference, &probes, 30, seed, &mut estimates)?;
        Ok(WeightProfile {
            weights: SensitivityWeights::new(finalize(&estimates, self.config.min_weight))?,
            cost_usd: result.cost_usd,
            delay_minutes: result.delay_minutes,
            renders_rated: probes.len(),
            raters_recruited: result.raters_recruited,
        })
    }

    /// Publishes the probes plus the pristine reference (rated last: it
    /// anchors the MOS deltas) to `raters` raters each, and adds each
    /// probe's `ΔMOS / Δq` estimate (the diagonal regression) to its
    /// chunk, together with the probe strength `Δq` so pooling can weight
    /// strong probes over noise-dominated ones.
    fn rate_probes(
        &self,
        reference: &mut PristineFold<'_>,
        probes: &[(usize, Incident)],
        raters: usize,
        seed: u64,
        estimates: &mut Estimates,
    ) -> Result<CampaignResult, CrowdError> {
        let mut clips = Vec::with_capacity(probes.len() + 1);
        let mut deltas = Vec::with_capacity(probes.len());
        for (_, incident) in probes {
            let (clip, dq) = reference.probe(incident)?;
            clips.push(clip);
            deltas.push(dq);
        }
        clips.push(reference.clip);
        let config = CampaignConfig {
            raters_per_render: raters,
            ..self.config.campaign.clone()
        };
        let result = Campaign::from_clips(reference.clip, clips, &self.pool, config)?.run(seed)?;
        let ref_mos = *result.mos01.last().expect("reference was appended");
        for ((&(k, _), mos), &dq) in probes.iter().zip(&result.mos01).zip(&deltas) {
            if dq > 1e-9 {
                estimates[k].push((((ref_mos - mos) / dq).max(0.0), dq));
            }
        }
        Ok(result)
    }
}

/// The pristine reference of one video, scored once: the state a
/// single-incident probe shares with it, kept so the probe is scored
/// without a render of its own.
struct PristineFold<'a> {
    oracle: &'a TrueQoe,
    ladder: &'a BitrateLadder,
    /// The pristine chunks, in playback order.
    chunks: Vec<RenderedChunk>,
    chunk_duration_s: f64,
    /// The video's latent sensitivity (mean 1).
    sensitivity: Vec<f64>,
    /// `folds[i]`: the oracle's fold over chunks `0..i` (`n + 1` states).
    folds: Vec<QoeFold<'a>>,
    /// The oracle's experienced quality of each chunk.
    terms: Vec<f64>,
    ksqi: Ksqi,
    /// KSQI score of each chunk.
    scores: Vec<f64>,
    /// The reference as a campaign clip.
    clip: Clip,
    /// Scratch: the probe's copy of the chunks it changes.
    window: Vec<RenderedChunk>,
}

impl<'a> PristineFold<'a> {
    fn new(oracle: &'a TrueQoe, source: &SourceVideo, ladder: &'a BitrateLadder) -> Self {
        let render = RenderedVideo::pristine(source, ladder);
        let ksqi = Ksqi::canonical();
        let scores = ksqi.chunk_scores(&render);
        let sensitivity: Vec<f64> = source.true_sensitivity().collect();
        let chunk_duration_s = render.chunk_duration_s();
        let mut fold = oracle.fold(ladder.max_kbps(), chunk_duration_s, 0.0);
        let mut folds = Vec::with_capacity(render.num_chunks() + 1);
        let mut terms = Vec::with_capacity(render.num_chunks());
        for (c, &s) in render.chunks().iter().zip(&sensitivity) {
            folds.push(fold.clone());
            terms.push(fold.push(s, c));
        }
        folds.push(fold.clone());
        let clip = Clip {
            true_qoe01: fold.qoe01(),
            watch_s: render.content_duration_s() + render.total_rebuffer_s(),
        };
        let (_, chunks) = render.into_parts();
        Self {
            oracle,
            ladder,
            chunks,
            chunk_duration_s,
            sensitivity,
            folds,
            terms,
            ksqi,
            scores,
            clip,
            window: Vec::new(),
        }
    }

    /// The clip of the pristine rendering with `incident` injected, and
    /// the probe's `Δq`: the KSQI chunk scores it loses, summed over
    /// chunks (pristine minus degraded, floored at 0). Bit for bit what
    /// `RenderedVideo::with_incidents` scored whole would give.
    fn probe(&mut self, incident: &Incident) -> Result<(Clip, f64), CrowdError> {
        let n = self.chunks.len();
        let span = incident.span(n, self.ladder)?;
        // Chunks `k..end` can differ from the reference: the incident's,
        // and the next one through its switch term.
        let (k, end) = (span.start, (span.end + 1).min(n));
        self.window.clear();
        self.window.extend_from_slice(&self.chunks[k..end]);
        for c in &mut self.window[..span.len()] {
            incident.degrade(self.ladder, c)?;
        }

        // The oracle judges every chunk against the session's highest
        // bitrate; while that matches the reference's, the reference's
        // fold resumes at `k` and its terms after the window stand. Every
        // chunk outside the window streams at the ladder's top.
        let outside_kbps = if end - k < n {
            self.ladder.max_kbps()
        } else {
            0.0
        };
        let max_kbps = self
            .window
            .iter()
            .map(|c| c.bitrate_kbps)
            .fold(outside_kbps, f64::max);
        let fresh = self.oracle.fold(max_kbps, self.chunk_duration_s, 0.0);
        let true_qoe01 = if fresh.top_kbps() == self.folds[k].top_kbps() {
            let mut fold = self.folds[k].clone();
            for (c, &s) in self.window.iter().zip(&self.sensitivity[k..end]) {
                fold.push(s, c);
            }
            for &e in &self.terms[end..] {
                fold.push_term(e);
            }
            fold.qoe01()
        } else {
            let mut fold = fresh;
            let chunks = self.chunks[..k]
                .iter()
                .chain(&self.window)
                .chain(&self.chunks[end..]);
            for (c, &s) in chunks.zip(&self.sensitivity) {
                fold.push(s, c);
            }
            fold.qoe01()
        };

        // KSQI scores outside the window equal the reference's, so their
        // deltas are +0.0 and only the window's are summed. The reference
        // starts without delay, so a walk from its first chunk charges none.
        let mut walk = k.checked_sub(1).map_or(IncidentWalk::new(0.0), |i| {
            IncidentWalk::after(&self.chunks[i])
        });
        let mut dq = 0.0;
        for (c, &reference) in self.window.iter().zip(&self.scores[k..end]) {
            let (stall, switch) = walk.step(c);
            let score = self
                .ksqi
                .chunk_quality(c.vq, stall, switch, self.chunk_duration_s);
            dq += (reference - score).max(0.0);
        }

        // The reference stalls nowhere, so the probe's stall is its window's.
        let stall_s: f64 = self.window.iter().map(|c| c.rebuffer_s).sum();
        let clip = Clip {
            true_qoe01,
            watch_s: self.clip.watch_s + stall_s,
        };
        Ok((clip, dq))
    }
}

/// Pools per-chunk probe estimates into a normalized weight vector.
/// Estimates are combined by a Δq-weighted mean (stronger probes carry more
/// information); chunks with no estimate default to 1 (the uniform prior).
fn finalize(estimates: &[Vec<(f64, f64)>], min_weight: f64) -> Vec<f64> {
    let per_chunk: Vec<Option<f64>> = estimates
        .iter()
        .map(|e| {
            if e.is_empty() {
                None
            } else {
                let total_dq: f64 = e.iter().map(|&(_, dq)| dq).sum();
                Some(e.iter().map(|&(est, dq)| est * dq).sum::<f64>() / total_dq)
            }
        })
        .collect();
    let known: Vec<f64> = per_chunk.iter().filter_map(|&v| v).collect();
    if known.is_empty() {
        return vec![1.0; estimates.len()];
    }
    let mean = known.iter().sum::<f64>() / known.len() as f64;
    per_chunk
        .iter()
        .map(|v| match v {
            // Scale known estimates so their mean is 1; unknown chunks take
            // the uniform prior.
            Some(w) if mean > 1e-12 => (w / mean).max(min_weight),
            _ => 1.0,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sensei_video::content::{Genre, SceneKind, SceneSpec};

    /// A probe scored the way the render-based scheduler did: the whole
    /// render through the oracle, its watch time, and `Δq` summed over
    /// every chunk's KSQI score against the pristine reference's.
    fn scored_render(
        source: &SourceVideo,
        ladder: &BitrateLadder,
        incident: Incident,
    ) -> (Clip, f64) {
        let oracle = TrueQoe::default();
        let base = Ksqi::canonical();
        let ref_scores = base.chunk_scores(&RenderedVideo::pristine(source, ladder));
        let render = RenderedVideo::with_incidents(source, ladder, &[incident]).unwrap();
        let dq = ref_scores
            .iter()
            .zip(&base.chunk_scores(&render))
            .map(|(r, s)| (r - s).max(0.0))
            .sum();
        let clip = Clip {
            true_qoe01: oracle.qoe01(source, &render).unwrap(),
            watch_s: render.content_duration_s() + render.total_rebuffer_s(),
        };
        (clip, dq)
    }

    /// Stalls of several lengths and drops to every level over one to
    /// three chunks, at every chunk of an `n`-chunk video.
    fn incidents(n: usize, ladder: &BitrateLadder) -> Vec<Incident> {
        let mut all = Vec::new();
        for chunk in 0..n {
            for duration_s in [0.25, 1.0, 2.0, 3.0, 4.0, 14.0] {
                all.push(Incident::Rebuffer { chunk, duration_s });
            }
            for level in 0..ladder.len() {
                for len_chunks in 1..=3.min(n - chunk) {
                    all.push(Incident::BitrateDrop {
                        chunk,
                        len_chunks,
                        level,
                    });
                }
            }
        }
        all
    }

    /// Every probe of `source` scores bit for bit as its render does.
    /// `Δq` may differ from the render's only in the sign of a zero,
    /// which `==` does not see and the `Δq > 1e-9` gate ignores.
    fn assert_probes_score_as_renders(source: &SourceVideo, ladder: &BitrateLadder) {
        let oracle = TrueQoe::default();
        let mut reference = PristineFold::new(&oracle, source, ladder);
        let pristine = RenderedVideo::pristine(source, ladder);
        assert_eq!(
            reference.clip.true_qoe01.to_bits(),
            oracle.qoe01(source, &pristine).unwrap().to_bits()
        );
        for incident in incidents(source.num_chunks(), ladder) {
            let (clip, dq) = reference.probe(&incident).unwrap();
            let (want, want_dq) = scored_render(source, ladder, incident);
            assert_eq!(
                clip.true_qoe01.to_bits(),
                want.true_qoe01.to_bits(),
                "{incident:?}"
            );
            assert_eq!(
                clip.watch_s.to_bits(),
                want.watch_s.to_bits(),
                "{incident:?}"
            );
            assert_eq!(dq, want_dq, "{incident:?}");
        }
    }

    /// A ladder whose top sits above the oracle's 2850 kbps floor, so a
    /// drop of every chunk lowers the bitrate chunks are judged against
    /// and the probe must be folded whole.
    fn tall_ladder() -> BitrateLadder {
        BitrateLadder::new(vec![300.0, 1200.0, 4300.0]).unwrap()
    }

    #[test]
    fn probes_score_as_their_renders_at_every_chunk() {
        for ladder in [BitrateLadder::default_paper(), tall_ladder()] {
            assert_probes_score_as_renders(&source(), &ladder);
        }
    }

    #[test]
    fn probes_of_a_one_chunk_video_score_as_their_renders() {
        // On the tall ladder every drop lowers the judging bitrate, and
        // the insensitive scenes keep the degraded QoE off its 0 clamp.
        for kind in [SceneKind::KeyMoment, SceneKind::Scenic, SceneKind::AdBreak] {
            let one =
                SourceVideo::from_script("one-chunk", Genre::Sports, &[SceneSpec::new(kind, 1)], 5)
                    .unwrap();
            for ladder in [BitrateLadder::default_paper(), tall_ladder()] {
                assert_probes_score_as_renders(&one, &ladder);
            }
        }
    }

    proptest! {
        /// Random scene scripts, on both ladders.
        #[test]
        fn probes_score_as_their_renders(
            seed in 0u64..1_000_000,
            scenes in prop::collection::vec((0usize..5, 1usize..4), 1..4),
            tall in 0u8..2,
        ) {
            let kinds = [
                SceneKind::NormalPlay,
                SceneKind::KeyMoment,
                SceneKind::Scenic,
                SceneKind::AdBreak,
                SceneKind::Replay,
            ];
            let script: Vec<SceneSpec> = scenes
                .iter()
                .map(|&(kind, len)| SceneSpec::new(kinds[kind], len))
                .collect();
            let video = SourceVideo::from_script("prop", Genre::Sports, &script, seed).unwrap();
            let ladder = if tall == 1 { tall_ladder() } else { BitrateLadder::default_paper() };
            assert_probes_score_as_renders(&video, &ladder);
        }
    }

    #[test]
    fn invalid_probes_fail_as_their_renders_do() {
        let src = source();
        let ladder = BitrateLadder::default_paper();
        let oracle = TrueQoe::default();
        let mut reference = PristineFold::new(&oracle, &src, &ladder);
        for incident in [
            Incident::Rebuffer {
                chunk: 12,
                duration_s: 1.0,
            },
            Incident::Rebuffer {
                chunk: 0,
                duration_s: 0.0,
            },
            Incident::BitrateDrop {
                chunk: 11,
                len_chunks: 2,
                level: 0,
            },
            Incident::BitrateDrop {
                chunk: 0,
                len_chunks: 0,
                level: 5,
            },
        ] {
            let want = RenderedVideo::with_incidents(&src, &ladder, &[incident]).unwrap_err();
            assert_eq!(
                reference.probe(&incident).unwrap_err(),
                CrowdError::Video(want)
            );
        }
    }

    fn source() -> SourceVideo {
        SourceVideo::from_script(
            "profiler-test",
            Genre::Sports,
            &[
                SceneSpec::new(SceneKind::NormalPlay, 4),
                SceneSpec::new(SceneKind::KeyMoment, 3),
                SceneSpec::new(SceneKind::Scenic, 3),
                SceneSpec::new(SceneKind::AdBreak, 2),
            ],
            77,
        )
        .unwrap()
    }

    #[test]
    fn profiling_recovers_sensitivity_ordering() {
        let src = source();
        let ladder = BitrateLadder::default_paper();
        let profiler = WeightProfiler::paper_default(3);
        let profile = profiler
            .profile(&TrueQoe::default(), &src, &ladder, 5)
            .unwrap();
        let w = profile.weights.as_slice();
        let truth = SensitivityWeights::ground_truth(&src);
        let srcc = sensei_ml::stats::spearman(w, truth.as_slice()).unwrap();
        assert!(srcc > 0.6, "inferred-vs-true SRCC = {srcc}");
        // Key moments (chunks 4-6) must outweigh scenic chunks (7-9).
        let key_mean = (w[4] + w[5] + w[6]) / 3.0;
        let scenic_mean = (w[7] + w[8] + w[9]) / 3.0;
        assert!(
            key_mean > scenic_mean,
            "key {key_mean} vs scenic {scenic_mean}"
        );
    }

    #[test]
    fn weights_are_normalized_mean_one() {
        let src = source();
        let ladder = BitrateLadder::default_paper();
        let profile = WeightProfiler::paper_default(7)
            .profile(&TrueQoe::default(), &src, &ladder, 9)
            .unwrap();
        let mean: f64 =
            profile.weights.as_slice().iter().sum::<f64>() / profile.weights.len() as f64;
        assert!((mean - 1.0).abs() < 1e-9);
    }

    #[test]
    fn exhaustive_costs_far_more_than_pruned() {
        // Fig. 12c: cost pruning cuts ~96.7% of the cost.
        let src = source();
        let ladder = BitrateLadder::default_paper();
        let profiler = WeightProfiler::paper_default(11);
        let oracle = TrueQoe::default();
        let pruned = profiler.profile(&oracle, &src, &ladder, 13).unwrap();
        let exhaustive = profiler
            .profile_exhaustive(&oracle, &src, &ladder, 13)
            .unwrap();
        let ratio = exhaustive.cost_usd / pruned.cost_usd;
        assert!(ratio > 8.0, "exhaustive/pruned cost ratio = {ratio:.1}");
        // Exhaustive estimates should be at least as good (more data).
        let truth = SensitivityWeights::ground_truth(&src);
        let srcc_ex =
            sensei_ml::stats::spearman(exhaustive.weights.as_slice(), truth.as_slice()).unwrap();
        assert!(srcc_ex > 0.6, "exhaustive SRCC = {srcc_ex}");
    }

    #[test]
    fn cost_per_minute_is_in_paper_ballpark() {
        // The paper pays ≈ $31.4 per minute of video with the pruned
        // pipeline; we accept the same order of magnitude.
        let src = source();
        let ladder = BitrateLadder::default_paper();
        let profile = WeightProfiler::paper_default(15)
            .profile(&TrueQoe::default(), &src, &ladder, 17)
            .unwrap();
        let per_min = profile.cost_per_minute_usd(&src);
        assert!(
            (5.0..150.0).contains(&per_min),
            "cost per minute = ${per_min:.1}"
        );
    }

    #[test]
    fn profiling_is_deterministic() {
        let src = source();
        let ladder = BitrateLadder::default_paper();
        let run = || {
            WeightProfiler::paper_default(19)
                .profile(&TrueQoe::default(), &src, &ladder, 21)
                .unwrap()
                .weights
        };
        assert_eq!(run().as_slice(), run().as_slice());
    }

    #[test]
    fn step2_runs_only_on_outliers() {
        let src = source();
        let ladder = BitrateLadder::default_paper();
        // With a huge alpha nothing is an outlier -> fewer renders rated.
        let config = ProfilerConfig {
            alpha: 10.0,
            ..ProfilerConfig::default()
        };
        let no_step2 = WeightProfiler::new(RaterPool::masters(1), config)
            .profile(&TrueQoe::default(), &src, &ladder, 3)
            .unwrap();
        assert_eq!(no_step2.renders_rated, src.num_chunks());
        let with_step2 = WeightProfiler::paper_default(1)
            .profile(&TrueQoe::default(), &src, &ladder, 3)
            .unwrap();
        assert!(with_step2.renders_rated > src.num_chunks());
        assert!(with_step2.cost_usd > no_step2.cost_usd);
    }

    #[test]
    fn finalize_defaults_unknown_chunks_to_uniform() {
        let estimates = vec![vec![(2.0, 0.2), (2.2, 0.2)], vec![], vec![(1.0, 0.2)]];
        let w = finalize(&estimates, 0.05);
        assert_eq!(w[1], 1.0);
        assert!(w[0] > w[2]);
        let all_empty = finalize(&[vec![], vec![]], 0.05);
        assert_eq!(all_empty, vec![1.0, 1.0]);
    }

    #[test]
    fn finalize_weights_strong_probes_more() {
        // A noisy weak probe must not drag a strong probe's estimate far.
        let estimates = vec![vec![(2.0, 0.5), (8.0, 0.01)], vec![(1.0, 0.5)]];
        let w = finalize(&estimates, 0.05);
        // dq-weighted mean of chunk 0 is ~2.12, so the ratio stays near 2.
        assert!((w[0] / w[1] - 2.1).abs() < 0.2, "ratio = {}", w[0] / w[1]);
    }
}
