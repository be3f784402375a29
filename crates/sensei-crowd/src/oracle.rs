//! The hidden ground-truth QoE function ("what users actually feel").
//!
//! Design (a stand-in for real user ratings; see "Substitutions" in
//! README.md):
//!
//! 1. **Sensitivity-amplified degradation.** Each chunk's *experienced*
//!    quality is its reference quality minus its degradations (visual
//!    quality lost to lower bitrate, stalls, switches) scaled by the chunk's
//!    latent sensitivity `s_i`: `e_i = ref_i − s_i · deg_i`. This encodes
//!    the paper's central finding — the same incident hurts more at a
//!    sensitive moment (§2.3) — and its rank-stability across incident
//!    types (Fig. 5), since `s_i` multiplies *any* degradation.
//! 2. **Peak-end judgment.** Session rating blends the mean experienced
//!    quality with the worst moment: `Q* = 0.65·mean(e) + 0.35·min(e)`.
//!    Humans do not average a 1-second stall away over a 3:40 video — a
//!    salient bad moment dominates recall (Kahneman's peak-end rule). This
//!    is what gives single-incident renders the large MOS gaps of Fig. 1
//!    while keeping SENSEI's *linear* Eq.-2 model a good-but-imperfect
//!    approximation (PLCC ≈ 0.85 in Fig. 15, not 1.0).
//!
//! The latent sensitivity `s_i` is [`SourceVideo::true_sensitivity`].
//! This oracle reads it in [`TrueQoe::qoe01`], and the crowd profiler
//! reads it to score its probes the same way. Through
//! [`sensei_video::SensitivityWeights::ground_truth`] it is also every
//! experiment's `true_weights`, which the experiment's lane scorer feeds
//! this oracle's [`QoeFold`], the policies' weights under the
//! `GroundTruth` weight source, and the ground truth of the Table 1,
//! Fig. 6 and Fig. 20 benches. Raters see only the oracle's score, and
//! crowd-weighted policies only the weights the raters recover.

use sensei_video::quality::visual_quality;
use sensei_video::{IncidentWalk, RenderedChunk, RenderedVideo, SourceVideo};

use crate::CrowdError;

/// The hidden QoE oracle.
#[derive(Debug, Clone)]
pub struct TrueQoe {
    /// Stall penalty per unit normalized stall (the same β as
    /// [`sensei_qoe::Ksqi::canonical`]).
    pub rebuffer_penalty: f64,
    /// Switch penalty per unit |Δvq| (the same γ as
    /// [`sensei_qoe::Ksqi::canonical`]).
    pub switch_penalty: f64,
    /// Weight of the mean term in the peak-end blend.
    pub mean_weight: f64,
    /// Weight of the worst-moment term in the peak-end blend.
    pub worst_weight: f64,
    /// Affine MOS map offset.
    pub map_offset: f64,
    /// Affine MOS map slope.
    pub map_slope: f64,
}

impl Default for TrueQoe {
    fn default() -> Self {
        Self {
            rebuffer_penalty: 0.9,
            switch_penalty: 0.35,
            mean_weight: 0.65,
            worst_weight: 0.35,
            map_offset: 0.10,
            map_slope: 0.95,
        }
    }
}

impl TrueQoe {
    /// True normalized QoE in `[0, 1]` — the peak-end blend mapped through
    /// the affine MOS curve.
    ///
    /// # Errors
    ///
    /// Returns an error when the render does not match the source video
    /// (name or chunk count).
    pub fn qoe01(&self, source: &SourceVideo, render: &RenderedVideo) -> Result<f64, CrowdError> {
        let mut fold = self.fold_render(source, render)?;
        for (c, s) in render.chunks().iter().zip(source.true_sensitivity()) {
            fold.push(s, c);
        }
        Ok(fold.qoe01())
    }

    /// An empty [`QoeFold`] for one session: its highest streamed bitrate
    /// (`0.0` for none), chunk duration and startup delay.
    #[must_use]
    pub fn fold(
        &self,
        max_bitrate_kbps: f64,
        chunk_duration_s: f64,
        startup_delay_s: f64,
    ) -> QoeFold<'_> {
        QoeFold {
            oracle: self,
            top_kbps: max_bitrate_kbps.max(2850.0),
            chunk_duration_s,
            incidents: IncidentWalk::new(startup_delay_s),
            sum: 0.0,
            worst: f64::INFINITY,
            count: 0,
        }
    }

    /// The empty fold for `render`, after checking it belongs to `source`.
    fn fold_render(
        &self,
        source: &SourceVideo,
        render: &RenderedVideo,
    ) -> Result<QoeFold<'_>, CrowdError> {
        if render.source_name() != source.name() || render.num_chunks() != source.num_chunks() {
            return Err(CrowdError::SourceMismatch {
                render: render.source_name().to_string(),
                source: source.name().to_string(),
            });
        }
        let max_bitrate_kbps = render
            .chunks()
            .iter()
            .map(|c| c.bitrate_kbps)
            .fold(0.0, f64::max);
        Ok(self.fold(
            max_bitrate_kbps,
            render.chunk_duration_s(),
            render.startup_delay_s(),
        ))
    }
}

/// The oracle's running fold over one session's chunks, fed in playback
/// order — the one per-chunk loop behind [`TrueQoe::qoe01`]. A caller
/// that holds a session as arrays rather than a [`RenderedVideo`] (the
/// fleet's lane scoring) feeds it the same chunks and gets the same bits.
#[derive(Debug, Clone)]
pub struct QoeFold<'a> {
    oracle: &'a TrueQoe,
    /// Reference bitrate every chunk is judged against: the session's
    /// highest streamed bitrate, floored at the paper ladder's top.
    top_kbps: f64,
    chunk_duration_s: f64,
    /// Each chunk's stall (the startup delay charged to the first) and
    /// switch terms.
    incidents: IncidentWalk,
    sum: f64,
    worst: f64,
    count: u32,
}

impl QoeFold<'_> {
    /// Folds in the next chunk, whose latent sensitivity (normalized to
    /// mean 1 over the video, as [`SourceVideo::true_sensitivity`]
    /// returns it) is `sensitivity`, and returns its experienced quality.
    #[inline]
    pub fn push(&mut self, sensitivity: f64, c: &RenderedChunk) -> f64 {
        let oracle = self.oracle;
        let reference = visual_quality(self.top_kbps, c.complexity);
        let (stall, switch) = self.incidents.step(c);
        // The stall term grows without a cap: sitting through a
        // 14-second freeze is strictly worse than a 4-second one.
        let deg = (reference - c.vq).max(0.0)
            + oracle.rebuffer_penalty * (stall / self.chunk_duration_s).max(0.0)
            + oracle.switch_penalty * switch;
        let e = (reference - sensitivity * deg).clamp(-2.0, 1.0);
        self.push_term(e);
        e
    }

    /// Folds in a chunk whose experienced quality `e` is already known —
    /// a term [`Self::push`] returned for the same chunk, judged against
    /// the same top bitrate after the same previous chunk.
    #[inline]
    pub(crate) fn push_term(&mut self, e: f64) {
        self.sum += e;
        self.worst = self.worst.min(e);
        self.count += 1;
    }

    /// The bitrate every chunk is judged against. Two folds with the same
    /// top, chunk duration and fed chunks hold the same bits.
    pub(crate) fn top_kbps(&self) -> f64 {
        self.top_kbps
    }

    /// True normalized QoE in `[0, 1]` of the chunks folded so far.
    #[must_use]
    pub fn qoe01(&self) -> f64 {
        let oracle = self.oracle;
        let mean = self.sum / f64::from(self.count);
        let q = oracle.mean_weight * mean + oracle.worst_weight * self.worst;
        (oracle.map_offset + oracle.map_slope * q).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::{build_series, IncidentKind};
    use sensei_video::content::{Genre, SceneKind, SceneSpec};
    use sensei_video::{BitrateLadder, Incident};

    fn source() -> SourceVideo {
        SourceVideo::from_script(
            "oracle-test",
            Genre::Sports,
            &[
                SceneSpec::new(SceneKind::Scenic, 3),
                SceneSpec::new(SceneKind::NormalPlay, 3),
                SceneSpec::new(SceneKind::KeyMoment, 3),
                SceneSpec::new(SceneKind::AdBreak, 3),
            ],
            11,
        )
        .unwrap()
    }

    fn pristine() -> RenderedVideo {
        RenderedVideo::pristine(&source(), &BitrateLadder::default_paper())
    }

    fn stall_at(chunk: usize, secs: f64) -> RenderedVideo {
        RenderedVideo::with_incidents(
            &source(),
            &BitrateLadder::default_paper(),
            &[Incident::Rebuffer {
                chunk,
                duration_s: secs,
            }],
        )
        .unwrap()
    }

    #[test]
    fn pristine_scores_high() {
        let oracle = TrueQoe::default();
        let q = oracle.qoe01(&source(), &pristine()).unwrap();
        assert!(q > 0.7, "pristine QoE = {q}");
    }

    #[test]
    fn stall_at_key_moment_hurts_much_more_than_scenic() {
        // The Fig. 1 phenomenon: same 1-second stall, very different MOS.
        let oracle = TrueQoe::default();
        let src = source();
        let q_scenic = oracle.qoe01(&src, &stall_at(1, 1.0)).unwrap();
        let q_key = oracle.qoe01(&src, &stall_at(7, 1.0)).unwrap();
        let gap = (q_scenic - q_key) / q_key;
        assert!(
            gap > 0.15,
            "key-moment stall should hurt >=15% more (gap = {gap:.3})"
        );
    }

    #[test]
    fn ad_break_stall_is_mild_despite_high_motion() {
        // Ads are highly dynamic but insensitive — the LSTM-QoE confounder.
        let oracle = TrueQoe::default();
        let src = source();
        let q_ad = oracle.qoe01(&src, &stall_at(10, 1.0)).unwrap();
        let q_key = oracle.qoe01(&src, &stall_at(7, 1.0)).unwrap();
        assert!(
            q_ad > q_key,
            "ad stall {q_ad} should beat key-moment stall {q_key}"
        );
    }

    #[test]
    fn longer_stalls_hurt_more_but_preserve_ranking() {
        // Fig. 4/5: absolute QoE depends on the incident, rank does not.
        let oracle = TrueQoe::default();
        let src = source();
        let one_s: Vec<f64> = (0..12)
            .map(|k| oracle.qoe01(&src, &stall_at(k, 1.0)).unwrap())
            .collect();
        let four_s: Vec<f64> = (0..12)
            .map(|k| oracle.qoe01(&src, &stall_at(k, 4.0)).unwrap())
            .collect();
        for (a, b) in one_s.iter().zip(&four_s) {
            assert!(b < a, "4s stall must be worse than 1s at the same spot");
        }
        let srcc = sensei_ml::stats::spearman(&one_s, &four_s).unwrap();
        assert!(srcc > 0.8, "rank stability across incidents: SRCC = {srcc}");
    }

    #[test]
    fn bitrate_drops_are_also_sensitivity_scaled() {
        let oracle = TrueQoe::default();
        let src = source();
        let ladder = BitrateLadder::default_paper();
        let drop_at = |chunk| {
            RenderedVideo::with_incidents(
                &src,
                &ladder,
                &[Incident::BitrateDrop {
                    chunk,
                    len_chunks: 1,
                    level: 0,
                }],
            )
            .unwrap()
        };
        let q_scenic = oracle.qoe01(&src, &drop_at(1)).unwrap();
        let q_key = oracle.qoe01(&src, &drop_at(7)).unwrap();
        assert!(q_scenic > q_key);
    }

    /// The mean-1 sensitivity vector normalized the way
    /// [`sensei_video::SensitivityWeights::new`] normalizes raw weights.
    fn normalized_vector(src: &SourceVideo) -> Vec<f64> {
        let raw = src.chunks().iter().map(|c| c.sensitivity).collect();
        let weights = sensei_video::SensitivityWeights::new(raw).unwrap();
        weights.as_slice().to_vec()
    }

    /// `qoe01` as it was computed from a normalized sensitivity vector.
    fn vector_path(oracle: &TrueQoe, src: &SourceVideo, render: &RenderedVideo) -> f64 {
        let mut fold = oracle.fold_render(src, render).unwrap();
        for (c, &s) in render.chunks().iter().zip(&normalized_vector(src)) {
            fold.push(s, c);
        }
        fold.qoe01()
    }

    #[test]
    fn folded_sensitivities_equal_the_normalized_vector() {
        let oracle = TrueQoe::default();
        let ladder = BitrateLadder::default_paper();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for entry in sensei_video::corpus::table1(2021) {
            let src = &entry.video;
            let folded: Vec<f64> = src.true_sensitivity().collect();
            assert_eq!(
                bits(&folded),
                bits(&normalized_vector(src)),
                "{}",
                src.name()
            );
            let series = IncidentKind::ALL
                .iter()
                .map(|&kind| build_series(src, &ladder, kind).unwrap());
            for render in series.flatten() {
                assert_eq!(
                    oracle.qoe01(src, &render).unwrap().to_bits(),
                    vector_path(&oracle, src, &render).to_bits(),
                    "{}",
                    src.name()
                );
            }
        }
    }

    #[test]
    fn mismatched_render_is_rejected() {
        let oracle = TrueQoe::default();
        let other = SourceVideo::from_script(
            "other",
            Genre::Nature,
            &[SceneSpec::new(SceneKind::Scenic, 12)],
            1,
        )
        .unwrap();
        assert!(matches!(
            oracle.qoe01(&other, &pristine()).unwrap_err(),
            CrowdError::SourceMismatch { .. }
        ));
    }

    #[test]
    fn startup_delay_charged_like_a_stall() {
        let oracle = TrueQoe::default();
        let src = source();
        let base = pristine();
        let delayed = RenderedVideo::new(
            base.source_name(),
            base.chunk_duration_s(),
            2.0,
            base.chunks().to_vec(),
        )
        .unwrap();
        assert!(oracle.qoe01(&src, &delayed).unwrap() < oracle.qoe01(&src, &base).unwrap());
    }
}
