//! KSQI: the additive, knowledge-driven QoE baseline.
//!
//! KSQI (Duanmu et al. 2019) "combines VMAF, rebuffering ratio, and quality
//! switches in a linear regression model" (§2.1) and has the additive form
//! `Q = Σ q_i` of Eq. 1 — which is exactly why the paper picks it as
//! SENSEI's base model. Our KSQI expresses the session QoE as an affine
//! function of the canonical per-chunk terms:
//!
//! ```text
//! Q = a·mean(vq) − b·mean(stall_norm) − c·mean(|Δvq|) + d
//! ```
//!
//! fit by ridge regression on MOS labels, and exposes the per-chunk
//! decomposition `q_i` required by SENSEI's reweighting (Eq. 2) and by the
//! Fugu objective (Eq. 3).

use crate::{validate_training_set, QoeError, QoeModel};
use sensei_ml::regress::LinearModel;
use sensei_video::RenderedVideo;

/// The KSQI model. Construct untrained via [`Ksqi::canonical`] or fit with
/// [`Ksqi::fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct Ksqi {
    /// Coefficient on mean visual quality.
    a: f64,
    /// Coefficient on mean normalized stall (positive = penalty).
    b: f64,
    /// Coefficient on mean switch magnitude (positive = penalty).
    c: f64,
    /// Intercept.
    d: f64,
    name: String,
}

impl Ksqi {
    /// The canonical (untrained) coefficients: a unit quality slope, a
    /// stall penalty β = 0.9 per chunk duration stalled (a 4-second stall
    /// wipes out slightly more than a top-bitrate chunk's quality) and a
    /// switch penalty γ = 0.35 per unit |Δvq|, the oracle's β and γ.
    pub fn canonical() -> Self {
        Self {
            a: 1.0,
            b: 0.9,
            c: 0.35,
            d: 0.0,
            name: "KSQI(canonical)".to_string(),
        }
    }

    /// Fits coefficients on `(renders, mos)` by ridge regression.
    ///
    /// # Errors
    ///
    /// Returns an error on an empty/mismatched training set, labels outside
    /// `[0, 1]`, or a singular regression (degenerate features).
    pub fn fit(renders: &[RenderedVideo], mos: &[f64]) -> Result<Self, QoeError> {
        validate_training_set(renders, mos)?;
        let x: Vec<Vec<f64>> = renders.iter().map(Self::features).collect();
        let model = LinearModel::fit(&x, mos, 1e-6, true)?;
        let w = model.weights();
        Ok(Self {
            a: w[0],
            b: -w[1], // regression learns signed slopes; store as penalties
            c: -w[2],
            d: model.intercept(),
            name: "KSQI".to_string(),
        })
    }

    /// Session-level features: `[mean vq, mean stall_norm, mean |Δvq|]`.
    fn features(render: &RenderedVideo) -> Vec<f64> {
        let n = render.num_chunks() as f64;
        let d = render.chunk_duration_s();
        let mean_vq = render.avg_vq();
        let mut stall = render.startup_delay_s();
        for c in render.chunks() {
            stall += c.rebuffer_s;
        }
        let mean_stall = stall / (n * d);
        let mean_switch = render.switch_magnitude() / n;
        vec![mean_vq, mean_stall, mean_switch]
    }

    /// The fitted coefficients `(a, b, c, d)` with `b`, `c` as positive
    /// penalties.
    pub fn coefficients(&self) -> (f64, f64, f64, f64) {
        (self.a, self.b, self.c, self.d)
    }

    /// Per-chunk decomposition `q_i` such that `predict = clamp(mean(q_i))`.
    /// This is the `q_i` of Eq. 1/2; SENSEI reweights it. Each chunk's
    /// stall and switch terms are [`RenderedVideo::incident_terms`].
    pub fn chunk_scores(&self, render: &RenderedVideo) -> Vec<f64> {
        let d = render.chunk_duration_s();
        (render.incident_terms())
            .map(|(c, (stall, switch))| self.chunk_quality(c.vq, stall, switch, d))
            .collect()
    }

    /// Chunk-level quality for ABR objectives (Fugu's `q(b, t)`): quality of
    /// a chunk streamed at visual quality `vq` with `stall_s` of stall and a
    /// quality-switch delta `switch_delta = |Δvq|` at its boundary (callers
    /// pass 0 when the bitrate did not change). The stall term is unbounded
    /// above (long stalls keep hurting); the score is floored at −4.
    // Inlined into the MPC planners' straight-line leaf loops so the
    // whole per-leaf computation is branch-light slice arithmetic the
    // autovectorizer can work with.
    #[inline]
    pub fn chunk_quality(
        &self,
        vq: f64,
        stall_s: f64,
        switch_delta: f64,
        chunk_duration_s: f64,
    ) -> f64 {
        let stall_norm = (stall_s / chunk_duration_s).max(0.0);
        (self.a * vq - self.b * stall_norm - self.c * switch_delta + self.d).max(-4.0)
    }
}

impl QoeModel for Ksqi {
    fn name(&self) -> &str {
        &self.name
    }

    fn predict(&self, render: &RenderedVideo) -> Result<f64, QoeError> {
        let scores = self.chunk_scores(render);
        let q = scores.iter().sum::<f64>() / scores.len() as f64;
        Ok(q.clamp(0.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{rebuffer_series, source};
    use sensei_video::{BitrateLadder, Incident, RenderedVideo};

    /// Labels from a simple affine function of the KSQI features, so the fit
    /// must recover them nearly exactly.
    fn synthetic_labels(renders: &[RenderedVideo]) -> Vec<f64> {
        renders
            .iter()
            .map(|r| {
                let f = Ksqi::features(r);
                (0.2 + 0.8 * f[0] - 0.9 * f[1] - 0.3 * f[2]).clamp(0.0, 1.0)
            })
            .collect()
    }

    #[test]
    fn canonical_prefers_pristine() {
        let model = Ksqi::canonical();
        let series = rebuffer_series();
        let pristine = model.predict(&series[0]).unwrap();
        for render in &series[1..] {
            assert!(model.predict(render).unwrap() < pristine);
        }
    }

    #[test]
    fn canonical_is_position_blind() {
        // KSQI predicts the SAME QoE wherever the 1-second stall lands —
        // the §2.3 observation that motivates SENSEI.
        let model = Ksqi::canonical();
        let series = rebuffer_series();
        let qs: Vec<f64> = series[1..]
            .iter()
            .map(|r| model.predict(r).unwrap())
            .collect();
        let spread = qs.iter().cloned().fold(0.0_f64, f64::max)
            - qs.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread < 1e-9, "KSQI should not distinguish positions");
    }

    #[test]
    fn fit_recovers_affine_ground_truth() {
        let mut renders = rebuffer_series();
        let src = source();
        let ladder = BitrateLadder::default_paper();
        // Vary both drop level and drop length: a drop has two switch
        // boundaries regardless of length, so varying length decouples the
        // mean-vq feature from the switch-magnitude feature.
        for level in 0..3 {
            for len_chunks in [1, 3, 5] {
                renders.push(
                    RenderedVideo::with_incidents(
                        &src,
                        &ladder,
                        &[Incident::BitrateDrop {
                            chunk: 2,
                            len_chunks,
                            level,
                        }],
                    )
                    .unwrap(),
                );
            }
        }
        let labels = synthetic_labels(&renders);
        let model = Ksqi::fit(&renders, &labels).unwrap();
        let (a, b, c, _) = model.coefficients();
        assert!((a - 0.8).abs() < 0.05, "a = {a}");
        assert!((b - 0.9).abs() < 0.1, "b = {b}");
        assert!((c - 0.3).abs() < 0.15, "c = {c}");
        let preds = model.predict_batch(&renders).unwrap();
        for (p, l) in preds.iter().zip(&labels) {
            assert!((p - l).abs() < 0.02, "pred {p} vs label {l}");
        }
    }

    #[test]
    fn chunk_scores_mean_equals_prediction() {
        let model = Ksqi::canonical();
        let series = rebuffer_series();
        for render in &series {
            let scores = model.chunk_scores(render);
            let mean = scores.iter().sum::<f64>() / scores.len() as f64;
            assert!((model.predict(render).unwrap() - mean.clamp(0.0, 1.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn chunk_quality_matches_chunk_scores() {
        let model = Ksqi::canonical();
        let series = rebuffer_series();
        let render = &series[3];
        let scores = model.chunk_scores(render);
        let chunks = render.chunks();
        // Chunk 1 (no startup delay, same bitrate as chunk 0 -> no switch).
        let manual = model.chunk_quality(
            chunks[1].vq,
            chunks[1].rebuffer_s,
            0.0,
            render.chunk_duration_s(),
        );
        assert!((scores[1] - manual).abs() < 1e-12);
    }

    #[test]
    fn pristine_chunk_scores_equal_vq() {
        let render = RenderedVideo::pristine(&source(), &BitrateLadder::default_paper());
        let scores = Ksqi::canonical().chunk_scores(&render);
        for (s, c) in scores.iter().zip(render.chunks()) {
            assert_eq!(s.to_bits(), c.vq.to_bits());
        }
    }

    #[test]
    fn rebuffering_lowers_exactly_one_chunk() {
        let model = Ksqi::canonical();
        let series = rebuffer_series();
        let pristine = model.chunk_scores(&series[0]);
        // series[k] stalls 1 s before chunk k - 1.
        for (k, render) in series.iter().enumerate().skip(1) {
            let scores = model.chunk_scores(render);
            for (i, (s, p)) in scores.iter().zip(&pristine).enumerate() {
                if i == k - 1 {
                    // 1 s over a 4 s chunk at β = 0.9.
                    assert!((p - s - 0.9 * 0.25).abs() < 1e-9, "chunk {i}: {p} -> {s}");
                } else {
                    assert_eq!(s.to_bits(), p.to_bits(), "chunk {i} unexpectedly changed");
                }
            }
        }
    }

    #[test]
    fn drop_pays_the_switch_at_both_boundary_chunks() {
        let model = Ksqi::canonical();
        let src = source();
        let ladder = BitrateLadder::default_paper();
        let render = RenderedVideo::with_incidents(
            &src,
            &ladder,
            &[Incident::BitrateDrop {
                chunk: 4,
                len_chunks: 2,
                level: 0,
            }],
        )
        .unwrap();
        let pristine = model.chunk_scores(&RenderedVideo::pristine(&src, &ladder));
        let scores = model.chunk_scores(&render);
        let d = render.chunk_duration_s();
        let c = render.chunks();
        // Chunk 4: lower vq and the switch down.
        let down = (c[4].vq - c[3].vq).abs();
        assert!(down > 0.0);
        assert_eq!(scores[4], model.chunk_quality(c[4].vq, 0.0, down, d));
        // Chunk 5: the same low bitrate, no switch.
        assert_eq!(scores[5], model.chunk_quality(c[5].vq, 0.0, 0.0, d));
        // Chunk 6: the pristine vq, but it pays the switch up.
        let up = (c[6].vq - c[5].vq).abs();
        assert!(scores[6] < pristine[6]);
        assert_eq!(scores[6], model.chunk_quality(c[6].vq, 0.0, up, d));
        // Chunks before and after the boundaries are untouched.
        assert_eq!(scores[3], pristine[3]);
        assert_eq!(scores[7], pristine[7]);
    }

    #[test]
    fn startup_delay_is_charged_to_chunk_0_only() {
        let model = Ksqi::canonical();
        let base = RenderedVideo::pristine(&source(), &BitrateLadder::default_paper());
        let delayed = RenderedVideo::new(
            base.source_name(),
            base.chunk_duration_s(),
            2.0,
            base.chunks().to_vec(),
        )
        .unwrap();
        let s0 = model.chunk_scores(&base);
        let s1 = model.chunk_scores(&delayed);
        // 2 s over a 4 s chunk at β = 0.9.
        assert!((s0[0] - s1[0] - 0.9 * 0.5).abs() < 1e-9);
        assert_eq!(s1[1..], s0[1..]);
    }

    #[test]
    fn stall_penalty_keeps_growing_down_to_the_floor() {
        let model = Ksqi::canonical();
        let a = model.chunk_quality(0.8, 4.0, 0.0, 4.0);
        let b = model.chunk_quality(0.8, 8.0, 0.0, 4.0);
        assert!(b < a, "longer stalls must hurt more: {b} vs {a}");
        assert!((a - (0.8 - 0.9)).abs() < 1e-12);
        // ... down to the finite floor.
        assert_eq!(model.chunk_quality(0.8, 1000.0, 0.0, 4.0), -4.0);
    }

    #[test]
    fn fit_validates_input() {
        assert!(Ksqi::fit(&[], &[]).is_err());
        let series = rebuffer_series();
        let labels = vec![0.5; series.len() - 1];
        assert!(Ksqi::fit(&series, &labels).is_err());
        let mut bad = vec![0.5; series.len()];
        bad[0] = 1.5;
        assert!(matches!(
            Ksqi::fit(&series, &bad).unwrap_err(),
            QoeError::InvalidLabel { index: 0, .. }
        ));
    }
}
