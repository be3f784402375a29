//! LSTM-QoE baseline: a recurrent model over per-chunk features.
//!
//! LSTM-QoE (Eswara et al. 2019) "takes STRRED and individual quality
//! incidents as input to a long short-term memory network designed to
//! capture the 'memory effect' of human perception" (§2.1). Critically, the
//! paper notes its heuristic bias: it "assumes that users are more
//! sensitive to rebuffering events in more 'dynamic' scenes" (§1) — so its
//! per-chunk features include the scene-motion channel. That channel
//! correlates imperfectly with true sensitivity (ads are dynamic but
//! unimportant; scoreboards are static but important), which is exactly the
//! failure mode Figs. 1–2 demonstrate.

use crate::{validate_training_set, QoeError, QoeModel};
use sensei_ml::lstm::LstmRegressor;
use sensei_video::RenderedVideo;

/// The LSTM-QoE model.
#[derive(Debug, Clone)]
pub struct LstmQoe {
    net: LstmRegressor,
    name: String,
}

/// Training hyperparameters for [`LstmQoe::fit`].
#[derive(Debug, Clone)]
pub struct LstmQoeConfig {
    /// Hidden-state width.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
}

impl Default for LstmQoeConfig {
    fn default() -> Self {
        Self {
            hidden: 12,
            epochs: 40,
            lr: 0.01,
        }
    }
}

impl LstmQoe {
    /// Per-chunk feature sequence: `[vq, stall_norm, motion, |Δvq| on
    /// bitrate switches]`, the stall and switch from
    /// [`RenderedVideo::incident_terms`] and the stall normalized by the
    /// chunk duration, capped at 2.
    pub fn features(render: &RenderedVideo) -> Vec<Vec<f64>> {
        let d = render.chunk_duration_s();
        (render.incident_terms())
            .map(|(c, (stall, switch))| vec![c.vq, (stall / d).min(2.0), c.motion, switch])
            .collect()
    }

    /// Fits the LSTM on `(renders, mos)`.
    ///
    /// # Errors
    ///
    /// Returns an error on an empty/mismatched training set or labels
    /// outside `[0, 1]`.
    pub fn fit(
        renders: &[RenderedVideo],
        mos: &[f64],
        config: &LstmQoeConfig,
        seed: u64,
    ) -> Result<Self, QoeError> {
        validate_training_set(renders, mos)?;
        let data: Vec<(Vec<Vec<f64>>, f64)> = renders
            .iter()
            .zip(mos)
            .map(|(r, &m)| (Self::features(r), m))
            .collect();
        let mut net = LstmRegressor::new(4, config.hidden, seed)?;
        net.train(&data, config.epochs, config.lr, seed ^ 0x5EED)?;
        Ok(Self {
            net,
            name: "LSTM-QoE".to_string(),
        })
    }
}

impl QoeModel for LstmQoe {
    fn name(&self) -> &str {
        &self.name
    }

    fn predict(&self, render: &RenderedVideo) -> Result<f64, QoeError> {
        Ok(self.net.predict(&Self::features(render))?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::rebuffer_series;

    #[test]
    fn feature_sequence_shape() {
        let renders = rebuffer_series();
        let f = LstmQoe::features(&renders[1]);
        assert_eq!(f.len(), renders[1].num_chunks());
        assert_eq!(f[0].len(), 4);
        // The stall feature fires only on the stalled chunk.
        assert!(f[0][1] > 0.0);
        assert_eq!(f[1][1], 0.0);
    }

    #[test]
    fn unlike_ksqi_it_can_be_position_sensitive() {
        // Train with labels where a stall on a HIGH-MOTION chunk is worse.
        // The LSTM must learn the motion interaction — this is its defining
        // heuristic per §2.1.
        let renders = rebuffer_series();
        let labels: Vec<f64> = renders
            .iter()
            .map(|r| {
                let mut q: f64 = 0.9;
                for c in r.chunks() {
                    if c.rebuffer_s > 0.0 {
                        q -= if c.motion > 0.5 { 0.5 } else { 0.1 };
                    }
                }
                q.clamp(0.0, 1.0)
            })
            .collect();
        let config = LstmQoeConfig {
            epochs: 150,
            ..LstmQoeConfig::default()
        };
        let model = LstmQoe::fit(&renders, &labels, &config, 11).unwrap();
        // Find a high-motion-stall render and a low-motion-stall render.
        let hi = renders
            .iter()
            .position(|r| {
                r.chunks()
                    .iter()
                    .any(|c| c.rebuffer_s > 0.0 && c.motion > 0.7)
            })
            .expect("series stalls every chunk; some are high-motion");
        let lo = renders
            .iter()
            .position(|r| {
                r.chunks()
                    .iter()
                    .any(|c| c.rebuffer_s > 0.0 && c.motion < 0.3)
            })
            .expect("some are low-motion");
        let q_hi = model.predict(&renders[hi]).unwrap();
        let q_lo = model.predict(&renders[lo]).unwrap();
        assert!(
            q_lo > q_hi + 0.05,
            "LSTM should punish dynamic-scene stalls: lo {q_lo} vs hi {q_hi}"
        );
    }

    #[test]
    fn fit_is_deterministic() {
        let renders = rebuffer_series();
        let labels = vec![0.5; renders.len()];
        let cfg = LstmQoeConfig {
            epochs: 5,
            ..LstmQoeConfig::default()
        };
        let a = LstmQoe::fit(&renders, &labels, &cfg, 3).unwrap();
        let b = LstmQoe::fit(&renders, &labels, &cfg, 3).unwrap();
        assert_eq!(
            a.predict(&renders[0]).unwrap(),
            b.predict(&renders[0]).unwrap()
        );
    }

    #[test]
    fn fit_validates_input() {
        assert!(LstmQoe::fit(&[], &[], &LstmQoeConfig::default(), 0).is_err());
        let renders = rebuffer_series();
        assert!(LstmQoe::fit(
            &renders,
            &vec![-0.1; renders.len()],
            &LstmQoeConfig::default(),
            0
        )
        .is_err());
    }

    #[test]
    fn predictions_stay_normalized() {
        let renders = rebuffer_series();
        let labels: Vec<f64> = renders.iter().map(|_| 0.7).collect();
        let cfg = LstmQoeConfig {
            epochs: 10,
            ..LstmQoeConfig::default()
        };
        let model = LstmQoe::fit(&renders, &labels, &cfg, 5).unwrap();
        for r in &renders {
            let p = model.predict(r).unwrap();
            assert!((0.0..=1.0).contains(&p));
        }
    }
}
