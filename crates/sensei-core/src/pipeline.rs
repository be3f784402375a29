//! Per-video onboarding: the Fig. 7/8 pipeline.
//!
//! Given a source video and a crowdsourcing budget configuration, SENSEI
//! (1) encodes the video on the ladder, (2) runs the two-step crowdsourcing
//! scheduler to profile per-chunk sensitivity, (3) writes the weights into
//! the DASH manifest, and (4) derives the reweighted QoE model. The output
//! is everything a CDN + player deployment needs.

use crate::CoreError;
use sensei_crowd::{TrueQoe, WeightProfile, WeightProfiler};
use sensei_dash::{Manifest, Representation};
use sensei_qoe::{Ksqi, SenseiQoe};
use sensei_video::{BitrateLadder, EncodedVideo, SensitivityWeights, SourceVideo};

/// The SENSEI onboarding system.
#[derive(Debug, Clone)]
pub struct Sensei {
    ladder: BitrateLadder,
    profiler: WeightProfiler,
}

/// Everything produced by onboarding one video.
#[derive(Debug, Clone)]
pub struct OnboardedVideo {
    /// The encoded ladder representation.
    pub encoded: EncodedVideo,
    /// Crowdsourced per-chunk sensitivity weights.
    pub weights: SensitivityWeights,
    /// The weight-extended DASH manifest.
    pub manifest: Manifest,
    /// Profiling accounting (cost, delay, renders).
    pub profile: WeightProfile,
    /// The video's reweighted QoE model (canonical KSQI base).
    pub qoe: SenseiQoe,
}

impl Sensei {
    /// Builds the system with the paper-default ladder, scheduler, and a
    /// master-worker rater pool.
    pub fn paper_default(seed: u64) -> Self {
        Self {
            ladder: BitrateLadder::default_paper(),
            profiler: WeightProfiler::paper_default(seed),
        }
    }

    /// The bitrate ladder in use.
    pub fn ladder(&self) -> &BitrateLadder {
        &self.ladder
    }

    /// Onboards one source video end to end, with the crowd's raters
    /// judging by `oracle`.
    ///
    /// # Errors
    ///
    /// Returns an error when crowdsourcing or manifest construction fails.
    pub fn onboard(
        &self,
        oracle: &TrueQoe,
        source: &SourceVideo,
        seed: u64,
    ) -> Result<OnboardedVideo, CoreError> {
        let encoded = EncodedVideo::encode(source, &self.ladder, seed);
        let profile = self.profiler.profile(oracle, source, &self.ladder, seed)?;
        let manifest = build_manifest(source, &encoded, Some(&profile.weights))?;
        let qoe = SenseiQoe::new(Ksqi::canonical(), profile.weights.clone());
        Ok(OnboardedVideo {
            encoded,
            weights: profile.weights.clone(),
            manifest,
            profile,
            qoe,
        })
    }
}

/// Builds a (optionally weight-extended) manifest from an encoded video.
///
/// # Errors
///
/// Returns an error when the manifest would be structurally invalid.
// DASH `bandwidth` is an integer bps field; ladder kbps values are
// small whole numbers, so kbps*1000 is exact and far below 2^53.
#[allow(clippy::cast_possible_truncation)]
pub fn build_manifest(
    source: &SourceVideo,
    encoded: &EncodedVideo,
    weights: Option<&SensitivityWeights>,
) -> Result<Manifest, CoreError> {
    let representations = encoded
        .ladder()
        .levels()
        .iter()
        .enumerate()
        .map(|(level, &kbps)| {
            let segment_sizes_bits = (0..encoded.num_chunks())
                .map(|c| encoded.size_bits(c, level))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Representation {
                id: format!("r{level}"),
                bandwidth_bps: (kbps * 1000.0) as u64,
                segment_sizes_bits,
            })
        })
        .collect::<Result<Vec<_>, sensei_video::VideoError>>()?;
    let manifest = Manifest {
        title: source.name().to_string(),
        chunk_duration_s: source.chunk_duration_s(),
        representations,
        weights: weights.map(|w| w.as_slice().to_vec()),
    };
    manifest.validate()?;
    Ok(manifest)
}

/// Recovers the sensitivity weights a manifest carries (what a SENSEI
/// player does after parsing the MPD).
///
/// # Errors
///
/// Returns an error when the manifest has no weight extension or the
/// weights are invalid.
pub fn weights_from_manifest(manifest: &Manifest) -> Result<SensitivityWeights, CoreError> {
    let raw = manifest
        .weights
        .as_ref()
        .ok_or_else(|| CoreError::BadConfig("manifest carries no sensei:weights".to_string()))?;
    Ok(SensitivityWeights::new(raw.clone())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensei_video::corpus;

    #[test]
    fn onboarding_produces_consistent_artifacts() {
        let entry = corpus::by_name("Soccer1", 7).unwrap();
        let sensei = Sensei::paper_default(3);
        let onboarded = sensei
            .onboard(&TrueQoe::default(), &entry.video, 5)
            .unwrap();
        let n = entry.video.num_chunks();
        assert_eq!(onboarded.weights.len(), n);
        assert_eq!(onboarded.manifest.num_chunks(), n);
        assert_eq!(onboarded.encoded.num_chunks(), n);
        assert!(onboarded.profile.cost_usd > 0.0);
        // Manifest round-trips through XML with the weights intact.
        let xml = onboarded.manifest.to_xml().unwrap();
        let parsed = Manifest::parse(&xml).unwrap();
        let recovered = weights_from_manifest(&parsed).unwrap();
        for (a, b) in recovered
            .as_slice()
            .iter()
            .zip(onboarded.weights.as_slice())
        {
            assert!((a - b).abs() < 2e-3, "weight drifted: {a} vs {b}");
        }
    }

    #[test]
    fn onboarded_weights_follow_content() {
        // The Soccer1 manifest should mark the goal region as sensitive.
        let entry = corpus::by_name("Soccer1", 7).unwrap();
        let sensei = Sensei::paper_default(11);
        let onboarded = sensei
            .onboard(&TrueQoe::default(), &entry.video, 13)
            .unwrap();
        let truth = SensitivityWeights::ground_truth(&entry.video);
        let srcc =
            sensei_ml::stats::spearman(onboarded.weights.as_slice(), truth.as_slice()).unwrap();
        assert!(srcc > 0.5, "crowd weights vs truth SRCC = {srcc:.2}");
    }

    #[test]
    fn weights_from_manifest_requires_extension() {
        let entry = corpus::by_name("Mountain", 7).unwrap();
        let encoded = EncodedVideo::encode(&entry.video, &BitrateLadder::default_paper(), 1);
        let manifest = build_manifest(&entry.video, &encoded, None).unwrap();
        assert!(matches!(
            weights_from_manifest(&manifest),
            Err(CoreError::BadConfig(_))
        ));
    }
}
