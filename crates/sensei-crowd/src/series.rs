//! Video-series methodology (§2.3): the same source video rendered with one
//! low-quality incident at every possible position.
//!
//! This is the instrument behind Fig. 1 (MOS per stall position), Fig. 3
//! (CDF of max–min QoE gaps), Fig. 4 (QoE variability per incident type),
//! and Fig. 5 (rank correlation between incident types).

use crate::campaign::{Campaign, CampaignConfig};
use crate::oracle::TrueQoe;
use crate::rater::RaterPool;
use crate::CrowdError;
use sensei_video::{BitrateLadder, Incident, RenderedVideo, SourceVideo};

/// The three §2.3 incident types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IncidentKind {
    /// A 1-second rebuffering event.
    Rebuffer1s,
    /// A 4-second rebuffering event.
    Rebuffer4s,
    /// A bitrate drop from the top level to 300 kbps for 4 seconds
    /// (one chunk).
    BitrateDrop4s,
}

impl IncidentKind {
    /// All incident kinds.
    pub const ALL: [IncidentKind; 3] = [
        IncidentKind::Rebuffer1s,
        IncidentKind::Rebuffer4s,
        IncidentKind::BitrateDrop4s,
    ];

    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            IncidentKind::Rebuffer1s => "1-sec rebuffering",
            IncidentKind::Rebuffer4s => "4-sec rebuffering",
            IncidentKind::BitrateDrop4s => "bitrate drop (4 s)",
        }
    }

    /// The incident placed at `chunk`.
    pub fn incident(self, chunk: usize) -> Incident {
        match self {
            IncidentKind::Rebuffer1s => Incident::Rebuffer {
                chunk,
                duration_s: 1.0,
            },
            IncidentKind::Rebuffer4s => Incident::Rebuffer {
                chunk,
                duration_s: 4.0,
            },
            IncidentKind::BitrateDrop4s => Incident::BitrateDrop {
                chunk,
                len_chunks: 1,
                level: 0,
            },
        }
    }
}

/// Builds the video series: one render per chunk position.
///
/// # Errors
///
/// Propagates render-construction errors (cannot occur for valid sources).
pub fn build_series(
    source: &SourceVideo,
    ladder: &BitrateLadder,
    kind: IncidentKind,
) -> Result<Vec<RenderedVideo>, CrowdError> {
    (0..source.num_chunks())
        .map(|chunk| {
            RenderedVideo::with_incidents(source, ladder, &[kind.incident(chunk)])
                .map_err(CrowdError::from)
        })
        .collect()
}

/// Rates a series through the crowd (MOS per position), with raters
/// judging by `oracle`.
///
/// # Errors
///
/// Propagates campaign errors.
pub fn crowd_series_mos(
    oracle: &TrueQoe,
    source: &SourceVideo,
    ladder: &BitrateLadder,
    kind: IncidentKind,
    raters_per_render: usize,
    seed: u64,
) -> Result<Vec<f64>, CrowdError> {
    let renders = build_series(source, ladder, kind)?;
    let reference = RenderedVideo::pristine(source, ladder);
    let pool = RaterPool::masters(seed ^ 0x5E1E5);
    let config = CampaignConfig {
        raters_per_render,
        ..CampaignConfig::default()
    };
    let campaign = Campaign::new(source, reference, &renders, oracle, &pool, config)?;
    Ok(campaign.run(seed)?.mos01)
}

/// Noise-free series QoE per position (`oracle` directly, "infinite
/// raters") — used when the experiment's point is the content, not the
/// crowd.
///
/// # Errors
///
/// Propagates oracle errors.
pub fn oracle_series_qoe(
    oracle: &TrueQoe,
    source: &SourceVideo,
    ladder: &BitrateLadder,
    kind: IncidentKind,
) -> Result<Vec<f64>, CrowdError> {
    build_series(source, ladder, kind)?
        .iter()
        .map(|r| oracle.qoe01(source, r))
        .collect()
}

/// The Fig. 3 gap statistic: `(Q_max − Q_min) / Q_min` as a percentage.
pub fn max_min_gap_pct(qoe: &[f64]) -> f64 {
    let max = qoe.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min = qoe.iter().cloned().fold(f64::INFINITY, f64::min);
    if min <= 0.0 {
        return 0.0;
    }
    (max - min) / min * 100.0
}

/// The Fig. 3 windowed variant: the largest within-window gap when the
/// incident and comparison are localized to `window` consecutive positions
/// (12 s = 3 chunks at 4-second boundaries).
pub fn windowed_gap_pct(qoe: &[f64], window: usize) -> f64 {
    if window == 0 || qoe.len() < window {
        return max_min_gap_pct(qoe);
    }
    qoe.windows(window).map(max_min_gap_pct).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensei_video::content::{Genre, SceneKind, SceneSpec};

    fn source() -> SourceVideo {
        SourceVideo::from_script(
            "series-test",
            Genre::Sports,
            &[
                SceneSpec::new(SceneKind::NormalPlay, 3),
                SceneSpec::new(SceneKind::KeyMoment, 2),
                SceneSpec::new(SceneKind::Scenic, 3),
            ],
            33,
        )
        .unwrap()
    }

    #[test]
    fn series_has_one_render_per_chunk() {
        let src = source();
        let ladder = BitrateLadder::default_paper();
        for kind in IncidentKind::ALL {
            let series = build_series(&src, &ladder, kind).unwrap();
            assert_eq!(series.len(), src.num_chunks());
        }
    }

    #[test]
    fn oracle_series_dips_at_key_moments() {
        let (src, oracle) = (source(), TrueQoe::default());
        let ladder = BitrateLadder::default_paper();
        let qoe = oracle_series_qoe(&oracle, &src, &ladder, IncidentKind::Rebuffer1s).unwrap();
        // Positions 3-4 are key moments; 5-7 scenic.
        let key_min = qoe[3].min(qoe[4]);
        let scenic_max = qoe[5].max(qoe[6]).max(qoe[7]);
        assert!(key_min < scenic_max, "series should dip at key moments");
    }

    #[test]
    fn gap_exceeds_forty_percent_for_sports_content() {
        // §2.3: "21 of the 48 video series have a max-min QoE gap of over
        // 40.1%" — sports content with key moments is in that set.
        let (src, oracle) = (source(), TrueQoe::default());
        let ladder = BitrateLadder::default_paper();
        let qoe = oracle_series_qoe(&oracle, &src, &ladder, IncidentKind::Rebuffer4s).unwrap();
        let gap = max_min_gap_pct(&qoe);
        assert!(gap > 40.0, "gap = {gap:.1}%");
    }

    #[test]
    fn rank_correlation_across_incidents_is_strong() {
        // Fig. 5: QoE rankings within a series are agnostic to the incident.
        let (src, oracle) = (source(), TrueQoe::default());
        let ladder = BitrateLadder::default_paper();
        let a = oracle_series_qoe(&oracle, &src, &ladder, IncidentKind::Rebuffer1s).unwrap();
        let b = oracle_series_qoe(&oracle, &src, &ladder, IncidentKind::Rebuffer4s).unwrap();
        let c = oracle_series_qoe(&oracle, &src, &ladder, IncidentKind::BitrateDrop4s).unwrap();
        assert!(sensei_ml::stats::spearman(&a, &b).unwrap() > 0.8);
        assert!(sensei_ml::stats::spearman(&a, &c).unwrap() > 0.7);
    }

    #[test]
    fn crowd_series_approximates_oracle_series() {
        let (src, oracle) = (source(), TrueQoe::default());
        let ladder = BitrateLadder::default_paper();
        let crowd =
            crowd_series_mos(&oracle, &src, &ladder, IncidentKind::Rebuffer1s, 25, 5).unwrap();
        let truth = oracle_series_qoe(&oracle, &src, &ladder, IncidentKind::Rebuffer1s).unwrap();
        let srcc = sensei_ml::stats::spearman(&crowd, &truth).unwrap();
        assert!(srcc > 0.6, "crowd vs oracle SRCC = {srcc}");
    }

    #[test]
    fn gap_statistics() {
        assert!((max_min_gap_pct(&[0.5, 0.75, 1.0]) - 100.0).abs() < 1e-9);
        assert_eq!(max_min_gap_pct(&[0.5, 0.5]), 0.0);
        // Windowed gap over a series where extremes are far apart: local
        // windows see a smaller gap.
        let qoe = [1.0, 0.95, 0.9, 0.85, 0.5];
        let whole = max_min_gap_pct(&qoe);
        let windowed = windowed_gap_pct(&qoe, 3);
        assert!(windowed <= whole + 1e-9);
        assert!(windowed > 0.0);
        // Degenerate windows fall back to the whole-series gap.
        assert_eq!(windowed_gap_pct(&qoe, 0), whole);
        assert_eq!(windowed_gap_pct(&qoe, 9), whole);
    }
}
