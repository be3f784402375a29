//! Lane scoring equals scoring the assembled session, bit for bit.
//!
//! The fleet scores each batch lane straight from the batch's arrays
//! (`LaneScore::of_lane`) instead of assembling a `RenderedVideo` and
//! handing it to `TrueQoe::qoe01` and the render's metric methods. That
//! is only an optimization if every field comes out with the same bits,
//! and every invalid lane fails with the same typed error. Rows here are
//! random and built by hand, independent of the batch engine, over three
//! ladders: the paper's (topping out at exactly the oracle's 2850 kbps
//! reference floor), one topping out above the floor (so the reference
//! bitrate follows the highest level streamed, or sits at a floor that
//! is no ladder level), and one below it.

// Strategy outputs become chunk counts and seconds; exact below 2^52.
#![allow(clippy::cast_precision_loss)]

use proptest::prelude::*;
use sensei_core::experiment::VideoAsset;
use sensei_core::{CoreError, LaneScore};
use sensei_crowd::TrueQoe;
use sensei_sim::{LaneView, SimError};
use sensei_video::content::{Genre, SceneKind, SceneSpec};
use sensei_video::{
    visual_quality, BitrateLadder, EncodedVideo, RenderedChunk, RenderedVideo, SensitivityWeights,
    SourceVideo, VideoError,
};
use std::sync::Arc;

const SCENES: [SceneKind; 4] = [
    SceneKind::Scenic,
    SceneKind::NormalPlay,
    SceneKind::KeyMoment,
    SceneKind::AdBreak,
];

/// The three ladders the rows stream from.
fn ladder(pick: usize) -> BitrateLadder {
    let kbps = match pick % 3 {
        0 => vec![300.0, 750.0, 1200.0, 1850.0, 2850.0],
        1 => vec![400.0, 1100.0, 2400.0, 3600.0, 5200.0, 7800.0],
        _ => vec![150.0, 400.0, 900.0, 1600.0],
    };
    BitrateLadder::new(kbps).unwrap()
}

/// A video of `scenes` (kind index, length) encoded on `ladder`, with
/// ground-truth weights, as `Experiment` onboards it.
fn asset(scenes: &[(usize, usize)], seed: u64, ladder: &BitrateLadder) -> VideoAsset {
    let script: Vec<SceneSpec> = scenes
        .iter()
        .map(|&(kind, len)| SceneSpec::new(SCENES[kind % SCENES.len()], len))
        .collect();
    let source = SourceVideo::from_script("lane-scoring", Genre::Sports, &script, seed).unwrap();
    let encoded = EncodedVideo::encode(&source, ladder, seed ^ 0xE0C);
    let true_weights = SensitivityWeights::ground_truth(&source);
    VideoAsset {
        name: Arc::from(source.name()),
        genre: source.genre().label(),
        dataset: "test",
        weights: true_weights.clone(),
        true_weights,
        source,
        encoded,
        profile_cost_usd: 0.0,
    }
}

/// Expands `(level draw, run length)` pairs into exactly `n` levels on a
/// ladder of `levels` rungs, so neighbouring chunks often share a level
/// (and a bitrate).
fn level_rows(runs: &[(usize, usize)], n: usize, levels: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(n);
    for &(draw, len) in runs.iter().cycle() {
        for _ in 0..len {
            if out.len() == n {
                return out;
            }
            out.push(draw % levels);
        }
    }
    out
}

/// Expands `(stall draw, forced, intentional)` triples into `n` stall
/// rows; most chunks play without a stall.
fn stall_rows(draws: &[(f64, f64, f64)], n: usize) -> Vec<(f64, f64)> {
    (0..n)
        .map(|i| {
            let (u, forced, intentional) = draws[i % draws.len()];
            if u < 0.6 {
                (0.0, 0.0)
            } else if u < 0.8 {
                (forced, 0.0)
            } else {
                (forced, intentional)
            }
        })
        .collect()
}

/// The lane as the result assembly renders it, built here by hand.
fn render(asset: &VideoAsset, lane: &LaneView<'_>) -> Result<RenderedVideo, VideoError> {
    let ladder = asset.encoded.ladder();
    let chunks = asset
        .source
        .chunks()
        .iter()
        .zip(lane.levels.iter().zip(lane.stalls))
        .map(|(content, (&level, &(forced, intentional)))| {
            let kbps = ladder.kbps(level).unwrap();
            RenderedChunk {
                bitrate_kbps: kbps,
                vq: visual_quality(kbps, content.complexity),
                rebuffer_s: forced + intentional,
                intentional_rebuffer_s: intentional,
                motion: content.motion,
                complexity: content.complexity,
            }
        })
        .collect();
    RenderedVideo::new(
        asset.source.name(),
        asset.source.chunk_duration_s(),
        lane.startup_delay_s,
        chunks,
    )
}

/// Checks one lane: equal bits when the render is valid, the same typed
/// error when it is not.
fn check_lane(asset: &VideoAsset, lane: &LaneView<'_>) -> Result<(), TestCaseError> {
    let oracle = TrueQoe::default();
    let got = LaneScore::of_lane(&oracle, asset, lane);
    match (render(asset, lane), got) {
        (Ok(render), Ok(got)) => {
            let want = [
                ("qoe01", oracle.qoe01(&asset.source, &render).unwrap()),
                ("avg_bitrate_kbps", render.avg_bitrate_kbps()),
                ("rebuffer_ratio", render.rebuffer_ratio()),
                ("delivered_bits", render.delivered_bits()),
                (
                    "intentional_stall_s",
                    render
                        .chunks()
                        .iter()
                        .map(|c| c.intentional_rebuffer_s)
                        .sum(),
                ),
            ];
            let got_fields = [
                got.qoe01,
                got.avg_bitrate_kbps,
                got.rebuffer_ratio,
                got.delivered_bits,
                got.intentional_stall_s,
            ];
            for ((field, want), got) in want.iter().zip(got_fields) {
                prop_assert!(
                    got.to_bits() == want.to_bits(),
                    "{field}: lane {got} vs render {want}"
                );
            }
            let switches = lane.levels.windows(2).filter(|w| w[0] != w[1]).count();
            prop_assert_eq!(got.bitrate_switches, switches);
        }
        (Err(want), Err(CoreError::Sim(SimError::Video(got)))) => match (want, got) {
            (
                VideoError::InvalidContent {
                    field: want_field,
                    value: want_value,
                },
                VideoError::InvalidContent { field, value },
            ) => {
                prop_assert_eq!(field, want_field);
                prop_assert!(value.to_bits() == want_value.to_bits());
            }
            (want, got) => {
                prop_assert!(false, "render error {want} vs lane error {got}");
            }
        },
        (want, got) => {
            prop_assert!(false, "render {want:?} vs lane {got:?}");
        }
    }
    Ok(())
}

proptest! {
    /// Valid lanes: random levels (in runs), stalls, intentional pauses
    /// and startup delays.
    #[test]
    fn lane_scores_match_the_assembled_session_bit_for_bit(
        scenes in prop::collection::vec((0usize..4, 1usize..12), 1..5),
        seed in 0u64..1_000_000,
        ladder_pick in 0usize..3,
        runs in prop::collection::vec((0usize..8, 1usize..6), 1..10),
        stalls in prop::collection::vec((0.0f64..1.0, 0.0f64..6.0, 0.0f64..3.0), 1..10),
        startup in (0.0f64..1.0, 0.0f64..8.0),
    ) {
        let ladder = ladder(ladder_pick);
        let asset = asset(&scenes, seed, &ladder);
        let n = asset.source.num_chunks();
        let levels = level_rows(&runs, n, ladder.len());
        let stalls = stall_rows(&stalls, n);
        // Intentional stalls are part of the stall they sit in.
        let stalls: Vec<(f64, f64)> = stalls.iter().map(|&(f, i)| (f.max(0.0), i)).collect();
        let lane = LaneView {
            levels: &levels,
            stalls: &stalls,
            startup_delay_s: if startup.0 < 0.3 { 0.0 } else { startup.1 },
        };
        check_lane(&asset, &lane)?;
    }

    /// Invalid lanes: one corrupted chunk or startup delay fails with the
    /// error `RenderedVideo::new` names, including which check fires
    /// first on a chunk that breaks several.
    #[test]
    fn invalid_lanes_fail_with_the_render_error(
        chunks in 1usize..30,
        seed in 0u64..1_000_000,
        at in 0usize..30,
        corruption in 0usize..7,
    ) {
        let ladder = ladder(0);
        let asset = asset(&[(1, chunks)], seed, &ladder);
        let levels = vec![2; chunks];
        let mut stalls = vec![(0.5, 0.25); chunks];
        let mut startup = 1.0;
        let bad = &mut stalls[at % chunks];
        match corruption {
            0 => bad.0 = -2.0,
            1 => bad.1 = f64::NAN,
            2 => *bad = (f64::INFINITY, 0.0),
            3 => *bad = (-0.5, 1.0),
            4 => *bad = (-3.0, 1.0),
            5 => startup = -1.0,
            _ => startup = f64::NAN,
        }
        let lane = LaneView {
            levels: &levels,
            stalls: &stalls,
            startup_delay_s: startup,
        };
        prop_assert!(render(&asset, &lane).is_err());
        check_lane(&asset, &lane)?;
    }
}

#[test]
fn rows_that_do_not_cover_the_video_are_rejected() {
    let asset = asset(&[(1, 6)], 3, &ladder(0));
    let levels = vec![1; 5];
    let stalls = vec![(0.0, 0.0); 6];
    let lane = LaneView {
        levels: &levels,
        stalls: &stalls,
        startup_delay_s: 0.0,
    };
    assert!(matches!(
        LaneScore::of_lane(&TrueQoe::default(), &asset, &lane),
        Err(CoreError::BadConfig(_))
    ));
}
