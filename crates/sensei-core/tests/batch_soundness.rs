//! The batch==scalar soundness contract the batch-first engine rests on.
//!
//! `Experiment::score_batch_in` runs N lanes through the
//! structure-of-arrays session batch and scores them in place, with
//! every policy kind's batched override (`begin_batch`/`select_batch`)
//! deciding for its lanes. That is only a pure optimization if every
//! lane's score is **byte-identical** to an independent reference: one
//! `sensei_sim::simulate` session per lane with a fresh policy that
//! decides through plain per-lane `decide` (`DecideOnly`). This asserts
//! exactly that for every `PolicyKind` (trained RL policies and
//! trace-bound oracles included) and for every batch width in
//! {1, 3, 8, 64} — width 1 being the degenerate case `run_session_in`
//! delegates to. The lane engine itself is held to the scalar session
//! loop by `sensei-sim`'s own tests.

mod common;

use common::DecideOnly;
use sensei_core::experiment::VideoAsset;
use sensei_core::{Experiment, ExperimentConfig, LaneScore, PolicyKind, SessionRuntime};
use sensei_sim::{simulate, PlayerConfig};
use sensei_trace::ThroughputTrace;

/// Quick 3-video environment with *tiny* RL training so `Pensieve` and
/// `SenseiPensieve` are constructible (the contract is determinism, not
/// policy quality).
fn env_with_rl() -> Experiment {
    let mut cfg = ExperimentConfig::quick(17);
    cfg.rl_episodes = 12;
    Experiment::build(&cfg).unwrap()
}

/// The scalar reference: a fresh policy straight from the environment,
/// one `simulate` session deciding through per-lane `decide` only,
/// oracle scoring of the assembled render — no batched override anywhere.
fn scalar_reference(
    env: &Experiment,
    asset: &VideoAsset,
    trace: &ThroughputTrace,
    kind: PolicyKind,
    player: &PlayerConfig,
) -> LaneScore {
    let mut policy = DecideOnly(env.policy(kind, trace).unwrap());
    let weights = kind.uses_weights().then_some(&asset.weights);
    let result = simulate(
        &asset.source,
        &asset.encoded,
        trace,
        &mut policy,
        player,
        weights,
    )
    .unwrap();
    LaneScore {
        qoe01: env.oracle.qoe01(&asset.source, &result.render).unwrap(),
        avg_bitrate_kbps: result.render.avg_bitrate_kbps(),
        rebuffer_ratio: result.render.rebuffer_ratio(),
        delivered_bits: result.render.delivered_bits(),
        intentional_stall_s: result
            .render
            .chunks()
            .iter()
            .map(|c| c.intentional_rebuffer_s)
            .sum(),
        bitrate_switches: result.levels.windows(2).filter(|w| w[0] != w[1]).count(),
    }
}

/// Byte-level comparison of the float-valued score fields — `assert_eq!`
/// on the struct would accept `-0.0 == 0.0`; the soundness bar is bits.
fn assert_scores_identical(got: &LaneScore, want: &LaneScore, what: &str) {
    assert_eq!(got, want, "{what}");
    for (field, g, w) in [
        ("qoe", got.qoe01, want.qoe01),
        ("bitrate", got.avg_bitrate_kbps, want.avg_bitrate_kbps),
        ("rebuffer", got.rebuffer_ratio, want.rebuffer_ratio),
        ("delivered", got.delivered_bits, want.delivered_bits),
        ("stall", got.intentional_stall_s, want.intentional_stall_s),
    ] {
        assert_eq!(g.to_bits(), w.to_bits(), "{what} {field} bits");
    }
}

/// Scores `lanes` in sub-batches of `width` through one runtime, as a
/// fleet worker would hold it, returning every lane's score in order.
fn score_in_batches(
    env: &Experiment,
    asset: &VideoAsset,
    trace: &ThroughputTrace,
    lanes: &[(PolicyKind, PlayerConfig)],
    width: usize,
) -> Vec<LaneScore> {
    let mut runtime = SessionRuntime::new();
    let mut scores = Vec::new();
    for chunk in lanes.chunks(width) {
        env.score_batch_in(&mut runtime, asset, trace, chunk, &mut scores)
            .unwrap();
    }
    scores
}

#[test]
fn every_kind_and_width_is_byte_identical_to_per_lane_decide() {
    let env = env_with_rl();
    let players: [PlayerConfig; 3] = [
        PlayerConfig::default(),
        PlayerConfig {
            max_buffer_s: 12.0,
            ..PlayerConfig::default()
        },
        PlayerConfig {
            rtt_s: 0.15,
            ..PlayerConfig::default()
        },
    ];
    // Lanes cycle kinds × players so every width exercises mixed policy
    // groups (and, at width 64, repeated lanes of the same group). Every
    // kind in `ALL` — including the batched MPC family and DAS-IP — gets
    // at least one lane per player variant.
    let n_kinds = PolicyKind::ALL.len();
    let lane_specs: Vec<(PolicyKind, PlayerConfig)> = (0..64)
        .map(|i| (PolicyKind::ALL[i % n_kinds], players[(i / n_kinds) % 3]))
        .collect();
    let asset = &env.assets[0];
    let trace = &env.traces[2];
    let references: Vec<LaneScore> = lane_specs
        .iter()
        .map(|(kind, player)| scalar_reference(&env, asset, trace, *kind, player))
        .collect();
    for width in [1usize, 3, 8, 64] {
        let scores = score_in_batches(&env, asset, trace, &lane_specs, width);
        assert_eq!(scores.len(), references.len());
        for (lane, (got, want)) in scores.iter().zip(&references).enumerate() {
            assert_scores_identical(got, want, &format!("width {width}, lane {lane}"));
        }
    }
}

#[test]
fn batches_across_videos_and_traces_stay_identical() {
    // The same runtime serves batches of different (video, trace) tiles
    // back to back — trace-bound policies must rebind cleanly and the
    // stateful pause budgets must reset per batch.
    let env = Experiment::build(&ExperimentConfig::quick(17)).unwrap();
    let kinds = [
        PolicyKind::Bba,
        PolicyKind::SenseiFugu,
        PolicyKind::OracleAware,
        PolicyKind::SenseiFuguNoPause,
    ];
    let lanes: Vec<(PolicyKind, PlayerConfig)> = kinds
        .iter()
        .map(|&k| (k, PlayerConfig::default()))
        .collect();
    let mut runtime = SessionRuntime::new();
    for asset in &env.assets {
        for trace in &env.traces[..4] {
            let mut scores = Vec::new();
            env.score_batch_in(&mut runtime, asset, trace, &lanes, &mut scores)
                .unwrap();
            for (lane, (kind, player)) in lanes.iter().enumerate() {
                let want = scalar_reference(&env, asset, trace, *kind, player);
                assert_scores_identical(
                    &scores[lane],
                    &want,
                    &format!("({}, {}) lane {lane}", asset.name, trace.name()),
                );
            }
        }
    }
}

#[test]
fn lane_order_is_preserved_across_policy_regrouping() {
    // Input lanes deliberately interleave kinds so the engine's
    // group-then-scatter path is exercised: scores must come back in the
    // caller's lane order, not group order — each lane equal to its own
    // scalar reference.
    let env = Experiment::build(&ExperimentConfig::quick(17)).unwrap();
    let lanes = [
        (PolicyKind::SenseiFugu, PlayerConfig::default()),
        (PolicyKind::Bba, PlayerConfig::default()),
        (
            PolicyKind::Bba,
            PlayerConfig {
                max_buffer_s: 10.0,
                ..PlayerConfig::default()
            },
        ),
        (PolicyKind::Fugu, PlayerConfig::default()),
        (PolicyKind::SenseiFugu, PlayerConfig::default()),
    ];
    let (asset, trace) = (&env.assets[0], &env.traces[0]);
    let mut runtime = SessionRuntime::new();
    let mut scores = Vec::new();
    env.score_batch_in(&mut runtime, asset, trace, &lanes, &mut scores)
        .unwrap();
    assert_eq!(scores.len(), lanes.len());
    for (lane, (kind, player)) in lanes.iter().enumerate() {
        let want = scalar_reference(&env, asset, trace, *kind, player);
        assert_scores_identical(&scores[lane], &want, &format!("lane {lane}"));
    }
    // Identical lanes produce identical scores; different players differ.
    assert_eq!(scores[0], scores[4]);
    assert_ne!(scores[1], scores[2]);
}
