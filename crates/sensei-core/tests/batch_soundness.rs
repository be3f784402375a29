//! The batch==scalar soundness contract the batch-first engine rests on.
//!
//! `Experiment::score_batch_in` runs a tile — a policy axis × a player
//! axis — through the structure-of-arrays session batch and scores it in
//! place, with every policy kind's batched override
//! (`begin_batch`/`select_batch`) deciding for its group of lanes. That
//! is only a pure optimization if every lane's score is
//! **byte-identical** to an independent reference: one
//! `sensei_sim::simulate` session per lane with a fresh policy that
//! decides through plain per-lane `decide` (`DecideOnly`). This asserts
//! exactly that for every `PolicyKind` (trained RL policies and
//! trace-bound oracles included) on one policy axis, over player axes of
//! 1, 3 and 8 variants — one player being the case `run_cells` and
//! `run_grid` run. Comparing lane by lane also checks the output order
//! (players outer, policies inner). The lane engine itself is held to
//! the scalar session loop by `sensei-sim`'s own tests.

mod common;

use common::DecideOnly;
use sensei_core::experiment::VideoAsset;
use sensei_core::{CoreError, Experiment, ExperimentConfig, LaneScore, PolicyKind, SessionRuntime};
use sensei_sim::{simulate, PlayerConfig, SimError};
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

#[test]
fn every_kind_and_width_is_byte_identical_to_per_lane_decide() {
    let env = env_with_rl();
    let configs: [PlayerConfig; 3] = [
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
    // Every kind in `ALL` — including the batched MPC family and DAS-IP —
    // is on the policy axis, so each batch mixes nine policy groups.
    let policies = PolicyKind::ALL;
    let asset = &env.assets[0];
    let trace = &env.traces[2];
    // `references[c][j]`: config `c` under `policies[j]`.
    let references: Vec<Vec<LaneScore>> = configs
        .iter()
        .map(|player| {
            policies
                .iter()
                .map(|&kind| scalar_reference(&env, asset, trace, kind, player))
                .collect()
        })
        .collect();
    // One runtime across every batch, as a fleet worker holds it.
    let mut runtime = SessionRuntime::new();
    for width in [1usize, 3, 8] {
        // The player axis cycles the three configs, so at width 8 each
        // policy group holds repeated lanes.
        let players: Vec<PlayerConfig> = (0..width).map(|p| configs[p % 3]).collect();
        let mut scores = Vec::new();
        env.score_batch_in(&mut runtime, asset, trace, &policies, &players, &mut scores)
            .unwrap();
        assert_eq!(scores.len(), width * policies.len());
        for p in 0..width {
            for (j, kind) in policies.iter().enumerate() {
                assert_scores_identical(
                    &scores[p * policies.len() + j],
                    &references[p % 3][j],
                    &format!("width {width}, player {p}, {kind:?}"),
                );
            }
        }
        if width == 8 {
            // Identical lanes produce identical scores; different
            // players differ.
            let lane = |p: usize, j: usize| scores[p * policies.len() + j];
            for (j, kind) in policies.iter().enumerate() {
                assert_eq!(lane(0, j), lane(3, j), "{kind:?}");
            }
            assert_ne!(lane(0, 0), lane(1, 0), "BBA under two buffer caps");
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
    let player = PlayerConfig::default();
    let mut runtime = SessionRuntime::new();
    for asset in &env.assets {
        for trace in &env.traces[..4] {
            let mut scores = Vec::new();
            env.score_batch_in(
                &mut runtime,
                asset,
                trace,
                &kinds,
                std::slice::from_ref(&player),
                &mut scores,
            )
            .unwrap();
            for (lane, &kind) in kinds.iter().enumerate() {
                let want = scalar_reference(&env, asset, trace, kind, &player);
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
fn bad_axes_fail_at_their_scenario_lane() {
    let env = Experiment::build(&ExperimentConfig::quick(17)).unwrap();
    let (asset, trace) = (&env.assets[0], &env.traces[0]);
    let ok = PlayerConfig::default();
    let bad = PlayerConfig {
        max_buffer_s: -1.0,
        ..ok
    };
    let mut runtime = SessionRuntime::new();
    let mut scores = vec![LaneScore::default()];
    let mut fail = |policies: &[PolicyKind], players: &[PlayerConfig]| {
        env.score_batch_in(&mut runtime, asset, trace, policies, players, &mut scores)
            .unwrap_err()
    };
    // A repeated policy is a typed error naming the repeat's player-0
    // lane.
    let failure = fail(
        &[PolicyKind::Bba, PolicyKind::Fugu, PolicyKind::Bba],
        &[ok; 2],
    );
    assert_eq!(failure.lane, 2);
    assert!(matches!(failure.error, CoreError::BadConfig(_)));
    // An invalid player is named in scenario order: player 1 under the
    // first policy is lane 2, not the engine's flat lane 1.
    let failure = fail(&[PolicyKind::Bba, PolicyKind::Fugu], &[ok, bad]);
    assert_eq!(failure.lane, 2);
    assert!(matches!(
        failure.error,
        CoreError::Sim(SimError::InvalidPlayerConfig { .. })
    ));
    // Nothing is appended on error.
    assert_eq!(scores.len(), 1);
}
