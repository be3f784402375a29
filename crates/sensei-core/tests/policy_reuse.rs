//! The policy-reuse soundness contract the session runtime rests on.
//!
//! `SessionRuntime` builds one policy instance per `PolicyKind` and reuses
//! it (reset + rebound) across every session a worker runs. That is only a
//! pure optimization if a reused instance is indistinguishable from fresh
//! per-session construction — which this test asserts for **every**
//! `PolicyKind`, including the trained RL policies and the trace-bound
//! oracles, across a 3-video × 3-trace block.

use sensei_core::{Experiment, ExperimentConfig, PolicyKind, SessionRuntime};
use sensei_sim::{simulate_in, PlayerState, SessionContext, SessionScratch};

/// Quick 3-video environment with *tiny* RL training so `Pensieve` and
/// `SenseiPensieve` are constructible. The episode count only has to make
/// training terminate — the reuse contract is about determinism, not
/// policy quality.
fn env_with_rl() -> Experiment {
    let mut cfg = ExperimentConfig::quick(17);
    cfg.train_rl = true;
    cfg.rl_episodes = 12;
    Experiment::build(&cfg).unwrap()
}

#[test]
fn reused_policy_matches_fresh_construction_for_every_kind() {
    let env = env_with_rl();
    assert_eq!(env.assets.len(), 3, "block needs three videos");
    let traces = &env.traces[..3];
    for kind in PolicyKind::ALL {
        // One runtime for the whole block: the same policy instance (and
        // the same scratch buffers) serves all nine sessions.
        let mut runtime = SessionRuntime::new();
        for asset in &env.assets {
            for trace in traces {
                let fresh = env
                    .run_session_with(asset, trace, kind, &env.player)
                    .unwrap();
                let reused = env
                    .run_session_in(&mut runtime, asset, trace, kind, &env.player)
                    .unwrap();
                assert_eq!(
                    fresh,
                    reused,
                    "{kind:?} diverged on ({}, {}) when reused",
                    asset.name,
                    trace.name()
                );
            }
        }
    }
}

#[test]
fn stale_warm_start_state_never_leaks_into_the_next_session() {
    // The MPC family carries each chunk step's winning plan in a
    // warm-start slot so the next step's search starts from a seeded
    // incumbent. Abandon a session mid-stream — the slot then holds a
    // committed plan for a chunk step that will never come — and reuse
    // the instance for a full session on a *different* trace through the
    // production entry path (rebind + the simulator's own reset). The
    // result must match a fresh instance bit for bit.
    let env = Experiment::build(&ExperimentConfig::quick(17)).unwrap();
    let mpc_kinds = [
        PolicyKind::Fugu,
        PolicyKind::SenseiFugu,
        PolicyKind::SenseiFuguNoPause,
        PolicyKind::OracleAware,
        PolicyKind::OracleUnaware,
    ];
    let asset = &env.assets[0];
    let stale_trace = &env.traces[0];
    let next_trace = &env.traces[1];
    for kind in mpc_kinds {
        let weights = kind.uses_weights().then_some(&asset.weights);
        let ctx = SessionContext {
            encoded: &asset.encoded,
            weights,
            chunk_duration_s: asset.source.chunk_duration_s(),
        };
        let mut reused = env.policy(kind, stale_trace).unwrap();
        // A few real consecutive decisions populate the warm slot (and,
        // for SENSEI-Fugu, spend pause budget) — then the session is
        // abandoned.
        let hist = [1100.0, 1500.0, 900.0];
        let dts = [1.3, 1.0, 1.6];
        let mut last_level = None;
        for (chunk, step) in [0.0f64, 1.0, 2.0, 3.0].into_iter().enumerate() {
            let state = PlayerState {
                next_chunk: chunk,
                buffer_s: 3.0 + step,
                last_level,
                throughput_history_kbps: &hist,
                download_time_history_s: &dts,
                elapsed_s: 4.0 * step,
                playing: chunk > 0,
            };
            last_level = Some(reused.decide(&state, &ctx).level);
        }
        // Production reuse protocol: rebind to the next session's trace;
        // `simulate_in` itself resets the policy.
        reused.rebind(next_trace);
        let mut scratch = SessionScratch::new();
        let got = simulate_in(
            &mut scratch,
            &asset.source,
            &asset.encoded,
            next_trace,
            &mut reused,
            &env.player,
            weights,
        )
        .unwrap();
        let mut fresh = env.policy(kind, next_trace).unwrap();
        let want = simulate_in(
            &mut scratch,
            &asset.source,
            &asset.encoded,
            next_trace,
            &mut fresh,
            &env.player,
            weights,
        )
        .unwrap();
        assert_eq!(got.levels, want.levels, "{kind:?} levels diverged");
        assert_eq!(
            got.wall_time_s.to_bits(),
            want.wall_time_s.to_bits(),
            "{kind:?} wall time diverged"
        );
        assert_eq!(
            got.render.total_rebuffer_s().to_bits(),
            want.render.total_rebuffer_s().to_bits(),
            "{kind:?} rebuffer diverged"
        );
    }
}

#[test]
fn one_runtime_serves_interleaved_kinds() {
    // Fleet workers interleave kinds cell by cell (policy is the innermost
    // axis); the table must keep per-kind instances independent.
    let env = Experiment::build(&ExperimentConfig::quick(17)).unwrap();
    let kinds = [PolicyKind::Bba, PolicyKind::SenseiFugu, PolicyKind::Bba];
    let mut runtime = SessionRuntime::new();
    let asset = &env.assets[0];
    let trace = &env.traces[0];
    let mut cells = Vec::new();
    for kind in kinds {
        cells.push(
            env.run_session_in(&mut runtime, asset, trace, kind, &env.player)
                .unwrap(),
        );
    }
    // The two BBA sessions bracket a SENSEI session and must agree.
    assert_eq!(cells[0], cells[2]);
    assert_ne!(cells[0].policy, cells[1].policy);
}
