//! The `PolicyKind::reads_trace` contract the on-demand fleet network
//! rests on.
//!
//! The batch path builds a policy without a trace, and never rebinds
//! it, unless its kind reads the whole trace. That is sound only if such
//! a policy ignores whatever trace it was built and rebound around: a
//! session must come out the same whether the policy saw an unrelated
//! trace or the session's own. This test asserts it for every kind that
//! claims not to read the trace, including the trained RL policies, and
//! checks that the two oracles are the only kinds that claim to — and
//! that they do play differently when built around the wrong trace.

use sensei_core::{Experiment, ExperimentConfig, PolicyKind};
use sensei_sim::simulate;

/// Quick environment with *tiny* RL training so `Pensieve` and
/// `SenseiPensieve` are constructible (only determinism matters here).
fn env_with_rl() -> Experiment {
    let mut cfg = ExperimentConfig::quick(29);
    cfg.rl_episodes = 12;
    Experiment::build(&cfg).unwrap()
}

#[test]
fn only_the_oracles_read_the_trace() {
    let readers: Vec<PolicyKind> = PolicyKind::ALL
        .into_iter()
        .filter(|kind| kind.reads_trace())
        .collect();
    assert_eq!(
        readers,
        [PolicyKind::OracleAware, PolicyKind::OracleUnaware]
    );
}

#[test]
fn kinds_that_do_not_read_the_trace_ignore_the_one_they_were_built_around() {
    let env = env_with_rl();
    let asset = &env.assets[0];
    // Pairs of (session trace, unrelated trace): the evaluation set's
    // extremes and a middle pair, so the unrelated trace is both richer
    // and poorer than the session's own.
    let n = env.traces.len();
    let pairs = [(0, n - 1), (n - 1, 0), (n / 2, n / 2 + 1)];
    for kind in PolicyKind::ALL {
        let weights = kind.uses_weights().then_some(&asset.weights);
        let mut moved = 0;
        for (own, unrelated) in pairs {
            let own = &env.traces[own];
            let unrelated = &env.traces[unrelated];
            let session = |built_around| {
                let mut policy = env.policy(kind, built_around).unwrap();
                policy.rebind(built_around);
                let result = simulate(
                    &asset.source,
                    &asset.encoded,
                    own,
                    policy.as_mut(),
                    &env.player,
                    weights,
                )
                .unwrap();
                // Every field, the startup delay also by its bits.
                (
                    result.render.startup_delay_s().to_bits(),
                    result.render,
                    result.levels,
                )
            };
            let (wrong, right) = (session(unrelated), session(own));
            if wrong != right {
                moved += 1;
            }
            assert!(
                kind.reads_trace() || wrong == right,
                "{kind:?} on {} depended on the trace it was built around ({})",
                own.name(),
                unrelated.name()
            );
        }
        // The check has teeth: an oracle planning on the wrong trace
        // plays the session differently.
        assert!(
            !kind.reads_trace() || moved > 0,
            "{kind:?} ignored its trace on every pair"
        );
    }
}
