//! Warm-vs-cold parity: the cross-chunk warm-start carry must never
//! change a result bit.
//!
//! The MPC family (Fugu, SENSEI-Fugu with and without the pause action,
//! and both oracle variants) seeds each chunk step's branch-and-bound
//! incumbent with the shifted suffix of the previous step's winning
//! plan. Because the seed is scored with the search's own exact leaf
//! arithmetic, a warm search must be indistinguishable from a cold one
//! (`cold()`, the fresh-per-step reference, built only in test builds) — same
//! `Decision` at every chunk, same rendered session, bit for bit. These
//! tests pin that contract across full sessions, manual `decide` sweeps
//! with mid-session `rebind`s, one mixed 64-lane batch, and the
//! telemetry that proves the warm path actually engaged.

use crate::test_support::{encoded, source};
use crate::{Fugu, OracleMpc, SenseiFugu};
use sensei_sim::{
    simulate, simulate_batch_in, AbrPolicy, BatchLanes, Decision, PlayerConfig, PlayerState,
    SessionBatch, SessionContext, SessionResult,
};
use sensei_telemetry::{self as telemetry, Counter};
use sensei_trace::ThroughputTrace;
use sensei_video::SensitivityWeights;

/// Exact small-index → f64 conversion (chunk indices stay far below 2^32).
fn fl(i: usize) -> f64 {
    f64::from(u32::try_from(i).expect("small index"))
}

/// The trace mix the sessions run over: a constant link plus shaped
/// variable traces that force level changes (and SENSEI pauses).
fn traces() -> Vec<ThroughputTrace> {
    let mut out = vec![ThroughputTrace::constant("steady", 2500.0, 600.0).unwrap()];
    for seed in 0..3 {
        out.push(sensei_trace::generate::fcc_like(1500.0, 600, seed));
    }
    out.push(sensei_trace::generate::hsdpa_like(1200.0, 600, 7));
    out
}

/// Bitwise session equality: chosen levels plus every float surface of
/// the rendered result.
fn assert_sessions_identical(warm: &SessionResult, cold: &SessionResult, label: &str) {
    assert_eq!(warm.levels, cold.levels, "{label}: levels diverged");
    assert_eq!(
        warm.render.startup_delay_s().to_bits(),
        cold.render.startup_delay_s().to_bits(),
        "{label}: startup delay diverged"
    );
    assert_eq!(
        warm.render.total_rebuffer_s().to_bits(),
        cold.render.total_rebuffer_s().to_bits(),
        "{label}: rebuffer diverged"
    );
    assert_eq!(
        warm.render.avg_bitrate_kbps().to_bits(),
        cold.render.avg_bitrate_kbps().to_bits(),
        "{label}: avg bitrate diverged"
    );
    assert_eq!(
        warm.render.switch_magnitude().to_bits(),
        cold.render.switch_magnitude().to_bits(),
        "{label}: switch magnitude diverged"
    );
    for (i, (w, c)) in warm
        .render
        .chunks()
        .iter()
        .zip(cold.render.chunks())
        .enumerate()
    {
        assert_eq!(
            w.rebuffer_s.to_bits(),
            c.rebuffer_s.to_bits(),
            "{label}: chunk {i} rebuffer diverged"
        );
        assert_eq!(
            w.intentional_rebuffer_s.to_bits(),
            c.intentional_rebuffer_s.to_bits(),
            "{label}: chunk {i} intentional pause diverged"
        );
    }
}

#[test]
fn fugu_sessions_match_cold_bit_for_bit() {
    let src = source();
    let enc = encoded(&src);
    let config = PlayerConfig::default();
    // ONE warm instance reused across every trace (the fleet-runtime
    // shape: reset between sessions, carry within each session) vs a
    // fresh cold instance per session.
    let mut warm = Fugu::new();
    for trace in &traces() {
        let w = simulate(&src, &enc, trace, &mut warm, &config, None).unwrap();
        let mut cold = Fugu::new().cold();
        let c = simulate(&src, &enc, trace, &mut cold, &config, None).unwrap();
        assert_sessions_identical(&w, &c, &format!("Fugu on {}", trace.name()));
    }
}

#[test]
fn sensei_fugu_sessions_match_cold_bit_for_bit() {
    let src = source();
    let enc = encoded(&src);
    let config = PlayerConfig::default();
    let weights = SensitivityWeights::ground_truth(&src);
    let mut warm = SenseiFugu::new();
    let mut warm_no_pause = SenseiFugu::without_pause_action();
    for trace in &traces() {
        // With the pause action: the warm carry must survive the
        // pause-candidate loop (seed applies under every candidate's
        // search via the winner plan commit).
        let w = simulate(&src, &enc, trace, &mut warm, &config, Some(&weights)).unwrap();
        let mut cold = SenseiFugu::new().cold();
        let c = simulate(&src, &enc, trace, &mut cold, &config, Some(&weights)).unwrap();
        assert_sessions_identical(&w, &c, &format!("SenseiFugu on {}", trace.name()));

        // The no-pause ablation is a distinct decide path.
        let w2 = simulate(
            &src,
            &enc,
            trace,
            &mut warm_no_pause,
            &config,
            Some(&weights),
        )
        .unwrap();
        let mut cold2 = SenseiFugu::without_pause_action().cold();
        let c2 = simulate(&src, &enc, trace, &mut cold2, &config, Some(&weights)).unwrap();
        assert_sessions_identical(
            &w2,
            &c2,
            &format!("SenseiFugu(no-pause) on {}", trace.name()),
        );
    }
}

#[test]
fn oracle_sessions_match_cold_bit_for_bit_across_rebinds() {
    let src = source();
    let enc = encoded(&src);
    let config = PlayerConfig::default();
    let all = traces();
    // One long-lived aware instance rebound across traces (the session
    // runtime's reuse pattern) vs fresh cold per trace; same for the
    // unaware ablation.
    let mut warm_aware = OracleMpc::aware(&all[0]);
    let mut warm_unaware = OracleMpc::unaware(&all[0]);
    for trace in &all {
        warm_aware.rebind(trace);
        let w = simulate(&src, &enc, trace, &mut warm_aware, &config, None).unwrap();
        let mut cold = OracleMpc::aware(trace).cold();
        let c = simulate(&src, &enc, trace, &mut cold, &config, None).unwrap();
        assert_sessions_identical(&w, &c, &format!("OracleMpc(aware) on {}", trace.name()));

        warm_unaware.rebind(trace);
        let w2 = simulate(&src, &enc, trace, &mut warm_unaware, &config, None).unwrap();
        let mut cold2 = OracleMpc::unaware(trace).cold();
        let c2 = simulate(&src, &enc, trace, &mut cold2, &config, None).unwrap();
        assert_sessions_identical(&w2, &c2, &format!("OracleMpc(unaware) on {}", trace.name()));
    }
}

/// Drives warm and cold instances through the same hand-built state
/// sweep — consecutive chunk steps with a rolling throughput history,
/// a `rebind` to a different trace mid-sweep, and a `reset` later —
/// asserting every `Decision` matches bit for bit.
fn assert_decide_sweep_matches(
    warm: &mut dyn AbrPolicy,
    cold: &mut dyn AbrPolicy,
    ctx: &SessionContext<'_>,
    traces: &[ThroughputTrace],
    label: &str,
) {
    let n = ctx.num_chunks();
    let mut hist = vec![1400.0, 900.0, 1700.0];
    let mut dts = vec![1.1, 1.9, 0.8];
    let mut last_level = None;
    warm.reset();
    cold.reset();
    warm.rebind(&traces[0]);
    cold.rebind(&traces[0]);
    for chunk in 0..n {
        if chunk == n / 2 {
            // Mid-session rebind: any carried incumbent is now stale;
            // both sides must invalidate identically.
            warm.rebind(&traces[1]);
            cold.rebind(&traces[1]);
        }
        if chunk == (3 * n) / 4 {
            // Mid-sweep reset: the session-boundary hygiene path.
            warm.reset();
            cold.reset();
        }
        let state = PlayerState {
            next_chunk: chunk,
            buffer_s: 2.0 + 1.5 * fl(chunk % 7),
            last_level,
            throughput_history_kbps: &hist,
            download_time_history_s: &dts,
            elapsed_s: 4.0 * fl(chunk),
            playing: chunk > 0,
        };
        let w: Decision = warm.decide(&state, ctx);
        let c: Decision = cold.decide(&state, ctx);
        assert_eq!(w.level, c.level, "{label}: level diverged at chunk {chunk}");
        assert_eq!(
            w.pause_s.to_bits(),
            c.pause_s.to_bits(),
            "{label}: pause diverged at chunk {chunk}"
        );
        last_level = Some(w.level);
        // Roll the history so consecutive steps see evolving estimates.
        hist.push(800.0 + 350.0 * fl(chunk % 5));
        dts.push(0.6 + 0.2 * fl(chunk % 3));
        if hist.len() > 6 {
            hist.remove(0);
            dts.remove(0);
        }
    }
}

#[test]
fn decide_sweeps_with_mid_session_rebinds_match_cold() {
    let src = source();
    let enc = encoded(&src);
    let weights = SensitivityWeights::ground_truth(&src);
    let all = traces();
    let plain_ctx = SessionContext {
        encoded: &enc,
        weights: None,
        chunk_duration_s: src.chunk_duration_s(),
    };
    let weighted_ctx = SessionContext {
        encoded: &enc,
        weights: Some(&weights),
        chunk_duration_s: src.chunk_duration_s(),
    };
    assert_decide_sweep_matches(
        &mut Fugu::new(),
        &mut Fugu::new().cold(),
        &plain_ctx,
        &all,
        "Fugu",
    );
    assert_decide_sweep_matches(
        &mut SenseiFugu::new(),
        &mut SenseiFugu::new().cold(),
        &weighted_ctx,
        &all,
        "SenseiFugu",
    );
    assert_decide_sweep_matches(
        &mut SenseiFugu::without_pause_action(),
        &mut SenseiFugu::without_pause_action().cold(),
        &weighted_ctx,
        &all,
        "SenseiFugu(no-pause)",
    );
    assert_decide_sweep_matches(
        &mut OracleMpc::aware(&all[0]),
        &mut OracleMpc::aware(&all[0]).cold(),
        &plain_ctx,
        &all,
        "OracleMpc(aware)",
    );
    assert_decide_sweep_matches(
        &mut OracleMpc::unaware(&all[0]),
        &mut OracleMpc::unaware(&all[0]).cold(),
        &plain_ctx,
        &all,
        "OracleMpc(unaware)",
    );
}

/// Hides a policy's batched overrides: a session through this wrapper is
/// the plain per-chunk `decide` loop.
struct DecideOnly<'a>(&'a mut dyn AbrPolicy);

impl AbrPolicy for DecideOnly<'_> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn decide(&mut self, state: &PlayerState<'_>, ctx: &SessionContext<'_>) -> Decision {
        self.0.decide(state, ctx)
    }

    fn reset(&mut self) {
        self.0.reset();
    }

    fn rebind(&mut self, trace: &ThroughputTrace) {
        self.0.rebind(trace);
    }
}

/// The MPC kinds of the mixed batch.
const MPC_KINDS: usize = 5;

/// MPC kind `kind`, warm or cold, and whether its lanes carry the
/// manifest weights.
fn mpc_kind(kind: usize, trace: &ThroughputTrace, cold: bool) -> (Box<dyn AbrPolicy>, bool) {
    let fugu = |p: Fugu| -> Box<dyn AbrPolicy> { Box::new(if cold { p.cold() } else { p }) };
    let sensei =
        |p: SenseiFugu| -> Box<dyn AbrPolicy> { Box::new(if cold { p.cold() } else { p }) };
    let oracle = |p: OracleMpc| -> Box<dyn AbrPolicy> { Box::new(if cold { p.cold() } else { p }) };
    match kind {
        0 => (fugu(Fugu::new()), false),
        1 => (sensei(SenseiFugu::new()), true),
        2 => (sensei(SenseiFugu::without_pause_action()), true),
        3 => (oracle(OracleMpc::aware(trace)), true),
        _ => (oracle(OracleMpc::unaware(trace)), false),
    }
}

#[test]
fn a_mixed_warm_batch_matches_cold_scalar_sessions() {
    let src = source();
    let enc = encoded(&src);
    // A dull first half before a key second half makes pauses pay, so
    // the per-lane pause ledgers matter.
    let n = src.num_chunks();
    let step = (0..n).map(|i| if i < n / 2 { 0.2 } else { 3.0 }).collect();
    let weights = SensitivityWeights::new(step).unwrap();
    let trace = sensei_trace::generate::fcc_like(1000.0, 600, 0);
    let players = [24.0, 12.0, 8.0].map(|max_buffer_s| PlayerConfig {
        max_buffer_s,
        ..PlayerConfig::default()
    });
    // 64 lanes cycle the five kinds, then the players: each kind's group
    // holds 12 or 13 lanes, so every group repeats lanes.
    let configs: Vec<Vec<PlayerConfig>> = (0..MPC_KINDS)
        .map(|kind| {
            (0..64)
                .filter(|i| i % MPC_KINDS == kind)
                .map(|i| players[(i / MPC_KINDS) % players.len()])
                .collect()
        })
        .collect();
    let mut warm: Vec<_> = (0..MPC_KINDS)
        .map(|kind| mpc_kind(kind, &trace, false))
        .collect();
    let mut groups: Vec<BatchLanes<'_, '_>> = warm
        .iter_mut()
        .zip(&configs)
        .map(|((policy, weighted), configs)| BatchLanes {
            policy: policy.as_mut(),
            weights: weighted.then_some(&weights),
            configs,
        })
        .collect();
    let mut results = Vec::new();
    let mut batch = SessionBatch::new();
    simulate_batch_in(&mut batch, &src, &enc, &trace, &mut groups, &mut results).unwrap();
    assert_eq!(results.len(), 64);
    // Results come back group by group, each group in lane order.
    let paused = results
        .iter()
        .flat_map(|r| r.render.chunks())
        .any(|c| c.intentional_rebuffer_s > 0.0);
    assert!(paused, "no lane paused");
    let mut results = results.iter();
    for (kind, configs) in configs.iter().enumerate() {
        for (lane, config) in configs.iter().enumerate() {
            let (mut cold, weighted) = mpc_kind(kind, &trace, true);
            let mut scalar = DecideOnly(cold.as_mut());
            let want = simulate(
                &src,
                &enc,
                &trace,
                &mut scalar,
                config,
                weighted.then_some(&weights),
            )
            .unwrap();
            let label = format!("{} lane {lane} of the batch", cold.name());
            assert_sessions_identical(results.next().unwrap(), &want, &label);
        }
    }
}

/// The parity above is only meaningful if the warm path actually runs:
/// a warm session must report warm-start hits (one per seeded decision)
/// and fewer-or-equal visited nodes; a cold session must report none.
#[test]
fn warm_sessions_report_hits_and_cold_sessions_none() {
    let src = source();
    let enc = encoded(&src);
    let config = PlayerConfig::default();
    let trace = sensei_trace::generate::fcc_like(1500.0, 600, 1);

    telemetry::begin();
    let _ = simulate(&src, &enc, &trace, &mut Fugu::new(), &config, None).unwrap();
    let warm_shard = telemetry::end();

    telemetry::begin();
    let _ = simulate(&src, &enc, &trace, &mut Fugu::new().cold(), &config, None).unwrap();
    let cold_shard = telemetry::end();

    let warm_hits = warm_shard.counter(Counter::WarmStartHits);
    // Every decision after the first in a 20-chunk session is seedable.
    assert!(
        warm_hits >= (src.num_chunks() - 1) as u64,
        "warm session reported only {warm_hits} warm-start hits"
    );
    assert_eq!(
        cold_shard.counter(Counter::WarmStartHits),
        0,
        "cold session must not seed"
    );
    let warm_work = warm_shard.counter(Counter::PlanNodes);
    let cold_work = cold_shard.counter(Counter::PlanNodes);
    assert!(
        warm_work <= cold_work,
        "seeding must not visit more nodes: warm {warm_work} vs cold {cold_work}"
    );
    // The seeded incumbent must actually prune: some prunes fire before
    // any leaf improves on the seed.
    assert!(
        warm_shard.counter(Counter::SeededPrunes) > 0,
        "no prunes attributable to the seed"
    );
}
