//! §7.4 systems overhead: ABR decision latency and simulator throughput.
//! The paper reports SENSEI's runtime overhead at under 1% of player CPU;
//! here we measure decision cost directly: SENSEI-Fugu must stay within
//! the same order of magnitude as Fugu, and both far below the 4-second
//! chunk budget.
//!
//! The same budget-discipline question applies to our own measurement
//! layer, so this bench also measures the fleet telemetry overhead:
//! a BBA-only scale-shaped fleet run with telemetry on vs. off
//! (interleaved repeats, best-of-N), printing the wall-clock delta
//! against the <2% acceptance target and asserting the aggregates stay
//! bit-identical either way. Timing on shared CI hardware is noisy, so
//! the target only hard-fails under `SENSEI_OVERHEAD_STRICT=1`.
// Figure-generation code renders counts and indices as f64 plot
// coordinates; everything is far below 2^52, so the conversions
// are exact.
#![allow(clippy::cast_precision_loss)]

use criterion::{criterion_group, Criterion};
use sensei_abr::{Bba, Fugu, SenseiFugu};
use sensei_sim::{simulate, AbrPolicy, PlayerConfig, PlayerState, SessionContext};
use sensei_video::content::{Genre, SceneKind, SceneSpec};
use sensei_video::{BitrateLadder, EncodedVideo, SensitivityWeights, SourceVideo};

fn fixture() -> (SourceVideo, EncodedVideo, SensitivityWeights) {
    let src = SourceVideo::from_script(
        "perf",
        Genre::Sports,
        &[
            SceneSpec::new(SceneKind::NormalPlay, 30),
            SceneSpec::new(SceneKind::KeyMoment, 10),
            SceneSpec::new(SceneKind::Scenic, 15),
        ],
        1,
    )
    .unwrap();
    let ladder = BitrateLadder::default_paper();
    let enc = EncodedVideo::encode(&src, &ladder, 2);
    let weights = SensitivityWeights::ground_truth(&src);
    (src, enc, weights)
}

fn state() -> PlayerState<'static> {
    PlayerState {
        next_chunk: 12,
        buffer_s: 12.0,
        last_level: Some(2),
        throughput_history_kbps: &[1800.0, 2100.0, 1500.0, 1900.0, 2500.0],
        download_time_history_s: &[2.0, 1.8, 2.4, 2.1, 1.6],
        elapsed_s: 60.0,
        playing: true,
    }
}

fn bench_decisions(c: &mut Criterion) {
    let (_, enc, weights) = fixture();
    let state = state();
    let mut group = c.benchmark_group("abr_decision");
    group.bench_function("bba", |b| {
        let ctx = SessionContext {
            encoded: &enc,
            weights: None,
            chunk_duration_s: 4.0,
        };
        let mut policy = Bba::paper_default();
        b.iter(|| policy.decide(&state, &ctx));
    });
    group.bench_function("fugu_mpc", |b| {
        let ctx = SessionContext {
            encoded: &enc,
            weights: None,
            chunk_duration_s: 4.0,
        };
        let mut policy = Fugu::new();
        b.iter(|| policy.decide(&state, &ctx));
    });
    group.bench_function("sensei_fugu", |b| {
        let ctx = SessionContext {
            encoded: &enc,
            weights: Some(&weights),
            chunk_duration_s: 4.0,
        };
        let mut policy = SenseiFugu::new();
        b.iter(|| policy.decide(&state, &ctx));
    });
    group.finish();
}

fn bench_session(c: &mut Criterion) {
    let (src, enc, weights) = fixture();
    let trace = sensei_trace::generate::fcc_like(2000.0, 600, 3);
    c.bench_function("full_session_sensei_fugu", |b| {
        b.iter(|| {
            let mut policy = SenseiFugu::new();
            simulate(
                &src,
                &enc,
                &trace,
                &mut policy,
                &PlayerConfig::default(),
                Some(&weights),
            )
            .unwrap()
        })
    });
}

/// Telemetry overhead on the throughput-critical path: the fleet's
/// cheap-policy scale shape, where per-session work is smallest and any
/// fixed recording cost looms largest.
fn fleet_overhead() {
    use sensei_core::{Experiment, ExperimentConfig, PolicyKind};
    use sensei_fleet::{Fleet, FleetConfig, ScenarioMatrix, TracePerturbation};
    use std::time::Instant;

    let env = Experiment::build(&ExperimentConfig::quick(2026)).unwrap();
    let matrix = ScenarioMatrix::builder()
        .policies([PolicyKind::Bba])
        .perturbations([
            TracePerturbation::identity(),
            TracePerturbation::jittered(200.0),
        ])
        .master_seed(0x0BEE)
        .build()
        .unwrap();
    let time_run = |telemetry: bool| {
        let fleet =
            Fleet::new(&env, &matrix, FleetConfig::new(2).with_telemetry(telemetry)).unwrap();
        let started = Instant::now();
        let report = fleet.run().unwrap();
        (started.elapsed().as_secs_f64(), report)
    };
    // Interleaved best-of-N: alternating on/off runs share whatever
    // thermal and cache state the machine is in, and the minimum is the
    // least-noise estimate of each mode's true cost.
    const REPEATS: usize = 5;
    let (mut best_off, mut best_on) = (f64::INFINITY, f64::INFINITY);
    let (mut stats_off, mut stats_on) = (None, None);
    for _ in 0..REPEATS {
        let (wall, report) = time_run(false);
        best_off = best_off.min(wall);
        stats_off.get_or_insert(report.stats);
        let (wall, report) = time_run(true);
        best_on = best_on.min(wall);
        stats_on.get_or_insert(report.telemetry.map(|t| (t.summary(), report.stats)));
    }
    // The hard contract first: recording must not move one result bit.
    let (summary, stats_on) = stats_on
        .flatten()
        .expect("telemetry run produced a snapshot");
    assert_eq!(
        stats_off.expect("plain run produced stats"),
        stats_on,
        "telemetry changed the fleet aggregates"
    );
    let delta = (best_on - best_off) / best_off;
    println!("\n== fleet telemetry overhead (BBA scale shape, best of {REPEATS}) ==");
    println!("telemetry off: {:.4} s", best_off);
    println!("telemetry on:  {:.4} s", best_on);
    println!("delta: {:+.2}% (target < 2%)", delta * 100.0);
    print!("{summary}");
    let strict = std::env::var("SENSEI_OVERHEAD_STRICT").is_ok_and(|v| !v.is_empty() && v != "0");
    if delta >= 0.02 {
        let msg = format!(
            "telemetry overhead {:.2}% exceeds the 2% target",
            delta * 100.0
        );
        assert!(!strict, "{msg}");
        println!("WARN: {msg} (non-strict run; set SENSEI_OVERHEAD_STRICT=1 to fail)");
    }
}

criterion_group!(benches, bench_decisions, bench_session);

fn main() {
    benches();
    fleet_overhead();
}
