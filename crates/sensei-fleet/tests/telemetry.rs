//! The telemetry layer's load-bearing contracts:
//!
//! 1. **Simulation invisibility** — a fleet run's `FleetStats` are
//!    bit-for-bit identical with telemetry enabled vs. disabled, across
//!    worker counts. Recording only observes; it never feeds a bit back
//!    into any simulated value.
//! 2. **Structural invariants** — the merged counters agree with the
//!    scenario matrix (`sessions == num_scenarios()`, `tiles ==
//!    num_tiles()`), and derived pairs are consistent (download-time
//!    row hits ≤ reads, one tile-latency observation per tile, one batch-width
//!    observation per batch).
//! 3. **Report plumbing** — the snapshot round-trips through the report
//!    JSON and `diff()` ignores it entirely, so telemetry can never
//!    drift a checked-in baseline.
//!
//! Telemetry and progress are driven through `FleetConfig` knobs here,
//! never the environment variables — the test harness runs cases in
//! parallel and env mutation would race across them.

use sensei_core::{Experiment, ExperimentConfig, PolicyKind};
use sensei_fleet::telemetry::{Counter, Hist, Phase};
use sensei_fleet::{Fleet, FleetConfig, FleetReport, ScenarioMatrix, TracePerturbation};
use sensei_sim::PlayerConfig;

/// Quick environment restricted to the corpus's shortest video (the MPC
/// policies dominate test cost and scale linearly with chunk count).
fn quick_experiment(seed: u64) -> Experiment {
    let mut cfg = ExperimentConfig::quick(seed);
    cfg.videos = Some(vec!["Mountain".to_string()]);
    Experiment::build(&cfg).unwrap()
}

/// A scale-run-shaped matrix: the cheap policy only, perturbed networks.
fn scale_matrix(master_seed: u64) -> ScenarioMatrix {
    ScenarioMatrix::builder()
        .policies([PolicyKind::Bba])
        .perturbations([
            TracePerturbation::identity(),
            TracePerturbation {
                scale: 0.8,
                jitter_std_kbps: 150.0,
            },
        ])
        .master_seed(master_seed)
        .build()
        .unwrap()
}

/// An MPC-mixed matrix exercising every instrumented planner: the
/// scenario-tree search (SENSEI-Fugu), the trace-indexed oracle with its
/// download-time rows (sensitivity-unaware oracle), and DAS-IP, plus two
/// player variants so tiles span multiple lanes.
fn mpc_matrix(master_seed: u64) -> ScenarioMatrix {
    ScenarioMatrix::builder()
        .policies([
            PolicyKind::Bba,
            PolicyKind::SenseiFugu,
            PolicyKind::OracleUnaware,
            PolicyKind::DasIp,
        ])
        .players([
            PlayerConfig::default(),
            PlayerConfig {
                max_buffer_s: 12.0,
                ..PlayerConfig::default()
            },
        ])
        .perturbations([
            TracePerturbation::identity(),
            TracePerturbation::jittered(200.0),
        ])
        .master_seed(master_seed)
        .build()
        .unwrap()
}

fn run(env: &Experiment, matrix: &ScenarioMatrix, workers: usize, telemetry: bool) -> FleetReport {
    Fleet::new(
        env,
        matrix,
        FleetConfig::new(workers).with_telemetry(telemetry),
    )
    .unwrap()
    .run()
    .unwrap()
}

#[test]
fn telemetry_is_simulation_invisible_on_the_scale_shape() {
    let env = quick_experiment(11);
    let matrix = scale_matrix(0x7E1E);
    let reference = run(&env, &matrix, 1, false);
    for workers in [1usize, 2, 8] {
        let on = run(&env, &matrix, workers, true);
        let off = run(&env, &matrix, workers, false);
        assert_eq!(
            reference.stats, on.stats,
            "telemetry on, {workers} workers: aggregates moved"
        );
        assert_eq!(
            reference.stats, off.stats,
            "telemetry off, {workers} workers: aggregates moved"
        );
        assert!(on.telemetry.is_some() && off.telemetry.is_none());
    }
}

#[test]
fn telemetry_is_simulation_invisible_on_the_mpc_mix() {
    let env = quick_experiment(11);
    let matrix = mpc_matrix(0xABCD);
    let reference = run(&env, &matrix, 1, false);
    for workers in [1usize, 2, 8] {
        let on = run(&env, &matrix, workers, true);
        assert_eq!(
            reference.stats, on.stats,
            "telemetry on, {workers} workers: aggregates moved"
        );
    }
}

#[test]
fn merged_counters_satisfy_the_matrix_invariants() {
    let env = quick_experiment(11);
    let matrix = mpc_matrix(0xABCD);
    let fleet = Fleet::new(&env, &matrix, FleetConfig::new(2).with_telemetry(true)).unwrap();
    let report = fleet.run().unwrap();
    let snap = report.telemetry.as_ref().expect("telemetry was on");
    // Every scenario ran exactly once, one tile per (video, trace,
    // perturbation) triple.
    assert_eq!(snap.counter(Counter::Sessions), matrix.num_scenarios(&env));
    assert_eq!(snap.counter(Counter::Tiles), matrix.num_tiles(&env));
    assert_eq!(report.stats.sessions, snap.counter(Counter::Sessions));
    // One latency observation per completed tile, one width observation
    // per batch, and one simulate span per batch.
    assert_eq!(
        snap.shard.hist_total(Hist::TileNanos),
        snap.counter(Counter::Tiles)
    );
    assert_eq!(
        snap.shard.hist_total(Hist::LanesPerBatch),
        snap.counter(Counter::Batches)
    );
    assert_eq!(
        snap.shard.phase_calls(Phase::LaneSimulate),
        snap.counter(Counter::Batches)
    );
    assert_eq!(
        snap.shard.phase_calls(Phase::Score),
        snap.counter(Counter::Batches)
    );
    // The MPC planners ran: node visits, and the oracle's download-time
    // reads are consistent (and nonzero, since OracleUnaware is on the axis).
    assert!(snap.counter(Counter::PlanNodes) > 0);
    assert!(snap.counter(Counter::DtMemoLookups) > 0);
    assert!(snap.counter(Counter::DtMemoHits) <= snap.counter(Counter::DtMemoLookups));
    // Jittered perturbations materialize at least once per worker-visible
    // tile seed; hits and materializations partition the non-identity
    // resolves, so both sides stay bounded by tile count × lanes.
    assert!(snap.counter(Counter::TraceMaterializations) > 0);
    // Policies rebind once per (policy group, batch).
    assert!(snap.counter(Counter::PolicyRebinds) >= snap.counter(Counter::Batches));
}

#[test]
fn run_phases_are_recorded_even_without_telemetry() {
    let env = quick_experiment(11);
    let matrix = scale_matrix(0x7E1E);
    let report = run(&env, &matrix, 2, false);
    let p = report.phases;
    assert!(p.setup_s >= 0.0 && p.execute_s >= 0.0 && p.collect_s >= 0.0);
    assert!(
        p.execute_s > 0.0,
        "the worker scope always takes measurable time"
    );
    // The three phases partition the executor's wall time, which is
    // itself bounded by the run's total wall time (loose tolerance: the
    // run also assembles the report outside the phase clocks).
    assert!(p.setup_s + p.execute_s + p.collect_s <= report.wall_time_s + 0.05);
}

#[test]
fn snapshot_round_trips_through_report_json_and_diff_ignores_it() {
    let env = quick_experiment(11);
    let matrix = scale_matrix(0x7E1E);
    let with_telemetry = run(&env, &matrix, 2, true);
    let without = run(&env, &matrix, 2, false);
    // Round trip: the persisted telemetry section parses back into the
    // identical snapshot (all-u64 state, so `==` is exact).
    let text = with_telemetry.to_json();
    let back = FleetReport::from_json(&text).unwrap();
    assert_eq!(back.telemetry, with_telemetry.telemetry);
    assert_eq!(back.stats, with_telemetry.stats);
    assert_eq!(
        back.phases.setup_s.to_bits(),
        with_telemetry.phases.setup_s.to_bits()
    );
    // Stability: a second serialization emits identical bytes.
    assert_eq!(back.to_json(), text);
    // A telemetry-bearing report diffs clean against a telemetry-free
    // one: `diff` reads only the deterministic aggregates, so the
    // optional section can never drift a checked-in baseline.
    let diff = with_telemetry.diff(&without);
    assert!(diff.is_clean(0.0));
    let diff = FleetReport::from_json(&without.to_json())
        .unwrap()
        .diff(&with_telemetry);
    assert!(diff.is_clean(0.0));
}

#[test]
fn progress_line_does_not_disturb_results() {
    let env = quick_experiment(11);
    let matrix = scale_matrix(0x7E1E);
    let reference = run(&env, &matrix, 2, false);
    let with_progress = Fleet::new(
        &env,
        &matrix,
        FleetConfig::new(2).with_progress(true).with_telemetry(true),
    )
    .unwrap()
    .run()
    .unwrap();
    assert_eq!(reference.stats, with_progress.stats);
    // Finished tiles are counted without a message per tile; every tile
    // is still accounted for once across both workers.
    let snap = with_progress.telemetry.as_ref().expect("telemetry was on");
    assert_eq!(snap.counter(Counter::Tiles), matrix.num_tiles(&env));
    assert_eq!(
        snap.shard.hist_total(Hist::TileNanos),
        matrix.num_tiles(&env)
    );
}

#[test]
fn jitter_samples_count_only_what_the_sessions_read() {
    // BBA never reads the whole trace, so every jittered tile draws its
    // network on demand: the generator's sample count is a pure function
    // of the matrix (the farthest sample each tile's lanes reach, in
    // whole Box–Muller pairs), the same for every worker count, and far
    // below regenerating every tile's trace in full.
    let env = quick_experiment(11);
    let matrix = ScenarioMatrix::builder()
        .policies([PolicyKind::Bba])
        .players([
            PlayerConfig::default(),
            PlayerConfig {
                max_buffer_s: 12.0,
                ..PlayerConfig::default()
            },
        ])
        .perturbations([
            TracePerturbation::jittered(300.0),
            TracePerturbation {
                scale: 0.8,
                jitter_std_kbps: 150.0,
            },
        ])
        .master_seed(0x5A3F)
        .build()
        .unwrap();
    let trace_len = env.traces[0].samples().len() as u64;
    assert!(env
        .traces
        .iter()
        .all(|t| t.samples().len() as u64 == trace_len));
    let full_regeneration = matrix.num_tiles(&env) * trace_len;
    for workers in [1usize, 2] {
        let config = FleetConfig::new(workers).with_telemetry(true);
        let report = Fleet::new(&env, &matrix, config).unwrap().run().unwrap();
        let drawn = report.telemetry.unwrap().counter(Counter::JitterSamples);
        assert_eq!(drawn, 1546, "{workers} workers");
        assert!(drawn < full_regeneration, "{drawn} vs {full_regeneration}");
    }
}

#[test]
fn scaled_networks_are_views_that_draw_and_build_nothing() {
    // Scalings without jitter are served as zero-copy views of the base
    // trace: no whole trace is built, no cache slot is read and the
    // Gaussian generator never runs, while the aggregates equal the
    // telemetry-off run's.
    let env = quick_experiment(11);
    let matrix = ScenarioMatrix::builder()
        .policies([PolicyKind::Bba])
        .players([
            PlayerConfig::default(),
            PlayerConfig {
                max_buffer_s: 12.0,
                ..PlayerConfig::default()
            },
        ])
        .perturbations([
            TracePerturbation::identity(),
            TracePerturbation::scaled(0.6),
            TracePerturbation::scaled(1.4),
        ])
        .master_seed(0x5CA1E)
        .build()
        .unwrap();
    let reference = run(&env, &matrix, 1, false);
    for workers in [1usize, 2] {
        let on = run(&env, &matrix, workers, true);
        assert_eq!(reference.stats, on.stats, "{workers} workers");
        let snap = on.telemetry.expect("telemetry was on");
        assert_eq!(snap.counter(Counter::Tiles), matrix.num_tiles(&env));
        assert_eq!(snap.counter(Counter::TraceMaterializations), 0);
        assert_eq!(snap.counter(Counter::TraceCacheHits), 0);
        assert_eq!(snap.counter(Counter::JitterSamples), 0);
    }
}
