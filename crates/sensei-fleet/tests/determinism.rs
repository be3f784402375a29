//! The fleet engine's two load-bearing guarantees:
//!
//! 1. **Execution-order independence** — the same master seed produces
//!    bit-for-bit identical `FleetStats` aggregates with 1, 2, and 8
//!    workers (the property the exact mergeable aggregates exist for).
//! 2. **Grid equivalence** — the canonical enumeration of
//!    `ScenarioMatrix::grid` (the sequential reference in `common`, one
//!    session at a time) reproduces `Experiment::run_grid`'s tiles cell
//!    for cell, and the fleet's aggregates over that matrix equal the
//!    reference's canonical fold, making the sequential harness a
//!    degenerate fleet run.

mod common;

use common::{canonical_fold, reference_cells};
use sensei_core::{Experiment, ExperimentConfig, PolicyKind};
use sensei_fleet::{Fleet, FleetConfig, ScenarioMatrix, TracePerturbation};
use sensei_sim::PlayerConfig;

/// Quick environment restricted to the corpus's shortest video
/// ("Mountain", 21 chunks) — the MPC policies dominate test cost and it
/// scales linearly with chunk count.
fn quick_experiment(seed: u64) -> Experiment {
    let mut cfg = ExperimentConfig::quick(seed);
    cfg.videos = Some(vec!["Mountain".to_string()]);
    Experiment::build(&cfg).unwrap()
}

/// A small but fully heterogeneous matrix: two policies (so gain CDFs are
/// exercised), two player variants, and perturbed network scenarios
/// (scaling + seeded jitter).
fn mixed_matrix(master_seed: u64) -> ScenarioMatrix {
    ScenarioMatrix::builder()
        .policies([PolicyKind::Bba, PolicyKind::SenseiFugu])
        .players([
            PlayerConfig::default(),
            PlayerConfig {
                max_buffer_s: 12.0,
                ..PlayerConfig::default()
            },
        ])
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

#[test]
fn aggregates_are_identical_across_1_2_and_8_workers() {
    let env = quick_experiment(11);
    let matrix = mixed_matrix(0xF1EE7);
    let reports: Vec<_> = [1usize, 2, 8]
        .into_iter()
        .map(|workers| {
            Fleet::new(&env, &matrix, FleetConfig::new(workers))
                .unwrap()
                .run()
                .unwrap()
        })
        .collect();
    // 1 video × 10 traces × 2 perturbations × 2 players × 2 policies.
    assert_eq!(reports[0].stats.sessions, 80);
    // Bit-for-bit: quantized moment sums, histograms, and gain CDFs all
    // compare with `==` (exact integer equality), not tolerances.
    assert_eq!(reports[0].stats, reports[1].stats, "1 vs 2 workers");
    assert_eq!(reports[0].stats, reports[2].stats, "1 vs 8 workers");
    assert_eq!(reports[1].workers, 2);
    assert_eq!(reports[2].workers, 8);
}

#[test]
fn aggregates_match_the_sequential_reference_for_every_worker_count() {
    // The tile executor runs each (video, trace, perturbation) tile
    // through one SoA session batch over an on-demand network; the
    // sequential reference runs every scenario alone over its whole
    // perturbed trace. No worker count may move a single aggregate bit
    // off the reference's canonical fold.
    let env = quick_experiment(11);
    let matrix = mixed_matrix(0xF1EE7);
    let reference = canonical_fold(&env, &matrix, &reference_cells(&env, &matrix));
    assert_eq!(reference.sessions, 80);
    for workers in [1usize, 2, 8] {
        let report = Fleet::new(&env, &matrix, FleetConfig::new(workers))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(
            reference, report.stats,
            "{workers} workers diverged from the sequential reference"
        );
    }
}

#[test]
fn different_master_seeds_change_perturbed_scenarios() {
    let env = quick_experiment(11);
    // Jitter-only matrices: the seed drives the noise stream.
    let build = |seed| {
        ScenarioMatrix::builder()
            .policies([PolicyKind::Bba])
            .perturbations([TracePerturbation::jittered(400.0)])
            .master_seed(seed)
            .build()
            .unwrap()
    };
    let (m1, m2) = (build(1), build(2));
    let r1 = Fleet::new(&env, &m1, FleetConfig::new(2))
        .unwrap()
        .run()
        .unwrap();
    let r2 = Fleet::new(&env, &m2, FleetConfig::new(2))
        .unwrap()
        .run()
        .unwrap();
    assert_ne!(
        r1.stats, r2.stats,
        "different master seeds must perturb the network differently"
    );
    // And the same seed reproduces exactly.
    let r1b = Fleet::new(&env, &m1, FleetConfig::new(2))
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(r1.stats, r1b.stats);
}

#[test]
fn single_worker_grid_fleet_matches_run_grid() {
    let env = quick_experiment(7);
    let kinds = [
        PolicyKind::Bba,
        PolicyKind::Fugu,
        PolicyKind::SenseiFugu,
        PolicyKind::DasIp,
        PolicyKind::OracleAware,
    ];
    let sequential = env.run_grid(&kinds).unwrap();
    let matrix = ScenarioMatrix::grid(&kinds).unwrap();
    let cells = reference_cells(&env, &matrix);
    assert_eq!(sequential, cells);
    // Neither the executor nor spreading tiles over workers may move
    // the aggregates off the grid's canonical fold.
    let reference = canonical_fold(&env, &matrix, &cells);
    for workers in [1usize, 4] {
        let stats = Fleet::new(&env, &matrix, FleetConfig::new(workers))
            .unwrap()
            .run()
            .unwrap()
            .stats;
        assert_eq!(stats, reference, "{workers} workers");
    }
}

#[test]
fn grid_equivalence_holds_for_custom_player_experiments() {
    // The grid matrix's default player axis resolves to the experiment's
    // own player, so the run_grid equivalence must survive a non-default
    // PlayerConfig too.
    let mut cfg = ExperimentConfig::quick(7);
    cfg.videos = Some(vec!["Mountain".to_string()]);
    cfg.player = PlayerConfig {
        max_buffer_s: 12.0,
        rtt_s: 0.2,
        ..PlayerConfig::default()
    };
    let env = Experiment::build(&cfg).unwrap();
    let kinds = [PolicyKind::Bba, PolicyKind::Fugu];
    let sequential = env.run_grid(&kinds).unwrap();
    let matrix = ScenarioMatrix::grid(&kinds).unwrap();
    let cells = reference_cells(&env, &matrix);
    assert_eq!(sequential, cells);
    let stats = Fleet::new(&env, &matrix, FleetConfig::new(2))
        .unwrap()
        .run()
        .unwrap()
        .stats;
    assert_eq!(stats, canonical_fold(&env, &matrix, &cells));
}

#[test]
fn failing_scenario_aborts_with_its_stable_id() {
    let env = quick_experiment(7);
    // Pensieve was not trained in the quick environment, so every
    // Pensieve scenario fails. Policy axis [Bba, Pensieve] → the first
    // failure in canonical order is scenario 1, with one player variant
    // or two (players outer, policies inner: a tile's IDs run (p0, Bba),
    // (p0, Pensieve), (p1, Bba), (p1, Pensieve)).
    let policies = [PolicyKind::Bba, PolicyKind::Pensieve];
    let one_player = ScenarioMatrix::builder()
        .policies(policies)
        .build()
        .unwrap();
    let two_players = ScenarioMatrix::builder()
        .policies(policies)
        .players([
            PlayerConfig::default(),
            PlayerConfig {
                max_buffer_s: 12.0,
                ..PlayerConfig::default()
            },
        ])
        .build()
        .unwrap();
    // Attribution must not depend on the progress line: with it on, the
    // collector also wakes on its poll interval, but failures still
    // arrive only through the channel.
    for (matrix, progress) in [
        (&one_player, false),
        (&one_player, true),
        (&two_players, false),
        (&two_players, true),
    ] {
        let players = matrix.num_players();
        let failing_id = |workers| {
            let config = FleetConfig::new(workers).with_progress(progress);
            let err = Fleet::new(&env, matrix, config).unwrap().run().unwrap_err();
            match err {
                sensei_fleet::FleetError::Scenario { id, .. } => id,
                other => panic!("expected Scenario error, got {other}"),
            }
        };
        // One worker runs tile 0 first and stops there: the failure is
        // its first Pensieve lane, attributed as the tile's first ID +
        // lane 1.
        assert_eq!(
            failing_id(1),
            1,
            "the first Pensieve scenario in canonical order ({players} players, progress {progress})"
        );
        // Racing workers may stop a lower failure from running at all,
        // so only the parity of the reported ID is fixed.
        assert_eq!(
            failing_id(2) % 2,
            1,
            "failing scenarios are the odd (Pensieve) IDs ({players} players, progress {progress})"
        );
    }
}

#[test]
fn config_validation_is_enforced() {
    let env = quick_experiment(7);
    let matrix = ScenarioMatrix::grid(&[PolicyKind::Bba]).unwrap();
    assert!(matches!(
        Fleet::new(&env, &matrix, FleetConfig::new(0)),
        Err(sensei_fleet::FleetError::NoWorkers)
    ));
}
