//! The merge-law contracts behind merge-based collection:
//!
//! 1. **Grouping invariance** — the canonical tile-order reduction the
//!    deterministic contract is defined over can be evaluated in any
//!    grouping: shard splits {1, 2, 3, 8} × worker counts {1, 2, 8}
//!    all produce bit-identical merged aggregates, on both the BBA
//!    scale shape and the MPC-mixed matrix (mirroring the telemetry
//!    crate's merge-law property tests).
//! 2. **Reference semantics** — folding the sequential reference's
//!    canonically-ordered cells tile by tile through `TileStats` and
//!    merging the per-tile partials in tile order reproduces
//!    `Fleet::run`'s aggregates exactly. This is the definition the
//!    executor's shard-local collection is an evaluation strategy for.
//! 3. **Cross-process bit-identity** — partial reports survive the JSON
//!    round-trip and `merge_reports` recombines them into a report
//!    whose aggregates equal the single-process run's, bit for bit.

mod common;

use common::{canonical_fold, reference_cells};
use sensei_core::{Experiment, ExperimentConfig, PolicyKind};
use sensei_fleet::{
    merge_reports, Fleet, FleetConfig, FleetReport, ScenarioMatrix, TracePerturbation,
};

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

/// A light MPC-mixed matrix: one planner-bound policy next to BBA so the
/// gain-CDF path is live, kept small because the planner dominates
/// debug-build test cost.
fn mpc_matrix(master_seed: u64) -> ScenarioMatrix {
    ScenarioMatrix::builder()
        .policies([PolicyKind::Bba, PolicyKind::SenseiFugu])
        .perturbations([
            TracePerturbation::identity(),
            TracePerturbation::jittered(200.0),
        ])
        .master_seed(master_seed)
        .build()
        .unwrap()
}

fn run_config(env: &Experiment, matrix: &ScenarioMatrix, config: FleetConfig) -> FleetReport {
    Fleet::new(env, matrix, config).unwrap().run().unwrap()
}

/// Shards {1, 2, 3, 8} × workers {1, 2, 8}: every split's merged
/// aggregates must equal the unsharded single-worker run's, bit for bit.
/// Partials take the JSON round-trip before merging, so the persisted
/// form is what's proven equivalent — exactly what the multi-process CI
/// step relies on.
fn assert_grouping_invariant(env: &Experiment, matrix: &ScenarioMatrix) {
    let reference = run_config(env, matrix, FleetConfig::new(1));
    assert!(reference.stats.sessions > 0);
    for shards in [1u64, 2, 3, 8] {
        for workers in [1usize, 2, 8] {
            let partials: Vec<FleetReport> = (0..shards)
                .map(|index| {
                    let report = run_config(
                        env,
                        matrix,
                        FleetConfig::new(workers).with_shard(index, shards),
                    );
                    let slice = report.shard.expect("sharded run stamps its slice");
                    assert_eq!((slice.index, slice.count), (index, shards));
                    FleetReport::from_json(&report.to_json()).expect("partial round-trips")
                })
                .collect();
            let merged = merge_reports(&partials).expect("partials partition the matrix");
            assert!(merged.shard.is_none());
            assert_eq!(
                merged.stats, reference.stats,
                "{shards} shards x {workers} workers must merge bit-identically"
            );
        }
    }
}

#[test]
fn shard_grouping_is_invariant_on_the_scale_shape() {
    let env = quick_experiment(21);
    let matrix = scale_matrix(0x5EED);
    assert_grouping_invariant(&env, &matrix);
}

#[test]
fn shard_grouping_is_invariant_on_the_mpc_mix() {
    let env = quick_experiment(22);
    let matrix = mpc_matrix(0x5EED);
    assert_grouping_invariant(&env, &matrix);
}

/// The reference semantics, evaluated by hand: run the canonical cell
/// stream sequentially, fold it tile by tile through `TileStats`, merge
/// the per-tile partials in canonical tile order — and land on `run()`'s
/// aggregates exactly.
#[test]
fn canonical_tile_fold_is_the_reference_semantics() {
    let env = quick_experiment(23);
    let matrix = mpc_matrix(0xF01D);
    let report = run_config(&env, &matrix, FleetConfig::new(2));
    let reduced = canonical_fold(&env, &matrix, &reference_cells(&env, &matrix));
    assert_eq!(
        reduced, report.stats,
        "tile-order reduction must equal the executor's result"
    );
}

/// An unsharded report cannot participate in a shard merge, and a
/// sharded singleton must carry the complete split.
#[test]
fn merge_reports_rejects_incomplete_shard_sets() {
    let env = quick_experiment(24);
    let matrix = scale_matrix(0xBAD);
    let full = run_config(&env, &matrix, FleetConfig::new(1));
    assert!(merge_reports(&[full]).is_err(), "unsharded report rejected");

    let first = run_config(&env, &matrix, FleetConfig::new(1).with_shard(0, 2));
    assert!(
        merge_reports(std::slice::from_ref(&first)).is_err(),
        "1 of 2 shards rejected"
    );
    let second = run_config(&env, &matrix, FleetConfig::new(1).with_shard(1, 2));
    let merged = merge_reports(&[second, first]).expect("order-free shard merge");
    let reference = run_config(&env, &matrix, FleetConfig::new(1));
    assert_eq!(merged.stats, reference.stats);
}

/// Out-of-range shard splits are rejected at fleet construction.
#[test]
fn invalid_shard_configs_are_rejected() {
    let env = quick_experiment(25);
    let matrix = scale_matrix(0xC0DE);
    assert!(Fleet::new(&env, &matrix, FleetConfig::new(1).with_shard(0, 0)).is_err());
    assert!(Fleet::new(&env, &matrix, FleetConfig::new(1).with_shard(3, 3)).is_err());
    assert!(Fleet::new(&env, &matrix, FleetConfig::new(1).with_shard(2, 3)).is_ok());
}

/// More shards than tiles: the tail shards cover empty ranges, run
/// zero sessions, and still merge back into the full result.
#[test]
fn oversharded_split_still_merges_exactly() {
    let env = quick_experiment(26);
    let matrix = scale_matrix(0x0DD);
    let total_tiles = matrix.num_tiles(&env);
    let shards = total_tiles + 3;
    let partials: Vec<FleetReport> = (0..shards)
        .map(|i| run_config(&env, &matrix, FleetConfig::new(2).with_shard(i, shards)))
        .collect();
    let empties = partials.iter().filter(|p| p.stats.sessions == 0).count();
    assert_eq!(empties as u64, 3, "exactly the 3 surplus shards are empty");
    let merged = merge_reports(&partials).unwrap();
    let reference = run_config(&env, &matrix, FleetConfig::new(1));
    assert_eq!(merged.stats, reference.stats);
}
