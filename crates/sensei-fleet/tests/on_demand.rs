//! Parity of the on-demand network path.
//!
//! `Fleet::run` scores tiles over networks drawn only as far as their
//! sessions read them (unless an oracle lane needs the whole trace).
//! The sequential reference (`common::reference_cells`) instead runs
//! every scenario alone over its whole, freshly perturbed trace. Both
//! must agree bit for bit: `run().stats` equals the canonical tile-order
//! fold of the reference cells, for every worker count.

mod common;

use common::{canonical_fold, reference_cells};
use sensei_core::{Experiment, ExperimentConfig, PolicyKind};
use sensei_fleet::{Fleet, FleetConfig, ScenarioMatrix, TracePerturbation};
use sensei_sim::PlayerConfig;

/// Quick environment restricted to the corpus's shortest video (the MPC
/// policies dominate test cost and scale linearly with chunk count).
fn quick_experiment(seed: u64) -> Experiment {
    let mut cfg = ExperimentConfig::quick(seed);
    cfg.videos = Some(vec!["Mountain".to_string()]);
    Experiment::build(&cfg).unwrap()
}

/// A jittered matrix over `policies`: two player variants and three
/// perturbations (plain jitter, scaled jitter, and a seed-independent
/// scale, so jittered streams and zero-copy scaled views mix in one
/// run).
fn jittered_matrix(policies: &[PolicyKind], master_seed: u64) -> ScenarioMatrix {
    ScenarioMatrix::builder()
        .policies(policies.iter().copied())
        .players([
            PlayerConfig::default(),
            PlayerConfig {
                max_buffer_s: 12.0,
                rtt_s: 0.15,
                ..PlayerConfig::default()
            },
        ])
        .perturbations([
            TracePerturbation::jittered(300.0),
            TracePerturbation {
                scale: 0.7,
                jitter_std_kbps: 650.0,
            },
            TracePerturbation::scaled(1.3),
        ])
        .master_seed(master_seed)
        .build()
        .unwrap()
}

/// `run()` on 1 and 2 workers equals the sequential reference's
/// canonical fold.
fn assert_run_matches_reference(env: &Experiment, matrix: &ScenarioMatrix) {
    let reference = canonical_fold(env, matrix, &reference_cells(env, matrix));
    for workers in [1usize, 2] {
        let stats = Fleet::new(env, matrix, FleetConfig::new(workers))
            .unwrap()
            .run()
            .unwrap()
            .stats;
        assert_eq!(
            stats, reference,
            "{workers} workers: run() moved off the sequential reference"
        );
    }
}

#[test]
fn streamed_tiles_match_completed_cells() {
    // No lane reads the trace, so every jittered tile is streamed.
    let policies = [
        PolicyKind::Bba,
        PolicyKind::Fugu,
        PolicyKind::SenseiFugu,
        PolicyKind::DasIp,
    ];
    assert!(policies.iter().all(|kind| !kind.reads_trace()));
    let env = quick_experiment(31);
    assert_run_matches_reference(&env, &jittered_matrix(&policies, 0x0D_E4A2));
}

#[test]
fn oracle_tiles_complete_their_network_and_match_cells() {
    // An oracle lane makes every tile complete its network up front.
    let policies = [
        PolicyKind::Bba,
        PolicyKind::OracleUnaware,
        PolicyKind::DasIp,
    ];
    assert!(policies.iter().any(|kind| kind.reads_trace()));
    let env = quick_experiment(32);
    assert_run_matches_reference(&env, &jittered_matrix(&policies, 0x0D_E4A3));
}
