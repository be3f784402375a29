//! Parity of the on-demand network path.
//!
//! `Fleet::run` scores tiles over networks drawn only as far as their
//! sessions read them (unless an oracle lane needs the whole trace),
//! while `Fleet::run_cells` completes every network because cells carry
//! the trace's realized mean. Both must agree bit for bit: `run().stats`
//! equals the canonical tile-order fold of `run_cells()`, for every
//! worker count and batch width — including widths that split a tile's
//! lanes into sub-batches sharing one on-demand network.

use sensei_core::{CellResult, Experiment, ExperimentConfig, PolicyKind};
use sensei_fleet::{Fleet, FleetConfig, FleetStats, ScenarioMatrix, TileStats, TracePerturbation};
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
/// scale, so streamed and whole-trace tiles mix in one run).
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

/// The reference semantics: fold the canonical cell stream tile by tile
/// and merge the tile partials in canonical tile order.
fn canonical_fold(matrix: &ScenarioMatrix, env: &Experiment, cells: &[CellResult]) -> FleetStats {
    let policies = matrix.policies();
    let tile_size = usize::try_from(matrix.tile_size()).unwrap();
    assert_eq!(cells.len() as u64, matrix.num_scenarios(env));
    let mut reduced = FleetStats::new(policies, policies[0]);
    let mut tile = TileStats::new(policies, policies[0]);
    for tile_cells in cells.chunks_exact(tile_size) {
        tile.reset();
        for group in tile_cells.chunks_exact(policies.len()) {
            tile.fold_cell(group);
        }
        reduced.merge(tile.stats()).unwrap();
    }
    reduced
}

fn assert_run_matches_cells(env: &Experiment, matrix: &ScenarioMatrix) {
    let cells = Fleet::new(env, matrix, FleetConfig::new(1))
        .unwrap()
        .run_cells()
        .unwrap();
    let reference = canonical_fold(matrix, env, &cells);
    for workers in [1usize, 2] {
        for width in [0usize, 1, 3] {
            let config = FleetConfig::new(workers).with_batch_width(width);
            let stats = Fleet::new(env, matrix, config)
                .unwrap()
                .run()
                .unwrap()
                .stats;
            assert_eq!(
                stats, reference,
                "{workers} workers, batch width {width}: run() moved off run_cells()"
            );
        }
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
    assert_run_matches_cells(&env, &jittered_matrix(&policies, 0x0D_E4A2));
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
    assert_run_matches_cells(&env, &jittered_matrix(&policies, 0x0D_E4A3));
}
