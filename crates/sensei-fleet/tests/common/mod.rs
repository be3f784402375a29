//! The sequential reference `Fleet::run` is checked against: every
//! scenario of a matrix, in canonical scenario-ID order, run as one
//! fresh session over its freshly perturbed network — public API only,
//! with no tile batching, no trace cache and no executor.

use sensei_core::{CellResult, Experiment};
use sensei_fleet::{FleetStats, ScenarioMatrix, TileStats};

/// Every scenario's cell, in canonical order.
pub fn reference_cells(env: &Experiment, matrix: &ScenarioMatrix) -> Vec<CellResult> {
    (0..matrix.num_scenarios(env))
        .map(|id| {
            let sc = matrix.scenario(env, id);
            let trace = matrix.perturbations()[sc.perturbation_idx]
                .apply(&env.traces[sc.trace_idx], sc.seed)
                .unwrap();
            let player = matrix.player(env, sc.player_idx);
            env.run_cells(&env.assets[sc.video_idx], &trace, &[sc.policy], player)
                .unwrap()
                .remove(0)
        })
        .collect()
}

/// The reference semantics of the fleet's aggregates: fold the canonical
/// cell stream tile by tile through [`TileStats`] and merge the tile
/// partials in canonical tile order (baseline: the matrix's first
/// policy, as `FleetConfig::new` defaults).
pub fn canonical_fold(
    env: &Experiment,
    matrix: &ScenarioMatrix,
    cells: &[CellResult],
) -> FleetStats {
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
