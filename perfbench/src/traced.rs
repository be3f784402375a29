//! The traced pass: every tile of the matrix driven through the layers'
//! public entry points from this file, with a span around each call.
//!
//! The order per tile is the executor's: `ScenarioMatrix::scenario`,
//! `TraceCache::resolve`, the policies from `Experiment::policy` (wrapped
//! in [`Timed`], which times `rebind` and `select_batch`),
//! `simulate_batch_in`, `TrueQoe::qoe01`, and the `TileStats` /
//! `FleetStats` fold and merge. The pass runs on one thread with one
//! runtime, like a one-worker fleet, and must reproduce the untraced
//! `FleetStats` bit for bit. The planners' exact counters come from the
//! telemetry shard this thread records while the pass runs.

use crate::workload::Setup;
use sensei_core::{CellResult, PolicyKind};
use sensei_fleet::telemetry::{self, TelemetrySnapshot};
use sensei_fleet::{FleetStats, TileStats, TraceCache};
use sensei_sim::{
    simulate_batch_in, AbrPolicy, BatchLanes, BatchStates, Decision, PlayerState, SessionBatch,
    SessionContext,
};
use sensei_trace::ThroughputTrace;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Nanoseconds elapsed since `started`, saturating.
fn nanos_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// An [`AbrPolicy`] decorator that times `rebind` and `select_batch` and
/// delegates every method to the wrapped policy.
struct Timed {
    inner: Box<dyn AbrPolicy>,
    rebind_ns: u64,
    select_ns: u64,
    /// One sample per `select_batch` call: its time divided by the lanes
    /// in the call.
    per_decision_ns: Vec<u64>,
}

impl Timed {
    fn new(inner: Box<dyn AbrPolicy>) -> Self {
        Self {
            inner,
            rebind_ns: 0,
            select_ns: 0,
            per_decision_ns: Vec::new(),
        }
    }
}

impl AbrPolicy for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, state: &PlayerState<'_>, ctx: &SessionContext<'_>) -> Decision {
        self.inner.decide(state, ctx)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn rebind(&mut self, trace: &ThroughputTrace) {
        let started = Instant::now();
        self.inner.rebind(trace);
        self.rebind_ns += nanos_since(started);
    }

    fn begin_batch(&mut self, lanes: usize) {
        self.inner.begin_batch(lanes);
    }

    fn select_batch(
        &mut self,
        states: &BatchStates<'_>,
        ctx: &SessionContext<'_>,
        out: &mut [Decision],
    ) {
        let started = Instant::now();
        self.inner.select_batch(states, ctx, out);
        let ns = nanos_since(started);
        self.select_ns += ns;
        let lanes = u64::try_from(states.len()).unwrap_or(u64::MAX).max(1);
        self.per_decision_ns.push(ns / lanes);
    }
}

/// Per-layer totals of one traced pass.
pub struct Layers {
    /// `ScenarioMatrix::scenario` time.
    pub scenario_s: f64,
    /// `TraceCache::resolve` time.
    pub resolve_s: f64,
    /// `AbrPolicy::rebind` time, all policies.
    pub rebind_s: f64,
    /// `select_batch` time per policy the pass ran, in matrix order.
    pub plan_s: Vec<(PolicyKind, f64)>,
    /// `simulate_batch_in` time minus the `select_batch` time inside it.
    pub player_s: f64,
    /// `TrueQoe::qoe01` time.
    pub score_s: f64,
    /// Tile folds plus their merges into the pass's partial.
    pub fold_s: f64,
    /// The final reduction into a fresh `FleetStats`.
    pub final_merge_s: f64,
    /// Wall time of the whole pass.
    pub wall_s: f64,
    /// Each tile's wall time, in tile order.
    pub tile_ns: Vec<u64>,
    /// Every `select_batch` call's time divided by its lanes.
    pub decide_ns: Vec<u64>,
}

impl Layers {
    /// Sum of the layers' self times.
    pub fn attributed_s(&self) -> f64 {
        self.scenario_s
            + self.resolve_s
            + self.rebind_s
            + self.plan_s.iter().map(|(_, s)| s).sum::<f64>()
            + self.player_s
            + self.score_s
            + self.fold_s
            + self.final_merge_s
    }

    /// Sum of the tiles' wall times.
    pub fn tile_busy_s(&self) -> f64 {
        self.tile_ns.iter().map(|&ns| ns as f64 * 1e-9).sum()
    }
}

/// The outcome of one traced pass.
pub struct TracedPass {
    /// The aggregates, to compare with the untraced runs'.
    pub stats: FleetStats,
    /// Where the time went.
    pub layers: Layers,
    /// The exact telemetry counts this thread recorded during the pass.
    pub counters: TelemetrySnapshot,
}

/// Runs every tile of `setup`'s matrix through the layers, timing each.
///
/// # Errors
///
/// Returns the first failing layer's error message.
pub fn run(setup: &Setup) -> Result<TracedPass, String> {
    telemetry::begin();
    let pass = run_tiles(setup);
    let counters = TelemetrySnapshot::from_shard(telemetry::end());
    let (stats, layers) = pass?;
    Ok(TracedPass {
        stats,
        layers,
        counters,
    })
}

fn run_tiles(setup: &Setup) -> Result<(FleetStats, Layers), String> {
    let pass_started = Instant::now();
    let env = &setup.experiment;
    let matrix = &setup.matrix;
    let policies = matrix.policies();
    let baseline = policies[0];
    let players: Vec<_> = (0..matrix.num_players())
        .map(|p| *matrix.player(env, p))
        .collect();
    let tile_size = matrix.tile_size();
    let num_tiles = matrix.num_tiles(env);

    let mut cache = TraceCache::new();
    let mut batch = SessionBatch::new();
    let mut slots: Vec<Option<Timed>> = policies.iter().map(|_| None).collect();
    let mut results = Vec::new();
    let mut cells: Vec<CellResult> = Vec::new();
    let mut tile_stats = TileStats::new(policies, baseline);
    let mut partial = FleetStats::new(policies, baseline);
    let (mut scenario, mut resolve, mut simulate, mut score, mut fold) = (
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
    );
    let mut tile_ns = Vec::with_capacity(usize::try_from(num_tiles).unwrap_or(0));

    for tile in 0..num_tiles {
        let tile_started = Instant::now();

        let started = Instant::now();
        let sc = matrix.scenario(env, tile * tile_size);
        scenario += started.elapsed();
        let asset = &env.assets[sc.video_idx];

        let started = Instant::now();
        let trace = cache
            .resolve(
                &env.traces[sc.trace_idx],
                &matrix.perturbations()[sc.perturbation_idx],
                sc.trace_idx,
                sc.perturbation_idx,
                sc.seed,
            )
            .map_err(|e| format!("tile {tile}: trace resolve failed: {e}"))?;
        resolve += started.elapsed();

        // Policies are built on first use and rebound once per tile, as
        // the executor's per-worker runtime does.
        for (slot, &kind) in slots.iter_mut().zip(policies) {
            let policy = match slot {
                Some(policy) => policy,
                None => slot.insert(Timed::new(
                    env.policy(kind, trace).map_err(|e| e.to_string())?,
                )),
            };
            policy.rebind(trace);
        }
        let mut groups: Vec<BatchLanes<'_, '_>> = slots
            .iter_mut()
            .zip(policies)
            .map(|(slot, &kind)| BatchLanes {
                policy: slot.as_mut().expect("built above"),
                weights: kind.uses_weights().then_some(&asset.weights),
                configs: &players,
            })
            .collect();
        let started = Instant::now();
        simulate_batch_in(
            &mut batch,
            &asset.source,
            &asset.encoded,
            trace,
            &mut groups,
            &mut results,
        )
        .map_err(|e| format!("tile {tile}: {e}"))?;
        simulate += started.elapsed();
        drop(groups);

        // Results come back grouped by policy; cells go out in the
        // tile's canonical lane order (players outer, policies inner).
        let trace_name = trace.name_handle();
        let trace_mean_kbps = trace.mean_kbps();
        cells.clear();
        for p in 0..players.len() {
            for (j, &kind) in policies.iter().enumerate() {
                let result = &results[j * players.len() + p];
                let started = Instant::now();
                let qoe01 = env
                    .oracle
                    .qoe01(&asset.source, &result.render)
                    .map_err(|e| format!("tile {tile}: scoring failed: {e}"))?;
                score += started.elapsed();
                cells.push(CellResult {
                    video: Arc::clone(&asset.name),
                    genre: asset.genre,
                    trace: Arc::clone(&trace_name),
                    trace_mean_kbps,
                    policy: kind.label(),
                    qoe01,
                    avg_bitrate_kbps: result.render.avg_bitrate_kbps(),
                    rebuffer_ratio: result.render.rebuffer_ratio(),
                    delivered_bits: result.render.delivered_bits(),
                    intentional_stall_s: result
                        .render
                        .chunks()
                        .iter()
                        .map(|c| c.intentional_rebuffer_s)
                        .sum(),
                    bitrate_switches: result.levels.windows(2).filter(|w| w[0] != w[1]).count(),
                });
            }
        }
        for result in results.drain(..) {
            batch.reclaim(result);
        }

        let started = Instant::now();
        tile_stats.reset();
        for group in cells.chunks_exact(policies.len()) {
            tile_stats.fold_cell(group);
        }
        partial
            .merge(tile_stats.stats())
            .map_err(|e| e.to_string())?;
        fold += started.elapsed();

        tile_ns.push(nanos_since(tile_started));
    }

    let started = Instant::now();
    let mut stats = FleetStats::new(policies, baseline);
    stats.merge(&partial).map_err(|e| e.to_string())?;
    let final_merge_s = started.elapsed().as_secs_f64();

    let (mut rebind_ns, mut select_ns) = (0, 0);
    let (mut plan_s, mut decide_ns) = (Vec::new(), Vec::new());
    for (slot, &kind) in slots.into_iter().zip(policies) {
        if let Some(mut timed) = slot {
            rebind_ns += timed.rebind_ns;
            select_ns += timed.select_ns;
            plan_s.push((kind, timed.select_ns as f64 * 1e-9));
            decide_ns.append(&mut timed.per_decision_ns);
        }
    }
    let layers = Layers {
        scenario_s: scenario.as_secs_f64(),
        resolve_s: resolve.as_secs_f64(),
        rebind_s: rebind_ns as f64 * 1e-9,
        plan_s,
        player_s: simulate.as_secs_f64() - select_ns as f64 * 1e-9,
        score_s: score.as_secs_f64(),
        fold_s: fold.as_secs_f64(),
        final_merge_s,
        wall_s: pass_started.elapsed().as_secs_f64(),
        tile_ns,
        decide_ns,
    };
    Ok((stats, layers))
}
