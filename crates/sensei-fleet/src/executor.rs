//! The std-only tile-scheduled executor.
//!
//! The scheduling unit is a **tile** — the contiguous scenario-ID range
//! sharing one `(video, trace, perturbation)` triple (every player variant
//! × policy of that cell group). Workers pull tile IDs from a shared
//! atomic cursor (dynamic load balancing — an expensive MPC tile on one
//! worker doesn't idle the rest), run each tile through one
//! structure-of-arrays session batch (`Experiment::score_batch_in`), and
//! **fold the tile's scored lanes straight into their worker-local
//! [`FleetStats`] partial** (`FleetStats::fold_scores`). Tiling is what
//! amortizes the per-network work: the perturbed network is set up once
//! per tile (`TraceCache`) and, unless an oracle lane reads the whole
//! trace, drawn only as far as the tile's downloads reach; the oracles
//! rebind once per tile instead of once per session; and the batch
//! engine replaces per-session policy dispatch with one `select_batch`
//! call per chunk. [`Fleet::run`] is the executor's one entry point and
//! always runs a tile as one full-width batch; per-session cells come
//! from `Experiment::run_session_with` / `run_grid`, outside the fleet.
//!
//! Collection is merge-based, not stream-based. The deterministic result
//! is *defined* as the reduction of per-tile partials in canonical tile
//! order, and every accumulator folds and merges as an exact integer sum
//! — so the reduction is associative and commutative and can be
//! evaluated in any grouping, a worker folding tile after tile into one
//! partial included. Each worker keeps one shard-local partial and counts its
//! finished tiles in one shared atomic; the channel carries only
//! failures (for minimum-ID error attribution), and the collector merges
//! the O(workers) fixed-shape partials after the scope joins. No
//! per-tile or per-cell sends, no reorder buffer, no admission window: a
//! successful tile never wakes the collector, collector time is
//! independent of session and tile count, and nothing serializes the
//! workers.
//!
//! The same merge law spans processes: [`FleetConfig::with_shard`]
//! restricts a run to one of `n` contiguous tile slices (from
//! [`ShardPlan`]), the partial report carries a [`ShardSlice`] stamp,
//! and [`crate::merge_reports`] combines the N partials bit-identically
//! to the single-process run.

use crate::report::{FleetReport, FleetStats, RunPhases, ShardSlice};
use crate::runtime::{TileNetwork, TraceCache, WorkerRuntime};
use crate::scenario::{Scenario, ScenarioMatrix, ShardPlan};
use crate::FleetError;
use sensei_core::{CoreError, Experiment, LaneScore, PolicyKind};
use sensei_sim::PlayerConfig;
use sensei_telemetry as telemetry;
use sensei_telemetry::{TelemetryShard, TelemetrySnapshot};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Executor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Worker threads to shard tiles across (must be ≥ 1).
    pub workers: usize,
    /// Baseline policy for the QoE-gain CDFs; defaults to the matrix's
    /// first policy.
    pub baseline: Option<PolicyKind>,
    /// Run only this `(index, count)` process shard — the `index`-th of
    /// `count` contiguous tile slices from [`ShardPlan`] — and stamp the
    /// report with the covered [`ShardSlice`]. `None` (the default) runs
    /// the whole matrix. The `count` partial reports merge
    /// bit-identically to the unsharded run via [`crate::merge_reports`].
    pub shard: Option<(u64, u64)>,
    /// Collect per-worker telemetry shards (counters, phase timers,
    /// histograms) and attach the merged [`TelemetrySnapshot`] to the
    /// report. Recording is simulation-invisible: aggregates are
    /// bit-identical with this on or off (test-enforced).
    pub telemetry: bool,
    /// Emit a live `\r`-rewritten progress line on stderr (tiles done,
    /// sessions/s, ETA), reprinted from the workers' finished-tile count
    /// every 200 ms.
    pub progress: bool,
}

impl FleetConfig {
    /// A config with `workers` threads and the default baseline.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Self {
            workers,
            baseline: None,
            shard: None,
            telemetry: false,
            progress: false,
        }
    }

    /// Sets the gain baseline policy.
    #[must_use]
    pub fn with_baseline(mut self, baseline: PolicyKind) -> Self {
        self.baseline = Some(baseline);
        self
    }

    /// Restricts the run to shard `index` of `count` contiguous tile
    /// slices.
    #[must_use]
    pub fn with_shard(mut self, index: u64, count: u64) -> Self {
        self.shard = Some((index, count));
        self
    }

    /// Turns telemetry collection on or off.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: bool) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Turns the live stderr progress line on or off.
    #[must_use]
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }
}

impl Default for FleetConfig {
    /// One worker per available core.
    fn default() -> Self {
        Self::new(
            thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }
}

/// A fleet run bound to an experiment environment and a scenario matrix.
#[derive(Clone, Copy)]
pub struct Fleet<'a> {
    experiment: &'a Experiment,
    matrix: &'a ScenarioMatrix,
    workers: usize,
    baseline: PolicyKind,
    shard: Option<(u64, u64)>,
    telemetry: bool,
    progress: bool,
}

impl<'a> Fleet<'a> {
    /// Binds `matrix` to `experiment` under `config`.
    ///
    /// # Errors
    ///
    /// Returns an error when the config asks for zero workers, names a
    /// baseline policy outside the matrix, or carries an out-of-range
    /// shard split.
    pub fn new(
        experiment: &'a Experiment,
        matrix: &'a ScenarioMatrix,
        config: FleetConfig,
    ) -> Result<Self, FleetError> {
        if config.workers == 0 {
            return Err(FleetError::NoWorkers);
        }
        let baseline = config.baseline.unwrap_or(matrix.policies()[0]);
        if !matrix.policies().contains(&baseline) {
            return Err(FleetError::BaselineNotInMatrix(baseline));
        }
        if let Some((index, count)) = config.shard {
            if count == 0 {
                return Err(FleetError::Shard("shard count must be at least 1".into()));
            }
            if index >= count {
                return Err(FleetError::Shard(format!(
                    "shard index {index} out of range for {count} shards"
                )));
            }
        }
        Ok(Self {
            experiment,
            matrix,
            workers: config.workers,
            baseline,
            shard: config.shard,
            telemetry: config.telemetry,
            progress: config.progress,
        })
    }

    /// Total scenarios in the whole (unsharded) matrix.
    #[must_use]
    pub fn num_scenarios(&self) -> u64 {
        self.matrix.num_scenarios(self.experiment)
    }

    /// The tile range this run covers — the whole matrix, or this
    /// shard's contiguous slice of it — plus the [`ShardSlice`] stamp
    /// for partial reports.
    fn tile_range(&self) -> (Range<u64>, Option<ShardSlice>) {
        let total_tiles = self.matrix.num_tiles(self.experiment);
        match self.shard {
            None => (0..total_tiles, None),
            Some((index, count)) => {
                let plan = ShardPlan::new(total_tiles, count)
                    .expect("shard count was validated at construction");
                let range = plan.range(index);
                let slice = ShardSlice {
                    index,
                    count,
                    tile_lo: range.start,
                    tile_hi: range.end,
                    total_tiles,
                };
                (range, Some(slice))
            }
        }
    }

    /// The lane list every tile shares: `(policy, player)` pairs in
    /// canonical order (player variants outer, policies inner — the
    /// tile's scenario IDs in sequence). Tile-invariant, so workers
    /// build it once per run.
    fn tile_lanes(&self) -> Vec<(PolicyKind, PlayerConfig)> {
        let mut lanes =
            Vec::with_capacity(self.matrix.num_players() * self.matrix.policies().len());
        for player_idx in 0..self.matrix.num_players() {
            let player = *self.matrix.player(self.experiment, player_idx);
            for &policy in self.matrix.policies() {
                lanes.push((policy, player));
            }
        }
        lanes
    }

    /// Simulates and scores one tile — every `(player, policy)` lane of
    /// one `(video, trace, perturbation)` triple — against a worker's
    /// runtime, appending the lanes' scores in canonical lane order to
    /// `scores` and returning the network's trace name. This is the
    /// stats path: unless a lane reads the whole trace (`reads_trace`,
    /// tile-invariant), the network is drawn on demand, and no trace mean
    /// is ever computed.
    ///
    /// Apart from the runtime's caches (which are result-invisible:
    /// reused policies are reset per session and cached or streamed
    /// networks are value-identical to fresh perturbations), a tile is a
    /// pure function of (experiment, matrix, tile) — which is what makes
    /// sharding trivially sound. Errors are attributed to the exact
    /// failing scenario ID.
    fn score_tile(
        &self,
        rt: &mut WorkerRuntime,
        tile: u64,
        lanes: &[(PolicyKind, PlayerConfig)],
        reads_trace: bool,
        scores: &mut Vec<LaneScore>,
    ) -> Result<Arc<str>, (u64, CoreError)> {
        let (first_id, sc) = self.tile_scenario(tile);
        let WorkerRuntime { session, traces } = rt;
        let mut network = self
            .tile_network(traces, &sc, reads_trace)
            .map_err(|e| (first_id, e))?;
        let asset = &self.experiment.assets[sc.video_idx];
        // One batch runs every lane of the tile over the one network, so
        // a stream draws each sample at most once per tile.
        self.experiment
            .score_batch_in(session, asset, &mut network, lanes, scores)
            .map_err(|failure| (first_id + failure.lane as u64, failure.error))?;
        network.count_draws();
        Ok(network.name_handle())
    }

    /// A tile's first scenario ID and its decoded scenario (every lane of
    /// the tile shares the video, trace, perturbation and seed).
    fn tile_scenario(&self, tile: u64) -> (u64, Scenario) {
        let first_id = tile * self.matrix.tile_size();
        (first_id, self.matrix.scenario(self.experiment, first_id))
    }

    /// Sets up the network of the tile `sc` belongs to: the whole trace
    /// when `whole` (an oracle lane needs it), and otherwise whatever
    /// `TraceCache::network` serves, on demand.
    fn tile_network<'r>(
        &'r self,
        traces: &'r mut TraceCache,
        sc: &Scenario,
        whole: bool,
    ) -> Result<TileNetwork<'r>, CoreError> {
        let _span = telemetry::span(telemetry::Phase::NetworkMaterialize);
        let base = &self.experiment.traces[sc.trace_idx];
        let perturbation = &self.matrix.perturbations()[sc.perturbation_idx];
        let (ti, pi) = (sc.trace_idx, sc.perturbation_idx);
        Ok(if whole {
            TileNetwork::Trace(traces.resolve(base, perturbation, ti, pi, sc.seed)?)
        } else {
            traces.network(base, perturbation, ti, pi, sc.seed)?
        })
    }

    /// Runs the matrix (or this fleet's shard of it) and streams every
    /// session into the `O(bins)`-memory aggregates. This is the
    /// fleet-scale entry point: per-session results are folded into
    /// shard-local partials where they are produced, never collected.
    ///
    /// Workers pull tiles off a shared cursor and fold each one into
    /// their own [`FleetStats`] partial; the O(workers) partials are
    /// reduced into one aggregate after the scope joins. Finished tiles
    /// are counted in a shared atomic that the progress meter polls, and
    /// the channel carries only failures (for minimum-ID error
    /// attribution), so a successful tile never wakes the collector and
    /// collection work is independent of session and tile count. The
    /// report's setup / execute / collect
    /// [`RunPhases`] split is recorded with plain `Instant` reads, and
    /// the merged telemetry snapshot is attached when telemetry is on.
    ///
    /// # Errors
    ///
    /// Aborts on the first scenario failure, identifying the scenario by
    /// its stable ID (re-runnable in isolation via
    /// [`ScenarioMatrix::scenario`]).
    pub fn run(&self) -> Result<FleetReport, FleetError> {
        // sensei-lint: allow(no-wall-clock) — wall_time_s and the setup_s phase split are observability (RunPhases/throughput); diff() ignores them
        let started = Instant::now();
        if self.num_scenarios() == 0 {
            return Err(FleetError::EmptyAxis("scenarios"));
        }
        let mut phases = RunPhases::default();
        let tile_size = self.matrix.tile_size();
        let (tiles, shard) = self.tile_range();
        let shard_tiles = tiles.end - tiles.start;
        let cursor = AtomicU64::new(tiles.start);
        let poison = AtomicBool::new(false);
        // Finished tiles, counted by the workers and polled by the
        // progress meter; the final count is read after the scope joins.
        let tiles_done = AtomicU64::new(0);
        // Only failures travel the channel: the failing scenario ID and
        // its error, at most one per worker (a failed worker stops).
        let (tx, rx) = mpsc::channel::<(u64, CoreError)>();
        // Shard-local partials, pushed once per worker at exit. Push
        // order (and therefore merge order) is scheduling-dependent —
        // which is fine, because `FleetStats::merge` is exact, so any
        // merge grouping reproduces the canonical tile-order reduction
        // bit for bit.
        let partials: Mutex<Vec<FleetStats>> = Mutex::new(Vec::with_capacity(self.workers));
        // Harvested per-worker telemetry shards (merge order is
        // irrelevant — the merge-law tests pin that down).
        let shards: Mutex<Vec<TelemetryShard>> = Mutex::new(Vec::new());
        let mut progress = self
            .progress
            .then(|| ProgressMeter::new(shard_tiles, tile_size));
        phases.setup_s = started.elapsed().as_secs_f64();
        // sensei-lint: allow(no-wall-clock) — execute_s phase split is observability; never feeds aggregates
        let scope_started = Instant::now();
        // The main thread performs the final merge after the scope, so
        // its shard is begun here and harvested after that merge.
        if self.telemetry {
            telemetry::begin();
        }
        let scope_error = thread::scope(|scope| {
            for _ in 0..self.workers {
                let tx = tx.clone();
                let cursor = &cursor;
                let poison = &poison;
                let tiles_done = &tiles_done;
                let partials = &partials;
                let shards = &shards;
                let tiles_end = tiles.end;
                let fleet = *self;
                scope.spawn(move || {
                    // If this worker panics (a bug deep in a policy or the
                    // simulator), poison the run on unwind so the other
                    // workers stop pulling tiles; the scope then
                    // propagates the panic.
                    let _guard = PoisonOnPanic { poison };
                    // One runtime per worker for the whole run: policies,
                    // batch scratch, and perturbed networks are reused
                    // across every tile this worker executes. The lane
                    // list (and whether any lane reads the whole trace)
                    // is tile-invariant, so it is built once here — as
                    // are the shard-local partial and the score buffer.
                    let mut runtime = WorkerRuntime::new();
                    let lanes = fleet.tile_lanes();
                    let reads_trace = lanes.iter().any(|(kind, _)| kind.reads_trace());
                    let policies = fleet.matrix.policies();
                    let mut partial = FleetStats::new(policies, fleet.baseline);
                    let mut scores: Vec<LaneScore> =
                        Vec::with_capacity(usize::try_from(tile_size).unwrap_or(0));
                    if fleet.telemetry {
                        telemetry::begin();
                    }
                    loop {
                        if poison.load(Ordering::Relaxed) {
                            break;
                        }
                        let tile = cursor.fetch_add(1, Ordering::Relaxed);
                        if tile >= tiles_end {
                            break;
                        }
                        scores.clear();
                        let tile_started = telemetry::stopwatch();
                        let run =
                            fleet.score_tile(&mut runtime, tile, &lanes, reads_trace, &mut scores);
                        let trace_name = match run {
                            Ok(trace_name) => trace_name,
                            Err(failure) => {
                                poison.store(true, Ordering::Relaxed);
                                // A send error means the collector hung
                                // up; either way a failed worker is done.
                                let _ = tx.send(failure);
                                break;
                            }
                        };
                        telemetry::count(telemetry::Counter::Tiles, 1);
                        if let Some(started) = tile_started {
                            let ns =
                                u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                            telemetry::observe(telemetry::Hist::TileNanos, ns);
                        }
                        {
                            // Folded where the results were produced.
                            // Every accumulator is an exact integer sum,
                            // so folding tile after tile into one partial
                            // equals merging per-tile partials in tile
                            // order. Policy is the innermost lane axis, so
                            // every `policies` consecutive scores form one
                            // group.
                            let _span = telemetry::span(telemetry::Phase::ShardFold);
                            for group in scores.chunks_exact(policies.len()) {
                                partial.fold_scores(&trace_name, group);
                            }
                        }
                        tiles_done.fetch_add(1, Ordering::Relaxed);
                    }
                    partials.lock().expect("partials lock").push(partial);
                    if fleet.telemetry {
                        shards.lock().expect("shard lock").push(telemetry::end());
                    }
                });
            }
            drop(tx);

            // Lowest failing scenario ID seen. Keeping the minimum (rather
            // than whichever error arrives first) stabilizes the reported
            // scenario across interleavings of the failures that did run;
            // with several failing scenarios, poisoning can still stop a
            // lower one from running at all. Between failures the
            // collector sleeps, waking once per throttle interval to
            // reprint the progress line; it returns once every worker
            // has dropped its sender.
            let mut error: Option<(u64, CoreError)> = None;
            loop {
                match rx.recv_timeout(ProgressMeter::THROTTLE) {
                    Ok((id, e)) => {
                        poison.store(true, Ordering::Relaxed);
                        if error.as_ref().is_none_or(|(worst, _)| id < *worst) {
                            error = Some((id, e));
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        if let Some(meter) = progress.as_mut() {
                            meter.print(tiles_done.load(Ordering::Relaxed));
                        }
                    }
                    Err(RecvTimeoutError::Disconnected) => return error,
                }
            }
        });
        // The whole scope wall is execute time: simulation plus each
        // worker's shard-local folds (the `shard_fold` telemetry phase
        // breaks the latter out).
        phases.execute_s = scope_started.elapsed().as_secs_f64();
        // The joined scope makes every worker's count visible.
        let done = tiles_done.into_inner();
        if let Some(meter) = progress.as_mut() {
            meter.finish(done);
        }
        // A worker panic re-raises from the scope above, so reaching here
        // means every tile ran unless a failure poisoned the run.
        debug_assert!(scope_error.is_some() || done == shard_tiles);
        // The final reduce: `workers` fixed-shape merges, independent of
        // how many sessions streamed through the run.
        // sensei-lint: allow(no-wall-clock) — collect_s phase split is observability; never feeds aggregates
        let merge_started = Instant::now();
        let mut stats = FleetStats::new(self.matrix.policies(), self.baseline);
        {
            let _span = telemetry::span(telemetry::Phase::FinalMerge);
            for partial in partials.into_inner().expect("partials lock").iter() {
                stats
                    .merge(partial)
                    .expect("worker partials share the fleet's axes");
            }
        }
        phases.collect_s = merge_started.elapsed().as_secs_f64();
        // Harvest and merge before propagating any scenario error, so
        // the main thread's recording flag never leaks past this call.
        let snapshot = if self.telemetry {
            let mut merged = telemetry::end();
            for shard in shards.into_inner().expect("shard lock") {
                merged.merge(&shard);
            }
            Some(TelemetrySnapshot::from_shard(merged))
        } else {
            None
        };
        if let Some((id, e)) = scope_error {
            return Err(FleetError::Scenario {
                id,
                source: Box::new(e),
            });
        }
        let wall_time_s = started.elapsed().as_secs_f64();
        let sessions = stats.sessions;
        Ok(FleetReport {
            stats,
            workers: self.workers,
            wall_time_s,
            sessions_per_sec: sessions as f64 / wall_time_s.max(1e-9),
            phases,
            telemetry: snapshot,
            shard,
        })
    }
}

/// The [`FleetConfig::progress`] live progress line: a `\r`-rewritten
/// stderr status that the collector reprints from the workers'
/// finished-tile count once per [`Self::THROTTLE`], so a fast quick-run
/// does not flood the terminal. Session counts are derived from finished
/// tiles (`tiles × tile_size`), so the line needs no extra coordination
/// with the workers.
struct ProgressMeter {
    started: Instant,
    printed: bool,
    total_tiles: u64,
    tile_size: u64,
}

impl ProgressMeter {
    /// Interval between reprints: the collector's poll period.
    const THROTTLE: Duration = Duration::from_millis(200);

    fn new(total_tiles: u64, tile_size: u64) -> Self {
        Self {
            // sensei-lint: allow(no-wall-clock) — progress-line ETA anchor; display only
            started: Instant::now(),
            printed: false,
            total_tiles,
            tile_size,
        }
    }

    /// Prints the final state and releases the line with a newline.
    fn finish(&mut self, tiles_done: u64) {
        self.print(tiles_done);
        if self.printed {
            eprintln!();
        }
    }

    /// Rewrites the line for a finished-tile count.
    fn print(&mut self, tiles_done: u64) {
        self.printed = true;
        let elapsed = self.started.elapsed().as_secs_f64().max(1e-9);
        let sessions = tiles_done.saturating_mul(self.tile_size);
        let rate = sessions as f64 / elapsed;
        let eta = if tiles_done == 0 {
            "?".to_string()
        } else {
            let remaining = self.total_tiles.saturating_sub(tiles_done) as f64;
            format!("{:.0}s", elapsed / tiles_done as f64 * remaining)
        };
        eprint!(
            "\r[fleet] tiles {tiles_done}/{} | {sessions} sessions | {rate:.0}/s | ETA {eta}",
            self.total_tiles
        );
    }
}

/// Poisons the run if the owning worker unwinds, so the rest of the fleet
/// stops pulling tiles and the worker scope can propagate the panic.
struct PoisonOnPanic<'a> {
    poison: &'a AtomicBool,
}

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.poison.store(true, Ordering::Relaxed);
        }
    }
}
