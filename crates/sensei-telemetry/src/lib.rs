//! Deterministic-safe telemetry for the fleet engine.
//!
//! The north star is a fleet serving millions of simulated users; this
//! crate is the measurement layer that keeps that engine from being a
//! black box — without ever touching a result bit. Three design rules:
//!
//! 1. **Simulation-invisible.** Recording only *observes*: counters,
//!    nanosecond phase timers, and fixed-bin histograms. Nothing here
//!    feeds back into any simulated value, and `sensei-fleet`'s tests
//!    assert that aggregates are bit-identical with telemetry enabled
//!    vs. disabled (and across worker counts).
//! 2. **Lock-free shards, commutative merge.** Every worker thread
//!    records into its own thread-local [`TelemetryShard`] — no shared
//!    atomics, no contention on the hot path. Shards are harvested at
//!    collection time and combined with [`TelemetryShard::merge`], whose
//!    fields are all `u64` sums — so merge is exactly associative,
//!    commutative, and order-insensitive (property-tested below). The
//!    fleet's `FleetStats` aggregates now obey the same merge-law
//!    contract (exact integer accumulators), so thread shards and
//!    process shards combine both the same way.
//! 3. **Cheap when off.** Recording is gated by one thread-local flag:
//!    a disabled [`count`] is a single TLS read, and a disabled [`span`]
//!    takes no clock reading at all.
//!
//! The catalog is a closed set of enums ([`Counter`], [`Phase`],
//! [`Hist`]) rather than string keys: shards are flat arrays, recording
//! is an indexed add, and merging is element-wise — no hashing, no
//! allocation, no ordering ambiguity.

// Counters convert to f64 only in snapshot/report derivations
// (rates, percentages); merge correctness stays in u64.
#![allow(clippy::cast_precision_loss)]

use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Monotonic event counters. Each worker's shard accumulates plain sums;
/// the merged fleet-wide totals satisfy structural invariants the fleet
/// tests pin down (e.g. `Sessions == num_scenarios()`,
/// `DtMemoHits <= DtMemoLookups`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Sessions simulated (one per lane scored by the batch runner).
    Sessions,
    /// Tiles executed to completion by fleet workers.
    Tiles,
    /// Session batches run: `Experiment::score_batch_in` calls, one per
    /// fleet tile, per `Experiment::run_cells` call and per
    /// `(video, trace)` pair of `Experiment::run_grid`.
    Batches,
    /// Policy rebinds (once per batch for each policy group whose kind
    /// reads the whole trace — the amortized `O(trace)` cost the tile
    /// engine exists to hoist).
    PolicyRebinds,
    /// Perturbed networks set up (cache misses + regenerations): a whole
    /// trace built (jittered or not), or a jittered on-demand stream
    /// started. A scaling served as a zero-copy view of its base trace
    /// builds nothing and counts here no more than under
    /// [`Counter::TraceCacheHits`].
    TraceMaterializations,
    /// Perturbed-trace cache hits: a whole trace the completed slot
    /// already held, served without regeneration.
    TraceCacheHits,
    /// Plan-search nodes visited by the MPC planners (each `(depth,
    /// level)` expansion of a prefix-sharing DFS).
    PlanNodes,
    /// Plan-search subtrees pruned by the exact branch-and-bound.
    PlanPrunes,
    /// Download times the oracle's trace walk read: one per stepped
    /// child, one per scored leaf. (The name predates the per-node
    /// download-time rows that replaced the oracle's memo.)
    DtMemoLookups,
    /// Reads of those served from a download-time row already filled for
    /// the same node wall clock, by a sibling or an earlier pause
    /// candidate.
    DtMemoHits,
    /// Plan searches that seeded their incumbent from the previous chunk
    /// step's committed plan (the cross-chunk warm start).
    WarmStartHits,
    /// Subtrees pruned while the incumbent was still the warm-start seed
    /// (no leaf had improved on it yet) — the pruning the seed bought
    /// outright.
    SeededPrunes,
    /// Jittered throughput samples drawn by the Gaussian generator, on
    /// demand or to complete a trace — the work an on-demand network
    /// saves shows as this count falling below tiles × trace length.
    /// Unjittered networks add nothing, whether read as a zero-copy
    /// view or completed into a whole trace.
    JitterSamples,
}

impl Counter {
    /// Number of counters in the catalog.
    pub const COUNT: usize = 13;

    /// This counter's shard slot: the enum discriminant as a
    /// lossless array index (so callers never need an `as` cast).
    #[must_use]
    pub fn idx(self) -> usize {
        self as usize
    }

    /// Every counter, in shard index order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::Sessions,
        Counter::Tiles,
        Counter::Batches,
        Counter::PolicyRebinds,
        Counter::TraceMaterializations,
        Counter::TraceCacheHits,
        Counter::PlanNodes,
        Counter::PlanPrunes,
        Counter::DtMemoLookups,
        Counter::DtMemoHits,
        Counter::WarmStartHits,
        Counter::SeededPrunes,
        Counter::JitterSamples,
    ];

    /// Stable snake_case name (the JSON key in the report's `telemetry`
    /// section).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Counter::Sessions => "sessions",
            Counter::Tiles => "tiles",
            Counter::Batches => "batches",
            Counter::PolicyRebinds => "policy_rebinds",
            Counter::TraceMaterializations => "trace_materializations",
            Counter::TraceCacheHits => "trace_cache_hits",
            Counter::PlanNodes => "plan_nodes",
            Counter::PlanPrunes => "plan_prunes",
            Counter::DtMemoLookups => "dt_memo_lookups",
            Counter::DtMemoHits => "dt_memo_hits",
            Counter::WarmStartHits => "warm_start_hits",
            Counter::SeededPrunes => "seeded_prunes",
            Counter::JitterSamples => "jitter_samples",
        }
    }

    /// The counter with this [`Self::name`], if any.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Counter> {
        Counter::ALL.into_iter().find(|c| c.name() == name)
    }
}

/// Timed phases of a fleet run. Each records a call count and a
/// nanosecond total, so both "how often" and "how long" survive the
/// merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Perturbed-network set-up: starting a tile's on-demand stream, or
    /// completing (or fetching) a whole perturbed trace in
    /// `TraceCache`. Samples a stream draws on demand land in
    /// [`Phase::LaneSimulate`] instead.
    NetworkMaterialize,
    /// SoA lane simulation (`simulate_batch_in`), including the samples
    /// an on-demand network draws as downloads reach them.
    LaneSimulate,
    /// True-QoE oracle scoring of the finished lanes.
    Score,
    /// Worker time folding its own tiles into the shard-local partial
    /// aggregates (the merge-based collection path).
    ShardFold,
    /// Collector time reducing the O(workers) shard partials at the end
    /// of a run.
    FinalMerge,
}

impl Phase {
    /// Number of phases in the catalog.
    pub const COUNT: usize = 5;

    /// This phase's shard slot: the enum discriminant as a
    /// lossless array index (so callers never need an `as` cast).
    #[must_use]
    pub fn idx(self) -> usize {
        self as usize
    }

    /// Every phase, in shard index order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::NetworkMaterialize,
        Phase::LaneSimulate,
        Phase::Score,
        Phase::ShardFold,
        Phase::FinalMerge,
    ];

    /// Stable snake_case name (the JSON key in the report's `telemetry`
    /// section).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::NetworkMaterialize => "network_materialize",
            Phase::LaneSimulate => "lane_simulate",
            Phase::Score => "score",
            Phase::ShardFold => "shard_fold",
            Phase::FinalMerge => "final_merge",
        }
    }

    /// The phase with this [`Self::name`], if any.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// Fixed-bin log₂ histograms: value `v` lands in bin `floor(log2(v))`
/// (`0` in bin 0), so 64 bins cover the whole `u64` range with ~2×
/// resolution — plenty for latency and batch-width distributions, and
/// the bin counts merge as plain sums.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hist {
    /// Per-tile wall time in nanoseconds.
    TileNanos,
    /// Lanes per session batch (the effective batch width).
    LanesPerBatch,
}

impl Hist {
    /// Number of histograms in the catalog.
    pub const COUNT: usize = 2;

    /// This hist's shard slot: the enum discriminant as a
    /// lossless array index (so callers never need an `as` cast).
    #[must_use]
    pub fn idx(self) -> usize {
        self as usize
    }

    /// Bins per histogram (log₂ buckets spanning all of `u64`).
    pub const BINS: usize = 64;

    /// Every histogram, in shard index order.
    pub const ALL: [Hist; Hist::COUNT] = [Hist::TileNanos, Hist::LanesPerBatch];

    /// Stable snake_case name (the JSON key in the report's `telemetry`
    /// section).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Hist::TileNanos => "tile_ns",
            Hist::LanesPerBatch => "lanes_per_batch",
        }
    }

    /// The histogram with this [`Self::name`], if any.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Hist> {
        Hist::ALL.into_iter().find(|h| h.name() == name)
    }

    /// The bin index a value lands in: `floor(log2(v))`, with `0` in
    /// bin 0.
    #[must_use]
    pub fn bin_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            63 - value.leading_zeros() as usize
        }
    }
}

/// One worker's metric state: flat `u64` arrays indexed by the catalog
/// enums. Everything is a sum, so [`Self::merge`] is exactly
/// associative, commutative, and order-insensitive — the contract the
/// merge-law tests pin down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryShard {
    /// Event counters, indexed by [`Counter`].
    pub counters: [u64; Counter::COUNT],
    /// Summed nanoseconds per phase, indexed by [`Phase`].
    pub phase_ns: [u64; Phase::COUNT],
    /// Span count per phase, indexed by [`Phase`].
    pub phase_calls: [u64; Phase::COUNT],
    /// Log₂ histogram bins, indexed by [`Hist`] then bin.
    pub hists: [[u64; Hist::BINS]; Hist::COUNT],
}

impl TelemetryShard {
    /// An all-zero shard — the identity element of [`Self::merge`].
    #[must_use]
    pub fn new() -> Self {
        Self {
            counters: [0; Counter::COUNT],
            phase_ns: [0; Phase::COUNT],
            phase_calls: [0; Phase::COUNT],
            hists: [[0; Hist::BINS]; Hist::COUNT],
        }
    }

    /// Whether every field is zero.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self == &Self::new()
    }

    /// Folds `other` into `self`, element-wise. Wrapping adds make the
    /// operation total (and keep it associative even at the `u64` rim);
    /// in practice nothing approaches 2⁶⁴.
    pub fn merge(&mut self, other: &TelemetryShard) {
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a = a.wrapping_add(*b);
        }
        for (a, b) in self.phase_ns.iter_mut().zip(&other.phase_ns) {
            *a = a.wrapping_add(*b);
        }
        for (a, b) in self.phase_calls.iter_mut().zip(&other.phase_calls) {
            *a = a.wrapping_add(*b);
        }
        for (row_a, row_b) in self.hists.iter_mut().zip(&other.hists) {
            for (a, b) in row_a.iter_mut().zip(row_b) {
                *a = a.wrapping_add(*b);
            }
        }
    }

    /// One counter's value.
    #[must_use]
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// One phase's summed nanoseconds.
    #[must_use]
    pub fn phase_ns(&self, p: Phase) -> u64 {
        self.phase_ns[p as usize]
    }

    /// One phase's span count.
    #[must_use]
    pub fn phase_calls(&self, p: Phase) -> u64 {
        self.phase_calls[p as usize]
    }

    /// One histogram's bins.
    #[must_use]
    pub fn hist(&self, h: Hist) -> &[u64; Hist::BINS] {
        &self.hists[h as usize]
    }

    /// Total observations folded into one histogram.
    #[must_use]
    pub fn hist_total(&self, h: Hist) -> u64 {
        self.hists[h as usize].iter().sum()
    }
}

impl Default for TelemetryShard {
    fn default() -> Self {
        Self::new()
    }
}

/// The merged result of a run's shards, attached to `FleetReport` and
/// serialized in the optional `telemetry` JSON section. Wraps the merged
/// [`TelemetryShard`] with derived-rate accessors so reporting code does
/// not re-derive them inconsistently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// The merged shard (all workers + the collector).
    pub shard: TelemetryShard,
}

impl TelemetrySnapshot {
    /// Wraps a merged shard.
    #[must_use]
    pub fn from_shard(shard: TelemetryShard) -> Self {
        Self { shard }
    }

    /// One counter's fleet-wide total.
    #[must_use]
    pub fn counter(&self, c: Counter) -> u64 {
        self.shard.counter(c)
    }

    /// One phase's fleet-wide total in seconds.
    #[must_use]
    pub fn phase_secs(&self, p: Phase) -> f64 {
        self.shard.phase_ns(p) as f64 * 1e-9
    }

    /// Fraction of plan-search subtrees the branch-and-bound cut
    /// (`prunes / (nodes + prunes)`; 0 when the planners never ran).
    #[must_use]
    pub fn prune_rate(&self) -> f64 {
        let nodes = self.counter(Counter::PlanNodes);
        let prunes = self.counter(Counter::PlanPrunes);
        if nodes + prunes == 0 {
            0.0
        } else {
            prunes as f64 / (nodes + prunes) as f64
        }
    }

    /// Share of the oracle walk's download-time reads served from an
    /// already-filled row (`hits / lookups`; 0 when the oracles never
    /// ran). Named after the memo the rows replaced.
    #[must_use]
    pub fn memo_hit_rate(&self) -> f64 {
        let lookups = self.counter(Counter::DtMemoLookups);
        if lookups == 0 {
            0.0
        } else {
            self.counter(Counter::DtMemoHits) as f64 / lookups as f64
        }
    }

    /// Perturbed-trace cache hit rate (`hits / (hits +
    /// materializations)`; 0 when no perturbations resolved).
    #[must_use]
    pub fn trace_cache_hit_rate(&self) -> f64 {
        let hits = self.counter(Counter::TraceCacheHits);
        let total = hits + self.counter(Counter::TraceMaterializations);
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// A compact human-readable phase/counter breakdown.
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "telemetry: {} sessions, {} tiles, {} batches, {} rebinds",
            self.counter(Counter::Sessions),
            self.counter(Counter::Tiles),
            self.counter(Counter::Batches),
            self.counter(Counter::PolicyRebinds),
        );
        if self.counter(Counter::JitterSamples) > 0 {
            let _ = writeln!(
                out,
                "  networks: {} set up, {} cache hits, {} jitter samples drawn",
                self.counter(Counter::TraceMaterializations),
                self.counter(Counter::TraceCacheHits),
                self.counter(Counter::JitterSamples),
            );
        }
        for p in Phase::ALL {
            let calls = self.shard.phase_calls(p);
            if calls > 0 {
                let _ = writeln!(
                    out,
                    "  {:<20} {:>10.3} s over {} spans",
                    p.name(),
                    self.phase_secs(p),
                    calls
                );
            }
        }
        if self.counter(Counter::PlanNodes) > 0 {
            let _ = writeln!(
                out,
                "  planner: {} nodes, prune rate {:.1}%, memo hit rate {:.1}%, {} warm starts",
                self.counter(Counter::PlanNodes),
                self.prune_rate() * 100.0,
                self.memo_hit_rate() * 100.0,
                self.counter(Counter::WarmStartHits),
            );
        }
        out
    }
}

thread_local! {
    /// Whether this thread is currently recording. Checked by every
    /// entry point; one TLS read when off.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    /// This thread's shard. Only touched while `ENABLED` is set.
    static SHARD: RefCell<TelemetryShard> = RefCell::new(TelemetryShard::new());
}

/// Whether this thread is currently recording.
#[must_use]
pub fn is_enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Resets this thread's shard and turns recording on. Call once at the
/// start of a worker's (or collector's) participation in a run; pair
/// with [`end`].
pub fn begin() {
    SHARD.with(|s| *s.borrow_mut() = TelemetryShard::new());
    ENABLED.with(|e| e.set(true));
}

/// Turns recording off and takes this thread's shard (leaving an empty
/// one behind). Returns an empty shard if recording was never begun.
#[must_use]
pub fn end() -> TelemetryShard {
    ENABLED.with(|e| e.set(false));
    SHARD.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

/// Adds `n` to a counter on this thread's shard (no-op when disabled).
pub fn count(c: Counter, n: u64) {
    if is_enabled() {
        SHARD.with(|s| {
            let counters = &mut s.borrow_mut().counters;
            counters[c as usize] = counters[c as usize].wrapping_add(n);
        });
    }
}

/// Folds one observation into a histogram (no-op when disabled).
pub fn observe(h: Hist, value: u64) {
    if is_enabled() {
        SHARD.with(|s| {
            s.borrow_mut().hists[h as usize][Hist::bin_of(value)] += 1;
        });
    }
}

/// Records one completed span of `ns` nanoseconds (no-op when disabled).
pub fn record_phase_ns(p: Phase, ns: u64) {
    if is_enabled() {
        SHARD.with(|s| {
            let shard = &mut *s.borrow_mut();
            shard.phase_ns[p as usize] = shard.phase_ns[p as usize].wrapping_add(ns);
            shard.phase_calls[p as usize] += 1;
        });
    }
}

/// An RAII phase timer: records elapsed nanoseconds into this thread's
/// shard on drop. When recording is disabled the constructor takes no
/// clock reading and the drop is free.
pub struct Span {
    phase: Phase,
    start: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            record_phase_ns(self.phase, ns);
        }
    }
}

/// Opens a phase span (see [`Span`]).
#[must_use]
pub fn span(phase: Phase) -> Span {
    Span {
        phase,
        start: is_enabled().then(Instant::now),
    }
}

/// A clock reading for ad-hoc measurements (histogram observations that
/// are not phases): `Some(now)` when recording, `None` when disabled —
/// so the disabled path never touches the clock.
#[must_use]
pub fn stopwatch() -> Option<Instant> {
    is_enabled().then(Instant::now)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64 — deterministic pseudo-random shard material.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn random_shard(seed: u64) -> TelemetryShard {
        let mut state = seed;
        let mut shard = TelemetryShard::new();
        for c in shard.counters.iter_mut() {
            *c = splitmix(&mut state);
        }
        for p in shard.phase_ns.iter_mut() {
            *p = splitmix(&mut state);
        }
        for p in shard.phase_calls.iter_mut() {
            *p = splitmix(&mut state) >> 32;
        }
        for row in shard.hists.iter_mut() {
            for b in row.iter_mut() {
                *b = splitmix(&mut state) >> 40;
            }
        }
        shard
    }

    fn merged(a: &TelemetryShard, b: &TelemetryShard) -> TelemetryShard {
        let mut out = a.clone();
        out.merge(b);
        out
    }

    #[test]
    fn merge_is_commutative_associative_with_identity() {
        // 64 random triples — a property test in all but macro: the
        // proptest shim's strategies are f64/tuple-shaped, and shards
        // want full-width u64 material anyway.
        for seed in 0..64u64 {
            let (a, b, c) = (
                random_shard(seed * 3 + 1),
                random_shard(seed * 3 + 2),
                random_shard(seed * 3 + 3),
            );
            assert_eq!(merged(&a, &b), merged(&b, &a), "commutativity @ {seed}");
            assert_eq!(
                merged(&merged(&a, &b), &c),
                merged(&a, &merged(&b, &c)),
                "associativity @ {seed}"
            );
            assert_eq!(merged(&a, &TelemetryShard::new()), a, "identity @ {seed}");
        }
    }

    #[test]
    fn merge_is_order_insensitive_over_any_shard_split() {
        // The property the multi-process FleetStats merge will need:
        // folding N shards in any order (and any grouping) yields the
        // same total. Compare the canonical left fold against reversed,
        // interleaved, and pairwise-tree folds.
        let shards: Vec<TelemetryShard> = (0..9).map(|i| random_shard(1000 + i)).collect();
        let fold = |order: &[usize]| {
            let mut out = TelemetryShard::new();
            for &i in order {
                out.merge(&shards[i]);
            }
            out
        };
        let canonical = fold(&[0, 1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(canonical, fold(&[8, 7, 6, 5, 4, 3, 2, 1, 0]));
        assert_eq!(canonical, fold(&[0, 2, 4, 6, 8, 1, 3, 5, 7]));
        // Pairwise tree: ((0+1)+(2+3)) + ((4+5)+(6+7)) + 8.
        let mut tree = merged(&merged(&shards[0], &shards[1]), &shards[2]);
        tree.merge(&shards[3]);
        let mut right = merged(&merged(&shards[4], &shards[5]), &shards[6]);
        right.merge(&shards[7]);
        tree.merge(&right);
        tree.merge(&shards[8]);
        assert_eq!(canonical, tree);
    }

    #[test]
    fn log2_binning_covers_the_u64_range() {
        assert_eq!(Hist::bin_of(0), 0);
        assert_eq!(Hist::bin_of(1), 0);
        assert_eq!(Hist::bin_of(2), 1);
        assert_eq!(Hist::bin_of(3), 1);
        assert_eq!(Hist::bin_of(1024), 10);
        assert_eq!(Hist::bin_of(u64::MAX), 63);
    }

    #[test]
    fn catalog_names_round_trip_and_are_unique() {
        for c in Counter::ALL {
            assert_eq!(Counter::from_name(c.name()), Some(c));
        }
        for p in Phase::ALL {
            assert_eq!(Phase::from_name(p.name()), Some(p));
        }
        for h in Hist::ALL {
            assert_eq!(Hist::from_name(h.name()), Some(h));
        }
        assert_eq!(Counter::ALL.len(), Counter::COUNT);
        assert_eq!(Phase::ALL.len(), Phase::COUNT);
        assert_eq!(Hist::ALL.len(), Hist::COUNT);
    }

    mod recording {
        use super::super::*;

        #[test]
        fn disabled_recording_is_a_no_op() {
            // Not begun on this thread: everything must stay silent.
            assert!(!is_enabled());
            count(Counter::Sessions, 5);
            observe(Hist::TileNanos, 123);
            record_phase_ns(Phase::Score, 42);
            drop(span(Phase::LaneSimulate));
            assert!(stopwatch().is_none());
            assert!(end().is_empty());
        }

        #[test]
        fn begin_records_and_end_harvests() {
            begin();
            assert!(is_enabled());
            count(Counter::Tiles, 2);
            count(Counter::Tiles, 3);
            observe(Hist::LanesPerBatch, 4);
            record_phase_ns(Phase::ShardFold, 100);
            {
                let _span = span(Phase::Score);
                std::hint::black_box(0u64);
            }
            let shard = end();
            assert!(!is_enabled());
            assert_eq!(shard.counter(Counter::Tiles), 5);
            assert_eq!(shard.hist(Hist::LanesPerBatch)[Hist::bin_of(4)], 1);
            assert_eq!(shard.phase_calls(Phase::ShardFold), 1);
            assert_eq!(shard.phase_ns(Phase::ShardFold), 100);
            assert_eq!(shard.phase_calls(Phase::Score), 1);
            // A second end() hands back the empty identity.
            assert!(end().is_empty());
        }

        #[test]
        fn shards_are_per_thread() {
            begin();
            count(Counter::Sessions, 7);
            let other = std::thread::spawn(|| {
                // A fresh thread starts disabled, with its own shard.
                assert!(!is_enabled());
                begin();
                count(Counter::Sessions, 2);
                end()
            })
            .join()
            .expect("thread completes");
            let mine = end();
            assert_eq!(mine.counter(Counter::Sessions), 7);
            assert_eq!(other.counter(Counter::Sessions), 2);
            let mut total = mine;
            total.merge(&other);
            assert_eq!(total.counter(Counter::Sessions), 9);
        }
    }

    #[test]
    fn snapshot_rates_handle_empty_and_populated_shards() {
        let empty = TelemetrySnapshot::from_shard(TelemetryShard::new());
        assert_eq!(empty.prune_rate(), 0.0);
        assert_eq!(empty.memo_hit_rate(), 0.0);
        assert_eq!(empty.trace_cache_hit_rate(), 0.0);
        let mut shard = TelemetryShard::new();
        shard.counters[Counter::PlanNodes as usize] = 75;
        shard.counters[Counter::PlanPrunes as usize] = 25;
        shard.counters[Counter::DtMemoLookups as usize] = 10;
        shard.counters[Counter::DtMemoHits as usize] = 9;
        shard.counters[Counter::TraceCacheHits as usize] = 3;
        shard.counters[Counter::TraceMaterializations as usize] = 1;
        let snap = TelemetrySnapshot::from_shard(shard);
        assert!((snap.prune_rate() - 0.25).abs() < 1e-12);
        assert!((snap.memo_hit_rate() - 0.9).abs() < 1e-12);
        assert!((snap.trace_cache_hit_rate() - 0.75).abs() < 1e-12);
        assert!(snap.summary().contains("prune rate 25.0%"));
    }
}
