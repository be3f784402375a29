//! The per-worker trace-perturbation cache.
//!
//! [`crate::Fleet::run`] gives every worker thread one [`TraceCache`] for
//! the whole run, next to its `sensei_core::SessionRuntime` (the reused
//! policies and simulator buffers). Every non-identity perturbation takes
//! one path, the on-demand [`PerturbedStream`]:
//!
//! * **Scalings** (no jitter) do not depend on any seed. Their stream is
//!   a zero-copy view of the base trace: a download reads `base[i] ·
//!   scale` where it needs it, the product a whole build would store, so
//!   nothing is drawn or kept per `(trace, perturbation)` pair.
//! * **Jittered perturbations** are a pure function of their seed, and
//!   the matrix derives that seed from the tile (see `Scenario::seed`),
//!   so a jittered network never repeats across tiles. It is set up once
//!   per tile and shared by every lane (player variant × policy) of the
//!   tile's one batch. The stream draws Gaussian pairs only as far
//!   as the tile's downloads reach — on the Table-1 evaluation traces
//!   (1,200 one-second samples) the farthest sample a BBA tile reads is
//!   about a fifth of the way in, so most of each regeneration is never
//!   drawn.
//!
//! A tile with an oracle lane, and every caller that wants cells (whose
//! `trace_mean_kbps` is the realized mean), completes the network into a
//! whole trace ([`TraceCache::resolve`]), value-identical to the
//! stream's answers. The last completed trace stays in one slot, keyed
//! by pair and seed (the seed is ignored without jitter), so every lane
//! of that tile shares it.
//!
//! Memory stays bounded per worker: two sample buffers — the stream's
//! and the completed slot's, recycled into each other — however many
//! videos, traces, scales or seeds a run sweeps. A stream carries no
//! name; only a completed trace gets its perturbed name.
//!
//! Caching never changes results: streamed, completed and
//! freshly-applied perturbations are value-identical (asserted by the
//! tests below and by `sensei-trace`'s stream property tests), and which
//! worker's cache served a scenario is invisible to the merge-based
//! aggregates.

use crate::scenario::TracePerturbation;
use sensei_telemetry as telemetry;
use sensei_trace::{Network, PerturbedStream, ThroughputTrace, TraceError};

/// Key of a perturbed trace: indices into the experiment's trace table and
/// the matrix's perturbation axis.
type PairKey = (usize, usize);

/// A tile's network as [`TraceCache::network`] serves it.
pub(crate) enum TileNetwork<'a> {
    /// A whole trace: the base trace, or the perturbation the cache's
    /// completed slot already holds.
    Trace(&'a ThroughputTrace),
    /// A non-identity perturbation served on demand: a zero-copy view
    /// when unjittered, Gaussian pairs drawn as read otherwise.
    Stream(PerturbedStream<'a>),
}

impl TileNetwork<'_> {
    /// Records the samples an on-demand stream drew (set-up plus every
    /// download so far) under [`telemetry::Counter::JitterSamples`]; a
    /// whole trace was counted when [`TraceCache::resolve`] completed it.
    /// Call once, when the tile is done with the network.
    pub(crate) fn count_draws(&self) {
        if let TileNetwork::Stream(stream) = self {
            count_jitter_samples(stream.drawn());
        }
    }
}

impl Network for TileNetwork<'_> {
    fn download_time(&mut self, start_s: f64, bits: f64) -> f64 {
        match self {
            TileNetwork::Trace(trace) => trace.download_time(start_s, bits),
            TileNetwork::Stream(stream) => stream.download_time(start_s, bits),
        }
    }

    fn full_trace(&self) -> Option<&ThroughputTrace> {
        match self {
            TileNetwork::Trace(trace) => Some(trace),
            TileNetwork::Stream(_) => None,
        }
    }
}

/// The per-worker perturbed-trace cache.
pub struct TraceCache {
    /// The recycled sample buffer of the current on-demand stream.
    stream_buf: Vec<f64>,
    /// The most recently completed perturbed trace, its pair and its
    /// slot seed ([`slot_seed`]): every lane and sub-batch of a tile
    /// shares one seed, so one slot serves the whole tile. Tiles never
    /// share a jittered seed, and a scaling's stream is a free view, so
    /// more slots would only hold memory.
    completed: Option<(PairKey, u64, ThroughputTrace)>,
}

impl TraceCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self {
            stream_buf: Vec::new(),
            completed: None,
        }
    }

    /// Resolves the whole perturbed trace for one scenario,
    /// value-identical to `perturbation.apply(base, seed)`: served from
    /// the completed slot when it already holds this network, and
    /// otherwise built in full by completing the stream
    /// `Self::network` would serve, into a recycled buffer.
    ///
    /// # Errors
    ///
    /// Propagates trace-algebra failures, exactly as the uncached path
    /// does.
    pub fn resolve<'a>(
        &'a mut self,
        base: &'a ThroughputTrace,
        perturbation: &TracePerturbation,
        trace_idx: usize,
        perturbation_idx: usize,
        seed: u64,
    ) -> Result<&'a ThroughputTrace, TraceError> {
        if perturbation.is_identity() {
            return Ok(base);
        }
        let pair = (trace_idx, perturbation_idx);
        let key = slot_seed(perturbation, seed);
        if self.holds(pair, key) {
            telemetry::count(telemetry::Counter::TraceCacheHits, 1);
            return Ok(&self.completed.as_ref().expect("checked above").2);
        }
        telemetry::count(telemetry::Counter::TraceMaterializations, 1);
        let (scale, jitter) = (perturbation.scale, perturbation.jitter_std_kbps);
        let stream = base.perturbed_stream(scale, jitter, seed, &mut self.stream_buf)?;
        let trace = stream.complete(base.perturbed_name(scale, jitter))?;
        if jitter > 0.0 {
            count_jitter_samples(trace.samples().len());
        }
        // The completed trace took the stream's buffer; the trace it
        // evicts hands its own buffer to the next stream.
        if let Some((_, _, evicted)) = self.completed.replace((pair, key, trace)) {
            self.stream_buf = evicted.into_samples();
        }
        Ok(&self.completed.as_ref().expect("stored above").2)
    }

    /// The network for one tile whose lanes never read the whole trace:
    /// the base trace for the identity, the completed slot's trace when
    /// it already holds this network, and otherwise an on-demand
    /// [`PerturbedStream`] — a zero-copy view of the base trace for a
    /// scaling, Gaussian pairs drawn as read for a jittered network. The
    /// stream answers every download with the bits of the trace
    /// [`Self::resolve`] would build.
    ///
    /// # Errors
    ///
    /// The errors [`Self::resolve`] returns for the same inputs.
    pub(crate) fn network<'a>(
        &'a mut self,
        base: &'a ThroughputTrace,
        perturbation: &TracePerturbation,
        trace_idx: usize,
        perturbation_idx: usize,
        seed: u64,
    ) -> Result<TileNetwork<'a>, TraceError> {
        let pair = (trace_idx, perturbation_idx);
        if perturbation.is_identity() || self.holds(pair, slot_seed(perturbation, seed)) {
            return self
                .resolve(base, perturbation, trace_idx, perturbation_idx, seed)
                .map(TileNetwork::Trace);
        }
        if perturbation.jitter_std_kbps > 0.0 {
            telemetry::count(telemetry::Counter::TraceMaterializations, 1);
        }
        base.perturbed_stream(
            perturbation.scale,
            perturbation.jitter_std_kbps,
            seed,
            &mut self.stream_buf,
        )
        .map(TileNetwork::Stream)
    }

    /// Whether the completed slot holds `pair`'s network for the slot
    /// seed `seed`.
    fn holds(&self, pair: PairKey, seed: u64) -> bool {
        self.completed
            .as_ref()
            .is_some_and(|(p, s, _)| *p == pair && *s == seed)
    }

    /// Sample capacity the cache keeps allocated between tiles: the
    /// stream buffer's and the completed trace's (read by taking the
    /// trace apart and rebuilding it around the same buffer).
    #[cfg(test)]
    fn retained_capacity(&mut self) -> usize {
        let completed = self.completed.take().map_or(0, |(pair, seed, trace)| {
            let (name, interval_s) = (trace.name_handle(), trace.interval_s());
            let samples = trace.into_samples();
            let capacity = samples.capacity();
            let trace = ThroughputTrace::new(name, interval_s, samples).expect("was a trace");
            self.completed = Some((pair, seed, trace));
            capacity
        });
        self.stream_buf.capacity() + completed
    }
}

/// The seed a network's slot is keyed by: the scenario's seed when
/// jittered, and 0 otherwise — a scaling is the same trace whatever the
/// seed, so every tile of its pair shares the slot.
fn slot_seed(perturbation: &TracePerturbation, seed: u64) -> u64 {
    if perturbation.jitter_std_kbps > 0.0 {
        seed
    } else {
        0
    }
}

/// Adds `samples` to [`telemetry::Counter::JitterSamples`].
fn count_jitter_samples(samples: usize) {
    telemetry::count(
        telemetry::Counter::JitterSamples,
        u64::try_from(samples).unwrap_or(u64::MAX),
    );
}

impl Default for TraceCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ThroughputTrace {
        sensei_trace::generate::hsdpa_like(1500.0, 120, 7)
    }

    #[test]
    fn identity_borrows_the_base_trace() {
        let base = base();
        let mut cache = TraceCache::new();
        let resolved = cache
            .resolve(&base, &TracePerturbation::identity(), 0, 0, 99)
            .unwrap();
        assert!(std::ptr::eq(resolved, &base));
    }

    #[test]
    fn deterministic_perturbations_are_cached_and_value_identical() {
        let base = base();
        let p = TracePerturbation::scaled(0.7);
        let fresh = p.apply(&base, 1).unwrap().into_owned();
        let mut cache = TraceCache::new();
        let first_ptr = {
            let t = cache.resolve(&base, &p, 2, 3, 1).unwrap();
            assert_eq!(*t, fresh, "cached build must equal a fresh apply");
            t.samples().as_ptr()
        };
        // A different seed (different cell, same pair) hits the completed
        // slot: a scaling without jitter is seed-independent.
        let second = cache.resolve(&base, &p, 2, 3, 42).unwrap();
        assert_eq!(*second, fresh);
        assert!(
            std::ptr::eq(second.samples().as_ptr(), first_ptr),
            "second resolve must reuse the cached trace, not rebuild it"
        );
    }

    #[test]
    fn jittered_perturbations_are_a_pure_function_of_the_seed() {
        let base = base();
        let p = TracePerturbation {
            scale: 0.8,
            jitter_std_kbps: 250.0,
        };
        let mut cache = TraceCache::new();
        // Cache output equals the uncached path, name included.
        let fresh_a = p.apply(&base, 11).unwrap().into_owned();
        let a = cache.resolve(&base, &p, 0, 1, 11).unwrap().clone();
        assert_eq!(a, fresh_a);
        // Same seed → same trace, even after the scratch held another cell.
        let b = cache.resolve(&base, &p, 0, 1, 12).unwrap().clone();
        assert_ne!(a.samples(), b.samples(), "different seeds must differ");
        assert_eq!(a.name(), b.name(), "the name is seed-independent");
        let a_again = cache.resolve(&base, &p, 0, 1, 11).unwrap().clone();
        assert_eq!(a, a_again);
        // And the regenerated trace still matches a fresh apply.
        assert_eq!(b, p.apply(&base, 12).unwrap().into_owned());
    }

    #[test]
    fn jittered_slot_serves_a_tile_and_recycles_across_tiles() {
        let base = base();
        let p = TracePerturbation::jittered(300.0);
        let mut cache = TraceCache::new();
        let ptr = |cache: &mut TraceCache, pair: usize, seed: u64| {
            cache
                .resolve(&base, &p, 0, pair, seed)
                .unwrap()
                .samples()
                .as_ptr()
        };
        let a = ptr(&mut cache, 0, 5);
        // The same network again (every lane and sub-batch of a tile
        // shares one seed): no regeneration, the cached trace itself is
        // handed back.
        assert!(std::ptr::eq(a, ptr(&mut cache, 0, 5)));
        // Later tiles regenerate, and two buffers take turns: the one
        // completed slot hands its buffer to the next stream. A different
        // pair shares the same slot and buffers, so the footprint is two
        // traces per worker, not one per pair.
        let b = ptr(&mut cache, 0, 6);
        assert!(!std::ptr::eq(a, b));
        assert!(std::ptr::eq(a, ptr(&mut cache, 1, 7)));
        assert!(std::ptr::eq(b, ptr(&mut cache, 0, 8)));
        assert!(std::ptr::eq(a, ptr(&mut cache, 1, 9)));
        // Regenerated values always equal a fresh apply, wherever the
        // slot has been in between.
        let back = cache.resolve(&base, &p, 0, 0, 5).unwrap().clone();
        assert_eq!(back, p.apply(&base, 5).unwrap().into_owned());
    }

    #[test]
    fn on_demand_networks_answer_with_the_resolved_traces_bits() {
        let base = base();
        let jittered = TracePerturbation {
            scale: 0.9,
            jitter_std_kbps: 400.0,
        };
        let fresh = jittered.apply(&base, 21).unwrap().into_owned();
        let mut cache = TraceCache::new();
        {
            let mut net = cache.network(&base, &jittered, 2, 3, 21).unwrap();
            assert!(matches!(net, TileNetwork::Stream(_)));
            assert!(net.full_trace().is_none());
            for (start, bits) in [(0.0, 2e6), (40.0, 5e6), (3.0, 1e5), (115.0, 9e6)] {
                let want = fresh.download_time(start, bits);
                assert_eq!(net.download_time(start, bits).to_bits(), want.to_bits());
            }
        }
        // Once the network is completed, the same tile is served whole.
        assert_eq!(*cache.resolve(&base, &jittered, 2, 3, 21).unwrap(), fresh);
        let held = cache.network(&base, &jittered, 2, 3, 21).unwrap();
        assert_eq!(held.full_trace(), Some(&fresh));
        // The identity is the base trace itself.
        let id = cache
            .network(&base, &TracePerturbation::identity(), 0, 0, 1)
            .unwrap();
        assert!(std::ptr::eq(id.full_trace().unwrap(), &base));
        // A scaling is on demand too: a view of the base trace that
        // answers with `apply`'s bits, and completes to its trace.
        let scaled = TracePerturbation::scaled(0.7);
        let fresh = scaled.apply(&base, 1).unwrap().into_owned();
        {
            let mut net = cache.network(&base, &scaled, 0, 1, 1).unwrap();
            assert!(net.full_trace().is_none());
            for (start, bits) in [(0.0, 2e6), (40.0, 5e6), (3.0, 1e5), (115.0, 9e6)] {
                let want = fresh.download_time(start, bits);
                assert_eq!(net.download_time(start, bits).to_bits(), want.to_bits());
            }
        }
        assert_eq!(*cache.resolve(&base, &scaled, 0, 1, 1).unwrap(), fresh);
        // The completed scaling is seed-independent: another tile of the
        // pair is served whole from the slot.
        let held = cache.network(&base, &scaled, 0, 1, 77).unwrap();
        assert_eq!(held.full_trace(), Some(&fresh));
    }

    #[test]
    fn counters_report_what_was_drawn() {
        let base = base();
        let scaled = TracePerturbation::scaled(0.7);
        let jittered = TracePerturbation::jittered(300.0);
        let mut cache = TraceCache::new();
        let counts = |shard: &telemetry::TelemetryShard| {
            [
                telemetry::Counter::TraceMaterializations,
                telemetry::Counter::TraceCacheHits,
                telemetry::Counter::JitterSamples,
            ]
            .map(|c| shard.counter(c))
        };
        // A scaled view builds, hits and draws nothing.
        telemetry::begin();
        let mut net = cache.network(&base, &scaled, 0, 1, 4).unwrap();
        net.download_time(10.0, 6e6);
        net.count_draws();
        assert_eq!(counts(&telemetry::end()), [0, 0, 0]);
        // Completing it is one materialization without jitter samples,
        // and the next tile of the pair is a hit.
        telemetry::begin();
        cache.resolve(&base, &scaled, 0, 1, 4).unwrap();
        cache
            .network(&base, &scaled, 0, 1, 5)
            .unwrap()
            .count_draws();
        assert_eq!(counts(&telemetry::end()), [1, 1, 0]);
        // A jittered stream is one materialization and counts its draws.
        telemetry::begin();
        let mut net = cache.network(&base, &jittered, 0, 2, 4).unwrap();
        net.download_time(10.0, 6e6);
        net.count_draws();
        let TileNetwork::Stream(stream) = &net else {
            panic!("a jittered network the slot does not hold is a stream");
        };
        let drawn = stream.drawn() as u64;
        assert!(drawn > 0);
        assert_eq!(counts(&telemetry::end()), [1, 0, drawn]);
    }

    #[test]
    fn cache_retains_no_per_pair_trace() {
        let base = base();
        let len = base.samples().len();
        let mut cache = TraceCache::new();
        // 50 scaled pairs, each read on demand and every fifth also
        // completed, interleaved with 20 jittered tiles: the cache keeps
        // at most the stream's buffer and the completed slot's trace.
        for i in 0..50u32 {
            let scaled = TracePerturbation::scaled(0.3 + f64::from(i) * 0.02);
            let idx = i as usize;
            let mut net = cache.network(&base, &scaled, 0, idx, 3).unwrap();
            net.download_time(f64::from(i), 4e6);
            if i % 5 == 0 {
                let want = scaled.apply(&base, 3).unwrap().into_owned();
                assert_eq!(*cache.resolve(&base, &scaled, 0, idx, 3).unwrap(), want);
            }
            if i % 5 == 2 {
                let jittered = TracePerturbation {
                    scale: 0.9,
                    jitter_std_kbps: 200.0,
                };
                let seed = u64::from(i);
                let mut net = cache.network(&base, &jittered, 1, 50, seed).unwrap();
                net.download_time(30.0, 8e6);
                cache.resolve(&base, &jittered, 1, 50, seed + 1).unwrap();
            }
            assert!(
                cache.retained_capacity() <= 2 * len,
                "after pair {i}: {} samples retained for a {len}-sample trace",
                cache.retained_capacity()
            );
        }
    }
}
