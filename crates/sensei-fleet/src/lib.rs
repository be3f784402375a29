//! Sharded, deterministic fleet-simulation engine.
//!
//! The evaluation harness in `sensei-core` runs its `(policy × video ×
//! trace)` grid one session at a time — fine for regenerating a paper
//! figure, a dead end for the ROADMAP's million-user ambitions. This crate
//! scales that same harness to very large session populations while keeping
//! the one property a simulation study cannot give up: **bit-for-bit
//! reproducible results, independent of worker count and scheduling**.
//!
//! Three layers:
//!
//! * [`ScenarioMatrix`] — expands `videos × traces × network perturbations ×
//!   player variants × policies` into an enumerable scenario space. Every
//!   scenario has a stable ID (its position in the canonical enumeration)
//!   and a per-scenario RNG seed derived from the master seed by SplitMix64,
//!   so any scenario can be regenerated in isolation and nothing depends on
//!   execution order.
//! * [`Fleet`] — a std-only sharded executor (`std::thread::scope`; no new
//!   external dependencies, consistent with the offline `shims/` policy).
//!   Workers pull tiles from a shared atomic cursor, fold their own
//!   results into **shard-local partials** and count finished tiles in
//!   a shared atomic; the channel carries only failures, and the
//!   collector merges the O(workers) partials at the end. The aggregates are *defined* as the reduction of
//!   per-tile partials in canonical tile order, and every accumulator
//!   merges as exact integer sums — so 1, 2, or 64 workers (or processes,
//!   via [`merge_reports`]) produce bit-identical results.
//! * [`FleetReport`] — streaming per-policy accumulators: QoE mean/variance
//!   from exact quantized moment sums ([`Moments`]), fixed-bin stall-rate
//!   and bitrate-switch histograms, a fixed-bin QoE-gain CDF against the
//!   matrix's first policy, and sessions/sec throughput. Memory stays
//!   `O(policies × bins)`, not `O(sessions)`.
//!
//! Cross-process sharding rides the same merge law: a [`ShardPlan`] splits
//! the tile range into N contiguous slices, `FleetConfig::with_shard` runs
//! one slice and stamps the partial report with a [`ShardSlice`], and
//! [`merge_reports`] combines N partials bit-identically to the
//! single-process run.
//!
//! `sensei_core::Experiment::run_grid` is the degenerate fleet run: one
//! worker, no perturbations, one player config, one tile per
//! `(video, trace)` pair. [`ScenarioMatrix::grid`] spans exactly that
//! space, and the matrix's canonical enumeration, run one session at a
//! time through `Experiment::run_cells`, reproduces `run_grid` cell for
//! cell (test-enforced).
//!
//! Two layers on top of the executor open the scenario-diversity axis:
//!
//! * [`ScenarioFamilies`] — procedurally generated corpora and trace
//!   families (`sensei-video`/`sensei-trace` generators behind one seeded
//!   spec), so the matrix can span hundreds of distinct videos and
//!   admission-filtered network families instead of the fixed Table-1
//!   sixteen.
//! * [`FleetReport::to_json`] / [`FleetReport::from_json`] /
//!   [`FleetReport::diff`] — lossless persistence of the deterministic
//!   aggregates (via the serde-free [`json`] module) and per-policy
//!   QoE-mean drift detection, the mechanism behind the checked-in
//!   `BASELINE_fleet.json` CI gate.

// Aggregates accumulate and merge in the quantized-integer domain
// (report.rs `Moments`); u64/i128 → f64 happens only when *reading*
// a finished aggregate out for display or JSON. Truncating casts
// are policed per-site: sensei-lint's `no-lossy-cast` plus
// fn-level allows carrying the soundness argument.
#![allow(clippy::cast_precision_loss)]

pub mod executor;
pub mod families;
pub mod json;
pub mod report;
pub mod runtime;
pub mod scenario;

pub use executor::{Fleet, FleetConfig};
pub use families::{ScenarioFamilies, ScenarioFamiliesBuilder};
pub use report::{
    family_of, merge_reports, FamilyDrift, FamilyPolicyStats, FamilyStats, FleetDiff, FleetReport,
    FleetStats, GainCdf, Histogram, Moments, PolicyDrift, PolicyStats, RunPhases, ShardSlice,
    TileStats,
};
pub use runtime::TraceCache;
pub use scenario::{Scenario, ScenarioMatrix, ScenarioMatrixBuilder, ShardPlan, TracePerturbation};
// Re-exported so fleet consumers (benches, integration tests, downstream
// binaries) can name the metric catalog and snapshot types without
// depending on the telemetry crate directly.
pub use sensei_telemetry as telemetry;
pub use sensei_telemetry::{TelemetryShard, TelemetrySnapshot};

use sensei_core::CoreError;

/// Errors produced by the fleet engine.
#[derive(Debug)]
pub enum FleetError {
    /// A scenario axis (policies, players, perturbations — or the
    /// experiment's videos/traces at run time) has no entries.
    EmptyAxis(&'static str),
    /// The executor was configured with zero workers.
    NoWorkers,
    /// A policy appears more than once on the policy axis; the per-policy
    /// aggregates and gain baseline are keyed by policy, so duplicates
    /// would silently merge or shadow each other.
    DuplicatePolicy(sensei_core::PolicyKind),
    /// A player-config variant in the matrix is invalid.
    Player(sensei_sim::SimError),
    /// A trace perturbation in the matrix is invalid (non-positive or
    /// non-finite scale, or negative/non-finite jitter).
    Perturbation {
        /// Index into the perturbation axis.
        index: usize,
        /// The offending scale factor.
        scale: f64,
        /// The offending jitter standard deviation in kbps.
        jitter_std_kbps: f64,
    },
    /// One scenario failed; the run was aborted.
    Scenario {
        /// Stable ID of the failing scenario.
        id: u64,
        /// The underlying failure.
        source: Box<CoreError>,
    },
    /// A persisted fleet report could not be parsed or validated.
    Persist(String),
    /// A procedural scenario-family spec is invalid (zero counts, an
    /// empty family list, or a bad genre mix).
    Family(String),
    /// A shard split is invalid, or partial aggregates could not be
    /// merged (mismatched axes, an incomplete shard set, ranges that do
    /// not partition the tile space).
    Shard(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::EmptyAxis(axis) => write!(f, "scenario axis `{axis}` is empty"),
            FleetError::NoWorkers => write!(f, "fleet configured with zero workers"),
            FleetError::DuplicatePolicy(kind) => {
                write!(
                    f,
                    "policy {} appears twice on the policy axis",
                    kind.label()
                )
            }
            FleetError::Player(e) => write!(f, "invalid player variant: {e}"),
            FleetError::Perturbation {
                index,
                scale,
                jitter_std_kbps,
            } => write!(
                f,
                "perturbation {index} is invalid: scale {scale}, jitter {jitter_std_kbps} kbps"
            ),
            FleetError::Scenario { id, source } => {
                write!(f, "scenario {id} failed: {source}")
            }
            FleetError::Persist(msg) => write!(f, "persisted fleet report is invalid: {msg}"),
            FleetError::Family(msg) => write!(f, "invalid scenario-family spec: {msg}"),
            FleetError::Shard(msg) => write!(f, "invalid fleet shard: {msg}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Player(e) => Some(e),
            FleetError::Scenario { source, .. } => Some(&**source),
            _ => None,
        }
    }
}

/// Fleet errors unify into the workspace-wide error type like every other
/// subsystem error. The conversion lives here (not in `sensei-core`, as the
/// PR-1 `from_error!` impls do) because this crate sits *above* the core in
/// the DAG; `CoreError::Fleet` is type-erased for the same reason.
impl From<FleetError> for CoreError {
    fn from(e: FleetError) -> Self {
        CoreError::Fleet(Box::new(e))
    }
}

/// SplitMix64 — the per-scenario seed derivation. Statistically independent
/// outputs for consecutive inputs, so scenario `id` and scenario `id + 1`
/// get unrelated RNG streams from the same master seed.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        assert_eq!(splitmix64(0), splitmix64(0));
        // Consecutive inputs give wildly different outputs.
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert_ne!(a, b);
        assert!((a ^ b).count_ones() > 8);
    }

    #[test]
    fn fleet_error_displays_and_sources() {
        let e = FleetError::Scenario {
            id: 42,
            source: Box::new(CoreError::BadConfig("boom".into())),
        };
        assert!(e.to_string().contains("scenario 42"));
        assert!(std::error::Error::source(&e).is_some());
        let core: CoreError = FleetError::NoWorkers.into();
        assert!(core.to_string().contains("fleet error"));
    }
}
