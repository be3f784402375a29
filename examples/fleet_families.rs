//! Procedural scenario families at fleet scale, plus baseline diffing.
//!
//! Full mode expands a 120-video procedural corpus across three generated
//! trace families (diurnal load, cross-traffic bursts, correlated shared
//! cells — all admission-filtered to the paper's 0.2–6 Mbps band) and
//! streams the whole matrix through the sharded executor.
//!
//! Quick mode (`SENSEI_FLEET_QUICK=1`) runs a bounded family matrix and
//! **diffs its deterministic aggregates against the checked-in
//! `BASELINE_fleet.json`**, failing on per-policy QoE-mean drift beyond
//! tolerance — the CI regression gate for the whole simulation stack.
//!
//! ```sh
//! cargo run --release --example fleet_families                 # full sweep
//! SENSEI_FLEET_QUICK=1 cargo run --release --example fleet_families  # CI gate
//! SENSEI_FLEET_WRITE_BASELINE=1 cargo run --release --example fleet_families  # refresh baseline
//! ```
//!
//! Multi-process sharding rides the mergeable aggregates:
//! `SENSEI_FLEET_SHARD=i/N` runs only the `i`-th of `N` contiguous tile
//! slices and emits a *partial* report (stamped with its shard slice);
//! `SENSEI_FLEET_MERGE=a.json,b.json,…` combines N partial reports into
//! the full one — bit-identical to the single-process run — and applies
//! the same baseline gate:
//!
//! ```sh
//! for i in 0 1 2; do
//!   SENSEI_FLEET_QUICK=1 SENSEI_FLEET_SHARD=$i/3 \
//!     SENSEI_FLEET_REPORT_OUT=shard_$i.json \
//!     cargo run --release --example fleet_families
//! done
//! SENSEI_FLEET_QUICK=1 SENSEI_FLEET_MERGE=shard_0.json,shard_1.json,shard_2.json \
//!   cargo run --release --example fleet_families
//! ```
//!
//! Observability hooks: `SENSEI_FLEET_TELEMETRY=1` / `SENSEI_FLEET_PROGRESS=1`
//! enable the fleet's metric shards and live progress line (passed to the
//! fleet as `FleetConfig::with_telemetry` / `with_progress`), and
//! `SENSEI_FLEET_REPORT_OUT=<path>` writes the full run
//! report — telemetry section included — for machine consumption. With
//! telemetry on, the run also checks its report's telemetry section after
//! a JSON round trip (every session and tile counted, the planners ran,
//! one simulate and one score span per batch) and fails when it does not
//! hold.

use sensei_core::experiment::{ExperimentConfig, PolicyKind};
use sensei_fleet::{
    merge_reports, Fleet, FleetConfig, FleetReport, RunPhases, ScenarioFamilies, TracePerturbation,
};
use sensei_telemetry::{Counter, Phase};
use sensei_trace::generate::TraceFamily;

/// Committed baseline of the quick-mode family run's aggregates.
const BASELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/BASELINE_fleet.json");

/// Allowed per-policy QoE-mean movement before the gate fails. The run
/// is bit-deterministic on one machine; the tolerance only absorbs
/// last-ulp libm differences across platforms, which stay orders of
/// magnitude below a real behavioral regression.
const QOE_MEAN_TOLERANCE: f64 = 1e-3;

fn flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Parses `SENSEI_FLEET_SHARD=i/N` into `(index, count)`; range checks
/// happen in `Fleet::new`.
fn shard_env() -> Result<Option<(u64, u64)>, Box<dyn std::error::Error>> {
    match std::env::var("SENSEI_FLEET_SHARD") {
        Ok(v) if !v.is_empty() => {
            let (i, n) = v
                .split_once('/')
                .ok_or("SENSEI_FLEET_SHARD must be i/N, e.g. 0/3")?;
            Ok(Some((i.trim().parse()?, n.trim().parse()?)))
        }
        _ => Ok(None),
    }
}

/// Writes the full JSON report wherever `SENSEI_FLEET_REPORT_OUT` points.
fn write_report_out(report: &FleetReport) -> Result<(), Box<dyn std::error::Error>> {
    if let Ok(out_path) = std::env::var("SENSEI_FLEET_REPORT_OUT") {
        if !out_path.is_empty() {
            std::fs::write(&out_path, report.to_json())?;
            println!("[report] wrote {out_path}");
        }
    }
    Ok(())
}

/// The telemetry gate: `report`'s telemetry section, read back from its
/// JSON, must account for every session and tile, show the planners ran
/// (SENSEI-Fugu is on the policy axis) with download-time row hits
/// bounded by the reads they served, and carry one lane-simulate and one
/// score span per batch; the run phases must be non-negative.
fn check_telemetry(report: &FleetReport) -> Result<(), Box<dyn std::error::Error>> {
    let report = FleetReport::from_json(&report.to_json())?;
    let t = report
        .telemetry
        .as_ref()
        .ok_or("telemetry section missing despite SENSEI_FLEET_TELEMETRY=1")?;
    let c = |counter| t.counter(counter);
    let batches = c(Counter::Batches);
    let checks = [
        ("sessions > 0", c(Counter::Sessions) > 0),
        ("tiles > 0", c(Counter::Tiles) > 0),
        (
            "sessions == stats.sessions",
            c(Counter::Sessions) == report.stats.sessions,
        ),
        ("plan_nodes > 0", c(Counter::PlanNodes) > 0),
        (
            "dt_memo_hits <= dt_memo_lookups",
            c(Counter::DtMemoHits) <= c(Counter::DtMemoLookups),
        ),
        (
            "lane_simulate ns > 0",
            t.shard.phase_ns(Phase::LaneSimulate) > 0,
        ),
        (
            "lane_simulate calls == batches",
            t.shard.phase_calls(Phase::LaneSimulate) == batches,
        ),
        (
            "score calls == batches",
            t.shard.phase_calls(Phase::Score) == batches,
        ),
        (
            "run phases >= 0",
            [
                report.phases.setup_s,
                report.phases.execute_s,
                report.phases.collect_s,
            ]
            .iter()
            .all(|&s| s >= 0.0),
        ),
    ];
    let failed: Vec<&str> = checks
        .iter()
        .filter(|(_, holds)| !holds)
        .map(|(name, _)| *name)
        .collect();
    if !failed.is_empty() {
        return Err(format!("telemetry checks failed: {}", failed.join(", ")).into());
    }
    println!(
        "[telemetry] checks hold: {} sessions, {} tiles, {} batches, {} plan nodes, \
         lane_simulate {:.3} s, score {:.3} s",
        c(Counter::Sessions),
        c(Counter::Tiles),
        batches,
        c(Counter::PlanNodes),
        t.phase_secs(Phase::LaneSimulate),
        t.phase_secs(Phase::Score),
    );
    Ok(())
}

/// The CI gate: diff `report` against the committed baseline, fail on
/// per-policy QoE-mean drift. Shared by the single-process quick run and
/// the merged multi-process run — the merged aggregates must clear the
/// exact same bar.
fn gate_against_baseline(report: &FleetReport) -> Result<(), Box<dyn std::error::Error>> {
    let baseline_text = std::fs::read_to_string(BASELINE_PATH).map_err(|e| {
        format!(
            "cannot read {BASELINE_PATH}: {e}\n\
             regenerate it with SENSEI_FLEET_WRITE_BASELINE=1 \
             cargo run --release --example fleet_families"
        )
    })?;
    let baseline = FleetReport::from_json(&baseline_text)?;
    let diff = report.diff(&baseline);
    if diff.is_clean(QOE_MEAN_TOLERANCE) {
        println!(
            "[baseline] clean: {} policies within {QOE_MEAN_TOLERANCE} of {BASELINE_PATH}",
            diff.drifts.len()
        );
        Ok(())
    } else {
        eprintln!(
            "[baseline] DRIFT against {BASELINE_PATH}:\n{}\
             if intentional, refresh with SENSEI_FLEET_WRITE_BASELINE=1 \
             cargo run --release --example fleet_families",
            diff.summary(QOE_MEAN_TOLERANCE)
        );
        Err("fleet aggregates drifted from the committed baseline".into())
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let write_baseline = flag("SENSEI_FLEET_WRITE_BASELINE");
    // The baseline is defined over the bounded matrix, so refreshing it
    // implies quick mode.
    let quick = flag("SENSEI_FLEET_QUICK") || write_baseline;

    // Merge mode: no simulation at all — combine the partial reports
    // that `SENSEI_FLEET_SHARD=i/N` runs wrote, print the merged
    // summary, and (in quick mode) apply the same baseline gate the
    // single-process run uses. `merge_reports` verifies the partials
    // actually partition one matrix before merging.
    if let Ok(paths) = std::env::var("SENSEI_FLEET_MERGE") {
        if !paths.is_empty() {
            let mut partials = Vec::new();
            for path in paths.split(',').map(str::trim).filter(|p| !p.is_empty()) {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read shard report {path}: {e}"))?;
                partials.push(FleetReport::from_json(&text)?);
            }
            let report = merge_reports(&partials)?;
            println!(
                "[merge] combined {} shard reports: {} sessions",
                partials.len(),
                report.stats.sessions
            );
            print!("{}", report.summary());
            write_report_out(&report)?;
            if quick {
                return gate_against_baseline(&report);
            }
            return Ok(());
        }
    }

    let families = if quick {
        ScenarioFamilies::builder()
            .videos(5)
            .traces_per_family(1)
            .trace_duration_s(400)
            .seed(2026)
            .build()?
    } else {
        ScenarioFamilies::builder()
            .videos(120)
            .trace_families([
                TraceFamily::Diurnal,
                TraceFamily::CrossTrafficBursts,
                TraceFamily::SharedCell { users: 4 },
            ])
            .traces_per_family(3)
            .trace_duration_s(600)
            .seed(2026)
            .build()?
    };
    println!(
        "families: {} procedural videos, {} traces across 3 trace families",
        families.corpus.len(),
        families.traces.len(),
    );
    for t in families.traces.iter().take(6) {
        println!("  trace {:<24} mean {:>6.0} kbps", t.name(), t.mean_kbps());
    }

    let matrix = families
        .matrix_builder()
        .policies([PolicyKind::Bba, PolicyKind::SenseiFugu])
        .perturbations([
            TracePerturbation::identity(),
            TracePerturbation::jittered(200.0),
        ])
        .build()?;
    let mut config = ExperimentConfig::quick(families.seed());
    config.videos = None; // the Table-1 filter does not apply to families
    let env = families.into_experiment(&config)?;

    let workers = if quick {
        2
    } else {
        FleetConfig::default().workers
    };
    let telemetry = flag("SENSEI_FLEET_TELEMETRY");
    let mut fleet_config = FleetConfig::new(workers)
        .with_telemetry(telemetry)
        .with_progress(flag("SENSEI_FLEET_PROGRESS"));
    if let Some((index, count)) = shard_env()? {
        fleet_config = fleet_config.with_shard(index, count);
    }
    let fleet = Fleet::new(&env, &matrix, fleet_config)?;
    println!(
        "fleet: {} scenarios ({} cells x {} policies) on {workers} workers",
        fleet.num_scenarios(),
        matrix.num_cells(&env),
        matrix.policies().len(),
    );
    let mut report = fleet.run()?;
    print!("{}", report.summary());
    if let Some(snapshot) = &report.telemetry {
        print!("{}", snapshot.summary());
    }
    // Machine-readable report drop for CI: the full JSON, telemetry
    // section and all, at whatever path the caller asks for.
    write_report_out(&report)?;
    if telemetry {
        check_telemetry(&report)?;
    }
    // Family-conditional aggregates: the baseline carries one entry per
    // family spec, so drift can be attributed to the family that moved.
    for family in &report.stats.per_family {
        for stats in &family.per_policy {
            println!(
                "  family {:<10} {:<16} {:>5} sessions  mean QoE {:.3}",
                family.family,
                stats.policy.label(),
                stats.sessions,
                stats.qoe.mean()
            );
        }
    }

    // A sharded run is a partial by construction: no determinism rerun
    // (the 1-worker rerun below covers the full matrix) and no baseline
    // gate — those happen after `SENSEI_FLEET_MERGE` recombines the
    // partials.
    if let Some(slice) = report.shard {
        println!(
            "[shard] partial report for shard {}/{} (tiles {}..{} of {})",
            slice.index, slice.count, slice.tile_lo, slice.tile_hi, slice.total_tiles
        );
        return Ok(());
    }

    if !quick {
        return Ok(());
    }

    // Determinism cross-check, same convention as fleet_scale.
    let rerun = Fleet::new(&env, &matrix, FleetConfig::new(1))?.run()?;
    assert_eq!(
        report.stats, rerun.stats,
        "1-worker rerun must reproduce the aggregates bit for bit"
    );
    println!("determinism check: 2-worker and 1-worker aggregates identical");

    if write_baseline {
        // The baseline captures only the deterministic aggregates the
        // diff gate reads; run-dependent timings (the telemetry section,
        // the wall-clock fields) are written empty so that a refresh
        // shows only real changes.
        report.telemetry = None;
        report.wall_time_s = 0.0;
        report.sessions_per_sec = 0.0;
        report.phases = RunPhases::default();
        std::fs::write(BASELINE_PATH, report.to_json())?;
        println!("[baseline] wrote {BASELINE_PATH}");
        return Ok(());
    }

    // The CI gate: regenerate the quick report, diff against the
    // committed baseline, fail on drift.
    gate_against_baseline(&report)
}
