//! Fleet-scale procedural scenario families, end to end:
//!
//! 1. A ≥100-video procedural corpus crossed with three generated trace
//!    families runs through the sharded executor with **bit-for-bit
//!    identical** `FleetStats` across 1, 2, and 8 workers — the
//!    determinism guarantee must survive the scenario-diversity axis.
//! 2. `FleetReport` persistence round-trips a real fleet run through
//!    JSON losslessly, and `diff` is clean against itself.

mod common;

use common::{canonical_fold, reference_cells};
use sensei_core::{Experiment, ExperimentConfig, PolicyKind};
use sensei_fleet::{
    Fleet, FleetConfig, FleetReport, ScenarioFamilies, ScenarioMatrix, TracePerturbation,
};
use sensei_trace::generate::{in_admission_band, TraceFamily};

#[test]
fn hundred_video_family_fleet_is_worker_count_invariant() {
    // 100 procedural videos × (3 families × 3 traces) × BBA: big enough
    // to exercise every family generator at corpus scale, cheap enough
    // (BBA only) to run three times in CI.
    let families = ScenarioFamilies::builder()
        .videos(100)
        .trace_families([
            TraceFamily::Diurnal,
            TraceFamily::CrossTrafficBursts,
            TraceFamily::SharedCell { users: 3 },
        ])
        .traces_per_family(3)
        .trace_duration_s(600)
        .seed(0xFA_2026)
        .build()
        .unwrap();
    assert_eq!(families.corpus.len(), 100);
    assert_eq!(families.traces.len(), 9);
    for t in &families.traces {
        assert!(in_admission_band(t.mean_kbps()), "{}", t.name());
    }
    let matrix = families
        .matrix_builder()
        .policies([PolicyKind::Bba])
        .build()
        .unwrap();
    let mut config = ExperimentConfig::quick(2026);
    config.videos = None;
    let env = families.into_experiment(&config).unwrap();
    let reports: Vec<_> = [1usize, 2, 8]
        .into_iter()
        .map(|workers| {
            Fleet::new(&env, &matrix, FleetConfig::new(workers))
                .unwrap()
                .run()
                .unwrap()
        })
        .collect();
    assert_eq!(reports[0].stats.sessions, 100 * 9);
    assert_eq!(reports[0].stats, reports[1].stats, "1 vs 2 workers");
    assert_eq!(reports[0].stats, reports[2].stats, "1 vs 8 workers");
}

#[test]
fn family_fleet_report_round_trips_and_diffs_clean() {
    // A small mixed-policy family run (MPC sessions are what costs here)
    // so gain CDFs are populated, then the full persistence cycle:
    // to_json → from_json → diff.
    let families = ScenarioFamilies::builder()
        .videos(4)
        .traces_per_family(1)
        .trace_duration_s(400)
        .seed(41)
        .build()
        .unwrap();
    let matrix = families
        .matrix_builder()
        .policies([PolicyKind::Bba, PolicyKind::SenseiFugu])
        .perturbations([
            TracePerturbation::identity(),
            TracePerturbation::jittered(200.0),
        ])
        .build()
        .unwrap();
    let mut config = ExperimentConfig::quick(41);
    config.videos = None;
    let env = families.into_experiment(&config).unwrap();
    let report = Fleet::new(&env, &matrix, FleetConfig::new(2))
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(report.stats.sessions, 4 * 3 * 2 * 2);
    let gains = report.stats.per_policy[1]
        .gain_vs_baseline
        .as_ref()
        .expect("non-baseline policy has a gain CDF");
    assert!(gains.stats.count() > 0, "gain CDF must be populated");

    let text = report.to_json();
    let back = FleetReport::from_json(&text).unwrap();
    assert_eq!(report.stats, back.stats, "JSON round trip must be lossless");
    assert_eq!(back.to_json(), text, "serialization must be stable");
    assert!(back.diff(&report).is_clean(0.0));

    // Rerunning the same matrix reproduces the persisted stats exactly —
    // the property the checked-in CI baseline relies on.
    let rerun = Fleet::new(&env, &matrix, FleetConfig::new(1))
        .unwrap()
        .run()
        .unwrap();
    assert!(rerun.diff(&back).is_clean(0.0));
}

#[test]
fn grid_builder_still_accepts_family_experiments() {
    // `ScenarioMatrix::grid` (the run_grid-equivalent space) composes
    // with a family-built experiment exactly as with the Table-1 corpus.
    let families = ScenarioFamilies::builder()
        .videos(3)
        .trace_families([TraceFamily::Diurnal])
        .traces_per_family(2)
        .trace_duration_s(400)
        .seed(5)
        .build()
        .unwrap();
    let mut config = ExperimentConfig::quick(5);
    config.videos = None;
    let env = families.into_experiment(&config).unwrap();
    let kinds = [PolicyKind::Bba, PolicyKind::Fugu];
    let sequential = env.run_grid(&kinds).unwrap();
    let matrix = ScenarioMatrix::grid(&kinds).unwrap();
    let cells = reference_cells(&env, &matrix);
    assert_eq!(sequential, cells);
    let stats = Fleet::new(&env, &matrix, FleetConfig::new(2))
        .unwrap()
        .run()
        .unwrap()
        .stats;
    assert_eq!(stats, canonical_fold(&env, &matrix, &cells));
}

#[test]
fn perturbations_keep_a_dashless_trace_in_one_family() {
    // A base trace whose name has no `-` is its own family, and its
    // scaled and jittered networks (`flat@x0.85`, `flat+n100`) must fold
    // into that same family, not one family per perturbation.
    let config = ExperimentConfig::quick(7);
    let video = sensei_video::corpus::by_name("Soccer1", config.seed).unwrap();
    let flat = sensei_trace::ThroughputTrace::constant("flat", 2000.0, 600.0).unwrap();
    let env = Experiment::from_parts(&config, vec![video], vec![flat]).unwrap();
    let matrix = ScenarioMatrix::builder()
        .policies([PolicyKind::Bba])
        .perturbations([
            TracePerturbation::identity(),
            TracePerturbation::scaled(0.85),
            TracePerturbation::jittered(100.0),
        ])
        .build()
        .unwrap();
    let stats = Fleet::new(&env, &matrix, FleetConfig::new(1))
        .unwrap()
        .run()
        .unwrap()
        .stats;
    let families: Vec<(&str, u64)> = stats
        .per_family
        .iter()
        .map(|f| (f.family.as_str(), f.per_policy[0].sessions))
        .collect();
    assert_eq!(families, [("flat", 3)]);
    // The sequential reference folds each cell under its perturbed name
    // and lands on the same single family.
    assert_eq!(
        stats,
        canonical_fold(&env, &matrix, &reference_cells(&env, &matrix))
    );
}
