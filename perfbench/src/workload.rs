//! The three named workloads and their set-up.
//!
//! Set-up is everything a researcher pays before the first session runs:
//! generating a procedural corpus, onboarding videos (encoding, weights,
//! crowd profiling), and building the scenario matrix and the fleet. It
//! is timed here, at the calls into each step, and reported as
//! `setup_s` plus its `setup.*` split.

use sensei_core::experiment::WeightSource;
use sensei_core::{Experiment, ExperimentConfig, PolicyKind};
use sensei_fleet::{
    Fleet, FleetConfig, ScenarioFamilies, ScenarioMatrix, ScenarioMatrixBuilder, TracePerturbation,
};
use sensei_sim::PlayerConfig;
use std::time::Instant;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All 16 Table-1 videos, ground-truth weights, BBA over a wide
    /// jittered perturbation grid, two workers.
    BbaJitter,
    /// All 16 Table-1 videos, crowd-profiled weights, the MPC/index
    /// line-up, one worker.
    MpcLineup,
    /// A generated corpus of several hundred videos over three trace
    /// families, BBA, one worker.
    Procedural,
}

/// The Table-1 workloads run the paper's fixed corpus, evaluation traces
/// and crowd profiles, so every seed measures the same sixteen videos;
/// the benchmark seed drives their jitter streams.
const TABLE1_SEED: u64 = 2021;
/// Corpus size of the `procedural` workload.
const PROCEDURAL_VIDEOS: usize = 300;
/// Traces per family of the `procedural` workload.
const PROCEDURAL_TRACES_PER_FAMILY: usize = 10;

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::BbaJitter,
        Workload::MpcLineup,
        Workload::Procedural,
    ];

    /// The workload's fixed name (performance claims cite it).
    pub fn name(self) -> &'static str {
        match self {
            Workload::BbaJitter => "bba_jitter",
            Workload::MpcLineup => "mpc_lineup",
            Workload::Procedural => "procedural",
        }
    }

    /// The workload named `name`, if any.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Fleet worker threads the untraced runs use.
    pub fn workers(self) -> usize {
        match self {
            Workload::BbaJitter => 2,
            Workload::MpcLineup | Workload::Procedural => 1,
        }
    }
}

/// Wall time of one set-up, split by step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `ScenarioFamilies::build` (zero for the Table-1 workloads, whose
    /// corpus generation happens inside `Experiment::build`).
    pub generate_s: f64,
    /// `Experiment::build` or `ScenarioFamilies::into_experiment`.
    pub onboard_s: f64,
    /// `ScenarioMatrix::build` plus `Fleet::new`.
    pub matrix_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.onboard_s + self.matrix_s
    }
}

/// A built workload: the environment and the matrix every run binds to.
pub struct Setup {
    /// The onboarded experiment environment.
    pub experiment: Experiment,
    /// The workload's scenario matrix.
    pub matrix: ScenarioMatrix,
    /// How long building it took.
    pub times: SetupTimes,
}

/// Builds `workload` from `seed`: the same seed always gives the same
/// corpus, traces, weights and jitter streams.
///
/// # Errors
///
/// Returns the failing step's error message.
pub fn build(workload: Workload, seed: u64) -> Result<Setup, String> {
    let mut times = SetupTimes::default();
    let workers = workload.workers();
    let (experiment, matrix) = match workload {
        Workload::BbaJitter | Workload::MpcLineup => {
            let weight_source = if workload == Workload::MpcLineup {
                WeightSource::Crowd
            } else {
                WeightSource::GroundTruth
            };
            let config = ExperimentConfig {
                videos: None,
                weight_source,
                ..ExperimentConfig::quick(TABLE1_SEED)
            };
            let started = Instant::now();
            let experiment = Experiment::build(&config).map_err(|e| e.to_string())?;
            times.onboard_s = started.elapsed().as_secs_f64();
            let started = Instant::now();
            let matrix = matrix_axes(workload, ScenarioMatrix::builder().master_seed(seed))
                .build()
                .map_err(|e| e.to_string())?;
            Fleet::new(&experiment, &matrix, FleetConfig::new(workers))
                .map_err(|e| e.to_string())?;
            times.matrix_s = started.elapsed().as_secs_f64();
            (experiment, matrix)
        }
        Workload::Procedural => {
            let started = Instant::now();
            let families = ScenarioFamilies::builder()
                .videos(PROCEDURAL_VIDEOS)
                .traces_per_family(PROCEDURAL_TRACES_PER_FAMILY)
                .seed(seed)
                .build()
                .map_err(|e| e.to_string())?;
            times.generate_s = started.elapsed().as_secs_f64();
            let started = Instant::now();
            let matrix = matrix_axes(workload, families.matrix_builder())
                .build()
                .map_err(|e| e.to_string())?;
            times.matrix_s = started.elapsed().as_secs_f64();
            let config = ExperimentConfig {
                videos: None,
                ..ExperimentConfig::quick(seed)
            };
            let started = Instant::now();
            let experiment = families
                .into_experiment(&config)
                .map_err(|e| e.to_string())?;
            times.onboard_s = started.elapsed().as_secs_f64();
            let started = Instant::now();
            Fleet::new(&experiment, &matrix, FleetConfig::new(workers))
                .map_err(|e| e.to_string())?;
            times.matrix_s += started.elapsed().as_secs_f64();
            (experiment, matrix)
        }
    };
    Ok(Setup {
        experiment,
        matrix,
        times,
    })
}

/// The policy, perturbation and player axes of `workload`'s matrix.
fn matrix_axes(workload: Workload, builder: ScenarioMatrixBuilder) -> ScenarioMatrixBuilder {
    let player = |max_buffer_s: f64, rtt_s: f64| PlayerConfig {
        max_buffer_s,
        rtt_s,
        ..PlayerConfig::default()
    };
    match workload {
        Workload::BbaJitter => {
            // Bandwidth scales 0.5x..1.7x crossed with eight jitter
            // levels, seven of them non-zero: 104 perturbations.
            let mut perturbations = Vec::new();
            for step in 0..13 {
                let scale = 0.5 + 0.1 * f64::from(step);
                for jitter_std_kbps in [0.0, 50.0, 100.0, 200.0, 300.0, 400.0, 600.0, 800.0] {
                    perturbations.push(TracePerturbation {
                        scale,
                        jitter_std_kbps,
                    });
                }
            }
            let players = [8.0, 16.0, 24.0]
                .into_iter()
                .flat_map(|buffer| [0.03, 0.15].map(|rtt| player(buffer, rtt)));
            builder
                .policies([PolicyKind::Bba])
                .perturbations(perturbations)
                .players(players)
        }
        Workload::MpcLineup => builder
            .policies([
                PolicyKind::Fugu,
                PolicyKind::SenseiFugu,
                PolicyKind::SenseiFuguNoPause,
                PolicyKind::OracleAware,
                PolicyKind::OracleUnaware,
                PolicyKind::DasIp,
            ])
            .perturbations([
                TracePerturbation::identity(),
                TracePerturbation::jittered(300.0),
            ])
            .players([
                PlayerConfig::default(),
                PlayerConfig {
                    max_buffer_s: 16.0,
                    ..PlayerConfig::default()
                },
            ]),
        Workload::Procedural => builder
            .policies([PolicyKind::Bba])
            .perturbations([
                TracePerturbation::identity(),
                TracePerturbation::scaled(0.85),
            ])
            .players([
                PlayerConfig::default(),
                PlayerConfig {
                    max_buffer_s: 8.0,
                    ..PlayerConfig::default()
                },
            ]),
    }
}
