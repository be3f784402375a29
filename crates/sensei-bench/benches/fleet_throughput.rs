//! Fleet throughput: the perf baseline for the sharded simulation engine.
//!
//! Five runs:
//!
//! 1. **Scale** — ≥10,000 BBA sessions across a perturbed scenario space
//!    (bandwidth scaling × Gaussian jitter × player variants), reporting
//!    sessions/sec. This is the number future PRs must beat. A
//!    **worker sweep** then reruns the same shape at 1/2/4/8 workers
//!    (aggregates asserted bit-identical) so the speedup curve of the
//!    merge-based collector is tracked per date, not just claimed.
//! 2. **Mixed line-up** — a mid-sized run with the MPC policies so the
//!    streaming gain-CDF path is exercised and reported too.
//! 3. **MPC** — the planner-bound run: every MPC-family policy (Fugu,
//!    SENSEI-Fugu and its ablation, both oracles) plus the DAS-IP index
//!    policy, no BBA padding — this is the trajectory that tracks the
//!    MPC throughput cliff per date.
//! 4. **Procedural** — the generated-corpus scale run (session runtime,
//!    not planning).
//!
//! Both runs use streaming `O(bins)` aggregation — no per-session results
//! are retained, so the same harness scales to millions of sessions.
//!
//! Besides the human-readable stdout, the bench maintains
//! `BENCH_fleet.json` at the workspace root so the perf trajectory can be
//! tracked across PRs machine-readably: every run is **appended** to a
//! single `trajectory` array (keyed by run name + ISO date + quick flag),
//! so a re-run records history instead of overwriting it. The latest
//! measurements are simply the newest entries per name — there is no
//! separate `runs` array (the legacy one is migrated on read and never
//! written back; CI rejects its reintroduction).
//!
//! `SENSEI_FLEET_QUICK=1` bounds the scenario space to a few hundred
//! sessions (and skips the ≥10k assertion) — the CI smoke mode that keeps
//! this binary from rotting without turning CI into a benchmark farm.
// Figure-generation code renders counts and indices as f64 plot
// coordinates; everything is far below 2^52, so the conversions
// are exact.
#![allow(clippy::cast_precision_loss)]

use sensei_bench::header;
use sensei_core::experiment::{Experiment, ExperimentConfig, PolicyKind};
use sensei_fleet::json::{obj, parse, Json};
use sensei_fleet::{
    Fleet, FleetConfig, FleetReport, ScenarioFamilies, ScenarioMatrix, TracePerturbation,
};
use sensei_sim::PlayerConfig;

fn quick_mode() -> bool {
    std::env::var("SENSEI_FLEET_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Today's civil date as `YYYY-MM-DD` (UTC), via Howard Hinnant's
/// days-to-civil algorithm — the workspace is offline, so no chrono.
fn iso_date_today() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

/// One measurement entry for the appended `trajectory`. Runs with
/// telemetry on carry a phase/planner breakdown so the trajectory
/// records not just *how fast* but *where the time went* — note no
/// nested `date` keys (CI counts them to check trajectory growth).
fn run_json(name: &str, date: &str, quick: bool, report: &FleetReport) -> Json {
    let mut fields = vec![
        ("name", Json::Str(name.to_string())),
        ("date", Json::Str(date.to_string())),
        ("quick", Json::Bool(quick)),
        ("sessions", Json::Num(report.stats.sessions as f64)),
        ("workers", Json::Num(report.workers as f64)),
        ("wall_time_s", Json::Num(report.wall_time_s)),
        ("sessions_per_sec", Json::Num(report.sessions_per_sec)),
        (
            "phases",
            obj([
                ("setup_s", Json::Num(report.phases.setup_s)),
                ("execute_s", Json::Num(report.phases.execute_s)),
                ("collect_s", Json::Num(report.phases.collect_s)),
            ]),
        ),
    ];
    if let Some(t) = &report.telemetry {
        use sensei_fleet::telemetry::Phase;
        fields.push((
            "profile",
            obj([
                ("shard_fold_s", Json::Num(t.phase_secs(Phase::ShardFold))),
                ("final_merge_s", Json::Num(t.phase_secs(Phase::FinalMerge))),
                (
                    "network_materialize_s",
                    Json::Num(t.phase_secs(Phase::NetworkMaterialize)),
                ),
                (
                    "lane_simulate_s",
                    Json::Num(t.phase_secs(Phase::LaneSimulate)),
                ),
                ("score_s", Json::Num(t.phase_secs(Phase::Score))),
                (
                    "plan_nodes",
                    Json::Num(t.counter(sensei_fleet::telemetry::Counter::PlanNodes) as f64),
                ),
                ("prune_rate", Json::Num(t.prune_rate())),
                ("memo_hit_rate", Json::Num(t.memo_hit_rate())),
                (
                    "warm_start_hits",
                    Json::Num(t.counter(sensei_fleet::telemetry::Counter::WarmStartHits) as f64),
                ),
                (
                    "seeded_prunes",
                    Json::Num(t.counter(sensei_fleet::telemetry::Counter::SeededPrunes) as f64),
                ),
            ]),
        ));
    }
    obj(fields)
}

/// Prior trajectory entries from an existing `BENCH_fleet.json`: the
/// `trajectory` array when present, else the legacy `runs` array (tagged
/// `pre-trajectory` since those files carried no dates). A missing file
/// yields an empty history; an **unparsable** file is backed up to
/// `{path}.bak` before this run overwrites it — the bench must never
/// refuse to measure because an old artifact is stale, but it must not
/// silently destroy the committed cross-PR history either (a truncated
/// write or merge-conflict markers stay recoverable).
fn prior_trajectory(path: &str) -> Vec<Json> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let doc = match parse(&text) {
        Ok(doc) => doc,
        Err(e) => {
            let backup = format!("{path}.bak");
            match std::fs::write(&backup, &text) {
                Ok(()) => eprintln!(
                    "[json] {path} is unparsable ({e}); preserved the old contents at {backup}"
                ),
                Err(io) => eprintln!(
                    "[json] {path} is unparsable ({e}) and backing it up failed ({io}); \
                     its history will be lost"
                ),
            }
            return Vec::new();
        }
    };
    if let Some(entries) = doc.get("trajectory").and_then(Json::as_arr) {
        return entries.to_vec();
    }
    let quick = doc.get("quick").and_then(|q| match q {
        Json::Bool(b) => Some(*b),
        _ => None,
    });
    doc.get("runs")
        .and_then(Json::as_arr)
        .map(|runs| {
            runs.iter()
                .map(|r| {
                    obj([
                        (
                            "name",
                            Json::Str(
                                r.get("name")
                                    .and_then(Json::as_str)
                                    .unwrap_or("unknown")
                                    .to_string(),
                            ),
                        ),
                        ("date", Json::Str("pre-trajectory".to_string())),
                        ("quick", Json::Bool(quick.unwrap_or(false))),
                        (
                            "sessions",
                            r.get("sessions").cloned().unwrap_or(Json::Num(0.0)),
                        ),
                        (
                            "workers",
                            r.get("workers").cloned().unwrap_or(Json::Num(0.0)),
                        ),
                        (
                            "wall_time_s",
                            r.get("wall_time_s").cloned().unwrap_or(Json::Num(0.0)),
                        ),
                        (
                            "sessions_per_sec",
                            r.get("sessions_per_sec").cloned().unwrap_or(Json::Num(0.0)),
                        ),
                    ])
                })
                .collect()
        })
        .unwrap_or_default()
}

fn main() {
    header(
        "Fleet",
        "sharded fleet-simulation throughput (sessions/sec)",
        "n/a — beyond the paper: the ROADMAP's million-session scale axis",
    );
    let quick = quick_mode();
    let t0 = std::time::Instant::now();
    let env = Experiment::build(&ExperimentConfig::quick(2021)).expect("environment builds");
    println!(
        "[setup] {} videos, {} traces ({:.1}s){}",
        env.assets.len(),
        env.traces.len(),
        t0.elapsed().as_secs_f64(),
        if quick { " [quick mode]" } else { "" }
    );
    let workers = FleetConfig::default().workers;

    // --- Run 1: ≥10k sessions, cheap policy, wide scenario space. ------
    // Quick mode trims the perturbation grid to a smoke-sized matrix.
    let (scales, jitters): (Vec<f64>, &[f64]) = if quick {
        (
            (0..2).map(|i| 0.8 + 0.4 * f64::from(i)).collect(),
            &[0.0, 200.0],
        )
    } else {
        (
            (0..13).map(|i| 0.5 + 0.1 * f64::from(i)).collect(), // 0.5x .. 1.7x
            &[0.0, 100.0, 200.0, 400.0, 800.0],
        )
    };
    let mut perturbations = Vec::new();
    for &scale in &scales {
        for &jitter in jitters {
            perturbations.push(TracePerturbation {
                scale,
                jitter_std_kbps: jitter,
            });
        }
    }
    let players: Vec<PlayerConfig> = [8.0, 16.0, 24.0]
        .into_iter()
        .flat_map(|max_buffer_s| {
            [0.03, 0.15].into_iter().map(move |rtt_s| PlayerConfig {
                max_buffer_s,
                rtt_s,
                ..PlayerConfig::default()
            })
        })
        .collect();
    let players = if quick {
        players[..2].to_vec()
    } else {
        players
    };
    let matrix = ScenarioMatrix::builder()
        .policies([PolicyKind::Bba])
        .perturbations(perturbations)
        .players(players)
        .master_seed(2021)
        .build()
        .expect("valid matrix");
    let fleet = Fleet::new(
        &env,
        &matrix,
        FleetConfig::new(workers).with_telemetry(true),
    )
    .expect("valid fleet");
    let total = fleet.num_scenarios();
    assert!(
        quick || total >= 10_000,
        "scale run must cover >= 10k sessions, got {total}"
    );
    println!("[scale] {total} sessions on {workers} workers...");
    let scale_report = fleet.run().expect("fleet run completes");
    print!("{}", scale_report.summary());
    println!(
        "measured: {:.0} sessions/sec ({} sessions in {:.1}s)",
        scale_report.sessions_per_sec, scale_report.stats.sessions, scale_report.wall_time_s
    );

    // --- Run 1b: worker-scaling sweep on the scale shape. --------------
    // The merge-based collector's reason to exist: with per-cell sends
    // gone, adding workers must not grow collection time (`collect_s` is
    // `workers` fixed-shape merges, independent of session count). Each
    // count reruns the scale matrix (telemetry off — raw throughput),
    // asserts the aggregates are bit-identical to the run above, and the
    // sweep lands in the trajectory as one `scale_workers` entry so the
    // speedup curve is tracked per date, not just claimed.
    let mut worker_sweep = Vec::new();
    for n in [1usize, 2, 4, 8] {
        let fleet = Fleet::new(&env, &matrix, FleetConfig::new(n)).expect("valid fleet");
        let report = fleet.run().expect("fleet run completes");
        assert!(
            report.stats == scale_report.stats,
            "aggregates must be bit-identical at {n} workers"
        );
        println!(
            "[scale-workers] {n} workers: {:.0} sessions/sec \
             (wall {:.2}s, collect {:.4}s)",
            report.sessions_per_sec, report.wall_time_s, report.phases.collect_s
        );
        worker_sweep.push(obj([
            ("workers", Json::Num(n as f64)),
            ("sessions_per_sec", Json::Num(report.sessions_per_sec)),
            ("wall_time_s", Json::Num(report.wall_time_s)),
            ("collect_s", Json::Num(report.phases.collect_s)),
        ]));
    }

    // --- Run 2: mixed policy line-up, gain CDF vs BBA. -----------------
    // Kept policy-comparable with the pre-batched-planner baseline (BBA +
    // Fugu + SENSEI-Fugu) but widened across perturbations × players so
    // the measurement is no longer a ~1-second blip: sessions/sec
    // normalizes the count, so the trajectory stays comparable.
    let mixed_perturbations = if quick {
        vec![TracePerturbation::identity()]
    } else {
        vec![
            TracePerturbation::identity(),
            TracePerturbation::jittered(300.0),
            TracePerturbation::scaled(0.85),
        ]
    };
    let mixed_policies = if quick {
        vec![PolicyKind::Bba, PolicyKind::SenseiFugu]
    } else {
        vec![PolicyKind::Bba, PolicyKind::Fugu, PolicyKind::SenseiFugu]
    };
    let mixed_players = if quick {
        vec![PlayerConfig::default()]
    } else {
        vec![
            PlayerConfig::default(),
            PlayerConfig {
                max_buffer_s: 16.0,
                ..PlayerConfig::default()
            },
        ]
    };
    let matrix = ScenarioMatrix::builder()
        .policies(mixed_policies)
        .perturbations(mixed_perturbations)
        .players(mixed_players)
        .master_seed(2021)
        .build()
        .expect("valid matrix");
    let fleet = Fleet::new(
        &env,
        &matrix,
        FleetConfig::new(workers).with_telemetry(true),
    )
    .expect("valid fleet");
    println!(
        "[mixed] {} sessions on {workers} workers...",
        fleet.num_scenarios()
    );
    let mixed_report = fleet.run().expect("fleet run completes");
    print!("{}", mixed_report.summary());
    println!(
        "measured: {:.0} sessions/sec with the MPC line-up",
        mixed_report.sessions_per_sec
    );

    // --- Run 3: the MPC-family run proper. -----------------------------
    // No BBA padding: every session is planner-bound (horizon MPC) or
    // index-bound (DAS-IP), so sessions/sec here IS the MPC throughput
    // the exact branch-and-bound + batched planning attack. Tracked in
    // the trajectory under its own `mpc` name per date.
    let mpc_policies = if quick {
        vec![
            PolicyKind::Fugu,
            PolicyKind::SenseiFugu,
            PolicyKind::OracleUnaware,
            PolicyKind::DasIp,
        ]
    } else {
        vec![
            PolicyKind::Fugu,
            PolicyKind::SenseiFugu,
            PolicyKind::SenseiFuguNoPause,
            PolicyKind::OracleAware,
            PolicyKind::OracleUnaware,
            PolicyKind::DasIp,
        ]
    };
    let mpc_perturbations = if quick {
        vec![TracePerturbation::identity()]
    } else {
        vec![
            TracePerturbation::identity(),
            TracePerturbation::jittered(300.0),
        ]
    };
    let mpc_players = if quick {
        vec![PlayerConfig::default()]
    } else {
        vec![
            PlayerConfig::default(),
            PlayerConfig {
                max_buffer_s: 16.0,
                ..PlayerConfig::default()
            },
        ]
    };
    let matrix = ScenarioMatrix::builder()
        .policies(mpc_policies)
        .perturbations(mpc_perturbations)
        .players(mpc_players)
        .master_seed(2021)
        .build()
        .expect("valid matrix");
    let fleet = Fleet::new(
        &env,
        &matrix,
        FleetConfig::new(workers).with_telemetry(true),
    )
    .expect("valid fleet");
    println!(
        "[mpc] {} sessions on {workers} workers...",
        fleet.num_scenarios()
    );
    let mpc_report = fleet.run().expect("fleet run completes");
    print!("{}", mpc_report.summary());
    println!(
        "measured: {:.0} sessions/sec on the pure MPC/index line-up \
         (BBA:MPC throughput ratio {:.0}:1)",
        mpc_report.sessions_per_sec,
        scale_report.sessions_per_sec / mpc_report.sessions_per_sec.max(1e-9)
    );

    // --- Run 4: procedural-corpus scale run. ---------------------------
    // The scenario-family axis: a generated corpus (not Table 1) crossed
    // with three generated trace families, all BBA so the number measures
    // the session runtime, not MPC planning. Videos average the same
    // chunk count as the quick Table-1 trio, so sessions/sec is directly
    // comparable with the scale run above.
    let families = if quick {
        ScenarioFamilies::builder()
            .videos(12)
            .traces_per_family(2)
            .trace_duration_s(400)
            .seed(2021)
            .build()
    } else {
        ScenarioFamilies::builder()
            .videos(150)
            .traces_per_family(4)
            .trace_duration_s(600)
            .seed(2021)
            .build()
    }
    .expect("valid family spec");
    let matrix = families
        .matrix_builder()
        .policies([PolicyKind::Bba])
        .perturbations(if quick {
            vec![TracePerturbation::identity()]
        } else {
            vec![
                TracePerturbation::identity(),
                TracePerturbation::scaled(0.85),
            ]
        })
        .players(if quick {
            vec![PlayerConfig::default()]
        } else {
            vec![
                PlayerConfig::default(),
                PlayerConfig {
                    max_buffer_s: 8.0,
                    ..PlayerConfig::default()
                },
            ]
        })
        .build()
        .expect("valid matrix");
    let mut proc_config = ExperimentConfig::quick(2021);
    proc_config.videos = None;
    let (corpus_size, trace_count) = (families.corpus.len(), families.traces.len());
    let proc_env = families
        .into_experiment(&proc_config)
        .expect("families onboard");
    let fleet = Fleet::new(
        &proc_env,
        &matrix,
        FleetConfig::new(workers).with_telemetry(true),
    )
    .expect("valid fleet");
    println!(
        "[procedural] {} sessions ({corpus_size} videos x {trace_count} family traces) on {workers} workers...",
        fleet.num_scenarios()
    );
    let proc_report = fleet.run().expect("fleet run completes");
    print!("{}", proc_report.summary());
    println!(
        "measured: {:.0} sessions/sec on the procedural corpus ({:.2}x the scale run)",
        proc_report.sessions_per_sec,
        proc_report.sessions_per_sec / scale_report.sessions_per_sec.max(1e-9)
    );

    // The MPC run must have real throughput before it lands in the
    // trajectory: a planner that silently fell off a cliff (or out of the
    // line-up) fails the bench instead of recording the regression. The
    // planners' exact work is pinned by `sensei-abr`'s `plan_counters`.
    assert!(
        mpc_report.sessions_per_sec > 0.0,
        "the MPC run reported no throughput: {} sessions in {:.3} s",
        mpc_report.stats.sessions,
        mpc_report.wall_time_s
    );

    // --- Machine-readable perf trajectory. -----------------------------
    // Anchor the artifact at the workspace root regardless of the CWD
    // cargo hands the bench binary (package dir under `cargo bench`).
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");
    let date = iso_date_today();
    let latest = [
        ("scale", &scale_report),
        ("mixed", &mixed_report),
        ("mpc", &mpc_report),
        ("procedural", &proc_report),
    ];
    // History entries are keyed by (name, date, quick): a same-day
    // re-run *replaces* its key (local iteration stays idempotent)
    // while distinct days append — which is what preserves the
    // cross-PR trajectory across re-measurements.
    let mut entries: Vec<Json> = latest
        .iter()
        .map(|(name, report)| run_json(name, &date, quick, report))
        .collect();
    // The worker sweep is one entry (same (name, date, quick) keying);
    // its per-count measurements nest under `worker_sweep` with no
    // nested `date` keys, so CI's trajectory-growth count stays exact.
    entries.push(obj([
        ("name", Json::Str("scale_workers".to_string())),
        ("date", Json::Str(date.clone())),
        ("quick", Json::Bool(quick)),
        ("sessions", Json::Num(scale_report.stats.sessions as f64)),
        ("worker_sweep", Json::Arr(worker_sweep)),
    ]));
    let key = |e: &Json| {
        (
            e.get("name").and_then(Json::as_str).map(str::to_string),
            e.get("date").and_then(Json::as_str).map(str::to_string),
            matches!(e.get("quick"), Some(Json::Bool(true))),
        )
    };
    let mut trajectory = prior_trajectory(path);
    trajectory.retain(|old| !entries.iter().any(|new| key(new) == key(old)));
    trajectory.extend(entries);
    let doc = obj([
        ("bench", Json::Str("fleet_throughput".to_string())),
        ("quick", Json::Bool(quick)),
        ("trajectory", Json::Arr(trajectory)),
    ]);
    match std::fs::write(path, doc.to_pretty() + "\n") {
        Ok(()) => println!("[json] wrote {path} ({date})"),
        Err(e) => eprintln!("[json] could not write {path}: {e}"),
    }
}
