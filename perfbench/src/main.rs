//! The repository's benchmark: one workload per invocation, end-to-end
//! metrics measured with tracing off, per-layer metrics from a separate
//! traced pass, and a check of the outputs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bba_jitter [--seed 2021] [--seconds 10] [--trace 0|1]
//! ```
//!
//! One invocation:
//!
//! 1. builds the workload once, and runs `Fleet::run` once untimed, so
//!    allocator growth and cold caches stay out of the timed runs;
//! 2. reads the peak resident memory of that set-up plus one whole run;
//! 3. repeats `Fleet::run` for 85% of `--seconds` and reports the median
//!    sessions per second;
//! 4. repeats the set-up for the remaining 15%, in blocks of back-to-back
//!    builds, and reports the median set-up time per block;
//! 5. drives every tile through the layers once more in the traced pass
//!    (`traced.rs`), which gives the per-layer metrics;
//! 6. checks that every run's `FleetStats` equal each other and the
//!    traced pass's bit for bit, and that the default seed's fingerprint
//!    matches `fingerprints.txt`.
//!
//! Standard output ends with one JSON line: `correct`, `attempted`,
//! `failed` and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). The line before it is a JSON record of the
//! machine, the checks and the error rate.

mod report;
mod traced;
mod workload;

use report::{Metric, Untraced};
use sensei_fleet::{Fleet, FleetConfig};
use std::panic::{self, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::Workload;

const USAGE: &str = "usage: perfbench --workload <bba_jitter|mpc_lineup|procedural> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Share of `--seconds` given to the set-up phase; the timed runs get
/// the rest.
const SETUP_PHASE_SHARE: f64 = 0.15;
/// One `setup_s` sample is a block of back-to-back builds that adds up
/// to at least this, so timer and scheduler noise stay small against it.
const SETUP_BLOCK_S: f64 = 0.05;
/// Timed runs per invocation, however short `--seconds` is.
const MIN_TIMED_RUNS: usize = 3;
/// Set-up blocks per invocation, however short `--seconds` is.
const MIN_SETUP_BLOCKS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: Workload::BbaJitter,
        seed: 2021,
        seconds: 10,
        trace: false,
    };
    let mut workload = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?,
            "--trace" => {
                parsed.trace = match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

/// Sessions attempted and failed across every run of the invocation.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Runs `f`, which attempts `sessions` sessions; an error or a panic
    /// counts every one of them as failed.
    fn attempt<T>(
        &mut self,
        sessions: u64,
        f: impl FnOnce() -> Result<T, String>,
    ) -> Result<T, String> {
        self.attempted += sessions;
        let outcome = panic::catch_unwind(AssertUnwindSafe(f))
            .unwrap_or_else(|_| Err("a worker panicked".to_string()));
        if outcome.is_err() {
            self.failed += sessions;
        }
        outcome
    }
}

/// Everything one invocation measured and checked.
struct Measurement {
    untraced: Untraced,
    traced: traced::TracedPass,
    runs_agree: bool,
    fingerprint: String,
}

fn measure(args: &Args, tally: &mut Tally) -> Result<Measurement, String> {
    let workers = args.workload.workers();
    let setup = workload::build(args.workload, args.seed)?;
    let fleet = Fleet::new(&setup.experiment, &setup.matrix, FleetConfig::new(workers))
        .map_err(|e| e.to_string())?;
    let sessions = fleet.num_scenarios();
    let run = |tally: &mut Tally| {
        tally.attempt(sessions, || {
            let started = Instant::now();
            let report = fleet.run().map_err(|e| format!("fleet run failed: {e}"))?;
            Ok((report.stats, started.elapsed().as_secs_f64()))
        })
    };
    let (reference, _) = run(tally)?;
    // The peak of set-up plus one whole run. Read before the timed runs:
    // each run frees its workers' memory, and how much of that a later
    // run's threads reuse varies, so the high-water mark after many runs
    // depends on how many ran.
    let peak_rss_mib = report::peak_rss_mib();
    let seconds = args.seconds as f64;
    let mut runs_agree = true;
    let (mut rates, mut walls) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let runs_budget = Duration::from_secs_f64(seconds * (1.0 - SETUP_PHASE_SHARE));
    while walls.len() < MIN_TIMED_RUNS || started.elapsed() < runs_budget {
        let (stats, wall) = run(tally)?;
        runs_agree &= stats == reference;
        rates.push(stats.sessions as f64 / wall);
        walls.push(wall);
    }

    // The set-up phase: blocks of back-to-back builds, each build
    // dropped at once, after the timed runs so it cannot disturb them.
    let (mut setups, mut setup_blocks) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let setup_budget = Duration::from_secs_f64(seconds * SETUP_PHASE_SHARE);
    while setup_blocks.len() < MIN_SETUP_BLOCKS || started.elapsed() < setup_budget {
        let (mut spent, mut builds) = (0.0, 0.0);
        while spent < SETUP_BLOCK_S {
            let times = workload::build(args.workload, args.seed)?.times;
            spent += times.total_s();
            builds += 1.0;
            setups.push(times);
        }
        setup_blocks.push(spent / builds);
    }

    let traced = tally.attempt(sessions, || traced::run(&setup))?;
    runs_agree &= traced.stats == reference;
    Ok(Measurement {
        untraced: Untraced {
            rates,
            walls,
            setups,
            setup_blocks,
            peak_rss_mib,
            workers,
        },
        fingerprint: report::fingerprint(&reference),
        traced,
        runs_agree,
    })
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}:");
    for m in metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    // `Fleet::new` turns telemetry recording and the progress line on when
    // these are set; the timed runs must measure the fleet without either.
    std::env::remove_var("SENSEI_FLEET_TELEMETRY");
    std::env::remove_var("SENSEI_FLEET_PROGRESS");
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let workers = args.workload.workers();
    let mut tally = Tally::default();
    let outcome = measure(&args, &mut tally);

    let (correct, fingerprint_check, end_to_end, per_layer) = match &outcome {
        Ok(m) => {
            let recorded = report::recorded_fingerprint(name, args.seed);
            let fingerprint_ok = recorded.is_none_or(|r| r == m.fingerprint);
            let check = match recorded {
                None => "not recorded for this seed",
                Some(_) if fingerprint_ok => "match",
                Some(_) => "MISMATCH",
            };
            println!(
                "[perfbench] {name} seed {}: {} sessions x {} timed runs on {workers} worker(s)",
                args.seed,
                m.traced.stats.sessions,
                m.untraced.rates.len()
            );
            let q = report::quartiles(&m.untraced.rates);
            println!(
                "sessions/s over {} timed runs: q1 {:.1}, median {:.1}, q3 {:.1} (min {:.1}, max {:.1})",
                m.untraced.rates.len(), q[1], q[2], q[3], q[0], q[4]
            );
            let in_order: Vec<String> = m
                .untraced
                .rates
                .iter()
                .map(|rate| format!("{rate:.1}"))
                .collect();
            println!("sessions/s per timed run, in order: {}", in_order.join(" "));
            let q = report::quartiles(&m.untraced.setup_blocks).map(|s| s * 1e3);
            println!(
                "set-up ms per build over {} blocks: q1 {:.4}, median {:.4}, q3 {:.4} (min {:.4}, max {:.4})",
                m.untraced.setup_blocks.len(), q[1], q[2], q[3], q[0], q[4]
            );
            println!("fingerprint {name} {} {}", args.seed, m.fingerprint);
            println!(
                "checks: runs and traced pass agree bit for bit: {}; fingerprint: {check}",
                m.runs_agree
            );
            let end_to_end = report::end_to_end(&m.untraced);
            let per_layer = report::per_layer(&m.untraced, &m.traced);
            (m.runs_agree && fingerprint_ok, check, end_to_end, per_layer)
        }
        Err(msg) => {
            eprintln!("perfbench: {name}: {msg}");
            (false, "not run", Vec::new(), Vec::new())
        }
    };
    // A set-up failure attempts no session; it still counts as one
    // failed attempt, so the result never reads as a clean run.
    let attempted = tally.attempted.max(1);
    let failed = if outcome.is_err() {
        tally.failed.max(1)
    } else {
        tally.failed
    };
    let error_rate = failed as f64 / attempted as f64;
    print_metrics("end to end (tracing off)", &end_to_end);
    println!(
        "  {:<34} {:>16.6} ratio ({} of {} sessions failed)",
        "error_rate", error_rate, failed, attempted
    );
    print_metrics("per layer (traced pass)", &per_layer);
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"workers\": {workers}, \"error_rate\": {}, \
         \"fingerprint_check\": {}, \"machine\": {{\"available_parallelism\": {}, \
         \"cpu_model\": {}, \"rustc\": {}}}}}",
        report::json_str(name),
        args.seed,
        report::json_num(error_rate),
        report::json_str(fingerprint_check),
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
        report::json_str(&report::cpu_model()),
        report::json_str(env!("PERFBENCH_RUSTC_VERSION")),
    );
    let metrics = if args.trace { &per_layer } else { &end_to_end };
    println!(
        "{}",
        report::result_json(correct, attempted, failed, metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_with_defaults() {
        let args = parse(&["--workload", "mpc_lineup"]).unwrap();
        assert_eq!(args.workload, Workload::MpcLineup);
        assert_eq!((args.seed, args.seconds, args.trace), (2021, 10, false));
        let args = parse(&[
            "--workload",
            "procedural",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!((args.seed, args.seconds, args.trace), (7, 3, true));
    }

    #[test]
    fn bad_arguments_are_rejected() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "bba_jitter", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "bba_jitter", "--seed"]).is_err());
        assert!(parse(&["--workload", "bba_jitter", "--color", "1"]).is_err());
    }

    #[test]
    fn a_failed_attempt_counts_every_session() {
        let mut tally = Tally::default();
        assert!(tally.attempt(10, || Ok(())).is_ok());
        assert!(tally.attempt(5, || Err::<(), _>("boom".into())).is_err());
        assert!(tally
            .attempt(3, || -> Result<(), String> { panic!("worker") })
            .is_err());
        assert_eq!((tally.attempted, tally.failed), (18, 8));
    }
}
