//! The claims runner: regenerates every table and figure of the paper's
//! evaluation from one build of each experiment, writes the claims ledger
//! to `target/claims.json`, and in quick mode holds it to the committed
//! `BASELINE_claims.json`.
//!
//! ```sh
//! cargo bench -p sensei-bench --bench claims                      # quick, 8 videos
//! SENSEI_BENCH_FULL=1 cargo bench -p sensei-bench --bench claims  # all 16 videos
//! ```
//!
//! The crowd-weighted grid experiment is built first and once (RL trained
//! once), and one six-policy grid run serves Figs. 12a, 13, 14 and 18;
//! Figs. 2, 12b, 15 and 17 reuse the same experiment, and every other
//! figure that scores QoE borrows its oracle. Fig. 12c builds the only
//! other experiment and judges by that one's oracle. A quick run exits non-zero when a claim's status flips, its
//! measured value leaves its tolerance of the baseline's, or the set of
//! claims changes. To accept a change, copy `target/claims.json` over
//! `BASELINE_claims.json`.

use sensei_bench::claims::{check, ledger_json, parse_ledger, Status};
use sensei_bench::evaluation::{self as eval, GRID_POLICIES};
use sensei_bench::motivation as mot;
use sensei_bench::{build, grid_config, Mode};
use std::process::ExitCode;

const TARGET_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target");
const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BASELINE_claims.json");

fn main() -> ExitCode {
    let full = std::env::var("SENSEI_BENCH_FULL").is_ok_and(|v| v == "1");
    match run(if full { Mode::Full } else { Mode::Quick }) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("claims: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(mode: Mode) -> Result<(), Box<dyn std::error::Error>> {
    let t0 = std::time::Instant::now();
    let grid = build(&grid_config(mode))?;
    let oracle = &grid.oracle;
    let results = grid.run_grid(&GRID_POLICIES)?;
    let mut claims = mot::table1();
    claims.extend(mot::fig01(oracle));
    claims.extend(mot::fig02(mode, &grid));
    claims.extend(mot::fig03(mode, oracle));
    claims.extend(mot::fig04(oracle));
    claims.extend(mot::fig05(mode, oracle));
    claims.extend(mot::fig06(mode, oracle));
    claims.extend(eval::fig12a(mode, &results));
    claims.extend(eval::fig12b(mode, &grid));
    claims.extend(eval::fig12c());
    claims.extend(eval::fig13(mode, &grid, &results));
    claims.extend(eval::fig14(mode, &grid, &results));
    claims.extend(eval::fig15(mode, &grid));
    claims.extend(eval::fig16(oracle));
    claims.extend(eval::fig17(mode, &grid));
    claims.extend(eval::fig18(mode, &results));
    claims.extend(mot::fig20());

    let ledger = ledger_json(mode, &claims);
    parse_ledger(&ledger)?; // ids are unique and the file reads back
    std::fs::create_dir_all(TARGET_DIR)?;
    std::fs::write(format!("{TARGET_DIR}/claims.json"), &ledger)?;
    let count = |s| claims.iter().filter(|c| c.status == s).count();
    let (ok, off) = (count(Status::Reproduces), count(Status::Diverges));
    let (na, secs) = (count(Status::Unmeasurable), t0.elapsed().as_secs_f64());
    println!("\n[claims] {ok} reproduce, {off} diverge, {na} unmeasurable ({secs:.1}s)");
    if mode == Mode::Quick {
        let baseline = std::fs::read_to_string(BASELINE)
            .map_err(|e| format!("cannot read {BASELINE}: {e}"))?;
        check(&parse_ledger(&baseline)?, &claims)?;
        println!("[claims] ledger matches BASELINE_claims.json");
    }
    Ok(())
}
