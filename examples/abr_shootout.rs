//! ABR shootout: BBA vs Fugu vs SENSEI-Fugu across the 10-trace set on one
//! sports video — a miniature of the paper's Fig. 12 evaluation.
//!
//! ```sh
//! cargo run --release --example abr_shootout
//! ```

use sensei_core::experiment::{Experiment, ExperimentConfig, PolicyKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut config = ExperimentConfig::quick(2021);
    config.videos = Some(vec!["Basket1".to_string()]);
    let env = Experiment::build(&config)?;
    let asset = env.asset("Basket1")?;
    let kinds = [PolicyKind::Bba, PolicyKind::Fugu, PolicyKind::SenseiFugu];
    println!(
        "{:<26} {:>10} {:>10} {:>10}",
        "trace (mean kbps)", "BBA", "Fugu", "SENSEI"
    );
    for trace in &env.traces {
        let mut row = format!(
            "{:<26}",
            format!("{} ({:.0})", trace.name(), trace.mean_kbps())
        );
        for cell in env.run_cells(asset, trace, &kinds, &env.player)? {
            row.push_str(&format!(" {:>10.3}", cell.qoe01));
        }
        println!("{row}");
    }
    Ok(())
}
