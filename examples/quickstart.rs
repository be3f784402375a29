//! Quickstart: onboard one video with SENSEI and stream it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Walks the full pipeline: pick a Table-1 video, crowdsource its
//! sensitivity weights, build the weight-extended DASH manifest, then
//! stream it over a synthetic cellular trace with SENSEI-Fugu and compare
//! against plain Fugu on true (oracle) QoE.

use sensei_abr::{Fugu, SenseiFugu};
use sensei_core::pipeline::Sensei;
use sensei_crowd::TrueQoe;
use sensei_sim::{simulate, PlayerConfig};
use sensei_trace::generate;
use sensei_video::corpus;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A source video from the Table-1 corpus.
    let entry = corpus::by_name("Soccer1", 2021)?;
    println!(
        "video: {} ({} chunks, {})",
        entry.video.name(),
        entry.video.num_chunks(),
        entry.length_label()
    );

    // 2. Onboard: encode + crowdsource weights + build the manifest.
    // The crowd's simulated raters judge by the true-QoE oracle, the
    // stand-in for real viewers that also scores the sessions below.
    let oracle = TrueQoe::default();
    let sensei = Sensei::paper_default(7);
    let onboarded = sensei.onboard(&oracle, &entry.video, 42)?;
    println!(
        "profiling: ${:.1} total (${:.1}/min), {} renders, ~{:.0} min end-to-end",
        onboarded.profile.cost_usd,
        onboarded.profile.cost_per_minute_usd(&entry.video),
        onboarded.profile.renders_rated,
        onboarded.profile.delay_minutes,
    );
    let w = onboarded.weights.as_slice();
    let peak = w.iter().cloned().fold(0.0, f64::max);
    let peak_chunk = w.iter().position(|&v| v == peak).unwrap();
    println!("weights: most sensitive chunk = {peak_chunk} (w = {peak:.2}) — the goal");

    // 3. Stream over a 3G-like trace with and without SENSEI.
    let trace = generate::hsdpa_like(1500.0, 600, 3);
    let config = PlayerConfig::default();
    let sensei_run = simulate(
        &entry.video,
        &onboarded.encoded,
        &trace,
        &mut SenseiFugu::new(),
        &config,
        Some(&onboarded.weights),
    )?;
    let fugu_run = simulate(
        &entry.video,
        &onboarded.encoded,
        &trace,
        &mut Fugu::new(),
        &config,
        None,
    )?;
    let q_sensei = oracle.qoe01(&entry.video, &sensei_run.render)?;
    let q_fugu = oracle.qoe01(&entry.video, &fugu_run.render)?;
    println!("\ntrue QoE:  SENSEI-Fugu {q_sensei:.3}   Fugu {q_fugu:.3}");
    println!(
        "bitrate:   SENSEI-Fugu {:.0} kbps   Fugu {:.0} kbps",
        sensei_run.render.avg_bitrate_kbps(),
        fugu_run.render.avg_bitrate_kbps()
    );
    Ok(())
}
