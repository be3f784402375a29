//! Crowdsourcing walkthrough: run an MTurk-style campaign by hand and watch
//! the §B quality controls and cost accounting work.
//!
//! ```sh
//! cargo run --release --example crowdsourcing_campaign
//! ```

use sensei_crowd::series::{build_series, IncidentKind};
use sensei_crowd::{Campaign, CampaignConfig, RaterPool, TrueQoe};
use sensei_video::{corpus, BitrateLadder, RenderedVideo};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let entry = corpus::by_name("FPS2", 2021)?;
    let ladder = BitrateLadder::default_paper();
    let renders = build_series(&entry.video, &ladder, IncidentKind::Rebuffer1s)?;
    let reference = RenderedVideo::pristine(&entry.video, &ladder);
    let oracle = TrueQoe::default();
    let pool = RaterPool::general(11); // includes ~8% unreliable raters
    let campaign = Campaign::new(
        &entry.video,
        reference,
        &renders,
        &oracle,
        &pool,
        CampaignConfig::default(),
    )?;
    let result = campaign.run(3)?;
    println!(
        "campaign: {} renders, {} participants recruited, {} rejected by QC",
        renders.len(),
        result.raters_recruited,
        result.raters_rejected
    );
    println!(
        "cost ${:.2}, est. delay {:.0} min",
        result.cost_usd, result.delay_minutes
    );
    let worst = result
        .mos01
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap();
    println!(
        "most sensitive stall position: chunk {} (MOS {:.3}) — scene {:?}",
        worst.0,
        worst.1,
        entry.video.scene(worst.0)?
    );
    Ok(())
}
