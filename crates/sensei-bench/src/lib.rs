//! The claims runner's library: one function per table or figure of the
//! paper's evaluation, each printing its table and returning its claim
//! records, plus the experiment set-up they share and the [`claims`]
//! ledger. The `claims` bench target runs them.

// Figure-generation code renders counts and indices as f64 plot
// coordinates; everything is far below 2^52, so the conversions
// are exact.
#![allow(clippy::cast_precision_loss)]

pub mod claims;
pub mod evaluation;
pub mod motivation;

use rand::{Rng, SeedableRng};
use sensei_core::experiment::{Experiment, ExperimentConfig, VideoAsset, WeightSource};
use sensei_core::CoreError;
use sensei_qoe::{Ksqi, LstmQoe, P1203Like, QoeError, QoeModel, SenseiQoe};
use sensei_video::{BitrateLadder, RenderedChunk, RenderedVideo};

/// Which corpus the grid figures run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The genre-balanced 8-video subset ([`QUICK_VIDEOS`]).
    Quick,
    /// All 16 Table-1 videos.
    Full,
}

impl Mode {
    /// `"quick"` or `"full"`, as written into the ledger.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Mode::Quick => "quick",
            Mode::Full => "full",
        }
    }

    /// The corpus this mode runs, for figure headers.
    #[must_use]
    pub fn corpus(self) -> &'static str {
        match self {
            Mode::Quick => "8 Table-1 videos (2 per genre), seed 2021",
            Mode::Full => "all 16 Table-1 videos, seed 2021",
        }
    }
}

/// The video subset used in quick mode: two per genre.
pub const QUICK_VIDEOS: [&str; 8] = [
    "Soccer1",
    "Basket1",
    "FPS2",
    "Tank",
    "Space",
    "Animal",
    "Lava",
    "BigBuckBunny",
];

/// The corpus line of the figures that run Soccer1 alone.
const SOCCER1: &str = "Soccer1 (Table 1, seed 2021)";

/// Prints the standard bench header.
pub fn header(id: &str, title: &str, paper_claim: &str) {
    banner(&format!("{id}: {title}"), paper_claim, None);
}

/// Prints a figure's header (`"<id>: <title>"`), naming the corpus the
/// figure ran.
pub(crate) fn figure_header(heading: &str, paper_claim: &str, corpus: &str) {
    banner(heading, paper_claim, Some(corpus));
}

fn banner(heading: &str, paper_claim: &str, corpus: Option<&str>) {
    println!("================================================================");
    println!("{heading}\n  paper:    {paper_claim}");
    if let Some(corpus) = corpus {
        println!("  corpus:   {corpus}");
    }
    println!("================================================================");
}

/// The crowd-weighted grid experiment the §7 grid figures run: the
/// mode's videos, the 10-trace evaluation set, crowd-profiled weights and
/// both RL agents trained for 3,000 episodes.
#[must_use]
pub fn grid_config(mode: Mode) -> ExperimentConfig {
    let quick = QUICK_VIDEOS.iter().map(|s| s.to_string()).collect();
    ExperimentConfig {
        seed: 2021,
        videos: (mode == Mode::Quick).then_some(quick),
        weight_source: WeightSource::Crowd,
        train_rl: true,
        rl_episodes: 3000,
        ..ExperimentConfig::default()
    }
}

/// Builds an experiment, printing one `[setup]` line with its build time.
///
/// # Errors
///
/// Propagates [`Experiment::build`]'s errors.
pub fn build(config: &ExperimentConfig) -> Result<Experiment, CoreError> {
    let t0 = std::time::Instant::now();
    let env = Experiment::build(config)?;
    let rl = if config.train_rl {
        "trained"
    } else {
        "skipped"
    };
    let (videos, traces) = (env.assets.len(), env.traces.len());
    let secs = t0.elapsed().as_secs_f64();
    println!("[setup] {videos} videos, {traces} traces, RL {rl} ({secs:.1}s)");
    Ok(env)
}

/// Fixed-width table printer. Header and rows are `|`-separated cells.
pub struct Table {
    /// The header, then the rows.
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given `|`-separated column headers.
    #[must_use]
    pub fn new(header: &str) -> Self {
        let mut table = Self { rows: Vec::new() };
        table.add(header.to_string());
        table
    }

    /// Adds one row of `|`-separated cells.
    pub fn add(&mut self, row: String) {
        self.rows.push(row.split('|').map(str::to_string).collect());
    }

    /// Prints the table with per-column widths.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.rows[0].iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let dashes: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let rows = self.rows.iter().take(1).chain([&dashes]);
        for row in rows.chain(self.rows.iter().skip(1)) {
            let mut line = String::from("  ");
            for (cell, w) in row.iter().zip(&widths) {
                line.push_str(&format!("{cell:<w$}  "));
            }
            println!("{}", line.trim_end());
        }
    }
}

/// The labeled render set the QoE-model accuracy figures (Figs. 2 and
/// 15) train and test on: `per_video` renders of each asset with random
/// per-chunk bitrates, random stalls and a random startup stall, labeled
/// by the true-QoE oracle. `seed` seeds only the draws, so the renders
/// are of the very videos whose weights the SENSEI model carries.
#[must_use]
pub fn labeled_render_set(
    assets: &[VideoAsset],
    seed: u64,
    per_video: usize,
) -> Vec<(RenderedVideo, f64)> {
    let oracle = sensei_crowd::TrueQoe::default();
    let ladder = BitrateLadder::default_paper();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for src in assets.iter().map(|a| &a.source) {
        for _ in 0..per_video {
            // §7.3 methodology: random per-chunk bitrates plus a random
            // startup stall from {0, 1, 2} s.
            let chunks: Vec<RenderedChunk> = (src.chunks().iter())
                .map(|c| {
                    let kbps = ladder.levels()[rng.gen_range(0..ladder.len())];
                    let stall = rng.gen_bool(0.06);
                    RenderedChunk {
                        bitrate_kbps: kbps,
                        vq: sensei_video::visual_quality(kbps, c.complexity),
                        rebuffer_s: if stall {
                            rng.gen_range(1..=4) as f64
                        } else {
                            0.0
                        },
                        intentional_rebuffer_s: 0.0,
                        motion: c.motion,
                        complexity: c.complexity,
                    }
                })
                .collect();
            let startup = rng.gen_range(0..=2) as f64;
            let render = RenderedVideo::new(src.name(), src.chunk_duration_s(), startup, chunks)
                .expect("generated render is valid");
            let label = oracle.qoe01(src, &render).expect("render matches source");
            out.push((render, label));
        }
    }
    out
}

/// SENSEI's QoE model with each render's own video's weights.
pub(crate) struct PerVideoSensei {
    models: Vec<(std::sync::Arc<str>, SenseiQoe)>,
    fallback: Ksqi,
}

impl QoeModel for PerVideoSensei {
    fn name(&self) -> &str {
        "SENSEI"
    }

    fn predict(&self, render: &RenderedVideo) -> Result<f64, QoeError> {
        match self
            .models
            .iter()
            .find(|(n, _)| **n == *render.source_name())
        {
            Some((_, m)) => m.predict(render),
            None => self.fallback.predict(render),
        }
    }
}

/// The four QoE models of Figs. 2 and 15 (SENSEI's over the fitted
/// KSQI), fitted on a labeled render set, with its held-out renders and
/// their labels.
pub(crate) struct FittedModels {
    pub(crate) ksqi: Ksqi,
    pub(crate) p1203: P1203Like,
    pub(crate) lstm: LstmQoe,
    pub(crate) sensei: PerVideoSensei,
    pub(crate) test_renders: Vec<RenderedVideo>,
    pub(crate) test_labels: Vec<f64>,
}

impl FittedModels {
    /// Fits on the first `num/den` of
    /// `labeled_render_set(assets, set_seed, per_video)`, seeding the
    /// P.1203 and LSTM fits with `fit_seed`.
    #[must_use]
    pub(crate) fn fit(
        assets: &[VideoAsset],
        set_seed: u64,
        per_video: usize,
        (num, den): (usize, usize),
        fit_seed: u64,
    ) -> Self {
        let data = labeled_render_set(assets, set_seed, per_video);
        let (train, test) = data.split_at(data.len() * num / den);
        let (train_r, train_y): (Vec<_>, Vec<_>) = train.iter().cloned().unzip();
        let (test_renders, test_labels) = test.iter().cloned().unzip();
        let ksqi = Ksqi::fit(&train_r, &train_y).expect("ksqi fits");
        let weights = assets.iter().map(|a| (a.name.clone(), a.weights.clone()));
        let sensei = PerVideoSensei {
            models: weights
                .map(|(name, w)| (name, SenseiQoe::new(ksqi.clone(), w)))
                .collect(),
            fallback: ksqi.clone(),
        };
        let lstm = LstmQoe::fit(&train_r, &train_y, &Default::default(), fit_seed);
        Self {
            p1203: P1203Like::fit(&train_r, &train_y, fit_seed).expect("p1203 fits"),
            lstm: lstm.expect("lstm fits"),
            sensei,
            ksqi,
            test_renders,
            test_labels,
        }
    }
}
