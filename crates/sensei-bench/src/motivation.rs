//! The paper's motivation and test set: Table 1, Figs. 1–6 (§2) and
//! Fig. 20 (Appendix D). All but Fig. 2 run without the grid experiment.

use crate::claims::{score, Claim};
use crate::{figure_header, FittedModels, Mode, Table, QUICK_VIDEOS, SOCCER1};
use sensei_core::experiment::{Experiment, PolicyKind};
use sensei_crowd::cv_baselines::CvModel;
use sensei_crowd::series::{crowd_series_mos, max_min_gap_pct, oracle_series_qoe};
use sensei_crowd::series::{windowed_gap_pct, IncidentKind};
use sensei_crowd::TrueQoe;
use sensei_ml::stats::{mean, percentile, spearman};
use sensei_qoe::eval::{discordant_pair_fraction, evaluate_model, RankingCell};
use sensei_qoe::QoeModel;
use sensei_video::{corpus, BitrateLadder, EncodedVideo, RenderedChunk, RenderedVideo};
use sensei_video::{SceneKind, SensitivityWeights, SourceVideo};

/// Table 1: the 16-video test set (name, genre, length, source dataset).
pub fn table1() -> Vec<Claim> {
    figure_header(
        "Table 1: Summary of the test video set",
        "16 videos across Sports/Gaming/Nature/Animation, 1:24-9:56",
        Mode::Full.corpus(),
    );
    let mut table = Table::new("Name|Genre|Length|Source dataset|Chunks|w-spread");
    let entries = corpus::table1(2021);
    for e in &entries {
        let v = &e.video;
        let spread = SensitivityWeights::ground_truth(v).spread();
        let (name, genre, chunks) = (v.name(), v.genre().label(), v.num_chunks());
        let (length, dataset) = (e.length_label(), e.source_dataset);
        table.add(format!(
            "{name}|{genre}|{length}|{dataset}|{chunks}|{spread:.2}"
        ));
    }
    table.print();
    score(&[("table1.videos", entries.len() as f64)])
}

/// The Table-1 videos a mode runs, in Table-1 order.
fn videos(mode: Mode) -> impl Iterator<Item = SourceVideo> {
    let runs = move |v: &SourceVideo| mode == Mode::Full || QUICK_VIDEOS.contains(&v.name());
    corpus::table1(2021)
        .into_iter()
        .map(|e| e.video)
        .filter(runs)
}

/// One Table-1 video by name.
fn video(name: &str) -> SourceVideo {
    corpus::by_name(name, 2021).expect("Table-1 video").video
}

/// Index of the first minimum.
fn argmin(xs: &[f64]) -> usize {
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    xs.iter().position(|&x| x == min).expect("series non-empty")
}

/// Fig. 1: crowd MOS of Soccer1 with a 1-second rebuffering event at each
/// chunk. The paper reports QoE 0.76 (normal gameplay) down to 0.42
/// (shoot & goal) on its 25-second excerpt.
pub fn fig01() -> Vec<Claim> {
    figure_header(
        "Fig. 1: Dynamic quality sensitivity of Soccer1 (1-s rebuffer at each chunk)",
        "max-vs-min MOS gap > 40%; worst position = shoot & goal",
        SOCCER1,
    );
    let video = video("Soccer1");
    let ladder = BitrateLadder::default_paper();
    let mos = crowd_series_mos(&video, &ladder, IncidentKind::Rebuffer1s, 30, 7)
        .expect("campaign completes");
    let mut table = Table::new("Chunk|t (s)|Scene|MOS (0-1)|MOS (1-5)");
    for (k, &m) in mos.iter().enumerate() {
        let scene = match video.chunks()[k].scene {
            SceneKind::KeyMoment => "shoot & goal",
            SceneKind::Replay => "celebrate & replay",
            SceneKind::Informational => "scoreboard",
            SceneKind::AdBreak => "ad break",
            SceneKind::Scenic => "scenic",
            SceneKind::NormalPlay => "normal gameplay",
        };
        let (t, mos5) = (k as f64 * 4.0, 1.0 + 4.0 * m);
        table.add(format!("{k}|{t:.0}|{scene}|{m:.3}|{mos5:.2}"));
    }
    table.print();
    let (gap, worst) = (max_min_gap_pct(&mos), argmin(&mos));
    let scene = video.chunks()[worst].scene;
    println!("\n  measured: max-min gap = {gap:.1}% (paper: >40%)");
    println!("  measured: worst position = chunk {worst} ({scene:?}) — paper: the goal");
    let key_moment = f64::from(u8::from(scene == SceneKind::KeyMoment));
    score(&[
        ("fig01.max_min_gap_pct", gap),
        ("fig01.worst_is_key_moment", key_moment),
    ])
}

/// Fig. 2: relative QoE-prediction error vs discordant ABR-ranking pairs
/// for KSQI, P.1203, LSTM-QoE and SENSEI's model.
pub fn fig02(mode: Mode, grid: &Experiment) -> Vec<Claim> {
    figure_header(
        "Fig. 2: QoE model error vs discordant ABR-ranking pairs",
        "baselines >10.4% error / >10.2% discordant; SENSEI far lower",
        &format!("{}; 24 renders per video, crowd weights", mode.corpus()),
    );
    let fitted = FittedModels::fit(&grid.assets, 11, 24, (3, 4), 5);
    // Rank BBA/Fugu/SENSEI-Fugu per (video, trace): does the model agree
    // with the true-QoE ordering? Each session runs once, and every model
    // scores its render.
    let mut sessions = Vec::new();
    for asset in &grid.assets {
        for trace in &grid.traces {
            let (mut truth, mut renders) = (Vec::new(), Vec::new());
            for kind in [PolicyKind::Bba, PolicyKind::Fugu, PolicyKind::SenseiFugu] {
                let mut policy = grid.policy(kind, trace).unwrap();
                let weights = kind.uses_weights().then_some(&asset.weights);
                let (src, player) = (&asset.source, &grid.player);
                let session =
                    sensei_sim::simulate(src, &asset.encoded, trace, &mut *policy, player, weights);
                let render = session.unwrap().render;
                truth.push(grid.oracle.qoe01(src, &render).unwrap());
                renders.push(render);
            }
            sessions.push((truth, renders));
        }
    }
    let mut table = Table::new("Model|rel. error %|discordant pairs %");
    let (mut rel, mut disc) = (Vec::new(), Vec::new());
    let models: [(&str, &dyn QoeModel); 4] = [
        ("KSQI", &fitted.ksqi),
        ("P.1203", &fitted.p1203),
        ("LSTM-QoE", &fitted.lstm),
        ("SENSEI", &fitted.sensei),
    ];
    for (name, model) in models {
        let acc = evaluate_model(model, &fitted.test_renders, &fitted.test_labels).unwrap();
        let cells: Vec<RankingCell> = (sessions.iter())
            .map(|(truth, renders)| RankingCell {
                truth: truth.clone(),
                predicted: model.predict_batch(renders).unwrap(),
            })
            .collect();
        rel.push(acc.relative_error * 100.0);
        disc.push(discordant_pair_fraction(&cells).unwrap_or(0.0) * 100.0);
        let (r, d) = (rel[rel.len() - 1], disc[disc.len() - 1]);
        table.add(format!("{name}|{r:.1}|{d:.1}"));
    }
    table.print();
    let min = |v: &[f64]| v[..3].iter().copied().fold(f64::INFINITY, f64::min);
    score(&[
        ("fig02.sensei_rel_error_pct", rel[3]),
        ("fig02.sensei_discordant_pct", disc[3]),
        ("fig02.baseline_min_rel_error_pct", min(&rel)),
        ("fig02.baseline_min_discordant_pct", min(&disc)),
    ])
}

/// Fig. 3: the max-min QoE gap when one incident is placed at every
/// position of every video (whole video and 12-second windows).
pub fn fig03(mode: Mode) -> Vec<Claim> {
    figure_header(
        "Fig. 3: Distribution of max-min QoE gaps across video series",
        "21 of 48 series gap > 40.1%; similar trend in 12-s windows",
        mode.corpus(),
    );
    let ladder = BitrateLadder::default_paper();
    let (mut whole, mut windowed) = (Vec::new(), Vec::new());
    for video in videos(mode) {
        for kind in IncidentKind::ALL {
            let qoe = oracle_series_qoe(&video, &ladder, kind).expect("series evaluates");
            whole.push(max_min_gap_pct(&qoe));
            windowed.push(windowed_gap_pct(&qoe, 3)); // 12 s = 3 chunks
        }
    }
    let mut table = Table::new("Percentile|Whole-video gap %|12-s window gap %");
    for p in [10.0, 25.0, 50.0, 75.0, 90.0, 100.0] {
        let (a, b) = (
            percentile(&whole, p).unwrap(),
            percentile(&windowed, p).unwrap(),
        );
        table.add(format!("p{p:.0}|{a:.1}|{b:.1}"));
    }
    table.print();
    let (over40, total) = (whole.iter().filter(|&&g| g > 40.1).count(), whole.len());
    println!("\n  measured: {over40}/{total} series exceed a 40.1% gap (paper: 21/48)");
    let share = over40 as f64 / total as f64 * 100.0;
    score(&[("fig03.series_over_40pct_gap_pct", share)])
}

/// Fig. 4: QoE vs incident position for a 1-s rebuffer, a 4-s rebuffer
/// and a bitrate drop: the same variability pattern under all three.
pub fn fig04() -> Vec<Claim> {
    figure_header(
        "Fig. 4: QoE variability per incident position (Soccer1)",
        "absolute QoE depends on the incident; the pattern does not",
        SOCCER1,
    );
    let video = video("Soccer1");
    let ladder = BitrateLadder::default_paper();
    let series: Vec<Vec<f64>> = (IncidentKind::ALL.iter())
        .map(|&k| oracle_series_qoe(&video, &ladder, k).expect("series"))
        .collect();
    let mut table = Table::new("Chunk|1-s rebuf|4-s rebuf|bitrate drop");
    for k in 0..video.num_chunks() {
        let cells: Vec<String> = series.iter().map(|s| format!("{:.3}", s[k])).collect();
        table.add(format!("{k}|{}", cells.join("|")));
    }
    table.print();
    let worst: Vec<usize> = series.iter().map(|s| argmin(s)).collect();
    for (kind, w) in IncidentKind::ALL.iter().zip(&worst) {
        println!("  {}: worst at chunk {w}", kind.label());
    }
    let agreeing = worst.iter().filter(|&&w| w == worst[0]).count();
    let agreement = agreeing as f64 / worst.len() as f64;
    score(&[("fig04.worst_chunk_agreement", agreement)])
}

/// Fig. 5: Spearman rank correlation of QoE series between incident
/// types, per video: quality sensitivity is inherent to the content.
pub fn fig05(mode: Mode) -> Vec<Claim> {
    figure_header(
        "Fig. 5: QoE rank correlation between quality incidents",
        "strong rank correlation for both comparisons (most videos > 0.6)",
        mode.corpus(),
    );
    let ladder = BitrateLadder::default_paper();
    let mut table = Table::new("Video|1s-vs-4s rebuf SRCC|1s rebuf vs bitrate-drop SRCC");
    let (mut all_a, mut all_b) = (Vec::new(), Vec::new());
    for video in videos(mode) {
        let series = |kind| oracle_series_qoe(&video, &ladder, kind).unwrap();
        let one = series(IncidentKind::Rebuffer1s);
        let a = spearman(&one, &series(IncidentKind::Rebuffer4s)).unwrap_or(0.0);
        let b = spearman(&one, &series(IncidentKind::BitrateDrop4s)).unwrap_or(0.0);
        all_a.push(a);
        all_b.push(b);
        table.add(format!("{}|{a:.2}|{b:.2}", video.name()));
    }
    table.print();
    let (a, b) = (mean(&all_a), mean(&all_b));
    println!("\n  measured means: {a:.2} and {b:.2} (paper: strong positive correlation)");
    score(&[
        ("fig05.mean_srcc_1s_vs_4s_rebuffer", a),
        ("fig05.mean_srcc_rebuffer_vs_drop", b),
    ])
}

/// Max-weighted-quality assignment under a total-bits budget (Fig. 6).
fn assign(encoded: &EncodedVideo, weights: &[f64], budget_bits: f64) -> Vec<usize> {
    let size = |c, l| encoded.size_bits(c, l).expect("in range");
    let pick = |lambda: f64| -> (Vec<usize>, f64) {
        let mut levels = Vec::with_capacity(weights.len());
        let mut bits = 0.0;
        for (c, &w) in weights.iter().enumerate().take(encoded.num_chunks()) {
            let mut best = 0;
            let mut best_v = f64::NEG_INFINITY;
            for (l, &q) in encoded.vq_row(c).iter().enumerate() {
                let v = w * q - lambda * size(c, l);
                if v > best_v {
                    best_v = v;
                    best = l;
                }
            }
            bits += size(c, best);
            levels.push(best);
        }
        (levels, bits)
    };
    // Bisect the bit price until the budget binds.
    let (mut lo, mut hi) = (0.0_f64, 1e-5_f64);
    if pick(lo).1 <= budget_bits {
        return pick(lo).0; // even the top assignment fits
    }
    while pick(hi).1 > budget_bits {
        hi *= 2.0;
    }
    for _ in 0..60 {
        let mid = (lo + hi) / 2.0;
        if pick(mid).1 > budget_bits {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    pick(hi).0
}

/// Fig. 6: potential gains of idealistic sensitivity-aware vs -unaware
/// ABR.
///
/// The paper's §2.4 experiment is an offline bitrate-to-chunk assignment:
/// both algorithms see the whole throughput trace, throughput does not
/// depend on the bitrates chosen, and each maximizes its QoE model subject
/// to the trace's total capacity over the playback. This solves that
/// directly by Lagrangian relaxation: for a price λ on bits, each chunk
/// picks argmax(weighted quality − λ·size), and λ is bisected until the
/// assignment meets the budget. The unaware variant uses uniform weights.
pub fn fig06(mode: Mode) -> Vec<Claim> {
    figure_header(
        "Fig. 6: Potential QoE gains of dynamic-sensitivity awareness (offline assignment)",
        "22-52% higher QoE at equal bandwidth; 39-49% bandwidth savings",
        &format!("{}; evaluation trace 6, scaled", mode.corpus()),
    );
    let ladder = BitrateLadder::default_paper();
    let oracle = TrueQoe::default();
    let base_trace = sensei_trace::generate::evaluation_set(2021 ^ 0x7AACE)[6].clone();
    let mut table = Table::new("Scale|Mean kbps|Aware QoE|Unaware QoE|Gain %");
    let mut gains = Vec::new();
    for scale in [0.2, 0.4, 0.6, 0.8, 1.0] {
        let trace = base_trace.scaled(scale).expect("positive scale");
        let (mut aware, mut unaware, mut count) = (0.0, 0.0, 0usize);
        for src in videos(mode) {
            let encoded = EncodedVideo::encode(&src, &ladder, 5);
            // Capacity budget: what the trace can deliver over playback.
            let budget = trace.mean_over(0.0, src.duration_s()) * 1000.0 * src.duration_s();
            let truth = SensitivityWeights::ground_truth(&src);
            let uniform = vec![1.0; src.num_chunks()];
            for (weights, total) in [(truth.as_slice(), &mut aware), (&uniform, &mut unaware)] {
                let chunks = (assign(&encoded, weights, budget).iter().enumerate())
                    .map(|(c, &l)| RenderedChunk {
                        bitrate_kbps: ladder.levels()[l],
                        vq: encoded.vq(c, l),
                        rebuffer_s: 0.0,
                        intentional_rebuffer_s: 0.0,
                        motion: src.chunks()[c].motion,
                        complexity: src.chunks()[c].complexity,
                    })
                    .collect();
                let render = RenderedVideo::new(src.name(), src.chunk_duration_s(), 0.0, chunks);
                *total += oracle.qoe01(&src, &render.unwrap()).unwrap();
            }
            count += 1;
        }
        let gain = (aware - unaware) / unaware * 100.0;
        gains.push(gain);
        let (kbps, n) = (trace.mean_kbps(), count as f64);
        let (a, u) = (aware / n, unaware / n);
        table.add(format!("{scale:.1}|{kbps:.0}|{a:.3}|{u:.3}|{gain:+.1}"));
    }
    table.print();
    score(&[
        ("fig06.aware_gain_pct@0.2", gains[0]),
        ("fig06.aware_gain_pct@1.0", gains[4]),
    ])
}

/// Fig. 20 (Appendix D): CV highlight detectors vs the true sensitivity
/// on Lava, Tank, Animal and Soccer2.
pub fn fig20() -> Vec<Claim> {
    figure_header(
        "Fig. 20: Quality-sensitivity estimation by CV models",
        "AMVM/DSN/Video2GIF do not correlate with true sensitivity",
        "Lava, Tank, Animal, Soccer2 (Table 1, seed 2021)",
    );
    let mut table = Table::new("Video|AMVM SRCC|DSN SRCC|Video2GIF SRCC");
    let mut max_srcc = f64::NEG_INFINITY;
    for name in ["Lava", "Tank", "Animal", "Soccer2"] {
        let video = video(name);
        let truth = SensitivityWeights::ground_truth(&video);
        let mut row = name.to_string();
        for model in CvModel::ALL {
            let srcc = spearman(&model.predict(&video), truth.as_slice()).unwrap_or(0.0);
            max_srcc = max_srcc.max(srcc);
            row.push_str(&format!("|{srcc:+.2}"));
        }
        table.add(row);
    }
    table.print();
    println!("\n  paper: trends not aligned with the user study (low/negative correlation)");
    score(&[("fig20.max_cv_srcc", max_srcc)])
}
