//! The paper's evaluation (§7): Figs. 12–18. Every figure but 12c and 16
//! reads the grid experiment, and Figs. 12a, 13, 14 and 18 read one run of
//! its [`GRID_POLICIES`] grid.

use crate::claims::{score, Claim};
use crate::{build, figure_header, FittedModels, Mode, Table, SOCCER1};
use sensei_core::experiment::{mean_qoe, qoe_gains_over, CellResult, Experiment};
use sensei_core::experiment::{ExperimentConfig, PolicyKind, WeightSource};
use sensei_crowd::{ProfilerConfig, RaterPool, TrueQoe, WeightProfiler};
use sensei_ml::stats::{mean, pearson, percentile, spearman};
use sensei_qoe::eval::evaluate_model;
use sensei_qoe::{Ksqi, QoeModel, SenseiQoe};
use sensei_trace::ThroughputTrace;
use sensei_video::{corpus, BitrateLadder, Incident, RenderedVideo, SensitivityWeights};

/// The policies of the one grid run that Figs. 12a, 13, 14 and 18 read.
pub const GRID_POLICIES: [PolicyKind; 6] = [
    PolicyKind::Bba,
    PolicyKind::Fugu,
    PolicyKind::Pensieve,
    PolicyKind::SenseiFugu,
    PolicyKind::SenseiFuguNoPause,
    PolicyKind::SenseiPensieve,
];

/// Per-cell gains of `policy` over BBA, in percent.
fn gains(results: &[CellResult], policy: &str) -> Vec<f64> {
    qoe_gains_over(results, policy, "BBA")
}

/// Mean gains over BBA of SENSEI, Pensieve and Fugu on the cells `keep`
/// selects.
fn mean_gains(results: &[CellResult], keep: impl Fn(&CellResult) -> bool) -> [f64; 3] {
    let cells: Vec<CellResult> = results.iter().filter(|r| keep(r)).cloned().collect();
    ["SENSEI", "Pensieve", "Fugu"].map(|p| mean(&gains(&cells, p)))
}

/// Fig. 12a: per-(video, trace) QoE gains over BBA for SENSEI, Pensieve
/// and Fugu.
pub fn fig12a(mode: Mode, results: &[CellResult]) -> Vec<Claim> {
    figure_header(
        "Fig. 12a: Distribution of QoE gains over BBA",
        "SENSEI median +14.4%; Pensieve/Fugu median ~+5.7%",
        &format!("{}; 10 evaluation traces", mode.corpus()),
    );
    let [sensei, pensieve, fugu] = ["SENSEI", "Pensieve", "Fugu"].map(|p| gains(results, p));
    let at = |p| [&sensei, &pensieve, &fugu].map(|g| percentile(g, p).unwrap());
    let mut table = Table::new("Percentile|SENSEI %|Pensieve %|Fugu %");
    for p in [20.0, 40.0, 50.0, 60.0, 80.0] {
        let [s, e, f] = at(p);
        table.add(format!("p{p:.0}|{s:+.1}|{e:+.1}|{f:+.1}"));
    }
    table.print();
    let [s, e, f] = at(50.0);
    println!("\n  measured medians: SENSEI {s:+.1}%, Pensieve {e:+.1}%, Fugu {f:+.1}%");
    score(&[
        ("fig12a.sensei_median_gain_pct", s),
        ("fig12a.pensieve_median_gain_pct", e),
        ("fig12a.fugu_median_gain_pct", f),
    ])
}

/// Mean QoE over every grid asset of each of `kinds`, on each labeled
/// trace variant; prints one table row per variant.
fn sweep(
    grid: &Experiment,
    header: &str,
    kinds: &[PolicyKind],
    variants: impl Iterator<Item = (String, ThroughputTrace)>,
) -> Vec<Vec<f64>> {
    let mut table = Table::new(header);
    let mut rows = Vec::new();
    for (mut row, trace) in variants {
        let mut qoe = Vec::new();
        for &kind in kinds {
            let mut total = 0.0;
            for asset in &grid.assets {
                total += grid.run_session(asset, &trace, kind).unwrap().qoe01;
            }
            qoe.push(total / grid.assets.len() as f64);
            row.push_str(&format!("|{:.3}", qoe[qoe.len() - 1]));
        }
        table.add(row);
        rows.push(qoe);
    }
    table.print();
    rows
}

/// The bandwidth scale at which a QoE curve (ascending scales) first
/// reaches `target`, interpolated linearly; NaN when it never does.
fn scale_reaching(curve: impl Iterator<Item = (f64, f64)>, target: f64) -> f64 {
    let mut prev: Option<(f64, f64)> = None;
    for (s, q) in curve {
        if q >= target {
            return prev.map_or(s, |(s0, q0)| s0 + (s - s0) * (target - q0) / (q - q0));
        }
        prev = Some((s, q));
    }
    f64::NAN
}

/// Fig. 12b: QoE vs bandwidth: SENSEI reaches a target QoE with less
/// bandwidth than Pensieve, Fugu and BBA.
pub fn fig12b(mode: Mode, grid: &Experiment) -> Vec<Claim> {
    figure_header(
        "Fig. 12b: QoE vs bandwidth (one trace scaled down)",
        "~27.9% bandwidth savings vs Pensieve/Fugu, 32.1% vs BBA @ QoE 0.8",
        &format!("{}; evaluation trace 7, scaled", mode.corpus()),
    );
    let kinds = [
        PolicyKind::SenseiFugu,
        PolicyKind::Pensieve,
        PolicyKind::Fugu,
        PolicyKind::Bba,
    ];
    let scales = [0.2, 0.35, 0.5, 0.65, 0.8, 1.0];
    let traces = (scales.iter()).map(|&s| (format!("{s:.2}"), grid.traces[7].scaled(s).unwrap()));
    let rows = sweep(grid, "Scale|SENSEI|Pensieve|Fugu|BBA", &kinds, traces);
    println!("\n  read horizontally: the scale at which each policy reaches a target QoE");
    let reach = |k: usize| scale_reaching(scales.into_iter().zip(rows.iter().map(|r| r[k])), 0.8);
    let savings = |k| (1.0 - reach(0) / reach(k)) * 100.0;
    let best = rows
        .iter()
        .flatten()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    score(&[
        ("fig12b.best_qoe", best),
        ("fig12b.savings_vs_fugu_pct@qoe0.8", savings(2)),
        ("fig12b.savings_vs_bba_pct@qoe0.8", savings(3)),
    ])
}

/// Fig. 12c: crowdsourcing cost per minute vs the resulting QoE, with and
/// without the two-step cost pruning. Builds its own 4-video
/// ground-truth experiment.
pub fn fig12c() -> Vec<Claim> {
    figure_header(
        "Fig. 12c: Crowdsourcing cost vs QoE (pruned vs exhaustive)",
        "pruning cuts costs 96.7% with only 3.1% QoE degradation; ~$31/min",
        "Soccer1, FPS2, Space, Lava (Table 1, seed 2021); evaluation traces 2-4",
    );
    let env = build(&ExperimentConfig {
        videos: Some(
            ["Soccer1", "FPS2", "Space", "Lava"]
                .map(String::from)
                .to_vec(),
        ),
        weight_source: WeightSource::GroundTruth,
        train_rl: false,
        rl_episodes: 0,
        ..ExperimentConfig::default()
    })
    .expect("environment builds");
    let ladder = BitrateLadder::default_paper();
    let profiler = WeightProfiler::paper_default(7);
    let mut table = Table::new("Scheduler|$ / min video|mean QoE (SENSEI ABR)|renders");
    let mut rows = Vec::new();
    // Each scheduler's weights drive SENSEI-Fugu on three traces; the
    // last row is the base ABR with no profiling.
    for (label, exhaustive) in [
        ("two-step (pruned)", Some(false)),
        ("exhaustive", Some(true)),
        ("no profiling (base ABR)", None),
    ] {
        let (mut cost, mut qoe, mut renders, mut sessions) = (0.0, 0.0, 0usize, 0usize);
        for asset in &env.assets {
            let (mut patched, mut kind) = (asset.clone(), PolicyKind::Fugu);
            if let Some(exhaustive) = exhaustive {
                let src = &asset.source;
                let profile = if exhaustive {
                    profiler.profile_exhaustive(src, &ladder, 13)
                } else {
                    profiler.profile(src, &ladder, 13)
                };
                let profile = profile.expect("profiling completes");
                cost += profile.cost_per_minute_usd(src);
                renders += profile.renders_rated;
                (patched.weights, kind) = (profile.weights, PolicyKind::SenseiFugu);
            }
            for trace in env.traces.iter().skip(2).take(3) {
                qoe += env.run_session(&patched, trace, kind).unwrap().qoe01;
                sessions += 1;
            }
        }
        let (cost, qoe) = (cost / env.assets.len() as f64, qoe / sessions as f64);
        table.add(format!("{label}|{cost:.1}|{qoe:.3}|{renders}"));
        rows.push((cost, qoe));
    }
    table.print();
    let ((pruned, pruned_qoe), (full, full_qoe)) = (rows[0], rows[1]);
    score(&[
        ("fig12c.pruned_cost_usd_per_min", pruned),
        ("fig12c.pruning_cost_cut_pct", (1.0 - pruned / full) * 100.0),
        (
            "fig12c.pruning_qoe_loss_pct",
            (full_qoe - pruned_qoe) / full_qoe * 100.0,
        ),
    ])
}

/// Fig. 13: QoE gain over BBA per video, grouped by genre.
pub fn fig13(mode: Mode, grid: &Experiment, results: &[CellResult]) -> Vec<Claim> {
    figure_header(
        "Fig. 13: QoE gains over BBA per source video (grouped by genre)",
        "gains vary within genres; sensitivity is not genre-determined",
        &format!("{}; 10 evaluation traces", mode.corpus()),
    );
    let mut table = Table::new("Video|Genre|SENSEI %|Pensieve %|Fugu %");
    let mut assets: Vec<_> = grid.assets.iter().collect();
    assets.sort_by_key(|a| a.genre);
    let mut by_genre: Vec<(&str, Vec<f64>)> = Vec::new();
    for a in assets {
        let [s, e, f] = mean_gains(results, |r| r.video == a.name);
        match by_genre.last_mut() {
            Some((genre, gains)) if *genre == a.genre => gains.push(s),
            _ => by_genre.push((a.genre, vec![s])),
        }
        table.add(format!("{}|{}|{s:+.1}|{e:+.1}|{f:+.1}", a.name, a.genre));
    }
    table.print();
    let range = |xs: &[f64]| {
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        max - xs.iter().copied().fold(f64::INFINITY, f64::min)
    };
    let within: Vec<f64> = by_genre.iter().map(|(_, g)| range(g)).collect();
    let genre_means: Vec<f64> = by_genre.iter().map(|(_, g)| mean(g)).collect();
    let spread = mean(&within) - range(&genre_means);
    score(&[("fig13.within_minus_between_genre_spread_pp", spread)])
}

/// Fig. 14: QoE gain over BBA per trace, by mean throughput: SENSEI
/// helps most when the network is under stress.
pub fn fig14(mode: Mode, grid: &Experiment, results: &[CellResult]) -> Vec<Claim> {
    figure_header(
        "Fig. 14: QoE gains over BBA per trace (increasing mean throughput)",
        "larger SENSEI gains at lower average throughput",
        &format!("{}; 10 evaluation traces", mode.corpus()),
    );
    let mut table = Table::new("Trace|Mean kbps|SENSEI %|Pensieve %|Fugu %");
    let (mut kbps, mut sensei) = (Vec::new(), Vec::new());
    for trace in &grid.traces {
        let (name, mean_kbps) = (trace.name(), trace.mean_kbps());
        let [s, e, f] = mean_gains(results, |r| *r.trace == *name);
        table.add(format!("{name}|{mean_kbps:.0}|{s:+.1}|{e:+.1}|{f:+.1}"));
        kbps.push(mean_kbps);
        sensei.push(s);
    }
    table.print();
    let srcc = spearman(&kbps, &sensei).unwrap_or(f64::NAN);
    score(&[("fig14.gain_vs_throughput_srcc", srcc)])
}

/// Fig. 15: QoE prediction accuracy (PLCC/SRCC) of SENSEI's model vs
/// KSQI, LSTM-QoE and P.1203.
pub fn fig15(mode: Mode, grid: &Experiment) -> Vec<Claim> {
    figure_header(
        "Fig. 15: QoE prediction accuracy (PLCC / SRCC)",
        "SENSEI PLCC 0.85 / SRCC 0.84; KSQI 0.76/0.73; LSTM 0.60/0.63; P.1203 0.62/0.67",
        &format!("{}; 40 renders per video, crowd weights", mode.corpus()),
    );
    // 400 of 640 renders train, as in §7.3.
    let fitted = FittedModels::fit(&grid.assets, 15, 40, (5, 8), 15);
    let models: [(&str, &dyn QoeModel); 4] = [
        ("SENSEI", &fitted.sensei),
        ("KSQI", &fitted.ksqi),
        ("LSTM-QoE", &fitted.lstm),
        ("P.1203", &fitted.p1203),
    ];
    const IDS: [[&str; 2]; 4] = [
        ["fig15.sensei_plcc", "fig15.sensei_srcc"],
        ["fig15.ksqi_plcc", "fig15.ksqi_srcc"],
        ["fig15.lstm_qoe_plcc", "fig15.lstm_qoe_srcc"],
        ["fig15.p1203_plcc", "fig15.p1203_srcc"],
    ];
    let mut table = Table::new("Model|PLCC|SRCC|paper PLCC|paper SRCC");
    let mut measured = Vec::new();
    for ((name, model), [plcc_id, srcc_id]) in models.into_iter().zip(IDS) {
        let acc = evaluate_model(model, &fitted.test_renders, &fitted.test_labels).unwrap();
        let paper = |id| Claim::spec(id).expect("fig15 claims are specified").paper;
        let (p_plcc, p_srcc) = (paper(plcc_id), paper(srcc_id));
        let (plcc, srcc) = (acc.plcc, acc.srcc);
        table.add(format!(
            "{name}|{plcc:.2}|{srcc:.2}|{p_plcc:.2}|{p_srcc:.2}"
        ));
        measured.extend([(plcc_id, plcc), (srcc_id, srcc)]);
    }
    table.print();
    score(&measured)
}

/// PLCC of a SENSEI model built from `weights` on a probe set: a 2-s
/// stall and a lowest-level drop at every chunk of Soccer1.
fn probe_plcc(video: &sensei_video::SourceVideo, weights: &SensitivityWeights) -> f64 {
    let ladder = BitrateLadder::default_paper();
    let oracle = TrueQoe::default();
    let model = SenseiQoe::new(Ksqi::canonical(), weights.clone());
    let (mut preds, mut truths) = (Vec::new(), Vec::new());
    for chunk in 0..video.num_chunks() {
        let stall = Incident::Rebuffer {
            chunk,
            duration_s: 2.0,
        };
        let drop = Incident::BitrateDrop {
            chunk,
            len_chunks: 1,
            level: 0,
        };
        for incident in [stall, drop] {
            let render = RenderedVideo::with_incidents(video, &ladder, &[incident]).unwrap();
            preds.push(model.predict(&render).unwrap());
            truths.push(oracle.qoe01(video, &render).unwrap());
        }
    }
    pearson(&preds, &truths).unwrap_or(0.0)
}

/// Fig. 16: QoE-model accuracy vs crowdsourcing cost across the four
/// scheduler parameters (B, F, M, alpha).
pub fn fig16() -> Vec<Claim> {
    figure_header(
        "Fig. 16: QoE model accuracy vs crowdsourcing cost (B, F, M, alpha sweeps)",
        "each parameter can be cut to its sweet spot with <3% accuracy loss",
        SOCCER1,
    );
    let video = corpus::by_name("Soccer1", 2021).unwrap().video;
    let default = ProfilerConfig::default();
    let mut rows = Vec::new();
    for b in [1usize, 2, 4] {
        let mut cfg = default.clone();
        cfg.bitrate_levels = b;
        rows.push(("B (bitrate levels)", b.to_string(), cfg));
    }
    for f in [1usize, 2, 4] {
        let mut cfg = default.clone();
        cfg.rebuffer_levels = f;
        rows.push(("F (rebuffer levels)", f.to_string(), cfg));
    }
    for m in [5usize, 10, 20, 30] {
        // Campaigns need at least min_ratings survivors per render.
        let mut cfg = default.clone();
        (cfg.m1, cfg.m2) = (m, (m / 2).max(3));
        rows.push(("M (raters/video)", m.to_string(), cfg));
    }
    for alpha in [0.0, 0.06, 0.2, 0.5] {
        let mut cfg = default.clone();
        cfg.alpha = alpha;
        rows.push(("alpha (threshold)", format!("{alpha:.2}"), cfg));
    }
    let key = |c: &ProfilerConfig| (c.m1, c.m2, c.alpha, c.bitrate_levels, c.rebuffer_levels);
    let (mut best, mut default_plcc) = (f64::NEG_INFINITY, f64::NAN);
    let mut table = Table::new("Sweep|Value|$ / min|PLCC");
    for (sweep, value, cfg) in rows {
        let is_default = key(&cfg) == key(&default);
        let profiler = WeightProfiler::new(RaterPool::masters(5), cfg);
        let profile = profiler.profile(&video, &BitrateLadder::default_paper(), 9);
        let profile = profile.expect("profiling completes");
        let (cost, plcc) = (
            profile.cost_per_minute_usd(&video),
            probe_plcc(&video, &profile.weights),
        );
        table.add(format!("{sweep}|{value}|{cost:.1}|{plcc:.3}"));
        best = best.max(plcc);
        if is_default {
            default_plcc = plcc;
        }
    }
    table.print();
    // The paper's defaults are the sweet spot; the loss is against the
    // most accurate setting of any sweep.
    let loss = (best - default_plcc) / best * 100.0;
    score(&[("fig16.default_plcc_loss_pct", loss)])
}

/// Fig. 17: QoE under increasing throughput variance (zero-mean Gaussian
/// noise): the SENSEI variants keep their edge over their base ABR.
pub fn fig17(mode: Mode, grid: &Experiment) -> Vec<Claim> {
    figure_header(
        "Fig. 17: QoE vs throughput standard deviation",
        "SENSEI degrades gracefully, keeping a gain over its base ABR",
        &format!("{}; evaluation trace 7 plus Gaussian noise", mode.corpus()),
    );
    let kinds = [
        PolicyKind::SenseiFugu,
        PolicyKind::Fugu,
        PolicyKind::SenseiPensieve,
        PolicyKind::Pensieve,
    ];
    let base = &grid.traces[7];
    let traces = [0.0, 300.0, 600.0, 1000.0, 1500.0].map(|sd| {
        let trace = if sd > 0.0 {
            base.with_gaussian_noise(sd, 42).expect("valid noise")
        } else {
            base.clone()
        };
        (format!("{sd:.0}"), trace)
    });
    let header = "Added noise (kbps sd)|SENSEI-Fugu|Fugu|SENSEI-Pensieve|Pensieve";
    let rows = sweep(grid, header, &kinds, traces.into_iter());
    let (quiet, noisy) = (&rows[0], &rows[rows.len() - 1]);
    let pct = |a: f64, b: f64| (a - b) / b * 100.0;
    score(&[
        (
            "fig17.sensei_fugu_qoe_change_pct@sd1500",
            pct(noisy[0], quiet[0]),
        ),
        (
            "fig17.sensei_fugu_gain_over_fugu_pct@sd1500",
            pct(noisy[0], noisy[1]),
        ),
        (
            "fig17.sensei_pensieve_gain_over_pensieve_pct@sd1500",
            pct(noisy[2], noisy[3]),
        ),
    ])
}

/// Fig. 18: (a) SENSEI's gains with either base ABR logic; (b) the
/// breakdown between the reweighted objective and the pause action.
pub fn fig18(mode: Mode, results: &[CellResult]) -> Vec<Claim> {
    figure_header(
        "Fig. 18: Understanding SENSEI's improvements",
        "(a) comparable gains on Fugu and Pensieve; (b) objective > actions",
        &format!("{}; 10 evaluation traces", mode.corpus()),
    );
    println!("\n(a) Gain over BBA, by base ABR logic:");
    let mut table = Table::new("Policy|mean gain over BBA %");
    let policies = ["Fugu", "SENSEI", "Pensieve", "SENSEI-Pensieve"];
    let gain = policies.map(|p| mean(&gains(results, p)));
    for (policy, g) in policies.iter().zip(gain) {
        table.add(format!("{policy}|{g:+.1}"));
    }
    table.print();
    println!("\n(b) SENSEI QoE breakdown (Fugu base):");
    let mut table = Table::new("Variant|mean QoE|gain over base %");
    let base = mean_qoe(results, "Fugu");
    let mut over_base = Vec::new();
    for (label, policy) in [
        ("base ABR w/ KSQI", "Fugu"),
        ("+ weighted objective", "SENSEI (bitrate only)"),
        ("full SENSEI (+ rebuffer action)", "SENSEI"),
    ] {
        let q = mean_qoe(results, policy);
        over_base.push((q - base) / base * 100.0);
        table.add(format!(
            "{label}|{q:.3}|{:+.1}",
            over_base[over_base.len() - 1]
        ));
    }
    table.print();
    score(&[
        ("fig18a.sensei_uplift_on_fugu_pp", gain[1] - gain[0]),
        ("fig18a.pensieve_mean_gain_pct", gain[2]),
        ("fig18a.sensei_uplift_on_pensieve_pp", gain[3] - gain[2]),
        ("fig18b.objective_gain_pct", over_base[1]),
        ("fig18b.pause_action_gain_pp", over_base[2] - over_base[1]),
    ])
}
