//! Cross-crate integration tests: the full SENSEI pipeline from source
//! video to streamed session, through crowdsourcing, manifests, and ABR.

use sensei_abr::{Bba, Fugu, SenseiFugu};
use sensei_core::experiment::{mean_qoe, Experiment, ExperimentConfig, PolicyKind};
use sensei_core::pipeline::{weights_from_manifest, Sensei};
use sensei_crowd::TrueQoe;
use sensei_dash::Manifest;
use sensei_sim::{simulate, PlayerConfig};
use sensei_trace::generate;
use sensei_video::{corpus, SensitivityWeights};

#[test]
fn onboard_then_stream_via_manifest_roundtrip() {
    // The deployment path: onboard -> serialize manifest -> player parses
    // it -> weights drive the ABR -> true QoE improves over the base ABR.
    let entry = corpus::by_name("Soccer1", 2021).unwrap();
    let sensei = Sensei::paper_default(7);
    let onboarded = sensei.onboard(&entry.video, 42).unwrap();

    // Wire format round trip.
    let xml = onboarded.manifest.to_xml().unwrap();
    let parsed = Manifest::parse(&xml).unwrap();
    let weights = weights_from_manifest(&parsed).unwrap();
    assert_eq!(weights.len(), entry.video.num_chunks());

    // Stream with the recovered weights.
    let trace = generate::hsdpa_like(1500.0, 600, 3);
    let config = PlayerConfig::default();
    let oracle = TrueQoe::default();
    let s = simulate(
        &entry.video,
        &onboarded.encoded,
        &trace,
        &mut SenseiFugu::new(),
        &config,
        Some(&weights),
    )
    .unwrap();
    let b = simulate(
        &entry.video,
        &onboarded.encoded,
        &trace,
        &mut Bba::paper_default(),
        &config,
        None,
    )
    .unwrap();
    let q_sensei = oracle.qoe01(&entry.video, &s.render).unwrap();
    let q_bba = oracle.qoe01(&entry.video, &b.render).unwrap();
    assert!(
        q_sensei > q_bba * 0.95,
        "SENSEI {q_sensei:.3} should be at least competitive with BBA {q_bba:.3}"
    );
}

#[test]
fn crowdsourced_weights_approximate_ground_truth_at_corpus_scale() {
    let sensei = Sensei::paper_default(11);
    let mut srccs = Vec::new();
    for name in ["Soccer1", "FPS2", "Wrestling"] {
        let entry = corpus::by_name(name, 2021).unwrap();
        let onboarded = sensei.onboard(&entry.video, 17).unwrap();
        let truth = SensitivityWeights::ground_truth(&entry.video);
        let srcc =
            sensei_ml::stats::spearman(onboarded.weights.as_slice(), truth.as_slice()).unwrap();
        srccs.push(srcc);
    }
    let mean = sensei_ml::stats::mean(&srccs);
    assert!(mean > 0.5, "mean inferred-vs-true SRCC = {mean:.2}");
}

#[test]
fn experiment_grid_reproduces_the_headline_ordering() {
    // The robust claims: (1) sensitivity weights never hurt the controller
    // that carries them (SENSEI >= Fugu overall), and (2) SENSEI beats BBA
    // where bandwidth is constrained but usable (the paper's sweet spot;
    // on near-outage traces every MPC controller concedes to BBA's
    // reservoir conservatism — see the fig14 record in BASELINE_claims.json).
    let env = Experiment::build(&ExperimentConfig::quick(2021)).unwrap();
    let results = env
        .run_grid(&[PolicyKind::Bba, PolicyKind::Fugu, PolicyKind::SenseiFugu])
        .unwrap();
    let sensei = mean_qoe(&results, "SENSEI");
    let fugu = mean_qoe(&results, "Fugu");
    // Overall means may flip by a few percent on seeds whose trace set is
    // dominated by near-outage cellular traces (see the fig12a records in
    // BASELINE_claims.json).
    assert!(sensei >= fugu * 0.9, "SENSEI {sensei:.3} vs Fugu {fugu:.3}");
    // Stable constrained traces (FCC-like): the regime where lookahead
    // planning plus sensitivity weights pay off most reliably.
    let mid: Vec<_> = results
        .iter()
        .filter(|r| r.trace.starts_with("fcc") && (600.0..3200.0).contains(&r.trace_mean_kbps))
        .cloned()
        .collect();
    let sensei_mid = mean_qoe(&mid, "SENSEI");
    let bba_mid = mean_qoe(&mid, "BBA");
    assert!(
        sensei_mid > bba_mid * 0.95,
        "SENSEI {sensei_mid:.3} vs BBA {bba_mid:.3} on stable constrained traces"
    );
}

#[test]
fn oracle_gains_bound_the_practical_gains() {
    // Fig. 6's idealistic gains must exceed the practical SENSEI-Fugu
    // gains: full trace knowledge is strictly more information.
    let env = Experiment::build(&ExperimentConfig::quick(5)).unwrap();
    let asset = env.asset("Soccer1").unwrap();
    let trace = env.traces[4].clone();
    let aware = env
        .run_session(asset, &trace, PolicyKind::OracleAware)
        .unwrap()
        .qoe01;
    let unaware = env
        .run_session(asset, &trace, PolicyKind::OracleUnaware)
        .unwrap()
        .qoe01;
    let practical = env
        .run_session(asset, &trace, PolicyKind::SenseiFugu)
        .unwrap()
        .qoe01;
    assert!(
        aware >= unaware * 0.98,
        "aware {aware:.3} vs unaware {unaware:.3}"
    );
    assert!(
        aware >= practical * 0.9,
        "oracle should not lose badly to practical"
    );
}

#[test]
fn intentional_rebuffering_only_comes_from_sensei_players() {
    let env = Experiment::build(&ExperimentConfig::quick(9)).unwrap();
    let asset = env.asset("FPS2").unwrap();
    for (kind, may_pause) in [
        (PolicyKind::Bba, false),
        (PolicyKind::Fugu, false),
        (PolicyKind::SenseiFuguNoPause, false),
        (PolicyKind::SenseiFugu, true),
    ] {
        for trace in env.traces.iter().take(4) {
            let cell = env.run_session(asset, trace, kind).unwrap();
            if !may_pause {
                assert_eq!(
                    cell.intentional_stall_s,
                    0.0,
                    "{} paused intentionally",
                    kind.label()
                );
            }
        }
    }
}

#[test]
fn fugu_objective_and_true_qoe_agree_directionally() {
    // The KSQI objective Fugu optimizes and the hidden oracle must rank
    // obviously-different sessions the same way (sanity of the whole
    // model stack).
    let entry = corpus::by_name("Basket1", 2021).unwrap();
    let ladder = sensei_video::BitrateLadder::default_paper();
    let encoded = sensei_video::EncodedVideo::encode(&entry.video, &ladder, 3);
    let oracle = TrueQoe::default();
    let qoe = sensei_qoe::Ksqi::canonical();
    let good_trace = sensei_trace::ThroughputTrace::constant("fast", 6000.0, 600.0).unwrap();
    let bad_trace = sensei_trace::ThroughputTrace::constant("slow", 500.0, 600.0).unwrap();
    let config = PlayerConfig::default();
    let good = simulate(
        &entry.video,
        &encoded,
        &good_trace,
        &mut Fugu::new(),
        &config,
        None,
    )
    .unwrap();
    let bad = simulate(
        &entry.video,
        &encoded,
        &bad_trace,
        &mut Fugu::new(),
        &config,
        None,
    )
    .unwrap();
    assert!(
        oracle.qoe01(&entry.video, &good.render).unwrap()
            > oracle.qoe01(&entry.video, &bad.render).unwrap()
    );
    use sensei_qoe::QoeModel;
    assert!(qoe.predict(&good.render).unwrap() > qoe.predict(&bad.render).unwrap());
}
