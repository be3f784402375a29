//! Workspace smoke test: exercises the umbrella facade end to end.
//!
//! One corpus video goes through `Sensei::onboard` (crowdsourced weights,
//! manifest, reweighted QoE model), and the weight-extended DASH manifest
//! round-trips through the `sensei-dash` XML writer and parser. Everything
//! is reached through the `sensei::` facade so this test breaks if any
//! crate falls out of the re-export surface.

use sensei::core::pipeline::{weights_from_manifest, Sensei};
use sensei::dash::{quantize_weight, Manifest};
use sensei::qoe::QoeModel;

#[test]
fn onboarding_and_manifest_roundtrip_through_the_facade() {
    let entry = sensei::video::corpus::by_name("Soccer1", 2021).expect("Soccer1 is in Table 1");
    let system = Sensei::paper_default(5);
    let onboarded = system
        .onboard(&sensei::crowd::TrueQoe::default(), &entry.video, 23)
        .expect("onboarding succeeds");

    // Onboarding produced one weight per chunk, all positive.
    assert_eq!(onboarded.weights.len(), entry.video.num_chunks());
    assert!(onboarded.weights.as_slice().iter().all(|&w| w > 0.0));

    // The reweighted QoE model scores a pristine render through the
    // object-safe contract (Box<dyn QoeModel>).
    let ladder = system.ladder();
    let pristine = sensei::video::RenderedVideo::pristine(&entry.video, ladder);
    let model: Box<dyn QoeModel> = Box::new(onboarded.qoe.clone());
    let q = model.predict(&pristine).expect("pristine render scores");
    assert!((0.0..=1.0).contains(&q), "QoE {q} outside [0, 1]");

    // XML round trip: weights survive serialize -> parse up to the
    // documented milli-unit quantization.
    let xml = onboarded.manifest.to_xml().expect("manifest serializes");
    assert!(xml.contains("sensei:weights"), "weight extension missing");
    let parsed = Manifest::parse(&xml).expect("writer output parses");
    assert_eq!(
        parsed.representations.len(),
        onboarded.manifest.representations.len()
    );
    // Parsing renormalizes to mean 1, so recovered weights match the
    // originals up to milli-unit quantization plus that renormalization.
    let recovered = weights_from_manifest(&parsed).expect("weights survive the round trip");
    assert_eq!(recovered.len(), onboarded.weights.len());
    for (got, want) in recovered
        .as_slice()
        .iter()
        .zip(onboarded.weights.as_slice())
    {
        let quantized = quantize_weight(*want);
        assert!(
            (got - quantized).abs() <= 2e-3 * quantized.max(1.0),
            "weight drifted through XML: {got} vs {want}"
        );
    }

    // A second serialize of the parsed manifest is byte-identical: the
    // writer/parser pair is a true fixpoint.
    let xml2 = parsed.to_xml().expect("parsed manifest serializes");
    assert_eq!(xml, xml2);
}

/// Fleet smoke: a small matrix sharded across 2 workers through the
/// facade — the parallel path runs on every `cargo test -q`, and its
/// aggregates match a sequential rerun bit for bit.
#[test]
fn fleet_engine_smokes_through_the_facade() {
    use sensei::fleet::{Fleet, FleetConfig, ScenarioMatrix, TracePerturbation};

    let mut config = sensei::core::ExperimentConfig::quick(3);
    config.videos = Some(vec!["Mountain".to_string()]);
    let env = sensei::core::Experiment::build(&config).expect("environment builds");
    let matrix = ScenarioMatrix::builder()
        .policies([
            sensei::core::PolicyKind::Bba,
            sensei::core::PolicyKind::SenseiFugu,
        ])
        .perturbations([
            TracePerturbation::identity(),
            TracePerturbation {
                scale: 0.8,
                jitter_std_kbps: 200.0,
            },
        ])
        .master_seed(3)
        .build()
        .expect("valid matrix");

    let sharded = Fleet::new(&env, &matrix, FleetConfig::new(2))
        .expect("valid fleet")
        .run()
        .expect("sharded run completes");
    assert_eq!(sharded.stats.sessions, 40); // 1 video x 10 traces x 2 perturbations x 2 policies
    assert_eq!(sharded.workers, 2);

    let sequential = Fleet::new(&env, &matrix, FleetConfig::new(1))
        .expect("valid fleet")
        .run()
        .expect("sequential run completes");
    assert_eq!(
        sharded.stats, sequential.stats,
        "worker count leaked into aggregates"
    );

    // The gain CDF actually saw data (SENSEI-Fugu vs BBA).
    let sensei_stats = sharded
        .stats
        .policy(sensei::core::PolicyKind::SenseiFugu)
        .expect("SENSEI-Fugu aggregates exist");
    assert!(sensei_stats
        .gain_vs_baseline
        .as_ref()
        .is_some_and(|g| g.stats.count() > 0));
}
