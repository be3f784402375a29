//! The claims runner's library: deterministic figures, a ledger reader
//! that fails with typed errors, and a gate that catches drift from the
//! baseline.

use sensei_bench::claims::{check, ledger_json, parse_ledger, Claim, Direction, Drift};
use sensei_bench::claims::{LedgerError, Status, Substitution, SPECS};
use sensei_bench::{evaluation, grid_config, labeled_render_set, motivation, Mode, Table};
use sensei_core::experiment::{Experiment, ExperimentConfig, WeightSource};
use sensei_crowd::TrueQoe;

const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BASELINE_claims.json");

fn baseline() -> Vec<Claim> {
    let text = std::fs::read_to_string(BASELINE).expect("baseline is committed");
    parse_ledger(&text).expect("baseline parses")
}

/// A one-record ledger with `fields` spliced into the record.
fn one_record(fields: &str) -> String {
    let record = r#""id": "x", "paper": 1, "direction": "above", "tolerance": 0.5"#;
    format!(r#"{{"mode": "quick", "claims": [{{{record}, "explained_by": null, {fields}}}]}}"#)
}

#[test]
fn rl_free_figures_write_byte_identical_ledgers() {
    let oracle = TrueQoe::default();
    let run = || {
        let mut claims = motivation::table1();
        claims.extend(motivation::fig01(&oracle));
        claims.extend(motivation::fig03(Mode::Quick, &oracle));
        claims.extend(motivation::fig04(&oracle));
        claims.extend(motivation::fig05(Mode::Quick, &oracle));
        claims.extend(motivation::fig06(Mode::Quick, &oracle));
        claims.extend(evaluation::fig16(&oracle));
        claims.extend(motivation::fig20());
        ledger_json(Mode::Quick, &claims)
    };
    let first = run();
    assert_eq!(first, run());
    // They are the baseline's records, with the baseline's statuses.
    let baseline = baseline();
    for claim in parse_ledger(&first).unwrap() {
        let held = baseline
            .iter()
            .find(|b| b.id == claim.id)
            .expect("in baseline");
        assert_eq!(claim.status, held.status, "{}", claim.id);
    }
}

#[test]
fn every_spec_parses_and_the_baseline_holds_them_all() {
    let ids: Vec<&str> = SPECS
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let baseline = baseline();
    assert_eq!(ids.len(), baseline.len());
    for (id, held) in ids.iter().zip(&baseline) {
        let spec = Claim::spec(id).unwrap();
        assert_eq!(
            (id, spec.paper, spec.direction),
            (&held.id.as_str(), held.paper, held.direction)
        );
    }
    assert!(matches!(
        Claim::spec("fig99.none"),
        Err(LedgerError::Unknown { .. })
    ));
}

#[test]
fn claims_are_scored_by_direction() {
    let status = |id, m| Claim::measure(id, m).unwrap().status;
    // fig01.max_min_gap_pct: above 40; fig16.default_plcc_loss_pct: below
    // 3; fig15.sensei_plcc: near 0.85 within 0.05.
    assert_eq!(status("fig01.max_min_gap_pct", 40.5), Status::Reproduces);
    assert_eq!(status("fig01.max_min_gap_pct", 40.0), Status::Diverges);
    assert_eq!(
        status("fig16.default_plcc_loss_pct", 2.9),
        Status::Reproduces
    );
    assert_eq!(status("fig15.sensei_plcc", 0.8), Status::Reproduces);
    assert_eq!(status("fig15.sensei_plcc", 0.79), Status::Diverges);
    assert_eq!(status("fig15.sensei_plcc", f64::NAN), Status::Unmeasurable);
    let diverging = Claim::measure("fig01.max_min_gap_pct", 1.0).unwrap();
    assert_eq!(diverging.explained_by, Some(Substitution::TrueQoeOracle));
    assert_eq!(diverging.direction, Direction::Above);
    assert_eq!(
        Claim::measure("fig01.max_min_gap_pct", 50.0)
            .unwrap()
            .explained_by,
        None
    );
}

#[test]
fn ledgers_round_trip() {
    let claims = baseline();
    assert_eq!(
        parse_ledger(&ledger_json(Mode::Quick, &claims)).unwrap(),
        claims
    );
}

#[test]
fn truncated_ledger_is_a_json_error() {
    let text = std::fs::read_to_string(BASELINE).unwrap();
    for cut in [0, 1, text.len() / 2, text.len() - 2] {
        assert!(
            matches!(parse_ledger(&text[..cut]), Err(LedgerError::Json(_))),
            "cut {cut}"
        );
    }
}

#[test]
fn record_without_status_is_a_field_error() {
    let missing = LedgerError::Field {
        record: 0,
        field: "status",
    };
    assert_eq!(parse_ledger(&one_record(r#""measured": 2"#)), Err(missing));
}

#[test]
fn unknown_status_is_named() {
    let unknown = LedgerError::Unknown {
        field: "status",
        value: "reproduced".to_string(),
    };
    let text = one_record(r#""measured": 2, "status": "reproduced""#);
    assert_eq!(parse_ledger(&text), Err(unknown));
}

#[test]
fn non_finite_measured_value_is_rejected() {
    // JSON cannot spell NaN or infinity: an overflowing literal is refused
    // by the reader, and `null` (what the writer emits for a non-finite
    // number) is valid only on an unmeasurable claim.
    let overflow = one_record(r#""measured": 1e999, "status": "diverges""#);
    assert!(matches!(parse_ledger(&overflow), Err(LedgerError::Json(_))));
    let null = one_record(r#""measured": null, "status": "diverges""#);
    let missing = LedgerError::Field {
        record: 0,
        field: "measured",
    };
    assert_eq!(parse_ledger(&null), Err(missing));
    let unmeasurable = one_record(r#""measured": null, "status": "unmeasurable""#);
    assert!(parse_ledger(&unmeasurable).is_ok());
}

#[test]
fn duplicate_ids_are_rejected() {
    let mut claims = baseline();
    claims.push(claims[0].clone());
    let text = ledger_json(Mode::Quick, &claims);
    assert_eq!(
        parse_ledger(&text),
        Err(LedgerError::Duplicate(claims[0].id.clone()))
    );
}

#[test]
fn gate_fails_on_a_flipped_status() {
    let baseline = baseline();
    assert_eq!(check(&baseline, &baseline), Ok(()));
    let mut run = baseline.clone();
    let i = run
        .iter()
        .position(|c| c.status == Status::Diverges)
        .unwrap();
    run[i].status = Status::Reproduces;
    let flipped = Drift::StatusFlipped {
        id: run[i].id.clone(),
        baseline: Status::Diverges,
        run: Status::Reproduces,
    };
    assert_eq!(
        check(&baseline, &run),
        Err(LedgerError::Drift(vec![flipped]))
    );
}

#[test]
fn gate_fails_on_a_value_past_its_tolerance() {
    let baseline = baseline();
    let mut run = baseline.clone();
    let i = run
        .iter()
        .position(|c| c.tolerance > 0.0 && c.measured.is_some())
        .unwrap();
    let (held, tolerance) = (run[i].measured.unwrap(), run[i].tolerance);
    run[i].measured = Some(held + tolerance / 2.0);
    assert_eq!(check(&baseline, &run), Ok(()));
    run[i].measured = Some(held + tolerance * 2.0);
    let moved = Drift::OutOfTolerance {
        id: run[i].id.clone(),
        baseline: held,
        run: held + tolerance * 2.0,
    };
    assert_eq!(check(&baseline, &run), Err(LedgerError::Drift(vec![moved])));
}

#[test]
fn gate_fails_on_missing_new_and_redefined_claims() {
    let baseline = baseline();
    let mut run = baseline.clone();
    run[0].paper += 1.0;
    run[1].id.push_str("_renamed");
    let drifts = vec![
        Drift::Redefined(baseline[0].id.clone()),
        Drift::Missing(baseline[1].id.clone()),
        Drift::New(run[1].id.clone()),
    ];
    assert_eq!(check(&baseline, &run), Err(LedgerError::Drift(drifts)));
}

#[test]
fn table_prints_without_panicking() {
    let mut t = Table::new("a|bb");
    t.add("1|2".to_string());
    t.print();
}

#[test]
fn quick_videos_are_table1_names() {
    let corpus = sensei_video::corpus::table1(1);
    for name in sensei_bench::QUICK_VIDEOS {
        assert!(
            corpus.iter().any(|e| e.video.name() == name),
            "{name} not in Table 1"
        );
    }
}

#[test]
fn labeled_renders_have_valid_labels() {
    let config = ExperimentConfig {
        weight_source: WeightSource::GroundTruth,
        rl_episodes: 0,
        ..grid_config(Mode::Quick)
    };
    let env = Experiment::build(&config).unwrap();
    let set = labeled_render_set(&env.oracle, &env.assets, 3, 2);
    assert_eq!(set.len(), 16);
    for (_, label) in &set {
        assert!((0.0..=1.0).contains(label));
    }
}
