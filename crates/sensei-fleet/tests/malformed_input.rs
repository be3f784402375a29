//! Malformed input at the fleet's persistence boundary: the JSON reader,
//! persisted histograms, stats merges and whole reports.
//!
//! Every case here is input a file or a shard partial can carry. Each
//! must come back as a typed error — never a panic, an abort or a
//! silently wrong value — and a rejected merge must leave its target as
//! it was.

use proptest::prelude::*;
use sensei_core::{CellResult, PolicyKind};
use sensei_fleet::json::{self, Json, MAX_DEPTH};
use sensei_fleet::telemetry::{Counter, Hist, Phase};
use sensei_fleet::{
    merge_reports, FleetError, FleetReport, FleetStats, Histogram, PolicyStats, RunPhases,
    ShardSlice, TelemetryShard, TelemetrySnapshot, TileStats,
};
use std::time::{Duration, Instant};

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    for open in ["[", "{\"a\":"] {
        let err = json::parse(&open.repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
    }
    // Nesting up to the bound still parses; one level more does not.
    let nest = |depth| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(json::parse(&nest(MAX_DEPTH)).is_ok());
    assert!(json::parse(&nest(MAX_DEPTH + 1)).is_err());
}

#[test]
fn long_strings_decode_in_linear_time() {
    let body = "é".repeat(500_000) + &"x".repeat(500_000);
    let doc = format!("\"{body}\"");
    // sensei-lint: allow(no-wall-clock) — test-only complexity bound: a decoder that rescans the rest of the input per character takes over a minute here, a linear one milliseconds
    let started = Instant::now();
    let parsed = json::parse(&doc).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(parsed.as_str(), Some(body.as_str()));
    assert!(
        elapsed < Duration::from_secs(1),
        "decoding a 1M-character string took {elapsed:?}"
    );
}

#[test]
fn non_finite_numbers_are_rejected_and_never_written() {
    for bad in ["1e999", "-1e999", "[1e400]"] {
        assert!(json::parse(bad).is_err(), "{bad:?} should fail");
    }
    // JSON cannot spell them, so the writer emits `null`, which the
    // report reader rejects as a type error.
    for x in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
        assert_eq!(Json::Num(x).to_pretty().trim(), "null", "{x}");
    }
}

#[test]
fn duplicate_object_keys_are_rejected() {
    let err = json::parse("{\"a\": 1, \"b\": 2, \"a\": 3}").unwrap_err();
    assert!(err.contains("duplicate"), "{err}");
    assert!(json::parse("{\"a\": {\"a\": 1}}").is_ok());
}

#[test]
fn unicode_escapes_need_exactly_four_hex_digits() {
    assert_eq!(json::parse(r#""\u0041""#).unwrap().as_str(), Some("A"));
    assert_eq!(json::parse(r#""\u00e9x""#).unwrap().as_str(), Some("éx"));
    for bad in [
        r#""\u+041""#,
        r#""\u-041""#,
        r#""\u 041""#,
        r#""\u041""#,
        r#""\u12""#,
    ] {
        assert!(json::parse(bad).is_err(), "{bad:?} should fail");
    }
}

#[test]
fn histogram_layouts_are_checked_where_they_are_restored() {
    let mut h = Histogram::new(0.0, 1.0, 4);
    h.add(0.3);
    let back = Histogram::from_parts(h.lo(), h.hi(), h.counts().to_vec()).unwrap();
    assert_eq!(back, h);
    for (lo, hi, counts) in [
        (0.0, 1.0, vec![]),
        (1.0, 1.0, vec![1]),
        (0.0, f64::NAN, vec![1]),
        (f64::NEG_INFINITY, 1.0, vec![1]),
    ] {
        assert!(matches!(
            Histogram::from_parts(lo, hi, counts),
            Err(FleetError::Persist(_))
        ));
    }
    // The total wraps, as a merge does, instead of overflowing.
    let huge = Histogram::from_parts(0.0, 1.0, vec![u64::MAX, 2]).unwrap();
    assert_eq!(huge.total(), 1);
}

const AXES: [PolicyKind; 2] = [PolicyKind::Bba, PolicyKind::SenseiFugu];

/// A small report with non-trivial state in every accumulator (gain
/// CDFs and telemetry included), folded through the public API.
fn sample_report() -> FleetReport {
    let cell = |policy: &'static str, qoe01: f64, rebuffer_ratio: f64| CellResult {
        video: "v".into(),
        genre: "Sports",
        trace: "hsdpa-1".into(),
        trace_mean_kbps: 1234.5,
        policy,
        qoe01,
        avg_bitrate_kbps: 1500.3,
        rebuffer_ratio,
        delivered_bits: 1e8,
        intentional_stall_s: 0.25,
        bitrate_switches: 3,
    };
    let mut tile = TileStats::new(&AXES, PolicyKind::Bba);
    tile.fold_cell(&[cell("BBA", 0.51, 0.02), cell("SENSEI", 0.63, 0.01)]);
    tile.fold_cell(&[cell("BBA", 0.47, 0.06), cell("SENSEI", 0.44, 0.09)]);
    tile.fold_cell(&[cell("BBA", 1.0 / 3.0, 0.0), cell("SENSEI", 0.1 / 0.3, 0.0)]);
    let mut shard = TelemetryShard::new();
    shard.counters[Counter::Sessions.idx()] = 6;
    shard.phase_calls[Phase::LaneSimulate.idx()] = 3;
    shard.phase_ns[Phase::LaneSimulate.idx()] = 123_456;
    shard.hists[Hist::LanesPerBatch.idx()][1] = 3;
    FleetReport {
        stats: tile.stats().clone(),
        workers: 4,
        wall_time_s: 1.5,
        sessions_per_sec: 4.0,
        phases: RunPhases {
            setup_s: 0.25,
            execute_s: 1.0,
            collect_s: 0.25,
        },
        telemetry: Some(TelemetrySnapshot::from_shard(shard)),
        shard: None,
    }
}

/// The sample report as the three shard partials of a 6-tile matrix.
fn sample_partials() -> Vec<FleetReport> {
    (0..3)
        .map(|index| FleetReport {
            shard: Some(ShardSlice {
                index,
                count: 3,
                tile_lo: 2 * index,
                tile_hi: 2 * index + 2,
                total_tiles: 6,
            }),
            ..sample_report()
        })
        .collect()
}

/// A merge that fails on a later policy's accumulator must not have
/// folded the session count or the earlier policies already.
#[test]
fn rejected_merge_leaves_the_target_unchanged() {
    let sample = sample_report().stats;
    let edits: [fn(&mut PolicyStats); 4] = [
        |p| p.stall_hist = Histogram::new(0.0, 2.0, p.stall_hist.counts().len()),
        |p| p.switch_hist = Histogram::new(0.0, 1.0, 3),
        |p| {
            let gain = p.gain_vs_baseline.as_mut().expect("non-baseline policy");
            gain.hist = Histogram::new(-50.0, 50.0, gain.hist.counts().len());
        },
        |p| p.gain_vs_baseline = None,
    ];
    for edit in edits {
        let mut bad: FleetStats = sample.clone();
        edit(&mut bad.per_policy[1]);
        let mut target = sample.clone();
        assert!(matches!(target.merge(&bad), Err(FleetError::Shard(_))));
        assert_eq!(target, sample);
    }
}

/// A report whose per-policy list names a policy twice does not parse:
/// lookups by kind would see only the first of the two.
#[test]
fn repeated_policies_are_rejected() {
    let mut report = sample_report();
    let first = report.stats.per_policy[0].clone();
    report.stats.per_policy.push(first);
    match FleetReport::from_json(&report.to_json()) {
        Err(FleetError::Persist(msg)) => assert!(msg.contains("repeats policy"), "{msg}"),
        other => panic!("expected a persist error, got {other:?}"),
    }
}

/// Applies byte edits — `(kind, position, byte)`: 0 replaces, 1
/// inserts, 2 deletes — and then an optional truncation to `text`.
/// Three in four edit bytes are JSON-significant, so edits reach past
/// the tokenizer into the report's own validation.
fn corrupt(text: &str, edits: &[(u8, usize, u8)], cut: Option<usize>) -> String {
    const SIGNIFICANT: &[u8] = b"0123456789-+.eE\"{}[],: \\nu";
    let mut bytes = text.as_bytes().to_vec();
    for &(kind, pos, byte) in edits {
        let byte = if byte < 192 {
            SIGNIFICANT[usize::from(byte) % SIGNIFICANT.len()]
        } else {
            byte
        };
        let at = pos % (bytes.len() + 1);
        match kind {
            0 if at < bytes.len() => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            _ if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => {}
        }
    }
    if let Some(cut) = cut {
        bytes.truncate(cut % (bytes.len() + 1));
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// An accepted report's JSON is a fixed point: it parses back and
/// re-serialises to the same bytes.
fn assert_round_trips(report: &FleetReport) -> Result<(), TestCaseError> {
    let text = report.to_json();
    let back = FleetReport::from_json(&text);
    prop_assert!(
        back.is_ok(),
        "re-serialised report does not parse: {back:?}"
    );
    prop_assert_eq!(back.map(|r| r.to_json()).ok(), Some(text));
    Ok(())
}

proptest! {
    /// Corrupted reports and shard partials — random byte edits and
    /// truncations — are either rejected with an error or accepted as
    /// documents that round-trip; neither the codec nor the merge ever
    /// panics.
    #[test]
    fn corrupted_reports_and_partials_never_panic(
        target in 0usize..4,
        edits in prop::collection::vec((0u8..3, 0usize..1 << 20, 0u8..=255), 1..3),
        cut in 0usize..1 << 20,
        truncate in 0u8..8,
    ) {
        let mut texts: Vec<String> = std::iter::once(sample_report())
            .chain(sample_partials())
            .map(|r| r.to_json())
            .collect();
        texts[target] = corrupt(&texts[target], &edits, (truncate == 0).then_some(cut));
        let parsed: Vec<Result<FleetReport, FleetError>> =
            texts.iter().map(|t| FleetReport::from_json(t)).collect();
        for report in parsed.iter().flatten() {
            assert_round_trips(report)?;
        }
        let partials: Vec<FleetReport> = parsed[1..].iter().flatten().cloned().collect();
        if let Ok(merged) = merge_reports(&partials) {
            assert_round_trips(&merged)?;
        }
    }
}

/// Whether `slices` are a split `merge_reports` accepts: one slice per
/// index `0..n` for `n` slices, every one counting `n` shards over the
/// same total, whose ranges, in index order, run from tile 0 to the
/// total with no gap, overlap or reversed range.
fn partitions(slices: &[ShardSlice]) -> bool {
    let Some(first) = slices.first() else {
        return false;
    };
    let n = slices.len() as u64;
    let mut ordered = slices.to_vec();
    ordered.sort_by_key(|s| s.index);
    let mut next_tile = 0;
    for (i, s) in (0u64..).zip(&ordered) {
        let agrees = s.count == n && s.total_tiles == first.total_tiles;
        if s.index != i || !agrees || s.tile_lo != next_tile || s.tile_hi < s.tile_lo {
            return false;
        }
        next_tile = s.tile_hi;
    }
    next_tile == first.total_tiles
}

/// The contiguous split of `0..total` at `cuts` (each taken modulo
/// `total + 1`), one slice per range, listed from shard `rotate`
/// onwards.
fn split(total: u64, cuts: &[u64], rotate: usize) -> Vec<ShardSlice> {
    let mut bounds: Vec<u64> = cuts.iter().map(|c| c % (total + 1)).collect();
    bounds.sort_unstable();
    bounds.insert(0, 0);
    bounds.push(total);
    let count = bounds.len() as u64 - 1;
    let mut slices: Vec<ShardSlice> = (0u64..)
        .zip(bounds.windows(2))
        .map(|(index, w)| ShardSlice {
            index,
            count,
            tile_lo: w[0],
            tile_hi: w[1],
            total_tiles: total,
        })
        .collect();
    let len = slices.len();
    slices.rotate_left(rotate % len);
    slices
}

/// Applies `(kind, at, value)` edits to a split: kinds 0–4 overwrite
/// the index, count, `tile_lo`, `tile_hi` or total of slice `at`; 5
/// repeats slice `at`; 6 drops it.
fn edit_split(slices: &mut Vec<ShardSlice>, edits: &[(u8, usize, u64)]) {
    for &(kind, at, value) in edits {
        if slices.is_empty() {
            return;
        }
        let at = at % slices.len();
        let s = slices[at];
        match kind {
            0 => slices[at].index = value,
            1 => slices[at].count = value,
            2 => slices[at].tile_lo = value,
            3 => slices[at].tile_hi = value,
            4 => slices[at].total_tiles = value,
            5 => slices.push(s),
            _ => {
                slices.remove(at);
            }
        }
    }
}

proptest! {
    /// Generated shard inputs — overlaps, gaps, duplicates, missing
    /// shards, mixed counts and totals, and partials whose JSON carries
    /// another format tag — either merge, exactly when their slices
    /// partition the tiles, or fail with a typed error; nothing panics.
    #[test]
    fn merge_reports_accepts_exactly_the_partitions(
        total in 0u64..9,
        cuts in prop::collection::vec(0u64..9, 0..5),
        rotate in 0usize..6,
        edits in prop::collection::vec((0u8..7, 0usize..8, 0u64..9), 0..3),
        foreign_tags in prop::collection::vec(0u8..8, 8..9),
    ) {
        let mut slices = split(total, &cuts, rotate);
        edit_split(&mut slices, &edits);
        let partials: Vec<FleetReport> = slices
            .iter()
            .map(|&slice| FleetReport {
                shard: Some(slice),
                ..sample_report()
            })
            .collect();
        let want = partitions(&slices);
        match merge_reports(&partials) {
            Ok(merged) => {
                prop_assert!(want, "merged a split that does not partition: {slices:?}");
                let sessions = sample_report().stats.sessions * slices.len() as u64;
                prop_assert_eq!(merged.stats.sessions, sessions);
                prop_assert!(merged.shard.is_none());
            }
            Err(FleetError::Shard(_)) => {
                prop_assert!(!want, "rejected a partition: {slices:?}");
            }
            Err(other) => {
                prop_assert!(false, "untyped shard failure: {other:?}");
            }
        }

        // The same partials through their files: one with another format
        // tag fails to read, and the rest merge as in memory.
        let mut foreign = false;
        let mut read = Vec::new();
        for (i, partial) in partials.iter().enumerate() {
            let mut text = partial.to_json();
            if foreign_tags[i % foreign_tags.len()] == 0 {
                let tagged = text.replacen("sensei-fleet-report/", "sensei-fleet-report/v", 1);
                prop_assert!(tagged != text, "the report carries no format tag");
                text = tagged;
                foreign = true;
            }
            match FleetReport::from_json(&text) {
                Ok(report) => read.push(report),
                Err(FleetError::Persist(msg)) => {
                    prop_assert!(msg.contains("format"), "{msg}");
                }
                Err(other) => {
                    prop_assert!(false, "untyped read failure: {other:?}");
                }
            }
        }
        prop_assert_eq!(read.len() < partials.len(), foreign);
        if !foreign {
            prop_assert_eq!(merge_reports(&read).is_ok(), want);
        }
    }
}
