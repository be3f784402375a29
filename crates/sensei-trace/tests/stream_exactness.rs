//! Exactness of the on-demand perturbed network.
//!
//! A `PerturbedStream` draws a perturbation's Gaussian pairs only when a
//! download reaches an undrawn sample. Every answer must be the f64 bits
//! `ThroughputTrace::download_time` gives on the trace `perturbed_into`
//! builds from the same inputs, its completion must equal that trace, and
//! set-up must fail exactly where `perturbed_into` fails.

// Strategy outputs become sample counts and seconds; exact below 2^52.
#![allow(clippy::cast_precision_loss)]

use proptest::prelude::*;
use sensei_trace::{Network, ThroughputTrace, TraceError};

/// A base trace from raw draws: negative draws become outages (zero
/// samples), so traces mix zeros in. `None` when every sample is zero
/// (no valid base trace).
fn base_trace(raw: &[f64], interval_s: f64) -> Option<ThroughputTrace> {
    let samples: Vec<f64> = raw.iter().map(|&v| v.max(0.0)).collect();
    ThroughputTrace::new("base", interval_s, samples).ok()
}

/// Checks every download on a fresh stream against the full trace, then
/// the stream's completion, for one perturbation of `base`.
fn check_stream(
    base: &ThroughputTrace,
    scale: f64,
    std: f64,
    seed: u64,
    downloads: &[(f64, f64)],
) -> Result<(), TestCaseError> {
    let name = base.perturbed_name(scale, std);
    let full = base.perturbed_into(scale, std, seed, name.as_str(), Vec::new());
    let mut buf = vec![7.0; 3]; // a recycled buffer with stale samples
    let stream = base.perturbed_stream(scale, std, seed, &mut buf);
    let (full, mut stream) = match (full, stream) {
        (Ok(full), Ok(stream)) => (full, stream),
        (Err(full_err), Err(stream_err)) => {
            prop_assert_eq!(stream_err, full_err);
            return Ok(());
        }
        (full, stream) => {
            return Err(TestCaseError::Fail(format!(
                "set-up disagrees: full {:?} vs stream {:?}",
                full.map(|_| ()),
                stream.map(|_| ())
            )))
        }
    };
    prop_assert!(stream.drawn() <= base.samples().len());
    for &(start, bits) in downloads {
        let want = full.download_time(start, bits);
        let got = stream.download_time(start, bits);
        prop_assert_eq!(got.to_bits(), want.to_bits());
        prop_assert!(stream.drawn() <= base.samples().len());
    }
    prop_assert_eq!(stream.complete(name.as_str()).unwrap(), full);
    Ok(())
}

proptest! {
    /// Random traces of odd and even length, random perturbations (σ up
    /// to several times the samples, so many clamp to 0), and random
    /// download sequences: out of order, past the trace end, zero-bit.
    #[test]
    fn stream_answers_are_the_full_traces_bits(
        raw in prop::collection::vec(-1500.0f64..4000.0, 1..48),
        scale in 0.05f64..3.0,
        std_raw in -3000.0f64..12000.0,
        seed in 0u64..u64::MAX,
        reads in prop::collection::vec((-5.0f64..3.0, -2e6f64..8e6), 0..24),
    ) {
        let Some(base) = base_trace(&raw, 1.0) else {
            return Err(TestCaseError::Reject("all-zero base".into()));
        };
        let std = std_raw.max(0.0);
        // Starts span the trace three times over (so reads wrap and land
        // past the end); negative bit draws become zero-bit downloads.
        let duration = base.duration_s();
        let downloads: Vec<(f64, f64)> = reads
            .iter()
            .map(|&(u, bits)| (u * duration, bits.max(0.0)))
            .collect();
        check_stream(&base, scale, std, seed, &downloads)?;
    }

    /// Non-unit sampling intervals go through the same integration walk.
    #[test]
    fn stream_matches_on_fractional_intervals(
        raw in prop::collection::vec(0.0f64..3000.0, 2..31),
        interval_s in 0.1f64..4.0,
        std in 0.0f64..2500.0,
        seed in 0u64..u64::MAX,
        reads in prop::collection::vec((0.0f64..2.5, 0.0f64..4e6), 1..12),
    ) {
        let Some(base) = base_trace(&raw, interval_s) else {
            return Err(TestCaseError::Reject("all-zero base".into()));
        };
        let duration = base.duration_s();
        let downloads: Vec<(f64, f64)> =
            reads.iter().map(|&(u, bits)| (u * duration, bits)).collect();
        check_stream(&base, 1.0, std, seed, &downloads)?;
    }

    /// Tiny traces under heavy jitter: the perturbation is often all-zero,
    /// and the stream must report `ZeroMean` exactly when the full build
    /// does.
    #[test]
    fn all_zero_perturbations_fail_alike(
        raw in prop::collection::vec(0.0f64..300.0, 1..4),
        std in 500.0f64..50000.0,
        seed in 0u64..u64::MAX,
    ) {
        let Some(base) = base_trace(&raw, 1.0) else {
            return Err(TestCaseError::Reject("all-zero base".into()));
        };
        check_stream(&base, 1.0, std, seed, &[(0.0, 1e5)])?;
    }

    /// Without jitter the stream is a zero-copy view: it buffers
    /// nothing however far downloads read, answers with the full
    /// trace's bits, and completes to `perturbed_into`'s trace.
    #[test]
    fn unjittered_streams_are_views_that_draw_nothing(
        raw in prop::collection::vec(-800.0f64..4000.0, 1..48),
        scale in 0.05f64..3.0,
        reads in prop::collection::vec((0.0f64..3.0, 0.0f64..8e6), 0..24),
    ) {
        let Some(base) = base_trace(&raw, 1.0) else {
            return Err(TestCaseError::Reject("all-zero base".into()));
        };
        let name = base.perturbed_name(scale, 0.0);
        let full = base.perturbed_into(scale, 0.0, 5, name.as_str(), Vec::new()).unwrap();
        let mut buf = vec![7.0; 3];
        let mut stream = base.perturbed_stream(scale, 0.0, 5, &mut buf).unwrap();
        prop_assert_eq!(stream.drawn(), 0);
        let duration = base.duration_s();
        for &(u, bits) in &reads {
            let want = full.download_time(u * duration, bits);
            let got = stream.download_time(u * duration, bits);
            prop_assert_eq!(got.to_bits(), want.to_bits());
            prop_assert_eq!(stream.drawn(), 0);
        }
        prop_assert_eq!(stream.complete(name.as_str()).unwrap(), full);
    }

    /// Bad scales fail set-up with the error `perturbed_into` returns.
    #[test]
    fn bad_scales_fail_alike(
        raw in prop::collection::vec(1.0f64..3000.0, 1..8),
        scale in -4.0f64..0.0,
        std in 0.0f64..500.0,
    ) {
        let base = base_trace(&raw, 1.0).unwrap();
        check_stream(&base, scale, std, 1, &[])?;
    }
}

#[test]
fn non_finite_scales_fail_alike() {
    let base = ThroughputTrace::new("b", 1.0, vec![100.0, 0.0, 250.0]).unwrap();
    for scale in [0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let full = base
            .perturbed_into(scale, 100.0, 3, "x", Vec::new())
            .unwrap_err();
        let stream = base
            .perturbed_stream(scale, 100.0, 3, &mut Vec::new())
            .unwrap_err();
        assert!(matches!(full, TraceError::InvalidSample { index: 0, .. }));
        assert!(matches!(stream, TraceError::InvalidSample { index: 0, .. }));
    }
}

#[test]
fn overflowing_perturbations_fail_where_the_full_build_fails() {
    // A scaled sample overflows to infinity: the full build reports the
    // first such sample, and so must stream set-up.
    let base = ThroughputTrace::new("b", 1.0, vec![1.0, 1e308, 2.0, 1e308]).unwrap();
    let full = base
        .perturbed_into(10.0, 0.0, 0, "x", Vec::new())
        .unwrap_err();
    assert_eq!(
        full,
        TraceError::InvalidSample {
            index: 1,
            value: f64::INFINITY
        }
    );
    let stream = base
        .perturbed_stream(10.0, 0.0, 0, &mut Vec::new())
        .unwrap_err();
    assert_eq!(stream, full);
    // Jitter wide enough that the peak bound is not finite, though no
    // sample need overflow: set-up draws everything, and both paths
    // still agree sample for sample.
    let base = ThroughputTrace::new("b", 1.0, vec![1e300, 5.0, 7.0]).unwrap();
    for seed in 0..8 {
        let full = base.perturbed_into(1.0, 1e307, seed, "x", Vec::new());
        let mut buf = Vec::new();
        let stream = base
            .perturbed_stream(1.0, 1e307, seed, &mut buf)
            .map(|s| s.complete("x"));
        match (full, stream) {
            (Ok(full), Ok(Ok(done))) => assert_eq!(done, full),
            (Err(full), Err(stream)) => assert_eq!(stream, full),
            (full, stream) => panic!("disagree: {full:?} vs {stream:?}"),
        }
    }
}

#[test]
fn streams_draw_only_as_far_as_downloads_read() {
    // A 1,200-sample trace read only in its first seconds: the stream
    // draws whole pairs up to the farthest sample touched, no further.
    let base = ThroughputTrace::constant("c", 2000.0, 1200.0).unwrap();
    let full = base
        .perturbed_into(1.0, 300.0, 9, "c+n300", Vec::new())
        .unwrap();
    let mut buf = Vec::new();
    let mut stream = base.perturbed_stream(1.0, 300.0, 9, &mut buf).unwrap();
    assert_eq!(stream.drawn(), 2, "set-up draws one pair");
    // 1 Mb from t = 3.5 s at ~2 Mbps ends inside sample 3 or 4.
    let dt = stream.download_time(3.5, 1e6);
    assert_eq!(dt.to_bits(), full.download_time(3.5, 1e6).to_bits());
    assert!(stream.drawn() <= 6, "drew {}", stream.drawn());
    assert_eq!(stream.drawn() % 2, 0, "pairs stay whole");
    // An earlier read draws nothing new.
    let drawn = stream.drawn();
    stream.download_time(0.0, 1e5);
    assert_eq!(stream.drawn(), drawn);
    assert!(stream.full_trace().is_none());
    assert_eq!(stream.complete("c+n300").unwrap(), full);
}
