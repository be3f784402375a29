//! Exactness of the batched download-time row.
//!
//! `CumulativeTrace::download_times` answers a whole row of sizes from one
//! start time, reusing each inversion's search position across sizes. Every
//! entry must be the f64 bits `CumulativeTrace::download_time` gives for
//! that size alone, whatever the sizes' order.

// Strategy outputs become sample counts and seconds; exact below 2^52.
#![allow(clippy::cast_precision_loss)]

use proptest::prelude::*;
use sensei_trace::{CumulativeTrace, ThroughputTrace};

/// Checks one row against per-size answers.
fn check_row(cum: &CumulativeTrace, start_s: f64, sizes: &[f64]) -> Result<(), TestCaseError> {
    let mut row = vec![f64::NAN; sizes.len()];
    cum.download_times(start_s, sizes, &mut row);
    for (i, (&bits, &got)) in sizes.iter().zip(&row).enumerate() {
        let want = cum.download_time(start_s, bits);
        prop_assert!(
            got.to_bits() == want.to_bits(),
            "size {i} ({bits} bits) from {start_s}: row {got} vs alone {want}"
        );
    }
    Ok(())
}

proptest! {
    /// Random traces with outage buckets (negative draws become zero
    /// samples), fractional sampling intervals, starts up to four loops
    /// out, and unsorted rows mixing zero sizes, sizes inside the first
    /// loop and sizes that wrap several loops.
    #[test]
    fn rows_match_single_downloads_bit_for_bit(
        raw in prop::collection::vec(-1500.0f64..4000.0, 1..40),
        interval_s in 0.1f64..3.0,
        start_loops in -0.5f64..4.0,
        draws in prop::collection::vec((0.0f64..1.0, -0.3f64..3.5), 0..16),
    ) {
        let samples: Vec<f64> = raw.iter().map(|&v| v.max(0.0)).collect();
        let Ok(trace) = ThroughputTrace::new("row", interval_s, samples) else {
            return Err(TestCaseError::Reject("all-zero trace".into()));
        };
        let cum = CumulativeTrace::new(&trace);
        let per_loop = cum.bits_per_loop();
        // A negative loop count is a zero size; a small one lands inside
        // the first loop, a large one wraps.
        let sizes: Vec<f64> = draws
            .iter()
            .map(|&(u, loops)| if loops < 0.0 { 0.0 } else { u * loops * per_loop })
            .collect();
        check_row(&cum, start_loops * cum.duration_s(), &sizes)?;
    }

    /// The oracle's shape: ascending ladder-like rows from many starts
    /// over one trace, so each inversion gallops forward from the last.
    #[test]
    fn ascending_rows_match_single_downloads_bit_for_bit(
        raw in prop::collection::vec(0.0f64..3000.0, 2..64),
        base in 1e3f64..2e6,
        ratios in prop::collection::vec(1.0f64..2.5, 1..9),
        starts in prop::collection::vec(0.0f64..200.0, 1..6),
    ) {
        let Ok(trace) = ThroughputTrace::new("ladder", 1.0, raw) else {
            return Err(TestCaseError::Reject("all-zero trace".into()));
        };
        let cum = CumulativeTrace::new(&trace);
        let mut size = base;
        let sizes: Vec<f64> = ratios
            .iter()
            .map(|&r| {
                size *= r;
                size
            })
            .collect();
        for &start_s in &starts {
            check_row(&cum, start_s, &sizes)?;
        }
    }
}

#[test]
fn a_row_with_zero_sizes_and_repeats_matches() {
    let trace = ThroughputTrace::new("o", 0.5, vec![0.0, 1000.0, 0.0, 0.0, 500.0]).unwrap();
    let cum = CumulativeTrace::new(&trace);
    let per_loop = cum.bits_per_loop();
    let sizes = [
        3e5,
        0.0,
        3e5,
        1e5,
        per_loop * 2.5,
        1e5,
        per_loop,
        0.0,
        per_loop * 7.0 + 1.0,
    ];
    for start_s in [0.0, 0.25, 1.0, 2.4, 2.5, 9.9, 40.0] {
        let mut row = [0.0; 9];
        cum.download_times(start_s, &sizes, &mut row);
        for (&bits, &got) in sizes.iter().zip(&row) {
            assert_eq!(
                got.to_bits(),
                cum.download_time(start_s, bits).to_bits(),
                "{bits} bits from {start_s}"
            );
        }
    }
}

#[test]
#[should_panic(expected = "one output slot per size")]
fn a_row_needs_one_slot_per_size() {
    let trace = ThroughputTrace::constant("c", 1000.0, 10.0).unwrap();
    CumulativeTrace::new(&trace).download_times(0.0, &[1.0, 2.0], &mut [0.0]);
}
