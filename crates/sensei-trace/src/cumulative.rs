//! Cumulative-capacity index over a trace for fast repeated integration.
//!
//! MPC-style ABR controllers evaluate thousands of candidate bitrate plans
//! per decision, each needing "how long does `bits` take starting at `t`?".
//! [`CumulativeTrace`] answers that in `O(log n)` against the same
//! piecewise-constant semantics as [`ThroughputTrace::download_time`], and
//! [`CumulativeTrace::download_times`] answers a whole row of sizes from
//! one start time at once.

use crate::ThroughputTrace;

/// Precomputed cumulative capacity of a trace.
#[derive(Debug, Clone)]
pub struct CumulativeTrace {
    /// `cum[i]` = bits transferable over `[0, i·Δ)`; length `n + 1`.
    cum_bits: Vec<f64>,
    kbps: Vec<f64>,
    interval_s: f64,
}

impl CumulativeTrace {
    /// Builds the index from a trace.
    pub fn new(trace: &ThroughputTrace) -> Self {
        let mut index = Self {
            cum_bits: Vec::with_capacity(trace.samples().len() + 1),
            kbps: Vec::with_capacity(trace.samples().len()),
            interval_s: trace.interval_s(),
        };
        index.rebind(trace);
        index
    }

    /// Rebuilds the index over a different trace, reusing the existing
    /// buffers — the rebind path long-lived MPC controllers use when one
    /// policy instance serves thousands of sessions on changing networks.
    pub fn rebind(&mut self, trace: &ThroughputTrace) {
        self.interval_s = trace.interval_s();
        self.kbps.clear();
        self.kbps.extend_from_slice(trace.samples());
        self.cum_bits.clear();
        self.cum_bits.push(0.0);
        let mut acc = 0.0;
        for &kbps in trace.samples() {
            acc += kbps * 1000.0 * self.interval_s;
            self.cum_bits.push(acc);
        }
    }

    /// Duration of one pass over the trace.
    pub fn duration_s(&self) -> f64 {
        self.kbps.len() as f64 * self.interval_s
    }

    /// Bits transferable per full pass over the trace.
    pub fn bits_per_loop(&self) -> f64 {
        *self.cum_bits.last().expect("cum has n+1 entries")
    }

    /// Bits transferable over `[0, t)` within a single loop (`t` clamped to
    /// the loop duration).
    fn bits_before(&self, t: f64) -> f64 {
        let t = t.clamp(0.0, self.duration_s());
        let idx = ((t / self.interval_s) as usize).min(self.kbps.len() - 1);
        let within = t - idx as f64 * self.interval_s;
        self.cum_bits[idx] + self.kbps[idx] * 1000.0 * within
    }

    /// Time (seconds) to transfer `bits` starting at absolute time
    /// `start_s`, wrapping at the trace end. Matches
    /// [`ThroughputTrace::download_time`] to floating-point accuracy.
    pub fn download_time(&self, start_s: f64, bits: f64) -> f64 {
        let mut out = [0.0];
        self.download_times(start_s, &[bits], &mut out);
        out[0]
    }

    /// Fills `out[i]` with [`Self::download_time`]`(start_s, sizes[i])`,
    /// bit for bit, for every size.
    ///
    /// The work the sizes share is done once: the start's normalization
    /// into one loop, the bits before it, and the capacity left to the
    /// loop end. Each inversion gallops forward from the bucket the
    /// previous size of its kind (within the first loop, or in a wrapped
    /// tail) ended in, and restarts from its first bucket (the start's,
    /// or bucket 0 for a tail) when its target falls. Every search order lands on the same bucket: `cum_bits` is
    /// non-decreasing, so "bucket `i` reaches the target" is monotone in
    /// `i` and its first true index is unique. Ascending ladder sizes
    /// make the gallops short.
    ///
    /// # Panics
    ///
    /// Panics when `out` and `sizes` differ in length, or any size is
    /// negative or not finite.
    pub fn download_times(&self, start_s: f64, sizes: &[f64], out: &mut [f64]) {
        assert_eq!(sizes.len(), out.len(), "one output slot per size");
        let duration = self.duration_s();
        let per_loop = self.bits_per_loop();
        let start = start_s.max(0.0) % duration;
        let before = self.bits_before(start);
        let head = per_loop - before;
        let start_bucket = (start / self.interval_s) as usize;
        let mut head_cursor = Cursor::at(start_bucket);
        let mut tail_cursor = Cursor::at(0);
        for (&bits, slot) in sizes.iter().zip(out.iter_mut()) {
            assert!(
                bits.is_finite() && bits >= 0.0,
                "bits must be finite and non-negative, got {bits}"
            );
            *slot = if bits == 0.0 {
                0.0
            } else if bits <= head {
                let target = before + bits;
                let idx = head_cursor.search(self, target);
                self.finish(idx, target, start)
            } else {
                let after_head = bits - head;
                let full_loops = (after_head / per_loop).floor();
                let tail_bits = after_head - full_loops * per_loop;
                // The tail starts at time 0, where `bits_before` is
                // exactly 0.0 for finite non-negative samples, so the
                // tail's target is `tail_bits` itself.
                let tail = if tail_bits <= 0.0 {
                    0.0
                } else {
                    let idx = tail_cursor.search(self, tail_bits);
                    self.finish(idx, tail_bits, 0.0)
                };
                (duration - start) + full_loops * duration + tail
            };
        }
    }

    /// The time from `start` (within one loop) at which the cumulative
    /// capacity reaches `target`, given the bucket `idx` the target falls
    /// in (`n` when no bucket reaches it).
    fn finish(&self, idx: usize, target: f64, start: f64) -> f64 {
        let idx = idx.min(self.kbps.len() - 1);
        let rate = self.kbps[idx] * 1000.0;
        let within = if rate > 0.0 {
            (target - self.cum_bits[idx]) / rate
        } else {
            self.interval_s
        };
        idx as f64 * self.interval_s + within - start
    }
}

/// One kind of inversion's search state within one start time: the
/// search's lower bucket, and the last target with the bucket it ended in.
struct Cursor {
    floor: usize,
    target: f64,
    idx: usize,
}

impl Cursor {
    fn at(floor: usize) -> Self {
        Self {
            floor,
            target: f64::NEG_INFINITY,
            idx: floor,
        }
    }

    /// The first bucket `i` in `[floor, n)` whose cumulative end reaches
    /// `target` (`cum_bits[i + 1] >= target - 1e-9`), or `n` when none
    /// does. A target at or above the last one starts from the bucket
    /// the last search ended in, since no earlier bucket can reach it;
    /// a lower target (or a NaN) restarts from `floor`.
    fn search(&mut self, index: &CumulativeTrace, target: f64) -> usize {
        let n = index.kbps.len();
        let reaches = |i: usize| index.cum_bits[i + 1] >= target - 1e-9;
        let mut lo = if target >= self.target {
            self.idx
        } else {
            self.floor
        };
        // Gallop: probe `lo`, `lo + 1`, `lo + 3`, ... until a bucket
        // reaches the target, keeping every bucket below `lo` short of it.
        let mut step = 1;
        let mut hi = n;
        while lo < n {
            let probe = (lo + step - 1).min(n - 1);
            if reaches(probe) {
                hi = probe;
                break;
            }
            lo = probe + 1;
            step *= 2;
        }
        // Bisect `[lo, hi)`: `hi` is a reaching bucket or `n`.
        while lo < hi {
            let mid = (lo + hi) / 2;
            if reaches(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        self.target = target;
        self.idx = lo;
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn matches_naive_download_time_on_synthetic_traces() {
        for seed in 0..4 {
            let trace = generate::hsdpa_like(1200.0, 120, seed);
            let cum = CumulativeTrace::new(&trace);
            for start in [0.0, 0.3, 7.9, 55.5, 119.0, 200.0] {
                for bits in [1e3, 1e5, 4e6, 5e7, 4e8] {
                    let naive = trace.download_time(start, bits);
                    let fast = cum.download_time(start, bits);
                    assert!(
                        (naive - fast).abs() < 1e-6 * naive.max(1.0),
                        "seed {seed} start {start} bits {bits}: naive {naive} vs fast {fast}"
                    );
                }
            }
        }
    }

    #[test]
    fn handles_outage_buckets() {
        let trace = crate::ThroughputTrace::new("o", 1.0, vec![0.0, 1000.0, 0.0, 500.0]).unwrap();
        let cum = CumulativeTrace::new(&trace);
        for start in [0.0, 0.5, 1.5, 2.0, 3.9] {
            for bits in [1e3, 1e6, 3e6] {
                let naive = trace.download_time(start, bits);
                let fast = cum.download_time(start, bits);
                assert!(
                    (naive - fast).abs() < 1e-6 * naive.max(1.0),
                    "start {start} bits {bits}: naive {naive} vs fast {fast}"
                );
            }
        }
    }

    #[test]
    fn zero_bits_is_free() {
        let trace = crate::ThroughputTrace::constant("c", 1000.0, 10.0).unwrap();
        let cum = CumulativeTrace::new(&trace);
        assert_eq!(cum.download_time(3.0, 0.0), 0.0);
    }

    #[test]
    fn multi_loop_wrap() {
        let trace = crate::ThroughputTrace::constant("c", 1000.0, 10.0).unwrap();
        let cum = CumulativeTrace::new(&trace);
        // 100 Mb at 1 Mbps = 100 s = 10 loops.
        let dt = cum.download_time(4.0, 100_000_000.0);
        assert!((dt - 100.0).abs() < 1e-6, "dt = {dt}");
    }
}
