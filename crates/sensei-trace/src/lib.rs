//! Network throughput-trace substrate for the SENSEI reproduction.
//!
//! The SENSEI paper evaluates adaptive-bitrate (ABR) streaming over
//! throughput traces drawn from two public datasets: FCC fixed-broadband
//! measurements and 3G/HSDPA commute traces (Riiser et al.). Neither dataset
//! ships with this repository, so this crate provides seeded synthetic
//! generators calibrated to the same envelope the paper uses (mean throughput
//! between 0.2 and 6 Mbps), plus the trace algebra every experiment needs:
//!
//! * [`ThroughputTrace`] — a fixed-interval throughput series with
//!   piecewise-constant integration ([`ThroughputTrace::download_time`]),
//!   looping semantics, and summary statistics.
//! * [`generate`] — FCC-like and HSDPA/3G-like trace generators and the
//!   10-trace evaluation set used across the end-to-end experiments.
//! * Trace operators — bandwidth scaling ([`ThroughputTrace::scaled`]),
//!   zero-mean Gaussian perturbation for the Fig. 17 variance sweep
//!   ([`ThroughputTrace::with_gaussian_noise`]), and windowing.
//! * [`Network`] — what a session downloads over: a whole trace, or a
//!   [`PerturbedStream`] that draws a perturbation's samples only as far
//!   as its sessions read them and completes to exactly the trace
//!   [`ThroughputTrace::perturbed_into`] returns.
//!
//! All randomness is seeded; identical seeds give identical traces.

// Time→sample-index conversion (floor of t/Δt against clamped
// cursors) is the trace substrate; sample counts stay far below
// 2^52, so f64 round-trips are exact.
#![allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]

pub mod cumulative;
pub mod generate;

pub use cumulative::CumulativeTrace;

use rand::SeedableRng;
use std::fmt;
use std::sync::Arc;

/// Errors produced when constructing or manipulating traces.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// The trace has no samples.
    Empty,
    /// The sampling interval is not a positive finite number of seconds.
    NonPositiveInterval(f64),
    /// A throughput sample is negative, NaN, or infinite.
    InvalidSample {
        /// Index of the offending sample.
        index: usize,
        /// The offending value in kbps.
        value: f64,
    },
    /// Every sample is zero, so no data could ever be transferred.
    ZeroMean,
    /// A requested window lies outside the trace.
    WindowOutOfRange {
        /// Requested start sample.
        start: usize,
        /// Requested length in samples.
        len: usize,
        /// Number of samples actually available.
        available: usize,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Empty => write!(f, "trace has no samples"),
            TraceError::NonPositiveInterval(v) => {
                write!(f, "sample interval must be positive and finite, got {v}")
            }
            TraceError::InvalidSample { index, value } => {
                write!(f, "sample {index} is invalid: {value} kbps")
            }
            TraceError::ZeroMean => write!(f, "trace mean throughput is zero"),
            TraceError::WindowOutOfRange {
                start,
                len,
                available,
            } => write!(
                f,
                "window [{start}, {start}+{len}) out of range for {available} samples"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

/// A throughput trace sampled at a fixed interval.
///
/// Semantically the trace is an infinitely repeating step function: sample
/// `i` holds on `[i·Δ, (i+1)·Δ)` and the series wraps around after the last
/// sample, matching how the ABR literature replays finite traces under
/// arbitrarily long videos.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputTrace {
    /// Interned so fleet-scale result records can share the name by
    /// reference-count bump instead of allocating a `String` per session.
    name: Arc<str>,
    interval_s: f64,
    kbps: Vec<f64>,
    /// The largest sample, found by the validation pass in [`Self::new`]:
    /// it bounds every perturbation of the trace up front (see
    /// [`Self::perturbed_stream`]).
    peak_kbps: f64,
}

/// Checks that every sample is finite and non-negative and that some
/// sample is positive, in that order — the sample half of
/// [`ThroughputTrace::new`]'s contract. Returns the largest sample.
fn check_samples(kbps: &[f64]) -> Result<f64, TraceError> {
    let mut peak = 0.0_f64;
    for (index, &value) in kbps.iter().enumerate() {
        if !value.is_finite() || value < 0.0 {
            return Err(TraceError::InvalidSample { index, value });
        }
        if value > peak {
            peak = value;
        }
    }
    if peak == 0.0 {
        return Err(TraceError::ZeroMean);
    }
    Ok(peak)
}

/// An upper bound on `|z|` for every Box–Muller variate
/// [`gaussian_pair`] can return: `u1 >= f64::MIN_POSITIVE`, so the radius
/// `sqrt(-2 ln u1)` stays below `sqrt(2 · 708.4) ≈ 37.64`.
const GAUSSIAN_BOUND: f64 = 38.0;

/// The piecewise-constant integration walk behind every [`Network`]:
/// the time to transfer `bits` from `start_s` over a `len`-sample trace
/// of `interval_s` buckets whose sample `i` is `kbps(i)`, wrapping at the
/// end. [`ThroughputTrace::download_time`] and [`PerturbedStream`] both
/// run this one loop, so a stream's answers are the full trace's bits.
#[inline]
fn integrate(
    interval_s: f64,
    len: usize,
    start_s: f64,
    bits: f64,
    mut kbps: impl FnMut(usize) -> f64,
) -> f64 {
    assert!(
        bits.is_finite() && bits >= 0.0,
        "download size must be a finite non-negative bit count, got {bits}"
    );
    if bits == 0.0 {
        return 0.0;
    }
    let duration = len as f64 * interval_s;
    let mut remaining = bits;
    // `%` is exact but a soft-float call; a start inside the first lap
    // is its own remainder.
    let mut t = start_s.max(0.0);
    if t >= duration {
        t %= duration;
    }
    let mut elapsed = 0.0;
    // Only the first bucket is found by division; the walk then steps
    // bucket by bucket. Re-deriving the index from `t` would land back
    // in the same bucket whenever `(k · Δ) / Δ` rounds below `k` (e.g.
    // `3 · 0.7`), and loop forever on a zero-width window.
    let mut idx = ((t / interval_s) as usize).min(len - 1);
    loop {
        let bucket_end = (idx as f64 + 1.0) * interval_s;
        let window = bucket_end - t;
        let rate_bps = kbps(idx) * 1000.0;
        let capacity = rate_bps * window;
        if capacity >= remaining && rate_bps > 0.0 {
            return elapsed + remaining / rate_bps;
        }
        remaining -= capacity;
        elapsed += window;
        t = bucket_end;
        idx += 1;
        if t >= duration {
            t = 0.0;
            idx = 0;
        }
    }
}

impl ThroughputTrace {
    /// Builds a trace from raw samples. The sample buffer is taken by value
    /// and reused as-is, so callers recycling buffers (see
    /// [`Self::into_samples`]) pay no copy.
    ///
    /// # Errors
    ///
    /// Returns an error if the sample list is empty, the interval is not a
    /// positive finite number, any sample is negative or non-finite, or all
    /// samples are zero (such a trace could never transfer data).
    pub fn new(
        name: impl Into<Arc<str>>,
        interval_s: f64,
        kbps: Vec<f64>,
    ) -> Result<Self, TraceError> {
        if kbps.is_empty() {
            return Err(TraceError::Empty);
        }
        if !(interval_s.is_finite() && interval_s > 0.0) {
            return Err(TraceError::NonPositiveInterval(interval_s));
        }
        let peak_kbps = check_samples(&kbps)?;
        Ok(Self {
            name: name.into(),
            interval_s,
            kbps,
            peak_kbps,
        })
    }

    /// Builds a constant-rate trace, handy for tests and examples.
    ///
    /// # Errors
    ///
    /// Returns an error when `kbps` is not a positive finite value.
    pub fn constant(
        name: impl Into<Arc<str>>,
        kbps: f64,
        duration_s: f64,
    ) -> Result<Self, TraceError> {
        let samples = (duration_s.max(1.0)).ceil() as usize;
        Self::new(name, 1.0, vec![kbps; samples])
    }

    /// The trace's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A shared handle to the interned name — cloning the handle bumps a
    /// reference count instead of copying the string, which is what lets
    /// per-session result records carry trace names allocation-free.
    pub fn name_handle(&self) -> Arc<str> {
        Arc::clone(&self.name)
    }

    /// Consumes the trace and returns its sample buffer so hot paths can
    /// recycle the allocation (pair with [`Self::new`], which takes the
    /// buffer by value).
    pub fn into_samples(self) -> Vec<f64> {
        self.kbps
    }

    /// Sampling interval in seconds.
    pub fn interval_s(&self) -> f64 {
        self.interval_s
    }

    /// The raw samples in kbps.
    pub fn samples(&self) -> &[f64] {
        &self.kbps
    }

    /// Duration of one pass over the trace, in seconds.
    pub fn duration_s(&self) -> f64 {
        self.kbps.len() as f64 * self.interval_s
    }

    /// Mean throughput in kbps.
    pub fn mean_kbps(&self) -> f64 {
        self.kbps.iter().sum::<f64>() / self.kbps.len() as f64
    }

    /// Population standard deviation of throughput in kbps.
    pub fn std_kbps(&self) -> f64 {
        let mean = self.mean_kbps();
        let var = self
            .kbps
            .iter()
            .map(|&v| (v - mean) * (v - mean))
            .sum::<f64>()
            / self.kbps.len() as f64;
        var.sqrt()
    }

    /// Minimum sample in kbps.
    pub fn min_kbps(&self) -> f64 {
        self.kbps.iter().cloned().fold(f64::INFINITY, f64::min)
    }

    /// Maximum sample in kbps.
    pub fn max_kbps(&self) -> f64 {
        self.peak_kbps
    }

    /// Instantaneous throughput at absolute time `t` (seconds), with the
    /// trace repeating after [`Self::duration_s`]. Negative times are clamped
    /// to zero.
    pub fn throughput_at(&self, t_s: f64) -> f64 {
        let t = t_s.max(0.0) % self.duration_s();
        let idx = (t / self.interval_s) as usize;
        // Floating-point division can land exactly on len at the wrap point.
        self.kbps[idx.min(self.kbps.len() - 1)]
    }

    /// Time (in seconds) needed to download `bits` starting at absolute time
    /// `start_s`, integrating the piecewise-constant throughput and wrapping
    /// around the trace end.
    ///
    /// Zero-throughput intervals (outages) simply consume wall-clock time.
    /// Because construction rejects all-zero traces, each full pass transfers
    /// a positive number of bits, so this always terminates.
    pub fn download_time(&self, start_s: f64, bits: f64) -> f64 {
        integrate(self.interval_s, self.kbps.len(), start_s, bits, |i| {
            self.kbps[i]
        })
    }

    /// Mean throughput (kbps) observed over `[start_s, start_s + len_s)`,
    /// wrapping around the trace end.
    pub fn mean_over(&self, start_s: f64, len_s: f64) -> f64 {
        assert!(len_s > 0.0, "window length must be positive, got {len_s}");
        let mut total = 0.0;
        let mut covered = 0.0;
        let mut t = start_s.max(0.0);
        while covered + 1e-12 < len_s {
            let within = t % self.interval_s;
            let window = (self.interval_s - within).min(len_s - covered);
            total += self.throughput_at(t) * window;
            covered += window;
            t += window;
        }
        total / covered
    }

    /// Returns a copy with every sample multiplied by `factor`.
    ///
    /// The name goes through [`Self::perturbed_name`], so the identity
    /// scale (`factor == 1.0`) keeps the base name — byte-identical to
    /// what `perturbed_name`/`TraceCache` would intern for the same
    /// perturbation.
    ///
    /// # Errors
    ///
    /// Returns an error when `factor` is not a positive finite value.
    pub fn scaled(&self, factor: f64) -> Result<Self, TraceError> {
        self.perturbed_into(factor, 0.0, 0, self.perturbed_name(factor, 0.0), Vec::new())
    }

    /// Returns a copy perturbed by zero-mean Gaussian noise with standard
    /// deviation `std_kbps`, clamped at zero (throughput cannot be negative).
    ///
    /// This is the Fig. 17 operator: the paper increases a trace's throughput
    /// variance "by adding a Gaussian noise with zero mean".
    ///
    /// The name goes through [`Self::perturbed_name`], so zero-std noise
    /// keeps the base name — byte-identical to what
    /// `perturbed_name`/`TraceCache` would intern for the same
    /// perturbation.
    ///
    /// # Errors
    ///
    /// Returns an error when the resulting trace would be all-zero (only
    /// possible for extreme negative noise on tiny traces).
    pub fn with_gaussian_noise(&self, std_kbps: f64, seed: u64) -> Result<Self, TraceError> {
        self.perturbed_into(
            1.0,
            std_kbps,
            seed,
            self.perturbed_name(1.0, std_kbps),
            Vec::new(),
        )
    }

    /// The name of the scale-then-jitter perturbation of this trace —
    /// `{name}@x{scale:.2}` when scaled, `+n{std:.0}` appended when
    /// jittered, identity components skipped. This is the **single**
    /// naming path: [`Self::scaled`] and [`Self::with_gaussian_noise`]
    /// route through it, so the one-shot operators, `perturbed_into`
    /// callers, and the fleet's interned `TraceCache` names can never
    /// drift — an identity perturbation always keeps the base name
    /// byte-identical. Seed-independent, so caches can intern it once
    /// per (trace, perturbation) pair.
    pub fn perturbed_name(&self, scale: f64, jitter_std_kbps: f64) -> String {
        let mut name = self.name.to_string();
        if scale != 1.0 {
            name = format!("{name}@x{scale:.2}");
        }
        if jitter_std_kbps > 0.0 {
            name = format!("{name}+n{jitter_std_kbps:.0}");
        }
        name
    }

    /// Builds the scale-then-jitter perturbation of this trace, writing
    /// samples into the recycled `buf` (cleared first) and attaching the
    /// pre-interned `name` — the single sample path behind both one-shot
    /// perturbation (fleet's `TracePerturbation::apply`) and the
    /// per-worker trace caches, so the two can never drift. Equivalent to
    /// `scaled(scale)? .with_gaussian_noise(std, seed)?` with the identity
    /// steps skipped (multiplying by a scale of exactly 1.0 is bit-exact
    /// for the non-negative finite samples traces admit).
    ///
    /// This is a [`Self::perturbed_stream`] completed on the spot, so a
    /// stream and this trace can never disagree.
    ///
    /// # Errors
    ///
    /// The same errors as the chained operators: an invalid scale, or a
    /// perturbed trace that would be all-zero.
    pub fn perturbed_into(
        &self,
        scale: f64,
        jitter_std_kbps: f64,
        seed: u64,
        name: impl Into<Arc<str>>,
        mut buf: Vec<f64>,
    ) -> Result<Self, TraceError> {
        self.perturbed_stream(scale, jitter_std_kbps, seed, &mut buf)?
            .complete(name)
    }

    /// Starts the scale-then-jitter perturbation of this trace as an
    /// on-demand [`PerturbedStream`] over the recycled `buf` (cleared
    /// first). The stream draws samples only when a download reaches
    /// them, in exactly [`Self::perturbed_into`]'s order, so every answer
    /// and its [`PerturbedStream::complete`] equal that trace's bits.
    ///
    /// Set-up decides every error up front, with the variants
    /// `perturbed_into` returns: the scale is checked, then the stream
    /// draws until its first positive sample (`ZeroMean` when there is
    /// none). Should the trace's peak, scaled and widened by the largest
    /// possible jitter, not be finite, set-up draws the whole trace and
    /// checks every sample, so an overflowing sample is reported where a
    /// full build would report it.
    ///
    /// # Errors
    ///
    /// An invalid scale, a non-finite perturbed sample, or a perturbed
    /// trace that would be all-zero.
    pub fn perturbed_stream<'a>(
        &'a self,
        scale: f64,
        jitter_std_kbps: f64,
        seed: u64,
        buf: &'a mut Vec<f64>,
    ) -> Result<PerturbedStream<'a>, TraceError> {
        if !(scale.is_finite() && scale > 0.0) {
            return Err(TraceError::InvalidSample {
                index: 0,
                value: scale,
            });
        }
        buf.clear();
        let jittered = jitter_std_kbps > 0.0;
        if jittered {
            // Jittered samples are drawn into `buf` up to the whole trace
            // at most; sizing it once keeps a recycled buffer at one
            // trace's length instead of a doubling growth past it.
            buf.reserve_exact(self.kbps.len());
        }
        let mut stream = PerturbedStream {
            base: &self.kbps,
            interval_s: self.interval_s,
            scale,
            jitter_std_kbps,
            jittered,
            rng: rand::rngs::StdRng::seed_from_u64(seed),
            samples: buf,
        };
        let jitter_bound = if jittered {
            GAUSSIAN_BOUND * jitter_std_kbps
        } else {
            0.0
        };
        if !(self.peak_kbps * scale + jitter_bound).is_finite() {
            stream.draw_to(stream.base.len());
            check_samples(stream.samples)?;
            return Ok(stream);
        }
        // Every sample is finite, so only the all-zero check is left,
        // and the first positive sample settles it.
        for i in 0..stream.base.len() {
            if stream.sample(i) > 0.0 {
                return Ok(stream);
            }
        }
        Err(TraceError::ZeroMean)
    }

    /// Extracts a contiguous window of samples as a new trace.
    ///
    /// # Errors
    ///
    /// Returns an error when the window exceeds the trace bounds or the
    /// extracted window is all-zero.
    pub fn window(&self, start: usize, len: usize) -> Result<Self, TraceError> {
        let available = self.kbps.len();
        // `len > available - start`, not `start + len > available`: the
        // sum can overflow.
        if len == 0 || start > available || len > available - start {
            return Err(TraceError::WindowOutOfRange {
                start,
                len,
                available,
            });
        }
        let end = start + len;
        Self::new(
            format!("{}[{start}..{end}]", self.name),
            self.interval_s,
            self.kbps[start..end].to_vec(),
        )
    }
}

/// Draws one standard-normal variate via Box–Muller. `rand` 0.8 ships no
/// normal distribution without `rand_distr`, and two uniforms per draw are
/// plenty here.
pub fn gaussian<R: rand::Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Both Box–Muller variates of one `(u1, u2)` pair, cosine variate first,
/// halving the transcendental cost per draw against repeated [`gaussian`]
/// calls (which discard the sine variate). Jitter passes consume the
/// pairs directly, and the pair order defines the noise stream: the
/// cosine variate jitters one sample, the sine variate the next.
pub fn gaussian_pair<R: rand::Rng>(rng: &mut R) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

/// What a session downloads over: the time to transfer `bits` from
/// absolute time `start_s`, over the piecewise-constant, wrapping
/// semantics of [`ThroughputTrace::download_time`].
///
/// A `&ThroughputTrace` is a network, and so is a [`PerturbedStream`]
/// (by `&mut`), which draws its samples only when a download reaches
/// them. Every network of one perturbation answers with the same bits.
pub trait Network {
    /// Seconds to transfer `bits` starting at `start_s`.
    fn download_time(&mut self, start_s: f64, bits: f64) -> f64;

    /// The whole trace, when the network holds one; `None` for a stream
    /// that has not drawn it.
    fn full_trace(&self) -> Option<&ThroughputTrace> {
        None
    }
}

impl Network for &ThroughputTrace {
    fn download_time(&mut self, start_s: f64, bits: f64) -> f64 {
        ThroughputTrace::download_time(self, start_s, bits)
    }

    fn full_trace(&self) -> Option<&ThroughputTrace> {
        Some(self)
    }
}

impl<N: Network + ?Sized> Network for &mut N {
    fn download_time(&mut self, start_s: f64, bits: f64) -> f64 {
        (**self).download_time(start_s, bits)
    }

    fn full_trace(&self) -> Option<&ThroughputTrace> {
        (**self).full_trace()
    }
}

/// A scale-then-jitter perturbation of a trace, drawn on demand (see
/// [`ThroughputTrace::perturbed_stream`]).
///
/// The drawn samples are a prefix of the perturbed trace, grown in whole
/// Box–Muller pairs (cosine variate on the even sample, sine on the odd
/// one) by the one pair loop [`ThroughputTrace::perturbed_into`] also
/// runs. A download that reaches an undrawn sample draws up to it first,
/// so sessions that read only the start of a long trace never pay for
/// the rest.
///
/// Without jitter the stream is a zero-copy view: sample `i` is
/// `base[i] * scale`, the product a full build stores, computed where it
/// is read. Nothing is buffered, so [`Self::drawn`] stays 0 until
/// [`Self::complete`] builds the whole trace.
#[derive(Debug)]
pub struct PerturbedStream<'a> {
    base: &'a [f64],
    interval_s: f64,
    scale: f64,
    jitter_std_kbps: f64,
    /// `jitter_std_kbps > 0.0`: whether samples are drawn and buffered.
    jittered: bool,
    rng: rand::rngs::StdRng,
    samples: &'a mut Vec<f64>,
}

impl PerturbedStream<'_> {
    /// Samples drawn so far (0 without jitter).
    #[must_use]
    pub fn drawn(&self) -> usize {
        self.samples.len()
    }

    /// Perturbed sample `i`, drawing up to it if needed.
    #[inline]
    fn sample(&mut self, i: usize) -> f64 {
        if !self.jittered {
            return self.base[i] * self.scale;
        }
        if i >= self.samples.len() {
            self.draw_to(i + 1);
        }
        self.samples[i]
    }

    /// Draws whole pairs until at least `needed` samples (capped at the
    /// trace length) exist. The drawn prefix always ends on a pair
    /// boundary or at the trace end, so pairs stay aligned to even
    /// samples exactly as in one full sweep.
    fn draw_to(&mut self, needed: usize) {
        let start = self.samples.len();
        let end = (needed + needed % 2).min(self.base.len());
        if end <= start {
            return;
        }
        let scale = self.scale;
        self.samples
            .extend(self.base[start..end].iter().map(|&v| v * scale));
        let std = self.jitter_std_kbps;
        if self.jittered {
            let mut pairs = self.samples[start..].chunks_exact_mut(2);
            for pair in &mut pairs {
                let (zc, zs) = gaussian_pair(&mut self.rng);
                pair[0] = (pair[0] + zc * std).max(0.0);
                pair[1] = (pair[1] + zs * std).max(0.0);
            }
            // Odd tail: draw a pair, apply the cosine variate, drop the
            // sine — exactly what a per-sample stream's final call does
            // (its cached spare would never be consumed).
            for v in pairs.into_remainder() {
                let (zc, _) = gaussian_pair(&mut self.rng);
                *v = (*v + zc * std).max(0.0);
            }
        }
    }

    /// Draws the rest of the trace and hands it over as the
    /// [`ThroughputTrace`] named `name` — equal to what
    /// [`ThroughputTrace::perturbed_into`] builds for the same inputs.
    /// The sample buffer moves into the trace; the stream's recycled
    /// buffer is left empty.
    ///
    /// # Errors
    ///
    /// None in practice: set-up already rejected every input the trace
    /// constructor would.
    pub fn complete(mut self, name: impl Into<Arc<str>>) -> Result<ThroughputTrace, TraceError> {
        self.draw_to(self.base.len());
        ThroughputTrace::new(name, self.interval_s, std::mem::take(self.samples))
    }
}

impl Network for PerturbedStream<'_> {
    fn download_time(&mut self, start_s: f64, bits: f64) -> f64 {
        integrate(self.interval_s, self.base.len(), start_s, bits, |i| {
            self.sample(i)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(samples: &[f64]) -> ThroughputTrace {
        ThroughputTrace::new("t", 1.0, samples.to_vec()).unwrap()
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(
            ThroughputTrace::new("t", 1.0, vec![]).unwrap_err(),
            TraceError::Empty
        );
    }

    #[test]
    fn rejects_bad_interval() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                ThroughputTrace::new("t", bad, vec![1.0]).unwrap_err(),
                TraceError::NonPositiveInterval(_)
            ));
        }
    }

    #[test]
    fn rejects_bad_samples() {
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                ThroughputTrace::new("t", 1.0, vec![1.0, bad]).unwrap_err(),
                TraceError::InvalidSample { index: 1, .. }
            ));
        }
    }

    #[test]
    fn rejects_all_zero() {
        assert_eq!(
            ThroughputTrace::new("t", 1.0, vec![0.0, 0.0]).unwrap_err(),
            TraceError::ZeroMean
        );
    }

    #[test]
    fn stats_match_hand_computation() {
        let t = trace(&[1000.0, 3000.0]);
        assert_eq!(t.mean_kbps(), 2000.0);
        assert_eq!(t.std_kbps(), 1000.0);
        assert_eq!(t.min_kbps(), 1000.0);
        assert_eq!(t.max_kbps(), 3000.0);
        assert_eq!(t.duration_s(), 2.0);
    }

    #[test]
    fn throughput_at_wraps() {
        let t = trace(&[1000.0, 3000.0]);
        assert_eq!(t.throughput_at(0.5), 1000.0);
        assert_eq!(t.throughput_at(1.5), 3000.0);
        assert_eq!(t.throughput_at(2.5), 1000.0);
        assert_eq!(t.throughput_at(-1.0), 1000.0);
    }

    #[test]
    fn download_time_constant_rate() {
        let t = trace(&[1000.0; 10]); // 1 Mbps
                                      // 4 Mb at 1 Mbps takes 4 s.
        assert!((t.download_time(0.0, 4_000_000.0) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn download_time_spans_buckets_and_wraps() {
        let t = trace(&[1000.0, 2000.0]);
        // Start at 0.5 s: 0.5 s at 1 Mbps (0.5 Mb), 1 s at 2 Mbps (2 Mb),
        // then wrap: 1 s at 1 Mbps (1 Mb) -> total 3.5 Mb in 2.5 s, remaining
        // 0.5 Mb at 2 Mbps takes 0.25 s.
        let dt = t.download_time(0.5, 4_000_000.0);
        assert!((dt - 2.75).abs() < 1e-9, "dt = {dt}");
    }

    #[test]
    fn download_time_skips_outages() {
        let t = trace(&[0.0, 1000.0]);
        // 1 Mb starting in the outage second: 1 s waiting + 1 s transfer.
        let dt = t.download_time(0.0, 1_000_000.0);
        assert!((dt - 2.0).abs() < 1e-9, "dt = {dt}");
    }

    #[test]
    fn download_time_steps_over_buckets_whose_end_rounds_low() {
        // Regression: `3 · 0.7 / 0.7` rounds to 2.9999999999999996, so
        // re-deriving the bucket from the clock at t = 2.1 s found bucket
        // 2 again, a zero-width window, and never returned.
        let t = ThroughputTrace::new("t", 0.7, vec![1000.0; 5]).unwrap();
        let dt = t.download_time(0.0, 3_000_000.0);
        assert!((dt - 3.0).abs() < 1e-9, "dt = {dt}");
    }

    #[test]
    fn download_time_zero_bits_is_free() {
        let t = trace(&[500.0]);
        assert_eq!(t.download_time(3.0, 0.0), 0.0);
    }

    #[test]
    fn mean_over_window() {
        let t = trace(&[1000.0, 3000.0]);
        assert!((t.mean_over(0.0, 2.0) - 2000.0).abs() < 1e-9);
        assert!((t.mean_over(1.0, 1.0) - 3000.0).abs() < 1e-9);
        // Wrapping window.
        assert!((t.mean_over(1.0, 2.0) - 2000.0).abs() < 1e-9);
        // Fractional start.
        assert!((t.mean_over(0.5, 1.0) - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn scaling_is_linear() {
        let t = trace(&[1000.0, 3000.0]);
        let s = t.scaled(0.5).unwrap();
        assert_eq!(s.samples(), &[500.0, 1500.0]);
        assert!(t.scaled(0.0).is_err());
        assert!(t.scaled(f64::NAN).is_err());
    }

    #[test]
    fn gaussian_noise_changes_variance_not_mean_much() {
        let t = ThroughputTrace::constant("c", 2000.0, 600.0).unwrap();
        let n = t.with_gaussian_noise(500.0, 7).unwrap();
        assert!(n.std_kbps() > 400.0, "std = {}", n.std_kbps());
        assert!(
            (n.mean_kbps() - 2000.0).abs() < 100.0,
            "mean = {}",
            n.mean_kbps()
        );
        // Determinism.
        let n2 = t.with_gaussian_noise(500.0, 7).unwrap();
        assert_eq!(n.samples(), n2.samples());
    }

    /// The per-sample reference of the jitter stream: a standard-normal
    /// source handing out both Box–Muller variates of each pair, the
    /// cosine variate first, the sine variate on the next call.
    struct GaussianSource<R> {
        rng: R,
        spare: Option<f64>,
    }

    impl<R: rand::Rng> GaussianSource<R> {
        fn new(rng: R) -> Self {
            Self { rng, spare: None }
        }

        fn next_value(&mut self) -> f64 {
            if let Some(z) = self.spare.take() {
                return z;
            }
            let (zc, zs) = gaussian_pair(&mut self.rng);
            self.spare = Some(zs);
            zc
        }
    }

    #[test]
    fn batched_jitter_reproduces_the_streaming_draw_order_bit_for_bit() {
        // The paired one-pass jitter sweep in `perturbed_into` must emit
        // exactly the stream a per-sample `GaussianSource` walk produces
        // before the batching — including the odd-length tail, where the
        // final pair's sine variate is drawn but never consumed.
        use rand::SeedableRng;
        for len in [1usize, 2, 3, 8, 599, 600] {
            let samples: Vec<f64> = (0..len).map(|i| 500.0 + 7.0 * i as f64).collect();
            let t = ThroughputTrace::new("ref", 1.0, samples.clone()).unwrap();
            for (scale, std, seed) in [(1.0, 300.0, 0u64), (0.75, 450.0, 41), (1.5, 120.0, 9)] {
                let fast = t
                    .perturbed_into(scale, std, seed, t.perturbed_name(scale, std), Vec::new())
                    .unwrap();
                let mut gauss = GaussianSource::new(rand::rngs::StdRng::seed_from_u64(seed));
                let slow: Vec<f64> = samples
                    .iter()
                    .map(|&v| (v * scale + gauss.next_value() * std).max(0.0))
                    .collect();
                assert_eq!(fast.samples().len(), slow.len());
                for (i, (&f, &s)) in fast.samples().iter().zip(&slow).enumerate() {
                    assert_eq!(
                        f.to_bits(),
                        s.to_bits(),
                        "sample {i} of {len} (scale {scale}, std {std}, seed {seed})"
                    );
                }
            }
        }
    }

    #[test]
    fn identity_perturbations_keep_the_base_name() {
        // Regression: `scaled(1.0)` / `with_gaussian_noise(0.0, _)` used
        // to emit `{name}@x1.00` / `{name}+n0` while `perturbed_name`
        // identity-skipped those components, so the one-shot operators
        // and the TraceCache-interned names disagreed. All naming now
        // routes through `perturbed_name`.
        let t = trace(&[1000.0, 3000.0]);
        let s = t.scaled(1.0).unwrap();
        assert_eq!(s.name(), t.name());
        assert_eq!(s.name(), t.perturbed_name(1.0, 0.0));
        assert_eq!(s.samples(), t.samples());
        let n = t.with_gaussian_noise(0.0, 123).unwrap();
        assert_eq!(n.name(), t.name());
        assert_eq!(n.name(), t.perturbed_name(1.0, 0.0));
        assert_eq!(n.samples(), t.samples());
    }

    #[test]
    fn one_shot_operator_names_match_perturbed_name() {
        // Non-identity components must agree with the helper too, for
        // every combination of the two operators.
        let t = trace(&[1000.0, 3000.0]);
        assert_eq!(t.scaled(0.5).unwrap().name(), t.perturbed_name(0.5, 0.0));
        assert_eq!(
            t.with_gaussian_noise(250.0, 7).unwrap().name(),
            t.perturbed_name(1.0, 250.0)
        );
        let chained = t
            .scaled(0.5)
            .unwrap()
            .with_gaussian_noise(250.0, 7)
            .unwrap();
        assert_eq!(chained.name(), t.perturbed_name(0.5, 250.0));
    }

    #[test]
    fn window_extracts_and_validates() {
        let t = trace(&[1.0, 2.0, 3.0, 4.0]);
        let w = t.window(1, 2).unwrap();
        assert_eq!(w.samples(), &[2.0, 3.0]);
        assert!(t.window(3, 2).is_err());
        assert!(t.window(0, 0).is_err());
        assert_eq!(t.window(3, 1).unwrap().samples(), &[4.0]);
        // Ranges whose end overflows `usize` are out of range too.
        for (start, len) in [(1, usize::MAX), (usize::MAX, 1), (5, 1)] {
            assert!(
                matches!(
                    t.window(start, len),
                    Err(TraceError::WindowOutOfRange { available: 4, .. })
                ),
                "window({start}, {len})"
            );
        }
    }

    #[test]
    fn constant_trace_helper() {
        let t = ThroughputTrace::constant("c", 1500.0, 10.0).unwrap();
        assert_eq!(t.samples().len(), 10);
        assert_eq!(t.mean_kbps(), 1500.0);
        assert!(ThroughputTrace::constant("c", 0.0, 10.0).is_err());
    }
}
