//! Seeded synthetic throughput-trace generators.
//!
//! The paper samples its traces from the FCC fixed-broadband dataset and the
//! 3G/HSDPA commute dataset and keeps only traces with mean throughput in
//! 0.2–6 Mbps "so that the ABR algorithms will make non-trivial bitrate
//! selection decisions". We reproduce the two families with first-order
//! autoregressive (AR(1)) processes plus dataset-specific event structure:
//!
//! * **FCC-like** (fixed broadband): high temporal correlation, modest
//!   relative variance, occasional short congestion dips.
//! * **HSDPA-like** (3G commute): lower mean, heavier variance, deep fades
//!   and complete outages as the vehicle passes through coverage holes.
//!
//! On top of the two AR(1) datasets, three richer *procedural families*
//! feed fleet-scale evaluation (the ROADMAP's scenario-diversity axis):
//!
//! * [`diurnal_trace`] — the AR(1) capacity modulated by a compressed
//!   time-of-day load envelope (evening-peak congestion).
//! * [`burst_train_trace`] — cross-traffic burst trains: clustered
//!   capacity drops as a competing flow turns on and off.
//! * [`shared_cell_traces`] — N users fair-sharing one AR(1) cell
//!   capacity, so all users' traces dip together (correlated scenarios).
//!
//! [`generate_family`] wraps all five behind a single seeded API and
//! admission-filters every produced trace into the paper's 0.2–6 Mbps
//! band, so the fleet can expand a family name into hundreds of distinct,
//! deterministic network scenarios.

use crate::{gaussian, ThroughputTrace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Lower edge of the paper's trace-admission band (§7.1), in kbps.
pub const ADMISSION_MIN_KBPS: f64 = 200.0;
/// Upper edge of the paper's trace-admission band (§7.1), in kbps.
pub const ADMISSION_MAX_KBPS: f64 = 6000.0;

/// Whether a mean throughput lies in the paper's 0.2–6 Mbps admission band.
#[must_use]
pub fn in_admission_band(mean_kbps: f64) -> bool {
    (ADMISSION_MIN_KBPS..=ADMISSION_MAX_KBPS).contains(&mean_kbps)
}

/// Bounded resampling budget for generators whose stochastic output can
/// land outside its validity envelope (all-zero short traces, family
/// means outside the admission band). 32 attempts make exhaustion
/// astronomically unlikely for any parameterization that admits non-zero
/// traces at all, while still failing fast on impossible ones.
const MAX_ATTEMPTS: u64 = 32;

/// Derives the RNG seed of resampling `attempt` from the caller's seed.
/// Attempt 0 *is* the caller's seed, so the common no-retry path is
/// byte-identical to the historical single-shot generators.
fn attempt_seed(seed: u64, attempt: u64) -> u64 {
    if attempt == 0 {
        return seed;
    }
    // SplitMix64 finalizer over (seed, attempt): statistically unrelated
    // streams per attempt without a dependency on sensei-fleet.
    let mut z = seed ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Parameters of an AR(1) throughput process with superimposed events.
///
/// The process is `x_{t+1} = μ + ρ·(x_t − μ) + σ·ε`, clamped to
/// `[floor_kbps, cap_kbps]`, with events (dips/outages) overriding the
/// process for their duration.
#[derive(Debug, Clone)]
pub struct Ar1Params {
    /// Long-run mean in kbps.
    pub mean_kbps: f64,
    /// Autocorrelation coefficient in `[0, 1)`.
    pub rho: f64,
    /// Innovation standard deviation in kbps.
    pub sigma_kbps: f64,
    /// Lower clamp in kbps (0 allows outages).
    pub floor_kbps: f64,
    /// Upper clamp in kbps.
    pub cap_kbps: f64,
    /// Per-second probability that a dip/outage event starts.
    pub event_prob: f64,
    /// Event duration range in seconds (inclusive).
    pub event_len_s: (usize, usize),
    /// Throughput multiplier during an event (0 = full outage).
    pub event_factor: f64,
}

impl Ar1Params {
    /// Parameters resembling FCC fixed-broadband traces.
    pub fn fcc_like(mean_kbps: f64) -> Self {
        Self {
            mean_kbps,
            rho: 0.97,
            sigma_kbps: 0.08 * mean_kbps,
            floor_kbps: 0.15 * mean_kbps,
            cap_kbps: 2.5 * mean_kbps,
            event_prob: 0.01,
            event_len_s: (2, 6),
            event_factor: 0.35,
        }
    }

    /// Parameters resembling 3G/HSDPA commute traces.
    pub fn hsdpa_like(mean_kbps: f64) -> Self {
        Self {
            mean_kbps,
            rho: 0.90,
            sigma_kbps: 0.25 * mean_kbps,
            floor_kbps: 0.0,
            cap_kbps: 3.0 * mean_kbps,
            event_prob: 0.02,
            event_len_s: (1, 5),
            event_factor: 0.05,
        }
    }

    fn validate(&self) {
        assert!(
            self.mean_kbps.is_finite() && self.mean_kbps > 0.0,
            "mean must be positive, got {}",
            self.mean_kbps
        );
        assert!(
            (0.0..1.0).contains(&self.rho),
            "rho must be in [0, 1), got {}",
            self.rho
        );
        assert!(
            self.event_len_s.0 <= self.event_len_s.1,
            "event length range is inverted"
        );
    }
}

/// One pass of the AR(1) sampler — the shared core of every generator in
/// this module. Draw order is load-bearing: it must stay byte-identical
/// so seeded traces from previous releases reproduce exactly.
fn ar1_samples<R: Rng>(params: &Ar1Params, duration_s: usize, rng: &mut R) -> Vec<f64> {
    let mut x = params.mean_kbps;
    let mut samples = Vec::with_capacity(duration_s.max(1));
    let mut event_left = 0usize;
    for _ in 0..duration_s.max(1) {
        x = params.mean_kbps
            + params.rho * (x - params.mean_kbps)
            + params.sigma_kbps * gaussian(rng);
        x = x.clamp(params.floor_kbps, params.cap_kbps);
        if event_left == 0 && rng.gen_bool(params.event_prob) {
            event_left = rng.gen_range(params.event_len_s.0..=params.event_len_s.1);
        }
        let v = if event_left > 0 {
            event_left -= 1;
            x * params.event_factor
        } else {
            x
        };
        samples.push(v);
    }
    samples
}

/// Runs a raw-sample generator with bounded seed-derived resampling until
/// it produces a usable (not all-zero) trace. Attempt 0 uses the caller's
/// seed verbatim, so historical outputs are unchanged; attempts only
/// continue where the previous draw was all-zero — a case that used to
/// abort the whole fleet run with a panic.
///
/// # Panics
///
/// Panics when every attempt is all-zero, which requires parameters that
/// *only* admit zero traces (e.g. a zero cap, or a full-outage event with
/// probability 1) — a programmer error in experiment setup, consistent
/// with this module's other parameter asserts.
fn sample_with_retries(
    name: impl Into<Arc<str>>,
    seed: u64,
    mut generate: impl FnMut(&mut StdRng) -> Vec<f64>,
) -> ThroughputTrace {
    for attempt in 0..MAX_ATTEMPTS {
        let mut rng = StdRng::seed_from_u64(attempt_seed(seed, attempt));
        let samples = generate(&mut rng);
        if samples.iter().any(|&v| v > 0.0) {
            return ThroughputTrace::new(name, 1.0, samples)
                .expect("generator samples are finite and non-negative");
        }
    }
    panic!("trace generator produced all-zero samples for {MAX_ATTEMPTS} derived seeds; the parameters admit only zero traces");
}

/// Generates one AR(1) trace of `duration_s` seconds at 1-second sampling.
///
/// Short traces of deep-outage parameterizations (e.g. an hsdpa-like floor
/// of 0 with outage events) can draw an all-zero sample vector; instead of
/// panicking — which used to abort entire fleet runs — the generator
/// resamples with a derived seed, bounded at a handful of attempts.
///
/// # Panics
///
/// Panics if `params` are internally inconsistent (non-finite mean, `rho`
/// outside `[0, 1)`, or an inverted event-length range), or if the
/// parameters admit *only* all-zero traces; these are programmer errors in
/// experiment setup, not runtime conditions.
pub fn ar1_trace(
    name: impl Into<Arc<str>>,
    params: &Ar1Params,
    duration_s: usize,
    seed: u64,
) -> ThroughputTrace {
    params.validate();
    sample_with_retries(name, seed, |rng| ar1_samples(params, duration_s, rng))
}

/// Convenience constructor for an FCC-like trace.
pub fn fcc_like(mean_kbps: f64, duration_s: usize, seed: u64) -> ThroughputTrace {
    ar1_trace(
        format!("fcc-{mean_kbps:.0}k-s{seed}"),
        &Ar1Params::fcc_like(mean_kbps),
        duration_s,
        seed,
    )
}

/// Convenience constructor for an HSDPA/3G-like trace.
pub fn hsdpa_like(mean_kbps: f64, duration_s: usize, seed: u64) -> ThroughputTrace {
    ar1_trace(
        format!("hsdpa-{mean_kbps:.0}k-s{seed}"),
        &Ar1Params::hsdpa_like(mean_kbps),
        duration_s,
        seed,
    )
}

/// Parameters of the diurnal-load family: an AR(1) capacity process
/// modulated by a compressed time-of-day load envelope. At peak load the
/// cell serves `1 − depth` of its off-peak capacity — the evening-peak
/// congestion pattern access ISPs exhibit, compressed so one "day" fits
/// inside a trace.
#[derive(Debug, Clone)]
pub struct DiurnalParams {
    /// The underlying capacity process.
    pub base: Ar1Params,
    /// Length of one compressed "day" in seconds.
    pub period_s: f64,
    /// Peak-hour capacity reduction in `[0, 1)`.
    pub depth: f64,
    /// Phase offset as a fraction of the period in `[0, 1)` (0 starts the
    /// trace at minimum load).
    pub phase: f64,
}

impl DiurnalParams {
    /// An evening-peak profile over an FCC-like access link.
    pub fn evening_peak(mean_kbps: f64) -> Self {
        Self {
            base: Ar1Params::fcc_like(mean_kbps),
            period_s: 600.0,
            depth: 0.45,
            phase: 0.0,
        }
    }
}

/// Generates one diurnal-envelope trace: AR(1) capacity times
/// `1 − depth·load(t)` with `load(t) = (1 − cos(2π(t/period + phase)))/2`
/// (0 at phase 0, 1 at mid-period).
///
/// # Panics
///
/// Panics on inconsistent parameters (see [`ar1_trace`], plus a
/// non-positive period or a depth outside `[0, 1)`).
pub fn diurnal_trace(
    name: impl Into<Arc<str>>,
    params: &DiurnalParams,
    duration_s: usize,
    seed: u64,
) -> ThroughputTrace {
    params.base.validate();
    assert!(
        params.period_s.is_finite() && params.period_s > 0.0,
        "diurnal period must be positive, got {}",
        params.period_s
    );
    assert!(
        (0.0..1.0).contains(&params.depth),
        "diurnal depth must be in [0, 1), got {}",
        params.depth
    );
    sample_with_retries(name, seed, |rng| {
        let mut samples = ar1_samples(&params.base, duration_s, rng);
        for (t, v) in samples.iter_mut().enumerate() {
            let frac = t as f64 / params.period_s + params.phase;
            let load = 0.5 * (1.0 - (2.0 * std::f64::consts::PI * frac).cos());
            *v *= 1.0 - params.depth * load;
        }
        samples
    })
}

/// Parameters of the cross-traffic burst-train family: an AR(1) capacity
/// process from which a competing flow periodically steals bandwidth in
/// *trains* of short bursts — the clustered (not memoryless) congestion
/// shape of backbone cross-traffic.
#[derive(Debug, Clone)]
pub struct BurstTrainParams {
    /// The underlying capacity process.
    pub base: Ar1Params,
    /// Per-second probability a burst train starts when none is active.
    pub train_prob: f64,
    /// Bursts per train (inclusive range).
    pub bursts_per_train: (usize, usize),
    /// Individual burst length in seconds (inclusive range).
    pub burst_len_s: (usize, usize),
    /// Gap between bursts inside a train, in seconds (inclusive range).
    pub gap_s: (usize, usize),
    /// Fraction of capacity the cross-traffic consumes during a burst,
    /// in `[0, 1)`.
    pub intensity: f64,
}

impl BurstTrainParams {
    /// A bursty-backbone profile over an FCC-like access link.
    pub fn backbone(mean_kbps: f64) -> Self {
        Self {
            base: Ar1Params::fcc_like(mean_kbps),
            train_prob: 0.015,
            bursts_per_train: (2, 5),
            burst_len_s: (2, 5),
            gap_s: (1, 4),
            intensity: 0.65,
        }
    }
}

/// Generates one cross-traffic burst-train trace.
///
/// # Panics
///
/// Panics on inconsistent parameters (see [`ar1_trace`], plus inverted
/// burst/gap/count ranges or an intensity outside `[0, 1)`).
pub fn burst_train_trace(
    name: impl Into<Arc<str>>,
    params: &BurstTrainParams,
    duration_s: usize,
    seed: u64,
) -> ThroughputTrace {
    params.base.validate();
    assert!(
        (0.0..1.0).contains(&params.intensity),
        "burst intensity must be in [0, 1), got {}",
        params.intensity
    );
    for (label, (lo, hi)) in [
        ("bursts_per_train", params.bursts_per_train),
        ("burst_len_s", params.burst_len_s),
        ("gap_s", params.gap_s),
    ] {
        assert!(lo <= hi, "{label} range is inverted");
    }
    sample_with_retries(name, seed, |rng| {
        let mut samples = ar1_samples(&params.base, duration_s, rng);
        // Second pass over the same RNG: a 3-state train machine (idle →
        // burst → gap → …) that multiplies capacity by 1 − intensity
        // while a burst is on.
        let mut bursts_left = 0usize;
        let mut burst_left = 0usize;
        let mut gap_left = 0usize;
        for v in &mut samples {
            if burst_left == 0 && gap_left == 0 {
                if bursts_left > 0 {
                    // Between bursts of an active train.
                    bursts_left -= 1;
                    burst_left = rng.gen_range(params.burst_len_s.0..=params.burst_len_s.1);
                } else if rng.gen_bool(params.train_prob) {
                    // A drawn count of 0 (possible when the range starts
                    // at 0) means this train carries no bursts at all.
                    let count =
                        rng.gen_range(params.bursts_per_train.0..=params.bursts_per_train.1);
                    if count > 0 {
                        bursts_left = count - 1;
                        burst_left = rng.gen_range(params.burst_len_s.0..=params.burst_len_s.1);
                    }
                }
            }
            if burst_left > 0 {
                burst_left -= 1;
                *v *= 1.0 - params.intensity;
                if burst_left == 0 && bursts_left > 0 {
                    gap_left = rng.gen_range(params.gap_s.0..=params.gap_s.1);
                }
            } else {
                gap_left = gap_left.saturating_sub(1);
            }
        }
        samples
    })
}

/// Parameters of the correlated shared-cell family: `users` subscribers
/// fair-sharing one AR(1) cell capacity. Each user carries a slowly
/// drifting AR(1) demand weight; user `i` receives
/// `capacity · wᵢ / Σw` each second, so every user's trace dips when the
/// *cell* fades — the correlation structure single-user families cannot
/// express.
#[derive(Debug, Clone)]
pub struct SharedCellParams {
    /// The cell's aggregate capacity process. Its mean is the *total*
    /// capacity; each user sees roughly `mean_kbps / users`.
    pub cell: Ar1Params,
    /// Number of users sharing the cell (≥ 1).
    pub users: usize,
    /// Autocorrelation of each user's demand weight, in `[0, 1)`.
    pub demand_rho: f64,
    /// Innovation standard deviation of the demand weights.
    pub demand_sigma: f64,
}

impl SharedCellParams {
    /// A `users`-subscriber HSDPA-like cell with total capacity sized so
    /// each user averages about `per_user_mean_kbps`.
    pub fn hsdpa_cell(per_user_mean_kbps: f64, users: usize) -> Self {
        Self {
            cell: Ar1Params::hsdpa_like(per_user_mean_kbps * users.max(1) as f64),
            users,
            demand_rho: 0.95,
            demand_sigma: 0.08,
        }
    }
}

/// Generates the correlated per-user traces of one shared cell. Returns
/// `users` traces named `{prefix}-u{i}`, all derived from a single cell
/// capacity draw — deterministic in `seed`.
///
/// # Panics
///
/// Panics on inconsistent parameters (see [`ar1_trace`], plus zero users
/// or a demand rho outside `[0, 1)`).
pub fn shared_cell_traces(
    prefix: &str,
    params: &SharedCellParams,
    duration_s: usize,
    seed: u64,
) -> Vec<ThroughputTrace> {
    params.cell.validate();
    assert!(params.users >= 1, "a shared cell needs at least one user");
    assert!(
        (0.0..1.0).contains(&params.demand_rho),
        "demand rho must be in [0, 1), got {}",
        params.demand_rho
    );
    // Bounded derived-seed retries on the *cell* capacity draw: an
    // all-zero cell divides into all-zero user traces, and weights are
    // clamped strictly positive, so a somewhere-positive cell guarantees
    // every user trace is somewhere-positive too.
    let (capacity, mut rng) = (0..MAX_ATTEMPTS)
        .find_map(|attempt| {
            let mut rng = StdRng::seed_from_u64(attempt_seed(seed, attempt));
            let c = ar1_samples(&params.cell, duration_s, &mut rng);
            c.iter().any(|&v| v > 0.0).then_some((c, rng))
        })
        .expect("cell capacity was all-zero for every derived seed; the parameters admit only zero traces");
    // Per-user AR(1) demand weights around 1, clamped positive so the
    // fair share is always defined. Time-major: `weights[t][u]`.
    let mut w = vec![1.0f64; params.users];
    let weights: Vec<Vec<f64>> = capacity
        .iter()
        .map(|_| {
            for wu in w.iter_mut() {
                *wu = 1.0
                    + params.demand_rho * (*wu - 1.0)
                    + params.demand_sigma * gaussian(&mut rng);
                *wu = wu.clamp(0.05, 4.0);
            }
            w.clone()
        })
        .collect();
    // Per-second weight totals computed once, not once per user — keeps
    // generation O(users · duration) instead of O(users² · duration).
    let totals: Vec<f64> = weights.iter().map(|wt| wt.iter().sum()).collect();
    (0..params.users)
        .map(|u| {
            let samples: Vec<f64> = capacity
                .iter()
                .zip(&weights)
                .zip(&totals)
                .map(|((&cap, wt), &total)| cap * wt[u] / total)
                .collect();
            ThroughputTrace::new(format!("{prefix}-u{u}"), 1.0, samples)
                .expect("a somewhere-positive cell yields somewhere-positive user shares")
        })
        .collect()
}

/// A procedural trace-family identifier for fleet-scale generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceFamily {
    /// FCC-like fixed broadband (AR(1)).
    Fcc,
    /// HSDPA/3G-like commute (AR(1) with outages).
    Hsdpa,
    /// Diurnal load envelope over an FCC-like link.
    Diurnal,
    /// Cross-traffic burst trains over an FCC-like link.
    CrossTrafficBursts,
    /// `users` subscribers fair-sharing one HSDPA-like cell.
    SharedCell {
        /// Subscribers per cell (≥ 1).
        users: usize,
    },
}

impl TraceFamily {
    /// Short label used in generated trace names.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            TraceFamily::Fcc => "fcc",
            TraceFamily::Hsdpa => "hsdpa",
            TraceFamily::Diurnal => "diurnal",
            TraceFamily::CrossTrafficBursts => "burst",
            TraceFamily::SharedCell { .. } => "cell",
        }
    }

    /// Every family, with a 4-user shared cell as the correlated
    /// representative — handy for sweeps and tests.
    #[must_use]
    pub fn all() -> Vec<TraceFamily> {
        vec![
            TraceFamily::Fcc,
            TraceFamily::Hsdpa,
            TraceFamily::Diurnal,
            TraceFamily::CrossTrafficBursts,
            TraceFamily::SharedCell { users: 4 },
        ]
    }
}

/// Generates `count` admission-filtered traces of one family,
/// deterministic in `seed`. Target means are spread across the 0.2–6 Mbps
/// band (log-uniformly, so the low-bandwidth regime the paper cares about
/// is not under-sampled); every produced trace is re-drawn with a derived
/// seed — and, as a last resort, linearly rescaled — until its mean lands
/// inside the band, so downstream fleet matrices can rely on
/// [`in_admission_band`] holding for every entry.
pub fn generate_family(
    family: &TraceFamily,
    count: usize,
    duration_s: usize,
    seed: u64,
) -> Vec<ThroughputTrace> {
    let mut out = Vec::with_capacity(count);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFA_111);
    // Shared cells produce `users` correlated traces per draw; the other
    // families produce one.
    let mut cell_index = 0u64;
    while out.len() < count {
        // Log-uniform target mean over a band comfortably inside the
        // admission envelope (the generators wander around their mean, so
        // leave headroom at both edges).
        let lo: f64 = 320.0;
        let hi: f64 = 4800.0;
        let target = lo * (hi / lo).powf(rng.gen_range(0.0..1.0));
        let draw_seed = attempt_seed(seed, 0x1000 + cell_index);
        cell_index += 1;
        let idx = out.len();
        match family {
            TraceFamily::SharedCell { users } => {
                let params = SharedCellParams::hsdpa_cell(target, (*users).max(1));
                let prefix = format!("cell{}-{idx:03}-{target:.0}k", params.users);
                for trace in shared_cell_traces(&prefix, &params, duration_s, draw_seed) {
                    if out.len() < count {
                        out.push(admit(trace));
                    }
                }
            }
            single => {
                let name = format!("{}-{idx:03}-{target:.0}k", single.label());
                let trace = admitted_single(single, &name, target, duration_s, draw_seed);
                out.push(trace);
            }
        }
    }
    out
}

/// Draws one single-user family trace, resampling with derived seeds
/// until the mean lands in the admission band (rescale fallback after the
/// attempt budget).
fn admitted_single(
    family: &TraceFamily,
    name: &str,
    target_mean_kbps: f64,
    duration_s: usize,
    seed: u64,
) -> ThroughputTrace {
    for attempt in 0..MAX_ATTEMPTS {
        let s = attempt_seed(seed, attempt);
        let trace = match family {
            TraceFamily::Fcc => {
                ar1_trace(name, &Ar1Params::fcc_like(target_mean_kbps), duration_s, s)
            }
            TraceFamily::Hsdpa => ar1_trace(
                name,
                &Ar1Params::hsdpa_like(target_mean_kbps),
                duration_s,
                s,
            ),
            TraceFamily::Diurnal => diurnal_trace(
                name,
                &DiurnalParams::evening_peak(target_mean_kbps),
                duration_s,
                s,
            ),
            TraceFamily::CrossTrafficBursts => burst_train_trace(
                name,
                &BurstTrainParams::backbone(target_mean_kbps),
                duration_s,
                s,
            ),
            TraceFamily::SharedCell { .. } => unreachable!("shared cells take the multi-user path"),
        };
        if in_admission_band(trace.mean_kbps()) {
            return trace;
        }
        if attempt == MAX_ATTEMPTS - 1 {
            return admit(trace);
        }
    }
    unreachable!("the final attempt always admits")
}

/// Admission fallback: linearly rescales a trace's samples so its mean
/// sits inside the band (keeping the name — this is a family-internal
/// normalization, not a user-facing `scaled` perturbation). A no-op for
/// traces already in band.
fn admit(trace: ThroughputTrace) -> ThroughputTrace {
    let mean = trace.mean_kbps();
    if in_admission_band(mean) {
        return trace;
    }
    // Pull the mean to the nearest band edge with 5% headroom so the
    // admitted trace does not sit exactly on the boundary.
    let target = if mean < ADMISSION_MIN_KBPS {
        ADMISSION_MIN_KBPS * 1.05
    } else {
        ADMISSION_MAX_KBPS * 0.95
    };
    let factor = target / mean;
    let name = trace.name_handle();
    let interval = trace.interval_s();
    let mut samples = trace.into_samples();
    for v in &mut samples {
        *v *= factor;
    }
    ThroughputTrace::new(name, interval, samples).expect("rescaled admission keeps samples valid")
}

/// The 10-trace evaluation set used by the end-to-end experiments
/// (§7.1: "We randomly select 10 throughput traces from two public datasets,
/// FCC and 3G/HSDPA ... average throughput between 0.2 Mbps and 6 Mbps").
///
/// Returned sorted by increasing mean throughput, matching the x-axis
/// ordering of Fig. 14. Five traces come from each family; target means are
/// spread across the paper's 0.2–6 Mbps envelope.
pub fn evaluation_set(seed: u64) -> Vec<ThroughputTrace> {
    let duration = 1200; // 20 minutes: longer than any test video.
    let hsdpa_means = [400.0, 700.0, 1100.0, 1600.0, 2300.0];
    let fcc_means = [900.0, 1400.0, 2100.0, 3200.0, 4800.0];
    let mut traces = Vec::with_capacity(10);
    for (i, &m) in hsdpa_means.iter().enumerate() {
        traces.push(hsdpa_like(m, duration, seed ^ (0x3_0000 + i as u64)));
    }
    for (i, &m) in fcc_means.iter().enumerate() {
        traces.push(fcc_like(m, duration, seed ^ (0xF_0000 + i as u64)));
    }
    // Each mean is an O(n) sum: take it once per trace, not per
    // comparison. The sort stays stable, so equal means keep their order.
    let mut by_mean: Vec<(f64, ThroughputTrace)> =
        traces.into_iter().map(|t| (t.mean_kbps(), t)).collect();
    by_mean.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("trace means are finite"));
    by_mean.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fcc_like_stays_near_mean() {
        let t = fcc_like(3000.0, 600, 42);
        assert!(
            (t.mean_kbps() - 3000.0).abs() < 900.0,
            "mean {}",
            t.mean_kbps()
        );
        assert!(t.max_kbps() <= 2.5 * 3000.0);
        // Fixed broadband: no full outages.
        assert!(t.min_kbps() > 0.0);
    }

    #[test]
    fn hsdpa_like_is_burstier_than_fcc() {
        let f = fcc_like(2000.0, 900, 1);
        let h = hsdpa_like(2000.0, 900, 1);
        let f_cv = f.std_kbps() / f.mean_kbps();
        let h_cv = h.std_kbps() / h.mean_kbps();
        assert!(h_cv > f_cv, "hsdpa cv {h_cv} vs fcc cv {f_cv}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = fcc_like(1500.0, 120, 9);
        let b = fcc_like(1500.0, 120, 9);
        assert_eq!(a.samples(), b.samples());
        let c = fcc_like(1500.0, 120, 10);
        assert_ne!(a.samples(), c.samples());
    }

    #[test]
    fn evaluation_set_matches_paper_envelope() {
        let set = evaluation_set(2021);
        assert_eq!(set.len(), 10);
        for t in &set {
            let m = t.mean_kbps();
            assert!(
                (200.0..=6000.0).contains(&m),
                "trace {} mean {m} outside the paper's 0.2-6 Mbps envelope",
                t.name()
            );
            assert!(t.duration_s() >= 600.0);
        }
        // Sorted by mean (Fig. 14 ordering).
        for w in set.windows(2) {
            assert!(w[0].mean_kbps() <= w[1].mean_kbps());
        }
    }

    #[test]
    #[should_panic(expected = "rho")]
    fn ar1_rejects_bad_rho() {
        let mut p = Ar1Params::fcc_like(1000.0);
        p.rho = 1.5;
        let _ = ar1_trace("bad", &p, 10, 0);
    }

    #[test]
    fn zero_duration_yields_single_sample() {
        let t = fcc_like(1000.0, 0, 3);
        assert_eq!(t.samples().len(), 1);
    }

    /// Deep-outage parameters that frequently draw an all-zero first
    /// attempt on short durations: full-outage events that start with
    /// probability 0.5 every second.
    fn outage_heavy() -> Ar1Params {
        Ar1Params {
            event_prob: 0.5,
            event_factor: 0.0,
            ..Ar1Params::hsdpa_like(400.0)
        }
    }

    #[test]
    fn short_deep_outage_traces_resample_instead_of_panicking() {
        // Regression: an all-zero draw used to hit the `expect` in
        // `ar1_trace` and abort the whole run. With P(outage start) = 0.5
        // and 2 samples, a large fraction of seeds draw all-zero on the
        // first attempt, so this sweep exercises the derived-seed retry
        // path many times while staying far from the attempt budget.
        for seed in 0..300 {
            let t = ar1_trace(format!("outage-s{seed}"), &outage_heavy(), 2, seed);
            assert!(t.samples().iter().any(|&v| v > 0.0), "seed {seed}");
        }
    }

    #[test]
    fn resampled_traces_stay_deterministic() {
        let a = ar1_trace("o", &outage_heavy(), 2, 11);
        let b = ar1_trace("o", &outage_heavy(), 2, 11);
        assert_eq!(a.samples(), b.samples());
    }

    #[test]
    #[should_panic(expected = "admit only zero traces")]
    fn impossible_parameters_still_fail_loudly() {
        // event_prob 1 + factor 0 means *every* sample is an outage:
        // retries cannot help, and silent acceptance would hide the
        // setup bug.
        let p = Ar1Params {
            event_prob: 1.0,
            event_factor: 0.0,
            event_len_s: (1000, 1000),
            ..Ar1Params::hsdpa_like(400.0)
        };
        let _ = ar1_trace("impossible", &p, 10, 0);
    }

    #[test]
    fn diurnal_envelope_modulates_capacity() {
        let p = DiurnalParams::evening_peak(3000.0);
        let t = diurnal_trace("d", &p, 1200, 5);
        // The diurnal generator shares `ar1_samples` (and the seed's RNG
        // stream) with the plain AR(1) generator, so dividing the two
        // recovers the envelope exactly: 1 − depth·(1 − cos(2πt/T))/2.
        let base = ar1_trace("b", &p.base, 1200, 5);
        for (i, (&v, &b)) in t.samples().iter().zip(base.samples()).enumerate() {
            if b == 0.0 {
                continue;
            }
            let frac = i as f64 / p.period_s;
            let load = 0.5 * (1.0 - (2.0 * std::f64::consts::PI * frac).cos());
            let expected = 1.0 - p.depth * load;
            assert!(
                (v / b - expected).abs() < 1e-12,
                "sample {i}: ratio {} vs envelope {expected}",
                v / b
            );
        }
        // Mid-period load is peak load: capacity cut by the full depth.
        let mid = (p.period_s / 2.0) as usize;
        assert!((t.samples()[mid] / base.samples()[mid] - (1.0 - p.depth)).abs() < 1e-9);
        // Deterministic.
        assert_eq!(t.samples(), diurnal_trace("d", &p, 1200, 5).samples());
    }

    #[test]
    fn burst_trains_cluster_capacity_drops() {
        let base = fcc_like(3000.0, 1200, 3);
        let t = burst_train_trace("b", &BurstTrainParams::backbone(3000.0), 1200, 3);
        // Bursts strictly remove capacity, never add.
        assert!(t.mean_kbps() < base.mean_kbps());
        // And the removal is bursty: more relative variance than the base.
        let cv = t.std_kbps() / t.mean_kbps();
        let base_cv = base.std_kbps() / base.mean_kbps();
        assert!(cv > base_cv, "burst cv {cv} vs base cv {base_cv}");
        assert_eq!(
            t.samples(),
            burst_train_trace("b", &BurstTrainParams::backbone(3000.0), 1200, 3).samples()
        );
    }

    #[test]
    fn zero_burst_trains_leave_capacity_untouched() {
        // `bursts_per_train: (0, 0)` means every train start draws zero
        // bursts: the trace must equal the plain AR(1) base (the second
        // pass consumes RNG draws but modifies nothing).
        let params = BurstTrainParams {
            bursts_per_train: (0, 0),
            train_prob: 0.5,
            ..BurstTrainParams::backbone(2000.0)
        };
        let t = burst_train_trace("b0", &params, 600, 4);
        let base = ar1_trace("b", &params.base, 600, 4);
        assert_eq!(t.samples(), base.samples());
    }

    #[test]
    fn shared_cell_users_are_correlated_and_sum_to_capacity() {
        let params = SharedCellParams::hsdpa_cell(800.0, 4);
        let users = shared_cell_traces("cell", &params, 900, 9);
        assert_eq!(users.len(), 4);
        let n = users[0].samples().len();
        // Fair sharing: per-second user shares sum to the cell capacity,
        // so the summed mean is the cell mean (within fp error).
        let total_mean: f64 = users.iter().map(ThroughputTrace::mean_kbps).sum();
        let cell_mean = params.cell.mean_kbps;
        assert!(
            (total_mean - cell_mean).abs() / cell_mean < 0.6,
            "total {total_mean} vs cell {cell_mean}"
        );
        // Correlation: users share the cell fade structure. Pearson
        // correlation between two users must be clearly positive.
        let a = users[0].samples();
        let b = users[1].samples();
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        let (ma, mb) = (mean(a), mean(b));
        let mut cov = 0.0;
        let mut va = 0.0;
        let mut vb = 0.0;
        for t in 0..n {
            cov += (a[t] - ma) * (b[t] - mb);
            va += (a[t] - ma).powi(2);
            vb += (b[t] - mb).powi(2);
        }
        let r = cov / (va.sqrt() * vb.sqrt());
        assert!(r > 0.3, "user correlation {r}");
        // Determinism.
        let again = shared_cell_traces("cell", &params, 900, 9);
        for (x, y) in users.iter().zip(&again) {
            assert_eq!(x.samples(), y.samples());
            assert_eq!(x.name(), y.name());
        }
    }

    #[test]
    fn families_generate_admitted_deterministic_sets() {
        for family in TraceFamily::all() {
            let set = generate_family(&family, 8, 600, 77);
            assert_eq!(set.len(), 8, "{family:?}");
            for t in &set {
                assert!(
                    in_admission_band(t.mean_kbps()),
                    "{} mean {} outside the admission band",
                    t.name(),
                    t.mean_kbps()
                );
                assert!(t.samples().iter().any(|&v| v > 0.0));
            }
            let again = generate_family(&family, 8, 600, 77);
            for (a, b) in set.iter().zip(&again) {
                assert_eq!(a, b, "{family:?} must be deterministic in its seed");
            }
            let other = generate_family(&family, 8, 600, 78);
            assert!(
                set.iter()
                    .zip(&other)
                    .any(|(a, b)| a.samples() != b.samples()),
                "{family:?} must vary with the seed"
            );
        }
    }
}
