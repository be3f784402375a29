//! Streaming aggregation for fleet runs.
//!
//! Everything here is an *online* accumulator with an exact, mergeable
//! state: QoE mean/variance from fixed-point integer moment sums
//! ([`Moments`]), fixed-bin histograms for stall rates and bitrate
//! switches, and a fixed-bin CDF of per-cell QoE gains over a baseline
//! policy. Memory is `O(policies × bins)` regardless of how many million
//! sessions stream through — the per-session results are folded and
//! dropped.
//!
//! **The merge law.** Every accumulator is integer sums (counts,
//! quantized moments, histogram bins), so [`FleetStats::merge`] is
//! exactly associative and commutative — the same contract
//! `sensei-telemetry` proves for its all-`u64` shards. The deterministic
//! result is *defined* as the reduction over per-tile partials
//! ([`TileStats`]) in canonical tile order; because folding and merging
//! are exact, any grouping of that reduction — a worker folding its
//! tiles into one partial, worker shards, whole processes
//! ([`merge_reports`]) — yields the bit-identical aggregates.

use crate::json::{self, obj, Json};
use crate::FleetError;
use sensei_core::{CellResult, LaneScore, PolicyKind};
use sensei_telemetry::{Counter, Hist, Phase, TelemetryShard, TelemetrySnapshot};

/// Scale of the fixed-point quantization: observations are stored as
/// integer multiples of 2⁻⁴⁰ (≈ 9.1e-13, far below any tolerance the
/// reports read at). A power of two, so `x * Q_SCALE` is exact IEEE-754
/// for every in-range `x` — quantization rounds once, never twice.
const Q_SCALE: f64 = (1u64 << 40) as f64;

/// Quantizes one observation onto the fixed-point grid. Deterministic
/// and total: the float → int cast sends NaN to 0 and saturates
/// out-of-range values, so every input maps to exactly one integer.
// The saturating float→int conversion IS the documented total
// quantization (see the sensei-lint allow at the cast site).
#[allow(clippy::cast_possible_truncation)]
fn quantize(x: f64) -> i128 {
    // sensei-lint: allow(no-lossy-cast) — saturating float→int IS the documented total quantization
    (x * Q_SCALE).round() as i128
}

/// Exact mean/variance accumulator over fixed-point integer moment sums
/// — the mergeable replacement for a Welford accumulator.
///
/// Observations are quantized to integer multiples of 2⁻⁴⁰ and
/// accumulated as `i128` sums of `x` and `x²`, so folding is plain
/// integer addition: [`Self::merge`] is exactly associative and
/// commutative, and any shard grouping of the same observations yields
/// the bit-identical state. (Welford pairwise merges — Chan et al.'s
/// formulas — are *statistically* sound but not bit-associative, which
/// would leak the worker count and shard split into the aggregates.)
/// Derived statistics are computed from the exact sums at read time;
/// quantization error is ≤ 2⁻⁴¹ per observation, invisible at reporting
/// precision. Headroom: with `x²` around 2²² (kbps-scale bitrates
/// squared), the `i128` sum has ~2⁶⁰ observations of room.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Moments {
    count: u64,
    sum_q: i128,
    sumsq_q: i128,
}

impl Moments {
    /// Folds one observation in.
    pub fn push(&mut self, x: f64) {
        self.count = self.count.wrapping_add(1);
        self.sum_q = self.sum_q.wrapping_add(quantize(x));
        self.sumsq_q = self.sumsq_q.wrapping_add(quantize(x * x));
    }

    /// Folds another accumulator in. Exact integer sums (wrapping, so
    /// the operation is total), hence independent of merge order and
    /// grouping.
    pub fn merge(&mut self, other: &Moments) {
        self.count = self.count.wrapping_add(other.count);
        self.sum_q = self.sum_q.wrapping_add(other.sum_q);
        self.sumsq_q = self.sumsq_q.wrapping_add(other.sumsq_q);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean (0 when empty), derived from the exact sum in one fixed
    /// operation order.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_q as f64 / Q_SCALE / self.count as f64
        }
    }

    /// Population variance (0 with fewer than two observations),
    /// computed from the exact moment sums and clamped at 0 against
    /// cancellation error.
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let n = self.count as f64;
        let sum = self.sum_q as f64 / Q_SCALE;
        let sumsq = self.sumsq_q as f64 / Q_SCALE;
        ((sumsq - sum * sum / n) / n).max(0.0)
    }

    /// Population standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Raw quantized Σx — exposed for lossless persistence.
    #[must_use]
    pub fn sum_q(&self) -> i128 {
        self.sum_q
    }

    /// Raw quantized Σx² — exposed for lossless persistence.
    #[must_use]
    pub fn sumsq_q(&self) -> i128 {
        self.sumsq_q
    }

    /// Restores an accumulator from its persisted raw state.
    #[must_use]
    pub fn from_raw(count: u64, sum_q: i128, sumsq_q: i128) -> Self {
        Self {
            count,
            sum_q,
            sumsq_q,
        }
    }
}

/// A fixed-bin histogram over `[lo, hi]`; out-of-range values clamp into
/// the edge bins, so the total count always equals the number of
/// observations.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics when `bins` is zero or the range is not a finite, positive
    /// interval — bin layout is experiment setup, not a runtime condition.
    #[must_use]
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(
            valid_layout(lo, hi, bins),
            "invalid histogram layout [{lo}, {hi}] × {bins} bins"
        );
        Self {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Folds one observation in (NaN clamps to the lowest bin).
    // Bin index: `frac` is clamped to [0, 1], so the product is a small
    // non-negative integer (see the sensei-lint allow at the cast site).
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn add(&mut self, x: f64) {
        let frac = ((x - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0);
        // sensei-lint: allow(no-lossy-cast) — frac ∈ [0,1] so the floor cast is the binning rule; .min clamps the hi edge
        let idx = ((frac * self.counts.len() as f64) as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Per-bin counts.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Lower edge of the histogram range.
    #[must_use]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper edge of the histogram range.
    #[must_use]
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Inclusive upper edge of bin `i`.
    #[must_use]
    pub fn bin_upper_edge(&self, i: usize) -> f64 {
        self.lo + (self.hi - self.lo) * (i as f64 + 1.0) / self.counts.len() as f64
    }

    /// Zeroes the counts, keeping the bin layout (for reusable partials).
    pub fn reset(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    /// Folds another histogram's counts in — element-wise wrapping sums,
    /// so merge order and grouping cannot matter.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Shard`] when the bin layouts differ.
    pub fn merge(&mut self, other: &Histogram) -> Result<(), FleetError> {
        self.check_layout(other)?;
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.wrapping_add(*b);
        }
        self.total = self.total.wrapping_add(other.total);
        Ok(())
    }

    /// Checks that `other` has this histogram's bin layout, so
    /// [`Self::merge`] would succeed.
    fn check_layout(&self, other: &Histogram) -> Result<(), FleetError> {
        if self.lo != other.lo || self.hi != other.hi || self.counts.len() != other.counts.len() {
            return Err(FleetError::Shard(format!(
                "histogram layout mismatch: [{}, {}] × {} bins vs [{}, {}] × {} bins",
                self.lo,
                self.hi,
                self.counts.len(),
                other.lo,
                other.hi,
                other.counts.len()
            )));
        }
        Ok(())
    }

    /// Restores a histogram from its persisted state. The total is
    /// recomputed from the counts (as a wrapping sum, like
    /// [`Self::merge`]).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Persist`] on an empty bin list or a range
    /// that is not a finite, positive interval — the layouts
    /// [`Self::new`] refuses.
    pub fn from_parts(lo: f64, hi: f64, counts: Vec<u64>) -> Result<Self, FleetError> {
        if !valid_layout(lo, hi, counts.len()) {
            return Err(FleetError::Persist(format!(
                "invalid histogram layout [{lo}, {hi}] × {} bins",
                counts.len()
            )));
        }
        let total = counts.iter().fold(0, |sum: u64, &c| sum.wrapping_add(c));
        Ok(Self {
            lo,
            hi,
            counts,
            total,
        })
    }

    /// Fraction of observations at or below `x` (by whole bins — the CDF
    /// read off the fixed bins). Returns 0 when empty.
    ///
    /// Edge comparison uses a tolerance *relative to the bin width*: an
    /// absolute slop (the old `1e-12`) is below one ulp once ranges reach
    /// kbps magnitudes (one ulp of 6000.0 is ≈ 9.1e-13 per unit, so edge
    /// arithmetic error easily exceeds a fixed 1e-12), which made
    /// exact-bin-edge queries fall one whole bin short on throughput
    /// histograms while working fine on percent scales.
    #[must_use]
    pub fn cdf_at(&self, x: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let eps = (self.hi - self.lo) / self.counts.len() as f64 * 1e-9;
        let below: u64 = self
            .counts
            .iter()
            .enumerate()
            .filter(|(i, _)| self.bin_upper_edge(*i) <= x + eps)
            .map(|(_, &c)| c)
            .sum();
        below as f64 / self.total as f64
    }
}

/// Whether `bins` equal-width bins over `[lo, hi]` form a valid
/// histogram layout: at least one bin over a finite, positive interval.
fn valid_layout(lo: f64, hi: f64, bins: usize) -> bool {
    bins > 0 && lo.is_finite() && hi.is_finite() && lo < hi
}

/// Fixed-bin CDF of per-cell QoE gains over the baseline policy, in
/// percent — the fleet-scale generalization of the paper's Fig. 12a.
#[derive(Debug, Clone, PartialEq)]
pub struct GainCdf {
    /// Gains binned over [-100, +100] %.
    pub hist: Histogram,
    /// Running mean/variance of the gains.
    pub stats: Moments,
    /// Exact count of strictly positive gains (the binned CDF would put a
    /// gain of exactly 0 into the first positive bin).
    positive: u64,
}

impl GainCdf {
    pub(crate) fn new() -> Self {
        Self {
            hist: Histogram::new(-100.0, 100.0, GAIN_BINS),
            stats: Moments::default(),
            positive: 0,
        }
    }

    pub(crate) fn add(&mut self, gain_pct: f64) {
        self.hist.add(gain_pct);
        self.stats.push(gain_pct);
        if gain_pct > 0.0 {
            self.positive += 1;
        }
    }

    fn merge(&mut self, other: &GainCdf) -> Result<(), FleetError> {
        self.hist.merge(&other.hist)?;
        self.stats.merge(&other.stats);
        self.positive = self.positive.wrapping_add(other.positive);
        Ok(())
    }

    fn reset(&mut self) {
        self.hist.reset();
        self.stats = Moments::default();
        self.positive = 0;
    }

    /// Fraction of cells where the policy strictly beat the baseline.
    #[must_use]
    pub fn fraction_positive(&self) -> f64 {
        if self.stats.count() == 0 {
            return 0.0;
        }
        self.positive as f64 / self.stats.count() as f64
    }

    /// Exact count of strictly positive gains — exposed for persistence.
    #[must_use]
    pub fn positive(&self) -> u64 {
        self.positive
    }

    /// Restores a gain CDF from its persisted state.
    #[must_use]
    pub fn from_parts(hist: Histogram, stats: Moments, positive: u64) -> Self {
        Self {
            hist,
            stats,
            positive,
        }
    }
}

const STALL_BINS: usize = 20;
const SWITCH_BINS: usize = 16;
const GAIN_BINS: usize = 40;
/// Switch histograms cover 0..=MAX_SWITCHES switches per session.
const MAX_SWITCHES: f64 = 64.0;

/// Streaming aggregates for one policy across the whole fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyStats {
    /// The policy.
    pub policy: PolicyKind,
    /// Sessions folded in.
    pub sessions: u64,
    /// True-QoE accumulator.
    pub qoe: Moments,
    /// Mean streamed bitrate accumulator (kbps).
    pub bitrate_kbps: Moments,
    /// Rebuffer-ratio accumulator.
    pub rebuffer_ratio: Moments,
    /// Stall-rate distribution: rebuffer ratio in 20 bins over [0, 1].
    pub stall_hist: Histogram,
    /// Bitrate-switch distribution: switches per session in 16 bins over
    /// [0, 64].
    pub switch_hist: Histogram,
    /// Total intentional stall seconds, quantized so partial sums merge
    /// exactly (read via [`Self::intentional_stall_s`]).
    intentional_stall_q: i128,
    /// QoE-gain CDF vs the baseline policy (`None` for the baseline
    /// itself).
    pub gain_vs_baseline: Option<GainCdf>,
}

impl PolicyStats {
    fn new(policy: PolicyKind, is_baseline: bool) -> Self {
        Self {
            policy,
            sessions: 0,
            qoe: Moments::default(),
            bitrate_kbps: Moments::default(),
            rebuffer_ratio: Moments::default(),
            stall_hist: Histogram::new(0.0, 1.0, STALL_BINS),
            switch_hist: Histogram::new(0.0, MAX_SWITCHES, SWITCH_BINS),
            intentional_stall_q: 0,
            gain_vs_baseline: (!is_baseline).then(GainCdf::new),
        }
    }

    fn fold(&mut self, score: &LaneScore) {
        self.sessions += 1;
        self.qoe.push(score.qoe01);
        self.bitrate_kbps.push(score.avg_bitrate_kbps);
        self.rebuffer_ratio.push(score.rebuffer_ratio);
        self.stall_hist.add(score.rebuffer_ratio);
        self.switch_hist.add(score.bitrate_switches as f64);
        self.intentional_stall_q = self
            .intentional_stall_q
            .wrapping_add(quantize(score.intentional_stall_s));
    }

    /// Total intentional stall seconds injected (SENSEI's pause action),
    /// read off the exact quantized sum.
    #[must_use]
    pub fn intentional_stall_s(&self) -> f64 {
        self.intentional_stall_q as f64 / Q_SCALE
    }

    /// Checks that `other` can merge into this accumulator: the same
    /// policy, the same gain-CDF presence and the same histogram layouts.
    fn check_merge(&self, other: &PolicyStats) -> Result<(), FleetError> {
        if self.policy != other.policy
            || self.gain_vs_baseline.is_some() != other.gain_vs_baseline.is_some()
        {
            return Err(FleetError::Shard(format!(
                "policy aggregate mismatch: {} vs {}",
                self.policy.label(),
                other.policy.label()
            )));
        }
        self.stall_hist.check_layout(&other.stall_hist)?;
        self.switch_hist.check_layout(&other.switch_hist)?;
        if let (Some(a), Some(b)) = (&self.gain_vs_baseline, &other.gain_vs_baseline) {
            a.hist.check_layout(&b.hist)?;
        }
        Ok(())
    }

    /// Folds `other` in; [`FleetStats::merge`] has run
    /// [`Self::check_merge`] on the pair first.
    fn merge(&mut self, other: &PolicyStats) -> Result<(), FleetError> {
        self.sessions = self.sessions.wrapping_add(other.sessions);
        self.qoe.merge(&other.qoe);
        self.bitrate_kbps.merge(&other.bitrate_kbps);
        self.rebuffer_ratio.merge(&other.rebuffer_ratio);
        self.stall_hist.merge(&other.stall_hist)?;
        self.switch_hist.merge(&other.switch_hist)?;
        self.intentional_stall_q = self
            .intentional_stall_q
            .wrapping_add(other.intentional_stall_q);
        if let (Some(a), Some(b)) = (&mut self.gain_vs_baseline, &other.gain_vs_baseline) {
            a.merge(b)?;
        }
        Ok(())
    }

    fn reset(&mut self) {
        self.sessions = 0;
        self.qoe = Moments::default();
        self.bitrate_kbps = Moments::default();
        self.rebuffer_ratio = Moments::default();
        self.stall_hist.reset();
        self.switch_hist.reset();
        self.intentional_stall_q = 0;
        if let Some(g) = &mut self.gain_vs_baseline {
            g.reset();
        }
    }
}

/// Per-policy QoE aggregates conditioned on one **trace family** — the
/// scenario-diversity counterpart of the global [`PolicyStats`]. Memory
/// is `O(families × policies)`, so family conditioning rides along the
/// streaming fold for free.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyStats {
    /// Family key, derived from the trace-name prefix (`hsdpa`, `fcc`,
    /// `diurnal`, `burst`, `cell4`, …) — see [`family_of`].
    pub family: String,
    /// Per-policy QoE accumulators, in matrix policy order.
    pub per_policy: Vec<FamilyPolicyStats>,
}

/// One policy's QoE accumulator within one trace family.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyPolicyStats {
    /// The policy.
    pub policy: PolicyKind,
    /// Sessions of this family folded in.
    pub sessions: u64,
    /// True-QoE accumulator over this family's sessions.
    pub qoe: Moments,
}

/// Whether `family` holds exactly the policies of `axis`, in axis order.
fn family_axis_matches(family: &FamilyStats, axis: &[PolicyStats]) -> bool {
    family.per_policy.len() == axis.len()
        && family
            .per_policy
            .iter()
            .zip(axis)
            .all(|(f, p)| f.policy == p.policy)
}

/// The family key of a trace name: the prefix before the first `-`,
/// `@` or `+`. Generated traces are named `{family}-…`, and perturbation
/// decoration always starts with `@x` or `+n` (see
/// `ThroughputTrace::perturbed_name`), so a perturbed trace keeps its
/// base trace's family even when the base name has no `-`. Names without
/// any of the three are their own family.
#[must_use]
pub fn family_of(trace_name: &str) -> &str {
    trace_name
        .split(['-', '@', '+'])
        .next()
        .unwrap_or(trace_name)
}

/// The order-independent part of a fleet report: everything here is
/// bit-for-bit identical for the same experiment + matrix regardless of
/// worker count or shard split — the result is defined as the
/// canonical-tile-order reduction of [`TileStats`] partials, and the
/// exact merge makes every evaluation grouping agree with it.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStats {
    /// Total sessions simulated.
    pub sessions: u64,
    /// The gain baseline policy.
    pub baseline: PolicyKind,
    /// Per-policy aggregates, in matrix policy order.
    pub per_policy: Vec<PolicyStats>,
    /// Per-trace-family aggregates, sorted by family key — a
    /// merge-order-free ordering, unlike the old first-seen fold order.
    pub per_family: Vec<FamilyStats>,
}

impl FleetStats {
    /// Fresh all-zero aggregates over a policy axis — the identity
    /// element of [`Self::merge`] for that axis.
    #[must_use]
    pub fn new(policies: &[PolicyKind], baseline: PolicyKind) -> Self {
        Self {
            sessions: 0,
            baseline,
            per_policy: policies
                .iter()
                .map(|&p| PolicyStats::new(p, p == baseline))
                .collect(),
            per_family: Vec::new(),
        }
    }

    /// Zeroes the aggregates, keeping the axes — so a reusable partial
    /// never reallocates its fixed-shape state.
    pub fn reset(&mut self) {
        self.sessions = 0;
        for s in &mut self.per_policy {
            s.reset();
        }
        self.per_family.clear();
    }

    /// Folds another partial aggregate over the **same axes** in — the
    /// merge half of the collection contract. Every accumulator merges
    /// as exact integer sums, so this is associative and commutative:
    /// the canonical-tile-order reduction the determinism contract is
    /// defined over can be evaluated in any grouping (worker shards,
    /// process shards) without moving a bit.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Shard`] when the two sides disagree on the
    /// baseline, the policy axis, a family's policies, or an accumulator
    /// layout. Everything is checked before anything is folded, so a
    /// rejected merge leaves `self` unchanged.
    pub fn merge(&mut self, other: &FleetStats) -> Result<(), FleetError> {
        if self.baseline != other.baseline {
            return Err(FleetError::Shard(format!(
                "merge baseline mismatch: {} vs {}",
                self.baseline.label(),
                other.baseline.label()
            )));
        }
        if self.per_policy.len() != other.per_policy.len()
            || self
                .per_policy
                .iter()
                .zip(&other.per_policy)
                .any(|(a, b)| a.policy != b.policy)
        {
            return Err(FleetError::Shard("merge policy axes differ".into()));
        }
        for (a, b) in self.per_policy.iter().zip(&other.per_policy) {
            a.check_merge(b)?;
        }
        // Every family carries the whole policy axis in axis order, so
        // checking the incoming families against the (shared) axis also
        // checks them against the families they merge into.
        if let Some(bf) = other
            .per_family
            .iter()
            .find(|f| !family_axis_matches(f, &self.per_policy))
        {
            return Err(FleetError::Shard(format!(
                "family `{}` policy axes differ",
                bf.family
            )));
        }
        self.sessions = self.sessions.wrapping_add(other.sessions);
        for (a, b) in self.per_policy.iter_mut().zip(&other.per_policy) {
            a.merge(b)?;
        }
        for bf in &other.per_family {
            match self
                .per_family
                .binary_search_by(|f| f.family.as_str().cmp(&bf.family))
            {
                Ok(i) => {
                    let af = &mut self.per_family[i];
                    for (a, b) in af.per_policy.iter_mut().zip(&bf.per_policy) {
                        a.sessions = a.sessions.wrapping_add(b.sessions);
                        a.qoe.merge(&b.qoe);
                    }
                }
                Err(i) => self.per_family.insert(i, bf.clone()),
            }
        }
        Ok(())
    }

    /// Folds one completed cell (all policies' results, in matrix policy
    /// order) into the aggregates.
    pub(crate) fn fold_cell(&mut self, cells: &[CellResult]) {
        self.fold_group(&cells[0].trace, cells.iter().map(CellResult::score));
    }

    /// Folds one group of scored lanes (all policies' outcomes on one
    /// network, in matrix policy order) into the aggregates — the same
    /// fold as [`Self::fold_cell`], for callers that never build cells.
    /// The executor's workers fold every tile's lanes into their
    /// shard-local partial with this.
    pub(crate) fn fold_scores(&mut self, trace_name: &str, scores: &[LaneScore]) {
        self.fold_group(trace_name, scores.iter().copied());
    }

    /// The one group fold behind [`Self::fold_cell`] and
    /// [`Self::fold_scores`]: every outcome of the group shares the
    /// trace named `trace_name`.
    fn fold_group(
        &mut self,
        trace_name: &str,
        group: impl ExactSizeIterator<Item = LaneScore> + Clone,
    ) {
        debug_assert_eq!(group.len(), self.per_policy.len());
        let base_idx = self
            .per_policy
            .iter()
            .position(|s| s.policy == self.baseline)
            .expect("baseline is in the policy axis");
        let base_qoe = group
            .clone()
            .nth(base_idx)
            .expect("the group covers the policy axis")
            .qoe01;
        for (stats, score) in self.per_policy.iter_mut().zip(group.clone()) {
            self.sessions += 1;
            stats.fold(&score);
            if let Some(gain) = &mut stats.gain_vs_baseline {
                // Same skip rule as `sensei_core::qoe_gains_over`: cells
                // whose baseline bottomed out at 0 have no relative gain.
                if base_qoe > 0.0 {
                    gain.add((score.qoe01 - base_qoe) / base_qoe * 100.0);
                }
            }
        }
        // Family-conditional fold: the family is keyed once off the
        // shared trace name. The family list stays sorted by key — an
        // ordering no fold or merge order can perturb.
        let family = family_of(trace_name);
        let idx = match self
            .per_family
            .binary_search_by(|f| f.family.as_str().cmp(family))
        {
            Ok(idx) => idx,
            Err(idx) => {
                self.per_family.insert(
                    idx,
                    FamilyStats {
                        family: family.to_string(),
                        per_policy: self
                            .per_policy
                            .iter()
                            .map(|s| FamilyPolicyStats {
                                policy: s.policy,
                                sessions: 0,
                                qoe: Moments::default(),
                            })
                            .collect(),
                    },
                );
                idx
            }
        };
        for (stats, score) in self.per_family[idx].per_policy.iter_mut().zip(group) {
            stats.sessions += 1;
            stats.qoe.push(score.qoe01);
        }
    }

    /// Aggregates for one policy.
    #[must_use]
    pub fn policy(&self, kind: PolicyKind) -> Option<&PolicyStats> {
        self.per_policy.iter().find(|s| s.policy == kind)
    }

    /// Aggregates for one trace family.
    #[must_use]
    pub fn family(&self, family: &str) -> Option<&FamilyStats> {
        self.per_family.iter().find(|f| f.family == family)
    }
}

/// One tile's partial aggregates — the unit of the canonical reduction.
///
/// The determinism contract is defined over these: fold each tile's
/// cells (in cell order) into a `TileStats`, then reduce the tiles in
/// canonical tile order with [`FleetStats::merge`]. Because every
/// accumulator folds and merges exactly, the executor is free to
/// evaluate that reduction in any grouping — each worker folds its own
/// tiles straight into a shard-local [`FleetStats`] and the collector
/// merges O(workers) partials — and still produce the bit-identical
/// [`FleetStats`]. The fleet tests keep this type as their reference.
#[derive(Debug, Clone, PartialEq)]
pub struct TileStats {
    stats: FleetStats,
}

impl TileStats {
    /// Fresh tile partial over the given axes.
    #[must_use]
    pub fn new(policies: &[PolicyKind], baseline: PolicyKind) -> Self {
        Self {
            stats: FleetStats::new(policies, baseline),
        }
    }

    /// Zeroes the partial for reuse on the next tile.
    pub fn reset(&mut self) {
        self.stats.reset();
    }

    /// Folds one completed cell (all policies' results, in matrix policy
    /// order) into the partial.
    ///
    /// # Panics
    ///
    /// Panics when the baseline policy is missing from the axes the
    /// partial was built over.
    pub fn fold_cell(&mut self, cells: &[CellResult]) {
        self.stats.fold_cell(cells);
    }

    /// The folded partial.
    #[must_use]
    pub fn stats(&self) -> &FleetStats {
        &self.stats
    }
}

/// Coarse wall-clock breakdown of one fleet run, recorded by plain
/// `Instant` reads whether or not full telemetry is on: `setup_s` is the
/// executor's pre-scope work (matrix checks, channel construction),
/// `execute_s` the worker scope's wall time — simulation plus each
/// worker's own shard-local folding (the `shard_fold` telemetry phase
/// breaks the latter out) — and `collect_s` the final reduction of the
/// O(workers) shard partials after the scope ends. The three sum to
/// approximately `wall_time_s`. Collection no longer scales with session
/// count: `collect_s` covers `workers − 1` merges of fixed-shape
/// partials, however many million sessions streamed through.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunPhases {
    /// Seconds spent before the worker scope started.
    pub setup_s: f64,
    /// Seconds of worker-scope wall time (simulation + shard-local
    /// folds).
    pub execute_s: f64,
    /// Seconds the collector spent merging the shard partials at the
    /// end.
    pub collect_s: f64,
}

/// The tile slice a sharded run covered — attached to partial
/// [`FleetReport`]s so [`merge_reports`] can verify that N partials
/// actually partition one matrix before combining them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSlice {
    /// This shard's index in `0..count`.
    pub index: u64,
    /// Total shards in the split.
    pub count: u64,
    /// First tile of this shard's contiguous range (inclusive).
    pub tile_lo: u64,
    /// One past the last tile of the range (exclusive).
    pub tile_hi: u64,
    /// Tiles in the whole (unsharded) matrix.
    pub total_tiles: u64,
}

/// Outcome of a fleet run: the deterministic aggregates plus (wall-clock,
/// execution-dependent) throughput figures.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The order-independent aggregates — compare these across runs.
    pub stats: FleetStats,
    /// Workers the run used.
    pub workers: usize,
    /// Wall-clock duration of the run in seconds.
    pub wall_time_s: f64,
    /// Sessions per second of wall-clock time.
    pub sessions_per_sec: f64,
    /// Setup / execute / collect wall-time split (always recorded).
    pub phases: RunPhases,
    /// Merged telemetry shards, when the run had telemetry enabled.
    /// Serialized in the optional `telemetry` JSON section, which
    /// [`Self::diff`] ignores — only [`FleetStats`] participate in
    /// baseline comparisons.
    pub telemetry: Option<TelemetrySnapshot>,
    /// The tile slice this report covers when it came from a sharded run
    /// (`FleetConfig::with_shard`); `None` for a whole-matrix run or a
    /// [`merge_reports`] result.
    pub shard: Option<ShardSlice>,
}

impl FleetReport {
    /// A compact human-readable table of the per-policy aggregates.
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} sessions | {} workers | {:.1} s | {:.0} sessions/s",
            self.stats.sessions, self.workers, self.wall_time_s, self.sessions_per_sec
        );
        let _ = writeln!(
            out,
            "phases: setup {:.3} s | execute {:.3} s | collect {:.3} s",
            self.phases.setup_s, self.phases.execute_s, self.phases.collect_s
        );
        let _ = writeln!(
            out,
            "{:<24} {:>8} {:>8} {:>8} {:>8} {:>10} {:>9}",
            "policy", "mean QoE", "std", "stall%", "switches", "gain>0 (%)", "Δmean (%)"
        );
        for s in &self.stats.per_policy {
            let (pos, dmean) = s
                .gain_vs_baseline
                .as_ref()
                .map(|g| {
                    (
                        format!("{:.1}", g.fraction_positive() * 100.0),
                        format!("{:+.1}", g.stats.mean()),
                    )
                })
                .unwrap_or_else(|| ("base".to_string(), "base".to_string()));
            let _ = writeln!(
                out,
                "{:<24} {:>8.3} {:>8.3} {:>8.2} {:>8.1} {:>10} {:>9}",
                s.policy.label(),
                s.qoe.mean(),
                s.qoe.std_dev(),
                s.rebuffer_ratio.mean() * 100.0,
                s.mean_switches(),
                pos,
                dmean
            );
        }
        out
    }
}

fn shard_slice(report: &FleetReport) -> Result<ShardSlice, FleetError> {
    report.shard.ok_or_else(|| {
        FleetError::Shard(
            "merge_reports needs partial (sharded) reports; an input has no shard section".into(),
        )
    })
}

/// Combines N partial reports — one per shard of a shard-plan split —
/// into the whole-matrix report, bit-identical in its [`FleetStats`] to
/// the single-process run (exact merges; see [`FleetStats::merge`]).
///
/// Wall-clock fields combine as a parallel execution would: `wall_time_s`
/// is the slowest shard's, `workers` the fleet-wide total, throughput the
/// total sessions over the slowest shard's wall time, and the phase
/// splits sum. Telemetry merges when every partial carries it (otherwise
/// the merged report has none).
///
/// # Errors
///
/// Returns [`FleetError::Shard`] unless the inputs are exactly one
/// report per shard index `0..count`, agreeing on the shard count and
/// total tile count, with ranges that partition `0..total_tiles` — and
/// propagates stats-merge failures when aggregates disagree on axes.
pub fn merge_reports(reports: &[FleetReport]) -> Result<FleetReport, FleetError> {
    let first = reports
        .first()
        .ok_or_else(|| FleetError::Shard("merge_reports needs at least one report".into()))?;
    let first_slice = shard_slice(first)?;
    let count = first_slice.count;
    if u64::try_from(reports.len()).ok() != Some(count) {
        return Err(FleetError::Shard(format!(
            "shard split expects {count} reports, got {}",
            reports.len()
        )));
    }
    let mut by_index: Vec<Option<&FleetReport>> = vec![None; reports.len()];
    for report in reports {
        let slice = shard_slice(report)?;
        if slice.count != count || slice.total_tiles != first_slice.total_tiles {
            return Err(FleetError::Shard(format!(
                "shard {}/{} over {} tiles does not match the first report's split ({count} \
                 shards over {} tiles)",
                slice.index, slice.count, slice.total_tiles, first_slice.total_tiles
            )));
        }
        let slot = usize::try_from(slice.index)
            .ok()
            .and_then(|i| by_index.get_mut(i))
            .ok_or_else(|| {
                FleetError::Shard(format!(
                    "shard index {} out of range for count {count}",
                    slice.index
                ))
            })?;
        if slot.is_some() {
            return Err(FleetError::Shard(format!(
                "duplicate shard index {}",
                slice.index
            )));
        }
        *slot = Some(report);
    }
    // N slots, N distinct in-range indices: every slot is filled.
    let ordered: Vec<&FleetReport> = by_index
        .into_iter()
        .map(|slot| slot.expect("pigeonhole"))
        .collect();
    // The ranges must tile 0..total_tiles with no gap or overlap.
    let mut next_tile = 0;
    for report in &ordered {
        let slice = report.shard.expect("validated above");
        if slice.tile_lo != next_tile || slice.tile_hi < slice.tile_lo {
            return Err(FleetError::Shard(format!(
                "shard {} covers tiles [{}, {}) but the previous shard ended at {next_tile}",
                slice.index, slice.tile_lo, slice.tile_hi
            )));
        }
        next_tile = slice.tile_hi;
    }
    if next_tile != first_slice.total_tiles {
        return Err(FleetError::Shard(format!(
            "shard ranges cover {next_tile} of {} tiles",
            first_slice.total_tiles
        )));
    }
    let mut stats = ordered[0].stats.clone();
    for report in &ordered[1..] {
        stats.merge(&report.stats)?;
    }
    // sensei-lint: allow(no-float-accumulation) — max-fold over wall times; observability only, diff() ignores it
    let wall_time_s = ordered.iter().map(|r| r.wall_time_s).fold(0.0, f64::max);
    let mut phases = RunPhases::default();
    for r in &ordered {
        // sensei-lint: allow(no-float-accumulation) — RunPhases are wall-clock observability outside the merge law
        phases.setup_s += r.phases.setup_s;
        // sensei-lint: allow(no-float-accumulation) — RunPhases are wall-clock observability outside the merge law
        phases.execute_s += r.phases.execute_s;
        // sensei-lint: allow(no-float-accumulation) — RunPhases are wall-clock observability outside the merge law
        phases.collect_s += r.phases.collect_s;
    }
    let telemetry = if ordered.iter().all(|r| r.telemetry.is_some()) {
        let mut shard = TelemetryShard::new();
        for r in &ordered {
            shard.merge(&r.telemetry.as_ref().expect("all present").shard);
        }
        Some(TelemetrySnapshot::from_shard(shard))
    } else {
        None
    };
    Ok(FleetReport {
        sessions_per_sec: if wall_time_s > 0.0 {
            stats.sessions as f64 / wall_time_s
        } else {
            0.0
        },
        stats,
        workers: ordered.iter().map(|r| r.workers).sum(),
        wall_time_s,
        phases,
        telemetry,
        shard: None,
    })
}

/// Version tag of the persisted report format; bumped on any schema
/// change so stale baselines fail with a clear message instead of a
/// field-level parse error. `/2` added the per-family aggregates; `/3`
/// switched the moment accumulators to exact quantized integer sums and
/// added the `shard` section partial reports carry.
const FORMAT_TAG: &str = "sensei-fleet-report/3";

fn moments_to_json(m: &Moments) -> Json {
    // The i128 sums cannot ride in a JSON number (f64 mantissa), so they
    // persist as decimal strings — exact round trip by construction.
    obj([
        ("count", Json::Num(m.count() as f64)),
        ("sum_q", Json::Str(m.sum_q().to_string())),
        ("sumsq_q", Json::Str(m.sumsq_q().to_string())),
    ])
}

fn hist_to_json(h: &Histogram) -> Json {
    obj([
        ("lo", Json::Num(h.lo())),
        ("hi", Json::Num(h.hi())),
        (
            "counts",
            Json::Arr(h.counts().iter().map(|&c| Json::Num(c as f64)).collect()),
        ),
    ])
}

/// Field-lookup helpers for deserialization; every miss names the path
/// it failed at so a corrupted baseline is diagnosable.
fn field<'a>(v: &'a Json, key: &str, ctx: &str) -> Result<&'a Json, FleetError> {
    v.get(key)
        .ok_or_else(|| FleetError::Persist(format!("missing field `{ctx}.{key}`")))
}

fn num_field(v: &Json, key: &str, ctx: &str) -> Result<f64, FleetError> {
    field(v, key, ctx)?
        .as_f64()
        .ok_or_else(|| FleetError::Persist(format!("field `{ctx}.{key}` is not a number")))
}

fn u64_field(v: &Json, key: &str, ctx: &str) -> Result<u64, FleetError> {
    field(v, key, ctx)?
        .as_u64()
        .ok_or_else(|| FleetError::Persist(format!("field `{ctx}.{key}` is not a whole count")))
}

/// Quantized sums persist as decimal strings (`i128` does not fit in a
/// JSON number).
fn i128_field(v: &Json, key: &str, ctx: &str) -> Result<i128, FleetError> {
    field(v, key, ctx)?
        .as_str()
        .and_then(|s| s.parse::<i128>().ok())
        .ok_or_else(|| {
            FleetError::Persist(format!(
                "field `{ctx}.{key}` is not a decimal integer string"
            ))
        })
}

fn moments_from_json(v: &Json, ctx: &str) -> Result<Moments, FleetError> {
    Ok(Moments::from_raw(
        u64_field(v, "count", ctx)?,
        i128_field(v, "sum_q", ctx)?,
        i128_field(v, "sumsq_q", ctx)?,
    ))
}

fn hist_from_json(v: &Json, ctx: &str) -> Result<Histogram, FleetError> {
    let lo = num_field(v, "lo", ctx)?;
    let hi = num_field(v, "hi", ctx)?;
    let counts = field(v, "counts", ctx)?
        .as_arr()
        .ok_or_else(|| FleetError::Persist(format!("field `{ctx}.counts` is not an array")))?
        .iter()
        .map(|c| {
            c.as_u64()
                .ok_or_else(|| FleetError::Persist(format!("`{ctx}.counts` entry is not a count")))
        })
        .collect::<Result<Vec<u64>, _>>()?;
    Histogram::from_parts(lo, hi, counts).map_err(|e| match e {
        FleetError::Persist(msg) => FleetError::Persist(format!("`{ctx}` has an {msg}")),
        e => e,
    })
}

fn telemetry_to_json(t: &TelemetrySnapshot) -> Json {
    obj([
        (
            "counters",
            obj(Counter::ALL.map(|c| (c.name(), Json::Num(t.counter(c) as f64)))),
        ),
        (
            "phases",
            obj(Phase::ALL.map(|p| {
                (
                    p.name(),
                    obj([
                        ("calls", Json::Num(t.shard.phase_calls(p) as f64)),
                        ("ns", Json::Num(t.shard.phase_ns(p) as f64)),
                    ]),
                )
            })),
        ),
        (
            "hists",
            obj(Hist::ALL.map(|h| {
                (
                    h.name(),
                    Json::Arr(
                        t.shard
                            .hist(h)
                            .iter()
                            .map(|&c| Json::Num(c as f64))
                            .collect(),
                    ),
                )
            })),
        ),
    ])
}

/// Parses a `telemetry` section written by [`telemetry_to_json`]. Names
/// absent from the document default to zero and unknown names are
/// ignored, so the section survives catalog growth in either direction.
fn telemetry_from_json(v: &Json) -> Result<TelemetrySnapshot, FleetError> {
    let mut shard = TelemetryShard::new();
    let counters = field(v, "counters", "telemetry")?;
    for c in Counter::ALL {
        if let Some(n) = counters.get(c.name()) {
            shard.counters[c.idx()] = n.as_u64().ok_or_else(|| {
                FleetError::Persist(format!("`telemetry.counters.{}` is not a count", c.name()))
            })?;
        }
    }
    let phases = field(v, "phases", "telemetry")?;
    for p in Phase::ALL {
        if let Some(entry) = phases.get(p.name()) {
            let ctx = format!("telemetry.phases.{}", p.name());
            shard.phase_calls[p.idx()] = u64_field(entry, "calls", &ctx)?;
            shard.phase_ns[p.idx()] = u64_field(entry, "ns", &ctx)?;
        }
    }
    let hists = field(v, "hists", "telemetry")?;
    for h in Hist::ALL {
        if let Some(bins) = hists.get(h.name()) {
            let ctx = format!("telemetry.hists.{}", h.name());
            let bins = bins
                .as_arr()
                .ok_or_else(|| FleetError::Persist(format!("`{ctx}` is not an array")))?;
            if bins.len() != Hist::BINS {
                return Err(FleetError::Persist(format!(
                    "`{ctx}` has {} bins (this build expects {})",
                    bins.len(),
                    Hist::BINS
                )));
            }
            for (slot, bin) in shard.hists[h.idx()].iter_mut().zip(bins) {
                *slot = bin
                    .as_u64()
                    .ok_or_else(|| FleetError::Persist(format!("`{ctx}` entry is not a count")))?;
            }
        }
    }
    Ok(TelemetrySnapshot::from_shard(shard))
}

impl FleetReport {
    /// Serializes the report — aggregates and throughput figures — to the
    /// persistence JSON format (`BASELINE_fleet.json`). Floats are written
    /// in shortest-round-trip form, so
    /// `from_json(to_json()).stats == stats` holds **bit for bit**.
    #[must_use]
    pub fn to_json(&self) -> String {
        let per_policy: Vec<Json> = self
            .stats
            .per_policy
            .iter()
            .map(|s| {
                let gain = s.gain_vs_baseline.as_ref().map_or(Json::Null, |g| {
                    obj([
                        ("hist", hist_to_json(&g.hist)),
                        ("stats", moments_to_json(&g.stats)),
                        ("positive", Json::Num(g.positive() as f64)),
                    ])
                });
                obj([
                    ("policy", Json::Str(s.policy.label().to_string())),
                    ("sessions", Json::Num(s.sessions as f64)),
                    ("qoe", moments_to_json(&s.qoe)),
                    ("bitrate_kbps", moments_to_json(&s.bitrate_kbps)),
                    ("rebuffer_ratio", moments_to_json(&s.rebuffer_ratio)),
                    ("stall_hist", hist_to_json(&s.stall_hist)),
                    ("switch_hist", hist_to_json(&s.switch_hist)),
                    (
                        "intentional_stall_q",
                        Json::Str(s.intentional_stall_q.to_string()),
                    ),
                    ("gain_vs_baseline", gain),
                ])
            })
            .collect();
        let per_family: Vec<Json> = self
            .stats
            .per_family
            .iter()
            .map(|f| {
                obj([
                    ("family", Json::Str(f.family.clone())),
                    (
                        "per_policy",
                        Json::Arr(
                            f.per_policy
                                .iter()
                                .map(|s| {
                                    obj([
                                        ("policy", Json::Str(s.policy.label().to_string())),
                                        ("sessions", Json::Num(s.sessions as f64)),
                                        ("qoe", moments_to_json(&s.qoe)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        obj([
            ("format", Json::Str(FORMAT_TAG.to_string())),
            ("workers", Json::Num(self.workers as f64)),
            ("wall_time_s", Json::Num(self.wall_time_s)),
            ("sessions_per_sec", Json::Num(self.sessions_per_sec)),
            (
                "phases",
                obj([
                    ("setup_s", Json::Num(self.phases.setup_s)),
                    ("execute_s", Json::Num(self.phases.execute_s)),
                    ("collect_s", Json::Num(self.phases.collect_s)),
                ]),
            ),
            (
                "telemetry",
                self.telemetry
                    .as_ref()
                    .map_or(Json::Null, telemetry_to_json),
            ),
            (
                "shard",
                self.shard.map_or(Json::Null, |s| {
                    obj([
                        ("index", Json::Num(s.index as f64)),
                        ("count", Json::Num(s.count as f64)),
                        ("tile_lo", Json::Num(s.tile_lo as f64)),
                        ("tile_hi", Json::Num(s.tile_hi as f64)),
                        ("total_tiles", Json::Num(s.total_tiles as f64)),
                    ])
                }),
            ),
            (
                "stats",
                obj([
                    ("sessions", Json::Num(self.stats.sessions as f64)),
                    (
                        "baseline",
                        Json::Str(self.stats.baseline.label().to_string()),
                    ),
                    ("per_policy", Json::Arr(per_policy)),
                    ("per_family", Json::Arr(per_family)),
                ]),
            ),
        ])
        .to_pretty()
    }

    /// Parses a report persisted by [`Self::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Persist`] on syntax errors, an unknown
    /// format version, missing or mistyped fields, unknown policy labels,
    /// a baseline outside the policy list, a family list that is not
    /// strictly sorted by key, or a family whose policies differ from the
    /// per-policy axis.
    pub fn from_json(text: &str) -> Result<Self, FleetError> {
        let doc = json::parse(text).map_err(FleetError::Persist)?;
        let format = field(&doc, "format", "report")?
            .as_str()
            .ok_or_else(|| FleetError::Persist("field `report.format` is not a string".into()))?;
        if format != FORMAT_TAG {
            return Err(FleetError::Persist(format!(
                "unsupported report format `{format}` (this build reads `{FORMAT_TAG}`)"
            )));
        }
        let policy_kind = |v: &Json, ctx: &str| -> Result<PolicyKind, FleetError> {
            let label = field(v, "policy", ctx)?.as_str().ok_or_else(|| {
                FleetError::Persist(format!("field `{ctx}.policy` is not a string"))
            })?;
            PolicyKind::from_label(label)
                .ok_or_else(|| FleetError::Persist(format!("unknown policy label `{label}`")))
        };
        let stats_v = field(&doc, "stats", "report")?;
        let baseline_label = field(stats_v, "baseline", "stats")?
            .as_str()
            .ok_or_else(|| FleetError::Persist("field `stats.baseline` is not a string".into()))?;
        let baseline = PolicyKind::from_label(baseline_label).ok_or_else(|| {
            FleetError::Persist(format!("unknown baseline policy `{baseline_label}`"))
        })?;
        let per_policy_v = field(stats_v, "per_policy", "stats")?
            .as_arr()
            .ok_or_else(|| FleetError::Persist("`stats.per_policy` is not an array".into()))?;
        let mut per_policy = Vec::with_capacity(per_policy_v.len());
        for (i, v) in per_policy_v.iter().enumerate() {
            let ctx = format!("per_policy[{i}]");
            let gain_v = field(v, "gain_vs_baseline", &ctx)?;
            let gain_vs_baseline = if gain_v.is_null() {
                None
            } else {
                Some(GainCdf::from_parts(
                    hist_from_json(field(gain_v, "hist", &ctx)?, &ctx)?,
                    moments_from_json(field(gain_v, "stats", &ctx)?, &ctx)?,
                    u64_field(gain_v, "positive", &ctx)?,
                ))
            };
            // Policies are looked up by kind, so a repeated one would
            // shadow its twin and misreport the fleet.
            let policy = policy_kind(v, &ctx)?;
            if per_policy.iter().any(|s: &PolicyStats| s.policy == policy) {
                return Err(FleetError::Persist(format!(
                    "`stats.per_policy` repeats policy `{}`",
                    policy.label()
                )));
            }
            per_policy.push(PolicyStats {
                policy,
                sessions: u64_field(v, "sessions", &ctx)?,
                qoe: moments_from_json(field(v, "qoe", &ctx)?, &ctx)?,
                bitrate_kbps: moments_from_json(field(v, "bitrate_kbps", &ctx)?, &ctx)?,
                rebuffer_ratio: moments_from_json(field(v, "rebuffer_ratio", &ctx)?, &ctx)?,
                stall_hist: hist_from_json(field(v, "stall_hist", &ctx)?, &ctx)?,
                switch_hist: hist_from_json(field(v, "switch_hist", &ctx)?, &ctx)?,
                intentional_stall_q: i128_field(v, "intentional_stall_q", &ctx)?,
                gain_vs_baseline,
            });
        }
        if !per_policy.iter().any(|s| s.policy == baseline) {
            return Err(FleetError::Persist(format!(
                "baseline `{baseline_label}` is not among the per-policy stats"
            )));
        }
        let per_family_v = field(stats_v, "per_family", "stats")?
            .as_arr()
            .ok_or_else(|| FleetError::Persist("`stats.per_family` is not an array".into()))?;
        let mut per_family: Vec<FamilyStats> = Vec::with_capacity(per_family_v.len());
        for (i, v) in per_family_v.iter().enumerate() {
            let ctx = format!("per_family[{i}]");
            let family = field(v, "family", &ctx)?
                .as_str()
                .ok_or_else(|| {
                    FleetError::Persist(format!("field `{ctx}.family` is not a string"))
                })?
                .to_string();
            let policies_v = field(v, "per_policy", &ctx)?.as_arr().ok_or_else(|| {
                FleetError::Persist(format!("`{ctx}.per_policy` is not an array"))
            })?;
            let mut stats = Vec::with_capacity(policies_v.len());
            for (j, pv) in policies_v.iter().enumerate() {
                let pctx = format!("{ctx}.per_policy[{j}]");
                stats.push(FamilyPolicyStats {
                    policy: policy_kind(pv, &pctx)?,
                    sessions: u64_field(pv, "sessions", &pctx)?,
                    qoe: moments_from_json(field(pv, "qoe", &pctx)?, &pctx)?,
                });
            }
            // `FleetStats::merge` binary-searches the family list, and
            // every family spans the whole policy axis: a list out of key
            // order, a duplicate key or a foreign policy axis would merge
            // silently wrong, so none of them parses.
            if let Some(prev) = per_family.last().filter(|prev| prev.family >= family) {
                return Err(FleetError::Persist(format!(
                    "`stats.per_family` is not strictly sorted by key: `{}` before `{family}`",
                    prev.family
                )));
            }
            let family = FamilyStats {
                family,
                per_policy: stats,
            };
            if !family_axis_matches(&family, &per_policy) {
                return Err(FleetError::Persist(format!(
                    "`{ctx}.per_policy` does not match the `stats.per_policy` axis"
                )));
            }
            per_family.push(family);
        }
        Ok(Self {
            stats: FleetStats {
                sessions: u64_field(stats_v, "sessions", "stats")?,
                baseline,
                per_policy,
                per_family,
            },
            workers: usize::try_from(u64_field(&doc, "workers", "report")?)
                .map_err(|_| FleetError::Persist("worker count out of range".into()))?,
            wall_time_s: num_field(&doc, "wall_time_s", "report")?,
            sessions_per_sec: num_field(&doc, "sessions_per_sec", "report")?,
            phases: {
                let v = field(&doc, "phases", "report")?;
                RunPhases {
                    setup_s: num_field(v, "setup_s", "phases")?,
                    execute_s: num_field(v, "execute_s", "phases")?,
                    collect_s: num_field(v, "collect_s", "phases")?,
                }
            },
            telemetry: match doc.get("telemetry") {
                Some(v) if !v.is_null() => Some(telemetry_from_json(v)?),
                _ => None,
            },
            shard: match doc.get("shard") {
                Some(v) if !v.is_null() => Some(ShardSlice {
                    index: u64_field(v, "index", "shard")?,
                    count: u64_field(v, "count", "shard")?,
                    tile_lo: u64_field(v, "tile_lo", "shard")?,
                    tile_hi: u64_field(v, "tile_hi", "shard")?,
                    total_tiles: u64_field(v, "total_tiles", "shard")?,
                }),
                _ => None,
            },
        })
    }

    /// Compares this report's deterministic aggregates against a
    /// `baseline` report (typically a checked-in `BASELINE_fleet.json`),
    /// pairing policies by kind and trace families by key. Wall-clock
    /// fields are ignored — only the order-independent [`FleetStats`]
    /// participate. Family pairing is what lets the diff **attribute** a
    /// policy-level QoE-mean drift to the family that actually moved.
    #[must_use]
    pub fn diff(&self, baseline: &FleetReport) -> FleetDiff {
        let mut drifts = Vec::new();
        let mut only_in_baseline = Vec::new();
        for b in &baseline.stats.per_policy {
            match self.stats.policy(b.policy) {
                Some(c) => drifts.push(PolicyDrift {
                    policy: b.policy,
                    baseline_qoe_mean: b.qoe.mean(),
                    current_qoe_mean: c.qoe.mean(),
                    baseline_sessions: b.sessions,
                    current_sessions: c.sessions,
                }),
                None => only_in_baseline.push(b.policy),
            }
        }
        let only_in_current = self
            .stats
            .per_policy
            .iter()
            .map(|s| s.policy)
            .filter(|p| baseline.stats.policy(*p).is_none())
            .collect();
        let mut family_drifts = Vec::new();
        let mut families_only_in_baseline = Vec::new();
        for bf in &baseline.stats.per_family {
            let Some(cf) = self.stats.family(&bf.family) else {
                families_only_in_baseline.push(bf.family.clone());
                continue;
            };
            for bp in &bf.per_policy {
                if let Some(cp) = cf.per_policy.iter().find(|cp| cp.policy == bp.policy) {
                    family_drifts.push(FamilyDrift {
                        family: bf.family.clone(),
                        policy: bp.policy,
                        baseline_qoe_mean: bp.qoe.mean(),
                        current_qoe_mean: cp.qoe.mean(),
                        baseline_sessions: bp.sessions,
                        current_sessions: cp.sessions,
                    });
                }
            }
        }
        let families_only_in_current = self
            .stats
            .per_family
            .iter()
            .map(|f| f.family.clone())
            .filter(|f| baseline.stats.family(f).is_none())
            .collect();
        FleetDiff {
            drifts,
            only_in_baseline,
            only_in_current,
            family_drifts,
            families_only_in_baseline,
            families_only_in_current,
            // A changed gain baseline re-anchors every gain CDF even when
            // the per-policy QoE means agree, so it is a structural
            // difference in its own right.
            baseline_changed: (self.stats.baseline != baseline.stats.baseline)
                .then_some((baseline.stats.baseline, self.stats.baseline)),
        }
    }
}

/// One policy's QoE-mean movement within one trace family — the
/// attribution record behind a policy-level drift.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyDrift {
    /// The trace family.
    pub family: String,
    /// The policy.
    pub policy: PolicyKind,
    /// Family-conditional QoE mean in the baseline report.
    pub baseline_qoe_mean: f64,
    /// Family-conditional QoE mean in the current report.
    pub current_qoe_mean: f64,
    /// Family sessions folded in the baseline report.
    pub baseline_sessions: u64,
    /// Family sessions folded in the current report.
    pub current_sessions: u64,
}

impl FamilyDrift {
    /// Signed family-conditional QoE-mean movement (current − baseline).
    #[must_use]
    pub fn delta(&self) -> f64 {
        self.current_qoe_mean - self.baseline_qoe_mean
    }
}

/// Per-policy QoE-mean movement between a baseline report and the
/// current one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyDrift {
    /// The policy.
    pub policy: PolicyKind,
    /// QoE mean in the baseline report.
    pub baseline_qoe_mean: f64,
    /// QoE mean in the current report.
    pub current_qoe_mean: f64,
    /// Sessions folded in the baseline report.
    pub baseline_sessions: u64,
    /// Sessions folded in the current report.
    pub current_sessions: u64,
}

impl PolicyDrift {
    /// Signed QoE-mean movement (current − baseline); negative is a
    /// regression.
    #[must_use]
    pub fn delta(&self) -> f64 {
        self.current_qoe_mean - self.baseline_qoe_mean
    }
}

/// Outcome of [`FleetReport::diff`]: per-policy QoE-mean drifts plus the
/// structural differences (policies present on only one side).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetDiff {
    /// Policies present in both reports, with their QoE-mean movement.
    pub drifts: Vec<PolicyDrift>,
    /// Policies only the baseline report has.
    pub only_in_baseline: Vec<PolicyKind>,
    /// Policies only the current report has.
    pub only_in_current: Vec<PolicyKind>,
    /// `(family, policy)` pairs present in both reports, with their
    /// family-conditional QoE-mean movement.
    pub family_drifts: Vec<FamilyDrift>,
    /// Trace families only the baseline report has.
    pub families_only_in_baseline: Vec<String>,
    /// Trace families only the current report has.
    pub families_only_in_current: Vec<String>,
    /// `Some((baseline's, current's))` when the two reports anchor their
    /// gain CDFs to different baseline policies.
    pub baseline_changed: Option<(PolicyKind, PolicyKind)>,
}

impl FleetDiff {
    /// Drifts whose QoE mean moved by more than `tolerance` in either
    /// direction, or whose session count changed (a matrix-shape change
    /// masquerading as a same-scenario run).
    #[must_use]
    pub fn drifted(&self, tolerance: f64) -> Vec<&PolicyDrift> {
        self.drifts
            .iter()
            .filter(|d| d.delta().abs() > tolerance || d.baseline_sessions != d.current_sessions)
            .collect()
    }

    /// Family-conditional drifts beyond `tolerance` (or with changed
    /// session counts) — which family a policy-level drift came from.
    /// Two families can also move in opposite directions and cancel at
    /// the policy level, so this catches compensating drift the global
    /// means hide.
    #[must_use]
    pub fn drifted_families(&self, tolerance: f64) -> Vec<&FamilyDrift> {
        self.family_drifts
            .iter()
            .filter(|d| d.delta().abs() > tolerance || d.baseline_sessions != d.current_sessions)
            .collect()
    }

    /// Whether the reports agree: same policy and family axes, same gain
    /// baseline, and no global or family-conditional drift beyond
    /// `tolerance`. This is the CI baseline gate.
    #[must_use]
    pub fn is_clean(&self, tolerance: f64) -> bool {
        self.only_in_baseline.is_empty()
            && self.only_in_current.is_empty()
            && self.families_only_in_baseline.is_empty()
            && self.families_only_in_current.is_empty()
            && self.baseline_changed.is_none()
            && self.drifted(tolerance).is_empty()
            && self.drifted_families(tolerance).is_empty()
    }

    /// A human-readable account of every difference (empty string when
    /// the diff is clean at `tolerance`), attributing policy-level drift
    /// to the trace families that moved.
    #[must_use]
    pub fn summary(&self, tolerance: f64) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for p in &self.only_in_baseline {
            let _ = writeln!(out, "policy {} missing from the current report", p.label());
        }
        for p in &self.only_in_current {
            let _ = writeln!(out, "policy {} missing from the baseline", p.label());
        }
        for f in &self.families_only_in_baseline {
            let _ = writeln!(out, "trace family `{f}` missing from the current report");
        }
        for f in &self.families_only_in_current {
            let _ = writeln!(out, "trace family `{f}` missing from the baseline");
        }
        if let Some((was, now)) = self.baseline_changed {
            let _ = writeln!(
                out,
                "gain baseline changed: {} -> {}",
                was.label(),
                now.label()
            );
        }
        for d in self.drifted(tolerance) {
            let _ = writeln!(
                out,
                "policy {}: QoE mean {:.6} -> {:.6} (Δ {:+.6}), sessions {} -> {}",
                d.policy.label(),
                d.baseline_qoe_mean,
                d.current_qoe_mean,
                d.delta(),
                d.baseline_sessions,
                d.current_sessions
            );
        }
        for d in self.drifted_families(tolerance) {
            let _ = writeln!(
                out,
                "  └ family `{}` moved {}: QoE mean {:.6} -> {:.6} (Δ {:+.6}), sessions {} -> {}",
                d.family,
                d.policy.label(),
                d.baseline_qoe_mean,
                d.current_qoe_mean,
                d.delta(),
                d.baseline_sessions,
                d.current_sessions
            );
        }
        out
    }
}

impl PolicyStats {
    /// Mean bitrate switches per session, estimated from the fixed-bin
    /// histogram (bin midpoints — exact enough for reporting).
    #[must_use]
    pub fn mean_switches(&self) -> f64 {
        if self.switch_hist.total() == 0 {
            return 0.0;
        }
        let width = MAX_SWITCHES / SWITCH_BINS as f64;
        let weighted: f64 = self
            .switch_hist
            .counts()
            .iter()
            .enumerate()
            .map(|(i, &c)| c as f64 * (i as f64 + 0.5) * width)
            .sum();
        weighted / self.switch_hist.total() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_match_closed_form() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut m = Moments::default();
        for x in xs {
            m.push(x);
        }
        assert_eq!(m.count(), 8);
        assert!((m.mean() - 5.0).abs() < 1e-9);
        assert!((m.variance() - 4.0).abs() < 1e-9);
        assert!((m.std_dev() - 2.0).abs() < 1e-9);
        // Degenerate cases: empty and single-observation accumulators.
        assert_eq!(Moments::default().mean(), 0.0);
        let mut one = Moments::default();
        one.push(3.5);
        assert_eq!(one.variance(), 0.0);
    }

    #[test]
    fn moments_merge_is_exact_for_any_grouping() {
        // The merge law the collection path rests on: any split of the
        // observation stream into partials, merged in any order, is
        // bit-identical to the sequential fold. `Moments` state is exact
        // integer sums, so `==` (derived `Eq`) is a bit comparison.
        let xs: Vec<f64> = (0..100)
            .map(|i| (crate::splitmix64(i) % 10_000) as f64 / 7.0 - 500.0)
            .collect();
        let mut sequential = Moments::default();
        for &x in &xs {
            sequential.push(x);
        }
        for split in [1usize, 3, 7, 100] {
            let mut partials: Vec<Moments> = vec![Moments::default(); split];
            for (i, &x) in xs.iter().enumerate() {
                partials[i % split].push(x);
            }
            // Forward fold.
            let mut fwd = Moments::default();
            for p in &partials {
                fwd.merge(p);
            }
            assert_eq!(fwd, sequential, "forward fold over {split} partials");
            // Reverse fold.
            let mut rev = Moments::default();
            for p in partials.iter().rev() {
                rev.merge(p);
            }
            assert_eq!(rev, sequential, "reverse fold over {split} partials");
        }
    }

    #[test]
    fn histogram_clamps_and_cdfs() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        for x in [-0.5, 0.1, 0.3, 0.6, 0.9, 2.0] {
            h.add(x);
        }
        assert_eq!(h.total(), 6);
        assert_eq!(h.counts(), &[2, 1, 1, 2]);
        assert!((h.cdf_at(0.5) - 0.5).abs() < 1e-12);
        assert!((h.cdf_at(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_exact_bin_edges_at_percent_and_kbps_magnitudes() {
        // Regression: the old absolute 1e-12 edge slop is below one ulp
        // for kbps-scale ranges, so exact-edge queries fell a whole bin
        // short on throughput histograms. The tolerance is now relative
        // to the bin width, so both magnitudes behave identically.
        // Percent scale (gain CDFs): edges at multiples of 5.
        let mut pct = Histogram::new(-100.0, 100.0, 40);
        for x in [-99.0, -12.0, 3.0, 42.0, 97.0] {
            pct.add(x);
        }
        for i in 0..40 {
            let edge = pct.bin_upper_edge(i);
            let below: u64 = pct.counts()[..=i].iter().sum();
            assert!(
                (pct.cdf_at(edge) - below as f64 / pct.total() as f64).abs() < 1e-12,
                "percent edge {edge}"
            );
        }
        // kbps scale (trace-family throughput histograms): a caller
        // walking the edges by accumulation (`x += width`, the usual
        // figure-script pattern) drifts from the internally computed
        // edges by up to ~1.8e-12 at this layout — beyond the old
        // absolute slop, so bin 9's exact-edge query used to fall one
        // whole bin short.
        let mut kbps = Histogram::new(200.0, 6000.0, 11);
        for x in [250.0, 900.0, 2500.0, 4400.0, 5950.0] {
            kbps.add(x);
        }
        let width = (6000.0 - 200.0) / 11.0;
        let mut drifted = false;
        let mut edge = 200.0;
        for i in 0..11 {
            edge += width;
            let below: u64 = kbps.counts()[..=i].iter().sum();
            assert!(
                (kbps.cdf_at(edge) - below as f64 / kbps.total() as f64).abs() < 1e-12,
                "accumulated kbps edge {edge} (bin {i})"
            );
            drifted |= kbps.bin_upper_edge(i) - edge > 1e-12;
        }
        assert!(
            drifted,
            "layout no longer exhibits >1e-12 edge drift; pick one that does"
        );
        // The tolerance must stay far below a bin width: a mid-bin query
        // still excludes its own bin.
        assert_eq!(kbps.cdf_at(300.0), 0.0);
    }

    #[test]
    fn gain_cdf_fraction_positive() {
        let mut g = GainCdf::new();
        for x in [-20.0, -5.0, 10.0, 30.0] {
            g.add(x);
        }
        assert!((g.fraction_positive() - 0.5).abs() < 1e-12);
        assert!((g.stats.mean() - 3.75).abs() < 1e-12);
        // A tie with the baseline (gain exactly 0) is not a win.
        let mut tie = GainCdf::new();
        tie.add(0.0);
        tie.add(5.0);
        assert!((tie.fraction_positive() - 0.5).abs() < 1e-12);
    }

    /// A small synthetic report with non-trivial accumulator state in
    /// every field (gain CDFs included).
    fn sample_report() -> FleetReport {
        let mk = |policy: &'static str, qoe01: f64, rr: f64| CellResult {
            video: "v".into(),
            genre: "Sports",
            trace: "t".into(),
            trace_mean_kbps: 1234.5,
            policy,
            qoe01,
            avg_bitrate_kbps: 1500.3,
            rebuffer_ratio: rr,
            delivered_bits: 1e8,
            intentional_stall_s: 0.25,
            bitrate_switches: 3,
        };
        let mut stats =
            FleetStats::new(&[PolicyKind::Bba, PolicyKind::SenseiFugu], PolicyKind::Bba);
        stats.fold_cell(&[mk("BBA", 0.51, 0.02), mk("SENSEI", 0.63, 0.01)]);
        stats.fold_cell(&[mk("BBA", 0.47, 0.06), mk("SENSEI", 0.44, 0.09)]);
        stats.fold_cell(&[mk("BBA", 1.0 / 3.0, 0.0), mk("SENSEI", 0.1 / 0.3, 0.0)]);
        let mut shard = TelemetryShard::new();
        shard.counters[Counter::Sessions.idx()] = 6;
        shard.counters[Counter::Tiles.idx()] = 3;
        shard.phase_calls[Phase::LaneSimulate.idx()] = 3;
        shard.phase_ns[Phase::LaneSimulate.idx()] = 123_456;
        shard.hists[Hist::LanesPerBatch.idx()][1] = 3;
        FleetReport {
            stats,
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

    #[test]
    fn report_json_round_trips_bit_for_bit() {
        let report = sample_report();
        let text = report.to_json();
        let back = FleetReport::from_json(&text).unwrap();
        // FleetStats derives PartialEq over every accumulator, so this is
        // a bit-for-bit comparison of means, m2s, and histogram counts.
        assert_eq!(report.stats, back.stats);
        assert_eq!(report.workers, back.workers);
        assert_eq!(report.wall_time_s.to_bits(), back.wall_time_s.to_bits());
        // Serialization is stable: a second round trip emits identical
        // bytes (checked-in baselines must not churn).
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn report_json_rejects_corruption() {
        let report = sample_report();
        let text = report.to_json();
        assert!(matches!(
            FleetReport::from_json("not json"),
            Err(FleetError::Persist(_))
        ));
        assert!(matches!(
            FleetReport::from_json("{}"),
            Err(FleetError::Persist(_))
        ));
        let bad_policy = text.replace("\"BBA\"", "\"NotAPolicy\"");
        assert!(matches!(
            FleetReport::from_json(&bad_policy),
            Err(FleetError::Persist(_))
        ));
        let bad_count = text.replace("\"workers\": 4", "\"workers\": -1");
        assert!(matches!(
            FleetReport::from_json(&bad_count),
            Err(FleetError::Persist(_))
        ));
        // `FleetStats::merge` binary-searches the family list, so a list
        // out of key order or with a duplicate key is rejected, as is a
        // family whose policies are not the per-policy axis.
        let with_families = |keys: &[&str]| {
            let mut r = sample_report();
            let template = r.stats.per_family[0].clone();
            r.stats.per_family = keys
                .iter()
                .map(|&family| FamilyStats {
                    family: family.to_string(),
                    ..template.clone()
                })
                .collect();
            r
        };
        assert!(FleetReport::from_json(&with_families(&["a", "b", "c"]).to_json()).is_ok());
        for keys in [
            ["c", "b", "a"],
            ["a", "c", "b"],
            ["a", "a", "b"],
            ["a", "b", "b"],
        ] {
            assert!(
                matches!(
                    FleetReport::from_json(&with_families(&keys).to_json()),
                    Err(FleetError::Persist(_))
                ),
                "{keys:?}"
            );
        }
        let mut swapped = with_families(&["a", "b"]);
        swapped.stats.per_family[1].per_policy.reverse();
        let mut short = with_families(&["a", "b"]);
        short.stats.per_family[0].per_policy.pop();
        let mut foreign = with_families(&["a"]);
        foreign.stats.per_family[0].per_policy[1].policy = PolicyKind::Fugu;
        for bad in [swapped, short, foreign] {
            assert!(matches!(
                FleetReport::from_json(&bad.to_json()),
                Err(FleetError::Persist(_))
            ));
        }
        // Unknown format versions fail with a version message, not a
        // field-level parse error.
        let bad_format = text.replace(FORMAT_TAG, "sensei-fleet-report/999");
        match FleetReport::from_json(&bad_format) {
            Err(FleetError::Persist(msg)) => {
                assert!(msg.contains("format"), "got: {msg}");
            }
            other => panic!("expected Persist error, got {other:?}"),
        }
    }

    #[test]
    fn diff_flags_qoe_mean_drift_and_axis_changes() {
        let baseline = sample_report();
        // Identical reports diff clean at any tolerance.
        let same = FleetReport::from_json(&baseline.to_json()).unwrap();
        let clean = same.diff(&baseline);
        assert!(clean.is_clean(0.0));
        assert_eq!(clean.summary(0.0), "");
        // Perturb one policy's QoE mean: flagged beyond tolerance, quiet
        // within it. A mean shift of δ is a sum shift of δ·count on the
        // quantized grid.
        let shift_mean = |m: &Moments, delta: f64| {
            Moments::from_raw(
                m.count(),
                m.sum_q() + quantize(delta) * i128::from(m.count()),
                m.sumsq_q(),
            )
        };
        let mut drifted = FleetReport::from_json(&baseline.to_json()).unwrap();
        let qoe = &mut drifted.stats.per_policy[1].qoe;
        *qoe = shift_mean(qoe, -0.01);
        let diff = drifted.diff(&baseline);
        assert!(!diff.is_clean(0.005));
        assert!(diff.is_clean(0.05));
        let drifts = diff.drifted(0.005);
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].policy, PolicyKind::SenseiFugu);
        assert!(drifts[0].delta() < 0.0);
        assert!(diff.summary(0.005).contains("SENSEI"));
        // An improvement is drift too (the baseline should be refreshed).
        let mut improved = FleetReport::from_json(&baseline.to_json()).unwrap();
        let qoe = &mut improved.stats.per_policy[1].qoe;
        *qoe = shift_mean(qoe, 0.01);
        let diff = improved.diff(&baseline);
        assert!(!diff.is_clean(0.005));
        // Axis changes are structural differences.
        let mut reshaped = FleetReport::from_json(&baseline.to_json()).unwrap();
        reshaped.stats.per_policy.pop();
        let diff = reshaped.diff(&baseline);
        assert_eq!(diff.only_in_baseline, vec![PolicyKind::SenseiFugu]);
        assert!(!diff.is_clean(f64::INFINITY));
        assert!(diff.summary(0.0).contains("missing from the current"));
        // Session-count changes are drift even when means agree.
        let mut resized = FleetReport::from_json(&baseline.to_json()).unwrap();
        resized.stats.per_policy[0].sessions += 1;
        assert!(!resized.diff(&baseline).is_clean(f64::INFINITY));
        // A changed gain baseline is structural: every gain CDF is
        // re-anchored even when the per-policy means agree.
        let mut reanchored = FleetReport::from_json(&baseline.to_json()).unwrap();
        reanchored.stats.baseline = PolicyKind::SenseiFugu;
        let diff = reanchored.diff(&baseline);
        assert_eq!(
            diff.baseline_changed,
            Some((PolicyKind::Bba, PolicyKind::SenseiFugu))
        );
        assert!(!diff.is_clean(f64::INFINITY));
        assert!(diff
            .summary(f64::INFINITY)
            .contains("gain baseline changed"));
    }

    #[test]
    fn family_conditional_aggregates_fold_and_attribute_drift() {
        let mk = |policy: &'static str, trace: &str, qoe01: f64| CellResult {
            video: "v".into(),
            genre: "Sports",
            trace: trace.into(),
            trace_mean_kbps: 1000.0,
            policy,
            qoe01,
            avg_bitrate_kbps: 1500.0,
            rebuffer_ratio: 0.05,
            delivered_bits: 1e8,
            intentional_stall_s: 0.0,
            bitrate_switches: 3,
        };
        let build = |hsdpa_fugu: f64, diurnal_fugu: f64| {
            let mut stats = FleetStats::new(&[PolicyKind::Bba, PolicyKind::Fugu], PolicyKind::Bba);
            stats.fold_cell(&[
                mk("BBA", "hsdpa-700k-s1", 0.5),
                mk("Fugu", "hsdpa-700k-s1", hsdpa_fugu),
            ]);
            stats.fold_cell(&[
                mk("BBA", "diurnal-003-900k@x0.80", 0.4),
                mk("Fugu", "diurnal-003-900k@x0.80", diurnal_fugu),
            ]);
            FleetReport {
                stats,
                workers: 1,
                wall_time_s: 1.0,
                sessions_per_sec: 4.0,
                phases: RunPhases::default(),
                telemetry: None,
                shard: None,
            }
        };
        let baseline = build(0.6, 0.5);
        // Families keyed by trace-name prefix, perturbation suffixes and
        // all, kept sorted by key (merge-order-free, unlike the fold
        // order: hsdpa folded first here but sorts second).
        assert_eq!(baseline.stats.per_family.len(), 2);
        assert_eq!(baseline.stats.per_family[0].family, "diurnal");
        assert_eq!(baseline.stats.per_family[1].family, "hsdpa");
        let hsdpa = baseline.stats.family("hsdpa").unwrap();
        assert_eq!(hsdpa.per_policy[1].sessions, 1);
        assert!((hsdpa.per_policy[1].qoe.mean() - 0.6).abs() < 1e-12);
        // Round trip carries the family aggregates bit for bit.
        let back = FleetReport::from_json(&baseline.to_json()).unwrap();
        assert_eq!(back.stats, baseline.stats);
        // Only the diurnal family moves: the policy-level Fugu mean
        // drifts, and the diff attributes it to `diurnal` while `hsdpa`
        // stays quiet.
        let current = build(0.6, 0.3);
        let diff = current.diff(&baseline);
        assert!(!diff.is_clean(0.01));
        let moved = diff.drifted_families(0.01);
        assert_eq!(moved.len(), 1);
        assert_eq!(moved[0].family, "diurnal");
        assert_eq!(moved[0].policy, PolicyKind::Fugu);
        assert!(moved[0].delta() < 0.0);
        let text = diff.summary(0.01);
        assert!(text.contains("family `diurnal` moved Fugu"), "{text}");
        assert!(!text.contains("family `hsdpa`"), "{text}");
        // Compensating family drift is caught even when the global means
        // agree: +0.1 on hsdpa, −0.1 on diurnal cancels exactly.
        let compensating = build(0.7, 0.4);
        let diff = compensating.diff(&baseline);
        assert!(diff.drifted(0.01).is_empty(), "global means cancel");
        assert_eq!(diff.drifted_families(0.01).len(), 2);
        assert!(!diff.is_clean(0.01));
        // A family present on one side only is structural.
        let mut reshaped = FleetReport::from_json(&baseline.to_json()).unwrap();
        reshaped.stats.per_family.pop();
        let diff = reshaped.diff(&baseline);
        assert_eq!(diff.families_only_in_baseline, vec!["hsdpa".to_string()]);
        assert!(!diff.is_clean(f64::INFINITY));
        assert!(diff.summary(0.0).contains("trace family `hsdpa` missing"));
    }

    #[test]
    fn family_keys_strip_at_the_first_separator() {
        assert_eq!(family_of("hsdpa-700k-s12"), "hsdpa");
        assert_eq!(family_of("cell4-003-900k"), "cell4");
        assert_eq!(family_of("diurnal-003-900k@x0.80+n200"), "diurnal");
        assert_eq!(family_of("t"), "t");
        assert_eq!(family_of("flat@x0.85"), "flat");
        assert_eq!(family_of("flat+n100"), "flat");
    }

    #[test]
    fn fold_cell_computes_gains_and_skips_zero_baseline() {
        let mk = |policy: &'static str, qoe01: f64| CellResult {
            video: "v".into(),
            genre: "Sports",
            trace: "t".into(),
            trace_mean_kbps: 1000.0,
            policy,
            qoe01,
            avg_bitrate_kbps: 1500.0,
            rebuffer_ratio: 0.05,
            delivered_bits: 1e8,
            intentional_stall_s: 0.5,
            bitrate_switches: 3,
        };
        let mut stats = FleetStats::new(&[PolicyKind::Bba, PolicyKind::Fugu], PolicyKind::Bba);
        stats.fold_cell(&[mk("BBA", 0.5), mk("Fugu", 0.6)]);
        stats.fold_cell(&[mk("BBA", 0.0), mk("Fugu", 0.4)]);
        assert_eq!(stats.sessions, 4);
        let fugu = stats.policy(PolicyKind::Fugu).unwrap();
        let gain = fugu.gain_vs_baseline.as_ref().unwrap();
        // Only the first cell contributes a gain (+20%); the zero-QoE
        // baseline cell is skipped, matching `qoe_gains_over`.
        assert_eq!(gain.stats.count(), 1);
        assert!((gain.stats.mean() - 20.0).abs() < 1e-9);
        assert!(stats
            .policy(PolicyKind::Bba)
            .unwrap()
            .gain_vs_baseline
            .is_none());
        assert!((fugu.intentional_stall_s() - 1.0).abs() < 1e-9);
        assert_eq!(fugu.switch_hist.total(), 2);
    }

    /// Splits the sample report's fold into two tile partials and checks
    /// the merged aggregates are bit-identical to the sequential fold.
    #[test]
    fn fleet_stats_merge_matches_sequential_fold() {
        let mk = |policy: &'static str, trace: &str, qoe01: f64| CellResult {
            video: "v".into(),
            genre: "Sports",
            trace: trace.into(),
            trace_mean_kbps: 1000.0,
            policy,
            qoe01,
            avg_bitrate_kbps: 1500.0,
            rebuffer_ratio: 0.05,
            delivered_bits: 1e8,
            intentional_stall_s: 0.5,
            bitrate_switches: 3,
        };
        let axes = [PolicyKind::Bba, PolicyKind::SenseiFugu];
        let cells = [
            [mk("BBA", "hsdpa-1", 0.5), mk("SENSEI", "hsdpa-1", 0.6)],
            [mk("BBA", "fcc-7", 0.4), mk("SENSEI", "fcc-7", 0.55)],
            [mk("BBA", "hsdpa-2", 0.0), mk("SENSEI", "hsdpa-2", 0.4)],
        ];
        let mut sequential = FleetStats::new(&axes, PolicyKind::Bba);
        for group in &cells {
            sequential.fold_cell(group);
        }
        // Two tiles (split 2 + 1), merged in both orders.
        let mut a = TileStats::new(&axes, PolicyKind::Bba);
        a.fold_cell(&cells[0]);
        a.fold_cell(&cells[1]);
        let mut b = TileStats::new(&axes, PolicyKind::Bba);
        b.fold_cell(&cells[2]);
        let mut fwd = FleetStats::new(&axes, PolicyKind::Bba);
        fwd.merge(a.stats()).unwrap();
        fwd.merge(b.stats()).unwrap();
        assert_eq!(fwd, sequential);
        let mut rev = FleetStats::new(&axes, PolicyKind::Bba);
        rev.merge(b.stats()).unwrap();
        rev.merge(a.stats()).unwrap();
        assert_eq!(rev, sequential);
        // A reused (reset) partial behaves like a fresh one.
        a.reset();
        a.fold_cell(&cells[2]);
        assert_eq!(a.stats(), b.stats());
        // Mismatched axes are rejected.
        let mut other = FleetStats::new(&axes, PolicyKind::SenseiFugu);
        assert!(matches!(
            other.merge(&sequential),
            Err(FleetError::Shard(_))
        ));
        let mut short = FleetStats::new(&[PolicyKind::Bba], PolicyKind::Bba);
        assert!(matches!(
            short.merge(&sequential),
            Err(FleetError::Shard(_))
        ));
        // So is a family whose policies are the axis's, reordered or cut
        // short — whether it would merge into an existing family or be
        // inserted as a new one — and a rejected merge changes nothing.
        for family_edit in [
            |f: &mut FamilyStats| f.per_policy.reverse(),
            |f: &mut FamilyStats| f.per_policy.truncate(1),
        ] {
            let mut bad = sequential.clone();
            family_edit(&mut bad.per_family[0]);
            for target in [sequential.clone(), FleetStats::new(&axes, PolicyKind::Bba)] {
                let mut merged = target.clone();
                assert!(matches!(merged.merge(&bad), Err(FleetError::Shard(_))));
                assert_eq!(merged, target);
            }
        }
    }

    #[test]
    fn merge_reports_validates_and_combines_partials() {
        // Three partials over a 6-tile matrix, each carrying a slice of
        // the sample fold.
        let partial = |index: u64, lo: u64, hi: u64| {
            let mut r = sample_report();
            r.shard = Some(ShardSlice {
                index,
                count: 3,
                tile_lo: lo,
                tile_hi: hi,
                total_tiles: 6,
            });
            r
        };
        let parts = [partial(0, 0, 2), partial(1, 2, 4), partial(2, 4, 6)];
        let merged = merge_reports(&parts).unwrap();
        assert!(merged.shard.is_none());
        assert_eq!(merged.stats.sessions, 3 * parts[0].stats.sessions);
        assert_eq!(merged.workers, 12);
        assert!((merged.wall_time_s - 1.5).abs() < 1e-12);
        // Shard sections round-trip through JSON, and merging the parsed
        // partials gives bit-identical aggregates.
        let reparsed: Vec<FleetReport> = parts
            .iter()
            .map(|p| FleetReport::from_json(&p.to_json()).unwrap())
            .collect();
        assert_eq!(reparsed[1].shard, parts[1].shard);
        assert_eq!(merge_reports(&reparsed).unwrap().stats, merged.stats);
        // Validation: empty input, unsharded report, wrong count, a
        // duplicate index, and ranges that do not partition the matrix.
        assert!(matches!(merge_reports(&[]), Err(FleetError::Shard(_))));
        assert!(matches!(
            merge_reports(&[sample_report()]),
            Err(FleetError::Shard(_))
        ));
        assert!(matches!(
            merge_reports(&parts[..2]),
            Err(FleetError::Shard(_))
        ));
        let dup = [partial(0, 0, 2), partial(0, 0, 2), partial(2, 4, 6)];
        assert!(matches!(merge_reports(&dup), Err(FleetError::Shard(_))));
        let gap = [partial(0, 0, 2), partial(1, 3, 4), partial(2, 4, 6)];
        assert!(matches!(merge_reports(&gap), Err(FleetError::Shard(_))));
        let truncated = [partial(0, 0, 2), partial(1, 2, 4), partial(2, 4, 5)];
        assert!(matches!(
            merge_reports(&truncated),
            Err(FleetError::Shard(_))
        ));
    }
}
