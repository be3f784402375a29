//! Fugu: model-predictive bitrate control (Eq. 3).
//!
//! As §5.2 describes it: "before downloading the i-th chunk, Fugu considers
//! the throughput prediction for the next h chunks. For any throughput
//! variation γ (with predicted probability p(γ)) and bitrate selection B,
//! it simulates when each of the next h chunks will be downloaded and
//! estimates the rebuffering time of each chunk. It then picks the bitrate
//! vector maximizing the expected total quality", where per-chunk quality
//! `q(b, t)` is a simplified KSQI.
//!
//! This module implements exactly that: exhaustive enumeration of bitrate
//! plans over the horizon, a per-scenario buffer walk, and the canonical
//! KSQI chunk quality. The enumeration runs on the shared branch-and-bound
//! core in the private `plan` module; what is Fugu's own is its transition:
//!
//! - **Scenario table** — the per-(chunk, level, scenario) download time
//!   `rtt + size/rate` is state-independent within one decision, so it is
//!   computed once into reusable scratch instead of once per tree node,
//!   and shared by every pause candidate of SENSEI-Fugu.
//! - **Stall-aware bound** — per-scenario buffer caps give a stall lower
//!   bound at every depth, so the switch bound bites on constrained links
//!   and the guided order leads with the best stall-bounded level.

use crate::plan::{self, switch_penalty, switch_row, ChunkTables, PlanCore, Planner, Transition};
use crate::predictor::ThroughputPredictor;
use sensei_qoe::Ksqi;
use sensei_sim::{AbrPolicy, BatchStates, Decision, PlayerState, SessionContext};
use sensei_trace::ThroughputTrace;

/// The paper's planning horizon ("We pick h = 5 since we observe that QoE
/// gains flatten beyond a horizon of 4 chunks").
pub const DEFAULT_HORIZON: usize = 5;

/// Reusable planning scratch: one allocation per policy instance instead
/// of several per decision. All tables are flat row-major arrays sized at
/// the start of each plan search.
#[derive(Debug, Clone, Default)]
struct FuguScratch {
    /// `(h + 1) × scenarios` rows of running walk state, indexed by depth.
    stack: Vec<ScenarioWalk>,
    /// Per-decision scenario `(probability, kbps)` pairs.
    rates: Vec<(f64, f64)>,
    /// Scenario probabilities `rates[si].0`, densely packed.
    probs: Vec<f64>,
    /// `dt[depth·L·S + level·S + si]`: download time of `(chunk, level)`
    /// under scenario `si` — state-independent within one decision.
    dt: Vec<f64>,
    /// `umax[depth·S + si]`: upper bound on the weighted quality any
    /// level can contribute at `depth` under scenario `si`, maximized
    /// over every (previous level, level) pair — switch penalty and
    /// stall lower bound included.
    umax: Vec<f64>,
    /// `ufirst[(depth·S + si)·L + lprev]`: the same bound conditioned on
    /// the *actual* previous level `lprev`, used for the first remaining
    /// step of a node.
    ufirst: Vec<f64>,
    /// `caps[depth·S + si]`: upper bound on scenario `si`'s buffer
    /// entering `depth`, accounting for the cheapest possible download
    /// at every prior depth.
    caps: Vec<f64>,
    /// `ord[depth·L + k]`: the levels of `depth` in descending
    /// estimated-score order — the exploration order of the pruned
    /// search.
    ord: Vec<usize>,
    /// Per-level expected score accumulator used to build `ord`.
    scores: Vec<f64>,
    /// Dense per-scenario copy of the leaf-parent row's buffers.
    pbuf: Vec<f64>,
    /// Dense per-scenario copy of the leaf-parent row's running totals.
    ptot: Vec<f64>,
    /// Per-scenario expected-score terms of one sibling leaf.
    terms: Vec<f64>,
}

/// The Fugu MPC policy.
#[derive(Debug, Clone)]
pub struct Fugu {
    predictor: ThroughputPredictor,
    qoe: Ksqi,
    horizon: usize,
    rtt_s: f64,
    max_buffer_s: f64,
    /// Multiplier on predicted stall time during planning. Deployed MPC
    /// controllers weight rebuffering far above its average-QoE cost
    /// because real raters judge sessions by their worst moment; planning
    /// risk-neutrally against a mean-additive model stalls too often.
    risk_aversion: f64,
    tables: ChunkTables,
    /// The search scratch and warm carry, shared with SENSEI-Fugu, which
    /// drives this planner per pause candidate.
    pub(crate) core: PlanCore,
    scratch: FuguScratch,
}

impl Fugu {
    /// Builds Fugu with the default predictor and canonical KSQI.
    pub fn new() -> Self {
        Self {
            predictor: ThroughputPredictor::default(),
            qoe: Ksqi::canonical(),
            horizon: DEFAULT_HORIZON,
            rtt_s: 0.08,
            max_buffer_s: 24.0,
            risk_aversion: 3.0,
            tables: ChunkTables::default(),
            core: PlanCore::default(),
            scratch: FuguScratch::default(),
        }
    }

    /// Toggles the cross-chunk warm start (on by default). Disabling it
    /// forces every search to start cold — bit-identical results, more
    /// nodes — which is exactly what the warm-vs-cold parity suite runs
    /// as its reference.
    pub fn with_warm_start(mut self, enabled: bool) -> Self {
        self.core.carry.set_enabled(enabled);
        self
    }

    /// Overrides the stall risk-aversion multiplier used during planning.
    ///
    /// # Panics
    ///
    /// Panics when `factor` is not at least 1 (planning must never treat
    /// stalls as cheaper than the QoE model does).
    pub fn with_risk_aversion(mut self, factor: f64) -> Self {
        assert!(factor >= 1.0, "risk aversion must be >= 1, got {factor}");
        self.risk_aversion = factor;
        self
    }

    /// The stall risk-aversion multiplier in effect.
    pub fn risk_aversion(&self) -> f64 {
        self.risk_aversion
    }

    /// Overrides the throughput predictor (window and scenario set).
    pub fn with_predictor(mut self, predictor: ThroughputPredictor) -> Self {
        self.predictor = predictor;
        self
    }

    /// The throughput predictor in effect.
    pub fn predictor(&self) -> &ThroughputPredictor {
        &self.predictor
    }

    /// Overrides the QoE model used as the objective (the paper fits KSQI
    /// for fairness across all algorithms).
    pub fn with_qoe(mut self, qoe: Ksqi) -> Self {
        self.qoe = qoe;
        self
    }

    /// The QoE model used as the objective.
    pub(crate) fn qoe(&self) -> &Ksqi {
        &self.qoe
    }

    /// Overrides the planning horizon.
    ///
    /// # Panics
    ///
    /// Panics when `horizon` is 0 (configuration bug).
    pub fn with_horizon(mut self, horizon: usize) -> Self {
        assert!(horizon > 0, "horizon must be at least 1");
        self.horizon = horizon;
        self
    }

    /// Fills the scenario `(probability, kbps)` pairs and the
    /// per-(chunk, level, scenario) download-time table for one decision,
    /// assuming the chunk tables are prepared. Both depend on the
    /// throughput history but **not** on the buffer, so SENSEI-Fugu's
    /// pause candidates — which perturb only the buffer — share one fill
    /// across all candidate searches.
    pub(crate) fn prepare_rates(&mut self, state: &PlayerState<'_>) {
        let FuguScratch {
            rates, probs, dt, ..
        } = &mut self.scratch;
        self.predictor.scenario_rates_into(state, rates);
        probs.clear();
        probs.extend(rates.iter().map(|r| r.0));
        // The expression is the exact one the walk used to evaluate per
        // node, in (depth, level, scenario) order.
        dt.clear();
        for &size in &self.tables.sizes {
            for &(_, rate_kbps) in rates.iter() {
                dt.push(self.rtt_s + size / (rate_kbps * 1000.0));
            }
        }
    }

    /// The plan search proper, assuming the chunk tables and
    /// [`Self::prepare_rates`] are prepared for `(state.next_chunk, h)`.
    /// Returns the best plan's first action and its expected quality;
    /// when no plan scores above `floor`, returns `(0, floor)` instead
    /// (see `PlanCore::search`).
    pub(crate) fn plan_prepared(
        &mut self,
        state: &PlayerState<'_>,
        ctx: &SessionContext<'_>,
        weights: Option<&[f64]>,
        h: usize,
        floor: f64,
    ) -> (usize, f64) {
        let n_levels = ctx.num_levels();
        let d = ctx.chunk_duration_s;
        // Branch-and-bound is sound only when every bound step is
        // floating-point monotone: nonnegative plan weights, scenario
        // probabilities, and QoE penalties. Anything else disables
        // pruning (full enumeration) rather than risking a changed bit.
        let (_, b, c, _) = self.qoe.coefficients();
        let prunable = b >= 0.0
            && c >= 0.0
            && state.buffer_s >= 0.0
            && weights.is_none_or(|w| w.iter().all(|&x| x >= 0.0))
            && self.scratch.probs.iter().all(|&p| p >= 0.0);
        if prunable {
            self.tables.switch_bounds(&self.qoe, weights, d);
        }
        let FuguScratch {
            stack,
            rates: _,
            probs,
            dt,
            umax,
            ufirst,
            caps,
            ord,
            scores,
            pbuf,
            ptot,
            terms,
        } = &mut self.scratch;
        let tables = &self.tables;
        let s = probs.len();
        umax.clear();
        ufirst.clear();
        caps.clear();
        ord.clear();
        if prunable {
            // `caps[j·S + si]` dominates scenario `si`'s buffer entering
            // depth `j` for EVERY plan: the walk step is
            // `buf' = min(max(buf − dt, 0) + d, B)`, `dt` is bounded
            // below by the depth's cheapest level under that scenario,
            // and each operation in the chain (subtract a smaller value
            // from a larger one, `max`, add, `min`) is monotone under
            // IEEE-754 round-to-nearest — so the recurrence bounds all
            // plans at once *as floating point*. The root cap is the
            // caller's buffer itself (pause candidates may push it past
            // the clamp). A buffer upper bound gives a stall *lower*
            // bound, hence a per-(depth, scenario) quality upper bound;
            // charging the cheapest download per depth is what makes the
            // bound bite on constrained links instead of assuming a
            // magically refilling buffer.
            caps.resize(s, state.buffer_s);
            for depth in 1..h {
                for si in 0..s {
                    let mut dt_min = f64::INFINITY;
                    for level in 0..n_levels {
                        dt_min = dt_min.min(dt[((depth - 1) * n_levels + level) * s + si]);
                    }
                    let parent = caps[(depth - 1) * s + si];
                    caps.push(((parent - dt_min).max(0.0) + d).min(self.max_buffer_s));
                }
            }
            // Guided order: most promising level (by expected
            // stall-bounded score) first.
            for depth in 0..h {
                scores.clear();
                scores.resize(n_levels, 0.0);
                for si in 0..s {
                    let cap = caps[depth * s + si];
                    for level in 0..n_levels {
                        let stall_lb = (dt[(depth * n_levels + level) * s + si] - cap).max(0.0);
                        let q = self.qoe.chunk_quality(
                            tables.vqs[depth * n_levels + level],
                            stall_lb * self.risk_aversion,
                            0.0,
                            d,
                        );
                        let term = weights.map_or(q, |w| w[depth] * q);
                        scores[level] += probs[si] * term;
                    }
                }
                plan::push_order(ord, scores);
            }
            // Switch-aware, stall-aware per-(depth, scenario) bounds: the
            // core's no-stall switch bound plus each scenario's stall
            // lower bound from its buffer cap. `chunk_quality` is
            // FP-monotone in both penalties, so every entry dominates the
            // walk's per-step term as floating point.
            ufirst.resize(h * s * n_levels, 0.0);
            umax.resize(h * s, 0.0);
            for depth in 1..h {
                for si in 0..s {
                    let cap = caps[depth * s + si];
                    let dts = &dt[depth * n_levels * s..(depth + 1) * n_levels * s];
                    let row = &mut ufirst[(depth * s + si) * n_levels..][..n_levels];
                    let mut dt_max = f64::NEG_INFINITY;
                    for level in 0..n_levels {
                        dt_max = dt_max.max(dts[level * s + si]);
                    }
                    if dt_max <= cap {
                        // No level can stall under this scenario's cap:
                        // every stall lower bound is exactly `0.0`, so the
                        // core's no-stall row IS this row.
                        row.copy_from_slice(&tables.ufirst0[depth * n_levels..][..n_levels]);
                        umax[depth * s + si] = tables.umax0[depth];
                        continue;
                    }
                    umax[depth * s + si] =
                        switch_row(&tables.vqs, n_levels, depth, row, |level, vq, switch| {
                            let stall_lb = (dts[level * s + si] - cap).max(0.0);
                            let q = self.qoe.chunk_quality(
                                vq,
                                stall_lb * self.risk_aversion,
                                switch,
                                d,
                            );
                            weights.map_or(q, |w| w[depth] * q)
                        });
                }
            }
        }
        let prev = state
            .last_level
            .map(|l| (ctx.encoded.vq(state.next_chunk.saturating_sub(1), l), l));
        stack.clear();
        stack.resize(
            (h + 1) * s,
            ScenarioWalk {
                buf: state.buffer_s,
                prev,
                total: 0.0,
            },
        );
        for scratch in [&mut *pbuf, &mut *ptot, &mut *terms] {
            scratch.clear();
            scratch.resize(s, 0.0);
        }
        let mut walk = FuguWalk {
            qoe: &self.qoe,
            risk_aversion: self.risk_aversion,
            max_buffer_s: self.max_buffer_s,
            d,
            weights,
            h,
            n_levels,
            vqs: &tables.vqs,
            dt,
            probs,
            umax,
            ufirst,
            stack,
            pbuf,
            ptot,
            terms,
        };
        let ord = prunable.then_some(&ord[..]);
        let best = self
            .core
            .search(&mut walk, state.next_chunk, h, n_levels, ord, floor);
        (best.first, best.q)
    }
}

/// Per-scenario running state of one plan prefix: the buffer walk's
/// position, the previous chunk's `(vq, level)` for switch penalties, and
/// the accumulated weighted quality.
#[derive(Debug, Clone, Copy)]
struct ScenarioWalk {
    buf: f64,
    prev: Option<(f64, usize)>,
    total: f64,
}

/// Fugu's transition: one buffer walk per predicted throughput scenario,
/// scored in expectation over the scenario probabilities.
struct FuguWalk<'a> {
    qoe: &'a Ksqi,
    risk_aversion: f64,
    max_buffer_s: f64,
    d: f64,
    weights: Option<&'a [f64]>,
    h: usize,
    n_levels: usize,
    vqs: &'a [f64],
    dt: &'a [f64],
    probs: &'a [f64],
    umax: &'a [f64],
    ufirst: &'a [f64],
    /// `(h + 1) × scenarios` rows of running state, indexed by depth.
    stack: &'a mut [ScenarioWalk],
    /// Dense copies of the leaf-parent row's buffers / running totals.
    pbuf: &'a mut [f64],
    ptot: &'a mut [f64],
    /// Per-scenario expected-score terms of one sibling leaf.
    terms: &'a mut [f64],
}

impl Transition for FuguWalk<'_> {
    /// Extends every scenario's walk at `depth` by `level`; identical
    /// arithmetic (and order) to one iteration of the flat plan scorer's
    /// buffer walk.
    fn step(&mut self, depth: usize, level: usize) {
        let s = self.probs.len();
        let d = self.d;
        let vq = self.vqs[depth * self.n_levels + level];
        for si in 0..s {
            let parent = self.stack[depth * s + si];
            let dt = self.dt[(depth * self.n_levels + level) * s + si];
            let stall = (dt - parent.buf).max(0.0);
            let mut buf = (parent.buf - dt).max(0.0) + d;
            buf = buf.min(self.max_buffer_s);
            let switch = switch_penalty(parent.prev, vq, level);
            let q = self
                .qoe
                .chunk_quality(vq, stall * self.risk_aversion, switch, d);
            self.stack[(depth + 1) * s + si] = ScenarioWalk {
                buf,
                prev: Some((vq, level)),
                total: parent.total + self.weights.map_or(q, |w| w[depth] * q),
            };
        }
    }

    /// The scenario-order expectation fold of the leaf row.
    fn leaf_value(&self) -> f64 {
        let s = self.probs.len();
        let mut q = 0.0;
        for si in 0..s {
            q += self.probs[si] * self.stack[self.h * s + si].total;
        }
        q
    }

    /// The block pass: the per-scenario parent state is copied into dense
    /// slices once, then each level runs a straight-line pass of pure
    /// slice arithmetic (no struct-of-walks indirection, no branches
    /// beyond the clamp `max`) that the autovectorizer can turn into SIMD
    /// lanes. Every element computes `probs[si] · (parent.total + w·q)`
    /// with the identical stall, switch, and KSQI arithmetic, and the
    /// reduction folds the terms in scenario order from 0.0.
    fn score_leaves(&mut self, depth: usize, leaf_q: &mut [f64]) {
        let s = self.probs.len();
        let n_levels = self.n_levels;
        let d = self.d;
        let risk = self.risk_aversion;
        // `prev` is scenario-invariant by construction: every stack row
        // is written with the same `(vq, level)` across scenarios.
        let prev = self.stack[depth * s].prev;
        let wd = self.weights.map(|w| w[depth]);
        for si in 0..s {
            let parent = self.stack[depth * s + si];
            self.pbuf[si] = parent.buf;
            self.ptot[si] = parent.total;
        }
        for (level, slot) in leaf_q.iter_mut().enumerate() {
            let vq = self.vqs[depth * n_levels + level];
            let switch = switch_penalty(prev, vq, level);
            let base = (depth * n_levels + level) * s;
            for si in 0..s {
                let stall = (self.dt[base + si] - self.pbuf[si]).max(0.0);
                let q = self.qoe.chunk_quality(vq, stall * risk, switch, d);
                let wq = match wd {
                    Some(w) => w * q,
                    None => q,
                };
                self.terms[si] = self.probs[si] * (self.ptot[si] + wq);
            }
            let mut acc = 0.0;
            for &term in self.terms.iter() {
                acc += term;
            }
            *slot = acc;
        }
    }

    /// Each scenario's running total extended with `ufirst` for the first
    /// remaining step (conditioned on `prev`) and `umax` for deeper steps,
    /// then folded in scenario order exactly like the leaf reduction.
    /// Every operation (add, multiply by a nonnegative probability) is
    /// monotone under IEEE-754 round-to-nearest.
    fn bound(&self, depth: usize, prev: usize) -> f64 {
        let s = self.probs.len();
        let mut ub = 0.0;
        for si in 0..s {
            let mut bnd = self.stack[depth * s + si].total
                + self.ufirst[(depth * s + si) * self.n_levels + prev];
            for j in depth + 1..self.h {
                bnd += self.umax[j * s + si];
            }
            ub += self.probs[si] * bnd;
        }
        ub
    }
}

impl Default for Fugu {
    fn default() -> Self {
        Self::new()
    }
}

impl Planner for Fugu {
    fn prepare_step(&mut self, next_chunk: usize, ctx: &SessionContext<'_>) -> usize {
        let h = self.horizon.min(ctx.num_chunks() - next_chunk);
        self.tables.fill(next_chunk, h, ctx);
        h
    }

    fn decide_prepared(
        &mut self,
        state: &PlayerState<'_>,
        ctx: &SessionContext<'_>,
        h: usize,
    ) -> Decision {
        self.prepare_rates(state);
        let (level, _) = self.plan_prepared(state, ctx, None, h, f64::NEG_INFINITY);
        self.core.commit_last(state.next_chunk);
        Decision::level(level)
    }

    fn swap_lane(&mut self, lane: usize) {
        self.core.carry.swap_lane(lane);
    }
}

impl AbrPolicy for Fugu {
    fn name(&self) -> &str {
        "Fugu"
    }

    fn decide(&mut self, state: &PlayerState<'_>, ctx: &SessionContext<'_>) -> Decision {
        plan::decide(self, state, ctx)
    }

    fn reset(&mut self) {
        self.core.carry.reset();
    }

    fn rebind(&mut self, _trace: &ThroughputTrace) {
        self.core.carry.rebind();
    }

    fn begin_batch(&mut self, lanes: usize) {
        self.core.carry.begin_batch(lanes);
    }

    /// Plans every lane over chunk tables filled once for the whole tile,
    /// bit-identically to [`Self::decide`] per lane.
    fn select_batch(
        &mut self,
        states: &BatchStates<'_>,
        ctx: &SessionContext<'_>,
        out: &mut [Decision],
    ) {
        plan::select_batch(self, states, ctx, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{encoded, flat_best, source, FlatPlan, FlatRoot};
    use sensei_sim::{simulate, PlayerConfig};
    use sensei_trace::ThroughputTrace;

    fn run(trace_kbps: f64) -> sensei_sim::SessionResult {
        let src = source();
        let enc = encoded(&src);
        let trace = ThroughputTrace::constant("t", trace_kbps, 600.0).unwrap();
        simulate(
            &src,
            &enc,
            &trace,
            &mut Fugu::new(),
            &PlayerConfig::default(),
            None,
        )
        .unwrap()
    }

    #[test]
    fn high_bandwidth_reaches_top_rate_without_stalls() {
        let result = run(10_000.0);
        let stalls = result.render.total_rebuffer_s() - result.render.startup_delay_s();
        assert!(stalls < 0.2, "stalls = {stalls}");
        // The tail of the session should run at the top bitrate.
        let tail: Vec<usize> = result.levels[10..].to_vec();
        assert!(tail.iter().all(|&l| l == 4), "tail = {tail:?}");
    }

    #[test]
    fn low_bandwidth_stays_low_and_avoids_stalls() {
        let result = run(700.0);
        let stalls = result.render.total_rebuffer_s() - result.render.startup_delay_s();
        assert!(stalls < 1.0, "stalls = {stalls}");
        assert!(result.render.avg_bitrate_kbps() < 1000.0);
    }

    #[test]
    fn beats_bba_on_variable_traces() {
        use crate::bba::Bba;
        let src = source();
        let enc = encoded(&src);
        let qoe = Ksqi::canonical();
        let mut fugu_total = 0.0;
        let mut bba_total = 0.0;
        for seed in 0..5 {
            let trace = sensei_trace::generate::fcc_like(1800.0, 600, seed);
            let config = PlayerConfig::default();
            let f = simulate(&src, &enc, &trace, &mut Fugu::new(), &config, None).unwrap();
            let b = simulate(&src, &enc, &trace, &mut Bba::paper_default(), &config, None).unwrap();
            fugu_total += sensei_qoe::QoeModel::predict(&qoe, &f.render).unwrap();
            bba_total += sensei_qoe::QoeModel::predict(&qoe, &b.render).unwrap();
        }
        assert!(
            fugu_total > bba_total,
            "Fugu {fugu_total:.3} should beat BBA {bba_total:.3} on its own objective"
        );
    }

    #[test]
    fn horizon_truncates_at_video_end() {
        // A 3-chunk video with horizon 5 must not panic.
        let src = sensei_video::SourceVideo::from_script(
            "short",
            sensei_video::Genre::Sports,
            &[sensei_video::content::SceneSpec::new(
                sensei_video::SceneKind::NormalPlay,
                3,
            )],
            1,
        )
        .unwrap();
        let enc = sensei_video::EncodedVideo::encode(
            &src,
            &sensei_video::BitrateLadder::default_paper(),
            1,
        );
        let trace = ThroughputTrace::constant("t", 3000.0, 600.0).unwrap();
        let result = simulate(
            &src,
            &enc,
            &trace,
            &mut Fugu::new(),
            &PlayerConfig::default(),
            None,
        )
        .unwrap();
        assert_eq!(result.levels.len(), 3);
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn zero_horizon_is_rejected() {
        let _ = Fugu::new().with_horizon(0);
    }

    /// One scalar search with explicit objective weights: the prepared
    /// path SENSEI-Fugu drives, returning the first action and score.
    fn best_plan(
        fugu: &mut Fugu,
        state: &PlayerState<'_>,
        ctx: &SessionContext<'_>,
        weights: Option<&[f64]>,
    ) -> (usize, f64) {
        let h = fugu.prepare_step(state.next_chunk, ctx);
        fugu.prepare_rates(state);
        let result = fugu.plan_prepared(state, ctx, weights, h, f64::NEG_INFINITY);
        fugu.core.commit_last(state.next_chunk);
        result
    }

    /// [`flat_best`] over Fugu's predicted throughput scenarios: one
    /// candidate, no pause cost.
    fn reference_best_plan(
        fugu: &Fugu,
        state: &PlayerState<'_>,
        ctx: &SessionContext<'_>,
        weights: Option<&[f64]>,
    ) -> (usize, f64) {
        let rates = fugu.predictor().scenario_rates(state);
        let plan = FlatPlan {
            ctx,
            qoe: Ksqi::canonical(),
            risk_aversion: fugu.risk_aversion(),
            max_buffer_s: 24.0,
            h: DEFAULT_HORIZON.min(ctx.num_chunks() - state.next_chunk),
            weights,
            scenarios: rates.len(),
        };
        let root = FlatRoot {
            buffer_s: state.buffer_s,
            elapsed_s: state.elapsed_s,
            pause_cost: 0.0,
        };
        let (_, first, q) = flat_best(
            &plan,
            state,
            &[root],
            |si| rates[si].0,
            |si, _, chunk, level| {
                0.08 + ctx.encoded.size_bits(chunk, level).unwrap() / (rates[si].1 * 1000.0)
            },
        );
        (first, q)
    }

    #[test]
    fn dfs_enumeration_matches_the_flat_reference_bit_for_bit() {
        use sensei_sim::SessionContext;
        let src = source();
        let enc = encoded(&src);
        let ctx = SessionContext {
            encoded: &enc,
            weights: None,
            chunk_duration_s: src.chunk_duration_s(),
        };
        let mut fugu = Fugu::new();
        // Weight rows exercise every search mode: no weights (plain Fugu),
        // nonnegative weights (SENSEI-Fugu, pruning active including zero
        // weights), and a negative weight that must disable pruning and
        // fall back to the full enumeration.
        let weight_rows: [Option<Vec<f64>>; 4] = [
            None,
            Some(vec![1.4, 0.6, 1.0, 2.0, 0.8, 1.1, 0.9]),
            Some(vec![0.0, 1.5, 0.0, 2.0, 1.0, 0.3, 0.7]),
            Some(vec![-0.5, 1.0, 0.8, 1.2, 0.4, 1.0, 1.0]),
        ];
        // A spread of buffer levels, histories, and positions — including
        // the truncated-horizon video tail and near-tie states.
        let histories: [&[f64]; 3] = [
            &[1200.0, 900.0, 1500.0],
            &[400.0, 420.0, 380.0, 410.0, 395.0],
            &[5000.0; 6],
        ];
        for weights in &weight_rows {
            for hist in histories {
                for next_chunk in [0, 3, src.num_chunks() - 3, src.num_chunks() - 1] {
                    for buffer_s in [0.5, 4.0, 11.0, 23.0] {
                        let state = PlayerState {
                            next_chunk,
                            buffer_s,
                            last_level: Some(2),
                            throughput_history_kbps: hist,
                            download_time_history_s: &[1.0; 6][..hist.len()],
                            elapsed_s: 30.0,
                            playing: true,
                        };
                        let w = weights
                            .as_deref()
                            .map(|w| &w[..DEFAULT_HORIZON.min(src.num_chunks() - next_chunk)]);
                        let fast = best_plan(&mut fugu, &state, &ctx, w);
                        let slow = reference_best_plan(&fugu, &state, &ctx, w);
                        assert_eq!(fast.0, slow.0, "chosen level at chunk {next_chunk}");
                        assert_eq!(
                            fast.1.to_bits(),
                            slow.1.to_bits(),
                            "plan score at chunk {next_chunk} (buffer {buffer_s})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_across_decisions_is_stateless() {
        // One long-lived instance planning many unrelated states must
        // produce exactly what a fresh instance produces per state: the
        // scratch tables are per-decision, never carried over.
        use sensei_sim::SessionContext;
        let src = source();
        let enc = encoded(&src);
        let ctx = SessionContext {
            encoded: &enc,
            weights: None,
            chunk_duration_s: src.chunk_duration_s(),
        };
        let mut warm = Fugu::new();
        for next_chunk in 0..src.num_chunks() {
            for buffer_s in [0.0, 6.5, 19.0] {
                let state = PlayerState {
                    next_chunk,
                    buffer_s,
                    last_level: Some(1),
                    throughput_history_kbps: &[900.0, 1100.0, 1000.0],
                    download_time_history_s: &[1.0; 3],
                    elapsed_s: 12.0,
                    playing: true,
                };
                let warm_plan = best_plan(&mut warm, &state, &ctx, None);
                let cold_plan = best_plan(&mut Fugu::new(), &state, &ctx, None);
                assert_eq!(warm_plan.0, cold_plan.0);
                assert_eq!(warm_plan.1.to_bits(), cold_plan.1.to_bits());
            }
        }
    }
}
