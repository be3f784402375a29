//! SENSEI-Fugu: Fugu with sensitivity weights and intentional rebuffering
//! (Eq. 4).
//!
//! Two changes over Fugu, exactly the §5.2 recipe:
//!
//! 1. The horizon objective weights each chunk's quality by its
//!    sensitivity: `Σ_γ p(γ) Σ_j w_j · q(b_j, t_j)`.
//! 2. The action space gains an intentional rebuffering time for the next
//!    chunk, drawn from {0, 1, 2} seconds. Pausing now freezes playback at
//!    the current playhead chunk (charged at *that* chunk's weight) and
//!    buys buffer headroom for the high-sensitivity chunks ahead — the
//!    "borrow from low-sensitivity chunks" optimization of Fig. 11(d).

use crate::fugu::Fugu;
use crate::plan::{self, Planner};
use sensei_sim::{AbrPolicy, BatchStates, Decision, PlayerState, SessionContext};
use sensei_trace::ThroughputTrace;

/// The intentional-rebuffer action levels (§5.2: "{0, 1, 2} seconds ...
/// only ... at chunk boundaries").
pub const PAUSE_LEVELS_S: [f64; 3] = [0.0, 1.0, 2.0];

/// The SENSEI-Fugu policy.
#[derive(Debug, Clone)]
pub struct SenseiFugu {
    inner: Fugu,
    /// When false, the policy only reweights the objective and never
    /// pauses — the "only bitrate adaptation" ablation of Fig. 18b.
    allow_pause: bool,
    /// Intentional stall spent so far this session, seconds.
    pause_spent_s: f64,
    /// Per-lane pause ledgers when the instance serves a batch: the pause
    /// budget is **per-session** state, so each lane keeps its own spend,
    /// swapped into the scalar ledger around that lane's decision
    /// together with the inner MPC's warm carry.
    lane_pause_spent_s: Vec<f64>,
    /// Horizon weight scratch, refilled per decision — one long-lived
    /// buffer instead of a `Vec` allocation per decision.
    weights_scratch: Vec<f64>,
    /// The winning pause candidate's full plan: every candidate runs its
    /// own search, so the carry must commit the *winner's* plan, not the
    /// last one searched (a later, losing candidate's floored search may
    /// even come back empty).
    winner_plan: Vec<usize>,
}

impl SenseiFugu {
    /// Fraction of the video duration the policy may spend on intentional
    /// stalls. Peak-end raters punish *concentrated* stalls far beyond
    /// their total length, so the budget keeps the new action surgical.
    const PAUSE_BUDGET_FRACTION: f64 = 0.04;

    /// Builds SENSEI-Fugu with the full action space.
    pub fn new() -> Self {
        Self {
            inner: Fugu::new(),
            allow_pause: true,
            pause_spent_s: 0.0,
            lane_pause_spent_s: Vec::new(),
            weights_scratch: Vec::new(),
            winner_plan: Vec::new(),
        }
    }

    /// The Fig. 18b ablation: weighted objective, no new actions.
    pub fn without_pause_action() -> Self {
        Self {
            allow_pause: false,
            ..Self::new()
        }
    }

    /// The cold reference of the parity suites: the inner MPC's every
    /// search starts unseeded.
    #[cfg(test)]
    pub(crate) fn cold(mut self) -> Self {
        self.inner = self.inner.cold();
        self
    }
}

impl Default for SenseiFugu {
    fn default() -> Self {
        Self::new()
    }
}

impl AbrPolicy for SenseiFugu {
    fn name(&self) -> &str {
        if self.allow_pause {
            "SENSEI-Fugu"
        } else {
            "SENSEI-Fugu(no-pause)"
        }
    }

    fn reset(&mut self) {
        self.pause_spent_s = 0.0;
        self.inner.reset();
    }

    fn rebind(&mut self, trace: &ThroughputTrace) {
        self.inner.rebind(trace);
    }

    /// The pause budget is per-session state, so a batch keeps one ledger
    /// slot per lane (and the inner MPC one warm carry slot per lane).
    fn begin_batch(&mut self, lanes: usize) {
        self.pause_spent_s = 0.0;
        self.inner.begin_batch(lanes);
        self.lane_pause_spent_s.clear();
        self.lane_pause_spent_s.resize(lanes, 0.0);
    }

    /// Plans every lane over shared per-tile tables (manifest size/vq
    /// tables and the horizon weight window), with each lane's pause
    /// ledger and warm carry swapped in, so every lane sees exactly the
    /// state a dedicated per-session instance would.
    fn select_batch(
        &mut self,
        states: &BatchStates<'_>,
        ctx: &SessionContext<'_>,
        out: &mut [Decision],
    ) {
        plan::select_batch(self, states, ctx, out);
    }

    fn decide(&mut self, state: &PlayerState<'_>, ctx: &SessionContext<'_>) -> Decision {
        plan::decide(self, state, ctx)
    }
}

impl Planner for SenseiFugu {
    /// The inner MPC's chunk tables and horizon, plus the horizon weight
    /// window, which is lane-invariant within a batch tile.
    fn prepare_step(&mut self, next_chunk: usize, ctx: &SessionContext<'_>) -> usize {
        let h = self.inner.prepare_step(next_chunk, ctx);
        plan::fill_window(&mut self.weights_scratch, ctx.weights, next_chunk, h);
        h
    }

    fn swap_lane(&mut self, lane: usize) {
        self.inner.swap_lane(lane);
        std::mem::swap(&mut self.pause_spent_s, &mut self.lane_pause_spent_s[lane]);
    }

    /// One decision over prepared tables. The scenario rates and download
    /// times are filled here once and shared by every pause candidate — a
    /// candidate perturbs only the buffer, which neither table reads.
    /// Each candidate's search is floored at [`losing_floor`], so it only
    /// explores plans that could beat the best candidate so far.
    fn decide_prepared(
        &mut self,
        state: &PlayerState<'_>,
        ctx: &SessionContext<'_>,
        h: usize,
    ) -> Decision {
        self.inner.prepare_rates(state);
        let playhead_w = plan::playhead_weight(state, ctx.weights, ctx.chunk_duration_s);
        let (_, stall_penalty, _, _) = self.inner.qoe().coefficients();
        let budget = Self::PAUSE_BUDGET_FRACTION * ctx.num_chunks() as f64 * ctx.chunk_duration_s;

        let mut best = (0usize, 0.0f64);
        let mut best_q = f64::NEG_INFINITY;
        // Pausing banks buffer for upcoming high-sensitivity chunks. That
        // is meaningless when the buffer is already starving or the link
        // cannot even sustain the lowest rung - there a pause only
        // concentrates stalls, which peak-end raters punish brutally.
        let predicted = state.harmonic_mean_throughput(5).unwrap_or(0.0);
        let pause_sensible = state.buffer_s >= 2.0 * ctx.chunk_duration_s
            && predicted * 0.85 > ctx.encoded.ladder().min_kbps();
        let pauses: &[f64] = if self.allow_pause && state.playing && pause_sensible {
            &PAUSE_LEVELS_S
        } else {
            &PAUSE_LEVELS_S[..1]
        };
        for &pause in pauses {
            if pause > 0.0 && self.pause_spent_s + pause > budget {
                continue;
            }
            // Pausing delays playback: the horizon walk sees extra buffer,
            // and the stall is charged at the playhead chunk's weight —
            // at the SAME risk multiplier the planner applies to predicted
            // stalls, so relocation is never spuriously profitable.
            let mut paused_state = *state;
            paused_state.buffer_s += pause;
            let pause_cost = playhead_w
                * stall_penalty
                * plan::RISK_AVERSION
                * (pause / ctx.chunk_duration_s).clamp(0.0, 1.0);
            // Hysteresis: an intentional stall must buy a clear planned
            // improvement, not a prediction-noise-sized one.
            let margin = if pause > 0.0 { 0.05 } else { 0.0 };
            let floor = losing_floor(best_q, pause_cost, margin);
            let (level, plan_q) =
                self.inner
                    .plan_prepared(&paused_state, ctx, Some(&self.weights_scratch), h, floor);
            let q = plan_q - pause_cost - margin;
            if q > best_q {
                best_q = q;
                best = (level, pause);
                // Remember the winning candidate's full plan: the pause
                // 0.0 candidate always runs, so this is always set.
                self.winner_plan.clear();
                self.winner_plan
                    .extend_from_slice(self.inner.core.last_plan());
            }
        }
        // Carry the *winner's* plan to the next chunk step — a later
        // candidate's search may have overwritten the inner last-plan
        // scratch with a losing plan.
        self.inner
            .core
            .carry
            .commit(state.next_chunk, &self.winner_plan);
        self.pause_spent_s += best.1;
        Decision {
            level: best.0,
            pause_s: best.1,
        }
    }
}

/// A plan score `τ` at or below which a candidate loses the decision's
/// `(plan_q − pause_cost) − margin > best_q` test, computed in f64.
///
/// `τ` starts at `best_q + margin + pause_cost` and steps down one ulp at
/// a time until `(τ − pause_cost) − margin ≤ best_q` holds in f64. Since
/// `x ↦ (x − c) − m` is monotone under round-to-nearest, every plan
/// scoring at most `τ` then loses, so a search floored at `τ` (which
/// finds any plan above it exactly) decides exactly like a full one. With
/// no candidate yet (`best_q = −∞`) the floor is `−∞`.
fn losing_floor(best_q: f64, pause_cost: f64, margin: f64) -> f64 {
    let mut tau = best_q + margin + pause_cost;
    while (tau - pause_cost) - margin > best_q {
        tau = tau.next_down();
    }
    tau
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fugu::DEFAULT_HORIZON;
    use crate::plan::{RISK_AVERSION, RTT_S};
    use crate::test_support::{encoded, flat_best, source, FlatPlan, FlatRoot};
    use crate::ThroughputPredictor;
    use sensei_crowd::TrueQoe;
    use sensei_qoe::Ksqi;
    use sensei_sim::{simulate, PlayerConfig};
    use sensei_trace::ThroughputTrace;
    use sensei_video::SensitivityWeights;

    #[test]
    fn reduces_to_fugu_with_uniform_weights_and_ample_bandwidth() {
        let src = source();
        let enc = encoded(&src);
        let trace = ThroughputTrace::constant("fast", 10_000.0, 600.0).unwrap();
        let uniform = SensitivityWeights::uniform(src.num_chunks()).unwrap();
        let config = PlayerConfig::default();
        let s = simulate(
            &src,
            &enc,
            &trace,
            &mut SenseiFugu::new(),
            &config,
            Some(&uniform),
        )
        .unwrap();
        let f = simulate(&src, &enc, &trace, &mut crate::Fugu::new(), &config, None).unwrap();
        // With no sensitivity variation and plenty of bandwidth the two
        // should track closely (identical average bitrate).
        assert!((s.render.avg_bitrate_kbps() - f.render.avg_bitrate_kbps()).abs() < 200.0);
        let s_stall = s.render.total_rebuffer_s() - s.render.startup_delay_s();
        assert!(s_stall < 0.5, "no reason to pause: stall = {s_stall}");
    }

    #[test]
    fn improves_true_qoe_over_fugu_on_tight_links() {
        // The headline behavior: with ground-truth weights on a link that
        // cannot afford top bitrate everywhere, SENSEI-Fugu aligns quality
        // with sensitivity and wins on true QoE.
        let src = source();
        let enc = encoded(&src);
        let weights = SensitivityWeights::ground_truth(&src);
        let oracle = TrueQoe::default();
        let config = PlayerConfig::default();
        let mut sensei_total = 0.0;
        let mut fugu_total = 0.0;
        for seed in 0..6 {
            let trace = sensei_trace::generate::fcc_like(1500.0, 600, 100 + seed);
            let s = simulate(
                &src,
                &enc,
                &trace,
                &mut SenseiFugu::new(),
                &config,
                Some(&weights),
            )
            .unwrap();
            let f = simulate(&src, &enc, &trace, &mut crate::Fugu::new(), &config, None).unwrap();
            sensei_total += oracle.qoe01(&src, &s.render).unwrap();
            fugu_total += oracle.qoe01(&src, &f.render).unwrap();
        }
        assert!(
            sensei_total > fugu_total,
            "SENSEI-Fugu {sensei_total:.3} vs Fugu {fugu_total:.3}"
        );
    }

    #[test]
    fn no_pause_ablation_never_pauses() {
        let src = source();
        let enc = encoded(&src);
        let weights = SensitivityWeights::ground_truth(&src);
        let trace = sensei_trace::generate::hsdpa_like(1200.0, 600, 3);
        let result = simulate(
            &src,
            &enc,
            &trace,
            &mut SenseiFugu::without_pause_action(),
            &PlayerConfig::default(),
            Some(&weights),
        )
        .unwrap();
        let intentional: f64 = result
            .render
            .chunks()
            .iter()
            .map(|c| c.intentional_rebuffer_s)
            .sum();
        assert_eq!(intentional, 0.0);
    }

    /// SENSEI-Fugu's decision rebuilt from [`flat_best`]: one full,
    /// unfloored search per pause candidate, under the same budget,
    /// `pause_sensible` gate and hysteresis rule. `spent` is the
    /// reference's own pause ledger. Also returns whether any pause
    /// candidate was searched.
    fn reference_decide(
        state: &PlayerState<'_>,
        ctx: &SessionContext<'_>,
        spent: &mut f64,
    ) -> (Decision, bool) {
        let d = ctx.chunk_duration_s;
        let h = DEFAULT_HORIZON.min(ctx.num_chunks() - state.next_chunk);
        let mut weights = vec![1.0; h];
        if let Some(w) = ctx.weights {
            weights = w.window(state.next_chunk, h).to_vec();
            weights.resize(h, 1.0);
        }
        let rates = ThroughputPredictor::default().scenario_rates(state);
        let qoe = Ksqi::canonical();
        let (_, stall_penalty, _, _) = qoe.coefficients();
        let plan = FlatPlan {
            ctx,
            qoe: qoe.clone(),
            h,
            weights: Some(&weights),
            scenarios: rates.len(),
        };
        let budget = 0.04 * ctx.num_chunks() as f64 * d;
        let predicted = state.harmonic_mean_throughput(5).unwrap_or(0.0);
        let sensible = state.playing
            && state.buffer_s >= 2.0 * d
            && predicted * 0.85 > ctx.encoded.ladder().min_kbps();
        let playhead_w = plan::playhead_weight(state, ctx.weights, d);
        let mut best = (Decision::level(0), f64::NEG_INFINITY);
        let mut pause_ran = false;
        for pause in [0.0, 1.0, 2.0] {
            if pause > 0.0 && (!sensible || *spent + pause > budget) {
                continue;
            }
            pause_ran |= pause > 0.0;
            let root = FlatRoot {
                buffer_s: state.buffer_s + pause,
                elapsed_s: state.elapsed_s,
                pause_cost: 0.0,
            };
            let (_, level, plan_q) = flat_best(
                &plan,
                state,
                &[root],
                |si| rates[si].0,
                |si, _, chunk, level| {
                    RTT_S + ctx.encoded.size_bits(chunk, level).unwrap() / (rates[si].1 * 1000.0)
                },
            );
            let pause_cost =
                playhead_w * stall_penalty * RISK_AVERSION * (pause / d).clamp(0.0, 1.0);
            let margin = if pause > 0.0 { 0.05 } else { 0.0 };
            let q = plan_q - pause_cost - margin;
            if q > best.1 {
                best = (
                    Decision {
                        level,
                        pause_s: pause,
                    },
                    q,
                );
            }
        }
        *spent += best.0.pause_s;
        (best.0, pause_ran)
    }

    /// A SENSEI-Fugu instance whose every decision is checked against
    /// [`reference_decide`] while a session plays, tallying the decisions
    /// in which a pause candidate was searched by whether a pause won.
    struct Checked {
        policy: SenseiFugu,
        spent: f64,
        pause_won: usize,
        pause_lost: usize,
    }

    impl AbrPolicy for Checked {
        fn name(&self) -> &str {
            "checked SENSEI-Fugu"
        }

        fn reset(&mut self) {
            self.policy.reset();
            self.spent = 0.0;
        }

        fn decide(&mut self, state: &PlayerState<'_>, ctx: &SessionContext<'_>) -> Decision {
            let got = self.policy.decide(state, ctx);
            let (want, pause_ran) = reference_decide(state, ctx, &mut self.spent);
            let at = format!("chunk {}, buffer {}", state.next_chunk, state.buffer_s);
            assert_eq!(got.level, want.level, "level at {at}");
            assert_eq!(
                got.pause_s.to_bits(),
                want.pause_s.to_bits(),
                "pause at {at}"
            );
            if pause_ran {
                if want.pause_s > 0.0 {
                    self.pause_won += 1;
                } else {
                    self.pause_lost += 1;
                }
            }
            got
        }
    }

    #[test]
    fn pause_choice_matches_the_flat_reference() {
        let src = source();
        let enc = encoded(&src);
        // The ground-truth weights never make a pause pay on these
        // traces; a dull first half before a key second half does.
        let step: Vec<f64> = (0..src.num_chunks())
            .map(|i| if i < src.num_chunks() / 2 { 0.2 } else { 3.0 })
            .collect();
        let weight_sets = [
            SensitivityWeights::ground_truth(&src),
            SensitivityWeights::new(step).unwrap(),
        ];
        let traces = [
            sensei_trace::generate::fcc_like(1000.0, 600, 0),
            sensei_trace::generate::hsdpa_like(1500.0, 600, 1),
        ];
        // One long-lived instance, so warm-start seeds meet the floors.
        let mut checked = Checked {
            policy: SenseiFugu::new(),
            spent: 0.0,
            pause_won: 0,
            pause_lost: 0,
        };
        for weights in &weight_sets {
            for trace in &traces {
                let config = PlayerConfig::default();
                simulate(&src, &enc, trace, &mut checked, &config, Some(weights)).unwrap();
            }
        }
        assert!(checked.pause_won > 0, "no state where a pause wins");
        assert!(checked.pause_lost > 0, "no state where a pause loses");
    }

    #[test]
    fn runs_without_weights_in_manifest() {
        // A SENSEI player on a legacy manifest degrades to weighted=uniform.
        let src = source();
        let enc = encoded(&src);
        let trace = ThroughputTrace::constant("t", 2000.0, 600.0).unwrap();
        let result = simulate(
            &src,
            &enc,
            &trace,
            &mut SenseiFugu::new(),
            &PlayerConfig::default(),
            None,
        )
        .unwrap();
        assert_eq!(result.levels.len(), src.num_chunks());
    }
}
