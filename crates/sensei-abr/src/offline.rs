//! Idealistic offline controllers for the §2.4 potential-gains experiment.
//!
//! The paper's Fig. 6 compares "two simple ABR algorithms whose only
//! difference is the QoE model they explicitly optimize", both given the
//! *entire throughput trace in advance* to eliminate prediction error. The
//! paper solves a full-trace bitrate assignment; we approximate it with a
//! receding-horizon controller that integrates the *exact* future
//! throughput (no scenarios, no estimation) — documented in DESIGN.md as a
//! substitution. The sensitivity-aware variant weights chunk quality and
//! may schedule intentional rebuffering; the unaware variant optimizes the
//! same objective with uniform weights.
//!
//! ## Planning cost, and where it goes
//!
//! The horizon enumeration is the fleet's throughput cliff: `levels^h`
//! leaves per decision, each leaf historically re-walking the trace. The
//! search runs on the shared branch-and-bound core in the private `plan`
//! module, all pause candidates through one search sharing one incumbent.
//! What is the oracle's own is its transition, an exact trace walk whose
//! step `rtt + download_time(t + rtt, size)` is a pure function of
//! `(t, chunk, level)` for a fixed trace. Every expanded node steps *all*
//! its children (the bound is checked below the step), so the walk keeps
//! one **download-time row** per depth: the first read at a node fills
//! the whole row with one [`CumulativeTrace::download_times`] call, which
//! normalizes the start once and gallops through the ascending ladder
//! sizes, and the row is tagged with the exact bits of the node's `t`.
//! Siblings read it, and so do later pause candidates, which share the
//! entire wall-clock tree (a pause shifts buffer, not wall clock). Each
//! entry is bit-identical to the single download time it replaces, so
//! the rows are bit-invisible. Rows live for one decision only; a hash
//! memo across decisions was measured to cost about as much as it saved.

use crate::plan::{self, switch_penalty, ChunkTables, PlanCore, Planner, Transition};
use crate::sensei_fugu::PAUSE_LEVELS_S;
use sensei_qoe::Ksqi;
use sensei_sim::{AbrPolicy, BatchStates, Decision, PlayerState, SessionContext};
use sensei_telemetry as telemetry;
use sensei_trace::{CumulativeTrace, ThroughputTrace};
use sensei_video::SensitivityWeights;

/// Reusable planning scratch: allocated once per policy instance and
/// recycled across decisions, lanes, and whole batches.
#[derive(Debug, Clone, Default)]
struct OracleScratch {
    /// `h + 1` rows of running walk state, indexed by depth.
    stack: Vec<OracleWalk>,
    /// The horizon's chunk weights (uniform for the unaware variant).
    weights: Vec<f64>,
    /// `ord[depth·L + k]`: the levels of `depth` in descending no-stall
    /// score order — the exploration order of the pruned search, empty
    /// when pruning is disabled. Leading with the bound's own argmax makes
    /// a feasible no-stall plan prune everything else near the root.
    ord: Vec<usize>,
    /// Per-level score accumulator used to build `ord`.
    scores: Vec<f64>,
    /// `rows[depth·L + level]`: the walk step's download time of `level`
    /// from the node at `depth` that `row_key[depth]` names.
    rows: Vec<f64>,
    /// `row_key[depth]`: the exact bits of the wall clock `rows` at
    /// `depth` were filled from; `None` until filled this decision.
    row_key: Vec<Option<u64>>,
}

/// Oracle-throughput receding-horizon controller.
#[derive(Debug, Clone)]
pub struct OracleMpc {
    cum: CumulativeTrace,
    qoe: Ksqi,
    horizon: usize,
    rtt_s: f64,
    max_buffer_s: f64,
    /// Whether the controller may schedule intentional rebuffering.
    allow_pause: bool,
    /// Whether the controller uses the manifest's sensitivity weights.
    sensitivity_aware: bool,
    /// Multiplier on stall time during planning. Even with exact future
    /// throughput, planning risk-neutrally against a mean-additive model
    /// trades "cheap" stalls for bitrate that peak-end raters punish —
    /// the same miscalibration [`crate::Fugu`] corrects.
    risk_aversion: f64,
    name: String,
    tables: ChunkTables,
    core: PlanCore,
    scratch: OracleScratch,
}

impl OracleMpc {
    /// The §2.4 *dynamic-sensitivity-aware* idealistic ABR.
    pub fn aware(trace: &ThroughputTrace) -> Self {
        Self {
            cum: CumulativeTrace::new(trace),
            qoe: Ksqi::canonical(),
            horizon: 6,
            rtt_s: 0.08,
            max_buffer_s: 24.0,
            allow_pause: true,
            sensitivity_aware: true,
            risk_aversion: 3.0,
            name: "Oracle(aware)".to_string(),
            tables: ChunkTables::default(),
            core: PlanCore::default(),
            scratch: OracleScratch::default(),
        }
    }

    /// Toggles the cross-chunk warm start (on by default). Disabling it
    /// forces every search to start cold — bit-identical results, more
    /// nodes — which is the warm-vs-cold parity suite's reference.
    pub fn with_warm_start(mut self, enabled: bool) -> Self {
        self.core.carry.set_enabled(enabled);
        self
    }

    /// The §2.4 *dynamic-sensitivity-unaware* idealistic ABR (optimizes
    /// plain KSQI).
    pub fn unaware(trace: &ThroughputTrace) -> Self {
        Self {
            allow_pause: false,
            sensitivity_aware: false,
            name: "Oracle(unaware)".to_string(),
            ..Self::aware(trace)
        }
    }

    /// The manifest weights this variant plans with.
    fn weights<'a>(&self, ctx: &SessionContext<'a>) -> Option<&'a SensitivityWeights> {
        ctx.weights.filter(|_| self.sensitivity_aware)
    }
}

impl Planner for OracleMpc {
    /// Fills every table that depends only on the chunk position: the
    /// horizon's weight window, the core's chunk tables and switch bound,
    /// and the guided order.
    fn prepare_step(&mut self, next_chunk: usize, ctx: &SessionContext<'_>) -> usize {
        let h = self.horizon.min(ctx.num_chunks() - next_chunk);
        let n_levels = ctx.num_levels();
        let d = ctx.chunk_duration_s;
        let window = self.weights(ctx);
        let OracleScratch {
            weights,
            ord,
            scores,
            ..
        } = &mut self.scratch;
        plan::fill_window(weights, window, next_chunk, h);
        self.tables.fill(next_chunk, h, ctx);
        // The bound is sound only when every bound step is FP-monotone:
        // nonnegative weights and nonnegative stall/switch penalties.
        // A fitted KSQI could in principle have negative penalties, in
        // which case pruning is simply disabled (full enumeration).
        let (_, b, c, _) = self.qoe.coefficients();
        ord.clear();
        if b >= 0.0 && c >= 0.0 && weights.iter().all(|&w| w >= 0.0) {
            // Guided order: highest no-stall, no-switch score first; with
            // nonnegative penalties it dominates the quality any walk can
            // realize here.
            for (&w, vqs) in weights.iter().zip(self.tables.vqs.chunks(n_levels)) {
                scores.clear();
                for &vq in vqs {
                    scores.push(w * self.qoe.chunk_quality(vq, 0.0, 0.0, d));
                }
                plan::push_order(ord, scores);
            }
            // No stall term: the oracle's download times depend on the
            // wall clock, which the bound cannot know.
            self.tables.switch_bounds(&self.qoe, Some(weights), d);
        }
        h
    }

    /// The per-lane decision: every pause candidate runs through one
    /// search sharing one incumbent.
    fn decide_prepared(
        &mut self,
        state: &PlayerState<'_>,
        ctx: &SessionContext<'_>,
        h: usize,
    ) -> Decision {
        // Charged at the same risk multiplier the planner applies to
        // predicted stalls, so relocating a stall is never spuriously
        // profitable (mirrors SENSEI-Fugu's accounting).
        let (_, stall_penalty, _, _) = self.qoe.coefficients();
        let pause_unit_cost = plan::playhead_weight(state, self.weights(ctx), ctx.chunk_duration_s)
            * stall_penalty
            * self.risk_aversion;
        let pauses: &[f64] = if self.allow_pause && state.playing {
            &PAUSE_LEVELS_S
        } else {
            &PAUSE_LEVELS_S[..1]
        };
        let n_levels = ctx.num_levels();
        let root = OracleWalk {
            t: state.elapsed_s,
            buf: state.buffer_s,
            prev: state
                .last_level
                .map(|l| (ctx.encoded.vq(state.next_chunk.saturating_sub(1), l), l)),
            total: 0.0,
        };
        let OracleScratch {
            stack,
            weights,
            ord,
            rows,
            row_key,
            ..
        } = &mut self.scratch;
        stack.clear();
        stack.resize(h + 1, root);
        rows.resize(h * n_levels, 0.0);
        row_key.clear();
        row_key.resize(h, None);
        let mut walk = TraceWalk {
            cum: &self.cum,
            qoe: &self.qoe,
            rtt_s: self.rtt_s,
            max_buffer_s: self.max_buffer_s,
            risk_aversion: self.risk_aversion,
            d: ctx.chunk_duration_s,
            h,
            n_levels,
            weights,
            tables: &self.tables,
            stack,
            rows,
            row_key,
            root,
            pauses,
            pause_unit_cost,
            pause_cost: 0.0,
            row_reads: 0,
            row_hits: 0,
        };
        let ord = (!ord.is_empty()).then_some(&ord[..]);
        let best = self.core.search(
            &mut walk,
            state.next_chunk,
            h,
            n_levels,
            ord,
            f64::NEG_INFINITY,
        );
        telemetry::count(telemetry::Counter::DtMemoLookups, walk.row_reads);
        telemetry::count(telemetry::Counter::DtMemoHits, walk.row_hits);
        self.core.commit_last(state.next_chunk);
        Decision {
            level: best.first,
            pause_s: pauses[best.cand],
        }
    }

    fn swap_lane(&mut self, lane: usize) {
        self.core.carry.swap_lane(lane);
    }
}

/// Running state of one exact-throughput plan prefix: wall clock, buffer,
/// previous `(vq, level)`, and accumulated weighted quality.
#[derive(Debug, Clone, Copy)]
struct OracleWalk {
    t: f64,
    buf: f64,
    prev: Option<(f64, usize)>,
    total: f64,
}

/// The oracle's transition: one exact-throughput walk per prefix under
/// the current pause candidate, whose cost is subtracted from every leaf
/// and bound.
struct TraceWalk<'a> {
    cum: &'a CumulativeTrace,
    qoe: &'a Ksqi,
    rtt_s: f64,
    max_buffer_s: f64,
    risk_aversion: f64,
    d: f64,
    h: usize,
    n_levels: usize,
    weights: &'a [f64],
    /// The chunk tables; the no-stall switch bound is the oracle's bound.
    tables: &'a ChunkTables,
    stack: &'a mut [OracleWalk],
    rows: &'a mut [f64],
    row_key: &'a mut [Option<u64>],
    /// The no-pause root; candidate `i` adds `pauses[i]` of buffer.
    root: OracleWalk,
    pauses: &'a [f64],
    /// Playhead weight × stall penalty × risk aversion: a full chunk's
    /// pause cost.
    pause_unit_cost: f64,
    /// The current candidate's pause cost.
    pause_cost: f64,
    /// Telemetry tallies, flushed once per decision: download times the
    /// walk read, and reads served by a row filled earlier.
    row_reads: u64,
    row_hits: u64,
}

impl TraceWalk<'_> {
    /// The download-time row of the node at `depth`, whose wall clock is
    /// `t`: `row[level]` is the walk step `rtt + download_time(t + rtt,
    /// size)`, bit for bit. The row is filled unless it already belongs
    /// to `t`'s exact bits; `reads` entries of it are about to be read.
    fn row(&mut self, depth: usize, t: f64, reads: u64) -> &[f64] {
        let row = &mut self.rows[depth * self.n_levels..(depth + 1) * self.n_levels];
        let key = Some(t.to_bits());
        self.row_reads += reads;
        if self.row_key[depth] == key {
            self.row_hits += reads;
        } else {
            let sizes = &self.tables.sizes[depth * self.n_levels..(depth + 1) * self.n_levels];
            self.cum.download_times(t + self.rtt_s, sizes, row);
            for dt in row.iter_mut() {
                *dt += self.rtt_s;
            }
            self.row_key[depth] = key;
        }
        row
    }
}

impl Transition for TraceWalk<'_> {
    fn candidates(&self) -> usize {
        self.pauses.len()
    }

    fn begin_candidate(&mut self, cand: usize) {
        let pause = self.pauses[cand];
        self.pause_cost = self.pause_unit_cost * (pause / self.d).clamp(0.0, 1.0);
        self.stack[0] = OracleWalk {
            buf: self.root.buf + pause,
            ..self.root
        };
    }

    /// Identical arithmetic to one step of the reference trace walk.
    fn step(&mut self, depth: usize, level: usize) {
        let parent = self.stack[depth];
        let dt = self.row(depth, parent.t, 1)[level];
        let stall = (dt - parent.buf).max(0.0);
        let mut buf = (parent.buf - dt).max(0.0) + self.d;
        buf = buf.min(self.max_buffer_s);
        let vq = self.tables.vqs[depth * self.n_levels + level];
        let switch = switch_penalty(parent.prev, vq, level);
        self.stack[depth + 1] = OracleWalk {
            t: parent.t + dt,
            buf,
            prev: Some((vq, level)),
            total: parent.total
                + self.weights[depth]
                    * self
                        .qoe
                        .chunk_quality(vq, stall * self.risk_aversion, switch, self.d),
        };
    }

    fn leaf_value(&self) -> f64 {
        self.stack[self.h].total - self.pause_cost
    }

    /// The parent's download-time row is copied into `leaf_q` first,
    /// then each level's slot is rewritten in place with one
    /// straight-line walk step plus the pause-cost subtraction.
    fn score_leaves(&mut self, depth: usize, leaf_q: &mut [f64]) {
        let parent = self.stack[depth];
        leaf_q.copy_from_slice(self.row(depth, parent.t, self.n_levels as u64));
        let w = self.weights[depth];
        for (level, slot) in leaf_q.iter_mut().enumerate() {
            let stall = (*slot - parent.buf).max(0.0);
            let vq = self.tables.vqs[depth * self.n_levels + level];
            let switch = switch_penalty(parent.prev, vq, level);
            let q = self
                .qoe
                .chunk_quality(vq, stall * self.risk_aversion, switch, self.d);
            *slot = (parent.total + w * q) - self.pause_cost;
        }
    }

    /// The node's running total extended with the core's no-stall switch
    /// bound (`ufirst` for the first remaining step, `umax` deeper), then
    /// the pause-cost subtraction the leaf performs; each operation is
    /// monotone under IEEE-754 round-to-nearest.
    fn bound(&self, depth: usize, prev: usize) -> f64 {
        let mut bnd = self.stack[depth].total + self.tables.ufirst0[depth * self.n_levels + prev];
        for j in depth + 1..self.h {
            bnd += self.tables.umax0[j];
        }
        bnd - self.pause_cost
    }
}

impl AbrPolicy for OracleMpc {
    fn name(&self) -> &str {
        &self.name
    }

    /// Oracles are constructed around a specific trace, so reusing one
    /// instance across sessions requires re-indexing the new network. The
    /// cumulative index rebuilds into its existing buffers, keeping the
    /// per-session cost allocation-free — and every warm carry is
    /// invalidated, because it is only valid for the trace it was
    /// computed against.
    fn rebind(&mut self, trace: &ThroughputTrace) {
        self.cum.rebind(trace);
        self.core.carry.rebind();
    }

    fn reset(&mut self) {
        self.core.carry.reset();
    }

    fn decide(&mut self, state: &PlayerState<'_>, ctx: &SessionContext<'_>) -> Decision {
        plan::decide(self, state, ctx)
    }

    fn begin_batch(&mut self, lanes: usize) {
        self.core.carry.begin_batch(lanes);
    }

    /// Plans every lane over tables prepared once per chunk step.
    /// Decisions are bit-identical to [`Self::decide`] per lane.
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
    use sensei_crowd::TrueQoe;
    use sensei_sim::{simulate, PlayerConfig};
    use sensei_video::{BitrateLadder, EncodedVideo, SensitivityWeights};

    #[test]
    fn oracle_avoids_stalls_a_predictor_cannot_foresee() {
        // A trace with a deep fade: the oracle knows it is coming.
        let mut samples = vec![3000.0; 30];
        samples.extend(vec![300.0; 20]);
        samples.extend(vec![3000.0; 100]);
        let trace = ThroughputTrace::new("fade", 1.0, samples).unwrap();
        let src = source();
        let enc = encoded(&src);
        let result = simulate(
            &src,
            &enc,
            &trace,
            &mut OracleMpc::unaware(&trace),
            &PlayerConfig::default(),
            None,
        )
        .unwrap();
        let stalls = result.render.total_rebuffer_s() - result.render.startup_delay_s();
        assert!(
            stalls < 1.0,
            "oracle stalled {stalls}s despite full knowledge"
        );
    }

    #[test]
    fn aware_beats_unaware_on_true_qoe_under_tight_bandwidth() {
        // The Fig. 6 claim, in miniature.
        let src = source();
        let enc = encoded(&src);
        let weights = SensitivityWeights::ground_truth(&src);
        let oracle = TrueQoe::default();
        let config = PlayerConfig::default();
        let mut aware_total = 0.0;
        let mut unaware_total = 0.0;
        for seed in 0..5 {
            let trace = sensei_trace::generate::hsdpa_like(1300.0, 600, 40 + seed);
            let a = simulate(
                &src,
                &enc,
                &trace,
                &mut OracleMpc::aware(&trace),
                &config,
                Some(&weights),
            )
            .unwrap();
            let u = simulate(
                &src,
                &enc,
                &trace,
                &mut OracleMpc::unaware(&trace),
                &config,
                None,
            )
            .unwrap();
            aware_total += oracle.qoe01(&src, &a.render).unwrap();
            unaware_total += oracle.qoe01(&src, &u.render).unwrap();
        }
        assert!(
            aware_total > unaware_total,
            "aware {aware_total:.3} vs unaware {unaware_total:.3}"
        );
    }

    #[test]
    fn unaware_never_pauses() {
        let src = source();
        let enc = encoded(&src);
        let trace = sensei_trace::generate::hsdpa_like(1300.0, 600, 9);
        let result = simulate(
            &src,
            &enc,
            &trace,
            &mut OracleMpc::unaware(&trace),
            &PlayerConfig::default(),
            None,
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

    /// [`flat_best`] over the exact trace: one scenario of probability 1,
    /// one root per pause candidate in declaration order.
    fn reference_decide(
        mpc: &OracleMpc,
        state: &PlayerState<'_>,
        ctx: &SessionContext<'_>,
    ) -> Decision {
        let h = mpc.horizon.min(ctx.num_chunks() - state.next_chunk);
        let mut weights = vec![1.0; h];
        if let Some(w) = mpc.weights(ctx) {
            weights = w.window(state.next_chunk, h).to_vec();
            weights.resize(h, 1.0);
        }
        let (_, stall_penalty, _, _) = mpc.qoe.coefficients();
        let pauses: &[f64] = if mpc.allow_pause && state.playing {
            &[0.0, 1.0, 2.0]
        } else {
            &[0.0]
        };
        let d = ctx.chunk_duration_s;
        let playhead_w = mpc.weights(ctx).map_or(1.0, |w| {
            let playhead = state
                .next_chunk
                .saturating_sub((state.buffer_s / d).ceil() as usize);
            w.get(playhead.min(w.len() - 1)).unwrap_or(1.0)
        });
        let roots: Vec<FlatRoot> = pauses
            .iter()
            .map(|&pause| FlatRoot {
                buffer_s: state.buffer_s + pause,
                elapsed_s: state.elapsed_s,
                pause_cost: playhead_w
                    * stall_penalty
                    * mpc.risk_aversion
                    * (pause / d).clamp(0.0, 1.0),
            })
            .collect();
        let plan = FlatPlan {
            ctx,
            qoe: mpc.qoe.clone(),
            risk_aversion: mpc.risk_aversion,
            max_buffer_s: mpc.max_buffer_s,
            h,
            weights: Some(&weights),
            scenarios: 1,
        };
        let (cand, level, _) = flat_best(
            &plan,
            state,
            &roots,
            |_| 1.0,
            |_, t, chunk, level| {
                let size = ctx.encoded.size_bits(chunk, level).unwrap();
                mpc.rtt_s + mpc.cum.download_time(t + mpc.rtt_s, size)
            },
        );
        Decision {
            level,
            pause_s: pauses[cand],
        }
    }

    #[test]
    fn oracle_search_matches_the_flat_reference() {
        let src = source();
        let enc = encoded(&src);
        let weights = SensitivityWeights::ground_truth(&src);
        let trace = sensei_trace::generate::hsdpa_like(1400.0, 600, 23);
        // Horizon 4 keeps the 3 · levels^h · h reference walks tractable
        // in debug builds; the search structure (prefix sharing, rows,
        // bound, pause loop) is identical at every horizon, and the full
        // default horizon is additionally spot-checked below.
        let mut configs = [OracleMpc::aware(&trace), OracleMpc::unaware(&trace)];
        for mpc in &mut configs {
            mpc.horizon = 4;
            let ctx = SessionContext {
                encoded: &enc,
                weights: mpc.sensitivity_aware.then_some(&weights),
                chunk_duration_s: src.chunk_duration_s(),
            };
            for next_chunk in [0, 2, 7, src.num_chunks() - 2, src.num_chunks() - 1] {
                for buffer_s in [0.5, 4.0, 12.5, 23.5] {
                    for elapsed_s in [0.0, 37.25, 188.0] {
                        let state = PlayerState {
                            next_chunk,
                            buffer_s,
                            last_level: Some(2),
                            throughput_history_kbps: &[1000.0; 4],
                            download_time_history_s: &[1.0; 4],
                            elapsed_s,
                            playing: true,
                        };
                        let fast = mpc.decide(&state, &ctx);
                        let slow = reference_decide(mpc, &state, &ctx);
                        assert_eq!(
                            fast.level, slow.level,
                            "{} level at chunk {next_chunk}, buf {buffer_s}, t {elapsed_s}",
                            mpc.name
                        );
                        assert_eq!(
                            fast.pause_s.to_bits(),
                            slow.pause_s.to_bits(),
                            "{} pause at chunk {next_chunk}, buf {buffer_s}, t {elapsed_s}",
                            mpc.name
                        );
                    }
                }
            }
        }
        // Full default horizon, one representative mid-session state per
        // variant (the reference enumerates 3 · 5^6 plans here — costly,
        // so just one state each).
        for mpc in &mut [OracleMpc::aware(&trace), OracleMpc::unaware(&trace)] {
            let ctx = SessionContext {
                encoded: &enc,
                weights: mpc.sensitivity_aware.then_some(&weights),
                chunk_duration_s: src.chunk_duration_s(),
            };
            let state = PlayerState {
                next_chunk: 6,
                buffer_s: 9.0,
                last_level: Some(1),
                throughput_history_kbps: &[1200.0; 5],
                download_time_history_s: &[1.0; 5],
                elapsed_s: 51.5,
                playing: true,
            };
            let fast = mpc.decide(&state, &ctx);
            let slow = reference_decide(mpc, &state, &ctx);
            assert_eq!((fast.level, fast.pause_s), (slow.level, slow.pause_s));
        }
    }

    #[test]
    fn warm_instance_matches_cold_instance_bit_for_bit() {
        // One long-lived instance deciding many states must decide
        // exactly like a fresh instance per state: reads served from an
        // already-filled download-time row are bit-invisible.
        let src = source();
        let enc = encoded(&src);
        let weights = SensitivityWeights::ground_truth(&src);
        let trace = sensei_trace::generate::hsdpa_like(1100.0, 600, 7);
        let mut warm = OracleMpc::aware(&trace);
        let ctx = SessionContext {
            encoded: &enc,
            weights: Some(&weights),
            chunk_duration_s: src.chunk_duration_s(),
        };
        let mut row_hits = 0;
        for next_chunk in 0..src.num_chunks() {
            for (buffer_s, elapsed_s) in [(1.0, 10.0), (8.0, 77.7), (20.0, 140.0)] {
                let state = PlayerState {
                    next_chunk,
                    buffer_s,
                    last_level: Some(3),
                    throughput_history_kbps: &[900.0; 3],
                    download_time_history_s: &[1.0; 3],
                    elapsed_s,
                    playing: true,
                };
                telemetry::begin();
                let warm_d = warm.decide(&state, &ctx);
                row_hits += telemetry::end().counter(telemetry::Counter::DtMemoHits);
                let cold_d = OracleMpc::aware(&trace).decide(&state, &ctx);
                assert_eq!(warm_d.level, cold_d.level);
                assert_eq!(warm_d.pause_s.to_bits(), cold_d.pause_s.to_bits());
            }
        }
        assert!(row_hits > 0, "the rows should actually serve reads");
    }

    #[test]
    fn download_times_do_not_alias_across_chunks_on_long_ladders() {
        // A 257-level ladder, planned at chunk c + 1 and then at chunk c
        // by one instance: no download time of chunk c + 1 may be read
        // for chunk c (level 256 of chunk c and level 0 of chunk c + 1
        // collide under any `chunk << 8 | level` indexing).
        let src = source();
        let ladder: Vec<f64> = (0..257).map(|i| 300.0 + 50.0 * f64::from(i)).collect();
        let enc = EncodedVideo::encode(&src, &BitrateLadder::new(ladder).unwrap(), 5);
        let trace = ThroughputTrace::constant("slow", 1000.0, 600.0).unwrap();
        let ctx = SessionContext {
            encoded: &enc,
            weights: None,
            chunk_duration_s: src.chunk_duration_s(),
        };
        let state = |next_chunk| PlayerState {
            next_chunk,
            buffer_s: 1.0,
            last_level: None,
            throughput_history_kbps: &[1000.0; 3],
            download_time_history_s: &[1.0; 3],
            elapsed_s: 30.0,
            playing: true,
        };
        let oracle = || {
            let mut mpc = OracleMpc::unaware(&trace);
            mpc.horizon = 1;
            mpc
        };
        let c = 4;
        let mut reused = oracle();
        let _ = reused.decide(&state(c + 1), &ctx);
        let second = reused.decide(&state(c), &ctx);
        let fresh = oracle().decide(&state(c), &ctx);
        // On a 1000 kbps link with a 1 s buffer the top level stalls for
        // most of a minute; only an aliased (tiny) download time picks it.
        assert!(fresh.level < 10, "fresh oracle chose level {}", fresh.level);
        assert_eq!(second, fresh, "download times leaked across chunks");
    }
}
