//! DAS-IP: an index policy for bitrate adaptation, after Singh & Kumar,
//! "Optimal Adaptive Bitrate Streaming via Index Policies"
//! (arXiv:1612.05864), who show the MPC horizon enumeration can be
//! replaced by a per-level *index* — a Whittle-style scalar computed from
//! the current buffer level and predicted throughput — whose argmax is the
//! bitrate choice. Complexity per decision is `O(levels × scenarios)`
//! with no horizon tree at all, which is what makes MPC-quality control
//! affordable at fleet scale.
//!
//! ## The index
//!
//! For candidate level `l` under throughput scenario `s` (probability
//! `p_s`, rate `r_s` from the same hedged harmonic-mean predictor Fugu
//! uses), the policy simulates exactly one chunk:
//!
//! ```text
//! dt_ls    = rtt + size_l / r_s                     (download time)
//! stall_ls = max(dt_ls − buffer, 0)
//! buf'_ls  = min(max(buffer − dt_ls, 0) + d, B_max) (post-chunk buffer)
//! ```
//!
//! and scores `index_l = Σ_s p_s · [ q(vq_l, risk · stall_ls, switch_l)
//! + κ · min(buf'_ls, B_safe) / B_safe ]`, where `q` is the canonical
//! KSQI chunk quality the MPC family plans against. The first term is the
//! myopic expected quality of downloading `l` right now; the second is
//! the *buffer subsidy* — the index-policy analogue of the passive
//! action's value in a Whittle decomposition — which credits levels that
//! leave headroom for future chunks and is what substitutes for the
//! horizon lookahead. `κ` is calibrated so the subsidy trades against
//! roughly one ladder step of visual quality across the safe range
//! `[0, B_safe]`.

use crate::plan::{self, Planner, MAX_BUFFER_S, RISK_AVERSION, RTT_S};
use crate::predictor::ThroughputPredictor;
use sensei_qoe::Ksqi;
use sensei_sim::{AbrPolicy, BatchStates, Decision, PlayerState, SessionContext};

/// Reusable per-decision scratch (see the MPC family's scratch pattern).
#[derive(Debug, Clone, Default)]
struct IndexScratch {
    /// Scenario `(probability, kbps)` pairs.
    rates: Vec<(f64, f64)>,
    /// Per-level chunk size in bits at the next chunk.
    sizes: Vec<f64>,
    /// Per-level visual quality at the next chunk.
    vqs: Vec<f64>,
}

/// `κ`: weight of the buffer subsidy against KSQI quality units.
const SAFETY_WEIGHT: f64 = 1.5;

/// `B_safe`: buffer level (seconds) past which more headroom earns no
/// further subsidy.
const SAFE_BUFFER_S: f64 = 12.0;

/// The DAS-IP index policy. It scores with the MPC family's round-trip
/// time, buffer cap and stall multiplier (the private `plan` module's
/// constants), so the two control families price rebuffering
/// identically.
#[derive(Debug, Clone)]
pub struct DasIp {
    predictor: ThroughputPredictor,
    qoe: Ksqi,
    scratch: IndexScratch,
}

impl DasIp {
    /// Builds DAS-IP with the default predictor and canonical KSQI.
    pub fn new() -> Self {
        Self {
            predictor: ThroughputPredictor::default(),
            qoe: Ksqi::canonical(),
            scratch: IndexScratch::default(),
        }
    }
}

impl Default for DasIp {
    fn default() -> Self {
        Self::new()
    }
}

impl Planner for DasIp {
    /// Fills the per-level size/vq row of `next_chunk`, which every lane
    /// of a batch shares. The index looks one chunk ahead, so the horizon
    /// is 1 (0 at the video end).
    fn prepare_step(&mut self, next_chunk: usize, ctx: &SessionContext<'_>) -> usize {
        if next_chunk >= ctx.num_chunks() {
            return 0;
        }
        let IndexScratch { sizes, vqs, .. } = &mut self.scratch;
        sizes.clear();
        sizes.extend((0..ctx.num_levels()).map(|level| {
            let size = ctx.encoded.size_bits(next_chunk, level);
            size.expect("next chunk in range")
        }));
        vqs.clear();
        vqs.extend(ctx.encoded.vq_row(next_chunk));
        1
    }

    /// Computes every level's index and returns the argmax (first winner
    /// on ties, matching the MPC family's strictly-greater updates) over
    /// the row `prepare_step` filled.
    fn decide_prepared(
        &mut self,
        state: &PlayerState<'_>,
        ctx: &SessionContext<'_>,
        _h: usize,
    ) -> Decision {
        let IndexScratch { rates, sizes, vqs } = &mut self.scratch;
        self.predictor.scenario_rates_into(state, rates);
        let d = ctx.chunk_duration_s;
        let prev = state
            .last_level
            .map(|l| (ctx.encoded.vq(state.next_chunk.saturating_sub(1), l), l));
        let mut best_level = 0usize;
        let mut best_index = f64::NEG_INFINITY;
        for (level, (&size, &vq)) in sizes.iter().zip(vqs.iter()).enumerate() {
            let switch = match prev {
                Some((pvq, plevel)) if plevel != level => (vq - pvq).abs(),
                _ => 0.0,
            };
            let mut index = 0.0;
            for &(p, rate_kbps) in rates.iter() {
                let dt = RTT_S + size / (rate_kbps * 1000.0);
                let stall = (dt - state.buffer_s).max(0.0);
                let mut buf = (state.buffer_s - dt).max(0.0) + d;
                buf = buf.min(MAX_BUFFER_S);
                let q = self.qoe.chunk_quality(vq, stall * RISK_AVERSION, switch, d);
                let subsidy = SAFETY_WEIGHT * (buf.min(SAFE_BUFFER_S) / SAFE_BUFFER_S);
                index += p * (q + subsidy);
            }
            if index > best_index {
                best_index = index;
                best_level = level;
            }
        }
        Decision::level(best_level)
    }

    /// DAS-IP keeps no per-session state, so there is nothing to swap.
    fn swap_lane(&mut self, _lane: usize) {}
}

impl AbrPolicy for DasIp {
    fn name(&self) -> &str {
        "DAS-IP"
    }

    fn decide(&mut self, state: &PlayerState<'_>, ctx: &SessionContext<'_>) -> Decision {
        plan::decide(self, state, ctx)
    }

    /// Scores every lane of the batch in one pass over the shared
    /// per-level size/vq row (all lanes of a tile sit at the same chunk),
    /// leaving only the O(levels × scenarios) index fold in the lane
    /// loop. Bit-identical to [`Self::decide`] per lane.
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
    use crate::test_support::{encoded, source};
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
            &mut DasIp::new(),
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
    fn tracks_fugu_on_variable_traces() {
        // The index policy must stay in the MPC family's QoE
        // neighbourhood (that is its entire reason to exist) at a tiny
        // fraction of the planning cost.
        let src = source();
        let enc = encoded(&src);
        let qoe = Ksqi::canonical();
        let config = PlayerConfig::default();
        let mut das_total = 0.0;
        let mut fugu_total = 0.0;
        for seed in 0..6 {
            let trace = sensei_trace::generate::fcc_like(1800.0, 600, 200 + seed);
            let i = simulate(&src, &enc, &trace, &mut DasIp::new(), &config, None).unwrap();
            let f = simulate(&src, &enc, &trace, &mut crate::Fugu::new(), &config, None).unwrap();
            das_total += sensei_qoe::QoeModel::predict(&qoe, &i.render).unwrap();
            fugu_total += sensei_qoe::QoeModel::predict(&qoe, &f.render).unwrap();
        }
        let das = das_total / 6.0;
        let fugu = fugu_total / 6.0;
        assert!(
            das > fugu - 0.35,
            "DAS-IP {das:.3} fell out of Fugu's neighbourhood ({fugu:.3})"
        );
    }

    #[test]
    fn buffer_subsidy_tempers_greed_when_starved() {
        // With a starved buffer the index must not pick the same level a
        // pure myopic-quality argmax would on a generous estimate.
        let src = source();
        let enc = encoded(&src);
        let ctx = SessionContext {
            encoded: &enc,
            weights: None,
            chunk_duration_s: src.chunk_duration_s(),
        };
        let mut das = DasIp::new();
        let hist = [2500.0; 5];
        let dts = [1.0; 5];
        let starved = PlayerState {
            next_chunk: 5,
            buffer_s: 1.0,
            last_level: Some(2),
            throughput_history_kbps: &hist,
            download_time_history_s: &dts,
            elapsed_s: 20.0,
            playing: true,
        };
        let mut flush = starved;
        flush.buffer_s = 20.0;
        let lean = das.decide(&starved, &ctx).level;
        let rich = das.decide(&flush, &ctx).level;
        assert!(
            lean <= rich,
            "starved pick {lean} should not exceed flush pick {rich}"
        );
    }
}
