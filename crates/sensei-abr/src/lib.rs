//! Adaptive-bitrate algorithms for the SENSEI reproduction.
//!
//! The paper's baselines (§7.1) and SENSEI's variants of them (§5.2):
//!
//! * [`bba`] — Buffer-Based Adaptation (Huang et al. 2014): a reservoir/
//!   cushion map from buffer occupancy to bitrate. No explicit QoE
//!   objective, hence "cannot be optimized by SENSEI as is" (§5.1).
//! * [`predictor`] — harmonic-mean throughput prediction with discrete
//!   error scenarios `p(γ)`, the uncertainty model in Fugu's objective
//!   (Eq. 3).
//! * [`fugu`] — Fugu (Yan et al. 2020) as described by the paper: MPC over
//!   a horizon of h = 5 chunks maximizing expected KSQI chunk quality over
//!   throughput scenarios.
//! * [`sensei_fugu`] — SENSEI-Fugu (Eq. 4): the same controller with
//!   per-chunk weights in the objective and the intentional-rebuffering
//!   action.
//! * [`pensieve`] — Pensieve (Mao et al. 2017): an actor-critic policy
//!   trained in the simulator, rewarded by KSQI chunk quality.
//! * [`sensei_pensieve`] — SENSEI-Pensieve: weights of the next h chunks
//!   appended to the state, rebuffering added to the action space, reward
//!   reweighted (§5.2).
//! * [`offline`] — the idealistic §2.4 controllers that know the entire
//!   throughput trace, used to bound the potential gains (Fig. 6).
//! * `plan` — the branch-and-bound core the horizon planners (Fugu,
//!   SENSEI-Fugu, and the oracles) share; each supplies only its walk.
//! * [`das_ip`] — DAS-IP (Singh & Kumar, arXiv:1612.05864): a per-level
//!   index policy that replaces the MPC horizon enumeration with an
//!   `O(levels)` argmax, the fleet-scale cost point of the family.

// Ladder levels, plan indices, and horizon depths move between
// integer and f64 domains constantly; every float→index conversion
// is clamped to the ladder by construction, and counts stay far
// below 2^52. The merge-law cast rules are enforced where they
// matter (sensei-fleet) by sensei-lint's `no-lossy-cast`.
#![allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]

pub mod bba;
pub mod das_ip;
pub mod fugu;
pub mod offline;
pub mod pensieve;
mod plan;
pub mod predictor;
pub mod sensei_fugu;
pub mod sensei_pensieve;

pub use bba::Bba;
pub use das_ip::DasIp;
pub use fugu::Fugu;
pub use offline::OracleMpc;
pub use pensieve::{Pensieve, PensieveConfig};
pub use predictor::{ThroughputPredictor, ThroughputScenario};
pub use sensei_fugu::SenseiFugu;
pub use sensei_pensieve::SenseiPensieve;

/// Errors produced by ABR construction and training.
#[derive(Debug, Clone, PartialEq)]
pub enum AbrError {
    /// A hyperparameter is invalid.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// Training failed (empty corpus, simulator failure).
    Training(String),
    /// An underlying ML error.
    Ml(sensei_ml::MlError),
    /// An underlying simulator error.
    Sim(sensei_sim::SimError),
}

impl std::fmt::Display for AbrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbrError::InvalidParameter { name, value } => {
                write!(f, "invalid parameter {name} = {value}")
            }
            AbrError::Training(msg) => write!(f, "training failed: {msg}"),
            AbrError::Ml(e) => write!(f, "ml error: {e}"),
            AbrError::Sim(e) => write!(f, "sim error: {e}"),
        }
    }
}

impl std::error::Error for AbrError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AbrError::Ml(e) => Some(e),
            AbrError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<sensei_ml::MlError> for AbrError {
    fn from(e: sensei_ml::MlError) -> Self {
        AbrError::Ml(e)
    }
}

impl From<sensei_sim::SimError> for AbrError {
    fn from(e: sensei_sim::SimError) -> Self {
        AbrError::Sim(e)
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared fixtures for ABR tests.
    use sensei_qoe::Ksqi;
    use sensei_sim::{PlayerState, SessionContext};
    use sensei_video::content::{Genre, SceneKind, SceneSpec};
    use sensei_video::{BitrateLadder, EncodedVideo, SourceVideo};

    /// A 20-chunk sports-like video with a key moment in the second half.
    pub fn source() -> SourceVideo {
        SourceVideo::from_script(
            "abr-test",
            Genre::Sports,
            &[
                SceneSpec::new(SceneKind::NormalPlay, 8),
                SceneSpec::new(SceneKind::Scenic, 4),
                SceneSpec::new(SceneKind::KeyMoment, 4),
                SceneSpec::new(SceneKind::NormalPlay, 4),
            ],
            55,
        )
        .unwrap()
    }

    pub fn encoded(src: &SourceVideo) -> EncodedVideo {
        EncodedVideo::encode(src, &BitrateLadder::default_paper(), 5)
    }

    /// The shared setting of one flat reference enumeration.
    pub struct FlatPlan<'a> {
        pub ctx: &'a SessionContext<'a>,
        pub qoe: Ksqi,
        pub risk_aversion: f64,
        pub max_buffer_s: f64,
        pub h: usize,
        /// Per-depth objective weights (`None` scores plain quality).
        pub weights: Option<&'a [f64]>,
        /// Throughput scenarios walked per plan.
        pub scenarios: usize,
    }

    /// One candidate's root: the walk's starting buffer and wall clock,
    /// and the cost subtracted from each of its plans.
    pub struct FlatRoot {
        pub buffer_s: f64,
        pub elapsed_s: f64,
        pub pause_cost: f64,
    }

    /// The flat reference every planner search must reproduce bit for
    /// bit: each `(candidate, plan)` pair scored from scratch by an
    /// independent buffer walk per scenario (no prefix sharing, no shared
    /// download times, no floor, no pruning), candidates in order, plans in odometer (lexicographic)
    /// order, strictly-greater winner updates. `prob(si)` is scenario
    /// `si`'s probability and `download_time(si, t, chunk, level)` its
    /// download time at wall clock `t`. Returns the winner's candidate,
    /// first action, and score.
    pub fn flat_best(
        plan: &FlatPlan<'_>,
        state: &PlayerState<'_>,
        roots: &[FlatRoot],
        prob: impl Fn(usize) -> f64,
        download_time: impl Fn(usize, f64, usize, usize) -> f64,
    ) -> (usize, usize, f64) {
        let ctx = plan.ctx;
        let d = ctx.chunk_duration_s;
        let prev0 = state
            .last_level
            .map(|l| (ctx.encoded.vq(state.next_chunk.saturating_sub(1), l), l));
        let mut best = (0, 0, f64::NEG_INFINITY);
        for (cand, root) in roots.iter().enumerate() {
            let mut levels = vec![0usize; plan.h];
            loop {
                let mut q = 0.0;
                for si in 0..plan.scenarios {
                    let (mut t, mut buf, mut prev) = (root.elapsed_s, root.buffer_s, prev0);
                    let mut total = 0.0;
                    for (j, &level) in levels.iter().enumerate() {
                        let chunk = state.next_chunk + j;
                        let dt = download_time(si, t, chunk, level);
                        let stall = (dt - buf).max(0.0);
                        buf = ((buf - dt).max(0.0) + d).min(plan.max_buffer_s);
                        let vq = ctx.encoded.vq(chunk, level);
                        let switch = match prev {
                            Some((pvq, plevel)) if plevel != level => (vq - pvq).abs(),
                            _ => 0.0,
                        };
                        prev = Some((vq, level));
                        let cq = plan
                            .qoe
                            .chunk_quality(vq, stall * plan.risk_aversion, switch, d);
                        total += plan.weights.map_or(cq, |w| w[j] * cq);
                        t += dt;
                    }
                    q += prob(si) * total;
                }
                let q = q - root.pause_cost;
                if q > best.2 {
                    best = (cand, levels[0], q);
                }
                // Odometer increment; a full wrap ends this candidate.
                let Some(pos) = levels.iter().rposition(|&l| l + 1 < ctx.num_levels()) else {
                    break;
                };
                levels[pos] += 1;
                levels[pos + 1..].fill(0);
            }
        }
        best
    }
}
