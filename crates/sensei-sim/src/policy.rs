//! The ABR policy interface (§5.1's refactored control layer).
//!
//! Fig. 10 of the paper lists the inputs of SENSEI's ABR framework — buffer
//! status, past throughput, chunk sizes, *and the weights of future chunks*
//! — and its outputs — bitrate selection *and rebuffering-time selection*.
//! [`PlayerState`]/[`SessionContext`] carry the inputs, [`Decision`] the
//! outputs; non-SENSEI policies simply ignore the new fields.

use sensei_trace::ThroughputTrace;
use sensei_video::{EncodedVideo, SensitivityWeights};

/// Dynamic player state visible to a policy at decision time.
///
/// The history fields borrow the lane engine's flat arrays: the state is
/// `Copy`, so policies that want to evaluate hypothetical variants (e.g.
/// SENSEI's pause candidates) copy it for free instead of cloning two
/// heap-allocated vectors per decision.
#[derive(Debug, Clone, Copy)]
pub struct PlayerState<'a> {
    /// Index of the chunk about to be downloaded.
    pub next_chunk: usize,
    /// Media seconds currently buffered.
    pub buffer_s: f64,
    /// Ladder level of the previously downloaded chunk (`None` before the
    /// first chunk).
    pub last_level: Option<usize>,
    /// Measured throughput of past chunk downloads, kbps, oldest first.
    pub throughput_history_kbps: &'a [f64],
    /// Download time of past chunks, seconds, oldest first.
    pub download_time_history_s: &'a [f64],
    /// Wall-clock seconds since the session started.
    pub elapsed_s: f64,
    /// Whether playback has started (startup phase complete).
    pub playing: bool,
}

impl PlayerState<'_> {
    /// Harmonic mean of the last `n` throughput samples (kbps) — the
    /// classic robust throughput estimator. Returns `None` with no history.
    pub fn harmonic_mean_throughput(&self, n: usize) -> Option<f64> {
        let hist = self.throughput_history_kbps;
        if hist.is_empty() || n == 0 {
            return None;
        }
        let tail = &hist[hist.len().saturating_sub(n)..];
        let denom: f64 = tail.iter().map(|&v| 1.0 / v.max(1e-9)).sum();
        Some(tail.len() as f64 / denom)
    }
}

/// Static per-session context visible to a policy.
#[derive(Debug, Clone, Copy)]
pub struct SessionContext<'a> {
    /// Encoded chunk sizes at every ladder level, and each chunk's
    /// per-level visual quality ([`EncodedVideo::vq`]) — metadata a real
    /// manifest can carry (Puffer ships per-chunk SSIM the same way).
    pub encoded: &'a EncodedVideo,
    /// Per-chunk sensitivity weights; `Some` only for SENSEI-enabled
    /// players whose manifest carried them.
    pub weights: Option<&'a SensitivityWeights>,
    /// Chunk duration in seconds.
    pub chunk_duration_s: f64,
}

impl SessionContext<'_> {
    /// Number of chunks in the video.
    pub fn num_chunks(&self) -> usize {
        self.encoded.num_chunks()
    }

    /// Number of ladder levels.
    pub fn num_levels(&self) -> usize {
        self.encoded.ladder().len()
    }
}

/// A policy's decision for the next chunk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Ladder level to download the next chunk at.
    pub level: usize,
    /// Intentional rebuffering to inject at the next playback chunk
    /// boundary, in seconds (0 for traditional policies; SENSEI uses
    /// {0, 1, 2}).
    pub pause_s: f64,
}

impl Decision {
    /// A plain bitrate decision with no intentional pause.
    pub fn level(level: usize) -> Self {
        Self {
            level,
            pause_s: 0.0,
        }
    }
}

/// An adaptive-bitrate algorithm.
///
/// Policies follow a reuse lifecycle so one instance can serve thousands of
/// sessions: [`Self::rebind`] attaches trace-bound policies to the next
/// session's network, [`Self::begin_batch`] prepares per-session state
/// (its default calls [`Self::reset`]) before every batch — a
/// [`crate::simulate`] session is a one-lane batch — and
/// [`Self::decide`] runs per chunk.
pub trait AbrPolicy {
    /// Algorithm name for reports.
    fn name(&self) -> &str;

    /// Chooses the level (and optional intentional pause) for the next
    /// chunk.
    fn decide(&mut self, state: &PlayerState<'_>, ctx: &SessionContext<'_>) -> Decision;

    /// Resets internal state before a new session; default is stateless.
    /// The default [`Self::begin_batch`] calls it once per batch.
    fn reset(&mut self) {}

    /// Rebinds the policy to a new session's throughput trace. Only
    /// oracle-style controllers that were constructed around a specific
    /// trace need this; the default is a no-op because ordinary policies
    /// observe the network solely through [`PlayerState`].
    ///
    /// The batch path (`sensei_core::Experiment`) calls this only for
    /// policy kinds that read the whole trace (the oracles); every other
    /// kind is built and batched without a trace and never rebound, so
    /// an override must not carry state a session depends on — per-batch
    /// hygiene belongs in [`Self::begin_batch`].
    fn rebind(&mut self, _trace: &ThroughputTrace) {}

    /// Prepares the policy to serve `lanes` concurrent sessions of one
    /// [`crate::batch::simulate_batch_in`] batch. Called once per batch,
    /// before the first [`Self::select_batch`].
    ///
    /// The default resets the instance once, which is correct for
    /// policies whose `decide` is a pure function of `(state, ctx)` — a
    /// policy with **per-session mutable state** (e.g. a pause budget)
    /// must override this together with [`Self::select_batch`] to keep
    /// one state slot per lane; otherwise the lanes would bleed into each
    /// other.
    fn begin_batch(&mut self, lanes: usize) {
        let _ = lanes;
        self.reset();
    }

    /// Chooses every lane's decision for the current chunk of a batch —
    /// `out[i]` for lane `i` of `states`. Called once per chunk step with
    /// all lanes of this policy's group (the lane order is stable across
    /// the whole batch).
    ///
    /// The default is the scalar loop over [`Self::decide`], so every
    /// policy is batch-correct out of the box. Overrides exist for three
    /// reasons: to cut per-lane dispatch (BBA maps the whole lane-buffer
    /// slice through its threshold rule in one loop), to keep per-session
    /// mutable state per lane (SENSEI-Fugu's pause ledger), or to hoist
    /// lane-invariant planning work out of the lane loop — every lane of
    /// a batch sits at the same chunk of the same video, so the MPC
    /// family prepares its manifest tables, horizon weight window, and
    /// search bounds once per chunk step for every lane. No override may
    /// change a single result bit.
    fn select_batch(
        &mut self,
        states: &crate::batch::BatchStates<'_>,
        ctx: &SessionContext<'_>,
        out: &mut [Decision],
    ) {
        for (i, slot) in out.iter_mut().enumerate().take(states.len()) {
            *slot = self.decide(&states.state(i), ctx);
        }
    }
}

/// Boxed policies are policies, so experiment harnesses can hold
/// heterogeneous `Box<dyn AbrPolicy>` line-ups and still hand them to
/// [`crate::simulate`].
impl<P: AbrPolicy + ?Sized> AbrPolicy for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn decide(&mut self, state: &PlayerState<'_>, ctx: &SessionContext<'_>) -> Decision {
        (**self).decide(state, ctx)
    }

    fn reset(&mut self) {
        (**self).reset();
    }

    fn rebind(&mut self, trace: &ThroughputTrace) {
        (**self).rebind(trace);
    }

    fn begin_batch(&mut self, lanes: usize) {
        (**self).begin_batch(lanes);
    }

    fn select_batch(
        &mut self,
        states: &crate::batch::BatchStates<'_>,
        ctx: &SessionContext<'_>,
        out: &mut [Decision],
    ) {
        (**self).select_batch(states, ctx, out);
    }
}

/// The trait must stay object-safe: policies are swapped at runtime as
/// `Box<dyn AbrPolicy>` by the experiment harness.
const _: fn(&dyn AbrPolicy) = |_| {};

/// A fixed-level policy, useful for tests and as a lower bound.
#[derive(Debug, Clone)]
pub struct FixedLevel {
    level: usize,
    name: String,
}

impl FixedLevel {
    /// Builds a policy that always picks `level`.
    pub fn new(level: usize) -> Self {
        Self {
            level,
            name: format!("Fixed({level})"),
        }
    }
}

impl AbrPolicy for FixedLevel {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide(&mut self, _state: &PlayerState<'_>, _ctx: &SessionContext<'_>) -> Decision {
        Decision::level(self.level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_mean_is_robust_to_spikes() {
        let state = PlayerState {
            next_chunk: 3,
            buffer_s: 8.0,
            last_level: Some(2),
            throughput_history_kbps: &[1000.0, 1000.0, 100000.0],
            download_time_history_s: &[1.0, 1.0, 0.1],
            elapsed_s: 10.0,
            playing: true,
        };
        let hm = state.harmonic_mean_throughput(3).unwrap();
        // Harmonic mean stays near the low samples despite the spike.
        assert!(hm < 3100.0, "hm = {hm}");
        // Window shorter than history uses the tail.
        let hm1 = state.harmonic_mean_throughput(1).unwrap();
        assert!((hm1 - 100000.0).abs() < 1e-6);
    }

    #[test]
    fn harmonic_mean_requires_history() {
        let state = PlayerState {
            next_chunk: 0,
            buffer_s: 0.0,
            last_level: None,
            throughput_history_kbps: &[],
            download_time_history_s: &[],
            elapsed_s: 0.0,
            playing: false,
        };
        assert!(state.harmonic_mean_throughput(5).is_none());
    }

    #[test]
    fn decision_level_constructor() {
        let d = Decision::level(3);
        assert_eq!(d.level, 3);
        assert_eq!(d.pause_s, 0.0);
    }
}
