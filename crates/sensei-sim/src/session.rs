//! The streaming-session event loop.
//!
//! Sequential-download DASH model: one chunk in flight at a time, playback
//! draining the buffer concurrently. Playback is simulated explicitly (not
//! just as a buffer scalar) so that every stall — forced or intentional —
//! is attributed to the chunk boundary it precedes, which is what per-chunk
//! sensitivity weighting needs.
//!
//! [`simulate_in`] is the scalar reference the batch engine
//! (`crate::batch`) is held to bit for bit. A [`SessionScratch`] carries
//! its working buffers (stall ledger, histories) from one session to the
//! next; every [`SessionResult`] owns its own buffers.

use crate::policy::{AbrPolicy, PlayerState, SessionContext};
use crate::SimError;
use sensei_trace::ThroughputTrace;
use sensei_video::{EncodedVideo, RenderedChunk, RenderedVideo, SensitivityWeights, SourceVideo};

/// Player configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlayerConfig {
    /// Maximum media seconds buffered ahead of the playhead.
    pub max_buffer_s: f64,
    /// Per-request latency added to every chunk download, seconds.
    pub rtt_s: f64,
    /// Upper bound on a single intentional pause, seconds (the paper
    /// restricts SENSEI to {0, 1, 2}).
    pub max_pause_s: f64,
}

impl Default for PlayerConfig {
    fn default() -> Self {
        Self {
            max_buffer_s: 24.0,
            rtt_s: 0.08,
            max_pause_s: 2.0,
        }
    }
}

impl PlayerConfig {
    /// Checks that every field is in its valid range: a positive finite
    /// buffer cap and non-negative finite RTT and pause bound. [`simulate`]
    /// calls this on entry, so a nonsensical player configuration fails
    /// loudly instead of silently producing a meaningless session.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidPlayerConfig`] naming the first offending
    /// field.
    pub fn validate(&self) -> Result<(), SimError> {
        if !(self.max_buffer_s.is_finite() && self.max_buffer_s > 0.0) {
            return Err(SimError::InvalidPlayerConfig {
                field: "max_buffer_s",
                value: self.max_buffer_s,
            });
        }
        if !(self.rtt_s.is_finite() && self.rtt_s >= 0.0) {
            return Err(SimError::InvalidPlayerConfig {
                field: "rtt_s",
                value: self.rtt_s,
            });
        }
        if !(self.max_pause_s.is_finite() && self.max_pause_s >= 0.0) {
            return Err(SimError::InvalidPlayerConfig {
                field: "max_pause_s",
                value: self.max_pause_s,
            });
        }
        Ok(())
    }
}

/// Outcome of a simulated session.
#[derive(Debug, Clone)]
pub struct SessionResult {
    /// The rendered video (bitrates, per-chunk stalls, startup delay).
    pub render: RenderedVideo,
    /// Ladder level chosen per chunk.
    pub levels: Vec<usize>,
    /// Wall-clock seconds from request start to the last media second
    /// played: `startup + content + stalls`.
    pub wall_time_s: f64,
    /// Total bits downloaded.
    pub bits_downloaded: f64,
    /// Name of the policy that produced this session.
    pub policy_name: String,
}

/// Internal playback bookkeeping. The stall ledger is borrowed from the
/// session scratch (or from one lane's slice of a batch's flat ledger) so
/// it is recycled across sessions. Shared verbatim by the scalar loop and
/// the batch engine, which is what keeps their per-lane arithmetic
/// byte-identical.
pub(crate) struct Playback<'a> {
    /// Media seconds played so far.
    pub(crate) m: f64,
    /// Media seconds downloaded so far (multiple of the chunk duration).
    pub(crate) downloaded_end: f64,
    /// Intentional pause waiting to be taken at the next chunk boundary.
    pub(crate) pending_pause: f64,
    /// Per-chunk (forced, intentional) stall seconds.
    pub(crate) stalls: &'a mut [(f64, f64)],
    /// Chunk duration.
    pub(crate) d: f64,
    /// Total media duration.
    pub(crate) total: f64,
}

pub(crate) const EPS: f64 = 1e-9;

impl Playback<'_> {
    pub(crate) fn buffer(&self) -> f64 {
        (self.downloaded_end - self.m).max(0.0)
    }

    fn finished(&self) -> bool {
        self.m >= self.total - EPS
    }

    /// Index of the chunk the playhead is about to enter. Only meaningful
    /// at (or epsilon-close to) a chunk boundary.
    // The +0.5/floor is the documented nearest-boundary rounding;
    // chunk indices are tiny.
    #[allow(clippy::cast_possible_truncation)]
    fn boundary_chunk(&self) -> usize {
        ((self.m / self.d) + 0.5).floor() as usize
    }

    fn at_boundary(&self) -> bool {
        let frac = self.m / self.d;
        (frac - frac.round()).abs() * self.d < 1e-6
    }

    /// Advances playback by `dt` wall seconds, consuming intentional pauses
    /// at boundaries and recording forced stalls when the buffer is empty.
    /// Returns the wall time actually consumed (less than `dt` only when
    /// the video finishes).
    pub(crate) fn advance(&mut self, mut dt: f64) -> f64 {
        let mut used = 0.0;
        while dt > EPS {
            if self.finished() {
                break;
            }
            // The pause test goes first: `at_boundary` divides and
            // rounds, and most steps (every BBA step) have no pause.
            if self.pending_pause > EPS && self.at_boundary() {
                let k = self.boundary_chunk().min(self.stalls.len() - 1);
                let s = self.pending_pause.min(dt);
                self.stalls[k].1 += s;
                self.pending_pause -= s;
                dt -= s;
                used += s;
                continue;
            }
            if self.buffer() <= EPS {
                // Buffer empty at a boundary: forced stall for the rest of
                // this window (the download in flight will refill it).
                let k = self.boundary_chunk().min(self.stalls.len() - 1);
                self.stalls[k].0 += dt;
                used += dt;
                dt = 0.0;
                continue;
            }
            // Play until the nearest event: window end, buffer exhaustion,
            // or the next boundary if a pause is pending there.
            let mut step = dt.min(self.buffer());
            if self.pending_pause > EPS {
                let to_boundary = self.d - (self.m % self.d);
                if to_boundary > EPS {
                    step = step.min(to_boundary);
                }
            }
            self.m += step;
            dt -= step;
            used += step;
            // Snap to boundary to defeat float drift.
            let frac = self.m / self.d;
            if (frac - frac.round()).abs() * self.d < 1e-6 {
                self.m = frac.round() * self.d;
            }
        }
        used
    }
}

/// Reusable working buffers for the session event loop: the playback
/// stall ledger and the throughput/download histories the policy reads.
/// They stay behind between [`simulate_in`] calls; the outgoing
/// [`SessionResult`] owns freshly allocated buffers.
#[derive(Debug, Default)]
pub struct SessionScratch {
    /// Per-chunk (forced, intentional) stall ledger for [`Playback`].
    stalls: Vec<(f64, f64)>,
    /// Measured throughput history, kbps.
    tput: Vec<f64>,
    /// Download-time history, seconds.
    dl: Vec<f64>,
}

impl SessionScratch {
    /// An empty scratch; buffers grow on first use and are reused after.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Simulates streaming `source` (pre-encoded as `encoded`) over `trace`
/// under `policy`.
///
/// `weights` is forwarded to the policy via [`SessionContext`]; pass `None`
/// for sensitivity-unaware players.
///
/// This is the one-shot convenience wrapper over [`simulate_in`] with a
/// throwaway [`SessionScratch`]; hot paths running many sessions should
/// hold a scratch per worker and call [`simulate_in`] directly.
///
/// # Errors
///
/// Returns an error when the player configuration is out of range, the
/// encoding does not match the source, the weights do not cover the video,
/// or the policy emits an invalid decision.
pub fn simulate(
    source: &SourceVideo,
    encoded: &EncodedVideo,
    trace: &ThroughputTrace,
    policy: &mut dyn AbrPolicy,
    config: &PlayerConfig,
    weights: Option<&SensitivityWeights>,
) -> Result<SessionResult, SimError> {
    simulate_in(
        &mut SessionScratch::new(),
        source,
        encoded,
        trace,
        policy,
        config,
        weights,
    )
}

/// [`simulate`] against caller-owned scratch buffers. Behaviour and
/// results are identical to [`simulate`]; only the working buffers are
/// reused. This is the reference the batch engine is held to.
///
/// # Errors
///
/// Returns the same errors as [`simulate`].
pub fn simulate_in(
    scratch: &mut SessionScratch,
    source: &SourceVideo,
    encoded: &EncodedVideo,
    trace: &ThroughputTrace,
    policy: &mut dyn AbrPolicy,
    config: &PlayerConfig,
    weights: Option<&SensitivityWeights>,
) -> Result<SessionResult, SimError> {
    config.validate()?;
    let n = source.num_chunks();
    if encoded.num_chunks() != n {
        return Err(SimError::ChunkCountMismatch {
            source: n,
            encoded: encoded.num_chunks(),
        });
    }
    if let Some(w) = weights {
        if w.len() != n {
            return Err(SimError::WeightLengthMismatch {
                chunks: n,
                weights: w.len(),
            });
        }
    }
    let ladder = encoded.ladder();
    let d = source.chunk_duration_s();
    // Split the scratch into independent field borrows.
    let SessionScratch {
        stalls,
        tput: throughput_hist,
        dl: download_hist,
    } = scratch;
    let ctx = SessionContext {
        encoded,
        weights,
        chunk_duration_s: d,
    };

    policy.reset();
    stalls.clear();
    stalls.resize(n, (0.0, 0.0));
    let mut pb = Playback {
        m: 0.0,
        downloaded_end: 0.0,
        pending_pause: 0.0,
        stalls,
        d,
        total: n as f64 * d,
    };
    let mut t = 0.0_f64;
    let mut startup_delay = 0.0;
    let mut playing = false;
    let mut levels = Vec::with_capacity(n);
    throughput_hist.clear();
    throughput_hist.reserve(n);
    download_hist.clear();
    download_hist.reserve(n);
    let mut bits_downloaded = 0.0;

    for i in 0..n {
        // Wait for buffer space (playback keeps draining; no stall risk
        // because the buffer is near-full — unless an intentional pause
        // fires, which consumes wall time without draining).
        if playing {
            loop {
                let excess = pb.buffer() - (config.max_buffer_s - d);
                if excess <= EPS {
                    break;
                }
                pb.advance(excess);
                t += excess;
            }
        }

        let state = PlayerState {
            next_chunk: i,
            buffer_s: pb.buffer(),
            last_level: levels.last().copied(),
            throughput_history_kbps: throughput_hist,
            download_time_history_s: download_hist,
            elapsed_s: t,
            playing,
        };
        let decision = policy.decide(&state, &ctx);
        if decision.level >= ladder.len() {
            return Err(SimError::InvalidLevel {
                level: decision.level,
                ladder_len: ladder.len(),
            });
        }
        if !(decision.pause_s.is_finite()
            && decision.pause_s >= 0.0
            && decision.pause_s <= config.max_pause_s + EPS)
        {
            return Err(SimError::InvalidPause(decision.pause_s));
        }
        if decision.pause_s > EPS {
            pb.pending_pause += decision.pause_s;
        }

        let size = encoded.size_bits(i, decision.level)?;
        let transfer = trace.download_time(t + config.rtt_s, size);
        let dt = config.rtt_s + transfer;
        if playing {
            pb.advance(dt);
        }
        t += dt;
        pb.downloaded_end += d;
        bits_downloaded += size;
        levels.push(decision.level);
        throughput_hist.push(size / transfer.max(1e-6) / 1000.0);
        download_hist.push(dt);
        if !playing {
            startup_delay = t;
            playing = true;
        }
    }

    // Drain playback to the end (consuming any remaining pending pause).
    loop {
        let remaining = (pb.total - pb.m) + pb.pending_pause;
        if remaining <= EPS {
            break;
        }
        let used = pb.advance(remaining);
        if used <= EPS {
            break;
        }
    }

    let chunks: Vec<RenderedChunk> = (0..n)
        .map(|i| {
            let content = &source.chunks()[i];
            let (forced, intentional) = pb.stalls[i];
            RenderedChunk {
                bitrate_kbps: ladder.kbps(levels[i]).expect("validated level"),
                vq: encoded.vq(i, levels[i]),
                rebuffer_s: forced + intentional,
                intentional_rebuffer_s: intentional,
                motion: content.motion,
                complexity: content.complexity,
            }
        })
        .collect();
    let render = RenderedVideo::new(source.name().to_string(), d, startup_delay, chunks)?;
    let wall_time_s = startup_delay + render.content_duration_s() + render.total_rebuffer_s()
        - render.startup_delay_s();
    Ok(SessionResult {
        wall_time_s,
        bits_downloaded,
        levels,
        policy_name: policy.name().to_string(),
        render,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AbrPolicy, Decision, FixedLevel, PlayerState, SessionContext};
    use sensei_video::content::{Genre, SceneKind, SceneSpec};
    use sensei_video::BitrateLadder;

    fn source(chunks: usize) -> SourceVideo {
        SourceVideo::from_script(
            "sim-test",
            Genre::Sports,
            &[SceneSpec::new(SceneKind::NormalPlay, chunks)],
            3,
        )
        .unwrap()
    }

    fn setup(chunks: usize) -> (SourceVideo, EncodedVideo) {
        let src = source(chunks);
        let ladder = BitrateLadder::default_paper();
        let enc = EncodedVideo::encode(&src, &ladder, 5);
        (src, enc)
    }

    #[test]
    fn fast_network_top_bitrate_never_stalls() {
        let (src, enc) = setup(10);
        let trace = ThroughputTrace::constant("fast", 20_000.0, 600.0).unwrap();
        let mut policy = FixedLevel::new(4);
        let result = simulate(
            &src,
            &enc,
            &trace,
            &mut policy,
            &PlayerConfig::default(),
            None,
        )
        .unwrap();
        assert_eq!(
            result.render.total_rebuffer_s(),
            result.render.startup_delay_s()
        );
        assert!(result.render.startup_delay_s() < 1.5);
        assert_eq!(result.render.avg_bitrate_kbps(), 2850.0);
        assert_eq!(result.levels, vec![4; 10]);
    }

    #[test]
    fn slow_network_top_bitrate_stalls() {
        let (src, enc) = setup(10);
        // 1 Mbps cannot sustain 2.85 Mbps video.
        let trace = ThroughputTrace::constant("slow", 1000.0, 600.0).unwrap();
        let mut policy = FixedLevel::new(4);
        let result = simulate(
            &src,
            &enc,
            &trace,
            &mut policy,
            &PlayerConfig::default(),
            None,
        )
        .unwrap();
        let stalls = result.render.total_rebuffer_s() - result.render.startup_delay_s();
        assert!(stalls > 5.0, "expected heavy stalling, got {stalls}");
    }

    #[test]
    fn slow_network_bottom_bitrate_is_sustainable() {
        let (src, enc) = setup(10);
        let trace = ThroughputTrace::constant("slow", 1000.0, 600.0).unwrap();
        let mut policy = FixedLevel::new(0);
        let result = simulate(
            &src,
            &enc,
            &trace,
            &mut policy,
            &PlayerConfig::default(),
            None,
        )
        .unwrap();
        let stalls = result.render.total_rebuffer_s() - result.render.startup_delay_s();
        assert!(stalls < 0.1, "expected no stalling, got {stalls}");
    }

    #[test]
    fn buffer_cap_is_respected() {
        struct CapChecker {
            max_seen: f64,
        }
        impl AbrPolicy for CapChecker {
            fn name(&self) -> &str {
                "CapChecker"
            }
            fn decide(&mut self, state: &PlayerState, _ctx: &SessionContext<'_>) -> Decision {
                self.max_seen = self.max_seen.max(state.buffer_s);
                Decision::level(0)
            }
        }
        let (src, enc) = setup(30);
        let trace = ThroughputTrace::constant("fast", 50_000.0, 600.0).unwrap();
        let mut policy = CapChecker { max_seen: 0.0 };
        let config = PlayerConfig::default();
        simulate(&src, &enc, &trace, &mut policy, &config, None).unwrap();
        assert!(
            policy.max_seen <= config.max_buffer_s + 0.01,
            "buffer reached {}",
            policy.max_seen
        );
    }

    #[test]
    fn intentional_pause_is_recorded_and_attributed() {
        struct PauseOnce;
        impl AbrPolicy for PauseOnce {
            fn name(&self) -> &str {
                "PauseOnce"
            }
            fn decide(&mut self, state: &PlayerState, _ctx: &SessionContext<'_>) -> Decision {
                if state.next_chunk == 3 {
                    Decision {
                        level: 0,
                        pause_s: 1.0,
                    }
                } else {
                    Decision::level(0)
                }
            }
        }
        let (src, enc) = setup(10);
        let trace = ThroughputTrace::constant("ok", 5000.0, 600.0).unwrap();
        let result = simulate(
            &src,
            &enc,
            &trace,
            &mut PauseOnce,
            &PlayerConfig::default(),
            None,
        )
        .unwrap();
        let total_intentional: f64 = result
            .render
            .chunks()
            .iter()
            .map(|c| c.intentional_rebuffer_s)
            .sum();
        assert!(
            (total_intentional - 1.0).abs() < 1e-6,
            "intentional = {total_intentional}"
        );
        // Intentional stall is part of total rebuffering.
        let total = result.render.total_rebuffer_s() - result.render.startup_delay_s();
        assert!(total >= total_intentional - 1e-6);
    }

    #[test]
    fn forced_stalls_attach_to_the_blocked_chunk() {
        // Slow start then fast: chunk 0 takes long (startup), subsequent
        // chunks at top rate over a 600 kbps link stall while downloading —
        // each stall must precede the chunk being fetched.
        let (src, enc) = setup(5);
        let trace = ThroughputTrace::constant("slow", 600.0, 600.0).unwrap();
        let result = simulate(
            &src,
            &enc,
            &trace,
            &mut FixedLevel::new(4),
            &PlayerConfig::default(),
            None,
        )
        .unwrap();
        // Every chunk after the first should carry stall time (4 s of
        // content takes ~19s to fetch at this rate).
        for (i, c) in result.render.chunks().iter().enumerate().skip(1) {
            assert!(
                c.rebuffer_s > 1.0,
                "chunk {i} expected a stall, got {}",
                c.rebuffer_s
            );
        }
    }

    #[test]
    fn wall_time_identity_holds() {
        let (src, enc) = setup(12);
        let trace = ThroughputTrace::constant("mid", 2000.0, 600.0).unwrap();
        let result = simulate(
            &src,
            &enc,
            &trace,
            &mut FixedLevel::new(2),
            &PlayerConfig::default(),
            None,
        )
        .unwrap();
        let expected = result.render.startup_delay_s()
            + result.render.content_duration_s()
            + (result.render.total_rebuffer_s() - result.render.startup_delay_s());
        assert!((result.wall_time_s - expected).abs() < 1e-6);
    }

    #[test]
    fn invalid_decisions_are_rejected() {
        struct BadLevel;
        impl AbrPolicy for BadLevel {
            fn name(&self) -> &str {
                "BadLevel"
            }
            fn decide(&mut self, _: &PlayerState, _: &SessionContext<'_>) -> Decision {
                Decision::level(99)
            }
        }
        struct BadPause;
        impl AbrPolicy for BadPause {
            fn name(&self) -> &str {
                "BadPause"
            }
            fn decide(&mut self, _: &PlayerState, _: &SessionContext<'_>) -> Decision {
                Decision {
                    level: 0,
                    pause_s: -1.0,
                }
            }
        }
        let (src, enc) = setup(4);
        let trace = ThroughputTrace::constant("t", 2000.0, 600.0).unwrap();
        let cfg = PlayerConfig::default();
        assert!(matches!(
            simulate(&src, &enc, &trace, &mut BadLevel, &cfg, None).unwrap_err(),
            SimError::InvalidLevel { level: 99, .. }
        ));
        assert!(matches!(
            simulate(&src, &enc, &trace, &mut BadPause, &cfg, None).unwrap_err(),
            SimError::InvalidPause(_)
        ));
    }

    #[test]
    fn player_config_is_validated() {
        let ok = PlayerConfig::default();
        assert!(ok.validate().is_ok());
        // Zero RTT and zero pause bound are legitimate (ideal network,
        // pause-free player).
        assert!(PlayerConfig {
            rtt_s: 0.0,
            max_pause_s: 0.0,
            ..ok
        }
        .validate()
        .is_ok());
        let cases = [
            (
                "max_buffer_s",
                PlayerConfig {
                    max_buffer_s: 0.0,
                    ..ok
                },
            ),
            (
                "max_buffer_s",
                PlayerConfig {
                    max_buffer_s: f64::NAN,
                    ..ok
                },
            ),
            ("rtt_s", PlayerConfig { rtt_s: -0.1, ..ok }),
            (
                "rtt_s",
                PlayerConfig {
                    rtt_s: f64::INFINITY,
                    ..ok
                },
            ),
            (
                "max_pause_s",
                PlayerConfig {
                    max_pause_s: -1.0,
                    ..ok
                },
            ),
        ];
        for (field, bad) in cases {
            assert!(
                matches!(
                    bad.validate(),
                    Err(SimError::InvalidPlayerConfig { field: f, .. }) if f == field
                ),
                "expected {field} to be rejected in {bad:?}"
            );
        }
        // simulate() refuses to run under a nonsense config.
        let (src, enc) = setup(4);
        let trace = ThroughputTrace::constant("t", 2000.0, 600.0).unwrap();
        let bad = PlayerConfig {
            max_buffer_s: -5.0,
            ..PlayerConfig::default()
        };
        assert!(matches!(
            simulate(&src, &enc, &trace, &mut FixedLevel::new(0), &bad, None).unwrap_err(),
            SimError::InvalidPlayerConfig {
                field: "max_buffer_s",
                ..
            }
        ));
    }

    #[test]
    fn weight_length_is_validated() {
        let (src, enc) = setup(4);
        let trace = ThroughputTrace::constant("t", 2000.0, 600.0).unwrap();
        let weights = SensitivityWeights::uniform(3).unwrap();
        assert!(matches!(
            simulate(
                &src,
                &enc,
                &trace,
                &mut FixedLevel::new(0),
                &PlayerConfig::default(),
                Some(&weights)
            )
            .unwrap_err(),
            SimError::WeightLengthMismatch {
                chunks: 4,
                weights: 3
            }
        ));
    }

    #[test]
    fn scratch_reuse_reproduces_one_shot_results() {
        // Running many sessions through one reused scratch yields
        // byte-identical results to fresh `simulate` calls, across
        // different videos and traces.
        let mut scratch = SessionScratch::new();
        let (src_a, enc_a) = setup(12);
        let (src_b, enc_b) = setup(7);
        let sessions: Vec<(&SourceVideo, &EncodedVideo, f64)> = vec![
            (&src_a, &enc_a, 900.0),
            (&src_b, &enc_b, 4000.0),
            (&src_a, &enc_a, 2000.0),
            (&src_b, &enc_b, 700.0),
        ];
        for (src, enc, kbps) in sessions {
            let trace = ThroughputTrace::constant("t", kbps, 600.0).unwrap();
            let config = PlayerConfig::default();
            let fresh = simulate(src, enc, &trace, &mut FixedLevel::new(2), &config, None).unwrap();
            let reused = simulate_in(
                &mut scratch,
                src,
                enc,
                &trace,
                &mut FixedLevel::new(2),
                &config,
                None,
            )
            .unwrap();
            assert_eq!(fresh.levels, reused.levels);
            assert_eq!(fresh.policy_name, reused.policy_name);
            assert_eq!(fresh.wall_time_s, reused.wall_time_s);
            assert_eq!(fresh.bits_downloaded, reused.bits_downloaded);
            assert_eq!(fresh.render, reused.render);
        }
    }

    #[test]
    fn scratch_survives_failing_sessions() {
        // An invalid decision must not poison the scratch for later
        // sessions.
        struct BadLevel;
        impl AbrPolicy for BadLevel {
            fn name(&self) -> &str {
                "BadLevel"
            }
            fn decide(&mut self, _: &PlayerState<'_>, _: &SessionContext<'_>) -> Decision {
                Decision::level(99)
            }
        }
        let mut scratch = SessionScratch::new();
        let (src, enc) = setup(6);
        let trace = ThroughputTrace::constant("t", 2000.0, 600.0).unwrap();
        let cfg = PlayerConfig::default();
        assert!(simulate_in(&mut scratch, &src, &enc, &trace, &mut BadLevel, &cfg, None).is_err());
        let ok = simulate_in(
            &mut scratch,
            &src,
            &enc,
            &trace,
            &mut FixedLevel::new(1),
            &cfg,
            None,
        )
        .unwrap();
        assert_eq!(ok.levels, vec![1; 6]);
    }

    #[test]
    fn simulation_is_deterministic() {
        let (src, enc) = setup(15);
        let trace = sensei_trace::generate::hsdpa_like(1500.0, 600, 7);
        let run = || {
            let result = simulate(
                &src,
                &enc,
                &trace,
                &mut FixedLevel::new(3),
                &PlayerConfig::default(),
                None,
            )
            .unwrap();
            (result.wall_time_s, result.render.total_rebuffer_s())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn throughput_history_reflects_the_trace() {
        struct HistCheck {
            seen: Vec<f64>,
        }
        impl AbrPolicy for HistCheck {
            fn name(&self) -> &str {
                "HistCheck"
            }
            fn decide(&mut self, state: &PlayerState, _: &SessionContext<'_>) -> Decision {
                if let Some(&last) = state.throughput_history_kbps.last() {
                    self.seen.push(last);
                }
                Decision::level(1)
            }
        }
        let (src, enc) = setup(8);
        let trace = ThroughputTrace::constant("t", 3000.0, 600.0).unwrap();
        let mut policy = HistCheck { seen: vec![] };
        simulate(
            &src,
            &enc,
            &trace,
            &mut policy,
            &PlayerConfig::default(),
            None,
        )
        .unwrap();
        assert_eq!(policy.seen.len(), 7);
        for &v in &policy.seen {
            assert!(
                (v - 3000.0).abs() < 300.0,
                "measured throughput {v} far from trace rate"
            );
        }
    }
}
