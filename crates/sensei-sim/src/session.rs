//! Player configuration, session results, and the one-session entry
//! point.
//!
//! Sequential-download DASH model: one chunk in flight at a time, playback
//! draining the buffer concurrently. Playback is simulated explicitly (not
//! just as a buffer scalar) so that every stall — forced or intentional —
//! is attributed to the chunk boundary it precedes, which is what per-chunk
//! sensitivity weighting needs. The loop itself lives in the lane engine
//! ([`crate::batch`]); [`simulate`] runs one session as a one-lane batch.

use crate::batch::{simulate_batch_in, BatchLanes, SessionBatch};
use crate::policy::AbrPolicy;
use crate::SimError;
use sensei_trace::ThroughputTrace;
use sensei_video::{EncodedVideo, RenderedVideo, SensitivityWeights, SourceVideo};

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
    /// buffer cap and non-negative finite RTT and pause bound. The lane
    /// engine checks every lane's configuration before a batch runs, so a
    /// nonsensical player configuration fails loudly instead of silently
    /// producing a meaningless session.
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

/// Outcome of a simulated session: what it rendered and which ladder
/// level it chose per chunk. Everything else about a session follows
/// from these two — its wall time is `startup + content + stalls` of the
/// render, and its downloaded bits are the chosen levels' chunk sizes.
#[derive(Debug, Clone)]
pub struct SessionResult {
    /// The rendered video (bitrates, per-chunk stalls, startup delay).
    pub render: RenderedVideo,
    /// Ladder level chosen per chunk.
    pub levels: Vec<usize>,
}

/// Simulates streaming `source` (pre-encoded as `encoded`) over `trace`
/// under `policy`: a one-lane [`simulate_batch_in`] batch, so one session
/// runs exactly the arithmetic of every lane of a fleet batch.
///
/// `weights` is forwarded to the policy via
/// [`crate::SessionContext`]; pass `None` for sensitivity-unaware
/// players. Callers running many sessions should hold a
/// [`SessionBatch`] and call [`simulate_batch_in`] directly.
///
/// # Errors
///
/// Checks its inputs in this order and returns the first failure:
/// [`SimError::ChunkCountMismatch`] when the encoding does not match the
/// source, [`SimError::WeightLengthMismatch`] when the weights do not
/// cover the video, and [`SimError::InvalidPlayerConfig`] when the player
/// configuration is out of range. During the session it returns
/// [`SimError::InvalidLevel`] or [`SimError::InvalidPause`] when the
/// policy emits an invalid decision, and [`SimError::Video`] when the
/// rendered session fails its checks.
pub fn simulate(
    source: &SourceVideo,
    encoded: &EncodedVideo,
    trace: &ThroughputTrace,
    policy: &mut dyn AbrPolicy,
    config: &PlayerConfig,
    weights: Option<&SensitivityWeights>,
) -> Result<SessionResult, SimError> {
    let mut out = Vec::with_capacity(1);
    simulate_batch_in(
        &mut SessionBatch::new(),
        source,
        encoded,
        trace,
        &mut [BatchLanes {
            policy,
            weights,
            configs: std::slice::from_ref(config),
        }],
        &mut out,
    )
    .map_err(|failure| failure.error)?;
    Ok(out.pop().expect("a one-lane batch yields one session"))
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
        // Validation order: chunk count, then weights, then player config.
        let (_, other_enc) = setup(7);
        let bad = PlayerConfig {
            max_buffer_s: -5.0,
            ..PlayerConfig::default()
        };
        let mut policy = FixedLevel::new(0);
        assert!(matches!(
            simulate(&src, &other_enc, &trace, &mut policy, &bad, Some(&weights)).unwrap_err(),
            SimError::ChunkCountMismatch {
                source: 4,
                encoded: 7
            }
        ));
        assert!(matches!(
            simulate(&src, &enc, &trace, &mut policy, &bad, Some(&weights)).unwrap_err(),
            SimError::WeightLengthMismatch {
                chunks: 4,
                weights: 3
            }
        ));
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
            (result.levels, result.render)
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
