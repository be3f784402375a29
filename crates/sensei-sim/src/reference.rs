//! The scalar session loop, kept as proof code for the lane engine.
//!
//! One session, one chunk at a time, one [`AbrPolicy::decide`] call per
//! chunk: the classic DASH client loop written out without any lane
//! regrouping. [`crate::batch`]'s tests hold every lane of a batch to
//! this loop bit for bit; production code runs sessions through the lane
//! engine only ([`crate::simulate`] is a one-lane batch).

use crate::batch::{Playback, EPS};
use crate::policy::{AbrPolicy, PlayerState, SessionContext};
use crate::session::{PlayerConfig, SessionResult};
use crate::SimError;
use sensei_trace::ThroughputTrace;
use sensei_video::{EncodedVideo, RenderedChunk, RenderedVideo, SensitivityWeights, SourceVideo};

/// Simulates one session with the scalar loop. Validates the player
/// configuration, chunk count and weights, in that order.
pub(crate) fn simulate_scalar(
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
    let ctx = SessionContext {
        encoded,
        weights,
        chunk_duration_s: d,
    };

    policy.reset();
    let mut stalls = vec![(0.0, 0.0); n];
    let mut pb = Playback {
        m: 0.0,
        downloaded_end: 0.0,
        pending_pause: 0.0,
        stalls: &mut stalls,
        d,
        total: n as f64 * d,
    };
    let mut t = 0.0_f64;
    let mut startup_delay = 0.0;
    let mut playing = false;
    let mut levels = Vec::with_capacity(n);
    let mut throughput_hist = Vec::with_capacity(n);
    let mut download_hist = Vec::with_capacity(n);

    for i in 0..n {
        // Wait for buffer space (playback keeps draining; an intentional
        // pause consumes wall time without draining).
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
            throughput_history_kbps: &throughput_hist,
            download_time_history_s: &download_hist,
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
        if pb.advance(remaining) <= EPS {
            break;
        }
    }

    let chunks: Vec<RenderedChunk> = (0..n)
        .map(|i| {
            let content = &source.chunks()[i];
            let (forced, intentional) = stalls[i];
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
    Ok(SessionResult { render, levels })
}
