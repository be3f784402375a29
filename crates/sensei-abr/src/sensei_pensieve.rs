//! SENSEI-Pensieve: Pensieve with sensitivity in the state, rebuffering in
//! the action space, and a reweighted reward (§5.2).
//!
//! The paper's two "minor changes": (1) rebuffering times are restricted to
//! {0, 1, 2} seconds at chunk boundaries; (2) instead of choosing among
//! bitrate×rebuffer combinations, the agent "either selects a bitrate or
//! initiates a rebuffering event at the next chunk. If it chooses the
//! latter, SENSEI-Pensieve will increment the buffer state by the chosen
//! rebuffering time and rerun the ABR algorithm immediately." The reward
//! reweights each chunk's quality by its sensitivity weight.

use crate::pensieve::{state_vector, PensieveConfig, STATE_DIM};
use crate::AbrError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sensei_ml::rl::{ActorCritic, Transition};
use sensei_qoe::Ksqi;
#[cfg(test)]
use sensei_sim::PlayerConfig;
use sensei_sim::{simulate, AbrPolicy, Decision, PlayerState, SessionContext};
use sensei_trace::ThroughputTrace;
use sensei_video::{EncodedVideo, SensitivityWeights, SourceVideo};

/// Lookahead window of weights appended to the state (§5.1: h = 5).
pub const WEIGHT_HORIZON: usize = 5;

/// SENSEI-Pensieve's state dimensionality.
pub const SENSEI_STATE_DIM: usize = STATE_DIM + WEIGHT_HORIZON;

/// Actions: the 5 ladder levels, then pause-1s, then pause-2s.
const N_ACTIONS: usize = 7;

/// A trained SENSEI-Pensieve agent.
#[derive(Debug, Clone)]
pub struct SenseiPensieve {
    agent: ActorCritic,
    name: String,
}

/// Extends the Pensieve state with the sensitivity weights of the next h
/// chunks (uniform 1.0 when the manifest carries none or past the end).
fn sensei_state(state: &PlayerState<'_>, ctx: &SessionContext<'_>) -> Vec<f64> {
    let mut v = state_vector(state, ctx);
    match ctx.weights {
        Some(w) => {
            let window = w.window(state.next_chunk, WEIGHT_HORIZON);
            for i in 0..WEIGHT_HORIZON {
                v.push(window.get(i).copied().unwrap_or(1.0));
            }
        }
        None => v.extend(std::iter::repeat_n(1.0, WEIGHT_HORIZON)),
    }
    v
}

/// Decides level and pause with the "rerun after a pause action" loop.
/// Generic over action selection so training (sampling) and evaluation
/// (greedy) share the exact decision semantics. The selector receives the
/// currently *allowed* actions: pause actions are masked out during
/// startup and once the {0, 1, 2}-second pause budget is spent.
fn decide_with<F>(
    state: &PlayerState<'_>,
    ctx: &SessionContext<'_>,
    max_pause_s: f64,
    mut act: F,
) -> (Decision, Vec<(Vec<f64>, usize)>)
where
    F: FnMut(&[f64], &[usize]) -> usize,
{
    let n_levels = ctx.num_levels();
    let bitrate_actions: Vec<usize> = (0..n_levels).collect();
    let mut taken = Vec::new();
    let mut pause_total = 0.0;
    let mut working = *state;
    loop {
        let mut allowed = bitrate_actions.clone();
        if working.playing {
            if pause_total + 1.0 <= max_pause_s + 1e-9 {
                allowed.push(5);
            }
            if pause_total + 2.0 <= max_pause_s + 1e-9 {
                allowed.push(6);
            }
        }
        let s = sensei_state(&working, ctx);
        let a = act(&s, &allowed);
        taken.push((s, a));
        if a >= 5 {
            let pause = (a - 4) as f64; // 1 s or 2 s
            pause_total += pause;
            // "Increment the buffer state by the chosen rebuffering time
            // and rerun" — the paused playback leaves more buffer by the
            // time the next chunk arrives.
            working.buffer_s += pause;
        } else {
            return (
                Decision {
                    level: a.min(n_levels - 1),
                    pause_s: pause_total,
                },
                taken,
            );
        }
    }
}

/// Training-time shim: samples actions and records every (state, action)
/// including pause actions.
struct Explorer<'a> {
    agent: &'a ActorCritic,
    rng: &'a mut StdRng,
    max_pause_s: f64,
    /// Per chunk decision: the (state, action) pairs taken (pauses + final
    /// bitrate).
    per_chunk: Vec<Vec<(Vec<f64>, usize)>>,
}

impl AbrPolicy for Explorer<'_> {
    fn name(&self) -> &str {
        "SENSEI-Pensieve(training)"
    }

    fn decide(&mut self, state: &PlayerState<'_>, ctx: &SessionContext<'_>) -> Decision {
        let (decision, taken) = decide_with(state, ctx, self.max_pause_s, |s, allowed| {
            self.agent
                .sample_action_masked(s, allowed, self.rng)
                .expect("state dims match")
        });
        self.per_chunk.push(taken);
        decision
    }
}

impl SenseiPensieve {
    /// Trains SENSEI-Pensieve. Every corpus entry carries the sensitivity
    /// weights its manifest would ship (ground truth in oracle experiments,
    /// crowd-inferred in end-to-end ones).
    ///
    /// # Errors
    ///
    /// Returns an error on an empty corpus/trace set or simulator failure.
    pub fn train(
        corpus: &[(&SourceVideo, &EncodedVideo, &SensitivityWeights)],
        traces: &[ThroughputTrace],
        config: &PensieveConfig,
        seed: u64,
    ) -> Result<Self, AbrError> {
        if corpus.is_empty() || traces.is_empty() {
            return Err(AbrError::Training(
                "training requires at least one video and one trace".to_string(),
            ));
        }
        let qoe = Ksqi::canonical();
        let mut agent = ActorCritic::new(SENSEI_STATE_DIM, N_ACTIONS, config.a2c.clone(), seed)?;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5E_2021);
        for ep in 0..config.episodes {
            agent.set_entropy_coef(crate::pensieve::annealed_entropy(
                config.a2c.entropy_coef,
                ep,
                config.episodes,
            ));
            let (source, encoded, weights) = corpus[ep % corpus.len()];
            let trace = &traces[(ep / corpus.len()) % traces.len()];
            let mut explorer = Explorer {
                agent: &agent,
                rng: &mut rng,
                max_pause_s: config.player.max_pause_s,
                per_chunk: Vec::new(),
            };
            let result = simulate(
                source,
                encoded,
                trace,
                &mut explorer,
                &config.player,
                Some(weights),
            )?;
            // Reward: sensitivity-weighted per-chunk quality. The final
            // (bitrate) action of each chunk carries the chunk's reward;
            // pause actions carry 0 and receive credit through the
            // discounted return.
            let scores = qoe.chunk_scores(&result.render);
            let w = weights.as_slice();
            let mut episode = Vec::new();
            for (chunk, taken) in explorer.per_chunk.into_iter().enumerate() {
                let last = taken.len() - 1;
                for (i, (state, action)) in taken.into_iter().enumerate() {
                    let reward = if i == last {
                        w[chunk] * scores[chunk]
                    } else {
                        0.0
                    };
                    episode.push(Transition {
                        state,
                        action,
                        reward,
                    });
                }
            }
            agent.train_episode(&episode)?;
        }
        Ok(Self {
            agent,
            name: "SENSEI-Pensieve".to_string(),
        })
    }

    /// Wraps a pre-trained agent (used by tests and ablations).
    pub fn from_agent(agent: ActorCritic) -> Result<Self, AbrError> {
        if agent.state_dim() != SENSEI_STATE_DIM || agent.n_actions() != N_ACTIONS {
            return Err(AbrError::InvalidParameter {
                name: "agent dims",
                value: agent.state_dim() as f64,
            });
        }
        Ok(Self {
            agent,
            name: "SENSEI-Pensieve".to_string(),
        })
    }
}

impl AbrPolicy for SenseiPensieve {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide(&mut self, state: &PlayerState<'_>, ctx: &SessionContext<'_>) -> Decision {
        let (decision, _) = decide_with(state, ctx, 2.0, |s, allowed| {
            self.agent
                .best_action_masked(s, allowed)
                .expect("state dims match")
        });
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{encoded, source};
    use sensei_crowd::TrueQoe;

    fn quick_config() -> PensieveConfig {
        PensieveConfig {
            episodes: 3000,
            ..PensieveConfig::sensei_default()
        }
    }

    fn train_traces(seed: u64) -> Vec<ThroughputTrace> {
        let mut traces = Vec::new();
        for (i, m) in [600.0, 1000.0, 1500.0, 2200.0, 3200.0].iter().enumerate() {
            traces.push(sensei_trace::generate::hsdpa_like(*m, 600, seed + i as u64));
            traces.push(sensei_trace::generate::fcc_like(
                *m,
                600,
                seed + 40 + i as u64,
            ));
        }
        traces
    }

    #[test]
    fn training_validates_inputs() {
        assert!(matches!(
            SenseiPensieve::train(&[], &[], &PensieveConfig::default(), 0),
            Err(AbrError::Training(_))
        ));
    }

    #[test]
    fn state_includes_weight_window() {
        let src = source();
        let enc = encoded(&src);
        let weights = SensitivityWeights::ground_truth(&src);
        let ctx = SessionContext {
            encoded: &enc,
            weights: Some(&weights),
            chunk_duration_s: 4.0,
        };
        let state = PlayerState {
            next_chunk: 12, // key-moment region of the test video
            buffer_s: 8.0,
            last_level: Some(2),
            throughput_history_kbps: &[1500.0; 5],
            download_time_history_s: &[2.0; 5],
            elapsed_s: 60.0,
            playing: true,
        };
        let v = sensei_state(&state, &ctx);
        assert_eq!(v.len(), SENSEI_STATE_DIM);
        // The appended window covers the key moments: weights above 1.
        let window = &v[STATE_DIM..];
        assert!(window.iter().any(|&w| w > 1.2), "window = {window:?}");
    }

    #[test]
    fn pause_actions_rerun_and_cap_at_two_seconds() {
        // An action source that always asks to pause must terminate with a
        // capped pause and a bitrate choice.
        let src = source();
        let enc = encoded(&src);
        let ctx = SessionContext {
            encoded: &enc,
            weights: None,
            chunk_duration_s: 4.0,
        };
        let state = PlayerState {
            next_chunk: 3,
            buffer_s: 8.0,
            last_level: Some(2),
            throughput_history_kbps: &[1500.0; 3],
            download_time_history_s: &[2.0; 3],
            elapsed_s: 20.0,
            playing: true,
        };
        let (decision, taken) = decide_with(&state, &ctx, 2.0, |_, allowed| {
            // Prefer the longest pause available, else level 2.
            if allowed.contains(&6) {
                6
            } else if allowed.contains(&5) {
                5
            } else {
                2
            }
        });
        // After a 2-second pause the budget is spent: the mask removes the
        // pause actions and the loop must settle on a bitrate.
        assert!((decision.pause_s - 2.0).abs() < 1e-9);
        assert_eq!(decision.level, 2);
        assert_eq!(taken.len(), 2);
    }

    #[test]
    fn pauses_are_ignored_during_startup() {
        let src = source();
        let enc = encoded(&src);
        let ctx = SessionContext {
            encoded: &enc,
            weights: None,
            chunk_duration_s: 4.0,
        };
        let state = PlayerState {
            next_chunk: 0,
            buffer_s: 0.0,
            last_level: None,
            throughput_history_kbps: &[],
            download_time_history_s: &[],
            elapsed_s: 0.0,
            playing: false,
        };
        // Pause actions are masked out before playback starts.
        let (decision, _) = decide_with(&state, &ctx, 2.0, |_, allowed| {
            assert!(!allowed.contains(&5) && !allowed.contains(&6));
            *allowed.last().unwrap()
        });
        assert_eq!(decision.pause_s, 0.0);
    }

    #[test]
    fn improves_true_qoe_over_plain_pensieve() {
        let src = source();
        let enc = encoded(&src);
        let weights = SensitivityWeights::ground_truth(&src);
        let traces = train_traces(700);
        let sensei =
            SenseiPensieve::train(&[(&src, &enc, &weights)], &traces, &quick_config(), 13).unwrap();
        let plain_cfg = PensieveConfig {
            episodes: 3000,
            ..PensieveConfig::default()
        };
        let plain = crate::Pensieve::train(&[(&src, &enc)], &traces, &plain_cfg, 13).unwrap();
        let oracle = TrueQoe::default();
        let config = PlayerConfig::default();
        let mut s_total = 0.0;
        let mut p_total = 0.0;
        for seed in 0..4 {
            let eval = sensei_trace::generate::hsdpa_like(1400.0, 600, 800 + seed);
            let s = simulate(
                &src,
                &enc,
                &eval,
                &mut sensei.clone(),
                &config,
                Some(&weights),
            )
            .unwrap();
            let p = simulate(&src, &enc, &eval, &mut plain.clone(), &config, None).unwrap();
            s_total += oracle.qoe01(&src, &s.render).unwrap();
            p_total += oracle.qoe01(&src, &p.render).unwrap();
        }
        // RL at test scale is noisy; require SENSEI-Pensieve to at least
        // match plain Pensieve on true QoE (it typically wins clearly).
        assert!(
            s_total > p_total * 0.97,
            "SENSEI-Pensieve {s_total:.3} vs Pensieve {p_total:.3}"
        );
    }

    #[test]
    fn from_agent_checks_dimensions() {
        use sensei_ml::rl::A2cConfig;
        let wrong = ActorCritic::new(4, 3, A2cConfig::default(), 0).unwrap();
        assert!(SenseiPensieve::from_agent(wrong).is_err());
        let right = ActorCritic::new(SENSEI_STATE_DIM, N_ACTIONS, A2cConfig::default(), 0).unwrap();
        assert!(SenseiPensieve::from_agent(right).is_ok());
    }
}
