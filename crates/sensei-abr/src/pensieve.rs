//! Pensieve and SENSEI-Pensieve: deep-reinforcement-learning bitrate
//! control.
//!
//! Mao et al. (SIGCOMM 2017) train a policy network whose state summarizes
//! recent streaming history and whose discrete actions pick the next
//! chunk's bitrate, with the QoE objective as reward. The original uses
//! A3C; the asynchronous part is purely a throughput optimization, so this
//! reproduction trains a single-threaded A2C ([`sensei_ml::rl`]) inside the
//! session simulator. Per §7.1 the reward is KSQI (which "strictly
//! improves" on Pensieve's original linear QoE).
//!
//! State (Pensieve's, adapted to this simulator):
//! last chunk's visual quality; buffer; last 8 throughput samples; last 8
//! download times; next-chunk sizes at all 5 levels; fraction of chunks
//! remaining — 24 dimensions. Actions: the 5 ladder levels.
//!
//! SENSEI-Pensieve (§5.2) is the same agent with sensitivity in the state,
//! rebuffering in the action space, and a reweighted reward. The paper's
//! two "minor changes": (1) rebuffering times are restricted to {0, 1, 2}
//! seconds at chunk boundaries; (2) instead of choosing among
//! bitrate×rebuffer combinations, the agent "either selects a bitrate or
//! initiates a rebuffering event at the next chunk. If it chooses the
//! latter, SENSEI-Pensieve will increment the buffer state by the chosen
//! rebuffering time and rerun the ABR algorithm immediately." Its state
//! appends the weights of the next 5 chunks, and its reward scales each
//! chunk's quality by the chunk's weight.
//!
//! Both run one state builder, one decision loop, one explorer and one
//! training loop; what separates them is a few fields of data.

use crate::AbrError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sensei_ml::rl::{A2cConfig, ActorCritic, Transition};
use sensei_qoe::Ksqi;
use sensei_sim::{simulate, AbrPolicy, Decision, PlayerConfig, PlayerState, SessionContext};
use sensei_trace::ThroughputTrace;
use sensei_video::{EncodedVideo, SensitivityWeights, SourceVideo};

/// Number of history taps in the state.
const HISTORY: usize = 8;

/// Ladder levels the state describes and the bitrate actions cover.
const LEVELS: usize = 5;

/// Every bitrate action: the whole action space of an agent without
/// pauses.
const EVERY_LEVEL: [usize; LEVELS] = [0, 1, 2, 3, 4];

/// Pensieve's state dimensionality.
const STATE_DIM: usize = 1 + 1 + HISTORY + HISTORY + LEVELS + 1;

/// Training configuration.
#[derive(Debug, Clone)]
pub struct PensieveConfig {
    /// Training episodes (one simulated session each).
    pub episodes: usize,
    /// Actor-critic hyperparameters.
    pub a2c: A2cConfig,
    /// Player used during training. SENSEI-Pensieve also decides under its
    /// `max_pause_s` at evaluation.
    pub player: PlayerConfig,
}

impl Default for PensieveConfig {
    fn default() -> Self {
        Self {
            episodes: 3000,
            a2c: A2cConfig {
                // ABR credit is mostly local (the stall a decision causes
                // lands on that chunk), so a moderate discount sharpens the
                // per-action signal dramatically at this training scale.
                gamma: 0.6,
                entropy_coef: 0.03,
                lr_policy: 3e-3,
                lr_value: 3e-3,
                hidden: 64,
            },
            player: PlayerConfig::default(),
        }
    }
}

impl PensieveConfig {
    /// Defaults tuned for SENSEI-Pensieve: a higher discount so the agent
    /// can learn multi-chunk trades ("lower quality now so the key moment
    /// ahead stays smooth"), which is SENSEI's central mechanism. Plain
    /// Pensieve's credit is more local and trains best with the smaller
    /// default gamma. Pushing the discount much past this (e.g. 0.9) makes
    /// the value targets noisy enough at the few-thousand-episode scale
    /// that the policy collapses to a single constant action, so 0.75
    /// buys the lookahead without losing training stability.
    pub fn sensei_default() -> Self {
        let mut cfg = Self::default();
        cfg.a2c.gamma = 0.75;
        cfg
    }
}

/// Anneals the entropy bonus from its configured value down to ~1/10th of
/// it across training — explore early, exploit late.
fn annealed_entropy(initial: f64, episode: usize, total: usize) -> f64 {
    let progress = episode as f64 / total.max(1) as f64;
    initial * (1.0 - 0.9 * progress)
}

/// What separates the two agents; everything else is one code path.
#[derive(Debug, Clone, Copy)]
struct Variant {
    name: &'static str,
    /// Chunks of sensitivity weights appended to the state (§5.1: h = 5).
    /// With none, the agent ignores the weights and its reward is plain.
    horizon: usize,
    /// Pause actions after the bitrate actions: pause-1s, pause-2s, …
    /// Without them the selector allows every action.
    pauses: usize,
    /// Salt of the exploration RNG's seed.
    salt: u64,
}

const PENSIEVE: Variant = Variant {
    name: "Pensieve",
    horizon: 0,
    pauses: 0,
    salt: 0x9E_2021,
};

const SENSEI_PENSIEVE: Variant = Variant {
    name: "SENSEI-Pensieve",
    horizon: 5,
    pauses: 2,
    salt: 0x5E_2021,
};

impl Variant {
    /// Builds the state vector: Pensieve's, then the weights of the next
    /// `horizon` chunks (uniform 1.0 when the manifest carries none or past
    /// the end).
    fn state(self, state: &PlayerState<'_>, ctx: &SessionContext<'_>) -> Vec<f64> {
        let mut v = Vec::with_capacity(STATE_DIM + self.horizon);
        // Last chunk's visual quality (0 before the first chunk).
        let last_vq = match state.last_level {
            Some(l) if state.next_chunk > 0 => ctx.encoded.vq(state.next_chunk - 1, l),
            _ => 0.0,
        };
        v.push(last_vq);
        v.push(state.buffer_s / 10.0);
        // Throughput taps, newest last, zero-padded; normalized by 10 Mbps.
        let tput = &state.throughput_history_kbps;
        for i in 0..HISTORY {
            let idx = (tput.len() + i).checked_sub(HISTORY);
            v.push(idx.and_then(|j| tput.get(j)).copied().unwrap_or(0.0) / 10_000.0);
        }
        let dl = &state.download_time_history_s;
        for i in 0..HISTORY {
            let idx = (dl.len() + i).checked_sub(HISTORY);
            v.push(idx.and_then(|j| dl.get(j)).copied().unwrap_or(0.0) / 10.0);
        }
        // Next chunk sizes in megabytes (zero-padded past the end).
        let n_levels = ctx.num_levels();
        for level in 0..LEVELS {
            let size = if level < n_levels && state.next_chunk < ctx.num_chunks() {
                ctx.encoded
                    .size_bits(state.next_chunk, level)
                    .unwrap_or(0.0)
            } else {
                0.0
            };
            v.push(size / 8e6);
        }
        v.push((ctx.num_chunks() - state.next_chunk) as f64 / ctx.num_chunks() as f64);
        let window = ctx
            .weights
            .map_or(&[][..], |w| w.window(state.next_chunk, self.horizon));
        v.extend((0..self.horizon).map(|i| window.get(i).copied().unwrap_or(1.0)));
        v
    }
}

/// The one agent behind both policies: its variant, its network, and the
/// pause cap it was trained under.
#[derive(Debug, Clone)]
struct Agent {
    variant: Variant,
    net: ActorCritic,
    max_pause_s: f64,
}

impl Agent {
    /// An untrained agent of `variant` with `config`'s network and pause cap.
    fn new(variant: Variant, config: &PensieveConfig, seed: u64) -> Result<Self, AbrError> {
        let (state_dim, n_actions) = (STATE_DIM + variant.horizon, LEVELS + variant.pauses);
        Ok(Self {
            variant,
            net: ActorCritic::new(state_dim, n_actions, config.a2c.clone(), seed)?,
            max_pause_s: config.player.max_pause_s,
        })
    }

    /// Trains an agent on a corpus of `(source, encoded, weights)` videos
    /// and training traces: one on-policy A2C update per whole episode.
    fn train(
        variant: Variant,
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
        let mut agent = Self::new(variant, config, seed)?;
        let mut rng = StdRng::seed_from_u64(seed ^ variant.salt);
        for ep in 0..config.episodes {
            let entropy = annealed_entropy(config.a2c.entropy_coef, ep, config.episodes);
            agent.net.set_entropy_coef(entropy);
            let (source, encoded, weights) = corpus[ep % corpus.len()];
            let weights = (variant.horizon > 0).then_some(weights);
            let trace = &traces[(ep / corpus.len()) % traces.len()];
            let mut explorer = Explorer {
                agent: &agent,
                rng: &mut rng,
                per_chunk: Vec::new(),
            };
            let result = simulate(
                source,
                encoded,
                trace,
                &mut explorer,
                &config.player,
                weights,
            )?;
            // Reward: the final (bitrate) action of each chunk carries the
            // chunk's weighted KSQI score (weight 1 when the variant
            // ignores weights); pause actions carry 0 and receive credit
            // through the discounted return.
            let scores = qoe.chunk_scores(&result.render);
            let mut episode = Vec::new();
            for (chunk, taken) in explorer.per_chunk.into_iter().enumerate() {
                let reward = weights.map_or(1.0, |w| w.as_slice()[chunk]) * scores[chunk];
                let last = taken.len() - 1;
                episode.extend(taken.into_iter().enumerate().map(|(i, (state, action))| {
                    Transition {
                        state,
                        action,
                        reward: if i == last { reward } else { 0.0 },
                    }
                }));
            }
            agent.net.train_episode(&episode)?;
        }
        Ok(agent)
    }

    /// Decides level and pause with the "rerun after a pause action" loop.
    /// Generic over action selection so training (sampling) and evaluation
    /// (greedy) share the exact decision semantics. The selector receives
    /// the currently *allowed* actions: pause actions are masked out during
    /// startup and once the pause budget (`max_pause_s`) is spent. Returns
    /// every (state, action) taken, pauses first.
    fn decide_with<F>(
        &self,
        state: &PlayerState<'_>,
        ctx: &SessionContext<'_>,
        mut act: F,
    ) -> (Decision, Vec<(Vec<f64>, usize)>)
    where
        F: FnMut(&[f64], &[usize]) -> usize,
    {
        let n_levels = ctx.num_levels();
        let mut allowed: Vec<usize> = (0..n_levels).collect();
        let mut taken = Vec::new();
        let mut pause_total = 0.0;
        let mut working = *state;
        loop {
            allowed.truncate(n_levels);
            if working.playing {
                for p in 1..=self.variant.pauses {
                    if pause_total + p as f64 <= self.max_pause_s + 1e-9 {
                        allowed.push(LEVELS - 1 + p);
                    }
                }
            }
            let s = self.variant.state(&working, ctx);
            let a = act(&s, &allowed);
            taken.push((s, a));
            if a < LEVELS {
                let decision = Decision {
                    level: a.min(n_levels - 1),
                    pause_s: pause_total,
                };
                return (decision, taken);
            }
            let pause = (a - (LEVELS - 1)) as f64; // 1 s or 2 s
            pause_total += pause;
            // "Increment the buffer state by the chosen rebuffering time
            // and rerun" — the paused playback leaves more buffer by the
            // time the next chunk arrives.
            working.buffer_s += pause;
        }
    }

    /// The greedy evaluation-time decision.
    fn greedy(&self, state: &PlayerState<'_>, ctx: &SessionContext<'_>) -> Decision {
        self.decide_with(state, ctx, |s, allowed| self.pick(s, allowed, None))
            .0
    }

    /// The selector over the `allowed` actions (every action for an agent
    /// without pauses): samples from `rng` while exploring, greedy
    /// without one.
    fn pick(&self, s: &[f64], allowed: &[usize], rng: Option<&mut StdRng>) -> usize {
        let allowed = if self.variant.pauses == 0 {
            &EVERY_LEVEL[..]
        } else {
            allowed
        };
        match rng {
            Some(rng) => self.net.sample_action_masked(s, allowed, rng),
            None => self.net.best_action_masked(s, allowed),
        }
        .expect("state vector matches agent dims")
    }
}

/// Training-time shim: samples from the policy and records, per chunk
/// decision, every (state, action) taken (pauses, then the bitrate).
struct Explorer<'a> {
    agent: &'a Agent,
    rng: &'a mut StdRng,
    per_chunk: Vec<Vec<(Vec<f64>, usize)>>,
}

impl AbrPolicy for Explorer<'_> {
    fn name(&self) -> &str {
        self.agent.variant.name
    }

    fn decide(&mut self, state: &PlayerState<'_>, ctx: &SessionContext<'_>) -> Decision {
        let (agent, rng) = (self.agent, &mut *self.rng);
        let (decision, taken) =
            agent.decide_with(state, ctx, |s, allowed| agent.pick(s, allowed, Some(rng)));
        self.per_chunk.push(taken);
        decision
    }
}

/// A trained Pensieve agent (greedy at evaluation time).
#[derive(Debug, Clone)]
pub struct Pensieve(Agent);

/// A trained SENSEI-Pensieve agent (greedy at evaluation time).
#[derive(Debug, Clone)]
pub struct SenseiPensieve(Agent);

impl Pensieve {
    /// Trains Pensieve on a corpus of `(source, encoded, weights)` videos
    /// and training traces. Pensieve ignores the weights.
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
        Agent::train(PENSIEVE, corpus, traces, config, seed).map(Self)
    }
}

impl SenseiPensieve {
    /// Trains SENSEI-Pensieve. Every corpus entry carries the sensitivity
    /// weights its manifest would ship (ground truth in oracle experiments,
    /// crowd-inferred in end-to-end ones). The agent decides under the
    /// pause cap of `config.player`.
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
        Agent::train(SENSEI_PENSIEVE, corpus, traces, config, seed).map(Self)
    }
}

impl AbrPolicy for Pensieve {
    fn name(&self) -> &str {
        self.0.variant.name
    }

    fn decide(&mut self, state: &PlayerState<'_>, ctx: &SessionContext<'_>) -> Decision {
        self.0.greedy(state, ctx)
    }
}

impl AbrPolicy for SenseiPensieve {
    fn name(&self) -> &str {
        self.0.variant.name
    }

    fn decide(&mut self, state: &PlayerState<'_>, ctx: &SessionContext<'_>) -> Decision {
        self.0.greedy(state, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{encoded, source};
    use sensei_crowd::TrueQoe;
    use sensei_qoe::QoeModel;

    fn quick_config() -> PensieveConfig {
        PensieveConfig {
            episodes: 1500,
            ..PensieveConfig::default()
        }
    }

    /// A session context over `enc` without weights.
    fn plain_ctx(enc: &EncodedVideo) -> SessionContext<'_> {
        SessionContext {
            encoded: enc,
            weights: None,
            chunk_duration_s: 4.0,
        }
    }

    /// Mid-session and playing, with 8 s of buffer.
    const PLAYING: PlayerState<'static> = PlayerState {
        next_chunk: 3,
        buffer_s: 8.0,
        last_level: Some(2),
        throughput_history_kbps: &[1500.0; 3],
        download_time_history_s: &[2.0; 3],
        elapsed_s: 20.0,
        playing: true,
    };

    /// An action source that takes the longest pause it is offered, then
    /// level 2.
    fn longest_pause(_: &[f64], allowed: &[usize]) -> usize {
        [6, 5]
            .into_iter()
            .find(|a| allowed.contains(a))
            .unwrap_or(2)
    }

    /// Diverse-mean training traces, as Pensieve's own recipe requires —
    /// constant-mean corpora let degenerate constant policies win.
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
            Pensieve::train(&[], &[], &PensieveConfig::default(), 0),
            Err(AbrError::Training(_))
        ));
        assert!(matches!(
            SenseiPensieve::train(&[], &[], &PensieveConfig::default(), 0),
            Err(AbrError::Training(_))
        ));
    }

    #[test]
    fn state_vector_has_documented_shape() {
        let src = source();
        let enc = encoded(&src);
        let state = PlayerState {
            next_chunk: 3,
            buffer_s: 12.0,
            last_level: Some(2),
            throughput_history_kbps: &[1000.0, 2000.0, 3000.0],
            download_time_history_s: &[1.0, 2.0, 1.5],
            elapsed_s: 20.0,
            playing: true,
        };
        let v = PENSIEVE.state(&state, &plain_ctx(&enc));
        assert_eq!(v.len(), STATE_DIM);
        // Buffer normalized.
        assert!((v[1] - 1.2).abs() < 1e-12);
        // History zero-padded at the front.
        assert_eq!(v[2], 0.0);
        assert!((v[9] - 0.3).abs() < 1e-12); // newest = 3000/10000
    }

    #[test]
    fn trained_policy_avoids_catastrophic_stalling() {
        let src = source();
        let enc = encoded(&src);
        let weights = SensitivityWeights::ground_truth(&src);
        let corpus = [(&src, &enc, &weights)];
        let pensieve = Pensieve::train(&corpus, &train_traces(200), &quick_config(), 7).unwrap();
        // Evaluate on a held-out trace.
        let eval = sensei_trace::generate::hsdpa_like(1500.0, 600, 999);
        let result = simulate(
            &src,
            &enc,
            &eval,
            &mut pensieve.clone(),
            &PlayerConfig::default(),
            None,
        )
        .unwrap();
        let ratio = result.render.rebuffer_ratio();
        assert!(ratio < 0.25, "rebuffer ratio = {ratio:.3}");
        // And it should use meaningfully more than the bottom rate.
        assert!(result.render.avg_bitrate_kbps() > 400.0);
    }

    #[test]
    fn trained_policy_is_competitive_with_bba() {
        let src = source();
        let enc = encoded(&src);
        let weights = SensitivityWeights::ground_truth(&src);
        let corpus = [(&src, &enc, &weights)];
        let pensieve = Pensieve::train(&corpus, &train_traces(300), &quick_config(), 11).unwrap();
        let qoe = Ksqi::canonical();
        let mut p_total = 0.0;
        let mut b_total = 0.0;
        for s in 0..4 {
            let eval = sensei_trace::generate::hsdpa_like(1800.0, 600, 500 + s);
            let config = PlayerConfig::default();
            let p = simulate(&src, &enc, &eval, &mut pensieve.clone(), &config, None).unwrap();
            let b = simulate(
                &src,
                &enc,
                &eval,
                &mut crate::Bba::paper_default(),
                &config,
                None,
            )
            .unwrap();
            p_total += qoe.predict(&p.render).unwrap();
            b_total += qoe.predict(&b.render).unwrap();
        }
        // RL training at test scale is modest; require Pensieve to be at
        // least in BBA's league (within 10%), typically above it.
        assert!(
            p_total > b_total * 0.9,
            "Pensieve {p_total:.3} vs BBA {b_total:.3}"
        );
    }

    #[test]
    fn training_is_deterministic() {
        let src = source();
        let enc = encoded(&src);
        let weights = SensitivityWeights::ground_truth(&src);
        let traces = vec![sensei_trace::generate::fcc_like(2000.0, 600, 1)];
        let cfg = PensieveConfig {
            episodes: 20,
            ..PensieveConfig::default()
        };
        let run = || {
            let p = Pensieve::train(&[(&src, &enc, &weights)], &traces, &cfg, 3).unwrap();
            let eval = sensei_trace::generate::fcc_like(2000.0, 600, 2);
            let r = simulate(
                &src,
                &enc,
                &eval,
                &mut p.clone(),
                &PlayerConfig::default(),
                None,
            )
            .unwrap();
            r.levels
        };
        assert_eq!(run(), run());
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
        let v = SENSEI_PENSIEVE.state(&state, &ctx);
        assert_eq!(v.len(), STATE_DIM + SENSEI_PENSIEVE.horizon);
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
        let agent = Agent::new(SENSEI_PENSIEVE, &PensieveConfig::default(), 0).unwrap();
        let (decision, taken) = agent.decide_with(&PLAYING, &plain_ctx(&enc), longest_pause);
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
        let agent = Agent::new(SENSEI_PENSIEVE, &PensieveConfig::default(), 0).unwrap();
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
        let (decision, _) = agent.decide_with(&state, &plain_ctx(&enc), |_, allowed| {
            assert!(!allowed.contains(&5) && !allowed.contains(&6));
            *allowed.last().unwrap()
        });
        assert_eq!(decision.pause_s, 0.0);
    }

    #[test]
    fn decisions_keep_the_pause_cap_of_training() {
        // Trained under a 1 s cap, the agent must never be offered the 2 s
        // pause (a player with that cap rejects it as an invalid pause), so
        // the longest pause it can take is 1 s.
        let src = source();
        let enc = encoded(&src);
        let weights = SensitivityWeights::ground_truth(&src);
        let mut cfg = PensieveConfig {
            episodes: 5,
            ..PensieveConfig::sensei_default()
        };
        cfg.player.max_pause_s = 1.0;
        let traces = vec![sensei_trace::generate::fcc_like(2000.0, 600, 1)];
        let agent = SenseiPensieve::train(&[(&src, &enc, &weights)], &traces, &cfg, 3).unwrap();
        let (decision, taken) = agent
            .0
            .decide_with(&PLAYING, &plain_ctx(&enc), longest_pause);
        assert_eq!(decision.pause_s, 1.0);
        assert_eq!(taken.len(), 2);
    }

    #[test]
    fn improves_true_qoe_over_plain_pensieve() {
        let src = source();
        let enc = encoded(&src);
        let weights = SensitivityWeights::ground_truth(&src);
        let traces = train_traces(700);
        let corpus = [(&src, &enc, &weights)];
        let sensei_cfg = PensieveConfig {
            episodes: 3000,
            ..PensieveConfig::sensei_default()
        };
        let sensei = SenseiPensieve::train(&corpus, &traces, &sensei_cfg, 13).unwrap();
        let plain_cfg = PensieveConfig {
            episodes: 3000,
            ..PensieveConfig::default()
        };
        let plain = Pensieve::train(&corpus, &traces, &plain_cfg, 13).unwrap();
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

    /// Pins the training bits of both agents: a short fixed run each, then
    /// the exact action distributions on three fixed states. Any change to
    /// the state builder, the decision loop, the reward, the sampler or
    /// the RNG streams shows up here, where the run-to-run determinism test
    /// cannot see it.
    #[test]
    fn trained_agents_keep_their_bits() {
        let src = source();
        let enc = encoded(&src);
        let weights = SensitivityWeights::ground_truth(&src);
        let traces = vec![
            sensei_trace::generate::hsdpa_like(1200.0, 600, 41),
            sensei_trace::generate::fcc_like(2400.0, 600, 42),
        ];
        let corpus = [(&src, &enc, &weights)];
        let cfg = |base| PensieveConfig {
            episodes: 40,
            ..base
        };
        let plain = Pensieve::train(&corpus, &traces, &cfg(PensieveConfig::default()), 5);
        let sensei =
            SenseiPensieve::train(&corpus, &traces, &cfg(PensieveConfig::sensei_default()), 5);
        let (plain, sensei) = (plain.unwrap(), sensei.unwrap());
        let ctx = SessionContext {
            encoded: &enc,
            weights: Some(&weights),
            chunk_duration_s: 4.0,
        };
        let states = [
            PlayerState {
                next_chunk: 0,
                buffer_s: 0.0,
                last_level: None,
                throughput_history_kbps: &[],
                download_time_history_s: &[],
                elapsed_s: 0.0,
                playing: false,
            },
            PlayerState {
                next_chunk: 5,
                buffer_s: 9.5,
                last_level: Some(1),
                throughput_history_kbps: &[900.0, 1400.0, 2100.0, 1700.0, 1200.0],
                download_time_history_s: &[1.9, 2.4, 1.1, 1.6, 2.8],
                elapsed_s: 24.0,
                playing: true,
            },
            PlayerState {
                next_chunk: 12,
                buffer_s: 3.0,
                last_level: Some(3),
                throughput_history_kbps: &[3200.0; 10],
                download_time_history_s: &[1.25; 10],
                elapsed_s: 55.0,
                playing: true,
            },
        ];
        const PLAIN: [[u64; 5]; 3] = [
            [
                0x3f9e00174a7ca48c,
                0x3fd4a1a12a76e3a5,
                0x3fd07e3989c3fe88,
                0x3fd22ebd7476bc56,
                0x3fbb45998a9a5cd0,
            ],
            [
                0x3f8e0177c79f4ca8,
                0x3fd1c0da652a0641,
                0x3fd0895d7f4cf455,
                0x3fd68b6827bfee7b,
                0x3fb8e950d630722d,
            ],
            [
                0x3f91647cf2e74832,
                0x3fd22dae99539e77,
                0x3fd127191d8998b7,
                0x3fd5c096c742cd37,
                0x3fb75166cac61c67,
            ],
        ];
        const SENSEI: [[u64; 7]; 3] = [
            [
                0x3f25a2f898e62ce5,
                0x3f3484bb1d6eafee,
                0x3fefeac97ec2a669,
                0x3f4c4e04545ed690,
                0x3f3d2e1930a6c837,
                0x3f39cf30cfb0d986,
                0x3f3ac47fd7d59726,
            ],
            [
                0x3f0e1e343b85a4c6,
                0x3f20ab321981d754,
                0x3feff866a8e6c229,
                0x3f33355b5a5d61a9,
                0x3f25603c558bcbef,
                0x3f2498e851d280bd,
                0x3f20fed70f610b44,
            ],
            [
                0x3ec5bc5404342714,
                0x3ed1d7c8063c6c59,
                0x3fefff98c8075cee,
                0x3eec8d48e5391cca,
                0x3ee56d60d5a88d1d,
                0x3ee86678daf9f521,
                0x3edcf7ba12156f33,
            ],
        ];
        let bits = |probs: Vec<f64>| probs.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        for (i, state) in states.iter().enumerate() {
            let p = plain.0.net.action_probs(&PENSIEVE.state(state, &ctx));
            assert_eq!(bits(p.unwrap()), PLAIN[i], "Pensieve, state {i}");
            let s = sensei
                .0
                .net
                .action_probs(&SENSEI_PENSIEVE.state(state, &ctx));
            assert_eq!(bits(s.unwrap()), SENSEI[i], "SENSEI-Pensieve, state {i}");
        }
    }
}
