//! Advantage actor-critic (A2C) — the reinforcement-learning trainer behind
//! Pensieve.
//!
//! Pensieve trains a policy network whose state summarizes recent streaming
//! history and whose actions pick the next chunk's bitrate; the reward is
//! the QoE objective (§5.2 in the SENSEI paper; Mao et al. 2017). The
//! original uses A3C — asynchronous parallel actors — purely as a training
//! throughput optimization. A single-threaded A2C with the same
//! policy-gradient maths reaches the same fixed points and keeps the
//! reproduction deterministic.

use crate::nn::{softmax, Activation, Mlp};
use crate::MlError;
use rand::Rng;

/// Hyperparameters for the actor-critic trainer.
#[derive(Debug, Clone)]
pub struct A2cConfig {
    /// Reward discount factor.
    pub gamma: f64,
    /// Entropy-bonus coefficient (exploration pressure).
    pub entropy_coef: f64,
    /// Policy-network learning rate.
    pub lr_policy: f64,
    /// Value-network learning rate.
    pub lr_value: f64,
    /// Hidden-layer width for both networks.
    pub hidden: usize,
}

impl Default for A2cConfig {
    fn default() -> Self {
        Self {
            gamma: 0.99,
            entropy_coef: 0.02,
            lr_policy: 1e-3,
            lr_value: 1e-3,
            hidden: 64,
        }
    }
}

/// One transition of an episode.
#[derive(Debug, Clone)]
pub struct Transition {
    /// Observed state.
    pub state: Vec<f64>,
    /// Action taken.
    pub action: usize,
    /// Immediate reward.
    pub reward: f64,
}

/// Per-update training statistics.
#[derive(Debug, Clone, Copy)]
pub struct TrainStats {
    /// Sum of rewards in the episode.
    pub episode_reward: f64,
    /// Mean critic loss.
    pub value_loss: f64,
    /// Mean policy entropy (nats).
    pub entropy: f64,
}

/// An advantage actor-critic agent: a softmax policy over discrete actions
/// plus a scalar value baseline.
#[derive(Debug, Clone)]
pub struct ActorCritic {
    policy: Mlp,
    value: Mlp,
    config: A2cConfig,
    n_actions: usize,
}

impl ActorCritic {
    /// Builds an agent for `state_dim`-dimensional states and `n_actions`
    /// discrete actions.
    ///
    /// # Errors
    ///
    /// Returns an error when dimensions are zero or config values invalid.
    pub fn new(
        state_dim: usize,
        n_actions: usize,
        config: A2cConfig,
        seed: u64,
    ) -> Result<Self, MlError> {
        if n_actions < 2 {
            return Err(MlError::InvalidHyperparameter {
                name: "n_actions",
                value: n_actions as f64,
            });
        }
        if !(config.gamma > 0.0 && config.gamma <= 1.0) {
            return Err(MlError::InvalidHyperparameter {
                name: "gamma",
                value: config.gamma,
            });
        }
        let policy = Mlp::new(
            &[state_dim, config.hidden, config.hidden, n_actions],
            Activation::Relu,
            Activation::Linear,
            seed,
        )?;
        let value = Mlp::new(
            &[state_dim, config.hidden, config.hidden, 1],
            Activation::Relu,
            Activation::Linear,
            seed ^ 0xDEAD_BEEF,
        )?;
        Ok(Self {
            policy,
            value,
            config,
            n_actions,
        })
    }

    /// Adjusts the entropy-bonus coefficient (training loops anneal this
    /// from exploratory to exploitative).
    pub fn set_entropy_coef(&mut self, coef: f64) {
        self.config.entropy_coef = coef.max(0.0);
    }

    /// Action distribution for a state.
    ///
    /// # Errors
    ///
    /// Returns an error on state-dimension mismatch.
    pub fn action_probs(&self, state: &[f64]) -> Result<Vec<f64>, MlError> {
        Ok(softmax(&self.policy.forward(state)?))
    }

    /// Samples an action restricted to `allowed` (invalid-action masking:
    /// probabilities outside the set are renormalized away).
    ///
    /// # Errors
    ///
    /// Returns an error on state-dimension mismatch or an empty/out-of-range
    /// mask.
    pub fn sample_action_masked<R: Rng>(
        &self,
        state: &[f64],
        allowed: &[usize],
        rng: &mut R,
    ) -> Result<usize, MlError> {
        let probs = self.masked_probs(state, allowed)?;
        let mut u: f64 = rng.gen_range(0.0..1.0);
        for &(a, p) in &probs {
            if u < p {
                return Ok(a);
            }
            u -= p;
        }
        Ok(probs.last().expect("non-empty mask").0)
    }

    /// Greedy (argmax) action restricted to `allowed`, used at evaluation
    /// time.
    ///
    /// # Errors
    ///
    /// Returns an error on state-dimension mismatch or an empty/out-of-range
    /// mask.
    pub fn best_action_masked(&self, state: &[f64], allowed: &[usize]) -> Result<usize, MlError> {
        let probs = self.masked_probs(state, allowed)?;
        Ok(probs
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .expect("non-empty mask")
            .0)
    }

    fn masked_probs(&self, state: &[f64], allowed: &[usize]) -> Result<Vec<(usize, f64)>, MlError> {
        if allowed.is_empty() || allowed.iter().any(|&a| a >= self.n_actions) {
            return Err(MlError::DimensionMismatch {
                context: "action mask",
                expected: self.n_actions,
                actual: allowed.len(),
            });
        }
        let probs = self.action_probs(state)?;
        let total: f64 = allowed.iter().map(|&a| probs[a]).sum();
        Ok(allowed.iter().map(|&a| (a, probs[a] / total)).collect())
    }

    /// Critic's value estimate for a state.
    ///
    /// # Errors
    ///
    /// Returns an error on state-dimension mismatch.
    pub fn state_value(&self, state: &[f64]) -> Result<f64, MlError> {
        Ok(self.value.forward(state)?[0])
    }

    /// One policy+value update from a completed episode.
    ///
    /// Computes discounted returns, advantages against the value baseline,
    /// and applies the policy gradient with an entropy bonus, then fits the
    /// critic toward the returns.
    ///
    /// # Errors
    ///
    /// Returns an error on empty episodes or malformed transitions.
    pub fn train_episode(&mut self, episode: &[Transition]) -> Result<TrainStats, MlError> {
        if episode.is_empty() {
            return Err(MlError::DegenerateTrainingSet("empty episode"));
        }
        // Discounted returns, backwards.
        let mut returns = vec![0.0; episode.len()];
        let mut acc = 0.0;
        for (i, tr) in episode.iter().enumerate().rev() {
            if tr.action >= self.n_actions {
                return Err(MlError::DimensionMismatch {
                    context: "action index",
                    expected: self.n_actions,
                    actual: tr.action,
                });
            }
            acc = tr.reward + self.config.gamma * acc;
            returns[i] = acc;
        }
        let episode_reward: f64 = episode.iter().map(|t| t.reward).sum();

        // Advantages against the value baseline, normalized within the
        // episode (standard A2C variance reduction).
        let mut advantages = Vec::with_capacity(episode.len());
        for (tr, &ret) in episode.iter().zip(&returns) {
            advantages.push(ret - self.value.forward(&tr.state)?[0]);
        }
        let adv_mean = advantages.iter().sum::<f64>() / advantages.len() as f64;
        let adv_var = advantages
            .iter()
            .map(|a| (a - adv_mean) * (a - adv_mean))
            .sum::<f64>()
            / advantages.len() as f64;
        let adv_std = adv_var.sqrt().max(1e-6);
        let scale = 1.0 / episode.len() as f64; // average, not sum, gradients

        let mut value_loss = 0.0;
        let mut entropy_sum = 0.0;
        for ((tr, &ret), &adv) in episode.iter().zip(&returns).zip(&advantages) {
            let advantage = (adv - adv_mean) / adv_std;

            // Policy gradient on logits: (p − onehot)·A + β·∂(−H)/∂z.
            let cache = self.policy.forward_cached(&tr.state)?;
            let probs = softmax(cache.output());
            let entropy: f64 = -probs
                .iter()
                .filter(|&&p| p > 0.0)
                .map(|&p| p * p.ln())
                .sum::<f64>();
            entropy_sum += entropy;
            let mut dlogits = vec![0.0; self.n_actions];
            for (a, dl) in dlogits.iter_mut().enumerate() {
                let onehot = if a == tr.action { 1.0 } else { 0.0 };
                let policy_term = (probs[a] - onehot) * advantage;
                // ∂(−H)/∂z_a = p_a·(ln p_a + H); minimizing −H maximizes entropy.
                let entropy_term = probs[a] * (probs[a].max(1e-12).ln() + entropy);
                *dl = (policy_term + self.config.entropy_coef * entropy_term) * scale;
            }
            self.policy.backward(&cache, &dlogits)?;

            // Critic MSE toward the return.
            let vcache = self.value.forward_cached(&tr.state)?;
            let v = vcache.output()[0];
            value_loss += (v - ret) * (v - ret);
            self.value.backward(&vcache, &[2.0 * (v - ret) * scale])?;
        }
        // One Adam step per episode (gradients were accumulated).
        self.policy.step(self.config.lr_policy);
        self.value.step(self.config.lr_value);
        Ok(TrainStats {
            episode_reward,
            value_loss: value_loss / episode.len() as f64,
            entropy: entropy_sum / episode.len() as f64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constructor_validation() {
        assert!(ActorCritic::new(4, 1, A2cConfig::default(), 0).is_err());
        let bad_gamma = A2cConfig {
            gamma: 0.0,
            ..A2cConfig::default()
        };
        assert!(ActorCritic::new(4, 3, bad_gamma, 0).is_err());
        let ac = ActorCritic::new(4, 3, A2cConfig::default(), 0).unwrap();
        assert_eq!(ac.action_probs(&[0.0; 4]).unwrap().len(), 3);
    }

    #[test]
    fn action_probs_are_a_distribution() {
        let ac = ActorCritic::new(3, 4, A2cConfig::default(), 1).unwrap();
        let p = ac.action_probs(&[0.1, 0.2, 0.3]).unwrap();
        assert_eq!(p.len(), 4);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&v| v > 0.0));
        assert!(ac.action_probs(&[0.1]).is_err());
    }

    #[test]
    fn sampling_respects_distribution() {
        let ac = ActorCritic::new(2, 3, A2cConfig::default(), 2).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            counts[ac
                .sample_action_masked(&[0.5, 0.5], &[0, 1, 2], &mut rng)
                .unwrap()] += 1;
        }
        let probs = ac.action_probs(&[0.5, 0.5]).unwrap();
        for (a, &c) in counts.iter().enumerate() {
            let freq = c as f64 / 3000.0;
            assert!(
                (freq - probs[a]).abs() < 0.05,
                "action {a}: freq {freq} vs prob {}",
                probs[a]
            );
        }
    }

    /// A two-armed bandit: action 1 pays 1.0, action 0 pays 0.0. The policy
    /// must concentrate on action 1.
    #[test]
    fn learns_a_bandit() {
        let config = A2cConfig {
            hidden: 16,
            entropy_coef: 0.005,
            lr_policy: 5e-3,
            lr_value: 5e-3,
            ..A2cConfig::default()
        };
        let mut ac = ActorCritic::new(1, 2, config, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..300 {
            let mut episode = Vec::new();
            for _ in 0..8 {
                let a = ac.sample_action_masked(&[1.0], &[0, 1], &mut rng).unwrap();
                episode.push(Transition {
                    state: vec![1.0],
                    action: a,
                    reward: if a == 1 { 1.0 } else { 0.0 },
                });
            }
            ac.train_episode(&episode).unwrap();
        }
        let p = ac.action_probs(&[1.0]).unwrap();
        assert!(p[1] > 0.85, "p(best arm) = {}", p[1]);
        assert_eq!(ac.best_action_masked(&[1.0], &[0, 1]).unwrap(), 1);
    }

    /// A contextual bandit: best action depends on the state sign.
    #[test]
    fn learns_state_dependent_policy() {
        let config = A2cConfig {
            hidden: 16,
            entropy_coef: 0.005,
            lr_policy: 5e-3,
            lr_value: 5e-3,
            ..A2cConfig::default()
        };
        let mut ac = ActorCritic::new(1, 2, config, 6).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for ep in 0..600 {
            let s = if ep % 2 == 0 { 1.0 } else { -1.0 };
            let best = if s > 0.0 { 1 } else { 0 };
            let mut episode = Vec::new();
            for _ in 0..4 {
                let a = ac.sample_action_masked(&[s], &[0, 1], &mut rng).unwrap();
                episode.push(Transition {
                    state: vec![s],
                    action: a,
                    reward: if a == best { 1.0 } else { 0.0 },
                });
            }
            ac.train_episode(&episode).unwrap();
        }
        assert_eq!(ac.best_action_masked(&[1.0], &[0, 1]).unwrap(), 1);
        assert_eq!(ac.best_action_masked(&[-1.0], &[0, 1]).unwrap(), 0);
    }

    #[test]
    fn critic_tracks_returns() {
        let mut ac = ActorCritic::new(1, 2, A2cConfig::default(), 8).unwrap();
        // Constant reward 1 for 5 steps, gamma 0.99: V(s0) ≈ 4.9.
        for _ in 0..400 {
            let episode: Vec<Transition> = (0..5)
                .map(|_| Transition {
                    state: vec![1.0],
                    action: 0,
                    reward: 1.0,
                })
                .collect();
            ac.train_episode(&episode).unwrap();
        }
        let v = ac.state_value(&[1.0]).unwrap();
        assert!((2.0..6.0).contains(&v), "V = {v}");
    }

    #[test]
    fn train_episode_validation() {
        let mut ac = ActorCritic::new(1, 2, A2cConfig::default(), 9).unwrap();
        assert!(ac.train_episode(&[]).is_err());
        let bad = vec![Transition {
            state: vec![1.0],
            action: 5,
            reward: 0.0,
        }];
        assert!(ac.train_episode(&bad).is_err());
    }
}
