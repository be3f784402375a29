//! The simulated rater population.
//!
//! MTurk workers are not calibrated instruments: each carries a personal
//! bias (some rate harshly, some generously), per-rating noise, and a small
//! fraction are outright unreliable — they click through without watching,
//! which the paper's §B quality controls must catch. [`RaterPool`] samples
//! such a population deterministically from a seed; master-worker pools
//! (§C) have fewer unreliable members and less noise.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One crowd worker.
#[derive(Debug, Clone, PartialEq)]
pub struct Rater {
    /// Additive rating bias on the normalized `[0, 1]` scale.
    pub bias: f64,
    /// Standard deviation of per-rating noise on the normalized scale.
    pub noise_sd: f64,
    /// Whether the rater actually watches the videos. Unreliable raters
    /// emit uniform-random scores and may skip watching (detectable).
    pub reliable: bool,
    /// Probability this rater's playback log shows a fully-watched video
    /// (unreliable raters often skip; §B rejects them).
    pub watch_probability: f64,
}

impl Rater {
    /// Produces a 1–5 Likert rating for a clip whose true normalized QoE is
    /// `qoe01`.
    // `score` is clamped to [1, 5] before the cast by construction.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn rate<R: Rng>(&self, qoe01: f64, rng: &mut R) -> u8 {
        if !self.reliable {
            return rng.gen_range(1..=5);
        }
        let noisy = qoe01 + self.bias + gaussian(rng) * self.noise_sd;
        let score = 1.0 + 4.0 * noisy.clamp(0.0, 1.0);
        (score.round() as u8).clamp(1, 5)
    }

    /// Whether this rater's log shows the clip fully watched.
    pub fn watched_fully<R: Rng>(&self, rng: &mut R) -> bool {
        rng.gen_bool(self.watch_probability.clamp(0.0, 1.0))
    }
}

/// Population parameters for sampling raters.
#[derive(Debug, Clone)]
pub struct RaterPool {
    /// Standard deviation of per-rater bias.
    pub bias_sd: f64,
    /// Mean of per-rating noise SD.
    pub noise_sd: f64,
    /// Fraction of unreliable raters.
    pub unreliable_fraction: f64,
    seed: u64,
}

impl RaterPool {
    /// The general MTurk population: noticeable bias and noise, 8%
    /// unreliable.
    pub fn general(seed: u64) -> Self {
        Self {
            bias_sd: 0.06,
            noise_sd: 0.08,
            unreliable_fraction: 0.08,
            seed,
        }
    }

    /// Master workers (§C): "rejection rate from these Turkers over 4×
    /// lower than normal Turkers".
    pub fn masters(seed: u64) -> Self {
        Self {
            bias_sd: 0.04,
            noise_sd: 0.06,
            unreliable_fraction: 0.02,
            seed,
        }
    }

    /// The pool's raters in sign-up order: an endless deterministic
    /// stream that draws each rater only when it is read.
    pub(crate) fn stream(&self) -> impl Iterator<Item = Rater> {
        let pool = self.clone();
        let mut rng = StdRng::seed_from_u64(self.seed);
        std::iter::repeat_with(move || {
            let reliable = !rng.gen_bool(pool.unreliable_fraction);
            Rater {
                bias: gaussian(&mut rng) * pool.bias_sd,
                noise_sd: (pool.noise_sd * (0.7 + 0.6 * rng.gen::<f64>())).max(0.01),
                reliable,
                watch_probability: if reliable { 0.995 } else { 0.6 },
            }
        })
    }

    /// Samples `n` raters deterministically: the first `n` raters of the
    /// stream a campaign draws lazily.
    pub fn sample(&self, n: usize) -> Vec<Rater> {
        self.stream().take(n).collect()
    }
}

fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliable_ratings_track_true_qoe() {
        let pool = RaterPool::general(1);
        let raters: Vec<Rater> = pool
            .sample(200)
            .into_iter()
            .filter(|r| r.reliable)
            .collect();
        let mut rng = StdRng::seed_from_u64(2);
        let mean_for = |q: f64, rng: &mut StdRng| {
            let total: f64 = raters.iter().map(|r| r.rate(q, rng) as f64).sum();
            total / raters.len() as f64
        };
        let high = mean_for(0.9, &mut rng);
        let mid = mean_for(0.5, &mut rng);
        let low = mean_for(0.15, &mut rng);
        assert!(high > mid && mid > low, "{high} > {mid} > {low} violated");
        assert!((high - 4.6).abs() < 0.4, "high = {high}");
        assert!((low - 1.6).abs() < 0.4, "low = {low}");
    }

    #[test]
    fn unreliable_raters_are_uninformative() {
        let rater = Rater {
            bias: 0.0,
            noise_sd: 0.05,
            reliable: false,
            watch_probability: 0.6,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mean: f64 = (0..2000)
            .map(|_| rater.rate(0.95, &mut rng) as f64)
            .sum::<f64>()
            / 2000.0;
        // Uniform over 1..=5 has mean 3 regardless of true QoE.
        assert!((mean - 3.0).abs() < 0.15, "mean = {mean}");
    }

    #[test]
    fn pool_sampling_is_deterministic() {
        let a = RaterPool::general(9).sample(50);
        let b = RaterPool::general(9).sample(50);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.bias, y.bias);
            assert_eq!(x.reliable, y.reliable);
        }
    }

    #[test]
    fn samples_are_prefixes_of_the_stream() {
        for pool in [RaterPool::general(9), RaterPool::masters(4)] {
            let long = pool.sample(60);
            for n in [0, 1, 7, 60] {
                let streamed: Vec<Rater> = pool.stream().take(n).collect();
                assert_eq!(pool.sample(n), streamed);
                assert_eq!(&long[..n], &streamed[..]);
            }
        }
    }

    #[test]
    fn masters_are_more_reliable_than_general() {
        let count_unreliable =
            |pool: &RaterPool| pool.sample(1000).iter().filter(|r| !r.reliable).count();
        let general = count_unreliable(&RaterPool::general(5));
        let masters = count_unreliable(&RaterPool::masters(5));
        assert!(
            masters * 2 < general,
            "masters {masters} vs general {general}"
        );
    }

    #[test]
    fn ratings_stay_on_likert_scale() {
        let rater = Rater {
            bias: 0.5,
            noise_sd: 0.5,
            reliable: true,
            watch_probability: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..500 {
            let r = rater.rate(rng.gen(), &mut rng);
            assert!((1..=5).contains(&r));
        }
    }
}
