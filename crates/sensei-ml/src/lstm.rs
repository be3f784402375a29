//! A single-layer LSTM with backpropagation through time.
//!
//! LSTM-QoE (Eswara et al. 2019) feeds per-chunk quality features into an
//! LSTM "designed to capture the 'memory effect' of human perception of past
//! quality incidents" (§2.1). [`LstmRegressor`] reproduces that model class:
//! an LSTM over a feature sequence, a dense head on the final hidden state,
//! and a sigmoid output in `[0, 1]` matching normalized MOS.

use crate::nn::adam_update;
use crate::{gaussian, MlError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-timestep forward cache.
#[derive(Debug, Clone)]
struct StepCache {
    x: Vec<f64>,
    i: Vec<f64>,
    f: Vec<f64>,
    g: Vec<f64>,
    o: Vec<f64>,
    tanh_c: Vec<f64>,
    h_prev: Vec<f64>,
    c_prev: Vec<f64>,
}

/// LSTM + dense sigmoid head, trained with Adam on scalar targets.
#[derive(Debug, Clone)]
pub struct LstmRegressor {
    input: usize,
    hidden: usize,
    /// Gate weights on the input, `4H × I`, gates stacked `[i, f, g, o]`.
    wx: Vec<f64>,
    /// Gate weights on the previous hidden state, `4H × H`.
    wh: Vec<f64>,
    /// Gate biases, `4H` (forget-gate slice initialized to 1).
    b: Vec<f64>,
    /// Output head weights, `H`.
    why: Vec<f64>,
    /// Output head bias.
    by: f64,
    // Gradient and Adam-moment buffers.
    gwx: Vec<f64>,
    gwh: Vec<f64>,
    gb: Vec<f64>,
    gwhy: Vec<f64>,
    gby: f64,
    mwx: Vec<f64>,
    vwx: Vec<f64>,
    mwh: Vec<f64>,
    vwh: Vec<f64>,
    mb: Vec<f64>,
    vb: Vec<f64>,
    mwhy: Vec<f64>,
    vwhy: Vec<f64>,
    mby: f64,
    vby: f64,
    t: usize,
}

fn sigmoid(v: f64) -> f64 {
    1.0 / (1.0 + (-v).exp())
}

impl LstmRegressor {
    /// Builds an LSTM regressor with `input` features per step and `hidden`
    /// units.
    ///
    /// # Errors
    ///
    /// Returns an error when either dimension is zero.
    pub fn new(input: usize, hidden: usize, seed: u64) -> Result<Self, MlError> {
        if input == 0 || hidden == 0 {
            return Err(MlError::InvalidHyperparameter {
                name: "lstm dims",
                value: 0.0,
            });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let scale_x = (1.0 / input as f64).sqrt();
        let scale_h = (1.0 / hidden as f64).sqrt();
        let wx = (0..4 * hidden * input)
            .map(|_| gaussian(&mut rng) * scale_x)
            .collect();
        let wh = (0..4 * hidden * hidden)
            .map(|_| gaussian(&mut rng) * scale_h)
            .collect();
        let mut b = vec![0.0; 4 * hidden];
        // Forget-gate bias of 1: the standard trick to preserve memory early
        // in training.
        for v in b.iter_mut().take(2 * hidden).skip(hidden) {
            *v = 1.0;
        }
        let why = (0..hidden).map(|_| gaussian(&mut rng) * scale_h).collect();
        Ok(Self {
            input,
            hidden,
            wx,
            wh,
            b,
            why,
            by: 0.0,
            gwx: vec![0.0; 4 * hidden * input],
            gwh: vec![0.0; 4 * hidden * hidden],
            gb: vec![0.0; 4 * hidden],
            gwhy: vec![0.0; hidden],
            gby: 0.0,
            mwx: vec![0.0; 4 * hidden * input],
            vwx: vec![0.0; 4 * hidden * input],
            mwh: vec![0.0; 4 * hidden * hidden],
            vwh: vec![0.0; 4 * hidden * hidden],
            mb: vec![0.0; 4 * hidden],
            vb: vec![0.0; 4 * hidden],
            mwhy: vec![0.0; hidden],
            vwhy: vec![0.0; hidden],
            mby: 0.0,
            vby: 0.0,
            t: 0,
        })
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.input
    }

    /// Hidden-state size.
    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    /// Runs the LSTM over a sequence; returns per-step caches and the final
    /// hidden state.
    fn run(&self, seq: &[Vec<f64>]) -> Result<(Vec<StepCache>, Vec<f64>), MlError> {
        let h_dim = self.hidden;
        let mut h = vec![0.0; h_dim];
        let mut c = vec![0.0; h_dim];
        let mut caches = Vec::with_capacity(seq.len());
        for x in seq {
            if x.len() != self.input {
                return Err(MlError::DimensionMismatch {
                    context: "lstm input step",
                    expected: self.input,
                    actual: x.len(),
                });
            }
            // z = Wx·x + Wh·h + b, gates stacked [i, f, g, o].
            let mut z = self.b.clone();
            for (r, zr) in z.iter_mut().enumerate() {
                let wx_row = &self.wx[r * self.input..(r + 1) * self.input];
                let wh_row = &self.wh[r * h_dim..(r + 1) * h_dim];
                *zr += wx_row.iter().zip(x).map(|(w, v)| w * v).sum::<f64>()
                    + wh_row.iter().zip(&h).map(|(w, v)| w * v).sum::<f64>();
            }
            let (zi, rest) = z.split_at(h_dim);
            let (zf, rest) = rest.split_at(h_dim);
            let (zg, zo) = rest.split_at(h_dim);
            let i_gate: Vec<f64> = zi.iter().map(|&v| sigmoid(v)).collect();
            let f_gate: Vec<f64> = zf.iter().map(|&v| sigmoid(v)).collect();
            let g_gate: Vec<f64> = zg.iter().map(|&v| v.tanh()).collect();
            let o_gate: Vec<f64> = zo.iter().map(|&v| sigmoid(v)).collect();
            let c_prev = c.clone();
            let h_prev = h.clone();
            for k in 0..h_dim {
                c[k] = f_gate[k] * c_prev[k] + i_gate[k] * g_gate[k];
            }
            let tanh_c: Vec<f64> = c.iter().map(|&v| v.tanh()).collect();
            for k in 0..h_dim {
                h[k] = o_gate[k] * tanh_c[k];
            }
            caches.push(StepCache {
                x: x.clone(),
                i: i_gate,
                f: f_gate,
                g: g_gate,
                o: o_gate,
                tanh_c,
                h_prev,
                c_prev,
            });
        }
        Ok((caches, h))
    }

    /// Predicts a scalar in `(0, 1)` from a feature sequence.
    ///
    /// # Errors
    ///
    /// Returns an error on an empty sequence or feature-dimension mismatch.
    pub fn predict(&self, seq: &[Vec<f64>]) -> Result<f64, MlError> {
        if seq.is_empty() {
            return Err(MlError::DegenerateTrainingSet("empty sequence"));
        }
        let (_, h) = self.run(seq)?;
        Ok(sigmoid(
            self.why.iter().zip(&h).map(|(w, v)| w * v).sum::<f64>() + self.by,
        ))
    }

    /// One training step on a single `(sequence, target)` example; returns
    /// the squared error before the update.
    ///
    /// # Errors
    ///
    /// Returns an error on an empty sequence or dimension mismatch.
    pub fn train_example(
        &mut self,
        seq: &[Vec<f64>],
        target: f64,
        lr: f64,
    ) -> Result<f64, MlError> {
        let loss = self.backprop(seq, target)?;
        self.apply_adam(lr);
        Ok(loss)
    }

    /// Adds one example's squared-error gradients to the gradient buffers
    /// (backpropagation through time) and returns the loss. The buffers
    /// are cleared by the next Adam step.
    fn backprop(&mut self, seq: &[Vec<f64>], target: f64) -> Result<f64, MlError> {
        if seq.is_empty() {
            return Err(MlError::DegenerateTrainingSet("empty sequence"));
        }
        let h_dim = self.hidden;
        let (caches, h_final) = self.run(seq)?;
        let logit = self
            .why
            .iter()
            .zip(&h_final)
            .map(|(w, v)| w * v)
            .sum::<f64>()
            + self.by;
        let pred = sigmoid(logit);
        let loss = (pred - target) * (pred - target);
        // dL/dlogit = 2(pred − target)·σ'(logit).
        let dlogit = 2.0 * (pred - target) * pred * (1.0 - pred);
        // Head gradients.
        for (k, &h) in h_final.iter().enumerate().take(h_dim) {
            self.gwhy[k] += dlogit * h;
        }
        self.gby += dlogit;
        // Backprop through time.
        let mut dh: Vec<f64> = self.why.iter().map(|&w| dlogit * w).collect();
        let mut dc = vec![0.0; h_dim];
        for cache in caches.iter().rev() {
            let mut dz = vec![0.0; 4 * h_dim]; // [di, df, dg, do] pre-activation
            for k in 0..h_dim {
                let do_ = dh[k] * cache.tanh_c[k];
                let dck = dc[k] + dh[k] * cache.o[k] * (1.0 - cache.tanh_c[k] * cache.tanh_c[k]);
                let di = dck * cache.g[k];
                let df = dck * cache.c_prev[k];
                let dg = dck * cache.i[k];
                dz[k] = di * cache.i[k] * (1.0 - cache.i[k]);
                dz[h_dim + k] = df * cache.f[k] * (1.0 - cache.f[k]);
                dz[2 * h_dim + k] = dg * (1.0 - cache.g[k] * cache.g[k]);
                dz[3 * h_dim + k] = do_ * cache.o[k] * (1.0 - cache.o[k]);
                dc[k] = dck * cache.f[k];
            }
            // Accumulate parameter grads and push gradient to h_{t−1}.
            let mut dh_prev = vec![0.0; h_dim];
            for (r, &dzr) in dz.iter().enumerate() {
                if dzr == 0.0 {
                    continue;
                }
                self.gb[r] += dzr;
                let wx_start = r * self.input;
                for (ii, &xv) in cache.x.iter().enumerate() {
                    self.gwx[wx_start + ii] += dzr * xv;
                }
                let wh_start = r * h_dim;
                for (k, dhp) in dh_prev.iter_mut().enumerate().take(h_dim) {
                    self.gwh[wh_start + k] += dzr * cache.h_prev[k];
                    *dhp += self.wh[wh_start + k] * dzr;
                }
            }
            dh = dh_prev;
        }
        Ok(loss)
    }

    fn apply_adam(&mut self, lr: f64) {
        self.t += 1;
        adam_update(
            &mut self.wx,
            &mut self.gwx,
            &mut self.mwx,
            &mut self.vwx,
            lr,
            self.t,
        );
        adam_update(
            &mut self.wh,
            &mut self.gwh,
            &mut self.mwh,
            &mut self.vwh,
            lr,
            self.t,
        );
        adam_update(
            &mut self.b,
            &mut self.gb,
            &mut self.mb,
            &mut self.vb,
            lr,
            self.t,
        );
        adam_update(
            &mut self.why,
            &mut self.gwhy,
            &mut self.mwhy,
            &mut self.vwhy,
            lr,
            self.t,
        );
        let mut p = [self.by];
        let mut g = [self.gby];
        let mut m = [self.mby];
        let mut v = [self.vby];
        adam_update(&mut p, &mut g, &mut m, &mut v, lr, self.t);
        self.by = p[0];
        self.gby = g[0];
        self.mby = m[0];
        self.vby = v[0];
    }

    /// Trains for `epochs` passes over `data` in a seeded shuffled order;
    /// returns the mean loss of the final epoch.
    ///
    /// # Errors
    ///
    /// Returns an error on empty data or malformed sequences.
    pub fn train(
        &mut self,
        data: &[(Vec<Vec<f64>>, f64)],
        epochs: usize,
        lr: f64,
        seed: u64,
    ) -> Result<f64, MlError> {
        if data.is_empty() {
            return Err(MlError::DegenerateTrainingSet("no training sequences"));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut last_epoch_loss = f64::INFINITY;
        for _ in 0..epochs {
            // Fisher–Yates shuffle.
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            let mut total = 0.0;
            for &idx in &order {
                let (seq, target) = &data[idx];
                total += self.train_example(seq, *target, lr)?;
            }
            last_epoch_loss = total / data.len() as f64;
        }
        Ok(last_epoch_loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_validation() {
        assert!(LstmRegressor::new(0, 4, 0).is_err());
        assert!(LstmRegressor::new(4, 0, 0).is_err());
        let net = LstmRegressor::new(3, 8, 0).unwrap();
        assert_eq!(net.input_dim(), 3);
        assert_eq!(net.hidden_dim(), 8);
    }

    #[test]
    fn predict_validates_input() {
        let net = LstmRegressor::new(2, 4, 1).unwrap();
        assert!(net.predict(&[]).is_err());
        assert!(net.predict(&[vec![1.0]]).is_err());
        let p = net.predict(&[vec![0.1, 0.2], vec![0.3, 0.4]]).unwrap();
        assert!((0.0..1.0).contains(&p));
    }

    #[test]
    fn learns_sequence_mean() {
        // Target = mean of a 1-d sequence: requires integrating over time.
        let mut net = LstmRegressor::new(1, 8, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let data: Vec<(Vec<Vec<f64>>, f64)> = (0..60)
            .map(|_| {
                let seq: Vec<Vec<f64>> = (0..6).map(|_| vec![rng.gen_range(0.0..1.0)]).collect();
                let mean = seq.iter().map(|v| v[0]).sum::<f64>() / 6.0;
                (seq, mean)
            })
            .collect();
        let loss = net.train(&data, 60, 0.01, 4).unwrap();
        assert!(loss < 0.01, "final loss {loss}");
        // Generalization check.
        let hi: Vec<Vec<f64>> = (0..6).map(|_| vec![0.9]).collect();
        let lo: Vec<Vec<f64>> = (0..6).map(|_| vec![0.1]).collect();
        assert!(net.predict(&hi).unwrap() > net.predict(&lo).unwrap());
    }

    #[test]
    fn learns_position_sensitive_pattern() {
        // Target depends on WHERE the spike occurs: late spike = low score.
        // This is the memory capability LSTM-QoE relies on.
        let mut net = LstmRegressor::new(1, 10, 7).unwrap();
        let mut data = Vec::new();
        for pos in 0..5 {
            let mut seq = vec![vec![0.0]; 5];
            seq[pos][0] = 1.0;
            let target = if pos >= 3 { 0.2 } else { 0.8 };
            data.push((seq, target));
        }
        let loss = net.train(&data, 300, 0.02, 9).unwrap();
        assert!(loss < 0.01, "final loss {loss}");
        let mut early = vec![vec![0.0]; 5];
        early[0][0] = 1.0;
        let mut late = vec![vec![0.0]; 5];
        late[4][0] = 1.0;
        assert!(net.predict(&early).unwrap() > 0.6);
        assert!(net.predict(&late).unwrap() < 0.4);
    }

    #[test]
    fn training_is_deterministic() {
        let data = vec![
            (vec![vec![0.2], vec![0.4]], 0.3),
            (vec![vec![0.8], vec![0.6]], 0.7),
        ];
        let run = || {
            let mut net = LstmRegressor::new(1, 4, 5).unwrap();
            net.train(&data, 20, 0.01, 6).unwrap();
            net.predict(&[vec![0.5], vec![0.5]]).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn variable_length_sequences_are_supported() {
        let mut net = LstmRegressor::new(2, 4, 8).unwrap();
        let data = vec![
            (vec![vec![0.1, 0.2]], 0.4),
            (vec![vec![0.3, 0.1], vec![0.2, 0.2], vec![0.9, 0.0]], 0.6),
        ];
        assert!(net.train(&data, 5, 0.01, 1).is_ok());
    }

    /// Central difference of `(predict(seq) − target)²` in the one
    /// parameter `param` selects.
    fn numeric_gradient(
        net: &LstmRegressor,
        seq: &[Vec<f64>],
        target: f64,
        param: impl Fn(&mut LstmRegressor) -> &mut f64,
    ) -> f64 {
        let eps = 1e-6;
        let loss_at = |delta: f64| {
            let mut shifted = net.clone();
            *param(&mut shifted) += delta;
            let p = shifted.predict(seq).unwrap();
            (p - target) * (p - target)
        };
        (loss_at(eps) - loss_at(-eps)) / (2.0 * eps)
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        // Backprop through time against central differences, for a
        // parameter of each gate's input weights, recurrent weights and
        // bias, and for the whole head.
        let mut net = LstmRegressor::new(2, 3, 11).unwrap();
        let seq = vec![vec![0.4, -0.7], vec![0.9, 0.2], vec![-0.3, 0.5]];
        let target = 0.8;
        net.backprop(&seq, target).unwrap();
        let check = |what: &str, analytic: f64, numeric: f64| {
            assert!(
                analytic != 0.0 && (analytic - numeric).abs() < 1e-8,
                "{what}: analytic {analytic} vs numeric {numeric}"
            );
        };
        let (input, hidden) = (net.input, net.hidden);
        for gate in 0..4 {
            let row = gate * hidden + 1;
            let (x, h) = (row * input + 1, row * hidden + 2);
            let numeric = numeric_gradient(&net, &seq, target, |n| &mut n.wx[x]);
            check("input weight", net.gwx[x], numeric);
            let numeric = numeric_gradient(&net, &seq, target, |n| &mut n.wh[h]);
            check("recurrent weight", net.gwh[h], numeric);
            let numeric = numeric_gradient(&net, &seq, target, |n| &mut n.b[row]);
            check("gate bias", net.gb[row], numeric);
        }
        for k in 0..hidden {
            let numeric = numeric_gradient(&net, &seq, target, |n| &mut n.why[k]);
            check("head weight", net.gwhy[k], numeric);
        }
        let numeric = numeric_gradient(&net, &seq, target, |n| &mut n.by);
        check("head bias", net.gby, numeric);
    }
}
