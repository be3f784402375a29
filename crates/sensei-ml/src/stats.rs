//! Correlation and rank statistics used throughout the paper's evaluation.
//!
//! §7.1: "We also evaluate the performance of our model by accuracy
//! prediction in Pearson's Coefficient (PLCC) and the rank correlation in
//! Spearman's Coefficient (SRCC)." Fig. 5 additionally uses Spearman rank
//! correlation between video series, and Fig. 2's discordant-pair fraction
//! is a rank-correlation-style measure computed in `sensei-qoe`.

/// Arithmetic mean. Returns 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation. Returns 0 for slices shorter than 2.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Pearson linear correlation coefficient (PLCC).
///
/// Returns `None` when the slices differ in length, are shorter than 2, or
/// either is constant (correlation undefined).
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return None;
    }
    Some(sxy / (sxx.sqrt() * syy.sqrt()))
}

/// Fractional ranks (1-based) with ties receiving their average rank —
/// the convention Spearman correlation requires.
pub fn ranks(xs: &[f64]) -> Vec<f64> {
    let n = xs.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| {
        xs[a]
            .partial_cmp(&xs[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut out = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        // Average rank for the tie group [i, j].
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for k in i..=j {
            out[idx[k]] = avg;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation coefficient (SRCC): Pearson correlation of the
/// rank vectors.
///
/// Returns `None` under the same conditions as [`pearson`].
pub fn spearman(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    pearson(&ranks(xs), &ranks(ys))
}

/// Mean relative error `|pred − truth| / truth`, the Fig. 2 x-axis metric.
/// Entries with `truth == 0` are skipped.
///
/// Returns `None` when lengths differ or no valid entries remain.
pub fn mean_relative_error(pred: &[f64], truth: &[f64]) -> Option<f64> {
    if pred.len() != truth.len() {
        return None;
    }
    let mut total = 0.0;
    let mut count = 0usize;
    for (&p, &t) in pred.iter().zip(truth) {
        if t == 0.0 {
            continue;
        }
        total += (p - t).abs() / t.abs();
        count += 1;
    }
    if count == 0 {
        None
    } else {
        Some(total / count as f64)
    }
}

/// Percentile (0–100) by linear interpolation on the sorted sample.
/// Returns `None` for an empty slice or out-of-range percentile.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert!((std_dev(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
        assert_eq!(std_dev(&[5.0]), 0.0);
    }

    #[test]
    fn pearson_perfect_and_inverse() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let z = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&x, &z).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_undefined_cases() {
        assert!(pearson(&[1.0], &[1.0]).is_none());
        assert!(pearson(&[1.0, 2.0], &[1.0]).is_none());
        assert!(pearson(&[1.0, 1.0], &[1.0, 2.0]).is_none());
    }

    #[test]
    fn ranks_handle_ties() {
        let r = ranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn spearman_is_rank_based() {
        // Monotone but nonlinear: SRCC = 1, PLCC < 1.
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [1.0, 8.0, 27.0, 64.0, 125.0];
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        assert!(pearson(&x, &y).unwrap() < 1.0);
    }

    #[test]
    fn relative_error_skips_zero_truth() {
        let e = mean_relative_error(&[1.1, 0.9, 5.0], &[1.0, 1.0, 0.0]).unwrap();
        assert!((e - 0.1).abs() < 1e-9);
        assert!(mean_relative_error(&[1.0], &[0.0]).is_none());
        assert!(mean_relative_error(&[1.0], &[1.0, 2.0]).is_none());
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.0).unwrap(), 1.0);
        assert_eq!(percentile(&xs, 100.0).unwrap(), 5.0);
        assert_eq!(percentile(&xs, 50.0).unwrap(), 3.0);
        assert_eq!(percentile(&xs, 25.0).unwrap(), 2.0);
        assert!(percentile(&[], 50.0).is_none());
        assert!(percentile(&xs, 150.0).is_none());
    }
}
