//! The perceptual visual-quality curve standing in for VMAF.
//!
//! Pixel-based visual-quality assessment (PSNR, SSIM, VMAF) maps an encoded
//! chunk to a quality score. The two properties every experiment in the
//! paper relies on are (1) concave diminishing returns in bitrate and
//! (2) complexity dependence: at equal bitrate, visually complex content
//! scores lower. We model both with a saturating (Michaelis–Menten) curve:
//!
//! ```text
//! vq(b, c) = b / (b + h(c)),   h(c) = 250 + 900·c   (kbps)
//! ```
//!
//! where `b` is the bitrate in kbps and `c ∈ [0, 1]` the chunk's spatial
//! complexity. `h(c)` is the half-saturation bitrate: content at complexity
//! 0.5 reaches quality 0.5 at 700 kbps. On the paper's ladder this yields
//! quality roughly 0.30 → 0.80 from 300 kbps to 2850 kbps at mid complexity,
//! mirroring normalized VMAF's range over 240p–1080p encodes.

/// Perceptual visual quality of a chunk encoded at `bitrate_kbps` with
/// spatial complexity `complexity ∈ [0, 1]`. Output is in `(0, 1)`,
/// monotonically increasing and strictly concave in bitrate.
///
/// # Panics
///
/// Panics when the bitrate is not positive-finite or complexity is outside
/// `[0, 1]` — both indicate a bug in the caller, not a data condition.
#[inline]
pub fn visual_quality(bitrate_kbps: f64, complexity: f64) -> f64 {
    assert!(
        bitrate_kbps.is_finite() && bitrate_kbps > 0.0,
        "bitrate must be positive, got {bitrate_kbps}"
    );
    assert!(
        (0.0..=1.0).contains(&complexity),
        "complexity must be in [0, 1], got {complexity}"
    );
    saturating_quality(bitrate_kbps, half_saturation_kbps(complexity))
}

/// Half-saturation bitrate `h(c)` (kbps) for a complexity level. An
/// encoding stores this one value per chunk and derives every level's
/// quality from it.
#[inline]
pub fn half_saturation_kbps(complexity: f64) -> f64 {
    250.0 + 900.0 * complexity
}

/// `b / (b + h)`: the curve at `bitrate_kbps` for a chunk whose
/// half-saturation bitrate is `half_sat_kbps`.
#[inline]
pub(crate) fn saturating_quality(bitrate_kbps: f64, half_sat_kbps: f64) -> f64 {
    bitrate_kbps / (bitrate_kbps + half_sat_kbps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::DEFAULT_LADDER_KBPS;

    #[test]
    fn quality_is_monotone_in_bitrate() {
        for c in [0.0, 0.3, 0.7, 1.0] {
            let mut prev = 0.0;
            for &b in &DEFAULT_LADDER_KBPS {
                let q = visual_quality(b, c);
                assert!(q > prev);
                prev = q;
            }
        }
    }

    #[test]
    fn quality_is_decreasing_in_complexity() {
        for &b in &DEFAULT_LADDER_KBPS {
            assert!(visual_quality(b, 0.2) > visual_quality(b, 0.8));
        }
    }

    #[test]
    fn quality_is_concave_in_bitrate() {
        // Second differences over the ladder must be negative.
        let c = 0.5;
        let q: Vec<f64> = [300.0, 600.0, 900.0, 1200.0]
            .iter()
            .map(|&b| visual_quality(b, c))
            .collect();
        for w in q.windows(3) {
            assert!(w[2] - w[1] < w[1] - w[0]);
        }
    }

    #[test]
    fn quality_range_is_sane() {
        // Mid-complexity content spans roughly 0.3 to 0.8 over the ladder.
        let low = visual_quality(300.0, 0.5);
        let high = visual_quality(2850.0, 0.5);
        assert!((0.25..0.35).contains(&low), "low = {low}");
        assert!((0.75..0.85).contains(&high), "high = {high}");
    }

    #[test]
    fn half_saturation_hits_half_quality() {
        for c in [0.0, 0.5, 1.0] {
            let h = half_saturation_kbps(c);
            assert!((visual_quality(h, c) - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "bitrate")]
    fn rejects_zero_bitrate() {
        let _ = visual_quality(0.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "complexity")]
    fn rejects_bad_complexity() {
        let _ = visual_quality(300.0, 1.5);
    }
}
