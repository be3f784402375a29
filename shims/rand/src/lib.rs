//! Offline stand-in for the `rand` crate.
//!
//! The container this repository builds in has no crates.io registry cache,
//! so the workspace vendors the *subset* of the `rand` 0.8 API the SENSEI
//! reproduction actually uses: seeded [`rngs::StdRng`] construction via
//! [`SeedableRng::seed_from_u64`], and the [`Rng`] extension methods
//! `gen`, `gen_range`, and `gen_bool`. Everything in the repository is
//! seeded and deterministic, so a fixed, documented generator is exactly
//! what the experiments need; no OS entropy is ever consulted.
//!
//! The generator behind [`rngs::StdRng`] is xoshiro256++ seeded through
//! SplitMix64 — not the ChaCha12 core of the real `StdRng`, so streams
//! differ from upstream `rand`, but every property the repository relies on
//! (determinism per seed, uniformity, independence across seeds) holds.

// A PRNG's output pipeline is deliberate bit-chopping: truncating
// and wrapping casts over the raw 64/128-bit state are the
// documented semantics of the algorithms this shim reproduces.
#![allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]

/// A source of random 64-bit words.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// An RNG that can be constructed deterministically from a seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed (SplitMix64-expanded).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be drawn uniformly from a generator via [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 high bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for u64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

/// Scalar types [`Rng::gen_range`] can produce, with their uniform
/// samplers. Mirrors the real `rand`'s `SampleUniform`; having ONE blanket
/// `SampleRange` impl per range shape (rather than one impl per scalar
/// type) is what lets the element type of a literal like `1..=5` be
/// inferred from the call site.
pub trait SampleUniform: PartialOrd + Copy {
    /// Uniform draw from `[lo, hi)`.
    fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
    /// Uniform draw from `[lo, hi]`.
    fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
}

impl SampleUniform for f64 {
    fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
        lo + f64::draw(rng) * (hi - lo)
    }
    fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / ((1u64 << 53) - 1) as f64);
        lo + u * (hi - lo)
    }
}

impl SampleUniform for f32 {
    fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
        f64::sample_half_open(f64::from(lo), f64::from(hi), rng) as f32
    }
    fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
        f64::sample_inclusive(f64::from(lo), f64::from(hi), rng) as f32
    }
}

// An integer draw is `lo + x mod span` for one raw u64 `x`. Every span
// fits in a u64 except the full 2^64 of an inclusive u64/i64 range,
// where `x` is already the draw, so the reduction is a u64 `%` rather
// than a 128-bit division; the draws are those of `(x as u128) % span`.
macro_rules! int_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                let span = (hi as i128 - lo as i128) as u64;
                let draw = rng.next_u64() % span;
                (lo as i128 + i128::from(draw)) as $t
            }
            fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                let x = rng.next_u64();
                let draw = match ((hi as i128 - lo as i128) as u64).checked_add(1) {
                    Some(span) => x % span,
                    None => x,
                };
                (lo as i128 + i128::from(draw)) as $t
            }
        }
    )*};
}

int_sample_uniform!(usize, u64, u32, u16, u8, i64, i32, i16, i8);

/// A range argument accepted by [`Rng::gen_range`].
pub trait SampleRange<T: SampleUniform> {
    /// Draws one value uniformly from the range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "gen_range: empty range");
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "gen_range: empty range");
        T::sample_inclusive(lo, hi, rng)
    }
}

/// Extension methods every generator gets, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Draws a value of type `T` uniformly (`f64` in `[0, 1)`).
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// Draws uniformly from a (half-open or inclusive) range.
    fn gen_range<T: SampleUniform, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p = {p} outside [0, 1]");
        f64::draw(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    //! Concrete generators.

    use super::{RngCore, SeedableRng};

    /// The workspace's standard seeded generator: xoshiro256++ with
    /// SplitMix64 seed expansion. Deterministic per seed.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut state = seed;
            let s = [
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
            ];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let f = rng.gen_range(2.0..3.0);
            assert!((2.0..3.0).contains(&f));
            let i = rng.gen_range(5..8);
            assert!((5..8).contains(&i));
            let j = rng.gen_range(1..=4);
            assert!((1..=4).contains(&j));
        }
    }

    /// One draw by the 128-bit reduction the integer ranges used before
    /// the u64 one: `lo + (x as u128) % span`.
    fn u128_draw(x: u64, lo: i128, span: u128) -> i128 {
        lo + ((u128::from(x) % span) as i128)
    }

    /// Draws 2000 values from `range` and holds each equal to
    /// [`u128_draw`] over the same raw stream.
    macro_rules! assert_u128_draws {
        ($t:ty, $range:expr, $lo:expr, $span:expr) => {{
            let mut rng = StdRng::seed_from_u64(41);
            let mut raw = rng.clone();
            for _ in 0..2000 {
                let v: $t = rng.gen_range($range);
                let want = u128_draw(raw.next_u64(), $lo as i128, $span);
                assert_eq!(v as i128, want, "{} over {:?}", stringify!($t), $range);
            }
        }};
    }

    #[test]
    fn u64_reduction_equals_the_u128_formula() {
        let full = 1u128 << 64;
        // Spans 1, 2, 3 and u64::MAX, half-open and inclusive.
        assert_u128_draws!(u64, 0..1, 0, 1);
        assert_u128_draws!(u64, 5..7, 5, 2);
        assert_u128_draws!(u64, 0..=2, 0, 3);
        assert_u128_draws!(u64, 0..u64::MAX, 0, u128::from(u64::MAX));
        assert_u128_draws!(u64, 1..=u64::MAX, 1, u128::from(u64::MAX));
        assert_u128_draws!(usize, 0..3, 0, 3);
        // The full u64 and i64 ranges: a span of 2^64.
        assert_u128_draws!(u64, 0..=u64::MAX, 0, full);
        assert_u128_draws!(i64, i64::MIN..=i64::MAX, i64::MIN, full);
        assert_u128_draws!(i64, i64::MIN..i64::MAX, i64::MIN, full - 1);
        // Negative signed ranges.
        assert_u128_draws!(i8, -128..=-126, -128, 3);
        assert_u128_draws!(i8, i8::MIN..=i8::MAX, i8::MIN, 256);
        assert_u128_draws!(i8, -7..-5, -7, 2);
        assert_u128_draws!(i32, -1_000_000..-999_999, -1_000_000, 1);
        assert_u128_draws!(i32, i32::MIN..=-3, i32::MIN, (1 << 31) - 2);
        assert_u128_draws!(i32, i32::MIN..i32::MAX, i32::MIN, u128::from(u32::MAX));
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v: f64 = rng.gen();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean = {mean}");
    }
}
