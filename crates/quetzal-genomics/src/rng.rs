//! A self-contained, seeded pseudo-random number generator.
//!
//! The workspace has a zero-external-dependency policy (it must build
//! hermetically offline), so dataset generation, property tests and the
//! differential interpreter tests all draw their randomness from
//! [`SplitMix64`] — Steele, Lea & Flood's 64-bit mixer: one word of
//! state, passes BigCrush.
//!
//! It is bit-stable across platforms, which is what makes every
//! generated dataset and every experiment table reproducible.

/// A tiny, high-quality, self-contained PRNG (SplitMix64): one `u64` of
/// state, an additive Weyl sequence through a 64-bit finalising mixer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `[0, bound)` (unbiased by rejection).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Uniform float in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[lo, hi)` as `i64`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn i64_in(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range");
        lo.wrapping_add(self.below(hi.wrapping_sub(lo) as u64) as i64)
    }

    /// A uniformly chosen element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // First outputs for seed 0 and seed 1234567, from the public
        // reference implementation (Vigna, splitmix64.c).
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn below_is_in_range() {
        let mut s = SplitMix64::new(99);
        for _ in 0..1000 {
            assert!(s.below(7) < 7);
        }
    }

    #[test]
    fn f64_is_in_unit_interval() {
        let mut r = SplitMix64::new(1);
        for _ in 0..1000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn i64_in_and_pick_cover_their_domains() {
        let mut r = SplitMix64::new(3);
        let mut seen = [false; 5];
        for _ in 0..200 {
            let v = r.i64_in(-2, 3);
            assert!((-2..3).contains(&v));
            seen[(v + 2) as usize] = true;
            let p = *r.pick(&[10, 20, 30]);
            assert!([10, 20, 30].contains(&p));
        }
        assert!(seen.iter().all(|&s| s), "all values of [-2,3) reached");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn below_zero_bound_panics() {
        SplitMix64::new(0).below(0);
    }
}
