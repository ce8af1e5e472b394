//! Division by a geometry constant without a hardware divide.
//!
//! Every access divides by numbers fixed when the machine is built: a
//! cache's set count, the mesh's dimension and tile count, the
//! accelerator's memory-level parallelism. A 64-bit `div` costs tens of
//! cycles on the host, more than the rest of a cache probe. A
//! [`Divisor`] is built once per constant; for a power of two (every
//! geometry the configurations use) it answers with a mask or a shift, and
//! for any other value it falls back to `/` and `%`, so the results are
//! the same for every divisor.

/// A positive divisor with its power-of-two shortcut precomputed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Divisor {
    d: u64,
    /// `log2(d)` when `d` is a power of two, `None` otherwise.
    shift: Option<u32>,
}

impl Divisor {
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub(crate) fn new(d: u64) -> Self {
        assert!(d > 0, "divisor must be positive");
        Self { d, shift: d.is_power_of_two().then(|| d.trailing_zeros()) }
    }

    /// The divisor itself.
    pub(crate) fn value(self) -> u64 {
        self.d
    }

    /// `x % d`.
    #[inline]
    pub(crate) fn rem(self, x: u64) -> u64 {
        match self.shift {
            Some(_) => x & (self.d - 1),
            None => x % self.d,
        }
    }

    /// `x / d`.
    #[inline]
    pub(crate) fn div(self, x: u64) -> u64 {
        match self.shift {
            Some(s) => x >> s,
            None => x / self.d,
        }
    }

    /// `x.div_ceil(d)`.
    #[inline]
    pub(crate) fn div_ceil(self, x: u64) -> u64 {
        match self.shift {
            Some(s) => (x >> s) + u64::from(x & (self.d - 1) != 0),
            None => x.div_ceil(self.d),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn every_divisor_to_256_equals_the_operators_at_the_edges() {
        for d in 1u64..=256 {
            let div = Divisor::new(d);
            for x in [0, d - 1, d, d + 1, 2 * d - 1, 2 * d, u64::MAX - 1, u64::MAX] {
                assert_eq!(div.rem(x), x % d, "{x} % {d}");
                assert_eq!(div.div(x), x / d, "{x} / {d}");
                assert_eq!(div.div_ceil(x), x.div_ceil(d), "{x} div_ceil {d}");
            }
        }
    }

    #[test]
    fn power_of_two_mlp_shifts_equal_div_ceil() {
        for mlp in (0..=6).map(|k| 1u64 << k) {
            let div = Divisor::new(mlp);
            assert!(div.shift.is_some(), "{mlp} takes the shift");
            for latency in 0..4096 {
                assert_eq!(div.div_ceil(latency), latency.div_ceil(mlp), "{latency} / {mlp}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_divisor_panics() {
        let _ = Divisor::new(0);
    }

    proptest! {
        #[test]
        fn random_values_equal_the_operators(d in 1u64..257, x in any::<u64>()) {
            let div = Divisor::new(d);
            prop_assert_eq!(div.rem(x), x % d);
            prop_assert_eq!(div.div(x), x / d);
            prop_assert_eq!(div.div_ceil(x), x.div_ceil(d));
        }
    }
}
