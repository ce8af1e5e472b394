//! Collection strategies (`proptest::collection` subset).

use std::ops::Range;

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// Generates `Vec`s whose length falls in `len` and whose elements come
/// from `element`.
#[must_use]
pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
    assert!(len.start < len.end, "empty length range {len:?}");
    VecStrategy { element, len }
}

/// See [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    len: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.len.end - self.len.start) as u64;
        let n = self.len.start + rng.next_below(span) as usize;
        (0..n).map(|_| self.element.sample(rng)).collect()
    }
}
