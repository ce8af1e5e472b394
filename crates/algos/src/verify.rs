//! Correctness oracle helpers.
//!
//! Incremental engines are validated against the from-scratch solver. For
//! monotonic algorithms the comparison is exact (modulo infinities); for
//! accumulative algorithms a relative tolerance absorbs residual-threshold
//! and f32 rounding differences.

use crate::traits::{Algo, AlgorithmKind};

/// Comparison outcome.
///
/// Marked `#[non_exhaustive]`: this enum crosses the service boundary,
/// so downstream matches must keep a wildcard arm for outcomes added in
/// later releases.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyOutcome {
    /// All states matched within tolerance.
    Match,
    /// First mismatch found.
    Mismatch {
        /// Vertex of the first mismatch.
        vertex: usize,
        /// Value from the incremental computation.
        got: f32,
        /// Oracle value.
        want: f32,
    },
    /// The two state vectors have different lengths.
    LengthMismatch {
        /// Incremental length.
        got: usize,
        /// Oracle length.
        want: usize,
    },
    /// The comparison was not performed (oracle disabled).
    Skipped,
}

impl VerifyOutcome {
    /// Whether the comparison succeeded. A skipped comparison is not a
    /// match: it carries no evidence either way.
    #[must_use]
    pub fn is_match(&self) -> bool {
        matches!(self, VerifyOutcome::Match)
    }
}

/// Default tolerance for an algorithm category.
#[must_use]
pub fn tolerance(algo: &Algo) -> f32 {
    match algo.kind() {
        AlgorithmKind::Monotonic => 1e-6,
        // Residual cutoffs leave up to ~ε/(1-α) of unpropagated mass.
        AlgorithmKind::Accumulative => 0.02,
    }
}

/// Compares incremental states against the oracle.
#[must_use]
pub fn compare(algo: &Algo, got: &[f32], want: &[f32]) -> VerifyOutcome {
    if got.len() != want.len() {
        return VerifyOutcome::LengthMismatch { got: got.len(), want: want.len() };
    }
    let tol = tolerance(algo);
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        if g.is_infinite() && w.is_infinite() {
            continue;
        }
        if (g - w).abs() > tol + tol * w.abs() {
            return VerifyOutcome::Mismatch { vertex: i, got: g, want: w };
        }
    }
    VerifyOutcome::Match
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_match_for_monotonic() {
        let algo = Algo::sssp(0);
        assert!(compare(&algo, &[0.0, 1.0], &[0.0, 1.0]).is_match());
        assert!(!compare(&algo, &[0.0, 1.0], &[0.0, 1.001]).is_match());
    }

    #[test]
    fn infinities_match_each_other() {
        let algo = Algo::sssp(0);
        assert!(compare(&algo, &[f32::INFINITY], &[f32::INFINITY]).is_match());
        assert!(!compare(&algo, &[f32::INFINITY], &[5.0]).is_match());
    }

    #[test]
    fn accumulative_tolerates_residual_noise() {
        let algo = Algo::pagerank();
        assert!(compare(&algo, &[1.0, 0.501], &[1.0, 0.5]).is_match());
    }

    #[test]
    fn length_mismatch_detected() {
        let algo = Algo::cc();
        assert_eq!(
            compare(&algo, &[0.0], &[0.0, 1.0]),
            VerifyOutcome::LengthMismatch { got: 1, want: 2 }
        );
    }

    #[test]
    fn mismatch_reports_first_vertex() {
        let algo = Algo::cc();
        match compare(&algo, &[0.0, 5.0, 9.0], &[0.0, 1.0, 9.0]) {
            VerifyOutcome::Mismatch { vertex, got, want } => {
                assert_eq!(vertex, 1);
                assert_eq!(got, 5.0);
                assert_eq!(want, 1.0);
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    fn skipped_is_not_a_match() {
        assert!(!VerifyOutcome::Skipped.is_match());
        assert_ne!(VerifyOutcome::Skipped, VerifyOutcome::Match);
    }
}
