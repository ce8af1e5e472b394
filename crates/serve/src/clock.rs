//! An injectable clock for deterministic retry/backoff tests.
//!
//! Client-side retry logic (connect retries, shed-reply backoff) must be
//! testable without real sleeps: the tests inject a [`TestClock`] whose
//! `sleep` records the requested duration and returns immediately, so a
//! retry schedule can be asserted exactly — which attempts slept, and for
//! how long — in microseconds of wall time.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A source of time and delay, injectable for tests.
pub trait Clock: Send + Sync {
    /// The current instant.
    fn now(&self) -> Instant;
    /// Blocks (or pretends to) for `d`.
    fn sleep(&self, d: Duration);
}

/// The real wall clock: `Instant::now` and `thread::sleep`.
#[derive(Debug, Default, Clone, Copy)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn now(&self) -> Instant {
        Instant::now()
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// A virtual clock for tests: `sleep` advances virtual time instantly and
/// records every requested delay, so backoff schedules are asserted
/// without wall-clock waits.
#[derive(Debug)]
pub struct TestClock {
    origin: Instant,
    elapsed: Mutex<Duration>,
    slept: Mutex<Vec<Duration>>,
}

impl Default for TestClock {
    fn default() -> Self {
        Self::new()
    }
}

impl TestClock {
    /// A virtual clock starting at the real current instant.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            elapsed: Mutex::new(Duration::ZERO),
            slept: Mutex::new(Vec::new()),
        }
    }

    /// Every duration `sleep` was asked for, in call order.
    #[must_use]
    pub fn slept(&self) -> Vec<Duration> {
        lock_ok(&self.slept).clone()
    }
}

impl Clock for TestClock {
    fn now(&self) -> Instant {
        self.origin + *lock_ok(&self.elapsed)
    }

    fn sleep(&self, d: Duration) {
        *lock_ok(&self.elapsed) += d;
        lock_ok(&self.slept).push(d);
    }
}

// The guarded values are plain data; a poisoned lock cannot leave them
// inconsistent, so recover instead of propagating an unrelated panic.
fn lock_ok<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_clock_advances_without_blocking() {
        let clock = TestClock::new();
        let before = clock.now();
        let wall = Instant::now();
        clock.sleep(Duration::from_secs(3600));
        clock.sleep(Duration::from_millis(5));
        assert!(wall.elapsed() < Duration::from_secs(5), "sleep must not block");
        assert_eq!(clock.now() - before, Duration::from_secs(3600) + Duration::from_millis(5));
        assert_eq!(clock.slept(), vec![Duration::from_secs(3600), Duration::from_millis(5)]);
    }
}
