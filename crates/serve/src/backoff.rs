//! Deterministic retry/backoff for [`ServeClient`](crate::ServeClient).
//!
//! The client's retry loops — connects, reconnects and shed-line re-sends
//! — run on one primitive: a [`RetryPolicy`] (bounded attempts,
//! exponential delay, ceiling) driven through a [`Backoff`] cursor. Delays
//! always flow through the injectable [`Clock`], so tests assert exact
//! schedules without real sleeps.

use std::time::Duration;

use crate::clock::Clock;

/// Bounded deterministic retry: attempt `k` (0-based) waits
/// `min(base_backoff * 2^k, max_backoff)` before trying again, up to
/// `max_attempts` total attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (the first try counts).
    pub max_attempts: u32,
    /// Backoff before the second attempt.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// The deterministic backoff after failed attempt `attempt` (0-based).
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> Duration {
        self.base_backoff
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .min(self.max_backoff)
    }
}

/// A retry cursor over a [`RetryPolicy`]: tracks which attempt is next and
/// sleeps the policy's delay through a [`Clock`].
///
/// ```
/// use tdgraph_serve::{Backoff, RetryPolicy, TestClock};
///
/// let clock = TestClock::new();
/// let mut backoff = Backoff::new(RetryPolicy::default());
/// let mut attempts = 0;
/// loop {
///     attempts += 1; // ... try the operation ...
///     if !backoff.wait(&clock) {
///         break; // budget exhausted
///     }
/// }
/// assert_eq!(attempts as u32, RetryPolicy::default().max_attempts);
/// ```
#[derive(Debug, Clone)]
pub struct Backoff {
    policy: RetryPolicy,
    attempt: u32,
}

impl Backoff {
    /// A fresh cursor at attempt 0: delays are exactly
    /// [`RetryPolicy::backoff`].
    #[must_use]
    pub fn new(policy: RetryPolicy) -> Self {
        Self { policy, attempt: 0 }
    }

    /// The policy this cursor follows.
    #[must_use]
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Failed attempts waited out so far.
    #[must_use]
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Whether another retry is allowed by the attempt budget.
    #[must_use]
    pub fn can_retry(&self) -> bool {
        self.attempt + 1 < self.policy.max_attempts.max(1)
    }

    /// Sleeps before the next retry and advances the cursor. Returns
    /// `false` — without sleeping — when the attempt budget is spent.
    pub fn wait(&mut self, clock: &dyn Clock) -> bool {
        self.wait_at_least(Duration::ZERO, clock)
    }

    /// Like [`Backoff::wait`], but sleeps at least `floor` (e.g. a
    /// server's `retry_after` hint) when that exceeds the policy delay.
    pub fn wait_at_least(&mut self, floor: Duration, clock: &dyn Clock) -> bool {
        if !self.can_retry() {
            return false;
        }
        clock.sleep(self.policy.backoff(self.attempt).max(floor));
        self.attempt += 1;
        true
    }

    /// Runs `op` under this cursor: retries on `Err` until the budget is
    /// spent, returning the first success or the final error.
    ///
    /// # Errors
    ///
    /// The error of the last attempt once `policy.max_attempts` is spent.
    pub fn run<T, E>(
        mut self,
        clock: &dyn Clock,
        mut op: impl FnMut() -> Result<T, E>,
    ) -> Result<T, E> {
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) => {
                    if !self.wait(clock) {
                        return Err(e);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TestClock;

    fn policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(25),
        }
    }

    #[test]
    fn unjittered_schedule_matches_the_policy_exactly() {
        let clock = TestClock::new();
        let mut backoff = Backoff::new(policy());
        while backoff.wait(&clock) {}
        assert_eq!(
            clock.slept(),
            vec![Duration::from_millis(10), Duration::from_millis(20), Duration::from_millis(25),],
            "3 delays between 4 attempts, doubling then capped"
        );
    }

    #[test]
    fn run_returns_first_success_and_final_error() {
        let clock = TestClock::new();
        let mut calls = 0;
        let ok: Result<u32, &str> = Backoff::new(policy()).run(&clock, || {
            calls += 1;
            if calls == 3 {
                Ok(7)
            } else {
                Err("down")
            }
        });
        assert_eq!(ok, Ok(7));
        assert_eq!(calls, 3);

        let clock = TestClock::new();
        let mut calls = 0;
        let err: Result<u32, &str> = Backoff::new(policy()).run(&clock, || {
            calls += 1;
            Err("still down")
        });
        assert_eq!(err, Err("still down"));
        assert_eq!(calls, 4, "budget is total attempts, first try included");
        assert_eq!(clock.slept().len(), 3);
    }

    #[test]
    fn wait_at_least_honours_the_floor() {
        let clock = TestClock::new();
        let mut backoff = Backoff::new(policy());
        assert!(backoff.wait_at_least(Duration::from_millis(100), &clock));
        assert!(backoff.wait_at_least(Duration::from_millis(1), &clock));
        assert_eq!(
            clock.slept(),
            vec![Duration::from_millis(100), Duration::from_millis(20)],
            "floor wins when larger, policy delay otherwise"
        );
    }

    #[test]
    fn zero_attempt_policies_never_sleep() {
        let clock = TestClock::new();
        let mut backoff = Backoff::new(RetryPolicy { max_attempts: 0, ..policy() });
        assert!(!backoff.can_retry());
        assert!(!backoff.wait(&clock));
        assert!(clock.slept().is_empty());
    }
}
