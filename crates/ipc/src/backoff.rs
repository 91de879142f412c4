//! Seeded exponential backoff with jitter — the one retry policy both
//! socket backends share.
//!
//! A [`ReconnectPolicy`] is pure data (bounded attempts, base/max
//! delay, per-attempt dial timeout); [`Backoff`] turns it into the
//! deterministic delay schedule for one link: delay *k* is
//! `min(base * 2^k, max)` scaled by a jitter factor in `[0.5, 1.0)`
//! drawn from a splitmix64 hash of `(seed, attempt)` — never the wall
//! clock, so the same seed replays the same schedule on every run and
//! both backends. Used by the join dial and the worker's automatic
//! reconnect.

use std::time::Duration;

/// Mixes a 64-bit value (the splitmix64 finalizer) — the jitter hash,
/// also used to derive collector session epochs.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The retry policy for dialing (and re-dialing) a collector.
///
/// All parameters are exposed on `parmonc`'s `NetOptions`
/// (`reconnect_attempts`, `reconnect_base_delay`,
/// `reconnect_max_delay`, `reconnect_attempt_timeout`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// Maximum dial attempts before the link is given up for good.
    pub attempts: u32,
    /// Delay before the second attempt; doubles per attempt.
    pub base_delay: Duration,
    /// Ceiling on the (pre-jitter) delay.
    pub max_delay: Duration,
    /// Timeout for each individual dial attempt.
    pub attempt_timeout: Duration,
}

impl Default for ReconnectPolicy {
    /// 10 attempts, 25 ms doubling to a 1 s ceiling, 2 s per dial —
    /// rides out a collector restart of a few seconds without holding
    /// a dead run open for long.
    fn default() -> Self {
        Self {
            attempts: 10,
            base_delay: Duration::from_millis(25),
            max_delay: Duration::from_secs(1),
            attempt_timeout: Duration::from_secs(2),
        }
    }
}

/// The deterministic delay schedule for one link under a
/// [`ReconnectPolicy`].
#[derive(Debug, Clone)]
pub struct Backoff {
    policy: ReconnectPolicy,
    seed: u64,
    attempt: u32,
}

impl Backoff {
    /// A fresh schedule. `seed` identifies the link (workers use their
    /// rank) so concurrent links do not retry in lock-step.
    #[must_use]
    pub fn new(policy: ReconnectPolicy, seed: u64) -> Self {
        Self {
            policy,
            seed,
            attempt: 0,
        }
    }

    /// Attempts made so far (i.e. how many times [`Self::next_delay`]
    /// was consulted).
    #[must_use]
    pub fn attempts_made(&self) -> u32 {
        self.attempt
    }

    /// The delay to sleep before the *next* attempt, or `None` when
    /// the attempt budget is exhausted. The first call (attempt 0)
    /// returns `Duration::ZERO`: the first dial is immediate.
    pub fn next_delay(&mut self) -> Option<Duration> {
        if self.attempt >= self.policy.attempts {
            return None;
        }
        let attempt = self.attempt;
        self.attempt += 1;
        if attempt == 0 {
            return Some(Duration::ZERO);
        }
        let exp = (attempt - 1).min(32);
        let raw = self
            .policy
            .base_delay
            .saturating_mul(1u32 << exp.min(31))
            .min(self.policy.max_delay);
        // Jitter in [0.5, 1.0): half the nominal delay is always kept
        // so the schedule still spreads load, fully deterministically.
        let h = splitmix64(self.seed ^ (u64::from(attempt) << 32));
        let jitter = 0.5 + (h >> 11) as f64 / (1u64 << 53) as f64 / 2.0;
        Some(raw.mul_f64(jitter))
    }
}

/// Dials with the policy's schedule: `dial(attempt)` is called up to
/// `policy.attempts` times, sleeping the jittered delay between
/// attempts. Returns the first success, or the last error once the
/// budget is spent.
///
/// # Errors
///
/// The error of the final failed attempt.
pub fn retry<T>(
    policy: ReconnectPolicy,
    seed: u64,
    mut dial: impl FnMut(u32) -> std::io::Result<T>,
) -> std::io::Result<T> {
    let mut backoff = Backoff::new(policy, seed);
    let mut last_err = None;
    while let Some(delay) = backoff.next_delay() {
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        match dial(backoff.attempts_made() - 1) {
            Ok(value) => return Ok(value),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            "reconnect policy allows zero attempts",
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> ReconnectPolicy {
        ReconnectPolicy {
            attempts: 6,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(40),
            attempt_timeout: Duration::from_millis(100),
        }
    }

    #[test]
    fn schedule_is_deterministic_and_bounded() {
        let collect = || {
            let mut b = Backoff::new(policy(), 3);
            let mut delays = Vec::new();
            while let Some(d) = b.next_delay() {
                delays.push(d);
            }
            delays
        };
        let a = collect();
        let b = collect();
        assert_eq!(a, b, "same seed must replay the same schedule");
        assert_eq!(a.len(), 6, "attempt budget respected");
        assert_eq!(a[0], Duration::ZERO, "first dial is immediate");
        for (k, d) in a.iter().enumerate().skip(1) {
            let nominal = Duration::from_millis(10)
                .saturating_mul(1 << (k as u32 - 1))
                .min(Duration::from_millis(40));
            assert!(
                *d >= nominal.mul_f64(0.5) && *d < nominal,
                "delay {k}: {d:?}"
            );
        }
        // A different seed jitters differently somewhere.
        let mut other = Backoff::new(policy(), 4);
        let other: Vec<_> = std::iter::from_fn(|| other.next_delay()).collect();
        assert_ne!(a, other);
    }

    #[test]
    fn retry_returns_first_success_or_last_error() {
        let fast = ReconnectPolicy {
            attempts: 4,
            base_delay: Duration::from_micros(10),
            max_delay: Duration::from_micros(10),
            attempt_timeout: Duration::from_millis(1),
        };
        let mut calls = 0;
        let ok: std::io::Result<u32> = retry(fast, 0, |attempt| {
            calls += 1;
            if attempt == 2 {
                Ok(99)
            } else {
                Err(std::io::Error::other("nope"))
            }
        });
        assert_eq!(ok.unwrap(), 99);
        assert_eq!(calls, 3);

        let err: std::io::Result<u32> =
            retry(fast, 0, |_| Err(std::io::Error::other("always down")));
        assert_eq!(err.unwrap_err().to_string(), "always down");
    }
}
