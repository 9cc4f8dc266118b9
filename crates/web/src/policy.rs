//! Resilience policy for crawling an unreliable web: bounded retries with
//! exponential backoff and deterministic jitter, per-crawl deadlines, and a
//! per-peer circuit breaker.
//!
//! Everything here runs on the crawler's *virtual clock* (ticks, see
//! [`crate::fault::FetchSource::attempt_ticks`]): backoff delays and breaker
//! cooldowns are charged as ticks, never as wall time, so resilient crawls
//! stay deterministic across runs and thread counts. Jitter is derived by
//! hashing `(jitter_seed, uri, retry)` — stateless like the fault plan.

use std::collections::BTreeMap;

use crate::fault::{stable_hash, unit};

/// Retry/backoff/deadline/breaker configuration of a resilient crawl.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FetchPolicy {
    /// Maximum fetch attempts per URI (≥ 1; 1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry, in ticks.
    pub backoff_base: u64,
    /// Multiplier applied per further retry (values < 1 are treated as 1,
    /// keeping the schedule monotone).
    pub backoff_factor: f64,
    /// Upper bound on any single backoff delay, in ticks.
    pub backoff_cap: u64,
    /// Jitter band as a fraction of the backoff delay: the jittered delay
    /// lies in `[backoff, backoff · (1 + jitter))`. Clamped to `[0, 1]`.
    pub jitter: f64,
    /// Seed for the deterministic jitter hash.
    pub jitter_seed: u64,
    /// Per-crawl budget in virtual ticks; frontier URIs beyond the deadline
    /// are abandoned (counted unreachable). `None` = unbounded.
    pub deadline: Option<u64>,
    /// Consecutive per-peer failures that open the circuit breaker.
    pub breaker_threshold: u32,
    /// Ticks an open breaker waits before allowing a half-open probe.
    pub breaker_cooldown: u64,
}

impl Default for FetchPolicy {
    fn default() -> Self {
        FetchPolicy {
            max_attempts: 4,
            backoff_base: 1,
            backoff_factor: 2.0,
            backoff_cap: 64,
            jitter: 0.5,
            jitter_seed: 0,
            deadline: None,
            breaker_threshold: 6,
            breaker_cooldown: 128,
        }
    }
}

impl FetchPolicy {
    /// The single-attempt policy: no retries, no deadline, breaker never
    /// opens. [`crate::crawler::crawl`] uses it — the pre-resilience
    /// behavior, byte for byte.
    pub fn no_retry() -> Self {
        FetchPolicy {
            max_attempts: 1,
            breaker_threshold: u32::MAX,
            ..FetchPolicy::default()
        }
    }

    /// The pre-jitter backoff delay before retry number `retry` (0-based),
    /// in ticks: `min(cap, base · factor^retry)`. Monotonically
    /// non-decreasing in `retry` and never above the cap.
    pub fn backoff_ticks(&self, retry: u32) -> u64 {
        let factor = if self.backoff_factor > 1.0 { self.backoff_factor } else { 1.0 };
        let raw = self.backoff_base as f64 * factor.powi(retry.min(1024) as i32);
        if !raw.is_finite() || raw >= self.backoff_cap as f64 {
            self.backoff_cap
        } else {
            raw as u64
        }
    }

    /// The deterministic jitter added on top of [`FetchPolicy::backoff_ticks`]
    /// for this `(uri, retry)`: uniform in `[0, jitter · backoff)`.
    pub fn jitter_ticks(&self, uri: &str, retry: u32) -> u64 {
        let backoff = self.backoff_ticks(retry);
        let band = self.jitter.clamp(0.0, 1.0) * backoff as f64;
        (unit(stable_hash(self.jitter_seed, uri, retry as u64, SALT_JITTER)) * band) as u64
    }

    /// The full delay charged before retry number `retry`: backoff + jitter.
    pub fn delay_ticks(&self, uri: &str, retry: u32) -> u64 {
        self.backoff_ticks(retry).saturating_add(self.jitter_ticks(uri, retry))
    }
}

const SALT_JITTER: u64 = 0xd6e8_feb8_6659_fd93;

/// Circuit breaker state for one peer (keyed by homepage document URI).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BreakerState {
    /// Fetches flow normally; consecutive failures are counted.
    Closed,
    /// The peer is quarantined: fetches are denied until the cooldown
    /// elapses.
    Open,
    /// Cooldown elapsed: exactly one probe attempt is allowed; success
    /// closes the breaker, failure re-opens it.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BreakerState::Closed => write!(f, "closed"),
            BreakerState::Open => write!(f, "open"),
            BreakerState::HalfOpen => write!(f, "half-open"),
        }
    }
}

#[derive(Clone, Debug)]
struct BreakerEntry {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: u64,
}

/// Per-peer circuit breakers, keyed by homepage document URI.
///
/// Mutations happen only in the crawler's sequential merge phase (never
/// inside fetch workers), and the entry map is a `BTreeMap`, so transition
/// logs are deterministic. State persists across crawls when the same
/// breaker is passed to successive [`crate::crawler::refresh_resilient`]
/// calls — that is what lets dead peers stop consuming budget run after
/// run.
#[derive(Clone, Debug, Default)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown: u64,
    entries: BTreeMap<String, BreakerEntry>,
    transitions: Vec<(String, BreakerState)>,
    times_opened: u64,
    clock: u64,
}

impl CircuitBreaker {
    /// A breaker that opens after `threshold` consecutive failures and
    /// probes again after `cooldown` ticks.
    pub fn new(threshold: u32, cooldown: u64) -> Self {
        CircuitBreaker {
            threshold: threshold.max(1),
            cooldown,
            entries: BTreeMap::new(),
            transitions: Vec::new(),
            times_opened: 0,
            clock: 0,
        }
    }

    /// A breaker configured from a fetch policy.
    pub fn for_policy(policy: &FetchPolicy) -> Self {
        CircuitBreaker::new(policy.breaker_threshold, policy.breaker_cooldown)
    }

    /// The current state for a peer (peers never seen are `Closed`).
    pub fn state(&self, key: &str) -> BreakerState {
        self.entries.get(key).map_or(BreakerState::Closed, |e| e.state)
    }

    /// Consecutive failures currently recorded against a peer.
    pub fn consecutive_failures(&self, key: &str) -> u32 {
        self.entries.get(key).map_or(0, |e| e.consecutive_failures)
    }

    /// How many attempts a fetch of this peer may spend before the breaker
    /// would open: callers cap their retry loops with it so a failing peer
    /// never overshoots the threshold.
    pub fn attempts_before_open(&self, key: &str) -> u32 {
        match self.state(key) {
            BreakerState::Closed => {
                self.threshold.saturating_sub(self.consecutive_failures(key)).max(1)
            }
            // A half-open breaker allows exactly one probe.
            BreakerState::HalfOpen | BreakerState::Open => 1,
        }
    }

    /// Whether a fetch of this peer may proceed at virtual time `now`.
    /// An open breaker whose cooldown has elapsed transitions to half-open
    /// and allows one probe.
    pub fn allow(&mut self, key: &str, now: u64) -> bool {
        let Some(entry) = self.entries.get_mut(key) else { return true };
        match entry.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if now.saturating_sub(entry.opened_at) >= self.cooldown {
                    entry.state = BreakerState::HalfOpen;
                    self.transitions.push((key.to_owned(), BreakerState::HalfOpen));
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a successful fetch: closes the breaker and clears the
    /// failure streak.
    pub fn record_success(&mut self, key: &str) {
        if let Some(entry) = self.entries.get_mut(key) {
            if entry.state != BreakerState::Closed {
                entry.state = BreakerState::Closed;
                self.transitions.push((key.to_owned(), BreakerState::Closed));
            }
            entry.consecutive_failures = 0;
        }
    }

    /// Records one failed fetch attempt at virtual time `now`. Reaching the
    /// threshold (or failing a half-open probe) opens the breaker, counted in
    /// [`CircuitBreaker::times_opened`].
    pub fn record_failure(&mut self, key: &str, now: u64) {
        let entry = self.entries.entry(key.to_owned()).or_insert(BreakerEntry {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: 0,
        });
        entry.consecutive_failures = entry.consecutive_failures.saturating_add(1);
        let opens = match entry.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => entry.consecutive_failures >= self.threshold,
            BreakerState::Open => false,
        };
        if opens {
            entry.state = BreakerState::Open;
            entry.opened_at = now;
            self.times_opened += 1;
            self.transitions.push((key.to_owned(), BreakerState::Open));
        }
    }

    /// Every state transition since construction, in order:
    /// `(peer key, state entered)`.
    pub fn transitions(&self) -> &[(String, BreakerState)] {
        &self.transitions
    }

    /// Total number of times any breaker opened.
    pub fn times_opened(&self) -> u64 {
        self.times_opened
    }

    /// Peers currently in the open state.
    pub fn open_peers(&self) -> usize {
        self.entries.values().filter(|e| e.state == BreakerState::Open).count()
    }

    /// The breaker's virtual clock: total ticks observed across every crawl
    /// it has been threaded through. Open-state cooldowns are measured
    /// against it, so quarantines carry over between refreshes.
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Advances the virtual clock to `now` (monotone; earlier values are
    /// ignored). Crawls call this on completion; embedding simulations may
    /// also call it to let time pass between crawls.
    pub fn advance_to(&mut self, now: u64) {
        self.clock = self.clock.max(now);
    }

    /// Advances the virtual clock by `ticks`.
    pub fn advance(&mut self, ticks: u64) {
        self.clock = self.clock.saturating_add(ticks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_monotone_and_capped() {
        let policy = FetchPolicy::default();
        let mut previous = 0;
        for retry in 0..40 {
            let d = policy.backoff_ticks(retry);
            assert!(d >= previous, "backoff must not decrease");
            assert!(d <= policy.backoff_cap);
            previous = d;
        }
        assert_eq!(policy.backoff_ticks(0), 1);
        assert_eq!(policy.backoff_ticks(39), policy.backoff_cap);
    }

    #[test]
    fn jitter_stays_in_band_and_is_deterministic() {
        let policy = FetchPolicy { jitter: 0.5, ..FetchPolicy::default() };
        for retry in 0..10 {
            let backoff = policy.backoff_ticks(retry);
            let jitter = policy.jitter_ticks("http://ex.org/a", retry);
            assert!(jitter as f64 <= 0.5 * backoff as f64);
            assert_eq!(jitter, policy.jitter_ticks("http://ex.org/a", retry));
        }
    }

    #[test]
    fn no_retry_policy_gives_single_attempts() {
        let policy = FetchPolicy::no_retry();
        assert_eq!(policy.max_attempts, 1);
        let breaker = CircuitBreaker::for_policy(&policy);
        assert_eq!(breaker.attempts_before_open("x"), u32::MAX);
    }

    #[test]
    fn breaker_opens_at_threshold_and_half_opens_after_cooldown() {
        let mut breaker = CircuitBreaker::new(3, 10);
        let key = "http://ex.org/a";
        assert!(breaker.allow(key, 0));
        breaker.record_failure(key, 0);
        breaker.record_failure(key, 1);
        assert_eq!(breaker.state(key), BreakerState::Closed);
        breaker.record_failure(key, 2);
        assert_eq!(breaker.state(key), BreakerState::Open);
        assert_eq!(breaker.times_opened(), 1);
        assert_eq!(breaker.open_peers(), 1);

        // Denied during cooldown, half-open probe afterwards.
        assert!(!breaker.allow(key, 5));
        assert!(breaker.allow(key, 12));
        assert_eq!(breaker.state(key), BreakerState::HalfOpen);

        // A failed probe re-opens immediately.
        breaker.record_failure(key, 12);
        assert_eq!(breaker.state(key), BreakerState::Open);
        assert_eq!(breaker.times_opened(), 2);

        // A successful probe closes.
        assert!(breaker.allow(key, 30));
        breaker.record_success(key);
        assert_eq!(breaker.state(key), BreakerState::Closed);
        assert_eq!(breaker.consecutive_failures(key), 0);
        assert_eq!(
            breaker.transitions().last(),
            Some(&(key.to_owned(), BreakerState::Closed))
        );
    }

    #[test]
    fn attempts_before_open_caps_retry_loops() {
        let mut breaker = CircuitBreaker::new(4, 10);
        let key = "http://ex.org/b";
        assert_eq!(breaker.attempts_before_open(key), 4);
        breaker.record_failure(key, 0);
        breaker.record_failure(key, 0);
        assert_eq!(breaker.attempts_before_open(key), 2);
        breaker.record_failure(key, 0);
        breaker.record_failure(key, 0);
        assert_eq!(breaker.state(key), BreakerState::Open);
        assert_eq!(breaker.attempts_before_open(key), 1);
    }

    #[test]
    fn successes_keep_the_breaker_closed_forever() {
        let mut breaker = CircuitBreaker::new(2, 10);
        let key = "http://ex.org/c";
        for now in 0..20 {
            breaker.record_failure(key, now);
            breaker.record_success(key);
        }
        assert_eq!(breaker.state(key), BreakerState::Closed);
        assert_eq!(breaker.times_opened(), 0);
    }
}
