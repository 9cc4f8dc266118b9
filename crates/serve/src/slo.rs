//! SLO enforcement: deadline budgets, a p99-wait pressure controller, and a
//! queue-depth worker autoscaler.
//!
//! Everything here runs on the virtual [`TickClock`](crate::clock::TickClock)
//! axis and is driven synchronously by the open-loop harness, so the whole
//! control loop — observed waits → pressure level → shed decisions → worker
//! count — is a pure function of the arrival trace. That is what lets the
//! acceptance tests demand byte-identical `serve.slo.*` counters across
//! runs and thread counts. Neither type records a metric: the server and
//! the open-loop driver read these accessors and record for them.
//!
//! The control policy is deliberately boring:
//!
//! * [`SloController`] keeps a sliding window of recent wait times (in
//!   ticks) and computes an **exact** p99 by sorting — no approximate
//!   histogram, because approximation would make shed decisions depend on
//!   bucket layout. When the observed p99 crosses the target it raises a
//!   pressure level, with a hysteresis band so the level doesn't flap.
//! * Pressure sheds strictly bottom-up: level 1 sheds `Low` before
//!   compute, level 2 sheds `Low` and `Normal`. `High` is never
//!   pressure-shed — it only ever misses its own hard deadline. This is
//!   the mechanism behind "high-priority goodput degrades last".
//! * [`WorkerScaler`] watches queue depth per active worker and scales the
//!   drain width multiplicatively up / one step down, with a dwell time so
//!   a single burst tick can't thrash the pool.

use crate::class::{PerClass, Priority};

/// Per-class deadline budgets and the latency SLO.
#[derive(Clone, Copy, Debug)]
pub struct SloConfig {
    /// Ticks each class is allowed to wait before its *hard* deadline: a
    /// request older than this at dequeue is shed, whatever the pressure.
    pub deadline_ticks: PerClass<u64>,
    /// The p99 queue-wait target (ticks) the controller defends.
    pub target_p99_wait_ticks: u64,
    /// Sliding-window size (observed waits) for the exact p99.
    pub window: usize,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            deadline_ticks: PerClass { high: 8, normal: 16, low: 32 },
            target_p99_wait_ticks: 16,
            window: 256,
        }
    }
}

/// Deadline-aware shedding driven by an exact sliding-window p99.
#[derive(Debug)]
pub struct SloController {
    config: SloConfig,
    /// Ring buffer of the last `window` observed waits, in ticks.
    waits: Vec<u64>,
    next_slot: usize,
    filled: bool,
    /// 0 = healthy, 1 = shed Low, 2 = shed Low and Normal.
    pressure: u8,
}

impl SloController {
    /// A controller defending `config`'s p99 target.
    ///
    /// # Panics
    /// Panics if `config.window == 0`.
    pub fn new(config: SloConfig) -> Self {
        assert!(config.window > 0, "SLO window must be at least 1");
        SloController {
            config,
            waits: Vec::with_capacity(config.window),
            next_slot: 0,
            filled: false,
            pressure: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &SloConfig {
        &self.config
    }

    /// The hard deadline budget (ticks) for `class`.
    pub fn deadline_budget(&self, class: Priority) -> u64 {
        *self.config.deadline_ticks.get(class)
    }

    /// Records one served request's queue wait.
    pub fn record_wait(&mut self, wait_ticks: u64) {
        if self.waits.len() < self.config.window {
            self.waits.push(wait_ticks);
        } else {
            self.waits[self.next_slot] = wait_ticks;
            self.next_slot = (self.next_slot + 1) % self.config.window;
            self.filled = true;
        }
    }

    /// Exact p99 of the current window (0 while empty).
    pub fn observed_p99(&self) -> u64 {
        if self.waits.is_empty() {
            return 0;
        }
        let mut sorted = self.waits.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() as f64) * 0.99).ceil() as usize;
        sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
    }

    /// Current pressure level (0 healthy, 1 shed Low, 2 shed Low+Normal).
    pub fn pressure(&self) -> u8 {
        self.pressure
    }

    /// Re-evaluates pressure from the observed p99. Called once per tick by
    /// the lockstep driver. Hysteresis: escalate when p99 exceeds the
    /// target (2× target for level 2), de-escalate only once p99 falls
    /// back under 3/4 of the threshold that raised the level.
    pub fn update(&mut self) -> u8 {
        let p99 = self.observed_p99();
        let target = self.config.target_p99_wait_ticks.max(1);
        let level2 = target.saturating_mul(2);
        self.pressure = match self.pressure {
            0 => {
                if p99 > level2 {
                    2
                } else if p99 > target {
                    1
                } else {
                    0
                }
            }
            1 => {
                if p99 > level2 {
                    2
                } else if p99 <= target * 3 / 4 {
                    0
                } else {
                    1
                }
            }
            _ => {
                if p99 <= level2 * 3 / 4 {
                    if p99 > target {
                        1
                    } else {
                        0
                    }
                } else {
                    2
                }
            }
        };
        self.pressure
    }

    /// Whether the current pressure level sheds `class` pre-compute. The
    /// hard per-class deadline is enforced separately by the server;
    /// pressure shedding only ever claims `Low` and `Normal`.
    pub fn should_shed(&self, class: Priority) -> bool {
        match class {
            Priority::High => false,
            Priority::Normal => self.pressure >= 2,
            Priority::Low => self.pressure >= 1,
        }
    }
}

/// Autoscaler configuration.
#[derive(Clone, Copy, Debug)]
pub struct ScalerConfig {
    /// Lower bound on active workers.
    pub min_workers: usize,
    /// Upper bound on active workers.
    pub max_workers: usize,
    /// Queue depth per active worker above which the pool scales up.
    pub high_water: usize,
    /// Queue depth per active worker below which the pool scales down.
    pub low_water: usize,
    /// Ticks a watermark must hold before a scale event fires.
    pub dwell_ticks: u64,
}

impl Default for ScalerConfig {
    fn default() -> Self {
        ScalerConfig { min_workers: 1, max_workers: 8, high_water: 16, low_water: 2, dwell_ticks: 4 }
    }
}

/// A hysteretic queue-depth autoscaler for the lockstep drain width.
///
/// "Workers" here is the number of compute lanes
/// [`Server::drain_step`](crate::server::Server::drain_step) may use this
/// tick — the scaler decides *width*, the drain step decides *how* to
/// split work across it deterministically.
#[derive(Debug)]
pub struct WorkerScaler {
    config: ScalerConfig,
    active: usize,
    /// Consecutive ticks the high (positive) / low (negative) watermark
    /// condition has held.
    streak: i64,
    scale_events: u64,
}

impl WorkerScaler {
    /// A scaler starting at `config.min_workers`.
    ///
    /// # Panics
    /// Panics if `min_workers == 0` or `max_workers < min_workers`.
    pub fn new(config: ScalerConfig) -> Self {
        assert!(config.min_workers > 0, "min_workers must be at least 1");
        assert!(config.max_workers >= config.min_workers, "max_workers must be >= min_workers");
        WorkerScaler { config, active: config.min_workers, streak: 0, scale_events: 0 }
    }

    /// Currently active worker count.
    pub fn active(&self) -> usize {
        self.active
    }

    /// Scale events fired so far (up or down).
    pub fn scale_events(&self) -> u64 {
        self.scale_events
    }

    /// Observes the queue depth for this tick and returns the worker count
    /// to drain with. Scaling is multiplicative up (doubling, clamped) and
    /// single-step down, each gated behind `dwell_ticks` consecutive
    /// observations so one bursty tick cannot flap the pool.
    pub fn observe(&mut self, queue_depth: usize) -> usize {
        let per_worker = queue_depth / self.active.max(1);
        if per_worker >= self.config.high_water && self.active < self.config.max_workers {
            self.streak = if self.streak >= 0 { self.streak + 1 } else { 1 };
            if self.streak as u64 >= self.config.dwell_ticks {
                self.active = (self.active * 2).min(self.config.max_workers);
                self.streak = 0;
                self.scale_events += 1;
            }
        } else if per_worker <= self.config.low_water && self.active > self.config.min_workers {
            self.streak = if self.streak <= 0 { self.streak - 1 } else { -1 };
            if (-self.streak) as u64 >= self.config.dwell_ticks {
                self.active -= 1;
                self.streak = 0;
                self.scale_events += 1;
            }
        } else {
            self.streak = 0;
        }
        self.active
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_is_exact_over_the_window() {
        let mut slo = SloController::new(SloConfig { window: 100, ..SloConfig::default() });
        for w in 1..=100u64 {
            slo.record_wait(w);
        }
        assert_eq!(slo.observed_p99(), 99);
        // The window slides: 100 more observations of 7 push the tail out.
        for _ in 0..100 {
            slo.record_wait(7);
        }
        assert_eq!(slo.observed_p99(), 7);
    }

    #[test]
    fn pressure_escalates_and_releases_with_hysteresis() {
        let mut slo = SloController::new(SloConfig {
            target_p99_wait_ticks: 10,
            window: 8,
            ..SloConfig::default()
        });
        assert_eq!(slo.update(), 0, "empty window is healthy");
        for _ in 0..8 {
            slo.record_wait(15);
        }
        assert_eq!(slo.update(), 1, "p99 over target raises level 1");
        assert!(slo.should_shed(Priority::Low));
        assert!(!slo.should_shed(Priority::Normal));
        for _ in 0..8 {
            slo.record_wait(25);
        }
        assert_eq!(slo.update(), 2, "p99 over 2x target raises level 2");
        assert!(slo.should_shed(Priority::Normal));
        assert!(!slo.should_shed(Priority::High), "High is never pressure-shed");
        // Falling to just under the level-2 threshold is not enough …
        for _ in 0..8 {
            slo.record_wait(18);
        }
        assert_eq!(slo.update(), 2, "inside the hysteresis band the level holds");
        // … but dropping under 3/4 of it de-escalates, and a healthy p99
        // releases fully.
        for _ in 0..8 {
            slo.record_wait(12);
        }
        assert_eq!(slo.update(), 1);
        for _ in 0..8 {
            slo.record_wait(3);
        }
        assert_eq!(slo.update(), 0);
        assert!(!slo.should_shed(Priority::Low));
    }

    #[test]
    fn deadline_budgets_come_from_config() {
        let slo = SloController::new(SloConfig::default());
        assert!(slo.deadline_budget(Priority::High) < slo.deadline_budget(Priority::Normal));
        assert!(slo.deadline_budget(Priority::Normal) < slo.deadline_budget(Priority::Low));
    }

    #[test]
    fn scaler_doubles_up_after_dwell_and_steps_down() {
        let config = ScalerConfig {
            min_workers: 1,
            max_workers: 8,
            high_water: 10,
            low_water: 2,
            dwell_ticks: 3,
        };
        let mut scaler = WorkerScaler::new(config);
        // Two hot ticks are not enough; the third fires the doubling.
        assert_eq!(scaler.observe(50), 1);
        assert_eq!(scaler.observe(50), 1);
        assert_eq!(scaler.observe(50), 2);
        assert_eq!(scaler.scale_events(), 1);
        // Still hot per-worker (25 >= 10): dwell restarts, doubles again.
        for _ in 0..2 {
            scaler.observe(50);
        }
        assert_eq!(scaler.observe(50), 4);
        // Cold: steps down one at a time after its own dwell.
        for _ in 0..2 {
            scaler.observe(0);
        }
        assert_eq!(scaler.observe(0), 3);
        assert!(scaler.scale_events() >= 3);
    }

    #[test]
    fn scaler_respects_bounds_and_resets_streak_in_the_band() {
        let config = ScalerConfig {
            min_workers: 2,
            max_workers: 4,
            high_water: 10,
            low_water: 1,
            dwell_ticks: 2,
        };
        let mut scaler = WorkerScaler::new(config);
        assert_eq!(scaler.active(), 2);
        for _ in 0..20 {
            scaler.observe(1000);
        }
        assert_eq!(scaler.active(), 4, "clamped at max_workers");
        // Mid-band observation breaks a cold streak.
        scaler.observe(0);
        scaler.observe(5 * 4); // per-worker 5: between low 1 and high 10
        scaler.observe(0);
        assert_eq!(scaler.active(), 4, "streak was reset by the in-band tick");
        for _ in 0..20 {
            scaler.observe(0);
        }
        assert_eq!(scaler.active(), 2, "clamped at min_workers");
    }
}
