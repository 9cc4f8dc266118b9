//! Deterministic load generation: the open-loop arrival-process driver
//! ([`run_open_loop`] / [`run_open_loop_with`]).
//!
//! A closed loop can never overload a server for long: clients wait for
//! answers, so offered load self-throttles exactly when the server slows
//! down — the failure mode SLOs exist for never materializes. This driver
//! instead submits according to an [`ArrivalProcess`] on the virtual tick
//! axis, whatever the server's state: Poisson at a fixed rate, a diurnal
//! triangle ramp, or a flash crowd that spikes the rate *and* concentrates
//! it on a small hot agent set. Targets outside a spike are drawn from a
//! seeded Zipf distribution over the agent panel (per Diaz-Aviles/Ziegler,
//! request popularity in P2P recommender communities is heavy-tailed — a
//! few agents account for most traffic, which is also what makes the
//! recommendation cache earn its keep). Everything — arrival counts,
//! targets, classes — comes from seeded RNG streams, and the server runs
//! in lockstep mode ([`Server::drain_step`]), so the entire run, counters
//! included, is a pure function of `(config, seed)` regardless of how many
//! compute threads the drain uses. The free-running worker pool is driven
//! by `tests/serving.rs` and timed by `perf/`.
//!
//! The headline metric is **goodput-under-SLO**: requests answered within
//! their class's deadline budget (measured against the [`SloConfig`]
//! whether or not enforcement is on, so a no-SLO baseline is comparable to
//! an enforcing run on the same trace).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use semrec_core::AgentId;
use semrec_datagen::zipf::Zipf;

use crate::class::{PerClass, Priority};
use crate::error::ServeError;
use crate::server::{Server, Ticket};
use crate::slo::{ScalerConfig, SloConfig, SloController, WorkerScaler};

/// Draws a priority class from a (not necessarily normalized) mix.
fn draw_class(rng: &mut StdRng, mix: &[f64; 3]) -> Priority {
    let total: f64 = mix.iter().sum();
    if total <= 0.0 {
        return Priority::Normal;
    }
    let mut u: f64 = rng.random::<f64>() * total;
    for class in Priority::ALL {
        u -= mix[class.index()];
        if u < 0.0 {
            return class;
        }
    }
    Priority::Low
}

/// Splitmix-style stream separation: one base seed, many disjoint streams.
fn stream_seed(seed: u64, stream: u64) -> u64 {
    seed ^ (stream + 1).wrapping_mul(0x9e3779b97f4a7c15)
}

/// Deterministic open-loop arrival process on the virtual tick axis.
#[derive(Clone, Copy, Debug)]
pub enum ArrivalProcess {
    /// Poisson arrivals at a constant `rate` (requests per tick).
    Poisson {
        /// Mean arrivals per tick.
        rate: f64,
    },
    /// A diurnal triangle ramp: the rate climbs linearly from `base` to
    /// `peak` at the run's midpoint and back down.
    Diurnal {
        /// Rate at the start and end of the run.
        base: f64,
        /// Rate at the midpoint.
        peak: f64,
    },
    /// A flash crowd: `base`-rate Poisson traffic with a window
    /// `[start, start + len)` during which the rate jumps to `spike` *and*
    /// a `hot_fraction` of arrivals concentrate uniformly on the first
    /// `hot_agents` of the panel — the cache-busting, queue-flooding shape
    /// SLO machinery has to survive.
    FlashCrowd {
        /// Rate outside the spike window.
        base: f64,
        /// Rate inside the spike window.
        spike: f64,
        /// First tick of the spike window.
        start: u64,
        /// Length of the spike window, in ticks.
        len: u64,
        /// Size of the hot agent set (clamped to the panel).
        hot_agents: usize,
        /// Fraction of spike-window arrivals aimed at the hot set.
        hot_fraction: f64,
    },
}

impl ArrivalProcess {
    /// The offered rate at `tick` of a `total_ticks` run.
    fn rate_at(&self, tick: u64, total_ticks: u64) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate } => rate,
            ArrivalProcess::Diurnal { base, peak } => {
                let t = if total_ticks <= 1 {
                    0.0
                } else {
                    tick as f64 / (total_ticks - 1) as f64
                };
                let triangle = 1.0 - (2.0 * t - 1.0).abs();
                base + (peak - base) * triangle
            }
            ArrivalProcess::FlashCrowd { base, spike, start, len, .. } => {
                if tick >= start && tick < start.saturating_add(len) {
                    spike
                } else {
                    base
                }
            }
        }
    }

    /// Whether `tick` falls inside a flash-crowd spike window.
    fn in_spike(&self, tick: u64) -> bool {
        match *self {
            ArrivalProcess::FlashCrowd { start, len, .. } => {
                tick >= start && tick < start.saturating_add(len)
            }
            _ => false,
        }
    }
}

/// Knuth's Poisson sampler — exact, and fine for the per-tick rates the
/// harness uses (λ ≲ 50).
fn poisson(rng: &mut StdRng, lambda: f64) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    let floor = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0f64;
    loop {
        p *= rng.random::<f64>();
        if p <= floor {
            return k;
        }
        k += 1;
    }
}

/// Open-loop harness configuration.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoopConfig {
    /// Ticks during which arrivals are offered.
    pub ticks: u64,
    /// The arrival process.
    pub process: ArrivalProcess,
    /// Recommendation list length requested.
    pub top_n: usize,
    /// Seed for the arrival / target / class RNG streams.
    pub seed: u64,
    /// Zipf exponent over the agent panel for non-hot traffic.
    pub zipf_exponent: f64,
    /// Probability mass per priority class, aligned with [`Priority::ALL`].
    pub class_mix: [f64; 3],
    /// Requests one logical worker drains per tick.
    pub batch_size: usize,
    /// Compute threads handed to [`Server::drain_step`]. Affects wall time
    /// only — the run's outcome is identical for any value.
    pub threads: usize,
    /// Deadline budgets and p99 target — always the measuring stick for
    /// goodput, and the enforcement policy when `enforce_slo` is on.
    pub slo: SloConfig,
    /// Enforce the SLO (deadline shedding + pressure controller). Off =
    /// the no-SLO baseline: nothing is shed at dequeue, requests are
    /// simply served late.
    pub enforce_slo: bool,
    /// Worker-pool bounds and watermarks.
    pub scaler: ScalerConfig,
    /// Scale the drain width from queue depth. Off = a fixed pool of
    /// `scaler.min_workers`.
    pub autoscale: bool,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            ticks: 200,
            process: ArrivalProcess::Poisson { rate: 4.0 },
            top_n: 10,
            seed: 17,
            zipf_exponent: 1.1,
            class_mix: [0.2, 0.5, 0.3],
            batch_size: 4,
            threads: 1,
            slo: SloConfig::default(),
            enforce_slo: true,
            scaler: ScalerConfig::default(),
            autoscale: true,
        }
    }
}

/// Per-class outcome of an open-loop run. Wait percentiles are exact,
/// computed from the full set of served waits in virtual ticks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassReport {
    /// Requests offered (admitted + refused).
    pub offered: u64,
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Requests answered with a recommendation list.
    pub served: u64,
    /// Served within the class's deadline budget — the goodput numerator.
    pub goodput: u64,
    /// Refused at admission (never queued).
    pub shed_admission: u64,
    /// Admitted, then displaced from the queue by a higher-class arrival.
    pub displaced: u64,
    /// Shed at dequeue (hard deadline or SLO pressure).
    pub shed_deadline: u64,
    /// Engine errors.
    pub failed: u64,
    /// Exact p50 of served queue waits, in ticks.
    pub wait_p50: u64,
    /// Exact p95 of served queue waits, in ticks.
    pub wait_p95: u64,
    /// Exact p99 of served queue waits, in ticks.
    pub wait_p99: u64,
}

impl ClassReport {
    /// Goodput as a fraction of offered load.
    pub fn goodput_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.goodput as f64 / self.offered as f64
        }
    }

    /// Every admitted request that resolved one way or another.
    pub fn resolved(&self) -> u64 {
        self.served + self.displaced + self.shed_deadline + self.failed
    }
}

/// Outcome of one open-loop run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OpenLoopReport {
    /// Ticks actually run (offered ticks + drain tail).
    pub ticks_run: u64,
    /// Per-class outcomes.
    pub class: PerClass<ClassReport>,
    /// Worker-pool scale events fired during the run.
    pub scale_events: u64,
    /// Largest active worker count reached.
    pub peak_workers: usize,
    /// Admitted requests never resolved (must be 0 — checked by tests).
    pub lost: u64,
}

impl OpenLoopReport {
    /// Total requests offered across classes.
    pub fn offered(&self) -> u64 {
        Priority::ALL.iter().map(|&c| self.class.get(c).offered).sum()
    }

    /// Total served across classes.
    pub fn served(&self) -> u64 {
        Priority::ALL.iter().map(|&c| self.class.get(c).served).sum()
    }

    /// Total goodput (served within budget) across classes.
    pub fn goodput(&self) -> u64 {
        Priority::ALL.iter().map(|&c| self.class.get(c).goodput).sum()
    }

    /// Total shed (admission + displacement + deadline) across classes.
    pub fn shed(&self) -> u64 {
        Priority::ALL
            .iter()
            .map(|&c| {
                let slot = self.class.get(c);
                slot.shed_admission + slot.displaced + slot.shed_deadline
            })
            .sum()
    }
}

/// Exact percentile of a sorted slice (empty → 0).
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// One admitted request the harness is still waiting on.
struct InFlight {
    ticket: Ticket,
    class: Priority,
    submitted_at: u64,
}

/// [`run_open_loop_with`] without a per-tick hook.
pub fn run_open_loop(
    server: &Server,
    agents: &[AgentId],
    config: &OpenLoopConfig,
) -> OpenLoopReport {
    run_open_loop_with(server, agents, config, |_, _| {})
}

/// Drives `server` (which must be in lockstep mode, `workers == 0`) with
/// open-loop traffic. Each tick: `hook(tick, server)` runs first (the seam
/// experiments use to publish a snapshot mid-burst), arrivals are
/// submitted, the scaler observes queue depth, one [`Server::drain_step`]
/// runs at the resulting width, resolved tickets are collected, and the
/// virtual clock advances one tick. After the offered window, the harness
/// keeps ticking until the queue and the in-flight set are empty.
///
/// The whole run — every counter, every response — is a pure function of
/// `(config, agents, server state)`; `config.threads` only changes wall
/// time.
///
/// # Panics
/// Panics if `agents` is empty or the server has free-running workers.
pub fn run_open_loop_with(
    server: &Server,
    agents: &[AgentId],
    config: &OpenLoopConfig,
    mut hook: impl FnMut(u64, &Server),
) -> OpenLoopReport {
    assert!(!agents.is_empty(), "load generation needs a non-empty agent panel");
    let mut arrivals_rng = StdRng::seed_from_u64(stream_seed(config.seed, 0));
    let mut target_rng = StdRng::seed_from_u64(stream_seed(config.seed, 1));
    let mut class_rng = StdRng::seed_from_u64(stream_seed(config.seed, 2));
    let zipf = Zipf::new(agents.len(), config.zipf_exponent);

    let metrics = server.handles();
    let mut slo = config.enforce_slo.then(|| SloController::new(config.slo));
    let mut scaler = WorkerScaler::new(config.scaler);
    let mut peak_workers = config.scaler.min_workers;

    let mut in_flight: Vec<InFlight> = Vec::new();
    let mut report = OpenLoopReport::default();
    let mut waits: PerClass<Vec<u64>> = PerClass::default();

    // Offered window plus a bounded drain tail. The tail cap only guards
    // against a logic bug leaving tickets unresolved; it is far above
    // anything a finite queue needs to drain at width ≥ 1.
    let tail_cap = config.ticks + 10_000 + server.queue_depth() as u64;
    let mut tick = 0u64;
    loop {
        let offering = tick < config.ticks;
        if !offering && in_flight.is_empty() && server.queue_depth() == 0 {
            break;
        }
        if tick >= tail_cap {
            break;
        }
        hook(tick, server);

        if offering {
            let rate = config.process.rate_at(tick, config.ticks);
            let count = poisson(&mut arrivals_rng, rate);
            for _ in 0..count {
                let agent = match config.process {
                    ArrivalProcess::FlashCrowd { hot_agents, hot_fraction, .. }
                        if config.process.in_spike(tick)
                            && target_rng.random::<f64>() < hot_fraction =>
                    {
                        let hot = hot_agents.clamp(1, agents.len());
                        agents[target_rng.random_range(0..hot)]
                    }
                    _ => agents[zipf.sample(&mut target_rng)],
                };
                let class = draw_class(&mut class_rng, &config.class_mix);
                let slot = report.class.get_mut(class);
                slot.offered += 1;
                match server.submit_classed(agent, config.top_n, class, None) {
                    Ok(ticket) => {
                        slot.admitted += 1;
                        in_flight.push(InFlight { ticket, class, submitted_at: tick });
                    }
                    Err(ServeError::Overloaded { .. }) => slot.shed_admission += 1,
                    Err(_) => slot.failed += 1,
                }
            }
        }

        let active = if config.autoscale {
            scaler.observe(server.queue_depth())
        } else {
            scaler.active()
        };
        metrics.workers_active.set(active as f64);
        peak_workers = peak_workers.max(active);
        server.drain_step(active * config.batch_size.max(1), config.threads, slo.as_mut());

        // Collect resolved tickets in submission order.
        let mut still_pending = Vec::with_capacity(in_flight.len());
        for flight in in_flight {
            match flight.ticket.try_wait() {
                None => still_pending.push(flight),
                Some(result) => {
                    let wait = tick.saturating_sub(flight.submitted_at);
                    let slot = report.class.get_mut(flight.class);
                    match result {
                        Ok(_) => {
                            slot.served += 1;
                            if wait <= *config.slo.deadline_ticks.get(flight.class) {
                                slot.goodput += 1;
                            }
                            waits.get_mut(flight.class).push(wait);
                        }
                        Err(ServeError::DeadlineExceeded { .. }) => slot.shed_deadline += 1,
                        Err(ServeError::Overloaded { .. }) => {
                            // Displaced after admission by a higher class.
                            slot.displaced += 1;
                        }
                        Err(_) => slot.failed += 1,
                    }
                }
            }
        }
        in_flight = still_pending;
        server.clock().advance(1);
        tick += 1;
    }

    report.ticks_run = tick;
    report.scale_events = scaler.scale_events();
    metrics.scale_events.add(report.scale_events);
    report.peak_workers = peak_workers;
    report.lost = in_flight.len() as u64;
    for class in Priority::ALL {
        let sorted = waits.get_mut(class);
        sorted.sort_unstable();
        let slot = report.class.get_mut(class);
        slot.wait_p50 = percentile(sorted, 0.50);
        slot.wait_p95 = percentile(sorted, 0.95);
        slot.wait_p99 = percentile(sorted, 0.99);
        metrics.slo_goodput[class.index()].add(slot.goodput);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServeConfig;
    use semrec_core::{Community, Recommender, RecommenderConfig};
    use semrec_taxonomy::fixtures::example1;

    fn ring(n: usize) -> (Recommender, Vec<AgentId>) {
        let e = example1();
        let products: Vec<_> = e.catalog.iter().collect();
        let mut c = Community::new(e.fig.taxonomy, e.catalog);
        let agents: Vec<AgentId> =
            (0..n).map(|i| c.add_agent(format!("http://ex.org/u{i}")).unwrap()).collect();
        for i in 0..n {
            c.trust.set_trust(agents[i], agents[(i + 1) % n], 0.9).unwrap();
            c.set_rating(agents[i], products[i % 4], 1.0).unwrap();
        }
        (Recommender::new(c, RecommenderConfig::default()), agents)
    }

    #[test]
    fn identical_seeds_issue_identical_request_streams() {
        // The request *stream* (sequence of target agents) is a pure
        // function of the seed — verify by draining one stream twice via
        // the same construction the driver uses.
        let (_, agents) = ring(32);
        let draw = |seed: u64| -> Vec<usize> {
            let mut rng = StdRng::seed_from_u64(stream_seed(seed, 0));
            let zipf = Zipf::new(agents.len(), 1.1);
            (0..50).map(|_| zipf.sample(&mut rng)).collect()
        };
        assert_eq!(draw(17), draw(17));
        assert_ne!(draw(17), draw(18), "different seeds should differ");
    }

    #[test]
    fn open_loop_serves_everything_under_light_load() {
        let (engine, agents) = ring(16);
        let server = Server::start(engine, ServeConfig { workers: 0, ..ServeConfig::default() });
        let config = OpenLoopConfig {
            ticks: 50,
            process: ArrivalProcess::Poisson { rate: 2.0 },
            ..OpenLoopConfig::default()
        };
        let report = run_open_loop(&server, &agents, &config);
        assert!(report.offered() > 0);
        assert_eq!(report.lost, 0, "every admitted request must resolve");
        assert_eq!(report.served(), report.offered(), "light load: nothing shed");
        assert_eq!(report.goodput(), report.served(), "light load: everything within budget");
        server.shutdown();
    }

    #[test]
    fn open_loop_is_a_pure_function_of_the_seed() {
        let (engine, agents) = ring(16);
        let config = OpenLoopConfig {
            ticks: 60,
            process: ArrivalProcess::FlashCrowd {
                base: 2.0,
                spike: 20.0,
                start: 20,
                len: 15,
                hot_agents: 4,
                hot_fraction: 0.8,
            },
            ..OpenLoopConfig::default()
        };
        let run = |threads: usize| {
            let server = Server::start(
                engine.clone(),
                ServeConfig { workers: 0, queue_capacity: 64, ..ServeConfig::default() },
            );
            let report =
                run_open_loop(&server, &agents, &OpenLoopConfig { threads, ..config });
            server.shutdown();
            report
        };
        let a = run(1);
        let b = run(1);
        let c = run(8);
        assert_eq!(a, b, "same seed, same threads");
        assert_eq!(a, c, "thread count must not change the outcome");
        assert_eq!(a.lost, 0);
    }

    #[test]
    fn diurnal_ramp_peaks_mid_run() {
        let process = ArrivalProcess::Diurnal { base: 1.0, peak: 9.0 };
        assert!((process.rate_at(0, 101) - 1.0).abs() < 1e-9);
        assert!((process.rate_at(50, 101) - 9.0).abs() < 1e-9);
        assert!((process.rate_at(100, 101) - 1.0).abs() < 1e-9);
        assert!(!process.in_spike(50));
    }

    #[test]
    fn poisson_sampler_matches_the_mean_roughly() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 2000;
        let total: usize = (0..n).map(|_| poisson(&mut rng, 3.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 3.0).abs() < 0.2, "sample mean {mean} too far from λ=3");
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }

    #[test]
    #[should_panic(expected = "non-empty agent panel")]
    fn empty_panel_is_rejected() {
        let (engine, _) = ring(4);
        let server = Server::start(engine, ServeConfig { workers: 0, ..ServeConfig::default() });
        let _ = run_open_loop(&server, &[], &OpenLoopConfig::default());
    }
}
