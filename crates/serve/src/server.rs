//! The serving core: a classed, weighted-fair request queue whose drained
//! batches one batch rule serves, under either of two drivers.
//!
//! Life of a request:
//!
//! 1. **Admission** — [`Server::submit_classed`] pushes onto the
//!    [`WeightedFairQueue`]. At capacity the push either displaces the
//!    newest strictly-lower-class queued request (the victim resolves with
//!    [`ServeError::Overloaded`]) or is itself refused the same way
//!    (load-shedding, counted as `serve.requests.shed.admission`).
//! 2. **Batching** — a drain hands out requests in deficit-round-robin
//!    order; the batch pins the current [`ModelSnapshot`] and reads the
//!    virtual clock once, so all its requests see one generation and `now`.
//! 3. **Deadline check** — a request whose deadline (explicit, or derived
//!    from its class's SLO budget) passed while it queued is shed
//!    (`serve.requests.shed.deadline`) rather than served late. Under SLO
//!    pressure, `Low` and then `Normal` requests are shed pre-compute while
//!    `High` only ever misses its own hard deadline.
//! 4. **Cache / compute** — the sharded LRU is consulted under the pinned
//!    epoch; the batch's misses are computed once per `(epoch, agent, n)`
//!    and cached in first-occurrence order.
//!
//! ## One batch rule, two drivers
//!
//! Steps 2–4 are one private `Batch`: `admit` sheds a request, answers its
//! hit or queues it on its miss, and `finish` computes, caches and answers
//! the misses. `workers == 0` builds a *lockstep* server: nothing drains
//! until the harness calls [`Server::drain_step`], which refills the batch
//! until `max` requests survive, runs the [`SloController`] on the virtual
//! clock only it advances, and computes on `threads` lanes chunked by index
//! — byte-identical for any `threads`; the open-loop load generator drives
//! it one tick at a time. `workers > 0` starts a free-running pool: each
//! worker finishes its drained batch on one lane, answering a miss's
//! waiters the moment it returns, with no SLO controller; only the pool
//! times batches (`serve.batch`). Through the shared rule the pool checks
//! explicit deadlines against one `now` per batch, records
//! `serve.wait.ticks`, and computes a miss duplicated within a batch once
//! (the duplicate answers `cache_hit: false`, as in lockstep). Its counters
//! still depend on thread interleaving.
//!
//! Snapshot swap ([`Server::publish`]) happens between batches from the
//! workers' point of view: requests already drained finish on the old
//! generation, later batches pin the new one, and nothing in flight is
//! lost. Shutdown is graceful: the queue closes, workers drain what is
//! left, and anything still queued when the pool has exited is answered
//! with [`ServeError::ShuttingDown`] instead of a dropped channel.
//!
//! Every event above is counted once, on a handle of the server's own
//! registry; [`Server::stats`], [`Server::cache_stats`] and
//! [`Server::metrics`] are three views of those cells.

use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

use semrec_core::{AgentId, CoreError, Recommendation, Recommender, SwapPlan};
use semrec_obs::MetricsSnapshot;

use crate::cache::{CacheKey, CacheStats, RecCache};
use crate::class::{PerClass, Priority};
use crate::clock::TickClock;
use crate::error::ServeError;
use crate::metrics::ServeMetrics;
use crate::slo::SloController;
use crate::snapshot::{ModelSnapshot, SnapshotSwitch};
use crate::wfq::{PushRefused, WeightedFairQueue};

/// Recommendation-cache shards, each with its own lock. (The per-class
/// service weights are [`Priority::DEFAULT_WEIGHTS`].)
const CACHE_SHARDS: usize = 8;

/// Serving configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Worker threads draining the queue. `0` builds a lockstep server:
    /// requests queue until [`Server::drain_step`] is called (also the
    /// accept-only mode admission and shutdown tests rely on).
    pub workers: usize,
    /// Maximum queued requests before admission control sheds.
    pub queue_capacity: usize,
    /// Maximum requests a worker drains (and serves under one pinned
    /// snapshot) per batch.
    pub batch_size: usize,
    /// Total recommendation-cache entries (0 disables the cache).
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 1024,
            batch_size: 8,
            cache_capacity: 4096,
        }
    }
}

/// Outcome of a [`Server::publish_delta`] swap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PublishReport {
    /// The epoch the new generation was installed as.
    pub epoch: u64,
    /// Cache entries carried across the swap (re-keyed, still answering).
    pub carried: usize,
    /// Cache entries dropped (dirty, or stale generations).
    pub invalidated: usize,
    /// Whether the plan forced wholesale invalidation.
    pub wholesale: bool,
}

/// A successfully served request.
#[derive(Clone, Debug, PartialEq)]
pub struct ServedResponse {
    /// The recommendation list (shared with the cache — cheap to clone).
    pub recommendations: Arc<Vec<Recommendation>>,
    /// The snapshot generation that answered.
    pub epoch: u64,
    /// Whether the answer came from the cache.
    pub cache_hit: bool,
    /// The request's priority class.
    pub class: Priority,
    /// True when the answering snapshot was built from degraded source
    /// data (crawl losses, parse failures — see `SourceHealth`), so the
    /// caller can caption the explanation accordingly.
    pub degraded: bool,
}

/// What a request resolves to.
pub type ServeResult = Result<ServedResponse, ServeError>;

/// A pending response: block on [`Ticket::wait`] or poll [`Ticket::try_wait`].
#[derive(Debug)]
pub struct Ticket {
    receiver: mpsc::Receiver<ServeResult>,
}

impl Ticket {
    /// Blocks until the request resolves. Returns
    /// [`ServeError::Disconnected`] only if a worker panicked mid-request.
    pub fn wait(self) -> ServeResult {
        self.receiver.recv().unwrap_or(Err(ServeError::Disconnected))
    }

    /// Non-blocking poll: `Some` once the request has resolved. The
    /// lockstep harness polls tickets between ticks instead of blocking.
    pub fn try_wait(&self) -> Option<ServeResult> {
        match self.receiver.try_recv() {
            Ok(result) => Some(result),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::Disconnected)),
        }
    }
}

/// One queued request.
#[derive(Debug)]
struct Request {
    agent: AgentId,
    n: usize,
    class: Priority,
    /// Virtual tick the request was admitted at (queue-wait accounting).
    submitted_at: u64,
    /// Explicit virtual-tick start-by deadline, if any. When absent, a
    /// drain with an SLO controller derives one from the class's budget.
    deadline: Option<u64>,
    responder: mpsc::Sender<ServeResult>,
}

/// Per-class slice of the request counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Requests of this class admitted into the queue.
    pub submitted: u64,
    /// Requests of this class answered with a recommendation list.
    pub served: u64,
    /// Requests of this class shed (admission, displacement or deadline).
    pub shed: u64,
}

/// Cumulative per-server request counters. Once the server has shut down
/// every admitted request has exactly one outcome:
/// `submitted == served + shed_deadline + failed + displaced + abandoned`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests admitted into the queue.
    pub submitted: u64,
    /// Requests answered with a recommendation list.
    pub served: u64,
    /// Requests refused at admission (queue full) or displaced by a
    /// higher-class arrival.
    pub shed_admission: u64,
    /// Requests dropped at dequeue because their deadline passed (hard
    /// deadline misses and SLO pressure sheds).
    pub shed_deadline: u64,
    /// Requests that reached the engine and got an engine error back.
    pub failed: u64,
    /// Requests admitted, then evicted from the queue by a higher-class
    /// arrival (the admitted share of `shed_admission`).
    pub displaced: u64,
    /// Requests still queued at shutdown, answered
    /// [`ServeError::ShuttingDown`].
    pub abandoned: u64,
    /// The same counters sliced per priority class.
    pub class: PerClass<ClassStats>,
}

impl ServeStats {
    /// Total load shed, whatever the mechanism.
    pub fn shed(&self) -> u64 {
        self.shed_admission + self.shed_deadline
    }
}

/// State shared between the server handle and its workers.
struct Shared {
    queue: WeightedFairQueue<Request>,
    switch: SnapshotSwitch,
    cache: RecCache,
    clock: TickClock,
    batch_size: usize,
    metrics: ServeMetrics,
}

/// Outcome of one lockstep [`Server::drain_step`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DrainOutcome {
    /// Requests taken off the queue this step.
    pub drained: usize,
    /// Requests answered with a recommendation list.
    pub served: usize,
    /// Requests shed at a hard deadline.
    pub shed_deadline: usize,
    /// Requests shed by SLO pressure (before their hard deadline).
    pub shed_pressure: usize,
    /// Requests that resolved with an engine error.
    pub failed: usize,
}

/// The in-process recommendation server.
///
/// Dropping the server shuts it down gracefully: the queue closes, workers
/// finish what is queued, and the pool is joined.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts a server fronting `engine` (installed as snapshot epoch 1).
    pub fn start(engine: Recommender, config: ServeConfig) -> Server {
        Server::start_at(engine, config, 1)
    }

    /// Starts a server fronting `engine` at a caller-chosen snapshot epoch
    /// — the warm-start path for an engine recovered from a durable
    /// checkpoint (see `semrec-store`), which resumes at the epoch the
    /// persisted model had reached instead of restarting at 1.
    pub fn start_at(engine: Recommender, config: ServeConfig, epoch: u64) -> Server {
        let (metrics, cache) = ServeMetrics::new();
        metrics.workers.set(config.workers as f64);
        let shared = Arc::new(Shared {
            queue: WeightedFairQueue::new(config.queue_capacity),
            switch: SnapshotSwitch::new_at(engine, epoch),
            cache: RecCache::with_counters(config.cache_capacity, CACHE_SHARDS, cache),
            clock: TickClock::new(),
            batch_size: config.batch_size.max(1),
            metrics,
        });
        let workers = (0..config.workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("semrec-serve-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn serve worker")
            })
            .collect();
        Server { shared, workers }
    }

    /// Submits a [`Priority::Normal`] request with no deadline.
    pub fn submit(&self, agent: AgentId, n: usize) -> Result<Ticket, ServeError> {
        self.submit_classed(agent, n, Priority::Normal, None)
    }

    /// Submits a [`Priority::Normal`] request that must be *started* by
    /// virtual tick `deadline`.
    pub fn submit_with_deadline(
        &self,
        agent: AgentId,
        n: usize,
        deadline: Option<u64>,
    ) -> Result<Ticket, ServeError> {
        self.submit_classed(agent, n, Priority::Normal, deadline)
    }

    /// Submits a request in `class`, optionally with an explicit start-by
    /// deadline (virtual ticks). Returns a [`Ticket`] on admission, or the
    /// typed shed error immediately. At capacity a higher-class request may
    /// displace the newest queued strictly-lower-class request — the victim
    /// resolves with [`ServeError::Overloaded`] and the newcomer is
    /// admitted in its place.
    pub fn submit_classed(
        &self,
        agent: AgentId,
        n: usize,
        class: Priority,
        deadline: Option<u64>,
    ) -> Result<Ticket, ServeError> {
        let (sender, receiver) = mpsc::channel();
        let request = Request {
            agent,
            n,
            class,
            submitted_at: self.shared.clock.now(),
            deadline,
            responder: sender,
        };
        let metrics = &self.shared.metrics;
        match self.shared.queue.push(class, request) {
            Ok(admitted) => {
                metrics.submitted.inc();
                metrics.class_submitted[class.index()].inc();
                if let Some((victim_class, victim)) = admitted.displaced {
                    metrics.count_shed_admission(victim_class);
                    metrics.displaced.inc();
                    let _ = victim.responder.send(Err(ServeError::Overloaded {
                        depth: self.shared.queue.capacity(),
                        capacity: self.shared.queue.capacity(),
                        class: victim_class,
                    }));
                }
                Ok(Ticket { receiver })
            }
            Err((_, PushRefused::Full { depth, capacity })) => {
                metrics.count_shed_admission(class);
                Err(ServeError::Overloaded { depth, capacity, class })
            }
            Err((_, PushRefused::Closed)) => Err(ServeError::ShuttingDown),
        }
    }

    /// Atomically installs `engine` as the next model generation and
    /// invalidates cache entries of older generations. In-flight batches
    /// finish on the generation they pinned; returns the new epoch.
    pub fn publish(&self, engine: Recommender) -> u64 {
        let epoch = self.shared.switch.publish(engine);
        self.shared.metrics.snapshot_swaps.inc();
        self.shared.cache.invalidate_before(epoch);
        epoch
    }

    /// Delta-aware publish: installs `engine` and, instead of dropping the
    /// whole cache, carries the previous generation's entries for agents
    /// the [`SwapPlan`] proves clean across the swap. A wholesale plan
    /// (membership change, or dirty fraction past the threshold) degrades
    /// to exactly [`Server::publish`] semantics.
    ///
    /// The caller must have computed `plan` for precisely this transition
    /// (the engine currently installed → `engine`); the serving invariant —
    /// a cached answer is only served if byte-identical to an engine
    /// recompute on the live snapshot — then holds because a carried
    /// agent's recommendations are unchanged by construction and the id
    /// mapping is stable whenever the plan allows carrying at all.
    pub fn publish_delta(&self, engine: Recommender, plan: &SwapPlan) -> PublishReport {
        let epoch = self.shared.switch.publish(engine);
        self.shared.metrics.snapshot_swaps.inc();
        if plan.wholesale() {
            let invalidated = self.shared.cache.invalidate_before(epoch);
            return PublishReport { epoch, carried: 0, invalidated, wholesale: true };
        }
        let (carried, invalidated) =
            self.shared.cache.carry_into(epoch, &|agent| plan.carryable(agent));
        PublishReport { epoch, carried, invalidated, wholesale: false }
    }

    /// The current snapshot epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.switch.epoch()
    }

    /// The virtual clock deadlines are checked against. The server never
    /// advances it on its own — the load generator (or test) drives time.
    pub fn clock(&self) -> &TickClock {
        &self.shared.clock
    }

    /// Current queue depth.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// Current queue depth per class, aligned with [`Priority::ALL`].
    pub fn class_depths(&self) -> [usize; Priority::COUNT] {
        self.shared.queue.class_depths()
    }

    /// Per-server request counters.
    pub fn stats(&self) -> ServeStats {
        let metrics = &self.shared.metrics;
        let mut class = PerClass::<ClassStats>::default();
        for c in Priority::ALL {
            class[c] = ClassStats {
                submitted: metrics.class_submitted[c.index()].get(),
                served: metrics.class_served[c.index()].get(),
                shed: metrics.class_shed[c.index()].get(),
            };
        }
        ServeStats {
            submitted: metrics.submitted.get(),
            served: metrics.served.get(),
            shed_admission: metrics.shed_admission.get(),
            shed_deadline: metrics.shed_deadline.get(),
            failed: metrics.failed.get(),
            displaced: metrics.displaced.get(),
            abandoned: metrics.abandoned.get(),
            class,
        }
    }

    /// Per-server cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Every `serve.*` metric (see the README's serving metric table), from
    /// the registry this server owns: no other server's traffic shows up
    /// here, and [`Server::stats`] and [`Server::cache_stats`] read the same
    /// cells. `serve.queue.depth` and `serve.snapshot.epoch` are sampled now.
    pub fn metrics(&self) -> MetricsSnapshot {
        let metrics = &self.shared.metrics;
        metrics.queue_depth.set(self.queue_depth() as f64);
        metrics.snapshot_epoch.set(self.epoch() as f64);
        metrics.registry.snapshot()
    }

    /// The handles behind [`Server::metrics`], for the load drivers.
    pub(crate) fn handles(&self) -> &ServeMetrics {
        &self.shared.metrics
    }

    /// One synchronous serving step for the lockstep (zero-worker) mode:
    /// pops requests in weighted-fair order until up to `max` of them
    /// *survive* shedding (dropping an expired request runs no compute, so
    /// it costs no serving slot) and serves them as one batch whose misses
    /// are computed on up to `threads` lanes. Counters and responses are
    /// byte-identical for any `threads` value (see the module docs).
    ///
    /// With an [`SloController`], requests without an explicit deadline get
    /// `submitted_at + class budget` as their hard deadline, served waits
    /// feed the controller's window, pressure is re-evaluated once per
    /// step, and pressure sheds claim `Low` then `Normal` pre-compute.
    ///
    /// # Panics
    /// Panics if the server was started with worker threads — mixing the
    /// two drivers would race the queue.
    pub fn drain_step(
        &self,
        max: usize,
        threads: usize,
        mut slo: Option<&mut SloController>,
    ) -> DrainOutcome {
        assert!(
            self.workers.is_empty(),
            "drain_step requires a lockstep server (ServeConfig.workers == 0)"
        );
        let (shared, metrics) = (&*self.shared, &self.shared.metrics);
        if let Some(slo) = slo.as_mut() {
            metrics.slo_pressure.set(slo.update() as f64);
            metrics.slo_observed_p99.set(slo.observed_p99() as f64);
        }
        let mut batch = Batch::default();
        batch.open(shared);
        let max = max.max(1);
        let mut survivors = 0;
        // `max` budgets *service*, not queue pops: shedding a dead request
        // runs no compute, so it must not burn a serving slot. Dropping the
        // expired head of a lane is exactly what converts queue backlog
        // into goodput for the live requests behind it.
        while survivors < max {
            let drained = shared.queue.try_drain(max - survivors);
            if drained.is_empty() {
                break;
            }
            for (class, request) in drained {
                survivors += usize::from(batch.admit(shared, class, request, slo.as_deref_mut()));
            }
        }
        if batch.outcome.drained > 0 {
            metrics.batch_size.observe(batch.outcome.drained as f64);
        }
        batch.finish(shared, threads)
    }

    /// Closes the queue, drains it, joins the workers, and returns the
    /// final counters. Requests still queued if the pool could not drain
    /// them (a zero-worker server) are answered `ShuttingDown`.
    pub fn shutdown(mut self) -> ServeStats {
        self.shutdown_in_place();
        self.stats()
    }

    fn shutdown_in_place(&mut self) {
        self.shared.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // A zero-worker server (or a panicked pool) may leave requests
        // queued: answer them explicitly rather than dropping channels.
        for (_, request) in self.shared.queue.take_all() {
            self.shared.metrics.abandoned.inc();
            let _ = request.responder.send(Err(ServeError::ShuttingDown));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// A worker: drain a micro-batch, serve it as one batch on one lane, repeat
/// until the queue closes and empties. The batch's buffers live as long as
/// the worker.
fn worker_loop(shared: &Shared) {
    let mut batch = Batch::default();
    loop {
        let drained = shared.queue.drain(shared.batch_size);
        if drained.is_empty() {
            return; // closed and drained
        }
        let _batch = shared.metrics.batch_seconds.start_timer();
        shared.metrics.batch_size.observe(drained.len() as f64);
        batch.open(shared);
        for (class, request) in drained {
            batch.admit(shared, class, request, None);
        }
        batch.finish(shared, 1);
    }
}

/// A recommendation list, or the engine error computing it.
type Computed = Result<Arc<Vec<Recommendation>>, CoreError>;

/// One drained batch: the only place a request is shed, answered from the
/// cache or computed. Both drivers run it (see the module docs).
#[derive(Default)]
struct Batch {
    /// Held from `open` to `finish` only: an idle worker pins no model.
    snapshot: Option<Arc<ModelSnapshot>>,
    epoch: u64,
    degraded: bool,
    /// The virtual tick every deadline in the batch is checked against.
    now: u64,
    /// The unique cache misses, in first-occurrence order.
    misses: Vec<CacheKey>,
    /// Survivors waiting on a miss: its index in `misses`, drained order.
    waiting: Vec<(usize, Request)>,
    outcome: DrainOutcome,
}

impl Batch {
    /// Pins the current snapshot and reads the clock, once for the batch.
    fn open(&mut self, shared: &Shared) {
        let snapshot = shared.switch.pin();
        self.epoch = snapshot.epoch();
        self.degraded = snapshot.engine().source_health().is_degraded();
        self.snapshot = Some(snapshot);
        self.now = shared.clock.now();
    }

    /// Triage of one drained request: shed it if its deadline (explicit,
    /// or derived from `slo`'s class budget) has passed or `slo` is under
    /// pressure for its class; else answer it from the cache, or queue it
    /// on its miss, computed once per `(epoch, agent, n)` in the batch.
    /// Returns whether the request survived shedding.
    fn admit(
        &mut self,
        shared: &Shared,
        class: Priority,
        request: Request,
        slo: Option<&mut SloController>,
    ) -> bool {
        let metrics = &shared.metrics;
        let now = self.now;
        self.outcome.drained += 1;
        let deadline = request.deadline.or_else(|| {
            slo.as_ref().map(|slo| request.submitted_at + slo.deadline_budget(class))
        });
        let expired = deadline.is_some_and(|deadline| now > deadline);
        if expired || slo.as_ref().is_some_and(|slo| slo.should_shed(class)) {
            metrics.count_shed_deadline(class);
            if expired {
                self.outcome.shed_deadline += 1;
            } else {
                metrics.slo_pressure_sheds.inc();
                self.outcome.shed_pressure += 1;
            }
            let _ = request.responder.send(Err(ServeError::DeadlineExceeded {
                deadline: deadline.unwrap_or(now),
                now,
            }));
            return false;
        }
        // Survivor: its wait feeds the SLO window whether it turns out to
        // be a hit, a miss, or an engine error.
        let wait = now.saturating_sub(request.submitted_at);
        metrics.wait_ticks.observe(wait as f64);
        if let Some(slo) = slo {
            slo.record_wait(wait);
        }
        let key = (self.epoch, request.agent, request.n);
        match shared.cache.get(&key) {
            Some(cached) => self.answer(shared, &request, &Ok(cached), true),
            None => {
                let index = self.misses.iter().position(|&miss| miss == key).unwrap_or_else(|| {
                    self.misses.push(key);
                    self.misses.len() - 1
                });
                self.waiting.push((index, request));
            }
        }
        true
    }

    /// Computes the unique misses and, in first-occurrence order, inserts
    /// each into the cache and answers its waiters; then releases the pin.
    /// On one lane a miss is computed inline, so its waiters are answered
    /// the moment it returns. On more, every miss is computed up front,
    /// chunked by index over scoped threads: a lane changes who computes,
    /// never what or into which slot.
    fn finish(&mut self, shared: &Shared, lanes: usize) -> DrainOutcome {
        let snapshot = self.snapshot.take().expect("a batch is opened before it finishes");
        let compute = |&(_, agent, n): &CacheKey| -> Computed {
            snapshot.engine().recommend(agent, n).map(Arc::new)
        };
        let (mut misses, mut waiting) =
            (std::mem::take(&mut self.misses), std::mem::take(&mut self.waiting));
        let lanes = lanes.max(1).min(misses.len());
        let computed: Vec<Computed> = if lanes > 1 {
            std::thread::scope(|scope| {
                let lanes: Vec<_> = misses
                    .chunks(misses.len().div_ceil(lanes))
                    .map(|keys| scope.spawn(move || keys.iter().map(compute).collect::<Vec<_>>()))
                    .collect();
                lanes.into_iter().flat_map(|lane| lane.join().expect("compute lane")).collect()
            })
        } else {
            Vec::new()
        };
        for (index, key) in misses.iter().enumerate() {
            let inline = computed.is_empty().then(|| compute(key));
            let result = inline.as_ref().unwrap_or_else(|| &computed[index]);
            if let Ok(recommendations) = result {
                shared.cache.insert(*key, Arc::clone(recommendations));
            }
            for (_, request) in waiting.iter().filter(|&&(miss, _)| miss == index) {
                self.answer(shared, request, result, false);
            }
        }
        misses.clear();
        waiting.clear();
        (self.misses, self.waiting) = (misses, waiting);
        std::mem::take(&mut self.outcome)
    }

    /// Sends one survivor its answer and counts it.
    fn answer(&mut self, shared: &Shared, request: &Request, result: &Computed, cache_hit: bool) {
        let response = match result {
            Ok(recommendations) => {
                shared.metrics.count_served(request.class);
                self.outcome.served += 1;
                Ok(ServedResponse {
                    recommendations: Arc::clone(recommendations),
                    epoch: self.epoch,
                    cache_hit,
                    class: request.class,
                    degraded: self.degraded,
                })
            }
            Err(e) => {
                shared.metrics.failed.inc();
                self.outcome.failed += 1;
                Err(ServeError::Engine(e.clone()))
            }
        };
        let _ = request.responder.send(response);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::SloConfig;
    use semrec_core::{Community, RecommenderConfig};
    use semrec_taxonomy::fixtures::example1;

    /// A ring community: every agent trusts the next and rates one product.
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

    fn config(workers: usize) -> ServeConfig {
        ServeConfig { workers, ..ServeConfig::default() }
    }

    #[test]
    fn serves_and_matches_the_direct_engine() {
        let (engine, agents) = ring(12);
        let server = Server::start(engine.clone(), config(2));
        for &agent in &agents {
            let response = server.submit(agent, 5).unwrap().wait().unwrap();
            assert_eq!(*response.recommendations, engine.recommend(agent, 5).unwrap());
            assert_eq!(response.epoch, 1);
            assert_eq!(response.class, Priority::Normal);
            assert!(!response.degraded);
        }
        let stats = server.shutdown();
        assert_eq!(stats.submitted, 12);
        assert_eq!(stats.served, 12);
        assert_eq!(stats.class.normal.served, 12);
        assert_eq!(stats.shed(), 0);
    }

    #[test]
    fn repeat_requests_hit_the_cache() {
        let (engine, agents) = ring(6);
        let server = Server::start(engine, config(1));
        let first = server.submit(agents[0], 5).unwrap().wait().unwrap();
        assert!(!first.cache_hit);
        let second = server.submit(agents[0], 5).unwrap().wait().unwrap();
        assert!(second.cache_hit);
        assert_eq!(*first.recommendations, *second.recommendations);
        let cache = server.cache_stats();
        assert_eq!(cache.hits, 1);
        assert_eq!(cache.misses, 1);
    }

    #[test]
    fn admission_control_sheds_with_a_typed_error() {
        let (engine, agents) = ring(6);
        // Zero workers: nothing drains, so the third push must be refused
        // deterministically.
        let server = Server::start(
            engine,
            ServeConfig { workers: 0, queue_capacity: 2, ..ServeConfig::default() },
        );
        let a = server.submit(agents[0], 5).unwrap();
        let b = server.submit(agents[1], 5).unwrap();
        match server.submit(agents[2], 5) {
            Err(ServeError::Overloaded { depth, capacity, class }) => {
                assert_eq!(depth, 2);
                assert_eq!(capacity, 2);
                assert_eq!(class, Priority::Normal);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        let stats = server.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.shed_admission, 1);
        assert_eq!(stats.class.normal.shed, 1);
        // Shutdown answers the queued-but-never-served requests.
        let stats = server.shutdown();
        assert_eq!(stats.shed_admission, 1);
        assert_eq!(a.wait(), Err(ServeError::ShuttingDown));
        assert_eq!(b.wait(), Err(ServeError::ShuttingDown));
    }

    #[test]
    fn high_class_displaces_the_newest_low_request() {
        let (engine, agents) = ring(6);
        let server = Server::start(
            engine,
            ServeConfig { workers: 0, queue_capacity: 2, ..ServeConfig::default() },
        );
        let _keep = server.submit_classed(agents[0], 5, Priority::Low, None).unwrap();
        let victim = server.submit_classed(agents[1], 5, Priority::Low, None).unwrap();
        let urgent = server.submit_classed(agents[2], 5, Priority::High, None).unwrap();
        // The victim resolved immediately with a typed admission shed.
        match victim.try_wait() {
            Some(Err(ServeError::Overloaded { depth, capacity, class })) => {
                assert_eq!(depth, 2);
                assert_eq!(capacity, 2);
                assert_eq!(class, Priority::Low);
            }
            other => panic!("expected displaced Overloaded, got {other:?}"),
        }
        assert!(urgent.try_wait().is_none(), "the urgent request is queued");
        let stats = server.stats();
        assert_eq!(stats.shed_admission, 1);
        assert_eq!(stats.displaced, 1);
        assert_eq!(stats.class.low.shed, 1);
        assert_eq!(stats.class.high.submitted, 1);
        assert_eq!(server.class_depths(), [1, 0, 1]);
    }

    #[test]
    fn stale_queued_requests_are_shed_at_dequeue() {
        let (engine, agents) = ring(6);
        // Zero workers: the two requests queue until this thread runs the
        // worker loop itself. Deadlines at tick 0 and tick 5, clock at tick
        // 3 before any worker runs: exactly one is stale.
        let server = Server::start(engine.clone(), config(0));
        let stale = server.submit_with_deadline(agents[0], 5, Some(0)).unwrap();
        let live = server.submit_with_deadline(agents[1], 5, Some(5)).unwrap();
        server.clock().advance(3);
        server.shared.queue.close();
        worker_loop(&server.shared);
        assert_eq!(
            stale.wait(),
            Err(ServeError::DeadlineExceeded { deadline: 0, now: 3 })
        );
        let ok = live.wait().unwrap();
        assert_eq!(*ok.recommendations, engine.recommend(agents[1], 5).unwrap());
        let stats = server.stats();
        assert_eq!(stats.shed_deadline, 1);
        assert_eq!(stats.served, 1);
    }

    #[test]
    fn drain_step_serves_in_weighted_fair_order_with_slo_deadlines() {
        let (engine, agents) = ring(8);
        let server = Server::start(engine.clone(), config(0));
        let mut slo = SloController::new(SloConfig::default());
        let low = server.submit_classed(agents[0], 5, Priority::Low, None).unwrap();
        let high = server.submit_classed(agents[1], 5, Priority::High, None).unwrap();
        let outcome = server.drain_step(8, 2, Some(&mut slo));
        assert_eq!(outcome.drained, 2);
        assert_eq!(outcome.served, 2);
        let high = high.try_wait().expect("resolved").unwrap();
        assert_eq!(high.class, Priority::High);
        assert_eq!(*high.recommendations, engine.recommend(agents[1], 5).unwrap());
        assert!(low.try_wait().expect("resolved").is_ok());
        // A Low request older than its 32-tick budget is shed at dequeue.
        let stale = server.submit_classed(agents[2], 5, Priority::Low, None).unwrap();
        server.clock().advance(33);
        let outcome = server.drain_step(8, 1, Some(&mut slo));
        assert_eq!(outcome.shed_deadline, 1);
        assert!(matches!(
            stale.try_wait(),
            Some(Err(ServeError::DeadlineExceeded { deadline: 32, now: 33 }))
        ));
        server.shutdown();
    }

    #[test]
    fn drain_step_is_identical_across_thread_counts() {
        let (engine, agents) = ring(10);
        let mut baseline: Option<(DrainOutcome, Vec<ServeResult>)> = None;
        for threads in [1usize, 2, 8] {
            let server = Server::start(engine.clone(), config(0));
            let tickets: Vec<_> = (0..10)
                .map(|i| {
                    server
                        .submit_classed(agents[i % agents.len()], 5, Priority::ALL[i % 3], None)
                        .unwrap()
                })
                .collect();
            let outcome = server.drain_step(16, threads, None);
            let results: Vec<ServeResult> =
                tickets.iter().map(|t| t.try_wait().expect("resolved")).collect();
            match &baseline {
                None => baseline = Some((outcome, results)),
                Some((expected_outcome, expected)) => {
                    assert_eq!(outcome, *expected_outcome, "threads={threads}");
                    assert_eq!(results, *expected, "threads={threads}");
                }
            }
            server.shutdown();
        }
    }

    #[test]
    fn engine_errors_come_back_typed() {
        let (engine, _) = ring(4);
        let server = Server::start(engine, config(1));
        let bogus = AgentId::from_index(999);
        let result = server.submit(bogus, 5).unwrap().wait();
        assert!(matches!(result, Err(ServeError::Engine(_))), "{result:?}");
        assert_eq!(server.stats().failed, 1);
    }

    #[test]
    fn publish_swaps_epoch_and_invalidates_the_cache() {
        let (engine, agents) = ring(8);
        let server = Server::start(engine.clone(), config(2));
        let before = server.submit(agents[0], 5).unwrap().wait().unwrap();
        assert_eq!(before.epoch, 1);

        let (engine2, _) = ring(8);
        assert_eq!(server.publish(engine2.clone()), 2);
        let after = server.submit(agents[0], 5).unwrap().wait().unwrap();
        assert_eq!(after.epoch, 2);
        assert!(!after.cache_hit, "epoch 1 entries must not answer epoch 2");
        assert_eq!(*after.recommendations, engine2.recommend(agents[0], 5).unwrap());
        assert!(server.cache_stats().invalidated >= 1);
    }

    #[test]
    fn publish_delta_carries_clean_entries_across_the_swap() {
        use semrec_core::ModelDelta;

        // Large enough that the 6-hop reverse closure of one change stays
        // a minority (7 of 20 agents) and the plan is not wholesale.
        let (engine, agents) = ring(20);
        let server = Server::start(engine.clone(), config(1));
        // Warm the cache for every agent on epoch 1.
        for &agent in &agents {
            assert!(!server.submit(agent, 5).unwrap().wait().unwrap().cache_hit);
        }

        // Next generation: agent 3 re-rates one product.
        let mut next = engine.community().clone();
        let products: Vec<_> = next.catalog.iter().collect();
        next.set_rating(agents[3], products[1], -0.5).unwrap();
        let uri = next.agent(agents[3]).unwrap().uri.clone();
        let delta = ModelDelta { ratings_changed: vec![uri], trust_changed: Vec::new() };
        let plan = SwapPlan::compute(
            engine.community(),
            &next,
            &delta,
            engine.config().neighborhood.appleseed.max_range,
            SwapPlan::DEFAULT_MAX_DIRTY_FRACTION,
        );
        let (engine2, _) = engine.advance(next, &delta, *engine.source_health());

        let report = server.publish_delta(engine2.clone(), &plan);
        assert_eq!(report.epoch, 2);
        assert!(!report.wholesale);
        assert!(report.carried > 0, "clean agents must carry: {report:?}");
        assert!(report.invalidated > 0, "dirty agents must drop: {report:?}");

        // The serving invariant: every answer — carried or recomputed — is
        // byte-identical to an engine recompute on the live snapshot.
        for &agent in &agents {
            let response = server.submit(agent, 5).unwrap().wait().unwrap();
            assert_eq!(response.epoch, 2);
            assert_eq!(
                *response.recommendations,
                engine2.recommend(agent, 5).unwrap(),
                "agent {agent:?} answer must match the live snapshot"
            );
            assert_eq!(
                response.cache_hit,
                plan.carryable(agent),
                "exactly the carried agents answer from cache"
            );
        }
        assert_eq!(server.cache_stats().carried, report.carried as u64);
        server.shutdown();
    }

    #[test]
    fn wholesale_plan_degrades_to_full_invalidation() {
        use semrec_core::ModelDelta;

        let (engine, agents) = ring(4);
        let server = Server::start(engine.clone(), config(1));
        for &agent in &agents {
            server.submit(agent, 5).unwrap().wait().unwrap();
        }
        // Membership change: a ring of 5 renumbers nothing here, but the
        // URI↔id mapping check sees the extra agent and refuses to carry.
        let (engine2, _) = ring(5);
        let plan = SwapPlan::compute(
            engine.community(),
            engine2.community(),
            &ModelDelta::default(),
            engine.config().neighborhood.appleseed.max_range,
            SwapPlan::DEFAULT_MAX_DIRTY_FRACTION,
        );
        assert!(plan.wholesale());
        let report = server.publish_delta(engine2.clone(), &plan);
        assert_eq!(report.carried, 0);
        assert_eq!(report.invalidated, 4);
        let response = server.submit(agents[0], 5).unwrap().wait().unwrap();
        assert!(!response.cache_hit);
        assert_eq!(*response.recommendations, engine2.recommend(agents[0], 5).unwrap());
        server.shutdown();
    }

    #[test]
    fn drop_shuts_down_without_hanging() {
        let (engine, agents) = ring(6);
        let server = Server::start(engine, config(4));
        for &agent in &agents {
            let _ = server.submit(agent, 3);
        }
        drop(server); // must join cleanly
    }
}
