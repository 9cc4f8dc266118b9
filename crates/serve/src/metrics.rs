//! The server's books: a registry the [`Server`](crate::server::Server)
//! owns and one handle per `serve.*` name in it, resolved when the server
//! starts. Serving code records through the handles — an atomic add, no
//! name lookup — and `Server::{stats, cache_stats, metrics}` read the same
//! cells, so no other server and no engine code can write into them.

use semrec_obs::{Counter, Gauge, Histogram, MetricsRegistry, TICK_BUCKETS};

use crate::cache::CacheCounters;
use crate::class::Priority;

/// One handle per `serve.*` name (see the README's serving metric table);
/// per-class handles are indexed by [`Priority::index`].
pub(crate) struct ServeMetrics {
    pub registry: MetricsRegistry,
    pub submitted: Counter,
    pub served: Counter,
    pub shed: Counter,
    pub shed_admission: Counter,
    pub shed_deadline: Counter,
    pub displaced: Counter,
    pub failed: Counter,
    pub abandoned: Counter,
    pub class_submitted: [Counter; Priority::COUNT],
    pub class_served: [Counter; Priority::COUNT],
    pub class_shed: [Counter; Priority::COUNT],
    pub queue_depth: Gauge,
    pub workers: Gauge,
    pub workers_active: Gauge,
    pub scale_events: Counter,
    pub batch_seconds: Histogram,
    pub batch_size: Histogram,
    pub wait_ticks: Histogram,
    pub slo_violations: Counter,
    pub slo_pressure_sheds: Counter,
    pub slo_pressure: Gauge,
    pub slo_observed_p99: Gauge,
    pub slo_goodput: [Counter; Priority::COUNT],
    pub snapshot_epoch: Gauge,
    pub snapshot_swaps: Counter,
}

impl ServeMetrics {
    /// A fresh registry with every name registered at zero, and the
    /// handles a [`RecCache`](crate::cache::RecCache) counts on.
    pub fn new() -> (ServeMetrics, CacheCounters) {
        let registry = MetricsRegistry::new();
        let counter = |name: &str| registry.counter(name);
        let cache = CacheCounters {
            hits: counter("serve.cache.hits"),
            misses: counter("serve.cache.misses"),
            evictions: counter("serve.cache.evictions"),
            invalidated: counter("serve.cache.invalidated"),
            carried: counter("serve.cache.carried"),
        };
        let metrics = ServeMetrics {
            submitted: counter("serve.requests.submitted"),
            served: counter("serve.requests.served"),
            shed: counter("serve.requests.shed"),
            shed_admission: counter("serve.requests.shed.admission"),
            shed_deadline: counter("serve.requests.shed.deadline"),
            displaced: counter("serve.requests.displaced"),
            failed: counter("serve.requests.failed"),
            abandoned: counter("serve.requests.abandoned"),
            class_submitted: Priority::ALL.map(|c| counter(&format!("serve.class.{c}.submitted"))),
            class_served: Priority::ALL.map(|c| counter(&format!("serve.class.{c}.served"))),
            class_shed: Priority::ALL.map(|c| counter(&format!("serve.class.{c}.shed"))),
            queue_depth: registry.gauge("serve.queue.depth"),
            workers: registry.gauge("serve.workers"),
            workers_active: registry.gauge("serve.workers.active"),
            scale_events: counter("serve.workers.scale_events"),
            batch_seconds: registry.histogram("serve.batch"),
            batch_size: registry.histogram("serve.batch.size"),
            wait_ticks: registry.histogram_with_buckets("serve.wait.ticks", &TICK_BUCKETS),
            slo_violations: counter("serve.slo.violations"),
            slo_pressure_sheds: counter("serve.slo.pressure_sheds"),
            slo_pressure: registry.gauge("serve.slo.pressure"),
            slo_observed_p99: registry.gauge("serve.slo.observed_p99_ticks"),
            slo_goodput: Priority::ALL.map(|c| counter(&format!("serve.slo.goodput.{c}"))),
            snapshot_epoch: registry.gauge("serve.snapshot.epoch"),
            snapshot_swaps: counter("serve.snapshot.swaps"),
            registry,
        };
        (metrics, cache)
    }

    /// A request of `class` was answered with a recommendation list.
    pub fn count_served(&self, class: Priority) {
        self.served.inc();
        self.class_served[class.index()].inc();
    }

    /// A request of `class` was dropped at dequeue, past its deadline or
    /// under SLO pressure.
    pub fn count_shed_deadline(&self, class: Priority) {
        self.shed.inc();
        self.shed_deadline.inc();
        self.slo_violations.inc();
        self.class_shed[class.index()].inc();
    }

    /// A request of `class` was refused at admission or displaced.
    pub fn count_shed_admission(&self, class: Priority) {
        self.shed.inc();
        self.shed_admission.inc();
        self.class_shed[class.index()].inc();
    }
}
