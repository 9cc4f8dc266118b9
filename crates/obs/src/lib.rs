//! # semrec-obs — observability for the semrec pipeline
//!
//! A small, dependency-free observability layer shared by every crate in
//! the workspace. Three pieces:
//!
//! * **[`MetricsRegistry`]** — thread-safe named [`Counter`]s, [`Gauge`]s
//!   and fixed-bucket [`Histogram`]s. Handles are `Arc`-backed and cheap to
//!   clone, so hot loops fetch once and increment lock-free. Snapshots are
//!   `BTreeMap`-ordered for deterministic rendering and comparison, and
//!   [`MetricsRegistry::reset`] zeroes in place so cached handles survive
//!   across experiment runs.
//! * **[`span`] / [`TraceTree`]** — scoped stage timers. A guard times the
//!   region until drop, records wall time into the registry histogram of
//!   the same name, and nests into a per-thread trace tree drained with
//!   [`take_trace`].
//! * **[`Observer`]** — an event-sink trait for coarse milestones (span
//!   ends, crawl fetches, run markers), with [`RingBufferObserver`] as the
//!   default in-memory implementation (drop-oldest on overflow) and a text
//!   formatter.
//!
//! A subsystem either owns a [`MetricsRegistry`] or records into the
//! process-wide [`global`] one. `semrec-serve` owns: every `serve.*` name
//! lives in the registry of the `Server` that produced it and is read with
//! `Server::metrics()` — per server, nothing to reset, nothing shared. The
//! global registry carries the engine, web, store, shard and p2p names
//! only, recorded through the free functions:
//!
//! ```
//! let runs = semrec_obs::counter("appleseed.runs");
//! runs.inc();
//! {
//!     let _timer = semrec_obs::span("engine.stage.synthesis");
//!     // ... the timed stage ...
//! }
//! let snapshot = semrec_obs::global().snapshot();
//! assert!(snapshot.counters["appleseed.runs"] >= 1);
//! assert!(snapshot.histograms["engine.stage.synthesis"].count >= 1);
//! ```
//!
//! ## Determinism contract
//!
//! Counters and gauges record *what* the pipeline did, never how long it
//! took, so for a fixed input and seed their values are identical across
//! runs and thread counts (worker-indexed counters aside). Timing lives
//! only in histograms fed by [`span`] guards; determinism tests compare
//! counter maps and ignore histogram sums. See `tests/determinism.rs` at
//! the workspace root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod observer;
mod trace;

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, HistogramSummary, MetricsRegistry,
    MetricsSnapshot, DEFAULT_BUCKETS, TICK_BUCKETS,
};
pub use observer::{Event, EventKind, Observer, RingBufferObserver};
pub use trace::{span, take_trace, SpanGuard, SpanNode, TraceTree};

use std::sync::OnceLock;

/// The process-wide registry used by the pipeline's instrumentation.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Handle to the global registry's counter `name`.
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// Handle to the global registry's gauge `name`.
pub fn gauge(name: &str) -> Gauge {
    global().gauge(name)
}

/// Handle to the global registry's histogram `name`.
pub fn histogram(name: &str) -> Histogram {
    global().histogram(name)
}

/// Emits an event to the global registry's observers.
pub fn emit(event: Event) {
    global().emit(event);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn global_is_one_registry() {
        counter("obs.test.global").add(2);
        assert_eq!(global().counter("obs.test.global").get(), 2);
    }

    #[test]
    fn events_reach_registered_observers() {
        let ring = Arc::new(RingBufferObserver::new(8));
        let registry = MetricsRegistry::new();
        registry.add_observer(ring.clone());
        registry.emit(Event::marker("begin"));
        registry.emit_value("x", EventKind::Count(3));
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.events()[0].name, "begin");
        registry.clear_observers();
        registry.emit(Event::marker("after"));
        assert_eq!(ring.len(), 2, "cleared observer no longer receives");
    }
}
