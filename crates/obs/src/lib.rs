//! # semrec-obs — instance-owned metrics for the semrec pipeline
//!
//! A small, dependency-free metrics layer: a [`MetricsRegistry`] of named
//! [`Counter`]s, [`Gauge`]s and fixed-bucket [`Histogram`]s, the
//! `Arc`-backed handles it hands out, and the [`MetricsSnapshot`] it is read
//! through (`BTreeMap`-ordered, so it renders and compares
//! deterministically). Nothing in the crate is process-wide: a registry is
//! a value, and whoever builds one owns it.
//!
//! ## Leaves return, owners record
//!
//! A leaf function — `appleseed`, `crawl`, `vote`, `encode_v2`, a
//! `Ranker` — records nothing and returns what it did (`AppleseedResult`,
//! `CrawlResult`, `AdvanceStats`, `CheckpointReport`, …). The instance that
//! called it owns the books: a private struct of handles resolved once at
//! construction, and one `metrics() -> MetricsSnapshot`. The owners are
//! `Recommender` (`engine.*`, `model.*`, `batch.*`, `rank.*`), `Server`
//! (`serve.*`), `Store` (`store.*`), `ShardedModel` (`shard.*`),
//! `ShardedStore` (`shard.store.*`), `DocumentWeb` (`web.store.*`) and
//! `P2pSimulation` (`p2p.*`). Two owners in one process never see each
//! other's work, so tests read exact values with no reset and no lock.
//!
//! ```
//! use semrec_obs::MetricsRegistry;
//!
//! struct Books { registry: MetricsRegistry, runs: semrec_obs::Counter }
//! let registry = MetricsRegistry::new();
//! let books = Books { runs: registry.counter("engine.runs"), registry };
//! books.runs.inc(); // an atomic add, no name lookup
//! assert_eq!(books.registry.snapshot().counters["engine.runs"], 1);
//! ```
//!
//! ## Determinism contract
//!
//! Counters and gauges record *what* an owner did, never how long it took,
//! so for a fixed input and seed their values are identical across runs and
//! thread counts (worker-indexed counters aside). Timing lives only in
//! histograms fed by [`Histogram::start_timer`] guards; determinism tests
//! compare counter maps and ignore histogram sums. See
//! `tests/determinism.rs` at the workspace root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, HistogramSummary, HistogramTimer,
    MetricsRegistry, MetricsSnapshot, DEFAULT_BUCKETS, TICK_BUCKETS,
};
