//! # semrec-serve — concurrent recommendation serving
//!
//! The paper's framework is meant to answer *live* requests in a
//! decentralized, high-churn environment; this crate is the serving
//! substrate in front of [`semrec_core::Recommender`]. Std-only (threads,
//! mutexes, channels), consistent with the workspace's vendored-deps
//! constraint. Four pieces:
//!
//! * **[`SnapshotSwitch`] / [`ModelSnapshot`]** — the epoch-versioned
//!   model. A crawl/refresh round publishes a new generation while
//!   requests are in flight; readers pin the generation they started on,
//!   and the old one drops with its last reader. Serving never pauses.
//! * **[`WeightedFairQueue`]** — admission control with priority classes.
//!   Every request carries a [`Priority`]; at capacity, submission fails
//!   fast with [`ServeError::Overloaded`] (or displaces a
//!   strictly-lower-class request) instead of queuing without bound,
//!   dequeue is deficit-round-robin weighted by class, and requests whose
//!   virtual-tick deadline passed while queued are shed at dequeue
//!   ([`ServeError::DeadlineExceeded`]) rather than served late.
//! * **[`Server`]** — one batch rule under two drivers. A batch pins one
//!   snapshot and one virtual `now`, sheds what expired, answers hits from
//!   a sharded per-snapshot LRU ([`RecCache`]) keyed by `(epoch, agent, n)`
//!   — a stale generation can never answer, because the epoch is part of
//!   the key — and computes each distinct miss once. Pool workers drain
//!   micro-batches (up to `batch_size` per lock acquisition); zero-worker
//!   servers drain through the lockstep [`Server::drain_step`], the
//!   deterministic driver the SLO machinery rides on.
//! * **[`slo`]** — SLO enforcement: per-class deadline budgets, an exact
//!   sliding-window p99 pressure controller ([`SloController`]) that sheds
//!   `Low` before `Normal` and never pressure-sheds `High`, and a
//!   hysteretic queue-depth autoscaler ([`WorkerScaler`]) for the drain
//!   width.
//! * **[`loadgen`]** — the deterministic load driver: the open-loop
//!   [`run_open_loop`] (Poisson / diurnal / flash-crowd arrivals on the
//!   virtual tick axis, seeded Zipf over the agent panel) reporting
//!   per-class wait percentiles in ticks and goodput-under-SLO.
//!
//! Everything observable is a `serve.*` metric (see the README's serving
//! metric table) in a registry the [`Server`] owns, counted once on a
//! handle resolved at start and read back with [`Server::metrics`], so
//! servers never share a count.
//!
//! ```
//! use semrec_core::{Community, Recommender, RecommenderConfig};
//! use semrec_serve::{ServeConfig, Server};
//! use semrec_taxonomy::fixtures::example1;
//!
//! let e = example1();
//! let products: Vec<_> = e.catalog.iter().collect();
//! let mut community = Community::new(e.fig.taxonomy, e.catalog);
//! let alice = community.add_agent("http://example.org/alice").unwrap();
//! let bob = community.add_agent("http://example.org/bob").unwrap();
//! community.trust.set_trust(alice, bob, 0.9).unwrap();
//! community.set_rating(bob, products[0], 1.0).unwrap();
//!
//! let engine = Recommender::new(community, RecommenderConfig::default());
//! let server = Server::start(engine, ServeConfig::default());
//! let response = server.submit(alice, 10).unwrap().wait().unwrap();
//! assert_eq!(response.recommendations[0].product, products[0]);
//! assert_eq!(response.epoch, 1);
//! ```
//!
//! ## Determinism contract
//!
//! Recommendations served through the pool are byte-identical to direct
//! [`Recommender::recommend`](semrec_core::Recommender::recommend) calls,
//! for any worker count: the pipeline is a pure function of the pinned
//! snapshot, the cache only ever returns what the same snapshot computed,
//! and deadlines are checked against the *virtual* [`TickClock`] that only
//! the caller advances. Wall time appears solely in the `serve.batch`
//! histogram.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod class;
pub mod clock;
pub mod error;
pub mod loadgen;
mod metrics;
pub mod server;
pub mod slo;
pub mod snapshot;
pub mod wfq;

pub use cache::{CacheKey, CacheStats, RecCache};
pub use class::{PerClass, Priority};
pub use clock::TickClock;
pub use error::{Result, ServeError};
pub use loadgen::{
    run_open_loop, run_open_loop_with, ArrivalProcess, ClassReport, OpenLoopConfig,
    OpenLoopReport,
};
pub use server::{
    ClassStats, DrainOutcome, PublishReport, ServeConfig, ServeStats, ServedResponse, Server,
    Ticket,
};
pub use slo::{ScalerConfig, SloConfig, SloController, WorkerScaler};
pub use snapshot::{ModelSnapshot, SnapshotSwitch};
pub use wfq::{Admitted, PushRefused, WeightedFairQueue};
