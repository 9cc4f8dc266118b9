//! # semrec-shard — the partitioned agent universe
//!
//! Scaling the Ziegler (EDBT 2004) recommender past what one model can
//! hold: agents are partitioned into N shards by a pluggable [`ShardFn`],
//! each shard owning its own trust subgraph, ratings, materialized
//! profiles, and `semrec-store` snapshot/WAL generation. The paper's
//! decentralized framing — agent data scattered across machine-readable
//! homepages, merged by whoever computes — maps directly onto shards as
//! the unit of distribution.
//!
//! The load-bearing piece is **cross-shard Appleseed**
//! ([`mod@crate::appleseed`]): `semrec-trust`'s one Appleseed kernel run
//! with each shard as a partition. Spreading activation runs locally per
//! shard, energy crossing a shard boundary is summed per destination node
//! before the barrier, and lockstep exchange rounds deliver one packet per
//! (sending shard, destination node) until the global residual converges.
//! A query runs on its caller's thread, and the queries of a batch run in
//! parallel. The protocol is deterministic
//! across compute-thread counts and shard scheduling order, bit-identical
//! at every shard count to the straightforward loop kept as its test
//! oracle — and at N=1 it degenerates to the exact global algorithm, byte
//! for byte.
//!
//! * [`ShardedModel`] — partition, serve, and incrementally advance; each
//!   [`Shard`] carries a `serve_epoch` that an advance moves only on shards
//!   within trust range of the delta, so answers for agents on every other
//!   shard are bit-identical across it (what a cache in front may rely on)
//! * [`ShardedStore`] — per-shard durable snapshots + WAL, a directory log
//!   and per-shard boundary logs (layout in [`persist`])

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod appleseed;
pub mod model;
pub mod partition;
pub mod persist;

pub use appleseed::ShardedAppleseedResult;
pub use model::{Shard, ShardBuildReport, ShardedAdvanceReport, ShardedModel};
pub use partition::{cut_edges, CommunityShardFn, Directory, GlobalId, HashShardFn, ShardFn};
pub use persist::{ShardedRecovery, ShardedStore};
