//! # semrec-p2p — gossip-based neighborhood formation, peer to peer
//!
//! §2 frames the Semantic Web as an *asynchronous, data-centric*
//! environment with no central crawler. After Diaz-Aviles, Schmidt-Thieme
//! & Ziegler (*Emergence of Spontaneous Order Through Neighborhood Formation
//! in Peer-to-Peer Recommender Systems*), the question is what happens when
//! every agent runs its own node. This crate simulates exactly
//! that: N peers on the shared virtual-tick axis, each one a self-contained
//! composition of subsystems that already exist —
//!
//! * a **bounded local crawl** of its own homepage surroundings
//!   (`semrec-web`: [`FaultPlan`](semrec_web::fault::FaultPlan) faults,
//!   [`FetchPolicy`](semrec_web::policy::FetchPolicy) retries, a per-peer
//!   [`CircuitBreaker`](semrec_web::policy::CircuitBreaker) that carries
//!   over from crawling into gossip);
//! * a **local knowledge base** of [`record::AgentRecord`]s — each gossip
//!   candidate is the triple *(agent URI, trust weight, taxonomy-profile
//!   digest)* — merged into a local trust neighborhood with the ordinary
//!   `semrec-trust` ranking machinery;
//! * an optional **per-peer `semrec-store` checkpoint** of the node's
//!   local community slice.
//!
//! Peers exchange candidates through deterministic push/pull gossip rounds
//! ([`sim::P2pSimulation::step`]): seeded partner selection, configurable
//! fan-out, a message-size cap, and a per-record forwarding TTL. Dead or
//! faulty peers simply stop answering; the breaker quarantines them and the
//! rest of the swarm routes around. Convergence of each peer's top-k
//! neighborhood toward the centralized model's is measured by
//! [`measure::centralized_baseline`] / [`sim::P2pSimulation::convergence`]
//! (overlap@k and rank correlation), and every message is accounted in the
//! simulation's own `p2p.*` books ([`sim::P2pSimulation::metrics`]).
//!
//! The whole simulation is byte-identical across runs and thread counts:
//! every random-looking decision is a stateless
//! [`semrec_hash::stable_hash`] of `(seed, key, round, salt)`, and each
//! round is a lockstep *parallel pure compute → sequential sorted-order
//! merge* cycle, the same pattern the crawler and the sharded exchange use
//! (DESIGN.md §7).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod measure;
pub mod peer;
pub mod record;
pub mod sim;

pub use config::GossipConfig;
pub use measure::{centralized_baseline, overlap_at_k, rank_correlation, Baseline, Convergence};
pub use peer::PeerNode;
pub use record::{AgentRecord, Candidate};
pub use sim::{GossipStats, P2pSimulation};

/// Salt for deriving each peer's retry-jitter seed from the gossip seed.
pub(crate) const SALT_POLICY: u64 = 0x8c67_94b1_2a4e_9d63;
/// Salt for gossip partner selection.
pub(crate) const SALT_PARTNER: u64 = 0x51af_27ce_83b5_6f19;
/// Salt for payload rotation (which known records a message carries).
pub(crate) const SALT_PAYLOAD: u64 = 0xe3c1_5a97_44d2_0b8b;
/// Salt for per-round peer availability (transient gossip faults).
pub(crate) const SALT_GOSSIP: u64 = 0x7b6d_f0a3_9c28_e547;
