//! # semrec — Semantic Web Recommender Systems
//!
//! A complete Rust implementation of the decentralized recommender framework
//! of Ziegler, *"Semantic Web Recommender Systems"* (EDBT 2004 PhD
//! workshop): trust-network neighborhood formation (Appleseed) combined
//! with taxonomy-driven interest profiles over an RDF document web.
//!
//! This facade crate re-exports every subsystem:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`rdf`] | `semrec-rdf` | RDF model, Turtle/N-Triples, FOAF + trust vocabularies |
//! | [`taxonomy`] | `semrec-taxonomy` | taxonomy `C`, products `B`, descriptors `f` |
//! | [`trust`] | `semrec-trust` | trust graph `T`, Appleseed, Advogato, baselines |
//! | [`profiles`] | `semrec-profiles` | Eq. 3 profile generation, Pearson/cosine |
//! | [`core`] | `semrec-core` | the unified recommendation pipeline |
//! | [`web`] | `semrec-web` | simulated document web, homepages, crawler |
//! | [`datagen`] | `semrec-datagen` | §4.1-scale synthetic communities |
//! | [`eval`] | `semrec-eval` | splits, metrics, baselines, tables |
//! | [`obs`] | `semrec-obs` | instance-owned metrics registry, handles, snapshot |
//! | [`serve`] | `semrec-serve` | concurrent serving: snapshot swap, admission control, batching |
//! | [`store`] | `semrec-store` | durable checkpoints, delta WAL, crash-recoverable warm starts |
//! | [`shard`] | `semrec-shard` | partitioned universe, cross-shard Appleseed, per-shard persistence |
//! | [`p2p`] | `semrec-p2p` | peer-to-peer deployment: per-peer crawls, gossip neighborhood formation |
//!
//! See `examples/quickstart.rs` for the five-minute tour, and DESIGN.md /
//! EXPERIMENTS.md for the paper-reproduction map.

#![forbid(unsafe_code)]

pub use semrec_core as core;
pub use semrec_datagen as datagen;
pub use semrec_eval as eval;
pub use semrec_obs as obs;
pub use semrec_p2p as p2p;
pub use semrec_profiles as profiles;
pub use semrec_rdf as rdf;
pub use semrec_serve as serve;
pub use semrec_shard as shard;
pub use semrec_store as store;
pub use semrec_taxonomy as taxonomy;
pub use semrec_trust as trust;
pub use semrec_web as web;

pub use semrec_core::{
    AgentId, Community, ProductId, Recommendation, Recommender, RecommenderConfig, TopicId,
};
