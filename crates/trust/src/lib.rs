//! # semrec-trust — trust networks and local group trust metrics
//!
//! Implements the first pillar of the paper (§3.2): the set `T` of partial
//! trust functions `t_i: A → [-1, +1]⊥` and the metrics that turn it into
//! subjective *trust neighborhoods*. [`graph::TrustGraph`] is the mutable
//! builder statements are written into; [`csr::CsrGraph`] is what
//! [`CsrGraph::from_graph`] freezes it to, and the only form Appleseed and
//! neighborhood formation read (Advogato and the scalar baselines still walk
//! the builder):
//!
//! * [`appleseed`] — the paper's own spreading-activation local group trust
//!   metric (ref \[12\]), assigning continuous trust ranks;
//! * [`advogato`] — Levien's max-flow certification metric (ref \[11\]), the
//!   boolean baseline, on top of a Dinic solver ([`maxflow`]);
//! * [`scalar`] — pairwise baselines (multiplicative path trust, global
//!   mean reputation) the paper argues are insufficient;
//! * [`neighborhood`] — neighborhood formation: threshold/cap the ranking;
//! * [`stamped`] — the dense stamped index every per-query scratch in the
//!   workspace keys its dense ids with.
//!
//! ```
//! use semrec_trust::{CsrGraph, TrustGraph, appleseed::{appleseed, AppleseedParams}};
//!
//! let mut g = TrustGraph::with_agents(3);
//! let ids: Vec<_> = g.agents().collect();
//! g.set_trust(ids[0], ids[1], 0.9).unwrap();
//! g.set_trust(ids[1], ids[2], 0.8).unwrap();
//! let frozen = CsrGraph::from_graph(&g);
//! let result = appleseed(&frozen, ids[0], &AppleseedParams::default()).unwrap();
//! assert!(result.rank_of(ids[1]) > result.rank_of(ids[2]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advogato;
pub mod agent;
pub mod appleseed;
pub mod csr;
pub mod error;
pub mod graph;
pub mod maxflow;
pub mod neighborhood;
pub mod scalar;
pub mod stamped;

pub use agent::AgentId;
pub use csr::CsrGraph;
pub use error::{Result, TrustError};
pub use graph::TrustGraph;
pub use neighborhood::{form_neighborhood_csr, NeighborhoodParams, TrustNeighborhood};
