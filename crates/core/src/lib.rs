//! # semrec-core — the unified Semantic Web recommender framework
//!
//! The paper's primary contribution (§3): one coherent framework combining
//! *trust networks* and *taxonomy-based profile generation* for
//! recommendation making in decentralized scenarios, where "all user and
//! rating data \[is\] distributed throughout the Semantic Web" and every
//! computation runs locally for one given user.
//!
//! Pipeline (see [`engine::Recommender`]):
//!
//! 1. **Trust neighborhood formation** (§3.2) — Appleseed ranks the peers
//!    the target subjectively deems trustworthy (`semrec-trust`);
//! 2. **Similarity-based filtering** (§3.3) — taxonomy-driven profiles are
//!    compared with Pearson/cosine (`semrec-profiles`);
//! 3. **Rank synthesization** (§3.4) — trust and similarity ranks merge
//!    into one weight per peer behind the pluggable [`rank::Ranker`] trait
//!    ([`synthesis`] holds the strategy ablation the paper calls for;
//!    [`rank::SpreadingActivationRanker`] closes the §5 future-work gap
//!    with two-phase spreading activation over the merged trust +
//!    taxonomy graph);
//! 4. **Recommendation generation** (§3.4) — weighted peer voting, plus the
//!    content-driven "untouched categories" novelty scheme ([`recommend`])
//!    and the topic-diversification extension ([`diversify`]).
//!
//! ```
//! use semrec_core::{Community, Recommender, RecommenderConfig};
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
//! let recs = engine.recommend(alice, 10).unwrap();
//! assert_eq!(recs[0].product, products[0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod delta;
pub mod diversify;
pub mod engine;
pub mod explain;
pub mod error;
pub mod health;
mod metrics;
pub mod model;
pub mod profiles;
pub mod rank;
pub mod recommend;
pub mod synthesis;

pub use batch::recommend_batch;
pub use delta::{AdvanceStats, ModelDelta, SwapPlan};
pub use engine::{PipelineTrace, Recommender, RecommenderConfig, SharedModel};
pub use explain::{Explanation, Voter};
pub use error::{CoreError, Result};
pub use health::SourceHealth;
pub use model::{AgentInfo, Community};
pub use profiles::{ProfileStore, SimilarityMeasure};
pub use rank::{
    BlendWeights, RankContext, RankReport, RankedPeer, Ranker, ScoreComponents, SharedRanker,
    SimilarityRanker, SpreadResult, SpreadingActivationRanker, SpreadingParams,
};
pub use recommend::{Recommendation, VotingParams};
pub use synthesis::{PeerScores, SynthesisStrategy};

// Re-export the substrate id types so downstream users need only this crate.
pub use semrec_taxonomy::{ProductId, TopicId};
pub use semrec_trust::AgentId;
