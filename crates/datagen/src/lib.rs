//! # semrec-datagen — synthetic decentralized communities
//!
//! The paper's experiments ran on data crawled from All Consuming and
//! Advogato (≈9,100 users, 9,953 Amazon-categorized books, §4.1). That
//! infrastructure no longer exists, so this crate generates communities
//! with the same statistical structure — sparse homophilous trust networks,
//! latent-interest-driven implicit ratings, Zipf popularity, Amazon-shaped
//! taxonomies — with every knob the experiments sweep exposed and seeded
//! determinism throughout. See DESIGN.md §1 for the substitution argument.
//!
//! **Cost.** Each Zipf law is built once per domain — the catalog's, and
//! one per interest pool, kept beside the pool — and then only sampled, at
//! one binary search a draw. The taxonomy's ancestry tests climb parent
//! chains without allocating. Generation is therefore linear in the
//! ratings drawn, in the pool sizes (each distinct interest root costs one
//! catalog scan to collect its pool) and in the trust candidates scored:
//! the 9,100-agent `paper_scale` world takes about 0.3 s in release on a
//! 2-CPU host.
//!
//! ```
//! use semrec_datagen::community::{generate_community, CommunityGenConfig};
//!
//! let generated = generate_community(&CommunityGenConfig::small(42));
//! assert_eq!(generated.community.agent_count(), 200);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod catalog_gen;
pub mod community;
pub mod taxonomy_gen;
pub mod zipf;

pub use attack::{inject_attack, inject_profile_copy_attack, AttackConfig, AttackStrategy};
pub use community::{generate_community, CommunityGenConfig, GeneratedCommunity};
pub use taxonomy_gen::{generate_taxonomy, TaxonomyGenConfig};
pub use zipf::Zipf;
