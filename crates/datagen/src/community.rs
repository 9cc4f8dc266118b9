//! Synthetic community generation — the §4.1 dataset substitution.
//!
//! The paper mined ≈9,100 users from All Consuming and Advogato with trust
//! statements and implicit book ratings, plus Amazon's taxonomy and
//! categorization for 9,953 books. This generator reproduces the statistical
//! structure those crawls exhibit and the algorithms are sensitive to:
//!
//! * **latent interests** — each agent favors a few taxonomy subtrees, and
//!   ratings fall inside them with configurable fidelity;
//! * **heavy-tailed popularity** — products are picked through a Zipf law;
//! * **sparse, homophilous trust** — trust edges prefer agents with shared
//!   interests (knob `homophily`, the mechanism behind the trust ↔
//!   similarity correlation of ref \[5\]; set it to 0 to ablate) blended with
//!   preferential attachment (scale-free in-degree, Advogato-like);
//! * **implicit, mostly positive ratings** — mentions are likes, with an
//!   optional fraction of explicit dislikes and distrust statements.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use semrec_core::Community;
use semrec_taxonomy::{ProductId, TopicId};
use semrec_trust::AgentId;

use crate::catalog_gen::{generate_catalog, CatalogGenConfig};
use crate::taxonomy_gen::{generate_taxonomy, TaxonomyGenConfig};
use crate::zipf::Zipf;

/// Configuration of the community generator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CommunityGenConfig {
    /// Number of agents `n = |A|`.
    pub agents: usize,
    /// Taxonomy shape.
    pub taxonomy: TaxonomyGenConfig,
    /// Catalog shape.
    pub catalog: CatalogGenConfig,
    /// Latent interest subtrees per agent (inclusive bounds).
    pub min_interests: usize,
    /// Maximum latent interests per agent.
    pub max_interests: usize,
    /// Depth at which interest roots are anchored.
    pub interest_depth: u32,
    /// Mean ratings per agent (counts are geometric, minimum 1).
    pub mean_ratings: f64,
    /// Probability that a rating falls inside one of the agent's interests.
    pub interest_fidelity: f64,
    /// Zipf exponent for product popularity.
    pub zipf_exponent: f64,
    /// Fraction of ratings that are explicit dislikes.
    pub dislike_fraction: f64,
    /// Mean trust statements per agent.
    pub mean_trust_edges: f64,
    /// Homophily `h ∈ [0, 1]`: weight of interest overlap (vs preferential
    /// attachment) when choosing whom to trust.
    pub homophily: f64,
    /// Fraction of trust statements that are distrust (negative).
    pub distrust_fraction: f64,
    /// Probability a trust edge is reciprocated.
    pub reciprocity: f64,
    /// RNG seed.
    pub seed: u64,
}

impl CommunityGenConfig {
    /// A laptop-fast community for tests: 200 agents, 400 products.
    pub fn small(seed: u64) -> Self {
        CommunityGenConfig {
            agents: 200,
            taxonomy: TaxonomyGenConfig::book_like(600, seed ^ 0xA1),
            catalog: CatalogGenConfig { products: 400, seed: seed ^ 0xB2, ..Default::default() },
            min_interests: 1,
            max_interests: 3,
            interest_depth: 2,
            mean_ratings: 8.0,
            interest_fidelity: 0.8,
            zipf_exponent: 1.0,
            dislike_fraction: 0.05,
            mean_trust_edges: 6.0,
            homophily: 0.7,
            distrust_fraction: 0.03,
            reciprocity: 0.4,
            seed,
        }
    }

    /// A mid-size community: 1,000 agents, 2,000 products.
    pub fn medium(seed: u64) -> Self {
        CommunityGenConfig {
            agents: 1000,
            taxonomy: TaxonomyGenConfig::book_like(3000, seed ^ 0xA1),
            catalog: CatalogGenConfig { products: 2000, seed: seed ^ 0xB2, ..Default::default() },
            ..Self::small(seed)
        }
    }

    /// The §4.1 scale: 9,100 agents, 9,953 books, 20,000 topics.
    pub fn paper_scale(seed: u64) -> Self {
        CommunityGenConfig {
            agents: 9100,
            taxonomy: TaxonomyGenConfig::book_like(20_000, seed ^ 0xA1),
            catalog: CatalogGenConfig { products: 9953, seed: seed ^ 0xB2, ..Default::default() },
            mean_ratings: 12.0,
            mean_trust_edges: 8.0,
            ..Self::small(seed)
        }
    }
}

/// A generated community plus the latent state the generator used — kept for
/// experiment analysis (e.g. checking interest recovery).
#[derive(Clone, Debug)]
pub struct GeneratedCommunity {
    /// The §3.1 information model instance.
    pub community: Community,
    /// Latent interest roots per agent.
    pub interests: Vec<Vec<TopicId>>,
    /// The configuration that produced it.
    pub config: CommunityGenConfig,
}

/// Generates a community.
pub fn generate_community(config: &CommunityGenConfig) -> GeneratedCommunity {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let taxonomy = generate_taxonomy(&config.taxonomy);
    let catalog = generate_catalog(&taxonomy, &config.catalog);
    let popularity = Zipf::new(catalog.len(), config.zipf_exponent);

    // Popularity permutation: Zipf rank r → product id, so "popular" products
    // are spread across the catalog rather than being the low indexes.
    let mut rank_to_product: Vec<ProductId> = catalog.iter().collect();
    for i in (1..rank_to_product.len()).rev() {
        let j = rng.random_range(0..=i);
        rank_to_product.swap(i, j);
    }

    let mut community = Community::new(taxonomy, catalog);
    let agents: Vec<AgentId> = (0..config.agents)
        .map(|i| {
            community
                .add_agent(format!("http://community.example.org/agents/{i}#me"))
                .expect("generated agent URIs are unique")
        })
        .collect();

    // --- latent interests -------------------------------------------------
    let interests: Vec<Vec<TopicId>> = agents
        .iter()
        .map(|_| {
            let count = rng.random_range(config.min_interests..=config.max_interests.max(config.min_interests));
            (0..count)
                .map(|_| interest_root(&community, config.interest_depth, &mut rng))
                .collect()
        })
        .collect();

    // Products under each used interest root, with the Zipf law over them
    // built once (`None` for an empty pool: `Zipf::new` needs n > 0).
    let local_exponent = config.zipf_exponent * 0.5;
    let mut pools: HashMap<TopicId, (Vec<ProductId>, Option<Zipf>)> = HashMap::new();
    for roots in &interests {
        for &root in roots {
            pools.entry(root).or_insert_with(|| {
                let pool = community.catalog.products_under(&community.taxonomy, root);
                let local = (!pool.is_empty()).then(|| Zipf::new(pool.len(), local_exponent));
                (pool, local)
            });
        }
    }

    // --- ratings -----------------------------------------------------------
    for (idx, &agent) in agents.iter().enumerate() {
        let count = 1 + geometric(config.mean_ratings.max(1.0) - 1.0, &mut rng);
        for _ in 0..count {
            let product = if rng.random::<f64>() < config.interest_fidelity {
                let roots = &interests[idx];
                let root = roots[rng.random_range(0..roots.len())];
                match &pools[&root] {
                    // Prefer popular products within the interest pool.
                    (pool, Some(local)) => pool[local.sample(&mut rng)],
                    (_, None) => rank_to_product[popularity.sample(&mut rng)],
                }
            } else {
                rank_to_product[popularity.sample(&mut rng)]
            };
            let rating = if rng.random::<f64>() < config.dislike_fraction {
                -(0.3 + 0.7 * rng.random::<f64>())
            } else {
                0.5 + 0.5 * rng.random::<f64>()
            };
            community.set_rating(agent, product, rating).expect("generated ratings valid");
        }
    }

    // --- trust network -----------------------------------------------------
    let mut in_degree = vec![0usize; config.agents];
    for (idx, &agent) in agents.iter().enumerate() {
        if idx == 0 {
            continue;
        }
        let degree = (1 + geometric(config.mean_trust_edges.max(1.0) - 1.0, &mut rng))
            .min(idx);
        // Candidate pool: a random sample of earlier agents (scored), always
        // including a couple of high-in-degree hubs for the PA component.
        let pool_size = (degree * 6).clamp(8, 48).min(idx);
        let mut candidates: Vec<usize> = (0..pool_size).map(|_| rng.random_range(0..idx)).collect();
        candidates.sort_unstable();
        candidates.dedup();

        let mut scored: Vec<(usize, f64)> = candidates
            .iter()
            .map(|&c| {
                let overlap = interest_overlap(
                    &community,
                    &interests[idx],
                    &interests[c],
                );
                let pa = (in_degree[c] as f64 + 1.0).ln();
                let noise = rng.random::<f64>() * 0.1;
                (c, config.homophily * overlap + (1.0 - config.homophily) * pa / 4.0 + noise)
            })
            .collect();
        // A score is finite and ends in a noise draw ≥ +0.0, so never −0.0.
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));

        for &(target_idx, _) in scored.iter().take(degree) {
            let target = agents[target_idx];
            let (weight, reciprocal_ok) = if rng.random::<f64>() < config.distrust_fraction {
                (-(0.3 + 0.7 * rng.random::<f64>()), false)
            } else {
                (0.5 + 0.5 * rng.random::<f64>(), true)
            };
            community.trust.set_trust(agent, target, weight).expect("valid trust edge");
            in_degree[target_idx] += 1;
            if reciprocal_ok && rng.random::<f64>() < config.reciprocity {
                let back = 0.5 + 0.5 * rng.random::<f64>();
                community.trust.set_trust(target, agent, back).expect("valid trust edge");
                in_degree[idx] += 1;
            }
        }
    }

    GeneratedCommunity { community, interests, config: *config }
}

/// Samples a geometric count with the given mean (mean 0 → always 0).
fn geometric(mean: f64, rng: &mut StdRng) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    let p = 1.0 / (1.0 + mean);
    let mut count = 0;
    while rng.random::<f64>() >= p && count < 10_000 {
        count += 1;
    }
    count
}

/// Picks an interest root: the ancestor at `depth` of a random leaf (or the
/// leaf itself when shallower).
fn interest_root(community: &Community, depth: u32, rng: &mut StdRng) -> TopicId {
    let taxonomy = &community.taxonomy;
    let catalog = &community.catalog;
    // Anchor at a random product descriptor so the subtree is non-empty.
    let product = ProductId::from_index(rng.random_range(0..catalog.len()));
    let descriptors = catalog.descriptors(product);
    let mut node = descriptors[rng.random_range(0..descriptors.len())];
    while taxonomy.depth(node) > depth {
        let parents = taxonomy.parents(node);
        node = parents[0];
    }
    node
}

/// Interest overlap in `[0, 1]`: shared roots count 1, ancestor-related
/// roots count ½, normalized by the smaller interest set.
fn interest_overlap(community: &Community, a: &[TopicId], b: &[TopicId]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let taxonomy = &community.taxonomy;
    let mut score = 0.0;
    for &x in a {
        let mut best: f64 = 0.0;
        for &y in b {
            let s = if x == y {
                1.0
            } else if taxonomy.is_ancestor(x, y) || taxonomy.is_ancestor(y, x) {
                0.5
            } else {
                0.0
            };
            best = best.max(s);
        }
        score += best;
    }
    score / a.len().min(b.len()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_the_requested_shape() {
        let g = generate_community(&CommunityGenConfig::small(42));
        let c = &g.community;
        assert_eq!(c.agent_count(), 200);
        assert_eq!(c.catalog.len(), 400);
        assert_eq!(g.interests.len(), 200);
        assert!(c.rating_count() >= 200, "every agent rates at least once");
        assert!(c.trust.edge_count() > 150, "trust network must be populated");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate_community(&CommunityGenConfig::small(7));
        let b = generate_community(&CommunityGenConfig::small(7));
        assert_eq!(a.community.rating_count(), b.community.rating_count());
        assert_eq!(a.community.trust.edge_count(), b.community.trust.edge_count());
        for agent in a.community.agents() {
            assert_eq!(a.community.ratings_of(agent), b.community.ratings_of(agent));
            assert_eq!(a.community.trust.out_edges(agent), b.community.trust.out_edges(agent));
        }
        let c = generate_community(&CommunityGenConfig::small(8));
        assert_ne!(
            a.community.rating_count(),
            c.community.rating_count(),
            "different seeds should differ"
        );
    }

    #[test]
    fn ratings_are_mostly_positive_implicit_mentions() {
        let g = generate_community(&CommunityGenConfig::small(1));
        let c = &g.community;
        let (mut pos, mut neg) = (0usize, 0usize);
        for a in c.agents() {
            for &(_, r) in c.ratings_of(a) {
                assert!((-1.0..=1.0).contains(&r));
                if r > 0.0 {
                    pos += 1;
                } else {
                    neg += 1;
                }
            }
        }
        assert!(pos > neg * 5, "mentions are mostly likes: {pos} vs {neg}");
    }

    #[test]
    fn trust_network_is_sparse_and_mostly_positive() {
        let g = generate_community(&CommunityGenConfig::small(2));
        let c = &g.community;
        let mean = c.trust.mean_out_degree();
        assert!(mean > 1.0 && mean < 30.0, "mean out-degree {mean}");
        let mut neg = 0usize;
        for a in c.agents() {
            neg += c.trust.negative_out_edges(a).count();
        }
        assert!((neg as f64) < 0.15 * c.trust.edge_count() as f64);
    }

    #[test]
    fn homophily_links_similar_agents() {
        let homo = generate_community(&CommunityGenConfig {
            homophily: 0.95,
            ..CommunityGenConfig::small(3)
        });
        let random = generate_community(&CommunityGenConfig {
            homophily: 0.0,
            ..CommunityGenConfig::small(3)
        });
        let mean_edge_overlap = |g: &GeneratedCommunity| {
            let mut sum = 0.0;
            let mut count = 0usize;
            for a in g.community.agents() {
                for &(b, w) in g.community.trust.out_edges(a) {
                    if w > 0.0 {
                        sum += interest_overlap(
                            &g.community,
                            &g.interests[a.index()],
                            &g.interests[b.index()],
                        );
                        count += 1;
                    }
                }
            }
            sum / count as f64
        };
        let h = mean_edge_overlap(&homo);
        let r = mean_edge_overlap(&random);
        assert!(h > r + 0.1, "homophily must matter: {h} vs {r}");
    }

    #[test]
    fn interest_fidelity_concentrates_ratings() {
        let g = generate_community(&CommunityGenConfig {
            interest_fidelity: 1.0,
            ..CommunityGenConfig::small(4)
        });
        let c = &g.community;
        // Sample: most rated products lie under one of the rater's interests.
        let mut inside = 0usize;
        let mut total = 0usize;
        for a in c.agents().take(50) {
            for &(p, _) in c.ratings_of(a) {
                total += 1;
                let under = g.interests[a.index()].iter().any(|&root| {
                    c.catalog
                        .descriptors(p)
                        .iter()
                        .any(|&d| c.taxonomy.is_ancestor(root, d))
                });
                if under {
                    inside += 1;
                }
            }
        }
        assert!(
            inside as f64 > 0.9 * total as f64,
            "fidelity 1.0 should keep ratings inside interests: {inside}/{total}"
        );
    }

    #[test]
    fn geometric_mean_is_roughly_right() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 20_000;
        let mean = 5.0;
        let sum: usize = (0..n).map(|_| geometric(mean, &mut rng)).sum();
        let got = sum as f64 / n as f64;
        assert!((got - mean).abs() < 0.3, "geometric mean {got} ≉ {mean}");
        assert_eq!(geometric(0.0, &mut rng), 0);
    }
}
