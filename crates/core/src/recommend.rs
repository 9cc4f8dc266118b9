//! Recommendation generation (§3.4).
//!
//! Given synthesized peer weights, products are scored by weighted voting:
//! "every a_j voting for all its appreciated products b_k ∈ r_j with its own
//! rank weight. Products positively mentioned within several rating
//! histories of high weighted peers thus have greater chance of being
//! recommended." A second, content-driven scheme proposes products "from
//! categories that a_i has left untouched until now" — creating an
//! "incentive for trying new product groups".

use std::cell::RefCell;

use semrec_taxonomy::ProductId;
use semrec_trust::stamped::StampedIndex;
use semrec_trust::AgentId;

use crate::model::Community;

/// A recommended product with its aggregated vote score.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Recommendation {
    /// The recommended product.
    pub product: ProductId,
    /// Aggregated (weighted) vote score; higher is better.
    pub score: f64,
    /// Number of peers that voted for the product.
    pub voters: usize,
}

/// Parameters of the voting scheme.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VotingParams {
    /// Minimum peer rating for a product to count as "appreciated".
    pub min_rating: f64,
    /// Weight votes by the peer's rating value (not just their rank weight).
    pub rating_weighted_votes: bool,
    /// Require at least this many distinct voters per product.
    pub min_voters: usize,
}

impl Default for VotingParams {
    fn default() -> Self {
        VotingParams { min_rating: 0.0, rating_weighted_votes: true, min_voters: 1 }
    }
}

/// Scores products by weighted peer voting, excluding those the target agent
/// already rated. Returns recommendations sorted by descending score.
pub fn vote(
    community: &Community,
    target: AgentId,
    weighted_peers: &[(AgentId, f64)],
    params: &VotingParams,
) -> Vec<Recommendation> {
    let target_ratings: &[(ProductId, f64)] = if target.index() < community.agent_count() {
        community.ratings_of(target)
    } else {
        &[]
    };
    let peers = weighted_peers.iter().map(|&(peer, weight)| (community.ratings_of(peer), weight));
    vote_by(community.catalog.len(), target_ratings, peers, params, None)
}

/// [`vote`] over ratings the caller looks up: `peers` yields each peer's
/// ratings with its weight, in peer order, and `target_ratings` are the
/// products never to recommend. Every product's score receives its addends
/// in peer order, so a caller that keeps ratings elsewhere — on shards —
/// gets [`vote`]'s bits.
///
/// `keep: Some(k)` returns only the first `k` of that list, the same `k`
/// recommendations in the same order: the tally is cut to its best `k` by
/// selection, and only those are sorted (`O(m + k log k)` over `m` voted
/// products, not `O(m log m)`). `None` returns every voted product.
pub fn vote_by<'a>(
    catalog_len: usize,
    target_ratings: &[(ProductId, f64)],
    peers: impl IntoIterator<Item = (&'a [(ProductId, f64)], f64)>,
    params: &VotingParams,
    keep: Option<usize>,
) -> Vec<Recommendation> {
    let mut out: Vec<Recommendation> = Vec::new();
    TALLY.with_borrow_mut(|slot_of| {
        slot_of.reset(catalog_len);
        // Never recommend what the user already rated.
        for &(product, _) in target_ratings {
            slot_of.insert(product.index(), RATED);
        }
        for (ratings, weight) in peers {
            if weight <= 0.0 {
                continue;
            }
            for &(product, rating) in ratings {
                if rating <= params.min_rating {
                    continue;
                }
                let slot = match slot_of.get(product.index()) {
                    Some(RATED) => continue,
                    Some(slot) => slot,
                    None => {
                        out.push(Recommendation { product, score: 0.0, voters: 0 });
                        let slot = out.len() as u32 - 1;
                        slot_of.insert(product.index(), slot);
                        slot
                    }
                };
                let vote = if params.rating_weighted_votes { weight * rating } else { weight };
                let entry = &mut out[slot as usize];
                entry.score += vote;
                entry.voters += 1;
            }
        }
    });
    out.retain(|rec| rec.voters >= params.min_voters);
    // Products are unique, so the comparator is a strict total order: the
    // selection keeps exactly the first `k` of the sorted list, and the
    // unstable sort yields the one possible permutation. `total_cmp` orders
    // as `partial_cmp` did: no score is NaN (weights and ratings are finite)
    // or −0.0 (scores start at +0.0, and weights are filtered > 0).
    let order = |a: &Recommendation, b: &Recommendation| {
        b.score.total_cmp(&a.score).then(a.product.cmp(&b.product))
    };
    if let Some(k) = keep.filter(|&k| k < out.len()) {
        out.select_nth_unstable_by(k, order);
        out.truncate(k);
    }
    out.sort_unstable_by(order);
    out
}

/// The tally's slot of a product the target rated itself.
const RATED: u32 = u32::MAX;

thread_local! {
    /// Product id → slot in the list one [`vote`] returns (or [`RATED`]),
    /// one table per thread, so a serving worker's votes allocate only the
    /// list they return once the table covers the catalog.
    static TALLY: RefCell<StampedIndex> = RefCell::default();
}

/// Restricts recommendations to products from categories the target has left
/// untouched: none of the product's descriptors (nor their ancestors below
/// ⊤) carry score in the target's profile.
///
/// This implements §3.4's content-driven novelty scheme.
pub fn novel_only(
    community: &Community,
    target_profile: semrec_profiles::ProfileView<'_>,
    recommendations: Vec<Recommendation>,
) -> Vec<Recommendation> {
    let taxonomy = &community.taxonomy;
    recommendations
        .into_iter()
        .filter(|rec| {
            community.catalog.descriptors(rec.product).iter().all(|&d| {
                // Untouched: the descriptor and all its proper ancestors
                // except ⊤ have zero profile score.
                target_profile.get(d) == 0.0
                    && taxonomy
                        .ancestors(d)
                        .iter()
                        .filter(|&&a| a != semrec_taxonomy::TopicId::TOP)
                        .all(|&a| target_profile.get(a) == 0.0)
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use semrec_profiles::generation::{generate_profile, ProfileParams};
    use semrec_taxonomy::fixtures::example1;

    /// Alice rated nothing; Bob and Carol are her (weighted) peers.
    fn setup() -> (Community, Vec<AgentId>, Vec<ProductId>) {
        let e = example1();
        let products: Vec<_> = e.catalog.iter().collect();
        let mut c = Community::new(e.fig.taxonomy, e.catalog);
        let alice = c.add_agent("http://ex.org/alice").unwrap();
        let bob = c.add_agent("http://ex.org/bob").unwrap();
        let carol = c.add_agent("http://ex.org/carol").unwrap();
        // Bob: matrix analysis (1.0), snow crash (0.5).
        c.set_rating(bob, products[0], 1.0).unwrap();
        c.set_rating(bob, products[2], 0.5).unwrap();
        // Carol: snow crash (1.0), neuromancer (0.8), dislikes fermat (-0.5).
        c.set_rating(carol, products[2], 1.0).unwrap();
        c.set_rating(carol, products[3], 0.8).unwrap();
        c.set_rating(carol, products[1], -0.5).unwrap();
        (c, vec![alice, bob, carol], products)
    }

    #[test]
    fn products_backed_by_many_peers_win() {
        let (c, agents, products) = setup();
        let recs = vote(
            &c,
            agents[0],
            &[(agents[1], 1.0), (agents[2], 1.0)],
            &VotingParams::default(),
        );
        // Snow crash: 0.5 + 1.0 = 1.5 beats matrix analysis 1.0 and neuromancer 0.8.
        assert_eq!(recs[0].product, products[2]);
        assert_eq!(recs[0].voters, 2);
        assert!((recs[0].score - 1.5).abs() < 1e-12);
        assert_eq!(recs.len(), 3); // the disliked product never appears
    }

    #[test]
    fn already_rated_products_are_excluded() {
        let (mut c, agents, products) = setup();
        c.set_rating(agents[0], products[2], 0.1).unwrap();
        let recs = vote(
            &c,
            agents[0],
            &[(agents[1], 1.0), (agents[2], 1.0)],
            &VotingParams::default(),
        );
        assert!(recs.iter().all(|r| r.product != products[2]));
    }

    #[test]
    fn peer_weight_scales_votes() {
        let (c, agents, products) = setup();
        let recs = vote(
            &c,
            agents[0],
            &[(agents[1], 1.0), (agents[2], 0.1)],
            &VotingParams::default(),
        );
        // Bob's matrix analysis (1.0) now beats snow crash (0.5 + 0.1).
        assert_eq!(recs[0].product, products[0]);
    }

    #[test]
    fn min_voters_filters_singletons() {
        let (c, agents, products) = setup();
        let recs = vote(
            &c,
            agents[0],
            &[(agents[1], 1.0), (agents[2], 1.0)],
            &VotingParams { min_voters: 2, ..Default::default() },
        );
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].product, products[2]);
    }

    #[test]
    fn unweighted_votes_count_heads() {
        let (c, agents, products) = setup();
        let recs = vote(
            &c,
            agents[0],
            &[(agents[1], 1.0), (agents[2], 1.0)],
            &VotingParams { rating_weighted_votes: false, ..Default::default() },
        );
        let snow = recs.iter().find(|r| r.product == products[2]).unwrap();
        assert!((snow.score - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_weight_peers_are_ignored() {
        let (c, agents, _) = setup();
        let recs = vote(&c, agents[0], &[(agents[1], 0.0)], &VotingParams::default());
        assert!(recs.is_empty());
    }

    #[test]
    fn reused_tally_gives_the_result_of_a_fresh_one() {
        let (mut c, agents, products) = setup();
        c.set_rating(agents[0], products[3], 0.2).unwrap();
        let peers = [(agents[1], 1.0), (agents[2], 0.7)];
        let fresh = std::thread::scope(|scope| {
            scope.spawn(|| vote(&c, agents[0], &peers, &VotingParams::default())).join().unwrap()
        });
        // Another target in between leaves nothing behind in this thread's table.
        for _ in 0..4 {
            vote(&c, agents[1], &[(agents[0], 1.0)], &VotingParams::default());
            assert_eq!(vote(&c, agents[0], &peers, &VotingParams::default()), fresh);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn a_bounded_vote_is_the_full_vote_cut_short(
            rated in prop::collection::vec(0u8..40, 0..6),
            // Three rating values and three weights, so that many products
            // tie on score and the bound must break ties by product as the
            // full sort does.
            peers in prop::collection::vec(
                (prop::collection::vec((0u8..40, 0u8..3), 0..12), 0u8..3),
                0..8,
            ),
            min_voters in 1usize..3,
            rating_weighted_votes in any::<bool>(),
        ) {
            let product = |p: u8| ProductId::from_index(p as usize);
            let rated: Vec<(ProductId, f64)> = rated.iter().map(|&p| (product(p), 1.0)).collect();
            let peers: Vec<(Vec<(ProductId, f64)>, f64)> = peers
                .iter()
                .map(|(ratings, weight)| {
                    let ratings =
                        ratings.iter().map(|&(p, r)| (product(p), [-0.5, 0.5, 1.0][r as usize]));
                    (ratings.collect(), [0.0, 0.5, 1.0][*weight as usize])
                })
                .collect();
            let params = VotingParams { min_voters, rating_weighted_votes, ..Default::default() };
            let vote_kept = |keep| {
                let peers = peers.iter().map(|(ratings, weight)| (ratings.as_slice(), *weight));
                vote_by(40, &rated, peers, &params, keep)
            };
            let full = vote_kept(None);
            for k in 0..=full.len() + 1 {
                prop_assert_eq!(vote_kept(Some(k)), full[..k.min(full.len())].to_vec());
            }
        }
    }

    #[test]
    fn a_bounded_vote_breaks_score_ties_by_product() {
        let (c, agents, products) = setup();
        // Unweighted, matrix analysis and neuromancer tie at one vote each
        // behind snow crash's two: the bound keeps the lower product id.
        let recs = |keep| {
            let peers = [(agents[1], 1.0), (agents[2], 1.0)].map(|(p, w)| (c.ratings_of(p), w));
            let params = VotingParams { rating_weighted_votes: false, ..Default::default() };
            vote_by(c.catalog.len(), &[], peers, &params, keep)
        };
        let kept: Vec<_> = recs(Some(2)).iter().map(|r| r.product).collect();
        assert_eq!(kept, vec![products[2], products[0]]);
        assert_eq!(recs(Some(2)), recs(None)[..2].to_vec());
    }

    #[test]
    fn novel_only_drops_familiar_branches() {
        let (mut c, agents, products) = setup();
        // Alice has read a math book: the Mathematics branch is familiar.
        c.set_rating(agents[0], products[1], 1.0).unwrap();
        let profile = generate_profile(
            &c.taxonomy,
            &c.catalog,
            c.ratings_of(agents[0]),
            &ProfileParams::default(),
        );
        let recs = vote(
            &c,
            agents[0],
            &[(agents[1], 1.0), (agents[2], 1.0)],
            &VotingParams::default(),
        );
        let novel = novel_only(&c, profile.as_view(), recs.clone());
        // Matrix analysis shares the Mathematics branch → filtered; the
        // cyberpunk novels are genuinely new territory.
        assert!(novel.iter().all(|r| r.product != products[0]));
        assert!(novel.iter().any(|r| r.product == products[2]));
        assert!(novel.len() < recs.len());
    }
}
