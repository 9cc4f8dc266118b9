//! Recommendation explanations — provenance for the §2 credibility issue.
//!
//! Decentralized recommendations are only as convincing as their paper
//! trail: ref \[9\] found people trust recommendations from *known* peers
//! more than from opaque systems. An [`Explanation`] reconstructs exactly
//! why a product surfaced: which trusted peers vouched for it, with what
//! trust rank, profile similarity and rating — and which taxonomy branches
//! the product shares with the target's own interests.

use semrec_profiles::generation::descriptor_scores;
use semrec_taxonomy::{ProductId, TopicId};
use semrec_trust::scalar::strongest_path;
use semrec_trust::AgentId;

use crate::engine::Recommender;
use crate::error::Result;
use crate::rank::ScoreComponents;

/// One voting peer's contribution to a recommendation.
#[derive(Clone, Debug, PartialEq)]
pub struct Voter {
    /// The peer.
    pub agent: AgentId,
    /// Their synthesized rank weight (§3.4).
    pub weight: f64,
    /// Their normalized trust rank (§3.2).
    pub trust: f64,
    /// Their profile similarity to the target (§3.3), if defined.
    pub similarity: Option<f64>,
    /// Their rating of the recommended product.
    pub rating: f64,
    /// Their vote contribution (`weight · rating` under rating-weighted
    /// voting, `weight` otherwise).
    pub contribution: f64,
    /// The contribution decomposed by ranker score component
    /// (similarity / activation / centrality); sums to `contribution`.
    pub components: ScoreComponents,
    /// The strongest explicit trust chain `target → … → peer` behind the
    /// peer's admission (per-hop trust product in `.0`). `None` only if the
    /// chain exceeds the provenance depth bound.
    pub trust_path: Option<(f64, Vec<AgentId>)>,
}

/// Why a product was (or would be) recommended to a target agent.
#[derive(Clone, Debug, PartialEq)]
pub struct Explanation {
    /// The product in question.
    pub product: ProductId,
    /// Voting peers, strongest contribution first.
    pub voters: Vec<Voter>,
    /// Total vote score (the value recommendation ranking uses).
    pub score: f64,
    /// The score decomposed by ranker component across all voters
    /// (similarity / activation / centrality); sums to `score`. Under the
    /// default [`crate::rank::SimilarityRanker`] all mass sits in
    /// `similarity`.
    pub components: ScoreComponents,
    /// Topics where the target's interest profile and the product's content
    /// profile overlap: `(topic, target score, product score)`, strongest
    /// product-side mass first.
    pub shared_topics: Vec<(TopicId, f64, f64)>,
    /// Set when the community behind this explanation is a degraded view of
    /// its source (the crawl lost documents): the recommendation stands,
    /// but peers and votes may be missing. `None` for healthy sources.
    pub degraded: Option<crate::health::SourceHealth>,
}

impl Recommender {
    /// Explains why `product` scores for `target` under the current
    /// configuration. Returns `None` when no trusted peer vouches for the
    /// product (it would never be recommended).
    pub fn explain(&self, target: AgentId, product: ProductId) -> Result<Option<Explanation>> {
        let community = self.community();
        let config = self.config();
        let target_profile = self.profiles().profile(target);
        // The front half recommendation generation runs, so explanations
        // attribute the scores users actually saw — for any Ranker impl.
        let (_, peers, ranked) = self.ranked_neighborhood(target)?;

        let mut voters = Vec::new();
        let mut score = 0.0;
        let mut components = ScoreComponents::default();
        for peer in &ranked {
            let (agent, weight) = (peer.agent, peer.weight);
            let Some(rating) = community.rating(agent, product) else { continue };
            if rating <= config.voting.min_rating {
                continue;
            }
            let (contribution, vote_components) = if config.voting.rating_weighted_votes {
                (weight * rating, peer.components.scaled(rating))
            } else {
                (weight, peer.components)
            };
            let base = peers.iter().find(|p| p.agent == agent).expect("peer was scored");
            let trust_path = strongest_path(&community.trust, target, agent, Some(8))?;
            voters.push(Voter {
                agent,
                weight,
                trust: base.trust,
                similarity: base.similarity,
                rating,
                contribution,
                components: vote_components,
                trust_path,
            });
            score += contribution;
            components.accumulate(&vote_components);
        }
        if voters.is_empty() {
            return Ok(None);
        }
        // Weights are > 0 and ratings > `min_rating` (0 by default), so a
        // contribution is −0.0 only for a −0.0 rating under a negative one.
        voters.sort_by(|a, b| {
            b.contribution.total_cmp(&a.contribution).then(a.agent.cmp(&b.agent))
        });

        // Content-side provenance: taxonomy branches the target already
        // cares about that the product is classified under.
        let descriptors = community.catalog.descriptors(product);
        let per = 1.0 / descriptors.len() as f64;
        let mut shared_topics: Vec<(TopicId, f64, f64)> = Vec::new();
        for &d in descriptors {
            for (topic, product_score) in descriptor_scores(&community.taxonomy, d, per) {
                let target_score = target_profile.get(topic);
                if target_score > 0.0 {
                    match shared_topics.iter_mut().find(|(t, _, _)| *t == topic) {
                        Some(entry) => entry.2 += product_score,
                        None => shared_topics.push((topic, target_score, product_score)),
                    }
                }
            }
        }
        // Product scores are sums of positive Eq. 3 shares.
        shared_topics.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)));

        let degraded =
            if self.source_health().is_degraded() { Some(*self.source_health()) } else { None };
        Ok(Some(Explanation { product, voters, score, components, shared_topics, degraded }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RecommenderConfig;
    use crate::model::Community;
    use semrec_taxonomy::fixtures::example1;

    fn setup() -> (Recommender, Vec<AgentId>, Vec<ProductId>) {
        let e = example1();
        let products: Vec<_> = e.catalog.iter().collect();
        let mut c = Community::new(e.fig.taxonomy, e.catalog);
        let alice = c.add_agent("http://ex.org/alice").unwrap();
        let bob = c.add_agent("http://ex.org/bob").unwrap();
        let carol = c.add_agent("http://ex.org/carol").unwrap();
        c.trust.set_trust(alice, bob, 0.9).unwrap();
        c.trust.set_trust(alice, carol, 0.6).unwrap();
        // Alice reads number theory; bob & carol both like Matrix Analysis.
        c.set_rating(alice, products[1], 1.0).unwrap();
        c.set_rating(bob, products[0], 1.0).unwrap();
        c.set_rating(carol, products[0], 0.7).unwrap();
        c.set_rating(carol, products[2], 1.0).unwrap();
        (Recommender::new(c, RecommenderConfig::default()), vec![alice, bob, carol], products)
    }

    #[test]
    fn explanation_matches_the_recommendation_score() {
        let (engine, agents, products) = setup();
        let recs = engine.recommend(agents[0], 10).unwrap();
        let top = recs.first().unwrap();
        let explanation = engine.explain(agents[0], top.product).unwrap().unwrap();
        assert!((explanation.score - top.score).abs() < 1e-12);
        assert_eq!(explanation.voters.len(), top.voters);
        assert_eq!(explanation.product, products[0]);
    }

    #[test]
    fn voters_are_ordered_and_carry_provenance() {
        let (engine, agents, products) = setup();
        let explanation = engine.explain(agents[0], products[0]).unwrap().unwrap();
        assert_eq!(explanation.voters.len(), 2);
        assert!(explanation.voters[0].contribution >= explanation.voters[1].contribution);
        for voter in &explanation.voters {
            assert!(voter.trust > 0.0 && voter.trust <= 1.0);
            assert!(voter.rating > 0.0);
            assert!(voter.weight > 0.0);
            // Each voter carries its explicit trust chain from the target.
            let (product, path) = voter.trust_path.as_ref().unwrap();
            assert!(*product > 0.0);
            assert_eq!(path.first(), Some(&agents[0]));
            assert_eq!(path.last(), Some(&voter.agent));
        }
    }

    #[test]
    fn shared_topics_surface_the_mathematics_branch() {
        let (engine, agents, products) = setup();
        // Alice read Fermat's Enigma (Mathematics branch); Matrix Analysis
        // shares Pure/Mathematics/Science ancestry.
        let explanation = engine.explain(agents[0], products[0]).unwrap().unwrap();
        let taxonomy = &engine.community().taxonomy;
        let labels: Vec<&str> =
            explanation.shared_topics.iter().map(|&(t, _, _)| taxonomy.label(t)).collect();
        assert!(labels.contains(&"Mathematics"), "got {labels:?}");
        assert!(labels.contains(&"Pure"), "got {labels:?}");
        for &(_, target_score, product_score) in &explanation.shared_topics {
            assert!(target_score > 0.0);
            assert!(product_score > 0.0);
        }
    }

    #[test]
    fn component_decomposition_sums_to_the_score() {
        let (engine, agents, products) = setup();
        // Default ranker: all mass is similarity-attributed.
        let explanation = engine.explain(agents[0], products[0]).unwrap().unwrap();
        assert!((explanation.components.total() - explanation.score).abs() < 1e-12);
        assert_eq!(explanation.components.activation, 0.0);
        assert_eq!(explanation.components.centrality, 0.0);
        for voter in &explanation.voters {
            assert!((voter.components.total() - voter.contribution).abs() < 1e-12);
        }

        // Spreading-activation ranker: the decomposition still sums, the
        // explanation still matches the recommendation score, and at least
        // one non-similarity component carries mass.
        let engine = engine.using_ranker(std::sync::Arc::new(
            crate::rank::SpreadingActivationRanker::default(),
        ));
        let recs = engine.recommend(agents[0], 10).unwrap();
        let top = recs.first().unwrap();
        let explanation = engine.explain(agents[0], top.product).unwrap().unwrap();
        assert!((explanation.score - top.score).abs() < 1e-12);
        assert!((explanation.components.total() - explanation.score).abs() < 1e-12);
        assert!(
            explanation.components.activation > 0.0 || explanation.components.centrality > 0.0,
            "the blend must attribute mass beyond similarity: {:?}",
            explanation.components
        );
        for voter in &explanation.voters {
            assert!((voter.components.total() - voter.contribution).abs() < 1e-12);
        }
    }

    /// Every voter of every explainable product carries, bit for bit, the
    /// weight `rank_peers` gives that peer. Returns how many were compared.
    fn voter_weights_match_rank_peers(engine: &Recommender) -> usize {
        let community = engine.community();
        let mut compared = 0;
        for target in community.agents() {
            let (ranked, _) = engine.rank_peers(target).unwrap();
            for product in community.catalog.iter() {
                let Some(explanation) = engine.explain(target, product).unwrap() else { continue };
                for voter in &explanation.voters {
                    let peer =
                        ranked.iter().find(|p| p.agent == voter.agent).expect("voters are ranked");
                    assert_eq!(voter.weight.to_bits(), peer.weight.to_bits());
                    compared += 1;
                }
            }
        }
        compared
    }

    #[test]
    fn voter_weights_are_the_weights_recommendation_voted_with() {
        let spreading = || std::sync::Arc::new(crate::rank::SpreadingActivationRanker::default());
        let (engine, _, _) = setup();
        assert!(voter_weights_match_rank_peers(&engine) > 0);
        assert!(voter_weights_match_rank_peers(&engine.using_ranker(spreading())) > 0);

        // A generated community: a ring with chords, a few distrust
        // statements, and two ratings per agent over the Example-1 catalog.
        let e = example1();
        let products: Vec<_> = e.catalog.iter().collect();
        let mut c = Community::new(e.fig.taxonomy, e.catalog);
        let n = 40;
        let ids: Vec<_> =
            (0..n).map(|i| c.add_agent(format!("http://ex.org/agent/{i}")).unwrap()).collect();
        for i in 0..n {
            c.trust.set_trust(ids[i], ids[(i + 1) % n], 0.9).unwrap();
            c.trust.set_trust(ids[i], ids[(i + 3) % n], 0.4).unwrap();
            // `.ok()`: the chord of agents 13 and 33 is a self-statement, refused.
            let chord = if i % 5 == 0 { -0.6 } else { 0.6 };
            c.trust.set_trust(ids[i], ids[(i * 7 + 2) % n], chord).ok();
            c.set_rating(ids[i], products[i % products.len()], 1.0).unwrap();
            c.set_rating(ids[i], products[(i / 2 + 1) % products.len()], 0.7).unwrap();
        }
        let engine = Recommender::with_ranker(c, RecommenderConfig::default(), spreading());
        assert!(voter_weights_match_rank_peers(&engine) > n);
    }

    #[test]
    fn degraded_sources_are_flagged_in_explanations() {
        let (engine, agents, products) = setup();
        // A healthy engine explains without the flag.
        let healthy = engine.explain(agents[0], products[0]).unwrap().unwrap();
        assert_eq!(healthy.degraded, None);

        // The same engine told its community came from a lossy crawl
        // carries the health record into every explanation.
        let health = crate::health::SourceHealth {
            attempted: 4,
            fetched: 3,
            unreachable: 1,
            ..Default::default()
        };
        let engine = engine.with_source_health(health);
        let flagged = engine.explain(agents[0], products[0]).unwrap().unwrap();
        assert_eq!(flagged.degraded, Some(health));
        assert_eq!(flagged.voters, healthy.voters, "the votes themselves are unchanged");
    }

    #[test]
    fn unvouched_products_yield_none() {
        let (engine, agents, products) = setup();
        // Nobody in alice's neighborhood rated Neuromancer.
        assert_eq!(engine.explain(agents[0], products[3]).unwrap(), None);
        // Alice's own book is rated only by her: no voters either.
        assert_eq!(engine.explain(agents[0], products[1]).unwrap(), None);
    }

    #[test]
    fn explanations_respect_the_trust_boundary() {
        let (engine, agents, products) = setup();
        // From carol's perspective nobody is trusted: nothing explainable.
        assert_eq!(engine.explain(agents[2], products[0]).unwrap(), None);
        let _ = agents;
    }
}
