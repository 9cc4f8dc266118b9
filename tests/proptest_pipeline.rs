//! Property tests over the full pipeline on randomly shaped communities:
//! output invariants that must hold for *any* trust topology, rating
//! pattern and configuration. (That the engine answers the same on every
//! route, rebuilt or otherwise, is `tests/conformance.rs`.)

use proptest::prelude::*;
use semrec::core::{Recommender, RecommenderConfig, SynthesisStrategy};

mod common;
use common::arb_world;

fn arb_strategy() -> impl Strategy<Value = SynthesisStrategy> {
    prop_oneof![
        (0.0f64..=1.0).prop_map(|xi| SynthesisStrategy::LinearBlend { xi }),
        Just(SynthesisStrategy::BordaMerge),
        Just(SynthesisStrategy::TrustFilter),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn recommendations_never_include_rated_products_and_are_sorted(
        world in arb_world(),
        strategy in arb_strategy(),
    ) {
        let community = world.community();
        let config = RecommenderConfig { synthesis: strategy, ..Default::default() };
        let engine = Recommender::new(community, config);
        for agent in engine.community().agents() {
            let recs = engine.recommend(agent, 10).unwrap();
            // Sorted by descending score.
            prop_assert!(recs.windows(2).all(|w| w[0].score >= w[1].score));
            for rec in &recs {
                prop_assert!(engine.community().rating(agent, rec.product).is_none(),
                    "recommended an already-rated product");
                prop_assert!(rec.voters >= 1);
                prop_assert!(rec.score > 0.0);
            }
        }
    }

    #[test]
    fn recommendations_only_come_from_reachable_peers(
        world in arb_world(),
    ) {
        let community = world.community();
        let engine = Recommender::new(community, RecommenderConfig::default());
        for agent in engine.community().agents() {
            // Positive-trust reachability from the agent.
            let c = engine.community();
            let mut reachable = vec![false; c.agent_count()];
            let mut stack = vec![agent];
            reachable[agent.index()] = true;
            while let Some(v) = stack.pop() {
                for (s, _) in c.trust.positive_out_edges(v) {
                    if !reachable[s.index()] {
                        reachable[s.index()] = true;
                        stack.push(s);
                    }
                }
            }
            // Every recommended product is positively rated by some reachable
            // peer other than the agent.
            for rec in engine.recommend(agent, 10).unwrap() {
                let justified = c.agents().any(|peer| {
                    peer != agent
                        && reachable[peer.index()]
                        && c.rating(peer, rec.product).is_some_and(|r| r > 0.0)
                });
                prop_assert!(justified, "recommendation without a reachable voter");
            }
        }
    }

    #[test]
    fn peer_weights_are_positive_and_exclude_self(
        world in arb_world(),
        strategy in arb_strategy(),
    ) {
        let community = world.community();
        let config = RecommenderConfig { synthesis: strategy, ..Default::default() };
        let engine = Recommender::new(community, config);
        for agent in engine.community().agents() {
            let (weights, trace) = engine.peer_weights(agent).unwrap();
            prop_assert_eq!(weights.len(), trace.effective_peers);
            for &(peer, w) in &weights {
                prop_assert!(peer != agent);
                prop_assert!(w > 0.0 && w.is_finite());
            }
        }
    }
}
