//! End-to-end pipeline properties on seeded synthetic communities:
//! determinism, locality, attack resistance, and baseline comparability.

use semrec::core::{Recommender, RecommenderConfig, SynthesisStrategy};
use semrec::datagen::attack::{inject_profile_copy_attack, AttackConfig};
use semrec::datagen::community::{generate_community, CommunityGenConfig};
use semrec::eval::baselines::knn_product_cf;
use semrec::ProductId;

/// The pre-`Ranker`-trait pipeline, reimplemented inline from the public
/// stage functions exactly as `Recommender::peer_weights` composed them
/// before the refactor: neighborhood → per-peer scores → `synthesize` →
/// weighted vote → truncate. The golden test below holds the refactored
/// engine to this bit-for-bit.
fn pre_refactor_recommend(
    engine: &Recommender,
    target: semrec::AgentId,
    n: usize,
) -> Vec<semrec::Recommendation> {
    use semrec::core::recommend::{novel_only, vote};
    use semrec::core::synthesis::{synthesize, PeerScores};
    use semrec::trust::neighborhood::form_neighborhood_csr;

    let model = engine.community();
    let config = engine.config();
    let neighborhood =
        form_neighborhood_csr(engine.shared().trust_csr(), target, &config.neighborhood).unwrap();
    let target_profile = engine.profiles().profile(target);
    let peers: Vec<PeerScores> = neighborhood
        .normalized()
        .into_iter()
        .map(|(agent, trust)| PeerScores {
            agent,
            trust,
            similarity: config
                .similarity
                .apply(target_profile, engine.profiles().profile(agent)),
        })
        .collect();
    let weighted = synthesize(config.synthesis, &peers);
    let mut recs = vote(model, target, &weighted, &config.voting);
    if config.novel_categories_only {
        recs = novel_only(model, target_profile, recs);
    }
    recs.truncate(n);
    recs
}

#[test]
fn similarity_ranker_reproduces_the_pre_refactor_pipeline_bit_for_bit() {
    // Paper-fidelity fixture world (Example 1 taxonomy/catalog) plus a
    // seeded synthetic community: on both, the refactored engine with the
    // default SimilarityRanker must reproduce the inline pre-refactor
    // pipeline bit-for-bit — scores compared by bits, not tolerance.
    let e = semrec::taxonomy::fixtures::example1();
    let products: Vec<_> = e.catalog.iter().collect();
    let mut fixture = semrec::core::Community::new(e.fig.taxonomy, e.catalog);
    let agents: Vec<_> = (0..5)
        .map(|i| fixture.add_agent(format!("http://ex.org/u{i}")).unwrap())
        .collect();
    fixture.trust.set_trust(agents[0], agents[1], 0.9).unwrap();
    fixture.trust.set_trust(agents[0], agents[2], 0.7).unwrap();
    fixture.trust.set_trust(agents[1], agents[3], 0.8).unwrap();
    fixture.trust.set_trust(agents[2], agents[4], 0.5).unwrap();
    for (i, &a) in agents.iter().enumerate() {
        fixture.set_rating(a, products[i % products.len()], 1.0).unwrap();
        fixture.set_rating(a, products[(i + 1) % products.len()], 0.5).unwrap();
    }
    let worlds = [fixture, generate_community(&CommunityGenConfig::small(17)).community];

    for community in worlds {
        let engine = Recommender::new(community, RecommenderConfig::default());
        let bits = |recs: &[semrec::Recommendation]| -> Vec<(ProductId, u64, usize)> {
            recs.iter().map(|r| (r.product, r.score.to_bits(), r.voters)).collect()
        };
        let mut compared = 0usize;
        for agent in engine.community().agents().take(60) {
            let golden = pre_refactor_recommend(&engine, agent, 10);
            let refactored = engine.recommend(agent, 10).unwrap();
            assert_eq!(
                bits(&golden),
                bits(&refactored),
                "trait extraction must be behavior-preserving for {agent:?}"
            );
            compared += golden.len();
        }
        assert!(compared > 0, "the golden comparison must not be vacuous");
    }
}

#[test]
fn recommendations_are_deterministic() {
    let generated = generate_community(&CommunityGenConfig::small(3));
    let engine_a = Recommender::new(generated.community.clone(), RecommenderConfig::default());
    let engine_b = Recommender::new(generated.community, RecommenderConfig::default());
    for agent in engine_a.community().agents().take(30) {
        assert_eq!(
            engine_a.recommend(agent, 10).unwrap(),
            engine_b.recommend(agent, 10).unwrap()
        );
    }
}

#[test]
fn pipeline_is_local_not_global() {
    // The engine explores only the trust neighborhood (§2 scalability):
    // the number of nodes the trust metric touches is far below n.
    let generated = generate_community(&CommunityGenConfig::small(4));
    let n = generated.community.agent_count();
    let engine = Recommender::new(generated.community, RecommenderConfig::default());
    let mut explored_max = 0;
    for agent in engine.community().agents().take(20) {
        let (_, trace) = engine.recommend_traced(agent, 10).unwrap();
        explored_max = explored_max.max(trace.nodes_explored);
        assert!(trace.neighborhood_size <= 50, "neighborhood cap must hold");
    }
    assert!(explored_max > 0);
    assert!(explored_max <= n, "never more than the whole community");
}

#[test]
fn profile_copy_attack_defeats_plain_cf_but_not_the_hybrid() {
    let generated = generate_community(&CommunityGenConfig::small(21));
    let mut community = generated.community;
    let victim = community.agents().nth(3).unwrap();
    let pushed: ProductId = community
        .catalog
        .iter()
        .find(|&p| {
            community.rating(victim, p).is_none()
                && community.agents().all(|a| community.rating(a, p).is_none())
        })
        .unwrap();

    inject_profile_copy_attack(
        &mut community,
        &AttackConfig { sybils: 30, pushed_product: pushed, victim, build_clique: true, seed: 5 },
    );

    let plain = knn_product_cf(&community, victim, 20, 10);
    assert_eq!(plain.first(), Some(&pushed), "plain CF must be fooled");

    let engine = Recommender::new(community, RecommenderConfig::default());
    let hybrid = engine.recommend(victim, 10).unwrap();
    assert!(
        hybrid.iter().all(|r| r.product != pushed),
        "the trust-filtered hybrid must suppress the pushed product"
    );
}

#[test]
fn synthesis_strategies_produce_orderable_output() {
    let generated = generate_community(&CommunityGenConfig::small(8));
    for strategy in [
        SynthesisStrategy::LinearBlend { xi: 0.0 },
        SynthesisStrategy::LinearBlend { xi: 0.5 },
        SynthesisStrategy::LinearBlend { xi: 1.0 },
        SynthesisStrategy::BordaMerge,
        SynthesisStrategy::TrustFilter,
    ] {
        let config = RecommenderConfig { synthesis: strategy, ..Default::default() };
        let engine = Recommender::new(generated.community.clone(), config);
        let mut produced = 0usize;
        for agent in engine.community().agents().take(20) {
            let recs = engine.recommend(agent, 10).unwrap();
            assert!(recs.windows(2).all(|w| w[0].score >= w[1].score));
            produced += recs.len();
        }
        assert!(produced > 0, "{strategy:?} must produce recommendations");
    }
}

#[test]
fn batch_matches_sequential_on_generated_data() {
    let generated = generate_community(&CommunityGenConfig::small(11));
    let engine = Recommender::new(generated.community, RecommenderConfig::default());
    let targets: Vec<_> = engine.community().agents().take(40).collect();
    let sequential = semrec::core::batch::recommend_batch(&engine, &targets, 10, 1);
    let parallel = semrec::core::batch::recommend_batch(&engine, &targets, 10, 8);
    for (a, b) in sequential.iter().zip(parallel.iter()) {
        assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
    }
}
