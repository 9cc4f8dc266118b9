//! Incremental-equivalence property: for *any* random community and *any*
//! random republish sequence, the delta path (refresh → typed `CrawlDelta`
//! → `CommunityBuilder::apply_delta` → `Recommender::advance`) must land on
//! exactly the state a from-scratch pipeline (full crawl → assemble → build
//! every profile) computes — identical communities, identical bit-level
//! recommendation scores — and the `SwapPlan` dirty set must cover every
//! agent whose recommendations actually changed.

use proptest::prelude::*;
use semrec::core::{Recommender, RecommenderConfig, SwapPlan};
use semrec::web::crawler::{assemble_community, crawl, refresh, CommunityBuilder, CrawlConfig};
use semrec::web::publish::{homepage_turtle, homepage_uri, publish_community};
use semrec::web::store::DocumentWeb;

mod common;
use common::{apply, arb_op, build, render};

type World = (usize, Vec<(usize, usize, f64)>, Vec<(usize, usize, f64)>);

fn arb_world() -> impl Strategy<Value = World> {
    (3usize..10).prop_flat_map(|n| {
        (
            Just(n),
            prop::collection::vec((0..n, 0..n, -1.0f64..=1.0), 0..24),
            prop::collection::vec((0..n, 0usize..4, -1.0f64..=1.0), 0..24),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn incremental_path_is_byte_identical_to_from_scratch(
        (n, trust, ratings) in arb_world(),
        ops in prop::collection::vec(arb_op(), 1..10),
    ) {
        let mut source = build(n, &trust, &ratings);
        let web = DocumentWeb::new();
        publish_community(&source, &web);
        let seeds: Vec<String> =
            source.agents().map(|a| source.agent(a).unwrap().uri.clone()).collect();
        let config = CrawlConfig::default();
        let first = crawl(&web, &seeds, &config);

        let mut builder = CommunityBuilder::new(&first.agents);
        let (initial, _) =
            builder.build(source.taxonomy.clone(), source.catalog.clone());
        let engine = Recommender::new(initial, RecommenderConfig::default());
        let old_recs: Vec<(String, String)> = engine
            .community()
            .agents()
            .map(|a| {
                let mut bits = String::new();
                for rec in engine.recommend(a, 10).unwrap() {
                    bits.push_str(&format!(" {:?}={}", rec.product, rec.score.to_bits()));
                }
                (engine.community().agent(a).unwrap().uri.clone(), bits)
            })
            .collect();

        // Random republish sequence: mutate the source, republish exactly
        // the touched homepages, refresh.
        let mut extra = 0usize;
        for op in &ops {
            for agent in apply(&mut source, op, &mut extra) {
                let uri = source.agent(agent).unwrap().uri.clone();
                web.publish(homepage_uri(&uri), homepage_turtle(&source, agent), "text/turtle");
            }
        }
        let second = refresh(&web, &seeds, &config, &first);
        let delta = second.delta.clone().expect("refresh always diffs");
        let model_delta = delta.model_delta();

        // Incremental path.
        builder.apply_delta(&delta);
        let (next, _) = builder.build(source.taxonomy.clone(), source.catalog.clone());
        let (advanced, stats) = engine.advance(next, &model_delta, second.health());

        // From-scratch path over the same crawl result.
        let (scratch_community, _) = assemble_community(
            &second.agents,
            source.taxonomy.clone(),
            source.catalog.clone(),
        );
        let scratch = Recommender::new(scratch_community, RecommenderConfig::default());

        // Communities byte-identical: same numbering, same bits.
        prop_assert_eq!(render(advanced.community()), render(scratch.community()));
        prop_assert_eq!(
            stats.reused + stats.recomputed,
            advanced.community().agent_count(),
            "profile accounting must close"
        );

        // Top-10 recommendations bit-identical for every agent.
        let plan = SwapPlan::compute(
            engine.community(),
            advanced.community(),
            &model_delta,
            engine.config().neighborhood.appleseed.max_range,
            SwapPlan::DEFAULT_MAX_DIRTY_FRACTION,
        );
        for agent in advanced.community().agents() {
            let a = advanced.recommend(agent, 10).unwrap();
            let b = scratch.recommend(agent, 10).unwrap();
            prop_assert_eq!(&a, &b, "incremental and scratch recs must agree");

            // Dirty-set soundness: any agent whose recommendations moved
            // must be in the plan's dirty set (so its cache entry is never
            // carried).
            let uri = &advanced.community().agent(agent).unwrap().uri;
            let mut bits = String::new();
            for rec in &a {
                bits.push_str(&format!(" {:?}={}", rec.product, rec.score.to_bits()));
            }
            let before = old_recs.iter().find(|(u, _)| u == uri);
            let changed = match before {
                Some((_, old_bits)) => *old_bits != bits,
                None => true, // new agent: no prior answer to carry
            };
            if changed {
                prop_assert!(
                    plan.is_dirty(agent),
                    "agent {uri} changed answers but the plan marked it clean"
                );
            }
        }
    }
}
