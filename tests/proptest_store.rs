//! Persistence property: for *any* random community and *any* random
//! republish sequence appended to the WAL, recovery (snapshot + replay)
//! must land bit-for-bit on the state the never-restarted pipeline
//! computes — the headline guarantee of `semrec-store`. (The snapshot
//! round trip on its own is `tests/proptest_arena.rs`.)

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use semrec::core::{Recommender, RecommenderConfig};
use semrec::store::Store;
use semrec::web::crawler::{crawl, refresh, CommunityBuilder, CrawlConfig};
use semrec::web::publish::{homepage_turtle, homepage_uri, publish_community};
use semrec::web::store::DocumentWeb;

mod common;
use common::{apply, arb_op, build, render};

/// A unique per-case scratch directory (no external tempfile crate).
fn scratch() -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("semrec-proptest-store-{}-{n}", std::process::id()))
}

/// Renders every agent's top-10 recommendations down to the bit.
fn render_recs(engine: &Recommender) -> String {
    let mut out = String::new();
    for agent in engine.community().agents() {
        out.push_str(&engine.community().agent(agent).unwrap().uri);
        out.push(':');
        for rec in engine.recommend(agent, 10).unwrap() {
            out.push_str(&format!(" {:?}={}", rec.product, rec.score.to_bits()));
        }
        out.push('\n');
    }
    out
}

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
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Snapshot + WAL: checkpoint once, append every refresh delta, then
    /// recover — the recovered node must be bit-for-bit the node that
    /// never restarted, and resume at the epoch it would have reached.
    #[test]
    fn recovery_equals_never_having_restarted(
        (n, trust, ratings) in arb_world(),
        batches in prop::collection::vec(prop::collection::vec(arb_op(), 1..6), 1..5),
    ) {
        let mut source = build(n, &trust, &ratings);
        let web = DocumentWeb::new();
        publish_community(&source, &web);
        let seeds: Vec<String> =
            source.agents().map(|a| source.agent(a).unwrap().uri.clone()).collect();
        let crawl_config = CrawlConfig::default();
        let mut previous = crawl(&web, &seeds, &crawl_config);
        let mut builder = CommunityBuilder::new(&previous.agents);
        let (community, _) = builder.build(source.taxonomy.clone(), source.catalog.clone());
        let mut engine = Recommender::new(community, RecommenderConfig::default());

        let store = Store::open(scratch()).expect("scratch store opens");
        store.checkpoint(&engine, builder.agents(), 1).expect("checkpoint succeeds");

        // Each batch = one refresh round on the live node, appended to the
        // WAL exactly as the incremental web path would.
        let mut extra = 0usize;
        for ops in &batches {
            for op in ops {
                for agent in apply(&mut source, op, &mut extra) {
                    let uri = source.agent(agent).unwrap().uri.clone();
                    web.publish(homepage_uri(&uri), homepage_turtle(&source, agent), "text/turtle");
                }
            }
            let result = refresh(&web, &seeds, &crawl_config, &previous);
            let delta = result.delta.clone().expect("refresh always diffs");
            let health = result.health();
            store.append_delta(&delta, &health).expect("append succeeds");

            builder.apply_delta(&delta);
            let (next, _) = builder.build(source.taxonomy.clone(), source.catalog.clone());
            let (advanced, _) = engine.advance(next, &delta.model_delta(), health);
            engine = advanced;
            previous = result;
        }

        let recovery = store.recover().expect("recovery succeeds");
        prop_assert_eq!(recovery.replayed, batches.len());
        prop_assert_eq!(recovery.epoch, 1 + batches.len() as u64);
        prop_assert!(!recovery.degraded());
        prop_assert_eq!(&recovery.view, builder.agents());
        prop_assert_eq!(
            render(recovery.engine.community()),
            render(engine.community())
        );
        prop_assert_eq!(render_recs(&recovery.engine), render_recs(&engine));
        std::fs::remove_dir_all(store.dir()).ok();
    }
}
