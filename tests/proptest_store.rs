//! Persistence property: for *any* random community and *any* random
//! republish sequence appended to the WAL, recovery (snapshot + replay)
//! must land bit-for-bit on the state the never-restarted pipeline
//! computes — the headline guarantee of `semrec-store`. (The snapshot
//! round trip on its own is `tests/proptest_arena.rs`.)

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use semrec::core::{Community, Recommender, RecommenderConfig};
use semrec::store::Store;
use semrec::taxonomy::fixtures::example1;
use semrec::web::crawler::{crawl, refresh, CommunityBuilder, CrawlConfig};
use semrec::web::publish::{homepage_turtle, homepage_uri, publish_community};
use semrec::web::store::DocumentWeb;
use semrec::{AgentId, ProductId};

/// A unique per-case scratch directory (no external tempfile crate).
fn scratch() -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("semrec-proptest-store-{}-{n}", std::process::id()))
}

/// Builds a community over the Example 1 world from generated edge/rating
/// lists (indexes taken modulo the population).
fn build(
    n_agents: usize,
    trust: &[(usize, usize, f64)],
    ratings: &[(usize, usize, f64)],
) -> Community {
    let e = example1();
    let mut c = Community::new(e.fig.taxonomy, e.catalog);
    let agents: Vec<AgentId> = (0..n_agents)
        .map(|i| c.add_agent(format!("http://ex.org/u{i}")).unwrap())
        .collect();
    for &(a, b, w) in trust {
        let (a, b) = (a % n_agents, b % n_agents);
        if a != b {
            c.trust.set_trust(agents[a], agents[b], w).unwrap();
        }
    }
    let m = c.catalog.len();
    for &(a, p, r) in ratings {
        c.set_rating(agents[a % n_agents], ProductId::from_index(p % m), r).unwrap();
    }
    c
}

/// One republish operation against the source community.
#[derive(Clone, Debug)]
enum Op {
    SetRating(usize, usize, f64),
    RemoveRating(usize, usize),
    SetTrust(usize, usize, f64),
    AddAgent(usize, f64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..16, 0usize..4, -1.0f64..=1.0).prop_map(|(a, p, r)| Op::SetRating(a, p, r)),
        (0usize..16, 0usize..4).prop_map(|(a, p)| Op::RemoveRating(a, p)),
        (0usize..16, 0usize..16, -1.0f64..=1.0).prop_map(|(a, b, w)| Op::SetTrust(a, b, w)),
        (0usize..16, 0.1f64..=1.0).prop_map(|(a, w)| Op::AddAgent(a, w)),
    ]
}

/// Applies one op, returning the agents whose homepages changed.
fn apply(source: &mut Community, op: &Op, extra: &mut usize) -> Vec<AgentId> {
    let n = source.agent_count();
    let m = source.catalog.len();
    match *op {
        Op::SetRating(a, p, r) => {
            let a = AgentId::from_index(a % n);
            source.set_rating(a, ProductId::from_index(p % m), r).unwrap();
            vec![a]
        }
        Op::RemoveRating(a, p) => {
            let a = AgentId::from_index(a % n);
            source.remove_rating(a, ProductId::from_index(p % m));
            vec![a]
        }
        Op::SetTrust(a, b, w) => {
            let (a, b) = (AgentId::from_index(a % n), AgentId::from_index(b % n));
            if a == b {
                return Vec::new();
            }
            source.trust.set_trust(a, b, w).unwrap();
            vec![a]
        }
        Op::AddAgent(a, w) => {
            let truster = AgentId::from_index(a % n);
            *extra += 1;
            let added = source.add_agent(format!("http://ex.org/extra{extra}")).unwrap();
            source.trust.set_trust(truster, added, w).unwrap();
            vec![truster, added]
        }
    }
}

/// Renders a community byte-for-byte: URIs in id order, trust weights and
/// rating values down to the bit.
fn render(c: &Community) -> String {
    let mut out = String::new();
    for agent in c.agents() {
        out.push_str(&c.agent(agent).unwrap().uri);
        out.push(':');
        for &(t, w) in c.trust.out_edges(agent) {
            out.push_str(&format!(" t{}={}", t.index(), w.to_bits()));
        }
        for &(p, r) in c.ratings_of(agent) {
            out.push_str(&format!(" r{}={}", p.index(), r.to_bits()));
        }
        out.push('\n');
    }
    out
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
