#![allow(dead_code)]
//! Helpers shared by the integration tests: the one random-world strategy
//! and its builder, the republish ops a source community is churned with,
//! a bit-exact community rendering, the per-agent top-10 digest every
//! route to an answer is compared by, and a scratch directory. Each test
//! binary compiles its own copy and uses part of it.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use semrec::core::Community;
use semrec::taxonomy::fixtures::example1;
use semrec::web::publish::publish_community;
use semrec::web::store::DocumentWeb;
use semrec::{AgentId, ProductId, Recommendation, Recommender};

/// A random world over Example 1: `agents` agents named
/// `http://ex.org/u{i:02}`, trust statements and ratings by index (taken
/// modulo the population), and optionally a positive trust ring.
#[derive(Clone, Debug)]
pub struct World {
    pub agents: usize,
    pub trust: Vec<(usize, usize, f64)>,
    pub ratings: Vec<(usize, usize, f64)>,
    /// Weights of the ring `i → i + 1`, laid over `trust` last so that
    /// every agent reaches every other; `None` draws no ring.
    pub ring: Option<Vec<f64>>,
}

/// The one world strategy: 3–15 agents, up to 40 trust statements in
/// `[-1, 1]`, up to 40 ratings of the four Example 1 products, and a ring
/// in half the worlds.
pub fn arb_world() -> impl Strategy<Value = World> {
    (3usize..16).prop_flat_map(|n| {
        (
            prop::collection::vec((0..n, 0..n, -1.0f64..=1.0), 0..40),
            prop::collection::vec((0..n, 0usize..4, -1.0f64..=1.0), 0..40),
            any::<bool>(),
            prop::collection::vec(0.05f64..=1.0, 1..8),
        )
            .prop_map(move |(trust, ratings, ring, weights)| World {
                agents: n,
                trust,
                ratings,
                ring: ring.then_some(weights),
            })
    })
}

impl World {
    /// The world's community.
    pub fn community(&self) -> Community {
        let n = self.agents;
        let ring =
            self.ring.iter().flat_map(|w| (0..n).map(move |i| (i, (i + 1) % n, w[i % w.len()])));
        let trust: Vec<_> = self.trust.iter().copied().chain(ring).collect();
        build(n, &trust, &self.ratings)
    }
}

/// Builds a community over the Example 1 world from generated edge/rating
/// lists (indexes taken modulo the population). URIs are zero-padded, so
/// sorted order is id order and a crawl numbers the agents as built.
pub fn build(
    n_agents: usize,
    trust: &[(usize, usize, f64)],
    ratings: &[(usize, usize, f64)],
) -> Community {
    let e = example1();
    let mut c = Community::new(e.fig.taxonomy, e.catalog);
    let agents: Vec<AgentId> = (0..n_agents)
        .map(|i| c.add_agent(format!("http://ex.org/u{i:02}")).unwrap())
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

/// Publishes every homepage of `community` and returns the web with the
/// agent URIs, sorted: the seeds of a crawl and the panel of a swarm.
pub fn publish(community: &Community) -> (DocumentWeb, Vec<String>) {
    let web = DocumentWeb::new();
    publish_community(community, &web);
    let mut uris: Vec<String> =
        community.agents().map(|a| community.agent(a).unwrap().uri.clone()).collect();
    uris.sort();
    (web, uris)
}

/// One republish operation against the source community. Indexes are taken
/// modulo the current population / catalog inside `apply`.
#[derive(Clone, Debug)]
pub enum Op {
    SetRating(usize, usize, f64),
    RemoveRating(usize, usize),
    SetTrust(usize, usize, f64),
    RemoveTrust(usize, usize),
    AddAgent(usize, f64),
}

pub fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..16, 0usize..4, -1.0f64..=1.0).prop_map(|(a, p, r)| Op::SetRating(a, p, r)),
        (0usize..16, 0usize..4).prop_map(|(a, p)| Op::RemoveRating(a, p)),
        (0usize..16, 0usize..16, -1.0f64..=1.0).prop_map(|(a, b, w)| Op::SetTrust(a, b, w)),
        (0usize..16, 0usize..16).prop_map(|(a, b)| Op::RemoveTrust(a, b)),
        (0usize..16, 0.1f64..=1.0).prop_map(|(a, w)| Op::AddAgent(a, w)),
    ]
}

/// Applies one op to the source community and returns the agents whose
/// homepages it (possibly) changed, so the caller can republish exactly
/// those documents — the realistic churn pattern the refresh crawler sees.
pub fn apply(source: &mut Community, op: &Op, extra: &mut usize) -> Vec<AgentId> {
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
        Op::RemoveTrust(a, b) => {
            let (a, b) = (AgentId::from_index(a % n), AgentId::from_index(b % n));
            source.trust.remove_trust(a, b);
            vec![a]
        }
        Op::AddAgent(a, w) => {
            let truster = AgentId::from_index(a % n);
            *extra += 1;
            let added = source.add_agent(format!("http://ex.org/extra{extra}")).unwrap();
            source.trust.set_trust(truster, added, w).unwrap();
            // The new homepage plus the truster's changed trust section.
            vec![truster, added]
        }
    }
}

/// Renders a community byte-for-byte: URIs in id order, trust weights and
/// rating values down to the bit.
pub fn render(c: &Community) -> String {
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

/// Answers keyed by agent URI: each list's products, score bits and voter
/// counts, in rank order. Keyed by URI, two routes that number the agents
/// differently still compare.
pub type Digest = BTreeMap<String, Vec<(ProductId, u64, usize)>>;

/// The digest of `answers`, the answers to `agents` (agents of `c`).
pub fn digest(
    c: &Community,
    agents: &[AgentId],
    answers: &[semrec::core::Result<Vec<Recommendation>>],
) -> Digest {
    assert_eq!(agents.len(), answers.len(), "one answer per agent");
    agents
        .iter()
        .zip(answers)
        .map(|(&agent, answer)| {
            let recs = answer.as_ref().expect("recommendation succeeds");
            let bits = recs.iter().map(|r| (r.product, r.score.to_bits(), r.voters)).collect();
            (c.agent(agent).unwrap().uri.clone(), bits)
        })
        .collect()
}

/// Every agent's top-10 from `engine`, called directly.
pub fn top10(engine: &Recommender) -> Digest {
    let agents: Vec<AgentId> = engine.community().agents().collect();
    let answers: Vec<_> = agents.iter().map(|&a| engine.recommend(a, 10)).collect();
    digest(engine.community(), &agents, &answers)
}

/// A run's counters without the per-worker task split, the one part of
/// an engine's books that depends on the thread count.
pub fn work_totals(counters: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    counters
        .iter()
        .filter(|(name, _)| !name.starts_with("batch.worker."))
        .map(|(name, &count)| (name.clone(), count))
        .collect()
}

/// A directory no other call in any test process names (no tempfile
/// crate); the caller removes it.
pub fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("semrec-test-{}-{tag}-{n}", std::process::id()))
}
