//! Acceptance tests for the fault-injection and resilience layer (PR 2):
//!
//! * with a 30% transient-fault plan at a fixed seed, the Example-1-style
//!   pipeline still emits a non-empty recommendation list for every test
//!   user, marks the run degraded, and the engine's books count every
//!   degraded run;
//! * with a zero-fault plan, the resilient path is byte-identical to the
//!   plain (pre-resilience) crawl — recommendations *and* counters.

use semrec::core::{Community, Recommender, RecommenderConfig};
use semrec::taxonomy::fixtures::example1;
use semrec::web::crawler::{
    assemble_community, crawl, crawl_resilient, CrawlConfig, CrawlResult,
};
use semrec::web::fault::{FaultPlan, FaultyWeb};
use semrec::web::policy::{CircuitBreaker, FetchPolicy};
use semrec::web::publish::publish_community;
use semrec::web::store::DocumentWeb;

const TEST_USERS: [&str; 3] =
    ["http://ex.org/alice", "http://ex.org/bob", "http://ex.org/dave"];

/// The E1 four-agent community plus six satellite raters, wired so that
/// every test user's neighborhood is redundant: losing any one satellite
/// document must not empty anyone's recommendation list.
fn community() -> Community {
    let e = example1();
    let products: Vec<_> = e.catalog.iter().collect();
    let mut c = Community::new(e.fig.taxonomy, e.catalog);
    let alice = c.add_agent("http://ex.org/alice").unwrap();
    let bob = c.add_agent("http://ex.org/bob").unwrap();
    let dave = c.add_agent("http://ex.org/dave").unwrap();
    let eve = c.add_agent("http://ex.org/eve").unwrap();
    c.trust.set_trust(alice, bob, 0.9).unwrap();
    c.trust.set_trust(alice, dave, 0.8).unwrap();
    c.trust.set_trust(bob, alice, 0.7).unwrap();
    c.trust.set_trust(bob, dave, 0.6).unwrap();
    c.trust.set_trust(dave, eve, 0.6).unwrap();
    c.trust.set_trust(dave, alice, 0.5).unwrap();
    c.set_rating(alice, products[1], 1.0).unwrap();
    c.set_rating(bob, products[0], 1.0).unwrap();
    c.set_rating(dave, products[2], 1.0).unwrap();
    c.set_rating(dave, products[3], 0.9).unwrap();
    c.set_rating(eve, products[3], 1.0).unwrap();
    // Satellites: each test user trusts two of them, each rates a product,
    // so votes survive the loss of any single homepage.
    let core = [alice, bob, dave];
    for (i, name) in ["frank", "grace", "heidi", "ivan", "judy", "ken"].iter().enumerate() {
        let sat = c.add_agent(format!("http://ex.org/{name}")).unwrap();
        c.trust.set_trust(core[i % 3], sat, 0.4).unwrap();
        c.trust.set_trust(core[(i + 1) % 3], sat, 0.3).unwrap();
        c.set_rating(sat, products[i % 4], 0.8).unwrap();
    }
    c
}

/// Crawl seeds: every homepage (full visibility at range 0 hops already).
fn seeds(c: &Community) -> Vec<String> {
    let mut seeds: Vec<String> =
        c.agents().map(|a| c.agent(a).unwrap().uri.clone()).collect();
    seeds.sort();
    seeds
}

/// Renders recommendations for every agent of an assembled community with
/// bit-exact scores (sorted by agent URI, so independent of assembly order).
fn render(engine: &Recommender) -> String {
    let mut uris: Vec<String> = engine
        .community()
        .agents()
        .map(|a| engine.community().agent(a).unwrap().uri.clone())
        .collect();
    uris.sort();
    let mut out = String::new();
    for uri in uris {
        let target = engine.community().agent_by_uri(&uri).unwrap();
        out.push_str(&uri);
        out.push(':');
        for rec in engine.recommend(target, 10).expect("recommendation succeeds") {
            let identifier = &engine.community().catalog.product(rec.product).identifier;
            out.push_str(&format!(" {identifier}={}", rec.score.to_bits()));
        }
        out.push('\n');
    }
    out
}

fn engine_from(result: &CrawlResult, source: &Community) -> Recommender {
    let (rebuilt, _) =
        assemble_community(&result.agents, source.taxonomy.clone(), source.catalog.clone());
    Recommender::new(rebuilt, RecommenderConfig::default()).with_source_health(result.health())
}

/// The fixed 30%-transient plan used by the degraded-run acceptance test:
/// the first seed (stable by construction — fault decisions are pure
/// hashes) whose losses hit only satellite homepages, so the claim "every
/// test user is still served" is about redundancy absorbing real loss, not
/// about a lucky lossless run.
fn degrading_plan(c: &Community, web: &DocumentWeb) -> (FaultPlan, FetchPolicy) {
    let policy = FetchPolicy { max_attempts: 2, ..FetchPolicy::default() };
    let seed = (0..500u64)
        .find(|&seed| {
            let plan = FaultPlan::transient(0.3, seed);
            let faulty = FaultyWeb::new(web, plan);
            let (result, _) =
                crawl_resilient(&faulty, &seeds(c), &CrawlConfig::default(), &policy);
            let lost: Vec<&str> = result
                .errors
                .iter()
                .filter_map(|e| e.uri())
                .collect();
            result.gave_up >= 1
                && lost.iter().all(|uri| !TEST_USERS.contains(uri))
        })
        .expect("some 30% plan loses only satellite documents");
    (FaultPlan::transient(0.3, seed), policy)
}

#[test]
fn thirty_percent_faults_degrade_gracefully_with_consistent_counters() {
    let c = community();
    let web = DocumentWeb::new();
    publish_community(&c, &web);
    let (plan, policy) = degrading_plan(&c, &web);

    let faulty = FaultyWeb::new(&web, plan);
    let (result, breaker) =
        crawl_resilient(&faulty, &seeds(&c), &CrawlConfig::default(), &policy);

    // The crawl lost something — this is a genuinely degraded run.
    assert!(result.gave_up >= 1);
    let health = result.health();
    assert!(health.is_degraded());
    assert!(health.coverage() < 1.0);

    // The resilience machinery engaged, and every breaker opening is a
    // recorded transition of this crawl.
    assert!(result.retries > 0, "a 30% plan must force retries");
    let opened = result
        .breaker_transitions
        .iter()
        .filter(|(_, state)| *state == semrec::web::policy::BreakerState::Open)
        .count();
    assert_eq!(breaker.times_opened(), opened as u64);

    // Every test user still gets a non-empty recommendation list, and each
    // run on the degraded community is counted.
    let engine = engine_from(&result, &c);
    for uri in TEST_USERS {
        let target = engine
            .community()
            .agent_by_uri(uri)
            .unwrap_or_else(|| panic!("{uri} must survive the crawl"));
        let recs = engine.recommend(target, 10).expect("recommendation succeeds");
        assert!(!recs.is_empty(), "{uri} must still be served on the degraded community");
        // Explanations carry the degradation provenance.
        let explanation =
            engine.explain(target, recs[0].product).expect("explainable").expect("has voters");
        assert_eq!(explanation.degraded, Some(health));
    }
    assert_eq!(
        engine.metrics().counters["engine.degraded_runs"],
        TEST_USERS.len() as u64,
        "each recommend on a degraded community must be counted"
    );
}

#[test]
fn zero_fault_plan_is_byte_identical_to_the_plain_crawl() {
    let c = community();
    let web = DocumentWeb::new();
    publish_community(&c, &web);

    // Baseline: today's reliable path.
    let plain = crawl(&web, &seeds(&c), &CrawlConfig::default());
    let plain_engine = engine_from(&plain, &c);
    let plain_recs = render(&plain_engine);

    // Resilient path over a zero-fault plan, full retry/breaker machinery
    // armed but never triggered.
    let faulty = FaultyWeb::new(&web, FaultPlan::none());
    let (resilient, breaker) =
        crawl_resilient(&faulty, &seeds(&c), &CrawlConfig::default(), &FetchPolicy::default());
    let resilient_engine = engine_from(&resilient, &c);
    let resilient_recs = render(&resilient_engine);

    assert_eq!(plain_recs, resilient_recs, "zero faults must reproduce the baseline exactly");
    assert_eq!(
        (plain.metrics().counters, plain_engine.metrics().counters),
        (resilient.metrics().counters, resilient_engine.metrics().counters),
        "the armed machinery must not move a single crawl or engine counter"
    );
    assert_eq!(resilient.retries, 0);
    assert_eq!(resilient.gave_up + resilient.unreachable + resilient.corrupted, 0);
    assert_eq!(breaker.times_opened(), 0);
    assert!(!resilient.health().is_degraded());
    // The breaker type itself stays inert on the plain path too.
    assert_eq!(CircuitBreaker::for_policy(&FetchPolicy::no_retry()).open_peers(), 0);
}
