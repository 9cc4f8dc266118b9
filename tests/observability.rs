//! Golden comparisons between the observability layer and the pipeline's
//! own diagnostics: the registry must agree with `PipelineTrace`, and the
//! batch worker counters must partition the work exactly.
//!
//! All tests share the process-global registry, so they serialize on a
//! mutex and reset the registry at the start of each critical section.

use std::sync::{Mutex, MutexGuard};

use semrec::core::{recommend_batch, Recommender, RecommenderConfig};
use semrec::obs;
use semrec::taxonomy::fixtures::example1;
use semrec::{AgentId, Community};

/// Serializes tests touching the global registry (shared across this
/// binary's test threads).
fn lock() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The engine-test community: alice trusts bob (math) and dave (sci-fi).
fn community() -> (Recommender, Vec<AgentId>) {
    let e = example1();
    let products: Vec<_> = e.catalog.iter().collect();
    let mut c = Community::new(e.fig.taxonomy, e.catalog);
    let alice = c.add_agent("http://ex.org/alice").unwrap();
    let bob = c.add_agent("http://ex.org/bob").unwrap();
    let dave = c.add_agent("http://ex.org/dave").unwrap();
    let eve = c.add_agent("http://ex.org/eve").unwrap();
    c.trust.set_trust(alice, bob, 0.9).unwrap();
    c.trust.set_trust(alice, dave, 0.8).unwrap();
    c.trust.set_trust(eve, alice, 1.0).unwrap();
    c.set_rating(alice, products[1], 1.0).unwrap();
    c.set_rating(bob, products[0], 1.0).unwrap();
    c.set_rating(dave, products[2], 1.0).unwrap();
    c.set_rating(dave, products[3], 0.9).unwrap();
    c.set_rating(eve, products[3], 1.0).unwrap();
    let agents = vec![alice, bob, dave, eve];
    (Recommender::new(c, RecommenderConfig::default()), agents)
}

/// A larger ring community for batch fan-out.
fn ring(n: usize) -> (Recommender, Vec<AgentId>) {
    let e = example1();
    let products: Vec<_> = e.catalog.iter().collect();
    let mut c = Community::new(e.fig.taxonomy, e.catalog);
    let agents: Vec<AgentId> =
        (0..n).map(|i| c.add_agent(format!("http://ex.org/u{i}")).unwrap()).collect();
    for i in 0..n {
        c.trust.set_trust(agents[i], agents[(i + 1) % n], 0.9).unwrap();
        c.set_rating(agents[i], products[i % 4], 1.0).unwrap();
    }
    (Recommender::new(c, RecommenderConfig::default()), agents)
}

#[test]
fn registry_counters_match_pipeline_trace_exactly() {
    let _serial = lock();
    let (recommender, agents) = community();
    obs::global().reset();

    let (_, trace) = recommender.recommend_traced(agents[0], 10).unwrap();

    let snapshot = obs::global().snapshot();
    // The appleseed counters incremented during this single run must agree
    // with the values the trace carried out of the trust metric.
    assert_eq!(snapshot.counters["appleseed.iterations"], trace.trust_iterations as u64);
    assert_eq!(snapshot.counters["appleseed.nodes_explored"], trace.nodes_explored as u64);
    // So must the engine-published mirrors.
    assert_eq!(snapshot.counters["engine.trust_iterations"], trace.trust_iterations as u64);
    assert_eq!(snapshot.counters["engine.nodes_explored"], trace.nodes_explored as u64);
    assert_eq!(snapshot.counters["engine.effective_peers"], trace.effective_peers as u64);
    assert_eq!(snapshot.counters["engine.runs"], 1);

    // The trace is per run, the counters cumulative: a second run (eve, who
    // reaches everyone through alice) returns its own trace, and every
    // counter moves by exactly that trace.
    let (_, second) = recommender.recommend_traced(agents[3], 10).unwrap();
    assert!(second.nodes_explored > trace.nodes_explored);
    let after = obs::global().snapshot();
    let delta = |name: &str| after.counters[name] - snapshot.counters[name];
    assert_eq!(delta("appleseed.iterations"), second.trust_iterations as u64);
    assert_eq!(delta("appleseed.nodes_explored"), second.nodes_explored as u64);
    assert_eq!(delta("engine.trust_iterations"), second.trust_iterations as u64);
    assert_eq!(delta("engine.nodes_explored"), second.nodes_explored as u64);
    assert_eq!(delta("engine.effective_peers"), second.effective_peers as u64);
    assert_eq!(delta("engine.runs"), 1);
}

#[test]
fn batch_worker_counters_sum_to_sequential_total() {
    let _serial = lock();
    let (recommender, agents) = ring(23);

    // Sequential reference run.
    obs::global().reset();
    recommend_batch(&recommender, &agents, 5, 1);
    let sequential_total = obs::global().snapshot().counters["batch.tasks"];
    assert_eq!(sequential_total, agents.len() as u64);

    for threads in [2, 3, 8] {
        obs::global().reset();
        recommend_batch(&recommender, &agents, 5, threads);
        let snapshot = obs::global().snapshot();
        assert_eq!(
            snapshot.counters["batch.tasks"],
            sequential_total,
            "total tasks must not depend on thread count"
        );
        let worker_sum: u64 = snapshot
            .counters
            .iter()
            .filter(|(name, _)| {
                name.starts_with("batch.worker.") && name.ends_with(".tasks")
            })
            .map(|(_, &count)| count)
            .sum();
        assert_eq!(
            worker_sum, sequential_total,
            "per-worker counters must partition the work at {threads} threads"
        );
    }
}

#[test]
fn engine_stage_spans_cover_every_run() {
    let _serial = lock();
    let (recommender, agents) = community();
    obs::global().reset();

    recommender.recommend(agents[0], 5).unwrap();
    recommender.recommend(agents[1], 5).unwrap();

    let snapshot = obs::global().snapshot();
    for stage in [
        "engine.stage.neighborhood",
        "engine.stage.profiles",
        "engine.stage.synthesis",
        "engine.stage.voting",
    ] {
        let histogram = &snapshot.histograms[stage];
        assert_eq!(histogram.count, 2, "{stage} must time both runs");
        assert!(histogram.sum >= 0.0);
    }
    // Similarity was computed once per (target, peer) pair: alice has two
    // peers, bob has none (nobody bob trusts is in the graph).
    assert_eq!(snapshot.counters["profiles.similarity.cosine"], 2);
}

#[test]
fn trace_tree_nests_stages_under_the_run() {
    let _serial = lock();
    let (recommender, agents) = community();
    let _ = obs::take_trace();

    {
        let _run = obs::span("test.run");
        recommender.recommend(agents[0], 5).unwrap();
    }
    let trace = obs::take_trace();
    assert_eq!(trace.roots.len(), 1, "one root span expected");
    let root = &trace.roots[0];
    assert_eq!(root.name, "test.run");
    let stages: Vec<&str> = root.children.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(
        stages,
        ["engine.stage.neighborhood", "engine.stage.profiles", "engine.stage.synthesis",
         "engine.stage.voting"],
        "pipeline stages must nest in execution order"
    );
    // The neighborhood stage itself nests the appleseed run.
    assert_eq!(root.children[0].children[0].name, "appleseed.run");
    let rendered = trace.render_text();
    assert!(rendered.contains("test.run"), "{rendered}");
    assert!(rendered.contains("  engine.stage.voting"), "{rendered}");
}

#[test]
fn observers_see_pipeline_span_events() {
    let _serial = lock();
    let (recommender, agents) = community();
    let ring = std::sync::Arc::new(obs::RingBufferObserver::new(256));
    obs::global().add_observer(ring.clone());

    recommender.recommend(agents[0], 5).unwrap();
    obs::global().clear_observers();

    let names: Vec<String> = ring.events().into_iter().map(|e| e.name).collect();
    assert!(names.iter().any(|n| n == "engine.stage.synthesis"), "{names:?}");
    assert!(names.iter().any(|n| n == "appleseed.run"), "{names:?}");
    let rendered = ring.render_text();
    assert!(rendered.contains("took"), "{rendered}");
}

#[test]
fn serving_metrics_do_not_disturb_engine_goldens() {
    let _serial = lock();
    let (recommender, agents) = community();
    obs::global().reset();

    // The golden reference: one direct traced run.
    let (direct, trace) = recommender.recommend_traced(agents[0], 10).unwrap();

    // Serve the same request through a single-worker, cache-less server.
    // Its serve.* counters live in the registry the server owns, so the
    // global registry the engine goldens read from never sees them.
    let server = semrec::serve::Server::start(
        recommender.clone(),
        semrec::serve::ServeConfig { workers: 1, cache_capacity: 0, ..Default::default() },
    );
    let response = server.submit(agents[0], 10).unwrap().wait().unwrap();
    assert_eq!(*response.recommendations, direct, "served must equal direct");
    let served = server.metrics();
    drop(server);

    assert_eq!(served.counters["serve.requests.served"], 1);
    assert_eq!(served.retain_prefix("serve."), served, "a server records serve.* only");
    // The two registries are disjoint by construction: the global one is
    // exactly the per-run engine view the goldens compare.
    let engine_view = obs::global().snapshot();
    assert!(engine_view.retain_prefix("serve.").is_empty(), "{engine_view:?}");
    assert!(engine_view.counters.keys().any(|name| name.starts_with("engine.")));
    assert_eq!(engine_view.counters["engine.runs"], 2, "direct run + served run");

    // The served run targeted the same agent, so it added the direct run's
    // trace to every counter exactly once more.
    let twice = |traced: usize| 2 * traced as u64;
    assert_eq!(engine_view.counters["appleseed.iterations"], twice(trace.trust_iterations));
    assert_eq!(engine_view.counters["appleseed.nodes_explored"], twice(trace.nodes_explored));
    assert_eq!(engine_view.counters["engine.trust_iterations"], twice(trace.trust_iterations));
    assert_eq!(engine_view.counters["engine.nodes_explored"], twice(trace.nodes_explored));
    assert_eq!(engine_view.counters["engine.effective_peers"], twice(trace.effective_peers));
}

#[test]
fn crawl_and_store_counters_track_a_publish_fetch_cycle() {
    let _serial = lock();
    let (recommender, _) = community();
    let community = recommender.community();
    obs::global().reset();

    let web = semrec::web::store::DocumentWeb::new();
    semrec::web::publish::publish_community(community, &web);
    let seeds = vec!["http://ex.org/alice".to_owned()];
    let result = semrec::web::crawler::crawl(
        &web,
        &seeds,
        &semrec::web::crawler::CrawlConfig::default(),
    );

    let snapshot = obs::global().snapshot();
    assert_eq!(
        snapshot.counters["crawl.fetch.parsed"],
        (result.documents_fetched - result.parse_errors) as u64
    );
    assert_eq!(snapshot.counters["crawl.fetch.missing"], result.missing as u64);
    // Hits and misses are counted separately; together they are the store's
    // total served traffic. (Counters are created lazily, so a crawl without
    // dangling links may never mint `web.store.misses`.)
    let reads = snapshot.counters.get("web.store.reads").copied().unwrap_or(0);
    let misses = snapshot.counters.get("web.store.misses").copied().unwrap_or(0);
    assert_eq!(reads + misses, web.fetch_count());
    assert_eq!(misses, result.missing as u64, "crawl misses are exactly the dangling links");
    assert!(snapshot.counters["web.store.writes"] >= web.len() as u64);
    // Level counters partition the fetch attempts.
    let level_sum: u64 = snapshot
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("crawl.level."))
        .map(|(_, &count)| count)
        .sum();
    assert_eq!(
        level_sum,
        (result.documents_fetched + result.missing) as u64,
        "per-level fetches must partition the crawl"
    );
}
