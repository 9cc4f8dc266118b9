//! Each owner keeps its own books: an engine's `metrics()` is the sum of the
//! traces it returned, a batch's worker counters partition its work, a web's
//! traffic counters match the crawl that caused the traffic, and two owners
//! of one kind in one process never see each other's work. No test here
//! takes a lock or resets anything.

use std::sync::Barrier;

use semrec::core::{recommend_batch, Recommender, RecommenderConfig};
use semrec::p2p::{GossipConfig, P2pSimulation};
use semrec::shard::{HashShardFn, ShardedModel};
use semrec::store::Store;
use semrec::taxonomy::fixtures::example1;
use semrec::web::fault::FaultPlan;
use semrec::web::publish::publish_community;
use semrec::web::store::DocumentWeb;
use semrec::{AgentId, Community};

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

/// A ring community of `n` agents.
fn ring_community(n: usize) -> (Community, Vec<AgentId>) {
    let e = example1();
    let products: Vec<_> = e.catalog.iter().collect();
    let mut c = Community::new(e.fig.taxonomy, e.catalog);
    let agents: Vec<AgentId> =
        (0..n).map(|i| c.add_agent(format!("http://ex.org/u{i:02}")).unwrap()).collect();
    for i in 0..n {
        c.trust.set_trust(agents[i], agents[(i + 1) % n], 0.9).unwrap();
        c.set_rating(agents[i], products[i % 4], 1.0).unwrap();
    }
    (c, agents)
}

#[test]
fn registry_counters_match_pipeline_trace_exactly() {
    let (recommender, agents) = community();

    let (_, trace) = recommender.recommend_traced(agents[0], 10).unwrap();

    // The engine's books after this single run are exactly the trace the
    // run returned.
    let snapshot = recommender.metrics();
    assert_eq!(snapshot.counters["engine.trust_iterations"], trace.trust_iterations as u64);
    assert_eq!(snapshot.counters["engine.nodes_explored"], trace.nodes_explored as u64);
    assert_eq!(snapshot.counters["engine.effective_peers"], trace.effective_peers as u64);
    assert_eq!(snapshot.counters["engine.runs"], 1);

    // The trace is per run, the counters cumulative: a second run (eve, who
    // reaches everyone through alice) returns its own trace, and every
    // counter moves by exactly that trace.
    let (_, second) = recommender.recommend_traced(agents[3], 10).unwrap();
    assert!(second.nodes_explored > trace.nodes_explored);
    let after = recommender.metrics();
    let delta = |name: &str| after.counters[name] - snapshot.counters[name];
    assert_eq!(delta("engine.trust_iterations"), second.trust_iterations as u64);
    assert_eq!(delta("engine.nodes_explored"), second.nodes_explored as u64);
    assert_eq!(delta("engine.effective_peers"), second.effective_peers as u64);
    assert_eq!(delta("engine.runs"), 1);
}

#[test]
fn batch_worker_counters_sum_to_sequential_total() {
    let (community, agents) = ring_community(23);
    // One engine per run: each run's books start at zero.
    let batch_counters = |threads: usize| {
        let engine = Recommender::new(community.clone(), RecommenderConfig::default());
        recommend_batch(&engine, &agents, 5, threads);
        engine.metrics().counters
    };

    let sequential_total = batch_counters(1)["batch.tasks"];
    assert_eq!(sequential_total, agents.len() as u64);

    for threads in [2, 3, 8] {
        let counters = batch_counters(threads);
        assert_eq!(
            counters["batch.tasks"], sequential_total,
            "total tasks must not depend on thread count"
        );
        let worker_sum: u64 = counters
            .iter()
            .filter(|(name, _)| name.starts_with("batch.worker.") && name.ends_with(".tasks"))
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
    let (recommender, agents) = community();

    recommender.recommend(agents[0], 5).unwrap();
    recommender.recommend(agents[1], 5).unwrap();

    let snapshot = recommender.metrics();
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
    assert_eq!(snapshot.counters["profiles.similarity.pearson"], 0);
}

#[test]
fn serving_metrics_do_not_disturb_engine_goldens() {
    let (recommender, agents) = community();

    // The golden reference: one direct traced run.
    let (direct, trace) = recommender.recommend_traced(agents[0], 10).unwrap();

    // Serve the same request through a single-worker, cache-less server.
    // Its serve.* counters live in the registry the server owns; its worker
    // runs a clone of the engine, which shares the engine's books.
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
    let engine_view = recommender.metrics();
    assert!(engine_view.retain_prefix("serve.").is_empty(), "{engine_view:?}");
    assert_eq!(engine_view.counters["engine.runs"], 2, "direct run + served run");

    // The served run targeted the same agent, so it added the direct run's
    // trace to every counter exactly once more.
    let twice = |traced: usize| 2 * traced as u64;
    assert_eq!(engine_view.counters["engine.trust_iterations"], twice(trace.trust_iterations));
    assert_eq!(engine_view.counters["engine.nodes_explored"], twice(trace.nodes_explored));
    assert_eq!(engine_view.counters["engine.effective_peers"], twice(trace.effective_peers));
}

#[test]
fn crawl_and_store_counters_track_a_publish_fetch_cycle() {
    let (recommender, _) = community();
    let community = recommender.community();

    let web = DocumentWeb::new();
    publish_community(community, &web);
    let seeds = vec!["http://ex.org/alice".to_owned()];
    let result = semrec::web::crawler::crawl(
        &web,
        &seeds,
        &semrec::web::crawler::CrawlConfig::default(),
    );

    // Hits and misses are counted separately; together they are the web's
    // total served traffic, and this crawl is all of it.
    let traffic = web.metrics().counters;
    let (reads, misses) = (traffic["web.store.reads"], traffic["web.store.misses"]);
    assert_eq!(reads + misses, web.fetch_count());
    assert_eq!(reads, result.documents_fetched as u64);
    assert_eq!(misses, result.missing as u64, "crawl misses are exactly the dangling links");
    assert_eq!(traffic["web.store.writes"], web.len() as u64);
    // Level counts partition the fetch attempts, under their metric names
    // too.
    assert_eq!(
        result.fetches_per_level.iter().sum::<usize>(),
        result.documents_fetched + result.missing,
        "per-level fetches must partition the crawl"
    );
    let rendered = result.metrics().counters;
    assert_eq!(rendered["crawl.level.0.fetches"], result.fetches_per_level[0] as u64);
    assert_eq!(rendered["crawl.fetch.parsed"], result.documents_fetched as u64);
}

/// What the process-wide registry got wrong: counters that summed every
/// instance (`p2p.peers*`) and gauges the last writer won (`model.bytes*`,
/// `shard.count`). Each is now a fact about one instance.
#[test]
fn peer_counts_and_gauges_are_per_instance() {
    let (small, _) = ring_community(6);
    let (large, _) = ring_community(14);

    // p2p.peers / p2p.peers.dead: two swarms, built one after the other.
    let swarm = |community: &Community, dead_rate: f64| {
        let web = DocumentWeb::new();
        publish_community(community, &web);
        let uris: Vec<String> =
            community.agents().map(|a| community.agent(a).unwrap().uri.clone()).collect();
        let plan = FaultPlan { dead_rate, seed: 3, ..FaultPlan::none() };
        P2pSimulation::bootstrap(&web, &uris, plan, GossipConfig::default())
    };
    let healthy = swarm(&small, 0.0);
    let sickly = swarm(&large, 0.4);
    let dead = sickly.peers().iter().filter(|p| p.is_dead()).count() as u64;
    assert!(dead > 0, "a 40% dead rate must kill someone");
    assert_eq!(healthy.metrics().counters["p2p.peers"], 6);
    assert_eq!(healthy.metrics().counters["p2p.peers.dead"], 0);
    assert_eq!(sickly.metrics().counters["p2p.peers"], 14);
    assert_eq!(sickly.metrics().counters["p2p.peers.dead"], dead);

    // model.bytes*: the later, smaller model does not overwrite the earlier.
    let big_engine = Recommender::new(large.clone(), RecommenderConfig::default());
    let small_engine = Recommender::new(small.clone(), RecommenderConfig::default());
    for engine in [&big_engine, &small_engine] {
        let gauges = engine.metrics().gauges;
        let model = engine.shared();
        assert_eq!(gauges["model.bytes"], model.resident_bytes() as f64);
        assert_eq!(gauges["model.bytes.trust_csr"], model.trust_csr().resident_bytes() as f64);
        assert_eq!(
            gauges["model.bytes.profile_slab"],
            model.profiles().resident_bytes() as f64
        );
    }
    assert!(
        big_engine.metrics().gauges["model.bytes"] > small_engine.metrics().gauges["model.bytes"]
    );

    // shard.count: likewise.
    let partition = |shards: usize| {
        let config = RecommenderConfig::default();
        ShardedModel::partition(&large, config, std::sync::Arc::new(HashShardFn), shards, 1).0
    };
    let (four, two) = (partition(4), partition(2));
    assert_eq!(four.metrics().gauges["shard.count"], 4.0);
    assert_eq!(two.metrics().gauges["shard.count"], 2.0);
}

/// Two engines, two stores and two swarms driven at the same time by two
/// threads, no mutex anywhere: each owner's `metrics()` is the sum of the
/// reports that owner returned, and shows none of its neighbour's work.
#[test]
fn two_owners_two_books() {
    struct Driven {
        engine: Recommender,
        traces: Vec<semrec::core::PipelineTrace>,
        store: Store,
        snapshot_bytes: Vec<u64>,
        recoveries: u64,
        swarm: P2pSimulation,
    }

    let scratch = |tag: &str| {
        let dir = std::env::temp_dir()
            .join(format!("semrec-two-owners-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    // The threads differ in every amount of work, so books that leaked
    // into each other could not add up on both sides.
    let start = Barrier::new(2);
    let drive = |tag: &str, n: usize, checkpoints: u64, recoveries: u64, rounds: u32| {
        let (community, agents) = ring_community(n);
        let web = DocumentWeb::new();
        publish_community(&community, &web);
        let uris: Vec<String> =
            community.agents().map(|a| community.agent(a).unwrap().uri.clone()).collect();
        let engine = Recommender::new(community, RecommenderConfig::default());
        let store = Store::open(scratch(tag)).unwrap();
        let mut swarm =
            P2pSimulation::bootstrap(&web, &uris, FaultPlan::none(), GossipConfig::default());

        start.wait();
        let traces =
            agents.iter().map(|&a| engine.recommend_traced(a, 5).unwrap().1).collect();
        let snapshot_bytes = (1..=checkpoints)
            .map(|epoch| store.checkpoint(&engine, &[], epoch).unwrap().snapshot_bytes)
            .collect();
        for _ in 0..recoveries {
            store.recover().unwrap();
        }
        swarm.run(rounds);
        Driven { engine, traces, store, snapshot_bytes, recoveries, swarm }
    };
    let (a, b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| drive("a", 7, 1, 2, 2));
        let b = scope.spawn(|| drive("b", 12, 3, 0, 5));
        (a.join().unwrap(), b.join().unwrap())
    });

    for (driven, n, rounds) in [(&a, 7u64, 2u64), (&b, 12, 5)] {
        let engine = driven.engine.metrics().counters;
        let sum = |field: fn(&semrec::core::PipelineTrace) -> usize| {
            driven.traces.iter().map(field).sum::<usize>() as u64
        };
        assert_eq!(engine["engine.runs"], n);
        assert_eq!(engine["engine.trust_iterations"], sum(|t| t.trust_iterations));
        assert_eq!(engine["engine.nodes_explored"], sum(|t| t.nodes_explored));
        assert_eq!(engine["engine.effective_peers"], sum(|t| t.effective_peers));

        let store = driven.store.metrics().counters;
        assert_eq!(store["store.snapshot.write"], driven.snapshot_bytes.len() as u64);
        assert_eq!(store["store.snapshot.write.bytes"], driven.snapshot_bytes.iter().sum::<u64>());
        assert_eq!(store["store.snapshot.load"], driven.recoveries);
        assert_eq!(store["store.wal.replayed"], 0);

        let swarm = driven.swarm.metrics().counters;
        let stats = driven.swarm.stats();
        assert_eq!(swarm["p2p.peers"], n);
        assert_eq!(swarm["p2p.gossip.rounds"], rounds);
        assert_eq!(swarm["p2p.messages.sent"], stats.messages_sent);
        assert_eq!(swarm["p2p.records.merged"], stats.records_merged);
        assert!(stats.messages_sent > 0);

        std::fs::remove_dir_all(driven.store.dir()).ok();
    }
    assert_ne!(a.swarm.stats(), b.swarm.stats(), "the two swarms did different work");
}
