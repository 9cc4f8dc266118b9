//! End-to-end guarantees of the serving layer (`semrec-serve`), pinned at
//! the workspace level against the real engine:
//!
//! 1. **Determinism** — that served answers are the direct calls', bit for
//!    bit, from the engine or the cache and at any worker or lane count, is
//!    a row of `tests/conformance.rs`.
//! 2. **Hot swap** — publishing a new snapshot mid-load loses no in-flight
//!    request, routes every post-publish request to the new generation,
//!    and lets the old generation's model drop with its last reader. Under
//!    a real-thread `publish_delta` storm every answer is its epoch's
//!    model's, bit for bit, carried cache entries included.
//! 3. **Admission control** — at capacity the server sheds with a typed
//!    `Overloaded` error instead of queuing without bound, and shutdown
//!    answers still-queued requests instead of dropping them.
//! 4. **SLO semantics** — the deadline boundary is exactly `now > deadline`
//!    (a request whose deadline *is* the current tick is served), priority
//!    classes flow through the weighted-fair queue end to end, and under
//!    burst load against a degraded-source epoch every admitted request is
//!    answered with its explanation marked degraded.
//! 5. **One set of books per server** — `stats()`, `cache_stats()` and
//!    `metrics()` read the same cells, every admitted request has exactly
//!    one counted outcome (under a real-thread publish storm too), and no
//!    `serve.*` name is shared between servers.

use std::sync::Arc;

use semrec::core::{Recommender, RecommenderConfig, SourceHealth};
use semrec::serve::{
    run_open_loop, run_open_loop_with, ArrivalProcess, OpenLoopConfig, Priority, ServeConfig,
    ServeError, Server, SloConfig, SloController,
};
use semrec::taxonomy::fixtures::example1;
use semrec::{AgentId, Community};

mod common;
use common::{apply, arb_op, build};
use proptest::prelude::*;

/// A ring community: agent i trusts agent i+1 and rates one product.
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
fn snapshot_swap_mid_load_loses_nothing_and_retires_the_old_model() {
    let (engine, agents) = ring(32);
    let old_model = Arc::downgrade(&engine.shared());
    let server =
        Server::start(engine.clone(), ServeConfig { workers: 2, ..ServeConfig::default() });

    // A wave in flight, then a publish racing the workers.
    let first: Vec<_> = agents.iter().map(|&a| server.submit(a, 10).unwrap()).collect();
    let (next_engine, _) = ring(32);
    let new_epoch = server.publish(next_engine);
    assert_eq!(new_epoch, 2);
    let second: Vec<_> = agents.iter().map(|&a| server.submit(a, 10).unwrap()).collect();

    // Zero loss: every first-wave ticket resolves to a recommendation list,
    // served by whichever generation its batch pinned.
    for ticket in first {
        let response = ticket.wait().unwrap();
        assert!(response.epoch == 1 || response.epoch == new_epoch);
    }
    // Everything submitted after publish() returned sees the new epoch.
    for ticket in second {
        assert_eq!(ticket.wait().unwrap().epoch, new_epoch);
    }

    // The old generation's model drops once its last reader finishes. The
    // local `engine` handle is ours; after dropping it, only a worker still
    // mid-batch could pin the old snapshot, and only momentarily.
    drop(engine);
    let mut retired = false;
    for _ in 0..500 {
        if old_model.upgrade().is_none() {
            retired = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    assert!(retired, "the pre-swap model must drop with its last reader");
    drop(server);
}

#[test]
fn publishing_a_different_ranker_swaps_atomically_and_invalidates_the_cache() {
    use semrec::core::{Recommendation, SpreadingActivationRanker};

    // A ring plus a few chords, so the two rankers genuinely disagree.
    let (seed, agents) = ring(32);
    let mut c = seed.community().clone();
    for i in 0..8 {
        c.trust.set_trust(agents[i], agents[(i + 5) % 32], 0.8).unwrap();
    }
    let similarity = Recommender::new(c.clone(), RecommenderConfig::default());
    let spreading = Recommender::with_ranker(
        c,
        RecommenderConfig::default(),
        Arc::new(SpreadingActivationRanker::default()),
    );
    let bits = |recs: &[Recommendation]| -> Vec<(semrec::ProductId, u64)> {
        recs.iter().map(|r| (r.product, r.score.to_bits())).collect()
    };
    let direct_sim: Vec<_> =
        agents.iter().map(|&a| similarity.recommend(a, 10).unwrap()).collect();
    let direct_spread: Vec<_> =
        agents.iter().map(|&a| spreading.recommend(a, 10).unwrap()).collect();
    assert_ne!(
        bits(&direct_sim[0]),
        bits(&direct_spread[0]),
        "the fixture must make the rankers disagree, or the swap test is vacuous"
    );

    let server =
        Server::start(similarity, ServeConfig { workers: 2, ..ServeConfig::default() });
    // Warm the cache under the similarity ranker.
    assert!(!server.submit(agents[0], 10).unwrap().wait().unwrap().cache_hit);
    let warmed = server.submit(agents[0], 10).unwrap().wait().unwrap();
    assert!(warmed.cache_hit, "repeat must hit the epoch-1 cache");
    assert_eq!(bits(&warmed.recommendations), bits(&direct_sim[0]));

    // A wave in flight, then the ranker swap racing the workers.
    let first: Vec<_> = agents.iter().map(|&a| server.submit(a, 10).unwrap()).collect();
    let new_epoch = server.publish(spreading);
    let second: Vec<_> = agents.iter().map(|&a| server.submit(a, 10).unwrap()).collect();

    // No mixed-ranker batch: every first-wave answer is exactly one
    // generation's ranking — the epoch its micro-batch pinned.
    for (i, ticket) in first.into_iter().enumerate() {
        let response = ticket.wait().unwrap();
        let expected =
            if response.epoch == new_epoch { &direct_spread[i] } else { &direct_sim[i] };
        assert_eq!(
            bits(&response.recommendations),
            bits(expected),
            "agent {i} (epoch {}) must match that epoch's ranker exactly",
            response.epoch
        );
    }
    // Everything after publish() is ranked by the new generation — including
    // the warmed agent: the (epoch, agent, n) cache key makes the stale
    // similarity-ranked entry unreachable.
    for (i, ticket) in second.into_iter().enumerate() {
        let response = ticket.wait().unwrap();
        assert_eq!(response.epoch, new_epoch);
        assert_eq!(bits(&response.recommendations), bits(&direct_spread[i]));
    }
    // And the new generation caches normally under its own epoch.
    let rewarmed = server.submit(agents[0], 10).unwrap().wait().unwrap();
    assert!(rewarmed.cache_hit, "the post-swap entry must be cached");
    assert_eq!(bits(&rewarmed.recommendations), bits(&direct_spread[0]));
}

#[test]
fn admission_control_refuses_deterministically_and_shutdown_answers() {
    let (engine, agents) = ring(8);
    // Zero workers: nothing drains, so admission behavior is exact.
    let server = Server::start(
        engine,
        ServeConfig { workers: 0, queue_capacity: 3, ..ServeConfig::default() },
    );

    let queued: Vec<_> = (0..3).map(|_| server.submit(agents[0], 5).unwrap()).collect();
    match server.submit(agents[0], 5) {
        Err(ServeError::Overloaded { depth, capacity, class }) => {
            assert_eq!(depth, 3);
            assert_eq!(capacity, 3, "the shed error must name the capacity it ran into");
            assert_eq!(class, Priority::Normal);
        }
        other => panic!("4th submission into a 3-deep queue must shed, got {other:?}"),
    }
    assert_eq!(server.queue_depth(), 3);

    // Shutdown answers the still-queued requests rather than dropping them.
    let stats = server.shutdown();
    assert_eq!(stats.submitted, 3);
    assert_eq!(stats.served, 0, "no workers ran, so nothing was served");
    assert_eq!(stats.abandoned, 3, "what shutdown answered is on the books");
    assert_eq!(stats.shed_admission, 1);
    for ticket in queued {
        assert!(matches!(ticket.wait(), Err(ServeError::ShuttingDown)));
    }
}

/// Pins the deadline boundary: the shed condition is strictly
/// `now > deadline`, so a request drained on exactly its deadline tick is
/// served, and one tick later it is shed. This is the off-by-one the whole
/// goodput metric hangs on.
#[test]
fn deadline_boundary_is_inclusive_of_the_deadline_tick() {
    let (engine, agents) = ring(8);

    // Served: drained when now == deadline.
    let server = Server::start(engine.clone(), ServeConfig { workers: 0, ..Default::default() });
    let at_deadline = server.submit_with_deadline(agents[0], 5, Some(4)).unwrap();
    server.clock().advance(4);
    server.drain_step(8, 1, None);
    let response = at_deadline.try_wait().expect("resolved at its deadline tick");
    assert!(response.is_ok(), "deadline == now must be served, got {response:?}");
    server.shutdown();

    // Shed: drained one tick past.
    let server = Server::start(engine, ServeConfig { workers: 0, ..Default::default() });
    let past_deadline = server.submit_with_deadline(agents[0], 5, Some(4)).unwrap();
    server.clock().advance(5);
    server.drain_step(8, 1, None);
    match past_deadline.try_wait().expect("resolved one tick past") {
        Err(ServeError::DeadlineExceeded { deadline: 4, now: 5 }) => {}
        other => panic!("deadline + 1 must shed with the exact ticks, got {other:?}"),
    }
    server.shutdown();
}

/// Priority classes flow end to end: under weighted-fair dequeue with all
/// classes backlogged, High is served strictly before Low within a round,
/// for both a single worker and a wide pool.
#[test]
fn priority_classes_flow_through_the_weighted_fair_queue() {
    let (engine, agents) = ring(16);
    for workers in [1usize, 8] {
        let server = Server::start(
            engine.clone(),
            ServeConfig { workers: 0, queue_capacity: 64, ..Default::default() },
        );
        let low: Vec<_> = (0..4)
            .map(|i| server.submit_classed(agents[i], 5, Priority::Low, None).unwrap())
            .collect();
        let high: Vec<_> = (0..4)
            .map(|i| server.submit_classed(agents[i + 4], 5, Priority::High, None).unwrap())
            .collect();
        // One narrow drain: the DRR round serves all 4 High (weight 4) but
        // at most the round's Normal/Low allowance. try_wait consumes the
        // response, so poll each ticket once and keep the result.
        server.drain_step(5, workers, None);
        let mut high_results: Vec<_> = high.iter().map(|t| t.try_wait()).collect();
        let mut low_results: Vec<_> = low.iter().map(|t| t.try_wait()).collect();
        let high_done = high_results.iter().filter(|r| r.is_some()).count();
        let low_done = low_results.iter().filter(|r| r.is_some()).count();
        assert_eq!(high_done, 4, "workers={workers}: a full High allowance is served first");
        assert!(low_done <= 1, "workers={workers}: Low gets its weight share, not more");
        // The rest drains; everything resolves.
        server.drain_step(64, workers, None);
        for (ticket, slot) in
            low.iter().zip(&mut low_results).chain(high.iter().zip(&mut high_results))
        {
            let result = slot.take().or_else(|| ticket.try_wait());
            assert!(result.expect("resolved").is_ok());
        }
        let stats = server.shutdown();
        assert_eq!(stats.class.high.served, 4);
        assert_eq!(stats.class.low.served, 4);
    }
}

/// Regression: a degraded-source epoch under burst load answers every
/// admitted request — nothing lost, nothing hung — and every served answer
/// carries the degraded marker so explanations can say so.
#[test]
fn degraded_epoch_under_burst_load_answers_everything_and_marks_it() {
    let (engine, agents) = ring(24);
    let health = SourceHealth {
        attempted: 24,
        fetched: 20,
        unreachable: 3,
        gave_up: 1,
        corrupted: 0,
        parse_errors: 2,
    };
    assert!(health.is_degraded());
    let degraded_engine = engine.with_source_health(health);

    let server = Server::start(
        degraded_engine,
        ServeConfig { workers: 0, queue_capacity: 48, ..Default::default() },
    );
    let config = OpenLoopConfig {
        ticks: 40,
        process: ArrivalProcess::FlashCrowd {
            base: 1.0,
            spike: 12.0,
            start: 10,
            len: 12,
            hot_agents: 4,
            hot_fraction: 0.7,
        },
        class_mix: [0.3, 0.4, 0.3],
        ..Default::default()
    };
    let report = run_open_loop(&server, &agents, &config);
    assert!(report.offered() > 0);
    assert_eq!(report.lost, 0, "every admitted request must resolve: {report:?}");
    for class in Priority::ALL {
        let slot = report.class.get(class);
        assert_eq!(
            slot.resolved(),
            slot.admitted,
            "{class}: admitted requests must all be served, shed or failed"
        );
    }
    // Served answers carry the degraded marker.
    let probe = server.submit(agents[0], 5).unwrap();
    server.drain_step(8, 1, None);
    let response = probe.try_wait().expect("resolved").unwrap();
    assert!(response.degraded, "a degraded-source epoch must mark its answers");
    server.shutdown();
}

/// Robustness: a snapshot publish in the middle of a flash-crowd spike
/// loses no admitted request, and post-publish answers come from the new
/// epoch.
#[test]
fn mid_burst_publish_loses_nothing_under_open_loop_load() {
    let (engine, agents) = ring(24);
    let (next_engine, _) = ring(24);
    let server = Server::start(
        engine,
        ServeConfig { workers: 0, queue_capacity: 48, ..Default::default() },
    );
    let config = OpenLoopConfig {
        ticks: 40,
        process: ArrivalProcess::FlashCrowd {
            base: 1.0,
            spike: 10.0,
            start: 8,
            len: 16,
            hot_agents: 4,
            hot_fraction: 0.7,
        },
        ..Default::default()
    };
    // Publish at the middle of the spike window (tick 16).
    let mut published = false;
    let report = run_open_loop_with(&server, &agents, &config, |tick, server| {
        if tick == 16 && !published {
            published = true;
            assert_eq!(server.publish(next_engine.clone()), 2);
        }
    });
    assert!(published, "the hook must have fired mid-spike");
    assert_eq!(report.lost, 0, "a mid-burst publish must lose nothing: {report:?}");
    assert_eq!(server.epoch(), 2);
    // Post-publish traffic is served by the new generation.
    let probe = server.submit(agents[0], 5).unwrap();
    server.drain_step(8, 1, None);
    assert_eq!(probe.try_wait().expect("resolved").unwrap().epoch, 2);
    server.shutdown();
}

/// Under SLO pressure the controller sheds bottom-up: with a deliberately
/// saturated window, Low is pressure-shed while High still rides to its own
/// hard deadline.
#[test]
fn pressure_sheds_low_before_high() {
    let (engine, agents) = ring(8);
    let server = Server::start(
        engine,
        ServeConfig { workers: 0, queue_capacity: 64, ..Default::default() },
    );
    let mut slo = SloController::new(SloConfig {
        target_p99_wait_ticks: 2,
        window: 8,
        ..Default::default()
    });
    // Saturate the observed-wait window far past 2× target.
    for _ in 0..8 {
        slo.record_wait(50);
    }
    slo.update();
    assert_eq!(slo.pressure(), 2);
    let low = server.submit_classed(agents[0], 5, Priority::Low, None).unwrap();
    let high = server.submit_classed(agents[1], 5, Priority::High, None).unwrap();
    server.drain_step(8, 1, Some(&mut slo));
    assert!(
        matches!(low.try_wait(), Some(Err(ServeError::DeadlineExceeded { .. }))),
        "level-2 pressure must shed Low pre-compute"
    );
    assert!(
        high.try_wait().expect("resolved").is_ok(),
        "High is never pressure-shed before its own deadline"
    );
    server.shutdown();
}

/// Asserts that `stats()` and `cache_stats()` are the `serve.requests.*` /
/// `serve.class.*` / `serve.cache.*` counters of `metrics()`: one set of
/// cells, three views. Workers may still be finishing a batch, so the three
/// are taken between two `metrics()` reads and kept once those agree — the
/// counters only grow, so equal ends mean nothing was counted in between.
fn assert_stats_are_the_metrics(server: &Server) {
    let (counters, stats, cache) = loop {
        let before = server.metrics().counters;
        let (stats, cache) = (server.stats(), server.cache_stats());
        if server.metrics().counters == before {
            break (before, stats, cache);
        }
        std::thread::yield_now();
    };
    let expected = [
        ("serve.requests.submitted", stats.submitted),
        ("serve.requests.served", stats.served),
        ("serve.requests.shed", stats.shed()),
        ("serve.requests.shed.admission", stats.shed_admission),
        ("serve.requests.shed.deadline", stats.shed_deadline),
        ("serve.requests.displaced", stats.displaced),
        ("serve.requests.failed", stats.failed),
        ("serve.requests.abandoned", stats.abandoned),
        ("serve.cache.hits", cache.hits),
        ("serve.cache.misses", cache.misses),
        ("serve.cache.evictions", cache.evictions),
        ("serve.cache.invalidated", cache.invalidated),
        ("serve.cache.carried", cache.carried),
    ];
    for (name, value) in expected {
        assert_eq!(counters[name], value, "{name}");
    }
    for class in Priority::ALL {
        let slice = stats.class.get(class);
        assert_eq!(counters[&format!("serve.class.{class}.submitted")], slice.submitted);
        assert_eq!(counters[&format!("serve.class.{class}.served")], slice.served);
        assert_eq!(counters[&format!("serve.class.{class}.shed")], slice.shed);
    }
}

/// The real-thread server under a publish storm, mixed classes, deadlines
/// and a shutdown that lands while producers are still submitting: every
/// ticket resolves exactly once, the server's books close
/// (`submitted == served + shed_deadline + failed + displaced + abandoned`)
/// and agree with what the clients saw, and the first epoch's model is
/// dropped.
#[test]
fn publish_storm_and_shutdown_mid_submit_close_the_books() {
    use std::sync::{Barrier, RwLock};
    use std::time::{Duration, Instant};

    use semrec::serve::Ticket;

    const PRODUCERS: usize = 3;

    /// What one producer saw its submissions and tickets resolve to.
    #[derive(Default)]
    struct Seen {
        admitted: u64,
        refused: u64,
        served: u64,
        shed_deadline: u64,
        displaced: u64,
        abandoned: u64,
        failed: u64,
    }

    fn resolve(ticket: Ticket, seen: &mut Seen) {
        match ticket.wait() {
            Ok(_) => seen.served += 1,
            Err(ServeError::DeadlineExceeded { .. }) => seen.shed_deadline += 1,
            Err(ServeError::Overloaded { .. }) => seen.displaced += 1,
            Err(ServeError::ShuttingDown) => seen.abandoned += 1,
            Err(ServeError::Engine(_)) => seen.failed += 1,
            Err(ServeError::Disconnected) => panic!("a ticket was dropped unresolved"),
        }
    }

    let (engine, agents) = ring(16);
    let first_epoch = Arc::downgrade(&engine.shared());
    // `shutdown` takes the server by value, so the threads reach it through
    // a slot the main thread empties: a submitter holds the read lock only
    // for the length of one call and finds `None` once shutdown has begun.
    let slot = RwLock::new(Some(Server::start(
        engine,
        ServeConfig { workers: 2, queue_capacity: 4, batch_size: 2, ..ServeConfig::default() },
    )));
    let start = Barrier::new(PRODUCERS + 2);

    let (seen, stats) = std::thread::scope(|scope| {
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let (slot, start, agents) = (&slot, &start, &agents);
                scope.spawn(move || {
                    let mut seen = Seen::default();
                    let mut tickets = Vec::new();
                    start.wait();
                    for i in 0.. {
                        let guard = slot.read().unwrap();
                        let Some(server) = guard.as_ref() else { break };
                        let class = Priority::ALL[(p + i) % 3];
                        // Every other request must start within two ticks;
                        // each submission moves the clock one tick on.
                        let deadline = (i % 2 == 0).then(|| server.clock().now() + 2);
                        let agent = agents[(p * 5 + i) % agents.len()];
                        match server.submit_classed(agent, 5, class, deadline) {
                            Ok(ticket) => {
                                seen.admitted += 1;
                                tickets.push(ticket);
                            }
                            Err(ServeError::Overloaded { .. }) => seen.refused += 1,
                            Err(other) => panic!("a live server refused with {other:?}"),
                        }
                        server.clock().advance(1);
                    }
                    for ticket in tickets {
                        resolve(ticket, &mut seen);
                    }
                    seen
                })
            })
            .collect();
        let publisher = {
            let (slot, start) = (&slot, &start);
            scope.spawn(move || {
                start.wait();
                while let Some(server) = slot.read().unwrap().as_ref() {
                    server.publish(ring(16).0);
                }
            })
        };

        // The watchdog only turns a storm that stalls into a failure; no
        // assertion depends on how long anything took.
        let wait_until = |what: &str, reached: &dyn Fn(&Server) -> bool| {
            let watchdog = Instant::now();
            while !reached(slot.read().unwrap().as_ref().expect("not shut down yet")) {
                assert!(watchdog.elapsed() < Duration::from_secs(120), "never reached: {what}");
                std::thread::yield_now();
            }
        };
        start.wait();
        wait_until("every kind of outcome, across two swaps", &|server| {
            let stats = server.stats();
            let kinds = [stats.served, stats.shed_deadline, stats.displaced];
            kinds.iter().all(|&count| count > 0) && server.epoch() >= 3
        });
        // Hold the submitters and the publisher off for one look at the
        // books (the write lock is taken to exclude them, not to write),
        // then let the storm resume.
        let resumed_from = {
            #[allow(clippy::readonly_write_lock)]
            let paused = slot.write().unwrap();
            let server = paused.as_ref().expect("not shut down yet");
            assert_stats_are_the_metrics(server);
            server.stats().submitted
        };
        wait_until("the storm to resume", &|server| server.stats().submitted >= resumed_from + 32);
        // Shutdown with the producers still running and holding tickets.
        let server = slot.write().unwrap().take().expect("not shut down yet");
        let stats = server.shutdown();
        publisher.join().expect("publisher");
        let seen: Vec<Seen> =
            producers.into_iter().map(|h| h.join().expect("producer")).collect();
        (seen, stats)
    });

    assert_eq!(
        stats.submitted,
        stats.served + stats.shed_deadline + stats.failed + stats.displaced + stats.abandoned,
        "every admitted request has exactly one outcome: {stats:?}"
    );
    // What the clients saw their own tickets resolve to is what the server
    // counted.
    let sum = |field: fn(&Seen) -> u64| seen.iter().map(field).sum::<u64>();
    assert_eq!(sum(|s| s.admitted), stats.submitted);
    assert_eq!(sum(|s| s.served), stats.served);
    assert_eq!(sum(|s| s.shed_deadline), stats.shed_deadline);
    assert_eq!(sum(|s| s.displaced), stats.displaced);
    assert_eq!(sum(|s| s.abandoned), stats.abandoned);
    assert_eq!(sum(|s| s.failed), stats.failed);
    assert_eq!(sum(|s| s.refused) + stats.displaced, stats.shed_admission);
    assert!(first_epoch.upgrade().is_none(), "the first epoch's model must be dropped");
}

/// The real-thread pool under a `publish_delta` storm. Per generated world,
/// clients cycle over every agent while a publisher walks a chain of
/// generations, each built from random republish ops and published with its
/// `SwapPlan` once every agent has been answered at the current epoch. Every
/// answer must be its epoch's model's, bit for bit — carried entries and
/// in-batch duplicates included — and the books must close. A ring backbone
/// keeps the 6-hop reverse closure of a change a minority, so plans carry.
#[test]
fn publish_delta_storm_answers_every_request_from_its_epochs_model() {
    use proptest::test_runner::TestRng;
    use semrec::core::{ModelDelta, Recommendation, SwapPlan};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
    use std::time::{Duration, Instant};

    let worlds = (20usize..28).prop_flat_map(|n| {
        (
            Just(n),
            prop::collection::vec((0..n, 0..n, 0.05f64..=1.0), 0..4),
            prop::collection::vec((0..n, 0usize..4, -1.0f64..=1.0), n..2 * n),
            prop::collection::vec(prop::collection::vec(arb_op(), 1..3), 2..5),
        )
    });
    let bits = |recs: &[Recommendation]| -> Vec<(semrec::ProductId, u64)> {
        recs.iter().map(|r| (r.product, r.score.to_bits())).collect()
    };
    let mut rng = TestRng::for_test("serving::publish_delta_storm");
    let (mut carried_publishes, carried_hits) = (0, AtomicU64::new(0));
    for _ in 0..8 {
        let (n, chords, ratings, generations) = worlds.generate(&mut rng);
        let trust: Vec<_> = (0..n).map(|i| (i, (i + 1) % n, 0.9)).chain(chords).collect();
        let source = build(n, &trust, &ratings);
        // engine_at[epoch - 1] is the model that answers at `epoch`.
        let mut engine_at = vec![Recommender::new(source, RecommenderConfig::default())];
        let (mut plans, mut extra) = (Vec::new(), 0);
        for ops in &generations {
            let old = engine_at.last().unwrap();
            let mut next = old.community().clone();
            let mut touched = Vec::new();
            for op in ops {
                for agent in apply(&mut next, op, &mut extra) {
                    touched.push(next.agent(agent).unwrap().uri.clone());
                }
            }
            let delta = ModelDelta { ratings_changed: touched.clone(), trust_changed: touched };
            let horizon = old.config().neighborhood.appleseed.max_range;
            let max_dirty = SwapPlan::DEFAULT_MAX_DIRTY_FRACTION;
            plans.push(SwapPlan::compute(old.community(), &next, &delta, horizon, max_dirty));
            let advanced = old.advance(next, &delta, *old.source_health()).0;
            engine_at.push(advanced);
        }
        let agents: Vec<AgentId> = (0..n).map(AgentId::from_index).collect();
        let expected: Vec<Vec<_>> = engine_at
            .iter()
            .map(|engine| agents.iter().map(|&a| bits(&engine.recommend(a, 10).unwrap())).collect())
            .collect();
        let config =
            ServeConfig { workers: 2, queue_capacity: 64, batch_size: 4, ..Default::default() };
        let server = Server::start(engine_at[0].clone(), config);
        let answered: Vec<AtomicU64> = agents.iter().map(|_| AtomicU64::new(0)).collect();
        let all_answered_at = |epoch| answered.iter().all(|a| a.load(Relaxed) >= epoch);
        let (served, wrong) = (AtomicU64::new(0), AtomicU64::new(0));
        let stalled = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                // Counts rather than asserts: a panicking client would stall
                // the publisher waiting for its answers.
                scope.spawn(|| {
                    while !all_answered_at(engine_at.len() as u64) && !stalled.load(Relaxed) {
                        let tickets: Vec<_> =
                            agents.iter().map(|&a| server.submit(a, 10).unwrap()).collect();
                        for (a, ticket) in tickets.into_iter().enumerate() {
                            let response = ticket.wait().unwrap();
                            let epoch = response.epoch as usize;
                            served.fetch_add(1, Relaxed);
                            if bits(&response.recommendations) != expected[epoch - 1][a] {
                                wrong.fetch_add(1, Relaxed);
                            }
                            let hit = response.cache_hit && epoch > 1;
                            if hit && plans[epoch - 2].carryable(agents[a]) {
                                carried_hits.fetch_add(1, Relaxed);
                            }
                            answered[a].fetch_max(response.epoch, Relaxed);
                        }
                    }
                });
            }
            // The watchdog only turns a storm that stalls into a failure.
            let watchdog = Instant::now();
            for (epoch, (engine, plan)) in (1..).zip(engine_at[1..].iter().zip(&plans)) {
                while !all_answered_at(epoch) && !stalled.load(Relaxed) {
                    stalled.store(watchdog.elapsed() > Duration::from_secs(60), Relaxed);
                    std::thread::yield_now();
                }
                let report = server.publish_delta(engine.clone(), plan);
                carried_publishes += usize::from(!report.wholesale && report.carried > 0);
            }
        });
        assert!(!stalled.into_inner(), "the storm stalled");
        assert_eq!(wrong.into_inner(), 0, "every answer must be its epoch's model's");
        assert_stats_are_the_metrics(&server);
        let stats = server.shutdown();
        assert_eq!(stats.served, served.into_inner());
        assert_eq!(
            stats.submitted,
            stats.served + stats.shed_deadline + stats.failed + stats.displaced + stats.abandoned,
            "every admitted request has exactly one outcome: {stats:?}"
        );
    }
    // A storm whose dirty sets never bind checks nothing.
    assert!(carried_publishes > 0, "no publish carried an entry");
    assert!(carried_hits.into_inner() > 0, "no answer came from a carried entry");
}

/// Metrics belong to the server that produced them: traffic on one server
/// leaves its neighbour's books at zero.
#[test]
fn two_servers_in_one_process_keep_separate_books() {
    let (engine, agents) = ring(8);
    let busy = Server::start(engine.clone(), ServeConfig { workers: 1, ..Default::default() });
    let idle = Server::start(engine, ServeConfig { workers: 1, ..Default::default() });
    for &agent in agents.iter().chain(&agents) {
        busy.submit(agent, 5).unwrap().wait().unwrap();
    }

    let counters = busy.metrics().counters;
    assert_eq!(counters["serve.requests.served"], 16);
    assert_eq!(counters["serve.cache.hits"], 8);
    assert_stats_are_the_metrics(&busy);

    assert_eq!(idle.stats(), semrec::serve::ServeStats::default());
    assert_eq!(idle.cache_stats(), semrec::serve::CacheStats::default());
    let untouched = idle.metrics();
    assert!(untouched.counters.values().all(|&count| count == 0), "{untouched:?}");
    assert!(untouched.histograms.values().all(|h| h.count == 0), "{untouched:?}");
    assert_eq!(untouched.counters.keys().collect::<Vec<_>>(), counters.keys().collect::<Vec<_>>());
}
