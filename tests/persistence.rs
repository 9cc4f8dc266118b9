//! End-to-end guarantees of the persistence layer (`semrec-store`), pinned
//! at the workspace level against the real pipeline:
//!
//! 1. **Warm start ≡ no restart** — a server started from a recovered
//!    model (`Server::start_at` with the persisted epoch) answers
//!    byte-identically to the server that never went down, whatever the
//!    worker count, both on the engine path and the cache path.
//! 2. **Typed corruption handling** — truncation, bit flips, and version
//!    skew on snapshot or WAL files surface as typed `semrec::store::Error`
//!    values, recovery falls back to the previous good generation (bumping
//!    `store.recovery.fallback`), and no mutated input ever panics.

use semrec::core::{Recommender, RecommenderConfig};
use semrec::serve::{ServeConfig, Server};
use semrec::store::{Error, Store};
use semrec::taxonomy::fixtures::example1;
use semrec::web::crawler::{crawl, refresh, CommunityBuilder, CrawlConfig};
use semrec::web::publish::{homepage_turtle, homepage_uri, publish_community};
use semrec::web::store::DocumentWeb;
use semrec::{AgentId, Community};

mod common;
use common::scratch;

/// A ring community: agent i trusts agents i+1 and i+2 and rates products.
fn ring(n: usize) -> Community {
    let e = example1();
    let products: Vec<_> = e.catalog.iter().collect();
    let mut c = Community::new(e.fig.taxonomy, e.catalog);
    let agents: Vec<AgentId> =
        (0..n).map(|i| c.add_agent(format!("http://ex.org/u{i}")).unwrap()).collect();
    for i in 0..n {
        c.trust.set_trust(agents[i], agents[(i + 1) % n], 0.9).unwrap();
        c.trust.set_trust(agents[i], agents[(i + 2) % n], 0.4).unwrap();
        c.set_rating(agents[i], products[i % products.len()], 1.0).unwrap();
    }
    c
}

/// Everything a live node accumulates: the source world, its document web,
/// the standing builder view, the engine, and a store with one checkpoint
/// plus one WAL record per refresh round.
struct LiveNode {
    engine: Recommender,
    view: Vec<semrec::web::extract::ExtractedAgent>,
    store: Store,
    rounds: usize,
}

/// Bootstraps a crawled node, checkpoints it at epoch 1, then runs
/// `rounds` churn→refresh→append cycles, advancing the live model.
fn live_node(tag: &str, rounds: usize) -> LiveNode {
    let mut source = ring(24);
    let products: Vec<_> = source.catalog.iter().collect();
    let web = DocumentWeb::new();
    publish_community(&source, &web);
    let seeds: Vec<String> =
        source.agents().map(|a| source.agent(a).unwrap().uri.clone()).collect();
    let crawl_config = CrawlConfig::default();
    let mut previous = crawl(&web, &seeds, &crawl_config);
    let mut builder = CommunityBuilder::new(&previous.agents);
    let (community, _) = builder.build(source.taxonomy.clone(), source.catalog.clone());
    let mut engine = Recommender::new(community, RecommenderConfig::default());

    let store = Store::open(scratch(tag)).unwrap();
    store.checkpoint(&engine, builder.agents(), 1).unwrap();

    for round in 0..rounds {
        // Churn: a few agents re-rate a product and republish.
        for k in 0..3 {
            let agent = AgentId::from_index((round * 3 + k) % source.agent_count());
            let product = products[(round + k) % products.len()];
            source.set_rating(agent, product, 0.1 + 0.2 * k as f64).unwrap();
            let uri = source.agent(agent).unwrap().uri.clone();
            web.publish(homepage_uri(&uri), homepage_turtle(&source, agent), "text/turtle");
        }
        let result = refresh(&web, &seeds, &crawl_config, &previous);
        let delta = result.delta.clone().expect("refresh always diffs");
        let health = result.health();
        store.append_delta(&delta, &health).unwrap();

        builder.apply_delta(&delta);
        let (next, _) = builder.build(source.taxonomy.clone(), source.catalog.clone());
        let (advanced, _) = engine.advance(next, &delta.model_delta(), health);
        engine = advanced;
        previous = result;
    }

    LiveNode { engine, view: builder.agents().to_vec(), store, rounds }
}

#[test]
fn warm_started_server_is_byte_identical_to_the_never_restarted_one() {
    let node = live_node("warmstart", 3);
    let panel: Vec<AgentId> = node.engine.community().agents().collect();

    for workers in [1, 4] {
        // The never-restarted node: fresh server on the live engine, moved
        // to the epoch its publish history would have reached (start at 1
        // plus one publish per refresh round).
        let live = Server::start_at(
            node.engine.clone(),
            ServeConfig { workers, ..ServeConfig::default() },
            1 + node.rounds as u64,
        );
        let live_answers: Vec<_> = panel
            .iter()
            .map(|&a| live.submit(a, 10).unwrap().wait().unwrap())
            .collect();

        // The restarted node: recover from disk, serve from the recovered
        // engine at the recovered epoch.
        let recovery = node.store.recover().unwrap();
        assert_eq!(recovery.replayed, node.rounds);
        assert!(!recovery.degraded());
        assert_eq!(recovery.view, node.view);
        assert_eq!(
            recovery.epoch,
            1 + node.rounds as u64,
            "the persisted epoch must match the live publish history"
        );
        let warm = Server::start_at(
            recovery.engine,
            ServeConfig { workers, ..ServeConfig::default() },
            recovery.epoch,
        );
        assert_eq!(warm.epoch(), live.epoch(), "workers {workers}");

        // Engine path: first pass computes every answer.
        let warm_answers: Vec<_> = panel
            .iter()
            .map(|&a| warm.submit(a, 10).unwrap().wait().unwrap())
            .collect();
        for (live_r, warm_r) in live_answers.iter().zip(&warm_answers) {
            assert!(!warm_r.cache_hit, "first pass must exercise the engine");
            assert_eq!(
                live_r.recommendations, warm_r.recommendations,
                "workers {workers}: warm-start answers must be byte-identical"
            );
            assert_eq!(live_r.epoch, warm_r.epoch);
        }

        // Cache path: the same panel again must hit and stay identical.
        let mut hits = 0u64;
        for (&agent, live_r) in panel.iter().zip(&live_answers) {
            let response = warm.submit(agent, 10).unwrap().wait().unwrap();
            hits += response.cache_hit as u64;
            assert_eq!(live_r.recommendations, response.recommendations);
        }
        assert!(hits > 0, "workers {workers}: a warm cache must answer repeats");

        warm.shutdown();
        live.shutdown();
    }
    std::fs::remove_dir_all(node.store.dir()).ok();
}

#[test]
fn snapshot_corruption_falls_back_to_the_previous_generation() {
    let node = live_node("snapcorrupt", 2);
    // A second generation on top, so the newest can be sacrificed.
    node.store.checkpoint(&node.engine, &node.view, 1 + node.rounds as u64).unwrap();
    let newest = node.store.snapshot_path(2);
    let good = std::fs::read(&newest).unwrap();

    let fallbacks = || node.store.metrics().counters["store.recovery.fallback"];
    let scenarios: Vec<(&str, Vec<u8>)> = vec![
        ("truncated", good[..good.len() / 2].to_vec()),
        ("bit-flipped", {
            let mut b = good.clone();
            let mid = b.len() / 2;
            b[mid] ^= 0x01;
            b
        }),
        ("bad-version", {
            let mut b = good.clone();
            b[8..12].copy_from_slice(&99u32.to_le_bytes());
            b
        }),
        ("bad-magic", {
            let mut b = good.clone();
            b[..8].copy_from_slice(b"XXXXXXXX");
            b
        }),
    ];

    for (name, bytes) in scenarios {
        std::fs::write(&newest, &bytes).unwrap();
        let before = fallbacks();
        let recovery = node.store.recover().unwrap_or_else(|e| {
            panic!("{name}: fallback recovery must succeed, got {e}")
        });
        assert_eq!(recovery.snapshot_seq, 1, "{name}: must fall back to generation 1");
        assert_eq!(recovery.skipped.len(), 1, "{name}");
        assert_eq!(recovery.skipped[0].0, 2, "{name}: the damaged generation is skipped");
        assert!(recovery.degraded(), "{name}");
        assert_eq!(fallbacks(), before + 1, "{name}: one skipped generation, one fallback");
        // Generation 1 + its WAL still reconstructs the live model exactly.
        assert_eq!(recovery.replayed, node.rounds, "{name}");
        assert_eq!(recovery.view, node.view, "{name}");
    }

    // The typed error variants match the damage.
    std::fs::write(&newest, &good[..good.len() / 2]).unwrap();
    let r = node.store.recover().unwrap();
    assert!(matches!(r.skipped[0].1, Error::Truncated { .. } | Error::ChecksumMismatch { .. }));
    std::fs::write(&newest, {
        let mut b = good.clone();
        b[..8].copy_from_slice(b"XXXXXXXX");
        b
    })
    .unwrap();
    let r = node.store.recover().unwrap();
    assert!(matches!(r.skipped[0].1, Error::BadMagic { .. }));

    std::fs::remove_dir_all(node.store.dir()).ok();
}

#[test]
fn wal_corruption_degrades_to_the_valid_prefix_or_the_snapshot() {
    let node = live_node("walcorrupt", 3);
    let wal_path = node.store.wal_path(1);
    let good = std::fs::read(&wal_path).unwrap();

    // Torn tail: the valid prefix replays, the tear is typed.
    std::fs::write(&wal_path, &good[..good.len() - 5]).unwrap();
    let recovery = node.store.recover().unwrap();
    assert_eq!(recovery.replayed, node.rounds - 1);
    assert!(matches!(recovery.wal_error, Some(Error::Truncated { .. })));
    assert!(recovery.degraded());

    // Bit flip mid-log: replay stops at the damaged record.
    let mut flipped = good.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x08;
    std::fs::write(&wal_path, &flipped).unwrap();
    let recovery = node.store.recover().unwrap();
    assert!(recovery.replayed < node.rounds);
    assert!(recovery.wal_error.is_some());

    // Header version skew: nothing in the log can be trusted — recovery is
    // snapshot-only and says so.
    let mut versioned = good.clone();
    versioned[8] = 0xAB;
    std::fs::write(&wal_path, &versioned).unwrap();
    let recovery = node.store.recover().unwrap();
    assert_eq!(recovery.replayed, 0);
    assert!(matches!(recovery.wal_error, Some(Error::BadVersion { found: 0xAB, .. })));

    // Restored intact, everything replays again.
    std::fs::write(&wal_path, &good).unwrap();
    let recovery = node.store.recover().unwrap();
    assert_eq!(recovery.replayed, node.rounds);
    assert!(!recovery.degraded());

    std::fs::remove_dir_all(node.store.dir()).ok();
}

#[test]
fn no_single_byte_mutation_of_store_files_panics() {
    let node = live_node("nopanic", 1);
    for path in [node.store.snapshot_path(1), node.store.wal_path(1)] {
        let good = std::fs::read(&path).unwrap();
        // Every truncation point and a stride of bit flips: recover() must
        // come back with a typed result — Ok (possibly degraded) or Err —
        // never a panic.
        for cut in (0..good.len()).step_by(13) {
            std::fs::write(&path, &good[..cut]).unwrap();
            let _ = node.store.recover();
        }
        for i in (0..good.len()).step_by(11) {
            let mut mutated = good.clone();
            mutated[i] ^= 0x02;
            std::fs::write(&path, &mutated).unwrap();
            let _ = node.store.recover();
        }
        std::fs::write(&path, &good).unwrap();
    }
    // Intact again after the gauntlet.
    let recovery = node.store.recover().unwrap();
    assert!(!recovery.degraded());
    std::fs::remove_dir_all(node.store.dir()).ok();
}
