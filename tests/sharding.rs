//! End-to-end sharding integration: per-shard persistence round-trips the
//! live model bit-for-bit (checkpoint → shard-local WAL append → recover
//! vs. live `advance`), untouched shards replay nothing, and a localized
//! delta leaves every other shard's serve epoch and answers untouched.

use std::sync::Arc;

use semrec::core::{Community, ModelDelta, RecommenderConfig, SourceHealth};
use semrec::datagen::community::{generate_community, CommunityGenConfig};
use semrec::shard::{GlobalId, HashShardFn, ShardFn, ShardedModel, ShardedStore};
use semrec::taxonomy::fixtures::example1;
use semrec::web::{AgentDiff, CrawlDelta};
use semrec::{AgentId, ProductId};

mod common;
use common::scratch;

/// checkpoint → WAL delta on one shard → recover == live advance, and the
/// three untouched shards replay zero WAL records.
#[test]
fn persistence_round_trips_a_localized_delta() {
    let shards = 4usize;
    let generated = generate_community(&CommunityGenConfig::small(11));
    let community = generated.community;
    let config = RecommenderConfig::default();
    let (model, _) = ShardedModel::partition(&community, config, Arc::new(HashShardFn), shards, 1);

    let dir = scratch("roundtrip");
    let store = ShardedStore::open(&dir).expect("open store");
    store.checkpoint(&model, 1).expect("checkpoint");
    assert_eq!(store.shard_count().expect("snapshot exists"), shards);

    // Dirty a handful of agents that all live on shard 0 — both the WAL
    // append and the live advance must stay confined to that shard.
    let targets: Vec<AgentId> = community
        .agents()
        .filter(|a| {
            let g = GlobalId(a.index() as u32);
            model.directory().shard_of(g) == 0
        })
        .take(5)
        .collect();
    assert!(!targets.is_empty(), "shard 0 owns agents at this scale");
    let product = community
        .catalog
        .iter()
        .next()
        .expect("non-empty catalog");
    let identifier = community.catalog.product(product).identifier.clone();

    let mut next = community.clone();
    let mut diffs = Vec::new();
    let mut uris = Vec::new();
    for &agent in &targets {
        next.set_rating(agent, product, 0.8).expect("valid rating");
        let uri = community.agent(agent).expect("dense id").uri.clone();
        diffs.push(AgentDiff {
            uri: uri.clone(),
            ratings_set: vec![(identifier.clone(), 0.8)],
            ..AgentDiff::default()
        });
        uris.push(uri);
    }
    let crawl = CrawlDelta { changed: diffs, ..CrawlDelta::default() };
    let touched = store
        .append_delta(&model, &crawl, &SourceHealth::default())
        .expect("append delta");
    assert_eq!(touched, 1, "a shard-0 delta must touch exactly one WAL");

    let (live, report) = model.advance(
        &next,
        &ModelDelta { ratings_changed: uris, trust_changed: Vec::new() },
    );
    assert!(!report.wholesale);
    assert_eq!(report.rebuilt, vec![0]);

    let recovery = store.recover(Arc::new(HashShardFn)).expect("recover");
    assert!(!recovery.degraded);
    assert_eq!(
        recovery.replayed, 1,
        "only shard 0 appended a record; the others replay nothing"
    );
    let recovered = recovery.model;
    assert_eq!(recovered.shard_count(), shards);
    assert_eq!(recovered.agent_count(), live.agent_count());

    // Every agent, both dirtied and untouched, recommends identically —
    // bit-for-bit — from the recovered model and the live one.
    for agent in community.agents() {
        let uri = &community.agent(agent).expect("dense id").uri;
        let want = live.recommend_by_uri(uri, 5).expect("live serve");
        let got = recovered.recommend_by_uri(uri, 5).expect("recovered serve");
        assert_eq!(want.len(), got.len(), "length for {uri}");
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(w.product, g.product, "product for {uri}");
            assert_eq!(
                w.score.to_bits(),
                g.score.to_bits(),
                "score bits for {uri}: {} vs {}",
                w.score,
                g.score
            );
            assert_eq!(w.voters, g.voters, "voters for {uri}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A boundary-free universe (trust only inside each hash class) so the
/// serve-dirty closure equals the model-dirty set. What a serve cache in
/// front of the model relies on to carry entries across a publish, asserted
/// directly: a one-shard delta moves only that shard's `serve_epoch`, and
/// every agent on a shard whose epoch stood still gets a bit-identical
/// answer from the old and the new model.
#[test]
fn serve_cache_carries_clean_shards_across_a_delta() {
    let shards = 4usize;
    let e = example1();
    let mut community = Community::new(e.fig.taxonomy, e.catalog);
    let uris: Vec<String> = (0..48).map(|i| format!("http://ex.org/cache{i}#me")).collect();
    let agents: Vec<AgentId> =
        uris.iter().map(|u| community.add_agent(u.clone()).expect("fresh uri")).collect();
    let products: Vec<ProductId> = community.catalog.iter().collect();
    // Trust edges strictly within a hash class: no cross-shard boundary
    // edges exist, at any shard count dividing 4.
    for i in 0..uris.len() {
        for j in 0..uris.len() {
            if i != j && HashShardFn.route(&uris[i], shards) == HashShardFn.route(&uris[j], shards)
            {
                community.trust.set_trust(agents[i], agents[j], 0.7).expect("edge");
            }
        }
    }
    for (i, &a) in agents.iter().enumerate() {
        community.set_rating(a, products[i % products.len()], 0.9).expect("rating");
    }

    let config = RecommenderConfig::default();
    let (model, _) = ShardedModel::partition(&community, config, Arc::new(HashShardFn), shards, 1);

    // Dirty exactly one agent — its hash class is the only dirty shard.
    let victim = agents[0];
    let victim_shard = model.directory().shard_of(GlobalId(victim.index() as u32));
    let on_dirty_shard = agents
        .iter()
        .filter(|a| model.directory().shard_of(GlobalId(a.index() as u32)) == victim_shard)
        .count();
    let mut next = community.clone();
    next.set_rating(victim, products[1], -0.5).expect("churn");
    let (next_model, report) = model.advance(
        &next,
        &ModelDelta {
            ratings_changed: vec![uris[0].clone()],
            trust_changed: Vec::new(),
        },
    );
    assert_eq!(report.rebuilt, vec![victim_shard as usize]);
    assert_eq!(
        report.serve_dirty,
        vec![victim_shard as usize],
        "no boundary edges: serve-dirty closure must not spread"
    );

    for s in 0..shards {
        let moved = next_model.shard(s).serve_epoch() != model.shard(s).serve_epoch();
        assert_eq!(moved, s == victim_shard as usize, "serve epoch of shard {s}");
    }
    let bits = |model: &ShardedModel, g: GlobalId| -> Vec<(ProductId, u64, usize)> {
        let recs = model.recommend(g, 5).expect("serve");
        recs.iter().map(|r| (r.product, r.score.to_bits(), r.voters)).collect()
    };
    let mut on_clean_shards = 0;
    for &a in &agents {
        let g = GlobalId(a.index() as u32);
        if model.directory().shard_of(g) != victim_shard {
            assert_eq!(bits(&model, g), bits(&next_model, g), "agent {a} on a clean shard");
            on_clean_shards += 1;
        }
    }
    assert_eq!(on_clean_shards, agents.len() - on_dirty_shard);
    assert!(on_clean_shards > 0);
}
