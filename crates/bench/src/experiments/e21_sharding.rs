//! **E21 — Sharded universe scaling** (`semrec-shard`): partition a large
//! synthetic community into N shards and count what rebuild, incremental
//! refresh, and cross-shard serving do as the shard count grows. What they
//! cost in wall time is `perf/`'s `shard.partition_ms`, `shard.advance_ms`
//! and `shard.query_us` (the `shard_batch` workload).
//!
//! Three sweeps per shard count:
//!
//! 1. **Rebuild** — full partition + per-shard model build: the share of
//!    trust edges the partition cuts and the largest shard's size (the
//!    work a one-node-per-shard fleet's slowest node holds).
//! 2. **Refresh** — a small rating churn strided across the whole
//!    universe; each shard it dirties rebuilds only itself.
//! 3. **Serve** — a fixed query panel through the cross-shard Appleseed
//!    protocol, counting exchange rounds crossed and packets sent.
//!
//! A final **localized-delta** run at the largest shard count dirties only
//! shard 0 and asserts the partitioning contract of the incremental path:
//! untouched shards recompute **zero** profiles (their `shard.<i>.
//! profiles.recomputed` counters do not move).

use std::sync::Arc;

use semrec_core::{Community, ModelDelta, RecommenderConfig};
use semrec_datagen::catalog_gen::CatalogGenConfig;
use semrec_datagen::community::{generate_community, CommunityGenConfig};
use semrec_datagen::taxonomy_gen::TaxonomyGenConfig;
use semrec_eval::table::{fmt, Table};
use semrec_shard::{cut_edges, CommunityShardFn, GlobalId, HashShardFn, ShardFn, ShardedModel};

use crate::Scale;

/// Shape summary pinned by the shape test.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Universe size.
    pub agents: usize,
    /// Profiles recomputed on untouched shards during the localized-delta
    /// run — the incremental contract demands exactly zero.
    pub untouched_recomputed: u64,
    /// Cross-shard exchange rounds counted during the serve sweep at the
    /// largest shard count (zero would mean the protocol never ran).
    pub exchange_rounds: u64,
}

/// A deliberately lightened generator configuration: the point is agent
/// *count*, not rating density — a million sparse agents, not twenty
/// thousand dense ones.
fn gen_config(agents: usize, seed: u64) -> CommunityGenConfig {
    CommunityGenConfig {
        agents,
        taxonomy: TaxonomyGenConfig::book_like(400, seed ^ 0xA1),
        catalog: CatalogGenConfig { products: 800, seed: seed ^ 0xB2, ..Default::default() },
        max_interests: 2,
        mean_ratings: 3.0,
        mean_trust_edges: 4.0,
        ..CommunityGenConfig::small(seed)
    }
}

/// Applies a rating flip to every agent in `targets`, returning the next
/// community and the model delta describing it.
fn churn(community: &Community, targets: &[GlobalId]) -> (Community, ModelDelta) {
    let mut next = community.clone();
    let mut uris = Vec::with_capacity(targets.len());
    for &g in targets {
        let agent = semrec_core::AgentId::from_index(g.index());
        let (product, old) = next
            .ratings_of(agent)
            .first()
            .copied()
            .unwrap_or((semrec_taxonomy::ProductId::from_index(0), 0.0));
        let fresh = if old > 0.0 { -0.4 } else { 0.6 };
        next.set_rating(agent, product, fresh).expect("valid churn rating");
        uris.push(next.agent(agent).expect("dense").uri.clone());
    }
    (next, ModelDelta { ratings_changed: uris, trust_changed: Vec::new() })
}

/// Runs E21 at the given scale.
pub fn run(scale: Scale) -> (Summary, String) {
    let mut out = super::header(
        "E21",
        "sharded universe: partition, cross-shard Appleseed, per-shard refresh",
    );
    let (agents, queries) = match scale {
        Scale::Small => (2_000, 40),
        Scale::Medium => (200_000, 200),
        Scale::Paper => (1_000_000, 200),
    };
    let community = generate_community(&gen_config(agents, 13)).community;
    outln!(out, "{} agents (lightened density)", community.agent_count());

    let config = RecommenderConfig::default();
    let shard_counts = [1usize, 2, 4, 8];
    let max_shards = *shard_counts.last().expect("non-empty sweep");

    // Partition-quality aside: boundary fraction, hash vs community-aware.
    let hash_cut = cut_edges(&community, &HashShardFn.partition(&community, max_shards));
    let community_cut = cut_edges(
        &community,
        &CommunityShardFn::default().partition(&community, max_shards),
    );
    outln!(
        out,
        "cut fraction at {max_shards} shards: hash {:.3}, community-aware {:.3}",
        hash_cut.0 as f64 / hash_cut.1.max(1) as f64,
        community_cut.0 as f64 / community_cut.1.max(1) as f64,
    );

    let mut table = Table::new([
        "shards",
        "cut_share",
        "largest_shard",
        "rebuilt",
        "recomputed",
        "reused",
        "xch_rounds_q",
        "packets_q",
    ]);

    // Churn panel: 0.2% of agents (at least 8), strided across the whole
    // universe so the dirt lands on many shards at every shard count.
    let churn_size = (agents / 500).max(8);
    let spread: Vec<GlobalId> = (0..churn_size)
        .map(|i| GlobalId((i * (agents / churn_size)) as u32))
        .collect();
    let panel: Vec<GlobalId> =
        (0..queries).map(|i| GlobalId((i * (agents / queries)) as u32)).collect();

    let mut exchange_at_max = 0u64;
    let mut widest_books = String::new();

    for &n in &shard_counts {
        let (model, build) =
            ShardedModel::partition(&community, config, Arc::new(HashShardFn), n, 1);

        let (next, delta) = churn(&community, &spread);
        let (_, refresh) = model.advance(&next, &delta);

        for &target in &panel {
            model.recommend(target, 10).expect("panel target exists");
        }
        // The panel is the only thing this model has served.
        let books = model.metrics();
        let rounds = books.counters["shard.exchange.rounds"];
        let packets = books.counters["shard.frontier.packets"];
        let runs = books.counters["shard.appleseed.runs"].max(1);
        if n == max_shards {
            exchange_at_max = rounds;
            widest_books = super::books(&books);
        }

        table.row([
            n.to_string(),
            fmt(build.cut_fraction()),
            build.sizes.iter().max().copied().unwrap_or(0).to_string(),
            refresh.rebuilt.len().to_string(),
            refresh.profiles_recomputed.to_string(),
            refresh.profiles_reused.to_string(),
            fmt(rounds as f64 / runs as f64),
            format!("{:.0}", packets as f64 / runs as f64),
        ]);
    }
    outln!(out, "{}", table.render());
    outln!(out, "ShardedModel::metrics() of the {max_shards}-shard row (build, refresh, panel):");
    outln!(out, "{widest_books}");

    // Localized delta: dirty only agents hash-routed to shard 0 and prove
    // every other shard's profile work is exactly zero.
    let (model, _) =
        ShardedModel::partition(&community, config, Arc::new(HashShardFn), max_shards, 1);
    let local: Vec<GlobalId> = community
        .agents()
        .filter(|a| {
            let uri = &community.agent(*a).expect("dense").uri;
            HashShardFn.route(uri, max_shards) == 0
        })
        .take(churn_size)
        .map(|a| GlobalId(a.index() as u32))
        .collect();
    let (next, delta) = churn(&community, &local);
    // `advance` records into the books the next generation shares with
    // `model`; before it they hold the partition build only.
    let before = model.metrics().counters;
    let (_, report) = model.advance(&next, &delta);
    let after = model.metrics().counters;
    let untouched: u64 = (1..max_shards)
        .map(|s| format!("shard.{s}.profiles.recomputed"))
        .map(|name| after[&name] - before[&name])
        .sum();
    outln!(
        out,
        "localized delta ({} agents on shard 0): rebuilt shards {:?}, untouched shards recomputed {} profiles",
        local.len(),
        report.rebuilt,
        untouched
    );
    outln!(out, "the largest shard is what a one-node-per-shard deployment's slowest node");
    outln!(out, "holds (§2's decentralized framing); a round sends one packet per destination node.");

    let outcome = Summary {
        agents: community.agent_count(),
        untouched_recomputed: untouched,
        exchange_rounds: exchange_at_max,
    };
    (outcome, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_holds_at_small_scale() {
        let (summary, text) = run(Scale::Small);
        assert_eq!(summary.agents, 2_000);
        assert_eq!(
            summary.untouched_recomputed, 0,
            "a shard-0-localized delta must not recompute profiles elsewhere"
        );
        assert!(summary.exchange_rounds > 0, "8-shard serving must cross shard boundaries");
        super::super::assert_golden(&text);
    }
}
