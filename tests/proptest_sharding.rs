//! Sharding equivalence properties (the `semrec-shard` contract):
//!
//! 1. **N=1 byte-identity** — a single-shard [`ShardedModel`] is the
//!    unsharded engine: for any topology, configuration, and target, trust
//!    ranks and recommendation lists are *bit*-identical (scores compared
//!    via `to_bits`), because the sharded pipeline replays the global
//!    floating-point operation order exactly when no boundary exists.
//!
//! 2. **N>1 epsilon-equivalence** — with the node cap lifted (the
//!    per-shard cap is the one deliberate semantic divergence) and a tight
//!    convergence threshold, ranks at 2/4/8 shards match the global
//!    Appleseed within 1e-6, and top-10 recommendation sets agree up to
//!    score ties at the cut-off — the exchange protocol only reassociates
//!    floating-point additions, it never reroutes energy differently.

use proptest::prelude::*;
use semrec::core::{Recommender, RecommenderConfig};
use semrec::shard::{CommunityShardFn, GlobalId, HashShardFn, ShardFn, ShardedModel};
use semrec::trust::appleseed::{appleseed, AppleseedParams};
use semrec::trust::neighborhood::NeighborhoodParams;
use std::sync::Arc;

mod common;
use common::build;

type World = (usize, Vec<(usize, usize, f64)>, Vec<(usize, usize, f64)>);

fn arb_world() -> impl Strategy<Value = World> {
    (4usize..16).prop_flat_map(|n| {
        (
            Just(n),
            prop::collection::vec((0..n, 0..n, 0.05f64..=1.0), 2..40),
            prop::collection::vec((0..n, 0usize..4, -1.0f64..=1.0), 0..40),
        )
    })
}

/// The tightened configuration for cross-shard-count comparisons: no node
/// cap (its per-shard reading is the documented semantic divergence) and a
/// near-fixpoint convergence threshold.
fn tight_config() -> RecommenderConfig {
    RecommenderConfig {
        neighborhood: NeighborhoodParams {
            appleseed: AppleseedParams {
                convergence: 1e-9,
                max_nodes: None,
                ..Default::default()
            },
            ..Default::default()
        },
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property 1: one shard, bit-for-bit.
    #[test]
    fn single_shard_is_byte_identical_to_unsharded(
        (n, trust, ratings) in arb_world(),
    ) {
        let community = build(n, &trust, &ratings);
        let config = RecommenderConfig::default();
        let engine = Recommender::new(community.clone(), config);
        let (model, _) =
            ShardedModel::partition(&community, config, Arc::new(HashShardFn), 1, 1);

        for agent in engine.community().agents() {
            let g = GlobalId(agent.index() as u32);
            // Trust metric: identical ranks, order, and iteration count.
            let global = appleseed(
                engine.shared().trust_csr(),
                agent,
                &config.neighborhood.appleseed,
            ).unwrap();
            let sharded = model.trust_ranks(g).unwrap();
            prop_assert_eq!(sharded.iterations, global.iterations);
            prop_assert_eq!(sharded.converged, global.converged);
            prop_assert_eq!(sharded.ranks.len(), global.ranks.len());
            for (&(sg, sr), &(ga, gr)) in sharded.ranks.iter().zip(&global.ranks) {
                prop_assert_eq!(sg.index(), ga.index());
                prop_assert_eq!(sr.to_bits(), gr.to_bits());
            }
            // Full pipeline: identical products and bit-identical scores.
            let want = engine.recommend(agent, 10).unwrap();
            let got = model.recommend(g, 10).unwrap();
            prop_assert_eq!(want.len(), got.len());
            for (w, s) in want.iter().zip(&got) {
                prop_assert_eq!(w.product, s.product);
                prop_assert_eq!(w.score.to_bits(), s.score.to_bits());
                prop_assert_eq!(w.voters, s.voters);
            }
        }
    }

    /// Property 2: many shards, epsilon ranks + tie-tolerant top-10 sets.
    #[test]
    fn multi_shard_ranks_match_global_within_epsilon(
        (n, trust, ratings) in arb_world(),
        community_aware in any::<bool>(),
    ) {
        let community = build(n, &trust, &ratings);
        let config = tight_config();
        let engine = Recommender::new(community.clone(), config);

        for shards in [2usize, 4, 8] {
            let shard_fn: Arc<dyn ShardFn> = if community_aware {
                Arc::new(CommunityShardFn::default())
            } else {
                Arc::new(HashShardFn)
            };
            let (model, _) =
                ShardedModel::partition(&community, config, shard_fn, shards, 1);

            for agent in engine.community().agents() {
                let g = GlobalId(agent.index() as u32);
                let global = appleseed(
                    engine.shared().trust_csr(),
                    agent,
                    &config.neighborhood.appleseed,
                ).unwrap();
                let sharded = model.trust_ranks(g).unwrap();
                prop_assert_eq!(sharded.ranks.len(), global.ranks.len());
                let mut global_sorted: Vec<(usize, f64)> =
                    global.ranks.iter().map(|&(a, r)| (a.index(), r)).collect();
                global_sorted.sort_by_key(|&(i, _)| i);
                let mut sharded_sorted: Vec<(usize, f64)> =
                    sharded.ranks.iter().map(|&(a, r)| (a.index(), r)).collect();
                sharded_sorted.sort_by_key(|&(i, _)| i);
                for (&(gi, gr), &(si, sr)) in global_sorted.iter().zip(&sharded_sorted) {
                    prop_assert_eq!(gi, si);
                    prop_assert!(
                        (gr - sr).abs() <= 1e-6,
                        "rank of agent {} differs by {} at {} shards",
                        gi, (gr - sr).abs(), shards
                    );
                }

                // Top-10 sets agree modulo ties at the cut-off score.
                let want = engine.recommend(agent, 10).unwrap();
                let got = model.recommend(g, 10).unwrap();
                prop_assert_eq!(want.len(), got.len());
                let cutoff = want.last().map_or(0.0, |r| r.score);
                for (w, s) in want.iter().zip(&got) {
                    if w.product != s.product {
                        // Both sides of a swap must sit at the boundary.
                        prop_assert!(
                            (w.score - cutoff).abs() <= 1e-6 && (s.score - cutoff).abs() <= 1e-6,
                            "top-10 disagreement beyond tie tolerance at {} shards: \
                             {:?}@{} vs {:?}@{}",
                            shards, w.product, w.score, s.product, s.score
                        );
                    } else {
                        prop_assert!((w.score - s.score).abs() <= 1e-6);
                    }
                }
            }
        }
    }
}
