//! Property tests for the ranking invariants every [`Ranker`] must uphold:
//! run- and thread-count-determinism (byte-identical top-N plus identical
//! `rank.*` counters), similarity-only blend equivalence between the two
//! shipped rankers, and spreading-activation physics (monotone in per-hop
//! retention, dark beyond the horizon).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::prelude::*;
use semrec::core::rank::spread_activation;
use semrec::core::{
    recommend_batch, BlendWeights, Community, ProfileStore, Recommender, RecommenderConfig,
    SpreadingActivationRanker, SpreadingParams,
};
use semrec::datagen::{generate_community, CommunityGenConfig};
use semrec::AgentId;

mod common;
use common::{build, digest, work_totals, Digest};

type World = (usize, Vec<(usize, usize, f64)>, Vec<(usize, usize, f64)>);

/// Not `common::arb_world`: these judge the ranker's loop, not a route, at a cost that grows with the world.
fn arb_world() -> impl Strategy<Value = World> {
    (3usize..12).prop_flat_map(|n| {
        (
            Just(n),
            prop::collection::vec((0..n, 0..n, -1.0f64..=1.0), 0..30),
            prop::collection::vec((0..n, 0usize..4, -1.0f64..=1.0), 0..30),
        )
    })
}

fn spreading_engine(community: Community, params: SpreadingParams) -> Recommender {
    Recommender::with_ranker(
        community,
        RecommenderConfig::default(),
        Arc::new(SpreadingActivationRanker::new(params)),
    )
}

/// One batch pass on a freshly built engine: bit-exact top-N plus the
/// thread-count-invariant counters of that engine's own books.
fn run_batch(
    engine: &Recommender,
    agents: &[AgentId],
    threads: usize,
) -> (Digest, BTreeMap<String, u64>) {
    let batch = recommend_batch(engine, agents, 10, threads);
    let recs = digest(engine.community(), agents, &batch);
    (recs, work_totals(&engine.metrics().counters))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// (a) Both rankers are deterministic across runs and thread counts:
    /// byte-identical top-N lists and identical `rank.*` counters.
    #[test]
    fn rankers_are_run_and_thread_count_deterministic(
        (n, trust, ratings) in arb_world(),
        spreading in prop_oneof![Just(false), Just(true)],
    ) {
        let community = build(n, &trust, &ratings);
        let agents: Vec<AgentId> = community.agents().collect();
        let engine = |c: Community| if spreading {
            spreading_engine(c, SpreadingParams::default())
        } else {
            Recommender::new(c, RecommenderConfig::default())
        };

        let (recs_a, counters_a) = run_batch(&engine(community.clone()), &agents, 1);
        let (recs_b, counters_b) = run_batch(&engine(community.clone()), &agents, 1);
        let (recs_c, counters_c) = run_batch(&engine(community), &agents, 4);

        prop_assert_eq!(&recs_a, &recs_b, "same-thread reruns must be byte-identical");
        prop_assert_eq!(&recs_a, &recs_c, "thread count must not change the top-N");
        // Every query passes through the ranker once; the default blend
        // gives activation weight, so the spreading ranker spreads each time.
        prop_assert_eq!(counters_a["engine.runs"], agents.len() as u64);
        let spreads = if spreading { agents.len() as u64 } else { 0 };
        prop_assert_eq!(counters_a["rank.spread.runs"], spreads, "{:?}", counters_a);
        prop_assert_eq!(&counters_a, &counters_b, "rank.* counters must match across runs");
        prop_assert_eq!(&counters_a, &counters_c, "rank.* counters must be thread invariant");
    }

    /// (b) A similarity-only blend makes the spreading ranker rank-order
    /// equivalent to the similarity ranker on any world (here even
    /// bit-identical in the weights).
    #[test]
    fn similarity_only_blend_is_rank_order_equivalent(
        (n, trust, ratings) in arb_world(),
    ) {
        let community = build(n, &trust, &ratings);
        let baseline = Recommender::new(community.clone(), RecommenderConfig::default());
        let spread = spreading_engine(
            community,
            SpreadingParams { blend: BlendWeights::SIMILARITY_ONLY, ..Default::default() },
        );
        for agent in baseline.community().agents() {
            let (base, _) = baseline.peer_weights(agent).unwrap();
            let (with_blend, _) = spread.peer_weights(agent).unwrap();
            let order = |v: &[(AgentId, f64)]| v.iter().map(|&(a, _)| a).collect::<Vec<_>>();
            prop_assert_eq!(order(&base), order(&with_blend), "rank order must match");
            let bits = |v: &[(AgentId, f64)]| {
                v.iter().map(|&(a, w)| (a, w.to_bits())).collect::<Vec<_>>()
            };
            prop_assert_eq!(bits(&base), bits(&with_blend), "weights must be bit-identical");
        }
    }

    /// (c) Spreading physics: per-agent activation is monotone
    /// non-decreasing in the per-hop retention (equivalently, monotone
    /// non-increasing in decay), and agents unreachable from the anchor set
    /// within the horizon never receive activation.
    #[test]
    fn activation_is_monotone_in_retention_and_horizon_bounded(
        (n, trust, ratings) in arb_world(),
        retention_a in 0.05f64..1.0,
        retention_b in 0.05f64..1.0,
        horizon in 0usize..4,
    ) {
        let community = build(n, &trust, &ratings);
        let config = RecommenderConfig::default();
        let profiles = ProfileStore::build(&community, &config.profile);
        let target = community.agents().next().unwrap();
        let anchors: Vec<(AgentId, f64)> =
            community.trust.positive_out_edges(target).collect();
        if anchors.is_empty() {
            continue; // no trust edges, nothing to anchor — skip the case
        }

        let spread = |decay: f64| {
            spread_activation(
                &community,
                &profiles,
                config.similarity,
                target,
                &anchors,
                &SpreadingParams { decay, horizon, ..Default::default() },
            )
        };
        let (lo, hi) = (retention_a.min(retention_b), retention_a.max(retention_b));
        let low = spread(lo);
        let high = spread(hi);
        for &(agent, a) in &low.activation {
            let b = high.activation_of(agent);
            prop_assert!(
                b >= a - 1e-15,
                "activation of {:?} shrank when retention grew: {} -> {}", agent, a, b
            );
        }

        // Horizon bound: BFS over positive trust edges from the anchors,
        // never through the target, at most `horizon` hops deep. Anything
        // outside that set must stay at zero activation.
        let mut reachable: BTreeSet<AgentId> = anchors.iter().map(|&(a, _)| a).collect();
        let mut frontier: Vec<AgentId> = reachable.iter().copied().collect();
        for _ in 0..horizon {
            let mut next = Vec::new();
            for &node in &frontier {
                for (nbr, _) in community.trust.positive_out_edges(node) {
                    if nbr != target && reachable.insert(nbr) {
                        next.push(nbr);
                    }
                }
            }
            frontier = next;
        }
        for result in [&low, &high] {
            prop_assert!(result.hops <= horizon);
            for (agent, _) in &result.activation {
                prop_assert!(
                    reachable.contains(agent),
                    "{:?} is unreachable within horizon {} yet was activated", agent, horizon
                );
            }
        }
    }
}

/// Every agent's `rank_peers` weights on a generated community, under each
/// of E19's six blends, hashed bit for bit. E19 prints three decimals and
/// the properties above compare rankers with each other; this pins the
/// low-order bits of the spreading ranker itself.
const RANKER_DIGEST: u64 = 0x2e60_c7be_b92a_440e;

#[test]
fn spreading_ranker_weights_match_the_pinned_digest() {
    use semrec_hash::{fnv1a64_continue, FNV1A64_OFFSET};
    let blend =
        |similarity, activation, centrality| BlendWeights { similarity, activation, centrality };
    let blends = [
        BlendWeights::SIMILARITY_ONLY,
        blend(0.7, 0.2, 0.1),
        BlendWeights::default(),
        blend(0.3, 0.5, 0.2),
        blend(0.0, 1.0, 0.0),
        blend(0.0, 0.0, 1.0),
    ];
    let community = generate_community(&CommunityGenConfig::small(42)).community;
    let mut digest = FNV1A64_OFFSET;
    for blend in blends {
        let params = SpreadingParams { blend, ..Default::default() };
        let engine = spreading_engine(community.clone(), params);
        for agent in engine.community().agents() {
            let (ranked, _) = engine.rank_peers(agent).unwrap();
            digest = fnv1a64_continue(digest, &(ranked.len() as u64).to_le_bytes());
            for peer in &ranked {
                digest = fnv1a64_continue(digest, &(peer.agent.index() as u64).to_le_bytes());
                digest = fnv1a64_continue(digest, &peer.weight.to_bits().to_le_bytes());
            }
        }
    }
    assert_eq!(digest, RANKER_DIGEST, "digest {digest:#018x}");
}

/// The determinism contract at generated-community scale (the
/// `tests/determinism.rs` world), for the non-default ranker.
#[test]
fn spreading_ranker_is_deterministic_on_a_generated_community() {
    let generated = generate_community(&CommunityGenConfig::small(42));
    let engine =
        |c: Community| spreading_engine(c, SpreadingParams::default());
    let community = generated.community;
    let panel: Vec<AgentId> = community.agents().take(48).collect();

    let (recs_a, counters_a) = run_batch(&engine(community.clone()), &panel, 4);
    let (recs_b, counters_b) = run_batch(&engine(community.clone()), &panel, 4);
    let (recs_seq, counters_seq) = run_batch(&engine(community), &panel, 1);

    assert!(!recs_a.is_empty());
    assert_eq!(recs_a, recs_b, "reruns must be byte-identical");
    assert_eq!(recs_a, recs_seq, "thread count must not change the lists");
    assert_eq!(counters_a["rank.spread.runs"], panel.len() as u64, "one spread per query");
    assert!(counters_a["rank.activation.hops"] > 0, "spreading must actually hop: {counters_a:?}");
    assert_eq!(counters_a, counters_b, "counters must match across runs");
    assert_eq!(counters_a, counters_seq, "counters must be thread-count invariant");
}
