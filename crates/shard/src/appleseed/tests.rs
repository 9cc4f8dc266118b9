//! The sharded kernel against its frozen oracle, bit for bit, plus directed
//! cases for what the expansion cache freezes and for the reused scratch.

use std::sync::Arc;

use proptest::prelude::*;
use semrec_core::{AgentId, Community, RecommenderConfig};
use semrec_datagen::community::{generate_community, CommunityGenConfig};
use semrec_taxonomy::fixtures::example1;
use semrec_trust::appleseed::AppleseedParams;
use semrec_trust::neighborhood::NeighborhoodParams;
use semrec_trust::TrustError;

use super::oracle::{bits, sharded_appleseed_reference};
use super::{sharded_appleseed, Scratch, ShardedAppleseedResult, SourceAt};
use crate::model::{Ghost, Shard, ShardedModel};
use crate::partition::{CommunityShardFn, GlobalId, HashShardFn, ShardFn};

/// A partitioned universe, opened up the way `ShardedModel::trust_ranks`
/// sees it, so one partition serves every parameter set with the
/// `spreading_power` it was frozen for.
struct Universe {
    model: ShardedModel,
    shards: Vec<Arc<Shard>>,
    local_of: Vec<u32>,
    schedule: Vec<usize>,
}

impl Universe {
    fn partition(community: &Community, shard_fn: Arc<dyn ShardFn>, shards: usize) -> Universe {
        Universe::frozen_for(community, shard_fn, shards, 1.0)
    }

    fn frozen_for(
        community: &Community,
        shard_fn: Arc<dyn ShardFn>,
        shards: usize,
        spreading_power: f64,
    ) -> Universe {
        let mut config = RecommenderConfig::default();
        config.neighborhood.appleseed.spreading_power = spreading_power;
        let (model, _) = ShardedModel::partition(community, config, shard_fn, shards, 1);
        let shards: Vec<Arc<Shard>> = (0..shards).map(|s| Arc::clone(model.shard(s))).collect();
        let mut local_of = vec![u32::MAX; model.agent_count()];
        for shard in &shards {
            for (local, global) in shard.globals.iter().enumerate() {
                local_of[global.index()] = local as u32;
            }
        }
        let schedule = (0..shards.len()).collect();
        Universe { model, shards, local_of, schedule }
    }

    fn agents(&self) -> impl Iterator<Item = GlobalId> {
        (0..self.model.agent_count() as u32).map(GlobalId)
    }

    fn shard_of(&self, agent: GlobalId) -> usize {
        self.model.directory().shard_of(agent) as usize
    }

    fn kernel(&self, source: GlobalId, params: &AppleseedParams) -> ShardedAppleseedResult {
        let source_shard = self.shard_of(source);
        sharded_appleseed(
            &self.shards,
            &self.local_of,
            source,
            source_shard,
            params,
            &self.schedule,
        )
        .expect("valid parameters")
    }

    fn oracle(&self, source: GlobalId, params: &AppleseedParams) -> ShardedAppleseedResult {
        let source_shard = self.shard_of(source);
        sharded_appleseed_reference(&self.shards, &self.local_of, source, source_shard, params)
    }

    /// Asserts the kernel reproduces the oracle from `source`, and returns
    /// its result.
    fn check(&self, source: GlobalId, params: &AppleseedParams) -> ShardedAppleseedResult {
        let kernel = self.kernel(source, params);
        assert_eq!(
            bits(&kernel),
            bits(&self.oracle(source, params)),
            "{source:?} at {} shards, {params:?}",
            self.shards.len()
        );
        kernel
    }
}

/// A community of `n` agents with the given trust statements and nothing
/// else: the trust metric reads no ratings.
fn community(n: usize, edges: &[(usize, usize, f64)]) -> Community {
    let e = example1();
    let mut c = Community::new(e.fig.taxonomy, e.catalog);
    let ids: Vec<AgentId> = (0..n)
        .map(|i| c.add_agent(format!("http://kernel.example.org/{i}#me")).unwrap())
        .collect();
    for &(a, b, w) in edges {
        if a != b {
            c.trust.set_trust(ids[a], ids[b], w).unwrap();
        }
    }
    c
}

/// A ring with chords and a few distrust statements: every agent reachable
/// from every other.
fn ring(n: usize) -> Community {
    let mut edges = Vec::new();
    for i in 0..n {
        edges.push((i, (i + 1) % n, 0.9));
        edges.push((i, (i + 3) % n, 0.4));
        if i % 4 == 0 {
            edges.push((i, (i + 2) % n, -0.7));
        }
    }
    community(n, &edges)
}

/// Places agent `i` on shard `self.0[i]`.
struct Placed(Vec<u32>);

impl ShardFn for Placed {
    fn name(&self) -> &'static str {
        "placed"
    }

    fn partition(&self, _: &Community, _: usize) -> Vec<u32> {
        self.0.clone()
    }

    fn route(&self, _: &str, _: usize) -> u32 {
        0
    }
}

/// Every combination of the parameters that steer the loop for one
/// spreading exponent: distrust, a node cap small enough to bind on each
/// shard separately, hop range, and loose or near-fixpoint convergence —
/// plus an iteration cap low enough that the tight runs end unconverged.
fn parameter_matrix(spreading_power: f64) -> Vec<AppleseedParams> {
    let mut matrix = Vec::new();
    for distrust in [false, true] {
        for max_nodes in [None, Some(2), Some(3)] {
            for max_range in [None, Some(2)] {
                for (convergence, max_iterations) in [(0.01, 10_000), (1e-9, 10_000), (1e-9, 4)] {
                    matrix.push(AppleseedParams {
                        distrust,
                        max_nodes,
                        max_range,
                        spreading_power,
                        convergence,
                        max_iterations,
                        ..AppleseedParams::default()
                    });
                }
            }
        }
    }
    matrix
}

/// True if the shard count cannot move where the wave goes under `params`:
/// no per-shard cap, and no hop range that a node first found by a
/// distrust statement could see at a distance other than its expansion
/// round's.
fn partition_blind(params: &AppleseedParams) -> bool {
    params.max_nodes.is_none() && !(params.distrust && params.max_range.is_some())
}

fn arb_network() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (2usize..16).prop_flat_map(|n| {
        (Just(n), prop::collection::vec((0..n, 0..n, -1.0f64..=1.0), 0..(n * 4)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn kernel_is_bit_identical_to_the_oracle_at_every_shard_count(
        (n, edges) in arb_network(),
    ) {
        let community = community(n, &edges);
        // `(iterations, nodes_discovered)` of the one-shard run, per
        // partition-blind parameter set and source.
        let mut one_shard = std::collections::BTreeMap::new();
        for shards in [1usize, 2, 4, 8] {
            let shard_fns: [Arc<dyn ShardFn>; 2] =
                [Arc::new(HashShardFn), Arc::new(CommunityShardFn::default())];
            for shard_fn in shard_fns {
                for (p, power) in [1.0, 2.0].into_iter().enumerate() {
                    let universe =
                        Universe::frozen_for(&community, Arc::clone(&shard_fn), shards, power);
                    // Sources run back to back on this thread, so every run
                    // after the first also exercises the reused scratch — at
                    // a shard count that changes under it.
                    for (k, params) in parameter_matrix(power).iter().enumerate() {
                        for source in universe.agents() {
                            let result = universe.check(source, params);
                            prop_assert!(result.exchange_rounds <= result.iterations);
                            if shards == 1 {
                                prop_assert_eq!(result.exchange_rounds, 0);
                            }
                            if partition_blind(params) {
                                let walk = (result.iterations, result.nodes_discovered);
                                let first = *one_shard.entry((p, k, source)).or_insert(walk);
                                prop_assert_eq!(
                                    walk, first, "{:?} at {} shards, {:?}", source, shards, params
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The engine's default neighborhood bounds (400 nodes *per shard*, range
/// 6) on a generated community large enough for the cap to bind on a shard
/// mid-expansion.
#[test]
fn engine_default_bounds_on_a_generated_community() {
    let mut config = CommunityGenConfig::small(12);
    config.agents = 1_500;
    let community = generate_community(&config).community;
    let served = NeighborhoodParams::default().appleseed;
    let mut capped = 0;
    for shards in [2usize, 4] {
        for params in [served, AppleseedParams { distrust: true, spreading_power: 2.0, ..served }] {
            let universe = Universe::frozen_for(
                &community,
                Arc::new(HashShardFn),
                shards,
                params.spreading_power,
            );
            for source in universe.agents().step_by(197) {
                let result = universe.check(source, &params);
                capped += usize::from(result.nodes_discovered == 400 * shards);
            }
        }
    }
    assert!(capped > 0, "the per-shard 400-node cap must bind for some source");
}

/// Two shards of three, source `s` on shard 0, a cap of two nodes per shard:
///
/// ```text
/// shard 0: s a b      shard 1: x y z
/// s → a, s → x, s → y    round 1 fills both caps
/// a → b                  local, first seen after shard 0's cap: feeds the
///                        source in every later round
/// x → z                  local, first seen after shard 1's cap: rerouted to
///                        a source that lives on another shard
/// a → z                  remote, into a full shard: rerouted at every barrier
/// y ⊣ z                  local distrust past the cap: dropped when resolved
/// x ⊣ b, y ⊣ b           remote distrust into a full shard: dropped at every
///                        barrier
/// ```
#[test]
fn edge_first_seen_after_the_cap_stays_rerouted() {
    let (s, a, b, x, y, z) = (0, 1, 2, 3, 4, 5);
    let edges = [
        (s, a, 1.0),
        (s, x, 0.8),
        (s, y, 0.6),
        (a, b, 0.9),
        (a, z, 0.7),
        (a, x, 0.5), // known by then: a real boundary edge
        (x, z, 0.9),
        (x, y, 0.4), // known: a real local edge
        (y, z, -0.5),
        (y, b, -0.8),
        (x, b, -0.6),
    ];
    let community = community(6, &edges);
    let universe =
        Universe::partition(&community, Arc::new(Placed(vec![0, 0, 0, 1, 1, 1])), 2);
    for distrust in [false, true] {
        let params = AppleseedParams {
            max_nodes: Some(2),
            convergence: 1e-9,
            distrust,
            ..Default::default()
        };
        let res = universe.check(GlobalId(s as u32), &params);
        assert!(res.iterations > 10, "must run well past the first expansion");
        assert_eq!(res.nodes_discovered, 4, "s and a on shard 0, x and y on shard 1");
        let mut ranked: Vec<u32> = res.ranks.iter().map(|&(g, _)| g.0).collect();
        ranked.sort_unstable();
        assert_eq!(ranked, [a as u32, x as u32, y as u32]);
        assert!(res.ranks.iter().all(|&(_, r)| r > 0.0), "every penalty was cut off");
        // The same statements, asked from the other side of the boundary.
        universe.check(GlobalId(x as u32), &params);
    }
}

/// Shares are summed before the barrier — one packet per (sending shard,
/// destination node) and one source-bound packet per sending shard, per
/// round, however many stars feed them:
///
/// ```text
/// shard 0: s a      shard 1: x y z w      shard 2: u v       cap: 2 per shard
/// s → a, s → x, s → y, s → u    round 1 fills shard 1's cap
/// u → v                         fills shard 2's
/// x → z, y → w                  local, past the cap: owed to the source
/// x → s, v → s                  statements about the source
/// x → a, y → a                  two stars on shard 1, one destination
/// x → v, y ⊣ v                  energy and a penalty in one packet
/// v → x                         a real edge the other way
/// ```
///
/// Each round is played by hand after the kernel has run the rounds before
/// it: every shard's compute phase, then the barrier.
#[test]
fn one_packet_per_destination_node_and_source_per_round() {
    let (s, a, x, y, z, w, u, v) = (0, 1, 2, 3, 4, 5, 6, 7);
    let edges = [
        (s, a, 0.5),
        (s, x, 1.0),
        (s, y, 0.8),
        (s, u, 0.6),
        (u, v, 1.0),
        (x, z, 0.9),
        (y, w, 0.7),
        (x, s, 0.4),
        (v, s, 0.3),
        (x, a, 0.6),
        (y, a, 0.5),
        (x, v, 0.8),
        (y, v, -0.9),
        (v, x, 0.5),
    ];
    let community = community(8, &edges);
    let universe =
        Universe::partition(&community, Arc::new(Placed(vec![0, 0, 1, 1, 1, 1, 2, 2])), 3);
    let source = GlobalId(s as u32);
    let remote_source = SourceAt::Remote(Ghost { shard: 0, local: universe.local_of[s] });
    let mut summed = 0;
    for rounds in 1..=8 {
        let params = AppleseedParams {
            max_nodes: Some(2),
            distrust: true,
            convergence: 1e-12,
            max_iterations: rounds,
            ..Default::default()
        };
        let mut scratch = Scratch::default();
        scratch.run(&universe.shards, source, 0, universe.local_of[s], &params, &universe.schedule);
        // What one packet per boundary edge and per forwarding node would
        // send, and what this round sends.
        let (mut per_edge, mut expected) = (0, 0);
        for shard in 0..3 {
            let source_at = if shard == 0 { SourceAt::Here } else { remote_source };
            let wave = &mut scratch.waves[shard];
            let active: Vec<usize> =
                (0..wave.local.len()).filter(|&i| wave.energy_in[i] > 0.0).collect();
            wave.compute_round(&universe.shards[shard], source_at, &params);
            for &i in &active {
                let star = wave.star[i];
                if star.total_weight > 0.0 {
                    per_edge += star.remote_end - star.remote_start + usize::from(shard != 0);
                }
            }
            let mut pairs: Vec<(usize, u32)> = Vec::new();
            for (dest, slots) in wave.outbound.iter().enumerate().take(3) {
                let touched = slots.iter().filter(|&&slot| wave.ghost_touched[slot as usize]);
                pairs.extend(touched.map(|&slot| (dest, wave.ghost_local[slot as usize])));
            }
            let distinct = pairs.len();
            pairs.sort_unstable();
            pairs.dedup();
            assert_eq!(pairs.len(), distinct, "shard {shard} after {rounds} rounds");
            if shard != 0 {
                assert_eq!(wave.owes_source, !active.is_empty(), "shard {shard}, {rounds} rounds");
            }
            expected += distinct + usize::from(wave.owes_source);
        }
        let (packets, _) = scratch.exchange(3, 0, &params);
        assert_eq!(packets, expected, "after {rounds} rounds");
        assert!(packets <= per_edge);
        summed = summed.max(per_edge - packets);
        for wave in &scratch.waves {
            assert!(wave.ghost_touched.iter().all(|&touched| !touched), "the barrier empties them");
        }
    }
    assert!(summed >= 2, "some round summed both stars' shares for a and both nodes' for s");
}

/// A resolved star holds addresses, not decisions about the far side:
///
/// ```text
/// shard 0: s a c b d      shard 1: x
/// s → x → b                     a packet discovers b in round 2, at hop 2
/// s → a → c → b                 c's star is resolved in round 3 and finds b
///                               in the table the barrier wrote
/// b → d                         b expands only if its hop is 2, not 4
/// ```
///
/// and `s`'s own star was resolved in round 1, when `x` was unknown to
/// shard 1; every later round its packet must land on the node a packet
/// discovered.
#[test]
fn stars_and_packets_meet_through_the_stamped_table() {
    let (s, a, c, b, d, x) = (0, 1, 2, 3, 4, 5);
    let edges = [(s, x, 1.0), (x, b, 1.0), (s, a, 0.3), (a, c, 1.0), (c, b, 1.0), (b, d, 1.0)];
    let community = community(6, &edges);
    let universe =
        Universe::partition(&community, Arc::new(Placed(vec![0, 0, 0, 0, 0, 1])), 2);
    let params = AppleseedParams { max_range: Some(3), convergence: 1e-9, ..Default::default() };
    let res = universe.check(GlobalId(s as u32), &params);
    assert!(res.iterations > 10);
    assert_eq!(res.nodes_discovered, 6, "d is reached: b sits at hop 2");
    let rank = |agent: usize| {
        res.ranks.iter().find(|&&(g, _)| g.0 == agent as u32).map_or(0.0, |&(_, r)| r)
    };
    assert!(rank(d) > 0.0);
    // x keeps (1 - d) of what s forwards, round after round: far more than
    // the first round's deposit alone.
    let first_deposit = 0.15 * (0.85 * params.injection * 1.0 / 1.3);
    assert!(rank(x) > first_deposit * 1.05, "{} vs {first_deposit}", rank(x));
}

/// Shards carry `|w|^p` frozen for the model's exponent; a run asking for
/// another gets the monolith's typed error, not a slow path.
#[test]
fn another_exponent_than_the_shards_is_a_typed_error() {
    let universe = Universe::frozen_for(&ring(9), Arc::new(HashShardFn), 2, 2.0);
    let source = GlobalId(0);
    let asked = AppleseedParams { spreading_power: 1.0, ..Default::default() };
    let refused = sharded_appleseed(
        &universe.shards,
        &universe.local_of,
        source,
        universe.shard_of(source),
        &asked,
        &universe.schedule,
    );
    assert!(matches!(
        refused,
        Err(TrustError::InvalidParameter { name: "spreading_power", value, .. }) if value == 1.0
    ));
    universe.check(source, &AppleseedParams { spreading_power: 2.0, ..asked });
}

#[test]
fn reused_scratch_gives_the_result_of_a_fresh_one() {
    let small = ring(9);
    let large = ring(60);
    let capped = AppleseedParams { max_nodes: Some(5), distrust: true, ..Default::default() };
    let two = Universe::partition(&small, Arc::new(HashShardFn), 2);
    let eight = Universe::partition(&large, Arc::new(HashShardFn), 8);
    // A 2-shard model, then an 8-shard model with more agents, then the
    // first again (and a second source on it) — all on this thread's
    // scratch.
    let sequence = [
        (&two, GlobalId(0)),
        (&eight, GlobalId(33)),
        (&two, GlobalId(0)),
        (&two, GlobalId(4)),
    ];
    let reused: Vec<_> =
        sequence.iter().map(|&(universe, s)| bits(&universe.kernel(s, &capped))).collect();
    assert_eq!(reused[0], reused[2]);
    for (&(universe, s), reused) in sequence.iter().zip(&reused) {
        // A new thread starts from an empty scratch.
        let fresh = std::thread::scope(|scope| {
            scope.spawn(|| bits(&universe.kernel(s, &capped))).join().unwrap()
        });
        assert_eq!(reused, &fresh);
        assert_eq!(reused, &bits(&universe.oracle(s, &capped)));
    }
}
