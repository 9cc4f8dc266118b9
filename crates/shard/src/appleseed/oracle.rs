//! The straightforward boundary-frontier loop, frozen as the test oracle.
//!
//! Every round re-walks every active node's out-star, re-powers every
//! weight twice, resolves every local successor through a hash map, and
//! builds a fresh set of frontier buckets per shard holding one packet per
//! boundary edge (and one source-bound packet per forwarding node). The
//! barrier then combines them by the protocol's rule — per (sending shard,
//! destination node) one packet summing its energies and penalties in
//! append order, the node's place fixed by the first packet that sending
//! shard ever sent it; per sending shard one source-bound packet — and
//! resolves each through the destination's hash map, freezing nothing. It
//! is slow and reads like the protocol's definition over the share
//! arithmetic of `semrec_trust::appleseed`'s docs, which is what an oracle
//! is for: the kernel in the parent module must reproduce its ranks bit for
//! bit, plus `iterations`, `nodes_discovered`, `converged`,
//! `exchange_rounds` and `frontier_packets`, at every shard count.
//!
//! Test-only, and in-crate because it reads [`Shard`]'s `pub(crate)`
//! out-star. Shards are visited in index order (the order never affected
//! results). It takes parameters that already passed
//! [`AppleseedParams::validate`] and a source that exists.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use semrec_trust::appleseed::AppleseedParams;
use semrec_trust::AgentId;

use super::ShardedAppleseedResult;
use crate::model::{Shard, Target};
use crate::partition::GlobalId;

/// One boundary edge's share in one round: energy (or a distrust penalty)
/// for an agent owned by another shard.
#[derive(Clone, Copy, Debug)]
struct Packet {
    /// Destination agent, as the owning shard's local index.
    dest_local: u32,
    /// Hop distance assigned if this packet discovers the destination.
    distance: u32,
    /// Positive trust energy to deposit into `energy_next`.
    energy: f64,
    /// Terminal distrust penalty to subtract from the rank.
    penalty: f64,
}

/// The packets bound for one destination node from one sending shard in
/// one round, combined.
#[derive(Clone, Copy, Default)]
struct Combined {
    distance: u32,
    energy: f64,
    penalty: f64,
    largest: f64,
}

/// Per-shard slice of the energy wave.
#[derive(Default)]
struct Wave {
    nodes: Vec<WaveNode>,
    index: HashMap<AgentId, usize>,
}

struct WaveNode {
    local: AgentId,
    distance: u32,
    rank: f64,
    energy_in: f64,
    energy_next: f64,
}

impl Wave {
    fn discover(&mut self, local: AgentId, distance: u32) -> usize {
        let idx = self.nodes.len();
        self.index.insert(local, idx);
        self.nodes.push(WaveNode {
            local,
            distance,
            rank: 0.0,
            energy_in: 0.0,
            energy_next: 0.0,
        });
        idx
    }
}

/// Outcome of one shard's compute phase in one round.
struct ComputeOut {
    max_delta: f64,
    /// Per destination shard, one packet per boundary edge share.
    outbox: Vec<Vec<Packet>>,
    /// What each forwarding node owes a source on another shard.
    source_bound: Vec<f64>,
}

/// Everything the bit-identity contract covers, in comparable form: the
/// ranking with each rank's `f64` bits, `iterations`, `nodes_discovered`,
/// `converged`, `exchange_rounds` and `frontier_packets`.
pub(crate) fn bits(
    r: &ShardedAppleseedResult,
) -> (Vec<(GlobalId, u64)>, usize, usize, bool, usize, usize) {
    let ranks = r.ranks.iter().map(|&(g, rank)| (g, rank.to_bits())).collect();
    (ranks, r.iterations, r.nodes_discovered, r.converged, r.exchange_rounds, r.frontier_packets)
}

/// Runs the reference protocol for `source`.
pub(crate) fn sharded_appleseed_reference(
    shards: &[Arc<Shard>],
    local_of: &[u32],
    source: GlobalId,
    source_shard: usize,
    params: &AppleseedParams,
) -> ShardedAppleseedResult {
    let n_shards = shards.len();
    let source_local = local_of[source.index()];

    let mut waves: Vec<Wave> = (0..n_shards).map(|_| Wave::default()).collect();
    {
        let wave = &mut waves[source_shard];
        let idx = wave.discover(AgentId::from_index(source_local as usize), 0);
        wave.nodes[idx].energy_in = params.injection;
    }

    // Per (sending shard, destination shard), the destination nodes in the
    // order the sending shard first sent each a packet.
    let mut sent_order: Vec<Vec<Vec<u32>>> = vec![vec![Vec::new(); n_shards]; n_shards];
    let mut first_sent: HashSet<(usize, usize, u32)> = HashSet::new();
    let mut iterations = 0;
    let mut converged = false;
    let mut exchange_rounds = 0;
    let mut frontier_packets = 0;
    while iterations < params.max_iterations {
        iterations += 1;

        // Phase 1: per-shard compute over disjoint waves.
        let outs: Vec<ComputeOut> = (0..n_shards)
            .map(|s| {
                compute_round(
                    &shards[s],
                    &mut waves[s],
                    s,
                    source_shard,
                    source_local,
                    params,
                    n_shards,
                )
            })
            .collect();
        let mut max_delta = outs.iter().fold(0.0f64, |m, o| m.max(o.max_delta));

        // Phase 2: lockstep exchange barrier — destination shard by
        // destination shard, sending shard by sending shard: its combined
        // source-bound packet, then one combined packet per destination
        // node, in the order that shard first sent the node a packet.
        let mut packets = 0;
        let mut rerouted = 0.0;
        for (dest, wave) in waves.iter_mut().enumerate() {
            for (from, out) in outs.iter().enumerate() {
                if !out.source_bound.is_empty() && dest == source_shard {
                    packets += 1;
                    let owed = out.source_bound.iter().fold(0.0, |sum, share| sum + share);
                    wave.nodes[0].energy_next += owed;
                }
                let mut combined: HashMap<u32, Combined> = HashMap::new();
                for pkt in &out.outbox[dest] {
                    if first_sent.insert((from, dest, pkt.dest_local)) {
                        sent_order[from][dest].push(pkt.dest_local);
                    }
                    let c = combined
                        .entry(pkt.dest_local)
                        .or_insert(Combined { distance: pkt.distance, ..Combined::default() });
                    c.energy += pkt.energy;
                    c.penalty += pkt.penalty;
                    c.largest = c.largest.max(pkt.penalty);
                }
                for local in &sent_order[from][dest] {
                    let Some(pkt) = combined.get(local) else { continue };
                    packets += 1;
                    let local = AgentId::from_index(*local as usize);
                    let idx = match wave.index.get(&local) {
                        Some(&idx) => Some(idx),
                        None => {
                            if params.max_nodes.is_some_and(|cap| wave.nodes.len() >= cap) {
                                None
                            } else {
                                Some(wave.discover(local, pkt.distance))
                            }
                        }
                    };
                    match idx {
                        Some(idx) => {
                            wave.nodes[idx].energy_next += pkt.energy;
                            if pkt.penalty > 0.0 {
                                wave.nodes[idx].rank -= pkt.penalty;
                                max_delta = max_delta.max(pkt.largest);
                            }
                        }
                        // Past the destination cap: energy returns to the
                        // source (as in the global metric); penalties on
                        // never-discovered nodes are dropped.
                        None => rerouted += pkt.energy,
                    }
                }
            }
        }
        if rerouted > 0.0 {
            waves[source_shard].nodes[0].energy_next += rerouted;
        }
        if packets > 0 {
            exchange_rounds += 1;
            frontier_packets += packets;
        }

        // Fold: next round's energy becomes visible everywhere at once.
        for wave in &mut waves {
            for node in &mut wave.nodes {
                node.energy_in += node.energy_next;
                node.energy_next = 0.0;
            }
        }

        if max_delta < params.convergence {
            converged = true;
            break;
        }
    }

    let mut nodes_discovered = 0;
    let mut ranks: Vec<(GlobalId, f64)> = Vec::new();
    for (s, wave) in waves.iter().enumerate() {
        nodes_discovered += wave.nodes.len();
        for node in &wave.nodes {
            let global = shards[s].globals[node.local.index()];
            if global != source {
                ranks.push((global, node.rank));
            }
        }
    }
    ranks.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));

    ShardedAppleseedResult {
        ranks,
        iterations,
        nodes_discovered,
        converged,
        exchange_rounds,
        frontier_packets,
    }
}

/// Advances one shard's wave by one round, mirroring the global Appleseed
/// node loop statement for statement. Shares for remote agents become
/// packets in `outbox`, what a node owes a remote source an entry of
/// `source_bound`; the source is discovered (node 0 of its shard's wave)
/// before the first round, so the latter always resolve.
fn compute_round(
    shard: &Shard,
    wave: &mut Wave,
    me: usize,
    source_shard: usize,
    source_local: u32,
    params: &AppleseedParams,
    n_shards: usize,
) -> ComputeOut {
    let d = params.spreading_factor;
    let power = params.spreading_power;
    let mut outbox: Vec<Vec<Packet>> = (0..n_shards).map(|_| Vec::new()).collect();
    let mut source_bound = Vec::new();
    let mut max_delta: f64 = 0.0;

    let count = wave.nodes.len();
    for i in 0..count {
        let energy = wave.nodes[i].energy_in;
        if energy <= 0.0 {
            continue;
        }
        wave.nodes[i].energy_in = 0.0;

        let kept = (1.0 - d) * energy;
        wave.nodes[i].rank += kept;
        max_delta = max_delta.max(kept);
        let forward = d * energy;

        let local = wave.nodes[i].local;
        let distance = wave.nodes[i].distance;
        let at_range_limit = params.max_range.is_some_and(|r| distance >= r);
        // The source is always the first node discovered in its shard.
        let is_source = me == source_shard && i == 0;
        let star = &shard.outstar[local.index()];

        let mut pos_sum = 0.0;
        let mut neg_sum = 0.0;
        if !at_range_limit {
            for edge in star {
                if edge.weight > 0.0 {
                    pos_sum += edge.weight.powf(power);
                }
            }
            if params.distrust {
                for edge in star {
                    if edge.weight < 0.0 {
                        neg_sum += (-edge.weight).powf(power);
                    }
                }
            }
        }
        let backward = if is_source { 0.0 } else { params.backward_weight };
        let total_weight = pos_sum + neg_sum + backward;
        if total_weight <= 0.0 {
            continue;
        }

        // One division per node; every share is `unit * w^p`.
        let unit = forward / total_weight;
        // What the node owes the source: the backward edge, then — in edge
        // order — its statements about the source (wherever the source
        // lives) and the local trust edges the node cap reroutes. Deposited
        // as one addend, or sent as one packet.
        let mut source_weight = backward;
        if !at_range_limit {
            for edge in star.iter().filter(|e| e.weight > 0.0) {
                let powered = edge.weight.powf(power);
                match edge.target {
                    Target::Local(succ) => {
                        let idx = match wave.index.get(&succ) {
                            Some(&idx) => idx,
                            None => {
                                if params.max_nodes.is_some_and(|cap| wave.nodes.len() >= cap) {
                                    source_weight += powered;
                                    continue;
                                }
                                wave.discover(succ, distance + 1)
                            }
                        };
                        if me == source_shard && idx == 0 {
                            source_weight += powered;
                        } else {
                            wave.nodes[idx].energy_next += unit * powered;
                        }
                    }
                    Target::Remote { ghost } => {
                        let dest = shard.ghosts[ghost as usize];
                        if dest.shard as usize == source_shard && dest.local == source_local {
                            source_weight += powered;
                        } else {
                            outbox[dest.shard as usize].push(Packet {
                                dest_local: dest.local,
                                distance: distance + 1,
                                energy: unit * powered,
                                penalty: 0.0,
                            });
                        }
                    }
                }
            }
        }
        let share = unit * source_weight;
        if me == source_shard {
            wave.nodes[0].energy_next += share;
        } else {
            source_bound.push(share);
        }
        if params.distrust && !at_range_limit {
            for edge in star.iter().filter(|e| e.weight < 0.0) {
                let share = unit * (-edge.weight).powf(power);
                match edge.target {
                    Target::Local(succ) => {
                        let idx = match wave.index.get(&succ) {
                            Some(&idx) => Some(idx),
                            None => {
                                if params.max_nodes.is_some_and(|cap| wave.nodes.len() >= cap) {
                                    None
                                } else {
                                    Some(wave.discover(succ, distance + 1))
                                }
                            }
                        };
                        if let Some(idx) = idx {
                            wave.nodes[idx].rank -= share;
                            max_delta = max_delta.max(share);
                        }
                    }
                    Target::Remote { ghost } => {
                        let dest = shard.ghosts[ghost as usize];
                        outbox[dest.shard as usize].push(Packet {
                            dest_local: dest.local,
                            distance: distance + 1,
                            energy: 0.0,
                            penalty: share,
                        });
                    }
                }
            }
        }
    }

    ComputeOut { max_delta, outbox, source_bound }
}
