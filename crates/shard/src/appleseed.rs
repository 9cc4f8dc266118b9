//! Cross-shard Appleseed: the boundary-frontier exchange protocol.
//!
//! The global Appleseed iteration (see `semrec-trust`) is partitioned by
//! shard ownership. Each round has two phases in lockstep:
//!
//! 1. **Compute** — every shard advances the energy wave over its own
//!    members exactly as the unsharded metric would, walking each node's
//!    out-star (local and boundary edges merged in global-id order, so
//!    normalization sums are performed in the same floating-point order as
//!    the global graph walk). Energy shares destined for remote agents are
//!    appended to per-destination-shard *frontier buckets* (`Packet`s)
//!    instead of being applied directly. Shards only touch their own wave
//!    and their own buckets in this phase, so the order they are visited in
//!    never affects results.
//! 2. **Exchange** — a barrier flushes every bucket: packets are applied
//!    destination shard by destination shard, source shard by source
//!    shard, in append order. Discovery, the node cap, and distrust
//!    penalties behave as in the global metric, with rerouted energy
//!    returned to the source node.
//!
//! The protocol converges when no rank anywhere moved by more than the
//! convergence threshold during a round. With one shard no packet is ever
//! created and the computation is bit-identical to the global metric; with
//! more shards the fixpoint is the same but iteration interleaving differs,
//! so ranks agree to within the convergence threshold (the equivalence
//! property suite pins both statements).
//!
//! # The kernel
//!
//! The share arithmetic (`unit = d·in(x)/Σw`, shares of `unit · |w|^p`, and
//! `source_weight` for what a node owes the source), the design and the
//! argument why a resolved star may be frozen are `semrec_trust::appleseed`'s
//! — its module docs are their one home — applied per shard. What differs
//! here:
//!
//! * A node's out-star is resolved into flat per-shard arenas: `succ`/
//!   `powered` — wave index and powered weight — for trust and then
//!   distrust edges to local wave nodes, and `remote` — `(destination shard,
//!   destination local id, powered weight)` — for trust and then distrust
//!   edges that leave the shard. The shard's out-stars carry no powered
//!   weights, so `|w|^p` is taken here, once per wave node per query.
//! * `source_weight` also takes statements about a source that lives on
//!   another shard. On the source's shard the pass adds
//!   `unit · source_weight` to the source; on any other shard it pushes that
//!   as **one packet per active node per round**, addressed to the source.
//! * Every other remote edge is one packet push per round into buckets that
//!   are emptied at the barrier and reused. A remote edge freezes only what
//!   is immutable, its address and powered weight: whether the destination
//!   is known, discoverable or past its shard's cap is still decided at the
//!   barrier, every round, by the shard that owns it, through that shard's
//!   stamped table. The node cap is per shard — compute phase and barrier
//!   test the same wave — so "unknown and past the cap" is final for a
//!   *local* successor exactly as in the monolith.
//!
//! Rounds run on the caller's thread; queries run in parallel one level up,
//! in `ShardedModel::recommend_batch`.
//!
//! **Bit-identity contract.** At every shard count the kernel returns what
//! the straightforward loop returns (kept as the test oracle in
//! `appleseed/oracle.rs`): the same `f64` bits for every rank, the same
//! `iterations`, `nodes_discovered`, `converged`, `exchange_rounds` and
//! `frontier_packets`. Nodes are discovered in the same order, packets are
//! appended and applied in the same order, and every accumulator receives
//! the same addends in the same order.
//!
//! The two kernels share a definition and a design and no code: the shard's
//! pass pushes packets and addresses the source in two ways, the monolith's
//! does neither, and one loop serving both would carry that choice — a
//! branch or a type parameter — into the monolith's inner loop.
//!
//! All of it lives in a per-thread scratch reused from query to query, so a
//! warm query allocates only the ranking it returns. The scratch keeps the
//! capacity of the largest waves it has held and eight bytes per agent of
//! the largest shards it has seen.

use std::cell::RefCell;
use std::sync::Arc;

use semrec_trust::appleseed::AppleseedParams;
use semrec_trust::Result;

use crate::model::{Shard, Target};
use crate::partition::GlobalId;

/// One unit of boundary-frontier traffic: energy (or a distrust penalty)
/// flushed to an agent owned by another shard.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Packet {
    /// Destination agent, as the owning shard's local index.
    dest_local: u32,
    /// Hop distance assigned if this packet discovers the destination.
    distance: u32,
    /// Positive trust energy to deposit into `energy_next`.
    energy: f64,
    /// Terminal distrust penalty to subtract from the rank.
    penalty: f64,
}

/// Result of a sharded Appleseed run, keyed by global ordinal.
#[derive(Clone, Debug)]
pub struct ShardedAppleseedResult {
    /// `(agent, rank)` sorted by descending rank (ascending ordinal on
    /// ties), source excluded — the same total order the global metric
    /// produces when ordinals coincide with global `AgentId` indexes.
    pub ranks: Vec<(GlobalId, f64)>,
    /// Rounds until convergence (or the iteration cap).
    pub iterations: usize,
    /// Wave nodes discovered across all shards (including the source).
    pub nodes_discovered: usize,
    /// True if the fixpoint was reached before `max_iterations`.
    pub converged: bool,
    /// Rounds in which at least one frontier packet crossed shards.
    pub exchange_rounds: usize,
    /// Frontier packets delivered at the barriers of those rounds.
    pub frontier_packets: usize,
}

/// Runs the boundary-frontier protocol for `source`.
///
/// `local_of` maps global ordinals to owning-shard local indexes
/// (`u32::MAX` marks an agent no longer present). `schedule` is the order
/// shards are visited in within a round's compute phase; it must be a
/// permutation of `0..shards.len()` and never affects results.
pub(crate) fn sharded_appleseed(
    shards: &[Arc<Shard>],
    local_of: &[u32],
    source: GlobalId,
    source_shard: usize,
    params: &AppleseedParams,
    schedule: &[usize],
) -> Result<ShardedAppleseedResult> {
    params.validate()?;
    let source_local = local_of[source.index()];
    if source_local == u32::MAX {
        return Err(semrec_trust::TrustError::UnknownAgent(source.index()));
    }

    Ok(SCRATCH.with_borrow_mut(|scratch| {
        scratch.run(shards, source, source_shard, source_local, params, schedule)
    }))
}

thread_local! {
    /// One scratch per thread, so a thread's queries allocate nothing in the
    /// kernel once its buffers have grown to the largest waves (and the
    /// dense indexes to the largest shards) the thread has seen.
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Where the source lives, seen from one shard.
#[derive(Clone, Copy)]
enum SourceAt {
    /// On this shard, as wave node 0.
    Here,
    /// On another shard, reached by packet.
    Shard { shard: u32, local: u32 },
}

impl SourceAt {
    /// True if the source is the member `local` of the other shard `shard`.
    fn is_at(self, shard: u32, local: u32) -> bool {
        matches!(self, SourceAt::Shard { shard: s, local: l } if s == shard && l == local)
    }
}

/// A resolved edge that leaves the shard for an agent other than the source.
#[derive(Clone, Copy)]
struct RemoteEdge {
    shard: u32,
    local: u32,
    powered: f64,
}

/// A wave node's resolved out-star, as ranges of its shard's arenas, plus
/// `semrec_trust::appleseed`'s two weights.
#[derive(Clone, Copy)]
struct Star {
    /// `start..pos_end` of `succ`/`powered`: trust edges into the local wave.
    start: usize,
    /// `pos_end..end` of `succ`/`powered`: distrust edges into the local wave.
    pos_end: usize,
    end: usize,
    /// `remote_start..remote_pos_end` of `remote`: trust edges out of the
    /// shard; `remote_pos_end..remote_end`: distrust edges out of it.
    remote_start: usize,
    remote_pos_end: usize,
    remote_end: usize,
    source_weight: f64,
    total_weight: f64,
}

impl Star {
    /// The star of a node that has not forwarded energy yet.
    const UNEXPANDED: Star = Star {
        start: usize::MAX,
        pos_end: 0,
        end: 0,
        remote_start: 0,
        remote_pos_end: 0,
        remote_end: 0,
        source_weight: 0.0,
        total_weight: 0.0,
    };
}

/// One shard's slice of the energy wave and its arenas; see the module docs.
#[derive(Default)]
struct ShardWave {
    // The wave, one entry per discovered member in discovery order, as
    // parallel arrays. On the source's shard the source is node 0.
    local: Vec<u32>,
    /// Hop distance from the source at discovery time.
    distance: Vec<u32>,
    rank: Vec<f64>,
    energy_in: Vec<f64>,
    energy_next: Vec<f64>,
    star: Vec<Star>,
    // The local edge arenas, filled node by node on first expansion: the
    // successor's wave index and the weight raised to `spreading_power`.
    succ: Vec<u32>,
    powered: Vec<f64>,
    /// Edges whose share travels by packet.
    remote: Vec<RemoteEdge>,
    /// Powered weights of the star being resolved, between its two passes.
    parked: Vec<f64>,
    // Dense local id → wave index: `wave_index[a]` is valid iff
    // `stamp[a] == generation`, so starting a query is one increment
    // instead of a clear.
    wave_index: Vec<u32>,
    stamp: Vec<u32>,
    generation: u32,
}

impl ShardWave {
    /// Empties the wave and makes room for a shard of `members` agents.
    fn reset(&mut self, members: usize) {
        self.local.clear();
        self.distance.clear();
        self.rank.clear();
        self.energy_in.clear();
        self.energy_next.clear();
        self.star.clear();
        self.succ.clear();
        self.powered.clear();
        self.remote.clear();
        if self.stamp.len() < members {
            self.stamp.resize(members, 0);
            self.wave_index.resize(members, 0);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamp.fill(0);
            self.generation = 1;
        }
    }

    /// Appends the member `local` to the wave and returns its index.
    fn discover(&mut self, local: u32, distance: u32) -> u32 {
        let idx = self.local.len() as u32;
        self.local.push(local);
        self.distance.push(distance);
        self.rank.push(0.0);
        self.energy_in.push(0.0);
        self.energy_next.push(0.0);
        self.star.push(Star::UNEXPANDED);
        self.wave_index[local as usize] = idx;
        self.stamp[local as usize] = self.generation;
        idx
    }

    /// The wave index of the member `local`, discovering it at `distance`
    /// if this shard's wave may still grow. Once `max_nodes` is hit no
    /// member is ever discovered again, so `None` is final for a given
    /// member: a local edge can freeze it, the barrier simply meets it
    /// again.
    fn resolve(&mut self, local: u32, distance: u32, params: &AppleseedParams) -> Option<u32> {
        if self.stamp[local as usize] == self.generation {
            Some(self.wave_index[local as usize])
        } else if params.max_nodes.is_some_and(|cap| self.local.len() >= cap) {
            None
        } else {
            Some(self.discover(local, distance))
        }
    }

    /// Resolves node `i`'s out-star into the arenas, discovering its local
    /// successors. Runs once per node, when it first holds energy — the
    /// moment the reference loop walks these edges for the first time, so
    /// discovery order is the same.
    fn expand(&mut self, i: usize, shard: &Shard, source: SourceAt, params: &AppleseedParams) {
        let edges = &shard.outstar[self.local[i] as usize];
        let distance = self.distance[i];
        let power = params.spreading_power;
        let start = self.succ.len();
        let remote_start = self.remote.len();

        // First pass: power and sum the weights — trust statements, then
        // distrust, each in edge order. Nodes at the range limit keep only
        // the backward edge.
        self.parked.clear();
        let mut pos_sum = 0.0;
        let mut neg_sum = 0.0;
        let at_range_limit = params.max_range.is_some_and(|r| distance >= r);
        if !at_range_limit {
            for edge in edges.iter().filter(|e| e.weight > 0.0) {
                let pw = edge.weight.powf(power);
                pos_sum += pw;
                self.parked.push(pw);
            }
            if params.distrust {
                for edge in edges.iter().filter(|e| e.weight < 0.0) {
                    let pw = (-edge.weight).powf(power);
                    neg_sum += pw;
                    self.parked.push(pw);
                }
            }
        }
        let source_here = matches!(source, SourceAt::Here);
        let backward = if source_here && i == 0 { 0.0 } else { params.backward_weight };
        let total_weight = pos_sum + neg_sum + backward;

        // Second pass, in the same order: file each edge by where its share
        // lands. A trust edge that ends at the source — a statement about
        // it, local or not, or any local edge the cap reroutes — adds to
        // `source_weight`; a local distrust edge the cap cuts off is
        // dropped. A source without positive statements (`total_weight` 0)
        // lets its energy evaporate and discovers nothing.
        let mut source_weight = backward;
        let mut pos_end = start;
        let mut remote_pos_end = remote_start;
        if total_weight > 0.0 && !at_range_limit {
            let mut parked = 0;
            for edge in edges.iter().filter(|e| e.weight > 0.0) {
                let pw = self.parked[parked];
                parked += 1;
                match edge.target {
                    Target::Local(succ) => {
                        match self.resolve(succ.index() as u32, distance + 1, params) {
                            Some(idx) if !(source_here && idx == 0) => {
                                self.succ.push(idx);
                                self.powered.push(pw);
                            }
                            _ => source_weight += pw,
                        }
                    }
                    Target::Remote { shard, local } if source.is_at(shard, local) => {
                        source_weight += pw
                    }
                    Target::Remote { shard, local } => {
                        self.remote.push(RemoteEdge { shard, local, powered: pw })
                    }
                }
            }
            pos_end = self.succ.len();
            remote_pos_end = self.remote.len();
            if params.distrust {
                for edge in edges.iter().filter(|e| e.weight < 0.0) {
                    let pw = self.parked[parked];
                    parked += 1;
                    match edge.target {
                        Target::Local(succ) => {
                            if let Some(idx) =
                                self.resolve(succ.index() as u32, distance + 1, params)
                            {
                                self.succ.push(idx);
                                self.powered.push(pw);
                            }
                        }
                        Target::Remote { shard, local } => {
                            self.remote.push(RemoteEdge { shard, local, powered: pw })
                        }
                    }
                }
            }
        }
        self.star[i] = Star {
            start,
            pos_end,
            end: self.succ.len(),
            remote_start,
            remote_pos_end,
            remote_end: self.remote.len(),
            source_weight,
            total_weight,
        };
    }

    /// Advances this shard's wave by one round and returns the largest rank
    /// movement. Shares for remote agents (and, on a shard that does not
    /// own the source, the energy owed to it) are appended to `outbox`,
    /// indexed by destination shard.
    fn compute_round(
        &mut self,
        shard: &Shard,
        outbox: &mut [Vec<Packet>],
        source: SourceAt,
        params: &AppleseedParams,
    ) -> f64 {
        let d = params.spreading_factor;
        let mut max_delta: f64 = 0.0;
        // `energy_next[0]` of the source's shard, which only `source_weight`
        // feeds during the pass.
        let mut to_source = 0.0;

        // Members discovered during this pass hold no energy until the
        // fold, so the pass covers the wave as it stood.
        for i in 0..self.local.len() {
            let energy = self.energy_in[i];
            if energy <= 0.0 {
                continue;
            }
            self.energy_in[i] = 0.0;

            // Keep (1 - d), forward d.
            let kept = (1.0 - d) * energy;
            self.rank[i] += kept;
            max_delta = max_delta.max(kept);
            let forward = d * energy;

            if self.star[i].start == Star::UNEXPANDED.start {
                self.expand(i, shard, source, params);
            }
            let star = self.star[i];
            let total_weight = star.total_weight;
            if total_weight <= 0.0 {
                continue;
            }
            let distance = self.distance[i] + 1;

            // `semrec_trust::appleseed`'s arithmetic. Every accumulator and
            // every bucket below receives its addends in the reference
            // loop's order; ranks are bit-identical only as long as that is
            // not rearranged.
            let unit = forward / total_weight;
            let trust = self.succ[star.start..star.pos_end]
                .iter()
                .zip(&self.powered[star.start..star.pos_end]);
            for (&idx, &pw) in trust {
                self.energy_next[idx as usize] += unit * pw;
            }
            for edge in &self.remote[star.remote_start..star.remote_pos_end] {
                outbox[edge.shard as usize].push(Packet {
                    dest_local: edge.local,
                    distance,
                    energy: unit * edge.powered,
                    penalty: 0.0,
                });
            }
            match source {
                SourceAt::Here => to_source += unit * star.source_weight,
                // The source is discovered before the first round, so this
                // packet always resolves at the barrier and its distance is
                // never read.
                SourceAt::Shard { shard, local } => outbox[shard as usize].push(Packet {
                    dest_local: local,
                    distance: 0,
                    energy: unit * star.source_weight,
                    penalty: 0.0,
                }),
            }
            // Distrust: a terminal penalty, deposited as negative rank.
            let distrust = self.succ[star.pos_end..star.end]
                .iter()
                .zip(&self.powered[star.pos_end..star.end]);
            for (&idx, &pw) in distrust {
                let share = unit * pw;
                self.rank[idx as usize] -= share;
                max_delta = max_delta.max(share);
            }
            for edge in &self.remote[star.remote_pos_end..star.remote_end] {
                outbox[edge.shard as usize].push(Packet {
                    dest_local: edge.local,
                    distance,
                    energy: 0.0,
                    penalty: unit * edge.powered,
                });
            }
        }

        if matches!(source, SourceAt::Here) {
            self.energy_next[0] = to_source;
        }
        max_delta
    }
}

/// Reusable state of one sharded run: a wave per shard and the frontier
/// buckets, `outboxes[from * n + to]` for a model of `n` shards.
#[derive(Default)]
struct Scratch {
    waves: Vec<ShardWave>,
    outboxes: Vec<Vec<Packet>>,
}

impl Scratch {
    fn run(
        &mut self,
        shards: &[Arc<Shard>],
        source: GlobalId,
        source_shard: usize,
        source_local: u32,
        params: &AppleseedParams,
        schedule: &[usize],
    ) -> ShardedAppleseedResult {
        let n = shards.len();
        if self.waves.len() < n {
            self.waves.resize_with(n, ShardWave::default);
        }
        if self.outboxes.len() < n * n {
            self.outboxes.resize_with(n * n, Vec::new);
        }
        let waves = &mut self.waves[..n];
        let outboxes = &mut self.outboxes[..n * n];
        for (wave, shard) in waves.iter_mut().zip(shards) {
            wave.reset(shard.len());
        }
        // Empty after every barrier; a run that unwound mid-round is the
        // only way a packet could be left behind.
        outboxes.iter_mut().for_each(Vec::clear);

        waves[source_shard].discover(source_local, 0);
        waves[source_shard].energy_in[0] = params.injection;

        let mut iterations = 0;
        let mut converged = false;
        let mut exchange_rounds = 0;
        let mut frontier_packets = 0;
        while iterations < params.max_iterations {
            iterations += 1;

            // Phase 1: per-shard compute over disjoint waves and buckets.
            let mut max_delta: f64 = 0.0;
            for &s in schedule {
                let source_at = if s == source_shard {
                    SourceAt::Here
                } else {
                    SourceAt::Shard { shard: source_shard as u32, local: source_local }
                };
                let outbox = &mut outboxes[s * n..(s + 1) * n];
                max_delta =
                    max_delta.max(waves[s].compute_round(&shards[s], outbox, source_at, params));
            }

            // Phase 2: lockstep exchange barrier — destination shard by
            // destination shard, source shard by source shard, packet
            // append order. Deterministic by construction.
            let mut packets = 0;
            let mut rerouted = 0.0;
            for (dest, wave) in waves.iter_mut().enumerate() {
                for from in 0..n {
                    for pkt in outboxes[from * n + dest].drain(..) {
                        packets += 1;
                        match wave.resolve(pkt.dest_local, pkt.distance, params) {
                            Some(idx) => {
                                wave.energy_next[idx as usize] += pkt.energy;
                                if pkt.penalty > 0.0 {
                                    wave.rank[idx as usize] -= pkt.penalty;
                                    max_delta = max_delta.max(pkt.penalty);
                                }
                            }
                            // Past the destination cap: energy returns to
                            // the source (as in the global metric);
                            // penalties on never-discovered nodes are
                            // dropped.
                            None => rerouted += pkt.energy,
                        }
                    }
                }
            }
            if rerouted > 0.0 {
                waves[source_shard].energy_next[0] += rerouted;
            }
            if packets > 0 {
                exchange_rounds += 1;
                frontier_packets += packets;
            }

            // Fold: next round's energy becomes visible everywhere at once.
            for wave in waves.iter_mut() {
                for (energy_in, energy_next) in wave.energy_in.iter_mut().zip(&mut wave.energy_next)
                {
                    *energy_in += *energy_next;
                    *energy_next = 0.0;
                }
            }

            if max_delta < params.convergence {
                converged = true;
                break;
            }
        }

        let nodes_discovered: usize = waves.iter().map(|wave| wave.local.len()).sum();
        let mut ranks: Vec<(GlobalId, f64)> = Vec::with_capacity(nodes_discovered - 1);
        for (shard, wave) in shards.iter().zip(waves.iter()) {
            for (&local, &rank) in wave.local.iter().zip(&wave.rank) {
                let global = shard.globals[local as usize];
                if global != source {
                    ranks.push((global, rank));
                }
            }
        }
        // Every weight that reaches an out-star is a finite value in
        // [-1, 1] — `TrustGraph::set_trust` checks statements, recovery
        // checks the boundary log — so no rank is NaN. Ordinals are
        // unique, so the comparator is a strict total order and the
        // unstable sort yields the one possible permutation.
        ranks.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1).expect("ranks are never NaN").then(a.0.cmp(&b.0))
        });

        ShardedAppleseedResult {
            ranks,
            iterations,
            nodes_discovered,
            converged,
            exchange_rounds,
            frontier_packets,
        }
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests;
