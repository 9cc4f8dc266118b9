//! Cross-shard Appleseed: the boundary-frontier exchange protocol.
//!
//! The global Appleseed iteration (see `semrec-trust`) is partitioned by
//! shard ownership. Each round has two phases in lockstep:
//!
//! 1. **Compute** — every shard advances the energy wave over its own
//!    members exactly as the unsharded metric would, walking each node's
//!    out-star (local and boundary edges merged in global-id order, so
//!    every sum sees the global graph walk's edge order). A share for an
//!    agent on another shard is added, like a local one, to an accumulator
//!    of that destination on the sending shard (its *ghost*, below), and
//!    what the shard's nodes owe a source on another shard to one sum.
//!    Shards only touch their own wave and accumulators in this phase, so
//!    the order they are visited in never affects results.
//! 2. **Exchange** — a barrier delivers **one packet per (sending shard,
//!    destination node) that received a share this round**, carrying the
//!    summed energy, the summed distrust penalty and the largest single
//!    penalty share, plus one source-bound packet per shard that owes the
//!    source anything. Packets are applied destination shard by destination
//!    shard, sending shard by sending shard (its source-bound packet first,
//!    then its ghosts in activation order). Discovery, the node cap, and
//!    distrust penalties behave as in the global metric, with rerouted
//!    energy returned to the source node; convergence sees each penalty
//!    share, not their sum.
//!
//! The protocol converges when no rank anywhere moved by more than the
//! convergence threshold during a round. With one shard no packet is ever
//! sent and the computation is bit-identical to the global metric. With
//! more shards, no binding node cap and no hop range over distrust, the
//! fixpoint is the same but additions are reassociated, so ranks agree to
//! within the convergence threshold. The cap binds per shard; and under a
//! hop range a node first found by a distrust statement takes its hop
//! distance from the star that discovers it, which the barrier can defer,
//! so there the wave itself can differ (ROADMAP 15). The conformance table
//! (`tests/conformance.rs`) pins each statement.
//!
//! # Ghosts
//!
//! A shard's distinct remote trustees are numbered once, with the model, as
//! its *ghost table* (`Shard::ghosts`, `(destination shard, destination
//! local id)`); a boundary edge names its ghost. In a run a ghost is
//! *activated* when the first star holding it is expanded: it gets the next
//! slot of the shard's struct-of-arrays ghost arenas, the hop distance
//! `distance + 1` of that star's node, and a place at the end of its
//! destination shard's list. That is exactly when, and from where, a
//! protocol with one packet per edge sends its first packet to the node, so
//! discovery order, hop distances, each shard's cap decisions,
//! `iterations` and `nodes_discovered` are what such a protocol gives: only
//! the order of additions moves.
//!
//! # The kernel
//!
//! The share arithmetic (`unit = d·in(x)/Σw`, shares of `unit · |w|^p`, and
//! `source_weight` for what a node owes the source), the design and the
//! argument why a resolved star may be frozen are `semrec_trust::appleseed`'s
//! — its module docs are their one home — applied per shard. What differs
//! here:
//!
//! * `|w|^p` per edge and each member's trust and distrust sums are frozen
//!   with the shard (`Shard::assemble`), for the model's `spreading_power`;
//!   a run asking for another exponent is a typed
//!   `TrustError::InvalidParameter`.
//! * A node's out-star is resolved into flat per-shard arenas in one pass:
//!   `succ`/`powered` — wave index and powered weight — for trust and then
//!   distrust edges to local wave nodes, and `remote`/`remote_powered` —
//!   ghost slot and powered weight — for trust and then distrust edges that
//!   leave the shard. A remote trust share is then `ghost_energy[slot] +=
//!   unit·pw`, a remote distrust share adds to `ghost_penalty[slot]` and
//!   raises `ghost_max[slot]`: dense adds, like a local edge.
//! * `source_weight` also takes statements about a source that lives on
//!   another shard. On the source's shard the pass adds `unit ·
//!   source_weight` to the source; any other shard sums it into
//!   `to_source`, one packet per round.
//! * A ghost's destination wave index is resolved at the barrier of its
//!   activation round, by the owning shard through its wave index, and
//!   cached in the slot. Both outcomes are final: the destination's wave
//!   index never moves, and past the owning shard's cap (compute phase and
//!   barrier test the same wave, which only grows) "unknown" stays unknown
//!   — its energy goes back to the source and its penalty is dropped, every
//!   round.
//!
//! Rounds run on the caller's thread; queries run in parallel one level up,
//! in `ShardedModel::recommend_batch`.
//!
//! **Bit-identity contract.** At every shard count the kernel returns what
//! the straightforward loop returns (kept as the test oracle in
//! `appleseed/oracle.rs`, which keeps one packet per edge and combines them
//! at the barrier by the rule above): the same `f64` bits for every rank,
//! the same `iterations`, `nodes_discovered`, `converged`,
//! `exchange_rounds` and `frontier_packets`. Nodes are discovered in the
//! same order, packets are applied in the same order, and every accumulator
//! receives the same addends in the same order.
//!
//! The two kernels share a definition and a design and no code: the shard's
//! pass sums into ghosts and addresses the source in two ways, the
//! monolith's does neither, and one loop serving both would carry that
//! choice — a branch or a type parameter — into the monolith's inner loop.
//!
//! All of it lives in a per-thread scratch reused from query to query, so a
//! warm query allocates only the ranking it returns. The member → wave-index
//! and ghost → slot tables are two [`StampedIndex`]es per shard; the scratch
//! keeps the capacity of the largest waves it has held and the indexes of
//! the largest shards and ghost tables it has seen.

use std::cell::RefCell;
use std::sync::Arc;

use semrec_trust::appleseed::AppleseedParams;
use semrec_trust::stamped::StampedIndex;
use semrec_trust::{Result, TrustError};

use crate::model::{Ghost, Shard, Target};
use crate::partition::GlobalId;

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
    /// Frontier packets delivered at the barriers of those rounds: at most
    /// one per (sending shard, destination node) and one source-bound
    /// packet per sending shard, per round.
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
    if shards.iter().any(|shard| shard.spreading_power != params.spreading_power) {
        return Err(TrustError::InvalidParameter {
            name: "spreading_power",
            value: params.spreading_power,
            expected: "the exponent the shards were frozen for",
        });
    }
    let source_local = local_of[source.index()];
    if source_local == u32::MAX {
        return Err(TrustError::UnknownAgent(source.index()));
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
#[derive(Clone, Copy, PartialEq)]
enum SourceAt {
    /// On this shard, as wave node 0.
    Here,
    /// On another shard, reached by packet.
    Remote(Ghost),
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
    /// `remote_start..remote_pos_end` of `remote`/`remote_powered`: trust
    /// edges out of the shard; `remote_pos_end..remote_end`: distrust edges
    /// out of it.
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

/// `ghost_wave` of a slot whose destination has not been resolved yet.
const UNRESOLVED: u32 = u32::MAX;
/// `ghost_wave` of a slot whose destination lies past its shard's cap.
const CAPPED: u32 = u32::MAX - 1;

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
    // The remote edge arenas, likewise: the ghost's slot and the powered
    // weight.
    remote: Vec<u32>,
    remote_powered: Vec<f64>,
    // The activated ghosts, one slot each in activation order, as parallel
    // arrays: destination local id, hop distance, destination wave index
    // (`UNRESOLVED`, `CAPPED` or an index), and this round's summed
    // energy, summed penalty, largest penalty share and whether any share
    // arrived.
    ghost_local: Vec<u32>,
    ghost_distance: Vec<u32>,
    ghost_wave: Vec<u32>,
    ghost_energy: Vec<f64>,
    ghost_penalty: Vec<f64>,
    ghost_max: Vec<f64>,
    ghost_touched: Vec<bool>,
    /// Per destination shard, its activated ghosts' slots in activation
    /// order.
    outbound: Vec<Vec<u32>>,
    /// This round's energy owed to a source on another shard, and whether
    /// any node forwarded (and so owes a packet, however small).
    to_source: f64,
    owes_source: bool,
    /// Member local id → wave index.
    wave_index: StampedIndex,
    /// Ghost id → slot.
    ghost_slot: StampedIndex,
}

impl ShardWave {
    /// Empties the wave and makes room for `shard` in a model of `shards`
    /// shards.
    fn reset(&mut self, shard: &Shard, shards: usize) {
        self.local.clear();
        self.distance.clear();
        self.rank.clear();
        self.energy_in.clear();
        self.energy_next.clear();
        self.star.clear();
        self.succ.clear();
        self.powered.clear();
        self.remote.clear();
        self.remote_powered.clear();
        self.ghost_local.clear();
        self.ghost_distance.clear();
        self.ghost_wave.clear();
        self.ghost_energy.clear();
        self.ghost_penalty.clear();
        self.ghost_max.clear();
        self.ghost_touched.clear();
        if self.outbound.len() < shards {
            self.outbound.resize_with(shards, Vec::new);
        }
        self.outbound.iter_mut().for_each(Vec::clear);
        self.to_source = 0.0;
        self.owes_source = false;
        self.wave_index.reset(shard.len());
        self.ghost_slot.reset(shard.ghosts.len());
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
        self.wave_index.insert(local as usize, idx);
        idx
    }

    /// The wave index of the member `local`, discovering it at `distance`
    /// if this shard's wave may still grow. Once `max_nodes` is hit no
    /// member is ever discovered again, so `None` is final for a given
    /// member: a local edge or a ghost slot can freeze it.
    fn resolve(&mut self, local: u32, distance: u32, params: &AppleseedParams) -> Option<u32> {
        let full = params.max_nodes.is_some_and(|cap| self.local.len() >= cap);
        let known = self.wave_index.get(local as usize);
        known.or_else(|| (!full).then(|| self.discover(local, distance)))
    }

    /// The slot of `shard`'s ghost `ghost`, activating it at `distance` the
    /// first time a star holding it is expanded in this run.
    fn activate(&mut self, shard: &Shard, ghost: u32, distance: u32) -> u32 {
        let g = ghost as usize;
        if let Some(slot) = self.ghost_slot.get(g) {
            return slot;
        }
        let slot = self.ghost_local.len() as u32;
        let at = shard.ghosts[g];
        self.ghost_local.push(at.local);
        self.ghost_distance.push(distance);
        self.ghost_wave.push(UNRESOLVED);
        self.ghost_energy.push(0.0);
        self.ghost_penalty.push(0.0);
        self.ghost_max.push(0.0);
        self.ghost_touched.push(false);
        self.outbound[at.shard as usize].push(slot);
        self.ghost_slot.insert(g, slot);
        slot
    }

    /// Resolves node `i`'s out-star into the arenas in one pass,
    /// discovering its local successors and activating its ghosts. Runs
    /// once per node, when it first holds energy — the moment the reference
    /// loop walks these edges for the first time, so discovery order is the
    /// same.
    fn expand(&mut self, i: usize, shard: &Shard, source: SourceAt, params: &AppleseedParams) {
        let member = self.local[i] as usize;
        let edges = &shard.outstar[member];
        let distance = self.distance[i];
        let start = self.succ.len();
        let remote_start = self.remote.len();

        // Nodes at the range limit keep only the backward edge.
        let at_range_limit = params.max_range.is_some_and(|r| distance >= r);
        let (pos_sum, neg_sum) = match shard.powered_sums[member] {
            _ if at_range_limit => (0.0, 0.0),
            (pos, neg) => (pos, if params.distrust { neg } else { 0.0 }),
        };
        let source_here = matches!(source, SourceAt::Here);
        let backward = if source_here && i == 0 { 0.0 } else { params.backward_weight };
        let total_weight = pos_sum + neg_sum + backward;

        // File each edge by where its share lands — trust statements, then
        // distrust, each in edge order. A trust edge that ends at the source
        // — a statement about it, local or not, or any local edge the cap
        // reroutes — adds to `source_weight`; a local distrust edge the cap
        // cuts off is dropped. A source without positive statements
        // (`total_weight` 0) lets its energy evaporate and discovers nothing.
        let mut source_weight = backward;
        let mut pos_end = start;
        let mut remote_pos_end = remote_start;
        if total_weight > 0.0 && !at_range_limit {
            for edge in edges.iter().filter(|e| e.weight > 0.0) {
                match edge.target {
                    Target::Local(succ) => {
                        match self.resolve(succ.index() as u32, distance + 1, params) {
                            Some(idx) if !(source_here && idx == 0) => {
                                self.succ.push(idx);
                                self.powered.push(edge.powered);
                            }
                            _ => source_weight += edge.powered,
                        }
                    }
                    Target::Remote { ghost } => {
                        if source == SourceAt::Remote(shard.ghosts[ghost as usize]) {
                            source_weight += edge.powered;
                        } else {
                            let slot = self.activate(shard, ghost, distance + 1);
                            self.remote.push(slot);
                            self.remote_powered.push(edge.powered);
                        }
                    }
                }
            }
            pos_end = self.succ.len();
            remote_pos_end = self.remote.len();
            if params.distrust {
                for edge in edges.iter().filter(|e| e.weight < 0.0) {
                    match edge.target {
                        Target::Local(succ) => {
                            if let Some(idx) =
                                self.resolve(succ.index() as u32, distance + 1, params)
                            {
                                self.succ.push(idx);
                                self.powered.push(edge.powered);
                            }
                        }
                        Target::Remote { ghost } => {
                            let slot = self.activate(shard, ghost, distance + 1);
                            self.remote.push(slot);
                            self.remote_powered.push(edge.powered);
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
    /// movement. Shares for remote agents are summed into the ghost slots
    /// and, on a shard that does not own the source, the energy owed to it
    /// into `to_source`, for the barrier to deliver.
    fn compute_round(&mut self, shard: &Shard, source: SourceAt, params: &AppleseedParams) -> f64 {
        let d = params.spreading_factor;
        let mut max_delta: f64 = 0.0;
        // `energy_next[0]` of the source's shard, which only `source_weight`
        // feeds during the pass — or what this shard owes a remote source.
        let mut to_source = 0.0;
        let mut forwarded = false;

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
            forwarded = true;

            // `semrec_trust::appleseed`'s arithmetic. Every accumulator
            // below receives its addends in the reference loop's order;
            // ranks are bit-identical only as long as that is not
            // rearranged.
            let unit = forward / total_weight;
            let trust = self.succ[star.start..star.pos_end]
                .iter()
                .zip(&self.powered[star.start..star.pos_end]);
            for (&idx, &pw) in trust {
                self.energy_next[idx as usize] += unit * pw;
            }
            let remote = self.remote[star.remote_start..star.remote_pos_end]
                .iter()
                .zip(&self.remote_powered[star.remote_start..star.remote_pos_end]);
            for (&slot, &pw) in remote {
                self.ghost_energy[slot as usize] += unit * pw;
                self.ghost_touched[slot as usize] = true;
            }
            to_source += unit * star.source_weight;
            // Distrust: a terminal penalty, deposited as negative rank.
            let distrust = self.succ[star.pos_end..star.end]
                .iter()
                .zip(&self.powered[star.pos_end..star.end]);
            for (&idx, &pw) in distrust {
                let share = unit * pw;
                self.rank[idx as usize] -= share;
                max_delta = max_delta.max(share);
            }
            let remote = self.remote[star.remote_pos_end..star.remote_end]
                .iter()
                .zip(&self.remote_powered[star.remote_pos_end..star.remote_end]);
            for (&slot, &pw) in remote {
                let share = unit * pw;
                let slot = slot as usize;
                self.ghost_penalty[slot] += share;
                self.ghost_max[slot] = self.ghost_max[slot].max(share);
                self.ghost_touched[slot] = true;
            }
        }

        match source {
            SourceAt::Here => self.energy_next[0] = to_source,
            SourceAt::Remote(_) => {
                self.to_source = to_source;
                self.owes_source = forwarded;
            }
        }
        max_delta
    }
}

/// Reusable state of one sharded run: a wave per shard.
#[derive(Default)]
struct Scratch {
    waves: Vec<ShardWave>,
}

impl Scratch {
    // Kept out of line: inlined into `sharded_appleseed` (which codegen
    // does or does not do as unrelated code in the crate changes), the
    // round loop ran 11–14 % slower per query on `shard_batch`'s world.
    #[inline(never)]
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
        for (wave, shard) in self.waves.iter_mut().zip(shards) {
            wave.reset(shard, n);
        }

        self.waves[source_shard].discover(source_local, 0);
        self.waves[source_shard].energy_in[0] = params.injection;

        let mut iterations = 0;
        let mut converged = false;
        let mut exchange_rounds = 0;
        let mut frontier_packets = 0;
        while iterations < params.max_iterations {
            iterations += 1;

            // Phase 1: per-shard compute over disjoint waves and ghosts.
            let mut max_delta: f64 = 0.0;
            for &s in schedule {
                let source_at = if s == source_shard {
                    SourceAt::Here
                } else {
                    SourceAt::Remote(Ghost { shard: source_shard as u32, local: source_local })
                };
                let moved = self.waves[s].compute_round(&shards[s], source_at, params);
                max_delta = max_delta.max(moved);
            }

            // Phase 2: lockstep exchange barrier.
            let (packets, penalty_delta) = self.exchange(n, source_shard, params);
            max_delta = max_delta.max(penalty_delta);
            if packets > 0 {
                exchange_rounds += 1;
                frontier_packets += packets;
            }

            // Fold: next round's energy becomes visible everywhere at once.
            for wave in &mut self.waves[..n] {
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

        let waves = &self.waves[..n];
        let nodes_discovered: usize = waves.iter().map(|wave| wave.local.len()).sum();
        let mut ranks: Vec<(GlobalId, f64)> = Vec::with_capacity(nodes_discovered - 1);
        for (shard, wave) in shards.iter().zip(waves) {
            for (&local, &rank) in wave.local.iter().zip(&wave.rank) {
                let global = shard.globals[local as usize];
                if global != source {
                    ranks.push((global, rank));
                }
            }
        }
        // Every weight that reaches an out-star is a finite value in
        // [-1, 1] — `TrustGraph::set_trust` checks statements, recovery
        // checks the boundary log — so no rank is NaN, and none is −0.0
        // (ranks start at +0.0 and move by shares of weights > 0): the
        // total order is the one `partial_cmp` gives. Ordinals are unique,
        // so the comparator is strict and the unstable sort yields the one
        // possible permutation.
        ranks.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));

        ShardedAppleseedResult {
            ranks,
            iterations,
            nodes_discovered,
            converged,
            exchange_rounds,
            frontier_packets,
        }
    }

    /// The barrier of one round: delivers every packet the compute phase
    /// left in the ghosts and `to_source` sums — destination shard by
    /// destination shard, sending shard by sending shard, its source-bound
    /// packet and then its ghosts in activation order — and empties them.
    /// Returns the packets delivered and the largest penalty share applied.
    fn exchange(
        &mut self,
        n: usize,
        source_shard: usize,
        params: &AppleseedParams,
    ) -> (usize, f64) {
        let waves = &mut self.waves[..n];
        let mut packets = 0;
        let mut max_delta: f64 = 0.0;
        let mut rerouted = 0.0;
        for dest in 0..n {
            for from in (0..n).filter(|&from| from != dest) {
                let (sender, receiver) = pair_mut(waves, from, dest);
                // The source is discovered before the first round, so this
                // packet always lands on wave node 0.
                if dest == source_shard && sender.owes_source {
                    packets += 1;
                    receiver.energy_next[0] += sender.to_source;
                }
                for &slot in &sender.outbound[dest] {
                    let slot = slot as usize;
                    if !sender.ghost_touched[slot] {
                        continue;
                    }
                    packets += 1;
                    sender.ghost_touched[slot] = false;
                    let energy = std::mem::take(&mut sender.ghost_energy[slot]);
                    let penalty = std::mem::take(&mut sender.ghost_penalty[slot]);
                    let largest = std::mem::take(&mut sender.ghost_max[slot]);
                    if sender.ghost_wave[slot] == UNRESOLVED {
                        let local = sender.ghost_local[slot];
                        let distance = sender.ghost_distance[slot];
                        sender.ghost_wave[slot] =
                            receiver.resolve(local, distance, params).unwrap_or(CAPPED);
                    }
                    match sender.ghost_wave[slot] {
                        // Past the destination cap: energy returns to the
                        // source (as in the global metric); penalties on
                        // never-discovered nodes are dropped.
                        CAPPED => rerouted += energy,
                        idx => {
                            receiver.energy_next[idx as usize] += energy;
                            if penalty > 0.0 {
                                receiver.rank[idx as usize] -= penalty;
                                max_delta = max_delta.max(largest);
                            }
                        }
                    }
                }
            }
        }
        if rerouted > 0.0 {
            waves[source_shard].energy_next[0] += rerouted;
        }
        (packets, max_delta)
    }
}

/// `waves[a]` and `waves[b]` (`a != b`), both mutably.
fn pair_mut(waves: &mut [ShardWave], a: usize, b: usize) -> (&mut ShardWave, &mut ShardWave) {
    if a < b {
        let (low, high) = waves.split_at_mut(b);
        (&mut low[a], &mut high[0])
    } else {
        let (low, high) = waves.split_at_mut(a);
        (&mut high[0], &mut low[b])
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests;
