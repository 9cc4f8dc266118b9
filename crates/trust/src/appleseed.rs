//! The **Appleseed** local group trust metric (§3.2, ref \[12\]).
//!
//! Appleseed derives from spreading activation models (Quillian, ref \[13\]):
//! the source agent injects trust *energy* `in_0` into the network. Each node
//! `x` holding energy `in(x)` keeps `(1 − d) · in(x)` as accumulated trust
//! rank and forwards `d · in(x)` along its positive outgoing trust edges,
//! proportionally to edge weights. Every discovered node is given a virtual
//! *backward edge* to the source with weight 1, which (a) makes energy
//! conservation exact — no node is a sink — and (b) biases ranks towards
//! agents close to the source. The fixpoint is reached when no rank changes
//! by more than the convergence threshold `T_c`.
//!
//! The metric is *local* (it explores only the subgraph energy actually
//! reaches, within an optional hop range — "exploring the social network
//! within predefined ranges only … retaining scalability") and *group*
//! (it returns a ranking of peers rather than a value for one target pair).
//!
//! **Distrust.** Negative trust statements don't propagate transitively
//! ("the enemy of my enemy" is *not* a friend): a negative edge diverts the
//! proportional share of energy into a terminal rank *penalty* at the
//! distrusted node and forwards nothing. This is the one-step distrust
//! handling Ziegler & Lausen argue for; enable it via
//! [`AppleseedParams::distrust`].
//!
//! # The arithmetic
//!
//! A node `x` that holds energy has, in edge order, trust statements,
//! distrust statements (counted only with [`AppleseedParams::distrust`])
//! and, unless it is the source, the backward edge. With `Σw` = its powered
//! trust weights summed in edge order from 0.0, plus its powered distrust
//! weights summed likewise, plus the backward weight,
//!
//! ```text
//! unit  = d · in(x) / Σw          one division per node
//! share = unit · |w|^p            per statement, p = spreading_power
//! ```
//!
//! is ref \[12\]'s `d · in(x) · w / Σw`, which prescribes no operation order;
//! this is the order the kernel and both oracles compute. A trust share is
//! energy for the successor, a distrust share a penalty on it. What `x` owes
//! the *source* — the backward edge, then in edge order its trust
//! statements about the source and those the node cap reroutes — is summed
//! first, as weights, into `source_weight`, and reaches the source as the
//! single addend `unit · source_weight`.
//!
//! # The kernel
//!
//! One loop, over one or more frozen [`Partition`]s: [`appleseed`] runs it
//! over a whole [`CsrGraph`], the one partition without ghosts, and
//! [`appleseed_partitioned`] over `semrec-shard`'s shards. A partition
//! carries `|w|^p` per statement and each member's two sums, for the one `p`
//! it was frozen for ([`CsrGraph::with_spreading_power`]; a run asking for
//! another is refused). When a node first holds energy its out-star is
//! *resolved* into flat per-run arenas — successors on its partition as
//! `(wave index, |w|^p)`, edges to others as `(ghost slot, |w|^p)`, the rest
//! folded into `source_weight` — and each later iteration is a straight
//! pass `energy_next[idx] += unit * powered` over those pairs: no power, no
//! division per edge, no lookup, no graph access.
//!
//! Resolving once is sound because nothing it records can change later in
//! the run: weights and hop distances are fixed, a node's wave index never
//! moves, and a wave only grows. Once `max_nodes` is hit on a partition
//! nothing is discovered there again, so "reroute this edge to the source"
//! (trust) or "drop this edge" (distrust) is final. That makes
//! `source_weight` a constant of the run, and on a trust-only graph it plus
//! the resolved edges' powered weights is `Σw` up to rounding: energy is
//! conserved.
//!
//! # Partitions, ghosts and the barrier
//!
//! A partition numbers its distinct trustees on other partitions once, as
//! its *ghosts* ([`Partition::ghost`]). Each round has two phases:
//!
//! 1. **Compute.** Each partition, in `schedule` order, makes the pass
//!    above over its own wave. A share for another partition's member is
//!    added, like a local one, to its ghost's slot; off the source's
//!    partition what the nodes owe the source is summed into one
//!    `to_source`. A pass touches only its own wave, so the schedule never
//!    affects results.
//! 2. **Barrier.** One packet per (sending partition, destination node) that
//!    received a share, carrying the summed energy, the summed penalty and
//!    the largest penalty share, plus one source-bound packet per partition
//!    whose nodes forwarded anything. Packets are applied destination by
//!    destination, sender by sender: its source-bound packet, then its
//!    ghosts in activation order.
//!
//! A ghost is *activated* when the first star holding it is resolved, at
//! that node's `distance + 1`: exactly when, and from where, one packet per
//! edge would first reach the node. So discovery order, hop distances, cap
//! decisions, `iterations` and `nodes_discovered` are the per-edge
//! protocol's; only the order of additions moves. Where a ghost lands — a
//! known node, a new one, or past its partition's cap (energy back to the
//! source, penalty dropped) — its owner decides at the barrier of the
//! activation round, and the slot caches the answer, final for the reason
//! above.
//!
//! With one partition the barrier never runs. With more, no binding cap and
//! no hop range over distrust, ranks agree within the convergence threshold
//! (additions are reassociated). The cap binds per partition, and under a
//! hop range a node first found by distrust takes its distance from the star
//! that discovers it, which the barrier can defer (ROADMAP 15).
//!
//! **Bit-identity contract.** The kernel returns exactly what the
//! straightforward loops return — over a whole graph the oracle
//! `appleseed/oracle.rs`, which walks the [`crate::graph::TrustGraph`] and
//! freezes nothing; over shards `semrec-shard`'s, which sends one packet per
//! edge and combines them by the rule above: the same `f64` bits for every
//! rank, and the same `iterations`, `nodes_discovered`, `converged`,
//! `residual`, `exchange_rounds` and `frontier_packets`.
//!
//! One per-thread scratch holds one wave per partition, with its arenas and
//! its [`StampedIndex`]es (member → wave index, ghost → slot), reused from
//! run to run: a warm run allocates only the ranking it returns.

use std::cell::RefCell;
use std::ops::Deref;

use crate::agent::AgentId;
use crate::csr::CsrGraph;
use crate::error::{Result, TrustError};
use crate::stamped::StampedIndex;

/// Parameters of the Appleseed metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AppleseedParams {
    /// Injected trust energy `in_0` (paper example: 200).
    pub injection: f64,
    /// Spreading factor `d ∈ (0, 1)`: share of incoming energy passed on
    /// rather than kept as rank. Default 0.85.
    pub spreading_factor: f64,
    /// Convergence threshold `T_c`: stop when no rank moves more than this.
    pub convergence: f64,
    /// Weight of the virtual backward edge to the source.
    pub backward_weight: f64,
    /// Hard cap on iterations (safety net; convergence normally triggers first).
    pub max_iterations: usize,
    /// Optional hop-range bound: nodes farther than this from the source are
    /// still ranked but never expanded (their energy returns to the source).
    pub max_range: Option<u32>,
    /// Optional cap on the number of discovered nodes; energy reaching
    /// undiscovered nodes past the cap returns to the source instead.
    pub max_nodes: Option<usize>,
    /// Honor negative edges as terminal rank penalties.
    pub distrust: bool,
    /// Nonlinear spreading exponent: outgoing energy shares are proportional
    /// to `w^spreading_power`. Ref \[12\] proposes super-linear normalization
    /// (e.g. 2.0) so highly trusted successors attract disproportionally
    /// more energy than weakly trusted ones; 1.0 is the linear default.
    pub spreading_power: f64,
}

impl Default for AppleseedParams {
    fn default() -> Self {
        AppleseedParams {
            injection: 200.0,
            spreading_factor: 0.85,
            convergence: 0.01,
            backward_weight: 1.0,
            max_iterations: 10_000,
            max_range: None,
            max_nodes: None,
            distrust: false,
            spreading_power: 1.0,
        }
    }
}

impl AppleseedParams {
    /// Validates the parameter set; shared with the sharded cross-shard
    /// variant in `semrec-shard`, which must reject exactly what the
    /// global metric rejects.
    pub fn validate(&self) -> Result<()> {
        if self.injection <= 0.0 || !self.injection.is_finite() {
            return Err(TrustError::InvalidParameter {
                name: "injection",
                value: self.injection,
                expected: "a positive finite energy",
            });
        }
        if !(self.spreading_factor > 0.0 && self.spreading_factor < 1.0) {
            return Err(TrustError::InvalidParameter {
                name: "spreading_factor",
                value: self.spreading_factor,
                expected: "a value in (0, 1)",
            });
        }
        if self.convergence <= 0.0 || !self.convergence.is_finite() {
            return Err(TrustError::InvalidParameter {
                name: "convergence",
                value: self.convergence,
                expected: "a positive finite threshold",
            });
        }
        if self.backward_weight <= 0.0 || !self.backward_weight.is_finite() {
            return Err(TrustError::InvalidParameter {
                name: "backward_weight",
                value: self.backward_weight,
                expected: "a positive finite weight",
            });
        }
        if self.spreading_power <= 0.0 || !self.spreading_power.is_finite() {
            return Err(TrustError::InvalidParameter {
                name: "spreading_power",
                value: self.spreading_power,
                expected: "a positive finite exponent",
            });
        }
        Ok(())
    }
}

/// Outcome of an Appleseed computation.
#[derive(Clone, Debug)]
pub struct AppleseedResult {
    /// `(agent, rank)` pairs sorted by descending rank, source excluded.
    /// Ranks are non-negative unless distrust handling produced penalties.
    pub ranks: Vec<(AgentId, f64)>,
    /// Iterations until convergence (or the iteration cap).
    pub iterations: usize,
    /// Nodes the energy wave discovered (including the source).
    pub nodes_discovered: usize,
    /// True if the fixpoint was reached before `max_iterations`.
    pub converged: bool,
    /// The last iteration's largest rank change: below
    /// [`AppleseedParams::convergence`] iff `converged`.
    pub residual: f64,
}

impl AppleseedResult {
    /// The rank of a specific agent (0 if never discovered).
    pub fn rank_of(&self, agent: AgentId) -> f64 {
        self.ranks
            .iter()
            .find(|&&(a, _)| a == agent)
            .map_or(0.0, |&(_, r)| r)
    }

    /// The `top_m` highest-ranked agents.
    pub fn top(&self, top_m: usize) -> &[(AgentId, f64)] {
        &self.ranks[..self.ranks.len().min(top_m)]
    }

    /// Total rank mass accorded to non-source agents.
    pub fn total_rank(&self) -> f64 {
        self.ranks.iter().map(|&(_, r)| r).sum()
    }
}

/// Where a statement of a partition's out-star lands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trustee {
    /// A member of the same partition, by local id.
    Member(u32),
    /// A member of another partition, by the sending partition's ghost id.
    Ghost(u32),
}

/// One frozen partition of a trust graph, as the kernel reads it (see the
/// module docs): members `0..members()`, ghosts `0..ghosts()`.
pub trait Partition {
    /// Whether out-stars may name ghosts; `false` compiles the boundary out
    /// of the pass.
    const GHOSTS: bool;
    /// Member count.
    fn members(&self) -> usize;
    /// Ghost count.
    fn ghosts(&self) -> usize;
    /// The `(partition, member)` a ghost stands for.
    fn ghost(&self, ghost: u32) -> (usize, u32);
    /// The exponent `|w|^p` and the sums were frozen for.
    fn frozen_power(&self) -> f64;
    /// A member's powered trust and distrust sums, each in edge order from
    /// 0.0.
    fn sums(&self, member: u32) -> (f64, f64);
    /// A member's statements in edge order: `(weight, |weight|^p, trustee)`.
    fn star(&self, member: u32) -> impl Iterator<Item = (f64, f64, Trustee)> + Clone + '_;
}

/// [`AppleseedResult`] with ranks under the caller's keys, plus what crossed
/// the barriers: the outcome of [`appleseed_partitioned`].
#[derive(Clone, Debug)]
pub struct PartitionedResult<K> {
    /// `(key, rank)` sorted by descending rank, ascending key on ties.
    pub ranks: Vec<(K, f64)>,
    /// As in [`AppleseedResult`].
    pub iterations: usize,
    /// As in [`AppleseedResult`], summed over partitions.
    pub nodes_discovered: usize,
    /// As in [`AppleseedResult`].
    pub converged: bool,
    /// As in [`AppleseedResult`].
    pub residual: f64,
    /// Rounds in which at least one packet crossed partitions.
    pub exchange_rounds: usize,
    /// Packets delivered at the barriers of those rounds.
    pub frontier_packets: usize,
}

/// Runs Appleseed for `source` over the frozen trust graph.
pub fn appleseed(
    graph: &CsrGraph,
    source: AgentId,
    params: &AppleseedParams,
) -> Result<AppleseedResult> {
    let agent = |_, member| AgentId(member);
    let PartitionedResult { ranks, iterations, nodes_discovered, converged, residual, .. } =
        appleseed_partitioned(&[graph], (0, source.0), params, &[0], agent)?;
    Ok(AppleseedResult { ranks, iterations, nodes_discovered, converged, residual })
}

/// Runs Appleseed for member `source.1` of partition `source.0`, keying
/// each ranked node `(partition, member)` by `key`. `schedule`, the order
/// of the passes within a round, must be a permutation of
/// `0..parts.len()`; it never affects results.
pub fn appleseed_partitioned<P: Partition, K: Ord + Copy>(
    parts: &[impl Deref<Target = P>],
    source: (usize, u32),
    params: &AppleseedParams,
    schedule: &[usize],
    key: impl Fn(usize, u32) -> K,
) -> Result<PartitionedResult<K>> {
    params.validate()?;
    if parts.iter().any(|part| part.frozen_power() != params.spreading_power) {
        return Err(TrustError::InvalidParameter {
            name: "spreading_power",
            value: params.spreading_power,
            expected: "the exponent the graph was frozen for",
        });
    }
    if parts.get(source.0).is_none_or(|part| source.1 as usize >= part.members()) {
        return Err(TrustError::UnknownAgent(source.1 as usize));
    }

    Ok(SCRATCH.with_borrow_mut(|scratch| scratch.run(parts, source, params, schedule, key)))
}

thread_local! {
    /// One scratch per thread, so a serving worker's requests allocate
    /// nothing in the kernel once its buffers have grown to the largest
    /// waves (and the dense tables to the largest partitions) the thread has
    /// seen, monolith and sharded runs alike.
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// A wave node's resolved out-star (empty until it is resolved): ranges of
/// the edge arena plus the two weights of the module docs.
#[derive(Clone, Copy, Default)]
struct Star {
    /// `start..pos_end` of the edge arena: trust edges into the wave.
    start: usize,
    /// `pos_end..end` of the edge arena: distrust edges into the wave.
    pos_end: usize,
    end: usize,
    source_weight: f64,
    total_weight: f64,
}

/// A wave node's ghost edges: `Star`'s three bounds, in the ghost arena.
#[derive(Clone, Copy, Default)]
struct Remote {
    start: u32,
    pos_end: u32,
    end: u32,
}

/// `Slot::wave` of a ghost whose destination has not been resolved yet.
const UNRESOLVED: u32 = u32::MAX;
/// `Slot::wave` of a ghost whose destination lies past its partition's cap.
const CAPPED: u32 = u32::MAX - 1;

/// An activated ghost: its destination member, the hop distance a packet
/// discovering it gives it, its wave index there (`UNRESOLVED`, `CAPPED` or
/// an index), and this round's packet: whether any share arrived, the
/// summed energy and penalty, and the largest penalty share.
struct Slot {
    member: u32,
    distance: u32,
    wave: u32,
    touched: bool,
    energy: f64,
    penalty: f64,
    largest: f64,
}

/// One partition's slice of the energy wave and its arenas.
#[derive(Default)]
struct Wave {
    // The wave, one entry per discovered member in discovery order, as
    // parallel arrays. On the source's partition the source is node 0.
    member: Vec<u32>,
    /// Hop distance from the source at discovery time.
    distance: Vec<u32>,
    rank: Vec<f64>,
    energy_in: Vec<f64>,
    energy_next: Vec<f64>,
    star: Vec<Star>,
    /// The edge arena, filled node by node on first expansion: the
    /// successor's wave index and the powered weight.
    edges: Vec<(u32, f64)>,
    /// Member → wave index.
    wave_index: StampedIndex,
    // The boundary, which a partition without ghosts never touches: per
    // wave node its ghost edges, the ghost arena (slot, powered weight), the
    // activated ghosts, per destination partition their slots in activation
    // order, and ghost id → slot.
    remote: Vec<Remote>,
    remote_edges: Vec<(u32, f64)>,
    slots: Vec<Slot>,
    outbound: Vec<Vec<u32>>,
    ghost_slot: StampedIndex,
    /// This round's energy owed to a source on another partition, and
    /// whether any node forwarded (and so owes a packet, however small).
    to_source: f64,
    owes_source: bool,
    /// The wave nodes not yet expanded, in index order.
    pending: Vec<u32>,
}

impl Wave {
    /// Empties the wave and makes room for a partition of `members` members
    /// and `ghosts` ghosts among `parts` partitions.
    fn reset(&mut self, members: usize, ghosts: usize, parts: usize) {
        self.member.clear();
        self.distance.clear();
        self.rank.clear();
        self.energy_in.clear();
        self.energy_next.clear();
        self.star.clear();
        self.edges.clear();
        self.wave_index.reset(members);
        self.remote.clear();
        self.remote_edges.clear();
        self.slots.clear();
        if self.outbound.len() < parts {
            self.outbound.resize_with(parts, Vec::new);
        }
        self.outbound.iter_mut().for_each(Vec::clear);
        self.ghost_slot.reset(ghosts);
        self.owes_source = false;
        self.pending.clear();
    }

    /// Appends `member` to the wave and returns its index.
    fn discover(&mut self, member: u32, distance: u32) -> u32 {
        let idx = self.member.len() as u32;
        self.member.push(member);
        self.distance.push(distance);
        self.rank.push(0.0);
        self.energy_in.push(0.0);
        self.energy_next.push(0.0);
        self.star.push(Star::default());
        self.pending.push(idx);
        self.wave_index.insert(member as usize, idx);
        idx
    }

    /// The wave index of `member`, discovering it at `distance` if the wave
    /// may still grow. Once `max_nodes` is hit no node is ever discovered
    /// again, so an unknown member stays unknown and `None` is final: the
    /// caller can freeze the cap decision.
    fn resolve(&mut self, member: u32, distance: u32, params: &AppleseedParams) -> Option<u32> {
        let full = params.max_nodes.is_some_and(|cap| self.member.len() >= cap);
        let known = self.wave_index.get(member as usize);
        known.or_else(|| (!full).then(|| self.discover(member, distance)))
    }

    /// Appends an edge of powered weight `pw` to `ghost`, activating the
    /// ghost at `distance` the first time a star holding it is resolved.
    fn ghost_edge<P: Partition>(&mut self, part: &P, ghost: u32, distance: u32, pw: f64) {
        let slot = self.ghost_slot.get(ghost as usize).unwrap_or_else(|| {
            let slot = self.slots.len() as u32;
            let (dest, member) = part.ghost(ghost);
            let (wave, touched, energy, penalty, largest) = (UNRESOLVED, false, 0.0, 0.0, 0.0);
            self.slots.push(Slot { member, distance, wave, touched, energy, penalty, largest });
            self.outbound[dest].push(slot);
            self.ghost_slot.insert(ghost as usize, slot);
            slot
        });
        self.remote_edges.push((slot, pw));
    }

    /// Resolves node `i`'s out-star into the arenas, discovering its
    /// successors and activating its ghosts. Runs once per node, when it
    /// first holds energy — the moment the reference loops walk these edges
    /// for the first time, so discovery order is the same. `here` is whether
    /// this wave holds the source, as node 0. Kept out of line: inlined, it
    /// made a monolith run about 2 % slower per source.
    #[inline(never)]
    fn expand<P: Partition>(
        &mut self,
        i: usize,
        part: &P,
        here: bool,
        source: (usize, u32),
        params: &AppleseedParams,
    ) {
        let member = self.member[i];
        let distance = self.distance[i];
        let (start, remote_start) = (self.edges.len(), self.remote_edges.len());
        // Nodes at the range limit keep only the backward edge.
        let at_range_limit = params.max_range.is_some_and(|r| distance >= r);
        let (pos_sum, neg_sum) = if at_range_limit {
            (0.0, 0.0)
        } else {
            let (trust, distrust) = part.sums(member);
            (trust, if params.distrust { distrust } else { 0.0 })
        };
        let backward = if here && i == 0 { 0.0 } else { params.backward_weight };
        let total_weight = pos_sum + neg_sum + backward;

        // In edge order, trust statements and then distrust. A trust edge
        // that ends at the source — a statement about it, wherever it
        // lives, or any edge the cap reroutes — adds to `source_weight`; a
        // distrust edge the cap cuts off is dropped; an edge to another
        // partition goes to its ghost. A source without positive statements
        // (`total_weight` 0) lets its energy evaporate and discovers nothing.
        let mut source_weight = backward;
        let (mut pos_end, mut remote_pos_end) = (start, remote_start);
        if total_weight > 0.0 && !at_range_limit {
            let star = part.star(member);
            for (_, pw, trustee) in star.clone().filter(|&(w, _, _)| w > 0.0) {
                match trustee {
                    Trustee::Member(succ) => match self.resolve(succ, distance + 1, params) {
                        Some(idx) if !(here && idx == 0) => self.edges.push((idx, pw)),
                        _ => source_weight += pw,
                    },
                    Trustee::Ghost(ghost) if part.ghost(ghost) == source => source_weight += pw,
                    Trustee::Ghost(ghost) => self.ghost_edge(part, ghost, distance + 1, pw),
                }
            }
            (pos_end, remote_pos_end) = (self.edges.len(), self.remote_edges.len());
            if params.distrust {
                for (_, pw, trustee) in star.filter(|&(w, _, _)| w < 0.0) {
                    match trustee {
                        Trustee::Member(succ) => {
                            if let Some(idx) = self.resolve(succ, distance + 1, params) {
                                self.edges.push((idx, pw));
                            }
                        }
                        Trustee::Ghost(ghost) => self.ghost_edge(part, ghost, distance + 1, pw),
                    }
                }
            }
        }
        self.star[i] =
            Star { start, pos_end, end: self.edges.len(), source_weight, total_weight };
        if P::GHOSTS {
            let (start, pos_end) = (remote_start as u32, remote_pos_end as u32);
            self.remote[i] = Remote { start, pos_end, end: self.remote_edges.len() as u32 };
        }
    }

    /// One round's pass; returns the largest rank movement. Shares for other
    /// partitions go to ghost slots and, off the source's partition, what the
    /// nodes owe the source to `to_source`, for the barrier to deliver.
    fn pass<P: Partition>(
        &mut self,
        part: &P,
        here: bool,
        source: (usize, u32),
        params: &AppleseedParams,
    ) -> f64 {
        let (d, len) = (params.spreading_factor, self.member.len());
        let mut max_delta: f64 = 0.0;
        // `energy_next[0]` where the source is node 0 (only `source_weight`
        // feeds it during the pass); elsewhere what the partition owes it.
        let (mut to_source, mut forwarded) = (0.0, false);
        if P::GHOSTS {
            self.remote.resize(len, Remote::default());
        }
        // Nodes discovered during this pass hold no energy until the fold,
        // so the pass covers the wave as it stood. Nodes about to forward for
        // the first time resolve their stars first, in index order (the
        // reference loops' discovery order: resolving reads no energy), so
        // the loop that moves energy makes no call. New nodes join `pending`'s end.
        let (old, mut kept) = (self.pending.len(), 0);
        for k in 0..old {
            let i = self.pending[k];
            if self.energy_in[i as usize] > 0.0 {
                self.expand(i as usize, part, here, source, params);
            } else {
                (self.pending[kept], kept) = (i, kept + 1);
            }
        }
        self.pending.drain(kept..old);
        for i in 0..len {
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

            let Star { start, pos_end, end, source_weight, total_weight } = self.star[i];
            if total_weight <= 0.0 {
                continue;
            }
            forwarded = true;

            // The module docs' arithmetic. Every accumulator receives its
            // addends in the reference loops' order; ranks are bit-identical
            // only as long as that is not rearranged.
            let unit = forward / total_weight;
            to_source += unit * source_weight;
            for &(idx, pw) in &self.edges[start..pos_end] {
                self.energy_next[idx as usize] += unit * pw;
            }
            // Distrust: a terminal penalty, deposited as negative rank.
            for &(idx, pw) in &self.edges[pos_end..end] {
                let share = unit * pw;
                self.rank[idx as usize] -= share;
                max_delta = max_delta.max(share);
            }
            if P::GHOSTS {
                let Remote { start, pos_end, end } = self.remote[i];
                for &(slot, pw) in &self.remote_edges[start as usize..pos_end as usize] {
                    let slot = &mut self.slots[slot as usize];
                    slot.energy += unit * pw;
                    slot.touched = true;
                }
                for &(slot, pw) in &self.remote_edges[pos_end as usize..end as usize] {
                    let (slot, share) = (&mut self.slots[slot as usize], unit * pw);
                    slot.penalty += share;
                    slot.largest = slot.largest.max(share);
                    slot.touched = true;
                }
            }
        }

        if here {
            self.energy_next[0] = to_source;
        } else {
            self.to_source = to_source;
            self.owes_source = forwarded;
        }
        max_delta
    }
}

/// Reusable state of one run: a wave per partition.
#[derive(Default)]
struct Scratch {
    waves: Vec<Wave>,
}

impl Scratch {
    fn run<P: Partition, K: Ord + Copy>(
        &mut self,
        parts: &[impl Deref<Target = P>],
        source: (usize, u32),
        params: &AppleseedParams,
        schedule: &[usize],
        key: impl Fn(usize, u32) -> K,
    ) -> PartitionedResult<K> {
        let n = parts.len();
        if self.waves.len() < n {
            self.waves.resize_with(n, Wave::default);
        }
        let waves = &mut self.waves[..n];
        for (wave, part) in waves.iter_mut().zip(parts) {
            wave.reset(part.members(), part.ghosts(), n);
        }
        let source_part = source.0;
        waves[source_part].discover(source.1, 0);
        waves[source_part].energy_in[0] = params.injection;

        let (mut iterations, mut converged, mut residual) = (0, false, 0.0);
        let (mut exchange_rounds, mut frontier_packets) = (0, 0);
        while iterations < params.max_iterations {
            iterations += 1;
            let mut max_delta: f64 = 0.0;
            for &s in schedule {
                let moved = waves[s].pass(&*parts[s], s == source_part, source, params);
                max_delta = max_delta.max(moved);
            }
            // One partition has no ghosts and no one to send to.
            if n > 1 {
                let (packets, penalty_delta) = exchange(waves, source_part, params);
                max_delta = max_delta.max(penalty_delta);
                if packets > 0 {
                    exchange_rounds += 1;
                    frontier_packets += packets;
                }
            }
            // Fold: next round's energy becomes visible everywhere at once.
            for wave in waves.iter_mut() {
                for (energy_in, energy_next) in wave.energy_in.iter_mut().zip(&mut wave.energy_next)
                {
                    *energy_in += *energy_next;
                    *energy_next = 0.0;
                }
            }

            residual = max_delta;
            if max_delta < params.convergence {
                converged = true;
                break;
            }
        }

        // The source is node 0 of its partition's wave and appears nowhere
        // else. Keys are unique, so the comparator is a strict total order
        // and the unstable sort yields the one possible permutation.
        // `total_cmp` orders as `partial_cmp` did: no rank is NaN (weights
        // are checked finite) or −0.0 (ranks start at +0.0 and move by
        // shares of weights > 0).
        let nodes_discovered = waves.iter().map(|wave| wave.member.len()).sum();
        let mut ranks: Vec<(K, f64)> = Vec::with_capacity(nodes_discovered - 1);
        for (s, wave) in waves.iter().enumerate() {
            let nodes = wave.member.iter().zip(&wave.rank).skip(usize::from(s == source_part));
            ranks.extend(nodes.map(|(&member, &rank)| (key(s, member), rank)));
        }
        ranks.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));

        PartitionedResult {
            ranks,
            iterations,
            nodes_discovered,
            converged,
            residual,
            exchange_rounds,
            frontier_packets,
        }
    }
}

/// The barrier of one round: delivers every packet the passes left in the
/// ghost slots and `to_source` sums — destination partition by destination
/// partition, sending partition by sending partition, its source-bound
/// packet and then its ghosts in activation order — and empties them.
/// Returns the packets delivered and the largest penalty share applied.
fn exchange(waves: &mut [Wave], source_part: usize, params: &AppleseedParams) -> (usize, f64) {
    let (mut packets, mut max_delta, mut rerouted) = (0, 0.0f64, 0.0);
    for dest in 0..waves.len() {
        // Out of the slice while the others send to it.
        let mut receiver = std::mem::take(&mut waves[dest]);
        let senders = waves.iter_mut().enumerate().filter(|&(from, _)| from != dest);
        for (_, sender) in senders {
            // The source is discovered before the first round, so this
            // packet always lands on wave node 0.
            if dest == source_part && sender.owes_source {
                packets += 1;
                receiver.energy_next[0] += sender.to_source;
            }
            for &slot in &sender.outbound[dest] {
                let slot = &mut sender.slots[slot as usize];
                if !std::mem::take(&mut slot.touched) {
                    continue;
                }
                packets += 1;
                if slot.wave == UNRESOLVED {
                    slot.wave = receiver.resolve(slot.member, slot.distance, params).unwrap_or(CAPPED);
                }
                let energy = std::mem::take(&mut slot.energy);
                let penalty = std::mem::take(&mut slot.penalty);
                let largest = std::mem::take(&mut slot.largest);
                match slot.wave {
                    // Past the destination's cap: energy returns to the
                    // source, penalties on never-discovered nodes are
                    // dropped.
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
        waves[dest] = receiver;
    }
    if rerouted > 0.0 {
        waves[source_part].energy_next[0] += rerouted;
    }
    (packets, max_delta)
}

#[cfg(test)]
use crate::graph::TrustGraph;

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::oracle::{appleseed_reference, bits};
    use super::*;

    /// The kernel on a builder graph frozen for the run's exponent.
    fn appleseed(
        g: &TrustGraph,
        source: AgentId,
        params: &AppleseedParams,
    ) -> Result<AppleseedResult> {
        let frozen = CsrGraph::from_graph(g).with_spreading_power(params.spreading_power);
        super::appleseed(&frozen, source, params)
    }

    /// Asserts the kernel (on the CSR) reproduces the oracle (on the
    /// adjacency list), and returns the result.
    fn same_as_oracle(g: &TrustGraph, source: AgentId, params: &AppleseedParams) -> AppleseedResult {
        let kernel = appleseed(g, source, params).unwrap();
        let oracle = appleseed_reference(g, source, params);
        assert_eq!(bits(&kernel), bits(&oracle), "{source} {params:?}");
        kernel
    }

    /// A ring with chords and a few distrust statements: `n` agents, every
    /// one reachable from every other.
    fn ring(n: usize) -> (TrustGraph, Vec<AgentId>) {
        let mut g = TrustGraph::with_agents(n);
        let ids: Vec<_> = g.agents().collect();
        for i in 0..n {
            g.set_trust(ids[i], ids[(i + 1) % n], 0.9).unwrap();
            g.set_trust(ids[i], ids[(i + 3) % n], 0.4).unwrap();
            if i % 4 == 0 {
                g.set_trust(ids[i], ids[(i + 2) % n], -0.7).unwrap();
            }
        }
        (g, ids)
    }

    #[test]
    fn edge_first_seen_after_the_cap_stays_rerouted() {
        // s → a, s → b fill the cap of 3. a is expanded one iteration later
        // and finds c unknown with the cap hit; b → c likewise. Both edges
        // must keep feeding the source in every later iteration, and a's
        // distrust of e must keep being dropped.
        let mut g = TrustGraph::with_agents(6);
        let ids: Vec<_> = g.agents().collect();
        g.set_trust(ids[0], ids[1], 1.0).unwrap();
        g.set_trust(ids[0], ids[2], 0.6).unwrap();
        g.set_trust(ids[0], ids[3], 0.3).unwrap(); // over the cap at once
        g.set_trust(ids[1], ids[3], 0.8).unwrap();
        g.set_trust(ids[1], ids[2], 0.5).unwrap(); // known: a real edge
        g.set_trust(ids[1], ids[5], -0.9).unwrap();
        g.set_trust(ids[2], ids[4], 0.7).unwrap();
        for distrust in [false, true] {
            let params = AppleseedParams {
                max_nodes: Some(3),
                convergence: 1e-9,
                distrust,
                ..Default::default()
            };
            let res = same_as_oracle(&g, ids[0], &params);
            assert!(res.iterations > 10, "must run well past the first expansion");
            assert_eq!(res.nodes_discovered, 3);
            let ranked: Vec<_> = res.ranks.iter().map(|&(a, _)| a).collect();
            assert_eq!(ranked, [ids[1], ids[2]]);
        }
    }

    #[test]
    fn source_without_positive_statements() {
        let mut g = TrustGraph::with_agents(3);
        let ids: Vec<_> = g.agents().collect();
        g.set_trust(ids[0], ids[1], -0.5).unwrap();
        g.set_trust(ids[1], ids[2], 1.0).unwrap();
        // Distrust off: the source's energy evaporates, nothing is found.
        let res = same_as_oracle(&g, ids[0], &AppleseedParams::default());
        assert!(res.ranks.is_empty());
        assert_eq!((res.nodes_discovered, res.iterations, res.converged), (1, 2, true));
        // A range of 0 stops the source itself from being expanded.
        let mut h = g.clone();
        h.set_trust(ids[0], ids[2], 1.0).unwrap();
        let res =
            same_as_oracle(&h, ids[0], &AppleseedParams { max_range: Some(0), ..Default::default() });
        assert_eq!(res.nodes_discovered, 1);
        // Distrust on: the one statement is a terminal penalty.
        let res =
            same_as_oracle(&g, ids[0], &AppleseedParams { distrust: true, ..Default::default() });
        assert_eq!(res.nodes_discovered, 2);
        assert!(res.rank_of(ids[1]) < 0.0);
    }

    #[test]
    fn reused_scratch_gives_the_result_of_a_fresh_one() {
        let (small, small_ids) = ring(7);
        let (large, large_ids) = ring(60);
        let capped = AppleseedParams { max_nodes: Some(20), distrust: true, ..Default::default() };
        let runs = |graphs: &[(&TrustGraph, AgentId)]| -> Vec<_> {
            graphs.iter().map(|&(g, s)| bits(&appleseed(g, s, &capped).unwrap())).collect()
        };
        // Two sources back to back, then a larger graph after a smaller
        // one, then the smaller again — all on this thread's scratch.
        let sequence = [
            (&small, small_ids[0]),
            (&small, small_ids[4]),
            (&large, large_ids[33]),
            (&small, small_ids[0]),
        ];
        let reused = runs(&sequence);
        assert_eq!(reused[0], reused[3]);
        for (&(g, s), reused) in sequence.iter().zip(&reused) {
            // A new thread starts from an empty scratch.
            let fresh = std::thread::scope(|scope| {
                scope.spawn(|| bits(&appleseed(g, s, &capped).unwrap())).join().unwrap()
            });
            assert_eq!(reused, &fresh);
            assert_eq!(reused, &bits(&appleseed_reference(g, s, &capped)));
        }
    }

    #[test]
    fn energy_is_conserved_on_trust_only_graphs() {
        // `source_weight` plus the in-wave powered weights must make up
        // `total_weight`, whatever the cap reroutes and the range cuts off:
        // all injected energy is some node's rank or still in flight.
        let mut g = TrustGraph::with_agents(60);
        let ids: Vec<_> = g.agents().collect();
        for i in 0..60 {
            g.set_trust(ids[i], ids[(i + 1) % 60], 0.9).unwrap();
            g.set_trust(ids[i], ids[(i + 7) % 60], 0.4).unwrap();
            g.set_trust(ids[i], ids[(i * 5 + 2) % 60], 0.15).unwrap();
        }
        let mut scratch = Scratch::default();
        for (max_nodes, max_range, spreading_power) in
            [(None, None, 1.0), (Some(20), None, 1.0), (Some(25), Some(3), 2.0), (None, Some(2), 2.0)]
        {
            let params =
                AppleseedParams { max_nodes, max_range, spreading_power, ..Default::default() };
            let csr = CsrGraph::from_graph(&g).with_spreading_power(spreading_power);
            let res = scratch.run(&[&csr], (0, ids[11].0), &params, &[0], |_, member| member);
            assert!(res.iterations > 5, "{params:?}");
            let wave = &scratch.waves[0];
            let held: f64 = wave.rank.iter().chain(&wave.energy_in).sum();
            assert!(
                (held - params.injection).abs() <= 1e-9 * params.injection,
                "{held} of {} left after {params:?}",
                params.injection
            );
        }
    }

    /// s → a (1.0), s → b (0.5), a → c (1.0).
    fn chain_graph() -> (TrustGraph, Vec<AgentId>) {
        let mut g = TrustGraph::with_agents(4);
        let ids: Vec<_> = g.agents().collect();
        g.set_trust(ids[0], ids[1], 1.0).unwrap();
        g.set_trust(ids[0], ids[2], 0.5).unwrap();
        g.set_trust(ids[1], ids[3], 1.0).unwrap();
        (g, ids)
    }

    #[test]
    fn ranks_favor_strongly_and_directly_trusted_peers() {
        let (g, ids) = chain_graph();
        let res = appleseed(&g, ids[0], &AppleseedParams::default()).unwrap();
        assert!(res.converged);
        assert_eq!(res.nodes_discovered, 4);
        let ra = res.rank_of(ids[1]);
        let rb = res.rank_of(ids[2]);
        let rc = res.rank_of(ids[3]);
        assert!(ra > rb, "stronger direct trust must outrank weaker: {ra} vs {rb}");
        assert!(ra > rc, "direct trust must outrank indirect: {ra} vs {rc}");
        assert!(rc > 0.0, "transitive trust must reach c");
    }

    #[test]
    fn total_rank_is_bounded_by_injection() {
        let (g, ids) = chain_graph();
        let params = AppleseedParams { convergence: 1e-9, ..Default::default() };
        let res = appleseed(&g, ids[0], &params).unwrap();
        // All injected energy ends up as rank somewhere (incl. the source),
        // so non-source rank is strictly below the injection.
        assert!(res.total_rank() < params.injection);
        assert!(res.total_rank() > 0.5 * params.injection);
    }

    #[test]
    fn source_is_not_ranked() {
        let (g, ids) = chain_graph();
        let res = appleseed(&g, ids[0], &AppleseedParams::default()).unwrap();
        assert!(res.ranks.iter().all(|&(a, _)| a != ids[0]));
    }

    #[test]
    fn isolated_source_yields_empty_ranking() {
        let g = TrustGraph::with_agents(3);
        let ids: Vec<_> = g.agents().collect();
        let res = appleseed(&g, ids[0], &AppleseedParams::default()).unwrap();
        assert!(res.ranks.is_empty());
        assert!(res.converged);
    }

    #[test]
    fn unreachable_nodes_get_zero() {
        let (g, ids) = chain_graph();
        // Agent 4 exists but nobody trusts it.
        let mut g = g;
        let lonely = g.add_agent();
        let res = appleseed(&g, ids[0], &AppleseedParams::default()).unwrap();
        assert_eq!(res.rank_of(lonely), 0.0);
        assert_eq!(res.nodes_discovered, 4);
    }

    #[test]
    fn tighter_convergence_needs_more_iterations() {
        let (g, ids) = chain_graph();
        let loose = appleseed(
            &g,
            ids[0],
            &AppleseedParams { convergence: 1.0, ..Default::default() },
        )
        .unwrap();
        let tight = appleseed(
            &g,
            ids[0],
            &AppleseedParams { convergence: 1e-6, ..Default::default() },
        )
        .unwrap();
        assert!(tight.iterations > loose.iterations);
        assert!(loose.converged && tight.converged);
    }

    #[test]
    fn range_limit_stops_expansion_but_keeps_ranks() {
        let mut g = TrustGraph::with_agents(5);
        let ids: Vec<_> = g.agents().collect();
        // Chain s → 1 → 2 → 3 → 4.
        for w in ids.windows(2) {
            g.set_trust(w[0], w[1], 1.0).unwrap();
        }
        let unlimited = appleseed(&g, ids[0], &AppleseedParams::default()).unwrap();
        assert_eq!(unlimited.nodes_discovered, 5);
        let limited = appleseed(
            &g,
            ids[0],
            &AppleseedParams { max_range: Some(2), ..Default::default() },
        )
        .unwrap();
        // Nodes at distance ≤ 2 are discovered; the node *at* the limit is
        // ranked but not expanded, so distance-3 nodes never appear.
        assert_eq!(limited.nodes_discovered, 3);
        assert!(limited.rank_of(ids[2]) > 0.0);
        assert_eq!(limited.rank_of(ids[3]), 0.0);
    }

    #[test]
    fn node_cap_reroutes_energy_to_source() {
        let mut g = TrustGraph::with_agents(6);
        let ids: Vec<_> = g.agents().collect();
        for &t in &ids[1..] {
            g.set_trust(ids[0], t, 1.0).unwrap();
        }
        let res = appleseed(
            &g,
            ids[0],
            &AppleseedParams { max_nodes: Some(3), ..Default::default() },
        )
        .unwrap();
        assert_eq!(res.nodes_discovered, 3);
        assert_eq!(res.ranks.iter().filter(|&&(_, r)| r > 0.0).count(), 2);
    }

    #[test]
    fn higher_spreading_factor_pushes_rank_deeper() {
        let mut g = TrustGraph::with_agents(3);
        let ids: Vec<_> = g.agents().collect();
        g.set_trust(ids[0], ids[1], 1.0).unwrap();
        g.set_trust(ids[1], ids[2], 1.0).unwrap();
        let lo = appleseed(
            &g,
            ids[0],
            &AppleseedParams { spreading_factor: 0.5, convergence: 1e-9, ..Default::default() },
        )
        .unwrap();
        let hi = appleseed(
            &g,
            ids[0],
            &AppleseedParams { spreading_factor: 0.9, convergence: 1e-9, ..Default::default() },
        )
        .unwrap();
        let ratio_lo = lo.rank_of(ids[2]) / lo.rank_of(ids[1]);
        let ratio_hi = hi.rank_of(ids[2]) / hi.rank_of(ids[1]);
        assert!(
            ratio_hi > ratio_lo,
            "d=0.9 must give the distant node relatively more rank ({ratio_hi} vs {ratio_lo})"
        );
    }

    #[test]
    fn distrust_penalizes_but_does_not_propagate() {
        let mut g = TrustGraph::with_agents(4);
        let ids: Vec<_> = g.agents().collect();
        g.set_trust(ids[0], ids[1], 1.0).unwrap();
        g.set_trust(ids[1], ids[2], -1.0).unwrap(); // b distrusts c
        g.set_trust(ids[2], ids[3], 1.0).unwrap(); // c trusts dd
        let res = appleseed(
            &g,
            ids[0],
            &AppleseedParams { distrust: true, ..Default::default() },
        )
        .unwrap();
        assert!(res.rank_of(ids[2]) < 0.0, "distrusted node must carry a penalty");
        // dd is only endorsed by the distrusted node; distrust is terminal,
        // so no (positive or negative) energy ever flows to dd.
        assert_eq!(res.rank_of(ids[3]), 0.0);
    }

    #[test]
    fn distrust_ignored_when_disabled() {
        let mut g = TrustGraph::with_agents(3);
        let ids: Vec<_> = g.agents().collect();
        g.set_trust(ids[0], ids[1], 1.0).unwrap();
        g.set_trust(ids[1], ids[2], -1.0).unwrap();
        let res = appleseed(&g, ids[0], &AppleseedParams::default()).unwrap();
        assert_eq!(res.rank_of(ids[2]), 0.0);
    }

    #[test]
    fn super_linear_spreading_favors_strong_edges() {
        // s trusts a (1.0) and b (0.5): with power 2 the share ratio becomes
        // 4:1 instead of 2:1, so a's advantage over b must grow.
        let mut g = TrustGraph::with_agents(3);
        let ids: Vec<_> = g.agents().collect();
        g.set_trust(ids[0], ids[1], 1.0).unwrap();
        g.set_trust(ids[0], ids[2], 0.5).unwrap();
        let linear = appleseed(&g, ids[0], &AppleseedParams::default()).unwrap();
        let squared = appleseed(
            &g,
            ids[0],
            &AppleseedParams { spreading_power: 2.0, ..Default::default() },
        )
        .unwrap();
        let ratio = |r: &AppleseedResult| r.rank_of(ids[1]) / r.rank_of(ids[2]);
        assert!((ratio(&linear) - 2.0).abs() < 1e-6, "linear ratio {}", ratio(&linear));
        assert!((ratio(&squared) - 4.0).abs() < 1e-6, "squared ratio {}", ratio(&squared));
    }

    #[test]
    fn parameter_validation() {
        let g = TrustGraph::with_agents(1);
        let s = AgentId::from_index(0);
        for params in [
            AppleseedParams { injection: 0.0, ..Default::default() },
            AppleseedParams { spreading_factor: 0.0, ..Default::default() },
            AppleseedParams { spreading_factor: 1.0, ..Default::default() },
            AppleseedParams { convergence: 0.0, ..Default::default() },
            AppleseedParams { backward_weight: -1.0, ..Default::default() },
            AppleseedParams { spreading_power: 0.0, ..Default::default() },
            AppleseedParams { spreading_power: f64::NAN, ..Default::default() },
        ] {
            assert!(appleseed(&g, s, &params).is_err());
        }
        assert!(matches!(
            appleseed(&g, AgentId::from_index(5), &AppleseedParams::default()),
            Err(TrustError::UnknownAgent(5))
        ));
        // A source on a partition the run was not given.
        let params = AppleseedParams::default();
        let csr = CsrGraph::from_graph(&g);
        let elsewhere = appleseed_partitioned(&[&csr], (1, 0), &params, &[0], |_, member| member);
        assert!(matches!(elsewhere, Err(TrustError::UnknownAgent(0))));
    }

    #[test]
    fn deterministic_across_runs() {
        let (g, ids) = chain_graph();
        let a = appleseed(&g, ids[0], &AppleseedParams::default()).unwrap();
        let b = appleseed(&g, ids[0], &AppleseedParams::default()).unwrap();
        assert_eq!(a.ranks, b.ranks);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn top_m_selection() {
        let (g, ids) = chain_graph();
        let res = appleseed(&g, ids[0], &AppleseedParams::default()).unwrap();
        assert_eq!(res.top(2).len(), 2);
        assert_eq!(res.top(100).len(), res.ranks.len());
        assert!(res.top(2)[0].1 >= res.top(2)[1].1);
    }

    /// A graph cut by a placement the way `semrec-shard` cuts a community:
    /// members in id order, stars in trustee order, each partition's
    /// distinct remote trustees numbered as ghosts in order of first
    /// appearance.
    #[derive(Default)]
    struct Cut {
        stars: Vec<Vec<(f64, f64, Trustee)>>,
        ghosts: Vec<(usize, u32)>,
    }

    impl Partition for Cut {
        const GHOSTS: bool = true;

        fn members(&self) -> usize {
            self.stars.len()
        }

        fn ghosts(&self) -> usize {
            self.ghosts.len()
        }

        fn ghost(&self, ghost: u32) -> (usize, u32) {
            self.ghosts[ghost as usize]
        }

        fn frozen_power(&self) -> f64 {
            1.0
        }

        fn sums(&self, member: u32) -> (f64, f64) {
            let star = &self.stars[member as usize];
            let sum = |sign: f64| star.iter().filter(|e| e.0 * sign > 0.0).fold(0.0, |s, e| s + e.1);
            (sum(1.0), sum(-1.0))
        }

        fn star(&self, member: u32) -> impl Iterator<Item = (f64, f64, Trustee)> + Clone + '_ {
            self.stars[member as usize].iter().copied()
        }
    }

    fn cut(place: &[usize], edges: &[(usize, usize, f64)]) -> Vec<Cut> {
        let mut cut: Vec<Cut> = Vec::new();
        cut.resize_with(place.iter().max().unwrap() + 1, Cut::default);
        let local = |a: usize| place[..a].iter().filter(|&&p| p == place[a]).count() as u32;
        for &p in place {
            cut[p].stars.push(Vec::new());
        }
        let mut edges = edges.to_vec();
        edges.sort_by_key(|&(a, b, _)| (a, b));
        for (a, b, w) in edges {
            let part = &mut cut[place[a]];
            let trustee = if place[b] == place[a] {
                Trustee::Member(local(b))
            } else {
                let at = (place[b], local(b));
                let ghost = part.ghosts.iter().position(|&g| g == at).unwrap_or_else(|| {
                    part.ghosts.push(at);
                    part.ghosts.len() - 1
                });
                Trustee::Ghost(ghost as u32)
            };
            part.stars[local(a) as usize].push((w, w.abs(), trustee));
        }
        cut
    }

    /// Shares are summed before the barrier — one packet per (sending
    /// partition, destination node) and one source-bound packet per sending
    /// partition, per round, however many stars feed them:
    ///
    /// ```text
    /// part 0: s a      part 1: x y z w      part 2: u v       cap: 2 per part
    /// s → a, s → x, s → y, s → u    round 1 fills part 1's cap
    /// u → v                         fills part 2's
    /// x → z, y → w                  local, past the cap: owed to the source
    /// x → s, v → s                  statements about the source
    /// x → a, y → a                  two stars on part 1, one destination
    /// x → v, y ⊣ v                  energy and a penalty in one packet
    /// v → x                         a real edge the other way
    /// ```
    ///
    /// Each round is played by hand after the kernel has run the rounds
    /// before it: every partition's pass, then the barrier.
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
        let parts = cut(&[0, 0, 1, 1, 1, 1, 2, 2], &edges);
        let parts: Vec<&Cut> = parts.iter().collect();
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
            scratch.run(&parts, (0, 0), &params, &[0, 1, 2], |p, member| (p, member));
            // What one packet per boundary edge and per forwarding node
            // would send, and what this round sends.
            let (mut per_edge, mut expected) = (0, 0);
            for (p, part) in parts.iter().enumerate() {
                let wave = &mut scratch.waves[p];
                let active: Vec<usize> =
                    (0..wave.member.len()).filter(|&i| wave.energy_in[i] > 0.0).collect();
                wave.pass(*part, p == 0, (0, 0), &params);
                for &i in &active {
                    if wave.star[i].total_weight > 0.0 {
                        let remote = wave.remote[i];
                        per_edge += (remote.end - remote.start) as usize + usize::from(p != 0);
                    }
                }
                let mut pairs: Vec<(usize, u32)> = Vec::new();
                for (dest, slots) in wave.outbound.iter().enumerate().take(3) {
                    let slots = slots.iter().map(|&slot| &wave.slots[slot as usize]);
                    pairs.extend(slots.filter(|slot| slot.touched).map(|slot| (dest, slot.member)));
                }
                let distinct = pairs.len();
                pairs.sort_unstable();
                pairs.dedup();
                assert_eq!(pairs.len(), distinct, "part {p} after {rounds} rounds");
                if p != 0 {
                    assert_eq!(wave.owes_source, !active.is_empty(), "part {p}, {rounds} rounds");
                }
                expected += distinct + usize::from(wave.owes_source);
            }
            let (packets, _) = exchange(&mut scratch.waves[..3], 0, &params);
            assert_eq!(packets, expected, "after {rounds} rounds");
            assert!(packets <= per_edge);
            summed = summed.max(per_edge - packets);
            for wave in &scratch.waves {
                assert!(wave.slots.iter().all(|slot| !slot.touched), "the barrier empties them");
            }
        }
        assert!(summed >= 2, "some round summed both stars' shares for a and both nodes' for s");
    }
}
