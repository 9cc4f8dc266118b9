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
//! this is the order both kernels (this one and `semrec-shard`'s) and both
//! oracles compute. A trust share is energy for the successor, a distrust
//! share a penalty on it. What `x` owes the *source* — the backward edge,
//! then in edge order its trust statements about the source and those the
//! node cap reroutes — is summed first, as weights, into `source_weight`,
//! and reaches the source as the single addend `unit · source_weight`.
//!
//! # The kernel
//!
//! [`appleseed`] is the one entry. It reads the frozen [`CsrGraph`], which
//! carries what no query can change: `|w|^p` per statement and each row's
//! two sums, for the one `p` the graph was frozen for
//! ([`CsrGraph::with_spreading_power`]; a run asking for another is
//! refused). When a node first holds energy its row is *resolved* into flat
//! per-run arena — every successor looked up in (or added to) the wave, the
//! in-wave edges copied as `(wave index, |w|^p)`, the rest folded into
//! `source_weight` — and each later iteration is a straight pass
//! `energy_next[idx] += unit * powered` over those `(idx, powered)` pairs: no
//! exponentiation, no division per edge, no lookup, no graph access.
//!
//! Resolving once is sound because nothing it records can change later in
//! the run: weights and hop distances are fixed, a node's wave index never
//! moves, and the wave only grows. Once `max_nodes` is hit no node is ever
//! discovered again, so a successor unknown at that moment stays unknown,
//! and "reroute this edge to the source" (trust) or "drop this edge"
//! (distrust) is final. That makes `source_weight` a constant of the run,
//! and on a trust-only graph `source_weight` plus the in-wave powered
//! weights is `Σw` up to rounding: energy is conserved.
//!
//! **Bit-identity contract.** The kernel returns exactly what the
//! straightforward loop returns — the test oracle `appleseed/oracle.rs`,
//! which walks the adjacency-list [`crate::graph::TrustGraph`], an
//! independent representation of the same statements, and freezes nothing:
//! the same `f64` bits for every rank, the same `iterations`,
//! `nodes_discovered`, `converged` and `residual`. No tolerance is involved:
//! the graph's sums are the oracle's in the oracle's order, discovery order
//! is the same, and every accumulator receives the same addends in order.
//!
//! The wave, the arena and the agent-id → wave-index table (a
//! [`StampedIndex`]) live in a per-thread scratch reused from run to run: a
//! warm run allocates only the ranking it returns, and the scratch keeps the
//! largest wave's capacity plus the index of the largest graph it has seen.

use std::cell::RefCell;

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

/// Runs Appleseed for `source` over the frozen trust graph.
pub fn appleseed(
    graph: &CsrGraph,
    source: AgentId,
    params: &AppleseedParams,
) -> Result<AppleseedResult> {
    params.validate()?;
    if params.spreading_power != graph.spreading_power() {
        return Err(TrustError::InvalidParameter {
            name: "spreading_power",
            value: params.spreading_power,
            expected: "the exponent the graph was frozen for",
        });
    }
    if source.index() >= graph.agent_count() {
        return Err(TrustError::UnknownAgent(source.index()));
    }

    Ok(SCRATCH.with_borrow_mut(|scratch| scratch.run(graph, source, params)))
}

thread_local! {
    /// One scratch per thread, so a serving worker's requests allocate
    /// nothing in the kernel once its buffers have grown to the largest wave
    /// (and the dense index to the largest graph) the thread has seen.
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// A wave node's resolved out-star: ranges of the arena plus the two
/// weights of the module docs.
#[derive(Clone, Copy)]
struct Star {
    /// `start..pos_end` of the edge arena: trust edges into the wave.
    start: usize,
    /// `pos_end..end` of the edge arena: distrust edges into the wave.
    pos_end: usize,
    end: usize,
    source_weight: f64,
    total_weight: f64,
}

impl Star {
    /// The star of a node that has not forwarded energy yet.
    const UNEXPANDED: Star =
        Star { start: usize::MAX, pos_end: 0, end: 0, source_weight: 0.0, total_weight: 0.0 };
}

/// Reusable state of one Appleseed run; see the module docs.
#[derive(Default)]
struct Scratch {
    // The wave, one entry per discovered node in discovery order (the
    // source is node 0), as parallel arrays.
    agent: Vec<AgentId>,
    /// Hop distance from the source at discovery time.
    distance: Vec<u32>,
    rank: Vec<f64>,
    energy_in: Vec<f64>,
    energy_next: Vec<f64>,
    star: Vec<Star>,
    /// The edge arena, filled node by node on first expansion: the
    /// successor's wave index (never 0 for a trust edge) and the graph's
    /// powered weight.
    edges: Vec<(u32, f64)>,
    /// Agent id → wave index.
    wave_index: StampedIndex,
}

impl Scratch {
    /// Empties the wave and makes room for a graph of `agents` agents.
    fn reset(&mut self, agents: usize) {
        self.agent.clear();
        self.distance.clear();
        self.rank.clear();
        self.energy_in.clear();
        self.energy_next.clear();
        self.star.clear();
        self.edges.clear();
        self.wave_index.reset(agents);
    }

    /// Appends `agent` to the wave and returns its index.
    fn discover(&mut self, agent: AgentId, distance: u32) -> u32 {
        let idx = self.agent.len() as u32;
        self.agent.push(agent);
        self.distance.push(distance);
        self.rank.push(0.0);
        self.energy_in.push(0.0);
        self.energy_next.push(0.0);
        self.star.push(Star::UNEXPANDED);
        self.wave_index.insert(agent.index(), idx);
        idx
    }

    /// The wave index of `succ`, discovering it at `distance` if the wave
    /// may still grow. Once `max_nodes` is hit no node is ever discovered
    /// again, so an unknown successor stays unknown and `None` is final:
    /// the caller can freeze the cap decision.
    fn resolve(&mut self, succ: u32, distance: u32, params: &AppleseedParams) -> Option<u32> {
        let full = params.max_nodes.is_some_and(|cap| self.agent.len() >= cap);
        let known = self.wave_index.get(succ as usize);
        known.or_else(|| (!full).then(|| self.discover(AgentId(succ), distance)))
    }

    /// Resolves node `i`'s out-star into the arena, discovering its
    /// successors. Runs once per node, when it first holds energy — the
    /// moment the reference loop walks these edges for the first time, so
    /// discovery order is the same.
    fn expand(&mut self, i: usize, graph: &CsrGraph, params: &AppleseedParams) {
        let agent = self.agent[i];
        let distance = self.distance[i];
        let start = self.edges.len();
        // Nodes at the range limit keep only the backward edge.
        let at_range_limit = params.max_range.is_some_and(|r| distance >= r);
        let (pos_sum, neg_sum) = if at_range_limit {
            (0.0, 0.0)
        } else {
            let (trust, distrust) = graph.powered_sums(agent);
            (trust, if params.distrust { distrust } else { 0.0 })
        };
        let backward = if i == 0 { 0.0 } else { params.backward_weight };
        let total_weight = pos_sum + neg_sum + backward;

        // In edge order, trust statements and then distrust: agent id →
        // wave index. A trust edge that ends at the source — a statement
        // about it, or any edge the cap reroutes — adds to `source_weight`;
        // a distrust edge the cap cuts off is dropped. A source without
        // positive statements (`total_weight` 0) lets its energy evaporate
        // and discovers nothing.
        let mut source_weight = backward;
        let mut pos_end = start;
        if total_weight > 0.0 && !at_range_limit {
            let row = graph.out_targets(agent).iter().zip(graph.out_weights(agent));
            let row = row.zip(graph.out_powered(agent));
            for ((&succ, _), &pw) in row.clone().filter(|&((_, &w), _)| w > 0.0) {
                match self.resolve(succ, distance + 1, params) {
                    None | Some(0) => source_weight += pw,
                    Some(idx) => self.edges.push((idx, pw)),
                }
            }
            pos_end = self.edges.len();
            if params.distrust {
                for ((&succ, _), &pw) in row.filter(|&((_, &w), _)| w < 0.0) {
                    if let Some(idx) = self.resolve(succ, distance + 1, params) {
                        self.edges.push((idx, pw));
                    }
                }
            }
        }
        self.star[i] =
            Star { start, pos_end, end: self.edges.len(), source_weight, total_weight };
    }

    fn run(
        &mut self,
        graph: &CsrGraph,
        source: AgentId,
        params: &AppleseedParams,
    ) -> AppleseedResult {
        self.reset(graph.agent_count());
        self.discover(source, 0);
        self.energy_in[0] = params.injection;

        let d = params.spreading_factor;
        let mut iterations = 0;
        let mut converged = false;
        let mut residual = 0.0;
        while iterations < params.max_iterations {
            iterations += 1;
            let mut max_delta: f64 = 0.0;
            // `energy_next[0]`, which only `source_weight` feeds.
            let mut to_source = 0.0;

            // Nodes discovered during this pass hold no energy until the
            // fold below, so the pass covers the wave as it stood.
            for i in 0..self.agent.len() {
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
                    self.expand(i, graph, params);
                }
                let Star { start, pos_end, end, source_weight, total_weight } = self.star[i];
                if total_weight <= 0.0 {
                    continue;
                }

                // The module docs' arithmetic. Every accumulator receives
                // its addends in the reference loop's order; ranks are
                // bit-identical only as long as that is not rearranged.
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
            }

            self.energy_next[0] = to_source;
            for (energy_in, energy_next) in self.energy_in.iter_mut().zip(&mut self.energy_next) {
                *energy_in += *energy_next;
                *energy_next = 0.0;
            }

            residual = max_delta;
            if max_delta < params.convergence {
                converged = true;
                break;
            }
        }

        // The source is node 0 and appears nowhere else. Agents are unique,
        // so the comparator is a strict total order and the unstable sort
        // yields the one possible permutation. `total_cmp` orders as
        // `partial_cmp` did: no rank is NaN (weights are checked finite) or
        // −0.0 (ranks start at +0.0 and move by shares of weights > 0).
        let mut ranks: Vec<(AgentId, f64)> =
            self.agent[1..].iter().copied().zip(self.rank[1..].iter().copied()).collect();
        ranks.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));

        AppleseedResult {
            ranks,
            iterations,
            nodes_discovered: self.agent.len(),
            converged,
            residual,
        }
    }
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
            let res = scratch.run(&csr, ids[11], &params);
            assert!(res.iterations > 5, "{params:?}");
            let held: f64 = scratch.rank.iter().chain(&scratch.energy_in).sum();
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
}
