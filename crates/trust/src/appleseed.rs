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
//! # The kernel
//!
//! [`appleseed`] is the one entry, and it reads the frozen [`CsrGraph`]: a
//! run touches the graph once per wave node, as one CSR row. When a node
//! first holds energy its out-star is *resolved* into flat per-run arenas:
//! every weight raised to `spreading_power`, their sum with the backward
//! edge, and every successor looked up in (or added to) the wave. Each later
//! iteration is a straight pass
//! `energy_next[succ[k]] += forward * powered[k] / total` over those arrays
//! — no `powf`, no lookup, no graph access.
//!
//! Resolving once is sound because nothing it records can change later in
//! the run: weights and hop distances are fixed, a node's wave index never
//! moves, and the wave only grows. In particular, once `max_nodes` is hit no
//! node is ever discovered again, so a successor that is unknown at that
//! moment stays unknown, and "reroute this edge to the source" (trust) or
//! "drop this edge" (distrust) can be frozen into the arenas.
//!
//! **Bit-identity contract.** The kernel returns exactly what the
//! straightforward loop returns (kept as the test oracle in
//! `appleseed/oracle.rs`, where it walks the adjacency-list
//! [`crate::graph::TrustGraph`] — an independent representation of the same
//! statements): the same `f64` bits for every rank, the same
//! `iterations`, `nodes_discovered`, `converged` and `residual`. No
//! tolerance is involved, because no float operation is reassociated: a share is still `forward * w.powf(p) / total`
//! (the `powf` result is cached, not re-derived; the division is not turned
//! into a multiplication by a reciprocal), nodes are discovered in the same
//! order, and every accumulator receives the same addends in the same
//! order. The one liberty taken is between *different* accumulators: a
//! star's edges that end at the source are stored apart from those that end
//! elsewhere, each group in edge order, so that the source's energy — where
//! most edges of a capped wave end — is summed in a register.
//!
//! The wave, the arenas and a dense agent-id → wave-index table live in a
//! per-thread scratch that is reused from run to run, so after warm-up a run
//! allocates only the ranking it returns. The scratch keeps the capacity of
//! the largest wave it has held and eight bytes per agent of the largest
//! graph it has seen.

use std::cell::RefCell;

use crate::agent::AgentId;
use crate::csr::CsrGraph;
use crate::error::{Result, TrustError};

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

/// A wave node's resolved out-star, as ranges of the arenas, plus the
/// normalisation sum over all its statements and the backward edge.
#[derive(Clone, Copy)]
struct Star {
    /// `start..pos_end` of the edge arenas: trust edges into the wave.
    start: usize,
    /// `pos_end..end` of the edge arenas: distrust edges into the wave.
    pos_end: usize,
    end: usize,
    /// `source_start..source_end` of `Scratch::source_powered`.
    source_start: usize,
    source_end: usize,
    total_weight: f64,
}

impl Star {
    /// The star of a node that has not forwarded energy yet.
    const UNEXPANDED: Star = Star {
        start: usize::MAX,
        pos_end: 0,
        end: 0,
        source_start: 0,
        source_end: 0,
        total_weight: 0.0,
    };
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
    // The edge arenas, filled node by node on first expansion: the
    // successor's wave index (never 0 for a trust edge) and the weight
    // raised to `spreading_power`.
    succ: Vec<u32>,
    powered: Vec<f64>,
    /// Powered weights of the trust edges that feed the source: statements
    /// about the source itself and edges rerouted by `max_nodes`.
    source_powered: Vec<f64>,
    // Dense agent id → wave index: `wave_index[a]` is valid iff
    // `stamp[a] == generation`, so starting a run is one increment instead
    // of a clear.
    wave_index: Vec<u32>,
    stamp: Vec<u32>,
    generation: u32,
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
        self.succ.clear();
        self.powered.clear();
        self.source_powered.clear();
        if self.stamp.len() < agents {
            self.stamp.resize(agents, 0);
            self.wave_index.resize(agents, 0);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamp.fill(0);
            self.generation = 1;
        }
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
        self.wave_index[agent.index()] = idx;
        self.stamp[agent.index()] = self.generation;
        idx
    }

    /// The wave index of the agent parked at `succ[k]`, discovering it if
    /// the wave may still grow. Once `max_nodes` is hit no node is ever
    /// discovered again, so an unknown successor stays unknown and `None`
    /// is final: the caller can freeze the cap decision into the arenas.
    fn resolve(&mut self, k: usize, distance: u32, params: &AppleseedParams) -> Option<u32> {
        let succ = AgentId(self.succ[k]);
        if self.stamp[succ.index()] == self.generation {
            Some(self.wave_index[succ.index()])
        } else if params.max_nodes.is_some_and(|cap| self.agent.len() >= cap) {
            None
        } else {
            Some(self.discover(succ, distance + 1))
        }
    }

    /// Moves the edge parked at `k` down to `at`, now with its wave index.
    fn settle(&mut self, at: &mut usize, k: usize, idx: u32) {
        self.succ[*at] = idx;
        self.powered[*at] = self.powered[k];
        *at += 1;
    }

    /// Resolves node `i`'s out-star into the arenas, discovering its
    /// successors. Runs once per node, when it first holds energy — the
    /// moment the reference loop walks these edges for the first time, so
    /// discovery order is the same.
    fn expand(&mut self, i: usize, graph: &CsrGraph, params: &AppleseedParams) {
        let agent = self.agent[i];
        let distance = self.distance[i];
        let power = params.spreading_power;
        let start = self.succ.len();
        let source_start = self.source_powered.len();

        // First pass, over the node's CSR row: power and sum the weights,
        // parking each successor's agent id in `succ` — trust statements
        // first, then distrust, each in edge order. Nodes at the range limit
        // keep only the backward edge.
        let mut pos_sum = 0.0;
        let mut neg_sum = 0.0;
        let mut raw_pos_end = start;
        let at_range_limit = params.max_range.is_some_and(|r| distance >= r);
        if !at_range_limit {
            let row = graph.out_targets(agent).iter().zip(graph.out_weights(agent));
            for (&succ, &w) in row.clone().filter(|&(_, &w)| w > 0.0) {
                let pw = w.powf(power);
                pos_sum += pw;
                self.succ.push(succ);
                self.powered.push(pw);
            }
            raw_pos_end = self.succ.len();
            if params.distrust {
                for (&succ, &w) in row.filter(|&(_, &w)| w < 0.0) {
                    let pw = (-w).powf(power);
                    neg_sum += pw;
                    self.succ.push(succ);
                    self.powered.push(pw);
                }
            }
        }
        let raw_end = self.succ.len();
        let backward = if i == 0 { 0.0 } else { params.backward_weight };
        let total_weight = pos_sum + neg_sum + backward;

        // Second pass, in edge order: agent id → wave index, compacting the
        // parked edges in place (`at` never overtakes `k`). A trust edge
        // that ends at the source — a statement about it, or any edge the
        // cap reroutes — moves to `source_powered`; a distrust edge the cap
        // cuts off is dropped. A source without positive statements
        // (`total_weight` 0) lets its energy evaporate and discovers nothing.
        let mut at = start;
        let mut pos_end = start;
        if total_weight > 0.0 {
            for k in start..raw_pos_end {
                match self.resolve(k, distance, params) {
                    None | Some(0) => self.source_powered.push(self.powered[k]),
                    Some(idx) => self.settle(&mut at, k, idx),
                }
            }
            pos_end = at;
            for k in raw_pos_end..raw_end {
                if let Some(idx) = self.resolve(k, distance, params) {
                    self.settle(&mut at, k, idx);
                }
            }
        }
        self.succ.truncate(at);
        self.powered.truncate(at);
        self.star[i] = Star {
            start,
            pos_end,
            end: at,
            source_start,
            source_end: self.source_powered.len(),
            total_weight,
        };
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
            // `energy_next[0]`, kept in a register: most edges of a capped
            // wave end here, and a chain of adds through one memory cell
            // is the slowest thing the pass could do.
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
                let Star { start, pos_end, end, source_start, source_end, total_weight } =
                    self.star[i];
                if total_weight <= 0.0 {
                    continue;
                }

                // `forward * w / total_weight` is the reference loop's
                // expression, and every accumulator below receives its
                // addends in the reference loop's order (the source: the
                // backward edge, then edge order). Ranks are bit-identical
                // only as long as neither is rearranged.
                if i != 0 {
                    to_source += forward * params.backward_weight / total_weight;
                }
                for &pw in &self.source_powered[source_start..source_end] {
                    to_source += forward * pw / total_weight;
                }
                let trust = self.succ[start..pos_end].iter().zip(&self.powered[start..pos_end]);
                for (&idx, &pw) in trust {
                    self.energy_next[idx as usize] += forward * pw / total_weight;
                }
                // Distrust: a terminal penalty, deposited as negative rank.
                let distrust = self.succ[pos_end..end].iter().zip(&self.powered[pos_end..end]);
                for (&idx, &pw) in distrust {
                    let share = forward * pw / total_weight;
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
        // yields the one possible permutation.
        let mut ranks: Vec<(AgentId, f64)> =
            self.agent[1..].iter().copied().zip(self.rank[1..].iter().copied()).collect();
        ranks.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));

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

    /// The kernel on the frozen form of a builder graph.
    fn appleseed(
        g: &TrustGraph,
        source: AgentId,
        params: &AppleseedParams,
    ) -> Result<AppleseedResult> {
        super::appleseed(&CsrGraph::from_graph(g), source, params)
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
    fn stamps_survive_generation_wraparound() {
        let (g, ids) = ring(9);
        let params = AppleseedParams::default();
        let expected = bits(&appleseed_reference(&g, ids[2], &params));
        let csr = CsrGraph::from_graph(&g);
        let mut scratch = Scratch { generation: u32::MAX - 1, ..Default::default() };
        for _ in 0..4 {
            assert_eq!(bits(&scratch.run(&csr, ids[2], &params)), expected);
        }
        assert_eq!(scratch.generation, 3, "wrapped past 0 to 1, then two more runs");
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
