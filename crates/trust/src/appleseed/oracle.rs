//! The straightforward Appleseed loop, frozen as the test oracle.
//!
//! Every iteration re-walks every active node's out-edges through the graph,
//! re-powers every weight, re-sums the node's weights and resolves every
//! successor through a hash map, freezing nothing. It is slow and reads like
//! the arithmetic the parent module's docs define (`unit = d·in(x)/Σw`,
//! shares of `unit · w^p`, one addend per node for the source), which is
//! what an oracle is for: the kernel in the parent module must reproduce its
//! ranks bit for bit, plus `iterations`, `nodes_discovered`, `converged` and
//! `residual`.
//!
//! Test-only. `semrec-trust` compiles it under `#[cfg(test)]`; the
//! workspace-level `tests/proptest_appleseed.rs` includes this same file by
//! `#[path]`, which is why it names its dependencies through `super::` (the
//! including module supplies `AgentId`, `AppleseedParams`, `AppleseedResult`
//! and `TrustGraph`). It walks the adjacency-list [`TrustGraph`] while the
//! kernel walks the `CsrGraph` frozen from it, so the comparison is also one
//! between two representations of the same statements. It takes parameters that already passed
//! [`AppleseedParams::validate`] and an in-range `source`.

use std::collections::HashMap;

use super::{AgentId, AppleseedParams, AppleseedResult, TrustGraph};

struct NodeState {
    agent: AgentId,
    /// Hop distance from the source at discovery time.
    distance: u32,
    rank: f64,
    energy_in: f64,
    energy_next: f64,
}

impl NodeState {
    fn discovered(agent: AgentId, distance: u32) -> Self {
        NodeState { agent, distance, rank: 0.0, energy_in: 0.0, energy_next: 0.0 }
    }
}

/// Everything the bit-identity contract covers, in comparable form: the
/// ranking with each rank's `f64` bits, `iterations`, `nodes_discovered`,
/// `converged` and the bits of `residual`.
pub fn bits(r: &AppleseedResult) -> (Vec<(AgentId, u64)>, usize, usize, bool, u64) {
    let ranks = r.ranks.iter().map(|&(a, rank)| (a, rank.to_bits())).collect();
    (ranks, r.iterations, r.nodes_discovered, r.converged, r.residual.to_bits())
}

/// Runs the reference loop for `source`.
pub fn appleseed_reference(
    graph: &TrustGraph,
    source: AgentId,
    params: &AppleseedParams,
) -> AppleseedResult {
    let d = params.spreading_factor;
    let power = params.spreading_power;
    let mut nodes = vec![NodeState { energy_in: params.injection, ..NodeState::discovered(source, 0) }];
    let mut local: HashMap<AgentId, usize> = HashMap::from([(source, 0)]);

    let mut iterations = 0;
    let mut converged = false;
    let mut residual = 0.0;
    while iterations < params.max_iterations {
        iterations += 1;
        let mut max_delta: f64 = 0.0;

        for i in 0..nodes.len() {
            let energy = nodes[i].energy_in;
            if energy <= 0.0 {
                continue;
            }
            nodes[i].energy_in = 0.0;

            // Keep (1 - d), forward d.
            let kept = (1.0 - d) * energy;
            nodes[i].rank += kept;
            max_delta = max_delta.max(kept);
            let forward = d * energy;

            let agent = nodes[i].agent;
            let distance = nodes[i].distance;
            // Nodes at the range limit keep only the backward edge.
            let at_range_limit = params.max_range.is_some_and(|r| distance >= r);

            let mut pos_sum = 0.0;
            let mut neg_sum = 0.0;
            if !at_range_limit {
                for (_, w) in graph.positive_out_edges(agent) {
                    pos_sum += w.powf(power);
                }
                if params.distrust {
                    for (_, w) in graph.negative_out_edges(agent) {
                        neg_sum += (-w).powf(power);
                    }
                }
            }
            let backward = if agent == source { 0.0 } else { params.backward_weight };
            let total_weight = pos_sum + neg_sum + backward;
            if total_weight <= 0.0 {
                // Source without positive statements: energy evaporates.
                continue;
            }

            // One division per node; every share is `unit * w^p`.
            let unit = forward / total_weight;
            // What the node owes the source: the backward edge, then — in
            // edge order — its statements about the source and the trust
            // edges the node cap reroutes. Deposited as one addend.
            let mut source_weight = backward;
            if !at_range_limit {
                for (succ, w) in graph.positive_out_edges(agent) {
                    let powered = w.powf(power);
                    let idx = match local.get(&succ) {
                        Some(&idx) => idx,
                        None => {
                            if params.max_nodes.is_some_and(|cap| nodes.len() >= cap) {
                                // Capacity reached: reroute to the source.
                                source_weight += powered;
                                continue;
                            }
                            let idx = nodes.len();
                            local.insert(succ, idx);
                            nodes.push(NodeState::discovered(succ, distance + 1));
                            idx
                        }
                    };
                    if idx == 0 {
                        source_weight += powered;
                    } else {
                        nodes[idx].energy_next += unit * powered;
                    }
                }
            }
            nodes[0].energy_next += unit * source_weight;
            if params.distrust && !at_range_limit {
                for (succ, w) in graph.negative_out_edges(agent) {
                    let share = unit * (-w).powf(power);
                    // Terminal penalty, deposited as negative rank.
                    let idx = match local.get(&succ) {
                        Some(&idx) => idx,
                        None => {
                            if params.max_nodes.is_some_and(|cap| nodes.len() >= cap) {
                                continue;
                            }
                            let idx = nodes.len();
                            local.insert(succ, idx);
                            nodes.push(NodeState::discovered(succ, distance + 1));
                            idx
                        }
                    };
                    nodes[idx].rank -= share;
                    max_delta = max_delta.max(share);
                }
            }
        }

        for node in &mut nodes {
            node.energy_in += node.energy_next;
            node.energy_next = 0.0;
        }

        residual = max_delta;
        if max_delta < params.convergence {
            converged = true;
            break;
        }
    }

    let mut ranks: Vec<(AgentId, f64)> =
        nodes.iter().filter(|n| n.agent != source).map(|n| (n.agent, n.rank)).collect();
    ranks.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));

    AppleseedResult { ranks, iterations, nodes_discovered: nodes.len(), converged, residual }
}
