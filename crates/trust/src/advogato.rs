//! The **Advogato** maximum-flow group trust metric (Levien, ref \[11\]).
//!
//! The paper cites Advogato as "the most important and most well-known local
//! group trust metric", but notes it "can only make boolean decisions with
//! respect to trustworthiness" — which is why Appleseed was designed. We
//! implement Advogato as the baseline for experiment E11.
//!
//! The metric certifies a set of accounts from a seed: nodes are assigned
//! capacities that shrink with BFS distance from the seed, every node is
//! split into an *in*/*out* pair joined by an edge of capacity `cap − 1`
//! plus a unit edge to a supersink, certification edges become infinite
//! edges between *out* and *in* halves, and the accepted set is exactly the
//! accounts whose unit edge is saturated by a maximum integer flow. The
//! construction is attack-resistant: a cabal of fake accounts certified via
//! a single cut edge can capture at most that edge's capacity.

use std::collections::VecDeque;

use crate::agent::AgentId;
use crate::error::{Result, TrustError};
use crate::graph::TrustGraph;
use crate::maxflow::FlowNetwork;

/// Parameters of the Advogato metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdvogatoParams {
    /// Target group size: the seed's capacity (how many accounts the seed is
    /// willing to certify, including itself).
    pub target_group_size: usize,
    /// Minimum edge weight for a trust statement to count as a certification
    /// (Advogato edges are boolean; we threshold the continuous weights).
    pub certification_threshold: f64,
}

impl Default for AdvogatoParams {
    fn default() -> Self {
        AdvogatoParams { target_group_size: 50, certification_threshold: 0.0 }
    }
}

/// Outcome of an Advogato computation.
#[derive(Clone, Debug)]
pub struct AdvogatoResult {
    /// Accepted (certified) agents, including the seed, sorted by id.
    pub accepted: Vec<AgentId>,
    /// Total flow that reached the supersink (= number of accepted agents).
    pub flow: i64,
    /// Per-level node capacities used in the reduction.
    pub capacities: Vec<i64>,
    /// Augmenting paths the flow solver needed.
    pub augmenting_paths: usize,
}

impl AdvogatoResult {
    /// True if the agent was certified.
    pub fn is_accepted(&self, agent: AgentId) -> bool {
        self.accepted.binary_search(&agent).is_ok()
    }
}

/// Runs the Advogato group trust metric for `seed` over `graph`.
pub fn advogato(
    graph: &TrustGraph,
    seed: AgentId,
    params: &AdvogatoParams,
) -> Result<AdvogatoResult> {
    if seed.index() >= graph.agent_count() {
        return Err(TrustError::UnknownAgent(seed.index()));
    }
    if params.target_group_size == 0 {
        return Err(TrustError::InvalidParameter {
            name: "target_group_size",
            value: 0.0,
            expected: "a positive group size",
        });
    }

    let n = graph.agent_count();
    let cert = |w: f64| w > params.certification_threshold;

    // BFS levels over certification edges.
    let mut level = vec![u32::MAX; n];
    level[seed.index()] = 0;
    let mut order = vec![seed];
    let mut queue = VecDeque::from([seed]);
    let mut out_degree_sum = vec![0usize; 1];
    let mut level_sizes = vec![1usize];
    while let Some(v) = queue.pop_front() {
        let lv = level[v.index()];
        let mut deg = 0usize;
        for &(succ, w) in graph.out_edges(v) {
            if !cert(w) {
                continue;
            }
            deg += 1;
            if level[succ.index()] == u32::MAX {
                level[succ.index()] = lv + 1;
                order.push(succ);
                queue.push_back(succ);
                if level_sizes.len() <= (lv + 1) as usize {
                    level_sizes.push(0);
                    out_degree_sum.push(0);
                }
                level_sizes[(lv + 1) as usize] += 1;
            }
        }
        out_degree_sum[lv as usize] += deg;
    }

    // Per-level capacities: the seed gets the full target group size; each
    // deeper level divides by the mean certification out-degree of the level
    // above (at least 2), bottoming out at capacity 1 (self only). This is
    // Levien's geometric capacity schedule.
    let mut capacities: Vec<i64> = Vec::with_capacity(level_sizes.len());
    let mut cap = params.target_group_size as f64;
    for lv in 0..level_sizes.len() {
        capacities.push(cap.max(1.0).round() as i64);
        let mean_deg = if level_sizes[lv] > 0 {
            (out_degree_sum[lv] as f64 / level_sizes[lv] as f64).max(2.0)
        } else {
            2.0
        };
        cap /= mean_deg;
    }

    // Node-split flow network.
    let mut net = FlowNetwork::new();
    let supersource = net.add_node();
    let supersink = net.add_node();
    // node_in = 2 + 2k, node_out = 3 + 2k for the k-th discovered node.
    let mut flow_in = vec![u32::MAX; n];
    let mut flow_out = vec![u32::MAX; n];
    let mut sink_edges = Vec::with_capacity(order.len());
    for &agent in &order {
        let i = net.add_node();
        let o = net.add_node();
        flow_in[agent.index()] = i;
        flow_out[agent.index()] = o;
        let c = capacities[level[agent.index()] as usize];
        net.add_edge(i, o, (c - 1).max(0));
        sink_edges.push((agent, net.add_edge(i, supersink, 1)));
    }
    let infinite = params.target_group_size as i64 + 1;
    for &agent in &order {
        for &(succ, w) in graph.out_edges(agent) {
            if cert(w) && flow_in[succ.index()] != u32::MAX {
                net.add_edge(flow_out[agent.index()], flow_in[succ.index()], infinite);
            }
        }
    }
    net.add_edge(supersource, flow_in[seed.index()], params.target_group_size as i64);

    let flow = net.max_flow(supersource, supersink);
    let mut accepted: Vec<AgentId> = sink_edges
        .iter()
        .filter(|&&(_, e)| net.flow(e) == 1)
        .map(|&(a, _)| a)
        .collect();
    accepted.sort_unstable();

    Ok(AdvogatoResult {
        accepted,
        flow: flow.value,
        capacities,
        augmenting_paths: flow.augmenting_paths,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_with(edges: &[(usize, usize)], n: usize) -> (TrustGraph, Vec<AgentId>) {
        let mut g = TrustGraph::with_agents(n);
        let ids: Vec<_> = g.agents().collect();
        for &(a, b) in edges {
            g.set_trust(ids[a], ids[b], 1.0).unwrap();
        }
        (g, ids)
    }

    #[test]
    fn seed_is_always_accepted_when_connected() {
        let (g, ids) = graph_with(&[(0, 1), (1, 2)], 3);
        let res = advogato(&g, ids[0], &AdvogatoParams::default()).unwrap();
        assert!(res.is_accepted(ids[0]));
        assert!(res.flow >= 1);
    }

    #[test]
    fn reachable_nodes_are_certified_with_ample_capacity() {
        let (g, ids) = graph_with(&[(0, 1), (0, 2), (1, 3), (2, 3)], 4);
        let res =
            advogato(&g, ids[0], &AdvogatoParams { target_group_size: 50, ..Default::default() })
                .unwrap();
        for &id in &ids {
            assert!(res.is_accepted(id), "{id} should be certified");
        }
        assert_eq!(res.flow, 4);
    }

    #[test]
    fn unreachable_nodes_are_rejected() {
        let (g, ids) = graph_with(&[(0, 1)], 3);
        let res = advogato(&g, ids[0], &AdvogatoParams::default()).unwrap();
        assert!(res.is_accepted(ids[0]));
        assert!(res.is_accepted(ids[1]));
        assert!(!res.is_accepted(ids[2]));
    }

    #[test]
    fn capacity_bounds_the_accepted_set() {
        // Star: seed certifies 10 peers, but group size 3 accepts at most 3.
        let edges: Vec<_> = (1..=10).map(|i| (0, i)).collect();
        let (g, ids) = graph_with(&edges, 11);
        let res = advogato(
            &g,
            ids[0],
            &AdvogatoParams { target_group_size: 3, ..Default::default() },
        )
        .unwrap();
        assert!(res.accepted.len() <= 3);
        assert!(res.is_accepted(ids[0]));
    }

    #[test]
    fn single_cut_edge_bounds_a_sybil_cabal() {
        // Honest core 0-1-2 fully connected; node 2 certifies sybil 3, which
        // certifies a large cabal 4..20 that certify each other.
        let mut edges = vec![(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1), (2, 3)];
        for i in 4..20 {
            edges.push((3, i));
            edges.push((i, 3));
        }
        let (g, ids) = graph_with(&edges, 20);
        let res = advogato(
            &g,
            ids[0],
            &AdvogatoParams { target_group_size: 8, ..Default::default() },
        )
        .unwrap();
        let cabal_accepted = (4..20).filter(|&i| res.is_accepted(ids[i])).count();
        // The cabal hangs off the single 2→3 edge whose downstream capacity
        // shrinks geometrically: almost none of the 16 sybils get certified.
        assert!(
            cabal_accepted <= 2,
            "cut edge must bound the cabal, got {cabal_accepted}"
        );
        assert!(res.is_accepted(ids[0]) && res.is_accepted(ids[1]) && res.is_accepted(ids[2]));
    }

    #[test]
    fn certification_threshold_filters_weak_edges() {
        let mut g = TrustGraph::with_agents(3);
        let ids: Vec<_> = g.agents().collect();
        g.set_trust(ids[0], ids[1], 0.9).unwrap();
        g.set_trust(ids[0], ids[2], 0.2).unwrap();
        let res = advogato(
            &g,
            ids[0],
            &AdvogatoParams { certification_threshold: 0.5, ..Default::default() },
        )
        .unwrap();
        assert!(res.is_accepted(ids[1]));
        assert!(!res.is_accepted(ids[2]));
    }

    #[test]
    fn negative_edges_never_certify() {
        let mut g = TrustGraph::with_agents(2);
        let ids: Vec<_> = g.agents().collect();
        g.set_trust(ids[0], ids[1], -0.9).unwrap();
        let res = advogato(&g, ids[0], &AdvogatoParams::default()).unwrap();
        assert!(!res.is_accepted(ids[1]));
    }

    #[test]
    fn invalid_parameters() {
        let g = TrustGraph::with_agents(1);
        assert!(advogato(
            &g,
            AgentId::from_index(0),
            &AdvogatoParams { target_group_size: 0, ..Default::default() }
        )
        .is_err());
        assert!(matches!(
            advogato(&g, AgentId::from_index(9), &AdvogatoParams::default()),
            Err(TrustError::UnknownAgent(9))
        ));
    }

    #[test]
    fn flow_equals_accepted_count() {
        let (g, ids) = graph_with(&[(0, 1), (1, 2), (2, 3), (0, 3)], 4);
        let res = advogato(&g, ids[0], &AdvogatoParams::default()).unwrap();
        assert_eq!(res.flow as usize, res.accepted.len());
    }
}
