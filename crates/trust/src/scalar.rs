//! Scalar trust metrics (refs \[10\], \[11\] discussion in §3.2).
//!
//! The paper contrasts *scalar* metrics — which evaluate trust between two
//! given individuals — with the *local group* metrics it actually needs.
//! These baselines exist so experiments can show why group metrics were the
//! right choice: scalar metrics answer pairwise queries, and turning them
//! into neighborhood formation requires evaluating them against every
//! candidate peer.

use std::collections::BinaryHeap;

use crate::agent::AgentId;
use crate::error::{Result, TrustError};
use crate::graph::TrustGraph;

/// Multiplicative path trust: the maximum over all directed paths of the
/// product of positive edge weights, optionally depth-bounded.
///
/// This is the classic Beth/Borcherding/Klein-style concatenation rule
/// (ref \[10\]): trust dilutes multiplicatively along recommendation chains.
/// Computed exactly with a Dijkstra variant on `−log w` costs.
pub fn path_trust(
    graph: &TrustGraph,
    source: AgentId,
    target: AgentId,
    max_depth: Option<u32>,
) -> Result<f64> {
    Ok(strongest_path(graph, source, target, max_depth)?
        .map_or(0.0, |(product, _)| product))
}

/// Like [`path_trust`], also returning the strongest path itself
/// (`source, …, target`): the provenance chain behind a transitive trust
/// judgement. `None` when the target is unreachable; self-queries return
/// product 1.0 with the single-node path.
pub fn strongest_path(
    graph: &TrustGraph,
    source: AgentId,
    target: AgentId,
    max_depth: Option<u32>,
) -> Result<Option<(f64, Vec<AgentId>)>> {
    for id in [source, target] {
        if id.index() >= graph.agent_count() {
            return Err(TrustError::UnknownAgent(id.index()));
        }
    }
    if source == target {
        return Ok(Some((1.0, vec![source])));
    }

    // Max-product Dijkstra: state = (best product so far, node, depth).
    #[derive(PartialEq)]
    struct State(f64, AgentId, u32);
    impl Eq for State {}
    impl Ord for State {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Products of positive weights from 1.0: finite and ≥ +0.0.
            self.0.total_cmp(&other.0).then(self.1.cmp(&other.1).reverse())
        }
    }
    impl PartialOrd for State {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut best = vec![0.0f64; graph.agent_count()];
    let mut predecessor: Vec<Option<AgentId>> = vec![None; graph.agent_count()];
    best[source.index()] = 1.0;
    let mut heap = BinaryHeap::from([State(1.0, source, 0)]);
    while let Some(State(product, node, depth)) = heap.pop() {
        if node == target {
            let mut path = vec![target];
            let mut cursor = target;
            while let Some(prev) = predecessor[cursor.index()] {
                path.push(prev);
                cursor = prev;
            }
            path.reverse();
            return Ok(Some((product, path)));
        }
        if product < best[node.index()] {
            continue;
        }
        if max_depth.is_some_and(|d| depth >= d) {
            continue;
        }
        for (succ, w) in graph.positive_out_edges(node) {
            let candidate = product * w;
            if candidate > best[succ.index()] {
                best[succ.index()] = candidate;
                predecessor[succ.index()] = Some(node);
                heap.push(State(candidate, succ, depth + 1));
            }
        }
    }
    Ok(None)
}

/// Global ("eBay"-style) reputation: the mean of all statements an agent
/// received, regardless of who issued them.
///
/// Deliberately *not* subjective — the baseline the paper's §2 security
/// issue argues against, since anyone can inflate it with fake accounts.
pub fn global_reputation(graph: &TrustGraph, agent: AgentId) -> Result<f64> {
    if agent.index() >= graph.agent_count() {
        return Err(TrustError::UnknownAgent(agent.index()));
    }
    let trusters = graph.trusters_of(agent);
    if trusters.is_empty() {
        return Ok(0.0);
    }
    let sum: f64 = trusters
        .iter()
        .map(|&t| graph.trust(t, agent).unwrap_or(0.0))
        .sum();
    Ok(sum / trusters.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (TrustGraph, Vec<AgentId>) {
        let mut g = TrustGraph::with_agents(4);
        let ids: Vec<_> = g.agents().collect();
        g.set_trust(ids[0], ids[1], 0.9).unwrap();
        g.set_trust(ids[0], ids[2], 0.5).unwrap();
        g.set_trust(ids[1], ids[3], 0.5).unwrap();
        g.set_trust(ids[2], ids[3], 0.9).unwrap();
        (g, ids)
    }

    #[test]
    fn picks_the_best_path() {
        let (g, ids) = diamond();
        // 0.9 * 0.5 = 0.45 on both paths.
        let t = path_trust(&g, ids[0], ids[3], None).unwrap();
        assert!((t - 0.45).abs() < 1e-12);
    }

    #[test]
    fn direct_edge_beats_long_path() {
        let (mut g, ids) = diamond();
        g.set_trust(ids[0], ids[3], 0.6).unwrap();
        let t = path_trust(&g, ids[0], ids[3], None).unwrap();
        assert!((t - 0.6).abs() < 1e-12);
    }

    #[test]
    fn self_trust_is_one_and_unreachable_zero() {
        let (g, ids) = diamond();
        assert_eq!(path_trust(&g, ids[0], ids[0], None).unwrap(), 1.0);
        assert_eq!(path_trust(&g, ids[3], ids[0], None).unwrap(), 0.0);
    }

    #[test]
    fn depth_bound_cuts_long_paths() {
        let (g, ids) = diamond();
        assert_eq!(path_trust(&g, ids[0], ids[3], Some(1)).unwrap(), 0.0);
        assert!((path_trust(&g, ids[0], ids[3], Some(2)).unwrap() - 0.45).abs() < 1e-12);
    }

    #[test]
    fn strongest_path_returns_the_chain() {
        let (g, ids) = diamond();
        let (product, path) = strongest_path(&g, ids[0], ids[3], None).unwrap().unwrap();
        assert!((product - 0.45).abs() < 1e-12);
        assert_eq!(path.len(), 3);
        assert_eq!(path[0], ids[0]);
        assert_eq!(*path.last().unwrap(), ids[3]);
        // Either diamond arm is a valid 0.45 path.
        assert!(path[1] == ids[1] || path[1] == ids[2]);
        // Consecutive hops are real positive edges.
        for w in path.windows(2) {
            assert!(g.trust(w[0], w[1]).unwrap() > 0.0);
        }
        assert_eq!(strongest_path(&g, ids[3], ids[0], None).unwrap(), None);
        let (self_product, self_path) =
            strongest_path(&g, ids[0], ids[0], None).unwrap().unwrap();
        assert_eq!(self_product, 1.0);
        assert_eq!(self_path, vec![ids[0]]);
    }

    #[test]
    fn negative_edges_are_not_recommendation_channels() {
        let mut g = TrustGraph::with_agents(3);
        let ids: Vec<_> = g.agents().collect();
        g.set_trust(ids[0], ids[1], -0.9).unwrap();
        g.set_trust(ids[1], ids[2], 0.9).unwrap();
        assert_eq!(path_trust(&g, ids[0], ids[2], None).unwrap(), 0.0);
    }

    #[test]
    fn global_reputation_averages_incoming() {
        let (mut g, ids) = diamond();
        g.set_trust(ids[1], ids[2], -0.5).unwrap();
        // ids[2] receives 0.5 (from 0) and -0.5 (from 1).
        assert_eq!(global_reputation(&g, ids[2]).unwrap(), 0.0);
        assert_eq!(global_reputation(&g, ids[0]).unwrap(), 0.0); // nobody rates 0
        assert!((global_reputation(&g, ids[3]).unwrap() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn unknown_agents_rejected() {
        let (g, ids) = diamond();
        assert!(path_trust(&g, ids[0], AgentId::from_index(99), None).is_err());
        assert!(global_reputation(&g, AgentId::from_index(99)).is_err());
    }
}
