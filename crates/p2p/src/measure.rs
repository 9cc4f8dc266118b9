//! Measuring decentralized convergence: how close each peer's gossip-built
//! neighborhood is to what a centralized crawl of the whole community
//! would have produced.
//!
//! The baseline is [`form_neighborhood_csr`] over the *full* trust graph with
//! the same [`NeighborhoodParams`] the peers use, so the two sides run the
//! identical ranking machinery and differ only in what they know. Peer
//! neighborhoods are compared by URI, never by `AgentId` — ids are not
//! stable across independently assembled graphs, identifiers are.

use std::collections::BTreeMap;
use std::sync::Arc;

use semrec_core::Community;
use semrec_trust::neighborhood::{form_neighborhood_csr, NeighborhoodParams};
use semrec_trust::CsrGraph;

use crate::sim::P2pSimulation;

/// Centralized top-k neighborhoods for a panel of agents: URI →
/// `(peer URI, trust rank)` sorted by descending rank, at most k entries.
#[derive(Clone, Debug, Default)]
pub struct Baseline {
    /// The neighborhood each panel agent would get from the full model.
    pub neighborhoods: BTreeMap<String, Vec<(String, f64)>>,
    /// The k the baseline was truncated at.
    pub k: usize,
}

/// Computes the centralized baseline for `panel` over the full community.
pub fn centralized_baseline(
    community: &Community,
    params: &NeighborhoodParams,
    panel: &[String],
    k: usize,
) -> Baseline {
    let trust = CsrGraph::from_graph(&community.trust)
        .with_spreading_power(params.appleseed.spreading_power);
    let mut neighborhoods = BTreeMap::new();
    for uri in panel {
        let Some(id) = community.agent_by_uri(uri) else { continue };
        let formed = form_neighborhood_csr(&trust, id, params)
            .expect("panel agents are valid community members");
        let top: Vec<(String, f64)> = formed
            .peers
            .iter()
            .take(k)
            .map(|&(peer, rank)| (community.agent(peer).expect("ranked peers exist").uri.clone(), rank))
            .collect();
        neighborhoods.insert(uri.clone(), top);
    }
    Baseline { neighborhoods, k }
}

/// Overlap@k between a peer's local neighborhood and the centralized one:
/// `|top-k(local) ∩ top-k(central)| / |top-k(central)|`. Two empty
/// neighborhoods agree perfectly (1.0); an empty central one with a
/// non-empty local one is total disagreement (0.0).
pub fn overlap_at_k(local: &[(Arc<str>, f64)], central: &[(String, f64)], k: usize) -> f64 {
    let central_top: Vec<&str> = central.iter().take(k).map(|(u, _)| u.as_str()).collect();
    if central_top.is_empty() {
        return if local.is_empty() { 1.0 } else { 0.0 };
    }
    let hits = local
        .iter()
        .take(k)
        .filter(|(u, _)| central_top.contains(&&**u))
        .count();
    hits as f64 / central_top.len() as f64
}

/// Spearman rank correlation over the centralized top-k: each centrally
/// ranked peer's position is compared with its position in the peer's full
/// local ranking; peers the node has not ranked at all sit at the bottom
/// (position k). For a single-entry baseline the correlation degenerates
/// to membership (1.0 if ranked first locally, else 0.0).
pub fn rank_correlation(local: &[(Arc<str>, f64)], central: &[(String, f64)], k: usize) -> f64 {
    let central_top: Vec<&str> = central.iter().take(k).map(|(u, _)| u.as_str()).collect();
    let m = central_top.len();
    if m == 0 {
        return if local.is_empty() { 1.0 } else { 0.0 };
    }
    let local_pos = |uri: &str| {
        local.iter().position(|(u, _)| &**u == uri).unwrap_or(m).min(m)
    };
    if m == 1 {
        return if local_pos(central_top[0]) == 0 { 1.0 } else { 0.0 };
    }
    let d2: f64 = central_top
        .iter()
        .enumerate()
        .map(|(rank, uri)| {
            let d = rank as f64 - local_pos(uri) as f64;
            d * d
        })
        .sum();
    let n = m as f64;
    (1.0 - 6.0 * d2 / (n * (n * n - 1.0))).clamp(-1.0, 1.0)
}

/// Aggregated convergence of a swarm against a [`Baseline`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Convergence {
    /// Mean overlap@k across measured peers.
    pub mean_overlap: f64,
    /// Mean Spearman rank correlation across measured peers.
    pub mean_rho: f64,
    /// Mean records known per measured peer.
    pub mean_known: f64,
    /// Alive panel peers measured (dead nodes are offline and skipped).
    pub peers_measured: usize,
}

impl P2pSimulation {
    /// Measures every alive panel peer's neighborhood against the
    /// baseline, with the simulation's own [`NeighborhoodParams`].
    pub fn convergence(&self, baseline: &Baseline) -> Convergence {
        let params = self.config().neighborhood;
        let mut overlap_sum = 0.0;
        let mut rho_sum = 0.0;
        let mut known_sum = 0usize;
        let mut measured = 0usize;
        for (uri, central) in &baseline.neighborhoods {
            let Some(peer) = self.peer(uri) else { continue };
            if peer.is_dead() {
                continue;
            }
            let local = peer.neighborhood(&params);
            overlap_sum += overlap_at_k(&local, central, baseline.k);
            rho_sum += rank_correlation(&local, central, baseline.k);
            known_sum += peer.known_count();
            measured += 1;
        }
        if measured == 0 {
            return Convergence { mean_overlap: 0.0, mean_rho: 0.0, mean_known: 0.0, peers_measured: 0 };
        }
        Convergence {
            mean_overlap: overlap_sum / measured as f64,
            mean_rho: rho_sum / measured as f64,
            mean_known: known_sum as f64 / measured as f64,
            peers_measured: measured,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn local(uris: &[&str]) -> Vec<(Arc<str>, f64)> {
        uris.iter().enumerate().map(|(i, u)| (Arc::from(*u), 1.0 - i as f64 * 0.1)).collect()
    }

    fn central(uris: &[&str]) -> Vec<(String, f64)> {
        uris.iter().enumerate().map(|(i, u)| (u.to_string(), 1.0 - i as f64 * 0.1)).collect()
    }

    #[test]
    fn overlap_counts_set_intersection() {
        let c = central(&["a", "b", "c", "d"]);
        assert_eq!(overlap_at_k(&local(&["a", "b", "c", "d"]), &c, 4), 1.0);
        assert_eq!(overlap_at_k(&local(&["a", "b", "x", "y"]), &c, 4), 0.5);
        assert_eq!(overlap_at_k(&local(&[]), &c, 4), 0.0);
        assert_eq!(overlap_at_k(&local(&[]), &central(&[]), 4), 1.0);
        assert_eq!(overlap_at_k(&local(&["a"]), &central(&[]), 4), 0.0);
    }

    #[test]
    fn correlation_rewards_order_not_just_membership() {
        let c = central(&["a", "b", "c", "d"]);
        assert_eq!(rank_correlation(&local(&["a", "b", "c", "d"]), &c, 4), 1.0);
        let reversed = rank_correlation(&local(&["d", "c", "b", "a"]), &c, 4);
        assert!(reversed < 0.0, "reversed order must anticorrelate, got {reversed}");
        let partial = rank_correlation(&local(&["a", "b"]), &c, 4);
        assert!((0.0..1.0).contains(&partial));
        assert_eq!(rank_correlation(&local(&["a"]), &central(&["a"]), 4), 1.0);
        assert_eq!(rank_correlation(&local(&["b"]), &central(&["a"]), 4), 0.0);
    }
}
