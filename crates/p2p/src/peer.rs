//! One peer node: its knowledge base, its circuit breaker, and the pure
//! per-round decisions (whom to contact, what to send).
//!
//! Everything in this module that feeds the gossip round's parallel
//! compute phase is a pure function of the peer's state at round start
//! plus `(seed, round)` — no RNG streams, no clocks — which is what makes
//! rounds safe to fan out over any number of threads.

use std::collections::BTreeMap;
use std::sync::Arc;

use semrec_hash::stable_hash;
use semrec_trust::graph::TrustGraph;
use semrec_trust::neighborhood::{form_neighborhood_csr, NeighborhoodParams};
use semrec_trust::CsrGraph;
use semrec_web::extract::ExtractedAgent;
use semrec_web::policy::CircuitBreaker;

use crate::record::AgentRecord;
use crate::{SALT_PARTNER, SALT_PAYLOAD};

/// A record a peer knows, with its remaining forwarding budget.
#[derive(Clone, Debug)]
pub(crate) struct Known {
    /// The shared, immutable record.
    pub record: Arc<AgentRecord>,
    /// Hops this copy may still be relayed; 0 = merge-only, never forward.
    pub ttl: u32,
}

/// One simulated peer: the node run by a single agent.
#[derive(Debug)]
pub struct PeerNode {
    uri: Arc<str>,
    homepage: String,
    dead: bool,
    known: BTreeMap<Arc<str>, Known>,
    view: Vec<ExtractedAgent>,
    pub(crate) breaker: CircuitBreaker,
}

impl PeerNode {
    pub(crate) fn new(
        uri: Arc<str>,
        homepage: String,
        dead: bool,
        view: Vec<ExtractedAgent>,
        breaker: CircuitBreaker,
        ttl: u32,
    ) -> PeerNode {
        let mut peer =
            PeerNode { uri, homepage, dead, known: BTreeMap::new(), view: Vec::new(), breaker };
        for agent in &view {
            peer.merge(Arc::new(AgentRecord::from_extracted(agent)), ttl);
        }
        peer.view = view;
        peer
    }

    /// The agent URI this node belongs to.
    pub fn uri(&self) -> &str {
        &self.uri
    }

    /// The node's homepage document URI — the key faults and breakers use.
    pub fn homepage(&self) -> &str {
        &self.homepage
    }

    /// Whether the node is permanently offline under the world's fault
    /// plan. Dead peers never crawl, never gossip and never answer.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// How many agent records the peer currently knows.
    pub fn known_count(&self) -> usize {
        self.known.len()
    }

    /// The peer's circuit breaker (bootstrap-crawl state included).
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// The agents the peer extracted firsthand during its bootstrap crawl:
    /// its local community slice, and what a per-peer checkpoint persists.
    pub fn view(&self) -> &[ExtractedAgent] {
        &self.view
    }

    /// Merges one received record copy; returns `true` if the record was
    /// new. Duplicate deliveries only refresh the forwarding TTL upward.
    pub(crate) fn merge(&mut self, record: Arc<AgentRecord>, ttl: u32) -> bool {
        match self.known.entry(record.uri.clone()) {
            std::collections::btree_map::Entry::Vacant(slot) => {
                slot.insert(Known { record, ttl });
                true
            }
            std::collections::btree_map::Entry::Occupied(mut slot) => {
                let known = slot.get_mut();
                known.ttl = known.ttl.max(ttl);
                false
            }
        }
    }

    /// Selects this round's gossip partners: `fanout` distinct agents the
    /// peer has heard of (a record *or* a candidate mention — an address
    /// is enough to knock; never itself), each drawn by hashing
    /// `(seed, own URI, round, slot)` over the sorted address list. Dead
    /// addressees simply fail the exchange and feed the breaker. Pure —
    /// breaker gating happens in the sequential merge phase.
    pub(crate) fn select_partners(&self, seed: u64, round: u64, fanout: usize) -> Vec<Arc<str>> {
        let mut pool: Vec<Arc<str>> = Vec::new();
        for known in self.known.values() {
            pool.push(known.record.uri.clone());
            for candidate in &known.record.candidates {
                pool.push(candidate.uri.clone());
            }
        }
        pool.sort_unstable();
        pool.dedup();
        pool.retain(|uri| *uri != self.uri);
        if pool.is_empty() || fanout == 0 {
            return Vec::new();
        }
        if fanout >= pool.len() {
            return pool;
        }
        let mut taken = vec![false; pool.len()];
        let mut partners = Vec::with_capacity(fanout);
        for slot in 0..fanout {
            let h = stable_hash(seed, &self.uri, round, SALT_PARTNER.wrapping_add(slot as u64));
            let mut idx = (h % pool.len() as u64) as usize;
            while taken[idx] {
                idx = (idx + 1) % pool.len();
            }
            taken[idx] = true;
            partners.push(pool[idx].clone());
        }
        partners
    }

    /// Assembles this round's message: the peer's own record first (always
    /// fresh, full TTL), then a deterministically rotating window of its
    /// still-forwardable knowledge, capped at `max_records`. The rotation
    /// offset is hashed from `(seed, own URI, round)`, so successive
    /// rounds sweep the whole knowledge base even under a tight cap.
    pub(crate) fn assemble_payload(
        &self,
        seed: u64,
        round: u64,
        max_records: usize,
    ) -> Vec<(Arc<AgentRecord>, u32)> {
        let mut payload: Vec<(Arc<AgentRecord>, u32)> = Vec::new();
        if let Some(own) = self.known.get(&self.uri) {
            payload.push((own.record.clone(), own.ttl));
        }
        let forwardable: Vec<&Known> = self
            .known
            .values()
            .filter(|k| k.ttl > 0 && k.record.uri != self.uri)
            .collect();
        if forwardable.is_empty() || payload.len() >= max_records {
            payload.truncate(max_records);
            return payload;
        }
        let window = max_records.saturating_sub(payload.len()).min(forwardable.len());
        let start = (stable_hash(seed, &self.uri, round, SALT_PAYLOAD)
            % forwardable.len() as u64) as usize;
        for i in 0..window {
            let k = forwardable[(start + i) % forwardable.len()];
            payload.push((k.record.clone(), k.ttl));
        }
        payload
    }

    /// The peer's local trust graph: every known agent plus every endorsed
    /// candidate as nodes (inserted in sorted URI order, the same order a
    /// centralized assembly of the full community uses), every known trust
    /// statement as an edge.
    pub(crate) fn local_graph(&self) -> (Vec<Arc<str>>, TrustGraph) {
        let mut uris: Vec<Arc<str>> = Vec::with_capacity(self.known.len() + 1);
        uris.push(self.uri.clone());
        for known in self.known.values() {
            uris.push(known.record.uri.clone());
            for candidate in &known.record.candidates {
                uris.push(candidate.uri.clone());
            }
        }
        uris.sort_unstable();
        uris.dedup();
        let mut graph = TrustGraph::with_agents(uris.len());
        let id_of = |uri: &Arc<str>| {
            semrec_trust::agent::AgentId::from_index(
                uris.binary_search(uri).expect("every edge endpoint was inserted"),
            )
        };
        for known in self.known.values() {
            let truster = id_of(&known.record.uri);
            for candidate in &known.record.candidates {
                let _ = graph.set_trust(truster, id_of(&candidate.uri), candidate.weight);
            }
        }
        (uris, graph)
    }

    /// The peer's current top-k trust neighborhood, formed over its local
    /// graph with the *same* ranking machinery the centralized model uses
    /// ([`form_neighborhood_csr`]): `(peer URI, trust rank)` sorted by
    /// descending rank. Once the peer has learned the full graph this is
    /// identical to the centralized answer.
    pub fn neighborhood(&self, params: &NeighborhoodParams) -> Vec<(Arc<str>, f64)> {
        let (uris, graph) = self.local_graph();
        let source = semrec_trust::agent::AgentId::from_index(
            uris.binary_search(&self.uri).expect("own URI is always a node"),
        );
        let frozen =
            CsrGraph::from_graph(&graph).with_spreading_power(params.appleseed.spreading_power);
        let formed = form_neighborhood_csr(&frozen, source, params)
            .expect("source is a valid agent of its own local graph");
        formed
            .peers
            .iter()
            .map(|&(id, rank)| (uris[id.index()].clone(), rank))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semrec_web::policy::FetchPolicy;

    fn extracted(uri: &str, trust: &[(&str, f64)]) -> ExtractedAgent {
        ExtractedAgent {
            uri: uri.into(),
            trust: trust.iter().map(|&(u, w)| (u.into(), w)).collect(),
            ..ExtractedAgent::default()
        }
    }

    fn peer(view: Vec<ExtractedAgent>) -> PeerNode {
        PeerNode::new(
            Arc::from("http://ex.org/a"),
            "http://ex.org/a/home".into(),
            false,
            view,
            CircuitBreaker::for_policy(&FetchPolicy::default()),
            8,
        )
    }

    #[test]
    fn bootstrap_view_becomes_firsthand_knowledge() {
        let p = peer(vec![
            extracted("http://ex.org/a", &[("http://ex.org/b", 0.8)]),
            extracted("http://ex.org/b", &[("http://ex.org/c", 0.6)]),
        ]);
        assert_eq!(p.known_count(), 2);
        assert_eq!(p.view().len(), 2);
    }

    #[test]
    fn partner_selection_is_deterministic_distinct_and_excludes_self() {
        let p = peer(vec![
            extracted("http://ex.org/a", &[]),
            extracted("http://ex.org/b", &[]),
            extracted("http://ex.org/c", &[]),
            extracted("http://ex.org/d", &[]),
        ]);
        for round in 0..16 {
            let chosen = p.select_partners(7, round, 2);
            assert_eq!(chosen, p.select_partners(7, round, 2));
            assert_eq!(chosen.len(), 2);
            assert!(chosen.iter().all(|u| &**u != "http://ex.org/a"));
            assert_ne!(chosen[0], chosen[1]);
        }
        // Fanout beyond the pool takes everyone.
        assert_eq!(p.select_partners(7, 0, 10).len(), 3);
    }

    #[test]
    fn payload_leads_with_own_record_and_respects_the_cap() {
        let p = peer(vec![
            extracted("http://ex.org/a", &[]),
            extracted("http://ex.org/b", &[]),
            extracted("http://ex.org/c", &[]),
            extracted("http://ex.org/d", &[]),
        ]);
        let msg = p.assemble_payload(7, 0, 3);
        assert_eq!(msg.len(), 3);
        assert_eq!(&*msg[0].0.uri, "http://ex.org/a");
        // The rotation sweeps every record across rounds.
        let mut seen: std::collections::BTreeSet<Arc<str>> = Default::default();
        for round in 0..8 {
            for (record, _) in p.assemble_payload(7, round, 2) {
                seen.insert(record.uri.clone());
            }
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn merge_is_set_union_with_ttl_refresh() {
        let mut p = peer(vec![extracted("http://ex.org/a", &[])]);
        let r = Arc::new(AgentRecord::from_extracted(&extracted("http://ex.org/z", &[])));
        assert!(p.merge(r.clone(), 2));
        assert!(!p.merge(r.clone(), 5));
        assert_eq!(p.known_count(), 2);
    }

    #[test]
    fn neighborhood_ranks_over_learned_candidates() {
        let p = peer(vec![
            extracted("http://ex.org/a", &[("http://ex.org/b", 0.9), ("http://ex.org/c", 0.4)]),
            extracted("http://ex.org/b", &[("http://ex.org/d", 0.8)]),
        ]);
        let nb = p.neighborhood(&NeighborhoodParams::default());
        assert!(!nb.is_empty());
        assert!(nb.windows(2).all(|w| w[0].1 >= w[1].1));
        let uris: Vec<&str> = nb.iter().map(|(u, _)| &**u).collect();
        assert!(uris.contains(&"http://ex.org/b"));
        assert!(uris.contains(&"http://ex.org/d"), "gossiped candidates join the neighborhood");
    }
}
