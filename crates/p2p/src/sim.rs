//! The peer swarm: bootstrap crawls, lockstep gossip rounds, and per-peer
//! persistence.
//!
//! ## Determinism contract
//!
//! Every round is one *lockstep* cycle (DESIGN.md §7):
//!
//! 1. **Parallel compute** — each alive peer's partner list and message
//!    payload are pure functions of its state at round start plus
//!    `(seed, round)`; they are fanned over scoped threads in index
//!    chunks, results landing in per-peer slots.
//! 2. **Sequential merge** — exchanges execute one peer at a time in
//!    sorted URI order: breaker gating, fault rolls, knowledge merging and
//!    the [`GossipStats`] tallies all mutate single-threaded.
//!
//! No step reads a wall clock or a shared RNG, so runs are byte-identical
//! across repetitions and thread counts — counters included.

use std::collections::BTreeMap;
use std::sync::Arc;

use semrec_core::{Recommender, RecommenderConfig};
use semrec_hash::{stable_hash, unit};
use semrec_obs::MetricsSnapshot;
use semrec_store::{CheckpointReport, Store};
use semrec_taxonomy::{Catalog, Taxonomy};
use semrec_web::crawler::{assemble_community, crawl_resilient, CrawlConfig};
use semrec_web::fault::{FaultPlan, FaultyWeb};
use semrec_web::publish::homepage_uri;
use semrec_web::store::DocumentWeb;

use crate::config::GossipConfig;
use crate::peer::PeerNode;
use crate::record::AgentRecord;
use crate::{SALT_GOSSIP, SALT_POLICY};

/// Cumulative gossip traffic accounting of one simulation; what
/// [`P2pSimulation::metrics`] renders under the `p2p.*` names.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GossipStats {
    /// Messages dispatched onto the (virtual) wire: push requests plus
    /// pull replies.
    pub messages_sent: u64,
    /// Exchanges that failed because the partner was dead or unavailable
    /// this round.
    pub messages_failed: u64,
    /// Exchanges suppressed locally by an open circuit breaker (these
    /// never hit the wire).
    pub messages_suppressed: u64,
    /// Records merged as new knowledge.
    pub records_merged: u64,
    /// Record deliveries the receiver already knew.
    pub records_duplicate: u64,
    /// Estimated payload bytes delivered.
    pub bytes_sent: u64,
    /// Circuit breakers opened during gossip (bootstrap-crawl opens not
    /// included).
    pub breaker_opens: u64,
}

/// N peer nodes over one document web, gossiping in lockstep rounds.
#[derive(Debug)]
pub struct P2pSimulation {
    config: GossipConfig,
    plan: FaultPlan,
    peers: Vec<PeerNode>,
    index: BTreeMap<Arc<str>, usize>,
    round: u32,
    clock: u64,
    stats: GossipStats,
}

impl P2pSimulation {
    /// Boots one node per agent URI: each alive peer runs a bounded
    /// resilient crawl around its own homepage (range
    /// [`GossipConfig::crawl_range`]) through the world's [`FaultPlan`],
    /// seeding its knowledge base firsthand; peers whose homepage the plan
    /// marks dead come up offline and empty. Crawls are independent, so
    /// they fan out over [`GossipConfig::threads`].
    pub fn bootstrap(
        web: &DocumentWeb,
        agent_uris: &[String],
        plan: FaultPlan,
        config: GossipConfig,
    ) -> P2pSimulation {
        let mut uris: Vec<&String> = agent_uris.iter().collect();
        uris.sort_unstable();
        uris.dedup();

        let threads = config.threads.max(1).min(uris.len().max(1));
        let chunk = uris.len().div_ceil(threads).max(1);
        let peers: Vec<PeerNode> = std::thread::scope(|scope| {
            let handles: Vec<_> = uris
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        part.iter().map(|uri| bootstrap_peer(web, uri, &plan, &config)).collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("bootstrap worker panicked")).collect()
        });

        let index = peers
            .iter()
            .enumerate()
            .map(|(i, p)| (Arc::from(p.uri()), i))
            .collect::<BTreeMap<Arc<str>, usize>>();
        let clock = peers.iter().map(|p| p.breaker.now()).max().unwrap_or(0);
        P2pSimulation { config, plan, peers, index, round: 0, clock, stats: GossipStats::default() }
    }

    /// The active configuration.
    pub fn config(&self) -> &GossipConfig {
        &self.config
    }

    /// The world's fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// All peers, sorted by agent URI.
    pub fn peers(&self) -> &[PeerNode] {
        &self.peers
    }

    /// The peer owned by `uri`, if simulated.
    pub fn peer(&self, uri: &str) -> Option<&PeerNode> {
        self.index.get(uri).map(|&i| &self.peers[i])
    }

    /// Gossip rounds executed so far.
    pub fn round(&self) -> u32 {
        self.round
    }

    /// The shared virtual clock, in ticks.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Cumulative traffic accounting.
    pub fn stats(&self) -> GossipStats {
        self.stats
    }

    /// This swarm's state and [`GossipStats`] under their `p2p.*` metric
    /// names: peers booted (and how many came up dead), records their
    /// bootstrap crawls extracted, rounds run, and the gossip traffic.
    pub fn metrics(&self) -> MetricsSnapshot {
        let stats = &self.stats;
        let count = |n: usize| n as u64;
        MetricsSnapshot::from_counters([
            ("p2p.peers", count(self.peers.len())),
            ("p2p.peers.dead", count(self.peers.iter().filter(|p| p.is_dead()).count())),
            ("p2p.crawl.records", count(self.peers.iter().map(|p| p.view().len()).sum())),
            ("p2p.gossip.rounds", u64::from(self.round)),
            ("p2p.messages.sent", stats.messages_sent),
            ("p2p.messages.failed", stats.messages_failed),
            ("p2p.messages.suppressed", stats.messages_suppressed),
            ("p2p.breaker.open", stats.breaker_opens),
            ("p2p.records.merged", stats.records_merged),
            ("p2p.records.duplicate", stats.records_duplicate),
            ("p2p.bytes.sent", stats.bytes_sent),
        ])
    }

    /// Executes `rounds` gossip rounds.
    pub fn run(&mut self, rounds: u32) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Executes one push/pull gossip round (see the module docs for the
    /// two-phase structure) and advances the virtual clock by
    /// [`GossipConfig::round_ticks`].
    pub fn step(&mut self) {
        let round = u64::from(self.round);
        let seed = self.config.seed;
        let fanout = self.config.fanout;
        let cap = self.config.max_records;

        // Phase 1: pure per-peer decisions, fanned over scoped threads.
        struct RoundPlan {
            partners: Vec<Arc<str>>,
            payload: Vec<(Arc<AgentRecord>, u32)>,
        }
        let peers = &self.peers;
        let threads = self.config.threads.max(1).min(peers.len().max(1));
        let chunk = peers.len().div_ceil(threads).max(1);
        let plans: Vec<Option<RoundPlan>> = std::thread::scope(|scope| {
            let handles: Vec<_> = peers
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        part.iter()
                            .map(|peer| {
                                if peer.is_dead() {
                                    return None;
                                }
                                Some(RoundPlan {
                                    partners: peer.select_partners(seed, round, fanout),
                                    payload: peer.assemble_payload(seed, round, cap),
                                })
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("gossip worker panicked")).collect()
        });

        // Phase 2: sequential merge in sorted peer order.
        for i in 0..self.peers.len() {
            let Some(plan_i) = &plans[i] else { continue };
            for partner in &plan_i.partners {
                // A known agent that runs no node behaves exactly like a
                // dead peer: nobody answers, and the breaker learns it.
                let j = self.index.get(partner).copied();
                let partner_home =
                    j.map_or_else(|| homepage_uri(partner), |j| self.peers[j].homepage().to_owned());
                if !self.peers[i].breaker.allow(&partner_home, self.clock) {
                    self.stats.messages_suppressed += 1;
                    continue;
                }
                self.stats.messages_sent += 1;
                let unavailable = self.plan.transient_rate > 0.0
                    && unit(stable_hash(self.plan.seed, &partner_home, round, SALT_GOSSIP))
                        < self.plan.transient_rate;
                if j.is_none() || self.peers[j.unwrap()].is_dead() || unavailable {
                    self.stats.messages_failed += 1;
                    let before = self.peers[i].breaker.times_opened();
                    self.peers[i].breaker.record_failure(&partner_home, self.clock);
                    if self.peers[i].breaker.times_opened() > before {
                        self.stats.breaker_opens += 1;
                    }
                    continue;
                }
                let j = j.expect("unsimulated partners were handled as failures above");
                self.peers[i].breaker.record_success(&partner_home);
                // Push: sender's payload lands at the partner…
                self.deliver(&plan_i.payload, j);
                // …pull: the partner replies with its own payload.
                self.stats.messages_sent += 1;
                if let Some(plan_j) = &plans[j] {
                    self.deliver(&plan_j.payload, i);
                }
            }
        }

        self.round += 1;
        self.clock += self.config.round_ticks;
        for peer in &mut self.peers {
            peer.breaker.advance_to(self.clock);
        }
    }

    fn deliver(&mut self, payload: &[(Arc<AgentRecord>, u32)], to: usize) {
        for (record, ttl) in payload {
            let size = record.wire_bytes();
            self.stats.bytes_sent += size;
            if self.peers[to].merge(record.clone(), ttl.saturating_sub(1)) {
                self.stats.records_merged += 1;
            } else {
                self.stats.records_duplicate += 1;
            }
        }
    }

    /// Persists one peer's local community slice — the agents it crawled
    /// firsthand — as a `semrec-store` checkpoint in `store`: the node's
    /// crash-recoverable warm start, written with the same snapshot format
    /// the centralized engine uses. `None` for a URI that names no peer, as
    /// with [`P2pSimulation::peer`]; the store is then left untouched.
    pub fn checkpoint_peer(
        &self,
        uri: &str,
        store: &Store,
        taxonomy: Taxonomy,
        catalog: Catalog,
        epoch: u64,
    ) -> Option<semrec_store::Result<CheckpointReport>> {
        let peer = self.peer(uri)?;
        let (community, _) = assemble_community(peer.view(), taxonomy, catalog);
        let engine = Recommender::new(community, RecommenderConfig::default());
        Some(store.checkpoint(&engine, peer.view(), epoch))
    }
}

/// Boots one peer (pure per-peer work; runs on bootstrap worker threads).
fn bootstrap_peer(
    web: &DocumentWeb,
    uri: &str,
    plan: &FaultPlan,
    config: &GossipConfig,
) -> PeerNode {
    let homepage = homepage_uri(uri);
    let dead = plan.is_dead(&homepage);
    let mut policy = config.policy;
    policy.jitter_seed = stable_hash(config.seed, uri, 0, SALT_POLICY);
    if dead {
        // An offline machine runs nothing: no crawl, no knowledge.
        return PeerNode::new(
            Arc::from(uri),
            homepage,
            true,
            Vec::new(),
            semrec_web::policy::CircuitBreaker::for_policy(&policy),
            config.ttl,
        );
    }
    let faulty = FaultyWeb::new(web, *plan);
    let crawl_config = CrawlConfig { max_range: config.crawl_range, threads: 1, ..CrawlConfig::default() };
    let (result, breaker) = crawl_resilient(&faulty, std::slice::from_ref(&homepage), &crawl_config, &policy);
    PeerNode::new(Arc::from(uri), homepage, false, result.agents, breaker, config.ttl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::centralized_baseline;
    use semrec_datagen::community::{generate_community, CommunityGenConfig};
    use semrec_web::publish::publish_community;

    fn world(seed: u64) -> (semrec_core::Community, DocumentWeb, Vec<String>) {
        let community = generate_community(&CommunityGenConfig::small(seed)).community;
        let web = DocumentWeb::new();
        publish_community(&community, &web);
        let mut uris: Vec<String> =
            community.agents().map(|a| community.agent(a).unwrap().uri.clone()).collect();
        uris.sort();
        (community, web, uris)
    }

    #[test]
    fn fault_free_swarm_converges_to_the_centralized_neighborhoods() {
        let (community, web, uris) = world(42);
        let config = GossipConfig { seed: 42, ..GossipConfig::default() };
        let mut sim = P2pSimulation::bootstrap(&web, &uris, FaultPlan::none(), config);
        let panel: Vec<String> = uris.iter().step_by(5).cloned().collect();
        let baseline = centralized_baseline(&community, &config.neighborhood, &panel, 10);
        let before = sim.convergence(&baseline);
        let mut prev = before.mean_overlap;
        for round in 1..=12 {
            sim.step();
            let c = sim.convergence(&baseline);
            println!(
                "round {round}: overlap {:.3} rho {:.3} known {:.1} msgs {}",
                c.mean_overlap, c.mean_rho, c.mean_known, sim.stats().messages_sent
            );
            assert!(c.mean_overlap >= prev - 1e-12, "overlap regressed at round {round}");
            prev = c.mean_overlap;
        }
        assert!(prev >= 0.9, "fault-free swarm must reach overlap >= 0.9, got {prev}");
        assert!(before.mean_overlap < prev, "gossip must improve on the bootstrap crawl alone");
    }
}
