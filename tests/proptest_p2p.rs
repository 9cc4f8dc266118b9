//! Gossip determinism and convergence properties (the `semrec-p2p`
//! contract):
//!
//! 1. **Byte-identity across runs and thread counts** — a simulation is a
//!    pure function of `(world, fault plan, config)`: rerunning it, or
//!    running it with 1, 2, or 8 worker threads, reproduces every `p2p.*`
//!    counter, every per-peer knowledge count, and every neighborhood
//!    score bit-for-bit, faults included.
//!
//! 2. **Monotone learning, exact convergence** — on a fault-free world
//!    whose trust graph is connected, knowledge only grows round over
//!    round, and once every peer has learned every record its local
//!    neighborhood *equals* the centralized one: overlap@k and Spearman ρ
//!    both reach 1.0 exactly (weights round-trip through Turtle
//!    losslessly, and peers insert nodes in the same sorted-URI order the
//!    centralized assembly uses).
//!
//! 3. **Per-peer checkpoints recover** — a peer's `semrec-store`
//!    checkpoint of its crawled slice recovers to the same community a
//!    fresh assembly of that slice builds.

use proptest::prelude::*;
use semrec::core::Community;
use semrec::p2p::{centralized_baseline, GossipConfig, P2pSimulation};
use semrec::taxonomy::fixtures::example1;
use semrec::web::fault::FaultPlan;
use semrec::web::publish::publish_community;
use semrec::web::store::DocumentWeb;
use semrec::AgentId;

/// A connected world: a trust ring over `n` agents (so every agent is
/// reachable from every other) plus arbitrary extra edges. URIs are
/// zero-padded so insertion order equals sorted order — the invariant that
/// lets a fully-informed peer rebuild the centralized graph node-for-node.
fn build_world(n: usize, ring: &[f64], extra: &[(usize, usize, f64)]) -> Community {
    let e = example1();
    let mut c = Community::new(e.fig.taxonomy, e.catalog);
    let agents: Vec<AgentId> =
        (0..n).map(|i| c.add_agent(format!("http://ex.org/u{i:02}")).unwrap()).collect();
    for i in 0..n {
        c.trust.set_trust(agents[i], agents[(i + 1) % n], ring[i % ring.len()]).unwrap();
    }
    for &(a, b, w) in extra {
        let (a, b) = (a % n, b % n);
        if a != b {
            c.trust.set_trust(agents[a], agents[b], w).unwrap();
        }
    }
    c
}

type World = (usize, Vec<f64>, Vec<(usize, usize, f64)>);

fn arb_world() -> impl Strategy<Value = World> {
    (4usize..10).prop_flat_map(|n| {
        (
            Just(n),
            prop::collection::vec(0.05f64..=1.0, 1..8),
            prop::collection::vec((0..n, 0..n, 0.05f64..=1.0), 0..16),
        )
    })
}

fn publish(community: &Community) -> (DocumentWeb, Vec<String>) {
    let web = DocumentWeb::new();
    publish_community(community, &web);
    let mut uris: Vec<String> =
        community.agents().map(|a| community.agent(a).unwrap().uri.clone()).collect();
    uris.sort();
    (web, uris)
}

/// Everything a run can observably produce, in comparable form: the
/// simulation's own `p2p.*` books (its `GossipStats` among them), per-peer
/// knowledge counts, and every neighborhood score's bits.
type Fingerprint =
    (std::collections::BTreeMap<String, u64>, Vec<usize>, Vec<Vec<(String, u64)>>);

fn fingerprint(sim: &P2pSimulation, config: &GossipConfig) -> Fingerprint {
    let counters = sim.metrics().counters;
    let known: Vec<usize> = sim.peers().iter().map(|p| p.known_count()).collect();
    let hoods: Vec<Vec<(String, u64)>> = sim
        .peers()
        .iter()
        .map(|p| {
            p.neighborhood(&config.neighborhood)
                .into_iter()
                .map(|(u, score)| (u.to_string(), score.to_bits()))
                .collect()
        })
        .collect();
    (counters, known, hoods)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property 1: same world, same config ⇒ same bytes, whatever the
    /// thread count, and however often we rerun — faults and all.
    #[test]
    fn gossip_is_byte_identical_across_runs_and_thread_counts(
        (n, ring, extra) in arb_world(),
        transient in 0.0f64..0.5,
        dead in 0.0f64..0.3,
    ) {
        let community = build_world(n, &ring, &extra);
        let (web, uris) = publish(&community);
        let plan = FaultPlan { transient_rate: transient, dead_rate: dead, seed: 7, ..FaultPlan::none() };

        let mut fingerprints: Vec<Fingerprint> = Vec::new();
        // threads=1 twice: run-to-run stability, not just thread-count.
        for threads in [1usize, 2, 8, 1] {
            let config = GossipConfig {
                seed: 11,
                threads,
                max_records: 8,
                ..GossipConfig::default()
            };
            let mut sim = P2pSimulation::bootstrap(&web, &uris, plan, config);
            sim.run(4);
            fingerprints.push(fingerprint(&sim, &config));
        }
        for other in &fingerprints[1..] {
            prop_assert_eq!(&fingerprints[0], other);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property 2: fault-free gossip only learns (knowledge counts are
    /// monotone), and full knowledge means the *exact* centralized answer.
    #[test]
    fn fault_free_gossip_learns_monotonically_and_converges_exactly(
        (n, ring, extra) in arb_world(),
    ) {
        let community = build_world(n, &ring, &extra);
        let (web, uris) = publish(&community);
        let config = GossipConfig {
            seed: 5,
            fanout: 2,
            max_records: 64,
            ..GossipConfig::default()
        };
        let baseline = centralized_baseline(&community, &config.neighborhood, &uris, 5);

        let mut sim = P2pSimulation::bootstrap(&web, &uris, FaultPlan::none(), config);
        let at_bootstrap = sim.convergence(&baseline);
        let mut last_known: usize = sim.peers().iter().map(|p| p.known_count()).sum();
        let mut last_sent = 0u64;
        let mut rounds = 0u32;
        while sim.peers().iter().any(|p| p.known_count() < n) && rounds < 48 {
            sim.step();
            rounds += 1;
            let known: usize = sim.peers().iter().map(|p| p.known_count()).sum();
            prop_assert!(known >= last_known, "gossip forgot records in round {rounds}");
            last_known = known;
            let sent = sim.stats().messages_sent;
            prop_assert!(sent > last_sent, "every round must exchange messages");
            last_sent = sent;
        }
        prop_assert!(
            sim.peers().iter().all(|p| p.known_count() == n),
            "a connected swarm must reach full knowledge ({} rounds run)", rounds
        );

        let converged = sim.convergence(&baseline);
        prop_assert!(converged.mean_overlap >= 1.0 - 1e-12,
            "full knowledge must reproduce the centralized top-k exactly, got {}",
            converged.mean_overlap);
        prop_assert!(converged.mean_rho >= 1.0 - 1e-12,
            "full knowledge must reproduce the centralized ranking exactly, got {}",
            converged.mean_rho);
        prop_assert!(converged.mean_overlap >= at_bootstrap.mean_overlap - 1e-12);
    }
}

#[test]
fn per_peer_checkpoints_recover_the_local_slice() {
    use semrec::store::Store;
    use semrec::web::crawler::assemble_community;

    let community = build_world(6, &[0.9, 0.3, 0.7], &[(0, 2, 0.5), (3, 1, 0.8)]);
    let (web, uris) = publish(&community);
    let config = GossipConfig { seed: 3, ..GossipConfig::default() };
    let mut sim = P2pSimulation::bootstrap(&web, &uris, FaultPlan::none(), config);
    sim.run(2);

    let dir = std::env::temp_dir().join(format!("semrec-p2p-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).unwrap();
    let e = example1();
    let report = sim.checkpoint_peer(&uris[0], &store, e.fig.taxonomy, e.catalog, 1).unwrap();
    assert!(report.snapshot_bytes > 0);

    let recovery = store.recover().unwrap();
    let peer = sim.peer(&uris[0]).unwrap();
    let e = example1();
    let (expected, _) = assemble_community(peer.view(), e.fig.taxonomy, e.catalog);
    assert_eq!(recovery.engine.community().agent_count(), expected.agent_count());
    assert_eq!(recovery.replayed, 0, "no WAL was written, recovery is snapshot-only");
    let _ = std::fs::remove_dir_all(&dir);
}
