//! Gossip determinism and convergence properties (the `semrec-p2p`
//! contract):
//!
//! 1. **Byte-identity across runs and thread counts** — a simulation is a
//!    pure function of `(world, fault plan, config)`: rerunning it, or
//!    running it with 1, 2, or 8 worker threads, reproduces every `p2p.*`
//!    counter, every per-peer knowledge count, and every neighborhood
//!    score bit-for-bit, faults included.
//!
//! 2. **Monotone learning** — on a fault-free world knowledge only grows
//!    round over round, and every round exchanges messages unless no agent
//!    states any trust (a truster's partners are the agents it knows of).
//!    (That a fully informed peer's neighborhood *is* the centralized one,
//!    bit for bit, is a row of `tests/conformance.rs`.)
//!
//! 3. **Per-peer checkpoints recover** — a peer's `semrec-store`
//!    checkpoint of its crawled slice recovers to the same community a
//!    fresh assembly of that slice builds.

use proptest::prelude::*;
use semrec::p2p::{GossipConfig, P2pSimulation};
use semrec::taxonomy::fixtures::example1;
use semrec::web::fault::FaultPlan;

mod common;
use common::{arb_world, publish, scratch, World};

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
        world in arb_world(),
        transient in 0.0f64..0.5,
        dead in 0.0f64..0.3,
    ) {
        let community = world.community();
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
    /// monotone), and exchanges messages every round.
    #[test]
    fn fault_free_gossip_learns_monotonically(world in arb_world()) {
        let community = world.community();
        let (n, stated) = (community.agent_count(), community.trust.edge_count() > 0);
        let (web, uris) = publish(&community);
        let config = GossipConfig {
            seed: 5,
            fanout: 2,
            max_records: 64,
            ..GossipConfig::default()
        };
        let mut sim = P2pSimulation::bootstrap(&web, &uris, FaultPlan::none(), config);
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
            prop_assert!(sent > last_sent || !stated, "every round must exchange messages");
            last_sent = sent;
        }
    }
}

#[test]
fn per_peer_checkpoints_recover_the_local_slice() {
    use semrec::store::Store;
    use semrec::web::crawler::assemble_community;

    let trust = vec![(0, 2, 0.5), (3, 1, 0.8)];
    let ring = Some(vec![0.9, 0.3, 0.7]);
    let community = World { agents: 6, trust, ratings: Vec::new(), ring }.community();
    let (web, uris) = publish(&community);
    let config = GossipConfig { seed: 3, ..GossipConfig::default() };
    let mut sim = P2pSimulation::bootstrap(&web, &uris, FaultPlan::none(), config);
    sim.run(2);

    let store = Store::open(scratch("p2p-checkpoint")).unwrap();
    let e = example1();
    let unknown = "http://nowhere.example.org/nobody#me";
    assert!(sim.checkpoint_peer(unknown, &store, e.fig.taxonomy, e.catalog, 1).is_none());
    let written = std::fs::read_dir(store.dir()).unwrap().count();
    assert_eq!(written, 0, "an unknown peer writes nothing to the store");

    let e = example1();
    let report =
        sim.checkpoint_peer(&uris[0], &store, e.fig.taxonomy, e.catalog, 1).unwrap().unwrap();
    assert!(report.snapshot_bytes > 0);

    let recovery = store.recover().unwrap();
    let peer = sim.peer(&uris[0]).unwrap();
    let e = example1();
    let (expected, _) = assemble_community(peer.view(), e.fig.taxonomy, e.catalog);
    assert_eq!(recovery.engine.community().agent_count(), expected.agent_count());
    assert_eq!(recovery.replayed, 0, "no WAL was written, recovery is snapshot-only");
    std::fs::remove_dir_all(store.dir()).ok();
}
