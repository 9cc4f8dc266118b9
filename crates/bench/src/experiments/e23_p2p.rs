//! **E23 — Peer-to-peer gossip neighborhood formation** (§2, the
//! decentralized deployment with no central crawler): every agent runs its
//! own node — a bounded local crawl plus deterministic push/pull gossip —
//! and we measure how fast the swarm's neighborhoods converge on what a
//! centralized crawl of the same world would compute.
//!
//! Three sub-runs over one published community:
//!
//! 1. **Fault-free convergence** — overlap@10 and Spearman ρ against the
//!    centralized baseline after every gossip round, plus message and
//!    bandwidth counters. The claim: overlap rises monotonically with
//!    rounds and crosses 0.9 well within the round budget.
//! 2. **30% fault plan** — the same swarm under 30% transient
//!    unavailability with 10% of peers permanently dead: convergence slows
//!    and plateaus below the fault-free curve (dead peers take knowledge
//!    with them), but degrades smoothly — no collapse — while circuit
//!    breakers quarantine the dead.
//! 3. **Fan-out sweep** — the bandwidth/latency trade: more partners per
//!    round buys faster convergence for proportionally more messages.

use semrec_datagen::community::generate_community;
use semrec_eval::table::{fmt, Table};
use semrec_p2p::{centralized_baseline, Baseline, GossipConfig, P2pSimulation};
use semrec_web::fault::FaultPlan;
use semrec_web::policy::FetchPolicy;
use semrec_web::publish::publish_community;
use semrec_web::store::DocumentWeb;

use crate::Scale;

/// One measured gossip round.
#[derive(Clone, Debug)]
pub struct Row {
    /// Rounds executed so far (0 = right after the bootstrap crawls).
    pub round: u32,
    /// Mean overlap@10 with the centralized neighborhoods.
    pub overlap: f64,
    /// Mean Spearman rank correlation with the centralized neighborhoods.
    pub rho: f64,
    /// Mean agent records known per measured peer.
    pub known: f64,
    /// Cumulative messages dispatched.
    pub messages: u64,
    /// Cumulative payload kilobytes delivered.
    pub kbytes: u64,
}

/// One fan-out sweep row.
#[derive(Clone, Debug)]
pub struct FanoutRow {
    /// Partners contacted per peer per round.
    pub fanout: usize,
    /// Mean overlap@10 after the (shorter) round budget.
    pub overlap: f64,
    /// Messages dispatched in total.
    pub messages: u64,
}

/// Measured rows for shape assertions.
pub struct Outcome {
    /// Per-round convergence on the fault-free world.
    pub fault_free: Vec<Row>,
    /// Per-round convergence under the 30% fault plan.
    pub faulty: Vec<Row>,
    /// Final overlap per swept fan-out (fault-free, fixed rounds).
    pub fanout: Vec<FanoutRow>,
    /// Gossip-phase breaker opens in the faulty sub-run.
    pub breaker_opens_faulty: u64,
    /// Permanently dead peers in the faulty sub-run.
    pub dead_peers: usize,
}

const ROUNDS: u32 = 12;
const SWEEP_ROUNDS: u32 = 6;
const K: usize = 10;

/// Runs E23.
pub fn run(scale: Scale) -> (Outcome, String) {
    let mut out =
        super::header("E23", "P2P gossip neighborhood formation (§2 — decentralized deployment)");
    let community = generate_community(&scale.community(2323)).community;
    let web = DocumentWeb::new();
    publish_community(&community, &web);

    let mut uris: Vec<String> =
        community.agents().map(|a| community.agent(a).unwrap().uri.clone()).collect();
    uris.sort();
    let step = (uris.len() / 48).max(1);
    let panel: Vec<String> = uris.iter().step_by(step).cloned().collect();

    // Tighten the breaker relative to the library default: with the
    // threshold at the crawl's attempt budget, a dead trustee's failed
    // bootstrap crawl opens its breaker right away, and the shorter
    // cooldown lets gossip-phase half-open probes fail (and re-open it)
    // well inside the round budget.
    let policy =
        FetchPolicy { breaker_threshold: 4, breaker_cooldown: 64, ..FetchPolicy::default() };
    let config = GossipConfig { seed: 23, policy, ..GossipConfig::default() };
    let baseline = centralized_baseline(&community, &config.neighborhood, &panel, K);
    outln!(
        out,
        "{} peers (one node per agent), bounded local crawl range {}, fan-out {},\n\
         message cap {} records, measured panel of {} peers against the centralized\n\
         top-{} neighborhoods\n",
        uris.len(),
        config.crawl_range,
        config.fanout,
        config.max_records,
        panel.len(),
        K,
    );

    // Sub-run 1: fault-free convergence.
    outln!(out, "--- fault-free world ---");
    let (fault_free, _) =
        converge(&mut out, &web, &uris, FaultPlan::none(), config, &baseline, ROUNDS);

    // Sub-run 2: the 30% fault plan (plus 10% dead peers).
    outln!(out, "--- 30% transient faults, 10% dead peers ---");
    let plan = FaultPlan { transient_rate: 0.3, dead_rate: 0.1, seed: 2323, ..FaultPlan::none() };
    let (faulty, faulty_sim) = converge(&mut out, &web, &uris, plan, config, &baseline, ROUNDS);
    let breaker_opens_faulty = faulty_sim.stats().breaker_opens;
    let dead_peers = faulty_sim.peers().iter().filter(|p| p.is_dead()).count();
    outln!(
        out,
        "{} dead peers; {} exchanges failed, {} suppressed by open breakers, {} gossip-phase breaker opens\n",
        dead_peers,
        faulty_sim.stats().messages_failed,
        faulty_sim.stats().messages_suppressed,
        breaker_opens_faulty,
    );
    outln!(out, "P2pSimulation::metrics() of that swarm:");
    outln!(out, "{}", super::books(&faulty_sim.metrics()));

    // Sub-run 3: fan-out sweep on the fault-free world.
    outln!(out, "--- fan-out sweep (fault-free, {SWEEP_ROUNDS} rounds) ---");
    let mut sweep_table = Table::new(["fan-out", "overlap@10", "messages", "kB sent"]);
    let mut fanout_rows = Vec::new();
    for fanout in [1usize, 2, 4, 6] {
        let mut sim = P2pSimulation::bootstrap(
            &web,
            &uris,
            FaultPlan::none(),
            GossipConfig { fanout, ..config },
        );
        sim.run(SWEEP_ROUNDS);
        let c = sim.convergence(&baseline);
        let stats = sim.stats();
        sweep_table.row([
            fanout.to_string(),
            fmt(c.mean_overlap),
            stats.messages_sent.to_string(),
            (stats.bytes_sent / 1024).to_string(),
        ]);
        fanout_rows.push(FanoutRow {
            fanout,
            overlap: c.mean_overlap,
            messages: stats.messages_sent,
        });
    }
    outln!(out, "{}", sweep_table.render());

    outln!(out, "Gossip floods knowledge along trust edges, so the records that matter for a");
    outln!(out, "peer's own neighborhood arrive first: overlap@10 climbs monotonically and");
    outln!(out, "crosses 0.9 within a few rounds at fan-out 3. Under the 30% fault plan the");
    outln!(out, "same curve flattens — dead peers never answer and breakers quarantine them —");
    outln!(out, "but it degrades smoothly instead of collapsing. Fan-out trades bandwidth for");
    outln!(out, "convergence speed almost linearly.");

    (Outcome { fault_free, faulty, fanout: fanout_rows, breaker_opens_faulty, dead_peers }, out)
}

/// Boots a swarm, gossips `rounds` rounds, measures after each, and appends
/// the table to `out`.
fn converge(
    out: &mut String,
    web: &DocumentWeb,
    uris: &[String],
    plan: FaultPlan,
    config: GossipConfig,
    baseline: &Baseline,
    rounds: u32,
) -> (Vec<Row>, P2pSimulation) {
    let mut sim = P2pSimulation::bootstrap(web, uris, plan, config);
    let mut table =
        Table::new(["round", "overlap@10", "rank corr", "known/peer", "messages", "kB sent"]);
    let mut rows = Vec::new();
    for round in 0..=rounds {
        if round > 0 {
            sim.step();
        }
        let c = sim.convergence(baseline);
        let stats = sim.stats();
        let row = Row {
            round,
            overlap: c.mean_overlap,
            rho: c.mean_rho,
            known: c.mean_known,
            messages: stats.messages_sent,
            kbytes: stats.bytes_sent / 1024,
        };
        table.row([
            row.round.to_string(),
            fmt(row.overlap),
            fmt(row.rho),
            format!("{:.1}", row.known),
            row.messages.to_string(),
            row.kbytes.to_string(),
        ]);
        rows.push(row);
    }
    outln!(out, "{}", table.render());
    (rows, sim)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gossip_converges_monotonically_and_degrades_smoothly() {
        let (o, text) = run(Scale::Small);

        // Fault-free: overlap@10 rises monotonically with rounds, improves
        // on the bootstrap crawl alone, and crosses 0.9 in the budget.
        let ff = &o.fault_free;
        assert_eq!(ff.len(), ROUNDS as usize + 1);
        for pair in ff.windows(2) {
            assert!(
                pair[1].overlap >= pair[0].overlap - 1e-12,
                "overlap regressed between rounds {} and {}: {} -> {}",
                pair[0].round,
                pair[1].round,
                pair[0].overlap,
                pair[1].overlap
            );
            assert!(pair[1].messages > pair[0].messages, "every round must send messages");
        }
        assert!(ff.last().unwrap().overlap >= 0.9, "fault-free swarm must reach 0.9");
        assert!(ff.last().unwrap().overlap > ff[0].overlap, "gossip must beat crawl-only");
        assert!(ff.last().unwrap().rho > ff[0].rho, "rank correlation must improve too");

        // Faulty: degraded relative to fault-free but nowhere near collapse,
        // with breakers actually engaging against the dead peers.
        let faulty_final = o.faulty.last().unwrap();
        let ff_final = ff.last().unwrap();
        assert!(o.dead_peers > 0, "a 10% dead rate must kill someone");
        assert!(faulty_final.overlap <= ff_final.overlap + 1e-12);
        assert!(
            faulty_final.overlap >= 0.5,
            "a 30% fault plan must degrade smoothly, not collapse: {}",
            faulty_final.overlap
        );
        assert!(faulty_final.overlap > o.faulty[0].overlap, "gossip still helps under faults");
        assert!(o.breaker_opens_faulty > 0, "breakers must open against dead peers");

        // Fan-out: more partners, more messages, at least as much coverage.
        let first = o.fanout.first().unwrap();
        let last = o.fanout.last().unwrap();
        assert!(last.messages > first.messages);
        assert!(last.overlap >= first.overlap - 1e-12);
        super::super::assert_golden(&text);
    }
}
