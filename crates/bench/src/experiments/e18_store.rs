//! **E18 — Persistence & recovery** (snapshot + WAL replay): the restart
//! path, checked for identity after every refresh.
//!
//! A peer in §2's decentralized web that restarts from nothing must
//! re-derive the whole model — taxonomy assembly, trust graph, and every
//! Eq. 3 profile — before it can answer a single query. `semrec-store`
//! replaces that with a checkpointed warm start: load the newest snapshot
//! (no float is recomputed; profiles install from their persisted bits)
//! and replay the delta WAL through the live refresh path. This experiment
//! recovers after every appended refresh round, demonstrates the
//! compaction crossover (fold the WAL into a new snapshot → nothing is left
//! to replay), and runs a corruption sub-run (bit-flip the newest snapshot
//! → typed fallback to the previous generation, still byte-identical to
//! the live model). What the restart costs in wall time beside a cold
//! rebuild is `perf/`'s `store.recover_ms`, `store.snapshot_decode_ms` and
//! `store.wal_replay_ms` beside `core.model_build_ms`.
//!
//! The headline property checked on every row: **recover-then-serve is
//! byte-identical to never having restarted** — the recovered standing
//! view equals the live builder's view exactly, and a panel of agents
//! gets bit-for-bit identical recommendations.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use semrec_core::{AgentId, Recommender, RecommenderConfig};
use semrec_datagen::community::generate_community;
use semrec_eval::table::Table;
use semrec_store::{CompactionPolicy, Store};
use semrec_web::crawler::{crawl, refresh, CommunityBuilder, CrawlConfig};
use semrec_web::publish::{homepage_turtle, homepage_uri, publish_community};
use semrec_web::store::DocumentWeb;

use super::fingerprint;
use crate::Scale;

/// One recovery after `wal_records` appended refreshes.
#[derive(Clone, Debug)]
pub struct Row {
    /// Refresh round (1-based) — equals the WAL length at recovery time.
    pub round: usize,
    /// Agents this round's delta touched.
    pub touched: usize,
    /// WAL records the recovery replayed.
    pub wal_records: usize,
    /// WAL bytes on disk (excluding the header).
    pub wal_bytes: u64,
    /// Recovered model ≡ live model, bit for bit (view + panel scores).
    pub identical: bool,
}

/// Measured outcomes for shape assertions.
pub struct Outcome {
    /// Community size.
    pub agents: usize,
    /// Bytes of the first full snapshot.
    pub snapshot_bytes: u64,
    /// One row per refresh round.
    pub rows: Vec<Row>,
    /// Snapshot generation the compaction wrote.
    pub compacted_seq: u64,
    /// WAL records replayed by a recovery after compaction (must be 0).
    pub post_compaction_replayed: usize,
    /// Corrupt generations skipped in the corruption sub-run.
    pub fallback_skipped: usize,
    /// The fallback recovery still matched the live model bit for bit.
    pub fallback_identical: bool,
}

/// A unique scratch directory for one E18 run (no external tempfile crate).
fn scratch() -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("semrec-e18-{}-{n}", std::process::id()))
}

const CHURN: f64 = 0.05;

/// Runs E18.
pub fn run(scale: Scale) -> (Outcome, String) {
    let mut out =
        super::header("E18", "Persistence: snapshot + WAL replay, compaction, corruption fallback");
    let rounds = match scale {
        Scale::Small => 3,
        Scale::Medium => 5,
        Scale::Paper => 6,
    };

    let gen_config = scale.community(1818);
    let mut source = generate_community(&gen_config).community;
    let agents = source.agent_count();
    let products: Vec<_> = source.catalog.iter().collect();
    let seeds: Vec<String> =
        source.agents().map(|a| source.agent(a).unwrap().uri.clone()).collect();

    let web = DocumentWeb::new();
    publish_community(&source, &web);
    let crawl_config = CrawlConfig::default();
    let mut previous = crawl(&web, &seeds, &crawl_config);
    let mut builder = CommunityBuilder::new(&previous.agents);
    let (community, _) = builder.build(source.taxonomy.clone(), source.catalog.clone());
    let mut engine = Recommender::new(community, RecommenderConfig::default());
    let panel: Vec<AgentId> = engine.community().agents().take(32).collect();

    let store = Store::open(scratch()).expect("scratch store opens");
    let report = store.checkpoint(&engine, builder.agents(), 1).expect("checkpoint succeeds");
    let snapshot_bytes = report.snapshot_bytes;
    outln!(
        out,
        "{agents} agents, churn {CHURN:.2} × {rounds} rounds; snapshot 1 = {snapshot_bytes} bytes\n\
         (recovery after every appended refresh; panel of {} agents checked bit-for-bit)\n",
        panel.len(),
    );

    let mut rows = Vec::new();
    let mut rng = StdRng::seed_from_u64(1818);
    for round in 1..=rounds {
        // Churn: a fraction of agents re-rate one product and republish.
        let republishers = ((agents as f64 * CHURN) as usize).max(1);
        for _ in 0..republishers {
            let agent = AgentId::from_index(rng.random_range(0..agents));
            let product = products[rng.random_range(0..products.len())];
            let rating = -1.0 + 2.0 * rng.random::<f64>();
            source.set_rating(agent, product, rating).expect("valid synthetic rating");
            let uri = &source.agent(agent).unwrap().uri;
            web.publish(homepage_uri(uri), homepage_turtle(&source, agent), "text/turtle");
        }

        // Refresh → append the delta to the WAL → advance the live model.
        let result = refresh(&web, &seeds, &crawl_config, &previous);
        let delta = result.delta.clone().expect("refresh always diffs");
        let health = result.health();
        store.append_delta(&delta, &health).expect("append succeeds");
        builder.apply_delta(&delta);
        let (next, _) = builder.build(source.taxonomy.clone(), source.catalog.clone());
        let (advanced, _) = engine.advance(next, &delta.model_delta(), health);
        engine = advanced;
        previous = result;

        // Restart: newest snapshot + WAL replay.
        let recovery = store.recover().expect("recovery succeeds");
        let identical = recovery.view == builder.agents()
            && fingerprint(&recovery.engine, &panel) == fingerprint(&engine, &panel);

        rows.push(Row {
            round,
            touched: delta.touched(),
            wal_records: recovery.replayed,
            wal_bytes: store.wal_bytes().expect("wal stat")
                - semrec_store::wal_header().len() as u64,
            identical,
        });
    }

    let mut table = Table::new(["round", "touched", "wal recs", "wal bytes", "identical"]);
    for row in &rows {
        table.row([
            row.round.to_string(),
            row.touched.to_string(),
            row.wal_records.to_string(),
            row.wal_bytes.to_string(),
            if row.identical { "yes".into() } else { "NO".to_string() },
        ]);
    }
    outln!(out, "{}", table.render());

    // Compaction crossover: fold the WAL into snapshot 2; recovery is a
    // pure load again because nothing is left to replay.
    let strict = CompactionPolicy { max_wal_bytes: 1, max_wal_ratio: 0.0 };
    let compacted = store
        .compact_if_needed(&engine, builder.agents(), 1 + rounds as u64, &strict)
        .expect("compaction succeeds")
        .expect("an over-budget WAL compacts");
    let post_compaction_replayed =
        store.recover().expect("post-compaction recovery succeeds").replayed;
    outln!(
        out,
        "compaction: WAL folded into snapshot {} ({} bytes); recovery now replays {} records",
        compacted.seq, compacted.snapshot_bytes, post_compaction_replayed,
    );

    // Corruption sub-run: bit-flip the newest snapshot. Recovery must fall
    // back to generation 1 + its full WAL — and still match the live model.
    let newest = store.snapshot_path(compacted.seq);
    let mut bytes = std::fs::read(&newest).expect("snapshot readable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&newest, bytes).expect("snapshot writable");
    let fallback = store.recover().expect("fallback recovery succeeds");
    let fallback_skipped = fallback.skipped.len();
    let fallback_identical = fallback.view == builder.agents()
        && fingerprint(&fallback.engine, &panel) == fingerprint(&engine, &panel);
    outln!(
        out,
        "corruption sub-run: snapshot {} bit-flipped → skipped {} generation(s), fell back to\n\
         snapshot {} + {} WAL record(s); recovered ≡ live: {}",
        compacted.seq,
        fallback_skipped,
        fallback.snapshot_seq,
        fallback.replayed,
        if fallback_identical { "yes" } else { "NO" },
    );

    outln!(out, "\nRecovery skips the crawl, every parse, and every profile computation. The WAL");
    outln!(out, "grows with the appended deltas, not the world, and compaction resets replay to");
    outln!(out, "zero. Corruption of the newest generation degrades to the previous snapshot +");
    outln!(out, "WAL — still bit-for-bit the live model.");
    outln!(out, "\nStore::metrics() of the store every step above went through:");
    out += &super::books(&store.metrics());

    std::fs::remove_dir_all(store.dir()).ok();
    let outcome = Outcome {
        agents,
        snapshot_bytes,
        rows,
        compacted_seq: compacted.seq,
        post_compaction_replayed,
        fallback_skipped,
        fallback_identical,
    };
    (outcome, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_is_byte_identical_and_replay_scales_with_the_wal() {
        let (o, text) = run(Scale::Small);
        assert_eq!(o.rows.len(), 3);
        assert!(o.snapshot_bytes > 0);

        for row in &o.rows {
            assert!(row.identical, "recovery must be byte-identical: {row:?}");
            assert_eq!(row.wal_records, row.round, "one record per refresh: {row:?}");
        }
        // WAL grows monotonically with appended refreshes.
        for pair in o.rows.windows(2) {
            assert!(pair[1].wal_bytes > pair[0].wal_bytes, "{pair:?}");
        }

        // Compaction folds everything into generation 2 — nothing replays.
        assert_eq!(o.compacted_seq, 2);
        assert_eq!(o.post_compaction_replayed, 0);

        // The corruption sub-run skipped exactly the flipped generation and
        // still recovered the live model bit for bit.
        assert_eq!(o.fallback_skipped, 1);
        assert!(o.fallback_identical);
        super::super::assert_golden(&text);
    }
}
