//! # semrec-store — durable checkpoints, delta WAL, and crash-recoverable warm starts
//!
//! The paper's decentralized architecture (§2, §4.1) assumes peers that
//! appear, disappear, and come back; a node that must re-crawl the world
//! from nothing on every restart cannot rejoin cheaply. This crate is the
//! persistence layer under the pipeline: a **versioned, checksummed binary
//! snapshot** of the full model (standing extraction view, taxonomy,
//! catalog, config, source health, materialized profiles, serve epoch)
//! plus an **append-only WAL of [`CrawlDelta`](semrec_web::delta::CrawlDelta)
//! records** between snapshots. Std-only, consistent with the workspace's
//! vendored-deps constraint. Three pieces:
//!
//! * **[`encode_v2`] / [`decode_v2`]** — one full model generation as its
//!   flat arenas, the one snapshot format: the writer and the one restore
//!   path. No float is ever re-derived on load. A build reads only the
//!   format version it writes; the published documents, not a node's
//!   private store, are the source of truth, so a store written in another
//!   version is rebuilt by a crawl.
//! * **[`WalRecord`] / [`decode_wal`]** — per-record framed, checksummed
//!   deltas over the one frame layer ([`wal::frame`], [`wal::read_frames`])
//!   that `semrec-shard`'s logs ride too. A crash mid-append leaves a torn
//!   tail: the valid prefix replays, the tear surfaces as a typed error.
//! * **[`Store`]** — the directory of numbered snapshot/WAL pairs:
//!   [`checkpoint`](Store::checkpoint), [`append_delta`](Store::append_delta),
//!   [`recover`](Store::recover) (newest loadable snapshot + replay, with
//!   typed-error fallback past corrupt generations), and
//!   [`compact_if_needed`](Store::compact_if_needed).
//!
//! ## The headline guarantee
//!
//! **Recover-then-serve is byte-identical to never having restarted.**
//! A model recovered from snapshot+WAL answers every recommendation
//! bit-for-bit like the live model it mirrors, and a server warm-started
//! with [`Recovery::epoch`] (`semrec_serve::Server::start_at`) keeps the
//! epoch-keyed cache semantics of the node that wrote the log. Nothing in
//! this crate panics on corrupted input: bad magic, unsupported versions,
//! truncation, checksum mismatches, and semantically impossible states
//! all come back as typed [`Error`] variants, and recovery falls back to
//! the previous good snapshot (or, when none loads, returns the newest
//! one's reason).
//!
//! Everything observable lands in the books of the [`Store`] that did it,
//! under the `store.*` names [`Store::metrics`] reads (see the README's
//! persistence metric table).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod codec;
pub mod error;
#[allow(clippy::module_inception)]
pub mod store;
#[cfg(test)]
mod testkit;
pub mod wal;

pub use arena::{decode_v2, encode_v2, RestoredModel, SNAPSHOT_MAGIC, SNAPSHOT_V2};
pub use error::{Error, Result};
pub use store::{CheckpointReport, CompactionPolicy, Recovery, Store};
pub use wal::{decode_wal, encode_record, wal_header, WalReadout, WalRecord, WAL_MAGIC, WAL_VERSION};

#[cfg(test)]
mod tests {
    use semrec_core::SourceHealth;
    use semrec_taxonomy::fixtures::example1;
    use semrec_web::crawler::CommunityBuilder;
    use semrec_web::delta::{AgentDiff, CrawlDelta};

    use super::*;
    use crate::testkit::{render, resealed, scratch, world};

    #[test]
    fn checkpoint_recover_round_trip_is_byte_identical() {
        let (engine, view) = world();
        let store = Store::open(scratch("roundtrip")).unwrap();
        let report = store.checkpoint(&engine, &view, 3).unwrap();
        assert_eq!(report.seq, 1);
        assert!(report.snapshot_bytes > 0);

        let recovery = store.recover().unwrap();
        assert_eq!(recovery.snapshot_seq, 1);
        assert_eq!(recovery.epoch, 3, "no WAL records → the persisted epoch");
        assert_eq!(recovery.replayed, 0);
        assert!(!recovery.degraded());
        assert_eq!(recovery.view, view);
        assert_eq!(render(&recovery.engine), render(&engine));
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn wal_replay_equals_the_live_advance() {
        let (engine, view) = world();
        let store = Store::open(scratch("replay")).unwrap();
        store.checkpoint(&engine, &view, 1).unwrap();

        // Two refresh rounds on the live node, each appended to the WAL.
        let catalog = example1().catalog;
        let target = catalog.product(catalog.iter().next().unwrap()).identifier.clone();
        let mut live = engine;
        let mut live_view = view;
        for round in 0..2u64 {
            let delta = CrawlDelta {
                changed: vec![AgentDiff {
                    uri: format!("http://ex.org/u{round}"),
                    ratings_set: vec![(target.clone(), 0.25 + round as f64 / 10.0)],
                    ..AgentDiff::default()
                }],
                unchanged: live_view.len() - 1,
                ..CrawlDelta::default()
            };
            let health = SourceHealth { attempted: 6, fetched: 6, ..Default::default() };
            store.append_delta(&delta, &health).unwrap();
            let mut builder = CommunityBuilder::new(&live_view);
            builder.apply_delta(&delta);
            let c = live.community();
            let (next, _) = builder.build(c.taxonomy.clone(), c.catalog.clone());
            let (advanced, _) = live.advance(next, &delta.model_delta(), health);
            live = advanced;
            live_view = builder.agents().to_vec();
        }

        let recovery = store.recover().unwrap();
        assert_eq!(recovery.replayed, 2);
        assert_eq!(recovery.epoch, 3, "epoch 1 + one publish per replayed record");
        assert!(!recovery.degraded());
        assert_eq!(recovery.view, live_view);
        assert_eq!(
            render(&recovery.engine),
            render(&live),
            "snapshot+WAL recovery must be byte-identical to never restarting"
        );
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_the_previous_good_one() {
        let (engine, view) = world();
        let store = Store::open(scratch("fallback")).unwrap();
        store.checkpoint(&engine, &view, 1).unwrap();
        store.checkpoint(&engine, &view, 5).unwrap();

        // Bit-flip the newest snapshot's body.
        let path = store.snapshot_path(2);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, bytes).unwrap();

        let recovery = store.recover().unwrap();
        assert_eq!(recovery.snapshot_seq, 1, "must fall back past the corrupt generation");
        assert_eq!(recovery.skipped.len(), 1);
        assert!(
            matches!(recovery.skipped[0].1, Error::ChecksumMismatch { .. }),
            "{:?}",
            recovery.skipped[0].1
        );
        assert!(recovery.degraded());
        assert_eq!(render(&recovery.engine), render(&engine));
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn torn_wal_tail_replays_the_valid_prefix() {
        let (engine, view) = world();
        let store = Store::open(scratch("torn")).unwrap();
        store.checkpoint(&engine, &view, 1).unwrap();
        let catalog = example1().catalog;
        let target = catalog.product(catalog.iter().next().unwrap()).identifier.clone();
        let delta = CrawlDelta {
            changed: vec![AgentDiff {
                uri: "http://ex.org/u0".into(),
                ratings_set: vec![(target, 0.5)],
                ..AgentDiff::default()
            }],
            unchanged: view.len() - 1,
            ..CrawlDelta::default()
        };
        let health = SourceHealth::default();
        store.append_delta(&delta, &health).unwrap();
        store.append_delta(&delta, &health).unwrap();

        // Tear the last record mid-payload.
        let path = store.wal_path(1);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

        let recovery = store.recover().unwrap();
        assert_eq!(recovery.replayed, 1, "the intact prefix replays");
        assert!(matches!(recovery.wal_error, Some(Error::Truncated { .. })));
        assert_eq!(recovery.epoch, 2);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn bad_version_wal_recovers_snapshot_only() {
        let (engine, view) = world();
        let store = Store::open(scratch("walversion")).unwrap();
        store.checkpoint(&engine, &view, 4).unwrap();
        let delta = CrawlDelta { unchanged: view.len(), ..CrawlDelta::default() };
        store.append_delta(&delta, &SourceHealth::default()).unwrap();

        let path = store.wal_path(1);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] = 0xEE; // version byte
        std::fs::write(&path, bytes).unwrap();

        let recovery = store.recover().unwrap();
        assert_eq!(recovery.replayed, 0, "an untrusted log replays nothing");
        assert!(matches!(recovery.wal_error, Some(Error::BadVersion { found: 0xEE, .. })));
        assert_eq!(render(&recovery.engine), render(&engine));
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn empty_store_and_walless_appends_are_typed_errors() {
        let store = Store::open(scratch("empty")).unwrap();
        assert!(matches!(store.recover(), Err(Error::NoSnapshot)));
        let delta = CrawlDelta::default();
        assert!(matches!(
            store.append_delta(&delta, &SourceHealth::default()),
            Err(Error::NoSnapshot)
        ));
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn compaction_folds_the_wal_into_a_fresh_generation() {
        let (engine, view) = world();
        let store = Store::open(scratch("compact")).unwrap();
        store.checkpoint(&engine, &view, 1).unwrap();
        let delta = CrawlDelta { unchanged: view.len(), ..CrawlDelta::default() };
        store.append_delta(&delta, &SourceHealth::default()).unwrap();

        let lenient = CompactionPolicy::default();
        assert!(!store.should_compact(&lenient).unwrap());
        assert!(store
            .compact_if_needed(&engine, &view, 2, &lenient)
            .unwrap()
            .is_none());

        let strict = CompactionPolicy { max_wal_bytes: 1, max_wal_ratio: 0.0 };
        let report = store
            .compact_if_needed(&engine, &view, 2, &strict)
            .unwrap()
            .expect("an over-budget WAL must compact");
        assert_eq!(report.seq, 2);
        assert_eq!(store.wal_bytes().unwrap(), wal_header().len() as u64);
        let recovery = store.recover().unwrap();
        assert_eq!(recovery.snapshot_seq, 2);
        assert_eq!(recovery.replayed, 0);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    /// A store whose only snapshot is of another format version says so,
    /// rather than that it holds no snapshot.
    #[test]
    fn a_store_of_another_format_version_fails_recovery_with_that_version() {
        let (engine, view) = world();
        let store = Store::open(scratch("version")).unwrap();
        store.checkpoint(&engine, &view, 1).unwrap();
        let path = store.snapshot_path(1);
        let older = resealed(&std::fs::read(&path).unwrap(), 8, &1u32.to_le_bytes());
        std::fs::write(&path, older).unwrap();
        assert!(matches!(
            store.recover(),
            Err(Error::BadVersion { expected: SNAPSHOT_V2, found: 1 })
        ));
        std::fs::remove_dir_all(store.dir()).ok();
    }

    /// A record whose checksum is right but whose diff names an agent the
    /// view never held (FNV-1a is not a MAC; frames can be spliced between
    /// logs): replay keeps the valid prefix and reports the rest as
    /// corruption. It used to trip a `debug_assert!` inside `apply_delta`.
    #[test]
    fn checksum_valid_record_for_an_unknown_agent_stops_replay_with_a_typed_error() {
        let (engine, view) = world();
        let store = Store::open(scratch("stranger")).unwrap();
        store.checkpoint(&engine, &view, 1).unwrap();
        let diff = |uri: &str| CrawlDelta {
            changed: vec![AgentDiff {
                uri: uri.into(),
                trust_set: vec![("http://ex.org/u3".into(), 0.5)],
                ..AgentDiff::default()
            }],
            ..CrawlDelta::default()
        };
        let health = SourceHealth::default();
        store.append_delta(&diff("http://ex.org/u0"), &health).unwrap();
        store.append_delta(&diff("http://ex.org/stranger"), &health).unwrap();
        store.append_delta(&diff("http://ex.org/u1"), &health).unwrap();

        let recovery = store.recover().unwrap();
        assert_eq!(recovery.replayed, 1, "the valid prefix replays, nothing past the stranger");
        assert_eq!(recovery.epoch, 2);
        assert!(matches!(recovery.wal_error, Some(Error::Corrupt(_))), "{:?}", recovery.wal_error);
        assert!(recovery.degraded());
        std::fs::remove_dir_all(store.dir()).ok();
    }
}
