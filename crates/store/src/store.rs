//! The on-disk store: snapshot files, their companion WALs, recovery, and
//! compaction.
//!
//! A store directory holds numbered generations:
//!
//! ```text
//! store/
//!   snapshot-000001.bin   wal-000001.log
//!   snapshot-000002.bin   wal-000002.log   ← newest pair: the live one
//! ```
//!
//! [`Store::checkpoint`] cuts `snapshot-<seq+1>.bin` (written to a temp
//! file and renamed, so a crash mid-write never leaves a half snapshot
//! under the live name) plus a fresh empty `wal-<seq+1>.log`; refreshes
//! then [`Store::append_delta`] onto that WAL. [`Store::recover`] walks
//! snapshots newest-first, skipping corrupt ones with a typed error and a
//! `store.recovery.fallback` count, then replays the surviving snapshot's
//! WAL through the exact live-refresh code path
//! (`CommunityBuilder::apply_delta` → `build` → `Recommender::advance`).
//! [`Store::compact_if_needed`] folds a WAL that outgrew the
//! [`CompactionPolicy`] into a fresh snapshot.
//!
//! Everything observable lands under the `store.*` names of the store's
//! own books, read with [`Store::metrics`] (see the README's persistence
//! metric table).

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use semrec_core::Recommender;
use semrec_obs::{Counter, Histogram, MetricsRegistry, MetricsSnapshot};
use semrec_web::crawler::CommunityBuilder;
use semrec_web::delta::CrawlDelta;
use semrec_web::extract::ExtractedAgent;
use semrec_core::SourceHealth;

use crate::arena::{decode_v2, encode_v2, RestoredModel};
use crate::error::{Error, Result};
use crate::wal::{decode_wal, encode_record, wal_header, WalRecord};

/// When to fold the live WAL into a fresh snapshot.
#[derive(Clone, Copy, Debug)]
pub struct CompactionPolicy {
    /// Compact once the WAL exceeds this many bytes, regardless of the
    /// snapshot's size.
    pub max_wal_bytes: u64,
    /// Compact once `wal bytes / snapshot bytes` exceeds this ratio —
    /// past it, replay work rivals a snapshot load and the log has
    /// stopped paying for itself.
    pub max_wal_ratio: f64,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy { max_wal_bytes: 1 << 22, max_wal_ratio: 0.5 }
    }
}

/// Outcome of one [`Store::checkpoint`] (or compaction).
#[derive(Clone, Debug)]
pub struct CheckpointReport {
    /// The generation number the snapshot was written as.
    pub seq: u64,
    /// Size of the snapshot file in bytes.
    pub snapshot_bytes: u64,
    /// Path of the snapshot file.
    pub path: PathBuf,
}

/// Outcome of one [`Store::recover`].
#[derive(Debug)]
pub struct Recovery {
    /// The recovered engine, advanced through every replayed WAL record.
    pub engine: Recommender,
    /// The standing extraction view after replay (feed to the next
    /// refresh).
    pub view: Vec<ExtractedAgent>,
    /// The serve epoch to warm-start at: the persisted epoch plus one per
    /// replayed record, since each appended refresh corresponds to one
    /// snapshot publish on the node that wrote the log.
    pub epoch: u64,
    /// Which snapshot generation answered.
    pub snapshot_seq: u64,
    /// The serve epoch stored in that snapshot (before replay).
    pub snapshot_epoch: u64,
    /// WAL records replayed on top of the snapshot.
    pub replayed: usize,
    /// Snapshots that failed to load, newest first, with the typed reason.
    /// Non-empty means recovery fell back at least once.
    pub skipped: Vec<(u64, Error)>,
    /// Why WAL replay stopped early (torn tail, or header damage that
    /// dropped the whole log), if it did.
    pub wal_error: Option<Error>,
}

impl Recovery {
    /// True when recovery had to fall back past a corrupt snapshot or
    /// drop a corrupt WAL.
    pub fn degraded(&self) -> bool {
        !self.skipped.is_empty() || self.wal_error.is_some()
    }
}

/// A durable checkpoint + WAL store rooted at one directory.
#[derive(Clone, Debug)]
pub struct Store {
    dir: PathBuf,
    /// This handle's books (clones share them).
    metrics: Arc<StoreMetrics>,
}

/// One handle per `store.*` name, resolved when the store is opened.
/// Counter and histogram namespaces are separate, so a timing may share
/// its counter's name.
#[derive(Debug)]
struct StoreMetrics {
    registry: MetricsRegistry,
    snapshot_write: Counter,
    snapshot_write_bytes: Counter,
    snapshot_write_seconds: Histogram,
    snapshot_load: Counter,
    snapshot_load_bytes: Counter,
    snapshot_load_seconds: Histogram,
    wal_appended: Counter,
    wal_appended_bytes: Counter,
    wal_replayed: Counter,
    wal_replay_seconds: Histogram,
    wal_compacted: Counter,
    recovery_fallback: Counter,
    recovery_seconds: Histogram,
}

impl StoreMetrics {
    fn new() -> Self {
        let registry = MetricsRegistry::new();
        let counter = |name: &str| registry.counter(name);
        StoreMetrics {
            snapshot_write: counter("store.snapshot.write"),
            snapshot_write_bytes: counter("store.snapshot.write.bytes"),
            snapshot_write_seconds: registry.histogram("store.snapshot.write"),
            snapshot_load: counter("store.snapshot.load"),
            snapshot_load_bytes: counter("store.snapshot.load.bytes"),
            snapshot_load_seconds: registry.histogram("store.snapshot.load"),
            wal_appended: counter("store.wal.appended"),
            wal_appended_bytes: counter("store.wal.appended.bytes"),
            wal_replayed: counter("store.wal.replayed"),
            wal_replay_seconds: registry.histogram("store.wal.replay"),
            wal_compacted: counter("store.wal.compacted"),
            recovery_fallback: counter("store.recovery.fallback"),
            recovery_seconds: registry.histogram("store.recovery"),
            registry,
        }
    }
}

impl Store {
    /// Opens (creating if needed) a store directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Store> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Store { dir, metrics: Arc::new(StoreMetrics::new()) })
    }

    /// What this handle wrote, loaded, replayed and fell back past, as
    /// `store.*` counters and timings: the sum of the reports its calls
    /// returned, and nothing another `Store` did.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.registry.snapshot()
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of a generation's snapshot file.
    pub fn snapshot_path(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("snapshot-{seq:06}.bin"))
    }

    /// Path of a generation's WAL file.
    pub fn wal_path(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("wal-{seq:06}.log"))
    }

    /// Every snapshot generation present, ascending.
    fn snapshot_seqs(&self) -> Result<Vec<u64>> {
        let mut seqs = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(seq) = name
                .strip_prefix("snapshot-")
                .and_then(|rest| rest.strip_suffix(".bin"))
                .and_then(|digits| digits.parse::<u64>().ok())
            {
                seqs.push(seq);
            }
        }
        seqs.sort_unstable();
        Ok(seqs)
    }

    /// The newest snapshot generation, if any.
    fn latest_seq(&self) -> Result<Option<u64>> {
        Ok(self.snapshot_seqs()?.last().copied())
    }

    /// Captures and durably writes the model as the next snapshot
    /// generation, with a fresh empty WAL beside it.
    ///
    /// Writes the one snapshot format: the model's flat arenas verbatim
    /// (see [`crate::arena`]), so recovery adopts them with bulk copies
    /// instead of re-deriving the model. A store written in another format
    /// version does not recover ([`Error::BadVersion`]); the node rebuilds
    /// it by crawling.
    ///
    /// Counts as `store.snapshot.write` / `store.snapshot.write.bytes`,
    /// timed under `store.snapshot.write`.
    pub fn checkpoint(
        &self,
        engine: &Recommender,
        view: &[ExtractedAgent],
        epoch: u64,
    ) -> Result<CheckpointReport> {
        let _span = self.metrics.snapshot_write_seconds.start_timer();
        let seq = self.latest_seq()?.unwrap_or(0) + 1;
        let bytes = encode_v2(engine, view, epoch);

        let path = self.snapshot_path(seq);
        write_atomically(&path, &bytes)?;
        write_atomically(&self.wal_path(seq), &wal_header())?;

        self.metrics.snapshot_write.inc();
        self.metrics.snapshot_write_bytes.add(bytes.len() as u64);
        Ok(CheckpointReport { seq, snapshot_bytes: bytes.len() as u64, path })
    }

    /// Appends one refresh — its emitted [`CrawlDelta`] and post-refresh
    /// [`SourceHealth`] — to the newest generation's WAL. Returns the
    /// record's sequence number within the log.
    ///
    /// This is how the `semrec-web` refresh path persists its delta: the
    /// caller that ran `refresh`/`refresh_resilient` hands the
    /// `CrawlResult`'s delta and health straight here (see experiment
    /// E18). Counts as `store.wal.appended` / `store.wal.appended.bytes`.
    pub fn append_delta(&self, delta: &CrawlDelta, health: &SourceHealth) -> Result<u64> {
        let seq = self.latest_seq()?.ok_or(Error::NoSnapshot)?;
        let (seq, bytes) = append_record(&self.wal_path(seq), delta, health)?;
        self.metrics.wal_appended.inc();
        self.metrics.wal_appended_bytes.add(bytes);
        Ok(seq)
    }

    /// Recovers the model: newest loadable snapshot + WAL replay.
    ///
    /// Snapshots that fail to read, decode, or restore are skipped with
    /// their typed error ([`Recovery::skipped`]) and a
    /// `store.recovery.fallback` bump. The surviving snapshot's WAL is
    /// replayed through the live refresh code path; a torn tail replays
    /// the valid prefix and a header-corrupt WAL replays nothing, either
    /// way surfacing the typed cause in [`Recovery::wal_error`] (the
    /// latter also counts as a fallback — snapshot+WAL degraded to
    /// snapshot-only). When no generation loads, errs with the newest
    /// generation's reason (a store holding only a snapshot of another
    /// format version says [`Error::BadVersion`]); [`Error::NoSnapshot`]
    /// means the directory holds no snapshot file at all.
    ///
    /// Counts `store.snapshot.load` / `store.snapshot.load.bytes` and one
    /// `store.wal.replayed` per replayed record, timed under
    /// `store.recovery`.
    pub fn recover(&self) -> Result<Recovery> {
        let _span = self.metrics.recovery_seconds.start_timer();
        let mut skipped = Vec::new();
        for seq in self.snapshot_seqs()?.into_iter().rev() {
            match self.load_snapshot(seq) {
                Ok(restored) => return self.replay(seq, restored, skipped),
                Err(e) => {
                    self.metrics.recovery_fallback.inc();
                    skipped.push((seq, e));
                }
            }
        }
        Err(skipped.into_iter().next().map_or(Error::NoSnapshot, |(_, newest)| newest))
    }

    /// Loads one snapshot generation straight into a live model with
    /// [`decode_v2`]; its errors are typed.
    fn load_snapshot(&self, seq: u64) -> Result<RestoredModel> {
        let _span = self.metrics.snapshot_load_seconds.start_timer();
        let bytes = fs::read(self.snapshot_path(seq))?;
        let restored = decode_v2(&bytes)?;
        self.metrics.snapshot_load.inc();
        self.metrics.snapshot_load_bytes.add(bytes.len() as u64);
        Ok(restored)
    }

    fn replay(
        &self,
        seq: u64,
        restored: RestoredModel,
        skipped: Vec<(u64, Error)>,
    ) -> Result<Recovery> {
        let snapshot_epoch = restored.epoch;
        let mut engine = restored.engine;
        let mut view = restored.view;

        let wal_path = self.wal_path(seq);
        let (records, mut wal_error) = if wal_path.exists() {
            match decode_wal(&fs::read(&wal_path)?) {
                Ok(readout) => (readout.records, readout.torn),
                Err(fatal) => {
                    // The whole log is untrusted: snapshot-only recovery.
                    self.metrics.recovery_fallback.inc();
                    (Vec::new(), Some(fatal))
                }
            }
        } else {
            (Vec::new(), None)
        };

        // A record that passed its checksum is still not trusted to continue
        // this log (FNV-1a is not a MAC, and frames can be spliced between
        // logs): replay stops before the first one that is out of sequence
        // or names an agent the view does not hold.
        let mut replayed = 0u64;
        for record in &records {
            let _span = self.metrics.wal_replay_seconds.start_timer();
            let mut builder = CommunityBuilder::new(&view);
            let unplaced = builder.apply_delta(&record.delta);
            if record.seq != replayed + 1 || unplaced > 0 {
                wal_error = Some(Error::Corrupt(format!(
                    "wal record {} (sequence {}, {unplaced} diffs for agents not in the view) \
                     does not continue the log",
                    replayed + 1,
                    record.seq
                )));
                break;
            }
            let community = engine.community();
            let (next, _stats) =
                builder.build(community.taxonomy.clone(), community.catalog.clone());
            let (advanced, _stats) = engine.advance(next, &record.delta.model_delta(), record.health);
            engine = advanced;
            view = builder.agents().to_vec();
            replayed += 1;
            self.metrics.wal_replayed.inc();
        }

        Ok(Recovery {
            engine,
            view,
            epoch: snapshot_epoch + replayed,
            snapshot_seq: seq,
            snapshot_epoch,
            replayed: replayed as usize,
            skipped,
            wal_error,
        })
    }

    /// Bytes of the newest generation's WAL (0 when absent).
    pub fn wal_bytes(&self) -> Result<u64> {
        match self.latest_seq()? {
            Some(seq) => file_len(&self.wal_path(seq)),
            None => Ok(0),
        }
    }

    /// Bytes of the newest snapshot (0 when absent).
    pub fn snapshot_bytes(&self) -> Result<u64> {
        match self.latest_seq()? {
            Some(seq) => file_len(&self.snapshot_path(seq)),
            None => Ok(0),
        }
    }

    /// True when the newest WAL has outgrown the policy.
    pub fn should_compact(&self, policy: &CompactionPolicy) -> Result<bool> {
        let wal = self.wal_bytes()?;
        if wal > policy.max_wal_bytes {
            return Ok(true);
        }
        let snapshot = self.snapshot_bytes()?;
        Ok(snapshot > 0 && wal as f64 / snapshot as f64 > policy.max_wal_ratio)
    }

    /// Folds the live state (the caller's current engine/view/epoch —
    /// i.e. the WAL already applied) into a fresh snapshot generation
    /// with an empty WAL, if the policy says the log has grown too long.
    ///
    /// Counts as `store.wal.compacted` when it compacts.
    pub fn compact_if_needed(
        &self,
        engine: &Recommender,
        view: &[ExtractedAgent],
        epoch: u64,
        policy: &CompactionPolicy,
    ) -> Result<Option<CheckpointReport>> {
        if !self.should_compact(policy)? {
            return Ok(None);
        }
        let report = self.checkpoint(engine, view, epoch)?;
        self.metrics.wal_compacted.inc();
        Ok(Some(report))
    }
}

fn file_len(path: &Path) -> Result<u64> {
    match fs::metadata(path) {
        Ok(meta) => Ok(meta.len()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
        Err(e) => Err(e.into()),
    }
}

/// Appends one refresh to the WAL file at `path` (created with its header
/// when missing), numbered after the records already there. Returns the
/// record's sequence number and its framed size in bytes.
///
/// A torn tail or header damage is returned as the error it is: an append
/// onto a torn log would hide the tear.
pub fn append_record(path: &Path, delta: &CrawlDelta, health: &SourceHealth) -> Result<(u64, u64)> {
    let mut existing = 0;
    if path.exists() {
        let readout = decode_wal(&fs::read(path)?)?;
        if let Some(torn) = readout.torn {
            return Err(torn);
        }
        existing = readout.records.len() as u64;
    }
    let record = WalRecord { seq: existing + 1, delta: delta.clone(), health: *health };
    let framed = encode_record(&record);
    append_framed(path, &wal_header(), &framed)?;
    Ok((record.seq, framed.len() as u64))
}

/// Appends framed bytes to the log at `path` and syncs them, writing
/// `header` first when the file is new or empty.
pub fn append_framed(path: &Path, header: &[u8], framed: &[u8]) -> Result<()> {
    let mut file = fs::OpenOptions::new().create(true).append(true).open(path)?;
    if file.metadata()?.len() == 0 {
        file.write_all(header)?;
    }
    file.write_all(framed)?;
    file.sync_all()?;
    Ok(())
}

/// Writes via a temp file + rename, so the target name never holds a
/// partial file. (Same-directory rename keeps it on one filesystem.)
pub fn write_atomically(path: &Path, bytes: &[u8]) -> Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    Ok(())
}
