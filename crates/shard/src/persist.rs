//! Per-shard durable persistence: one `semrec-store` snapshot/WAL
//! generation per shard, plus two logs the unsharded store has no need
//! for — the global **directory** (ordinal → URI → shard) and each shard's
//! **boundary view** (trust statements whose trustee lives on another
//! shard, which must not enter the shard-local snapshot because the local
//! community has no agent to attach them to).
//!
//! Layout under the root directory — this is its one home; the frame and
//! WAL-record layouts are `semrec_store::wal`'s:
//!
//! ```text
//! root/
//!   directory.bin          framed log, "SEMRECDR" version 1
//!   shard-000/
//!     snapshot-000001.bin  ordinary semrec-store generation
//!     wal-000001.log
//!     boundary.bin         ordinary WAL file over the boundary view
//!   shard-001/ …
//! ```
//!
//! Each shard's snapshot view is its members **sorted by URI** with trust
//! filtered to local members, so a shard snapshot is a completely ordinary
//! `semrec-store` checkpoint: `Store::recover` replays it through the live
//! refresh path with no sharding knowledge at all. The boundary view is the
//! other half of the same members: one `ExtractedAgent { uri, trust:
//! <trustees on other shards> }` per member — every member, so a later
//! `changed` diff always finds its agent — written as one `added` record at
//! a checkpoint, appended to with the crossing half of each owner's
//! sub-delta, and folded at recovery by `CommunityBuilder::apply_delta`,
//! the fold the shard's own WAL replays through.
//!
//! A directory frame is `shards: u32`, then ops to the end of the frame:
//! `0 | uri | shard: u32` (assign; first appearance fixes the ordinal) or
//! `1 | uri` (remove). A checkpoint rewrites the log as one frame assigning
//! every agent. The shard count is read from here, so `shard-NNN`
//! directories left by an earlier, wider checkpoint are ignored.
//!
//! Trust statements pointing at agents outside the universe are dropped at
//! persistence time (the unsharded builder would register them as bare
//! dangling agents; a sharded universe has no shard to own them).

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use semrec_core::{ProfileStore, Recommender, SharedModel, SourceHealth};
use semrec_obs::{Counter, Histogram, MetricsRegistry, MetricsSnapshot};
use semrec_profiles::ProfileVector;
use semrec_store::codec::{Reader, Writer};
use semrec_store::store::{append_framed, append_record, write_atomically};
use semrec_store::wal::{decode_wal, encode_record, frame, log_header, read_frames, wal_header};
use semrec_store::{CheckpointReport, Error, Result, Store, WalRecord};
use semrec_web::{AgentDiff, CommunityBuilder, CrawlDelta, ExtractedAgent};

use crate::model::{Ghost, Shard, ShardedModel, Target, Trustee};
use crate::partition::{Directory, GlobalId, ShardFn};

const DIRECTORY_MAGIC: &[u8; 8] = b"SEMRECDR";
const DIRECTORY_VERSION: u32 = 1;

/// Outcome of a [`ShardedStore::recover`].
pub struct ShardedRecovery {
    /// The reassembled sharded model.
    pub model: ShardedModel,
    /// The highest per-shard serve epoch recovered (shards that saw more
    /// WAL records warm-start further ahead).
    pub epoch: u64,
    /// WAL records replayed across all shards.
    pub replayed: usize,
    /// True when any shard's recovery fell back past corruption, or the
    /// directory or a boundary log lost a torn tail.
    pub degraded: bool,
}

/// A durable sharded store rooted at one directory: one `semrec-store`
/// per shard plus the directory and boundary logs.
#[derive(Clone, Debug)]
pub struct ShardedStore {
    root: PathBuf,
    /// This handle's books (clones share them).
    metrics: Arc<ShardedStoreMetrics>,
}

/// One handle per `shard.store.*` name, resolved when the store is opened.
#[derive(Debug)]
struct ShardedStoreMetrics {
    registry: MetricsRegistry,
    checkpoints: Counter,
    checkpoint_seconds: Histogram,
    wal_appended: Counter,
    recovered: Counter,
    recover_seconds: Histogram,
}

impl ShardedStore {
    /// Opens (creating if needed) a sharded store root.
    pub fn open(root: impl Into<PathBuf>) -> Result<ShardedStore> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        let registry = MetricsRegistry::new();
        let metrics = ShardedStoreMetrics {
            checkpoints: registry.counter("shard.store.checkpoints"),
            checkpoint_seconds: registry.histogram("shard.store.checkpoint"),
            wal_appended: registry.counter("shard.store.wal.appended"),
            recovered: registry.counter("shard.store.recovered"),
            recover_seconds: registry.histogram("shard.store.recover"),
            registry,
        };
        Ok(ShardedStore { root, metrics: Arc::new(metrics) })
    }

    /// Shard snapshots cut, shard WALs appended to and shards recovered
    /// through this handle, as `shard.store.*` counters and timings.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.registry.snapshot()
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn shard_dir(&self, shard: usize) -> PathBuf {
        self.root.join(format!("shard-{shard:03}"))
    }

    fn directory_path(&self) -> PathBuf {
        self.root.join("directory.bin")
    }

    fn boundary_path(&self, shard: usize) -> PathBuf {
        self.shard_dir(shard).join("boundary.bin")
    }

    /// Number of shards of the newest checkpoint, as its directory log
    /// records it.
    pub fn shard_count(&self) -> Result<usize> {
        Ok(self.read_directory()?.0)
    }

    /// Durably checkpoints every shard as its next snapshot generation and
    /// rewrites the directory and boundary logs to match.
    pub fn checkpoint(
        &self,
        model: &ShardedModel,
        epoch: u64,
    ) -> Result<Vec<CheckpointReport>> {
        let _span = self.metrics.checkpoint_seconds.start_timer();
        let n = model.shard_count();
        let mut ops = Writer::new();
        ops.put_u32(n as u32);
        for (_, uri, shard) in model.directory().iter() {
            put_assign(&mut ops, uri, shard);
        }
        let bytes = [log_header(DIRECTORY_MAGIC, DIRECTORY_VERSION), frame(ops.as_bytes())].concat();
        write_atomically(&self.directory_path(), &bytes)?;

        let mut reports = Vec::with_capacity(n);
        for s in 0..n {
            let (view, vectors, boundary) = local_view(model, s);
            let dir = self.shard_dir(s);
            fs::create_dir_all(&dir)?;
            let base = WalRecord {
                seq: 1,
                delta: CrawlDelta { added: boundary, ..CrawlDelta::default() },
                health: SourceHealth::default(),
            };
            let bytes = [wal_header(), encode_record(&base)].concat();
            write_atomically(&self.boundary_path(s), &bytes)?;

            // The shard snapshot is an ordinary single-node checkpoint of
            // the local model, rebuilt in the view's URI-sorted numbering.
            let global = model.shard(s).community();
            let (community, _) = CommunityBuilder::new(&view)
                .build(global.taxonomy.clone(), global.catalog.clone());
            let profiles = ProfileStore::from_profiles(vectors, model.config().profile);
            let shared =
                SharedModel::from_parts(community, profiles, *model.config(), SourceHealth::default());
            let engine = Recommender::from_shared(Arc::new(shared));
            let store = Store::open(&dir)?;
            reports.push(store.checkpoint(&engine, &view, epoch)?);
            self.metrics.checkpoints.inc();
        }
        Ok(reports)
    }

    /// Splits a crawl delta by owning shard, each owner's part again into
    /// the statements that stay on the shard and those that cross to
    /// another, and appends each non-empty local part to its shard's WAL,
    /// each non-empty crossing part to its boundary log, and the membership
    /// changes to the directory log. A leaver takes the statements about it
    /// with it: those of its own shard's members as `trust_removed` diffs
    /// in that shard's part, the crossing ones by dropping out of the
    /// directory. Returns the number of shard WALs touched — untouched
    /// shards pay nothing and replay nothing at recovery.
    pub fn append_delta(
        &self,
        model: &ShardedModel,
        delta: &CrawlDelta,
        health: &SourceHealth,
    ) -> Result<usize> {
        let n = model.shard_count();
        let directory = model.directory();
        // Agents added this round may trust each other; resolve their
        // shards up front so sibling references don't count as unknown.
        let added_shard: HashMap<&str, u32> = delta
            .added
            .iter()
            .map(|a| {
                let shard = directory
                    .by_uri(&a.uri)
                    .map(|g| directory.shard_of(g))
                    .unwrap_or_else(|| model.shard_fn().route(&a.uri, n));
                (a.uri.as_str(), shard)
            })
            .collect();
        let owner = |uri: &str| -> Option<usize> {
            directory
                .by_uri(uri)
                .map(|g| directory.shard_of(g))
                .or_else(|| added_shard.get(uri).copied())
                .map(|shard| shard as usize)
        };

        let leaving: HashSet<&str> = delta.removed.iter().map(String::as_str).collect();

        // An agent's statements, split into those that stay on its shard `s`
        // and those that cross to another; any about an agent outside the
        // universe, or leaving it with this delta, is dropped.
        let split = |s: usize, trust: &[(String, f64)]| {
            let staying = |trustee: &str| owner(trustee).is_some() && !leaving.contains(trustee);
            let known = trust.iter().filter(|(trustee, _)| staying(trustee)).cloned();
            known.partition::<Vec<_>, _>(|(trustee, _)| owner(trustee) == Some(s))
        };

        let mut local: Vec<CrawlDelta> = vec![CrawlDelta::default(); n];
        let mut remote: Vec<CrawlDelta> = vec![CrawlDelta::default(); n];
        let mut ops = Writer::new();
        ops.put_u32(n as u32);
        let no_ops = ops.offset();

        for agent in &delta.added {
            let s = added_shard[agent.uri.as_str()] as usize;
            let (here, there) = split(s, &agent.trust);
            put_assign(&mut ops, &agent.uri, s as u32);
            local[s].added.push(ExtractedAgent { trust: here, ..agent.clone() });
            let uri = agent.uri.clone();
            remote[s].added.push(ExtractedAgent { uri, trust: there, ..Default::default() });
        }

        for diff in &delta.changed {
            // A leaver's own diff would not find it at replay.
            if leaving.contains(diff.uri.as_str()) {
                continue;
            }
            let Some(s) = owner(&diff.uri) else { continue };
            let (set_here, set_there) = split(s, &diff.trust_set);
            // A removal is a no-op for the side that never held the edge, so
            // one whose trustee is remote — or already gone from the
            // directory — goes to both.
            let crossing = diff.trust_removed.iter().filter(|trustee| owner(trustee) != Some(s));
            let there = AgentDiff {
                uri: diff.uri.clone(),
                trust_set: set_there,
                trust_removed: crossing.cloned().collect(),
                ..AgentDiff::default()
            };
            if there.trust_dirty() {
                remote[s].changed.push(there);
            }
            local[s].changed.push(AgentDiff { trust_set: set_here, ..diff.clone() });
        }

        for uri in &delta.removed {
            let Some(s) = owner(uri) else { continue };
            // The shard holds the leaver's in-edges from its own members;
            // their statements about it go with it, or the shard's view
            // would register the leaver again as a dangling trustee.
            let community = model.shard(s).community();
            if let Some(leaver) = community.agent_by_uri(uri) {
                for &truster in community.trust.trusters_of(leaver) {
                    let truster = &community.agent(truster).expect("dense").uri;
                    if !leaving.contains(truster.as_str()) {
                        local[s].changed.push(AgentDiff {
                            uri: truster.clone(),
                            trust_removed: vec![uri.clone()],
                            ..AgentDiff::default()
                        });
                    }
                }
            }
            local[s].removed.push(uri.clone());
            remote[s].removed.push(uri.clone());
            ops.put_u8(1);
            ops.put_str(uri);
        }

        if ops.offset() > no_ops {
            let header = log_header(DIRECTORY_MAGIC, DIRECTORY_VERSION);
            append_framed(&self.directory_path(), &header, &frame(ops.as_bytes()))?;
        }
        let mut touched = 0;
        for (s, (local, remote)) in local.iter().zip(&remote).enumerate() {
            if !remote.is_empty() {
                append_record(&self.boundary_path(s), remote, health)?;
            }
            if local.is_empty() {
                continue;
            }
            Store::open(self.shard_dir(s))?.append_delta(local, health)?;
            self.metrics.wal_appended.inc();
            touched += 1;
        }
        Ok(touched)
    }

    /// Recovers the sharded model: per-shard snapshot + WAL replay through
    /// the ordinary `semrec-store` path, then the universe is re-stitched
    /// from the directory and boundary logs.
    pub fn recover(&self, shard_fn: Arc<dyn ShardFn>) -> Result<ShardedRecovery> {
        let _span = self.metrics.recover_seconds.start_timer();
        let (n, directory, mut degraded) = self.read_directory()?;

        // `n` is as trustworthy as a checksum: nothing is sized by it until
        // that many shards have actually been found on disk.
        let mut recoveries = Vec::new();
        for s in 0..n {
            let (boundary, torn) = read_boundary(&self.boundary_path(s))?;
            degraded |= torn;
            recoveries.push((Store::open(self.shard_dir(s))?.recover()?, boundary));
        }

        // Cross-validate directory against the recovered memberships.
        let mut local_of = vec![u32::MAX; directory.len()];
        let mut owned = vec![0usize; n];
        for (g, uri, shard) in directory.iter() {
            let community = recoveries[shard as usize].0.engine.community();
            match community.agent_by_uri(uri) {
                Some(local) => local_of[g.index()] = local.index() as u32,
                None => {
                    return Err(Error::Corrupt(format!(
                        "directory lists {uri} on shard {shard}, which does not hold it"
                    )))
                }
            }
            owned[shard as usize] += 1;
        }
        for (s, (recovery, _)) in recoveries.iter().enumerate() {
            let have = recovery.engine.community().agent_count();
            if have != owned[s] {
                return Err(Error::Corrupt(format!(
                    "shard {s} holds {have} agents but the directory assigns it {}",
                    owned[s]
                )));
            }
        }

        let config = *recoveries[0].0.engine.config();
        let mut epoch = 0;
        let mut replayed = 0;
        let mut shards = Vec::with_capacity(n);
        for (s, (recovery, boundary)) in recoveries.iter().enumerate() {
            epoch = epoch.max(recovery.epoch);
            replayed += recovery.replayed;
            degraded |= recovery.degraded();
            let shard = stitch_shard(s, recovery, boundary.agents(), &directory, &local_of);
            shards.push(Arc::new(shard));
            self.metrics.recovered.inc();
        }
        let model = ShardedModel::from_shards(shards, directory, local_of, config, shard_fn);
        Ok(ShardedRecovery { model, epoch, replayed, degraded })
    }

    /// Folds the directory log into the shard count, the live agents in
    /// first-appearance order (= recovered ordinal order), and whether a
    /// torn tail was dropped.
    fn read_directory(&self) -> Result<(usize, Directory, bool)> {
        let bytes = match fs::read(self.directory_path()) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(Error::NoSnapshot),
            read => read?,
        };
        let (payloads, torn) = read_frames(&bytes, DIRECTORY_MAGIC, DIRECTORY_VERSION)?;
        let mut shards = None;
        let mut order: Vec<String> = Vec::new();
        let mut live: HashMap<String, Option<u32>> = HashMap::new();
        for payload in payloads {
            let mut r = Reader::new(payload, "directory frame");
            let n = r.get_u32()?;
            if n == 0 || *shards.get_or_insert(n) != n {
                return Err(Error::Corrupt(format!("directory frame for {n} shards")));
            }
            while !r.is_exhausted() {
                match r.get_u8()? {
                    0 => {
                        let uri = r.get_str()?;
                        let shard = r.get_u32()?;
                        if shard >= n {
                            return Err(Error::Corrupt(format!(
                                "directory routes {uri} to shard {shard} of {n}"
                            )));
                        }
                        if !live.contains_key(&uri) {
                            order.push(uri.clone());
                        }
                        live.insert(uri, Some(shard));
                    }
                    1 => {
                        live.insert(r.get_str()?, None);
                    }
                    tag => return Err(Error::Corrupt(format!("directory op tag {tag}"))),
                }
            }
        }
        // Not even the checkpoint's own frame survived.
        let Some(shards) = shards else { return Err(torn.unwrap_or(Error::NoSnapshot)) };
        let mut directory = Directory::default();
        for uri in order {
            if let Some(shard) = live.get(&uri).copied().flatten() {
                directory.push(uri, shard);
            }
        }
        Ok((shards as usize, directory, torn.is_some()))
    }
}

/// Appends a directory frame's assign op.
fn put_assign(ops: &mut Writer, uri: &str, shard: u32) {
    ops.put_u8(0);
    ops.put_str(uri);
    ops.put_u32(shard);
}

/// Folds a shard's boundary log into its boundary view, and says whether a
/// torn tail was dropped. A record that passed its checksum but does not
/// continue the log — out of sequence, or a diff for an agent the view
/// never held — is refused, as is any folded weight no statement may carry.
fn read_boundary(path: &Path) -> Result<(CommunityBuilder, bool)> {
    let readout = decode_wal(&fs::read(path)?)?;
    let mut view = CommunityBuilder::default();
    for (i, record) in readout.records.iter().enumerate() {
        if record.seq != i as u64 + 1 || view.apply_delta(&record.delta) > 0 {
            return Err(Error::Corrupt(format!(
                "record {} of {} (sequence {}) does not continue the boundary view",
                i + 1,
                path.display(),
                record.seq
            )));
        }
    }
    // A boundary weight goes straight into a shard's out-star, past
    // `TrustGraph::set_trust`, so that function's check is applied here: a
    // finite value in `[-1, 1]` (a NaN is in no range). The trust metric
    // relies on it — an infinite weight would turn every share of the star
    // into `inf / inf`.
    for agent in view.agents() {
        for (trustee, weight) in &agent.trust {
            if !(-1.0..=1.0).contains(weight) {
                return Err(Error::Corrupt(format!(
                    "boundary edge {} -> {trustee} carries weight {weight}, outside [-1, 1]",
                    agent.uri
                )));
            }
        }
    }
    Ok((view, readout.torn.is_some()))
}

/// Rebuilds one shard from its recovered engine plus its boundary view
/// (sorted by URI, as `CommunityBuilder` keeps it).
fn stitch_shard(
    me: usize,
    recovery: &semrec_store::Recovery,
    boundary: &[ExtractedAgent],
    directory: &Directory,
    local_of: &[u32],
) -> Shard {
    let community = recovery.engine.community().clone();
    let profiles = recovery.engine.profiles().clone();
    let globals: Vec<GlobalId> = community
        .agents()
        .map(|local| {
            let uri = &community.agent(local).expect("dense").uri;
            directory.by_uri(uri).expect("validated against directory")
        })
        .collect();
    let mut stars = Vec::with_capacity(globals.len());
    for local in community.agents() {
        let uri = &community.agent(local).expect("dense").uri;
        let mut star: Vec<(GlobalId, f64, Trustee)> = community
            .trust
            .out_edges(local)
            .iter()
            .map(|&(trustee, weight)| (globals[trustee.index()], weight, Trustee::Local(trustee)))
            .collect();
        if let Ok(at) = boundary.binary_search_by(|a| a.uri.as_str().cmp(uri)) {
            for (trustee, weight) in &boundary[at].trust {
                // Edges to agents that left the universe (or moved onto
                // this shard through a later repartition) are dropped.
                let Some(g) = directory.by_uri(trustee) else { continue };
                let shard = directory.shard_of(g);
                if shard as usize == me || local_of[g.index()] == u32::MAX {
                    continue;
                }
                let ghost = Ghost { shard, local: local_of[g.index()] };
                star.push((g, *weight, Trustee::Remote(ghost)));
            }
        }
        stars.push(star);
    }
    let power = recovery.engine.config().neighborhood.appleseed.spreading_power;
    Shard::assemble(community, profiles, globals, stars, power, recovery.epoch)
}

/// Derives one shard's snapshot inputs: the URI-sorted local extraction
/// view, the profile vectors in that order, and the boundary view.
fn local_view(
    model: &ShardedModel,
    s: usize,
) -> (Vec<ExtractedAgent>, Vec<ProfileVector>, Vec<ExtractedAgent>) {
    let shard = model.shard(s);
    let community = shard.community();
    let directory = model.directory();
    let mut items: Vec<(ExtractedAgent, ProfileVector)> = Vec::with_capacity(shard.len());
    let mut boundary = Vec::with_capacity(shard.len());
    for local in community.agents() {
        let uri = community.agent(local).expect("dense").uri.clone();
        let mut trust = Vec::new();
        let mut remote = Vec::new();
        for edge in &shard.outstar[local.index()] {
            let trustee = directory.uri(edge.global).to_string();
            match edge.target {
                Target::Local(_) => trust.push((trustee, edge.weight)),
                Target::Remote { .. } => remote.push((trustee, edge.weight)),
            }
        }
        trust.sort_by(|a, b| a.0.cmp(&b.0));
        remote.sort_by(|a, b| a.0.cmp(&b.0));
        let mut ratings: Vec<(String, f64)> = community
            .ratings_of(local)
            .iter()
            .map(|&(product, score)| {
                (community.catalog.product(product).identifier.clone(), score)
            })
            .collect();
        ratings.sort_by(|a, b| a.0.cmp(&b.0));
        boundary.push(ExtractedAgent { uri: uri.clone(), trust: remote, ..Default::default() });
        let agent = ExtractedAgent { uri, trust, ratings, ..Default::default() };
        items.push((agent, shard.profiles().profile(local).to_vector()));
    }
    items.sort_by(|a, b| a.0.uri.cmp(&b.0.uri));
    boundary.sort_by(|a, b| a.uri.cmp(&b.uri));
    let (view, vectors) = items.into_iter().unzip();
    (view, vectors, boundary)
}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::HashShardFn;
    use semrec_core::{Community, ModelDelta, RecommenderConfig};
    use semrec_store::codec::for_each_mutation;
    use semrec_taxonomy::fixtures::example1;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "semrec-shard-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn uri(i: usize) -> String {
        format!("http://persist.example.org/{i}#me")
    }

    /// Nine agents on two trust rings, and a tenth whom nobody trusts.
    fn world() -> Community {
        let e = example1();
        let products: Vec<_> = e.catalog.iter().collect();
        let mut c = Community::new(e.fig.taxonomy, e.catalog);
        let ids: Vec<_> = (0..10).map(|i| c.add_agent(uri(i)).unwrap()).collect();
        for (i, &a) in ids.iter().enumerate() {
            c.set_rating(a, products[i % products.len()], 0.7).unwrap();
            c.trust.set_trust(a, ids[(i + 1) % 9], 1.0).unwrap();
            c.trust.set_trust(a, ids[(i + 4) % 9], 0.5).unwrap();
        }
        c
    }

    fn partitioned(c: &Community, shards: usize) -> ShardedModel {
        ShardedModel::partition(c, RecommenderConfig::default(), Arc::new(HashShardFn), shards, 1).0
    }

    /// A store under a fresh root holding one checkpoint of `world()`.
    fn checkpointed(tag: &str, shards: usize) -> (ShardedStore, ShardedModel) {
        let model = partitioned(&world(), shards);
        let store = ShardedStore::open(temp_root(tag)).unwrap();
        store.checkpoint(&model, 1).unwrap();
        (store, model)
    }

    fn assert_serves_the_same(want: &ShardedModel, got: &ShardedModel) {
        assert_eq!(want.agent_count(), got.agent_count());
        for g in 0..want.agent_count() {
            let uri = want.directory().uri(GlobalId(g as u32));
            let want = want.recommend_by_uri(uri, 5).unwrap();
            let got = got.recommend_by_uri(uri, 5).unwrap();
            assert_eq!(want.len(), got.len(), "list length for {uri}");
            for (w, g) in want.iter().zip(&got) {
                assert_eq!(w.product, g.product, "product for {uri}");
                assert_eq!(w.score.to_bits(), g.score.to_bits(), "score bits for {uri}");
            }
        }
    }

    #[test]
    fn checkpoint_recover_round_trips_recommendations() {
        let (store, model) = checkpointed("roundtrip", 3);
        let recovery = store.recover(Arc::new(HashShardFn)).unwrap();
        assert!(!recovery.degraded);
        assert_serves_the_same(&model, &recovery.model);
        let _ = fs::remove_dir_all(store.root());
    }

    /// Agent 0 re-values, drops and adds statements towards every other
    /// agent — on its own shard and across the boundary — and the store,
    /// fed the crawl-level delta, recovers to what the live model advanced
    /// to.
    #[test]
    fn trust_delta_across_the_boundary_recovers_to_the_live_advance() {
        let (store, model) = checkpointed("trustdelta", 3);
        let c = world();
        let ids: Vec<_> = c.agents().collect();
        let shard_of = |i: usize| model.directory().shard_of(GlobalId(i as u32));
        let mut next = c.clone();
        let mut diff = AgentDiff { uri: uri(0), ..AgentDiff::default() };
        let (mut local, mut remote) = (0, 0);
        for j in 1..ids.len() {
            match (c.trust.trust(ids[0], ids[j]), j % 2) {
                (Some(_), 0) => {
                    next.trust.remove_trust(ids[0], ids[j]);
                    diff.trust_removed.push(uri(j));
                }
                _ => {
                    next.trust.set_trust(ids[0], ids[j], 0.25).unwrap();
                    diff.trust_set.push((uri(j), 0.25));
                }
            }
            if shard_of(j) == shard_of(0) { local += 1 } else { remote += 1 }
        }
        assert!(local > 0 && remote > 0, "the delta must land on both sides of the boundary");

        let crawl = CrawlDelta { changed: vec![diff], ..CrawlDelta::default() };
        let touched = store.append_delta(&model, &crawl, &SourceHealth::default()).unwrap();
        assert_eq!(touched, 1);
        let delta = ModelDelta { ratings_changed: Vec::new(), trust_changed: vec![uri(0)] };
        let (live, _) = model.advance(&next, &delta);

        let recovery = store.recover(Arc::new(HashShardFn)).unwrap();
        assert!(!recovery.degraded);
        assert_eq!(recovery.replayed, 1);
        assert_serves_the_same(&live, &recovery.model);
        let _ = fs::remove_dir_all(store.root());
    }

    /// Membership changes reach all three logs: the newcomer is routed,
    /// gets a directory ordinal after everyone else and a boundary agent of
    /// its own; the leaver (whom nobody trusts) loses all three.
    #[test]
    fn added_and_removed_agents_reach_the_directory_and_the_boundary_view() {
        let (store, model) = checkpointed("membership", 3);
        let newcomer = "http://persist.example.org/new#me";
        let known = (0..10).map(|j| (uri(j), 0.5));
        let crawl = CrawlDelta {
            added: vec![ExtractedAgent {
                uri: newcomer.into(),
                trust: known.chain([("http://nowhere.example.org/#me".into(), 1.0)]).collect(),
                ..ExtractedAgent::default()
            }],
            removed: vec![uri(9)],
            ..CrawlDelta::default()
        };
        store.append_delta(&model, &crawl, &SourceHealth::default()).unwrap();

        let recovered = store.recover(Arc::new(HashShardFn)).unwrap().model;
        let directory = recovered.directory();
        assert_eq!(directory.len(), 10, "one left, one joined");
        assert_eq!(directory.by_uri(&uri(9)), None);
        let g = directory.by_uri(newcomer).expect("the newcomer is listed");
        assert_eq!(g.index(), 9, "after every agent of the checkpoint that stayed");
        let home = directory.shard_of(g);
        assert_eq!(home, HashShardFn.route(newcomer, 3));
        // Statements about the leaver and the stranger are not edges.
        let crossing = (0..9).filter(|&j| directory.shard_of(GlobalId(j)) != home).count();
        assert!(crossing > 0 && crossing < 9, "the newcomer trusts on both sides of the boundary");
        let shard = recovered.shard(home as usize);
        let star = &shard.outstar[shard.globals().iter().position(|&m| m == g).unwrap()];
        assert_eq!(star.len(), 9);
        let remote = star.iter().filter(|e| matches!(e.target, Target::Remote { .. })).count();
        assert_eq!(remote, crossing);
        let _ = fs::remove_dir_all(store.root());
    }

    /// A leaver that a member of its own shard trusts: the shard's WAL must
    /// drop that member's statement with it, and a neighbor's diff in the
    /// same delta that re-values its statement about the leaver is dropped
    /// too. Recovery used to re-register the leaver as a dangling trustee
    /// and refuse the shard ("holds n + 1 agents but the directory assigns
    /// it n").
    #[test]
    fn removing_a_locally_trusted_agent_recovers_to_the_live_advance() {
        let (store, model) = checkpointed("leaver", 3);
        let c = world();
        let ids: Vec<_> = c.agents().collect();
        let shard_of = |i: usize| model.directory().shard_of(GlobalId(i as u32));
        let trusted_at_home = |j: usize| {
            c.trust.trusters_of(ids[j]).iter().any(|t| shard_of(t.index()) == shard_of(j))
        };
        let leaver = (0..ids.len()).find(|&j| trusted_at_home(j)).expect("a locally trusted agent");

        // The live side: the same world without the leaver or any statement
        // about it, which `advance` repartitions wholesale.
        let e = example1();
        let products: Vec<_> = e.catalog.iter().collect();
        let mut next = Community::new(e.fig.taxonomy, e.catalog);
        let stay: Vec<usize> = (0..ids.len()).filter(|&i| i != leaver).collect();
        let new_ids: Vec<_> = stay.iter().map(|&i| next.add_agent(uri(i)).unwrap()).collect();
        for (&i, &a) in stay.iter().zip(&new_ids) {
            next.set_rating(a, products[i % products.len()], 0.7).unwrap();
            for &(trustee, weight) in c.trust.out_edges(ids[i]) {
                if let Some(k) = stay.iter().position(|&j| j == trustee.index()) {
                    next.trust.set_trust(a, new_ids[k], weight).unwrap();
                }
            }
        }
        let (live, report) = model.advance(&next, &ModelDelta::default());
        assert!(report.wholesale);

        let neighbor = stay.iter().copied().find(|&i| shard_of(i) == shard_of(leaver));
        let neighbor = neighbor.expect("the trusters at home stay");
        let revalued = AgentDiff {
            uri: uri(neighbor),
            trust_set: vec![(uri(leaver), 0.5)],
            ..AgentDiff::default()
        };
        let crawl = CrawlDelta {
            changed: vec![revalued],
            removed: vec![uri(leaver)],
            ..CrawlDelta::default()
        };
        store.append_delta(&model, &crawl, &SourceHealth::default()).unwrap();
        let recovery = store.recover(Arc::new(HashShardFn)).unwrap();
        assert!(!recovery.degraded);
        assert_eq!(recovery.model.directory().by_uri(&uri(leaver)), None);
        assert_serves_the_same(&live, &recovery.model);
        let _ = fs::remove_dir_all(store.root());
    }

    /// 8 shards, then 4, into one root: the directory log says how many
    /// shards the newest checkpoint has, so `shard-004`…`shard-007` of the
    /// older one are ignored. It used to take the highest directory present
    /// and fail with "shard 4 holds … but the directory assigns it 0".
    #[test]
    fn checkpointing_fewer_shards_into_the_same_root_recovers() {
        let (store, _) = checkpointed("narrower", 8);
        let model = partitioned(&world(), 4);
        store.checkpoint(&model, 2).unwrap();
        assert!(store.shard_dir(7).exists(), "the wider checkpoint's directories are still there");
        assert_eq!(store.shard_count().unwrap(), 4);
        let recovery = store.recover(Arc::new(HashShardFn)).unwrap();
        assert_eq!(recovery.model.shard_count(), 4);
        assert_eq!(recovery.epoch, 2);
        assert_serves_the_same(&model, &recovery.model);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn torn_sidecar_tail_is_discarded() {
        let (store, model) = checkpointed("torn", 3);
        // Garbage too short to be a frame, as a crash mid-append leaves it.
        for path in [store.directory_path(), store.boundary_path(1)] {
            let mut bytes = fs::read(&path).unwrap();
            bytes.extend_from_slice(&[1, 2, 3]);
            fs::write(&path, bytes).unwrap();
            let recovery = store.recover(Arc::new(HashShardFn)).unwrap();
            assert!(recovery.degraded, "a dropped tail is reported");
            assert_serves_the_same(&model, &recovery.model);
        }
        let _ = fs::remove_dir_all(store.root());
    }

    /// A record with a valid checksum but a weight no statement may carry:
    /// recovery must refuse it with the typed error, naming the edge, where
    /// it used to stitch the weight into the out-star and let the first
    /// query through that truster panic on a NaN rank.
    #[test]
    fn forged_boundary_weight_is_refused_at_recovery() {
        let (truster, trustee) = (uri(0), uri(1));
        for (tag, weight) in [("inf", f64::INFINITY), ("nan", f64::NAN), ("range", -1.5)] {
            for replace in [false, true] {
                let (store, model) = checkpointed(&format!("forged-{tag}-{replace}"), 3);
                let home = model.directory().shard_of(GlobalId(0)) as usize;
                let trust = vec![(trustee.clone(), weight)];
                let forged = if replace {
                    let agent = ExtractedAgent { uri: truster.clone(), trust, ..Default::default() };
                    CrawlDelta { added: vec![agent], ..CrawlDelta::default() }
                } else {
                    let diff = AgentDiff { uri: truster.clone(), trust_set: trust, ..Default::default() };
                    CrawlDelta { changed: vec![diff], ..CrawlDelta::default() }
                };
                append_record(&store.boundary_path(home), &forged, &SourceHealth::default()).unwrap();
                match store.recover(Arc::new(HashShardFn)) {
                    Err(Error::Corrupt(message)) => {
                        assert!(
                            message.contains(&truster) && message.contains(&trustee),
                            "the error must name the edge: {message}"
                        );
                    }
                    Err(other) => panic!("expected Error::Corrupt, got {other}"),
                    Ok(_) => panic!("a {tag} boundary weight was stitched into the model"),
                }
                let _ = fs::remove_dir_all(store.root());
            }
        }
    }

    /// A boundary record that passes its checksum but does not continue the
    /// log — a diff for an agent the view never held, or a sequence number
    /// from another log — is refused, typed.
    #[test]
    fn boundary_record_that_does_not_continue_the_log_is_refused() {
        let stranger = AgentDiff {
            uri: "http://persist.example.org/stranger#me".into(),
            trust_set: vec![(uri(1), 0.5)],
            ..AgentDiff::default()
        };
        let unplaced = WalRecord {
            seq: 2,
            delta: CrawlDelta { changed: vec![stranger], ..CrawlDelta::default() },
            health: SourceHealth::default(),
        };
        let spliced = WalRecord { seq: 7, delta: CrawlDelta::default(), health: SourceHealth::default() };
        for (tag, record) in [("unplaced", unplaced), ("spliced", spliced)] {
            let (store, _) = checkpointed(tag, 3);
            append_framed(&store.boundary_path(0), &wal_header(), &encode_record(&record)).unwrap();
            let refused = store.recover(Arc::new(HashShardFn));
            assert!(matches!(refused, Err(Error::Corrupt(_))), "{tag}: {:?}", refused.err());
            let _ = fs::remove_dir_all(store.root());
        }
    }

    /// The shared gauntlet over both logs, through the public entry: every
    /// truncation and a flipped bit in every third byte of the directory and
    /// of a boundary log, each after a checkpoint and one appended delta.
    /// Recovery may refuse or degrade; it may not panic, and what it does
    /// return is a universe no larger than the one written.
    #[test]
    fn no_mutation_of_the_directory_or_a_boundary_log_panics() {
        let (store, model) = checkpointed("gauntlet", 3);
        let newcomer = ExtractedAgent {
            uri: "http://persist.example.org/new#me".into(),
            trust: (0..10).map(|j| (uri(j), 0.5)).collect(),
            ..ExtractedAgent::default()
        };
        let crawl = CrawlDelta { added: vec![newcomer], ..CrawlDelta::default() };
        store.append_delta(&model, &crawl, &SourceHealth::default()).unwrap();
        let home = HashShardFn.route("http://persist.example.org/new#me", 3) as usize;
        for path in [store.directory_path(), store.boundary_path(home)] {
            let intact = fs::read(&path).unwrap();
            for_each_mutation(&intact, 3, |what, mutated| {
                fs::write(&path, mutated).unwrap();
                if let Ok(recovery) = store.recover(Arc::new(HashShardFn)) {
                    assert!(recovery.model.agent_count() <= 11, "{what}: invented an agent");
                }
            });
            fs::write(&path, intact).unwrap();
        }
        assert!(!store.recover(Arc::new(HashShardFn)).unwrap().degraded);
        let _ = fs::remove_dir_all(store.root());
    }
}
