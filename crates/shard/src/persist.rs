//! Per-shard durable persistence: one `semrec-store` snapshot/WAL
//! generation per shard, plus two sidecar logs the unsharded store has no
//! need for — the global **directory** (ordinal → URI → shard) and each
//! shard's **boundary** edges (trust statements whose trustee lives on
//! another shard, which must not enter the shard-local snapshot because
//! the local community has no agent to attach them to).
//!
//! Layout under the root directory:
//!
//! ```text
//! root/
//!   directory.bin          append-only framed log of directory ops
//!   shard-000/
//!     snapshot-000001.bin  ordinary semrec-store generation
//!     wal-000001.log
//!     boundary.bin         append-only framed log of boundary-edge ops
//!   shard-001/ …
//! ```
//!
//! Each shard's snapshot view is its members **sorted by URI** with trust
//! filtered to local members, so a shard snapshot is a completely ordinary
//! `semrec-store` checkpoint: `Store::recover` replays it through the live
//! refresh path with no sharding knowledge at all. The directory and
//! boundary logs use length+checksum frames (torn tails are detected) and
//! are rewritten as a single base frame at every checkpoint, then appended
//! to by [`ShardedStore::append_delta`].
//!
//! Trust statements pointing at agents outside the universe are dropped at
//! persistence time (the unsharded builder would register them as bare
//! dangling agents; a sharded universe has no shard to own them).

use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use semrec_core::{ProfileStore, Recommender, SharedModel, SourceHealth};
use semrec_obs::{Counter, Histogram, MetricsRegistry, MetricsSnapshot};
use semrec_profiles::ProfileVector;
use semrec_store::codec::{fnv1a64, Reader, Writer};
use semrec_store::{CheckpointReport, Error, Result, Store};
use semrec_web::{CommunityBuilder, CrawlDelta, ExtractedAgent};

use crate::model::{Shard, ShardedModel, StarEdge, Target};
use crate::partition::{Directory, GlobalId, ShardFn};

const DIRECTORY_MAGIC: &[u8; 8] = b"SRDIR001";
const BOUNDARY_MAGIC: &[u8; 8] = b"SRBND001";

/// Outcome of a [`ShardedStore::recover`].
pub struct ShardedRecovery {
    /// The reassembled sharded model.
    pub model: ShardedModel,
    /// The highest per-shard serve epoch recovered (shards that saw more
    /// WAL records warm-start further ahead).
    pub epoch: u64,
    /// WAL records replayed across all shards.
    pub replayed: usize,
    /// True when any shard's recovery fell back past corruption.
    pub degraded: bool,
}

/// A durable sharded store rooted at one directory: one `semrec-store`
/// per shard plus the directory and boundary sidecars.
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

    /// Number of shard directories present.
    pub fn shard_count(&self) -> Result<usize> {
        let mut max = None;
        for entry in fs::read_dir(&self.root)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(idx) = name.strip_prefix("shard-").and_then(|d| d.parse::<usize>().ok()) {
                max = Some(max.map_or(idx, |m: usize| m.max(idx)));
            }
        }
        max.map(|m| m + 1).ok_or(Error::NoSnapshot)
    }

    /// Durably checkpoints every shard as its next snapshot generation and
    /// rewrites the directory and boundary sidecars to match.
    pub fn checkpoint(
        &self,
        model: &ShardedModel,
        epoch: u64,
    ) -> Result<Vec<CheckpointReport>> {
        let _span = self.metrics.checkpoint_seconds.start_timer();
        let mut w = Writer::new();
        let directory = model.directory();
        w.put_len(directory.len());
        for (_, uri, shard) in directory.iter() {
            w.put_u8(0);
            w.put_str(uri);
            w.put_u32(shard);
        }
        write_base(&self.directory_path(), DIRECTORY_MAGIC, w.as_bytes())?;

        let mut reports = Vec::with_capacity(model.shard_count());
        for s in 0..model.shard_count() {
            let (view, vectors, boundary) = local_view(model, s);
            let mut w = Writer::new();
            w.put_len(boundary.len());
            for (truster, edges) in &boundary {
                w.put_u8(0); // replace
                w.put_str(truster);
                w.put_len(edges.len());
                for (trustee, weight) in edges {
                    w.put_str(trustee);
                    w.put_f64(*weight);
                }
            }
            let dir = self.shard_dir(s);
            fs::create_dir_all(&dir)?;
            write_base(&dir.join("boundary.bin"), BOUNDARY_MAGIC, w.as_bytes())?;

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

    /// Splits a crawl delta by owning shard and appends each non-empty
    /// sub-delta to its shard's WAL, the new agents to the directory log,
    /// and cross-shard trust changes to the boundary logs. Returns the
    /// number of shard WALs touched — untouched shards pay nothing and
    /// replay nothing at recovery.
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
        let owner = |uri: &str| -> Option<u32> {
            directory
                .by_uri(uri)
                .map(|g| directory.shard_of(g))
                .or_else(|| added_shard.get(uri).copied())
        };

        let mut subs: Vec<CrawlDelta> = vec![CrawlDelta::default(); n];
        let mut dir_ops = Writer::new();
        let mut dir_count = 0usize;
        let mut boundary_ops: Vec<(Writer, usize)> = (0..n).map(|_| (Writer::new(), 0)).collect();

        for agent in &delta.added {
            let s = added_shard[agent.uri.as_str()] as usize;
            let mut local = Vec::new();
            let mut remote = Vec::new();
            for (trustee, weight) in &agent.trust {
                match owner(trustee) {
                    Some(t) if t as usize == s => local.push((trustee.clone(), *weight)),
                    Some(_) => remote.push((trustee.clone(), *weight)),
                    None => {} // outside the universe: dropped
                }
            }
            if !remote.is_empty() {
                let (w, count) = &mut boundary_ops[s];
                w.put_u8(0); // replace
                w.put_str(&agent.uri);
                w.put_len(remote.len());
                for (trustee, weight) in &remote {
                    w.put_str(trustee);
                    w.put_f64(*weight);
                }
                *count += 1;
            }
            dir_ops.put_u8(0);
            dir_ops.put_str(&agent.uri);
            dir_ops.put_u32(s as u32);
            dir_count += 1;
            subs[s].added.push(ExtractedAgent { trust: local, ..agent.clone() });
        }

        for diff in &delta.changed {
            let Some(s) = owner(&diff.uri).map(|s| s as usize) else { continue };
            let mut sub = diff.clone();
            sub.trust_set.clear();
            sub.trust_removed.clear();
            for (trustee, weight) in &diff.trust_set {
                match owner(trustee) {
                    Some(t) if t as usize == s => sub.trust_set.push((trustee.clone(), *weight)),
                    Some(_) => {
                        let (w, count) = &mut boundary_ops[s];
                        w.put_u8(1); // set
                        w.put_str(&diff.uri);
                        w.put_str(trustee);
                        w.put_f64(*weight);
                        *count += 1;
                    }
                    None => {}
                }
            }
            for trustee in &diff.trust_removed {
                match owner(trustee) {
                    Some(t) if t as usize == s => sub.trust_removed.push(trustee.clone()),
                    _ => {
                        // Remote — or an agent already gone from the
                        // directory, where removal on both sides is a
                        // safe no-op for whichever side never had it.
                        sub.trust_removed.push(trustee.clone());
                        let (w, count) = &mut boundary_ops[s];
                        w.put_u8(2); // remove
                        w.put_str(&diff.uri);
                        w.put_str(trustee);
                        *count += 1;
                    }
                }
            }
            subs[s].changed.push(sub);
        }

        for uri in &delta.removed {
            let Some(s) = owner(uri).map(|s| s as usize) else { continue };
            subs[s].removed.push(uri.clone());
            dir_ops.put_u8(1);
            dir_ops.put_str(uri);
            dir_count += 1;
            let (w, count) = &mut boundary_ops[s];
            w.put_u8(3); // drop truster
            w.put_str(uri);
            *count += 1;
        }

        if dir_count > 0 {
            let mut payload = Writer::new();
            payload.put_len(dir_count);
            payload.put_raw(dir_ops.as_bytes());
            append_frame(&self.directory_path(), DIRECTORY_MAGIC, payload.as_bytes())?;
        }
        let mut touched = 0;
        for (s, sub) in subs.iter().enumerate() {
            let (ops, count) = &boundary_ops[s];
            if *count > 0 {
                let mut payload = Writer::new();
                payload.put_len(*count);
                payload.put_raw(ops.as_bytes());
                append_frame(&self.shard_dir(s).join("boundary.bin"), BOUNDARY_MAGIC, payload.as_bytes())?;
            }
            if sub.added.is_empty() && sub.changed.is_empty() && sub.removed.is_empty() {
                continue;
            }
            Store::open(self.shard_dir(s))?.append_delta(sub, health)?;
            self.metrics.wal_appended.inc();
            touched += 1;
        }
        Ok(touched)
    }

    /// Recovers the sharded model: per-shard snapshot + WAL replay through
    /// the ordinary `semrec-store` path, then the universe is re-stitched
    /// from the directory and boundary sidecars.
    pub fn recover(&self, shard_fn: Arc<dyn ShardFn>) -> Result<ShardedRecovery> {
        let _span = self.metrics.recover_seconds.start_timer();
        let n = self.shard_count()?;
        let entries = fold_directory(&read_frames(&self.directory_path(), DIRECTORY_MAGIC)?)?;
        let mut directory = Directory::default();
        for (uri, shard) in entries {
            if shard as usize >= n {
                return Err(Error::Corrupt(format!(
                    "directory routes {uri} to shard {shard} of {n}"
                )));
            }
            directory.push(uri, shard);
        }

        let mut recoveries = Vec::with_capacity(n);
        let mut boundaries = Vec::with_capacity(n);
        for s in 0..n {
            recoveries.push(Store::open(self.shard_dir(s))?.recover()?);
            boundaries.push(fold_boundary(&read_frames(
                &self.shard_dir(s).join("boundary.bin"),
                BOUNDARY_MAGIC,
            )?)?);
        }

        // Cross-validate directory against the recovered memberships.
        let mut local_of = vec![u32::MAX; directory.len()];
        let mut owned = vec![0usize; n];
        for (g, uri, shard) in directory.iter() {
            let community = recoveries[shard as usize].engine.community();
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
        for (s, recovery) in recoveries.iter().enumerate() {
            let have = recovery.engine.community().agent_count();
            if have != owned[s] {
                return Err(Error::Corrupt(format!(
                    "shard {s} holds {have} agents but the directory assigns it {}",
                    owned[s]
                )));
            }
        }

        let config = recoveries
            .first()
            .map(|r| *r.engine.config())
            .unwrap_or_default();
        let mut epoch = 0;
        let mut replayed = 0;
        let mut degraded = false;
        let mut shards = Vec::with_capacity(n);
        for (s, recovery) in recoveries.iter().enumerate() {
            epoch = epoch.max(recovery.epoch);
            replayed += recovery.replayed;
            degraded |= recovery.degraded();
            shards.push(Arc::new(stitch_shard(
                s,
                recovery,
                &boundaries[s],
                &directory,
                &local_of,
            )));
            self.metrics.recovered.inc();
        }
        let model = ShardedModel::from_shards(shards, directory, local_of, config, shard_fn);
        Ok(ShardedRecovery { model, epoch, replayed, degraded })
    }
}

/// Rebuilds one shard from its recovered engine plus the boundary map.
fn stitch_shard(
    me: usize,
    recovery: &semrec_store::Recovery,
    boundary: &HashMap<String, Vec<(String, f64)>>,
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
    let mut outstar = Vec::with_capacity(globals.len());
    let mut boundary_out = 0;
    for local in community.agents() {
        let uri = &community.agent(local).expect("dense").uri;
        let mut star: Vec<StarEdge> = community
            .trust
            .out_edges(local)
            .iter()
            .map(|&(trustee, weight)| StarEdge {
                global: globals[trustee.index()],
                weight,
                target: Target::Local(trustee),
            })
            .collect();
        if let Some(remote) = boundary.get(uri.as_str()) {
            for (trustee, weight) in remote {
                // Edges to agents that left the universe (or moved onto
                // this shard through a later repartition) are dropped.
                let Some(g) = directory.by_uri(trustee) else { continue };
                let shard = directory.shard_of(g);
                if shard as usize == me || local_of[g.index()] == u32::MAX {
                    continue;
                }
                star.push(StarEdge {
                    global: g,
                    weight: *weight,
                    target: Target::Remote { shard, local: local_of[g.index()] },
                });
                boundary_out += 1;
            }
        }
        star.sort_by_key(|e| e.global);
        outstar.push(star);
    }
    Shard {
        community,
        profiles,
        globals,
        outstar,
        boundary_out,
        model_epoch: recovery.epoch,
        serve_epoch: recovery.epoch,
    }
}

/// Derives one shard's snapshot inputs: the URI-sorted local extraction
/// view, the profile vectors in that order, and the boundary edge lists.
#[allow(clippy::type_complexity)]
fn local_view(
    model: &ShardedModel,
    s: usize,
) -> (Vec<ExtractedAgent>, Vec<ProfileVector>, Vec<(String, Vec<(String, f64)>)>) {
    let shard = model.shard(s);
    let community = shard.community();
    let directory = model.directory();
    let mut items: Vec<(ExtractedAgent, ProfileVector)> = Vec::with_capacity(shard.len());
    let mut boundary = Vec::new();
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
        if !remote.is_empty() {
            boundary.push((uri.clone(), remote));
        }
        let agent = ExtractedAgent { uri, trust, ratings, knows: Vec::new(), see_also: Vec::new() };
        items.push((agent, shard.profiles().profile(local).to_vector()));
    }
    items.sort_by(|a, b| a.0.uri.cmp(&b.0.uri));
    boundary.sort_by(|a, b| a.0.cmp(&b.0));
    let (view, vectors) = items.into_iter().unzip();
    (view, vectors, boundary)
}

/// Atomically (re)writes a sidecar as header + one base frame.
fn write_base(path: &Path, magic: &[u8; 8], payload: &[u8]) -> Result<()> {
    let tmp = path.with_extension("tmp");
    let mut bytes = magic.to_vec();
    bytes.extend_from_slice(&frame(payload));
    let mut file = fs::File::create(&tmp)?;
    file.write_all(&bytes)?;
    file.sync_all()?;
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Appends one frame to a sidecar, creating it (with header) if missing.
fn append_frame(path: &Path, magic: &[u8; 8], payload: &[u8]) -> Result<()> {
    let mut file = fs::OpenOptions::new().create(true).append(true).open(path)?;
    if file.metadata()?.len() == 0 {
        file.write_all(magic)?;
    }
    file.write_all(&frame(payload))?;
    file.sync_all()?;
    Ok(())
}

/// One frame: little-endian length, payload, FNV-1a checksum.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut bytes = (payload.len() as u64).to_le_bytes().to_vec();
    bytes.extend_from_slice(payload);
    bytes.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    bytes
}

/// Reads every intact frame of a sidecar; a torn or corrupt tail frame is
/// discarded (like a torn WAL tail), anything before it is kept.
fn read_frames(path: &Path, magic: &[u8; 8]) -> Result<Vec<Vec<u8>>> {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(Error::Corrupt(format!("missing sidecar {}", path.display())))
        }
        Err(e) => return Err(e.into()),
    };
    if bytes.len() < magic.len() || &bytes[..magic.len()] != magic {
        return Err(Error::Corrupt(format!("bad sidecar header in {}", path.display())));
    }
    let mut frames = Vec::new();
    let mut at = magic.len();
    while at < bytes.len() {
        if bytes.len() - at < 16 {
            break; // torn tail
        }
        let len = u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes")) as usize;
        if bytes.len() - at - 16 < len {
            break; // torn tail
        }
        let payload = &bytes[at + 8..at + 8 + len];
        let checksum =
            u64::from_le_bytes(bytes[at + 8 + len..at + 16 + len].try_into().expect("8 bytes"));
        if fnv1a64(payload) != checksum {
            break; // corrupt tail: keep the intact prefix
        }
        frames.push(payload.to_vec());
        at += 16 + len;
    }
    Ok(frames)
}

/// Folds directory frames into the live `(uri, shard)` list, preserving
/// first-appearance order (= recovered ordinal order).
fn fold_directory(frames: &[Vec<u8>]) -> Result<Vec<(String, u32)>> {
    let mut order: Vec<String> = Vec::new();
    let mut live: HashMap<String, Option<u32>> = HashMap::new();
    for payload in frames {
        let mut r = Reader::new(payload, "directory frame");
        let ops = r.get_len()?;
        for _ in 0..ops {
            match r.get_u8()? {
                0 => {
                    let uri = r.get_str()?;
                    let shard = r.get_u32()?;
                    if !live.contains_key(&uri) {
                        order.push(uri.clone());
                    }
                    live.insert(uri, Some(shard));
                }
                1 => {
                    let uri = r.get_str()?;
                    live.insert(uri, None);
                }
                tag => return Err(Error::Corrupt(format!("directory op tag {tag}"))),
            }
        }
    }
    Ok(order
        .into_iter()
        .filter_map(|uri| {
            let shard = live.get(&uri).copied().flatten()?;
            Some((uri, shard))
        })
        .collect())
}

/// A boundary weight goes straight into a shard's out-star, past
/// `TrustGraph::set_trust`, so the sidecar applies that function's check
/// itself: a finite value in `[-1, 1]` (a NaN is in no range). The trust
/// metric relies on it — an infinite weight would turn every share of the
/// star into `inf / inf`.
fn checked_weight(weight: f64, truster: &str, trustee: &str) -> Result<f64> {
    if (-1.0..=1.0).contains(&weight) {
        Ok(weight)
    } else {
        Err(Error::Corrupt(format!(
            "boundary edge {truster} -> {trustee} carries weight {weight}, outside [-1, 1]"
        )))
    }
}

/// Folds boundary frames into truster → sorted remote edge list.
fn fold_boundary(frames: &[Vec<u8>]) -> Result<HashMap<String, Vec<(String, f64)>>> {
    let mut map: HashMap<String, Vec<(String, f64)>> = HashMap::new();
    for payload in frames {
        let mut r = Reader::new(payload, "boundary frame");
        let ops = r.get_len()?;
        for _ in 0..ops {
            match r.get_u8()? {
                0 => {
                    let truster = r.get_str()?;
                    let count = r.get_len()?;
                    let mut edges = Vec::with_capacity(count);
                    for _ in 0..count {
                        let trustee = r.get_str()?;
                        let weight = checked_weight(r.get_f64()?, &truster, &trustee)?;
                        edges.push((trustee, weight));
                    }
                    map.insert(truster, edges);
                }
                1 => {
                    let truster = r.get_str()?;
                    let trustee = r.get_str()?;
                    let weight = checked_weight(r.get_f64()?, &truster, &trustee)?;
                    let edges = map.entry(truster).or_default();
                    match edges.binary_search_by(|(t, _)| t.as_str().cmp(&trustee)) {
                        Ok(pos) => edges[pos].1 = weight,
                        Err(pos) => edges.insert(pos, (trustee, weight)),
                    }
                }
                2 => {
                    let truster = r.get_str()?;
                    let trustee = r.get_str()?;
                    if let Some(edges) = map.get_mut(&truster) {
                        if let Ok(pos) =
                            edges.binary_search_by(|(t, _)| t.as_str().cmp(&trustee))
                        {
                            edges.remove(pos);
                        }
                    }
                }
                3 => {
                    let truster = r.get_str()?;
                    map.remove(&truster);
                }
                tag => return Err(Error::Corrupt(format!("boundary op tag {tag}"))),
            }
        }
    }
    for edges in map.values_mut() {
        edges.sort_by(|a, b| a.0.cmp(&b.0));
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::HashShardFn;
    use semrec_core::{Community, RecommenderConfig};
    use semrec_taxonomy::fixtures::example1;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "semrec-shard-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn world() -> Community {
        let e = example1();
        let products: Vec<_> = e.catalog.iter().collect();
        let mut c = Community::new(e.fig.taxonomy, e.catalog);
        let ids: Vec<_> = (0..9)
            .map(|i| c.add_agent(format!("http://persist.example.org/{i}#me")).unwrap())
            .collect();
        for (i, &a) in ids.iter().enumerate() {
            c.set_rating(a, products[i % products.len()], 0.7).unwrap();
            c.trust.set_trust(a, ids[(i + 1) % ids.len()], 1.0).unwrap();
            c.trust.set_trust(a, ids[(i + 4) % ids.len()], 0.5).unwrap();
        }
        c
    }

    #[test]
    fn checkpoint_recover_round_trips_recommendations() {
        let c = world();
        let (model, _) = ShardedModel::partition(
            &c,
            RecommenderConfig::default(),
            Arc::new(HashShardFn),
            3,
            1,
        );
        let root = temp_root("roundtrip");
        let store = ShardedStore::open(&root).unwrap();
        store.checkpoint(&model, 1).unwrap();
        let recovery = store.recover(Arc::new(HashShardFn)).unwrap();
        assert!(!recovery.degraded);
        assert_eq!(recovery.model.agent_count(), model.agent_count());
        for g in 0..model.agent_count() {
            let uri = model.directory().uri(GlobalId(g as u32));
            let want = model.recommend_by_uri(uri, 5).unwrap();
            let got = recovery.model.recommend_by_uri(uri, 5).unwrap();
            assert_eq!(want.len(), got.len(), "list length for {uri}");
            for (w, g) in want.iter().zip(&got) {
                assert_eq!(w.product, g.product, "product for {uri}");
                assert_eq!(w.score.to_bits(), g.score.to_bits(), "score bits for {uri}");
            }
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_sidecar_tail_is_discarded() {
        let root = temp_root("torn");
        fs::create_dir_all(&root).unwrap();
        let path = root.join("directory.bin");
        let mut w = Writer::new();
        w.put_len(1);
        w.put_u8(0);
        w.put_str("http://a");
        w.put_u32(0);
        write_base(&path, DIRECTORY_MAGIC, w.as_bytes()).unwrap();
        // Append garbage that is too short to be a frame.
        let mut file = fs::OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&[1, 2, 3]).unwrap();
        drop(file);
        let frames = read_frames(&path, DIRECTORY_MAGIC).unwrap();
        assert_eq!(frames.len(), 1, "intact prefix survives a torn tail");
        let _ = fs::remove_dir_all(&root);
    }

    /// A frame with a valid checksum but a weight no statement may carry:
    /// recovery must refuse it with the typed error, naming the edge, where
    /// it used to stitch the weight into the out-star and let the first
    /// query through that truster panic on a NaN rank.
    #[test]
    fn forged_boundary_weight_is_refused_at_recovery() {
        let c = world();
        let (model, _) = ShardedModel::partition(
            &c,
            RecommenderConfig::default(),
            Arc::new(HashShardFn),
            3,
            1,
        );
        let (truster, trustee) = ("http://persist.example.org/0#me", "http://persist.example.org/1#me");
        for (tag, weight) in [("inf", f64::INFINITY), ("nan", f64::NAN), ("range", -1.5)] {
            for replace in [false, true] {
                let root = temp_root(&format!("forged-{tag}-{replace}"));
                let store = ShardedStore::open(&root).unwrap();
                store.checkpoint(&model, 1).unwrap();
                let mut forged = Writer::new();
                forged.put_len(1);
                if replace {
                    forged.put_u8(0); // replace the truster's list
                    forged.put_str(truster);
                    forged.put_len(1);
                } else {
                    forged.put_u8(1); // set one edge
                    forged.put_str(truster);
                }
                forged.put_str(trustee);
                forged.put_f64(weight);
                append_frame(&store.shard_dir(0).join("boundary.bin"), BOUNDARY_MAGIC, forged.as_bytes())
                    .unwrap();
                match store.recover(Arc::new(HashShardFn)) {
                    Err(Error::Corrupt(message)) => {
                        assert!(
                            message.contains(truster) && message.contains(trustee),
                            "the error must name the edge: {message}"
                        );
                    }
                    Err(other) => panic!("expected Error::Corrupt, got {other}"),
                    Ok(_) => panic!("a {tag} boundary weight was stitched into the model"),
                }
                let _ = fs::remove_dir_all(&root);
            }
        }
    }

    #[test]
    fn boundary_fold_applies_ops_in_order() {
        let mut base = Writer::new();
        base.put_len(1);
        base.put_u8(0);
        base.put_str("http://x");
        base.put_len(1);
        base.put_str("http://y");
        base.put_f64(0.5);
        let mut ops = Writer::new();
        ops.put_len(3);
        ops.put_u8(1); // set x→z
        ops.put_str("http://x");
        ops.put_str("http://z");
        ops.put_f64(0.9);
        ops.put_u8(2); // remove x→y
        ops.put_str("http://x");
        ops.put_str("http://y");
        ops.put_u8(1); // set w→y
        ops.put_str("http://w");
        ops.put_str("http://y");
        ops.put_f64(0.3);
        let map = fold_boundary(&[base.as_bytes().to_vec(), ops.as_bytes().to_vec()]).unwrap();
        assert_eq!(map["http://x"], vec![("http://z".to_string(), 0.9)]);
        assert_eq!(map["http://w"], vec![("http://y".to_string(), 0.3)]);
    }
}
