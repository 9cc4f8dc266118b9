//! Snapshot format v1, read side only, and the field codecs both snapshot
//! formats and the WAL share.
//!
//! No build writes v1 any more ([`crate::arena`] is what `Store::checkpoint`
//! writes); [`Checkpoint::decode`] and [`Checkpoint::restore`] stay so that
//! a store written by an earlier build keeps recovering, and the committed
//! `tests/fixtures/snapshot-v1.hex` is the format's contract. A
//! [`Checkpoint`] holds everything a node needs to come back after a
//! restart and answer byte-identically to a node that never went down;
//! its fields say what, and why in that form.
//!
//! On-disk layout (all integers little-endian):
//!
//! ```text
//! "SEMRECSN" | version: u32 | body | fnv1a64(everything preceding): u64
//! ```
//!
//! Decoding checks magic, version, and checksum before touching the body,
//! and every body read is bounds-checked — corrupted input yields a typed
//! [`Error`], never a panic.

use semrec_core::{
    ProfileStore, Recommender, RecommenderConfig, SharedModel, SimilarityMeasure, SourceHealth,
    SynthesisStrategy,
};
use semrec_profiles::ProfileVector;
use semrec_taxonomy::{Catalog, Taxonomy, TaxonomyParts, TopicId};
use semrec_web::crawler::CommunityBuilder;
use semrec_web::extract::ExtractedAgent;

use crate::codec::{fnv1a64, Reader, Writer};
use crate::error::{Error, Result};

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"SEMRECSN";
/// The frozen per-record snapshot format version (read, never written).
pub const SNAPSHOT_VERSION: u32 = 1;

/// One decoded v1 snapshot: the full model state, record by record.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// The serve epoch the model had reached when captured, so a
    /// warm-started server resumes its epoch-keyed cache semantics.
    pub epoch: u64,
    /// Health of the crawl the standing view came from.
    pub health: SourceHealth,
    /// Engine configuration, every leaf field.
    pub config: RecommenderConfig,
    /// Raw taxonomy adjacency in exact stored order: child order feeds
    /// float summation order in profile generation.
    pub taxonomy: TaxonomyParts,
    /// Catalog rows `(identifier, title, descriptor topic indices)`, rebuilt
    /// through `add_product` in id order (exact: descriptors are sorted).
    pub products: Vec<(String, String, Vec<u32>)>,
    /// The standing extraction view — the crawler-level truth the community
    /// assembles from, so WAL replay keeps the agent-id numbering.
    pub view: Vec<ExtractedAgent>,
    /// Per-agent profiles in agent-id order, entries as `(topic index, f64
    /// bits)`: no float is ever re-derived on load.
    pub profiles: Vec<Vec<(u32, u64)>>,
}

/// What [`Checkpoint::restore`] hands back: a live engine plus the
/// standing view and serve epoch needed to keep refreshing and serving.
#[derive(Clone, Debug)]
pub struct RestoredModel {
    /// The reassembled engine, answering byte-identically to the captured
    /// one.
    pub engine: Recommender,
    /// The standing extraction view (feed to `CommunityBuilder` on the
    /// next refresh).
    pub view: Vec<ExtractedAgent>,
    /// The serve epoch to warm-start at (`Server::start_at`).
    pub epoch: u64,
}

impl Checkpoint {
    /// Deserializes a v1 snapshot (the frozen per-record format earlier
    /// builds wrote; `tests/fixtures/snapshot-v1.hex` is one), verifying
    /// magic, version, and checksum first.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint> {
        let payload = check_frame(bytes, SNAPSHOT_MAGIC, SNAPSHOT_VERSION, "snapshot")?;
        let mut r = Reader::new(payload, "snapshot body");
        let epoch = r.get_u64()?;
        let health = decode_health(&mut r)?;
        let config = decode_config(&mut r)?;
        let taxonomy = decode_taxonomy(&mut r)?;
        let product_count = r.get_len()?;
        let mut products = Vec::with_capacity(product_count);
        for _ in 0..product_count {
            let identifier = r.get_str()?;
            let title = r.get_str()?;
            let descriptor_count = r.get_len()?;
            let mut descriptors = Vec::with_capacity(descriptor_count);
            for _ in 0..descriptor_count {
                descriptors.push(r.get_u32()?);
            }
            products.push((identifier, title, descriptors));
        }
        let agent_count = r.get_len()?;
        let mut view = Vec::with_capacity(agent_count);
        for _ in 0..agent_count {
            view.push(decode_agent(&mut r)?);
        }
        let profile_count = r.get_len()?;
        let mut profiles = Vec::with_capacity(profile_count);
        for _ in 0..profile_count {
            let entry_count = r.get_len()?;
            let mut profile = Vec::with_capacity(entry_count);
            for _ in 0..entry_count {
                let topic = r.get_u32()?;
                let bits = r.get_u64()?;
                profile.push((topic, bits));
            }
            profiles.push(profile);
        }
        if !r.is_exhausted() {
            return Err(Error::Corrupt("trailing bytes after snapshot body".into()));
        }
        Ok(Checkpoint { epoch, health, config, taxonomy, products, view, profiles })
    }

    /// Reassembles the live model: taxonomy from parts, catalog through
    /// `add_product` in id order, community through `CommunityBuilder`
    /// (agent-id numbering identical to the capture), profiles installed
    /// bit-for-bit. Semantic inconsistencies (malformed taxonomy,
    /// out-of-range descriptor or profile topic, non-finite profile score,
    /// profile count not matching the reassembled community) surface as
    /// [`Error::Corrupt`].
    pub fn restore(&self) -> Result<RestoredModel> {
        let taxonomy =
            Taxonomy::from_parts(self.taxonomy.clone()).map_err(|e| Error::Corrupt(e.to_string()))?;
        let mut catalog = Catalog::new();
        for (identifier, title, descriptors) in &self.products {
            let descriptors =
                descriptors.iter().map(|&d| TopicId::from_index(d as usize)).collect();
            catalog
                .add_product(&taxonomy, identifier.clone(), title.clone(), descriptors)
                .map_err(|e| Error::Corrupt(e.to_string()))?;
        }
        let builder = CommunityBuilder::new(&self.view);
        let (community, _stats) = builder.build(taxonomy, catalog);
        if self.profiles.len() != community.agent_count() {
            return Err(Error::Corrupt(format!(
                "{} profiles for {} assembled agents",
                self.profiles.len(),
                community.agent_count()
            )));
        }
        // The same checks `decode_v2` makes: similarity scatters by topic
        // id and needs finite scores.
        for &(topic, bits) in self.profiles.iter().flatten() {
            if topic as usize >= community.taxonomy.len() {
                return Err(Error::Corrupt("profile topic outside the taxonomy".into()));
            }
            if !f64::from_bits(bits).is_finite() {
                return Err(Error::Corrupt("profile score is not finite".into()));
            }
        }
        let vectors = self.profiles.iter().map(|entries| {
            ProfileVector::from_pairs(
                entries
                    .iter()
                    .map(|&(topic, bits)| (TopicId::from_index(topic as usize), f64::from_bits(bits))),
            )
        });
        let profiles = ProfileStore::from_profiles(vectors, self.config.profile);
        let model = SharedModel::from_parts(community, profiles, self.config, self.health);
        Ok(RestoredModel {
            engine: Recommender::from_shared(std::sync::Arc::new(model)),
            view: self.view.clone(),
            epoch: self.epoch,
        })
    }
}

/// Validates the `magic | version: u32` header every file of this crate
/// opens with, returning what follows it.
pub fn check_header<'a>(
    bytes: &'a [u8],
    magic: &'static [u8; 8],
    version: u32,
    context: &'static str,
) -> Result<&'a [u8]> {
    if bytes.len() < 8 {
        return Err(Error::Truncated { context });
    }
    if &bytes[..8] != magic {
        let mut found = [0u8; 8];
        found.copy_from_slice(&bytes[..8]);
        return Err(Error::BadMagic { expected: magic, found });
    }
    if bytes.len() < 12 {
        return Err(Error::Truncated { context });
    }
    let found = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if found != version {
        return Err(Error::BadVersion { expected: version, found });
    }
    Ok(&bytes[12..])
}

/// Validates a snapshot's `magic | version | payload | fnv1a64(everything
/// preceding)` frame, returning the payload slice.
pub fn check_frame<'a>(
    bytes: &'a [u8],
    magic: &'static [u8; 8],
    version: u32,
    context: &'static str,
) -> Result<&'a [u8]> {
    let rest = check_header(bytes, magic, version, context)?;
    let Some(payload_len) = rest.len().checked_sub(8) else {
        return Err(Error::Truncated { context });
    };
    let (payload, stored) = rest.split_at(payload_len);
    let stored = u64::from_le_bytes(stored.try_into().expect("8 bytes"));
    let computed = fnv1a64(&bytes[..bytes.len() - 8]);
    if stored != computed {
        return Err(Error::ChecksumMismatch { computed, stored });
    }
    Ok(payload)
}

pub(crate) fn encode_health(w: &mut Writer, h: &SourceHealth) {
    w.put_len(h.attempted);
    w.put_len(h.fetched);
    w.put_len(h.unreachable);
    w.put_len(h.gave_up);
    w.put_len(h.corrupted);
    w.put_len(h.parse_errors);
}

pub(crate) fn decode_health(r: &mut Reader<'_>) -> Result<SourceHealth> {
    Ok(SourceHealth {
        attempted: r.get_u64()? as usize,
        fetched: r.get_u64()? as usize,
        unreachable: r.get_u64()? as usize,
        gave_up: r.get_u64()? as usize,
        corrupted: r.get_u64()? as usize,
        parse_errors: r.get_u64()? as usize,
    })
}

fn put_opt_u64(w: &mut Writer, v: Option<u64>) {
    match v {
        Some(v) => {
            w.put_bool(true);
            w.put_u64(v);
        }
        None => w.put_bool(false),
    }
}

fn get_opt_u64(r: &mut Reader<'_>) -> Result<Option<u64>> {
    Ok(if r.get_bool()? { Some(r.get_u64()?) } else { None })
}

pub(crate) fn encode_config(w: &mut Writer, c: &RecommenderConfig) {
    let a = &c.neighborhood.appleseed;
    w.put_f64(a.injection);
    w.put_f64(a.spreading_factor);
    w.put_f64(a.convergence);
    w.put_f64(a.backward_weight);
    w.put_len(a.max_iterations);
    put_opt_u64(w, a.max_range.map(u64::from));
    put_opt_u64(w, a.max_nodes.map(|v| v as u64));
    w.put_bool(a.distrust);
    w.put_f64(a.spreading_power);
    w.put_len(c.neighborhood.max_peers);
    w.put_f64(c.neighborhood.min_rank);
    w.put_f64(c.profile.total_score);
    w.put_f64(c.profile.min_rating);
    w.put_bool(c.profile.rating_weighted);
    w.put_u8(match c.similarity {
        SimilarityMeasure::Pearson => 0,
        SimilarityMeasure::Cosine => 1,
    });
    match c.synthesis {
        SynthesisStrategy::LinearBlend { xi } => {
            w.put_u8(0);
            w.put_f64(xi);
        }
        SynthesisStrategy::BordaMerge => w.put_u8(1),
        SynthesisStrategy::TrustFilter => w.put_u8(2),
    }
    w.put_f64(c.voting.min_rating);
    w.put_bool(c.voting.rating_weighted_votes);
    w.put_len(c.voting.min_voters);
    w.put_bool(c.novel_categories_only);
}

pub(crate) fn decode_config(r: &mut Reader<'_>) -> Result<RecommenderConfig> {
    let mut config = RecommenderConfig::default();
    let a = &mut config.neighborhood.appleseed;
    a.injection = r.get_f64()?;
    a.spreading_factor = r.get_f64()?;
    a.convergence = r.get_f64()?;
    a.backward_weight = r.get_f64()?;
    a.max_iterations = r.get_u64()? as usize;
    a.max_range = get_opt_u64(r)?.map(|v| v as u32);
    a.max_nodes = get_opt_u64(r)?.map(|v| v as usize);
    a.distrust = r.get_bool()?;
    a.spreading_power = r.get_f64()?;
    config.neighborhood.max_peers = r.get_u64()? as usize;
    config.neighborhood.min_rank = r.get_f64()?;
    config.profile.total_score = r.get_f64()?;
    config.profile.min_rating = r.get_f64()?;
    config.profile.rating_weighted = r.get_bool()?;
    config.similarity = match r.get_u8()? {
        0 => SimilarityMeasure::Pearson,
        1 => SimilarityMeasure::Cosine,
        other => return Err(Error::Corrupt(format!("similarity tag {other}"))),
    };
    config.synthesis = match r.get_u8()? {
        0 => SynthesisStrategy::LinearBlend { xi: r.get_f64()? },
        1 => SynthesisStrategy::BordaMerge,
        2 => SynthesisStrategy::TrustFilter,
        other => return Err(Error::Corrupt(format!("synthesis tag {other}"))),
    };
    config.voting.min_rating = r.get_f64()?;
    config.voting.rating_weighted_votes = r.get_bool()?;
    config.voting.min_voters = r.get_u64()? as usize;
    config.novel_categories_only = r.get_bool()?;
    Ok(config)
}

pub(crate) fn encode_taxonomy(w: &mut Writer, t: &TaxonomyParts) {
    w.put_len(t.labels.len());
    for label in &t.labels {
        w.put_str(label);
    }
    for lists in [&t.parents, &t.children] {
        w.put_len(lists.len());
        for list in lists {
            w.put_len(list.len());
            for id in list {
                w.put_u32(id.index() as u32);
            }
        }
    }
    w.put_len(t.depth.len());
    for &d in &t.depth {
        w.put_u32(d);
    }
}

pub(crate) fn decode_taxonomy(r: &mut Reader<'_>) -> Result<TaxonomyParts> {
    let label_count = r.get_len()?;
    let mut labels = Vec::with_capacity(label_count);
    for _ in 0..label_count {
        labels.push(r.get_str()?);
    }
    let mut adjacency = [Vec::new(), Vec::new()];
    for lists in &mut adjacency {
        let list_count = r.get_len()?;
        lists.reserve(list_count);
        for _ in 0..list_count {
            let id_count = r.get_len()?;
            let mut list = Vec::with_capacity(id_count);
            for _ in 0..id_count {
                list.push(TopicId::from_index(r.get_u32()? as usize));
            }
            lists.push(list);
        }
    }
    let [parents, children] = adjacency;
    let depth_count = r.get_len()?;
    let mut depth = Vec::with_capacity(depth_count);
    for _ in 0..depth_count {
        depth.push(r.get_u32()?);
    }
    Ok(TaxonomyParts { labels, parents, children, depth })
}

pub(crate) fn encode_string_list(w: &mut Writer, list: &[String]) {
    w.put_len(list.len());
    for s in list {
        w.put_str(s);
    }
}

pub(crate) fn decode_string_list(r: &mut Reader<'_>) -> Result<Vec<String>> {
    let count = r.get_len()?;
    let mut list = Vec::with_capacity(count);
    for _ in 0..count {
        list.push(r.get_str()?);
    }
    Ok(list)
}

pub(crate) fn encode_scored_list(w: &mut Writer, list: &[(String, f64)]) {
    w.put_len(list.len());
    for (key, score) in list {
        w.put_str(key);
        w.put_f64(*score);
    }
}

pub(crate) fn decode_scored_list(r: &mut Reader<'_>) -> Result<Vec<(String, f64)>> {
    let count = r.get_len()?;
    let mut list = Vec::with_capacity(count);
    for _ in 0..count {
        let key = r.get_str()?;
        let score = r.get_f64()?;
        list.push((key, score));
    }
    Ok(list)
}

pub(crate) fn encode_agent(w: &mut Writer, agent: &ExtractedAgent) {
    w.put_str(&agent.uri);
    encode_scored_list(w, &agent.trust);
    encode_scored_list(w, &agent.ratings);
    encode_string_list(w, &agent.knows);
    encode_string_list(w, &agent.see_also);
}

pub(crate) fn decode_agent(r: &mut Reader<'_>) -> Result<ExtractedAgent> {
    Ok(ExtractedAgent {
        uri: r.get_str()?,
        trust: decode_scored_list(r)?,
        ratings: decode_scored_list(r)?,
        knows: decode_string_list(r)?,
        see_also: decode_string_list(r)?,
    })
}
