//! A minimal length-prefixed binary codec plus the FNV-1a-64 checksum.
//!
//! Deliberately boring: little-endian fixed-width integers, `u64`
//! length-prefixed byte strings, `f64` persisted as raw IEEE-754 bits so a
//! round trip is bit-exact (the repo-wide byte-identity contract lives or
//! dies on this). Every read is bounds-checked and returns a typed
//! [`Error::Truncated`] instead of slicing past the end. The field codecs
//! the snapshot and the WAL share (health, config, taxonomy, agents) and
//! the header check every file of this crate opens with live here too.

use semrec_core::{RecommenderConfig, SimilarityMeasure, SourceHealth, SynthesisStrategy};
use semrec_taxonomy::{TaxonomyParts, TopicId};
use semrec_web::extract::ExtractedAgent;

use crate::error::{Error, Result};

/// FNV-1a 64-bit hash — the snapshot/WAL integrity checksum.
///
/// Re-exported from `semrec-hash`, the single canonical implementation
/// shared with fault-decision hashing in `semrec-web`; not cryptographic —
/// it guards against torn writes and bit rot, not adversaries.
pub use semrec_hash::fnv1a64;

/// Append-only byte buffer with typed `put_*` helpers.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning its buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends raw bytes with no framing.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn put_len(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its raw IEEE-754 bits (bit-exact round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_len(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Pads with zero bytes until the buffer length is a multiple of 8.
    ///
    /// Snapshot-v2 arenas are written 8-byte aligned relative to the file
    /// start (the writer buffer includes the 12-byte frame header), so an
    /// eventual memory-mapped reader could reinterpret them in place.
    pub fn align8(&mut self) {
        while !self.buf.len().is_multiple_of(8) {
            self.buf.push(0);
        }
    }

    /// Bytes written so far — the offset the next `put_*` will land at.
    pub fn offset(&self) -> usize {
        self.buf.len()
    }

    /// Overwrites a previously written `u64` in place (e.g. a section
    /// length that is only known after the section is written).
    ///
    /// # Panics
    /// If `offset..offset + 8` is not already written.
    pub fn patch_u64(&mut self, offset: usize, v: u64) {
        self.buf[offset..offset + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` arena: length prefix, alignment padding, then the
    /// elements as raw little-endian bytes.
    pub fn put_u32_arena(&mut self, values: &[u32]) {
        self.put_len(values.len());
        self.align8();
        for &v in values {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends an `f64` arena as raw IEEE-754 bit patterns (bit-exact
    /// round trip), length-prefixed and aligned like
    /// [`Writer::put_u32_arena`].
    pub fn put_f64_arena(&mut self, values: &[f64]) {
        self.put_len(values.len());
        self.align8();
        for &v in values {
            self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
}

/// Bounds-checked cursor over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Absolute file offset of `bytes[0]` — needed to honor the 8-byte
    /// alignment padding [`Writer::align8`] computed against the file
    /// start. 0 unless set via [`Reader::with_base`].
    base: usize,
    /// Reported in [`Error::Truncated`] so the caller knows which
    /// structure the bytes ran out in.
    context: &'static str,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`, tagging truncation errors with `context`.
    pub fn new(bytes: &'a [u8], context: &'static str) -> Self {
        Reader { bytes, pos: 0, base: 0, context }
    }

    /// Like [`Reader::new`], for a slice that starts `base` bytes into the
    /// file the writer produced (e.g. a frame payload after the 12-byte
    /// header), so alignment padding is skipped correctly.
    pub fn with_base(bytes: &'a [u8], context: &'static str, base: usize) -> Self {
        Reader { bytes, pos: 0, base, context }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Bytes consumed so far, relative to the slice this reader was built
    /// over (add [`Reader::with_base`]'s base for the file offset).
    pub fn position(&self) -> usize {
        self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::Truncated { context: self.context });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a length (`u64`) and sanity-bounds it against the bytes that
    /// are actually left, so a corrupted length cannot trigger a huge
    /// allocation before the inevitable truncation error.
    pub fn get_len(&mut self) -> Result<usize> {
        let v = self.get_u64()?;
        if v > self.remaining() as u64 {
            return Err(Error::Truncated { context: self.context });
        }
        Ok(v as usize)
    }

    /// Reads an `f64` from its raw IEEE-754 bits.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a bool, rejecting anything but 0/1 as corruption.
    pub fn get_bool(&mut self) -> Result<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(Error::Corrupt(format!("bool byte {other} in {}", self.context))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        let len = self.get_len()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| Error::Corrupt(format!("invalid UTF-8 in {}", self.context)))
    }

    /// Skips the zero padding [`Writer::align8`] wrote.
    fn skip_align8(&mut self) -> Result<()> {
        let misalign = (self.base + self.pos) % 8;
        if misalign != 0 {
            self.take(8 - misalign)?;
        }
        Ok(())
    }

    /// Reads a raw byte run of explicit length (no length prefix).
    pub fn take_raw(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Reads a `u32` arena written by [`Writer::put_u32_arena`]: one
    /// bounds-checked slice take, then a bulk little-endian copy — no
    /// per-element framing.
    pub fn get_u32_arena(&mut self) -> Result<Vec<u32>> {
        let len = self.get_len()?;
        self.skip_align8()?;
        let raw = self.take(len.checked_mul(4).ok_or(Error::Truncated { context: self.context })?)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    /// Reads an `f64` arena written by [`Writer::put_f64_arena`] —
    /// bit patterns copied verbatim, no float re-derivation.
    pub fn get_f64_arena(&mut self) -> Result<Vec<f64>> {
        let len = self.get_len()?;
        self.skip_align8()?;
        let raw = self.take(len.checked_mul(8).ok_or(Error::Truncated { context: self.context })?)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
            .collect())
    }
}

/// The mutation gauntlet the tests of every decoder of bytes-we-did-not-
/// write share: `decode` sees `bytes` cut short at every length, then with
/// one bit flipped in every `stride`-th byte, each time with a label of
/// what was done. Returning is "did not panic"; what else must hold of each
/// result is the closure's to assert.
pub fn for_each_mutation(bytes: &[u8], stride: usize, mut decode: impl FnMut(&str, &[u8])) {
    for cut in 0..bytes.len() {
        decode(&format!("cut at {cut}"), &bytes[..cut]);
    }
    let mut mutated = bytes.to_vec();
    for i in (0..bytes.len()).step_by(stride) {
        mutated[i] ^= 0x04;
        decode(&format!("bit flipped in byte {i}"), &mutated);
        mutated[i] ^= 0x04;
    }
}

// Field codecs the snapshot and the WAL share.

/// Validates the `magic | version: u32` header every file of this crate
/// opens with, returning what follows it.
pub(crate) fn check_header<'a>(
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn round_trip_all_types() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-0.1f64);
        w.put_bool(true);
        w.put_str("héllo");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "test");
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.1f64).to_bits());
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncation_is_typed_not_a_panic() {
        let mut w = Writer::new();
        w.put_u64(42);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..5], "unit");
        assert!(matches!(r.get_u64(), Err(Error::Truncated { context: "unit" })));
    }

    #[test]
    fn hostile_length_prefix_cannot_demand_a_huge_allocation() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX); // claims ~18EB follow
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "unit");
        assert!(matches!(r.get_len(), Err(Error::Truncated { .. })));
    }

    #[test]
    fn bad_bool_and_bad_utf8_are_corruption() {
        let mut r = Reader::new(&[9], "unit");
        assert!(matches!(r.get_bool(), Err(Error::Corrupt(_))));
        let mut w = Writer::new();
        w.put_len(2);
        w.put_raw(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "unit");
        assert!(matches!(r.get_str(), Err(Error::Corrupt(_))));
    }
}
