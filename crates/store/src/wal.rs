//! The append-only write-ahead log of [`CrawlDelta`] records.
//!
//! Between snapshots, every refresh appends one [`WalRecord`]: the typed
//! delta the crawl emitted plus the post-refresh [`SourceHealth`] (which
//! `Recommender::advance` needs to attach to the advanced model). Recovery
//! replays the log in order on top of the snapshot's standing view —
//! `CommunityBuilder::apply_delta` + `build` + `advance` — which is the
//! exact code path a live refresh takes, so a replayed model is
//! byte-identical to the model the appender had.
//!
//! On-disk layout — this is its one home; every append-only log in the
//! workspace (this WAL, and `semrec-shard`'s directory and boundary logs)
//! is a header followed by frames, written by [`frame`] and walked by
//! [`read_frames`] and by nothing else:
//!
//! ```text
//! magic: 8 bytes | version: u32               ("SEMRECWL", 1 for the WAL)
//! repeated: payload_len: u32 | fnv1a64(payload): u64 | payload
//! ```
//!
//! A WAL payload is `seq: u64 | health | delta` ([`encode_record`]).
//!
//! Each frame is independently checksummed, so a crash mid-append leaves
//! a *torn tail*: the valid prefix replays normally and the tail surfaces
//! as a typed error ([`WalReadout::torn`]) instead of poisoning the whole
//! log. Header-level damage (bad magic/version) is fatal for the log and
//! makes recovery fall back to an older snapshot. FNV-1a is a checksum, not
//! a MAC: a record that passes it is still checked against the view it is
//! replayed onto (`Store::recover`).

use semrec_core::SourceHealth;
use semrec_web::delta::{AgentDiff, CrawlDelta};

use crate::codec::{
    check_header, decode_agent, decode_health, decode_scored_list, decode_string_list,
    encode_agent, encode_health, encode_scored_list, encode_string_list, fnv1a64, Reader, Writer,
};
use crate::error::{Error, Result};

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"SEMRECWL";
/// The WAL format version this build writes and reads.
pub const WAL_VERSION: u32 = 1;

/// One appended refresh: its delta and the post-refresh source health.
#[derive(Clone, Debug, PartialEq)]
pub struct WalRecord {
    /// Position in the log, starting at 1 after the owning snapshot.
    pub seq: u64,
    /// The typed crawl delta the refresh emitted.
    pub delta: CrawlDelta,
    /// Source health after the refresh (attached to the advanced model).
    pub health: SourceHealth,
}

/// The result of reading a WAL: every intact record in order, plus the
/// typed error describing the torn tail, if any.
#[derive(Debug, Default)]
pub struct WalReadout {
    /// Records whose framing and checksum were intact, in append order.
    pub records: Vec<WalRecord>,
    /// Why reading stopped early (`None` when the log ended cleanly).
    pub torn: Option<Error>,
}

/// The bytes of an empty log: `magic | version`.
pub fn log_header(magic: &[u8; 8], version: u32) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_raw(magic);
    w.put_u32(version);
    w.into_bytes()
}

/// The bytes of an empty WAL (header only).
pub fn wal_header() -> Vec<u8> {
    log_header(WAL_MAGIC, WAL_VERSION)
}

/// One frame, ready to append: `payload_len: u32 | fnv1a64(payload): u64 |
/// payload`.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut framed = Writer::new();
    framed.put_u32(u32::try_from(payload.len()).expect("a frame payload fits in u32"));
    framed.put_u64(fnv1a64(payload));
    framed.put_raw(payload);
    framed.into_bytes()
}

/// Walks a whole log: the payload of every intact frame, in order, plus the
/// typed reason the walk stopped early (`None` when the log ended cleanly).
///
/// Header damage (short file, bad magic, unsupported version) is a hard
/// `Err` — nothing in the log can be trusted. Frame-level damage stops the
/// walk at the last intact frame.
pub fn read_frames<'a>(
    bytes: &'a [u8],
    magic: &'static [u8; 8],
    version: u32,
) -> Result<(Vec<&'a [u8]>, Option<Error>)> {
    let mut rest = check_header(bytes, magic, version, "log header")?;
    let mut payloads = Vec::new();
    while !rest.is_empty() {
        if rest.len() < 12 {
            return Ok((payloads, Some(Error::Truncated { context: "log frame" })));
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        let stored = u64::from_le_bytes(rest[4..12].try_into().expect("8 bytes"));
        if rest.len() - 12 < len {
            return Ok((payloads, Some(Error::Truncated { context: "log frame payload" })));
        }
        let payload = &rest[12..12 + len];
        let computed = fnv1a64(payload);
        if computed != stored {
            return Ok((payloads, Some(Error::ChecksumMismatch { computed, stored })));
        }
        payloads.push(payload);
        rest = &rest[12 + len..];
    }
    Ok((payloads, None))
}

/// Serializes one record as a framed, checksummed entry ready to append.
pub fn encode_record(record: &WalRecord) -> Vec<u8> {
    let mut payload = Writer::new();
    payload.put_u64(record.seq);
    encode_health(&mut payload, &record.health);
    encode_delta(&mut payload, &record.delta);
    frame(payload.as_bytes())
}

/// Reads a whole WAL byte buffer.
///
/// Header damage is a hard `Err` ([`read_frames`]). Record-level damage —
/// a torn frame, or a payload that is not a record — stops the read at the
/// last intact record, with the valid prefix in [`WalReadout::records`] and
/// the typed cause in [`WalReadout::torn`].
pub fn decode_wal(bytes: &[u8]) -> Result<WalReadout> {
    let (payloads, torn) = read_frames(bytes, WAL_MAGIC, WAL_VERSION)?;
    let mut readout = WalReadout { records: Vec::with_capacity(payloads.len()), torn };
    for payload in payloads {
        match decode_payload(payload) {
            Ok(record) => readout.records.push(record),
            Err(e) => {
                readout.torn = Some(e);
                break;
            }
        }
    }
    Ok(readout)
}

fn decode_payload(payload: &[u8]) -> Result<WalRecord> {
    let mut r = Reader::new(payload, "wal record");
    let seq = r.get_u64()?;
    let health = decode_health(&mut r)?;
    let delta = decode_delta(&mut r)?;
    if !r.is_exhausted() {
        return Err(Error::Corrupt("trailing bytes after wal record".into()));
    }
    Ok(WalRecord { seq, delta, health })
}

fn put_opt_strings(w: &mut Writer, v: &Option<Vec<String>>) {
    match v {
        Some(list) => {
            w.put_bool(true);
            encode_string_list(w, list);
        }
        None => w.put_bool(false),
    }
}

fn get_opt_strings(r: &mut Reader<'_>) -> Result<Option<Vec<String>>> {
    Ok(if r.get_bool()? { Some(decode_string_list(r)?) } else { None })
}

fn encode_delta(w: &mut Writer, delta: &CrawlDelta) {
    w.put_len(delta.added.len());
    for agent in &delta.added {
        encode_agent(w, agent);
    }
    w.put_len(delta.changed.len());
    for diff in &delta.changed {
        w.put_str(&diff.uri);
        encode_scored_list(w, &diff.trust_set);
        encode_string_list(w, &diff.trust_removed);
        encode_scored_list(w, &diff.ratings_set);
        encode_string_list(w, &diff.ratings_removed);
        put_opt_strings(w, &diff.knows);
        put_opt_strings(w, &diff.see_also);
    }
    encode_string_list(w, &delta.removed);
    w.put_len(delta.unchanged);
}

fn decode_delta(r: &mut Reader<'_>) -> Result<CrawlDelta> {
    let added_count = r.get_len()?;
    let mut added = Vec::with_capacity(added_count);
    for _ in 0..added_count {
        added.push(decode_agent(r)?);
    }
    let changed_count = r.get_len()?;
    let mut changed = Vec::with_capacity(changed_count);
    for _ in 0..changed_count {
        changed.push(AgentDiff {
            uri: r.get_str()?,
            trust_set: decode_scored_list(r)?,
            trust_removed: decode_string_list(r)?,
            ratings_set: decode_scored_list(r)?,
            ratings_removed: decode_string_list(r)?,
            knows: get_opt_strings(r)?,
            see_also: get_opt_strings(r)?,
        });
    }
    let removed = decode_string_list(r)?;
    let unchanged = r.get_u64()? as usize;
    Ok(CrawlDelta { added, changed, removed, unchanged })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::for_each_mutation;
    use semrec_web::extract::ExtractedAgent;

    fn record(seq: u64) -> WalRecord {
        WalRecord {
            seq,
            delta: CrawlDelta {
                added: vec![ExtractedAgent {
                    uri: format!("http://ex.org/new{seq}"),
                    trust: vec![("http://ex.org/a".into(), 0.75)],
                    ratings: vec![("isbn:1".into(), -0.5)],
                    knows: vec!["http://ex.org/a".into()],
                    see_also: vec![],
                }],
                changed: vec![AgentDiff {
                    uri: "http://ex.org/a".into(),
                    trust_set: vec![("http://ex.org/b".into(), 0.25)],
                    trust_removed: vec!["http://ex.org/c".into()],
                    ratings_set: vec![("isbn:2".into(), 1.0)],
                    ratings_removed: vec!["isbn:3".into()],
                    knows: Some(vec!["http://ex.org/b".into()]),
                    see_also: None,
                }],
                removed: vec!["http://ex.org/gone".into()],
                unchanged: 41,
            },
            health: SourceHealth { attempted: 9, fetched: 8, unreachable: 1, ..Default::default() },
        }
    }

    fn log(records: &[WalRecord]) -> Vec<u8> {
        let mut bytes = wal_header();
        for r in records {
            bytes.extend_from_slice(&encode_record(r));
        }
        bytes
    }

    #[test]
    fn records_round_trip_exactly() {
        let records = vec![record(1), record(2), record(3)];
        let readout = decode_wal(&log(&records)).unwrap();
        assert!(readout.torn.is_none());
        assert_eq!(readout.records, records);
    }

    #[test]
    fn empty_log_is_just_the_header() {
        let readout = decode_wal(&wal_header()).unwrap();
        assert!(readout.records.is_empty());
        assert!(readout.torn.is_none());
    }

    #[test]
    fn torn_tail_keeps_the_valid_prefix() {
        let bytes = log(&[record(1), record(2)]);
        for cut in [bytes.len() - 1, bytes.len() - 10] {
            let readout = decode_wal(&bytes[..cut]).unwrap();
            assert_eq!(readout.records, vec![record(1)], "cut at {cut}");
            assert!(matches!(readout.torn, Some(Error::Truncated { .. })));
        }
    }

    #[test]
    fn bit_flip_in_a_record_stops_with_checksum_mismatch() {
        let mut bytes = log(&[record(1), record(2)]);
        let flip_at = bytes.len() - 3; // inside record 2's payload
        bytes[flip_at] ^= 0x40;
        let readout = decode_wal(&bytes).unwrap();
        assert_eq!(readout.records, vec![record(1)]);
        assert!(matches!(readout.torn, Some(Error::ChecksumMismatch { .. })));
    }

    #[test]
    fn header_damage_is_fatal() {
        let good = log(&[record(1)]);
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(decode_wal(&bad_magic), Err(Error::BadMagic { .. })));
        let mut bad_version = good.clone();
        bad_version[8] = 99;
        assert!(matches!(
            decode_wal(&bad_version),
            Err(Error::BadVersion { found: 99, .. })
        ));
        assert!(matches!(decode_wal(&good[..5]), Err(Error::Truncated { .. })));
    }

    #[test]
    fn no_mutation_of_a_small_log_panics() {
        // Exhaustive single-byte corruption: every truncation and a bit-flip
        // in every byte must come back as a typed result, never a panic,
        // holding a prefix of what was written — the whole of it never (a
        // cut on a frame boundary is a clean, shorter log).
        let records = [record(1), record(2)];
        for_each_mutation(&log(&records), 1, |what, mutated| {
            if let Ok(readout) = decode_wal(mutated) {
                assert!(records.starts_with(&readout.records), "{what}: invented a record");
                assert!(readout.records.len() < records.len(), "{what}: went unnoticed");
            }
        });
    }

    #[test]
    fn frames_round_trip_under_any_header() {
        let mut bytes = log_header(b"SOMELOG1", 7);
        bytes.extend_from_slice(&frame(b"first"));
        bytes.extend_from_slice(&frame(b""));
        let (payloads, torn) = read_frames(&bytes, b"SOMELOG1", 7).unwrap();
        assert_eq!(payloads, [&b"first"[..], &b""[..]]);
        assert!(torn.is_none());
        assert!(matches!(read_frames(&bytes, b"SOMELOG1", 8), Err(Error::BadVersion { found: 7, .. })));
        assert!(matches!(read_frames(&bytes, WAL_MAGIC, 7), Err(Error::BadMagic { .. })));
    }
}
