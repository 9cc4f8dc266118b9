//! Cross-version snapshot compatibility: a **committed** v1 snapshot file
//! (`tests/fixtures/snapshot-v1.hex`, written by the frozen per-record
//! format and stored as lower-case hex, 64 characters per line, so that no
//! ignore rule for binaries and no text-only patch transport can drop it)
//! must keep recovering byte-identically through the dispatching
//! loader, even though live stores now write format v2 — and the first
//! checkpoint after such a recovery upgrades the store to v2 through the
//! same path.
//!
//! Nothing in the tree can write that file again — the v1 encoder is
//! deleted, the committed hex is the format's contract — so `world()` below
//! is what the fixture holds, and must not change.

use std::path::PathBuf;

use semrec::core::{Recommender, RecommenderConfig};
use semrec::store::{sniff_version, wal_header, Store, SNAPSHOT_V2, SNAPSHOT_VERSION};
use semrec::taxonomy::fixtures::example1;
use semrec::web::crawler::CommunityBuilder;
use semrec::web::extract::ExtractedAgent;
use semrec::{AgentId, ProductId};

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/snapshot-v1.hex")
}

/// The deterministic six-agent ring world over Example 1 the fixture was
/// captured from.
fn world() -> (Recommender, Vec<ExtractedAgent>) {
    let e = example1();
    let ids: Vec<String> =
        e.catalog.iter().map(|p| e.catalog.product(p).identifier.clone()).collect();
    let view: Vec<ExtractedAgent> = (0..6)
        .map(|i| ExtractedAgent {
            uri: format!("http://ex.org/u{i}"),
            trust: vec![
                (format!("http://ex.org/u{}", (i + 1) % 6), 0.9),
                (format!("http://ex.org/u{}", (i + 3) % 6), -0.4),
            ],
            ratings: vec![
                (ids[i % ids.len()].clone(), 1.0),
                (ids[(i + 1) % ids.len()].clone(), -0.5),
            ],
            knows: vec![format!("http://ex.org/u{}", (i + 1) % 6)],
            see_also: vec![format!("http://ex.org/u{}", (i + 2) % 6)],
        })
        .collect();
    let (community, _) = CommunityBuilder::new(&view).build(e.fig.taxonomy, e.catalog);
    (Recommender::new(community, RecommenderConfig::default()), view)
}

/// Bit-exact fingerprint of every agent's top recommendations.
fn fingerprint(engine: &Recommender) -> Vec<(AgentId, ProductId, u64)> {
    let mut out = Vec::new();
    for a in engine.community().agents() {
        for rec in engine.recommend(a, 10).expect("recommendation succeeds") {
            out.push((a, rec.product, rec.score.to_bits()));
        }
    }
    out
}

/// The committed fixture's bytes.
fn fixture_bytes() -> Vec<u8> {
    let text = std::fs::read_to_string(fixture_path()).expect("committed fixture exists");
    let hex: String = text.split_whitespace().collect();
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("two hex digits per byte"))
        .collect()
}

#[test]
fn committed_v1_snapshot_recovers_byte_identically_and_upgrades_to_v2() {
    let bytes = fixture_bytes();
    assert_eq!(sniff_version(&bytes), Some(SNAPSHOT_VERSION), "fixture is a v1 frame");

    // Stage the fixture as a store directory: newest snapshot + empty WAL.
    let dir = std::env::temp_dir()
        .join(format!("semrec-snapshot-compat-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let store = Store::open(&dir).expect("store opens");
    std::fs::write(store.snapshot_path(1), &bytes).unwrap();
    std::fs::write(store.wal_path(1), wal_header()).unwrap();

    let (live, view) = world();
    let expected = fingerprint(&live);

    // The dispatching loader takes the v1 branch and lands bit-for-bit on
    // the live model.
    let recovery = store.recover().expect("v1 fixture recovers");
    assert_eq!(recovery.epoch, 1);
    assert_eq!(recovery.replayed, 0);
    assert!(!recovery.degraded());
    assert_eq!(recovery.view, view);
    assert_eq!(fingerprint(&recovery.engine), expected);

    // Checkpointing the recovered node writes format v2; recovery then
    // takes the arena branch and still serves the same bytes.
    store
        .checkpoint(&recovery.engine, &recovery.view, recovery.epoch + 1)
        .expect("checkpoint succeeds");
    let upgraded = std::fs::read(store.snapshot_path(2)).unwrap();
    assert_eq!(sniff_version(&upgraded), Some(SNAPSHOT_V2), "new snapshots are v2");
    let again = store.recover().expect("v2 snapshot recovers");
    assert_eq!(again.epoch, 2);
    assert_eq!(again.view, view);
    assert_eq!(fingerprint(&again.engine), expected);

    std::fs::remove_dir_all(&dir).ok();
}
