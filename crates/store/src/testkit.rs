//! The one test world of this crate's unit tests, and the helpers that
//! read and damage what it encodes to.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use semrec_core::{Recommender, RecommenderConfig};
use semrec_taxonomy::fixtures::example1;
use semrec_web::crawler::CommunityBuilder;
use semrec_web::extract::ExtractedAgent;

use crate::codec::fnv1a64;

/// A unique per-test scratch directory (no external tempfile crate).
pub fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("semrec-store-{}-{tag}-{n}", std::process::id()))
}

fn agent(i: usize, trust: &[(usize, f64)], ratings: &[(&str, f64)]) -> ExtractedAgent {
    ExtractedAgent {
        uri: format!("http://ex.org/u{i}"),
        trust: trust.iter().map(|&(j, v)| (format!("http://ex.org/u{j}"), v)).collect(),
        ratings: ratings.iter().map(|&(p, v)| (p.to_owned(), v)).collect(),
        knows: trust.iter().map(|&(j, _)| format!("http://ex.org/u{j}")).collect(),
        see_also: vec![format!("http://ex.org/u{}", (i + 2) % 6)],
    }
}

/// A six-agent ring over the Example 1 taxonomy and catalog, with
/// distrust, negative ratings and `see_also` links, plus its engine built
/// the way a crawl would build it.
pub fn world() -> (Recommender, Vec<ExtractedAgent>) {
    let e = example1();
    let ids: Vec<String> =
        e.catalog.iter().map(|p| e.catalog.product(p).identifier.clone()).collect();
    let view: Vec<ExtractedAgent> = (0..6)
        .map(|i| {
            agent(
                i,
                &[((i + 1) % 6, 0.9), ((i + 3) % 6, -0.4)],
                &[(ids[i % ids.len()].as_str(), 1.0), (ids[(i + 1) % ids.len()].as_str(), -0.5)],
            )
        })
        .collect();
    let (community, _) = CommunityBuilder::new(&view).build(e.fig.taxonomy, e.catalog);
    (Recommender::new(community, RecommenderConfig::default()), view)
}

/// Every agent's top 10, score bits included.
pub fn render(engine: &Recommender) -> String {
    let mut out = String::new();
    for a in engine.community().agents() {
        out.push_str(&format!("{a:?}:"));
        for rec in engine.recommend(a, 10).expect("recommendation succeeds") {
            out.push_str(&format!(" {:?}={}", rec.product, rec.score.to_bits()));
        }
        out.push('\n');
    }
    out
}

/// Overwrites `at` with `with` and re-seals the trailing checksum, as a
/// writer that means harm (or a buggy one) would.
pub fn resealed(bytes: &[u8], at: usize, with: &[u8]) -> Vec<u8> {
    let mut bytes = bytes.to_vec();
    bytes[at..at + with.len()].copy_from_slice(with);
    let body_end = bytes.len() - 8;
    let checksum = fnv1a64(&bytes[..body_end]);
    bytes[body_end..].copy_from_slice(&checksum.to_le_bytes());
    bytes
}
