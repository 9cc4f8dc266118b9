//! **E22 — Zero-copy hot path** (CSR/arena model layout): what the
//! flat-memory layout costs in bytes and what a snapshot of it loads like,
//! with byte-identity pinned. Wall-clock comparisons live in `perf/`
//! (`trust.neighborhood_us`, `store.snapshot_decode_ms`); the times printed
//! here are reported, never asserted.
//!
//! Two measurements on the same community:
//!
//! * **Similarity throughput** — profile-pair scoring through
//!   [`ProfileView`](semrec_profiles::ProfileView) slices over the
//!   contiguous [`ProfileSlab`](semrec_profiles::ProfileSlab).
//! * **Snapshot load** — the v1 per-record decode+restore path vs the v2
//!   arena cast-on-load path ([`decode_v2`]). v2 writes the model's arenas
//!   verbatim, so recovery is a handful of bulk copies instead of
//!   re-deriving the community through `CommunityBuilder`.
//!
//! Resident model bytes (the `model.bytes` gauge family) are reported so
//! the arena layout's footprint is visible next to its speed.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use semrec_core::{AgentId, ProductId, Recommender, RecommenderConfig};
use semrec_datagen::community::generate_community;
use semrec_eval::table::Table;
use semrec_profiles::similarity;
use semrec_store::{decode_v2, encode_v2, sniff_version, Checkpoint, SNAPSHOT_V2};
use semrec_web::crawler::{crawl, CommunityBuilder, CrawlConfig};
use semrec_web::publish::publish_community;
use semrec_web::store::DocumentWeb;

use crate::Scale;

/// Measured outcomes for shape assertions.
pub struct Outcome {
    /// Community size.
    pub agents: usize,
    /// Similarity pairs scored per second through slab-backed views.
    pub similarity_pairs_per_s: f64,
    /// v1 snapshot size, bytes.
    pub v1_bytes: usize,
    /// v2 snapshot size, bytes.
    pub v2_bytes: usize,
    /// v1 decode + restore latency, ms (best of the timed repetitions).
    pub v1_load_ms: f64,
    /// v2 arena load latency, ms (best of the timed repetitions).
    pub v2_load_ms: f64,
    /// v1 restore ≡ v2 restore ≡ live model, bit for bit (panel scores).
    pub load_identical: bool,
    /// Resident model bytes (trust CSR + profile slab + origin stamps).
    pub resident_bytes: usize,
}

/// Bit-exact fingerprint of a panel's recommendations.
fn fingerprint(engine: &Recommender, panel: &[AgentId]) -> Vec<(AgentId, ProductId, u64)> {
    let mut out = Vec::new();
    for &agent in panel {
        for rec in engine.recommend(agent, 5).expect("recommendation succeeds") {
            out.push((agent, rec.product, rec.score.to_bits()));
        }
    }
    out
}

/// Best-of-N wall time for `f`, ms. Best-of (not mean) because load
/// latency is the quantity of interest and the first iteration pays page
/// faults both paths share.
fn best_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let started = Instant::now();
        std::hint::black_box(f());
        best = best.min(started.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Runs E22.
pub fn run(scale: Scale) -> Outcome {
    super::header("E22", "Zero-copy hot path — arena layout footprint and v1 vs v2 snapshots");
    let (pairs, load_reps) = match scale {
        Scale::Small => (20_000, 3),
        Scale::Medium => (100_000, 5),
        Scale::Paper => (200_000, 5),
    };

    // The same world E18 uses: generate, publish, crawl, build — so the
    // snapshot measurements cover a model with a real standing view.
    let source = generate_community(&scale.community(2222)).community;
    let seeds: Vec<String> =
        source.agents().map(|a| source.agent(a).unwrap().uri.clone()).collect();
    let web = DocumentWeb::new();
    publish_community(&source, &web);
    let crawled = crawl(&web, &seeds, &CrawlConfig::default());
    let builder = CommunityBuilder::new(&crawled.agents);
    let (community, _) = builder.build(source.taxonomy.clone(), source.catalog.clone());
    let engine = Recommender::new(community, RecommenderConfig::default());
    let shared = engine.shared();
    let agents = shared.community().agent_count();
    let panel: Vec<AgentId> = engine.community().agents().take(32).collect();
    let resident_bytes = shared.resident_bytes();
    println!(
        "{agents} agents, {} trust statements; resident model arenas: {resident_bytes} bytes\n",
        shared.community().trust.edge_count(),
    );

    // (a) Similarity throughput over slab-backed profile views.
    let mut rng = StdRng::seed_from_u64(2222);
    let profiles = shared.profiles();
    let started = Instant::now();
    let mut acc = 0.0f64;
    for _ in 0..pairs {
        let a = AgentId::from_index(rng.random_range(0..agents));
        let b = AgentId::from_index(rng.random_range(0..agents));
        acc += similarity::cosine_view(profiles.profile(a), profiles.profile(b)).unwrap_or(0.0);
    }
    let sim_s = started.elapsed().as_secs_f64();
    std::hint::black_box(acc);
    let similarity_pairs_per_s = pairs as f64 / sim_s;

    // (b) Snapshot load: v1 per-record decode+restore vs v2 arena load.
    let view = builder.agents();
    let v1 = Checkpoint::capture(&engine, view, 1).encode();
    let v2 = encode_v2(&engine, view, 1);
    assert_eq!(sniff_version(&v2), Some(SNAPSHOT_V2));
    let v1_load_ms = best_ms(load_reps, || {
        Checkpoint::decode(&v1).expect("v1 intact").restore().expect("v1 restores")
    });
    let v2_load_ms = best_ms(load_reps, || decode_v2(&v2).expect("v2 intact"));

    let live = fingerprint(&engine, &panel);
    let from_v1 = Checkpoint::decode(&v1).unwrap().restore().unwrap();
    let from_v2 = decode_v2(&v2).unwrap();
    let load_identical = from_v1.view == view
        && from_v2.view == view
        && fingerprint(&from_v1.engine, &panel) == live
        && fingerprint(&from_v2.engine, &panel) == live;

    let mut table = Table::new(["measurement", "baseline", "arena", "ratio"]);
    table.row([
        format!("similarity ({pairs} pairs)"),
        "—".into(),
        format!("{:.0}/s", similarity_pairs_per_s),
        "—".into(),
    ]);
    table.row([
        "snapshot bytes".into(),
        v1.len().to_string(),
        v2.len().to_string(),
        format!("{:.2}×", v1.len() as f64 / v2.len() as f64),
    ]);
    table.row([
        format!("snapshot load (ms, best of {load_reps})"),
        format!("{v1_load_ms:.2}"),
        format!("{v2_load_ms:.2}"),
        format!("{:.2}×", v1_load_ms / v2_load_ms),
    ]);
    println!("{}", table.render());
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "byte-identity: recover-then-serve {} · host CPUs: {cpus} ({} decode)",
        if load_identical { "yes" } else { "NO" },
        if cpus > 1 { "overlapped" } else { "serial" },
    );
    println!("\nThe v2 snapshot stores the model's arenas verbatim, so loading is bulk copies");
    println!("plus validation — CommunityBuilder, per-record framing, and every per-edge hash");
    println!("insert drop out of the restart path entirely.");
    println!("\nmodel.* of Recommender::metrics() for the live engine:");
    print!("{}", engine.metrics().retain_prefix("model.").render_text());

    Outcome {
        agents,
        similarity_pairs_per_s,
        v1_bytes: v1.len(),
        v2_bytes: v2.len(),
        v1_load_ms,
        v2_load_ms,
        load_identical,
        resident_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restores_are_byte_identical_and_v2_is_smaller() {
        let o = run(Scale::Small);
        assert!(o.load_identical, "v1 and v2 restores must match the live model");
        assert!(o.v2_bytes < o.v1_bytes, "v2 {} vs v1 {} bytes", o.v2_bytes, o.v1_bytes);
        assert!(o.resident_bytes > 0);
        assert!(o.similarity_pairs_per_s > 0.0);
    }
}
