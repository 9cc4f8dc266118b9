//! **E22 — Zero-copy hot path** (CSR/arena model layout): what the
//! flat-memory layout costs in bytes and what a snapshot of it restores,
//! with byte-identity pinned. Every wall-clock comparison lives in `perf/`:
//! `core.similarity_us` (pair scoring over the profile slab),
//! `trust.neighborhood_us`, `store.snapshot_decode_ms`.
//!
//! One community, snapshotted as the v2 arena file ([`decode_v2`]: the
//! model's arenas written verbatim, so recovery is a handful of bulk
//! copies). The restore must serve what the live model serves, bit for
//! bit. (The per-record format 1 this used to be sized against is gone;
//! EXPERIMENTS.md keeps the last measured ratio.)
//!
//! Resident model bytes (the `model.bytes` gauge family) are reported so
//! the arena layout's footprint is visible.

use semrec_core::{AgentId, Recommender, RecommenderConfig};
use semrec_datagen::community::generate_community;
use semrec_eval::table::Table;
use semrec_obs::MetricsSnapshot;
use semrec_store::{decode_v2, encode_v2};
use semrec_web::crawler::{crawl, CommunityBuilder, CrawlConfig};
use semrec_web::publish::publish_community;
use semrec_web::store::DocumentWeb;

use super::fingerprint;
use crate::Scale;

/// Measured outcomes for shape assertions.
pub struct Outcome {
    /// Community size.
    pub agents: usize,
    /// v2 snapshot size, bytes.
    pub v2_bytes: usize,
    /// v2 restore ≡ live model, bit for bit (panel scores).
    pub load_identical: bool,
    /// Resident model bytes (trust CSR + profile slab + origin stamps).
    pub resident_bytes: usize,
    /// `model.*` of the live engine's `Recommender::metrics()`.
    pub model_metrics: MetricsSnapshot,
}

/// Runs E22.
pub fn run(scale: Scale) -> (Outcome, String) {
    let mut out =
        super::header("E22", "Zero-copy hot path — arena layout footprint and the v2 snapshot");
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
    outln!(
        out,
        "{agents} agents, {} trust statements; resident model arenas: {resident_bytes} bytes\n",
        shared.community().trust.edge_count(),
    );

    let view = builder.agents();
    let v2 = encode_v2(&engine, view, 1);

    let live = fingerprint(&engine, &panel);
    let from_v2 = decode_v2(&v2).unwrap();
    let load_identical = from_v2.view == view && fingerprint(&from_v2.engine, &panel) == live;

    let mut table = Table::new(["measurement", "v2 arena"]);
    table.row(["snapshot bytes".into(), v2.len().to_string()]);
    outln!(out, "{}", table.render());
    outln!(out, "byte-identity: recover-then-serve {}", if load_identical { "yes" } else { "NO" });
    outln!(out, "\nThe v2 snapshot stores the model's arenas verbatim, so loading is bulk copies");
    outln!(out, "plus validation — CommunityBuilder, per-record framing, and every per-edge hash");
    outln!(out, "insert drop out of the restart path entirely.");
    outln!(out, "\nmodel.* of Recommender::metrics() for the live engine:");
    let model_metrics = engine.metrics().retain_prefix("model.");
    out += &super::books(&model_metrics);

    let outcome = Outcome {
        agents,
        v2_bytes: v2.len(),
        load_identical,
        resident_bytes,
        model_metrics,
    };
    (outcome, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restore_is_byte_identical() {
        let (o, text) = run(Scale::Small);
        assert!(o.load_identical, "the v2 restore must match the live model");
        assert!(o.v2_bytes > 0);
        assert!(o.resident_bytes > 0);
        for gauge in ["model.bytes", "model.bytes.trust_csr", "model.bytes.profile_slab"] {
            assert!(o.model_metrics.gauges[gauge] > 0.0, "{gauge} must report the footprint");
        }
        super::super::assert_golden(&text);
    }
}
