//! **E19 — Spreading-activation rank synthesization** (§5's future-work
//! gap): how does blending accumulated activation and structural centrality
//! into the final rank change *what* gets recommended?
//!
//! Sweeps [`BlendWeights`] from similarity-only to activation-only and
//! centrality-only, measuring for each blend the top-10 overlap with the
//! [`semrec_core::SimilarityRanker`] baseline (how much the ranking actually
//! moved) and
//! catalog coverage (how much of the product space the recommendations
//! reach).

use std::collections::BTreeSet;
use std::sync::Arc;

use semrec_core::{
    BlendWeights, Recommender, RecommenderConfig, SpreadingActivationRanker, SpreadingParams,
};
use semrec_datagen::community::generate_community;
use semrec_eval::table::{fmt, Table};
use semrec_obs::MetricsSnapshot;

use crate::Scale;

/// The swept blends: `(label, weights)`.
fn blends() -> Vec<(&'static str, BlendWeights)> {
    vec![
        ("similarity only (1/0/0)", BlendWeights::SIMILARITY_ONLY),
        ("sim-heavy (0.7/0.2/0.1)", BlendWeights { similarity: 0.7, activation: 0.2, centrality: 0.1 }),
        ("default (0.5/0.3/0.2)", BlendWeights::default()),
        ("activation-heavy (0.3/0.5/0.2)", BlendWeights { similarity: 0.3, activation: 0.5, centrality: 0.2 }),
        ("activation only (0/1/0)", BlendWeights { similarity: 0.0, activation: 1.0, centrality: 0.0 }),
        ("centrality only (0/0/1)", BlendWeights { similarity: 0.0, activation: 0.0, centrality: 1.0 }),
    ]
}

/// Measured rows for shape assertions.
pub struct Outcome {
    /// `(blend label, mean top-10 overlap vs similarity baseline, coverage)`.
    pub rows: Vec<(String, f64, f64)>,
    /// `rank.*` of the default-blend engine's `Recommender::metrics()`.
    pub default_blend_metrics: MetricsSnapshot,
}

/// Runs E19.
pub fn run(scale: Scale) -> (Outcome, String) {
    let mut out =
        super::header("E19", "Spreading-activation ranking: blend-weight sweep (§5 future work)");
    let panel_size = match scale {
        Scale::Small => 40,
        Scale::Medium => 120,
        Scale::Paper => 250,
    };
    let community = generate_community(&scale.community(1919)).community;
    let catalog_size = community.catalog.iter().count();

    // The fixed reference ranking every blend is compared against.
    let baseline = Recommender::new(community.clone(), RecommenderConfig::default());
    let panel: Vec<_> = baseline.community().agents().take(panel_size).collect();
    let reference: Vec<BTreeSet<_>> = panel
        .iter()
        .map(|&a| {
            baseline
                .recommend(a, 10)
                .map(|r| r.into_iter().map(|x| x.product).collect())
                .unwrap_or_default()
        })
        .collect();
    outln!(out, "Panel of {} users over a {catalog_size}-product catalog\n", panel.len());

    let mut table = Table::new(["blend (sim/act/cent)", "overlap@10", "coverage", "recs"]);
    let mut rows = Vec::new();
    let mut default_blend_metrics = MetricsSnapshot::default();
    for (label, blend) in blends() {
        let ranker = SpreadingActivationRanker::new(SpreadingParams {
            blend,
            ..SpreadingParams::default()
        });
        let engine = Recommender::with_ranker(
            community.clone(),
            RecommenderConfig::default(),
            Arc::new(ranker),
        );
        let mut overlap_sum = 0.0;
        let mut compared = 0usize;
        let mut produced = 0usize;
        let mut reached: BTreeSet<_> = BTreeSet::new();
        for (i, &agent) in panel.iter().enumerate() {
            let recs = engine.recommend(agent, 10).unwrap_or_default();
            produced += recs.len();
            let set: BTreeSet<_> = recs.iter().map(|r| r.product).collect();
            reached.extend(set.iter().copied());
            let reference = &reference[i];
            if !reference.is_empty() {
                overlap_sum +=
                    set.intersection(reference).count() as f64 / reference.len() as f64;
                compared += 1;
            }
        }
        let overlap = if compared > 0 { overlap_sum / compared as f64 } else { 0.0 };
        let coverage = reached.len() as f64 / catalog_size as f64;
        table.row([label.to_owned(), fmt(overlap), fmt(coverage), produced.to_string()]);
        rows.push((label.to_owned(), overlap, coverage));
        if blend == BlendWeights::default() {
            default_blend_metrics = engine.metrics().retain_prefix("rank.");
        }
    }
    outln!(out, "{}", table.render());
    outln!(out, "rank.* of Recommender::metrics() for the default-blend engine:");
    outln!(out, "{}", super::books(&default_blend_metrics));
    outln!(out, "Overlap@10 = fraction of the SimilarityRanker top 10 the blend retains; the");
    outln!(out, "similarity-only row is the golden equivalence check (overlap 1). Activation");
    outln!(out, "and centrality shift votes toward well-connected peers, trading overlap for");
    outln!(out, "a different slice of the catalog.");

    (Outcome { rows, default_blend_metrics }, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_has_the_expected_shape() {
        let (o, text) = run(Scale::Small);
        assert_eq!(o.rows.len(), 6);
        let (label, overlap, coverage) = &o.rows[0];
        assert!(label.starts_with("similarity only"));
        assert!(
            (*overlap - 1.0).abs() < 1e-12,
            "similarity-only blend must reproduce the baseline exactly, got {overlap}"
        );
        for (label, overlap, coverage) in &o.rows {
            assert!((0.0..=1.0).contains(overlap), "{label}: overlap {overlap}");
            assert!(*coverage > 0.0, "{label}: coverage {coverage}");
        }
        assert!(*coverage > 0.0);
        // Blending in activation/centrality must actually move the ranking
        // somewhere in the sweep.
        assert!(
            o.rows.iter().any(|(_, overlap, _)| *overlap < 1.0),
            "some blend must diverge from the baseline"
        );
        // Phase 2 spread activation over the merged graph.
        for counter in ["rank.activation.hops", "rank.spread.runs"] {
            assert!(o.default_blend_metrics.counters[counter] > 0, "{counter} must move");
        }
        super::super::assert_golden(&text);
    }
}
