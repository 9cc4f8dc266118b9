//! **E8 — End-to-end recommendation quality**: the evaluation the paper's
//! framework is built towards (and ref \[5\]'s setup): leave-n-out recovery
//! of hidden books, hybrid vs every ablation and baseline.

use semrec_core::{ProfileStore, Recommender, RecommenderConfig};
use semrec_datagen::community::generate_community;
use semrec_eval::baselines::{
    build_flat_profiles, knn_flat_cf, knn_product_cf, knn_taxonomy_cf, random_recommender,
    trust_only,
};
use semrec_eval::table::{fmt, Table};
use semrec_eval::{evaluate, leave_n_out, AggregateMetrics, SplitConfig};
use semrec_profiles::generation::ProfileParams;
use semrec_trust::neighborhood::NeighborhoodParams;
use semrec_trust::CsrGraph;

use crate::Scale;

/// Measured metrics per method, for shape assertions.
pub struct Outcome {
    /// `(method name, metrics)`.
    pub methods: Vec<(&'static str, AggregateMetrics)>,
}

impl Outcome {
    /// Metrics for one method.
    pub fn get(&self, name: &str) -> &AggregateMetrics {
        &self.methods.iter().find(|(n, _)| *n == name).unwrap().1
    }
}

/// Runs E8.
pub fn run(scale: Scale) -> (Outcome, String) {
    let mut out = super::header("E8", "Recommendation quality — hybrid vs ablations and baselines");
    let (max_users, k, n) = match scale {
        Scale::Small => (60, 20, 10),
        Scale::Medium => (150, 20, 10),
        Scale::Paper => (300, 30, 10),
    };
    let community = generate_community(&scale.community(808)).community;
    let split = leave_n_out(
        &community,
        &SplitConfig { hold_out: 3, min_remaining: 3, max_users, seed: 8 },
    );
    outln!(
        out,
        "Community: {} agents, {} books; evaluating {} users, 3 hidden books each, top-{n} lists\n",
        community.agent_count(),
        community.catalog.len(),
        split.held_out.len()
    );

    let engine = Recommender::new(split.train.clone(), RecommenderConfig::default());
    let borda_engine = Recommender::new(
        split.train.clone(),
        RecommenderConfig {
            synthesis: semrec_core::SynthesisStrategy::BordaMerge,
            ..Default::default()
        },
    );
    let profiles = ProfileStore::build(&split.train, &ProfileParams::default());
    let flat = build_flat_profiles(&split.train, &ProfileParams::default());
    let trust = CsrGraph::from_graph(&split.train.trust);

    let methods: Vec<(&'static str, AggregateMetrics)> = vec![
        (
            "hybrid (trust + taxonomy CF)",
            evaluate(&split, |_, agent| {
                engine
                    .recommend(agent, n)
                    .map(|r| r.into_iter().map(|x| x.product).collect())
                    .unwrap_or_default()
            }),
        ),
        (
            "hybrid, Borda synthesis",
            evaluate(&split, |_, agent| {
                borda_engine
                    .recommend(agent, n)
                    .map(|r| r.into_iter().map(|x| x.product).collect())
                    .unwrap_or_default()
            }),
        ),
        (
            "taxonomy CF (no trust)",
            evaluate(&split, |train, agent| knn_taxonomy_cf(train, &profiles, agent, k, n)),
        ),
        (
            "flat category CF (ref [14])",
            evaluate(&split, |train, agent| knn_flat_cf(train, &flat, agent, k, n)),
        ),
        (
            "plain product CF (§2)",
            evaluate(&split, |train, agent| knn_product_cf(train, agent, k, n)),
        ),
        ("item-based CF (industrial)", {
            let model = semrec_eval::itemcf::ItemItemModel::build(&split.train, 30);
            evaluate(&split, |train, agent| model.recommend(train, agent, n))
        }),
        ("content-based (§5)", {
            let product_profiles = semrec_eval::content::ProductProfiles::build(&split.train);
            evaluate(&split, |train, agent| {
                semrec_eval::content::content_based(train, &product_profiles, &profiles, agent, n)
            })
        }),
        (
            "trust-only (no similarity)",
            evaluate(&split, |train, agent| {
                trust_only(train, &trust, agent, &NeighborhoodParams::default(), n)
            }),
        ),
        (
            "random floor",
            evaluate(&split, |train, agent| random_recommender(train, agent, n, 8)),
        ),
    ];

    let mut table =
        Table::new(["method", "precision@10", "recall@10", "F1", "Breese", "coverage"]);
    for (name, m) in &methods {
        table.row([
            name.to_string(),
            fmt(m.precision),
            fmt(m.recall),
            fmt(m.f1),
            fmt(m.breese),
            fmt(m.coverage),
        ]);
    }
    outln!(out, "{}", table.render());

    // Paired bootstrap: is the Borda hybrid's recall difference vs the
    // global taxonomy scan significant on this split?
    let per_user_recall = |recommend: &dyn Fn(semrec_trust::AgentId) -> Vec<semrec_taxonomy::ProductId>| -> Vec<f64> {
        split
            .held_out
            .iter()
            .map(|(agent, hidden)| {
                semrec_eval::precision_recall(&recommend(*agent), hidden).recall
            })
            .collect()
    };
    let borda_recalls = per_user_recall(&|agent| {
        borda_engine
            .recommend(agent, n)
            .map(|r| r.into_iter().map(|x| x.product).collect())
            .unwrap_or_default()
    });
    let taxonomy_recalls =
        per_user_recall(&|agent| knn_taxonomy_cf(&split.train, &profiles, agent, k, n));
    let cmp = semrec_eval::paired_bootstrap(&borda_recalls, &taxonomy_recalls, 2000, 8);
    outln!(
        out,
        "Paired bootstrap (Borda hybrid − taxonomy CF recall@10): Δ = {}, 95% CI [{}, {}], P(hybrid better) = {}{}",
        fmt(cmp.mean_difference),
        fmt(cmp.ci_low),
        fmt(cmp.ci_high),
        fmt(cmp.probability_a_better),
        if cmp.significant() { " — significant" } else { " — not significant" },
    );

    (Outcome { methods }, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_ordering_matches_the_papers_claims() {
        let (o, text) = run(Scale::Small);
        let hybrid = o.get("hybrid (trust + taxonomy CF)");
        let taxonomy = o.get("taxonomy CF (no trust)");
        let plain = o.get("plain product CF (§2)");
        let random = o.get("random floor");

        // Every informed method clears the random floor.
        assert!(hybrid.recall > 3.0 * random.recall.max(1e-9));
        assert!(taxonomy.recall > 3.0 * random.recall.max(1e-9));
        // Taxonomy profiles beat raw product vectors in the sparse regime.
        assert!(
            taxonomy.recall >= plain.recall,
            "taxonomy {} vs plain {}",
            taxonomy.recall,
            plain.recall
        );
        // The hybrid is competitive with its best single signal (its win is
        // robustness + locality, E6/E7, not raw clean-data accuracy).
        assert!(hybrid.recall >= 0.5 * taxonomy.recall);
        super::super::assert_golden(&text);
    }
}
