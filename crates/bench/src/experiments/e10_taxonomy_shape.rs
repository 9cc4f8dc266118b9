//! **E10 — Taxonomy structure impact** (§6 future work): "Amazon's taxonomy
//! for DVD classification contains more topics than its book counterpart,
//! though being less deep. We would like to better understand the impact
//! that taxonomy structure may have upon profile generation and similarity
//! computation."
//!
//! Generates the same community over a deep/narrow (book-like) and a
//! broad/shallow (DVD-like) taxonomy and compares profile shape and
//! recommendation quality.

use semrec_core::{ProfileStore, Recommender, RecommenderConfig};
use semrec_datagen::community::generate_community;
use semrec_datagen::taxonomy_gen::TaxonomyGenConfig;
use semrec_eval::baselines::knn_taxonomy_cf;
use semrec_eval::table::{fmt, Table};
use semrec_eval::{evaluate, leave_n_out, SplitConfig};
use semrec_profiles::generation::ProfileParams;
use semrec_taxonomy::stats;

use crate::Scale;

/// Measured rows for shape assertions.
pub struct Outcome {
    /// `(shape, mean leaf depth, mean profile support, taxonomy-CF recall,
    ///   hybrid recall)`.
    pub rows: Vec<(&'static str, f64, f64, f64, f64)>,
}

/// Runs E10.
pub fn run(scale: Scale) -> (Outcome, String) {
    let mut out = super::header("E10", "Taxonomy structure impact (§6 — book-like vs DVD-like)");
    let max_users = match scale {
        Scale::Small => 60,
        Scale::Medium => 120,
        Scale::Paper => 250,
    };

    let mut table = Table::new([
        "taxonomy shape",
        "topics",
        "mean leaf depth",
        "mean profile support",
        "taxonomy-CF recall@10",
        "hybrid recall@10",
    ]);
    let mut rows = Vec::new();

    let base = scale.community(1010);
    for (label, tax_config) in [
        ("book-like (deep, narrow)", TaxonomyGenConfig::book_like(base.taxonomy.topics, 7)),
        ("DVD-like (broad, shallow)", TaxonomyGenConfig::dvd_like(base.taxonomy.topics, 7)),
    ] {
        let mut config = base;
        config.taxonomy = tax_config;
        let community = generate_community(&config).community;
        let shape = stats::stats(&community.taxonomy);

        let profiles = ProfileStore::build(&community, &ProfileParams::default());
        let mean_support: f64 = community
            .agents()
            .map(|a| profiles.profile(a).support() as f64)
            .sum::<f64>()
            / community.agent_count() as f64;

        let split = leave_n_out(
            &community,
            &SplitConfig { hold_out: 3, min_remaining: 3, max_users, seed: 10 },
        );
        let train_profiles = ProfileStore::build(&split.train, &ProfileParams::default());
        let tax_cf = evaluate(&split, |train, agent| {
            knn_taxonomy_cf(train, &train_profiles, agent, 20, 10)
        });
        let engine = Recommender::new(split.train.clone(), RecommenderConfig::default());
        let hybrid = evaluate(&split, |_, agent| {
            engine
                .recommend(agent, 10)
                .map(|r| r.into_iter().map(|x| x.product).collect())
                .unwrap_or_default()
        });

        table.row([
            label.to_string(),
            shape.topics.to_string(),
            fmt(shape.mean_leaf_depth),
            fmt(mean_support),
            fmt(tax_cf.recall),
            fmt(hybrid.recall),
        ]);
        rows.push((label, shape.mean_leaf_depth, mean_support, tax_cf.recall, hybrid.recall));
    }
    outln!(out, "{}", table.render());
    outln!(out, "Deep (book-like) taxonomies give every rating a long ancestor chain:");
    outln!(out, "profiles span far more topics and similarity becomes finer-grained. Broad,");
    outln!(out, "shallow (DVD-like) taxonomies concentrate mass in fewer, coarser categories");
    outln!(out, "that many products share — which raises leave-n-out recall (hidden items sit");
    outln!(out, "in the same coarse buckets as the training items) at the cost of the");
    outln!(out, "discriminating power the deep taxonomy offers. This is the concrete form of");
    outln!(out, "§6's open question about taxonomy-structure impact.");

    (Outcome { rows }, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deep_taxonomies_yield_richer_profiles() {
        let (o, text) = run(Scale::Small);
        let book = o.rows.iter().find(|r| r.0.starts_with("book")).unwrap();
        let dvd = o.rows.iter().find(|r| r.0.starts_with("DVD")).unwrap();
        assert!(book.1 > dvd.1, "book taxonomy must be deeper");
        assert!(
            book.2 > dvd.2,
            "deeper taxonomy → larger profile support: {} vs {}",
            book.2,
            dvd.2
        );
        // Both shapes still support recommendation.
        assert!(book.3 >= 0.0 && dvd.3 >= 0.0);
        super::super::assert_golden(&text);
    }
}
