//! **E9 — Rank synthesization alternatives** (§3.4's declared open
//! problem): "matching these approaches against each other within an
//! experimental framework allowing for some quantitative analysis."
//!
//! Sweeps the ξ blend between trust rank and similarity rank, plus the
//! Borda merge and pure trust-filter strategies, all on the same split.

use semrec_core::{Recommender, RecommenderConfig, SynthesisStrategy};
use semrec_datagen::community::generate_community;
use semrec_eval::table::{fmt, Table};
use semrec_eval::{evaluate, leave_n_out, SplitConfig};

use crate::Scale;

/// Measured rows for shape assertions.
pub struct Outcome {
    /// `(strategy label, recall@10, coverage)`.
    pub rows: Vec<(String, f64, f64)>,
}

/// Runs E9.
pub fn run(scale: Scale) -> (Outcome, String) {
    let mut out =
        super::header("E9", "Rank synthesization strategies (§3.4 — left open by the paper)");
    let max_users = match scale {
        Scale::Small => 60,
        Scale::Medium => 150,
        Scale::Paper => 300,
    };
    let community = generate_community(&scale.community(909)).community;
    let split = leave_n_out(
        &community,
        &SplitConfig { hold_out: 3, min_remaining: 3, max_users, seed: 9 },
    );
    outln!(out, "Evaluating {} users\n", split.held_out.len());

    let mut strategies: Vec<(String, SynthesisStrategy)> = [0.0, 0.25, 0.5, 0.75, 1.0]
        .into_iter()
        .map(|xi| (format!("linear blend ξ = {xi}"), SynthesisStrategy::LinearBlend { xi }))
        .collect();
    strategies.push(("Borda rank merge".into(), SynthesisStrategy::BordaMerge));
    strategies.push(("trust filter, similarity order".into(), SynthesisStrategy::TrustFilter));

    let mut table = Table::new(["strategy", "recall@10", "precision@10", "coverage"]);
    let mut rows = Vec::new();
    for (label, strategy) in strategies {
        let config = RecommenderConfig { synthesis: strategy, ..Default::default() };
        let engine = Recommender::new(split.train.clone(), config);
        let m = evaluate(&split, |_, agent| {
            engine
                .recommend(agent, 10)
                .map(|r| r.into_iter().map(|x| x.product).collect())
                .unwrap_or_default()
        });
        table.row([label.clone(), fmt(m.recall), fmt(m.precision), fmt(m.coverage)]);
        rows.push((label, m.recall, m.coverage));
    }
    outln!(out, "{}", table.render());
    outln!(out, "ξ = 0 ranks peers by similarity alone, ξ = 1 by trust alone; the blend and");
    outln!(out, "the Borda merge use both signals — the quantitative comparison §6 calls for.");

    (Outcome { rows }, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_strategies_produce_usable_recommendations() {
        let (o, text) = run(Scale::Small);
        assert_eq!(o.rows.len(), 7);
        for (label, recall, coverage) in &o.rows {
            assert!(*coverage > 0.5, "{label}: coverage {coverage}");
            assert!(*recall >= 0.0);
        }
        // The blends must produce at least one strategy beating trust-only
        // similarity-free ranking is not the best alternative.
        let best = o.rows.iter().map(|r| r.1).fold(0.0f64, f64::max);
        assert!(best > 0.0, "someone must recover hidden items");
        super::super::assert_golden(&text);
    }
}
