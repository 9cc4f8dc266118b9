//! **E6 — Scalability** (§2 research issue): "computing similarity measures
//! for all these individuals becomes infeasible. Consequently, scalability
//! can only be ensured when restricting latter computations to sufficiently
//! narrow neighborhoods."
//!
//! As the community grows we track, per recommendation query, how many
//! candidate peers each method *touches* — the deterministic measure of
//! locality. The trust-bounded pipeline's exploration plateaus at its
//! configured cap while every centralized CF variant scans all `n − 1`
//! candidates. What a query costs in wall time is `perf/`'s
//! `core.request_us` (and `trust.neighborhood_us` inside it).

use semrec_core::{Recommender, RecommenderConfig};
use semrec_datagen::community::generate_community;
use semrec_eval::table::Table;

use crate::Scale;

/// Measured rows for shape assertions.
pub struct Outcome {
    /// `(n agents, hybrid mean nodes explored, global candidates scanned)`.
    pub rows: Vec<(usize, f64, usize)>,
    /// The exploration cap configured in the neighborhood parameters.
    pub exploration_cap: usize,
}

/// Runs E6.
pub fn run(scale: Scale) -> (Outcome, String) {
    let mut out =
        super::header("E6", "Scalability — local trust-bounded pipeline vs global CF scan (§2)");
    let sizes: &[usize] = match scale {
        Scale::Small => &[100, 200, 400, 800, 1600],
        Scale::Medium => &[500, 1000, 2000, 4000, 8000],
        Scale::Paper => &[1000, 2000, 4000, 9100],
    };
    let probes = 30usize;
    let config = RecommenderConfig::default();
    let exploration_cap = config.neighborhood.appleseed.max_nodes.unwrap_or(usize::MAX);

    let mut table = Table::new(["n agents", "hybrid: nodes touched", "global: candidates"]);
    let mut rows = Vec::new();

    for &n in sizes {
        let mut gen_config = scale.community(606);
        gen_config.agents = n;
        let community = generate_community(&gen_config).community;
        let targets: Vec<_> = community.agents().take(probes).collect();
        let engine = Recommender::new(community, config);

        let explored_sum: usize = targets
            .iter()
            .map(|&t| engine.recommend_traced(t, 10).unwrap().1.nodes_explored)
            .sum();
        let explored = explored_sum as f64 / probes as f64;

        table.row([n.to_string(), format!("{explored:.0}"), (n - 1).to_string()]);
        rows.push((n, explored, n - 1));
    }
    outln!(out, "{}", table.render());
    outln!(out, "The hybrid's exploration plateaus at the configured cap ({exploration_cap}");
    outln!(out, "nodes) — the \"intelligent prefiltering\" of §2 — while every centralized CF");
    outln!(out, "variant must score all n − 1 candidates per query.");

    (Outcome { rows, exploration_cap }, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exploration_is_capped_while_global_scan_grows() {
        let (o, text) = run(Scale::Small);
        let first = o.rows.first().unwrap();
        let last = o.rows.last().unwrap();
        // Community grew 16×; global candidate count grows with it …
        assert!(last.2 >= 15 * first.2);
        // … while the hybrid's exploration respects the cap and plateaus.
        for row in &o.rows {
            assert!(
                row.1 <= o.exploration_cap as f64 + 1.0,
                "exploration {} exceeds cap {}",
                row.1,
                o.exploration_cap
            );
        }
        let exploration_growth = last.1 / first.1.max(1.0);
        let candidate_growth = last.2 as f64 / first.2 as f64;
        assert!(
            exploration_growth < candidate_growth / 2.0,
            "exploration (×{exploration_growth:.1}) must grow far slower than the \
             global scan (×{candidate_growth:.1})"
        );
        super::super::assert_golden(&text);
    }
}
