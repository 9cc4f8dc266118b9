//! **E1 — Example 1**: topic score assignment.
//!
//! The paper's only fully worked computation: 4 books, s = 1000, *Matrix
//! Analysis* with 5 descriptors → Algebra descriptor allotted 50, spread
//! along the Figure 1 path as 29.087 / 14.543 / 4.848 / 1.212 / 0.303.
//!
//! E1 then feeds the Example 1 catalog into the full pipeline: a four-agent
//! community (alice trusts bob and dave; eve sits outside the neighborhood)
//! is evaluated through [`recommend_batch`], exercising every stage —
//! Appleseed, profile similarity, synthesis, voting — and prints that
//! engine's `metrics()`: the whole pipeline's counters and per-stage run counts.

use semrec_core::{recommend_batch, Community, Recommender, RecommenderConfig};
use semrec_eval::table::{fmt, Table};
use semrec_profiles::generation::{descriptor_scores, generate_profile, ProfileParams};
use semrec_taxonomy::fixtures::example1;

/// The reproduced vs paper values, for shape assertions.
pub struct Outcome {
    /// `(topic label, reproduced score, paper score)` along the path.
    pub rows: Vec<(String, f64, f64)>,
    /// Total profile mass of the full Example 1 profile.
    pub profile_total: f64,
    /// Number of recommendations each of the four pipeline agents received.
    pub recommendation_counts: Vec<usize>,
    /// `Recommender::metrics()` of the pipeline pass's engine.
    pub metrics: semrec_obs::MetricsSnapshot,
}

const PAPER: [(&str, f64); 5] = [
    ("Algebra", 29.087),
    ("Pure", 14.543),
    ("Mathematics", 4.848),
    ("Science", 1.212),
    ("Books", 0.303),
];

/// Runs E1.
pub fn run() -> (Outcome, String) {
    let mut out = super::header(
        "E1",
        "Example 1 — topic score assignment (s = 1000, 4 books, 5 descriptors)",
    );
    let e = example1();

    let ratings: Vec<_> = e.catalog.iter().map(|p| (p, 1.0)).collect();
    let params = ProfileParams::default();
    let n_desc = e.catalog.descriptors(e.matrix_analysis).len();
    let allotment = params.total_score / (ratings.len() as f64 * n_desc as f64);
    outln!(
        out,
        "Allotment for descriptor `Algebra`: s/(|R|·|f(b)|) = 1000/({}·{}) = {}",
        ratings.len(),
        n_desc,
        allotment
    );

    let scores = descriptor_scores(&e.fig.taxonomy, e.fig.algebra, allotment);
    let mut table = Table::new(["topic", "reproduced", "paper", "Δ"]);
    let mut rows = Vec::new();
    for (&(topic, got), (label, paper)) in scores.iter().zip(PAPER) {
        assert_eq!(e.fig.taxonomy.label(topic), label);
        table.row([label.to_string(), fmt(got), fmt(paper), format!("{:+.3}", got - paper)]);
        rows.push((label.to_owned(), got, paper));
    }
    outln!(out, "{}", table.render());
    outln!(out, "(The paper's printed values round κ slightly differently; the path total");
    outln!(out, " is exactly 50 in both.)");

    let profile = generate_profile(&e.fig.taxonomy, &e.catalog, &ratings, &params);
    outln!(out, "\nFull Example 1 profile: {} topics scored, total mass {:.3} (= s)",
        profile.support(), profile.total());

    // Full-pipeline pass over the Example 1 community: every stage of the
    // engine runs, so its books hold every `engine.*` / `batch.*` name.
    let e = example1();
    let products: Vec<_> = e.catalog.iter().collect();
    let mut community = Community::new(e.fig.taxonomy, e.catalog);
    let alice = community.add_agent("http://ex.org/alice").expect("fresh URI");
    let bob = community.add_agent("http://ex.org/bob").expect("fresh URI");
    let dave = community.add_agent("http://ex.org/dave").expect("fresh URI");
    let eve = community.add_agent("http://ex.org/eve").expect("fresh URI");
    community.trust.set_trust(alice, bob, 0.9).expect("valid edge");
    community.trust.set_trust(alice, dave, 0.8).expect("valid edge");
    community.trust.set_trust(bob, alice, 0.7).expect("valid edge");
    community.trust.set_trust(dave, eve, 0.6).expect("valid edge");
    community.set_rating(alice, products[1], 1.0).expect("valid rating");
    community.set_rating(bob, products[0], 1.0).expect("valid rating");
    community.set_rating(dave, products[2], 1.0).expect("valid rating");
    community.set_rating(dave, products[3], 0.9).expect("valid rating");
    community.set_rating(eve, products[3], 1.0).expect("valid rating");

    let agents = vec![alice, bob, dave, eve];
    let recommender = Recommender::new(community, RecommenderConfig::default());
    let batch = recommend_batch(&recommender, &agents, 3, 2);
    let recommendation_counts: Vec<usize> =
        batch.iter().map(|r| r.as_ref().map_or(0, |recs| recs.len())).collect();
    outln!(
        out,
        "\nPipeline pass over the 4-agent Example 1 community: {:?} recommendations",
        recommendation_counts
    );
    let metrics = recommender.metrics();
    outln!(out, "\nRecommender::metrics() of that engine:");
    out += &super::books(&metrics);

    (Outcome { rows, profile_total: profile.total(), recommendation_counts, metrics }, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_the_papers_numbers() {
        let (outcome, text) = run();
        assert_eq!(outcome.rows.len(), 5);
        for (label, got, paper) in &outcome.rows {
            assert!((got - paper).abs() < 0.01, "{label}: {got} vs {paper}");
        }
        let total: f64 = outcome.rows.iter().map(|&(_, g, _)| g).sum();
        assert!((total - 50.0).abs() < 1e-9);
        assert!((outcome.profile_total - 1000.0).abs() < 1e-6);
        super::super::assert_golden(&text);
    }

    #[test]
    fn pipeline_pass_populates_the_acceptance_metrics() {
        let (outcome, _) = run();
        // Alice's trusted, taste-aligned peers produce recommendations.
        assert_eq!(outcome.recommendation_counts.len(), 4);
        assert!(outcome.recommendation_counts[0] >= 1, "alice must get recommendations");
        // The engine's books hold exactly that pass: four batch tasks,
        // each one run through every stage.
        let snapshot = &outcome.metrics;
        assert_eq!(snapshot.counters["batch.tasks"], 4);
        assert_eq!(snapshot.counters["engine.runs"], 4);
        assert!(snapshot.counters["engine.trust_iterations"] >= 4);
        assert_eq!(snapshot.histograms["engine.stage.synthesis"].count, 4);
    }
}
