//! **E4 — Trust ↔ similarity correlation** (ref \[5\]): "trust and interest
//! profiles tend to correlate, justifying trust as an appropriate
//! supplement or surrogate for collaborative filtering."
//!
//! For each homophily level we compare the mean taxonomy-profile similarity
//! of *trusted pairs* (directed positive trust edges) against *random
//! pairs*. The paper's crawled communities behave like the homophilous
//! settings; the h = 0 ablation shows the correlation is a property of the
//! community, not an artifact of the pipeline.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use semrec_core::{ProfileStore, SimilarityMeasure};
use semrec_datagen::community::generate_community;
use semrec_eval::stats::{summarize, welch_t};
use semrec_eval::table::{fmt, Table};
use semrec_profiles::generation::ProfileParams;
use semrec_trust::AgentId;

use crate::Scale;

/// Measured rows for shape assertions.
pub struct Outcome {
    /// `(homophily, trusted-pair mean sim, random-pair mean sim, Welch t)`.
    pub rows: Vec<(f64, f64, f64, f64)>,
}

/// Runs E4.
pub fn run(scale: Scale) -> (Outcome, String) {
    let mut out = super::header("E4", "Trust ↔ similarity correlation (ref [5])");
    let mut table =
        Table::new(["homophily h", "trusted pairs", "random pairs", "ratio", "Welch t"]);
    let mut rows = Vec::new();

    for h in [0.0, 0.5, 0.9] {
        let config = semrec_datagen::community::CommunityGenConfig {
            homophily: h,
            ..scale.community(404)
        };
        let community = generate_community(&config).community;
        let profiles = ProfileStore::build(&community, &ProfileParams::default());

        // Trusted pairs: every positive trust edge.
        let mut trusted = Vec::new();
        for a in community.agents() {
            for (b, w) in community.trust.positive_out_edges(a) {
                if w > 0.0 {
                    if let Some(s) = profiles.similarity(SimilarityMeasure::Cosine, a, b) {
                        trusted.push(s);
                    }
                }
            }
        }
        // Random pairs, same count.
        let n = community.agent_count();
        let mut rng = StdRng::seed_from_u64(4040);
        let mut random = Vec::new();
        while random.len() < trusted.len() {
            let a = AgentId::from_index(rng.random_range(0..n));
            let b = AgentId::from_index(rng.random_range(0..n));
            if a == b {
                continue;
            }
            if let Some(s) = profiles.similarity(SimilarityMeasure::Cosine, a, b) {
                random.push(s);
            }
        }

        let st = summarize(&trusted);
        let sr = summarize(&random);
        let t = welch_t(&trusted, &random);
        table.row([
            format!("{h}"),
            format!("{} ± {}", fmt(st.mean), fmt(st.ci95)),
            format!("{} ± {}", fmt(sr.mean), fmt(sr.ci95)),
            fmt(st.mean / sr.mean.max(f64::EPSILON)),
            fmt(t),
        ]);
        rows.push((h, st.mean, sr.mean, t));
    }
    outln!(out, "{}", table.render());
    outln!(out, "With homophilous trust (the empirical regime of ref [5]) trusted peers are");
    outln!(out, "significantly more similar than random pairs; with h = 0 the effect vanishes.");

    (Outcome { rows }, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correlation_appears_exactly_when_homophily_is_on() {
        // Thresholds are calibrated against the workspace's deterministic
        // vendored RNG: the claim is *significance*, so it is pinned on the
        // Welch t statistic (mean ratios at Small scale are too noisy for a
        // fixed multiplicative bound across RNG streams).
        let (o, text) = run(Scale::Small);
        let at = |h: f64| o.rows.iter().find(|r| r.0 == h).unwrap();
        let (_, t9_trusted, t9_random, t9) = *at(0.9);
        assert!(t9_trusted > t9_random, "h=0.9: {t9_trusted} vs {t9_random}");
        assert!(t9 > 2.0, "h=0.9 must be significant, t={t9}");
        let (_, t0_trusted, t0_random, t0) = *at(0.0);
        assert!(
            t0_trusted < 1.3 * t0_random,
            "h=0 ablation must kill the effect: {t0_trusted} vs {t0_random}"
        );
        assert!(t0 < 2.0, "h=0 must not be significant, t={t0}");
        assert!(t9 > t0 + 2.0, "homophily must move the statistic: {t9} vs {t0}");
        super::super::assert_golden(&text);
    }
}
