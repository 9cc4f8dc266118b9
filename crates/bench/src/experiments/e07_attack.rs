//! **E7 — Security** (§2 research issue): the profile-copy shilling attack.
//!
//! For growing sybil cabals, measures how often the pushed product enters
//! the victim's top-10 under plain product-vector CF versus the
//! trust-filtered hybrid, averaged over several victims.

use semrec_core::{Recommender, RecommenderConfig};
use semrec_datagen::attack::{inject_attack, inject_profile_copy_attack, AttackConfig, AttackStrategy};
use semrec_datagen::community::generate_community;
use semrec_eval::baselines::knn_product_cf;
use semrec_eval::table::{fmt, Table};
use semrec_taxonomy::ProductId;

use crate::Scale;

/// Measured rows for shape assertions.
pub struct Outcome {
    /// `(sybils, plain-CF hit rate, hybrid hit rate)`.
    pub rows: Vec<(usize, f64, f64)>,
    /// Per-strategy comparison at 25 sybils: `(strategy, plain, hybrid)`.
    pub strategies: Vec<(AttackStrategy, f64, f64)>,
}

/// Runs E7.
pub fn run(scale: Scale) -> (Outcome, String) {
    let mut out =
        super::header("E7", "Profile-copy attack — plain CF vs trust-filtered hybrid (§2)");
    let victims = match scale {
        Scale::Small => 8,
        Scale::Medium => 12,
        Scale::Paper => 20,
    };
    let cabal_sizes = [0usize, 5, 10, 25, 50];

    let base = generate_community(&scale.community(707)).community;
    let mut table =
        Table::new(["sybils", "plain CF: pushed in top-10", "hybrid: pushed in top-10"]);
    let mut rows = Vec::new();

    for &k in &cabal_sizes {
        let mut plain_hits = 0usize;
        let mut hybrid_hits = 0usize;
        for v in 0..victims {
            let mut community = base.clone();
            let victim = community.agents().nth(v * 7).unwrap();
            let pushed: ProductId = community
                .catalog
                .iter()
                .find(|&p| {
                    community.rating(victim, p).is_none()
                        && community.agents().all(|a| community.rating(a, p).is_none())
                })
                .expect("an unrated product exists");
            if k > 0 {
                inject_profile_copy_attack(
                    &mut community,
                    &AttackConfig {
                        sybils: k,
                        pushed_product: pushed,
                        victim,
                        build_clique: true,
                        seed: v as u64,
                    },
                );
            }
            if knn_product_cf(&community, victim, 20, 10).contains(&pushed) {
                plain_hits += 1;
            }
            let engine = Recommender::new(community, RecommenderConfig::default());
            if engine.recommend(victim, 10).unwrap().iter().any(|r| r.product == pushed) {
                hybrid_hits += 1;
            }
        }
        let rate = |h: usize| h as f64 / victims as f64;
        table.row([k.to_string(), fmt(rate(plain_hits)), fmt(rate(hybrid_hits))]);
        rows.push((k, rate(plain_hits), rate(hybrid_hits)));
    }
    outln!(out, "{}", table.render());
    outln!(out, "Sybils copying the victim's profile become its nearest CF neighbors and push");
    outln!(out, "their product straight into the top-10; the trust neighborhood never admits");
    outln!(out, "them, so the hybrid's hit rate stays at the no-attack floor (Marsh, ref [8]:");
    outln!(out, "trust makes agents \"less vulnerable to others\").\n");

    // Shilling-attack taxonomy comparison at a fixed cabal size.
    outln!(out, "Attack strategy comparison (25 sybils):");
    let mut table = Table::new(["strategy", "plain CF hit rate", "hybrid hit rate"]);
    let mut strategies = Vec::new();
    for strategy in
        [AttackStrategy::ProfileCopy, AttackStrategy::Bandwagon, AttackStrategy::Random]
    {
        let mut plain_hits = 0usize;
        let mut hybrid_hits = 0usize;
        for v in 0..victims {
            let mut community = base.clone();
            let victim = community.agents().nth(v * 7).unwrap();
            let pushed: ProductId = community
                .catalog
                .iter()
                .find(|&p| {
                    community.rating(victim, p).is_none()
                        && community.agents().all(|a| community.rating(a, p).is_none())
                })
                .expect("an unrated product exists");
            inject_attack(
                &mut community,
                &AttackConfig {
                    sybils: 25,
                    pushed_product: pushed,
                    victim,
                    build_clique: true,
                    seed: v as u64,
                },
                strategy,
            );
            if knn_product_cf(&community, victim, 20, 10).contains(&pushed) {
                plain_hits += 1;
            }
            let engine = Recommender::new(community, RecommenderConfig::default());
            if engine.recommend(victim, 10).unwrap().iter().any(|r| r.product == pushed) {
                hybrid_hits += 1;
            }
        }
        let rate = |h: usize| h as f64 / victims as f64;
        table.row([format!("{strategy:?}"), fmt(rate(plain_hits)), fmt(rate(hybrid_hits))]);
        strategies.push((strategy, rate(plain_hits), rate(hybrid_hits)));
    }
    outln!(out, "{}", table.render());
    outln!(out, "Profile-copy is the strongest targeted attack (guaranteed maximal similarity");
    outln!(out, "to the victim); bandwagon trades targeting for breadth; random is weakest.");
    outln!(out, "The trust-filtered hybrid is immune to all three: cover profiles buy");
    outln!(out, "similarity, never trust.");

    (Outcome { rows, strategies }, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trust_filtering_suppresses_the_attack() {
        let (o, text) = run(Scale::Small);
        let no_attack = o.rows.iter().find(|r| r.0 == 0).unwrap();
        let big_attack = o.rows.iter().find(|r| r.0 == 50).unwrap();
        assert_eq!(no_attack.1, 0.0, "obscure product can't appear without the attack");
        assert!(big_attack.1 >= 0.9, "plain CF must be dominated: {}", big_attack.1);
        assert!(big_attack.2 <= no_attack.2 + 1e-9, "hybrid must stay at the floor");

        // Strategy ordering: copy ≥ bandwagon ≥ random against plain CF;
        // the hybrid shrugs all of them off.
        let by = |s: AttackStrategy| o.strategies.iter().find(|r| r.0 == s).unwrap();
        let copy = by(AttackStrategy::ProfileCopy);
        let bandwagon = by(AttackStrategy::Bandwagon);
        let random = by(AttackStrategy::Random);
        assert!(copy.1 >= bandwagon.1, "copy {} vs bandwagon {}", copy.1, bandwagon.1);
        assert!(bandwagon.1 >= random.1, "bandwagon {} vs random {}", bandwagon.1, random.1);
        for row in &o.strategies {
            assert!(row.2 <= no_attack.2 + 1e-9, "{:?} must not breach the hybrid", row.0);
        }
        super::super::assert_golden(&text);
    }
}
