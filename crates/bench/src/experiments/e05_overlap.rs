//! **E5 — Low profile overlap** (§2 research issue): as the catalog grows,
//! raw product-vector profiles stop overlapping ("the probability that two
//! persons have read several same books becomes considerably low") while
//! taxonomy-based profiles keep similarity defined for (almost) every pair.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use semrec_core::ProfileStore;
use semrec_datagen::community::generate_community;
use semrec_eval::table::{fmt, Table};
use semrec_profiles::generation::ProfileParams;
use semrec_profiles::ProductVector;
use semrec_trust::AgentId;

use crate::Scale;

/// Measured rows for shape assertions.
pub struct Outcome {
    /// `(catalog size, co-rating fraction, pearson-defined fraction,
    ///   taxonomy-overlap fraction)` over sampled pairs.
    pub rows: Vec<(usize, f64, f64, f64)>,
}

/// Runs E5.
pub fn run(scale: Scale) -> (Outcome, String) {
    let mut out = super::header("E5", "Profile overlap vs catalog size (§2 — low profile overlap)");
    let sizes: &[usize] = match scale {
        Scale::Small => &[200, 500, 1000, 2000],
        Scale::Medium => &[500, 2000, 5000, 10_000],
        Scale::Paper => &[1000, 2500, 5000, 9953, 20_000],
    };
    let pairs = 2000usize;

    let mut table = Table::new([
        "catalog |B|",
        "pairs with co-rated product",
        "pairs with CF Pearson defined",
        "pairs with taxonomy overlap",
    ]);
    let mut rows = Vec::new();

    for &m in sizes {
        let mut config = scale.community(505);
        config.catalog.products = m;
        // Hold ratings-per-user fixed so only the catalog grows.
        config.mean_ratings = 10.0;
        let community = generate_community(&config).community;
        let profiles = ProfileStore::build(&community, &ProfileParams::default());
        let product_vectors: Vec<ProductVector> = community
            .agents()
            .map(|a| ProductVector::from_ratings(community.ratings_of(a)))
            .collect();

        let n = community.agent_count();
        let mut rng = StdRng::seed_from_u64(m as u64);
        let (mut co, mut pearson_defined, mut tax_overlap) = (0usize, 0usize, 0usize);
        for _ in 0..pairs {
            let a = rng.random_range(0..n);
            let mut b = rng.random_range(0..n);
            while b == a {
                b = rng.random_range(0..n);
            }
            if !product_vectors[a].co_rated(&product_vectors[b]).is_empty() {
                co += 1;
            }
            if product_vectors[a].pearson(&product_vectors[b]).is_some() {
                pearson_defined += 1;
            }
            let pa = profiles.profile(AgentId::from_index(a));
            let pb = profiles.profile(AgentId::from_index(b));
            if pa.overlap(pb) > 0 {
                tax_overlap += 1;
            }
        }
        let frac = |x: usize| x as f64 / pairs as f64;
        table.row([
            m.to_string(),
            fmt(frac(co)),
            fmt(frac(pearson_defined)),
            fmt(frac(tax_overlap)),
        ]);
        rows.push((m, frac(co), frac(pearson_defined), frac(tax_overlap)));
    }
    outln!(out, "{}", table.render());
    outln!(out, "Classic CF's similarity becomes ⊥ for most pairs as |B| grows; Eq. 3");
    outln!(out, "profiles always overlap through shared super-topics (at worst ⊤).");

    (Outcome { rows }, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_overlap_survives_catalog_growth() {
        let (o, text) = run(Scale::Small);
        let first = o.rows.first().unwrap();
        let last = o.rows.last().unwrap();
        // Co-rating collapses with catalog size …
        assert!(last.1 < first.1, "co-rating must fall: {:?}", o.rows);
        // … Pearson definedness falls at least as fast …
        assert!(last.2 <= last.1 + 1e-9);
        // … while taxonomy overlap stays (essentially) complete — the only
        // misses are agents whose sole ratings are dislikes (empty profile).
        assert!(last.3 > 0.95, "taxonomy overlap must persist: {}", last.3);
        assert!(last.3 > first.3 - 0.03, "taxonomy overlap must stay flat");
        for row in &o.rows {
            assert!(row.3 >= row.1, "taxonomy overlap dominates co-rating");
        }
        super::super::assert_golden(&text);
    }
}
