//! Topic diversification — the §6 extension.
//!
//! §6 announces "applicability of taxonomy-based profile generation for …
//! efficient behavior modelling"; the natural and later-published follow-up
//! is *topic diversification*: taxonomy-based product profiles make the
//! pairwise similarity of recommended items measurable, so a top-N list can
//! be re-ranked to trade accuracy against coverage of the user's full
//! interest spectrum. We implement the greedy re-rank with diversification
//! factor `theta` and the intra-list similarity (ILS) diagnostic.

use semrec_profiles::generation::descriptor_scores;
use semrec_profiles::{similarity, ProfileVector};
use semrec_taxonomy::{Catalog, ProductId, Taxonomy};

use crate::recommend::Recommendation;

/// The taxonomy-based content profile of a single product: its descriptors'
/// Eq. 3 score distribution with unit mass.
fn product_profile(taxonomy: &Taxonomy, catalog: &Catalog, product: ProductId) -> ProfileVector {
    let descriptors = catalog.descriptors(product);
    let per = 1.0 / descriptors.len() as f64;
    let mut v = ProfileVector::new();
    for &d in descriptors {
        for (topic, score) in descriptor_scores(taxonomy, d, per) {
            v.add(topic, score);
        }
    }
    v
}

/// Intra-list similarity: mean pairwise similarity of a recommendation list.
/// Lower means more diverse. 0 for lists shorter than 2.
pub fn intra_list_similarity(
    taxonomy: &Taxonomy,
    catalog: &Catalog,
    products: &[ProductId],
) -> f64 {
    if products.len() < 2 {
        return 0.0;
    }
    let profiles: Vec<ProfileVector> = products
        .iter()
        .map(|&p| product_profile(taxonomy, catalog, p))
        .collect();
    let mut sum = 0.0;
    let mut pairs = 0usize;
    for i in 0..profiles.len() {
        for j in (i + 1)..profiles.len() {
            sum += similarity::cosine(&profiles[i], &profiles[j]).unwrap_or(0.0);
            pairs += 1;
        }
    }
    sum / pairs as f64
}

/// Greedily re-ranks a candidate list, balancing the original relevance
/// order against dissimilarity to the already-picked items.
///
/// `theta = 0` keeps the original order; `theta = 1` orders purely by
/// dissimilarity. The first item is always the top candidate.
pub fn diversify(
    taxonomy: &Taxonomy,
    catalog: &Catalog,
    candidates: &[Recommendation],
    n: usize,
    theta: f64,
) -> Vec<Recommendation> {
    let theta = theta.clamp(0.0, 1.0);
    if candidates.is_empty() || n == 0 {
        return Vec::new();
    }
    let profiles: Vec<ProfileVector> = candidates
        .iter()
        .map(|r| product_profile(taxonomy, catalog, r.product))
        .collect();
    // Positional relevance in [0, 1]: 1 for rank 0 descending linearly.
    let m = candidates.len();
    let relevance = |pos: usize| (m - pos) as f64 / m as f64;

    let mut picked: Vec<usize> = vec![0];
    while picked.len() < n.min(m) {
        let mut best: Option<(usize, f64)> = None;
        for (i, _) in candidates.iter().enumerate() {
            if picked.contains(&i) {
                continue;
            }
            let mean_sim: f64 = picked
                .iter()
                .map(|&j| similarity::cosine(&profiles[i], &profiles[j]).unwrap_or(0.0))
                .sum::<f64>()
                / picked.len() as f64;
            let value = (1.0 - theta) * relevance(i) + theta * (1.0 - mean_sim);
            if best.is_none_or(|(_, b)| value > b) {
                best = Some((i, value));
            }
        }
        match best {
            Some((i, _)) => picked.push(i),
            None => break,
        }
    }
    picked.into_iter().map(|i| candidates[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use semrec_taxonomy::fixtures::example1;

    fn recs(products: &[ProductId]) -> Vec<Recommendation> {
        products
            .iter()
            .enumerate()
            .map(|(i, &p)| Recommendation {
                product: p,
                score: 1.0 - i as f64 * 0.1,
                voters: 1,
            })
            .collect()
    }

    #[test]
    fn product_profiles_have_unit_mass() {
        let e = example1();
        for p in e.catalog.iter() {
            let v = product_profile(&e.fig.taxonomy, &e.catalog, p);
            assert!((v.total() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn same_branch_products_are_more_similar() {
        let e = example1();
        let pair = |a, b| intra_list_similarity(&e.fig.taxonomy, &e.catalog, &[a, b]);
        let same = pair(e.snow_crash, e.neuromancer);
        let cross = pair(e.snow_crash, e.matrix_analysis);
        assert!(same > cross, "{same} vs {cross}");
        assert!((same - 1.0).abs() < 1e-9, "identical descriptors → similarity 1");
    }

    #[test]
    fn ils_of_homogeneous_list_is_high() {
        let e = example1();
        let homo = intra_list_similarity(
            &e.fig.taxonomy,
            &e.catalog,
            &[e.snow_crash, e.neuromancer],
        );
        let mixed = intra_list_similarity(
            &e.fig.taxonomy,
            &e.catalog,
            &[e.snow_crash, e.matrix_analysis, e.fermats_enigma],
        );
        assert!(homo > mixed);
        assert_eq!(intra_list_similarity(&e.fig.taxonomy, &e.catalog, &[e.snow_crash]), 0.0);
    }

    #[test]
    fn theta_zero_preserves_order() {
        let e = example1();
        let candidates = recs(&[e.snow_crash, e.neuromancer, e.matrix_analysis]);
        let out = diversify(&e.fig.taxonomy, &e.catalog, &candidates, 3, 0.0);
        let order: Vec<_> = out.iter().map(|r| r.product).collect();
        assert_eq!(order, vec![e.snow_crash, e.neuromancer, e.matrix_analysis]);
    }

    #[test]
    fn high_theta_reduces_ils() {
        let e = example1();
        // Two cyberpunk books up top, math book last.
        let candidates = recs(&[e.snow_crash, e.neuromancer, e.matrix_analysis]);
        let plain = diversify(&e.fig.taxonomy, &e.catalog, &candidates, 2, 0.0);
        let diverse = diversify(&e.fig.taxonomy, &e.catalog, &candidates, 2, 0.9);
        let ils = |list: &[Recommendation]| {
            let products: Vec<_> = list.iter().map(|r| r.product).collect();
            intra_list_similarity(&e.fig.taxonomy, &e.catalog, &products)
        };
        assert!(ils(&diverse) < ils(&plain));
        // Diversified list swaps in the math book at position 2.
        assert_eq!(diverse[0].product, e.snow_crash);
        assert_eq!(diverse[1].product, e.matrix_analysis);
    }

    #[test]
    fn degenerate_inputs() {
        let e = example1();
        assert!(diversify(&e.fig.taxonomy, &e.catalog, &[], 5, 0.5).is_empty());
        let one = recs(&[e.snow_crash]);
        assert_eq!(diversify(&e.fig.taxonomy, &e.catalog, &one, 0, 0.5).len(), 0);
        assert_eq!(diversify(&e.fig.taxonomy, &e.catalog, &one, 5, 0.5).len(), 1);
    }
}
