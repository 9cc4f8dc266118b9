//! Item-based collaborative filtering — the industrial-strength centralized
//! baseline (the approach behind Amazon's own recommender, contemporaneous
//! with the paper).
//!
//! Builds an item–item cosine model over co-rating vectors once, then scores
//! candidates by similarity-weighted sums over the target's rated items.
//! Included in E8 because any credible evaluation of a 2004 recommender
//! framework must compare against it.

use std::collections::HashMap;

use semrec_core::recommend::vote_by;
use semrec_core::{Community, VotingParams};
use semrec_taxonomy::ProductId;
use semrec_trust::AgentId;

/// A precomputed item–item similarity model (top-`k` neighbors per item).
#[derive(Clone, Debug)]
pub struct ItemItemModel {
    /// Per product: its `k` most similar products with cosine weights.
    neighbors: Vec<Vec<(ProductId, f64)>>,
}

impl ItemItemModel {
    /// Builds the model: cosine over the user-rating vectors of each item.
    ///
    /// Complexity is `O(Σ_u |r_u|²)` — quadratic in per-user history length,
    /// linear in users, the standard item-CF construction.
    pub fn build(community: &Community, k: usize) -> Self {
        let m = community.catalog.len();
        // Accumulate dot products between co-rated items and norms per item.
        let mut dots: HashMap<(u32, u32), f64> = HashMap::new();
        let mut norms = vec![0.0f64; m];
        for user in community.agents() {
            let ratings = community.ratings_of(user);
            for (i, &(pa, ra)) in ratings.iter().enumerate() {
                norms[pa.index()] += ra * ra;
                for &(pb, rb) in &ratings[i + 1..] {
                    let key = (pa.index() as u32, pb.index() as u32);
                    *dots.entry(key).or_insert(0.0) += ra * rb;
                }
            }
        }
        let mut neighbors: Vec<Vec<(ProductId, f64)>> = vec![Vec::new(); m];
        for ((a, b), dot) in dots {
            let denominator = (norms[a as usize] * norms[b as usize]).sqrt();
            if denominator <= 0.0 {
                continue;
            }
            let sim = dot / denominator;
            if sim > 0.0 {
                neighbors[a as usize].push((ProductId::from_index(b as usize), sim));
                neighbors[b as usize].push((ProductId::from_index(a as usize), sim));
            }
        }
        for list in &mut neighbors {
            list.sort_by(|x, y| y.1.partial_cmp(&x.1).unwrap().then(x.0.cmp(&y.0)));
            list.truncate(k);
        }
        ItemItemModel { neighbors }
    }

    /// The top-k similar items of a product.
    pub fn neighbors(&self, product: ProductId) -> &[(ProductId, f64)] {
        &self.neighbors[product.index()]
    }

    /// Recommends top-`n` unrated products for a user: each positively
    /// rated item votes for its neighbors with `rating × similarity`, through
    /// the engine's voting loop (every similarity is > 0, so every neighbor
    /// counts as appreciated).
    pub fn recommend(
        &self,
        community: &Community,
        target: AgentId,
        n: usize,
    ) -> Vec<ProductId> {
        let rated = community.ratings_of(target);
        let voters = rated.iter().map(|&(product, rating)| (self.neighbors(product), rating));
        let params = VotingParams::default();
        let recs = vote_by(community.catalog.len(), rated, voters, &params, Some(n));
        recs.into_iter().map(|rec| rec.product).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semrec_taxonomy::fixtures::example1;

    /// Snow Crash and Neuromancer are co-liked by two readers.
    fn setup() -> (Community, Vec<AgentId>, Vec<ProductId>) {
        let e = example1();
        let products: Vec<_> = e.catalog.iter().collect();
        let mut c = Community::new(e.fig.taxonomy, e.catalog);
        let agents: Vec<_> =
            (0..3).map(|i| c.add_agent(format!("http://ex.org/u{i}")).unwrap()).collect();
        c.set_rating(agents[0], products[2], 1.0).unwrap();
        c.set_rating(agents[0], products[3], 1.0).unwrap();
        c.set_rating(agents[1], products[2], 1.0).unwrap();
        c.set_rating(agents[1], products[3], 0.8).unwrap();
        // A third reader who only rated snow crash.
        c.set_rating(agents[2], products[2], 1.0).unwrap();
        (c, agents, products)
    }

    #[test]
    fn co_rated_items_become_neighbors() {
        let (c, _, products) = setup();
        let model = ItemItemModel::build(&c, 5);
        let nb = model.neighbors(products[2]);
        assert_eq!(nb.first().map(|&(p, _)| p), Some(products[3]));
        assert!(nb[0].1 > 0.5);
        // The never-co-rated math books have no neighbors.
        assert!(model.neighbors(products[0]).is_empty());
    }

    #[test]
    fn recommends_the_companion_item() {
        let (c, agents, products) = setup();
        let model = ItemItemModel::build(&c, 5);
        let recs = model.recommend(&c, agents[2], 3);
        assert_eq!(recs, vec![products[3]]);
    }

    #[test]
    fn never_recommends_rated_items() {
        let (c, agents, products) = setup();
        let model = ItemItemModel::build(&c, 5);
        let recs = model.recommend(&c, agents[0], 5);
        assert!(!recs.contains(&products[2]) && !recs.contains(&products[3]));
    }

    #[test]
    fn k_truncates_neighbor_lists() {
        let (mut c, agents, products) = setup();
        c.set_rating(agents[0], products[0], 1.0).unwrap();
        c.set_rating(agents[0], products[1], 1.0).unwrap();
        let model = ItemItemModel::build(&c, 1);
        for p in c.catalog.iter() {
            assert!(model.neighbors(p).len() <= 1);
        }
    }

    #[test]
    fn negative_ratings_do_not_vote() {
        let (mut c, agents, products) = setup();
        let hater = c.add_agent("http://ex.org/hater").unwrap();
        c.set_rating(hater, products[2], -1.0).unwrap();
        let model = ItemItemModel::build(&c, 5);
        let recs = model.recommend(&c, hater, 5);
        assert!(recs.is_empty(), "a pure disliker gets no item-CF votes");
        let _ = agents;
    }
}
