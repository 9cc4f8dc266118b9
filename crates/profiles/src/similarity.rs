//! Similarity computation between interest profiles (§3.3).
//!
//! "For our approach, we apply common nearest-neighbor techniques, namely
//! Pearson's coefficient and cosine distance from Information Retrieval.
//! Hereby, profile vectors map category score vectors from C instead of
//! plain product-rating vectors. High similarity evolves from interest in
//! many identical or related branches."

use crate::vector::{ProfileVector, ProfileView};

/// Cosine similarity in `[-1, 1]`; `None` if either vector is zero.
pub fn cosine(a: &ProfileVector, b: &ProfileVector) -> Option<f64> {
    cosine_view(a.as_view(), b.as_view())
}

/// [`cosine`] over borrowed profile views — the slab-backed hot path.
pub fn cosine_view(a: ProfileView<'_>, b: ProfileView<'_>) -> Option<f64> {
    let na = a.norm();
    let nb = b.norm();
    if na == 0.0 || nb == 0.0 {
        return None;
    }
    Some((a.dot(b) / (na * nb)).clamp(-1.0, 1.0))
}

/// Pearson correlation over the union of both supports, in `[-1, 1]`.
///
/// Dimensions scored by neither profile carry no information (both users are
/// indifferent), so means and deviations are taken over the union of
/// non-zero topics — the convention of the profile-similarity literature.
/// `None` when fewer than 2 union dimensions exist or either side has zero
/// variance.
pub fn pearson(a: &ProfileVector, b: &ProfileVector) -> Option<f64> {
    pearson_view(a.as_view(), b.as_view())
}

/// [`pearson`] over borrowed profile views — the slab-backed hot path.
pub fn pearson_view(a: ProfileView<'_>, b: ProfileView<'_>) -> Option<f64> {
    let union = union_values(a, b);
    let n = union.len();
    if n < 2 {
        return None;
    }
    let mean_a: f64 = union.iter().map(|&(x, _)| x).sum::<f64>() / n as f64;
    let mean_b: f64 = union.iter().map(|&(_, y)| y).sum::<f64>() / n as f64;
    let mut cov = 0.0;
    let mut var_a = 0.0;
    let mut var_b = 0.0;
    for &(x, y) in &union {
        let dx = x - mean_a;
        let dy = y - mean_b;
        cov += dx * dy;
        var_a += dx * dx;
        var_b += dy * dy;
    }
    if var_a == 0.0 || var_b == 0.0 {
        return None;
    }
    Some((cov / (var_a.sqrt() * var_b.sqrt())).clamp(-1.0, 1.0))
}

/// Paired `(score_a, score_b)` values over the union of supports.
///
/// Walks the two sorted topic arenas directly; the merge order (and thus
/// every downstream float operation) is identical to the historical
/// entry-pair walk.
fn union_values(a: ProfileView<'_>, b: ProfileView<'_>) -> Vec<(f64, f64)> {
    let mut out = Vec::with_capacity(a.support() + b.support());
    let (at, asc) = (a.topics(), a.scores());
    let (bt, bsc) = (b.topics(), b.scores());
    let (mut i, mut j) = (0, 0);
    while i < at.len() || j < bt.len() {
        match (at.get(i), bt.get(j)) {
            (Some(&ta), Some(&tb)) => {
                if ta == tb {
                    out.push((asc[i], bsc[j]));
                    i += 1;
                    j += 1;
                } else if ta < tb {
                    out.push((asc[i], 0.0));
                    i += 1;
                } else {
                    out.push((0.0, bsc[j]));
                    j += 1;
                }
            }
            (Some(_), None) => {
                out.push((asc[i], 0.0));
                i += 1;
            }
            (None, Some(_)) => {
                out.push((0.0, bsc[j]));
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use semrec_taxonomy::TopicId;

    fn t(i: usize) -> TopicId {
        TopicId::from_index(i)
    }

    fn v(pairs: &[(usize, f64)]) -> ProfileVector {
        ProfileVector::from_pairs(pairs.iter().map(|&(i, s)| (t(i), s)))
    }

    #[test]
    fn identical_profiles_have_similarity_one() {
        let a = v(&[(1, 3.0), (2, 4.0), (5, 1.0)]);
        assert!((cosine(&a, &a).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson(&a, &a).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_profiles_have_zero_cosine() {
        let a = v(&[(1, 3.0), (2, 4.0)]);
        let b = v(&[(5, 1.0), (7, 2.0)]);
        assert_eq!(cosine(&a, &b).unwrap(), 0.0);
        // Pearson over the union is negative: where one is high the other is 0.
        assert!(pearson(&a, &b).unwrap() < 0.0);
    }

    #[test]
    fn scaling_invariance() {
        let a = v(&[(1, 1.0), (2, 2.0), (3, 3.0)]);
        let mut b = a.clone();
        b.scale(42.0);
        assert!((cosine(&a, &b).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson(&a, &b).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_vectors_are_undefined() {
        let a = v(&[(1, 1.0)]);
        let z = ProfileVector::new();
        assert_eq!(cosine(&a, &z), None);
        assert_eq!(cosine(&z, &z), None);
        assert_eq!(pearson(&z, &z), None);
    }

    #[test]
    fn single_shared_dimension_pearson_is_undefined() {
        let a = v(&[(1, 1.0)]);
        let b = v(&[(1, 2.0)]);
        // Union has one dimension: no variance to correlate.
        assert_eq!(pearson(&a, &b), None);
        assert!(cosine(&a, &b).is_some());
    }

    #[test]
    fn partial_overlap_lands_between_zero_and_one() {
        let a = v(&[(1, 5.0), (2, 5.0), (3, 5.0)]);
        let b = v(&[(2, 5.0), (3, 5.0), (4, 5.0)]);
        let c = cosine(&a, &b).unwrap();
        assert!(c > 0.5 && c < 1.0, "got {c}");
    }

    #[test]
    fn branch_overlap_raises_similarity_more_than_distant_topics() {
        // Users sharing mid-branch mass (taxonomy propagation's effect) score
        // higher than users with completely disjoint branches.
        let shared_branch_a = v(&[(10, 20.0), (2, 10.0), (1, 5.0)]);
        let shared_branch_b = v(&[(11, 20.0), (2, 10.0), (1, 5.0)]);
        let disjoint = v(&[(30, 20.0), (31, 10.0), (32, 5.0)]);
        let near = cosine(&shared_branch_a, &shared_branch_b).unwrap();
        let far = cosine(&shared_branch_a, &disjoint).unwrap();
        assert!(near > far);
    }

    #[test]
    fn results_stay_in_bounds() {
        let a = v(&[(1, 1e9), (2, -1e9)]);
        let b = v(&[(1, 1e-9), (2, 1e9)]);
        for s in [cosine(&a, &b), pearson(&a, &b)].into_iter().flatten() {
            assert!((-1.0..=1.0).contains(&s));
        }
    }
}
