//! Similarity computation between interest profiles (§3.3).
//!
//! "For our approach, we apply common nearest-neighbor techniques, namely
//! Pearson's coefficient and cosine distance from Information Retrieval.
//! Hereby, profile vectors map category score vectors from C instead of
//! plain product-rating vectors. High similarity evolves from interest in
//! many identical or related branches."
//!
//! # Cosine, one target against many peers
//!
//! A request scores one target profile against every peer of its trust
//! neighborhood (≤ 50 on the default parameters), so the cosine kernel is
//! one-to-many. [`cosine_each`] computes `‖target‖` once and scatters the
//! target's scores into a dense per-thread table indexed by topic, as long
//! as the target's largest topic id (~3,000 `f64`s on the paper world).
//! Each peer then costs one linear, branch-free pass over its own entries:
//! `Σs² += s·s` and `dot += t·s`, where `t` is the table's entry (zero
//! where the target lacks the topic). Walking the target's topics again
//! clears the table. A request therefore costs `O(|target| + Σ|peer|)`,
//! with no per-peer allocation and without the merge's mispredicted branch
//! per step. [`cosine_view`] is the one-peer case of the same kernel.
//!
//! The result is bit-identical to `dot / (‖a‖·‖b‖)` over the merge-joined
//! [`ProfileView::dot`], which stays as the reference:
//! - the products the merge adds are the same products, met in the same
//!   ascending-topic order, and `Σs²` adds each peer's squares in the order
//!   [`ProfileView::norm`] does;
//! - every other product has a zero table entry (a topic the target lacks,
//!   or an explicit zero score), so it is ±0;
//! - adding ±0 to a sum that starts at +0.0 leaves it unchanged, since
//!   such a sum is never −0.0.
//!
//! The last step needs finite scores, so that no extra product is `0·∞`.
//! Generated profiles are finite, and a slab refuses any other score.
//!
//! Pearson keeps its pairwise merge: its means run over the union of both
//! supports, in interleaved topic order.

use std::cell::Cell;

use crate::vector::{ProfileVector, ProfileView};

/// Cosine similarity in `[-1, 1]`; `None` if either vector is zero.
pub fn cosine(a: &ProfileVector, b: &ProfileVector) -> Option<f64> {
    cosine_view(a.as_view(), b.as_view())
}

/// [`cosine`] over borrowed profile views: [`cosine_each`] with one peer.
pub fn cosine_view(a: ProfileView<'_>, b: ProfileView<'_>) -> Option<f64> {
    let mut similarity = None;
    cosine_each(a, [b], |s| similarity = s);
    similarity
}

/// The cosine of `target` against each of `peers`, handed to `each` in peer
/// order (`None` where either profile is zero). Every value has the bits of
/// the pairwise merge; the module docs give the cost model and the argument.
pub fn cosine_each<'p>(
    target: ProfileView<'_>,
    peers: impl IntoIterator<Item = ProfileView<'p>>,
    mut each: impl FnMut(Option<f64>),
) {
    let target_norm = target.norm();
    // Out of the thread's slot for the call: a panicking peer iterator
    // drops the table instead of leaving it dirty, and a nested call starts
    // from an empty one.
    let mut table = DENSE.take();
    let len = target.topics().last().map_or(0, |&t| t as usize + 1);
    if table.len() < len {
        table.resize(len, 0.0);
    }
    for (&t, &s) in target.topics().iter().zip(target.scores()) {
        table[t as usize] = s;
    }
    for peer in peers {
        let mut dot = 0.0;
        let mut squares = 0.0;
        for (&t, &s) in peer.topics().iter().zip(peer.scores()) {
            squares += s * s;
            dot += table.get(t as usize).copied().unwrap_or(0.0) * s;
        }
        let peer_norm = squares.sqrt();
        each(if target_norm == 0.0 || peer_norm == 0.0 {
            None
        } else {
            Some((dot / (target_norm * peer_norm)).clamp(-1.0, 1.0))
        });
    }
    for &t in target.topics() {
        table[t as usize] = 0.0;
    }
    DENSE.set(table);
}

thread_local! {
    /// Topic id → the current target's score, zero everywhere between
    /// calls; one table per thread, grown to the largest target topic seen.
    static DENSE: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
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
    use proptest::prelude::*;
    use semrec_taxonomy::TopicId;

    /// Sorted, distinct topics below `topics` with finite scores of every
    /// magnitude, explicit zeros of both signs among them.
    fn arb_view(topics: u32) -> impl Strategy<Value = (Vec<u32>, Vec<f64>)> {
        prop::collection::vec((0..topics, 0u8..6, any::<f64>()), 0..24).prop_map(|mut entries| {
            entries.sort_by_key(|&(t, _, _)| t);
            entries.dedup_by_key(|&mut (t, _, _)| t);
            entries
                .into_iter()
                .map(|(t, kind, x)| (t, [0.0, -0.0].get(kind as usize).copied().unwrap_or(x)))
                .unzip()
        })
    }

    fn view((topics, scores): &(Vec<u32>, Vec<f64>)) -> ProfileView<'_> {
        ProfileView::from_raw(topics, scores)
    }

    /// The reference: the merge-joined dot over both norms.
    fn merged(a: ProfileView<'_>, b: ProfileView<'_>) -> Option<u64> {
        let (na, nb) = (a.norm(), b.norm());
        if na == 0.0 || nb == 0.0 {
            return None;
        }
        Some((a.dot(b) / (na * nb)).clamp(-1.0, 1.0).to_bits())
    }

    fn each_bits(target: ProfileView<'_>, peers: &[(Vec<u32>, Vec<f64>)]) -> Vec<Option<u64>> {
        let mut out = Vec::new();
        cosine_each(target, peers.iter().map(view), |s| out.push(s.map(f64::to_bits)));
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn cosine_each_is_the_merge_bit_for_bit(
            target in arb_view(32),
            // Peer topics run past the target's largest.
            peers in prop::collection::vec(arb_view(48), 0..6),
        ) {
            let want: Vec<_> = peers.iter().map(|p| merged(view(&target), view(p))).collect();
            prop_assert_eq!(each_bits(view(&target), &peers), want);
            for p in &peers {
                let one = cosine_view(view(&target), view(p));
                prop_assert_eq!(one.map(f64::to_bits), merged(view(&target), view(p)));
            }
        }

        #[test]
        fn the_dense_table_is_left_clean(
            first in arb_view(24),
            second in arb_view(24),
            peers in prop::collection::vec(arb_view(48), 1..6),
        ) {
            // Disjoint targets on one thread: even topics, then odd ones.
            let spread = |(topics, scores): &(Vec<u32>, Vec<f64>), odd: u32| {
                (topics.iter().map(|&t| 2 * t + odd).collect::<Vec<_>>(), scores.clone())
            };
            let (first, second) = (spread(&first, 0), spread(&second, 1));
            for target in [&first, &second, &first] {
                let want: Vec<_> = peers.iter().map(|p| merged(view(target), view(p))).collect();
                prop_assert_eq!(each_bits(view(target), &peers), want);
            }
        }
    }

    #[test]
    fn empty_and_all_zero_views_have_no_cosine() {
        // Some scores, explicit zeros only, nothing.
        let views =
            [(vec![1, 5], vec![2.0, -3.0]), (vec![1, 5], vec![0.0, -0.0]), (vec![], vec![])];
        for target in &views {
            let want: Vec<_> = views.iter().map(|p| merged(view(target), view(p))).collect();
            assert_eq!(each_bits(view(target), &views), want);
        }
        assert_eq!(each_bits(view(&views[0]), &[]), vec![]);
        assert_eq!(each_bits(view(&views[1]), &views[..1]), vec![None]);
    }

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
