//! Property tests over randomly grown taxonomies: the §3.1 invariants
//! (single top element, acyclicity, partial-order consistency) must hold for
//! every construction sequence the builder admits.

use proptest::prelude::*;
use semrec_taxonomy::{Taxonomy, TopicId};

/// Grows a tree by attaching each new topic under a pseudo-random existing
/// parent, then adds a few DAG edges where legal.
fn grow(seed_parents: &[usize], dag_edges: &[(usize, usize)]) -> Taxonomy {
    let mut b = Taxonomy::builder("Top");
    let mut ids = vec![TopicId::TOP];
    for (i, &p) in seed_parents.iter().enumerate() {
        let parent = ids[p % ids.len()];
        let id = b.add_topic(format!("t{i}"), parent).unwrap();
        ids.push(id);
    }
    for &(c, p) in dag_edges {
        let child = ids[c % ids.len()];
        let parent = ids[p % ids.len()];
        // Ignore rejected edges (cycles, self, ⊤): builder must stay consistent.
        let _ = b.add_parent(child, parent);
    }
    b.build()
}

/// The dense-table walk `ancestors` replaced, kept as the oracle for the
/// order `ancestors` must keep.
fn dense_ancestors(t: &Taxonomy, id: TopicId) -> Vec<TopicId> {
    let mut out = Vec::new();
    let mut seen = vec![false; t.len()];
    let mut frontier = vec![id];
    while let Some(node) = frontier.pop() {
        for &p in t.parents(node) {
            if !seen[p.index()] {
                seen[p.index()] = true;
                out.push(p);
                frontier.push(p);
            }
        }
    }
    out.sort_by_key(|&t2| std::cmp::Reverse(t.depth(t2)));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_topic_reaches_top(
        parents in prop::collection::vec(0usize..1000, 1..60),
        edges in prop::collection::vec((0usize..1000, 0usize..1000), 0..10),
    ) {
        let t = grow(&parents, &edges);
        for id in t.iter() {
            prop_assert!(t.is_ancestor(TopicId::TOP, id));
            if id != TopicId::TOP {
                prop_assert!(!t.parents(id).is_empty());
            }
        }
        prop_assert!(t.parents(TopicId::TOP).is_empty());
    }

    #[test]
    fn depth_is_consistent_with_parents(
        parents in prop::collection::vec(0usize..1000, 1..60),
        edges in prop::collection::vec((0usize..1000, 0usize..1000), 0..10),
    ) {
        let t = grow(&parents, &edges);
        for id in t.iter() {
            if id == TopicId::TOP {
                prop_assert_eq!(t.depth(id), 0);
            } else {
                let want = t.parents(id).iter().map(|p| t.depth(*p) + 1).min().unwrap();
                prop_assert_eq!(t.depth(id), want);
            }
        }
    }

    #[test]
    fn acyclicity_no_topic_is_its_own_proper_ancestor(
        parents in prop::collection::vec(0usize..1000, 1..60),
        edges in prop::collection::vec((0usize..1000, 0usize..1000), 0..16),
    ) {
        let t = grow(&parents, &edges);
        for id in t.iter() {
            prop_assert!(!t.ancestors(id).contains(&id));
            prop_assert!(!t.descendants(id).contains(&id));
        }
    }

    #[test]
    fn ancestor_descendant_duality(
        parents in prop::collection::vec(0usize..1000, 1..40),
        edges in prop::collection::vec((0usize..1000, 0usize..1000), 0..8),
    ) {
        let t = grow(&parents, &edges);
        for a in t.iter() {
            for d in t.descendants(a) {
                prop_assert!(t.ancestors(d).contains(&a));
                prop_assert!(t.is_ancestor(a, d));
            }
        }
    }

    /// Negative cases too: on DAGs dense with extra parents, `is_ancestor`
    /// and `ancestors` agree with the dense `descendants` walk on every
    /// pair, and `ancestors` keeps its order.
    #[test]
    fn ancestry_agrees_with_descendants_on_every_pair(
        parents in prop::collection::vec(0usize..1000, 1..40),
        edges in prop::collection::vec((0usize..1000, 0usize..1000), 0..32),
    ) {
        let t = grow(&parents, &edges);
        let below: Vec<Vec<TopicId>> = t.iter().map(|a| t.descendants(a)).collect();
        for b in t.iter() {
            let mut want = Vec::new();
            for a in t.iter() {
                let related = a == b || below[a.index()].contains(&b);
                prop_assert_eq!(t.is_ancestor(a, b), related, "is_ancestor({:?}, {:?})", a, b);
                if related && a != b {
                    want.push(a);
                }
            }
            let got = t.ancestors(b);
            prop_assert_eq!(&got, &dense_ancestors(&t, b));
            let mut sorted = got.clone();
            sorted.sort();
            prop_assert_eq!(sorted, want, "ancestors({:?}) = {:?}", b, got);
        }
    }

    #[test]
    fn paths_start_at_top_and_end_at_node(
        parents in prop::collection::vec(0usize..1000, 1..40),
        edges in prop::collection::vec((0usize..1000, 0usize..1000), 0..8),
    ) {
        let t = grow(&parents, &edges);
        for id in t.iter() {
            let paths = t.paths_from_top(id);
            prop_assert!(!paths.is_empty());
            for path in paths {
                prop_assert_eq!(path[0], TopicId::TOP);
                prop_assert_eq!(*path.last().unwrap(), id);
                // Consecutive elements are parent→child edges.
                for w in path.windows(2) {
                    prop_assert!(t.children(w[0]).contains(&w[1]));
                }
            }
        }
    }

    #[test]
    fn lca_is_a_common_ancestor(
        parents in prop::collection::vec(0usize..1000, 2..40),
    ) {
        let t = grow(&parents, &[]);
        let ids: Vec<_> = t.iter().collect();
        for i in (0..ids.len()).step_by(3) {
            for j in (i..ids.len()).step_by(5) {
                let (a, b) = (ids[i], ids[j]);
                let lca = t.lowest_common_ancestor(a, b);
                prop_assert!(t.is_ancestor(lca, a));
                prop_assert!(t.is_ancestor(lca, b));
            }
        }
    }

    #[test]
    fn distance_is_a_metric_on_trees(
        parents in prop::collection::vec(0usize..1000, 2..30),
    ) {
        let t = grow(&parents, &[]);
        let ids: Vec<_> = t.iter().collect();
        for &a in ids.iter().step_by(4) {
            prop_assert_eq!(t.distance(a, a), 0);
            for &b in ids.iter().step_by(7) {
                prop_assert_eq!(t.distance(a, b), t.distance(b, a));
            }
        }
    }
}
