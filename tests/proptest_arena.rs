//! Arena-layout properties: for *any* random trust network the CSR form
//! must mirror the adjacency-list graph edge for edge (that Appleseed over
//! it then answers as the adjacency-list oracle does is
//! `tests/proptest_appleseed.rs`), and for *any* random rating churn the
//! slab store's incremental `advance` must land on the exact slab a fresh
//! build produces. (The v2 snapshot round trip is a row of
//! `tests/conformance.rs`.)

use std::collections::HashSet;

use proptest::prelude::*;
use semrec::core::{Community, ProfileStore, RecommenderConfig};
use semrec::trust::CsrGraph;
use semrec::AgentId;

mod common;
use common::{arb_world, World};

/// Bit-exact rendering of one agent's rating list.
fn ratings_bits(c: &Community, a: AgentId) -> Vec<(usize, u64)> {
    c.ratings_of(a).iter().map(|&(p, r)| (p.index(), r.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The CSR form is the adjacency-list graph: same counts, same edges
    /// in the same order with bit-identical weights, same reverse edges,
    /// and both conversions (`from_graph`/`to_graph`, `arenas`/
    /// `from_parts`) are lossless.
    #[test]
    fn csr_graph_mirrors_trust_graph(world in arb_world()) {
        let c = world.community();
        let graph = &c.trust;
        let csr = CsrGraph::from_graph(graph);

        prop_assert_eq!(csr.agent_count(), graph.agent_count());
        prop_assert_eq!(csr.edge_count(), graph.edge_count());
        for a in c.agents() {
            let list: Vec<(AgentId, u64)> =
                graph.out_edges(a).iter().map(|&(t, w)| (t, w.to_bits())).collect();
            let flat: Vec<(AgentId, u64)> =
                csr.out_edges(a).map(|(t, w)| (t, w.to_bits())).collect();
            prop_assert_eq!(flat, list);
            let trusters: Vec<u32> =
                graph.trusters_of(a).iter().map(|t| t.index() as u32).collect();
            prop_assert_eq!(csr.trusters_of(a), &trusters[..]);
            for &(t, w) in graph.out_edges(a) {
                prop_assert_eq!(csr.trust(a, t).map(f64::to_bits), Some(w.to_bits()));
            }
        }

        let round = CsrGraph::from_graph(&csr.to_graph());
        prop_assert_eq!(round.arenas(), csr.arenas());
        let (oo, ot, ow, io, is) = csr.arenas();
        let reparsed = CsrGraph::from_parts(
            oo.to_vec(), ot.to_vec(), ow.to_vec(), io.to_vec(), is.to_vec(),
        ).expect("own arenas validate");
        prop_assert_eq!(reparsed.arenas(), csr.arenas());
    }

    /// Incremental slab advance ≡ fresh build: whatever the rating churn
    /// between two generations, advancing with a sound dirty set produces
    /// a profile slab bit-identical to building from scratch — reused
    /// ranges included.
    #[test]
    fn slab_advance_equals_fresh_build(
        world in arb_world(),
        next_ratings in prop::collection::vec(
            (0usize..16, 0usize..4, -1.0f64..=1.0), 0..40),
        extra_agents in 0usize..4,
    ) {
        let prev = world.community();
        let agents = world.agents + extra_agents;
        let next = World { agents, ratings: next_ratings, ..world }.community();
        let config = RecommenderConfig::default();
        let prev_store = ProfileStore::build(&prev, &config.profile);

        // A sound dirty set: every URI present in both generations whose
        // rating list changed. Agents new to `next` are recomputed fresh
        // regardless of the set.
        let mut dirty: HashSet<&str> = HashSet::new();
        for a in next.agents() {
            let uri = &next.agent(a).unwrap().uri;
            match prev.agent_by_uri(uri) {
                Some(old) if ratings_bits(&prev, old) == ratings_bits(&next, a) => {}
                _ => { dirty.insert(uri.as_str()); }
            }
        }

        let (advanced, stats) = prev_store.advance(&prev, &next, &dirty);
        let fresh = ProfileStore::build(&next, &config.profile);

        prop_assert_eq!(stats.reused + stats.recomputed, next.agent_count());
        let (ao, at, asc) = advanced.slab().arenas();
        let (fo, ft, fsc) = fresh.slab().arenas();
        prop_assert_eq!(ao, fo);
        prop_assert_eq!(at, ft);
        let a_bits: Vec<u64> = asc.iter().map(|s| s.to_bits()).collect();
        let f_bits: Vec<u64> = fsc.iter().map(|s| s.to_bits()).collect();
        prop_assert_eq!(a_bits, f_bits);
    }
}
