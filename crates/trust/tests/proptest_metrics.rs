//! Property tests over random trust networks: Appleseed energy conservation,
//! determinism and locality; max-flow sanity against a brute-force cut bound.

use proptest::prelude::*;
use semrec_trust::appleseed::{appleseed, AppleseedParams};
use semrec_trust::maxflow::FlowNetwork;
use semrec_trust::{AgentId, CsrGraph, TrustGraph};

/// Builds a graph with `n` agents and the given edge list (endpoints taken
/// modulo `n`, self-edges skipped, duplicates overwrite).
fn build(n: usize, edges: &[(usize, usize, f64)]) -> TrustGraph {
    let mut g = TrustGraph::with_agents(n);
    let ids: Vec<_> = g.agents().collect();
    for &(a, b, w) in edges {
        let (a, b) = (a % n, b % n);
        if a != b {
            g.set_trust(ids[a], ids[b], w).unwrap();
        }
    }
    g
}

fn arb_edges(n: usize) -> impl Strategy<Value = Vec<(usize, usize, f64)>> {
    prop::collection::vec((0..n, 0..n, -1.0f64..=1.0), 0..(n * 3))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn appleseed_total_rank_never_exceeds_injection(
        edges in arb_edges(12),
    ) {
        let g = build(12, &edges);
        let src = AgentId::from_index(0);
        let params = AppleseedParams { convergence: 1e-4, ..Default::default() };
        let res = appleseed(&CsrGraph::from_graph(&g), src, &params).unwrap();
        prop_assert!(res.total_rank() <= params.injection + 1e-6,
            "total rank {} exceeds injection", res.total_rank());
    }

    #[test]
    fn appleseed_ranks_are_nonnegative_without_distrust(
        edges in arb_edges(12),
    ) {
        let g = build(12, &edges);
        let res = appleseed(&CsrGraph::from_graph(&g), AgentId::from_index(0), &AppleseedParams::default()).unwrap();
        for (a, r) in &res.ranks {
            prop_assert!(*r >= 0.0, "agent {a} has negative rank {r}");
        }
    }

    #[test]
    fn appleseed_is_deterministic(edges in arb_edges(10)) {
        let g = build(10, &edges);
        let src = AgentId::from_index(0);
        let a = appleseed(&CsrGraph::from_graph(&g), src, &AppleseedParams::default()).unwrap();
        let b = appleseed(&CsrGraph::from_graph(&g), src, &AppleseedParams::default()).unwrap();
        prop_assert_eq!(a.ranks, b.ranks);
    }

    #[test]
    fn appleseed_ranks_only_reachable_agents(edges in arb_edges(14)) {
        let g = build(14, &edges);
        let src = AgentId::from_index(0);
        let res = appleseed(&CsrGraph::from_graph(&g), src, &AppleseedParams::default()).unwrap();
        // BFS over positive edges = the reachable set.
        let mut reach = vec![false; g.agent_count()];
        reach[src.index()] = true;
        let mut stack = vec![src];
        while let Some(v) = stack.pop() {
            for (s, _) in g.positive_out_edges(v) {
                if !reach[s.index()] {
                    reach[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        for (a, r) in &res.ranks {
            if *r > 0.0 {
                prop_assert!(reach[a.index()], "unreachable agent {a} ranked {r}");
            }
        }
    }

    #[test]
    fn appleseed_range_zero_discovers_only_source(edges in arb_edges(10)) {
        let g = build(10, &edges);
        let res = appleseed(
            &CsrGraph::from_graph(&g),
            AgentId::from_index(0),
            &AppleseedParams { max_range: Some(0), ..Default::default() },
        ).unwrap();
        prop_assert_eq!(res.nodes_discovered, 1);
        prop_assert!(res.ranks.is_empty());
    }

    #[test]
    fn maxflow_bounded_by_source_and_sink_degree_capacity(
        caps in prop::collection::vec(0i64..20, 9),
    ) {
        // 3x3 grid-ish network: s → {a,b,c} → t with crossing edges.
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let mid: Vec<_> = (0..3).map(|_| net.add_node()).collect();
        let t = net.add_node();
        let mut out_cap = 0;
        let mut in_cap = 0;
        for i in 0..3 {
            net.add_edge(s, mid[i], caps[i]);
            out_cap += caps[i];
            net.add_edge(mid[i], t, caps[3 + i]);
            in_cap += caps[3 + i];
        }
        net.add_edge(mid[0], mid[1], caps[6]);
        net.add_edge(mid[1], mid[2], caps[7]);
        net.add_edge(mid[2], mid[0], caps[8]);
        let flow = net.max_flow(s, t).value;
        prop_assert!(flow <= out_cap.min(in_cap));
        prop_assert!(flow >= 0);
        // Per-edge flow never exceeds capacity (checked via residuals ≥ 0).
        for e in (0..9).map(|i| (i * 2) as u32) {
            prop_assert!(net.residual(e) >= 0);
        }
    }
}
