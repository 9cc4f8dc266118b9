//! The Appleseed kernel against its frozen oracle: for *any* random trust
//! network and every combination of the parameters that change the loop's
//! control flow, the expansion-cached kernel in `semrec-trust` must return
//! the straightforward loop's ranks bit for bit — plus the same
//! `iterations`, `nodes_discovered` and `converged`. The kernel reads the
//! frozen `CsrGraph` (re-frozen per spreading exponent, since the powered
//! weights travel with the graph), the oracle the adjacency-list
//! `TrustGraph` it was frozen from: two representations of the same
//! statements.

use proptest::prelude::*;
use semrec::datagen::{generate_community, CommunityGenConfig};
use semrec::trust::appleseed::{appleseed, AppleseedParams, AppleseedResult};
use semrec::trust::{CsrGraph, NeighborhoodParams, TrustError, TrustGraph};
use semrec::AgentId;

/// The oracle is test-only code of `semrec-trust`, shared by path.
#[path = "../crates/trust/src/appleseed/oracle.rs"]
mod oracle;
use oracle::{appleseed_reference, bits};

/// Asserts the kernel on `csr` reproduces the oracle on `graph` from
/// `source`, and returns its result.
fn check(
    graph: &TrustGraph,
    csr: &CsrGraph,
    source: AgentId,
    params: &AppleseedParams,
) -> AppleseedResult {
    let kernel = appleseed(csr, source, params).expect("valid parameters, matching exponent");
    let oracle = appleseed_reference(graph, source, params);
    assert_eq!(bits(&kernel), bits(&oracle), "{source} {params:?}");
    kernel
}

/// Every combination of the parameters that steer the loop: distrust,
/// node cap (none / binding / the engine's 400), hop range, spreading
/// exponent, and tight or loose convergence — plus an iteration cap low
/// enough that the tight runs end unconverged.
fn parameter_matrix() -> Vec<AppleseedParams> {
    let mut matrix = Vec::new();
    for distrust in [false, true] {
        for max_nodes in [None, Some(3), Some(400)] {
            for max_range in [None, Some(1), Some(2), Some(6)] {
                for spreading_power in [1.0, 2.0] {
                    for (convergence, max_iterations) in [(1e-7, 10_000), (0.5, 10_000), (1e-7, 4)] {
                        matrix.push(AppleseedParams {
                            distrust,
                            max_nodes,
                            max_range,
                            spreading_power,
                            convergence,
                            max_iterations,
                            ..AppleseedParams::default()
                        });
                    }
                }
            }
        }
    }
    matrix
}

fn build(n: usize, edges: &[(usize, usize, f64)]) -> TrustGraph {
    let mut g = TrustGraph::with_agents(n);
    let ids: Vec<_> = g.agents().collect();
    for &(a, b, w) in edges {
        if a != b {
            g.set_trust(ids[a], ids[b], w).unwrap();
        }
    }
    g
}

/// Not `common::arb_world`: this judges the kernel's loop, not a route, over the whole matrix per world.
fn arb_network() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (2usize..16).prop_flat_map(|n| {
        (Just(n), prop::collection::vec((0..n, 0..n, -1.0f64..=1.0), 0..(n * 4)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kernel_is_bit_identical_to_the_oracle((n, edges) in arb_network()) {
        let graph = build(n, &edges);
        let linear = CsrGraph::from_graph(&graph);
        let squared = linear.clone().with_spreading_power(2.0);
        // Sources run back to back on this thread, so every run after the
        // first also exercises the reused scratch.
        for params in parameter_matrix() {
            let csr = if params.spreading_power == 1.0 { &linear } else { &squared };
            for source in graph.agents() {
                check(&graph, csr, source, &params);
            }
        }
    }

    #[test]
    fn another_exponent_than_the_graphs_is_a_typed_error((n, edges) in arb_network()) {
        let csr = CsrGraph::from_graph(&build(n, &edges));
        let squared = AppleseedParams { spreading_power: 2.0, ..AppleseedParams::default() };
        for source in (0..n).map(AgentId::from_index) {
            let refused = appleseed(&csr, source, &squared);
            prop_assert!(matches!(
                refused,
                Err(TrustError::InvalidParameter { name: "spreading_power", value, .. }) if value == 2.0
            ));
        }
        // Re-frozen, the same parameters run.
        let csr = csr.with_spreading_power(2.0);
        prop_assert!(appleseed(&csr, AgentId::from_index(0), &squared).is_ok());
        prop_assert!(appleseed(&csr, AgentId::from_index(0), &AppleseedParams::default()).is_err());
    }
}

/// The call the server makes: the engine's default neighborhood bounds
/// (400 nodes, range 6) on a generated community large enough for the cap
/// to bind mid-expansion.
#[test]
fn engine_default_bounds_on_a_generated_community() {
    let mut config = CommunityGenConfig::small(12);
    config.agents = 1_500;
    let graph = generate_community(&config).community.trust;
    let served = NeighborhoodParams::default().appleseed;
    let mut capped = 0;
    for params in [served, AppleseedParams { distrust: true, spreading_power: 2.0, ..served }] {
        let csr = CsrGraph::from_graph(&graph).with_spreading_power(params.spreading_power);
        for source in graph.agents().step_by(97) {
            capped += usize::from(check(&graph, &csr, source, &params).nodes_discovered == 400);
        }
    }
    assert!(capped > 0, "the 400-node cap must bind for some source");
}
