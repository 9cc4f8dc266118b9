//! Micro-benchmarks for the Appleseed trust metric (backs experiment E3/E6):
//! cost vs network size, convergence threshold and exploration bounds, and
//! the neighborhood call the engine makes per uncached request.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use semrec_bench::Scale;
use semrec_datagen::community::{generate_community, CommunityGenConfig};
use semrec_trust::appleseed::{appleseed, AppleseedParams};
use semrec_trust::{form_neighborhood_csr, AgentId, CsrGraph, NeighborhoodParams, TrustGraph};

fn network(agents: usize) -> TrustGraph {
    let mut config = CommunityGenConfig::small(3003);
    config.agents = agents;
    generate_community(&config).community.trust
}

fn bench_network_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("appleseed/network_size");
    for n in [200usize, 800, 3200] {
        let graph = network(n);
        let source = graph.agents().next().unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| appleseed(&graph, source, &AppleseedParams::default()).unwrap())
        });
    }
    group.finish();
}

fn bench_convergence(c: &mut Criterion) {
    let graph = network(800);
    let source = graph.agents().next().unwrap();
    let mut group = c.benchmark_group("appleseed/convergence");
    for tc in [0.1f64, 0.01, 0.001] {
        group.bench_with_input(BenchmarkId::from_parameter(tc), &tc, |b, &tc| {
            b.iter(|| {
                appleseed(
                    &graph,
                    source,
                    &AppleseedParams { convergence: tc, ..Default::default() },
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_bounded_exploration(c: &mut Criterion) {
    let graph = network(3200);
    let source = graph.agents().next().unwrap();
    let mut group = c.benchmark_group("appleseed/exploration_bound");
    for cap in [100usize, 400, usize::MAX] {
        let label = if cap == usize::MAX { "unbounded".to_owned() } else { cap.to_string() };
        group.bench_with_input(BenchmarkId::from_parameter(label), &cap, |b, &cap| {
            let params = AppleseedParams {
                max_nodes: (cap != usize::MAX).then_some(cap),
                ..Default::default()
            };
            b.iter(|| appleseed(&graph, source, &params).unwrap())
        });
    }
    group.finish();
}

/// What `trust.neighborhood_us` in the repository benchmark times: the
/// engine's default neighborhood bounds (`max_nodes` 400, `max_range` 6)
/// over the CSR graph, rotating through sources as a server's requests do.
fn bench_served_neighborhood(c: &mut Criterion) {
    let mut group = c.benchmark_group("appleseed/served_neighborhood");
    for (label, scale) in [("medium", Scale::Medium), ("paper", Scale::Paper)] {
        let graph = CsrGraph::from_graph(&generate_community(&scale.community(42)).community.trust);
        // Every 37th agent: enough sources that no one wave stays cached.
        let sources: Vec<_> =
            (0..graph.agent_count()).step_by(37).map(AgentId::from_index).collect();
        let params = NeighborhoodParams::default();
        let mut next = 0;
        group.bench_with_input(BenchmarkId::from_parameter(label), &label, |b, _| {
            b.iter(|| {
                next = (next + 1) % sources.len();
                form_neighborhood_csr(&graph, sources[next], &params).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_network_size,
    bench_convergence,
    bench_bounded_exploration,
    bench_served_neighborhood
);
criterion_main!(benches);
