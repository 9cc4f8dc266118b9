//! The engine's books: one registry per model lineage and one handle per
//! `engine.*` / `model.*` / `rank.*` / `batch.*` name in it, resolved when
//! the first generation is built. `SharedModel` carries them by `Arc`
//! through `advance`, `with_source_health`, `using_ranker` and
//! `from_shared`, so every generation and every serving worker's clone
//! records into the same cells and no other engine can.

use semrec_obs::{Counter, Gauge, Histogram, MetricsRegistry};

use crate::delta::AdvanceStats;
use crate::engine::PipelineTrace;
use crate::profiles::SimilarityMeasure;
use crate::rank::RankReport;

/// One handle per engine metric name (see the README's engine table).
#[derive(Debug)]
pub(crate) struct EngineMetrics {
    pub registry: MetricsRegistry,
    runs: Counter,
    trust_iterations: Counter,
    nodes_explored: Counter,
    effective_peers: Counter,
    pub degraded_runs: Counter,
    pub stage_neighborhood: Histogram,
    pub stage_profiles: Histogram,
    pub stage_synthesis: Histogram,
    pub stage_voting: Histogram,
    similarity_cosine: Counter,
    similarity_pearson: Counter,
    spread_runs: Counter,
    activation_hops: Counter,
    activation_nodes: Counter,
    universe_explored: Counter,
    frontier_size: Histogram,
    profiles_reused: Counter,
    profiles_recomputed: Counter,
    bytes: Gauge,
    bytes_trust_csr: Gauge,
    bytes_profile_slab: Gauge,
    pub batch_tasks: Counter,
    pub batch_threads: Gauge,
}

impl EngineMetrics {
    /// A fresh registry with every fixed name registered at zero.
    pub fn new() -> Self {
        let registry = MetricsRegistry::new();
        let counter = |name: &str| registry.counter(name);
        EngineMetrics {
            runs: counter("engine.runs"),
            trust_iterations: counter("engine.trust_iterations"),
            nodes_explored: counter("engine.nodes_explored"),
            effective_peers: counter("engine.effective_peers"),
            degraded_runs: counter("engine.degraded_runs"),
            stage_neighborhood: registry.histogram("engine.stage.neighborhood"),
            stage_profiles: registry.histogram("engine.stage.profiles"),
            stage_synthesis: registry.histogram("engine.stage.synthesis"),
            stage_voting: registry.histogram("engine.stage.voting"),
            similarity_cosine: counter("profiles.similarity.cosine"),
            similarity_pearson: counter("profiles.similarity.pearson"),
            spread_runs: counter("rank.spread.runs"),
            activation_hops: counter("rank.activation.hops"),
            activation_nodes: counter("rank.activation.nodes"),
            universe_explored: counter("rank.universe.explored"),
            frontier_size: registry.histogram("rank.frontier.size"),
            profiles_reused: counter("model.profiles.reused"),
            profiles_recomputed: counter("model.profiles.recomputed"),
            bytes: registry.gauge("model.bytes"),
            bytes_trust_csr: registry.gauge("model.bytes.trust_csr"),
            bytes_profile_slab: registry.gauge("model.bytes.profile_slab"),
            batch_tasks: counter("batch.tasks"),
            batch_threads: registry.gauge("batch.threads"),
            registry,
        }
    }

    /// One pipeline run, as the trace it returned.
    pub fn record_run(&self, trace: &PipelineTrace) {
        self.runs.inc();
        self.trust_iterations.add(trace.trust_iterations as u64);
        self.nodes_explored.add(trace.nodes_explored as u64);
        self.effective_peers.add(trace.effective_peers as u64);
    }

    /// The profile stage scored `peers` neighbors with `measure`.
    pub fn record_similarity(&self, measure: SimilarityMeasure, peers: usize) {
        let scored = match measure {
            SimilarityMeasure::Cosine => &self.similarity_cosine,
            SimilarityMeasure::Pearson => &self.similarity_pearson,
        };
        scored.add(peers as u64);
    }

    /// What the ranker reported beside its ranking.
    pub fn record_rank(&self, report: &RankReport) {
        self.spread_runs.add(report.spreads as u64);
        self.activation_hops.add(report.hops as u64);
        self.activation_nodes.add(report.activated as u64);
        self.universe_explored.add(report.explored as u64);
        for &size in &report.frontier_sizes {
            self.frontier_size.observe(size as f64);
        }
    }

    /// One `advance`, as the stats it returned.
    pub fn record_advance(&self, stats: &AdvanceStats) {
        self.profiles_reused.add(stats.reused as u64);
        self.profiles_recomputed.add(stats.recomputed as u64);
    }

    /// Resident bytes of the newest generation's flat arenas.
    pub fn set_resident_bytes(&self, trust_csr: usize, profile_slab: usize) {
        self.bytes_trust_csr.set(trust_csr as f64);
        self.bytes_profile_slab.set(profile_slab as f64);
        self.bytes.set((trust_csr + profile_slab) as f64);
    }
}
