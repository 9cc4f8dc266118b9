//! **E17 — Incremental refresh** (delta-driven crawl → community →
//! profiles → snapshot): the republish loop costed end to end.
//!
//! The steady state of §2's asynchronous environment is *small deltas
//! against a large standing model*: a churn fraction of agents republish,
//! the crawler refreshes, and the model must follow. This experiment
//! sweeps churn rate × refresh rounds and, each round, advances the model
//! incrementally (`CommunityBuilder::apply_delta` + `Recommender::advance`,
//! recomputing only dirty profiles), then publishes the new generation
//! into a running server with a [`SwapPlan`]-guided cache carry and
//! measures the post-swap hit rate over a fixed request panel. The work is
//! counted (profiles reused and recomputed, crawl ticks, cache entries
//! carried); what an advance costs in wall time beside a from-scratch
//! build is `perf/`'s `core.advance_ms` beside `core.model_build_ms`.
//!
//! The trust graph is kept sparse and the neighborhood horizon tight so
//! the reverse-trust closure of a small delta stays a small fraction of
//! the community — the regime the paper's web-scale deployment lives in,
//! where a republish cannot plausibly reach most of the graph within the
//! horizon. At high churn the dirty fraction crosses the plan's threshold
//! and the swap degrades to wholesale invalidation, which the last sweep
//! rows demonstrate.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use semrec_core::{AgentId, Recommender, RecommenderConfig, SwapPlan};
use semrec_datagen::community::generate_community;
use semrec_eval::table::{fmt, Table};
use semrec_obs::MetricsSnapshot;
use semrec_serve::{ServeConfig, Server};
use semrec_trust::neighborhood::NeighborhoodParams;
use semrec_web::crawler::{crawl, refresh, CommunityBuilder, CrawlConfig};
use semrec_web::publish::{homepage_turtle, homepage_uri, publish_community};
use semrec_web::store::DocumentWeb;

use crate::Scale;

/// One refresh round under one churn rate.
#[derive(Clone, Debug)]
pub struct Row {
    /// Fraction of agents that republished before this round.
    pub churn: f64,
    /// Round number (1-based) within this churn rate's run.
    pub round: usize,
    /// Agents the crawl delta touched (added + changed + removed).
    pub touched: usize,
    /// Profiles reused by `Arc` clone during the incremental advance.
    pub reused: usize,
    /// Profiles recomputed during the incremental advance.
    pub recomputed: usize,
    /// Virtual ticks the refresh crawl consumed.
    pub refresh_ticks: u64,
    /// Agents the swap plan marked dirty.
    pub dirty: usize,
    /// Whether the plan fell back to wholesale cache invalidation.
    pub wholesale: bool,
    /// Cache entries carried across the swap.
    pub carried: usize,
    /// Panel requests answered from the cache after the swap.
    pub post_swap_hits: u64,
    /// Panel requests replayed after the swap.
    pub post_swap_requests: u64,
}

impl Row {
    /// Post-swap cache hit rate over the replayed panel.
    pub fn post_swap_hit_rate(&self) -> f64 {
        if self.post_swap_requests == 0 {
            return 0.0;
        }
        self.post_swap_hits as f64 / self.post_swap_requests as f64
    }
}

/// Measured outcomes for shape assertions.
pub struct Outcome {
    /// Community size.
    pub agents: usize,
    /// One row per (churn, round).
    pub rows: Vec<Row>,
    /// Each churn rate's server's own books after its last round, aligned
    /// with the churn sweep.
    pub server_metrics: Vec<MetricsSnapshot>,
}

const CHURNS: [f64; 3] = [0.01, 0.05, 0.25];

/// Runs E17.
pub fn run(scale: Scale) -> (Outcome, String) {
    let mut out =
        super::header("E17", "Incremental refresh: churn × rounds, profile work and cache carry");
    let rounds = match scale {
        Scale::Small => 3,
        Scale::Medium => 4,
        Scale::Paper => 5,
    };

    // Sparse trust graph + tight horizon: the regime where a delta's
    // reverse-trust closure is a small fraction of the community (see the
    // module docs). The engine config must match the plan's horizon — the
    // dirty set is only sound for the neighborhood bound it was computed
    // against.
    let mut gen_config = scale.community(1717);
    gen_config.mean_trust_edges = 2.5;
    let engine_config = RecommenderConfig {
        neighborhood: NeighborhoodParams {
            appleseed: semrec_trust::appleseed::AppleseedParams {
                max_range: Some(2),
                ..Default::default()
            },
            ..Default::default()
        },
        ..Default::default()
    };
    let horizon = engine_config.neighborhood.appleseed.max_range;

    let source = generate_community(&gen_config).community;
    let agents = source.agent_count();
    let products: Vec<_> = source.catalog.iter().collect();
    let seeds: Vec<String> =
        source.agents().map(|a| source.agent(a).unwrap().uri.clone()).collect();
    outln!(
        out,
        "{agents} agents (mean {:.1} trust edges), horizon {} hops, {} rounds/churn;\n\
         panel of 64 agents replayed after every swap\n",
        gen_config.mean_trust_edges,
        horizon.unwrap_or(0),
        rounds,
    );

    let mut table = Table::new([
        "churn", "round", "touched", "reused", "recomp", "ticks", "dirty", "swap", "carried",
        "hit rate",
    ]);
    let mut rows = Vec::new();
    let mut server_metrics = Vec::new();
    let mut low_churn_books = String::new();

    for churn in CHURNS {
        let mut source = source.clone();
        let web = DocumentWeb::new();
        publish_community(&source, &web);
        let crawl_config = CrawlConfig::default();
        let mut previous = crawl(&web, &seeds, &crawl_config);
        let mut builder = CommunityBuilder::new(&previous.agents);
        let (community, _) =
            builder.build(source.taxonomy.clone(), source.catalog.clone());
        let mut engine = Recommender::new(community, engine_config);
        let panel: Vec<AgentId> = engine.community().agents().take(64).collect();

        // Lockstep: one request in, one drain step, one answer out, so the
        // server's books are a function of the seed.
        let server =
            Server::start(engine.clone(), ServeConfig { workers: 0, ..Default::default() });
        let serve = |agent: AgentId| {
            let ticket = server.submit(agent, 10).expect("an empty queue admits");
            server.drain_step(1, 1, None);
            ticket.try_wait().expect("the drain step answers").expect("served")
        };
        for &agent in &panel {
            serve(agent);
        }

        let mut rng = StdRng::seed_from_u64(17 + (churn * 1000.0) as u64);
        for round in 1..=rounds {
            // Churn: a fraction of agents re-rate one product and republish.
            let republishers = ((agents as f64 * churn) as usize).max(1);
            for _ in 0..republishers {
                let agent = AgentId::from_index(rng.random_range(0..agents));
                let product = products[rng.random_range(0..products.len())];
                let rating = -1.0 + 2.0 * rng.random::<f64>();
                source.set_rating(agent, product, rating).expect("valid synthetic rating");
                let uri = &source.agent(agent).unwrap().uri;
                web.publish(
                    homepage_uri(uri),
                    homepage_turtle(&source, agent),
                    "text/turtle",
                );
            }

            // Refresh crawl → typed delta.
            let result = refresh(&web, &seeds, &crawl_config, &previous);
            let delta = result.delta.clone().expect("refresh always diffs");
            let model_delta = delta.model_delta();
            let touched = delta.touched();
            let refresh_ticks = result.ticks;
            let health = result.health();

            // Incremental path: fold the delta into the standing view,
            // re-assemble (byte-identical by construction), advance only
            // the dirty profiles.
            builder.apply_delta(&delta);
            let (next_community, _) =
                builder.build(source.taxonomy.clone(), source.catalog.clone());
            let (next_engine, stats) =
                engine.advance(next_community, &model_delta, health);

            // Plan the swap and publish with cache carry-over.
            let plan = SwapPlan::compute(
                engine.community(),
                next_engine.community(),
                &model_delta,
                horizon,
                SwapPlan::DEFAULT_MAX_DIRTY_FRACTION,
            );
            let report = server.publish_delta(next_engine.clone(), &plan);

            // Replay the panel against the new generation.
            let mut hits = 0u64;
            for &agent in &panel {
                if serve(agent).cache_hit {
                    hits += 1;
                }
            }

            rows.push(Row {
                churn,
                round,
                touched,
                reused: stats.reused,
                recomputed: stats.recomputed,
                refresh_ticks,
                dirty: plan.dirty_count(),
                wholesale: report.wholesale,
                carried: report.carried,
                post_swap_hits: hits,
                post_swap_requests: panel.len() as u64,
            });

            engine = next_engine;
            previous = result;
        }
        server_metrics.push(server.metrics());
        if churn == CHURNS[0] {
            // The last refresh's delta, and the engine lineage's books:
            // `advance` carried them through every round.
            low_churn_books = super::books(&previous.metrics()) + &super::books(&engine.metrics());
        }
        server.shutdown();
    }

    for row in &rows {
        table.row([
            fmt(row.churn),
            row.round.to_string(),
            row.touched.to_string(),
            row.reused.to_string(),
            row.recomputed.to_string(),
            row.refresh_ticks.to_string(),
            row.dirty.to_string(),
            if row.wholesale { "whole".into() } else { "carry".to_string() },
            row.carried.to_string(),
            fmt(row.post_swap_hit_rate()),
        ]);
    }
    outln!(out, "{}", table.render());
    outln!(out, "At low churn the incremental path recomputes profiles proportional to the");
    outln!(out, "delta and carries most of the cache across the swap; past the dirty-fraction");
    outln!(out, "threshold the plan degrades to a wholesale swap — exactly the old publish()");
    outln!(out, "behaviour, never worse.\n");
    outln!(
        out,
        "Server::metrics() of the churn-{} server (every swap a publish_delta):",
        CHURNS[0]
    );
    out += &super::books(&server_metrics[0]);
    outln!(
        out,
        "\nIts last refresh (CrawlResult::metrics()) and its engine (Recommender::metrics()):"
    );
    out += &low_churn_books;

    (Outcome { agents, rows, server_metrics }, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_refresh_is_proportional_to_the_delta() {
        let (o, text) = run(Scale::Small);
        assert_eq!(o.rows.len(), 9, "3 churn rates × 3 rounds");

        for row in &o.rows {
            // Profile work ∝ delta: every touched agent recomputes, and
            // everything else is reused by pointer.
            assert_eq!(row.recomputed, row.touched, "recompute exactly the delta: {row:?}");
            assert_eq!(row.reused + row.recomputed, o.agents, "accounting closes: {row:?}");
            assert!(row.touched > 0, "churn must touch someone: {row:?}");
            // The dirty set contains at least the touched agents.
            assert!(row.dirty >= row.touched, "dirty set must cover the delta: {row:?}");
        }

        // Low churn: most profiles reused, the swap carries cache entries,
        // and the panel hits the carried cache after the swap.
        let low: Vec<_> = o.rows.iter().filter(|r| r.churn < 0.02).collect();
        assert!(!low.is_empty());
        for row in &low {
            assert!(
                row.reused * 10 >= o.agents * 9,
                "1% churn must reuse ≥ 90% of profiles: {row:?}"
            );
            assert!(!row.wholesale, "1% churn must not go wholesale: {row:?}");
            assert!(row.carried > 0, "clean entries must carry: {row:?}");
            assert!(row.post_swap_hits > 0, "carried entries must answer: {row:?}");
        }
        // The low-churn server counted exactly the carries its rows report.
        let counters = &o.server_metrics[0].counters;
        assert_eq!(counters["serve.cache.carried"], low.iter().map(|r| r.carried as u64).sum());
        assert_eq!(counters["serve.snapshot.swaps"], low.len() as u64);

        // High churn: the dirty fraction crosses the threshold and the
        // plan degrades to wholesale invalidation.
        let high: Vec<_> = o.rows.iter().filter(|r| r.churn > 0.2).collect();
        assert!(!high.is_empty());
        for row in &high {
            assert!(row.wholesale, "25% churn must fall back to wholesale: {row:?}");
            assert_eq!(row.carried, 0);
        }
        super::super::assert_golden(&text);
    }
}
