//! **E16 — Concurrent serving** (semrec-serve): sweep worker count ×
//! offered load × cache size over the same community and measure
//! throughput, latency percentiles, shed rate, and cache hit rate; then
//! exercise the two operational guarantees directly:
//!
//! * **snapshot swap** — publish a new model generation while a wave of
//!   requests is in flight and account for every ticket (zero loss, and
//!   everything submitted after the publish is served by the new epoch);
//! * **admission control** — offer far more concurrency than a tiny queue
//!   can hold and verify the server sheds instead of queuing unboundedly.
//!
//! A final pair of rows serves the same load from a healthy snapshot and
//! from a fault-degraded one (crawled through a 30%-transient-fault web,
//! E15-style) — the serving layer is indifferent to *how* the snapshot was
//! assembled, which is exactly the property that makes hot swaps after a
//! partially-failed refresh crawl safe.

use semrec_core::{AgentId, Recommender, RecommenderConfig};
use semrec_datagen::community::generate_community;
use semrec_eval::table::{fmt, Table};
use semrec_obs::MetricsSnapshot;
use semrec_serve::{run_load, LoadGenConfig, LoadReport, ServeConfig, Server};
use semrec_web::crawler::{assemble_community, crawl_resilient, CrawlConfig};
use semrec_web::fault::{FaultPlan, FaultyWeb};
use semrec_web::policy::FetchPolicy;
use semrec_web::publish::publish_community;
use semrec_web::store::DocumentWeb;

use crate::Scale;

/// One sweep row: a server configuration under a load configuration.
#[derive(Clone, Debug)]
pub struct Row {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Closed-loop clients offering load.
    pub clients: usize,
    /// Recommendation cache capacity (0 = disabled).
    pub cache_capacity: usize,
    /// Whether the snapshot was assembled through a faulty crawl.
    pub degraded: bool,
    /// The measured outcome.
    pub report: LoadReport,
    /// The row's server's own books once the load had resolved.
    pub metrics: MetricsSnapshot,
}

/// Accounting of the mid-load snapshot swap.
#[derive(Clone, Debug)]
pub struct SwapOutcome {
    /// Requests in flight (queued or being served) when `publish` ran.
    pub first_wave: u64,
    /// Requests submitted after `publish` returned.
    pub second_wave: u64,
    /// First-wave requests served by the pre-swap generation.
    pub served_old: u64,
    /// First-wave requests served by the post-swap generation.
    pub served_new: u64,
    /// Tickets that resolved to anything other than a recommendation list.
    pub lost: u64,
    /// Whether every post-publish request saw the new epoch.
    pub post_swap_only_new: bool,
    /// The epoch `publish` installed.
    pub epoch_after: u64,
}

/// Measured outcomes for shape assertions.
pub struct Outcome {
    /// Sweep rows (workers × clients × cache), then healthy-vs-degraded.
    pub rows: Vec<Row>,
    /// Mid-load snapshot swap accounting.
    pub swap: SwapOutcome,
    /// The overload sub-run (tiny queue, bursty offered load).
    pub overload: LoadReport,
}

const WORKERS: [usize; 3] = [1, 2, 4];
const CLIENTS: [usize; 2] = [2, 8];
const CACHES: [usize; 2] = [0, 2048];

/// Runs E16.
pub fn run(scale: Scale) -> Outcome {
    super::header("E16", "Concurrent serving: workers × load × cache (semrec-serve)");
    let requests_per_client = match scale {
        Scale::Small => 15,
        Scale::Medium => 40,
        Scale::Paper => 80,
    };

    let community = generate_community(&scale.community(1616)).community;
    let web = DocumentWeb::new();
    publish_community(&community, &web);
    let mut uris: Vec<String> =
        community.agents().map(|a| community.agent(a).unwrap().uri.clone()).collect();
    uris.sort();
    let crawl_seed = vec![uris[0].clone()];
    let panel: Vec<AgentId> = community.agents().take(64).collect();
    let engine = Recommender::new(community, RecommenderConfig::default());

    // A second snapshot assembled the hard way: crawl the published web
    // through 30% transient faults (E15's machinery), keep whatever subset
    // survived, and carry the health record on the engine.
    let faulty = FaultyWeb::new(&web, FaultPlan::transient(0.3, 16));
    let (result, _breaker) =
        crawl_resilient(&faulty, &crawl_seed, &CrawlConfig::default(), &FetchPolicy::default());
    let health = result.health();
    let (rebuilt, _) = assemble_community(
        &result.agents,
        engine.community().taxonomy.clone(),
        engine.community().catalog.clone(),
    );
    let degraded_panel: Vec<AgentId> = rebuilt.agents().take(64).collect();
    let degraded =
        Recommender::new(rebuilt, RecommenderConfig::default()).with_source_health(health);

    println!(
        "{} agents; Zipf(1.1) traffic over a {}-agent panel, {} requests/client;\n\
         degraded snapshot crawled through 30% transient faults kept {} agents\n",
        engine.community().agent_count(),
        panel.len(),
        requests_per_client,
        degraded.community().agent_count(),
    );

    // --- sweep: workers × clients × cache --------------------------------
    let mut table = Table::new([
        "snapshot", "workers", "clients", "cache", "served", "req/s", "p50 ms", "p95 ms",
        "p99 ms", "shed", "cache hits",
    ]);
    let mut rows = Vec::new();
    let measure = |engine: &Recommender,
                       panel: &[AgentId],
                       workers: usize,
                       clients: usize,
                       cache_capacity: usize,
                       degraded: bool|
     -> Row {
        let server = Server::start(
            engine.clone(),
            ServeConfig { workers, cache_capacity, ..ServeConfig::default() },
        );
        let report = run_load(
            &server,
            panel,
            &LoadGenConfig { clients, requests_per_client, ..LoadGenConfig::default() },
        );
        Row { workers, clients, cache_capacity, degraded, report, metrics: server.metrics() }
    };
    for workers in WORKERS {
        for clients in CLIENTS {
            for cache_capacity in CACHES {
                rows.push(measure(&engine, &panel, workers, clients, cache_capacity, false));
            }
        }
    }
    // Healthy vs degraded snapshot under the same serving configuration.
    rows.push(measure(&engine, &panel, 2, 4, 2048, false));
    let healthy = rows.len() - 1;
    rows.push(measure(&degraded, &degraded_panel, 2, 4, 2048, true));

    for row in &rows {
        let r = &row.report;
        table.row([
            if row.degraded { "degraded".into() } else { "healthy".to_string() },
            row.workers.to_string(),
            row.clients.to_string(),
            row.cache_capacity.to_string(),
            r.served.to_string(),
            format!("{:.0}", r.throughput()),
            format!("{:.3}", r.latency.p50 * 1e3),
            format!("{:.3}", r.latency.p95 * 1e3),
            format!("{:.3}", r.latency.p99 * 1e3),
            fmt(r.shed_rate()),
            fmt(r.cache_hit_rate()),
        ]);
    }
    println!("{}", table.render());
    println!("Zipf traffic makes the cache earn its keep (hit rates climb with client");
    println!("count); an ample queue sheds nothing; the degraded snapshot serves its");
    println!("surviving agents exactly like a healthy one — assembly provenance is");
    println!("invisible to the serving layer.\n");
    println!("Server::metrics() of the healthy 2-worker, 4-client, 2048-entry row:");
    println!("{}", rows[healthy].metrics.render_text());

    // --- snapshot swap mid-load ------------------------------------------
    let server = Server::start(engine.clone(), ServeConfig { workers: 2, ..Default::default() });
    let first: Vec<_> =
        panel.iter().map(|&agent| server.submit(agent, 10).expect("queue sized for wave")).collect();
    let first_wave = first.len() as u64;
    let epoch_after = server.publish(engine.clone());
    let second: Vec<_> =
        panel.iter().map(|&agent| server.submit(agent, 10).expect("queue sized for wave")).collect();
    let second_wave = second.len() as u64;

    let (mut served_old, mut served_new, mut lost) = (0u64, 0u64, 0u64);
    for ticket in first {
        match ticket.wait() {
            Ok(response) if response.epoch < epoch_after => served_old += 1,
            Ok(_) => served_new += 1,
            Err(_) => lost += 1,
        }
    }
    let mut post_swap_only_new = true;
    for ticket in second {
        match ticket.wait() {
            Ok(response) => post_swap_only_new &= response.epoch == epoch_after,
            Err(_) => lost += 1,
        }
    }
    let swap = SwapOutcome {
        first_wave,
        second_wave,
        served_old,
        served_new,
        lost,
        post_swap_only_new,
        epoch_after,
    };
    println!(
        "Snapshot swap mid-load: {} requests in flight at publish(); all accounted\n\
         for ({} served by epoch {}, {} by epoch {}), {} lost; every one of the {}\n\
         post-publish requests saw epoch {}.\n",
        swap.first_wave,
        swap.served_old,
        epoch_after - 1,
        swap.served_new,
        epoch_after,
        swap.lost,
        swap.second_wave,
        epoch_after,
    );

    // --- overload: admission control sheds, the queue stays bounded ------
    let server = Server::start(
        engine.clone(),
        ServeConfig { workers: 1, queue_capacity: 2, cache_capacity: 0, ..Default::default() },
    );
    let overload = run_load(
        &server,
        &panel,
        &LoadGenConfig {
            clients: 4,
            requests_per_client: requests_per_client.max(25),
            burst: 8,
            ..Default::default()
        },
    );
    println!(
        "Overload (1 worker, queue of 2, burst 8 × 4 clients): {} attempts,\n\
         {} served, {} shed at admission ({} shed rate) — the queue never grew\n\
         past its bound (depth now {}).",
        overload.attempts,
        overload.served,
        overload.shed_admission,
        fmt(overload.shed_rate()),
        server.queue_depth(),
    );
    println!("Server::metrics() of the overload server:");
    print!("{}", server.metrics().render_text());

    Outcome { rows, swap, overload }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_guarantees_hold_at_small_scale() {
        let o = run(Scale::Small);

        // Sweep accounting closes and an ample queue sheds nothing.
        for row in &o.rows {
            let r = &row.report;
            assert_eq!(r.served + r.shed(), r.attempts, "accounting must close: {row:?}");
            assert_eq!(r.failed, 0, "no engine errors expected: {row:?}");
            assert_eq!(r.shed(), 0, "a 1024-deep queue under burst-1 load sheds nothing");
            assert!(r.served > 0);
            // The clients timed exactly the answers the server counted.
            assert_eq!(row.metrics.histograms["serve.latency.seconds"].count, r.served);
        }
        // Zipf repetition makes warm caches hit; disabled caches never do.
        for row in &o.rows {
            if row.cache_capacity == 0 {
                assert_eq!(row.report.cache_hits, 0);
            } else if row.clients * 15 >= 64 {
                assert!(row.report.cache_hits > 0, "warm cache must hit: {row:?}");
            }
        }
        // The degraded-snapshot row serves like any other.
        let degraded = o.rows.iter().find(|r| r.degraded).expect("degraded row present");
        assert!(degraded.report.served > 0);

        // Swap: every in-flight request resolved, nothing lost, and the
        // post-publish wave only ever saw the new generation.
        assert_eq!(o.swap.lost, 0, "a snapshot swap must not lose requests");
        assert_eq!(o.swap.served_old + o.swap.served_new, o.swap.first_wave);
        assert!(o.swap.post_swap_only_new, "publish() must be a barrier for new submissions");
        assert_eq!(o.swap.epoch_after, 2);

        // Overload: the tiny queue shed load instead of growing.
        assert!(o.overload.shed_admission > 0, "burst-8×4 against queue-2 must shed");
        assert_eq!(o.overload.served + o.overload.shed(), o.overload.attempts);
    }
}
