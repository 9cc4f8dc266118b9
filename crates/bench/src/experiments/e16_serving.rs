//! **E16 — Serving on the tick axis** (semrec-serve): sweep drain width ×
//! offered rate × cache size over the same community on a lockstep server
//! under open-loop Poisson traffic ([`run_open_loop`]) and count what was
//! served, how many virtual ticks requests waited, what was shed and what
//! the cache answered; then exercise the two operational guarantees
//! directly:
//!
//! * **snapshot swap** — publish a new model generation from the per-tick
//!   hook while a backlog is queued, submit a second wave right behind it,
//!   and account for every ticket (zero loss, and everything submitted
//!   after the publish is served by the new epoch);
//! * **admission control** — offer far more than a tiny queue can hold and
//!   verify the server sheds at admission instead of queuing unboundedly.
//!
//! A final pair of rows serves the same load from a healthy snapshot and
//! from a fault-degraded one (crawled through a 30%-transient-fault web,
//! E15-style) — the serving layer is indifferent to *how* the snapshot was
//! assembled, which is exactly the property that makes hot swaps after a
//! partially-failed refresh crawl safe.
//!
//! Every number here is a count or a tick, so the run is a pure function
//! of the seed whatever the host: the sweep is repeated at 8 compute
//! threads and must come out equal. The free-running worker pool is
//! covered by `tests/serving.rs` (publish storm, shutdown mid-submit) and
//! timed by `perf/` (`serve.submit_us`, `serve.wait_hit_us`,
//! `serve.wait_miss_us`, `serve.p99_us`; `serve_hot`'s `rps_q90`).

use semrec_core::{AgentId, Recommender, RecommenderConfig};
use semrec_datagen::community::generate_community;
use semrec_eval::table::{fmt, Table};
use semrec_obs::MetricsSnapshot;
use semrec_serve::{
    run_open_loop, run_open_loop_with, ArrivalProcess, OpenLoopConfig, OpenLoopReport,
    ScalerConfig, ServeConfig, Server,
};
use semrec_web::crawler::{assemble_community, crawl_resilient, CrawlConfig};
use semrec_web::fault::{FaultPlan, FaultyWeb};
use semrec_web::policy::FetchPolicy;
use semrec_web::publish::publish_community;
use semrec_web::store::DocumentWeb;

use crate::Scale;

/// One sweep row: a server configuration under an offered load.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Drain lanes per tick; each serves `batch_size` requests.
    pub width: usize,
    /// Mean Poisson arrivals per tick.
    pub rate: f64,
    /// Recommendation cache capacity (0 = disabled).
    pub cache_capacity: usize,
    /// Whether the snapshot was assembled through a faulty crawl.
    pub degraded: bool,
    /// What the driver saw resolve.
    pub report: OpenLoopReport,
    /// The row's server's own books once the load had resolved.
    pub metrics: MetricsSnapshot,
}

impl Row {
    /// Served requests the cache answered.
    pub fn cache_hits(&self) -> u64 {
        self.metrics.counters["serve.cache.hits"]
    }
}

/// Accounting of the mid-load snapshot swap.
#[derive(Clone, Debug)]
pub struct SwapOutcome {
    /// Requests queued when `publish` ran.
    pub queued_at_publish: usize,
    /// Requests the hook submitted right after `publish` returned.
    pub second_wave: usize,
    /// Whether every second-wave request was served by the new epoch.
    pub post_swap_only_new: bool,
    /// The epoch `publish` installed.
    pub epoch_after: u64,
    /// The open-loop traffic around the swap (`lost` must be 0).
    pub report: OpenLoopReport,
}

/// The overload sub-run: a tiny queue under a rate the drain cannot hold.
#[derive(Clone, Debug)]
pub struct Overload {
    /// The server's queue capacity.
    pub queue_capacity: usize,
    /// Deepest queue seen at any tick boundary.
    pub peak_depth: usize,
    /// What the driver saw resolve.
    pub report: OpenLoopReport,
    /// The overload server's own books.
    pub metrics: MetricsSnapshot,
}

/// Measured outcomes for shape assertions.
pub struct Outcome {
    /// Sweep rows (width × rate × cache), then healthy-vs-degraded.
    pub rows: Vec<Row>,
    /// Whether the sweep at 8 compute threads equals the one at 1, books
    /// included.
    pub identical_across_threads: bool,
    /// Mid-load snapshot swap accounting.
    pub swap: SwapOutcome,
    /// The overload sub-run.
    pub overload: Overload,
}

const WIDTHS: [usize; 3] = [1, 2, 4];
const RATES: [f64; 2] = [3.0, 12.0];
const CACHES: [usize; 2] = [0, 2048];

/// Runs E16.
pub fn run(scale: Scale) -> (Outcome, String) {
    let mut out =
        super::header("E16", "Serving on the tick axis: width × rate × cache (semrec-serve)");
    let ticks = match scale {
        Scale::Small => 20,
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

    // All-Normal traffic, no SLO machinery, a fixed drain width: the plain
    // serving path, one knob at a time.
    let load = |width: usize, rate: f64, threads: usize| OpenLoopConfig {
        ticks,
        process: ArrivalProcess::Poisson { rate },
        seed: 1616,
        class_mix: [0.0, 1.0, 0.0],
        threads,
        enforce_slo: false,
        scaler: ScalerConfig { min_workers: width, max_workers: width, ..Default::default() },
        autoscale: false,
        ..OpenLoopConfig::default()
    };
    let batch_size = OpenLoopConfig::default().batch_size;
    outln!(
        out,
        "{} agents; Poisson arrivals, Zipf(1.1) targets over a {}-agent panel, {} ticks/row,\n\
         a drain lane serves {} requests/tick; waits are virtual ticks;\n\
         degraded snapshot crawled through 30% transient faults kept {} agents\n",
        engine.community().agent_count(),
        panel.len(),
        ticks,
        batch_size,
        degraded.community().agent_count(),
    );

    // --- sweep: width × rate × cache -------------------------------------
    let sweep = |threads: usize| -> Vec<Row> {
        let measure = |engine: &Recommender,
                       panel: &[AgentId],
                       width: usize,
                       rate: f64,
                       cache_capacity: usize,
                       degraded: bool| {
            let server = Server::start(
                engine.clone(),
                ServeConfig { workers: 0, cache_capacity, ..ServeConfig::default() },
            );
            let report = run_open_loop(&server, panel, &load(width, rate, threads));
            let metrics = server.metrics();
            server.shutdown();
            Row { width, rate, cache_capacity, degraded, report, metrics }
        };
        let mut rows = Vec::new();
        for width in WIDTHS {
            for rate in RATES {
                for cache_capacity in CACHES {
                    rows.push(measure(&engine, &panel, width, rate, cache_capacity, false));
                }
            }
        }
        // Healthy vs degraded snapshot under the same serving configuration.
        rows.push(measure(&engine, &panel, 2, 6.0, 2048, false));
        rows.push(measure(&degraded, &degraded_panel, 2, 6.0, 2048, true));
        rows
    };
    let rows = sweep(1);
    let healthy = rows.len() - 2;

    let mut table = Table::new([
        "snapshot", "width", "rate", "cache", "offered", "served", "wait p50", "wait p95",
        "wait p99", "shed", "cache hits",
    ]);
    for row in &rows {
        let (r, waits) = (&row.report, &row.report.class.normal);
        table.row([
            if row.degraded { "degraded".into() } else { "healthy".to_string() },
            row.width.to_string(),
            format!("{:.0}", row.rate),
            row.cache_capacity.to_string(),
            r.offered().to_string(),
            r.served().to_string(),
            waits.wait_p50.to_string(),
            waits.wait_p95.to_string(),
            waits.wait_p99.to_string(),
            fmt(r.shed() as f64 / r.offered().max(1) as f64),
            fmt(row.cache_hits() as f64 / r.served().max(1) as f64),
        ]);
    }
    outln!(out, "{}", table.render());
    outln!(
        out,
        "A row waits once its offered rate outruns width × {batch_size} requests per tick and"
    );
    outln!(out, "not before, whatever the cache holds; Zipf traffic makes the cache earn its");
    outln!(out, "keep (hit rates climb with the offered rate); an ample queue sheds nothing;");
    outln!(out, "the degraded snapshot serves its surviving agents exactly like a healthy");
    outln!(out, "one — assembly provenance is invisible to the serving layer.\n");
    outln!(out, "Server::metrics() of the healthy width-2, rate-6, 2048-entry row:");
    outln!(out, "{}", super::books(&rows[healthy].metrics));

    let identical_across_threads = sweep(8) == rows;
    outln!(
        out,
        "Thread-count invariance: the sweep at 8 compute threads {} the single-threaded\n\
         one, reports and books.\n",
        if identical_across_threads { "equals" } else { "DIVERGES FROM" },
    );

    // --- snapshot swap mid-load ------------------------------------------
    // Width 1 under rate 12 keeps a backlog queued, so the publish lands on
    // requests in flight; the hook submits a second wave right behind it.
    let server = Server::start(engine.clone(), ServeConfig { workers: 0, ..Default::default() });
    let publish_at = ticks / 2;
    let (mut queued_at_publish, mut epoch_after) = (0, 0);
    let mut second = Vec::new();
    let report = run_open_loop_with(&server, &panel, &load(1, 12.0, 1), |tick, server| {
        if tick == publish_at {
            queued_at_publish = server.queue_depth();
            epoch_after = server.publish(engine.clone());
            second.extend(
                panel.iter().map(|&agent| server.submit(agent, 10).expect("queue sized for wave")),
            );
        }
    });
    server.shutdown();
    let post_swap_only_new = second
        .iter()
        .all(|ticket| matches!(ticket.try_wait(), Some(Ok(r)) if r.epoch == epoch_after));
    let swap = SwapOutcome {
        queued_at_publish,
        second_wave: second.len(),
        post_swap_only_new,
        epoch_after,
        report,
    };
    outln!(
        out,
        "Snapshot swap mid-load: publish() at tick {} installed epoch {} over {} queued\n\
         requests; {} offered, {} served, {} lost; {} the {} requests\n\
         submitted right after it saw epoch {}.\n",
        publish_at,
        epoch_after,
        swap.queued_at_publish,
        report.offered(),
        report.served(),
        report.lost,
        if post_swap_only_new { "every one of" } else { "NOT ALL OF" },
        swap.second_wave,
        epoch_after,
    );

    // --- overload: admission control sheds, the queue stays bounded ------
    let queue_capacity = 8;
    let server = Server::start(
        engine.clone(),
        ServeConfig { workers: 0, queue_capacity, cache_capacity: 0, ..Default::default() },
    );
    let mut peak_depth = 0;
    let report = run_open_loop_with(&server, &panel, &load(1, 12.0, 1), |_, server| {
        peak_depth = peak_depth.max(server.queue_depth());
    });
    let overload = Overload { queue_capacity, peak_depth, report, metrics: server.metrics() };
    server.shutdown();
    outln!(
        out,
        "Overload (width 1, queue of {}, rate 12): {} offered, {} served, {} shed at\n\
         admission ({} shed rate), {} lost — the queue never grew past its bound\n\
         (deepest {} at a tick boundary).",
        queue_capacity,
        report.offered(),
        report.served(),
        report.class.normal.shed_admission,
        fmt(report.shed() as f64 / report.offered().max(1) as f64),
        report.lost,
        peak_depth,
    );
    outln!(out, "Server::metrics() of the overload server:");
    out += &super::books(&overload.metrics);

    (Outcome { rows, identical_across_threads, swap, overload }, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_guarantees_hold_at_small_scale() {
        let (o, text) = run(Scale::Small);

        // Sweep accounting closes and an ample queue sheds nothing.
        for row in &o.rows {
            let r = &row.report;
            assert_eq!(r.lost, 0, "no admitted request may vanish: {row:?}");
            assert_eq!(r.shed(), 0, "a 1024-deep queue sheds nothing: {row:?}");
            assert_eq!(r.served(), r.offered(), "accounting must close: {row:?}");
            assert!(r.served() > 0);
            let waits = &r.class.normal;
            assert!(waits.wait_p50 <= waits.wait_p95 && waits.wait_p95 <= waits.wait_p99);
            // The server counted exactly the answers the driver saw.
            assert_eq!(row.metrics.counters["serve.requests.served"], r.served());
        }
        // Zipf repetition makes warm caches hit; disabled caches never do.
        for row in &o.rows {
            if row.cache_capacity == 0 {
                assert_eq!(row.cache_hits(), 0);
            } else {
                assert!(row.cache_hits() > 0, "warm cache must hit: {row:?}");
            }
        }
        // Same trace, next width up (four rows on): nobody waits longer.
        for (narrow, wide) in o.rows[..8].iter().zip(&o.rows[4..12]) {
            assert_eq!(narrow.report.offered(), wide.report.offered());
            assert!(wide.report.class.normal.wait_p99 <= narrow.report.class.normal.wait_p99);
        }
        // The degraded-snapshot row serves like any other.
        let degraded = o.rows.iter().find(|r| r.degraded).expect("degraded row present");
        assert!(degraded.report.served() > 0);
        // None of the above depends on how many threads computed it.
        assert!(o.identical_across_threads);

        // Swap: the publish landed on queued requests, nothing was lost,
        // and the wave submitted behind it only ever saw the new generation.
        assert!(o.swap.queued_at_publish > 0, "the publish must land mid-load");
        assert_eq!(o.swap.report.lost, 0, "a snapshot swap must not lose requests");
        assert_eq!(o.swap.report.served(), o.swap.report.offered());
        assert_eq!(o.swap.second_wave, 64);
        assert!(o.swap.post_swap_only_new, "publish() must be a barrier for new submissions");
        assert_eq!(o.swap.epoch_after, 2);

        // Overload: the tiny queue shed at admission instead of growing.
        let r = &o.overload.report;
        assert!(r.class.normal.shed_admission > 0, "rate 12 against a queue of 8 must shed");
        assert_eq!(r.served() + r.shed(), r.offered());
        assert_eq!(r.lost, 0);
        assert!(o.overload.peak_depth <= o.overload.queue_capacity, "the queue must stay bounded");
        assert_eq!(o.overload.metrics.counters["serve.requests.shed"], r.shed());
        super::super::assert_golden(&text);
    }
}
