//! **E15 — Resilience under fault injection** (§2, robustness of the
//! data-centric environment): sweep the transient-fault rate of the
//! decentralized web and measure how gracefully the pipeline degrades.
//!
//! The same community is published once; each row crawls it through a
//! [`FaultyWeb`] at a different fault rate (fixed seed), assembles whatever
//! subset was reachable, and runs recommendations for a fixed panel of
//! users. Quality is measured as the fraction of panel users who still get
//! a non-empty list and as the top-10 overlap against the zero-fault
//! baseline — the claim is smooth degradation, never a cliff.

use std::collections::BTreeSet;

use semrec_core::{Recommender, RecommenderConfig};
use semrec_datagen::community::generate_community;
use semrec_eval::table::{fmt, Table};
use semrec_web::crawler::{assemble_community, crawl_resilient, CrawlConfig};
use semrec_web::fault::{FaultPlan, FaultyWeb};
use semrec_web::policy::FetchPolicy;
use semrec_web::publish::publish_community;
use semrec_web::store::DocumentWeb;

use crate::Scale;

/// One fault-rate row of the sweep.
#[derive(Clone, Debug)]
pub struct Row {
    /// Transient fault rate injected per fetch attempt.
    pub fault_rate: f64,
    /// Agents the crawl still discovered.
    pub agents: usize,
    /// Fraction of attempted documents that arrived intact.
    pub coverage: f64,
    /// Retry attempts spent.
    pub retries: u64,
    /// URIs abandoned after exhausting their budget.
    pub gave_up: usize,
    /// Times a circuit breaker opened.
    pub breaker_opens: u64,
    /// Fraction of panel users with a non-empty recommendation list.
    pub served: f64,
    /// Mean top-10 Jaccard overlap with the zero-fault baseline (users
    /// served in both runs).
    pub overlap: f64,
    /// Whether the run was flagged degraded.
    pub degraded: bool,
    /// `engine.degraded_runs` on the row's engine once the panel was served.
    pub degraded_runs: u64,
}

/// Measured rows for shape assertions.
pub struct Outcome {
    /// One row per swept fault rate, in sweep order.
    pub rows: Vec<Row>,
}

const RATES: [f64; 6] = [0.0, 0.1, 0.2, 0.3, 0.5, 0.7];

/// Runs E15.
pub fn run(scale: Scale) -> (Outcome, String) {
    let mut out =
        super::header("E15", "Graceful degradation under fault injection (§2 — robustness)");
    let community = generate_community(&scale.community(1515)).community;
    let web = DocumentWeb::new();
    publish_community(&community, &web);

    // Fixed user panel and single seed agent, shared by every rate.
    let mut uris: Vec<String> =
        community.agents().map(|a| community.agent(a).unwrap().uri.clone()).collect();
    uris.sort();
    let crawl_seed = vec![uris[0].clone()];
    let panel: Vec<&String> = uris.iter().take(20).collect();
    outln!(
        out,
        "{} agents published once; each row crawls from one seed through a FaultyWeb\n\
         (retry policy: {} attempts, exponential backoff) and recommends for a fixed\n\
         panel of {} users\n",
        community.agent_count(),
        FetchPolicy::default().max_attempts,
        panel.len()
    );

    let mut table = Table::new([
        "fault rate",
        "agents",
        "coverage",
        "retries",
        "gave up",
        "breakers",
        "users served",
        "overlap vs 0%",
        "degraded",
    ]);
    let mut rows: Vec<Row> = Vec::new();
    let mut baseline: Vec<Option<BTreeSet<String>>> = Vec::new();
    let mut heaviest_books = String::new();
    for rate in RATES {
        let faulty = FaultyWeb::new(&web, FaultPlan::transient(rate, 15));
        let (result, breaker) =
            crawl_resilient(&faulty, &crawl_seed, &CrawlConfig::default(), &FetchPolicy::default());
        let health = result.health();
        let (rebuilt, _) = assemble_community(
            &result.agents,
            community.taxonomy.clone(),
            community.catalog.clone(),
        );
        let engine = Recommender::new(rebuilt, RecommenderConfig::default())
            .with_source_health(health);

        // Top-10 per panel user (identifier sets; ids are not stable across
        // differently-assembled communities, identifiers are).
        let recs: Vec<Option<BTreeSet<String>>> = panel
            .iter()
            .map(|uri| {
                let target = engine.community().agent_by_uri(uri)?;
                let list = engine.recommend(target, 10).ok()?;
                if list.is_empty() {
                    return None;
                }
                Some(
                    list.iter()
                        .map(|r| {
                            engine.community().catalog.product(r.product).identifier.clone()
                        })
                        .collect(),
                )
            })
            .collect();
        if baseline.is_empty() {
            baseline = recs.clone();
        }
        let served = recs.iter().filter(|r| r.is_some()).count() as f64 / panel.len() as f64;
        let overlaps: Vec<f64> = recs
            .iter()
            .zip(&baseline)
            .filter_map(|(now, base)| Some(jaccard(now.as_ref()?, base.as_ref()?)))
            .collect();
        let overlap = if overlaps.is_empty() {
            0.0
        } else {
            overlaps.iter().sum::<f64>() / overlaps.len() as f64
        };

        let row = Row {
            fault_rate: rate,
            agents: result.agents.len(),
            coverage: health.coverage(),
            retries: result.retries,
            gave_up: result.gave_up,
            breaker_opens: breaker.times_opened(),
            served,
            overlap,
            degraded: health.is_degraded(),
            degraded_runs: engine.metrics().counters["engine.degraded_runs"],
        };
        table.row([
            format!("{:.0}%", rate * 100.0),
            row.agents.to_string(),
            fmt(row.coverage),
            row.retries.to_string(),
            row.gave_up.to_string(),
            row.breaker_opens.to_string(),
            fmt(row.served),
            fmt(row.overlap),
            if row.degraded { "yes".into() } else { "no".into() },
        ]);
        rows.push(row);
        if rate == RATES[RATES.len() - 1] {
            heaviest_books = super::books(&result.metrics()) + &super::books(&engine.metrics());
        }
    }
    outln!(out, "{}", table.render());
    outln!(
        out,
        "CrawlResult::metrics() and Recommender::metrics() of the {:.0}% row:",
        RATES[RATES.len() - 1] * 100.0
    );
    outln!(out, "{heaviest_books}");
    outln!(out, "Coverage and overlap shrink smoothly as the web gets flakier; retries absorb");
    outln!(out, "moderate fault rates almost entirely, and even past 50% the engine keeps");
    outln!(out, "serving the users it can still see — flagged degraded, never failing.");

    (Outcome { rows }, out)
}

fn jaccard(a: &BTreeSet<String>, b: &BTreeSet<String>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    a.intersection(b).count() as f64 / a.union(b).count() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degradation_is_smooth_and_honestly_flagged() {
        let (o, text) = run(Scale::Small);
        let zero = &o.rows[0];
        // The zero-fault row is the healthy baseline: full coverage, perfect
        // self-overlap, no resilience machinery engaged.
        assert!(!zero.degraded);
        assert_eq!(zero.coverage, 1.0);
        assert_eq!(zero.retries, 0);
        assert_eq!(zero.gave_up, 0);
        assert!((zero.overlap - 1.0).abs() < 1e-12);
        assert!(zero.served > 0.0);

        // Moderate fault rates are absorbed by retries: still degraded-free
        // or nearly so, with visible retry work.
        let moderate = o.rows.iter().find(|r| r.fault_rate == 0.3).unwrap();
        assert!(moderate.retries > 0, "a 30% fault rate must cost retries");
        assert!(moderate.served > 0.0, "the pipeline must keep serving users");

        // Heavy fault rates lose coverage but never crash: every row
        // produced an answer, and losses are flagged.
        let heavy = o.rows.last().unwrap();
        assert!(heavy.coverage <= zero.coverage);
        for row in &o.rows[1..] {
            assert!(
                row.degraded || (row.gave_up == 0 && row.coverage == 1.0),
                "losses must be flagged: {row:?}"
            );
        }
        // A degraded engine counts every run it serves as degraded; a
        // healthy one counts none.
        assert!(heavy.degraded, "a 70% fault rate must lose sources");
        for row in &o.rows {
            assert_eq!(row.degraded_runs > 0, row.degraded, "{row:?}");
        }
        super::super::assert_golden(&text);
    }
}
