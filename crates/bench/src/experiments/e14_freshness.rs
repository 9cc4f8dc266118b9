//! **E14 — Asynchronous message exchange** (§2, interaction facilities):
//! the cost of data-centric communication, quantified.
//!
//! Agents republish homepages as their state drifts; a crawler refreshes on
//! a schedule. Sweeping the refresh interval exposes the freshness ↔ work
//! tradeoff of the environment model the paper commits to: staleness grows
//! with the interval while total parse work stays bounded by the number of
//! actual changes (version-based reuse).

use semrec_datagen::community::generate_community;
use semrec_eval::table::{fmt, Table};
use semrec_web::simulation::{simulate, SimulationConfig};
use semrec_web::store::DocumentWeb;

use crate::Scale;

/// Measured rows for shape assertions.
pub struct Outcome {
    /// `(refresh interval, mean staleness, refreshes, docs re-parsed,
    ///   republications)`.
    pub rows: Vec<(usize, f64, usize, usize, usize)>,
}

/// Runs E14.
pub fn run(scale: Scale) -> (Outcome, String) {
    let mut out =
        super::header("E14", "Freshness vs crawl frequency (§2 — asynchronous message exchange)");
    let agents = match scale {
        Scale::Small => 100,
        Scale::Medium => 400,
        Scale::Paper => 1000,
    };
    let ticks = 60;
    outln!(
        out,
        "{agents} agents drifting for {ticks} ticks (5% republish/tick); crawler refreshes \
         every k ticks\n"
    );

    let mut table = Table::new([
        "refresh every k ticks",
        "mean staleness",
        "refreshes",
        "docs re-parsed",
        "republications",
    ]);
    let mut rows = Vec::new();
    for interval in [1usize, 2, 5, 10, 20] {
        let mut config = scale.community(1414);
        config.agents = agents;
        let mut community = generate_community(&config).community;
        let web = DocumentWeb::new();
        let report = simulate(
            &mut community,
            &web,
            &SimulationConfig {
                ticks,
                update_probability: 0.05,
                refresh_interval: interval,
                seed: 14,
                ..Default::default()
            },
        );
        table.row([
            interval.to_string(),
            fmt(report.mean_staleness),
            report.refreshes.to_string(),
            report.documents_reparsed.to_string(),
            report.republications.to_string(),
        ]);
        rows.push((
            interval,
            report.mean_staleness,
            report.refreshes,
            report.documents_reparsed,
            report.republications,
        ));
    }
    outln!(out, "{}", table.render());
    outln!(out, "Staleness rises with the refresh interval while total parse work stays");
    outln!(out, "pinned to the number of actual changes — version-based reuse makes eager");
    outln!(out, "refreshing cheap, so the asynchronous environment model costs latency,");
    outln!(out, "not throughput.");

    (Outcome { rows }, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staleness_grows_with_interval_while_parse_work_stays_bounded() {
        let (o, text) = run(Scale::Small);
        // Monotone staleness in the interval (allowing tiny noise).
        for w in o.rows.windows(2) {
            assert!(
                w[1].1 >= w[0].1 - 0.01,
                "staleness must not fall with laziness: {:?}",
                o.rows
            );
        }
        let eager = &o.rows[0];
        let lazy = o.rows.last().unwrap();
        assert!(eager.1 < 1e-9, "every-tick refresh keeps staleness at 0");
        assert!(lazy.1 > 0.05, "lazy refresh must be visibly stale");
        // Parse work ≈ number of changes for every policy (reuse works).
        for row in &o.rows {
            assert!(row.3 <= row.4, "re-parses {} must not exceed republications {}", row.3, row.4);
        }
        super::super::assert_golden(&text);
    }
}
