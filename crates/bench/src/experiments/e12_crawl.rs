//! **E12 — Decentralized infrastructure** (§4/§4.1): publish the whole
//! community as machine-readable homepages, then measure crawl coverage vs
//! range and end-to-end extraction fidelity. What publishing and crawling
//! cost in wall time is `perf/`'s `web.publish_ms` and `web.crawl_ms`.

use semrec_datagen::community::generate_community;
use semrec_eval::table::{fmt, Table};
use semrec_web::crawler::{assemble_community, crawl, refresh, CrawlConfig};
use semrec_web::publish::{homepage_turtle, homepage_uri};
use semrec_web::publish::publish_community;
use semrec_web::store::DocumentWeb;

use crate::Scale;

/// Measured rows for shape assertions.
pub struct Outcome {
    /// `(range, agents discovered, documents fetched)`.
    pub coverage: Vec<(u32, usize, usize)>,
    /// Total agents in the community.
    pub total_agents: usize,
    /// Fidelity: trust edges and ratings preserved by assemble (as fractions
    /// of the crawled agents' statements).
    pub fidelity_ok: bool,
    /// Incremental refresh: (documents reused, documents re-parsed).
    pub refresh: (usize, usize),
}

/// Runs E12.
pub fn run(scale: Scale) -> (Outcome, String) {
    let mut out =
        super::header("E12", "Publishing and crawling the decentralized community (§4.1)");
    let community = generate_community(&scale.community(1212)).community;
    let web = DocumentWeb::new();
    let published = publish_community(&community, &web);
    outln!(out, "Published {published} Turtle homepages\n");

    let seed = community.agent(community.agents().next().unwrap()).unwrap().uri.clone();
    let mut table = Table::new(["crawl range", "agents discovered", "docs fetched"]);
    let mut coverage = Vec::new();
    for range in [1u32, 2, 3, 4, 6, 10] {
        let result = crawl(
            &web,
            std::slice::from_ref(&seed),
            &CrawlConfig { max_range: range, ..Default::default() },
        );
        table.row([
            range.to_string(),
            result.agents.len().to_string(),
            result.documents_fetched.to_string(),
        ]);
        coverage.push((range, result.agents.len(), result.documents_fetched));
    }
    outln!(out, "{}", table.render());

    // Fidelity of the full round trip (crawl everything via all seeds).
    let seeds: Vec<String> =
        community.agents().map(|a| community.agent(a).unwrap().uri.clone()).collect();
    let result = crawl(&web, &seeds, &CrawlConfig::default());
    let (rebuilt, stats) =
        assemble_community(&result.agents, community.taxonomy.clone(), community.catalog.clone());
    let fidelity_ok = stats.trust_edges == community.trust.edge_count()
        && stats.ratings == community.rating_count()
        && rebuilt.agent_count() == community.agent_count()
        && result.parse_errors == 0;
    outln!(
        out,
        "Full-coverage round trip: {} agents, {} trust edges ({} in source), {} ratings ({} in source), {} parse errors → fidelity {}",
        rebuilt.agent_count(),
        stats.trust_edges,
        community.trust.edge_count(),
        stats.ratings,
        community.rating_count(),
        result.parse_errors,
        if fidelity_ok { fmt(1.0) } else { fmt(0.0) },
    );

    // Incremental freshness (§4.1: crawlers "ensure data freshness"): 5% of
    // agents republish; a refresh re-parses only those documents.
    let full = crawl(&web, &seeds, &CrawlConfig::default());
    let mut updated = community.clone();
    let republish_count = (community.agent_count() / 20).max(1);
    for agent in community.agents().take(republish_count) {
        if let Some(product) =
            updated.catalog.iter().find(|&p| updated.rating(agent, p).is_none())
        {
            updated.set_rating(agent, product, 1.0).expect("valid rating");
        }
        let uri = homepage_uri(&updated.agent(agent).expect("agent exists").uri);
        web.publish(uri, homepage_turtle(&updated, agent), "text/turtle");
    }
    let refreshed = refresh(&web, &seeds, &CrawlConfig::default(), &full);
    let reparsed = refreshed.documents_fetched - refreshed.reused;
    outln!(
        out,
        "\nIncremental refresh after {republish_count} agents republished: \
         {} documents reused, {} re-parsed",
        refreshed.reused, reparsed
    );

    let outcome = Outcome {
        coverage,
        total_agents: community.agent_count(),
        fidelity_ok,
        refresh: (refreshed.reused, reparsed),
    };
    (outcome, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_grows_with_range_and_fidelity_is_exact() {
        let (o, text) = run(Scale::Small);
        for w in o.coverage.windows(2) {
            assert!(w[1].1 >= w[0].1, "coverage must be monotone in range");
        }
        let last = o.coverage.last().unwrap();
        assert!(last.1 > o.total_agents / 2, "deep crawl should reach most of the community");
        assert!(o.fidelity_ok, "round trip must be lossless");
        // Refresh re-parses only the republished documents.
        let (reused, reparsed) = o.refresh;
        assert!(reused > 0);
        assert!(reparsed <= o.total_agents / 20 + 1, "re-parsed {reparsed}");
        super::super::assert_golden(&text);
    }
}
