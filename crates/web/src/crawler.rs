//! Crawling the decentralized web and assembling a local [`Community`].
//!
//! §4.1: "Tailored crawlers search the Web for weblogs and ensure data
//! freshness." The crawler does a breadth-first walk from seed homepage
//! URIs, parsing each document and following `rdfs:seeAlso` / `foaf:knows`
//! links, bounded by a hop range (the locality that keeps the §2
//! scalability issue at bay). Fetch+parse of each BFS level fans out over
//! std scoped threads — documents are independent.
//!
//! The web being crawled is unreliable (see [`crate::fault`]): every fetch
//! goes through a [`FetchSource`] and may fail with a typed
//! [`FetchError`]. A [`FetchPolicy`] governs how hard the crawler tries —
//! bounded retries with exponential backoff and deterministic jitter,
//! per-URI attempt budgets, a per-crawl tick deadline — and a per-peer
//! [`CircuitBreaker`] quarantines persistently failing homepages so dead
//! peers stop consuming budget. Whatever stays unreachable is *accounted*,
//! not fatal: the crawl returns the subset it reached plus
//! `unreachable` / `gave_up` / `corrupted` bookkeeping and the typed
//! [`Error`] list, and downstream recommendation runs carry
//! the degradation flag (see `CrawlResult::health`).
//!
//! A crawl records nothing: every fetch outcome is a field of the
//! [`CrawlResult`] it returns (per BFS level in
//! [`CrawlResult::fetches_per_level`]), and breaker openings are
//! [`CircuitBreaker::times_opened`].

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use semrec_core::{Community, SourceHealth};
use semrec_obs::MetricsSnapshot;
use semrec_taxonomy::{Catalog, Taxonomy};

use crate::delta::{AgentDiff, CrawlDelta};
use crate::error::Error;
use crate::extract::{extract_agents, ExtractedAgent};
use crate::fault::{FetchError, FetchSource};
use crate::policy::{BreakerState, CircuitBreaker, FetchPolicy};
use crate::publish::{homepage_of, homepage_uri};
use crate::store::DocumentWeb;

/// Crawler configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CrawlConfig {
    /// Maximum hops from the seeds (0 = seeds only).
    pub max_range: u32,
    /// Maximum documents to fetch in total.
    pub max_documents: usize,
    /// Worker threads per BFS level.
    pub threads: usize,
}

impl Default for CrawlConfig {
    fn default() -> Self {
        CrawlConfig { max_range: 6, max_documents: 100_000, threads: 4 }
    }
}

/// Per-document crawl record, kept so later re-crawls can skip unchanged
/// documents ("tailored crawlers … ensure data freshness", §4.1).
#[derive(Clone, Debug, PartialEq)]
pub struct DocumentSnapshot {
    /// The document version observed.
    pub version: u64,
    /// Agents extracted from this document, shared with the refresh that
    /// reuses it: an unchanged document costs a refcount, not a copy.
    pub agents: Arc<[ExtractedAgent]>,
}

/// Result of a crawl.
#[derive(Clone, Debug, Default)]
pub struct CrawlResult {
    /// Agents successfully extracted, sorted by URI.
    pub agents: Vec<ExtractedAgent>,
    /// Documents fetched.
    pub documents_fetched: usize,
    /// URIs that resolved to no document (dangling links).
    pub missing: usize,
    /// Documents that failed to parse.
    pub parse_errors: usize,
    /// Per-document snapshots (document URI → version + extraction).
    pub documents: HashMap<String, DocumentSnapshot>,
    /// Documents whose version was unchanged in a refresh (parse skipped).
    pub reused: usize,
    /// Retry attempts spent across all URIs.
    pub retries: u64,
    /// URIs abandoned after exhausting their retry budget.
    pub gave_up: usize,
    /// URIs never fetched: dead peers, open circuit breakers, or frontier
    /// abandoned at the crawl deadline.
    pub unreachable: usize,
    /// Corrupted (truncated) responses observed across all attempts.
    pub corrupted: usize,
    /// Fetches started at each BFS level (index = hops from the seeds).
    pub fetches_per_level: Vec<usize>,
    /// Virtual ticks this crawl consumed (fetch latency + backoff delays,
    /// parallel within a BFS level).
    pub ticks: u64,
    /// Whether the per-crawl deadline cut the crawl short.
    pub deadline_exceeded: bool,
    /// Circuit-breaker transitions that happened during this crawl, in
    /// order: `(peer homepage URI, state entered)`.
    pub breaker_transitions: Vec<(String, BreakerState)>,
    /// Typed record of every failure the crawl survived.
    pub errors: Vec<Error>,
    /// Difference against the previous crawl, when this was a refresh
    /// (`None` on a fresh crawl). Drives the incremental model path.
    pub delta: Option<CrawlDelta>,
}

impl CrawlResult {
    /// Summarizes this crawl as a [`SourceHealth`] for the recommendation
    /// engine: how much of the web the community was assembled from.
    pub fn health(&self) -> SourceHealth {
        SourceHealth {
            attempted: self.documents_fetched + self.missing + self.gave_up + self.unreachable,
            fetched: self.documents_fetched - self.parse_errors,
            unreachable: self.unreachable,
            gave_up: self.gave_up,
            corrupted: self.corrupted,
            parse_errors: self.parse_errors,
        }
    }

    /// This crawl's fields under their metric names (`crawl.fetch.*`,
    /// `crawl.level.<n>.fetches`, and `refresh.delta.*` when it was a
    /// refresh) — the rendering experiments print.
    pub fn metrics(&self) -> MetricsSnapshot {
        let count = |n: usize| n as u64;
        let fetch = [
            ("crawl.fetch.parsed", count(self.documents_fetched - self.parse_errors)),
            ("crawl.fetch.missing", count(self.missing)),
            ("crawl.fetch.parse_error", count(self.parse_errors)),
            ("crawl.fetch.reused", count(self.reused)),
            ("crawl.fetch.retry", self.retries),
            ("crawl.fetch.gave_up", count(self.gave_up)),
            ("crawl.fetch.unreachable", count(self.unreachable)),
            ("crawl.fetch.corrupted", count(self.corrupted)),
        ];
        let delta = self.delta.iter().flat_map(CrawlDelta::counts);
        let mut snapshot = MetricsSnapshot::from_counters(fetch.into_iter().chain(delta));
        for (range, &fetches) in self.fetches_per_level.iter().enumerate() {
            snapshot.counters.insert(format!("crawl.level.{range}.fetches"), fetches as u64);
        }
        snapshot
    }
}

/// Crawls the web from seed homepage URIs (the reliable, single-attempt
/// path: no retries, breaker never opens).
pub fn crawl(web: &DocumentWeb, seeds: &[String], config: &CrawlConfig) -> CrawlResult {
    let policy = FetchPolicy::no_retry();
    let mut breaker = CircuitBreaker::for_policy(&policy);
    crawl_with(web, seeds, config, &policy, &mut breaker, None)
}

/// Re-crawls from seeds, reusing the extraction of any document whose
/// version is unchanged since `previous` — the asynchronous-update loop of
/// the data-centric environment (§2): agents republish, crawlers refresh.
pub fn refresh(
    web: &DocumentWeb,
    seeds: &[String],
    config: &CrawlConfig,
    previous: &CrawlResult,
) -> CrawlResult {
    let policy = FetchPolicy::no_retry();
    let mut breaker = CircuitBreaker::for_policy(&policy);
    crawl_with(web, seeds, config, &policy, &mut breaker, Some(previous))
}

/// Crawls an unreliable [`FetchSource`] under a [`FetchPolicy`], returning
/// the result together with the circuit-breaker state (pass it to
/// [`refresh_resilient`] so quarantines persist across refreshes).
pub fn crawl_resilient(
    source: &dyn FetchSource,
    seeds: &[String],
    config: &CrawlConfig,
    policy: &FetchPolicy,
) -> (CrawlResult, CircuitBreaker) {
    let mut breaker = CircuitBreaker::for_policy(policy);
    let result = crawl_with(source, seeds, config, policy, &mut breaker, None);
    (result, breaker)
}

/// Re-crawls an unreliable source, reusing unchanged documents from
/// `previous` and carrying breaker state forward in `breaker`.
pub fn refresh_resilient(
    source: &dyn FetchSource,
    seeds: &[String],
    config: &CrawlConfig,
    policy: &FetchPolicy,
    breaker: &mut CircuitBreaker,
    previous: &CrawlResult,
) -> CrawlResult {
    crawl_with(source, seeds, config, policy, breaker, Some(previous))
}

/// The general crawl: BFS over a fallible source with retries, backoff,
/// deadline and breaker — all on the virtual clock, fully deterministic
/// for a fixed `(source, seeds, config, policy, breaker)` state.
pub fn crawl_with(
    source: &dyn FetchSource,
    seeds: &[String],
    config: &CrawlConfig,
    policy: &FetchPolicy,
    breaker: &mut CircuitBreaker,
    previous: Option<&CrawlResult>,
) -> CrawlResult {
    let mut visited: HashSet<String> = HashSet::new();
    let mut frontier: Vec<String> = Vec::new();
    for seed in seeds {
        let uri = homepage_uri(seed);
        if visited.insert(uri.clone()) {
            frontier.push(uri);
        }
    }

    let mut result = CrawlResult::default();
    let mut agents: HashMap<String, ExtractedAgent> = HashMap::new();

    let transitions_before = breaker.transitions().len();
    let clock_start = breaker.now();
    let mut clock = clock_start;

    let mut range = 0;
    while !frontier.is_empty() && range <= config.max_range {
        frontier.truncate(config.max_documents.saturating_sub(result.documents_fetched));
        if frontier.is_empty() {
            break;
        }
        // Deadline gate: a crawl out of budget abandons the remaining
        // frontier (accounted, not fatal).
        if policy.deadline.is_some_and(|d| clock - clock_start >= d) {
            result.deadline_exceeded = true;
            result.unreachable += frontier.len();
            break;
        }
        // Breaker gate, in deterministic frontier order: quarantined peers
        // are skipped without spending any attempt budget. The per-URI
        // attempt cap keeps the retry loop from overshooting the breaker
        // threshold.
        let mut level: Vec<(String, u32)> = Vec::new();
        for uri in frontier.drain(..) {
            if breaker.allow(&uri, clock) {
                let cap = policy.max_attempts.max(1).min(breaker.attempts_before_open(&uri));
                level.push((uri, cap));
            } else {
                result.unreachable += 1;
                result.errors.push(Error::Fetch {
                    uri,
                    error: FetchError::Unavailable,
                    attempts: 0,
                });
            }
        }
        result.fetches_per_level.push(level.len());
        if level.is_empty() {
            range += 1;
            continue;
        }

        // Fan fetch+parse out over threads, level-synchronously.
        let threads = config.threads.max(1).min(level.len());
        let chunk = level.len().div_ceil(threads);
        let records: Vec<(String, FetchRecord)> = std::thread::scope(|scope| {
            let handles: Vec<_> = level
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        part.iter()
                            .map(|(uri, cap)| {
                                (uri.clone(), fetch_with_retries(source, uri, *cap, policy, previous))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("crawler worker panicked")).collect()
        });

        // Sequential merge in frontier order: counters, breaker bookkeeping
        // and link discovery are all deterministic.
        let mut next: Vec<String> = Vec::new();
        let mut level_ticks = 0u64;
        for (uri, record) in records {
            level_ticks = level_ticks.max(record.ticks);
            result.retries += u64::from(record.retries);
            result.corrupted += record.corrupted as usize;
            for _ in 0..record.failed_attempts() {
                breaker.record_failure(&uri, clock);
            }
            match record.outcome {
                FetchOutcome::Missing => {
                    // The peer answered (with "no such document"): reachable.
                    breaker.record_success(&uri);
                    result.missing += 1;
                }
                FetchOutcome::ParseError { detail } => {
                    breaker.record_success(&uri);
                    result.documents_fetched += 1;
                    result.parse_errors += 1;
                    result.errors.push(Error::Parse { uri, detail });
                }
                FetchOutcome::GaveUp { error } => {
                    result.gave_up += 1;
                    result.errors.push(Error::Fetch { uri, error, attempts: record.attempts });
                }
                FetchOutcome::Dead => {
                    result.unreachable += 1;
                    result.errors.push(Error::Fetch {
                        uri,
                        error: FetchError::Dead,
                        attempts: record.attempts,
                    });
                }
                FetchOutcome::Parsed { version, extracted, reused } => {
                    breaker.record_success(&uri);
                    result.documents_fetched += 1;
                    if reused {
                        result.reused += 1;
                    }
                    for agent in extracted.iter() {
                        // A link already seen costs a lookup, not a `String`.
                        let links = agent.see_also.iter().map(String::as_str);
                        for link in links.chain(agent.knows.iter().map(|k| homepage_of(k))) {
                            if !visited.contains(link) {
                                visited.insert(link.to_owned());
                                next.push(link.to_owned());
                            }
                        }
                        agents.entry(agent.uri.clone()).or_insert_with(|| agent.clone());
                    }
                    result.documents.insert(uri, DocumentSnapshot { version, agents: extracted });
                }
            }
        }
        clock += level_ticks;
        next.sort();
        frontier = next;
        range += 1;
    }

    result.ticks = clock - clock_start;
    breaker.advance_to(clock);
    result.breaker_transitions = breaker.transitions()[transitions_before..].to_vec();

    result.agents = {
        let mut list: Vec<ExtractedAgent> = agents.into_values().collect();
        list.sort_by(|a, b| a.uri.cmp(&b.uri));
        list
    };
    if let Some(prev) = previous {
        result.delta = Some(CrawlDelta::between(&prev.agents, &result.agents));
    }
    result
}

enum FetchOutcome {
    Missing,
    ParseError { detail: String },
    GaveUp { error: FetchError },
    Dead,
    Parsed { version: u64, extracted: Arc<[ExtractedAgent]>, reused: bool },
}

struct FetchRecord {
    outcome: FetchOutcome,
    /// Attempts actually made.
    attempts: u32,
    /// Retries among those attempts (`attempts - 1` unless aborted early).
    retries: u32,
    /// Corrupted responses observed.
    corrupted: u32,
    /// Virtual ticks this URI's fetch chain consumed (latency + delays).
    ticks: u64,
}

impl FetchRecord {
    /// Failed attempts to charge against the peer's breaker.
    fn failed_attempts(&self) -> u32 {
        match self.outcome {
            // Terminal failure: every attempt failed.
            FetchOutcome::GaveUp { .. } | FetchOutcome::Dead => self.attempts,
            // Terminal success (a response arrived): only the retried
            // attempts before it had failed.
            _ => self.retries,
        }
    }
}

/// One URI's bounded retry loop. Pure: the outcome depends only on the
/// source, the URI, the cap and the policy — never on other threads.
fn fetch_with_retries(
    source: &dyn FetchSource,
    uri: &str,
    attempt_cap: u32,
    policy: &FetchPolicy,
    previous: Option<&CrawlResult>,
) -> FetchRecord {
    let mut record = FetchRecord {
        outcome: FetchOutcome::Missing,
        attempts: 0,
        retries: 0,
        corrupted: 0,
        ticks: 0,
    };
    let mut attempt = 0u32;
    loop {
        record.ticks += source.attempt_ticks(uri, attempt);
        record.attempts = attempt + 1;
        match source.fetch_attempt(uri, attempt) {
            Ok(doc) => {
                record.outcome = parse_document(uri, doc, previous);
                return record;
            }
            Err(FetchError::NotFound) => {
                record.outcome = FetchOutcome::Missing;
                return record;
            }
            Err(FetchError::Dead) => {
                record.outcome = FetchOutcome::Dead;
                return record;
            }
            Err(error) => {
                if error == FetchError::Corrupted {
                    record.corrupted += 1;
                }
                if attempt + 1 >= attempt_cap.max(1) {
                    record.outcome = FetchOutcome::GaveUp { error };
                    return record;
                }
                // Back off before the next attempt (virtual, never slept).
                record.ticks += policy.delay_ticks(uri, attempt);
                record.retries += 1;
                attempt += 1;
            }
        }
    }
}

fn parse_document(
    uri: &str,
    doc: crate::store::Document,
    previous: Option<&CrawlResult>,
) -> FetchOutcome {
    if let Some(prev) = previous.and_then(|p| p.documents.get(uri)) {
        if prev.version == doc.version {
            return FetchOutcome::Parsed {
                version: doc.version,
                extracted: Arc::clone(&prev.agents),
                reused: true,
            };
        }
    }
    // Content negotiation: dispatch on the published media type
    // ("documents encoded in RDF, OWL, or similar formats", §2).
    let parsed = match doc.content_type.as_str() {
        "application/rdf+xml" => semrec_rdf::rdfxml::parse(&doc.body),
        _ => semrec_rdf::turtle::parse(&doc.body),
    };
    match parsed {
        Ok(graph) => FetchOutcome::Parsed {
            version: doc.version,
            extracted: extract_agents(&graph).into(),
            reused: false,
        },
        Err(e) => FetchOutcome::ParseError { detail: e.to_string() },
    }
}

/// Statistics from assembling a community out of crawled agents.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AssembleStats {
    /// Agents registered.
    pub agents: usize,
    /// Trust statements applied.
    pub trust_edges: usize,
    /// Ratings applied.
    pub ratings: usize,
    /// Ratings whose product identifier is not in the global catalog.
    pub unknown_products: usize,
    /// Trust statements pointing at agents the crawl never saw; the trustee
    /// is registered as a bare agent (it exists in `A` with empty functions).
    pub dangling_trustees: usize,
}

/// Assembles a [`Community`] from crawled agents over the globally published
/// taxonomy and catalog (§3.1: those are centrally maintained and public).
pub fn assemble_community(
    agents: &[ExtractedAgent],
    taxonomy: Taxonomy,
    catalog: Catalog,
) -> (Community, AssembleStats) {
    CommunityBuilder::new(agents).build(taxonomy, catalog)
}

/// The standing crawl view a community is assembled from: the full list of
/// extracted agents, kept sorted by URI, shared by the fresh and the
/// incremental path.
///
/// A fresh crawl builds one via [`CommunityBuilder::new`]; each refresh
/// round folds its [`CrawlDelta`] in via
/// [`apply_delta`](CommunityBuilder::apply_delta) and rebuilds. Because
/// *both* paths assemble through the same [`build`](CommunityBuilder::build)
/// over the same merged agent list, the incremental community is
/// byte-identical to a from-scratch re-assembly by construction — including
/// agent-id numbering, which depends on registration order and would
/// otherwise drift under membership changes.
#[derive(Clone, Debug, Default)]
pub struct CommunityBuilder {
    agents: Vec<ExtractedAgent>,
}

impl CommunityBuilder {
    /// Starts from a crawl's extracted agents (deduplicated, sorted by URI
    /// — the order [`CrawlResult::agents`] already has).
    pub fn new(agents: &[ExtractedAgent]) -> Self {
        let mut agents = agents.to_vec();
        agents.sort_by(|a, b| a.uri.cmp(&b.uri));
        agents.dedup_by(|a, b| a.uri == b.uri);
        CommunityBuilder { agents }
    }

    /// The current agent list, sorted by URI.
    pub fn agents(&self) -> &[ExtractedAgent] {
        &self.agents
    }

    /// Folds a refresh round's delta into the standing view. After this,
    /// the list equals what the refresh crawl extracted — byte-identical to
    /// `CommunityBuilder::new(&refresh_result.agents)`.
    ///
    /// Returns how many `changed` diffs named an agent the view does not
    /// hold and were skipped: 0 for a delta emitted against this view, so
    /// anything else tells a caller replaying stored deltas that the record
    /// does not belong to this view.
    pub fn apply_delta(&mut self, delta: &CrawlDelta) -> usize {
        for uri in &delta.removed {
            if let Ok(pos) = self.agents.binary_search_by(|a| a.uri.as_str().cmp(uri)) {
                self.agents.remove(pos);
            }
        }
        for agent in &delta.added {
            match self.agents.binary_search_by(|a| a.uri.as_str().cmp(&agent.uri)) {
                Ok(pos) => self.agents[pos] = agent.clone(),
                Err(pos) => self.agents.insert(pos, agent.clone()),
            }
        }
        let mut unplaced = 0;
        for diff in &delta.changed {
            match self.agents.binary_search_by(|a| a.uri.as_str().cmp(&diff.uri)) {
                Ok(pos) => apply_diff(&mut self.agents[pos], diff),
                Err(_) => unplaced += 1,
            }
        }
        unplaced
    }

    /// Assembles the community: agents in URI order, then trustees seen
    /// only as targets in first-reference order, then trust edges and
    /// ratings (unknown products are counted, not fatal).
    pub fn build(&self, taxonomy: Taxonomy, catalog: Catalog) -> (Community, AssembleStats) {
        let agents = &self.agents;
        let mut community = Community::new(taxonomy, catalog);
        let mut stats = AssembleStats::default();

        for agent in agents {
            if community.agent_by_uri(&agent.uri).is_none() {
                community.add_agent(agent.uri.clone()).expect("fresh URI");
                stats.agents += 1;
            }
        }
        // Register trustees seen only as targets.
        for agent in agents {
            for (trustee, _) in &agent.trust {
                if community.agent_by_uri(trustee).is_none() {
                    community.add_agent(trustee.clone()).expect("fresh URI");
                    stats.agents += 1;
                    stats.dangling_trustees += 1;
                }
            }
        }

        for agent in agents {
            let me = community.agent_by_uri(&agent.uri).expect("registered above");
            for (trustee, value) in &agent.trust {
                let peer = community.agent_by_uri(trustee).expect("registered above");
                if me != peer && community.trust.set_trust(me, peer, *value).is_ok() {
                    stats.trust_edges += 1;
                }
            }
            for (identifier, score) in &agent.ratings {
                match community.catalog.by_identifier(identifier) {
                    Some(product) => {
                        community.set_rating(me, product, *score).expect("validated on extract");
                        stats.ratings += 1;
                    }
                    None => stats.unknown_products += 1,
                }
            }
        }
        (community, stats)
    }
}

/// Applies one agent's diff to their standing extraction, keeping the
/// key-sorted order [`crate::extract::extract_agents`] guarantees.
fn apply_diff(agent: &mut ExtractedAgent, diff: &AgentDiff) {
    apply_pairs(&mut agent.trust, &diff.trust_set, &diff.trust_removed);
    apply_pairs(&mut agent.ratings, &diff.ratings_set, &diff.ratings_removed);
    if let Some(knows) = &diff.knows {
        agent.knows = knows.clone();
    }
    if let Some(see_also) = &diff.see_also {
        agent.see_also = see_also.clone();
    }
}

/// Applies set/removed operations to a key-sorted `(key, value)` list.
fn apply_pairs(list: &mut Vec<(String, f64)>, set: &[(String, f64)], removed: &[String]) {
    for key in removed {
        if let Ok(pos) = list.binary_search_by(|(k, _)| k.as_str().cmp(key)) {
            list.remove(pos);
        }
    }
    for (key, value) in set {
        match list.binary_search_by(|(k, _)| k.as_str().cmp(key)) {
            Ok(pos) => list[pos].1 = *value,
            Err(pos) => list.insert(pos, (key.clone(), *value)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultyWeb};
    use crate::publish::publish_community;
    use semrec_core::Community;
    use semrec_taxonomy::fixtures::example1;
    use semrec_trust::AgentId;

    /// A chain community alice → bob → carol → dave (trust), with ratings.
    fn chain() -> (Community, Vec<AgentId>) {
        let e = example1();
        let products: Vec<_> = e.catalog.iter().collect();
        let mut c = Community::new(e.fig.taxonomy, e.catalog);
        let names = ["alice", "bob", "carol", "dave"];
        let agents: Vec<_> = names
            .iter()
            .map(|n| c.add_agent(format!("http://ex.org/{n}#me")).unwrap())
            .collect();
        for w in agents.windows(2) {
            c.trust.set_trust(w[0], w[1], 0.8).unwrap();
        }
        for (i, &a) in agents.iter().enumerate() {
            c.set_rating(a, products[i % 4], 1.0).unwrap();
        }
        (c, agents)
    }

    #[test]
    fn crawl_discovers_the_reachable_chain() {
        let (c, _) = chain();
        let web = DocumentWeb::new();
        publish_community(&c, &web);
        let result = crawl(
            &web,
            &["http://ex.org/alice#me".to_owned()],
            &CrawlConfig::default(),
        );
        assert_eq!(result.agents.len(), 4);
        assert_eq!(result.documents_fetched, 4);
        assert_eq!(result.parse_errors, 0);
        assert_eq!(result.missing, 0);
        assert_eq!(result.retries, 0);
        assert_eq!(result.gave_up, 0);
        assert_eq!(result.unreachable, 0);
        assert!(!result.deadline_exceeded);
        assert!(result.errors.is_empty());
        assert!(result.breaker_transitions.is_empty());
        assert!(result.health().coverage() > 0.999);
        assert!(!result.health().is_degraded());
    }

    #[test]
    fn range_bounds_the_crawl() {
        let (c, _) = chain();
        let web = DocumentWeb::new();
        publish_community(&c, &web);
        let result = crawl(
            &web,
            &["http://ex.org/alice#me".to_owned()],
            &CrawlConfig { max_range: 1, ..Default::default() },
        );
        // Range 1: alice (level 0) + bob (level 1); carol is 2 hops out.
        assert_eq!(result.agents.len(), 2);
    }

    #[test]
    fn document_cap_bounds_the_crawl() {
        let (c, _) = chain();
        let web = DocumentWeb::new();
        publish_community(&c, &web);
        let result = crawl(
            &web,
            &["http://ex.org/alice#me".to_owned()],
            &CrawlConfig { max_documents: 2, ..Default::default() },
        );
        assert!(result.documents_fetched <= 2);
    }

    #[test]
    fn dangling_links_and_parse_errors_are_counted() {
        let (c, _) = chain();
        let web = DocumentWeb::new();
        publish_community(&c, &web);
        web.remove("http://ex.org/carol");
        web.publish("http://ex.org/bob", "@prefix broken", "text/turtle");
        let result = crawl(
            &web,
            &["http://ex.org/alice#me".to_owned()],
            &CrawlConfig::default(),
        );
        assert_eq!(result.parse_errors, 1);
        // bob's page broke, so carol's URI is never even discovered.
        assert_eq!(result.agents.len(), 1);
        // The parse failure is recorded as a typed error.
        assert_eq!(result.errors.len(), 1);
        assert_eq!(result.errors[0].uri(), Some("http://ex.org/bob"));
        assert!(matches!(result.errors[0], Error::Parse { .. }));
        assert!(result.health().is_degraded());
    }

    #[test]
    fn crawl_then_assemble_round_trips_the_community() {
        let (c, agents) = chain();
        let web = DocumentWeb::new();
        publish_community(&c, &web);
        let result = crawl(
            &web,
            &["http://ex.org/alice#me".to_owned()],
            &CrawlConfig::default(),
        );
        let (rebuilt, stats) =
            assemble_community(&result.agents, c.taxonomy.clone(), c.catalog.clone());
        assert_eq!(stats.agents, 4);
        assert_eq!(stats.trust_edges, 3);
        assert_eq!(stats.ratings, 4);
        assert_eq!(stats.unknown_products, 0);
        assert_eq!(stats.dangling_trustees, 0);
        // Identical trust values and ratings, possibly renumbered ids.
        for &a in &agents {
            let uri = &c.agent(a).unwrap().uri;
            let ra = rebuilt.agent_by_uri(uri).unwrap();
            assert_eq!(rebuilt.ratings_of(ra).len(), c.ratings_of(a).len());
            for &(peer, w) in c.trust.out_edges(a) {
                let peer_uri = &c.agent(peer).unwrap().uri;
                let rp = rebuilt.agent_by_uri(peer_uri).unwrap();
                assert_eq!(rebuilt.trust.trust(ra, rp), Some(w));
            }
        }
    }

    #[test]
    fn assemble_handles_unknown_products_and_dangling_trustees() {
        let e = example1();
        let agents = vec![ExtractedAgent {
            uri: "http://ex.org/a#me".into(),
            trust: vec![("http://ex.org/ghost#me".into(), 0.5)],
            ratings: vec![
                ("urn:isbn:0521386322".into(), 1.0), // known: Matrix Analysis
                ("urn:isbn:9999999999".into(), 1.0), // unknown
            ],
            knows: vec![],
            see_also: vec![],
        }];
        let (community, stats) = assemble_community(&agents, e.fig.taxonomy, e.catalog);
        assert_eq!(stats.agents, 2);
        assert_eq!(stats.dangling_trustees, 1);
        assert_eq!(stats.ratings, 1);
        assert_eq!(stats.unknown_products, 1);
        assert_eq!(community.agent_count(), 2);
    }

    #[test]
    fn rdfxml_homepages_crawl_identically() {
        let (c, _) = chain();
        let turtle_web = DocumentWeb::new();
        publish_community(&c, &turtle_web);
        let xml_web = DocumentWeb::new();
        crate::publish::publish_community_as(
            &c,
            &xml_web,
            crate::publish::DocumentFormat::RdfXml,
        );
        let seeds = vec!["http://ex.org/alice#me".to_owned()];
        let from_turtle = crawl(&turtle_web, &seeds, &CrawlConfig::default());
        let from_xml = crawl(&xml_web, &seeds, &CrawlConfig::default());
        assert_eq!(from_xml.parse_errors, 0);
        assert_eq!(from_turtle.agents, from_xml.agents,
            "both serializations must extract the same model");
    }

    #[test]
    fn refresh_reuses_unchanged_documents() {
        let (c, _) = chain();
        let web = DocumentWeb::new();
        publish_community(&c, &web);
        let seeds = vec!["http://ex.org/alice#me".to_owned()];
        let first = crawl(&web, &seeds, &CrawlConfig::default());
        assert_eq!(first.reused, 0);
        assert_eq!(first.documents.len(), 4);

        // Nothing changed: every document is reused, extraction identical.
        let second = refresh(&web, &seeds, &CrawlConfig::default(), &first);
        assert_eq!(second.reused, 4);
        assert_eq!(second.agents, first.agents);

        // Bob republishes with a new rating: exactly one document re-parsed.
        let mut c2 = c.clone();
        let bob = c2.agent_by_uri("http://ex.org/bob#me").unwrap();
        let product = c2.catalog.iter().nth(3).unwrap();
        c2.set_rating(bob, product, 0.9).unwrap();
        web.publish(
            "http://ex.org/bob",
            crate::publish::homepage_turtle(&c2, bob),
            "text/turtle",
        );
        let third = refresh(&web, &seeds, &CrawlConfig::default(), &second);
        assert_eq!(third.reused, 3);
        let bob_extract = third.agents.iter().find(|a| a.uri.contains("bob")).unwrap();
        assert_eq!(bob_extract.ratings.len(), 2);
    }

    #[test]
    fn refresh_discovers_new_agents() {
        let (mut c, agents) = chain();
        let web = DocumentWeb::new();
        publish_community(&c, &web);
        let seeds = vec!["http://ex.org/alice#me".to_owned()];
        let first = crawl(&web, &seeds, &CrawlConfig::default());
        assert_eq!(first.agents.len(), 4);

        // Dave befriends a newcomer and republishes.
        let eve = c.add_agent("http://ex.org/eve#me").unwrap();
        c.trust.set_trust(agents[3], eve, 0.7).unwrap();
        web.publish(
            "http://ex.org/dave",
            crate::publish::homepage_turtle(&c, agents[3]),
            "text/turtle",
        );
        web.publish("http://ex.org/eve", crate::publish::homepage_turtle(&c, eve), "text/turtle");

        let second = refresh(&web, &seeds, &CrawlConfig::default(), &first);
        assert_eq!(second.agents.len(), 5, "the newcomer must be discovered");
        assert_eq!(second.reused, 3, "only unchanged documents are reused");
    }

    #[test]
    fn refresh_emits_a_typed_delta() {
        let (c, _) = chain();
        let web = DocumentWeb::new();
        publish_community(&c, &web);
        let seeds = vec!["http://ex.org/alice#me".to_owned()];
        let first = crawl(&web, &seeds, &CrawlConfig::default());
        assert!(first.delta.is_none(), "a fresh crawl has no previous view to diff");

        let second = refresh(&web, &seeds, &CrawlConfig::default(), &first);
        let delta = second.delta.as_ref().expect("refreshes always diff");
        assert!(delta.is_empty());
        assert_eq!(delta.unchanged, 4);

        // Bob republishes with a new rating: the delta names exactly him.
        let mut c2 = c.clone();
        let bob = c2.agent_by_uri("http://ex.org/bob#me").unwrap();
        let product = c2.catalog.iter().nth(3).unwrap();
        c2.set_rating(bob, product, 0.9).unwrap();
        web.publish(
            "http://ex.org/bob",
            crate::publish::homepage_turtle(&c2, bob),
            "text/turtle",
        );
        let third = refresh(&web, &seeds, &CrawlConfig::default(), &second);
        let delta = third.delta.as_ref().unwrap();
        assert_eq!(delta.changed.len(), 1);
        assert_eq!(delta.changed[0].uri, "http://ex.org/bob#me");
        assert!(delta.changed[0].profile_dirty());
        assert!(!delta.changed[0].trust_dirty());
        assert!(delta.added.is_empty() && delta.removed.is_empty());
        assert_eq!(delta.unchanged, 3);
    }

    #[test]
    fn reuse_heavy_refresh_reports_full_health() {
        // Satellite regression: version-reused documents are skipped before
        // parsing but still count as attempted+fetched — a fully-reused
        // refresh must not look like a near-empty, degraded source.
        let (c, _) = chain();
        let web = DocumentWeb::new();
        publish_community(&c, &web);
        let seeds = vec!["http://ex.org/alice#me".to_owned()];
        let first = crawl(&web, &seeds, &CrawlConfig::default());
        let second = refresh(&web, &seeds, &CrawlConfig::default(), &first);
        assert_eq!(second.reused, 4, "everything is version-unchanged");
        let health = second.health();
        assert_eq!(health.attempted, 4);
        assert_eq!(health.fetched, 4);
        assert!(health.coverage() > 0.999);
        assert!(!health.is_degraded());
        assert_eq!(health, first.health(), "reuse must not change the health picture");
    }

    #[test]
    fn builder_apply_delta_matches_a_fresh_view() {
        let (mut c, agents) = chain();
        let web = DocumentWeb::new();
        publish_community(&c, &web);
        let seeds = vec!["http://ex.org/alice#me".to_owned()];
        let first = crawl(&web, &seeds, &CrawlConfig::default());
        let mut builder = CommunityBuilder::new(&first.agents);

        // A churn round touching every delta kind: bob re-rates, dave
        // befriends a newcomer, carol's rating disappears.
        let products: Vec<_> = c.catalog.iter().collect();
        let bob = c.agent_by_uri("http://ex.org/bob#me").unwrap();
        c.set_rating(bob, products[3], -0.5).unwrap();
        let carol = c.agent_by_uri("http://ex.org/carol#me").unwrap();
        assert!(c.remove_rating(carol, products[2]));
        let eve = c.add_agent("http://ex.org/eve#me").unwrap();
        c.set_rating(eve, products[0], 1.0).unwrap();
        c.trust.set_trust(agents[3], eve, 0.7).unwrap();
        for agent in [bob, carol, agents[3], eve] {
            let uri = c.agent(agent).unwrap().uri.clone();
            let homepage = uri.trim_end_matches("#me").to_owned();
            web.publish(&homepage, crate::publish::homepage_turtle(&c, agent), "text/turtle");
        }

        let second = refresh(&web, &seeds, &CrawlConfig::default(), &first);
        builder.apply_delta(second.delta.as_ref().unwrap());
        assert_eq!(
            builder.agents(),
            &second.agents[..],
            "delta-folded view must equal the fresh extraction byte-for-byte"
        );
        // And the assembled communities agree, including id numbering.
        let (incremental, istats) =
            builder.build(c.taxonomy.clone(), c.catalog.clone());
        let (fresh, fstats) =
            assemble_community(&second.agents, c.taxonomy.clone(), c.catalog.clone());
        assert_eq!(istats, fstats);
        assert_eq!(incremental.agent_count(), fresh.agent_count());
        for a in fresh.agents() {
            assert_eq!(incremental.agent(a).unwrap(), fresh.agent(a).unwrap());
            assert_eq!(incremental.ratings_of(a), fresh.ratings_of(a));
            assert_eq!(incremental.trust.out_edges(a), fresh.trust.out_edges(a));
        }
    }

    #[test]
    fn parallel_crawl_is_deterministic() {
        let (c, _) = chain();
        let web = DocumentWeb::new();
        publish_community(&c, &web);
        let seeds = vec!["http://ex.org/alice#me".to_owned()];
        let a = crawl(&web, &seeds, &CrawlConfig { threads: 1, ..Default::default() });
        let b = crawl(&web, &seeds, &CrawlConfig { threads: 8, ..Default::default() });
        assert_eq!(a.agents, b.agents);
    }

    // --- resilience ----------------------------------------------------------

    #[test]
    fn retries_recover_transient_faults() {
        let (c, _) = chain();
        let web = DocumentWeb::new();
        publish_community(&c, &web);
        let seeds = vec!["http://ex.org/alice#me".to_owned()];
        // A high transient rate: single-attempt crawls lose part of the
        // chain, retried crawls recover all of it.
        let faulty = FaultyWeb::new(&web, FaultPlan::transient(0.6, 11));
        let policy = FetchPolicy { max_attempts: 12, ..FetchPolicy::default() };
        let (result, _) = crawl_resilient(&faulty, &seeds, &CrawlConfig::default(), &policy);
        assert_eq!(result.agents.len(), 4, "retries must recover the whole chain");
        assert!(result.retries > 0, "a 60% fault rate must force retries");
        assert!(result.ticks > 4, "backoff delays must consume virtual time");
        assert!(result.health().is_degraded() || result.gave_up == 0);
    }

    #[test]
    fn give_up_accounting_is_honest() {
        let (c, _) = chain();
        let web = DocumentWeb::new();
        publish_community(&c, &web);
        let seeds = vec!["http://ex.org/alice#me".to_owned()];
        // Certain failure, one attempt: everything reachable gives up.
        let faulty = FaultyWeb::new(&web, FaultPlan::transient(1.0, 1));
        let policy = FetchPolicy { max_attempts: 2, ..FetchPolicy::default() };
        let (result, _) = crawl_resilient(&faulty, &seeds, &CrawlConfig::default(), &policy);
        assert_eq!(result.agents.len(), 0);
        assert_eq!(result.gave_up, 1, "only the seed is ever discovered");
        assert_eq!(result.retries, 1);
        let health = result.health();
        assert!(health.is_degraded());
        assert_eq!(health.coverage(), 0.0);
        assert!(matches!(
            result.errors[0],
            Error::Fetch { error: FetchError::Unavailable, attempts: 2, .. }
        ));
    }

    #[test]
    fn dead_peers_are_unreachable_and_open_the_breaker_across_refreshes() {
        let (c, _) = chain();
        let web = DocumentWeb::new();
        publish_community(&c, &web);
        let seeds = vec!["http://ex.org/alice#me".to_owned()];
        // Kill carol specifically: a plan where only her URI is dead.
        let plan = FaultPlan { dead_rate: 0.25, seed: find_seed_killing(&web, "carol"), ..FaultPlan::none() };
        assert!(plan.is_dead("http://ex.org/carol"));
        let faulty = FaultyWeb::new(&web, plan);
        let policy = FetchPolicy { breaker_threshold: 2, ..FetchPolicy::default() };
        let (first, mut breaker) =
            crawl_resilient(&faulty, &seeds, &CrawlConfig::default(), &policy);
        assert!(first.unreachable >= 1, "the dead peer is unreachable");
        assert!(first.agents.len() < 4);

        // Refreshing against the same breaker: repeated dead-peer failures
        // eventually open the circuit and stop consuming fetch attempts.
        let mut last = first;
        for _ in 0..4 {
            last = refresh_resilient(
                &faulty,
                &seeds,
                &CrawlConfig::default(),
                &policy,
                &mut breaker,
                &last,
            );
        }
        assert!(
            breaker.times_opened() >= 1,
            "persistent failures must open the breaker: {:?}",
            breaker.transitions()
        );
    }

    /// Finds a seed under which carol (and only carol, among the chain's
    /// four homepages) is dead at a 25% dead rate.
    fn find_seed_killing(web: &DocumentWeb, victim: &str) -> u64 {
        (0..10_000)
            .find(|&seed| {
                let plan = FaultPlan { dead_rate: 0.25, seed, ..FaultPlan::none() };
                web.uris().iter().all(|uri| plan.is_dead(uri) == uri.contains(victim))
            })
            .expect("some seed kills exactly the victim")
    }

    #[test]
    fn deadline_abandons_the_remaining_frontier() {
        let (c, _) = chain();
        let web = DocumentWeb::new();
        publish_community(&c, &web);
        let seeds = vec!["http://ex.org/alice#me".to_owned()];
        // Each level costs 1 tick (chain ⇒ one document per level); a
        // 2-tick budget reaches alice and bob only.
        let policy = FetchPolicy { deadline: Some(2), ..FetchPolicy::no_retry() };
        let faulty = FaultyWeb::new(&web, FaultPlan::none());
        let (result, _) = crawl_resilient(&faulty, &seeds, &CrawlConfig::default(), &policy);
        assert!(result.deadline_exceeded);
        assert_eq!(result.agents.len(), 2, "alice and bob fit in the budget");
        assert_eq!(result.unreachable, 1, "carol's document was abandoned");
    }

    #[test]
    fn zero_fault_resilient_crawl_matches_the_plain_crawl() {
        let (c, _) = chain();
        let web = DocumentWeb::new();
        publish_community(&c, &web);
        let seeds = vec!["http://ex.org/alice#me".to_owned()];
        let plain = crawl(&web, &seeds, &CrawlConfig::default());
        let faulty = FaultyWeb::new(&web, FaultPlan::none());
        let (resilient, _) =
            crawl_resilient(&faulty, &seeds, &CrawlConfig::default(), &FetchPolicy::default());
        assert_eq!(plain.agents, resilient.agents);
        assert_eq!(plain.documents_fetched, resilient.documents_fetched);
        assert_eq!(resilient.retries, 0);
        assert_eq!(resilient.gave_up + resilient.unreachable + resilient.corrupted, 0);
    }

    #[test]
    fn fault_injected_crawls_are_thread_count_invariant() {
        let (c, _) = chain();
        let web = DocumentWeb::new();
        publish_community(&c, &web);
        let seeds = vec!["http://ex.org/alice#me".to_owned()];
        let policy = FetchPolicy { max_attempts: 3, ..FetchPolicy::default() };
        let run = |threads: usize| {
            let faulty = FaultyWeb::new(&web, FaultPlan::transient(0.4, 5));
            let (result, breaker) = crawl_resilient(
                &faulty,
                &seeds,
                &CrawlConfig { threads, ..Default::default() },
                &policy,
            );
            (result, breaker)
        };
        let (a, ba) = run(1);
        let (b, bb) = run(8);
        assert_eq!(a.agents, b.agents);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.gave_up, b.gave_up);
        assert_eq!(a.ticks, b.ticks);
        assert_eq!(a.breaker_transitions, b.breaker_transitions);
        assert_eq!(ba.transitions(), bb.transitions());
        assert_eq!(a.errors, b.errors);
    }
}
