//! Typed crawl deltas: what changed between two crawls of the same web.
//!
//! The steady state of the §2 asynchronous-update loop is *small deltas
//! against a large standing model*: agents republish their homepages, the
//! crawler refreshes, and almost everything it sees is version-unchanged.
//! A [`CrawlDelta`] captures exactly the difference between the previous
//! view and the new one — added / changed / removed agents, with per-agent
//! trust-edge and rating diffs — so downstream stages (community assembly,
//! profile generation, the serving cache) can do work proportional to the
//! delta instead of rebuilding the world.
//!
//! Every refresh ([`crate::crawler::refresh`] /
//! [`crate::crawler::refresh_resilient`] / any
//! [`crate::crawler::crawl_with`] with a previous view) computes the delta
//! and records it on [`crate::crawler::CrawlResult::delta`], bumping the
//! `refresh.delta.{added,changed,removed,unchanged}` counters.

use crate::extract::ExtractedAgent;

/// Per-agent diff between two extractions of the same URI.
///
/// The `*_set` lists carry statements that are new *or* whose value
/// changed; the `*_removed` lists carry keys that disappeared. Crawl links
/// (`foaf:knows` / `rdfs:seeAlso`) do not feed the model, but their new
/// values are kept so an incremental view stays byte-identical to a fresh
/// crawl's extraction.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AgentDiff {
    /// The agent's URI.
    pub uri: String,
    /// Trust statements added or re-valued: `(trustee URI, value)`.
    pub trust_set: Vec<(String, f64)>,
    /// Trustee URIs whose trust statement disappeared.
    pub trust_removed: Vec<String>,
    /// Ratings added or re-valued: `(product identifier, score)`.
    pub ratings_set: Vec<(String, f64)>,
    /// Product identifiers whose rating disappeared.
    pub ratings_removed: Vec<String>,
    /// New `foaf:knows` links, when they changed.
    pub knows: Option<Vec<String>>,
    /// New `rdfs:seeAlso` links, when they changed.
    pub see_also: Option<Vec<String>>,
}

impl AgentDiff {
    /// True when the diff touches the agent's ratings — the inputs of their
    /// taxonomy profile. A trust-only diff leaves the profile clean.
    pub fn profile_dirty(&self) -> bool {
        !self.ratings_set.is_empty() || !self.ratings_removed.is_empty()
    }

    /// True when the diff touches the agent's outgoing trust statements.
    pub fn trust_dirty(&self) -> bool {
        !self.trust_set.is_empty() || !self.trust_removed.is_empty()
    }

    /// True when nothing model-relevant nor any crawl link changed.
    pub fn is_empty(&self) -> bool {
        !self.profile_dirty()
            && !self.trust_dirty()
            && self.knows.is_none()
            && self.see_also.is_none()
    }
}

/// The typed difference between two crawls: who appeared, who changed (and
/// how), who disappeared.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CrawlDelta {
    /// Agents present now but absent from the previous view, sorted by URI.
    pub added: Vec<ExtractedAgent>,
    /// Agents present in both views whose extraction differs, sorted by URI.
    pub changed: Vec<AgentDiff>,
    /// URIs present before but absent now (unreachable, removed, or no
    /// longer discovered), sorted.
    pub removed: Vec<String>,
    /// Agents present in both views and extraction-identical.
    pub unchanged: usize,
}

impl CrawlDelta {
    /// Diffs two crawl extractions. Both slices must be sorted by URI —
    /// which [`crate::crawler::CrawlResult::agents`] always is.
    pub fn between(previous: &[ExtractedAgent], next: &[ExtractedAgent]) -> CrawlDelta {
        let mut delta = CrawlDelta::default();
        let (mut i, mut j) = (0, 0);
        while i < previous.len() || j < next.len() {
            match (previous.get(i), next.get(j)) {
                (Some(prev), Some(new)) if prev.uri == new.uri => {
                    if prev == new {
                        delta.unchanged += 1;
                    } else {
                        delta.changed.push(diff_agent(prev, new));
                    }
                    i += 1;
                    j += 1;
                }
                (Some(prev), Some(new)) if prev.uri < new.uri => {
                    delta.removed.push(prev.uri.clone());
                    i += 1;
                }
                (Some(_), Some(new)) => {
                    delta.added.push(new.clone());
                    j += 1;
                }
                (Some(prev), None) => {
                    delta.removed.push(prev.uri.clone());
                    i += 1;
                }
                (None, Some(new)) => {
                    delta.added.push(new.clone());
                    j += 1;
                }
                (None, None) => unreachable!("loop condition"),
            }
        }
        delta
    }

    /// True when the views are extraction-identical.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.changed.is_empty() && self.removed.is_empty()
    }

    /// Total agents the delta touches.
    pub fn touched(&self) -> usize {
        self.added.len() + self.changed.len() + self.removed.len()
    }

    /// The delta's sizes under their `refresh.delta.*` metric names.
    pub fn counts(&self) -> [(&'static str, u64); 4] {
        [
            ("refresh.delta.added", self.added.len() as u64),
            ("refresh.delta.changed", self.changed.len() as u64),
            ("refresh.delta.removed", self.removed.len() as u64),
            ("refresh.delta.unchanged", self.unchanged as u64),
        ]
    }

    /// Projects this crawl-level delta down to the model-level
    /// [`semrec_core::ModelDelta`] the engine's incremental path consumes.
    ///
    /// Added and removed agents are marked dirty on *both* axes: a removed
    /// agent may survive in the community as a bare dangling trustee (empty
    /// profile), and an added agent may previously have existed as one — in
    /// either case the standing profile for that URI is stale.
    pub fn model_delta(&self) -> semrec_core::ModelDelta {
        let mut delta = semrec_core::ModelDelta::default();
        for agent in &self.added {
            delta.ratings_changed.push(agent.uri.clone());
            delta.trust_changed.push(agent.uri.clone());
        }
        for uri in &self.removed {
            delta.ratings_changed.push(uri.clone());
            delta.trust_changed.push(uri.clone());
        }
        for diff in &self.changed {
            if diff.profile_dirty() {
                delta.ratings_changed.push(diff.uri.clone());
            }
            if diff.trust_dirty() {
                delta.trust_changed.push(diff.uri.clone());
            }
        }
        delta.ratings_changed.sort();
        delta.trust_changed.sort();
        delta
    }
}

/// Diffs one agent's two extractions (same URI).
fn diff_agent(prev: &ExtractedAgent, next: &ExtractedAgent) -> AgentDiff {
    let mut diff = AgentDiff { uri: next.uri.clone(), ..AgentDiff::default() };
    diff_pairs(&prev.trust, &next.trust, &mut diff.trust_set, &mut diff.trust_removed);
    diff_pairs(&prev.ratings, &next.ratings, &mut diff.ratings_set, &mut diff.ratings_removed);
    if prev.knows != next.knows {
        diff.knows = Some(next.knows.clone());
    }
    if prev.see_also != next.see_also {
        diff.see_also = Some(next.see_also.clone());
    }
    diff
}

/// Diffs two key-sorted `(key, value)` lists into set/removed form.
fn diff_pairs(
    previous: &[(String, f64)],
    next: &[(String, f64)],
    set: &mut Vec<(String, f64)>,
    removed: &mut Vec<String>,
) {
    let (mut i, mut j) = (0, 0);
    while i < previous.len() || j < next.len() {
        match (previous.get(i), next.get(j)) {
            (Some(prev), Some(new)) if prev.0 == new.0 => {
                if prev.1 != new.1 {
                    set.push(new.clone());
                }
                i += 1;
                j += 1;
            }
            (Some(prev), Some(new)) if prev.0 < new.0 => {
                removed.push(prev.0.clone());
                i += 1;
            }
            (Some(_), Some(new)) => {
                set.push(new.clone());
                j += 1;
            }
            (Some(prev), None) => {
                removed.push(prev.0.clone());
                i += 1;
            }
            (None, Some(new)) => {
                set.push(new.clone());
                j += 1;
            }
            (None, None) => unreachable!("loop condition"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agent(uri: &str, trust: &[(&str, f64)], ratings: &[(&str, f64)]) -> ExtractedAgent {
        ExtractedAgent {
            uri: uri.to_owned(),
            trust: trust.iter().map(|&(u, v)| (u.to_owned(), v)).collect(),
            ratings: ratings.iter().map(|&(u, v)| (u.to_owned(), v)).collect(),
            knows: Vec::new(),
            see_also: Vec::new(),
        }
    }

    #[test]
    fn identical_views_yield_an_empty_delta() {
        let view = vec![agent("a", &[("b", 0.5)], &[("x", 1.0)]), agent("b", &[], &[])];
        let delta = CrawlDelta::between(&view, &view);
        assert!(delta.is_empty());
        assert_eq!(delta.unchanged, 2);
        assert_eq!(delta.touched(), 0);
    }

    #[test]
    fn added_changed_removed_are_separated() {
        let prev = vec![
            agent("a", &[("b", 0.5)], &[("x", 1.0)]),
            agent("b", &[], &[("x", 0.2)]),
            agent("c", &[], &[]),
        ];
        let next = vec![
            agent("a", &[("b", 0.9)], &[("x", 1.0)]),
            agent("c", &[], &[]),
            agent("d", &[], &[("y", 0.1)]),
        ];
        let delta = CrawlDelta::between(&prev, &next);
        assert_eq!(delta.added.len(), 1);
        assert_eq!(delta.added[0].uri, "d");
        assert_eq!(delta.removed, vec!["b".to_owned()]);
        assert_eq!(delta.unchanged, 1);
        assert_eq!(delta.changed.len(), 1);
        let diff = &delta.changed[0];
        assert_eq!(diff.uri, "a");
        assert_eq!(diff.trust_set, vec![("b".to_owned(), 0.9)]);
        assert!(diff.trust_removed.is_empty());
        assert!(!diff.profile_dirty(), "trust-only diff leaves the profile clean");
        assert!(diff.trust_dirty());
    }

    #[test]
    fn rating_removal_and_addition_are_typed() {
        let prev = vec![agent("a", &[], &[("x", 1.0), ("y", 0.5)])];
        let next = vec![agent("a", &[], &[("y", 0.5), ("z", -0.2)])];
        let delta = CrawlDelta::between(&prev, &next);
        let diff = &delta.changed[0];
        assert_eq!(diff.ratings_set, vec![("z".to_owned(), -0.2)]);
        assert_eq!(diff.ratings_removed, vec!["x".to_owned()]);
        assert!(diff.profile_dirty());
        assert!(!diff.trust_dirty());
    }

    #[test]
    fn model_delta_marks_membership_changes_on_both_axes() {
        let prev = vec![agent("a", &[("gone", 1.0)], &[]), agent("gone", &[], &[("x", 1.0)])];
        let next = vec![agent("a", &[], &[]), agent("new", &[], &[])];
        let delta = CrawlDelta::between(&prev, &next);
        let model = delta.model_delta();
        assert_eq!(model.ratings_changed, vec!["gone".to_owned(), "new".to_owned()]);
        assert!(model.trust_changed.contains(&"a".to_owned()), "trust diff on a");
        assert!(model.trust_changed.contains(&"gone".to_owned()));
        assert!(model.trust_changed.contains(&"new".to_owned()));
    }

    #[test]
    fn link_changes_are_carried_but_do_not_dirty_the_model() {
        let mut next_agent = agent("a", &[], &[]);
        next_agent.knows = vec!["b".to_owned()];
        let delta = CrawlDelta::between(&[agent("a", &[], &[])], &[next_agent]);
        let diff = &delta.changed[0];
        assert_eq!(diff.knows.as_deref(), Some(&["b".to_owned()][..]));
        assert!(!diff.profile_dirty());
        assert!(!diff.trust_dirty());
        let model = delta.model_delta();
        assert!(model.ratings_changed.is_empty());
        assert!(model.trust_changed.is_empty());
    }
}
