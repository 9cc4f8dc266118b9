//! Model-level deltas and dirty-set planning for incremental refresh.
//!
//! The crawl layer (`semrec-web`) diffs two crawls into a typed delta and
//! projects it down to a [`ModelDelta`]: which agents' *rating inputs*
//! changed (their taxonomy profile is stale) and which agents' *outgoing
//! trust statements* changed (their profile is clean but neighborhoods that
//! reach them are stale). From that, [`SwapPlan`] computes a **sound dirty
//! set** for the serving layer: every agent whose recommendations could
//! differ on the next model generation.
//!
//! Soundness argument: a target's recommendations are a pure function of
//! the data inside its trust neighborhood, and neighborhood formation
//! explores at most `appleseed.max_range` hops from the target (§3.2's
//! bounded exploration). So if agent `y` changed in any way, only targets
//! that can reach `y` within that horizon can be affected — the *reverse*
//! trust closure of the changed set, walked in both the old and the new
//! graph (an edge removal only exists in the old one). Everything outside
//! that closure provably recomputes byte-identically, which is what lets
//! the serving cache carry those entries across a snapshot swap.

use std::collections::HashSet;

use semrec_trust::AgentId;

use crate::model::Community;

/// The model-level projection of a crawl delta: which agent URIs changed,
/// split by what the change invalidates.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ModelDelta {
    /// URIs whose rating set changed (or who appeared/disappeared): their
    /// taxonomy profile must be recomputed.
    pub ratings_changed: Vec<String>,
    /// URIs whose outgoing trust statements changed (or who
    /// appeared/disappeared): their profile is untouched, but neighborhoods
    /// reaching them are stale.
    pub trust_changed: Vec<String>,
}

impl ModelDelta {
    /// True when nothing model-relevant changed.
    pub fn is_empty(&self) -> bool {
        self.ratings_changed.is_empty() && self.trust_changed.is_empty()
    }

    /// Every URI the delta touches, deduplicated.
    fn seed_uris(&self) -> HashSet<&str> {
        self.ratings_changed
            .iter()
            .chain(self.trust_changed.iter())
            .map(String::as_str)
            .collect()
    }
}

/// Outcome counters of one [`crate::SharedModel::advance`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdvanceStats {
    /// Profiles recomputed because their inputs changed (∝ delta size).
    pub recomputed: usize,
    /// Profiles carried over from the previous generation by `Arc` clone.
    pub reused: usize,
}

impl AdvanceStats {
    /// Fraction of profiles reused (1.0 for an empty delta).
    pub fn reuse_rate(&self) -> f64 {
        let total = self.recomputed + self.reused;
        if total == 0 {
            return 1.0;
        }
        self.reused as f64 / total as f64
    }
}

/// The swap plan for a serving layer publishing `old → next`: per-agent
/// dirtiness and whether clean cache entries may be carried across.
///
/// Carrying is only sound when agent-id assignment is stable between the
/// generations (both communities register the same URI at every index) —
/// otherwise a cached answer for id `i` would be served to a different
/// agent. Membership instability therefore forces wholesale invalidation,
/// as does a dirty fraction above the configured threshold (past that
/// point the carry bookkeeping costs more than it saves).
#[derive(Clone, Debug)]
pub struct SwapPlan {
    /// Per next-community agent index: recommendations may have changed.
    dirty: Vec<bool>,
    /// Per next-community agent index: cached answers may be carried.
    carryable: Vec<bool>,
    /// Number of dirty agents.
    dirty_count: usize,
    /// Whether the URI↔id mapping is identical across the generations.
    membership_stable: bool,
    /// Whether the serving cache must be invalidated wholesale.
    wholesale: bool,
}

impl SwapPlan {
    /// Default dirty-fraction threshold beyond which a plan falls back to
    /// wholesale invalidation.
    pub const DEFAULT_MAX_DIRTY_FRACTION: f64 = 0.5;

    /// Computes the plan for publishing `next` over `old`.
    ///
    /// `horizon` is the neighborhood exploration bound (hops); pass the
    /// engine's `neighborhood.appleseed.max_range` — `None` means
    /// unbounded exploration, so the closure walks the whole reverse
    /// component.
    pub fn compute(
        old: &Community,
        next: &Community,
        delta: &ModelDelta,
        horizon: Option<u32>,
        max_dirty_fraction: f64,
    ) -> SwapPlan {
        let membership_stable = old.agent_count() == next.agent_count()
            && next
                .agents()
                .all(|a| {
                    let uri = &next.agent(a).expect("iterated id").uri;
                    old.agent_by_uri(uri) == Some(a)
                });

        // Seed URIs: everything the delta touches, plus membership changes
        // at the community level (dangling trustees appearing/disappearing
        // are visible here even when the crawl never fetched them).
        let mut seeds: HashSet<String> =
            delta.seed_uris().into_iter().map(str::to_owned).collect();
        if !membership_stable {
            for (a, b) in [(old, next), (next, old)] {
                for agent in a.agents() {
                    let uri = &a.agent(agent).expect("iterated id").uri;
                    if b.agent_by_uri(uri).is_none() {
                        seeds.insert(uri.clone());
                    }
                }
            }
        }

        // Reverse trust closure out to the horizon, in both generations:
        // an affected target must reach a seed along forward edges that
        // exist in the old or the new graph.
        let mut dirty_uris = seeds.clone();
        for community in [old, next] {
            let ids: Vec<AgentId> =
                seeds.iter().filter_map(|uri| community.agent_by_uri(uri)).collect();
            for id in reverse_closure(community, &ids, horizon) {
                dirty_uris.insert(community.agent(id).expect("closure id").uri.clone());
            }
        }

        let mut dirty = vec![false; next.agent_count()];
        let mut dirty_count = 0;
        for agent in next.agents() {
            if dirty_uris.contains(&next.agent(agent).expect("iterated id").uri) {
                dirty[agent.index()] = true;
                dirty_count += 1;
            }
        }
        let dirty_fraction =
            dirty_count as f64 / next.agent_count().max(1) as f64;
        let wholesale = !membership_stable || dirty_fraction > max_dirty_fraction;
        let carryable = dirty
            .iter()
            .map(|&d| !wholesale && !d)
            .collect();
        SwapPlan { dirty, carryable, dirty_count, membership_stable, wholesale }
    }

    /// True when this agent's recommendations may differ on the next
    /// generation (ids are next-community ids).
    pub fn is_dirty(&self, agent: AgentId) -> bool {
        self.dirty.get(agent.index()).copied().unwrap_or(true)
    }

    /// True when cached answers for this agent may be carried across the
    /// swap (ids are next-community ids).
    pub fn carryable(&self, agent: AgentId) -> bool {
        self.carryable.get(agent.index()).copied().unwrap_or(false)
    }

    /// Number of dirty agents.
    pub fn dirty_count(&self) -> usize {
        self.dirty_count
    }

    /// Fraction of next-generation agents that are dirty.
    pub fn dirty_fraction(&self) -> f64 {
        self.dirty_count as f64 / self.dirty.len().max(1) as f64
    }

    /// Whether the URI↔id mapping is identical across the generations.
    pub fn membership_stable(&self) -> bool {
        self.membership_stable
    }

    /// Whether the serving cache must drop everything instead of carrying.
    pub fn wholesale(&self) -> bool {
        self.wholesale
    }
}

/// All agents that can reach any of `seeds` along forward trust edges in at
/// most `horizon` hops — computed as a BFS over *incoming* edges.
fn reverse_closure(
    community: &Community,
    seeds: &[AgentId],
    horizon: Option<u32>,
) -> HashSet<AgentId> {
    let horizon = horizon.map_or(usize::MAX, |h| h as usize);
    let mut seen: HashSet<AgentId> = seeds.iter().copied().collect();
    let mut frontier: Vec<AgentId> = seeds.to_vec();
    let mut depth = 0;
    while !frontier.is_empty() && depth < horizon {
        let mut next_frontier = Vec::new();
        for &agent in &frontier {
            for &truster in community.trust.trusters_of(agent) {
                if seen.insert(truster) {
                    next_frontier.push(truster);
                }
            }
        }
        frontier = next_frontier;
        depth += 1;
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use semrec_taxonomy::fixtures::example1;

    /// A trust chain u0 → u1 → … → u{n-1}, each rating one product.
    fn chain(n: usize) -> Community {
        let e = example1();
        let products: Vec<_> = e.catalog.iter().collect();
        let mut c = Community::new(e.fig.taxonomy, e.catalog);
        let agents: Vec<AgentId> =
            (0..n).map(|i| c.add_agent(format!("http://ex.org/u{i}")).unwrap()).collect();
        for w in agents.windows(2) {
            c.trust.set_trust(w[0], w[1], 0.8).unwrap();
        }
        for (i, &a) in agents.iter().enumerate() {
            c.set_rating(a, products[i % 4], 1.0).unwrap();
        }
        c
    }

    #[test]
    fn empty_delta_keeps_everything_clean_and_carryable() {
        let c = chain(5);
        let plan = SwapPlan::compute(&c, &c.clone(), &ModelDelta::default(), Some(6), 0.5);
        assert!(plan.membership_stable());
        assert!(!plan.wholesale());
        assert_eq!(plan.dirty_count(), 0);
        for agent in c.agents() {
            assert!(!plan.is_dirty(agent));
            assert!(plan.carryable(agent));
        }
    }

    #[test]
    fn dirty_set_is_the_reverse_closure_up_to_the_horizon() {
        let c = chain(6);
        let changed = "http://ex.org/u4";
        let delta = ModelDelta {
            ratings_changed: vec![changed.to_owned()],
            trust_changed: Vec::new(),
        };
        // Horizon 2: u4 itself plus the two agents that reach it in ≤ 2
        // hops (u3, u2); u0 and u1 stay clean, u5 is downstream.
        let plan = SwapPlan::compute(&c, &c.clone(), &delta, Some(2), 1.0);
        let id = |i: usize| c.agent_by_uri(&format!("http://ex.org/u{i}")).unwrap();
        assert!(plan.is_dirty(id(4)));
        assert!(plan.is_dirty(id(3)));
        assert!(plan.is_dirty(id(2)));
        assert!(!plan.is_dirty(id(1)));
        assert!(!plan.is_dirty(id(0)));
        assert!(!plan.is_dirty(id(5)), "downstream of the change is unaffected");
        assert_eq!(plan.dirty_count(), 3);
        assert!(plan.carryable(id(0)));
        assert!(!plan.carryable(id(3)));
    }

    #[test]
    fn high_dirty_fraction_falls_back_to_wholesale() {
        let c = chain(4);
        let delta = ModelDelta {
            ratings_changed: vec!["http://ex.org/u3".to_owned()],
            trust_changed: Vec::new(),
        };
        // Horizon 6 dirties the whole chain upstream: 4/4 dirty > 0.5.
        let plan = SwapPlan::compute(&c, &c.clone(), &delta, Some(6), 0.5);
        assert!(plan.wholesale());
        for agent in c.agents() {
            assert!(!plan.carryable(agent), "wholesale plans carry nothing");
        }
    }

    #[test]
    fn membership_change_forces_wholesale() {
        let old = chain(4);
        let next = chain(5);
        let plan = SwapPlan::compute(&old, &next, &ModelDelta::default(), Some(6), 1.0);
        assert!(!plan.membership_stable());
        assert!(plan.wholesale());
    }

    #[test]
    fn edge_removal_dirties_via_the_old_graph() {
        let old = chain(4);
        let mut next = old.clone();
        // u2 retracts trust in u3: the edge only exists in the old graph.
        let u2 = next.agent_by_uri("http://ex.org/u2").unwrap();
        let u3 = next.agent_by_uri("http://ex.org/u3").unwrap();
        assert!(next.trust.remove_trust(u2, u3));
        let delta = ModelDelta {
            ratings_changed: Vec::new(),
            trust_changed: vec!["http://ex.org/u2".to_owned()],
        };
        let plan = SwapPlan::compute(&old, &next, &delta, Some(6), 1.0);
        // Everyone upstream of u2 (u0, u1) plus u2 itself is dirty; u3 was
        // only reachable *from* u2, and anyone who reaches u2 is covered.
        assert!(plan.is_dirty(u2));
        assert!(plan.is_dirty(next.agent_by_uri("http://ex.org/u1").unwrap()));
        assert!(plan.is_dirty(next.agent_by_uri("http://ex.org/u0").unwrap()));
        assert!(!plan.is_dirty(u3), "u3's own view never contained the edge");
    }
}
