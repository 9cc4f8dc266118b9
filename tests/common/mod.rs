#![allow(dead_code)]
//! Helpers shared by the integration tests: the random-world builder,
//! the republish ops a source community is churned with, and a bit-exact
//! community rendering. Each test binary compiles its own copy and uses
//! part of it.

use proptest::prelude::*;
use semrec::core::Community;
use semrec::taxonomy::fixtures::example1;
use semrec::{AgentId, ProductId};

/// Builds a community over the Example 1 world from generated edge/rating
/// lists (indexes taken modulo the population).
pub fn build(
    n_agents: usize,
    trust: &[(usize, usize, f64)],
    ratings: &[(usize, usize, f64)],
) -> Community {
    let e = example1();
    let mut c = Community::new(e.fig.taxonomy, e.catalog);
    let agents: Vec<AgentId> = (0..n_agents)
        .map(|i| c.add_agent(format!("http://ex.org/u{i}")).unwrap())
        .collect();
    for &(a, b, w) in trust {
        let (a, b) = (a % n_agents, b % n_agents);
        if a != b {
            c.trust.set_trust(agents[a], agents[b], w).unwrap();
        }
    }
    let m = c.catalog.len();
    for &(a, p, r) in ratings {
        c.set_rating(agents[a % n_agents], ProductId::from_index(p % m), r).unwrap();
    }
    c
}

/// One republish operation against the source community. Indexes are taken
/// modulo the current population / catalog inside `apply`.
#[derive(Clone, Debug)]
pub enum Op {
    SetRating(usize, usize, f64),
    RemoveRating(usize, usize),
    SetTrust(usize, usize, f64),
    RemoveTrust(usize, usize),
    AddAgent(usize, f64),
}

pub fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..16, 0usize..4, -1.0f64..=1.0).prop_map(|(a, p, r)| Op::SetRating(a, p, r)),
        (0usize..16, 0usize..4).prop_map(|(a, p)| Op::RemoveRating(a, p)),
        (0usize..16, 0usize..16, -1.0f64..=1.0).prop_map(|(a, b, w)| Op::SetTrust(a, b, w)),
        (0usize..16, 0usize..16).prop_map(|(a, b)| Op::RemoveTrust(a, b)),
        (0usize..16, 0.1f64..=1.0).prop_map(|(a, w)| Op::AddAgent(a, w)),
    ]
}

/// Applies one op to the source community and returns the agents whose
/// homepages it (possibly) changed, so the caller can republish exactly
/// those documents — the realistic churn pattern the refresh crawler sees.
pub fn apply(source: &mut Community, op: &Op, extra: &mut usize) -> Vec<AgentId> {
    let n = source.agent_count();
    let m = source.catalog.len();
    match *op {
        Op::SetRating(a, p, r) => {
            let a = AgentId::from_index(a % n);
            source.set_rating(a, ProductId::from_index(p % m), r).unwrap();
            vec![a]
        }
        Op::RemoveRating(a, p) => {
            let a = AgentId::from_index(a % n);
            source.remove_rating(a, ProductId::from_index(p % m));
            vec![a]
        }
        Op::SetTrust(a, b, w) => {
            let (a, b) = (AgentId::from_index(a % n), AgentId::from_index(b % n));
            if a == b {
                return Vec::new();
            }
            source.trust.set_trust(a, b, w).unwrap();
            vec![a]
        }
        Op::RemoveTrust(a, b) => {
            let (a, b) = (AgentId::from_index(a % n), AgentId::from_index(b % n));
            source.trust.remove_trust(a, b);
            vec![a]
        }
        Op::AddAgent(a, w) => {
            let truster = AgentId::from_index(a % n);
            *extra += 1;
            let added = source.add_agent(format!("http://ex.org/extra{extra}")).unwrap();
            source.trust.set_trust(truster, added, w).unwrap();
            // The new homepage plus the truster's changed trust section.
            vec![truster, added]
        }
    }
}

/// Renders a community byte-for-byte: URIs in id order, trust weights and
/// rating values down to the bit.
pub fn render(c: &Community) -> String {
    let mut out = String::new();
    for agent in c.agents() {
        out.push_str(&c.agent(agent).unwrap().uri);
        out.push(':');
        for &(t, w) in c.trust.out_edges(agent) {
            out.push_str(&format!(" t{}={}", t.index(), w.to_bits()));
        }
        for &(p, r) in c.ratings_of(agent) {
            out.push_str(&format!(" r{}={}", p.index(), r.to_bits()));
        }
        out.push('\n');
    }
    out
}
