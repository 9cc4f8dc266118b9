//! Correctness checks on the answers the benchmark times. A wrong answer
//! counts as a failed operation.

use std::collections::BTreeMap;

use semrec::core::Recommendation;
use semrec::{AgentId, Recommender};

use crate::layers;
use crate::load::Sample;
use crate::trace::Tracer;

/// Product for product, and score bit for bit.
pub fn identical(a: &[Recommendation], b: &[Recommendation]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.product == y.product && x.score.to_bits() == y.score.to_bits() && x.voters == y.voters
        })
}

/// The rule `tests/proptest_sharding.rs` pins for more than one shard: the
/// cross-shard exchange only reassociates floating-point additions, so
/// lists agree in product order with scores within 1e-6, and two products
/// may swap places only when both sit within 1e-6 of the cut-off score.
pub fn within_shard_epsilon(monolith: &[Recommendation], sharded: &[Recommendation]) -> bool {
    const EPSILON: f64 = 1e-6;
    let cutoff = monolith.last().map_or(0.0, |r| r.score);
    monolith.len() == sharded.len()
        && monolith.iter().zip(sharded).all(|(m, s)| {
            if m.product == s.product {
                (m.score - s.score).abs() <= EPSILON
            } else {
                (m.score - cutoff).abs() <= EPSILON && (s.score - cutoff).abs() <= EPSILON
            }
        })
}

/// What a round of checking found.
#[derive(Default)]
pub struct Verdict {
    pub checked: u64,
    pub wrong: u64,
}

/// Checks served answers against direct `Recommender::recommend` calls on
/// `engine`, the engine of generation `epoch`. A direct call costs as much
/// as a cache miss, so at most `budget` distinct agents are recomputed,
/// spread evenly over the agents sampled; every sample of such an agent is
/// compared. With tracing on, the request is also replayed stage by stage
/// and the replay must give the same answer.
pub fn verify(
    tr: &mut Tracer,
    engine: &Recommender,
    epoch: u64,
    samples: &[Sample],
    budget: usize,
    top_n: usize,
) -> Verdict {
    let mut verdict = Verdict::default();
    let mut by_agent: BTreeMap<AgentId, Vec<&Sample>> = BTreeMap::new();
    for sample in samples {
        if sample.epoch == epoch {
            by_agent.entry(sample.agent).or_default().push(sample);
        } else {
            // Every phase this is called for runs under one generation.
            verdict.checked += 1;
            verdict.wrong += 1;
        }
    }
    let stride = by_agent.len().div_ceil(budget.max(1)).max(1);
    for (turn, (agent, served)) in by_agent.into_iter().step_by(stride).enumerate() {
        // Whichever of the direct call and the replay runs second finds the
        // caches warm, so they take turns going first.
        let replay_first = tr.enabled() && turn % 2 == 1;
        let early = replay_first.then(|| layers::replay(tr, engine, agent, top_n).0);
        let expected = layers::request(tr, engine, agent, top_n);
        let late =
            (tr.enabled() && !replay_first).then(|| layers::replay(tr, engine, agent, top_n).0);
        if let Some(replayed) = early.or(late) {
            verdict.checked += 1;
            verdict.wrong += u64::from(!identical(&replayed, &expected));
        }
        for sample in served {
            verdict.checked += 1;
            verdict.wrong += u64::from(!identical(&sample.recommendations, &expected));
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use semrec::ProductId;

    fn rec(product: usize, score: f64) -> Recommendation {
        Recommendation {
            product: ProductId::from_index(product),
            score,
            voters: 1,
        }
    }

    #[test]
    fn identical_compares_score_bits() {
        let a = [rec(1, 0.1 + 0.2), rec(2, 0.5)];
        assert!(identical(&a, &a.clone()));
        assert!(!identical(&a, &[rec(1, 0.3), rec(2, 0.5)]));
        assert!(!identical(&a, &a[..1]));
    }

    #[test]
    fn shard_epsilon_allows_reassociation_and_cutoff_ties_only() {
        let monolith = [rec(1, 0.9), rec(2, 0.5), rec(3, 0.5)];
        assert!(within_shard_epsilon(
            &monolith,
            &[rec(1, 0.9 + 1e-9), rec(3, 0.5), rec(2, 0.5)]
        ));
        assert!(!within_shard_epsilon(
            &monolith,
            &[rec(2, 0.9), rec(1, 0.5), rec(3, 0.5)]
        ));
        assert!(!within_shard_epsilon(
            &monolith,
            &[rec(1, 0.9 + 1e-3), rec(2, 0.5), rec(3, 0.5)]
        ));
    }
}
