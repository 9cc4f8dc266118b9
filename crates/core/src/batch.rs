//! Parallel batch recommendation.
//!
//! Each agent's pipeline is independent (all state is read-only once the
//! profile store is built), so batch evaluation fans out across std scoped
//! threads. Experiments E6/E8 evaluate thousands of agents per
//! configuration; this is their throughput engine.
//!
//! The batch records into the books of the engine it was handed
//! ([`Recommender::metrics`]): `batch.tasks` counts every completed target
//! across all workers; `batch.worker.<i>.tasks` splits that by worker so
//! per-thread throughput is visible (the worker counters always sum to
//! `batch.tasks`, whatever the thread count); `batch.threads` is the last
//! call's fan-out.

use std::thread;

use semrec_trust::AgentId;

use crate::engine::Recommender;
use crate::error::Result;
use crate::recommend::Recommendation;

/// Computes top-`n` recommendations for many agents in parallel.
///
/// Results are returned in input order. `threads = 0` or `1` runs inline.
pub fn recommend_batch(
    recommender: &Recommender,
    targets: &[AgentId],
    n: usize,
    threads: usize,
) -> Vec<Result<Vec<Recommendation>>> {
    let books = recommender.books();
    // One worker's share: its `batch.worker.<i>.tasks` name is resolved
    // once, before its first target.
    let run = |worker_index: usize, part: &[AgentId]| {
        let worker = books.registry.counter(&format!("batch.worker.{worker_index}.tasks"));
        part.iter()
            .map(|&a| {
                let result = recommender.recommend(a, n);
                books.batch_tasks.inc();
                worker.inc();
                result
            })
            .collect::<Vec<_>>()
    };
    if threads <= 1 || targets.len() <= 1 {
        books.batch_threads.set(1.0);
        return run(0, targets);
    }
    books.batch_threads.set(threads as f64);
    let chunk = targets.len().div_ceil(threads);
    let run = &run;
    thread::scope(|scope| {
        let handles: Vec<_> = targets
            .chunks(chunk)
            .enumerate()
            .map(|(worker_index, part)| scope.spawn(move || run(worker_index, part)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("batch worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RecommenderConfig;
    use crate::model::Community;
    use semrec_taxonomy::fixtures::example1;

    fn build() -> (Recommender, Vec<AgentId>) {
        let e = example1();
        let products: Vec<_> = e.catalog.iter().collect();
        let mut c = Community::new(e.fig.taxonomy, e.catalog);
        let agents: Vec<AgentId> = (0..12)
            .map(|i| c.add_agent(format!("http://ex.org/u{i}")).unwrap())
            .collect();
        for i in 0..12 {
            c.trust.set_trust(agents[i], agents[(i + 1) % 12], 0.9).unwrap();
            c.set_rating(agents[i], products[i % 4], 1.0).unwrap();
        }
        (Recommender::new(c, RecommenderConfig::default()), agents)
    }

    #[test]
    fn parallel_matches_sequential() {
        let (rec, agents) = build();
        let seq = recommend_batch(&rec, &agents, 5, 1);
        let par = recommend_batch(&rec, &agents, 5, 4);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(par.iter()) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
    }

    #[test]
    fn preserves_input_order() {
        let (rec, agents) = build();
        let reversed: Vec<_> = agents.iter().rev().copied().collect();
        let out = recommend_batch(&rec, &reversed, 3, 3);
        let direct: Vec<_> = reversed.iter().map(|&a| rec.recommend(a, 3).unwrap()).collect();
        for (got, want) in out.iter().zip(direct.iter()) {
            assert_eq!(got.as_ref().unwrap(), want);
        }
    }

    #[test]
    fn more_threads_than_targets() {
        let (rec, agents) = build();
        let out = recommend_batch(&rec, &agents[..2], 3, 64);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn empty_targets() {
        let (rec, _) = build();
        assert!(recommend_batch(&rec, &[], 3, 4).is_empty());
    }

    #[test]
    fn task_counter_advances_by_target_count() {
        let (rec, agents) = build();
        recommend_batch(&rec, &agents, 3, 4);
        assert_eq!(rec.metrics().counters["batch.tasks"], agents.len() as u64);
    }
}
