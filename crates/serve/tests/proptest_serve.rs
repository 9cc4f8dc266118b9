//! Property tests for the serving layer's load-bearing invariants:
//!
//! 1. the sharded LRU never holds more entries than its capacity, whatever
//!    the operation sequence;
//! 2. an entry computed against an old snapshot generation is never served
//!    after a swap — lookups keyed by the current epoch only ever see
//!    values inserted at that epoch;
//! 3. admission control is exact (typed refusal carrying depth *and*
//!    capacity), with one class in use and with all three;
//! 4. weighted-fair dequeue never starves the lowest class beyond its
//!    weight bound, however the arrival mix is skewed.

use std::sync::Arc;

use proptest::prelude::*;

use semrec_core::{AgentId, ProductId, Recommendation};
use semrec_serve::{Priority, PushRefused, RecCache, WeightedFairQueue};

/// A recommendation list "stamped" with the epoch it was computed at, so a
/// cross-epoch leak is detectable from the value alone.
fn stamped(epoch: u64) -> Arc<Vec<Recommendation>> {
    Arc::new(vec![Recommendation {
        product: ProductId::from_index(0),
        score: epoch as f64,
        voters: 1,
    }])
}

proptest! {
    #[test]
    /// However the key space is hammered, the cache never exceeds its
    /// effective capacity (per-shard budget × shards) and the disabled
    /// cache never holds anything.
    fn lru_never_exceeds_capacity(
        capacity in 0usize..12,
        shards in 1usize..5,
        ops in prop::collection::vec(
            (0u64..3, 0usize..24, 1usize..4, any::<bool>()),
            1..120,
        ),
    ) {
        let cache = RecCache::new(capacity, shards);
        for (epoch, agent, n, is_insert) in ops {
            let key = (epoch, AgentId::from_index(agent), n);
            if is_insert {
                cache.insert(key, stamped(epoch));
            } else if let Some(hit) = cache.get(&key) {
                prop_assert_eq!(hit[0].score, epoch as f64);
            }
            prop_assert!(
                cache.len() <= cache.capacity(),
                "{} entries > capacity {}", cache.len(), cache.capacity()
            );
            if capacity == 0 {
                prop_assert!(cache.is_empty());
            }
        }
        // Accounting sanity: every eviction and invalidation corresponds to
        // an insert that is no longer resident.
        let stats = cache.stats();
        prop_assert!(stats.evictions as usize + cache.len() <= 120);
    }

    #[test]
    /// Swap safety: whatever interleaving of inserts, publishes, and
    /// lookups happens, a lookup under the current epoch never returns a
    /// value computed at an older epoch — and after `invalidate_before`,
    /// no pre-swap entry remains resident at all.
    fn no_stale_epoch_survives_a_swap(
        capacity in 1usize..16,
        shards in 1usize..4,
        ops in prop::collection::vec((0usize..24, 1usize..4, 0u8..8), 1..160),
    ) {
        let cache = RecCache::new(capacity, shards);
        let mut epoch = 1u64;
        for (agent, n, action) in ops {
            let key = (epoch, AgentId::from_index(agent), n);
            match action {
                // Swap: the next generation arrives, old entries die.
                0 => {
                    epoch += 1;
                    cache.invalidate_before(epoch);
                }
                // Lookup at the current epoch: any hit must carry the
                // current generation's stamp.
                1..=3 => {
                    if let Some(hit) = cache.get(&key) {
                        prop_assert_eq!(
                            hit[0].score, epoch as f64,
                            "epoch {} lookup returned a stale generation", epoch
                        );
                    }
                }
                // Insert at the current epoch.
                _ => cache.insert(key, stamped(epoch)),
            }
        }
    }

    #[test]
    /// With a single class in use (what `Server::submit` produces) the
    /// queue admits at most `capacity` items, refuses the rest with a
    /// typed rejection carrying the observed depth, never displaces, and
    /// hands back exactly what it admitted, in FIFO order.
    fn queue_admission_is_exact(
        capacity in 1usize..10,
        pushes in 0usize..25,
    ) {
        let queue = WeightedFairQueue::new(capacity);
        let mut admitted = Vec::new();
        for i in 0..pushes {
            match queue.push(Priority::Normal, i) {
                Ok(outcome) => {
                    admitted.push(i);
                    prop_assert!(outcome.depth <= capacity);
                    prop_assert!(outcome.displaced.is_none(), "one class never displaces");
                }
                Err((item, PushRefused::Full { depth, capacity: reported })) => {
                    prop_assert_eq!(item, i);
                    prop_assert_eq!(depth, capacity);
                    prop_assert_eq!(reported, capacity, "the refusal must name the capacity");
                }
                Err((_, PushRefused::Closed)) => unreachable!("queue never closed"),
            }
        }
        prop_assert_eq!(admitted.len(), pushes.min(capacity));
        prop_assert_eq!(queue.len(), admitted.len());
        queue.close();
        let mut drained = Vec::new();
        loop {
            let batch = queue.drain(3);
            if batch.is_empty() {
                break;
            }
            drained.extend(batch.into_iter().map(|(_, item)| item));
        }
        prop_assert_eq!(drained, admitted);
    }

    #[test]
    /// No-starvation bound for weighted-fair dequeue: while every class
    /// stays backlogged, any window of W = w_high + w_normal + w_low
    /// consecutive pops contains at least w_c pops of class c — so even the
    /// lowest class is guaranteed its weight share, whatever the weights.
    fn weighted_fair_dequeue_never_starves_a_backlogged_class(
        weights in (1u32..6, 1u32..6, 1u32..6),
        pops in 1usize..60,
    ) {
        let weights = [weights.0, weights.1, weights.2];
        let round: usize = weights.iter().map(|&w| w as usize).sum();
        // Backlog deep enough that no lane empties mid-run.
        let backlog = pops + round;
        let queue = WeightedFairQueue::with_weights(3 * backlog, weights);
        for i in 0..backlog as u32 {
            for class in Priority::ALL {
                queue.push(class, i).unwrap();
            }
        }
        let order: Vec<Priority> =
            queue.try_drain(pops).into_iter().map(|(class, _)| class).collect();
        prop_assert_eq!(order.len(), pops);
        for window in order.windows(round) {
            for class in Priority::ALL {
                let got = window.iter().filter(|&&c| c == class).count();
                let want = weights[class.index()] as usize;
                prop_assert!(
                    got >= want,
                    "class {} got {} of its {} guaranteed pops in a window of {}: {:?}",
                    class, got, want, round, window
                );
            }
        }
    }

    #[test]
    /// Displacement conservation: whatever classed push sequence hits a
    /// full queue, every admitted item is either still queued or was handed
    /// back as a displacement victim — nothing vanishes — and depth never
    /// exceeds capacity.
    fn classed_admission_conserves_items(
        capacity in 1usize..8,
        pushes in prop::collection::vec(0usize..3, 1..60),
    ) {
        let queue = WeightedFairQueue::new(capacity);
        let mut alive = std::collections::BTreeSet::new();
        let mut displaced = Vec::new();
        for (item, class_index) in pushes.into_iter().enumerate() {
            let item = item as u32;
            let class = Priority::ALL[class_index];
            match queue.push(class, item) {
                Ok(admitted) => {
                    alive.insert(item);
                    prop_assert!(admitted.depth <= capacity);
                    if let Some((victim_class, victim)) = admitted.displaced {
                        prop_assert!(victim_class > class, "only strictly lower classes displace");
                        prop_assert!(alive.remove(&victim), "victim must have been queued");
                        displaced.push(victim);
                    }
                }
                Err((item, PushRefused::Full { depth, capacity: reported })) => {
                    prop_assert_eq!(depth, capacity);
                    prop_assert_eq!(reported, capacity);
                    prop_assert!(!alive.contains(&item));
                }
                Err(_) => unreachable!("queue never closed"),
            }
            prop_assert!(queue.len() <= capacity);
        }
        let drained: std::collections::BTreeSet<u32> =
            queue.take_all().into_iter().map(|(_, item)| item).collect();
        prop_assert_eq!(drained, alive);
    }
}
