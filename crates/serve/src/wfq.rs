//! A bounded weighted-fair queue over priority classes.
//!
//! The server's overload valve: one FIFO lane per [`Priority`], a shared
//! capacity across lanes that [`WeightedFairQueue::push`] refuses (instead
//! of blocking) to exceed, and a deficit-round-robin dequeue that hands each
//! class a service share proportional to its weight whenever it is
//! backlogged. Consumers drain in micro-batches — one lock acquisition hands
//! a worker up to `max` requests, which is what makes per-batch snapshot
//! pinning cheap. Dequeue order is a pure function of the push sequence — no
//! wall time, no randomness — so a serving schedule built on it is
//! reproducible.
//!
//! Two deliberate asymmetries:
//!
//! * **Within a credit round, classes are served in strict-priority
//!   order** (`High` before `Normal` before `Low`), so urgency shapes
//!   *latency* while the credits shape *throughput share*: a backlogged
//!   class can never be starved beyond its weight bound (see the
//!   no-starvation proptest), but the urgent class always goes first
//!   inside the round.
//! * **At capacity, a higher-class push may displace the newest queued
//!   request of a strictly lower class** instead of being refused — the
//!   victim is handed back to the caller to shed with a typed error, so
//!   nothing silently disappears.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

use crate::class::Priority;

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushRefused {
    /// The queue was at capacity (admission control).
    Full {
        /// Depth observed at refusal.
        depth: usize,
        /// The configured capacity the depth ran into — without it, a shed
        /// diagnostic can't tell "tiny queue" from "huge backlog".
        capacity: usize,
    },
    /// The queue was closed.
    Closed,
}

/// Outcome of a successful [`WeightedFairQueue::push`].
#[derive(Debug)]
pub struct Admitted<T> {
    /// Total queued depth after the push.
    pub depth: usize,
    /// A lower-class item evicted to make room, if the queue was at
    /// capacity. The caller owns shedding it (typed error, counters).
    pub displaced: Option<(Priority, T)>,
}

#[derive(Debug)]
struct Inner<T> {
    lanes: [VecDeque<T>; Priority::COUNT],
    credits: [u32; Priority::COUNT],
    closed: bool,
}

impl<T> Inner<T> {
    fn depth(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }
}

/// A bounded multi-producer / multi-consumer queue with per-class lanes and
/// weighted-fair (deficit round-robin) dequeue.
#[derive(Debug)]
pub struct WeightedFairQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    capacity: usize,
    weights: [u32; Priority::COUNT],
}

impl<T> WeightedFairQueue<T> {
    /// An open queue with shared `capacity` and the default 4/2/1 weights.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        WeightedFairQueue::with_weights(capacity, Priority::DEFAULT_WEIGHTS)
    }

    /// An open queue with caller-chosen per-class weights (each ≥ 1, so no
    /// class can be configured into total starvation).
    ///
    /// # Panics
    /// Panics if `capacity == 0` or any weight is 0.
    pub fn with_weights(capacity: usize, weights: [u32; Priority::COUNT]) -> Self {
        assert!(capacity > 0, "queue capacity must be at least 1");
        assert!(weights.iter().all(|&w| w > 0), "every class weight must be at least 1");
        WeightedFairQueue {
            inner: Mutex::new(Inner {
                lanes: Default::default(),
                // Start mid-round with a full allowance, refilled on
                // exhaustion; starting empty would only add a refill.
                credits: weights,
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity,
            weights,
        }
    }

    /// The shared capacity across all lanes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The per-class service weights, aligned with [`Priority::ALL`].
    pub fn weights(&self) -> [u32; Priority::COUNT] {
        self.weights
    }

    /// Total queued depth (racy by nature; exact under the lock only).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().depth()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queued depth per class, aligned with [`Priority::ALL`].
    pub fn class_depths(&self) -> [usize; Priority::COUNT] {
        let inner = self.inner.lock().unwrap();
        let mut depths = [0; Priority::COUNT];
        for (lane, depth) in inner.lanes.iter().zip(&mut depths) {
            *depth = lane.len();
        }
        depths
    }

    /// Admits `item` into `class`'s lane. At capacity, displaces the newest
    /// queued item of the *lowest* backlogged class strictly below `class`
    /// (it would have been served last anyway) and hands the victim back;
    /// with no lower class to displace, refuses with
    /// [`PushRefused::Full`].
    pub fn push(&self, class: Priority, item: T) -> Result<Admitted<T>, (T, PushRefused)> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err((item, PushRefused::Closed));
        }
        let depth = inner.depth();
        let mut displaced = None;
        if depth >= self.capacity {
            // Scan strictly-lower classes from the bottom up.
            let victim_lane = Priority::ALL[class.index() + 1..]
                .iter()
                .rev()
                .find(|victim| !inner.lanes[victim.index()].is_empty())
                .copied();
            match victim_lane {
                Some(victim) => {
                    let item = inner.lanes[victim.index()].pop_back().expect("non-empty lane");
                    displaced = Some((victim, item));
                }
                None => {
                    return Err((item, PushRefused::Full { depth, capacity: self.capacity }));
                }
            }
        }
        inner.lanes[class.index()].push_back(item);
        let depth = inner.depth();
        drop(inner);
        self.not_empty.notify_one();
        Ok(Admitted { depth, displaced })
    }

    /// Removes the next item in deficit-round-robin order. Must hold the
    /// lock; `None` iff every lane is empty.
    fn pop_locked(&self, inner: &mut Inner<T>) -> Option<(Priority, T)> {
        loop {
            let mut backlogged = false;
            for class in Priority::ALL {
                let lane = class.index();
                if inner.lanes[lane].is_empty() {
                    continue;
                }
                backlogged = true;
                if inner.credits[lane] > 0 {
                    inner.credits[lane] -= 1;
                    let item = inner.lanes[lane].pop_front().expect("checked non-empty");
                    return Some((class, item));
                }
            }
            if !backlogged {
                return None;
            }
            // Every backlogged class exhausted its round: refill.
            inner.credits = self.weights;
        }
    }

    /// Blocks until at least one item is queued (or the queue is closed),
    /// then removes up to `max` items in weighted-fair order. An empty
    /// vector means closed *and* drained — the consumer should exit.
    pub fn drain(&self, max: usize) -> Vec<(Priority, T)> {
        let max = max.max(1);
        let mut inner = self.inner.lock().unwrap();
        loop {
            if inner.depth() > 0 {
                let mut batch = Vec::with_capacity(max.min(inner.depth()));
                while batch.len() < max {
                    match self.pop_locked(&mut inner) {
                        Some(item) => batch.push(item),
                        None => break,
                    }
                }
                if inner.depth() > 0 {
                    self.not_empty.notify_one();
                }
                return batch;
            }
            if inner.closed {
                return Vec::new();
            }
            inner = self.not_empty.wait(inner).unwrap();
        }
    }

    /// Removes up to `max` items in weighted-fair order without blocking —
    /// the lockstep serving path, where the caller *is* the schedule.
    pub fn try_drain(&self, max: usize) -> Vec<(Priority, T)> {
        let mut inner = self.inner.lock().unwrap();
        let mut batch = Vec::new();
        while batch.len() < max {
            match self.pop_locked(&mut inner) {
                Some(item) => batch.push(item),
                None => break,
            }
        }
        batch
    }

    /// Closes the queue: future pushes are refused, and once drained every
    /// blocked consumer wakes with an empty batch.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.not_empty.notify_all();
    }

    /// Removes and returns everything queued right now (weighted-fair
    /// order), without blocking. Shutdown uses this to answer leftovers.
    pub fn take_all(&self) -> Vec<(Priority, T)> {
        let mut inner = self.inner.lock().unwrap();
        let mut all = Vec::with_capacity(inner.depth());
        while let Some(item) = self.pop_locked(&mut inner) {
            all.push(item);
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drained_classes(queue: &WeightedFairQueue<u32>, max: usize) -> Vec<Priority> {
        queue.try_drain(max).into_iter().map(|(class, _)| class).collect()
    }

    #[test]
    fn drr_shares_service_by_weight() {
        // 4/2/1 weights, everything backlogged: one full round serves
        // H,H,H,H,N,N,L — high first within the round, but never more than
        // its credit allowance.
        let queue = WeightedFairQueue::new(64);
        for i in 0..8u32 {
            queue.push(Priority::High, i).unwrap();
            queue.push(Priority::Normal, 100 + i).unwrap();
            queue.push(Priority::Low, 200 + i).unwrap();
        }
        let order = drained_classes(&queue, 7);
        assert_eq!(
            order,
            vec![
                Priority::High,
                Priority::High,
                Priority::High,
                Priority::High,
                Priority::Normal,
                Priority::Normal,
                Priority::Low,
            ]
        );
        // The next round repeats the pattern.
        assert_eq!(drained_classes(&queue, 7)[0], Priority::High);
    }

    #[test]
    fn fifo_within_a_class() {
        let queue = WeightedFairQueue::new(16);
        for i in 0..4u32 {
            queue.push(Priority::Normal, i).unwrap();
        }
        let items: Vec<u32> = queue.try_drain(8).into_iter().map(|(_, v)| v).collect();
        assert_eq!(items, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_lanes_do_not_stall_the_round() {
        let queue = WeightedFairQueue::new(16);
        for i in 0..6u32 {
            queue.push(Priority::Low, i).unwrap();
        }
        // Only Low is backlogged: it gets every slot despite weight 1.
        assert_eq!(queue.try_drain(6).len(), 6);
    }

    #[test]
    fn displacement_evicts_the_newest_lowest_item() {
        let queue = WeightedFairQueue::new(3);
        queue.push(Priority::Low, 1u32).unwrap();
        queue.push(Priority::Low, 2).unwrap();
        queue.push(Priority::Normal, 3).unwrap();
        // Full. A High push displaces Low's newest (2), not its oldest.
        let admitted = queue.push(Priority::High, 4).unwrap();
        assert_eq!(admitted.depth, 3);
        let (victim_class, victim) = admitted.displaced.expect("must displace");
        assert_eq!(victim_class, Priority::Low);
        assert_eq!(victim, 2);
        // A Low push at capacity cannot displace anyone.
        match queue.push(Priority::Low, 5) {
            Err((5, PushRefused::Full { depth, capacity })) => {
                assert_eq!(depth, 3);
                assert_eq!(capacity, 3);
            }
            other => panic!("expected Full, got {other:?}"),
        }
        // Normal can displace Low but not Normal.
        let admitted = queue.push(Priority::Normal, 6).unwrap();
        assert_eq!(admitted.displaced.expect("displaces remaining Low").1, 1);
        match queue.push(Priority::Normal, 7) {
            Err((7, PushRefused::Full { .. })) => {}
            other => panic!("no lower class left, expected Full, got {other:?}"),
        }
    }

    #[test]
    fn close_then_drain_hands_out_leftovers_then_empties() {
        let queue = WeightedFairQueue::new(8);
        queue.push(Priority::High, 1u32).unwrap();
        queue.push(Priority::Low, 2).unwrap();
        queue.close();
        assert!(matches!(queue.push(Priority::High, 3), Err((3, PushRefused::Closed))));
        assert_eq!(queue.drain(8).len(), 2);
        assert!(queue.drain(8).is_empty(), "closed + empty ends the consumer");
    }

    #[test]
    fn blocked_consumers_wake_on_close() {
        let queue = std::sync::Arc::new(WeightedFairQueue::<u32>::new(4));
        let consumer = {
            let queue = std::sync::Arc::clone(&queue);
            std::thread::spawn(move || queue.drain(4))
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        queue.close();
        assert!(consumer.join().unwrap().is_empty());
    }

    #[test]
    fn concurrent_producers_and_consumers_lose_nothing() {
        let queue = WeightedFairQueue::<u64>::new(64);
        let produced = 4 * 500u64;
        let mut consumed = Vec::new();
        std::thread::scope(|scope| {
            let consumers: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(|| {
                        let mut got = Vec::new();
                        loop {
                            let batch = queue.drain(7);
                            if batch.is_empty() {
                                return got;
                            }
                            got.extend(batch.into_iter().map(|(_, item)| item));
                        }
                    })
                })
                .collect();
            let producers: Vec<_> = (0..4)
                .map(|p| {
                    let queue = &queue;
                    scope.spawn(move || {
                        for i in 0..500u64 {
                            let mut item = p * 1000 + i;
                            // Retry on Full: this test checks conservation,
                            // not admission control.
                            loop {
                                match queue.push(Priority::Normal, item) {
                                    Ok(admitted) => {
                                        assert!(admitted.displaced.is_none());
                                        break;
                                    }
                                    Err((back, PushRefused::Full { .. })) => {
                                        item = back;
                                        std::thread::yield_now();
                                    }
                                    Err((_, PushRefused::Closed)) => panic!("closed early"),
                                }
                            }
                        }
                    })
                })
                .collect();
            for producer in producers {
                producer.join().unwrap();
            }
            queue.close();
            for consumer in consumers {
                consumed.extend(consumer.join().unwrap());
            }
        });
        consumed.sort_unstable();
        assert_eq!(consumed.len() as u64, produced);
        consumed.dedup();
        assert_eq!(consumed.len() as u64, produced, "no item may be duplicated");
    }

    #[test]
    fn class_depths_track_lanes() {
        let queue = WeightedFairQueue::new(8);
        queue.push(Priority::High, 1u32).unwrap();
        queue.push(Priority::Low, 2).unwrap();
        queue.push(Priority::Low, 3).unwrap();
        assert_eq!(queue.class_depths(), [1, 0, 2]);
        assert_eq!(queue.len(), 3);
        assert_eq!(queue.take_all().len(), 3);
        assert!(queue.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_is_rejected() {
        let _ = WeightedFairQueue::<u32>::new(0);
    }

    #[test]
    #[should_panic(expected = "weight must be at least 1")]
    fn zero_weight_is_rejected() {
        let _ = WeightedFairQueue::<u32>::with_weights(4, [4, 0, 1]);
    }
}
