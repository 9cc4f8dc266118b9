//! Epoch-versioned model snapshots with hot swap.
//!
//! A [`ModelSnapshot`] is one immutable generation of the model: the
//! `Arc`-shared community/profiles/config state behind a
//! [`Recommender`], tagged with a monotonically
//! increasing epoch. The [`SnapshotSwitch`] holds the current snapshot and
//! swaps it atomically: readers [`pin`](SnapshotSwitch::pin) the snapshot
//! they start with and keep computing against it while a crawl/refresh
//! round [`publish`](SnapshotSwitch::publish)es the next one — no request
//! is ever paused or dropped by a swap, and the old generation is freed as
//! soon as its last reader drops the `Arc`.

use std::sync::{Arc, RwLock};

use semrec_core::{Recommender, SharedModel};

/// One immutable, epoch-tagged generation of the recommendation model.
#[derive(Clone, Debug)]
pub struct ModelSnapshot {
    epoch: u64,
    engine: Recommender,
}

impl ModelSnapshot {
    /// The generation number. Epochs start at 1 and only grow.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The engine serving this generation.
    pub fn engine(&self) -> &Recommender {
        &self.engine
    }

    /// The shared model state behind the engine (cheap `Arc` clone).
    pub fn model(&self) -> Arc<SharedModel> {
        self.engine.shared()
    }
}

/// The swap point: the single place the "current" snapshot lives.
///
/// Reads take a short `RwLock` read guard only long enough to clone an
/// `Arc`; computation happens entirely outside the lock, against the
/// pinned generation.
#[derive(Debug)]
pub struct SnapshotSwitch {
    current: RwLock<Arc<ModelSnapshot>>,
}

impl SnapshotSwitch {
    /// Installs `engine` as epoch 1.
    pub fn new(engine: Recommender) -> Self {
        Self::new_at(engine, 1)
    }

    /// Installs `engine` as a caller-chosen starting epoch (clamped to at
    /// least 1 — epochs start at 1 and only grow).
    ///
    /// This is the warm-start entry point: a node recovering from a
    /// durable checkpoint (see `semrec-store`) resumes at the epoch its
    /// persisted model had reached, so epoch-keyed cache semantics line up
    /// with a node that never restarted.
    pub fn new_at(engine: Recommender, epoch: u64) -> Self {
        let snapshot = Arc::new(ModelSnapshot { epoch: epoch.max(1), engine });
        SnapshotSwitch { current: RwLock::new(snapshot) }
    }

    /// Pins the current generation: the returned `Arc` stays valid (and
    /// byte-identical in behaviour) however many swaps happen after.
    pub fn pin(&self) -> Arc<ModelSnapshot> {
        Arc::clone(&self.current.read().unwrap())
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.current.read().unwrap().epoch
    }

    /// Atomically installs `engine` as the next generation and returns its
    /// epoch. In-flight readers keep the generation they pinned; the old
    /// snapshot is dropped when the last of them finishes.
    pub fn publish(&self, engine: Recommender) -> u64 {
        let mut current = self.current.write().unwrap();
        let epoch = current.epoch + 1;
        *current = Arc::new(ModelSnapshot { epoch, engine });
        epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Weak;

    use semrec_core::{Community, RecommenderConfig};
    use semrec_taxonomy::fixtures::example1;

    fn engine() -> Recommender {
        let e = example1();
        let products: Vec<_> = e.catalog.iter().collect();
        let mut c = Community::new(e.fig.taxonomy, e.catalog);
        let a = c.add_agent("http://ex.org/a").unwrap();
        let b = c.add_agent("http://ex.org/b").unwrap();
        c.trust.set_trust(a, b, 0.9).unwrap();
        c.set_rating(b, products[0], 1.0).unwrap();
        Recommender::new(c, RecommenderConfig::default())
    }

    #[test]
    fn epochs_start_at_one_and_grow() {
        let switch = SnapshotSwitch::new(engine());
        assert_eq!(switch.epoch(), 1);
        assert_eq!(switch.publish(engine()), 2);
        assert_eq!(switch.publish(engine()), 3);
        assert_eq!(switch.pin().epoch(), 3);
    }

    #[test]
    fn warm_start_resumes_at_the_persisted_epoch() {
        let switch = SnapshotSwitch::new_at(engine(), 7);
        assert_eq!(switch.epoch(), 7);
        assert_eq!(switch.publish(engine()), 8);
        // Epochs start at 1 even if a caller passes a bogus 0.
        assert_eq!(SnapshotSwitch::new_at(engine(), 0).epoch(), 1);
    }

    #[test]
    fn pinned_readers_keep_their_generation_across_swaps() {
        let switch = SnapshotSwitch::new(engine());
        let pinned = switch.pin();
        switch.publish(engine());
        switch.publish(engine());
        assert_eq!(pinned.epoch(), 1, "a pin is immune to later swaps");
        assert_eq!(switch.pin().epoch(), 3);
        // The pinned engine still answers.
        let target = pinned.engine().community().agent_by_uri("http://ex.org/a").unwrap();
        assert!(!pinned.engine().recommend(target, 5).unwrap().is_empty());
    }

    #[test]
    fn old_generation_drops_when_its_last_reader_finishes() {
        let switch = SnapshotSwitch::new(engine());
        let pinned = switch.pin();
        let weak: Weak<ModelSnapshot> = Arc::downgrade(&pinned);
        switch.publish(engine());
        assert!(weak.upgrade().is_some(), "reader still holds epoch 1");
        drop(pinned);
        assert!(weak.upgrade().is_none(), "last reader gone → epoch 1 freed");
    }

    #[test]
    fn readers_see_either_the_old_or_the_new_generation_never_neither() {
        let switch = std::sync::Arc::new(SnapshotSwitch::new(engine()));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let switch = std::sync::Arc::clone(&switch);
                scope.spawn(move || {
                    for _ in 0..500 {
                        let epoch = switch.pin().epoch();
                        assert!((1..=9).contains(&epoch));
                    }
                });
            }
            for _ in 0..8 {
                switch.publish(engine());
            }
        });
        assert_eq!(switch.epoch(), 9);
    }
}
