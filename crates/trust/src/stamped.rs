//! The dense stamped index: a table from dense ids to `u32` values that
//! empties in O(1).
//!
//! Every per-thread scratch in the workspace that maps dense ids to small
//! integers for the span of one query is a [`StampedIndex`]: the Appleseed
//! kernel's agent → wave-index table, the sharded kernel's member →
//! wave-index and ghost → slot tables, the vote tally's product → slot
//! table and the spreading ranker's agent → universe-index table.
//!
//! **The idiom.** Beside each value sits the *generation* that wrote it, and
//! a value is present iff its stamp equals the current generation. Starting
//! a query is one increment of the generation, not a clear: a query costs
//! what it touches, whatever the id space, and a warm table allocates
//! nothing. The table keeps eight bytes per id of the largest id space it
//! has been reset for.
//!
//! **The wrap rule.** Stamps start at 0 and the generation never rests at 0.
//! When the increment wraps it to 0, every stamp is zeroed and the
//! generation restarts at 1, so an entry written 2³² resets ago can never
//! reappear. This module is the only code that bumps a generation.

/// A dense `id → u32` table whose [`reset`](StampedIndex::reset) is O(1);
/// see the module docs.
#[derive(Clone, Debug, Default)]
pub struct StampedIndex {
    /// `(stamp, value)` per id: `value` is present iff `stamp == generation`.
    slots: Vec<(u32, u32)>,
    generation: u32,
}

impl StampedIndex {
    /// Forgets every entry and makes room for ids `0..ids`.
    #[inline]
    pub fn reset(&mut self, ids: usize) {
        if self.slots.len() < ids {
            self.slots.resize(ids, (0, 0));
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.slots.fill((0, 0));
            self.generation = 1;
        }
    }

    /// The value stored for `id` since the last reset, if any. `id` must be
    /// below the size of the last reset.
    #[inline]
    pub fn get(&self, id: usize) -> Option<u32> {
        let (stamp, value) = self.slots[id];
        (stamp == self.generation).then_some(value)
    }

    /// Stores `value` for `id` until the next reset. `id` must be below the
    /// size of the last reset.
    #[inline]
    pub fn insert(&mut self, id: usize, value: u32) {
        self.slots[id] = (self.generation, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_never_outlive_their_reset_even_across_a_wrap() {
        let mut index = StampedIndex::default();
        index.reset(4);
        index.insert(1, 7);
        assert_eq!((index.get(1), index.get(2)), (Some(7), None));
        index.reset(4);
        assert_eq!(index.get(1), None, "a reset hides what the query before it wrote");

        // An entry from generation 1, then the generation run up to the
        // wrap as 2³² − 3 more resets would: neither the entry from long
        // ago nor the one from just before the wrap may reappear after it.
        index.insert(2, 5);
        index.generation = u32::MAX - 1;
        index.reset(4);
        index.insert(3, 9);
        assert_eq!(index.get(3), Some(9));
        index.reset(4);
        assert_eq!(index.generation, 1, "wrapped past 0 to 1");
        assert!((0..4).all(|id| index.get(id).is_none()));

        // A larger id space grows the table; the old ids stay empty.
        index.reset(10);
        index.insert(9, 4);
        index.insert(0, 6);
        let present: Vec<_> = (0..10).filter_map(|id| Some((id, index.get(id)?))).collect();
        assert_eq!(present, [(0, 6), (9, 4)]);
    }
}
