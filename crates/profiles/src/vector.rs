//! Sparse score vectors over taxonomy topics.
//!
//! Interest profiles map category score vectors from the taxonomy `C`
//! "instead of plain product-rating vectors" (§3.3). Profiles are sparse —
//! a user's score mass concentrates in a few branches — so they are stored
//! as sorted topic/score pairs with merge-based vector operations.
//!
//! Since the arena refactor the pairs live in structure-of-arrays form:
//! one sorted `u32` topic array and one parallel `f64` score array. That
//! makes an owned [`ProfileVector`] and a borrowed [`ProfileView`] into a
//! [`ProfileSlab`](crate::slab::ProfileSlab) range the *same shape*, so
//! every read operation (norms, dots, merges) is written once against the
//! view and traverses both layouts in the identical order — results are
//! bit-for-bit the same wherever the floats happen to live.

use semrec_taxonomy::TopicId;

/// A sparse vector of topic scores, sorted by topic id (owned storage).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileVector {
    topics: Vec<u32>,
    scores: Vec<f64>,
}

/// A borrowed, `Copy` view of a profile: the sorted topic ids and their
/// parallel scores. This is what [`ProfileStore`](`crate`)-style slabs
/// hand out per agent, and what all similarity math consumes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProfileView<'a> {
    topics: &'a [u32],
    scores: &'a [f64],
}

impl ProfileVector {
    /// Creates an empty (all-zero) vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a vector from unsorted `(topic, score)` pairs, summing duplicates
    /// and dropping zeros.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (TopicId, f64)>) -> Self {
        let mut entries: Vec<(u32, f64)> =
            pairs.into_iter().map(|(t, s)| (t.index() as u32, s)).collect();
        entries.sort_by_key(|&(t, _)| t);
        let mut topics: Vec<u32> = Vec::with_capacity(entries.len());
        let mut scores: Vec<f64> = Vec::with_capacity(entries.len());
        for (t, s) in entries {
            match topics.last() {
                Some(&last) if last == t => *scores.last_mut().expect("parallel arrays") += s,
                _ => {
                    topics.push(t);
                    scores.push(s);
                }
            }
        }
        let mut merged = ProfileVector { topics, scores };
        merged.retain_nonzero();
        merged
    }

    /// Rebuilds an owned vector from a view (e.g. out of a slab).
    pub fn from_view(view: ProfileView<'_>) -> Self {
        ProfileVector { topics: view.topics.to_vec(), scores: view.scores.to_vec() }
    }

    /// The borrowed view of this vector — the type all read math runs on.
    pub fn as_view(&self) -> ProfileView<'_> {
        ProfileView { topics: &self.topics, scores: &self.scores }
    }

    fn retain_nonzero(&mut self) {
        let mut keep = 0;
        for i in 0..self.scores.len() {
            if self.scores[i] != 0.0 {
                self.topics[keep] = self.topics[i];
                self.scores[keep] = self.scores[i];
                keep += 1;
            }
        }
        self.topics.truncate(keep);
        self.scores.truncate(keep);
    }

    /// Number of topics with non-zero score.
    pub fn support(&self) -> usize {
        self.topics.len()
    }

    /// True if all scores are zero.
    pub fn is_empty(&self) -> bool {
        self.topics.is_empty()
    }

    /// The score of a topic (0 when absent).
    pub fn get(&self, topic: TopicId) -> f64 {
        self.as_view().get(topic)
    }

    /// Adds `score` to a topic.
    pub fn add(&mut self, topic: TopicId, score: f64) {
        if score == 0.0 {
            return;
        }
        let t = topic.index() as u32;
        match self.topics.binary_search(&t) {
            Ok(pos) => {
                self.scores[pos] += score;
                if self.scores[pos] == 0.0 {
                    self.topics.remove(pos);
                    self.scores.remove(pos);
                }
            }
            Err(pos) => {
                self.topics.insert(pos, t);
                self.scores.insert(pos, score);
            }
        }
    }

    /// Adds `other * factor` into `self` (merge-based, O(n + m)).
    pub fn add_scaled(&mut self, other: &ProfileVector, factor: f64) {
        if factor == 0.0 || other.is_empty() {
            return;
        }
        let mut topics = Vec::with_capacity(self.topics.len() + other.topics.len());
        let mut scores = Vec::with_capacity(self.topics.len() + other.topics.len());
        let (mut i, mut j) = (0, 0);
        while i < self.topics.len() || j < other.topics.len() {
            match (self.topics.get(i), other.topics.get(j)) {
                (Some(&ta), Some(&tb)) => {
                    if ta == tb {
                        let v = self.scores[i] + other.scores[j] * factor;
                        if v != 0.0 {
                            topics.push(ta);
                            scores.push(v);
                        }
                        i += 1;
                        j += 1;
                    } else if ta < tb {
                        topics.push(ta);
                        scores.push(self.scores[i]);
                        i += 1;
                    } else {
                        topics.push(tb);
                        scores.push(other.scores[j] * factor);
                        j += 1;
                    }
                }
                (Some(&ta), None) => {
                    topics.push(ta);
                    scores.push(self.scores[i]);
                    i += 1;
                }
                (None, Some(&tb)) => {
                    topics.push(tb);
                    scores.push(other.scores[j] * factor);
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        self.topics = topics;
        self.scores = scores;
    }

    /// Multiplies every score by a factor.
    pub fn scale(&mut self, factor: f64) {
        if factor == 0.0 {
            self.topics.clear();
            self.scores.clear();
            return;
        }
        for s in &mut self.scores {
            *s *= factor;
        }
    }

    /// Total score mass `Σ_k score(d_k)`.
    pub fn total(&self) -> f64 {
        self.as_view().total()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.as_view().norm()
    }

    /// Dot product (merge-based).
    pub fn dot(&self, other: &ProfileVector) -> f64 {
        self.as_view().dot(other.as_view())
    }

    /// Number of topics present in both vectors.
    pub fn overlap(&self, other: &ProfileVector) -> usize {
        self.as_view().overlap(other.as_view())
    }

    /// Iterates `(topic, score)` pairs in topic order.
    pub fn iter(&self) -> impl Iterator<Item = (TopicId, f64)> + '_ {
        self.topics
            .iter()
            .zip(&self.scores)
            .map(|(&t, &s)| (TopicId::from_index(t as usize), s))
    }

    /// The highest-scored topics, descending.
    pub fn top_topics(&self, k: usize) -> Vec<(TopicId, f64)> {
        self.as_view().top_topics(k)
    }
}

impl<'a> ProfileView<'a> {
    /// A view over raw parallel arrays. `topics` must be strictly sorted
    /// and the arrays must have equal length (slab construction and
    /// snapshot validation guarantee this).
    pub fn from_raw(topics: &'a [u32], scores: &'a [f64]) -> Self {
        debug_assert_eq!(topics.len(), scores.len());
        ProfileView { topics, scores }
    }

    /// An empty view.
    pub fn empty() -> ProfileView<'static> {
        ProfileView { topics: &[], scores: &[] }
    }

    /// The sorted topic-index array.
    pub fn topics(&self) -> &'a [u32] {
        self.topics
    }

    /// The score array parallel to [`ProfileView::topics`].
    pub fn scores(&self) -> &'a [f64] {
        self.scores
    }

    /// Number of topics with non-zero score.
    pub fn support(&self) -> usize {
        self.topics.len()
    }

    /// True if all scores are zero.
    pub fn is_empty(&self) -> bool {
        self.topics.is_empty()
    }

    /// The score of a topic (0 when absent).
    pub fn get(&self, topic: TopicId) -> f64 {
        self.topics
            .binary_search(&(topic.index() as u32))
            .map_or(0.0, |pos| self.scores[pos])
    }

    /// Total score mass `Σ_k score(d_k)`.
    pub fn total(&self) -> f64 {
        self.scores.iter().sum()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.scores.iter().map(|&s| s * s).sum::<f64>().sqrt()
    }

    /// Dot product (merge-based over the sorted topic arrays).
    pub fn dot(&self, other: ProfileView<'_>) -> f64 {
        let (mut i, mut j) = (0, 0);
        let mut sum = 0.0;
        while i < self.topics.len() && j < other.topics.len() {
            let ta = self.topics[i];
            let tb = other.topics[j];
            if ta == tb {
                sum += self.scores[i] * other.scores[j];
                i += 1;
                j += 1;
            } else if ta < tb {
                i += 1;
            } else {
                j += 1;
            }
        }
        sum
    }

    /// Number of topics present in both vectors.
    pub fn overlap(&self, other: ProfileView<'_>) -> usize {
        let (mut i, mut j) = (0, 0);
        let mut count = 0;
        while i < self.topics.len() && j < other.topics.len() {
            let ta = self.topics[i];
            let tb = other.topics[j];
            if ta == tb {
                count += 1;
                i += 1;
                j += 1;
            } else if ta < tb {
                i += 1;
            } else {
                j += 1;
            }
        }
        count
    }

    /// Iterates `(topic, score)` pairs in topic order.
    pub fn iter(&self) -> impl Iterator<Item = (TopicId, f64)> + 'a {
        self.topics
            .iter()
            .zip(self.scores)
            .map(|(&t, &s)| (TopicId::from_index(t as usize), s))
    }

    /// Copies the view into an owned [`ProfileVector`].
    pub fn to_vector(&self) -> ProfileVector {
        ProfileVector::from_view(*self)
    }

    /// The highest-scored topics, descending.
    pub fn top_topics(&self, k: usize) -> Vec<(TopicId, f64)> {
        let mut sorted: Vec<(TopicId, f64)> = self.iter().collect();
        // Stored scores are finite and non-zero: every build drops zeros.
        sorted.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        sorted.truncate(k);
        sorted
    }
}

impl FromIterator<(TopicId, f64)> for ProfileVector {
    fn from_iter<I: IntoIterator<Item = (TopicId, f64)>>(iter: I) -> Self {
        Self::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: usize) -> TopicId {
        TopicId::from_index(i)
    }

    #[test]
    fn from_pairs_merges_and_sorts() {
        let v = ProfileVector::from_pairs([(t(3), 1.0), (t(1), 2.0), (t(3), 0.5), (t(2), 0.0)]);
        assert_eq!(v.support(), 2);
        assert_eq!(v.get(t(1)), 2.0);
        assert_eq!(v.get(t(3)), 1.5);
        assert_eq!(v.get(t(2)), 0.0);
        let topics: Vec<_> = v.iter().map(|(t, _)| t).collect();
        assert_eq!(topics, vec![t(1), t(3)]);
    }

    #[test]
    fn add_and_cancel() {
        let mut v = ProfileVector::new();
        v.add(t(5), 2.0);
        v.add(t(5), -2.0);
        assert!(v.is_empty());
        v.add(t(5), 0.0);
        assert!(v.is_empty());
    }

    #[test]
    fn add_scaled_merges_disjoint_and_shared() {
        let mut a = ProfileVector::from_pairs([(t(1), 1.0), (t(3), 2.0)]);
        let b = ProfileVector::from_pairs([(t(2), 4.0), (t(3), 1.0)]);
        a.add_scaled(&b, 0.5);
        assert_eq!(a.get(t(1)), 1.0);
        assert_eq!(a.get(t(2)), 2.0);
        assert_eq!(a.get(t(3)), 2.5);
        assert_eq!(a.support(), 3);
    }

    #[test]
    fn totals_and_norms() {
        let v = ProfileVector::from_pairs([(t(0), 3.0), (t(1), 4.0)]);
        assert_eq!(v.total(), 7.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(ProfileVector::new().norm(), 0.0);
    }

    #[test]
    fn dot_and_overlap() {
        let a = ProfileVector::from_pairs([(t(1), 1.0), (t(2), 2.0), (t(4), 3.0)]);
        let b = ProfileVector::from_pairs([(t(2), 5.0), (t(3), 7.0), (t(4), 1.0)]);
        assert_eq!(a.dot(&b), 2.0 * 5.0 + 3.0 * 1.0);
        assert_eq!(a.overlap(&b), 2);
        assert_eq!(a.dot(&ProfileVector::new()), 0.0);
    }

    #[test]
    fn scale() {
        let mut v = ProfileVector::from_pairs([(t(1), 2.0)]);
        v.scale(2.5);
        assert_eq!(v.get(t(1)), 5.0);
        v.scale(0.0);
        assert!(v.is_empty());
    }

    #[test]
    fn top_topics_sorted_desc() {
        let v = ProfileVector::from_pairs([(t(1), 1.0), (t(2), 9.0), (t(3), 5.0)]);
        let top = v.top_topics(2);
        assert_eq!(top, vec![(t(2), 9.0), (t(3), 5.0)]);
        assert_eq!(v.top_topics(10).len(), 3);
    }

    #[test]
    fn view_matches_owned_vector_on_every_read_op() {
        let a = ProfileVector::from_pairs([(t(1), 1.5), (t(2), -2.0), (t(7), 3.25)]);
        let b = ProfileVector::from_pairs([(t(2), 5.0), (t(7), 7.0), (t(9), 1.0)]);
        let (va, vb) = (a.as_view(), b.as_view());
        assert_eq!(va.support(), a.support());
        assert_eq!(va.total().to_bits(), a.total().to_bits());
        assert_eq!(va.norm().to_bits(), a.norm().to_bits());
        assert_eq!(va.dot(vb).to_bits(), a.dot(&b).to_bits());
        assert_eq!(va.overlap(vb), a.overlap(&b));
        assert_eq!(va.get(t(2)), a.get(t(2)));
        assert_eq!(va.top_topics(2), a.top_topics(2));
        let round_trip = va.to_vector();
        assert_eq!(round_trip, a);
    }

    #[test]
    fn view_from_raw_arrays() {
        let topics = [1u32, 4, 9];
        let scores = [0.5, -1.0, 2.0];
        let view = ProfileView::from_raw(&topics, &scores);
        assert_eq!(view.get(t(4)), -1.0);
        assert_eq!(view.get(t(5)), 0.0);
        assert_eq!(view.to_vector().support(), 3);
        assert!(ProfileView::empty().is_empty());
    }
}
