//! Contiguous structure-of-arrays storage for many profiles.
//!
//! A [`ProfileSlab`] packs every agent's interest profile into three flat
//! arenas: one `u32` offset array (CSR-style, `len + 1` entries), one `u32`
//! topic array, and one parallel `f64` score array. Agent `i`'s profile is
//! the half-open range `offsets[i]..offsets[i + 1]` of the topic/score
//! arenas, surfaced as a borrowed [`ProfileView`].
//!
//! This is the in-memory layout *and* the snapshot-v2 wire layout: a
//! checkpoint writes the three arenas verbatim, and recovery rebuilds the
//! slab with one validated bulk copy per arena — no per-profile decode.

use crate::vector::{ProfileVector, ProfileView};

/// Flat arena storage for a sequence of profiles.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileSlab {
    /// CSR offsets into `topics`/`scores`; `offsets.len() == len() + 1`.
    offsets: Vec<u32>,
    /// Sorted topic indexes, concatenated per profile.
    topics: Vec<u32>,
    /// Scores parallel to `topics`.
    scores: Vec<f64>,
}

impl ProfileSlab {
    /// An empty slab (zero profiles).
    pub fn new() -> Self {
        ProfileSlab { offsets: vec![0], topics: Vec::new(), scores: Vec::new() }
    }

    /// An empty slab with arena capacity reserved for roughly `profiles`
    /// profiles of `entries` total entries.
    pub fn with_capacity(profiles: usize, entries: usize) -> Self {
        let mut offsets = Vec::with_capacity(profiles + 1);
        offsets.push(0);
        ProfileSlab {
            offsets,
            topics: Vec::with_capacity(entries),
            scores: Vec::with_capacity(entries),
        }
    }

    /// Builds a slab by copying each vector's arenas in order.
    pub fn from_vectors<'a>(vectors: impl IntoIterator<Item = &'a ProfileVector>) -> Self {
        let mut slab = ProfileSlab::new();
        for v in vectors {
            slab.push_view(v.as_view());
        }
        slab
    }

    /// Appends one profile (copies its topic/score slices).
    pub fn push_view(&mut self, view: ProfileView<'_>) {
        self.topics.extend_from_slice(view.topics());
        self.scores.extend_from_slice(view.scores());
        self.offsets.push(
            u32::try_from(self.topics.len()).expect("profile slab exceeds u32 entries"),
        );
    }

    /// Appends profile `index` of another slab wholesale (the clean-region
    /// fast path of incremental advance).
    pub fn push_from(&mut self, other: &ProfileSlab, index: usize) {
        self.push_view(other.view(index));
    }

    /// Reassembles a slab from raw arenas, validating every invariant the
    /// accessors rely on. Returns a static description of the first
    /// violation found (snapshot decode maps it to a corruption error).
    pub fn from_parts(
        offsets: Vec<u32>,
        topics: Vec<u32>,
        scores: Vec<f64>,
    ) -> Result<Self, &'static str> {
        if topics.len() != scores.len() {
            return Err("topic and score arenas differ in length");
        }
        let Some(&last) = offsets.last() else {
            return Err("offset arena is empty");
        };
        if offsets[0] != 0 {
            return Err("offset arena does not start at zero");
        }
        if last as usize != topics.len() {
            return Err("offset arena does not span the topic arena");
        }
        // Full monotone check before any range is sliced: a single spiked
        // offset ([0, huge, len]) must not index out of bounds in the
        // window preceding the violation.
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offset arena is not monotone");
        }
        for w in offsets.windows(2) {
            let range = w[0] as usize..w[1] as usize;
            if !topics[range].windows(2).all(|t| t[0] < t[1]) {
                return Err("profile topics are not strictly sorted");
            }
        }
        // Similarity needs finite scores: an infinite one makes a cosine
        // `inf/inf`, and the kernels' bit-identity argument rules out `0·∞`.
        if !scores.iter().all(|s| s.is_finite()) {
            return Err("profile score is not finite");
        }
        Ok(ProfileSlab { offsets, topics, scores })
    }

    /// Number of profiles stored.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True if the slab holds no profiles.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The view of profile `index`.
    ///
    /// # Panics
    /// If `index >= len()`.
    pub fn view(&self, index: usize) -> ProfileView<'_> {
        let range = self.offsets[index] as usize..self.offsets[index + 1] as usize;
        ProfileView::from_raw(&self.topics[range.clone()], &self.scores[range])
    }

    /// Iterates all profile views in index order.
    pub fn iter(&self) -> impl Iterator<Item = ProfileView<'_>> {
        (0..self.len()).map(|i| self.view(i))
    }

    /// The raw arenas `(offsets, topics, scores)` — the snapshot-v2 body.
    pub fn arenas(&self) -> (&[u32], &[u32], &[f64]) {
        (&self.offsets, &self.topics, &self.scores)
    }

    /// Bytes of resident arena storage (lengths, not capacities).
    pub fn resident_bytes(&self) -> usize {
        self.offsets.len() * 4 + self.topics.len() * 4 + self.scores.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semrec_taxonomy::TopicId;

    fn t(i: usize) -> TopicId {
        TopicId::from_index(i)
    }

    fn vectors() -> Vec<ProfileVector> {
        vec![
            ProfileVector::from_pairs([(t(1), 1.5), (t(4), -2.0)]),
            ProfileVector::new(),
            ProfileVector::from_pairs([(t(0), 3.0), (t(2), 0.5), (t(9), 7.0)]),
        ]
    }

    #[test]
    fn slab_views_match_source_vectors() {
        let vs = vectors();
        let slab = ProfileSlab::from_vectors(&vs);
        assert_eq!(slab.len(), 3);
        for (i, v) in vs.iter().enumerate() {
            assert_eq!(slab.view(i).to_vector(), *v);
            assert_eq!(slab.view(i), v.as_view());
        }
        assert!(slab.view(1).is_empty());
    }

    #[test]
    fn parts_round_trip() {
        let slab = ProfileSlab::from_vectors(&vectors());
        let (o, tp, s) = slab.arenas();
        let rebuilt =
            ProfileSlab::from_parts(o.to_vec(), tp.to_vec(), s.to_vec()).expect("valid arenas");
        assert_eq!(rebuilt, slab);
    }

    #[test]
    fn corrupt_parts_are_rejected() {
        let slab = ProfileSlab::from_vectors(&vectors());
        let (o, tp, s) = slab.arenas();
        // Mismatched arena lengths.
        assert!(ProfileSlab::from_parts(o.to_vec(), tp.to_vec(), vec![0.0]).is_err());
        // Non-monotone offsets.
        let mut bad = o.to_vec();
        bad[1] = bad[2] + 1;
        assert!(ProfileSlab::from_parts(bad, tp.to_vec(), s.to_vec()).is_err());
        // Unsorted topics within a profile.
        let mut bad_t = tp.to_vec();
        bad_t.swap(0, 1);
        assert!(ProfileSlab::from_parts(o.to_vec(), bad_t, s.to_vec()).is_err());
        // Offsets not spanning the arena.
        let mut short = o.to_vec();
        *short.last_mut().unwrap() -= 1;
        assert!(ProfileSlab::from_parts(short, tp.to_vec(), s.to_vec()).is_err());
        // Empty offsets.
        assert!(ProfileSlab::from_parts(vec![], vec![], vec![]).is_err());
        // NaN score.
        let mut bad_s = s.to_vec();
        bad_s[0] = f64::NAN;
        assert!(ProfileSlab::from_parts(o.to_vec(), tp.to_vec(), bad_s).is_err());
    }

    #[test]
    fn infinite_scores_are_rejected() {
        let slab = ProfileSlab::from_vectors(&vectors());
        let (o, tp, s) = slab.arenas();
        for inf in [f64::INFINITY, f64::NEG_INFINITY] {
            let mut bad_s = s.to_vec();
            *bad_s.last_mut().unwrap() = inf;
            assert_eq!(
                ProfileSlab::from_parts(o.to_vec(), tp.to_vec(), bad_s),
                Err("profile score is not finite")
            );
        }
    }

    #[test]
    fn push_from_copies_ranges_wholesale() {
        let src = ProfileSlab::from_vectors(&vectors());
        let mut dst = ProfileSlab::new();
        dst.push_from(&src, 2);
        dst.push_from(&src, 0);
        assert_eq!(dst.len(), 2);
        assert_eq!(dst.view(0), src.view(2));
        assert_eq!(dst.view(1), src.view(0));
    }

    #[test]
    fn resident_bytes_counts_arenas() {
        let slab = ProfileSlab::from_vectors(&vectors());
        // 4 offsets * 4 + 5 topics * 4 + 5 scores * 8.
        assert_eq!(slab.resident_bytes(), 16 + 20 + 40);
        assert_eq!(ProfileSlab::new().resident_bytes(), 4);
    }

    #[test]
    fn iter_yields_all_views() {
        let slab = ProfileSlab::from_vectors(&vectors());
        assert_eq!(slab.iter().count(), 3);
        assert!(!slab.is_empty());
        assert!(ProfileSlab::new().is_empty());
    }
}
