//! Community-wide profile computation and caching.
//!
//! Profile generation is a per-agent pure function of their ratings, so a
//! [`ProfileStore`] materializes every agent's taxonomy profile once and
//! similarity queries become vector operations. In a truly decentralized
//! deployment each agent computes these locally per crawl (§2 — "performs
//! all recommendation computations locally"); the store is the local cache
//! of that computation.
//!
//! Profiles live in one contiguous [`ProfileSlab`] (a flat topic arena, a
//! flat score arena, and CSR offsets) rather than one heap allocation per
//! agent. Reads hand out borrowed [`ProfileView`]s into the slab, and the
//! slab's arenas are exactly what snapshot v2 writes to disk. Incremental
//! [`advance`](ProfileStore::advance) copies each clean agent's arena range
//! wholesale and recomputes only the dirty set; per-agent *origin stamps*
//! record which computation a slot was carried from, preserving the
//! "shared, not recomputed" observability the old `Arc` pointers provided.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

use semrec_profiles::generation::{generate_profile, ProfileParams};
use semrec_profiles::{similarity, ProfileSlab, ProfileVector, ProfileView};
use semrec_trust::AgentId;

use crate::delta::AdvanceStats;
use crate::model::Community;

/// Which similarity measure the engine uses over profile vectors (§3.3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SimilarityMeasure {
    /// Pearson's correlation coefficient (refs \[6\], \[3\]).
    Pearson,
    /// Cosine distance from Information Retrieval.
    #[default]
    Cosine,
}

impl SimilarityMeasure {
    /// Applies the measure; `None` when undefined for the pair.
    pub fn apply(self, a: ProfileView<'_>, b: ProfileView<'_>) -> Option<f64> {
        match self {
            SimilarityMeasure::Pearson => similarity::pearson_view(a, b),
            SimilarityMeasure::Cosine => similarity::cosine_view(a, b),
        }
    }

    /// [`SimilarityMeasure::apply`] of `target` against each of `peers`, in
    /// peer order and bit for bit. Cosine scatters the target once for all
    /// peers ([`similarity::cosine_each`]); Pearson merges pair by pair, as
    /// its union means need the interleaved order.
    pub fn apply_each<'p>(
        self,
        target: ProfileView<'_>,
        peers: impl IntoIterator<Item = ProfileView<'p>>,
    ) -> Vec<Option<f64>> {
        let peers = peers.into_iter();
        let mut out = Vec::with_capacity(peers.size_hint().0);
        match self {
            SimilarityMeasure::Pearson => {
                out.extend(peers.map(|peer| similarity::pearson_view(target, peer)))
            }
            SimilarityMeasure::Cosine => similarity::cosine_each(target, peers, |s| out.push(s)),
        }
        out
    }
}

/// Monotone source of computation identities for origin stamps. Every
/// batch of freshly generated profiles gets a new id; a slot's stamp
/// `(computation id, slot index)` therefore identifies *which* generation
/// run produced the bytes in that slot, across any number of advances.
static NEXT_COMPUTATION_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_computation_id() -> u64 {
    NEXT_COMPUTATION_ID.fetch_add(1, Ordering::Relaxed)
}

/// Materialized taxonomy profiles for every agent of a community, stored
/// as one flat structure-of-arrays slab.
#[derive(Clone, Debug)]
pub struct ProfileStore {
    slab: ProfileSlab,
    /// `(computation id, slot index at computation time)` per agent.
    origins: Vec<(u64, u32)>,
    params: ProfileParams,
}

impl ProfileStore {
    /// Computes all profiles.
    pub fn build(community: &Community, params: &ProfileParams) -> Self {
        let id = fresh_computation_id();
        let mut slab = ProfileSlab::new();
        let mut origins = Vec::new();
        for a in community.agents() {
            let p = generate_profile(
                &community.taxonomy,
                &community.catalog,
                community.ratings_of(a),
                params,
            );
            slab.push_view(p.as_view());
            origins.push((id, a.index() as u32));
        }
        ProfileStore { slab, origins, params: *params }
    }

    /// Derives the store for the next community generation, recomputing
    /// only the profiles of agents whose URI is in `dirty` and copying
    /// every other profile's arena range wholesale from `self`.
    ///
    /// `previous` must be the community this store was built from. An agent
    /// is reused only when it exists in both generations *and* is not
    /// dirty — agents new to `next` (including former dangling trustees
    /// whose ratings just appeared) are always computed fresh. The caller
    /// is responsible for `dirty` being sound: it must contain every URI
    /// whose rating set differs between the generations, or the returned
    /// store silently diverges from [`ProfileStore::build`] on `next`.
    pub fn advance(
        &self,
        previous: &Community,
        next: &Community,
        dirty: &HashSet<&str>,
    ) -> (ProfileStore, AdvanceStats) {
        let mut stats = AdvanceStats::default();
        let id = fresh_computation_id();
        let mut slab = ProfileSlab::new();
        let mut origins = Vec::with_capacity(self.origins.len());
        for a in next.agents() {
            let uri = &next.agent(a).expect("iterated id").uri;
            if !dirty.contains(uri.as_str()) {
                if let Some(old) = previous.agent_by_uri(uri) {
                    debug_assert_eq!(
                        previous.ratings_of(old),
                        next.ratings_of(a),
                        "clean agent {uri} has differing ratings: unsound dirty set"
                    );
                    stats.reused += 1;
                    slab.push_from(&self.slab, old.index());
                    origins.push(self.origins[old.index()]);
                    continue;
                }
            }
            stats.recomputed += 1;
            let p = generate_profile(
                &next.taxonomy,
                &next.catalog,
                next.ratings_of(a),
                &self.params,
            );
            slab.push_view(p.as_view());
            origins.push((id, a.index() as u32));
        }
        (ProfileStore { slab, origins, params: self.params }, stats)
    }

    /// Rebuilds a store from explicit per-agent profiles in agent-id order,
    /// e.g. as deserialized from a checkpoint (see `semrec-store`). The
    /// caller is responsible for the vectors matching what
    /// [`ProfileStore::build`] would produce for the community they will be
    /// used with; persistence round-trip tests hold that line.
    pub fn from_profiles(
        profiles: impl IntoIterator<Item = ProfileVector>,
        params: ProfileParams,
    ) -> Self {
        let id = fresh_computation_id();
        let mut slab = ProfileSlab::new();
        let mut origins = Vec::new();
        for (i, p) in profiles.into_iter().enumerate() {
            slab.push_view(p.as_view());
            origins.push((id, i as u32));
        }
        ProfileStore { slab, origins, params }
    }

    /// Adopts an already-assembled slab (the snapshot-v2 zero-copy load
    /// path: the slab arrives as three validated bulk arena copies).
    pub fn from_slab(slab: ProfileSlab, params: ProfileParams) -> Self {
        let id = fresh_computation_id();
        let origins = (0..slab.len()).map(|i| (id, i as u32)).collect();
        ProfileStore { slab, origins, params }
    }

    /// Iterates the stored profile views in agent-id order.
    pub fn iter(&self) -> impl Iterator<Item = ProfileView<'_>> {
        self.slab.iter()
    }

    /// The profile of an agent, as a borrowed view into the slab.
    pub fn profile(&self, agent: AgentId) -> ProfileView<'_> {
        self.slab.view(agent.index())
    }

    /// The underlying arena slab (snapshot capture reads it verbatim).
    pub fn slab(&self) -> &ProfileSlab {
        &self.slab
    }

    /// Number of stored profiles.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// True if no profiles are stored.
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// The parameters the profiles were generated with.
    pub fn params(&self) -> &ProfileParams {
        &self.params
    }

    /// Bytes of resident arena storage backing the profiles.
    pub fn resident_bytes(&self) -> usize {
        self.slab.resident_bytes() + self.origins.len() * 12
    }

    /// Recomputes a single agent's profile (after their ratings changed).
    pub fn refresh(&mut self, community: &Community, agent: AgentId) {
        let p = generate_profile(
            &community.taxonomy,
            &community.catalog,
            community.ratings_of(agent),
            &self.params,
        );
        // Rebuild the slab with the one range replaced; neighbours are
        // copied wholesale.
        let mut slab = ProfileSlab::new();
        for i in 0..self.slab.len() {
            if i == agent.index() {
                slab.push_view(p.as_view());
            } else {
                slab.push_from(&self.slab, i);
            }
        }
        self.slab = slab;
        self.origins[agent.index()] = (fresh_computation_id(), agent.index() as u32);
    }

    /// Similarity between two agents under the given measure.
    pub fn similarity(
        &self,
        measure: SimilarityMeasure,
        a: AgentId,
        b: AgentId,
    ) -> Option<f64> {
        measure.apply(self.profile(a), self.profile(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semrec_taxonomy::fixtures::example1;

    /// True when two stores carry the same origin stamp for this agent
    /// slot — i.e. the profile was carried across a generation (its bytes
    /// copied from the same original computation), not recomputed.
    fn shares_profile(a: &ProfileStore, b: &ProfileStore, agent: AgentId) -> bool {
        match (a.origins.get(agent.index()), b.origins.get(agent.index())) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    fn setup() -> (Community, Vec<semrec_taxonomy::ProductId>) {
        let e = example1();
        let products: Vec<_> = e.catalog.iter().collect();
        let mut c = Community::new(e.fig.taxonomy, e.catalog);
        let alice = c.add_agent("http://ex.org/alice").unwrap();
        let bob = c.add_agent("http://ex.org/bob").unwrap();
        // Alice likes the math books, Bob the cyberpunk novels.
        c.set_rating(alice, products[0], 1.0).unwrap();
        c.set_rating(alice, products[1], 0.8).unwrap();
        c.set_rating(bob, products[2], 1.0).unwrap();
        c.set_rating(bob, products[3], 0.9).unwrap();
        (c, products)
    }

    #[test]
    fn builds_one_profile_per_agent() {
        let (c, _) = setup();
        let store = ProfileStore::build(&c, &ProfileParams::default());
        assert_eq!(store.len(), 2);
        for a in c.agents() {
            assert!((store.profile(a).total() - 1000.0).abs() < 1e-6);
        }
    }

    #[test]
    fn similarity_reflects_divergent_interests() {
        let (c, _) = setup();
        let store = ProfileStore::build(&c, &ProfileParams::default());
        let agents: Vec<_> = c.agents().collect();
        let sim = store
            .similarity(SimilarityMeasure::Cosine, agents[0], agents[1])
            .unwrap();
        let self_sim = store
            .similarity(SimilarityMeasure::Cosine, agents[0], agents[0])
            .unwrap();
        assert!(self_sim > sim);
        assert!((self_sim - 1.0).abs() < 1e-12);
    }

    #[test]
    fn refresh_tracks_rating_changes() {
        let (mut c, products) = setup();
        let mut store = ProfileStore::build(&c, &ProfileParams::default());
        let agents: Vec<_> = c.agents().collect();
        let before = store
            .similarity(SimilarityMeasure::Cosine, agents[0], agents[1])
            .unwrap();
        // Bob now also reads Alice's math books.
        c.set_rating(agents[1], products[0], 1.0).unwrap();
        c.set_rating(agents[1], products[1], 1.0).unwrap();
        store.refresh(&c, agents[1]);
        let after = store
            .similarity(SimilarityMeasure::Cosine, agents[0], agents[1])
            .unwrap();
        assert!(after > before, "similarity must rise: {before} → {after}");
    }

    #[test]
    fn refresh_tracks_rating_removal() {
        // The profile must shrink back: removing the rating again restores
        // the exact pre-rating profile, not some residue.
        let (mut c, products) = setup();
        let agents: Vec<_> = c.agents().collect();
        let mut store = ProfileStore::build(&c, &ProfileParams::default());
        let before = store.profile(agents[0]).to_vector();
        c.set_rating(agents[0], products[3], 0.7).unwrap();
        store.refresh(&c, agents[0]);
        assert_ne!(
            store.profile(agents[0]).to_vector(),
            before,
            "adding a rating must move the profile"
        );
        assert!(c.remove_rating(agents[0], products[3]));
        store.refresh(&c, agents[0]);
        assert_eq!(
            store.profile(agents[0]).to_vector(),
            before,
            "removing the rating must shrink the profile back"
        );
    }

    #[test]
    fn trust_only_change_does_not_dirty_profiles() {
        // A trust-edge-only delta leaves every profile clean: advance with
        // an empty dirty set must carry every profile's origin stamp.
        let (mut c, _) = setup();
        let store = ProfileStore::build(&c, &ProfileParams::default());
        let previous = c.clone();
        let agents: Vec<_> = c.agents().collect();
        c.trust.set_trust(agents[0], agents[1], 0.9).unwrap();
        let (next, stats) = store.advance(&previous, &c, &HashSet::new());
        assert_eq!(stats, AdvanceStats { recomputed: 0, reused: 2 });
        for &a in &agents {
            assert!(shares_profile(&next, &store, a), "profile must be shared, not copied");
        }
    }

    #[test]
    fn advance_recomputes_exactly_the_dirty_set() {
        let (mut c, products) = setup();
        let store = ProfileStore::build(&c, &ProfileParams::default());
        let previous = c.clone();
        let agents: Vec<_> = c.agents().collect();
        c.set_rating(agents[1], products[0], 0.5).unwrap();
        let dirty: HashSet<&str> = ["http://ex.org/bob"].into_iter().collect();
        let (next, stats) = store.advance(&previous, &c, &dirty);
        assert_eq!(stats, AdvanceStats { recomputed: 1, reused: 1 });
        assert!(shares_profile(&next, &store, agents[0]));
        assert!(!shares_profile(&next, &store, agents[1]));
        // The recomputed profile is byte-identical to a from-scratch build.
        let fresh = ProfileStore::build(&c, &ProfileParams::default());
        for &a in &agents {
            assert_eq!(next.profile(a), fresh.profile(a));
        }
    }

    #[test]
    fn advance_computes_new_agents_fresh() {
        let (mut c, products) = setup();
        let store = ProfileStore::build(&c, &ProfileParams::default());
        let previous = c.clone();
        let carol = c.add_agent("http://ex.org/carol").unwrap();
        c.set_rating(carol, products[2], 1.0).unwrap();
        let (next, stats) = store.advance(&previous, &c, &HashSet::new());
        assert_eq!(stats, AdvanceStats { recomputed: 1, reused: 2 });
        let fresh = ProfileStore::build(&c, &ProfileParams::default());
        assert_eq!(next.profile(carol), fresh.profile(carol));
    }

    #[test]
    fn from_slab_round_trips_the_arena() {
        let (c, _) = setup();
        let store = ProfileStore::build(&c, &ProfileParams::default());
        let restored =
            ProfileStore::from_slab(store.slab().clone(), *store.params());
        for a in c.agents() {
            assert_eq!(restored.profile(a), store.profile(a));
        }
        assert!(restored.resident_bytes() >= store.slab().resident_bytes());
    }

    #[test]
    fn pearson_measure_dispatches() {
        let (c, _) = setup();
        let store = ProfileStore::build(&c, &ProfileParams::default());
        let agents: Vec<_> = c.agents().collect();
        let p = store.similarity(SimilarityMeasure::Pearson, agents[0], agents[0]);
        assert!((p.unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn apply_each_is_apply_per_peer_for_both_measures() {
        let (c, _) = setup();
        let store = ProfileStore::build(&c, &ProfileParams::default());
        let agents: Vec<_> = c.agents().collect();
        let bits = |s: Option<f64>| s.map(f64::to_bits);
        for measure in [SimilarityMeasure::Cosine, SimilarityMeasure::Pearson] {
            for &target in &agents {
                let peers = [agents[1], agents[0], agents[1]];
                let each = measure
                    .apply_each(store.profile(target), peers.map(|p| store.profile(p)))
                    .into_iter()
                    .map(bits);
                let pairwise =
                    peers.map(|p| bits(measure.apply(store.profile(target), store.profile(p))));
                assert!(each.eq(pairwise), "{measure:?}");
            }
        }
    }

    #[test]
    fn empty_community() {
        let e = example1();
        let c = Community::new(e.fig.taxonomy, e.catalog);
        let store = ProfileStore::build(&c, &ProfileParams::default());
        assert!(store.is_empty());
    }
}
