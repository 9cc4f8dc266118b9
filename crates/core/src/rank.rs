//! Pluggable rank synthesization (§3.4 / §5): the last pipeline stage as a
//! trait, with the paper's open future-work gap closed by a two-phase
//! spreading-activation ranker.
//!
//! §5 of the paper explicitly leaves rank synthesization open. The
//! [`Ranker`] trait makes the stage pluggable: given the target's trust
//! neighborhood and the per-peer trust/similarity scores, a ranker produces
//! the final peer weights recommendation voting runs on.
//!
//! Two implementations ship:
//!
//! * [`SimilarityRanker`] — the original pipeline behavior, delegating to
//!   the configured [`crate::synthesis::SynthesisStrategy`]. Extracting it
//!   behind the trait
//!   is provably behavior-preserving (golden equivalence tests pin the
//!   refactor bit-for-bit).
//! * [`SpreadingActivationRanker`] — a two-phase ranker in the spirit of
//!   associative-memory retrieval (Collins & Loftus 1975; *The Universal
//!   Recommender*'s scoring over heterogeneous semantic networks): phase 1
//!   anchors candidate activations from the taxonomy-similarity-anchored
//!   score of the current neighborhood; phase 2 spreads activation over the
//!   merged trust + taxonomy graph with per-hop decay, fan-out
//!   normalization, and a bounded horizon. The final weight is a
//!   configurable blend ([`BlendWeights`]) of similarity, accumulated
//!   activation, and structural centrality.
//!
//! Every ranker must uphold the stage contract: output sorted by descending
//! weight (ties by ascending agent id), strictly positive finite weights,
//! candidates drawn only from the supplied neighborhood, and per-peer
//! [`ScoreComponents`] that sum exactly to the final weight — the
//! invariants `tests/proptest_ranking.rs` enforces for any impl.

use std::cell::RefCell;
use std::sync::Arc;

use semrec_trust::neighborhood::TrustNeighborhood;
use semrec_trust::stamped::StampedIndex;
use semrec_trust::AgentId;

use crate::engine::RecommenderConfig;
use crate::model::Community;
use crate::profiles::{ProfileStore, SimilarityMeasure};
use crate::synthesis::{synthesize, PeerScores};

/// Blend weights over the spreading-activation ranker's three score
/// components. Weights are relative: they are normalized by their sum, so
/// `{ 2, 0, 0 }` and `{ 1, 0, 0 }` describe the same ranking.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlendWeights {
    /// Weight of the phase-1 similarity score (the synthesized
    /// trust × taxonomy-similarity rank of the neighborhood).
    pub similarity: f64,
    /// Weight of the accumulated phase-2 activation.
    pub activation: f64,
    /// Weight of structural centrality (normalized positive trust
    /// in-degree — how broadly the community vouches for the peer).
    pub centrality: f64,
}

impl BlendWeights {
    /// Similarity-only weights: the spreading ranker degenerates to
    /// [`SimilarityRanker`] (byte-identical output, not merely rank-order).
    pub const SIMILARITY_ONLY: BlendWeights =
        BlendWeights { similarity: 1.0, activation: 0.0, centrality: 0.0 };

    /// Sum of the raw weights.
    pub fn total(&self) -> f64 {
        self.similarity + self.activation + self.centrality
    }

    /// Weights scaled to sum to 1, or [`BlendWeights::SIMILARITY_ONLY`]
    /// when the sum is not positive (nothing meaningful to blend).
    pub fn normalized(&self) -> BlendWeights {
        let total = self.total();
        if !total.is_finite() || total <= 0.0 {
            return BlendWeights::SIMILARITY_ONLY;
        }
        BlendWeights {
            similarity: self.similarity / total,
            activation: self.activation / total,
            centrality: self.centrality / total,
        }
    }
}

impl Default for BlendWeights {
    /// The Ethos retrieval defaults: similarity still dominates, activation
    /// and structure refine.
    fn default() -> Self {
        BlendWeights { similarity: 0.5, activation: 0.3, centrality: 0.2 }
    }
}

/// Per-component decomposition of one peer's final rank weight.
///
/// The invariant every ranker upholds: the components sum (in field order)
/// to exactly the peer's published weight, so explanations can attribute
/// *why* a peer ranked where it did without re-running the ranker.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ScoreComponents {
    /// Contribution of the (synthesized) similarity score.
    pub similarity: f64,
    /// Contribution of accumulated spreading activation.
    pub activation: f64,
    /// Contribution of structural centrality.
    pub centrality: f64,
}

impl ScoreComponents {
    /// A similarity-only decomposition.
    fn similarity_only(weight: f64) -> Self {
        ScoreComponents { similarity: weight, activation: 0.0, centrality: 0.0 }
    }

    /// The components summed in field order — bit-identical to the weight
    /// computed by [`RankedPeer::new`].
    pub fn total(&self) -> f64 {
        self.similarity + self.activation + self.centrality
    }

    /// Every component scaled by `factor` (e.g. a vote's rating).
    pub fn scaled(&self, factor: f64) -> ScoreComponents {
        ScoreComponents {
            similarity: self.similarity * factor,
            activation: self.activation * factor,
            centrality: self.centrality * factor,
        }
    }

    /// Field-wise accumulation.
    pub fn accumulate(&mut self, other: &ScoreComponents) {
        self.similarity += other.similarity;
        self.activation += other.activation;
        self.centrality += other.centrality;
    }
}

/// One ranked peer: the final weight recommendation voting uses, plus its
/// decomposition into score components.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RankedPeer {
    /// The peer.
    pub agent: AgentId,
    /// Final rank weight (strictly positive for emitted peers).
    pub weight: f64,
    /// Decomposition summing exactly to `weight`.
    pub components: ScoreComponents,
}

impl RankedPeer {
    /// Builds a peer whose weight is exactly the component sum.
    pub fn new(agent: AgentId, components: ScoreComponents) -> Self {
        RankedPeer { agent, weight: components.total(), components }
    }
}

/// Everything a [`Ranker`] may consult: the §3.2 neighborhood, the per-peer
/// trust/similarity scores the profile stage computed, and read access to
/// the full immutable model for graph- or content-aware ranking.
#[derive(Clone, Copy, Debug)]
pub struct RankContext<'a> {
    /// The agent being recommended to.
    pub target: AgentId,
    /// The trust neighborhood of the target (§3.2).
    pub neighborhood: &'a TrustNeighborhood,
    /// Per-peer normalized trust rank and profile similarity (§3.3).
    pub peers: &'a [PeerScores],
    /// The community (trust graph, ratings, taxonomy, catalog).
    pub community: &'a Community,
    /// Materialized taxonomy profiles of every agent.
    pub profiles: &'a ProfileStore,
    /// The active engine configuration.
    pub config: &'a RecommenderConfig,
}

/// A pluggable rank synthesization stage.
///
/// Implementations must be deterministic pure functions of the context
/// (byte-identical output across runs and thread counts — the property
/// suite enforces this) and must emit peers sorted by descending weight
/// with ascending agent id as the tie-break, the same total order
/// [`synthesize`] uses.
pub trait Ranker: Send + Sync + std::fmt::Debug {
    /// A short stable name for metrics and display.
    fn name(&self) -> &'static str;

    /// Ranks the neighborhood peers of `ctx.target`.
    fn rank(&self, ctx: &RankContext<'_>) -> Vec<RankedPeer>;

    /// [`Ranker::rank`] plus what the ranker did to get there. A ranker
    /// records nothing itself: the engine that called it adds the report
    /// to its own books (`rank.*`). The default reports no extra work.
    fn rank_reported(&self, ctx: &RankContext<'_>) -> (Vec<RankedPeer>, RankReport) {
        (self.rank(ctx), RankReport::default())
    }
}

/// Work a ranker did beyond producing its ranking, summed by the engine
/// into `rank.spread.runs`, `rank.activation.{hops,nodes}`,
/// `rank.universe.explored` and the `rank.frontier.size` histogram.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RankReport {
    /// Phase-2 spreads executed (see [`spread_activation`]).
    pub spreads: usize,
    /// Hops those spreads executed ([`SpreadResult::hops`]).
    pub hops: usize,
    /// Agents left holding activation.
    pub activated: usize,
    /// Size of the explored universe ([`SpreadResult::explored`]).
    pub explored: usize,
    /// Active-node count after each hop ([`SpreadResult::frontier_sizes`]).
    pub frontier_sizes: Vec<usize>,
}

/// A shared, snapshot-safe handle to a ranker. Lives inside
/// `SharedModel`, so serving layers swap rankers with the same epoch
/// publish that swaps models.
pub type SharedRanker = Arc<dyn Ranker>;

/// The original pipeline ranking as a [`Ranker`]: delegates to the
/// configured [`crate::synthesis::SynthesisStrategy`] — the pre-trait
/// behavior, bit-for-bit (golden equivalence tests hold that line).
#[derive(Clone, Copy, Debug, Default)]
pub struct SimilarityRanker;

impl Ranker for SimilarityRanker {
    fn name(&self) -> &'static str {
        "similarity"
    }

    fn rank(&self, ctx: &RankContext<'_>) -> Vec<RankedPeer> {
        synthesize(ctx.config.synthesis, ctx.peers)
            .into_iter()
            .map(|(agent, weight)| RankedPeer {
                agent,
                weight,
                components: ScoreComponents::similarity_only(weight),
            })
            .collect()
    }
}

/// Parameters of the two-phase spreading-activation ranker.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpreadingParams {
    /// Fraction of activation retained per hop (`spreading_strength`);
    /// clamped to `[0, 1]`. Accumulated activation is monotone
    /// non-decreasing in this retention — equivalently, monotone
    /// non-increasing in the amount of per-hop decay.
    pub decay: f64,
    /// Maximum propagation depth: agents beyond this many merged-graph hops
    /// from the anchor set never receive activation.
    pub horizon: usize,
    /// Final-score blend over similarity / activation / centrality.
    pub blend: BlendWeights,
    /// Minimum profile similarity for a taxonomy edge between two agents of
    /// the spread universe.
    pub sim_edge_threshold: f64,
    /// Cap on the spread universe (anchors plus trust-reachable frontier) —
    /// the bound that keeps ranking local (§2 scalability).
    pub max_nodes: usize,
}

impl Default for SpreadingParams {
    fn default() -> Self {
        SpreadingParams {
            decay: 0.85,
            horizon: 3,
            blend: BlendWeights::default(),
            sim_edge_threshold: 0.001,
            max_nodes: 128,
        }
    }
}

/// Outcome of one phase-2 spread: accumulated activation per reached agent
/// plus the work the spread performed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpreadResult {
    /// `(agent, accumulated activation)`, sorted by agent. Only agents
    /// reachable from the anchor set within the horizon (and the universe
    /// cap) appear; an absent agent has activation 0 by construction.
    pub activation: Vec<(AgentId, f64)>,
    /// Hops actually executed (≤ horizon; fewer when energy dies out).
    pub hops: usize,
    /// Size of the explored universe (anchors + trust-reachable frontier).
    pub explored: usize,
    /// Active-node count after each executed hop.
    pub frontier_sizes: Vec<usize>,
}

impl SpreadResult {
    /// The accumulated activation of `agent`: 0 for an agent the spread
    /// never reached.
    pub fn activation_of(&self, agent: AgentId) -> f64 {
        let found = self.activation.binary_search_by_key(&agent, |&(a, _)| a);
        found.map_or(0.0, |i| self.activation[i].1)
    }
}

thread_local! {
    /// Agent id → universe index of one spread, one table per thread, so
    /// discovering the universe costs what the universe holds, not what the
    /// community holds.
    static MEMBER: RefCell<StampedIndex> = RefCell::default();
}

/// Phase 2: spreads anchor activation over the merged trust + taxonomy
/// graph.
///
/// The universe is the anchor set plus agents reachable from it via
/// positive trust edges within `horizon` hops, capped at
/// [`SpreadingParams::max_nodes`] (deterministic breadth-first discovery).
/// Within the universe, edges are the union of positive trust statements
/// (weight = trust) and taxonomy edges between agents whose profile
/// similarity clears [`SpreadingParams::sim_edge_threshold`] (undirected,
/// weight = similarity). Each hop transfers
/// `activation · weight · decay / fan-out` along every edge; transferred
/// energy — not the running total — spreads on the next hop, so a path of
/// length `k` is attenuated by `decay^k` and nothing self-amplifies. The
/// target itself is excluded from the universe: it is the query, not a
/// conduit, and routing energy through it would echo its own edges back.
pub fn spread_activation(
    community: &Community,
    profiles: &ProfileStore,
    measure: SimilarityMeasure,
    target: AgentId,
    anchors: &[(AgentId, f64)],
    params: &SpreadingParams,
) -> SpreadResult {
    let decay = params.decay.clamp(0.0, 1.0);
    if anchors.is_empty() || params.horizon == 0 || decay == 0.0 {
        // A repeated anchor keeps its last value, first after the reversal.
        let mut activation: Vec<(AgentId, f64)> = anchors.iter().rev().copied().collect();
        activation.sort_by_key(|&(agent, _)| agent);
        activation.dedup_by_key(|&mut (agent, _)| agent);
        return SpreadResult {
            activation,
            hops: 0,
            explored: anchors.len(),
            frontier_sizes: Vec::new(),
        };
    }
    // Universe discovery (BFS over positive trust edges from the anchors),
    // the trust half of the merged edges and the anchors' energy, on this
    // thread's agent → universe-index table.
    let (universe, mut adjacency, mut active) = MEMBER.with_borrow_mut(|member| {
        let mut universe: Vec<AgentId> = anchors.iter().map(|&(a, _)| a).collect();
        universe.sort();
        universe.dedup();
        member.reset(community.trust.agent_count());
        for (i, &agent) in universe.iter().enumerate() {
            member.insert(agent.index(), i as u32);
        }
        let mut frontier: Vec<AgentId> = universe.clone();
        for _ in 0..params.horizon {
            let mut next = Vec::new();
            for &node in &frontier {
                for (nbr, _) in community.trust.positive_out_edges(node) {
                    let full = universe.len() >= params.max_nodes.max(anchors.len());
                    if nbr == target || member.get(nbr.index()).is_some() || full {
                        continue;
                    }
                    member.insert(nbr.index(), universe.len() as u32);
                    universe.push(nbr);
                    next.push(nbr);
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }

        let mut adjacency: Vec<Vec<(usize, f64)>> = vec![Vec::new(); universe.len()];
        for (i, &node) in universe.iter().enumerate() {
            for (nbr, w) in community.trust.positive_out_edges(node) {
                if let Some(j) = member.get(nbr.index()) {
                    adjacency[i].push((j as usize, w));
                }
            }
        }
        let mut active = vec![0.0f64; universe.len()];
        for &(agent, anchor) in anchors {
            active[member.get(agent.index()).expect("anchors are members") as usize] += anchor;
        }
        (universe, adjacency, active)
    });

    // The taxonomy half of the merged edges: each node's trust statements
    // in edge order come first, then its similarity links in ascending
    // universe index.
    let n = universe.len();
    for i in 0..n {
        let similarities = measure.apply_each(
            profiles.profile(universe[i]),
            universe[i + 1..].iter().map(|&peer| profiles.profile(peer)),
        );
        for (j, sim) in (i + 1..n).zip(similarities) {
            let Some(sim) = sim else {
                continue;
            };
            if sim >= params.sim_edge_threshold && sim > 0.0 {
                adjacency[i].push((j, sim));
                adjacency[j].push((i, sim));
            }
        }
    }

    // Iterative spread: `active` holds the energy that arrived last hop.
    let mut accumulated = active.clone();
    let mut hops = 0;
    let mut frontier_sizes = Vec::new();
    for _ in 0..params.horizon {
        let mut next = vec![0.0f64; n];
        let mut transferred = false;
        for i in 0..n {
            if active[i] <= 0.0 || adjacency[i].is_empty() {
                continue;
            }
            let share = decay / adjacency[i].len() as f64;
            for &(j, w) in &adjacency[i] {
                let energy = active[i] * w * share;
                if energy > 0.0 {
                    next[j] += energy;
                    transferred = true;
                }
            }
        }
        if !transferred {
            break;
        }
        hops += 1;
        for i in 0..n {
            accumulated[i] += next[i];
        }
        frontier_sizes.push(next.iter().filter(|&&e| e > 0.0).count());
        active = next;
    }

    let mut activation: Vec<(AgentId, f64)> = universe
        .iter()
        .zip(&accumulated)
        .filter(|&(_, &a)| a > 0.0)
        .map(|(&agent, &a)| (agent, a))
        .collect();
    activation.sort_unstable_by_key(|&(agent, _)| agent);
    SpreadResult { activation, hops, explored: n, frontier_sizes }
}

/// The two-phase spreading-activation ranker closing the paper's §5 gap.
///
/// Phase 1 anchors each neighborhood peer with its taxonomy-similarity
/// score (the positive similarity normalized by the neighborhood maximum,
/// exactly the scale [`crate::synthesis::SynthesisStrategy::LinearBlend`]
/// uses). Phase 2 spreads that activation over the merged trust + taxonomy
/// graph via [`spread_activation`]. The final weight of each neighborhood
/// peer blends three normalized signals under
/// [`SpreadingParams::blend`]: the synthesized similarity score (what
/// [`SimilarityRanker`] would emit), the accumulated activation, and
/// structural centrality (positive trust in-degree, normalized over the
/// candidates).
///
/// With [`BlendWeights::SIMILARITY_ONLY`] the output is byte-identical to
/// [`SimilarityRanker`] — the equivalence the property suite pins.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpreadingActivationRanker {
    /// Spread and blend parameters.
    pub params: SpreadingParams,
}

impl SpreadingActivationRanker {
    /// A ranker with the given parameters.
    pub fn new(params: SpreadingParams) -> Self {
        SpreadingActivationRanker { params }
    }

    /// Phase-1 anchors for a context: each peer's positive similarity
    /// normalized by the neighborhood's maximum (peers without a positive
    /// similarity carry no anchor energy).
    pub fn anchors(ctx: &RankContext<'_>) -> Vec<(AgentId, f64)> {
        let max_sim =
            ctx.peers.iter().filter_map(|p| p.similarity).fold(0.0f64, f64::max);
        ctx.peers
            .iter()
            .filter_map(|p| {
                let sim = p.similarity.unwrap_or(0.0).max(0.0);
                let sim = if max_sim > 0.0 { sim / max_sim } else { sim };
                (sim > 0.0).then_some((p.agent, sim))
            })
            .collect()
    }

    /// Runs phase 2 for a context and returns the full spread outcome —
    /// the introspection hook the ranking property tests use.
    pub fn spread(&self, ctx: &RankContext<'_>) -> SpreadResult {
        spread_activation(
            ctx.community,
            ctx.profiles,
            ctx.config.similarity,
            ctx.target,
            &Self::anchors(ctx),
            &self.params,
        )
    }
}

impl Ranker for SpreadingActivationRanker {
    fn name(&self) -> &'static str {
        "spreading-activation"
    }

    fn rank(&self, ctx: &RankContext<'_>) -> Vec<RankedPeer> {
        self.rank_reported(ctx).0
    }

    fn rank_reported(&self, ctx: &RankContext<'_>) -> (Vec<RankedPeer>, RankReport) {
        let blend = self.params.blend.normalized();

        // Phase-1 similarity signal: exactly the synthesized score the
        // SimilarityRanker would emit (absent peers score 0), by agent.
        let mut base = synthesize(ctx.config.synthesis, ctx.peers);
        base.sort_unstable_by_key(|&(agent, _)| agent);
        let base_of = |agent: AgentId| {
            base.binary_search_by_key(&agent, |&(a, _)| a).map_or(0.0, |i| base[i].1)
        };

        // Phase 2, skipped entirely when activation carries no weight so
        // the similarity-only blend costs exactly what SimilarityRanker
        // costs (and is byte-identical to it).
        let (spread, spreads) = if blend.activation > 0.0 {
            (self.spread(ctx), 1)
        } else {
            (SpreadResult::default(), 0)
        };
        let max_activation =
            ctx.peers.iter().map(|p| spread.activation_of(p.agent)).fold(0.0f64, f64::max);

        // Structural centrality: positive trust in-degree, normalized over
        // the candidate set.
        let in_degree = |agent: AgentId| -> f64 {
            ctx.community
                .trust
                .trusters_of(agent)
                .iter()
                .filter(|&&s| ctx.community.trust.trust(s, agent).is_some_and(|w| w > 0.0))
                .count() as f64
        };
        let centrality: Vec<f64> = if blend.centrality > 0.0 {
            ctx.peers.iter().map(|p| in_degree(p.agent)).collect()
        } else {
            vec![0.0; ctx.peers.len()]
        };
        let max_centrality = centrality.iter().copied().fold(0.0f64, f64::max);

        let mut out: Vec<RankedPeer> = ctx
            .peers
            .iter()
            .zip(&centrality)
            .map(|(p, &cent)| {
                let sim = base_of(p.agent);
                let act = spread.activation_of(p.agent);
                let act = if max_activation > 0.0 { act / max_activation } else { act };
                let cent = if max_centrality > 0.0 { cent / max_centrality } else { cent };
                RankedPeer::new(
                    p.agent,
                    ScoreComponents {
                        similarity: blend.similarity * sim,
                        activation: blend.activation * act,
                        centrality: blend.centrality * cent,
                    },
                )
            })
            .filter(|p| p.weight > 0.0)
            .collect();
        // `total_cmp` orders as `partial_cmp` did: no weight is NaN (every
        // component is finite) or −0.0 (weights are filtered > 0).
        out.sort_by(|a, b| b.weight.total_cmp(&a.weight).then(a.agent.cmp(&b.agent)));
        let report = RankReport {
            spreads,
            hops: spread.hops,
            activated: spread.activation.len(),
            explored: spread.explored,
            frontier_sizes: spread.frontier_sizes,
        };
        (out, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Recommender;
    use semrec_taxonomy::fixtures::example1;
    use semrec_taxonomy::ProductId;

    fn world() -> (Community, Vec<AgentId>, Vec<ProductId>) {
        let e = example1();
        let products: Vec<_> = e.catalog.iter().collect();
        let mut c = Community::new(e.fig.taxonomy, e.catalog);
        let agents: Vec<AgentId> = (0..6)
            .map(|i| c.add_agent(format!("http://ex.org/u{i}")).unwrap())
            .collect();
        // u0 trusts u1, u2; u1 trusts u3; u2 trusts u4; u4 trusts u5.
        c.trust.set_trust(agents[0], agents[1], 0.9).unwrap();
        c.trust.set_trust(agents[0], agents[2], 0.7).unwrap();
        c.trust.set_trust(agents[1], agents[3], 0.8).unwrap();
        c.trust.set_trust(agents[2], agents[4], 0.6).unwrap();
        c.trust.set_trust(agents[4], agents[5], 0.9).unwrap();
        for (i, &a) in agents.iter().enumerate() {
            c.set_rating(a, products[i % 4], 1.0).unwrap();
        }
        (c, agents, products)
    }

    fn context_parts(c: &Community) -> (crate::profiles::ProfileStore, RecommenderConfig) {
        let config = RecommenderConfig::default();
        (crate::profiles::ProfileStore::build(c, &config.profile), config)
    }

    #[test]
    fn blend_normalization_falls_back_to_similarity_only() {
        let zero = BlendWeights { similarity: 0.0, activation: 0.0, centrality: 0.0 };
        assert_eq!(zero.normalized(), BlendWeights::SIMILARITY_ONLY);
        let n = BlendWeights { similarity: 2.0, activation: 1.0, centrality: 1.0 }.normalized();
        assert!((n.total() - 1.0).abs() < 1e-12);
        assert!((n.similarity - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ranked_peer_weight_is_exactly_the_component_sum() {
        let p = RankedPeer::new(
            AgentId::from_index(3),
            ScoreComponents { similarity: 0.1, activation: 0.2, centrality: 0.3 },
        );
        assert_eq!(p.weight.to_bits(), p.components.total().to_bits());
    }

    #[test]
    fn similarity_only_blend_is_byte_identical_to_similarity_ranker() {
        let (c, agents, _) = world();
        let spread = Recommender::with_ranker(
            c.clone(),
            RecommenderConfig::default(),
            Arc::new(SpreadingActivationRanker::new(SpreadingParams {
                blend: BlendWeights::SIMILARITY_ONLY,
                ..SpreadingParams::default()
            })),
        );
        let plain = Recommender::new(c, RecommenderConfig::default());
        for &a in &agents {
            let (sw, _) = spread.peer_weights(a).unwrap();
            let (pw, _) = plain.peer_weights(a).unwrap();
            let bits = |v: &[(AgentId, f64)]| -> Vec<(AgentId, u64)> {
                v.iter().map(|&(p, w)| (p, w.to_bits())).collect()
            };
            assert_eq!(bits(&sw), bits(&pw));
        }
    }

    #[test]
    fn activation_never_reaches_past_the_horizon() {
        let (c, agents, _) = world();
        let (profiles, config) = context_parts(&c);
        // Anchor only u1; with horizon 1, u5 (3 trust hops away via
        // u1→…→nothing; reachable only through u2's branch) must stay dark.
        let params = SpreadingParams {
            horizon: 1,
            sim_edge_threshold: f64::INFINITY, // trust edges only
            ..SpreadingParams::default()
        };
        let result = spread_activation(
            &c,
            &profiles,
            config.similarity,
            agents[0],
            &[(agents[1], 1.0)],
            &params,
        );
        assert!(result.activation_of(agents[1]) > 0.0);
        assert!(result.activation_of(agents[3]) > 0.0, "u3 is one hop out");
        for far in [agents[2], agents[4], agents[5]] {
            assert_eq!(
                result.activation_of(far),
                0.0,
                "{far:?} is unreachable within horizon 1 from u1"
            );
        }
        assert!(result.hops <= 1);
    }

    #[test]
    fn spread_is_monotone_in_retention() {
        let (c, agents, _) = world();
        let (profiles, config) = context_parts(&c);
        let anchors = vec![(agents[1], 0.8), (agents[2], 0.5)];
        let at = |decay: f64| {
            spread_activation(
                &c,
                &profiles,
                config.similarity,
                agents[0],
                &anchors,
                &SpreadingParams { decay, ..SpreadingParams::default() },
            )
        };
        let low = at(0.3);
        let high = at(0.9);
        for &(agent, a) in &low.activation {
            assert!(
                high.activation_of(agent) >= a - 1e-15,
                "activation must not shrink when retention grows: {agent:?}"
            );
        }
    }

    #[test]
    fn zero_horizon_keeps_only_the_anchors() {
        let (c, agents, _) = world();
        let (profiles, config) = context_parts(&c);
        let result = spread_activation(
            &c,
            &profiles,
            config.similarity,
            agents[0],
            &[(agents[1], 0.8)],
            &SpreadingParams { horizon: 0, ..SpreadingParams::default() },
        );
        assert_eq!(result.hops, 0);
        assert_eq!(result.activation, [(agents[1], 0.8)]);
    }

    #[test]
    fn universe_cap_bounds_exploration() {
        let (c, agents, _) = world();
        let (profiles, config) = context_parts(&c);
        let result = spread_activation(
            &c,
            &profiles,
            config.similarity,
            agents[0],
            &[(agents[1], 1.0), (agents[2], 1.0)],
            &SpreadingParams { max_nodes: 2, ..SpreadingParams::default() },
        );
        assert_eq!(result.explored, 2, "the cap must hold even with room to grow");
    }

    #[test]
    fn ranker_output_is_sorted_and_decomposes() {
        let (c, agents, _) = world();
        let engine = Recommender::with_ranker(
            c,
            RecommenderConfig::default(),
            Arc::new(SpreadingActivationRanker::default()),
        );
        let (ranked, _) = engine.rank_peers(agents[0]).unwrap();
        assert!(!ranked.is_empty());
        assert!(ranked.windows(2).all(|w| w[0].weight >= w[1].weight));
        for p in &ranked {
            assert!(p.weight > 0.0 && p.weight.is_finite());
            assert_eq!(p.weight.to_bits(), p.components.total().to_bits());
        }
    }
}
