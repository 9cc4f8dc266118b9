//! Rank synthesization (§3.4): merging trust rank and similarity rank into
//! one overall rank weight per peer.
//!
//! The paper explicitly leaves this open ("We have not attacked latter issue
//! yet") and calls for matching approaches against each other within an
//! experimental framework. We implement three natural strategies and
//! experiment E9 compares them:
//!
//! * [`SynthesisStrategy::LinearBlend`] — `ξ·trust + (1−ξ)·similarity` over
//!   normalized scores;
//! * [`SynthesisStrategy::BordaMerge`] — positional rank fusion, robust to
//!   incomparable score scales;
//! * [`SynthesisStrategy::TrustFilter`] — trust is a pure admission gate,
//!   peers are then ordered by similarity alone (the "trust as similarity
//!   filtering" reading of §3.2).

use semrec_trust::AgentId;

/// A peer with its normalized trust rank and its similarity to the source.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PeerScores {
    /// The peer.
    pub agent: AgentId,
    /// Trust rank normalized to `[0, 1]` (1 = most trusted in neighborhood).
    pub trust: f64,
    /// Profile similarity in `[-1, 1]`, or `None` when undefined.
    pub similarity: Option<f64>,
}

/// Strategy for merging the two rankings.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SynthesisStrategy {
    /// `ξ·trust + (1−ξ)·sim̂`; `ξ ∈ [0, 1]`, where `sim̂` is the positive
    /// part of the similarity *normalized by the neighborhood's maximum* —
    /// trust ranks arrive already max-normalized, and without rescaling the
    /// (typically small) raw cosine values the trust term would dominate at
    /// every ξ (experiment E9 measures exactly this imbalance).
    ///
    /// `ξ = 1` is trust-only, `ξ = 0` similarity-only.
    LinearBlend {
        /// Trust weight ξ.
        xi: f64,
    },
    /// Borda rank fusion: each peer scores `(n − position)` in each ranking;
    /// scores are summed and renormalized to `[0, 1]`.
    BordaMerge,
    /// Admission by trust, ordering by similarity: peers keep
    /// `max(similarity, 0)` as weight; undefined similarity drops the peer.
    TrustFilter,
}

impl Default for SynthesisStrategy {
    fn default() -> Self {
        SynthesisStrategy::LinearBlend { xi: 0.5 }
    }
}

/// Merged peer weights, sorted by descending weight; peers with weight 0 are
/// dropped.
pub fn synthesize(strategy: SynthesisStrategy, peers: &[PeerScores]) -> Vec<(AgentId, f64)> {
    let mut out: Vec<(AgentId, f64)> = match strategy {
        SynthesisStrategy::LinearBlend { xi } => {
            let xi = xi.clamp(0.0, 1.0);
            let max_sim = peers
                .iter()
                .filter_map(|p| p.similarity)
                .fold(0.0f64, f64::max);
            peers
                .iter()
                .map(|p| {
                    let sim = p.similarity.unwrap_or(0.0).max(0.0);
                    let sim = if max_sim > 0.0 { sim / max_sim } else { sim };
                    (p.agent, xi * p.trust + (1.0 - xi) * sim)
                })
                .collect()
        }
        SynthesisStrategy::BordaMerge => {
            let n = peers.len();
            let mut by_trust: Vec<usize> = (0..n).collect();
            // Trust ranks are Appleseed energies over their maximum, ≥ +0.0.
            by_trust.sort_by(|&a, &b| peers[b].trust.total_cmp(&peers[a].trust));
            let mut by_sim: Vec<usize> = (0..n).collect();
            by_sim.sort_by(|&a, &b| {
                let sa = peers[a].similarity.unwrap_or(f64::NEG_INFINITY);
                let sb = peers[b].similarity.unwrap_or(f64::NEG_INFINITY);
                // A similarity is a clamped quotient of sums from +0.0: not −0.0.
                sb.total_cmp(&sa)
            });
            let mut scores = vec![0.0f64; n];
            for (pos, &i) in by_trust.iter().enumerate() {
                scores[i] += (n - pos) as f64;
            }
            for (pos, &i) in by_sim.iter().enumerate() {
                scores[i] += (n - pos) as f64;
            }
            let max = scores.iter().copied().fold(0.0, f64::max);
            peers
                .iter()
                .zip(scores)
                .map(|(p, s)| (p.agent, if max > 0.0 { s / max } else { 0.0 }))
                .collect()
        }
        SynthesisStrategy::TrustFilter => peers
            .iter()
            .filter_map(|p| p.similarity.map(|s| (p.agent, s.max(0.0))))
            .collect(),
    };
    out.retain(|&(_, w)| w > 0.0);
    // `retain` kept `w > 0.0`, which drops NaN and both zeros.
    out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: usize) -> AgentId {
        AgentId::from_index(i)
    }

    fn peers() -> Vec<PeerScores> {
        vec![
            PeerScores { agent: a(1), trust: 1.0, similarity: Some(0.2) },
            PeerScores { agent: a(2), trust: 0.5, similarity: Some(0.9) },
            PeerScores { agent: a(3), trust: 0.2, similarity: None },
            PeerScores { agent: a(4), trust: 0.1, similarity: Some(-0.5) },
        ]
    }

    #[test]
    fn xi_one_is_trust_order() {
        let merged = synthesize(SynthesisStrategy::LinearBlend { xi: 1.0 }, &peers());
        let order: Vec<_> = merged.iter().map(|&(p, _)| p).collect();
        assert_eq!(order, vec![a(1), a(2), a(3), a(4)]);
    }

    #[test]
    fn xi_zero_is_similarity_order() {
        let merged = synthesize(SynthesisStrategy::LinearBlend { xi: 0.0 }, &peers());
        let order: Vec<_> = merged.iter().map(|&(p, _)| p).collect();
        // Negative and undefined similarity yield weight 0 → dropped.
        assert_eq!(order, vec![a(2), a(1)]);
    }

    #[test]
    fn blend_interpolates_over_normalized_similarities() {
        let merged = synthesize(SynthesisStrategy::LinearBlend { xi: 0.5 }, &peers());
        // Similarities are rescaled by the neighborhood max (0.9):
        // a1: 0.5·1.0 + 0.5·(0.2/0.9); a2: 0.5·0.5 + 0.5·(0.9/0.9).
        let w1 = merged.iter().find(|&&(p, _)| p == a(1)).unwrap().1;
        let w2 = merged.iter().find(|&&(p, _)| p == a(2)).unwrap().1;
        assert!((w1 - (0.5 + 0.5 * (0.2 / 0.9))).abs() < 1e-12);
        assert!((w2 - 0.75).abs() < 1e-12);
    }

    #[test]
    fn blend_similarity_normalization_balances_small_sims() {
        // Tiny raw similarities (the realistic regime for sparse taxonomy
        // profiles) must still matter at ξ = 0.5.
        let peers = vec![
            PeerScores { agent: a(1), trust: 1.0, similarity: Some(0.001) },
            PeerScores { agent: a(2), trust: 0.9, similarity: Some(0.02) },
        ];
        let merged = synthesize(SynthesisStrategy::LinearBlend { xi: 0.5 }, &peers);
        // a2's 20× larger similarity outweighs a1's slightly larger trust.
        assert_eq!(merged[0].0, a(2));
    }

    #[test]
    fn borda_rewards_consistency() {
        let merged = synthesize(SynthesisStrategy::BordaMerge, &peers());
        // a1: trust pos 0 (4) + sim pos 1 (3) = 7; a2: 3 + 4 = 7;
        // a3: 2 + 1 = 3; a4: 1 + 2 = 3. Max = 7.
        let w = |i: usize| merged.iter().find(|&&(p, _)| p == a(i)).unwrap().1;
        assert!((w(1) - 1.0).abs() < 1e-12);
        assert!((w(2) - 1.0).abs() < 1e-12);
        assert!((w(3) - 3.0 / 7.0).abs() < 1e-12);
        assert_eq!(merged.len(), 4);
    }

    #[test]
    fn trust_filter_orders_by_similarity_only() {
        let merged = synthesize(SynthesisStrategy::TrustFilter, &peers());
        let order: Vec<_> = merged.iter().map(|&(p, _)| p).collect();
        assert_eq!(order, vec![a(2), a(1)]); // a3 undefined, a4 negative
    }

    #[test]
    fn empty_input_yields_empty_output() {
        for strategy in [
            SynthesisStrategy::LinearBlend { xi: 0.5 },
            SynthesisStrategy::BordaMerge,
            SynthesisStrategy::TrustFilter,
        ] {
            assert!(synthesize(strategy, &[]).is_empty());
        }
    }

    #[test]
    fn out_of_range_xi_is_clamped() {
        let merged = synthesize(SynthesisStrategy::LinearBlend { xi: 7.0 }, &peers());
        let trust_order = synthesize(SynthesisStrategy::LinearBlend { xi: 1.0 }, &peers());
        assert_eq!(merged, trust_order);
    }

    #[test]
    fn output_is_sorted_descending() {
        for strategy in [
            SynthesisStrategy::LinearBlend { xi: 0.3 },
            SynthesisStrategy::BordaMerge,
            SynthesisStrategy::TrustFilter,
        ] {
            let merged = synthesize(strategy, &peers());
            assert!(merged.windows(2).all(|w| w[0].1 >= w[1].1));
        }
    }
}
