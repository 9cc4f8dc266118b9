//! **E11 — Appleseed vs Advogato** (§3.2): the paper chose Appleseed over
//! "the most important and most well-known local group trust metric"
//! because Advogato "can only make boolean decisions". This experiment
//! quantifies the comparison: agreement between Advogato's accepted set and
//! Appleseed's top-k, plus both metrics' resistance to a sybil cabal.

use semrec_datagen::community::generate_community;
use semrec_eval::table::{fmt, Table};
use semrec_trust::advogato::{advogato, AdvogatoParams};
use semrec_trust::appleseed::{appleseed, AppleseedParams};
use semrec_trust::{CsrGraph, TrustGraph};

use crate::Scale;

/// Measured values for shape assertions.
pub struct Outcome {
    /// `(group size, |accepted|, overlap with appleseed top-k)` rows.
    pub agreement: Vec<(usize, usize, f64)>,
    /// Fraction of sybils certified by Advogato / ranked in Appleseed top-k.
    pub sybil_advogato: f64,
    /// Same for Appleseed.
    pub sybil_appleseed: f64,
}

/// Runs E11.
pub fn run(scale: Scale) -> (Outcome, String) {
    let mut out =
        super::header("E11", "Appleseed vs Advogato — agreement and attack resistance (§3.2)");
    let community = generate_community(&scale.community(1111)).community;
    let graph = &community.trust;
    let source = community.agents().next().unwrap();

    // (a) agreement between the boolean and the continuous metric.
    outln!(out, "(a) Accepted-set vs top-k agreement (same seed {source}):");
    let apple =
        appleseed(&CsrGraph::from_graph(graph), source, &AppleseedParams::default()).unwrap();
    let mut agreement = Vec::new();
    let mut table = Table::new(["target group", "advogato accepted", "∩ appleseed top-k", "overlap"]);
    for group in [10usize, 25, 50] {
        let adv = advogato(
            graph,
            source,
            &AdvogatoParams { target_group_size: group, ..Default::default() },
        )
        .unwrap();
        let k = adv.accepted.len();
        let top: Vec<_> = apple.top(k).iter().map(|&(a, _)| a).collect();
        let shared = top.iter().filter(|a| adv.is_accepted(**a)).count();
        let overlap = if k > 0 { shared as f64 / k as f64 } else { 0.0 };
        table.row([group.to_string(), k.to_string(), shared.to_string(), fmt(overlap)]);
        agreement.push((group, k, overlap));
    }
    outln!(out, "{}", table.render());

    // (b) sybil resistance: a cabal certified through one cut edge.
    outln!(out, "(b) Sybil cabal hanging off a single honest→sybil edge:");
    let mut attacked: TrustGraph = graph.clone();
    let cabal = 40usize;
    let bridgehead = attacked.add_agent();
    // One weakly trusted edge from a peripheral honest agent into the cabal.
    let honest_edge_source = community.agents().nth(5).unwrap();
    attacked.set_trust(honest_edge_source, bridgehead, 0.6).unwrap();
    let mut sybils = vec![bridgehead];
    for _ in 1..cabal {
        let s = attacked.add_agent();
        sybils.push(s);
    }
    for &a in &sybils {
        for &b in &sybils {
            if a != b {
                attacked.set_trust(a, b, 1.0).unwrap();
            }
        }
    }

    let adv = advogato(
        &attacked,
        source,
        &AdvogatoParams { target_group_size: 50, ..Default::default() },
    )
    .unwrap();
    let sybil_certified = sybils.iter().filter(|&&s| adv.is_accepted(s)).count();
    let apple_attacked =
        appleseed(&CsrGraph::from_graph(&attacked), source, &AppleseedParams::default()).unwrap();
    let top50: Vec<_> = apple_attacked.top(50).iter().map(|&(a, _)| a).collect();
    let sybil_ranked = sybils.iter().filter(|s| top50.contains(s)).count();

    let sybil_advogato = sybil_certified as f64 / cabal as f64;
    let sybil_appleseed = sybil_ranked as f64 / cabal as f64;
    outln!(out, "  {cabal} sybils, full internal clique, one incoming honest edge (0.6):");
    outln!(out, "  advogato certifies  : {sybil_certified}/{cabal} = {}", fmt(sybil_advogato));
    outln!(out, "  appleseed top-50 has: {sybil_ranked}/{cabal} = {}", fmt(sybil_appleseed));
    outln!(out, "\nBoth metrics bound the cabal by the single cut edge's capacity/energy —");
    outln!(out, "the attack-resistance property Levien designed for and Appleseed inherits,");
    outln!(out, "but Appleseed additionally grades everyone it does admit.");

    (Outcome { agreement, sybil_advogato, sybil_appleseed }, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_agree_and_resist_sybils() {
        let (o, text) = run(Scale::Small);
        // Meaningful agreement between the two metrics on honest data.
        for &(_, k, overlap) in &o.agreement {
            if k >= 10 {
                assert!(overlap > 0.4, "agreement too low: {overlap}");
            }
        }
        // A 40-sybil cabal with one cut edge captures only a small slice.
        assert!(o.sybil_advogato < 0.25, "advogato: {}", o.sybil_advogato);
        assert!(o.sybil_appleseed < 0.25, "appleseed: {}", o.sybil_appleseed);
        super::super::assert_golden(&text);
    }
}
