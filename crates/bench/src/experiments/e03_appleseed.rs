//! **E3 — Appleseed behaviour** (ref \[12\]'s evaluation): convergence as a
//! function of the threshold `T_c`, and rank distribution as a function of
//! the spreading factor `d`.

use semrec_datagen::community::generate_community;
use semrec_eval::table::{fmt, Table};
use semrec_trust::appleseed::{appleseed, AppleseedParams};
use semrec_trust::CsrGraph;

use crate::Scale;

/// Measured series for shape assertions.
pub struct Outcome {
    /// `(T_c, iterations)` — iterations grow as the threshold tightens.
    pub convergence: Vec<(f64, usize)>,
    /// `(d, total rank, head share)` — higher d spreads rank deeper.
    pub spreading: Vec<(f64, f64, f64)>,
}

/// Runs E3.
pub fn run(scale: Scale) -> (Outcome, String) {
    let mut out = super::header("E3", "Appleseed — convergence and spreading factor (ref [12])");
    let community = generate_community(&scale.community(303)).community;
    let graph = &CsrGraph::from_graph(&community.trust);
    let source = community.agents().next().unwrap();
    outln!(
        out,
        "Trust network: {} agents, {} statements; source {source}, injection 200\n",
        graph.agent_count(),
        graph.edge_count()
    );

    // (a) iterations vs convergence threshold.
    outln!(out, "(a) Iterations until fixpoint vs T_c (d = 0.85):");
    let mut table = Table::new(["T_c", "iterations", "nodes", "total rank"]);
    let mut convergence = Vec::new();
    for tc in [1.0, 0.1, 0.01, 0.001, 0.0001] {
        let r = appleseed(
            graph,
            source,
            &AppleseedParams { convergence: tc, ..Default::default() },
        )
        .unwrap();
        assert!(r.converged);
        table.row([
            format!("{tc}"),
            r.iterations.to_string(),
            r.nodes_discovered.to_string(),
            fmt(r.total_rank()),
        ]);
        convergence.push((tc, r.iterations));
    }
    outln!(out, "{}", table.render());

    // (b) rank distribution vs spreading factor.
    outln!(out, "(b) Rank distribution vs spreading factor d (T_c = 0.001):");
    let mut table = Table::new(["d", "total rank", "top-1 share", "top-10 share", "iterations"]);
    let mut spreading = Vec::new();
    for d in [0.5, 0.65, 0.8, 0.85, 0.9] {
        let r = appleseed(
            graph,
            source,
            &AppleseedParams { spreading_factor: d, convergence: 0.001, ..Default::default() },
        )
        .unwrap();
        let total = r.total_rank();
        let top1: f64 = r.top(1).iter().map(|&(_, x)| x).sum();
        let top10: f64 = r.top(10).iter().map(|&(_, x)| x).sum();
        table.row([
            format!("{d}"),
            fmt(total),
            fmt(top1 / total),
            fmt(top10 / total),
            r.iterations.to_string(),
        ]);
        spreading.push((d, total, top1 / total));
    }
    outln!(out, "{}", table.render());
    outln!(out, "Higher d forwards more energy instead of keeping it near the source: the");
    outln!(out, "head share of the closest peers falls and convergence takes longer —");
    outln!(out, "exactly the knob ref [12] describes for widening the neighborhood.");

    (Outcome { convergence, spreading }, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_hold_at_small_scale() {
        let (o, text) = run(Scale::Small);
        // Iterations are non-decreasing as T_c tightens.
        for w in o.convergence.windows(2) {
            assert!(w[0].0 > w[1].0, "thresholds must tighten");
            assert!(w[0].1 <= w[1].1, "iterations must not drop: {:?}", o.convergence);
        }
        // Head share decreases as d grows.
        let first = o.spreading.first().unwrap().2;
        let last = o.spreading.last().unwrap().2;
        assert!(first > last, "head share must fall with d: {first} vs {last}");
        super::super::assert_golden(&text);
    }
}
