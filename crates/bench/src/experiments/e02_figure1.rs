//! **E2 — Figure 1**: the Amazon book taxonomy fragment.
//!
//! Renders the fixture tree and verifies the §3.1 structural invariants:
//! single top element ⊤ with zero indegree, acyclicity, and the sibling
//! counts Example 1's arithmetic implies.

use semrec_taxonomy::fixtures::figure1;
use semrec_taxonomy::{stats, TopicId};

/// Structural summary for shape assertions.
pub struct Outcome {
    /// Rendered tree.
    pub rendering: String,
    /// Number of topics.
    pub topics: usize,
    /// Depth of the Algebra leaf.
    pub algebra_depth: u32,
}

/// Runs E2.
pub fn run() -> (Outcome, String) {
    let mut out = super::header("E2", "Figure 1 — fragment of the Amazon book taxonomy");
    let f = figure1();
    let rendering = stats::render_tree(&f.taxonomy, 64);
    outln!(out, "{rendering}");

    let s = stats::stats(&f.taxonomy);
    outln!(
        out,
        "{} topics, {} leaves, max depth {}, mean branching {:.2}",
        s.topics, s.leaves, s.max_depth, s.mean_branching
    );
    outln!(out, "\nSibling counts implied by Example 1 (sib + 1 divisors: 2, 3, 4, 4):");
    for (child, parent) in [
        (f.algebra, f.pure),
        (f.pure, f.mathematics),
        (f.mathematics, f.science),
        (f.science, TopicId::TOP),
    ] {
        outln!(
            out,
            "  sib({}) under {} = {}",
            f.taxonomy.label(child),
            f.taxonomy.label(parent),
            f.taxonomy.siblings_under(child, parent)
        );
    }

    (Outcome { rendering, topics: s.topics, algebra_depth: f.taxonomy.depth(f.algebra) }, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_structure_holds() {
        let (outcome, text) = run();
        assert_eq!(outcome.algebra_depth, 4);
        assert!(outcome.topics >= 19);
        for label in ["Books", "Science", "Mathematics", "Pure", "Algebra"] {
            assert!(outcome.rendering.contains(label));
        }
        super::super::assert_golden(&text);
    }
}
