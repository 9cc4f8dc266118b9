//! The frozen, compressed-sparse-row (CSR) form of a [`TrustGraph`].
//!
//! The adjacency-list [`TrustGraph`] is the mutable builder (binary-search
//! insert per statement), but its `Vec<Vec<(AgentId, f64)>>` layout scatters
//! every agent's edge list across the heap — each hop of a
//! spreading-activation walk is a pointer chase. [`CsrGraph::from_graph`]
//! freezes it into five flat arenas, the only form Appleseed and
//! neighborhood formation read:
//!
//! ```text
//! out_offsets : [u32; n+1]   agent i's out-edges live at out_offsets[i]..out_offsets[i+1]
//! out_targets : [u32; m]     trustee ids, sorted within each agent's range
//! out_weights : [f64; m]     parallel trust values
//! in_offsets  : [u32; n+1]   agent i's trusters live at in_offsets[i]..in_offsets[i+1]
//! in_sources  : [u32; m]     truster ids, in the graph's insertion order
//! ```
//!
//! and, derived from them for one `spreading_power` `p` (1.0 unless
//! [`CsrGraph::with_spreading_power`] re-derives them), what Appleseed would
//! otherwise recompute per query although no query can change it:
//!
//! ```text
//! powered      : [f64; m]         |out_weights[k]|^p
//! powered_sums : [(f64, f64); n]  agent i's trust and distrust sums of `powered`, each in edge order
//! ```
//!
//! Neither is persisted: they are a function of the five arenas and `p`.
//!
//! Edge order is preserved *exactly* — out-edges stay sorted by trustee
//! (as `TrustGraph` keeps them) and truster lists keep their insertion
//! order — so every float summation that walks a CSR row accumulates in
//! the same order as a walk of the adjacency list it was frozen from (which
//! is how the test oracle checks the Appleseed kernel bit for bit). This is
//! also the layout snapshot format v2 persists verbatim, so a recovery can
//! reassemble the graph with bulk copies instead of a per-edge parse.

use crate::agent::AgentId;
use crate::appleseed::{Partition, Trustee};
use crate::error::{Result, TrustError};
use crate::graph::TrustGraph;

/// A read-only trust network in compressed-sparse-row form.
#[derive(Clone, Debug)]
pub struct CsrGraph {
    out_offsets: Vec<u32>,
    out_targets: Vec<u32>,
    out_weights: Vec<f64>,
    in_offsets: Vec<u32>,
    in_sources: Vec<u32>,
    /// The exponent `powered` and `powered_sums` are derived for.
    spreading_power: f64,
    powered: Vec<f64>,
    powered_sums: Vec<(f64, f64)>,
}

impl CsrGraph {
    /// Packs a [`TrustGraph`] into CSR arenas, preserving edge order.
    pub fn from_graph(graph: &TrustGraph) -> CsrGraph {
        let n = graph.agent_count();
        let m = graph.edge_count();
        let mut out_offsets = Vec::with_capacity(n + 1);
        let mut out_targets = Vec::with_capacity(m);
        let mut out_weights = Vec::with_capacity(m);
        let mut in_offsets = Vec::with_capacity(n + 1);
        let mut in_sources = Vec::with_capacity(m);
        out_offsets.push(0);
        in_offsets.push(0);
        for agent in graph.agents() {
            for &(target, weight) in graph.out_edges(agent) {
                out_targets.push(target.index() as u32);
                out_weights.push(weight);
            }
            out_offsets.push(out_targets.len() as u32);
            for &source in graph.trusters_of(agent) {
                in_sources.push(source.index() as u32);
            }
            in_offsets.push(in_sources.len() as u32);
        }
        CsrGraph::frozen(out_offsets, out_targets, out_weights, in_offsets, in_sources)
    }

    /// Reassembles CSR arenas (e.g. read back from a snapshot), validating
    /// shape and content so corrupted input yields a typed error rather
    /// than a panic or an inconsistent graph:
    /// offsets must be monotone and span their edge arrays exactly, every
    /// target/source id must be `< n`, weights must be in `[-1, 1]` and
    /// non-NaN, targets must be strictly sorted within each agent's range
    /// (no self-edges), and the reverse arenas must mirror the forward ones:
    /// each agent's trusters are exactly the agents whose out-row holds it.
    pub fn from_parts(
        out_offsets: Vec<u32>,
        out_targets: Vec<u32>,
        out_weights: Vec<f64>,
        in_offsets: Vec<u32>,
        in_sources: Vec<u32>,
    ) -> Result<CsrGraph> {
        let n = check_offsets(&out_offsets, out_targets.len())?;
        if check_offsets(&in_offsets, in_sources.len())? != n {
            return Err(TrustError::InvalidCsr("forward/reverse agent counts differ"));
        }
        if out_targets.len() != out_weights.len() {
            return Err(TrustError::InvalidCsr("target/weight arrays differ in length"));
        }
        if out_targets.len() != in_sources.len() {
            return Err(TrustError::InvalidCsr("forward/reverse edge counts differ"));
        }
        for i in 0..n {
            let range = out_offsets[i] as usize..out_offsets[i + 1] as usize;
            let targets = &out_targets[range];
            for pair in targets.windows(2) {
                if pair[0] >= pair[1] {
                    return Err(TrustError::InvalidCsr("out-targets not strictly sorted"));
                }
            }
            for &t in targets {
                if t as usize >= n || t as usize == i {
                    return Err(TrustError::InvalidCsr("out-target id out of range"));
                }
            }
        }
        for &s in &in_sources {
            if s as usize >= n {
                return Err(TrustError::InvalidCsr("in-source id out of range"));
            }
        }
        check_mirror(&out_offsets, &out_targets, &in_offsets, &in_sources)?;
        for &w in &out_weights {
            if !(-1.0..=1.0).contains(&w) || w.is_nan() {
                return Err(TrustError::InvalidWeight(w));
            }
        }
        Ok(CsrGraph::frozen(out_offsets, out_targets, out_weights, in_offsets, in_sources))
    }

    /// The five arenas plus what is derived from them, for the linear
    /// default `spreading_power` 1.0.
    fn frozen(
        out_offsets: Vec<u32>,
        out_targets: Vec<u32>,
        out_weights: Vec<f64>,
        in_offsets: Vec<u32>,
        in_sources: Vec<u32>,
    ) -> CsrGraph {
        let mut graph = CsrGraph {
            out_offsets,
            out_targets,
            out_weights,
            in_offsets,
            in_sources,
            spreading_power: 1.0,
            powered: Vec::new(),
            powered_sums: Vec::new(),
        };
        graph.derive_powered();
        graph
    }

    /// This graph with its powered weights and row sums derived for
    /// `spreading_power` — the exponent every
    /// [`appleseed`](crate::appleseed::appleseed) run over it must then ask
    /// for.
    pub fn with_spreading_power(mut self, spreading_power: f64) -> CsrGraph {
        if spreading_power != self.spreading_power {
            self.spreading_power = spreading_power;
            self.derive_powered();
        }
        self
    }

    /// Fills `powered` and `powered_sums` from the weights. Each sum runs
    /// in edge order from 0.0, which is the order (and so the bits) of a
    /// walk that sums a row's trust and then its distrust statements.
    fn derive_powered(&mut self) {
        let power = self.spreading_power;
        self.powered.clear();
        self.powered.extend(self.out_weights.iter().map(|w| w.abs().powf(power)));
        self.powered_sums.clear();
        self.powered_sums.reserve_exact(self.agent_count());
        for row in self.out_offsets.windows(2) {
            let row = row[0] as usize..row[1] as usize;
            let (mut trust, mut distrust) = (0.0, 0.0);
            for (&w, &pw) in self.out_weights[row.clone()].iter().zip(&self.powered[row]) {
                if w > 0.0 {
                    trust += pw;
                } else if w < 0.0 {
                    distrust += pw;
                }
            }
            self.powered_sums.push((trust, distrust));
        }
    }

    /// Expands back into an adjacency-list [`TrustGraph`], bit-identical
    /// to the graph [`CsrGraph::from_graph`] was built from (including
    /// truster insertion order) — the snapshot-v2 load path.
    pub fn to_graph(&self) -> TrustGraph {
        let n = self.agent_count();
        let mut out = Vec::with_capacity(n);
        let mut inc = Vec::with_capacity(n);
        for i in 0..n {
            out.push(
                self.out_targets(AgentId::from_index(i))
                    .iter()
                    .zip(self.out_weights(AgentId::from_index(i)))
                    .map(|(&t, &w)| (AgentId::from_index(t as usize), w))
                    .collect(),
            );
            inc.push(
                self.trusters_of(AgentId::from_index(i))
                    .iter()
                    .map(|&s| AgentId::from_index(s as usize))
                    .collect(),
            );
        }
        TrustGraph::from_adjacency(out, inc)
    }

    /// Number of agents `n`.
    pub fn agent_count(&self) -> usize {
        self.out_offsets.len().saturating_sub(1)
    }

    /// Number of trust statements (directed edges).
    pub fn edge_count(&self) -> usize {
        self.out_targets.len()
    }

    fn out_range(&self, agent: AgentId) -> std::ops::Range<usize> {
        self.out_offsets[agent.index()] as usize..self.out_offsets[agent.index() + 1] as usize
    }

    /// Trustee ids of `agent`'s statements, sorted ascending.
    pub fn out_targets(&self, agent: AgentId) -> &[u32] {
        &self.out_targets[self.out_range(agent)]
    }

    /// Trust values parallel to [`CsrGraph::out_targets`].
    pub fn out_weights(&self, agent: AgentId) -> &[f64] {
        &self.out_weights[self.out_range(agent)]
    }

    /// The exponent the powered weights are derived for.
    pub fn spreading_power(&self) -> f64 {
        self.spreading_power
    }

    /// Ids of agents that issued a statement about `agent`.
    pub fn trusters_of(&self, agent: AgentId) -> &[u32] {
        &self.in_sources
            [self.in_offsets[agent.index()] as usize..self.in_offsets[agent.index() + 1] as usize]
    }

    /// `t_i(a_j)`: the trust value, or `None` for `⊥` (no statement).
    pub fn trust(&self, truster: AgentId, trustee: AgentId) -> Option<f64> {
        let range = self.out_range(truster);
        let targets = &self.out_targets[range.clone()];
        targets
            .binary_search(&(trustee.index() as u32))
            .ok()
            .map(|pos| self.out_weights[range.start + pos])
    }

    /// All outgoing statements of `agent` as `(trustee, weight)` pairs.
    pub fn out_edges(&self, agent: AgentId) -> impl Iterator<Item = (AgentId, f64)> + '_ {
        let range = self.out_range(agent);
        self.out_targets[range.clone()]
            .iter()
            .zip(&self.out_weights[range])
            .map(|(&t, &w)| (AgentId::from_index(t as usize), w))
    }

    /// The raw arenas `(out_offsets, out_targets, out_weights, in_offsets,
    /// in_sources)` — what snapshot format v2 persists verbatim.
    #[allow(clippy::type_complexity)]
    pub fn arenas(&self) -> (&[u32], &[u32], &[f64], &[u32], &[u32]) {
        (
            &self.out_offsets,
            &self.out_targets,
            &self.out_weights,
            &self.in_offsets,
            &self.in_sources,
        )
    }

    /// Resident bytes of the five arenas and the two derived arrays (the
    /// `model.bytes` contribution).
    pub fn resident_bytes(&self) -> usize {
        (self.out_offsets.len() + self.out_targets.len() + self.in_offsets.len()
            + self.in_sources.len())
            * std::mem::size_of::<u32>()
            + (self.out_weights.len() + self.powered.len()) * std::mem::size_of::<f64>()
            + self.powered_sums.len() * std::mem::size_of::<(f64, f64)>()
    }
}

/// The whole graph as the Appleseed kernel's one partition: its members the
/// agents, its stars the rows with `|w|^p` and the sums frozen for
/// [`CsrGraph::spreading_power`], no ghosts.
impl Partition for CsrGraph {
    const GHOSTS: bool = false;

    fn members(&self) -> usize {
        self.agent_count()
    }

    fn ghosts(&self) -> usize {
        0
    }

    fn ghost(&self, _: u32) -> (usize, u32) {
        unreachable!("a whole graph has no ghosts")
    }

    fn frozen_power(&self) -> f64 {
        self.spreading_power
    }

    fn sums(&self, member: u32) -> (f64, f64) {
        self.powered_sums[member as usize]
    }

    fn star(&self, member: u32) -> impl Iterator<Item = (f64, f64, Trustee)> + Clone + '_ {
        let row = self.out_range(AgentId(member));
        let statements = self.out_targets[row.clone()].iter().zip(&self.out_weights[row.clone()]);
        let statements = statements.zip(&self.powered[row]);
        statements.map(|((&succ, &w), &pw)| (w, pw, Trustee::Member(succ)))
    }
}

fn check_offsets(offsets: &[u32], edges: usize) -> Result<usize> {
    let Some(&last) = offsets.last() else {
        return Err(TrustError::InvalidCsr("empty offset array"));
    };
    if offsets[0] != 0 {
        return Err(TrustError::InvalidCsr("offsets must start at 0"));
    }
    for pair in offsets.windows(2) {
        if pair[0] > pair[1] {
            return Err(TrustError::InvalidCsr("offsets not monotone"));
        }
    }
    if last as usize != edges {
        return Err(TrustError::InvalidCsr("offsets do not span the edge array"));
    }
    Ok(offsets.len() - 1)
}

/// Checks that every agent's in-list names each source whose out-row holds
/// the agent, once: the in-degrees match the out-targets' counts, and each
/// in-entry claims a distinct edge of its source's row, found by binary
/// search (rows are sorted). Ids and offsets are already in range.
fn check_mirror(
    out_offsets: &[u32],
    out_targets: &[u32],
    in_offsets: &[u32],
    in_sources: &[u32],
) -> Result<()> {
    let mut in_degree = vec![0u32; in_offsets.len() - 1];
    for &t in out_targets {
        in_degree[t as usize] += 1;
    }
    let mut claimed = vec![false; out_targets.len()];
    for (agent, &degree) in in_degree.iter().enumerate() {
        let (start, end) = (in_offsets[agent] as usize, in_offsets[agent + 1] as usize);
        if end - start != degree as usize {
            return Err(TrustError::InvalidCsr("in-degree differs from the out-rows' count"));
        }
        for &s in &in_sources[start..end] {
            let row = out_offsets[s as usize] as usize..out_offsets[s as usize + 1] as usize;
            let edge = match out_targets[row.clone()].binary_search(&(agent as u32)) {
                Ok(k) => row.start + k,
                Err(_) => return Err(TrustError::InvalidCsr("in-source does not trust the agent")),
            };
            if std::mem::replace(&mut claimed[edge], true) {
                return Err(TrustError::InvalidCsr("in-source listed twice"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> TrustGraph {
        let mut g = TrustGraph::with_agents(4);
        let a: Vec<_> = g.agents().collect();
        g.set_trust(a[0], a[1], 0.9).unwrap();
        g.set_trust(a[0], a[2], 0.4).unwrap();
        g.set_trust(a[1], a[3], -0.6).unwrap();
        g.set_trust(a[2], a[3], 0.7).unwrap();
        g.set_trust(a[3], a[0], 0.1).unwrap();
        g
    }

    #[test]
    fn csr_matches_adjacency_lists_exactly() {
        let g = diamond();
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.agent_count(), g.agent_count());
        assert_eq!(csr.edge_count(), g.edge_count());
        for agent in g.agents() {
            let adj: Vec<_> = g.out_edges(agent).to_vec();
            let flat: Vec<_> = csr.out_edges(agent).collect();
            assert_eq!(adj, flat);
            let trusters: Vec<u32> =
                g.trusters_of(agent).iter().map(|s| s.index() as u32).collect();
            assert_eq!(csr.trusters_of(agent), trusters.as_slice());
            for other in g.agents() {
                assert_eq!(g.trust(agent, other), csr.trust(agent, other));
            }
        }
    }

    #[test]
    fn round_trip_through_parts_and_back_to_graph() {
        let g = diamond();
        let csr = CsrGraph::from_graph(&g);
        let (oo, ot, ow, io, is) = csr.arenas();
        let rebuilt = CsrGraph::from_parts(
            oo.to_vec(),
            ot.to_vec(),
            ow.to_vec(),
            io.to_vec(),
            is.to_vec(),
        )
        .unwrap();
        let g2 = rebuilt.to_graph();
        assert_eq!(g2.agent_count(), g.agent_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        for agent in g.agents() {
            assert_eq!(g.out_edges(agent), g2.out_edges(agent));
            assert_eq!(g.trusters_of(agent), g2.trusters_of(agent));
        }
    }

    #[test]
    fn recovered_graph_freezes_the_bits_a_fresh_one_does() {
        let fresh = CsrGraph::from_graph(&diamond());
        let (oo, ot, ow, io, is) = fresh.arenas();
        let recovered =
            CsrGraph::from_parts(oo.to_vec(), ot.to_vec(), ow.to_vec(), io.to_vec(), is.to_vec())
                .unwrap();
        let derived = |g: &CsrGraph| -> (Vec<u64>, Vec<(u64, u64)>) {
            (
                g.powered.iter().map(|pw| pw.to_bits()).collect(),
                g.powered_sums.iter().map(|&(t, d)| (t.to_bits(), d.to_bits())).collect(),
            )
        };
        assert_eq!(fresh.spreading_power(), 1.0);
        assert_eq!(derived(&fresh), derived(&recovered));
        assert_eq!(fresh.powered, [0.9, 0.4, 0.6, 0.7, 0.1]);
        assert_eq!(fresh.powered_sums, [(0.9 + 0.4, 0.0), (0.0, 0.6), (0.7, 0.0), (0.1, 0.0)]);
        // Re-frozen for another exponent, both again agree.
        let (fresh, recovered) = (fresh.with_spreading_power(2.0), recovered.with_spreading_power(2.0));
        assert_eq!(recovered.spreading_power(), 2.0);
        assert_eq!(derived(&fresh), derived(&recovered));
        assert_eq!(fresh.powered_sums[1], (0.0, 0.6f64.powf(2.0)));
    }

    #[test]
    fn corrupted_parts_are_typed_errors() {
        let g = diamond();
        let (oo, ot, ow, io, is) = {
            let csr = CsrGraph::from_graph(&g);
            let (a, b, c, d, e) = csr.arenas();
            (a.to_vec(), b.to_vec(), c.to_vec(), d.to_vec(), e.to_vec())
        };
        // Non-monotone offsets.
        let mut bad = oo.clone();
        bad[1] = bad[2] + 1;
        assert!(CsrGraph::from_parts(bad, ot.clone(), ow.clone(), io.clone(), is.clone()).is_err());
        // Target out of range.
        let mut bad = ot.clone();
        bad[0] = 99;
        assert!(CsrGraph::from_parts(oo.clone(), bad, ow.clone(), io.clone(), is.clone()).is_err());
        // NaN weight.
        let mut bad = ow.clone();
        bad[0] = f64::NAN;
        assert!(CsrGraph::from_parts(oo.clone(), ot.clone(), bad, io.clone(), is.clone()).is_err());
        // Mismatched reverse count.
        let mut bad = is.clone();
        bad.pop();
        assert!(CsrGraph::from_parts(oo, ot, ow, io, bad).is_err());
    }

    #[test]
    fn empty_and_isolated_graphs_work() {
        let empty = CsrGraph::from_graph(&TrustGraph::new());
        assert_eq!(empty.agent_count(), 0);
        assert_eq!(empty.edge_count(), 0);
        let isolated = CsrGraph::from_graph(&TrustGraph::with_agents(3));
        assert_eq!(isolated.agent_count(), 3);
        assert_eq!(isolated.out_targets(AgentId::from_index(1)), &[] as &[u32]);
    }

    #[test]
    fn resident_bytes_counts_all_arenas() {
        let csr = CsrGraph::from_graph(&diamond());
        // 2×(n+1) u32 offsets + 2×m u32 ids + m f64 weights, then the
        // derived m f64 powered weights + n (f64, f64) row sums.
        assert_eq!(csr.resident_bytes(), 2 * 5 * 4 + 2 * 5 * 4 + 5 * 8 + 5 * 8 + 4 * 16);
    }

    /// A reverse arena with every in-degree right but the wrong trusters
    /// behind them is refused: permuted, or naming one truster twice.
    #[test]
    fn reverse_arenas_that_do_not_mirror_are_typed_errors() {
        let csr = CsrGraph::from_graph(&diamond());
        let (oo, ot, ow, io, is) = csr.arenas();
        assert_eq!(is, [3, 0, 0, 1, 2]);
        let with = |in_sources: [u32; 5]| {
            let is = in_sources.to_vec();
            CsrGraph::from_parts(oo.to_vec(), ot.to_vec(), ow.to_vec(), io.to_vec(), is)
        };
        // Agents 0 and 3 trade a truster: 1 trusts neither of them.
        assert!(matches!(with([1, 0, 0, 3, 2]), Err(TrustError::InvalidCsr(_))));
        // 2 does trust 3, but so does 1, which is missing.
        assert!(matches!(with([3, 0, 0, 2, 2]), Err(TrustError::InvalidCsr(_))));
    }
}
