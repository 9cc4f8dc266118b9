//! Dinic's maximum-flow algorithm on integer capacities.
//!
//! The Advogato trust metric (ref \[11\]) reduces group trust to a max-flow
//! computation over a node-split capacity network; this module provides the
//! flow solver. Capacities are `i64`; the solver is exact.

/// A directed flow network under construction.
#[derive(Clone, Debug, Default)]
pub struct FlowNetwork {
    /// to, capacity — edges stored flat; `graph[v]` holds edge indexes.
    to: Vec<u32>,
    cap: Vec<i64>,
    adj: Vec<Vec<u32>>,
}

/// Identifier of a flow-network node.
pub type FlowNode = u32;

/// Identifier of an edge (index into the internal edge arrays).
pub type FlowEdge = u32;

/// Outcome of [`FlowNetwork::max_flow`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MaxFlow {
    /// The maximum flow from source to sink.
    pub value: i64,
    /// Augmenting paths the solver pushed flow along.
    pub augmenting_paths: usize,
}

impl FlowNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self) -> FlowNode {
        self.adj.push(Vec::new());
        u32::try_from(self.adj.len() - 1).expect("flow network exceeds u32 nodes")
    }

    /// Adds a directed edge with the given capacity, returning its id.
    ///
    /// A residual reverse edge (capacity 0) is added automatically; edge ids
    /// are always even for forward edges, `id ^ 1` is the residual.
    pub fn add_edge(&mut self, from: FlowNode, to: FlowNode, capacity: i64) -> FlowEdge {
        assert!(capacity >= 0, "negative capacity");
        let id = u32::try_from(self.to.len()).expect("flow network exceeds u32 edges");
        self.to.push(to);
        self.cap.push(capacity);
        self.adj[from as usize].push(id);
        self.to.push(from);
        self.cap.push(0);
        self.adj[to as usize].push(id + 1);
        id
    }

    /// Residual capacity currently left on an edge.
    pub fn residual(&self, edge: FlowEdge) -> i64 {
        self.cap[edge as usize]
    }

    /// Flow currently pushed through a forward edge (its residual's capacity).
    pub fn flow(&self, edge: FlowEdge) -> i64 {
        self.cap[(edge ^ 1) as usize]
    }

    /// Computes the maximum flow from `source` to `sink` (Dinic).
    ///
    /// The per-node `Vec<Vec<u32>>` adjacency is flattened into a CSR
    /// arena (one offset array plus one flat edge-id array, preserving
    /// insertion order) before the search, so the BFS/DFS inner loops walk
    /// contiguous slices instead of chasing one heap allocation per node.
    ///
    /// Mutates residual capacities; call [`FlowNetwork::flow`] afterwards to
    /// read per-edge flows.
    pub fn max_flow(&mut self, source: FlowNode, sink: FlowNode) -> MaxFlow {
        assert_ne!(source, sink, "source and sink must differ");
        let n = self.adj.len();

        // Flatten the adjacency into CSR form; edge-id order within each
        // node is preserved, so the augmenting paths found (and therefore
        // the exact residual state) match the nested-Vec walk.
        let mut offsets = Vec::with_capacity(n + 1);
        let mut edges = Vec::with_capacity(self.to.len());
        offsets.push(0u32);
        for list in &self.adj {
            edges.extend_from_slice(list);
            offsets.push(edges.len() as u32);
        }

        let mut flow = MaxFlow { value: 0, augmenting_paths: 0 };
        let mut level = vec![-1i32; n];
        let mut iter = vec![0u32; n];
        loop {
            // BFS level graph over CSR slices.
            level.fill(-1);
            level[source as usize] = 0;
            let mut queue = std::collections::VecDeque::from([source]);
            while let Some(v) = queue.pop_front() {
                let range = offsets[v as usize] as usize..offsets[v as usize + 1] as usize;
                for &e in &edges[range] {
                    let to = self.to[e as usize];
                    if self.cap[e as usize] > 0 && level[to as usize] < 0 {
                        level[to as usize] = level[v as usize] + 1;
                        queue.push_back(to);
                    }
                }
            }
            if level[sink as usize] < 0 {
                return flow;
            }
            iter.fill(0);
            loop {
                let pushed = self.dfs(source, sink, i64::MAX, &offsets, &edges, &level, &mut iter);
                if pushed == 0 {
                    break;
                }
                flow.augmenting_paths += 1;
                flow.value += pushed;
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        &mut self,
        v: FlowNode,
        sink: FlowNode,
        limit: i64,
        offsets: &[u32],
        edges: &[u32],
        level: &[i32],
        iter: &mut [u32],
    ) -> i64 {
        if v == sink {
            return limit;
        }
        let end = offsets[v as usize + 1] - offsets[v as usize];
        while iter[v as usize] < end {
            let e = edges[(offsets[v as usize] + iter[v as usize]) as usize];
            let to = self.to[e as usize];
            if self.cap[e as usize] > 0 && level[to as usize] == level[v as usize] + 1 {
                let pushed = self.dfs(
                    to,
                    sink,
                    limit.min(self.cap[e as usize]),
                    offsets,
                    edges,
                    level,
                    iter,
                );
                if pushed > 0 {
                    self.cap[e as usize] -= pushed;
                    self.cap[(e ^ 1) as usize] += pushed;
                    return pushed;
                }
            }
            iter[v as usize] += 1;
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_edge() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let t = net.add_node();
        let e = net.add_edge(s, t, 7);
        assert_eq!(net.max_flow(s, t).value, 7);
        assert_eq!(net.flow(e), 7);
        assert_eq!(net.residual(e), 0);
    }

    #[test]
    fn counts_augmenting_paths() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let t = net.add_node();
        net.add_edge(s, t, 1);
        assert_eq!(net.max_flow(s, t), MaxFlow { value: 1, augmenting_paths: 1 });
    }

    #[test]
    fn classic_diamond() {
        // s → a (3), s → b (2), a → t (2), b → t (3), a → b (5): max flow 5.
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let b = net.add_node();
        let t = net.add_node();
        net.add_edge(s, a, 3);
        net.add_edge(s, b, 2);
        net.add_edge(a, t, 2);
        net.add_edge(b, t, 3);
        net.add_edge(a, b, 5);
        assert_eq!(net.max_flow(s, t).value, 5);
    }

    #[test]
    fn disconnected_sink_yields_zero() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let t = net.add_node();
        net.add_edge(s, a, 10);
        assert_eq!(net.max_flow(s, t).value, 0);
    }

    #[test]
    fn bottleneck_chain() {
        let mut net = FlowNetwork::new();
        let nodes: Vec<_> = (0..5).map(|_| net.add_node()).collect();
        for (i, w) in [9, 4, 7, 6].iter().enumerate() {
            net.add_edge(nodes[i], nodes[i + 1], *w);
        }
        assert_eq!(net.max_flow(nodes[0], nodes[4]).value, 4);
    }

    #[test]
    fn parallel_edges_accumulate() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let t = net.add_node();
        net.add_edge(s, t, 3);
        net.add_edge(s, t, 4);
        assert_eq!(net.max_flow(s, t).value, 7);
    }

    #[test]
    fn flow_conservation_on_bipartite_matching() {
        // Perfect matching of size 3 expressed as unit-capacity flow.
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let left: Vec<_> = (0..3).map(|_| net.add_node()).collect();
        let right: Vec<_> = (0..3).map(|_| net.add_node()).collect();
        let t = net.add_node();
        for &l in &left {
            net.add_edge(s, l, 1);
        }
        for &r in &right {
            net.add_edge(r, t, 1);
        }
        // l0-{r0,r1}, l1-{r1}, l2-{r1,r2}: perfect matching exists.
        net.add_edge(left[0], right[0], 1);
        net.add_edge(left[0], right[1], 1);
        net.add_edge(left[1], right[1], 1);
        net.add_edge(left[2], right[1], 1);
        net.add_edge(left[2], right[2], 1);
        assert_eq!(net.max_flow(s, t).value, 3);
    }
}
