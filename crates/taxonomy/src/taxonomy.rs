//! The taxonomy `C` over the topic set `D` (§3.1 of the paper).
//!
//! `C` arranges all topics in an acyclic graph by imposing a partial subset
//! order `⊑`, with exactly one top element `⊤` (zero indegree). Trees are the
//! common case — Amazon's book taxonomy is a tree, and Eq. 3 assumes one —
//! but multiple parents are supported; path-dependent operations then
//! enumerate every root path.

use std::collections::HashMap;

use crate::error::{Result, TaxonomyError};
use crate::topic::{Topic, TopicId};

/// An immutable taxonomy: a rooted DAG of topics.
///
/// Construct via [`TaxonomyBuilder`]. Children/parents are stored as dense
/// adjacency vectors; by construction every non-root node has at least one
/// parent and the graph is acyclic (parents must exist before children, and
/// extra DAG edges are cycle-checked).
#[derive(Clone, Debug)]
pub struct Taxonomy {
    topics: Vec<Topic>,
    parents: Vec<Vec<TopicId>>,
    children: Vec<Vec<TopicId>>,
    /// Depth of the shortest path to ⊤ (root has depth 0).
    depth: Vec<u32>,
    by_label: HashMap<String, TopicId>,
}

impl Taxonomy {
    /// Starts building a taxonomy whose top element carries `root_label`.
    pub fn builder(root_label: impl Into<String>) -> TaxonomyBuilder {
        TaxonomyBuilder::new(root_label)
    }

    /// Number of topics, including ⊤.
    pub fn len(&self) -> usize {
        self.topics.len()
    }

    /// Always false: a taxonomy contains at least ⊤.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The unique top element ⊤.
    pub fn top(&self) -> TopicId {
        TopicId::TOP
    }

    /// The topic record.
    pub fn topic(&self, id: TopicId) -> &Topic {
        &self.topics[id.index()]
    }

    /// The label of a topic.
    pub fn label(&self, id: TopicId) -> &str {
        &self.topics[id.index()].label
    }

    /// Looks a topic up by its label. Labels are unique per taxonomy.
    pub fn by_label(&self, label: &str) -> Option<TopicId> {
        self.by_label.get(label).copied()
    }

    /// Direct parents (empty only for ⊤).
    pub fn parents(&self, id: TopicId) -> &[TopicId] {
        &self.parents[id.index()]
    }

    /// Direct children (subtopics).
    pub fn children(&self, id: TopicId) -> &[TopicId] {
        &self.children[id.index()]
    }

    /// Number of siblings under a given parent: `sib(p)` from Eq. 3.
    ///
    /// For multi-parent nodes the sibling count is parent-specific, so the
    /// parent must be supplied.
    pub fn siblings_under(&self, id: TopicId, parent: TopicId) -> usize {
        debug_assert!(self.children(parent).contains(&id));
        self.children(parent).len().saturating_sub(1)
    }

    /// True if the topic has no subtopics (a leaf, i.e. most specific category).
    pub fn is_leaf(&self, id: TopicId) -> bool {
        self.children[id.index()].is_empty()
    }

    /// All leaf topics.
    pub fn leaves(&self) -> impl Iterator<Item = TopicId> + '_ {
        self.iter().filter(|&id| self.is_leaf(id))
    }

    /// Depth of the shortest path to ⊤ (⊤ itself has depth 0).
    pub fn depth(&self, id: TopicId) -> u32 {
        self.depth[id.index()]
    }

    /// Maximum depth over all topics.
    pub fn max_depth(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// Iterates all topic ids in insertion (topological) order.
    pub fn iter(&self) -> impl Iterator<Item = TopicId> {
        (0..self.topics.len()).map(TopicId::from_index)
    }

    /// True if `ancestor ⊒ descendant` in the partial order (reflexive).
    ///
    /// Allocates nothing on a tree: the walk climbs single-parent chains
    /// with no visited set, since a chain reaches each node once. From the
    /// first node with several parents it walks depth-first and remembers
    /// what it reached above that node, in a sorted list as long as the
    /// ancestry it explores. Nothing below the branch can be reached
    /// again: it descends from the branch, and the graph is acyclic.
    pub fn is_ancestor(&self, ancestor: TopicId, descendant: TopicId) -> bool {
        if ancestor == descendant {
            return true;
        }
        let mut node = descendant;
        let branch = loop {
            match *self.parents(node) {
                [] => return false,
                [p] if p == ancestor => return true,
                [p] => node = p,
                _ => break node,
            }
        };
        let mut seen: Vec<TopicId> = Vec::new();
        let mut stack = vec![branch];
        while let Some(node) = stack.pop() {
            for &p in self.parents(node) {
                if p == ancestor {
                    return true;
                }
                if let Err(slot) = seen.binary_search(&p) {
                    seen.insert(slot, p);
                    stack.push(p);
                }
            }
        }
        false
    }

    /// All ancestors of a topic (excluding itself), deduplicated, nearest first.
    ///
    /// Nearest is by [`depth`](Self::depth), deepest first; ties keep the
    /// order of a depth-first walk up the parent lists, each list in stored
    /// order. The list it returns is also the walk's visited set, and a
    /// stack is allocated only at a node with two parents not yet seen, so
    /// on a tree the walk allocates nothing else.
    pub fn ancestors(&self, id: TopicId) -> Vec<TopicId> {
        let mut out = Vec::new();
        let mut stack = Vec::new();
        let mut node = Some(id);
        while let Some(at) = node.take().or_else(|| stack.pop()) {
            for &p in self.parents(at) {
                if !out.contains(&p) {
                    out.push(p);
                    // The newest unseen parent is walked next, as if it had
                    // been pushed last; the older ones wait on the stack.
                    stack.extend(node.replace(p));
                }
            }
        }
        out.sort_by_key(|&t| std::cmp::Reverse(self.depth(t)));
        out
    }

    /// All descendants of a topic (excluding itself).
    pub fn descendants(&self, id: TopicId) -> Vec<TopicId> {
        let mut out = Vec::new();
        let mut seen = vec![false; self.topics.len()];
        let mut frontier = vec![id];
        while let Some(node) = frontier.pop() {
            for &c in self.children(node) {
                if !seen[c.index()] {
                    seen[c.index()] = true;
                    out.push(c);
                    frontier.push(c);
                }
            }
        }
        out
    }

    /// Every path `(⊤ = p_0, p_1, …, p_q = id)` from the top element down to
    /// the topic, as used by Eq. 3. For trees this is a single path.
    pub fn paths_from_top(&self, id: TopicId) -> Vec<Vec<TopicId>> {
        if id == TopicId::TOP {
            return vec![vec![TopicId::TOP]];
        }
        let mut paths = Vec::new();
        for &parent in self.parents(id) {
            for mut path in self.paths_from_top(parent) {
                path.push(id);
                paths.push(path);
            }
        }
        paths
    }

    /// The lowest common ancestor with maximal depth (ties broken by id).
    pub fn lowest_common_ancestor(&self, a: TopicId, b: TopicId) -> TopicId {
        if self.is_ancestor(a, b) {
            return a;
        }
        if self.is_ancestor(b, a) {
            return b;
        }
        let mut in_a = vec![false; self.topics.len()];
        for anc in self.ancestors(a) {
            in_a[anc.index()] = true;
        }
        let mut best = TopicId::TOP;
        let mut best_depth = 0;
        for anc in self.ancestors(b) {
            if in_a[anc.index()]
                && self.depth(anc) >= best_depth
                && (self.depth(anc) > best_depth || anc < best)
            {
                best = anc;
                best_depth = self.depth(anc);
            }
        }
        best
    }

    /// Taxonomic distance: shortest path length between two topics going
    /// through their lowest common ancestor.
    pub fn distance(&self, a: TopicId, b: TopicId) -> u32 {
        let lca = self.lowest_common_ancestor(a, b);
        (self.depth(a) - self.depth(lca)) + (self.depth(b) - self.depth(lca))
    }

    /// Exports the raw adjacency representation for serialization (see
    /// `semrec-store`).
    ///
    /// The parts preserve the *exact* stored order of every adjacency list
    /// — in particular `children`, whose order depends on the historical
    /// interleaving of [`TaxonomyBuilder::add_topic`] and
    /// [`TaxonomyBuilder::add_parent`] calls and feeds the summation order
    /// of profile generation. Rebuilding through the public builder in
    /// topic-id order could reorder children and perturb float sums;
    /// [`Taxonomy::from_parts`] cannot.
    pub fn to_parts(&self) -> TaxonomyParts {
        TaxonomyParts {
            labels: self.topics.iter().map(|t| t.label.clone()).collect(),
            parents: self.parents.clone(),
            children: self.children.clone(),
            depth: self.depth.clone(),
        }
    }

    /// Rebuilds a taxonomy from [`Taxonomy::to_parts`] output, validating
    /// structural invariants (consistent lengths, in-bounds ids, a
    /// parentless root, parented non-roots, unique labels,
    /// parents/children agreement) so corrupted serialized bytes surface
    /// as a typed [`TaxonomyError::InvalidParts`] instead of a panic.
    pub fn from_parts(parts: TaxonomyParts) -> Result<Taxonomy> {
        let TaxonomyParts { labels, parents, children, depth } = parts;
        let n = labels.len();
        let invalid = |what: &str| TaxonomyError::InvalidParts(what.to_owned());
        if n == 0 {
            return Err(invalid("no topics: a taxonomy contains at least ⊤"));
        }
        if parents.len() != n || children.len() != n || depth.len() != n {
            return Err(invalid("adjacency/depth vectors disagree on topic count"));
        }
        if !parents[0].is_empty() || depth[0] != 0 {
            return Err(invalid("⊤ must be parentless at depth 0"));
        }
        let mut edges = 0usize;
        for (idx, list) in parents.iter().enumerate() {
            if idx > 0 && list.is_empty() {
                return Err(invalid("non-root topic without a parent"));
            }
            edges += list.len();
            for p in list {
                if p.index() >= n {
                    return Err(invalid("parent id out of bounds"));
                }
            }
        }
        // Parents/children agreement, checked from the child side: parent
        // lists are short (usually a single entry) where a hub topic's
        // child list can hold hundreds, so scanning `parents[c]` per child
        // edge is near-O(edges) instead of O(edges × hub fanout). Equal
        // edge counts close the loop: every parent edge is then mirrored.
        let mut child_edges = 0usize;
        for (idx, list) in children.iter().enumerate() {
            child_edges += list.len();
            for c in list {
                if c.index() >= n {
                    return Err(invalid("child id out of bounds"));
                }
                if !parents[c.index()].contains(&TopicId::from_index(idx)) {
                    return Err(invalid("child edge missing from the parent list"));
                }
            }
        }
        if child_edges != edges {
            return Err(invalid("parents/children edge counts disagree"));
        }
        let mut by_label = HashMap::with_capacity(n);
        for (idx, label) in labels.iter().enumerate() {
            if by_label.insert(label.clone(), TopicId::from_index(idx)).is_some() {
                return Err(TaxonomyError::DuplicateLabel(label.clone()));
            }
        }
        Ok(Taxonomy {
            topics: labels.into_iter().map(|label| Topic { label }).collect(),
            parents,
            children,
            depth,
            by_label,
        })
    }
}

/// The raw serializable representation of a [`Taxonomy`]: exactly its
/// stored adjacency vectors, order included. Produced by
/// [`Taxonomy::to_parts`], consumed by [`Taxonomy::from_parts`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaxonomyParts {
    /// Topic labels in id order (index 0 is ⊤).
    pub labels: Vec<String>,
    /// Direct parents per topic, in stored order.
    pub parents: Vec<Vec<TopicId>>,
    /// Direct children per topic, in stored order.
    pub children: Vec<Vec<TopicId>>,
    /// Shortest-path depth to ⊤ per topic.
    pub depth: Vec<u32>,
}

/// Incremental taxonomy construction.
///
/// Topics must be added parents-first, which makes the graph acyclic by
/// construction; [`TaxonomyBuilder::add_parent`] edges are additionally
/// cycle-checked.
#[derive(Clone, Debug)]
pub struct TaxonomyBuilder {
    taxonomy: Taxonomy,
}

impl TaxonomyBuilder {
    fn new(root_label: impl Into<String>) -> Self {
        let root_label = root_label.into();
        let mut by_label = HashMap::new();
        by_label.insert(root_label.clone(), TopicId::TOP);
        TaxonomyBuilder {
            taxonomy: Taxonomy {
                topics: vec![Topic { label: root_label }],
                parents: vec![Vec::new()],
                children: vec![Vec::new()],
                depth: vec![0],
                by_label,
            },
        }
    }

    /// Adds a topic under an existing parent, returning its id.
    ///
    /// Fails if the label already exists or the parent is unknown.
    pub fn add_topic(&mut self, label: impl Into<String>, parent: TopicId) -> Result<TopicId> {
        let label = label.into();
        let t = &mut self.taxonomy;
        if parent.index() >= t.topics.len() {
            return Err(TaxonomyError::UnknownTopic(parent.index()));
        }
        if t.by_label.contains_key(&label) {
            return Err(TaxonomyError::DuplicateLabel(label));
        }
        let id = TopicId::from_index(t.topics.len());
        t.by_label.insert(label.clone(), id);
        t.topics.push(Topic { label });
        t.parents.push(vec![parent]);
        t.children.push(Vec::new());
        t.depth.push(t.depth[parent.index()] + 1);
        t.children[parent.index()].push(id);
        Ok(id)
    }

    /// Adds an extra parent edge (turning the tree into a DAG).
    ///
    /// Fails on unknown topics, self-edges, duplicate edges, edges into ⊤,
    /// and edges that would create a cycle.
    pub fn add_parent(&mut self, child: TopicId, parent: TopicId) -> Result<()> {
        let t = &mut self.taxonomy;
        for id in [child, parent] {
            if id.index() >= t.topics.len() {
                return Err(TaxonomyError::UnknownTopic(id.index()));
            }
        }
        if child == parent || child == TopicId::TOP {
            return Err(TaxonomyError::CycleDetected);
        }
        if t.parents[child.index()].contains(&parent) {
            return Ok(()); // duplicate edge is a no-op
        }
        if self.taxonomy.is_ancestor(child, parent) {
            return Err(TaxonomyError::CycleDetected);
        }
        let t = &mut self.taxonomy;
        t.parents[child.index()].push(parent);
        t.children[parent.index()].push(child);
        // Depth is the minimum over parents; a new parent can only shorten it,
        // and any shortening must be propagated to descendants.
        Self::relax_depths(t, child);
        Ok(())
    }

    fn relax_depths(t: &mut Taxonomy, start: TopicId) {
        let mut frontier = vec![start];
        while let Some(node) = frontier.pop() {
            let best = t.parents[node.index()]
                .iter()
                .map(|p| t.depth[p.index()] + 1)
                .min()
                .unwrap_or(0);
            if best < t.depth[node.index()] {
                t.depth[node.index()] = best;
                frontier.extend(t.children[node.index()].iter().copied());
            }
        }
    }

    /// Finalizes the taxonomy.
    pub fn build(self) -> Taxonomy {
        self.taxonomy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Books → {Science → {Mathematics → {Pure → {Algebra, Calculus}}}} etc.
    fn small() -> (Taxonomy, Vec<TopicId>) {
        let mut b = Taxonomy::builder("Books");
        let science = b.add_topic("Science", TopicId::TOP).unwrap();
        let fiction = b.add_topic("Fiction", TopicId::TOP).unwrap();
        let math = b.add_topic("Mathematics", science).unwrap();
        let physics = b.add_topic("Physics", science).unwrap();
        let pure = b.add_topic("Pure", math).unwrap();
        let algebra = b.add_topic("Algebra", pure).unwrap();
        let calculus = b.add_topic("Calculus", pure).unwrap();
        let t = b.build();
        (t, vec![science, fiction, math, physics, pure, algebra, calculus])
    }

    #[test]
    fn structure_accessors() {
        let (t, ids) = small();
        let [science, fiction, math, _physics, pure, algebra, calculus] = ids[..] else {
            unreachable!()
        };
        assert_eq!(t.len(), 8);
        assert_eq!(t.label(TopicId::TOP), "Books");
        assert_eq!(t.parents(algebra), &[pure]);
        assert_eq!(t.children(pure), &[algebra, calculus]);
        assert_eq!(t.depth(algebra), 4);
        assert_eq!(t.max_depth(), 4);
        assert!(t.is_leaf(fiction));
        assert!(!t.is_leaf(science));
        assert_eq!(t.siblings_under(algebra, pure), 1);
        assert_eq!(t.siblings_under(math, science), 1);
        assert_eq!(t.by_label("Pure"), Some(pure));
        assert_eq!(t.by_label("Nope"), None);
    }

    #[test]
    fn duplicate_labels_and_unknown_parents_fail() {
        let mut b = Taxonomy::builder("Books");
        b.add_topic("Science", TopicId::TOP).unwrap();
        assert!(matches!(
            b.add_topic("Science", TopicId::TOP),
            Err(TaxonomyError::DuplicateLabel(_))
        ));
        assert!(matches!(
            b.add_topic("X", TopicId::from_index(99)),
            Err(TaxonomyError::UnknownTopic(99))
        ));
    }

    #[test]
    fn ancestor_relation_is_reflexive_and_transitive() {
        let (t, ids) = small();
        let algebra = ids[5];
        let science = ids[0];
        assert!(t.is_ancestor(algebra, algebra));
        assert!(t.is_ancestor(TopicId::TOP, algebra));
        assert!(t.is_ancestor(science, algebra));
        assert!(!t.is_ancestor(algebra, science));
        assert!(!t.is_ancestor(ids[1], algebra)); // Fiction vs Algebra
    }

    #[test]
    fn ancestors_are_nearest_first() {
        let (t, ids) = small();
        let algebra = ids[5];
        let anc = t.ancestors(algebra);
        let labels: Vec<_> = anc.iter().map(|&a| t.label(a)).collect();
        assert_eq!(labels, vec!["Pure", "Mathematics", "Science", "Books"]);
    }

    #[test]
    fn descendants_cover_the_subtree() {
        let (t, ids) = small();
        let science = ids[0];
        let desc = t.descendants(science);
        assert_eq!(desc.len(), 5); // math, physics, pure, algebra, calculus
        assert_eq!(t.descendants(ids[5]).len(), 0);
    }

    #[test]
    fn single_path_in_trees() {
        let (t, ids) = small();
        let algebra = ids[5];
        let paths = t.paths_from_top(algebra);
        assert_eq!(paths.len(), 1);
        let labels: Vec<_> = paths[0].iter().map(|&p| t.label(p)).collect();
        assert_eq!(labels, vec!["Books", "Science", "Mathematics", "Pure", "Algebra"]);
    }

    #[test]
    fn lca_and_distance() {
        let (t, ids) = small();
        let [science, fiction, math, physics, pure, algebra, calculus] = ids[..] else {
            unreachable!()
        };
        assert_eq!(t.lowest_common_ancestor(algebra, calculus), pure);
        assert_eq!(t.lowest_common_ancestor(algebra, physics), science);
        assert_eq!(t.lowest_common_ancestor(algebra, fiction), TopicId::TOP);
        assert_eq!(t.lowest_common_ancestor(math, algebra), math);
        assert_eq!(t.distance(algebra, calculus), 2);
        assert_eq!(t.distance(algebra, algebra), 0);
        assert_eq!(t.distance(algebra, physics), 4);
    }

    #[test]
    fn dag_edges_and_cycle_rejection() {
        let mut b = Taxonomy::builder("Top");
        let a = b.add_topic("A", TopicId::TOP).unwrap();
        let bb = b.add_topic("B", TopicId::TOP).unwrap();
        let c = b.add_topic("C", a).unwrap();
        // C also under B: legal DAG edge.
        b.add_parent(c, bb).unwrap();
        // Cycle: A under C would close A → C → A.
        assert!(matches!(b.add_parent(a, c), Err(TaxonomyError::CycleDetected)));
        assert!(matches!(b.add_parent(c, c), Err(TaxonomyError::CycleDetected)));
        // Edges into the top element are forbidden (⊤ must keep indegree 0).
        assert!(matches!(b.add_parent(TopicId::TOP, a), Err(TaxonomyError::CycleDetected)));
        let t = b.build();
        assert_eq!(t.parents(c), &[a, bb]);
        assert_eq!(t.paths_from_top(c).len(), 2);
    }

    #[test]
    fn dag_depth_relaxation() {
        let mut b = Taxonomy::builder("Top");
        let a = b.add_topic("A", TopicId::TOP).unwrap();
        let a2 = b.add_topic("A2", a).unwrap();
        let deep = b.add_topic("Deep", a2).unwrap();
        let leaf = b.add_topic("Leaf", deep).unwrap();
        assert_eq!(b.taxonomy.depth(leaf), 4);
        // New shortcut: Deep directly under Top.
        b.add_parent(deep, TopicId::TOP).unwrap();
        let t = b.build();
        assert_eq!(t.depth(deep), 1);
        assert_eq!(t.depth(leaf), 2);
    }

    #[test]
    fn parts_round_trip_preserves_exact_adjacency_order() {
        // A DAG whose children lists are *not* in topic-id order: C gains
        // B as a second parent after D was already B's child.
        let mut b = Taxonomy::builder("Top");
        let a = b.add_topic("A", TopicId::TOP).unwrap();
        let bb = b.add_topic("B", TopicId::TOP).unwrap();
        let c = b.add_topic("C", a).unwrap();
        let d = b.add_topic("D", bb).unwrap();
        b.add_parent(c, bb).unwrap();
        let t = b.build();
        assert_eq!(t.children(bb), &[d, c], "insertion order, not id order");

        let rebuilt = Taxonomy::from_parts(t.to_parts()).unwrap();
        assert_eq!(rebuilt.to_parts(), t.to_parts());
        assert_eq!(rebuilt.children(bb), &[d, c]);
        assert_eq!(rebuilt.by_label("C"), Some(c));
        assert_eq!(rebuilt.depth(c), t.depth(c));
    }

    #[test]
    fn malformed_parts_are_rejected_with_typed_errors() {
        let (t, _) = small();
        let good = t.to_parts();

        let mut empty = good.clone();
        empty.labels.clear();
        empty.parents.clear();
        empty.children.clear();
        empty.depth.clear();
        assert!(matches!(Taxonomy::from_parts(empty), Err(TaxonomyError::InvalidParts(_))));

        let mut short = good.clone();
        short.depth.pop();
        assert!(matches!(Taxonomy::from_parts(short), Err(TaxonomyError::InvalidParts(_))));

        let mut rooted = good.clone();
        rooted.parents[0].push(TopicId::from_index(1));
        assert!(matches!(Taxonomy::from_parts(rooted), Err(TaxonomyError::InvalidParts(_))));

        let mut orphan = good.clone();
        orphan.parents[3].clear();
        assert!(matches!(Taxonomy::from_parts(orphan), Err(TaxonomyError::InvalidParts(_))));

        let mut oob = good.clone();
        oob.parents[3] = vec![TopicId::from_index(99)];
        assert!(matches!(Taxonomy::from_parts(oob), Err(TaxonomyError::InvalidParts(_))));

        let mut dup = good.clone();
        dup.labels[2] = dup.labels[1].clone();
        assert!(matches!(Taxonomy::from_parts(dup), Err(TaxonomyError::DuplicateLabel(_))));

        let mut lopsided = good;
        lopsided.children[1].pop();
        assert!(matches!(Taxonomy::from_parts(lopsided), Err(TaxonomyError::InvalidParts(_))));
    }

    #[test]
    fn duplicate_dag_edge_is_noop() {
        let mut b = Taxonomy::builder("Top");
        let a = b.add_topic("A", TopicId::TOP).unwrap();
        let c = b.add_topic("C", a).unwrap();
        b.add_parent(c, a).unwrap();
        let t = b.build();
        assert_eq!(t.parents(c), &[a]);
    }
}
