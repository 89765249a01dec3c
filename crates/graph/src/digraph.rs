//! Core directed-graph data structure.
//!
//! The paper (§4) compiles CESM source code into a NetworkX digraph of about
//! 100,000 nodes and 170,000 edges. This module provides the equivalent Rust
//! substrate: a compact adjacency-list digraph with `u32` node ids, cheap
//! successor/predecessor iteration, and constant-time edge queries after
//! freezing.

use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;

/// Identifier of a node inside a [`DiGraph`].
///
/// Node ids are dense indices (`0..graph.node_count()`); they are only
/// meaningful relative to the graph that issued them. Induced subgraphs
/// renumber nodes and return a mapping back to the parent graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Direction of traversal or centrality.
///
/// The paper uses *in*-centrality ("we are looking for information sinks
/// rather than sources", §5.3); the enum lets every algorithm run in either
/// orientation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Follow edges in their stored orientation (successors).
    Out,
    /// Follow edges backwards (predecessors).
    In,
}

/// A directed graph stored as forward and reverse adjacency lists.
///
/// Duplicate edges are rejected at insertion time (the metagraph builder
/// frequently re-derives the same dependency from different statements, as
/// the paper notes for repeated assignments). Self-loops are permitted —
/// Fortran intrinsics localized per call site (`min_100__modname`) create
/// paths "from their inputs to themselves" (§4.2).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DiGraph {
    succ: Vec<Vec<u32>>,
    pred: Vec<Vec<u32>>,
    /// Edge set for O(1) duplicate detection.
    edges: HashSet<(u32, u32)>,
}

impl DiGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with capacity for `nodes` nodes.
    pub fn with_capacity(nodes: usize) -> Self {
        DiGraph {
            succ: Vec::with_capacity(nodes),
            pred: Vec::with_capacity(nodes),
            edges: HashSet::new(),
        }
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = self.succ.len() as u32;
        self.succ.push(Vec::new());
        self.pred.push(Vec::new());
        NodeId(id)
    }

    /// Adds `n` nodes at once, returning the id of the first.
    pub fn add_nodes(&mut self, n: usize) -> NodeId {
        let first = self.succ.len() as u32;
        self.succ.resize_with(self.succ.len() + n, Vec::new);
        self.pred.resize_with(self.pred.len() + n, Vec::new);
        NodeId(first)
    }

    /// Adds the directed edge `from -> to`.
    ///
    /// Returns `true` if the edge was new, `false` if it already existed.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> bool {
        assert!(
            from.index() < self.succ.len() && to.index() < self.succ.len(),
            "edge endpoint out of range: {from} -> {to} with {} nodes",
            self.succ.len()
        );
        if !self.edges.insert((from.0, to.0)) {
            return false;
        }
        self.succ[from.index()].push(to.0);
        self.pred[to.index()].push(from.0);
        true
    }

    /// Removes the directed edge `from -> to` if present.
    ///
    /// Returns `true` if an edge was removed. Used by Girvan–Newman, which
    /// "successively removes the edge with highest centrality" (§5.2).
    pub fn remove_edge(&mut self, from: NodeId, to: NodeId) -> bool {
        if !self.edges.remove(&(from.0, to.0)) {
            return false;
        }
        let succ = &mut self.succ[from.index()];
        if let Some(pos) = succ.iter().position(|&v| v == to.0) {
            succ.swap_remove(pos);
        }
        let pred = &mut self.pred[to.index()];
        if let Some(pos) = pred.iter().position(|&v| v == from.0) {
            pred.swap_remove(pos);
        }
        true
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.succ.len()
    }

    /// Number of directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Whether the directed edge `from -> to` exists.
    #[inline]
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.edges.contains(&(from.0, to.0))
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.succ.len() as u32).map(NodeId)
    }

    /// Iterator over all directed edges as `(from, to)` pairs.
    ///
    /// Order follows successor-list insertion order per node.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.succ
            .iter()
            .enumerate()
            .flat_map(|(u, vs)| vs.iter().map(move |&v| (NodeId(u as u32), NodeId(v))))
    }

    /// Successors of `node` (targets of out-edges).
    #[inline]
    pub fn successors(&self, node: NodeId) -> &[u32] {
        &self.succ[node.index()]
    }

    /// Predecessors of `node` (sources of in-edges).
    #[inline]
    pub fn predecessors(&self, node: NodeId) -> &[u32] {
        &self.pred[node.index()]
    }

    /// Neighbors of `node` in the requested direction.
    #[inline]
    pub fn neighbors(&self, node: NodeId, dir: Direction) -> &[u32] {
        match dir {
            Direction::Out => self.successors(node),
            Direction::In => self.predecessors(node),
        }
    }

    /// Out-degree of `node`.
    #[inline]
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.succ[node.index()].len()
    }

    /// In-degree of `node`.
    #[inline]
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.pred[node.index()].len()
    }

    /// Total degree (in + out) of `node`.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        self.in_degree(node) + self.out_degree(node)
    }

    /// Returns a new graph with every edge reversed.
    pub fn reversed(&self) -> DiGraph {
        DiGraph {
            succ: self.pred.clone(),
            pred: self.succ.clone(),
            edges: self.edges.iter().map(|&(u, v)| (v, u)).collect(),
        }
    }

    /// Induces the subgraph on `keep`, renumbering nodes densely.
    ///
    /// Returns the new graph and a vector mapping each new node id to its id
    /// in `self` (`mapping[new.index()] == old`). This is the workhorse of
    /// the paper's slicing step: "we induce a subgraph on CESM, which yields
    /// the graph containing the causes of discrepancy" (§5.1).
    pub fn induced_subgraph(&self, keep: &[NodeId]) -> (DiGraph, Vec<NodeId>) {
        let mut old_to_new = vec![u32::MAX; self.node_count()];
        let mut mapping = Vec::with_capacity(keep.len());
        // Dedup while preserving first-seen order.
        for &old in keep {
            if old_to_new[old.index()] == u32::MAX {
                old_to_new[old.index()] = mapping.len() as u32;
                mapping.push(old);
            }
        }
        let mut sub = DiGraph::with_capacity(mapping.len());
        sub.add_nodes(mapping.len());
        for &old in &mapping {
            let new_from = NodeId(old_to_new[old.index()]);
            for &t in self.successors(old) {
                let nt = old_to_new[t as usize];
                if nt != u32::MAX {
                    sub.add_edge(new_from, NodeId(nt));
                }
            }
        }
        (sub, mapping)
    }

    /// Builds an undirected view: for every directed edge `u -> v` (u != v),
    /// both `u -> v` and `v -> u` are present exactly once.
    ///
    /// The paper converts directed subgraphs to undirected graphs before
    /// Girvan–Newman, "equivalent to forming the weakly connected graph"
    /// (§5.2). Self-loops are dropped (they carry no community information).
    pub fn to_undirected(&self) -> DiGraph {
        let mut g = DiGraph::with_capacity(self.node_count());
        g.add_nodes(self.node_count());
        for (u, v) in self.edges() {
            if u != v {
                g.add_edge(u, v);
                g.add_edge(v, u);
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> DiGraph {
        let mut g = DiGraph::new();
        g.add_nodes(n);
        for i in 0..n.saturating_sub(1) {
            g.add_edge(NodeId(i as u32), NodeId(i as u32 + 1));
        }
        g
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::new();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.nodes().count(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn add_nodes_and_edges() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        assert_eq!(a, NodeId(0));
        assert_eq!(b, NodeId(1));
        assert!(g.add_edge(a, b));
        assert!(!g.add_edge(a, b), "duplicate edge must be rejected");
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(a, b));
        assert!(!g.has_edge(b, a));
    }

    #[test]
    fn self_loop_allowed() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        assert!(g.add_edge(a, a));
        assert_eq!(g.out_degree(a), 1);
        assert_eq!(g.in_degree(a), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn edge_out_of_range_panics() {
        let mut g = DiGraph::new();
        g.add_node();
        g.add_edge(NodeId(0), NodeId(5));
    }

    #[test]
    fn degrees() {
        let mut g = DiGraph::new();
        g.add_nodes(3);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(2), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        assert_eq!(g.in_degree(NodeId(1)), 2);
        assert_eq!(g.out_degree(NodeId(1)), 1);
        assert_eq!(g.degree(NodeId(1)), 3);
    }

    #[test]
    fn reversed_swaps_adjacency() {
        let g = path_graph(4);
        let r = g.reversed();
        assert!(r.has_edge(NodeId(1), NodeId(0)));
        assert!(!r.has_edge(NodeId(0), NodeId(1)));
        assert_eq!(r.edge_count(), g.edge_count());
    }

    #[test]
    fn induced_subgraph_renumbers() {
        let g = path_graph(5);
        let (sub, map) = g.induced_subgraph(&[NodeId(1), NodeId(2), NodeId(4)]);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 1); // only 1->2 survives
        assert!(sub.has_edge(NodeId(0), NodeId(1)));
        assert_eq!(map, vec![NodeId(1), NodeId(2), NodeId(4)]);
    }

    #[test]
    fn induced_subgraph_dedups_keep_list() {
        let g = path_graph(3);
        let (sub, map) = g.induced_subgraph(&[NodeId(0), NodeId(0), NodeId(1)]);
        assert_eq!(sub.node_count(), 2);
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn undirected_view_symmetric_and_loopless() {
        let mut g = path_graph(3);
        g.add_edge(NodeId(1), NodeId(1));
        let u = g.to_undirected();
        assert!(u.has_edge(NodeId(0), NodeId(1)));
        assert!(u.has_edge(NodeId(1), NodeId(0)));
        assert!(!u.has_edge(NodeId(1), NodeId(1)));
        // Two undirected edges, each stored in both orientations.
        assert_eq!(u.edge_count(), 4);
    }

    #[test]
    fn remove_edge_updates_adjacency() {
        let mut g = path_graph(3);
        assert!(g.remove_edge(NodeId(0), NodeId(1)));
        assert!(!g.remove_edge(NodeId(0), NodeId(1)), "already gone");
        assert_eq!(g.edge_count(), 1);
        assert!(g.successors(NodeId(0)).is_empty());
        assert!(g.predecessors(NodeId(1)).is_empty());
        assert!(g.has_edge(NodeId(1), NodeId(2)));
    }

    #[test]
    fn neighbors_by_direction() {
        let g = path_graph(3);
        assert_eq!(g.neighbors(NodeId(1), Direction::Out), &[2]);
        assert_eq!(g.neighbors(NodeId(1), Direction::In), &[0]);
    }
}
