//! Connected-component analysis.
//!
//! The paper works with *weakly* connected structure: the directed subgraph
//! is converted to an undirected graph before community detection because
//! "bug locations may be anywhere in the subgraph" (§5.2), and Girvan–Newman
//! splits are detected as increases in the number of connected components.

use crate::digraph::{DiGraph, NodeId};
use std::collections::VecDeque;

/// A partition of nodes into components or communities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// `labels[node.index()]` is the component index of each node.
    pub labels: Vec<u32>,
    /// Number of distinct components.
    pub count: usize,
}

impl Partition {
    /// Builds a partition from raw labels (labels must be dense `0..count`).
    pub fn new(labels: Vec<u32>, count: usize) -> Self {
        debug_assert!(labels.iter().all(|&l| (l as usize) < count));
        Partition { labels, count }
    }

    /// Component index of `node`.
    #[inline]
    pub fn label(&self, node: NodeId) -> u32 {
        self.labels[node.index()]
    }

    /// Groups node ids by component, ordered by component index.
    pub fn groups(&self) -> Vec<Vec<NodeId>> {
        let mut groups = vec![Vec::new(); self.count];
        for (i, &l) in self.labels.iter().enumerate() {
            groups[l as usize].push(NodeId(i as u32));
        }
        groups
    }

    /// Whether two nodes share a component.
    #[inline]
    pub fn same(&self, a: NodeId, b: NodeId) -> bool {
        self.labels[a.index()] == self.labels[b.index()]
    }
}

/// Weakly connected components: components of the graph with edge directions
/// ignored.
pub fn weakly_connected_components(graph: &DiGraph) -> Partition {
    let n = graph.node_count();
    let mut labels = vec![u32::MAX; n];
    let mut count = 0u32;
    let mut queue = VecDeque::new();
    for start in 0..n as u32 {
        if labels[start as usize] != u32::MAX {
            continue;
        }
        labels[start as usize] = count;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            let nu = NodeId(u);
            for &v in graph.successors(nu).iter().chain(graph.predecessors(nu)) {
                if labels[v as usize] == u32::MAX {
                    labels[v as usize] = count;
                    queue.push_back(v);
                }
            }
        }
        count += 1;
    }
    Partition::new(labels, count as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_has_no_components() {
        let g = DiGraph::new();
        let p = weakly_connected_components(&g);
        assert_eq!(p.count, 0);
    }

    #[test]
    fn isolated_nodes_are_singletons() {
        let mut g = DiGraph::new();
        g.add_nodes(3);
        let p = weakly_connected_components(&g);
        assert_eq!(p.count, 3);
        assert!(p.groups().iter().all(|g| g.len() == 1));
    }

    #[test]
    fn direction_ignored_for_weak_components() {
        let mut g = DiGraph::new();
        g.add_nodes(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(2), NodeId(1)); // converging arrows still connect
        let p = weakly_connected_components(&g);
        assert_eq!(p.count, 2);
        assert!(p.same(NodeId(0), NodeId(2)));
        assert!(!p.same(NodeId(0), NodeId(3)));
    }

    #[test]
    fn groups_cover_all_nodes() {
        let mut g = DiGraph::new();
        g.add_nodes(5);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(3), NodeId(4));
        let p = weakly_connected_components(&g);
        let total: usize = p.groups().iter().map(Vec::len).sum();
        assert_eq!(total, 5);
    }
}
