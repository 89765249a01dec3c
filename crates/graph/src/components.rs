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

/// Strongly connected components via Tarjan's algorithm (iterative form, so
/// deep call-graph-shaped inputs cannot overflow the stack).
///
/// Component labels are assigned in reverse topological order of the
/// condensation (Tarjan's natural output order).
pub fn strongly_connected_components(graph: &DiGraph) -> Partition {
    let n = graph.node_count();
    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut labels = vec![0u32; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut comp_count = 0u32;

    // Explicit DFS frames: (node, next-successor position).
    let mut frames: Vec<(u32, usize)> = Vec::new();
    for root in 0..n as u32 {
        if index[root as usize] != UNVISITED {
            continue;
        }
        frames.push((root, 0));
        index[root as usize] = next_index;
        lowlink[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;

        while let Some(&mut (u, ref mut pos)) = frames.last_mut() {
            let succ = graph.successors(NodeId(u));
            if *pos < succ.len() {
                let v = succ[*pos];
                *pos += 1;
                if index[v as usize] == UNVISITED {
                    index[v as usize] = next_index;
                    lowlink[v as usize] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v as usize] = true;
                    frames.push((v, 0));
                } else if on_stack[v as usize] {
                    lowlink[u as usize] = lowlink[u as usize].min(index[v as usize]);
                }
            } else {
                frames.pop();
                if let Some(&(p, _)) = frames.last() {
                    lowlink[p as usize] = lowlink[p as usize].min(lowlink[u as usize]);
                }
                if lowlink[u as usize] == index[u as usize] {
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        labels[w as usize] = comp_count;
                        if w == u {
                            break;
                        }
                    }
                    comp_count += 1;
                }
            }
        }
    }
    Partition::new(labels, comp_count as usize)
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

    #[test]
    fn scc_cycle_is_one_component() {
        let mut g = DiGraph::new();
        g.add_nodes(3);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(2), NodeId(0));
        let p = strongly_connected_components(&g);
        assert_eq!(p.count, 1);
    }

    #[test]
    fn scc_dag_all_singletons() {
        let mut g = DiGraph::new();
        g.add_nodes(3);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        let p = strongly_connected_components(&g);
        assert_eq!(p.count, 3);
    }

    #[test]
    fn scc_mixed() {
        // Cycle {0,1} feeding DAG node 2; separate cycle {3,4}.
        let mut g = DiGraph::new();
        g.add_nodes(5);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(0));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(3), NodeId(4));
        g.add_edge(NodeId(4), NodeId(3));
        let p = strongly_connected_components(&g);
        assert_eq!(p.count, 3);
        assert!(p.same(NodeId(0), NodeId(1)));
        assert!(p.same(NodeId(3), NodeId(4)));
        assert!(!p.same(NodeId(0), NodeId(2)));
    }

    #[test]
    fn scc_deep_chain_no_stack_overflow() {
        // 50k-node chain would overflow a recursive Tarjan.
        let n = 50_000;
        let mut g = DiGraph::with_capacity(n);
        g.add_nodes(n);
        for i in 0..n - 1 {
            g.add_edge(NodeId(i as u32), NodeId(i as u32 + 1));
        }
        let p = strongly_connected_components(&g);
        assert_eq!(p.count, n);
    }
}
