//! Breadth-first search primitives used by the hybrid slicer.
//!
//! The paper's slicing step (§5.1) computes "the shortest directed paths that
//! terminate on these variables with Breadth First Search" and then takes the
//! *union* of the node sets of all such paths. For a single BFS from a target
//! over reversed edges, the union of all shortest paths to the target is
//! exactly the set of nodes reachable in the BFS, so the slice of Algorithm
//! 5.4 steps 3 and 8 is one backward BFS ([`shortest_path_slice`]).

use crate::digraph::{DiGraph, Direction, NodeId};
use std::collections::VecDeque;

/// Distances from a BFS traversal. `u32::MAX` marks unreachable nodes.
#[derive(Debug, Clone)]
pub struct BfsResult {
    /// BFS level of each node, indexed by `NodeId::index`.
    pub dist: Vec<u32>,
}

impl BfsResult {
    /// Whether `node` was reached.
    #[inline]
    pub fn reached(&self, node: NodeId) -> bool {
        self.dist[node.index()] != u32::MAX
    }

    /// Distance to `node`, or `None` if unreachable.
    #[inline]
    pub fn distance(&self, node: NodeId) -> Option<u32> {
        let d = self.dist[node.index()];
        (d != u32::MAX).then_some(d)
    }

    /// All reached node ids.
    pub fn reached_nodes(&self) -> Vec<NodeId> {
        self.dist
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d != u32::MAX)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }
}

/// Multi-source BFS in the given direction.
///
/// With `Direction::In` and `sources` = the affected output variables, the
/// reached set is the union of all backward data-dependency paths — the
/// paper's static backward slice.
pub fn bfs_multi(graph: &DiGraph, sources: &[NodeId], dir: Direction) -> BfsResult {
    let mut dist = vec![u32::MAX; graph.node_count()];
    let mut queue = VecDeque::new();
    for &s in sources {
        if dist[s.index()] == u32::MAX {
            dist[s.index()] = 0;
            queue.push_back(s.0);
        }
    }
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in graph.neighbors(NodeId(u), dir) {
            if dist[v as usize] == u32::MAX {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    BfsResult { dist }
}

/// Union of the node sets of **all shortest directed paths terminating on
/// `targets`** (paper Algorithm 5.4 step 3).
///
/// A node `u` lies on a shortest path from some node `s` to a target iff it
/// is reachable backwards from a target — every node reached by the backward
/// BFS begins at least one shortest path to its nearest target (follow any
/// distance-decreasing edge chain). Hence the slice is the backward-reachable
/// set, and the edges of the slice are the distance-decreasing edges (the
/// shortest-path DAG).
pub fn shortest_path_slice(graph: &DiGraph, targets: &[NodeId]) -> Vec<NodeId> {
    bfs_multi(graph, targets, Direction::In).reached_nodes()
}

/// Whether any directed path exists from `from` to any node in `to`.
///
/// Used by the reachability sampling oracle: a bug at `from` can be detected
/// at an instrumented node iff a directed path connects them (§5.2: "Given
/// our knowledge of directed paths' connectivity from known bug sources to
/// central nodes, we can deduce whether a difference can be detected").
pub fn reaches_any(graph: &DiGraph, from: NodeId, to: &[NodeId]) -> bool {
    let mut target = vec![false; graph.node_count()];
    for &t in to {
        target[t.index()] = true;
    }
    if target[from.index()] {
        return true;
    }
    let mut seen = vec![false; graph.node_count()];
    seen[from.index()] = true;
    let mut queue = VecDeque::from([from.0]);
    while let Some(u) = queue.pop_front() {
        for &v in graph.successors(NodeId(u)) {
            if target[v as usize] {
                return true;
            }
            if !seen[v as usize] {
                seen[v as usize] = true;
                queue.push_back(v);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the diamond  0 -> {1,2} -> 3, plus a pendant 4 -> 0.
    fn diamond() -> DiGraph {
        let mut g = DiGraph::new();
        g.add_nodes(5);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(1), NodeId(3));
        g.add_edge(NodeId(2), NodeId(3));
        g.add_edge(NodeId(4), NodeId(0));
        g
    }

    #[test]
    fn bfs_distances_forward() {
        let g = diamond();
        let r = bfs_multi(&g, &[NodeId(4)], Direction::Out);
        assert_eq!(r.distance(NodeId(4)), Some(0));
        assert_eq!(r.distance(NodeId(0)), Some(1));
        assert_eq!(r.distance(NodeId(1)), Some(2));
        assert_eq!(r.distance(NodeId(3)), Some(3));
    }

    #[test]
    fn bfs_distances_backward() {
        let g = diamond();
        let r = bfs_multi(&g, &[NodeId(3)], Direction::In);
        assert_eq!(r.distance(NodeId(3)), Some(0));
        assert_eq!(r.distance(NodeId(1)), Some(1));
        assert_eq!(r.distance(NodeId(2)), Some(1));
        assert_eq!(r.distance(NodeId(0)), Some(2));
        assert_eq!(r.distance(NodeId(4)), Some(3));
    }

    #[test]
    fn unreachable_is_none() {
        let mut g = DiGraph::new();
        g.add_nodes(2);
        let r = bfs_multi(&g, &[NodeId(0)], Direction::Out);
        assert_eq!(r.distance(NodeId(1)), None);
        assert!(!r.reached(NodeId(1)));
    }

    #[test]
    fn multi_source_takes_min() {
        let mut g = DiGraph::new();
        g.add_nodes(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(3), NodeId(2));
        let r = bfs_multi(&g, &[NodeId(0), NodeId(3)], Direction::Out);
        assert_eq!(
            r.distance(NodeId(2)),
            Some(1),
            "node 3 is the closer source"
        );
    }

    #[test]
    fn slice_is_backward_reachable_set() {
        let g = diamond();
        let mut slice = shortest_path_slice(&g, &[NodeId(3)]);
        slice.sort();
        assert_eq!(
            slice,
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4)]
        );
    }

    #[test]
    fn slice_excludes_non_ancestors() {
        let mut g = diamond();
        let x = g.add_node(); // 5: sink fed by 3, not an ancestor of 3
        g.add_edge(NodeId(3), x);
        let slice = shortest_path_slice(&g, &[NodeId(3)]);
        assert!(!slice.contains(&x));
    }

    #[test]
    fn reachability_oracle() {
        let g = diamond();
        assert!(reaches_any(&g, NodeId(4), &[NodeId(3)]));
        assert!(!reaches_any(&g, NodeId(3), &[NodeId(4)]));
        assert!(
            reaches_any(&g, NodeId(3), &[NodeId(3)]),
            "trivially reaches itself"
        );
    }
}
