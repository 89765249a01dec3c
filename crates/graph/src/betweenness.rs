//! Brandes' betweenness centrality (node and edge variants).
//!
//! Girvan–Newman (§5.2) "ranks edges by the number of shortest paths
//! (computed via BFS) that traverse them". Brandes' dependency-accumulation
//! algorithm computes exact betweenness in O(V·E) for unweighted graphs.
//!
//! Everything here runs one kernel, `Brandes`, over a dense
//! edge-indexed adjacency (`Csr`) with node weights. Sources run one
//! after another in ascending node order and every score is a plain
//! left-to-right sum, so results are bit-identical at any thread count.
//! With unit weights the kernel reproduces the classic per-source
//! accumulation bit for bit; Girvan–Newman passes biconnected blocks with
//! weights that count the nodes hanging off each block node.

use crate::digraph::DiGraph;
use std::collections::HashMap;

/// Dense adjacency for the kernel: node `v`'s out-entries are
/// `adj[off[v]..off[v + 1]]`, each `(target, score slot)`, in the order
/// the BFS visits them. `in_off` reserves one predecessor slot per
/// incoming entry.
#[derive(Debug, Default)]
pub(crate) struct Csr {
    off: Vec<u32>,
    adj: Vec<(u32, u32)>,
    in_off: Vec<u32>,
}

impl Csr {
    /// Starts an empty adjacency; add nodes in id order with
    /// [`Csr::push`] and [`Csr::end_node`].
    pub(crate) fn new() -> Csr {
        Csr {
            off: vec![0],
            adj: Vec::new(),
            in_off: vec![0],
        }
    }

    /// Appends an out-entry of the node being built.
    #[inline]
    pub(crate) fn push(&mut self, target: u32, slot: u32) {
        self.adj.push((target, slot));
    }

    /// Closes the node being built, reserving `in_degree` predecessor
    /// slots for it.
    pub(crate) fn end_node(&mut self, in_degree: usize) {
        self.off.push(self.adj.len() as u32);
        let last = *self.in_off.last().expect("in_off starts non-empty");
        self.in_off.push(last + in_degree as u32);
    }

    /// Closes the node being built in a symmetric adjacency, where the
    /// in-degree equals the out-degree.
    pub(crate) fn end_symmetric_node(&mut self) {
        let start = *self.off.last().expect("off starts non-empty");
        self.end_node(self.adj.len() - start as usize);
    }

    pub(crate) fn node_count(&self) -> usize {
        self.off.len() - 1
    }

    #[inline]
    fn out(&self, v: u32) -> &[(u32, u32)] {
        &self.adj[self.off[v as usize] as usize..self.off[v as usize + 1] as usize]
    }

    /// The adjacency of a digraph: slots number the edges in
    /// [`DiGraph::edges`] order.
    fn of(graph: &DiGraph) -> Csr {
        let mut csr = Csr::new();
        for u in graph.nodes() {
            for &v in graph.successors(u) {
                let slot = csr.adj.len() as u32;
                csr.push(v, slot);
            }
            csr.end_node(graph.in_degree(u));
        }
        csr
    }
}

/// Per-node single-source state, kept together so a visit touches one
/// cache line.
#[derive(Debug, Clone, Copy)]
struct Visit {
    sigma: f64,
    delta: f64,
    dist: i32,
    preds: u32,
}

const UNSEEN: Visit = Visit {
    sigma: 0.0,
    delta: 0.0,
    dist: -1,
    preds: 0,
};

/// Reusable single-source Brandes state.
#[derive(Debug, Default)]
pub(crate) struct Brandes {
    node: Vec<Visit>,
    /// BFS visit order; doubles as the queue.
    order: Vec<u32>,
    /// Shortest-path DAG predecessors `(node, slot)`, segmented by `in_off`.
    pred: Vec<(u32, u32)>,
    /// Single-source passes run so far.
    pub(crate) sources: u64,
}

impl Brandes {
    /// Sets the slots of `g` in `scores` to the sum over every source, in
    /// ascending order, where source `s` adds
    /// `weight[s] · σ(v)/σ(w) · (weight[w] + δ(w))` to the slot of each
    /// DAG edge `v → w`.
    pub(crate) fn run(&mut self, g: &Csr, weight: &[f64], scores: &mut [f64]) {
        for &(_, slot) in &g.adj {
            scores[slot as usize] = 0.0;
        }
        for s in 0..g.node_count() as u32 {
            self.source(g, weight, s, scores);
        }
    }

    /// One source: BFS from `s`, then dependency accumulation in reverse
    /// BFS order. Leaves `order` and each visited node's `delta`
    /// describing this source until the next call.
    fn source(&mut self, g: &Csr, weight: &[f64], s: u32, scores: &mut [f64]) {
        let n = g.node_count();
        if self.node.len() < n {
            self.node.resize(n, UNSEEN);
        }
        let preds = g.in_off[n] as usize;
        if self.pred.len() < preds {
            self.pred.resize(preds, (0, 0));
        }
        let Brandes {
            node,
            order,
            pred,
            sources,
        } = self;
        for &v in order.iter() {
            node[v as usize] = UNSEEN;
        }
        order.clear();
        *sources += 1;

        node[s as usize].dist = 0;
        node[s as usize].sigma = 1.0;
        order.push(s);
        let mut head = 0;
        while head < order.len() {
            let u = order[head];
            head += 1;
            let Visit {
                sigma: su,
                dist: du,
                ..
            } = node[u as usize];
            for &(v, slot) in g.out(u) {
                if v == u {
                    continue; // self-loops carry no shortest paths
                }
                let nv = &mut node[v as usize];
                if nv.dist < 0 {
                    nv.dist = du + 1;
                    order.push(v);
                }
                if nv.dist == du + 1 {
                    nv.sigma += su;
                    pred[(g.in_off[v as usize] + nv.preds) as usize] = (u, slot);
                    nv.preds += 1;
                }
            }
        }

        let ws = weight[s as usize];
        for &w in order.iter().rev() {
            let nw = node[w as usize];
            let coeff = (weight[w as usize] + nw.delta) / nw.sigma;
            let first = g.in_off[w as usize] as usize;
            for &(v, slot) in &pred[first..first + nw.preds as usize] {
                let nv = &mut node[v as usize];
                let c = nv.sigma * coeff;
                nv.delta += c;
                scores[slot as usize] += ws * c;
            }
        }
    }
}

/// Exact node betweenness centrality for an unweighted digraph.
///
/// `normalized` divides by `(n-1)(n-2)` (directed convention). Endpoints are
/// excluded, matching NetworkX defaults.
pub fn node_betweenness(graph: &DiGraph, normalized: bool) -> Vec<f64> {
    let n = graph.node_count();
    let csr = Csr::of(graph);
    let weight = vec![1.0; n];
    let mut edge_scores = vec![0.0; graph.edge_count()];
    let mut bc = vec![0.0; n];
    let mut kernel = Brandes::default();
    for s in 0..n as u32 {
        kernel.source(&csr, &weight, s, &mut edge_scores);
        for &w in &kernel.order {
            if w != s {
                bc[w as usize] += kernel.node[w as usize].delta;
            }
        }
    }
    if normalized && n > 2 {
        let scale = 1.0 / ((n - 1) as f64 * (n - 2) as f64);
        for b in &mut bc {
            *b *= scale;
        }
    }
    bc
}

/// Exact edge betweenness centrality.
///
/// Returns a map keyed by `(from, to)` node-id pairs in the graph's stored
/// edge orientation, holding every edge except self-loops. For undirected
/// views (symmetric digraphs) both orientations receive the same value up
/// to rounding, so callers can canonicalize with `min/max`.
pub fn edge_betweenness(graph: &DiGraph) -> HashMap<(u32, u32), f64> {
    let csr = Csr::of(graph);
    let mut scores = vec![0.0; graph.edge_count()];
    Brandes::default().run(&csr, &vec![1.0; graph.node_count()], &mut scores);
    graph
        .edges()
        .zip(scores)
        .filter(|((u, v), _)| u != v)
        .map(|((u, v), score)| ((u.0, v.0), score))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::NodeId;

    /// Undirected path a - b - c as a symmetric digraph.
    fn path3() -> DiGraph {
        let mut g = DiGraph::new();
        g.add_nodes(3);
        for (u, v) in [(0, 1), (1, 2)] {
            g.add_edge(NodeId(u), NodeId(v));
            g.add_edge(NodeId(v), NodeId(u));
        }
        g
    }

    #[test]
    fn path_center_has_all_betweenness() {
        let bc = node_betweenness(&path3(), false);
        // Directed counting over the symmetric graph: pairs (0,2) and (2,0)
        // both route through node 1.
        assert_eq!(bc[1], 2.0);
        assert_eq!(bc[0], 0.0);
        assert_eq!(bc[2], 0.0);
    }

    #[test]
    fn normalization_divides_by_pairs() {
        let bc = node_betweenness(&path3(), true);
        assert!((bc[1] - 1.0).abs() < 1e-12); // 2 / ((3-1)(3-2)) = 1
    }

    #[test]
    fn star_center_betweenness() {
        // Star: center 0, leaves 1..=4, symmetric edges.
        let mut g = DiGraph::new();
        g.add_nodes(5);
        for v in 1..5u32 {
            g.add_edge(NodeId(0), NodeId(v));
            g.add_edge(NodeId(v), NodeId(0));
        }
        let bc = node_betweenness(&g, false);
        // 4 leaves -> 4*3 = 12 ordered pairs route through center.
        assert_eq!(bc[0], 12.0);
        for &leaf in &bc[1..5] {
            assert_eq!(leaf, 0.0);
        }
    }

    #[test]
    fn directed_path_counts_one_direction() {
        let mut g = DiGraph::new();
        g.add_nodes(3);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        let bc = node_betweenness(&g, false);
        assert_eq!(bc[1], 1.0); // only pair (0,2)
    }

    #[test]
    fn edge_betweenness_bridge_dominates() {
        // Two triangles joined by a bridge (2-3), all symmetric.
        let mut g = DiGraph::new();
        g.add_nodes(6);
        let und = |g: &mut DiGraph, u: u32, v: u32| {
            g.add_edge(NodeId(u), NodeId(v));
            g.add_edge(NodeId(v), NodeId(u));
        };
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            und(&mut g, u, v);
        }
        und(&mut g, 2, 3);
        let eb = edge_betweenness(&g);
        let bridge = eb[&(2, 3)];
        for (&(u, v), &val) in &eb {
            if (u, v) != (2, 3) && (u, v) != (3, 2) {
                assert!(
                    bridge > val,
                    "bridge ({bridge}) must exceed edge ({u},{v})={val}"
                );
            }
        }
        // Symmetric orientations agree.
        assert!((eb[&(2, 3)] - eb[&(3, 2)]).abs() < 1e-9);
        // All 9 cross pairs (each direction) traverse the bridge.
        assert!((bridge - 9.0).abs() < 1e-9);
    }

    #[test]
    fn equal_split_on_diamond() {
        // 0->1->3, 0->2->3: two shortest paths, each edge carries 0.5 of pair
        // (0,3) plus 1.0 of its adjacent pair.
        let mut g = DiGraph::new();
        g.add_nodes(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(1), NodeId(3));
        g.add_edge(NodeId(2), NodeId(3));
        let bc = node_betweenness(&g, false);
        assert!((bc[1] - 0.5).abs() < 1e-12);
        assert!((bc[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn self_loop_ignored() {
        let mut g = path3();
        g.add_edge(NodeId(1), NodeId(1));
        let bc = node_betweenness(&g, false);
        assert_eq!(bc[1], 2.0);
        assert!(!edge_betweenness(&g).contains_key(&(1, 1)));
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::new();
        assert!(node_betweenness(&g, true).is_empty());
        assert!(edge_betweenness(&g).is_empty());
    }

    #[test]
    fn edge_scores_match_the_sequential_reference_bit_for_bit() {
        for seed in 0..8 {
            let g = crate::preferential_attachment(80, 1 + seed as usize % 3, seed);
            for graph in [g.to_undirected(), g] {
                let all: Vec<u32> = (0..graph.node_count() as u32).collect();
                let want = crate::reference::edge_betweenness_from(&graph, &all);
                let got = edge_betweenness(&graph);
                assert_eq!(got.len(), want.len());
                for (key, score) in &want {
                    assert_eq!(
                        got[key].to_bits(),
                        score.to_bits(),
                        "seed {seed} edge {key:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn unit_weights_equal_the_per_node_sum() {
        // Weighted kernel: a path a - b - c where b stands for 3 nodes
        // (itself plus two hanging off it) scores the same as the path
        // with the two extra nodes attached as leaves.
        let mut csr = Csr::new();
        csr.push(1, 0);
        csr.end_symmetric_node();
        csr.push(0, 0);
        csr.push(2, 1);
        csr.end_symmetric_node();
        csr.push(1, 1);
        csr.end_symmetric_node();
        let mut scores = [0.0; 2];
        Brandes::default().run(&csr, &[1.0, 3.0, 1.0], &mut scores);
        // Edge a-b carries every ordered pair between {a} and {b, x, y, c}.
        assert_eq!(scores, [8.0, 8.0]);
    }
}
