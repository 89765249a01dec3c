//! Brandes' edge betweenness centrality.
//!
//! Girvan–Newman (§5.2) "ranks edges by the number of shortest paths
//! (computed via BFS) that traverse them". Brandes' dependency-accumulation
//! algorithm computes exact betweenness in O(V·E) for unweighted graphs.
//!
//! Everything here runs one kernel, `Brandes`, over a dense
//! edge-indexed adjacency (`Csr`) with node weights. With unit weights
//! the kernel reproduces the classic per-source accumulation bit for bit;
//! Girvan–Newman passes biconnected blocks with weights that count the
//! nodes hanging off each block node.
//!
//! Scores are summed one of two ways, neither of which depends on the
//! thread count. [`edge_betweenness`] and Girvan–Newman's exact tie
//! scores run the sources one after another in ascending node order, one
//! plain left-to-right sum: the reference's bits. Girvan–Newman's block
//! scores sum fixed chunks of `CHUNK` (32) sources: each chunk's partial
//! starts from zero and adds its sources in ascending order, and the
//! partials are added in chunk order. A block whose work (sources ×
//! adjacency entries) reaches `FAN_OUT` (2^18) runs its chunks on the
//! thread pool and a smaller one runs the same chunks on the caller, so
//! the bits depend only on the block.

use crate::digraph::DiGraph;
use rayon::prelude::*;
use std::collections::HashMap;

/// Sources per chunk of a chunked sum.
pub(crate) const CHUNK: usize = 32;

/// Work (sources × adjacency entries) from which a chunked sum runs its
/// chunks on the thread pool. Blocks this large carry most of a
/// paper-scale split's Brandes work, and no test-scale block reaches it,
/// so callers that already keep every core busy with test-scale
/// diagnoses stay on their own thread.
pub(crate) const FAN_OUT: usize = 1 << 18;

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
        self.sources += g.node_count() as u64;
        for s in 0..g.node_count() as u32 {
            self.source(g, weight, s, scores);
        }
    }

    /// Sets `scores`, one entry per slot of `g` (slots `0..scores.len()`),
    /// to the chunked sum of the same per-source terms as [`Brandes::run`]:
    /// one partial per [`CHUNK`] sources, each from zero in ascending
    /// source order, added in chunk order. Runs the chunks on the thread
    /// pool, one `Brandes` per worker, when the work reaches [`FAN_OUT`],
    /// and reports whether it did; the bits are the same either way.
    pub(crate) fn run_chunked(&mut self, g: &Csr, weight: &[f64], scores: &mut [f64]) -> bool {
        let n = g.node_count();
        let slots = scores.len();
        let partial = |kernel: &mut Brandes, c: usize| {
            let mut partial = vec![0.0; slots];
            for s in c * CHUNK..n.min((c + 1) * CHUNK) {
                kernel.source(g, weight, s as u32, &mut partial);
            }
            partial
        };
        let chunks = 0..n.div_ceil(CHUNK);
        let fan_out = n * g.adj.len() >= FAN_OUT;
        let partials: Vec<Vec<f64>> = if fan_out {
            chunks
                .into_par_iter()
                .map_init(Brandes::default, partial)
                .collect()
        } else {
            chunks.map(|c| partial(self, c)).collect()
        };
        scores.fill(0.0);
        for partial in &partials {
            for (score, term) in scores.iter_mut().zip(partial) {
                *score += term;
            }
        }
        self.sources += n as u64;
        fan_out
    }

    /// One source: BFS from `s`, then dependency accumulation in reverse
    /// BFS order.
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
            node, order, pred, ..
        } = self;
        for &v in order.iter() {
            node[v as usize] = UNSEEN;
        }
        order.clear();

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
        let eb = edge_betweenness(&g);
        assert_eq!(eb.len(), 4);
        for (&(u, v), &val) in &eb {
            assert!((val - 1.5).abs() < 1e-12, "edge ({u},{v})={val}");
        }
    }

    #[test]
    fn self_loop_ignored() {
        let mut g = path3();
        g.add_edge(NodeId(1), NodeId(1));
        let eb = edge_betweenness(&g);
        assert!(!eb.contains_key(&(1, 1)));
        // Edge 0 -> 1 carries pairs (0,1) and (0,2).
        assert_eq!(eb[&(0, 1)], 2.0);
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::new();
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
