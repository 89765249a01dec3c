//! Brandes' edge betweenness centrality.
//!
//! Girvan–Newman (§5.2) "ranks edges by the number of shortest paths
//! (computed via BFS) that traverse them". Brandes' dependency-accumulation
//! algorithm computes exact betweenness in O(V·E) for unweighted graphs.
//!
//! Everything here runs over a dense edge-indexed adjacency (`Csr`) with
//! node weights, where every ordered pair of distinct nodes `s`, `t` adds
//! `w_s·w_t` times the share of its shortest paths that cross an edge to
//! that edge's slot. Girvan–Newman passes biconnected blocks with weights
//! that count the nodes hanging off each block node. Two kernels compute
//! it, and neither result depends on the thread count.
//!
//! `Brandes::run` is the classic per-source accumulation, one source
//! after another in ascending node order, one plain left-to-right sum.
//! With unit weights these are the reference's bits, which
//! [`edge_betweenness`] and Girvan–Newman's exact tie scores keep.
//!
//! `Brandes::run_folded` scores Girvan–Newman's blocks, and *folds* some
//! degree-2 nodes: a node `c` whose only neighbours `u` and `v` both have
//! degree 3 or more runs no source pass. Its pairs run in `u`'s and `v`'s
//! passes instead. For a target `t ≠ c`, let `r_t` be 1 if
//! `d_u(t) < d_v(t)`, `σ_u(t)/(σ_u(t) + σ_v(t))` if they are equal and 0
//! otherwise, and let `r_c` be 0. This is exact: a shortest path from `u`
//! to a `t` with `d_u(t) ≤ d_v(t)` never passes through `c`, since it
//! would then be `2 + d_v(t)` long. So the shortest paths from `c` to `t`
//! are the edge `{c,u}` followed by the `σ_u(t)` paths from `u`, a share
//! `r_t` of them, and the rest through `v`. Hence `u`'s backward pass
//! weighs target `t` with `w_t·(w_u + Σ_c w_c·r_t)`, over the nodes `c`
//! folded into `u`, instead of multiplying by `w_u` at the end, and edge
//! `{c,u}` gains `w_c·Σ_{t≠c} w_t·r_t`. Folded nodes stay targets, and a
//! neighbour of a folded node never folds, so the passes that carry a
//! folded node's pairs always run.
//!
//! `u`'s pass needs `v`'s distances and path counts, so
//! `Brandes::run_folded` works in two phases over the remaining sources
//! in ascending order. Phase 1 runs every source's forward BFS into a row
//! holding the visit order, the distances and the path counts; it sums
//! nothing. Phase 2 takes the sources in fixed chunks of `CHUNK` (32) and
//! runs each chunk's folds and backward passes into a partial that starts
//! from zero. A backward pass walks the row's visit order in reverse and
//! finds each node's successors by scanning its adjacency for distance
//! one more, so rows need no predecessor lists. The partials are added in
//! chunk order, so each folded term lands in its neighbour's chunk. A
//! block whose work (nodes × adjacency entries) reaches `FAN_OUT` (2^18)
//! runs both phases on the thread pool and a smaller one runs them on the
//! caller, so the bits depend only on the block.

use crate::digraph::DiGraph;
use rayon::prelude::*;
use std::cmp::Ordering;
use std::collections::HashMap;

/// Remaining sources per chunk of a block score.
pub(crate) const CHUNK: usize = 32;

/// Work (nodes × adjacency entries) from which a block score runs its
/// phases on the thread pool. Blocks this large carry most of a
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
    /// Forward rows of [`Brandes::run_folded`].
    rows: Rows,
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

    /// Sets `scores`, one entry per slot of the connected symmetric `g`
    /// (slots `0..scores.len()`), to the weighted betweenness of
    /// [`Brandes::run`], with the nodes this folds run in their
    /// neighbours' passes. Phase 1 runs the forward BFS of every remaining
    /// source; phase 2 runs the folds and backward passes of each chunk of
    /// [`CHUNK`] remaining sources, in ascending order, into a partial from
    /// zero, and the partials are added in chunk order. When the block's
    /// nodes × adjacency entries reach [`FAN_OUT`], both phases run on the
    /// thread pool; the bits are the same either way. Returns the number
    /// of folded nodes and whether the phases ran on the pool.
    pub(crate) fn run_folded(
        &mut self,
        g: &Csr,
        weight: &[f64],
        scores: &mut [f64],
    ) -> (usize, bool) {
        let n = g.node_count();
        let degree = |v: u32| g.out(v).len();
        let folded: Vec<bool> = (0..n as u32)
            .map(|c| degree(c) == 2 && g.out(c).iter().all(|&(x, _)| degree(x) >= 3))
            .collect();
        let sources: Vec<u32> = (0..n as u32).filter(|&v| !folded[v as usize]).collect();
        let mut rank = vec![0; n];
        for (i, &s) in sources.iter().enumerate() {
            rank[s as usize] = i as u32;
        }
        let chunk = |c: usize| &sources[c * CHUNK..sources.len().min((c + 1) * CHUNK)];
        let chunks = sources.len().div_ceil(CHUNK);
        let pool = n * g.adj.len() >= FAN_OUT;
        let rows = &mut self.rows;
        let len = sources.len() * n;
        if rows.dist.len() < len {
            rows.order.resize(len, 0);
            rows.dist.resize(len, 0);
            rows.sigma.resize(len, 0.0);
        }
        let each = rows.order[..len]
            .chunks_exact_mut(n)
            .zip(rows.dist.chunks_exact_mut(n))
            .zip(rows.sigma.chunks_exact_mut(n))
            .zip(&sources);
        map_items(each, pool, |(((order, dist), sigma), &s)| {
            forward(g, s, order, dist, sigma);
        });
        let fold = Fold {
            g,
            weight,
            folded: &folded,
            rank: &rank,
            rows,
        };
        // The pool hands each worker a contiguous run of items, and the
        // low-ranked sources tend to carry more folds, so the chunks are
        // dealt even ones first, then odd ones; their partials are still
        // added in chunk order.
        let dealt = (0..chunks).step_by(2).chain((1..chunks).step_by(2));
        let slots = scores.len();
        let mut partials = map_items(dealt, pool, |c| {
            let mut partial = vec![0.0; slots];
            let (mut load, mut coeff) = (vec![0.0; n], vec![0.0; n]);
            for &s in chunk(c) {
                fold.pass(s, &mut partial, &mut load, &mut coeff);
            }
            (c, partial)
        });
        partials.sort_unstable_by_key(|&(c, _)| c);
        scores.fill(0.0);
        for (_, partial) in &partials {
            for (score, term) in scores.iter_mut().zip(partial) {
                *score += term;
            }
        }
        (n - sources.len(), pool)
    }
}

/// `f` of each item, in order: on the thread pool when `pool` is set,
/// else on the caller.
fn map_items<I, R>(items: I, pool: bool, f: impl Fn(I::Item) -> R + Sync) -> Vec<R>
where
    I: IntoIterator,
    I::Item: Send,
    R: Send,
{
    if pool {
        items.into_par_iter().map(f).collect()
    } else {
        items.into_iter().map(f).collect()
    }
}

/// Forward BFS rows of the remaining sources, one node count of entries
/// per source in rank order: the visit order, and each node's distance
/// from the source and number of shortest paths from it. They take 16
/// bytes per node per remaining source (2.2 MiB for the largest
/// paper-scale block) and are kept between block scorings so their
/// memory is reused.
#[derive(Debug, Default)]
struct Rows {
    order: Vec<u32>,
    dist: Vec<u32>,
    sigma: Vec<f64>,
}

/// One source's row of a [`Rows`].
struct Row<'a> {
    order: &'a [u32],
    dist: &'a [u32],
    sigma: &'a [f64],
}

/// Fills one row with a BFS from `s` over the connected `g`.
fn forward(g: &Csr, s: u32, order: &mut [u32], dist: &mut [u32], sigma: &mut [f64]) {
    dist.fill(u32::MAX);
    dist[s as usize] = 0;
    sigma[s as usize] = 1.0;
    order[0] = s;
    let (mut head, mut tail) = (0, 1);
    while head < tail {
        let u = order[head] as usize;
        head += 1;
        let (du, su) = (dist[u], sigma[u]);
        for &(v, _) in g.out(u as u32) {
            let v = v as usize;
            if dist[v] == u32::MAX {
                dist[v] = du + 1;
                sigma[v] = 0.0;
                order[tail] = v as u32;
                tail += 1;
            }
            if dist[v] == du + 1 {
                sigma[v] += su;
            }
        }
    }
    assert_eq!(tail, order.len(), "block scores need a connected graph");
}

/// A block between the phases of [`Brandes::run_folded`]: which nodes fold,
/// each remaining source's rank, and the forward rows.
struct Fold<'a> {
    g: &'a Csr,
    weight: &'a [f64],
    folded: &'a [bool],
    rank: &'a [u32],
    rows: &'a Rows,
}

impl Fold<'_> {
    fn row(&self, s: u32) -> Row<'_> {
        let n = self.g.node_count();
        let first = self.rank[s as usize] as usize * n;
        let span = first..first + n;
        Row {
            order: &self.rows.order[span.clone()],
            dist: &self.rows.dist[span.clone()],
            sigma: &self.rows.sigma[span],
        }
    }

    /// Source `s`'s backward pass into `partial`, carrying the pairs of
    /// `s` and of every node folded into it; `load` and `coeff` are
    /// scratch, one entry per node.
    fn pass(&self, s: u32, partial: &mut [f64], load: &mut [f64], coeff: &mut [f64]) {
        let Fold { g, weight, .. } = *self;
        let own = self.row(s);
        // load[t] = Σ_c w_c·r_t over the nodes c folded into s.
        load.fill(0.0);
        for &(c, slot) in g.out(s) {
            if !self.folded[c as usize] {
                continue;
            }
            let &[(a, _), (b, _)] = g.out(c) else {
                unreachable!("a folded node has two neighbours")
            };
            let far = self.row(if a == s { b } else { a });
            let wc = weight[c as usize];
            let mut via = 0.0;
            for t in 0..load.len() {
                if t == c as usize {
                    continue;
                }
                let r = match own.dist[t].cmp(&far.dist[t]) {
                    Ordering::Less => 1.0,
                    Ordering::Equal => own.sigma[t] / (own.sigma[t] + far.sigma[t]),
                    Ordering::Greater => continue,
                };
                load[t] += wc * r;
                via += weight[t] * r;
            }
            partial[slot as usize] += wc * via;
        }
        let ws = weight[s as usize];
        for (l, &wt) in load.iter_mut().zip(weight) {
            *l = wt * (ws + *l);
        }
        // Reverse BFS order: a node pulls from its successors (distance
        // one more), whose coefficients `(load + δ)/σ` are final by then.
        for &x in own.order.iter().rev() {
            let x = x as usize;
            let (down, sx) = (own.dist[x] + 1, own.sigma[x]);
            let mut delta = 0.0;
            for &(w, slot) in g.out(x as u32) {
                if own.dist[w as usize] == down {
                    let c = sx * coeff[w as usize];
                    delta += c;
                    partial[slot as usize] += c;
                }
            }
            coeff[x] = (load[x] + delta) / sx;
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
