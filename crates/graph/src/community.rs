//! Girvan–Newman community detection and modularity.
//!
//! The paper (§5.2) partitions each induced subgraph with Girvan–Newman on
//! the undirected view: betweenness is computed for every edge, the edge with
//! the highest betweenness is removed, betweenness is recomputed "for all
//! edges affected by the removal", and removal repeats "until the number of
//! communities increases" — that whole loop constitutes **one G-N iteration**
//! in the paper's Algorithm 5.4 (step 5).
//!
//! "Affected" is taken literally. Every shortest path between two nodes of
//! a biconnected block stays inside the block, and every path that crosses
//! a block enters and leaves it through block nodes. So an edge's
//! betweenness is the weighted betweenness of its block alone, where a
//! block node weighs 1 plus the number of nodes hanging off it outside the
//! block. Removing an edge changes no other block's edges or weights unless
//! it disconnects the component. Hence each removal rescores only the
//! blocks that the removed edge's old block falls apart into, and a removal
//! that splits a component rescores both halves in full.
//!
//! Block scores equal whole-component scores only up to rounding. When the
//! runner-up scores within 1e-9 relative of the top, the step is decided on
//! exact unit-weight scores over the candidates' components, summed over
//! sources in ascending order, with the original rule: highest score, ties
//! by the smallest directed `(from, to)` key. The removal order therefore
//! equals that of the original whole-component algorithm run on one
//! thread (`reference::girvan_newman`), whatever the thread count.

use crate::betweenness::{Brandes, Csr};
use crate::components::Partition;
use crate::digraph::{DiGraph, NodeId};
use std::collections::HashMap;

/// Outcome of one or more Girvan–Newman splits.
#[derive(Debug, Clone)]
pub struct GnResult {
    /// Community partition after the requested splits.
    pub partition: Partition,
    /// Undirected edges removed, in removal order (canonical `u < v` form).
    pub removed_edges: Vec<(u32, u32)>,
}

/// Work counts of one Girvan–Newman run, for benchmarks and tests.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GnWork {
    /// Single-source Brandes passes.
    pub sources: u64,
    /// Removals decided on exact unit-weight scores (tie band).
    pub exact_steps: u64,
}

/// Relative gap under which two block scores count as tied, far above
/// the rounding difference between block and whole-component sums (sums
/// of positive terms, relative error below 1e-12 at these sizes).
const TIE_BAND: f64 = 1e-9;

/// Edge label: removed from the graph.
const REMOVED: u32 = u32::MAX;
/// Edge label: belongs to the component being decomposed.
const SCOPE: u32 = u32::MAX - 1;
/// DFS discovery time of an unvisited node.
const UNVISITED: u32 = u32::MAX;

/// Runs `levels` Girvan–Newman iterations on the **undirected view** of
/// `graph` and returns the resulting community partition.
///
/// Each iteration removes highest-betweenness edges until the number of
/// weakly connected components increases by at least one. The input digraph
/// itself is not modified; an undirected working copy is used internally.
///
/// The paper performs "only one iteration of G-N in algorithm 5.4 step 5"
/// unless noted — call with `levels = 1` for that behaviour. Excessive
/// levels "would not prevent algorithm 5.4 from locating bug sources, but it
/// can slow the process".
pub fn girvan_newman(graph: &DiGraph, levels: usize) -> GnResult {
    girvan_newman_counted(graph, levels).0
}

/// [`girvan_newman`] plus its work counts.
#[doc(hidden)]
pub fn girvan_newman_counted(graph: &DiGraph, levels: usize) -> (GnResult, GnWork) {
    let mut gn = Gn::new(graph);
    let mut removed = Vec::new();
    let mut partition = gn.components();
    'levels: for _ in 0..levels {
        loop {
            if gn.live == 0 {
                break 'levels;
            }
            let e = gn.select();
            removed.push(gn.ends[e]);
            if gn.remove(e) {
                partition = gn.components();
                break;
            }
        }
    }
    gn.work.sources = gn.kernel.sources;
    let result = GnResult {
        partition,
        removed_edges: removed,
    };
    (result, gn.work)
}

/// Scores that the next selection must recompute first.
#[derive(Debug, Clone, Copy)]
enum Stale {
    Nothing,
    /// Every component (the start).
    All,
    /// The block that lost an edge without disconnecting anything.
    Block(u32),
    /// The two components a bridge removal left.
    Components(u32, u32),
}

/// A biconnected block: its nodes (ascending) and their weights.
#[derive(Debug, Default)]
struct Block {
    nodes: Vec<u32>,
    weight: Vec<u32>,
}

/// The undirected working graph with its block decomposition and scores.
#[derive(Debug)]
struct Gn {
    /// Node `v`'s live neighbours are `slots[start[v]..start[v] + len[v]]`
    /// as `(neighbour, edge)`, kept in the order `DiGraph::to_undirected`
    /// and `DiGraph::remove_edge`'s `swap_remove` leave them, which fixes
    /// the BFS order and so the bits of every score.
    start: Vec<u32>,
    len: Vec<u32>,
    slots: Vec<(u32, u32)>,
    /// Canonical `(lo, hi)` endpoints per undirected edge.
    ends: Vec<(u32, u32)>,
    /// Block id per edge, or `REMOVED` / `SCOPE`.
    block_of: Vec<u32>,
    blocks: Vec<Block>,
    live: usize,
    /// Weighted block betweenness per edge, both directions summed.
    fast: Vec<f64>,
    /// Unit-weight betweenness per directed slot `2e + (from > to)`.
    exact: Vec<f64>,
    stale: Stale,
    kernel: Brandes,
    /// Work arrays, indexed by node: DFS discovery time and low point, the
    /// DFS subtree weight, the weight hanging off a node through the
    /// blocks it heads, the node's weight before decomposition, its local
    /// index in the adjacency being built, and a BFS mark.
    disc: Vec<u32>,
    low: Vec<u32>,
    sub: Vec<u32>,
    hang: Vec<u32>,
    base: Vec<u32>,
    local: Vec<u32>,
    seen: Vec<bool>,
    work: GnWork,
}

impl Gn {
    fn new(graph: &DiGraph) -> Gn {
        let und = graph.to_undirected();
        let n = und.node_count();
        let mut start = Vec::with_capacity(n);
        let mut slots = Vec::with_capacity(und.edge_count());
        let mut ends = Vec::with_capacity(und.edge_count() / 2);
        let mut ids: HashMap<(u32, u32), u32> = HashMap::new();
        for u in und.nodes() {
            start.push(slots.len() as u32);
            for &v in und.successors(u) {
                let key = (u.0.min(v), u.0.max(v));
                let e = *ids.entry(key).or_insert_with(|| {
                    ends.push(key);
                    ends.len() as u32 - 1
                });
                slots.push((v, e));
            }
        }
        let len = und.nodes().map(|u| und.out_degree(u) as u32).collect();
        let m = ends.len();
        Gn {
            start,
            len,
            slots,
            ends,
            block_of: vec![SCOPE; m],
            blocks: Vec::new(),
            live: m,
            fast: vec![0.0; m],
            exact: vec![0.0; 2 * m],
            stale: Stale::All,
            kernel: Brandes::default(),
            disc: vec![UNVISITED; n],
            low: vec![0; n],
            sub: vec![0; n],
            hang: vec![0; n],
            base: vec![1; n],
            local: vec![0; n],
            seen: vec![false; n],
            work: GnWork::default(),
        }
    }

    /// Indices into `slots` of `v`'s live `(neighbour, edge)` entries.
    #[inline]
    fn range(&self, v: u32) -> std::ops::Range<usize> {
        let s = self.start[v as usize] as usize;
        s..s + self.len[v as usize] as usize
    }

    /// Weakly connected components, labelled in order of smallest node.
    fn components(&mut self) -> Partition {
        let n = self.start.len();
        let mut labels = vec![u32::MAX; n];
        let mut count = 0;
        for root in 0..n as u32 {
            if labels[root as usize] == u32::MAX {
                for v in self.component(root) {
                    labels[v as usize] = count;
                }
                count += 1;
            }
        }
        Partition::new(labels, count as usize)
    }

    /// The nodes of `root`'s component, in BFS order.
    fn component(&mut self, root: u32) -> Vec<u32> {
        let mut nodes = vec![root];
        self.seen[root as usize] = true;
        let mut head = 0;
        while head < nodes.len() {
            let x = nodes[head];
            head += 1;
            for i in self.range(x) {
                let y = self.slots[i].0;
                if !self.seen[y as usize] {
                    self.seen[y as usize] = true;
                    nodes.push(y);
                }
            }
        }
        for &x in &nodes {
            self.seen[x as usize] = false;
        }
        nodes
    }

    /// Removes edge `e` and reports whether that split its component.
    fn remove(&mut self, e: usize) -> bool {
        let (a, b) = self.ends[e];
        self.unlink(a, b);
        self.unlink(b, a);
        self.live -= 1;
        let block = std::mem::replace(&mut self.block_of[e], REMOVED);
        // A two-node block is a bridge.
        let split = self.blocks[block as usize].nodes.len() == 2;
        self.stale = if split {
            Stale::Components(a, b)
        } else {
            Stale::Block(block)
        };
        split
    }

    /// Drops `b` from `a`'s slots the way `Vec::swap_remove` would.
    fn unlink(&mut self, a: u32, b: u32) {
        let range = self.range(a);
        let pos = range.start
            + self.slots[range.clone()]
                .iter()
                .position(|&(v, _)| v == b)
                .expect("removed edge is live");
        self.slots.swap(pos, range.end - 1);
        self.len[a as usize] -= 1;
    }

    /// The live edge to remove next.
    fn select(&mut self) -> usize {
        self.refresh();
        let live = || (0..self.ends.len()).filter(|&e| self.block_of[e] != REMOVED);
        let top = live()
            .map(|e| self.fast[e])
            .fold(f64::NEG_INFINITY, f64::max);
        let floor = top * (1.0 - TIE_BAND);
        let candidates: Vec<usize> = live().filter(|&e| self.fast[e] >= floor).collect();
        if let [only] = candidates[..] {
            return only;
        }
        self.work.exact_steps += 1;
        let mut scored: Vec<u32> = Vec::new();
        for &e in &candidates {
            let mut nodes = self.component(self.ends[e].0);
            nodes.sort_unstable();
            if !scored.contains(&nodes[0]) {
                scored.push(nodes[0]);
                self.score_exact(&nodes);
            }
        }
        let mut best = (f64::NEG_INFINITY, (u32::MAX, u32::MAX), 0);
        for &e in &candidates {
            let (lo, hi) = self.ends[e];
            for (slot, key) in [(2 * e, (lo, hi)), (2 * e + 1, (hi, lo))] {
                let score = self.exact[slot];
                if score > best.0 || (score == best.0 && key < best.1) {
                    best = (score, key, e);
                }
            }
        }
        best.2
    }

    /// Brings the block scores up to date after the last removal.
    fn refresh(&mut self) {
        match std::mem::replace(&mut self.stale, Stale::Nothing) {
            Stale::Nothing => {}
            Stale::All => {
                for root in 0..self.start.len() as u32 {
                    if self
                        .range(root)
                        .any(|i| self.block_of[self.slots[i].1 as usize] == SCOPE)
                    {
                        self.decompose(root, SCOPE);
                    }
                }
            }
            Stale::Block(b) => {
                let old = std::mem::take(&mut self.blocks[b as usize]);
                for (&x, &w) in old.nodes.iter().zip(&old.weight) {
                    self.base[x as usize] = w;
                }
                self.decompose(old.nodes[0], b);
            }
            Stale::Components(a, b) => {
                for root in [a, b] {
                    let nodes = self.component(root);
                    for &x in &nodes {
                        self.base[x as usize] = 1;
                        for i in self.range(x) {
                            self.block_of[self.slots[i].1 as usize] = SCOPE;
                        }
                    }
                    if nodes.len() > 1 {
                        self.decompose(root, SCOPE);
                    }
                }
            }
        }
    }

    /// Splits the connected edges labelled `scope` around `root` into
    /// biconnected blocks (iterative Hopcroft–Tarjan) and scores each.
    ///
    /// A node's weight before the split is `base`. In a new block, a node
    /// other than the block's DFS head weighs its base plus the subtrees of
    /// the blocks it heads; the head weighs everything outside the block's
    /// DFS subtree.
    fn decompose(&mut self, root: u32, scope: u32) {
        let mut visited = vec![root];
        let mut edges: Vec<u32> = Vec::new();
        let mut found: Vec<(u32, u32, Vec<u32>)> = Vec::new();
        // DFS frames: (node, tree edge into it, next slot to scan).
        let mut frames: Vec<(u32, u32, u32)> = vec![(root, REMOVED, 0)];
        let r = root as usize;
        self.disc[r] = 0;
        self.low[r] = 0;
        self.sub[r] = self.base[r];
        self.hang[r] = 0;
        let mut time = 1;
        while let Some(&mut (x, tree, ref mut next)) = frames.last_mut() {
            let xi = x as usize;
            if *next < self.len[xi] {
                let (y, e) = self.slots[(self.start[xi] + *next) as usize];
                *next += 1;
                if self.block_of[e as usize] != scope || e == tree {
                    continue;
                }
                let yi = y as usize;
                if self.disc[yi] == UNVISITED {
                    self.disc[yi] = time;
                    self.low[yi] = time;
                    self.sub[yi] = self.base[yi];
                    self.hang[yi] = 0;
                    time += 1;
                    visited.push(y);
                    edges.push(e);
                    frames.push((y, e, 0));
                } else if self.disc[yi] < self.disc[xi] {
                    edges.push(e);
                    self.low[xi] = self.low[xi].min(self.disc[yi]);
                }
            } else {
                frames.pop();
                if let Some(&(p, _, _)) = frames.last() {
                    let pi = p as usize;
                    self.low[pi] = self.low[pi].min(self.low[xi]);
                    self.sub[pi] += self.sub[xi];
                    if self.low[xi] >= self.disc[pi] {
                        self.hang[pi] += self.sub[xi];
                        let at = edges.iter().rposition(|&f| f == tree).expect("tree edge");
                        found.push((p, x, edges.split_off(at)));
                    }
                }
            }
        }
        let total = self.sub[r];
        for (head, child, block_edges) in found {
            let mut nodes: Vec<u32> = block_edges
                .iter()
                .flat_map(|&e| {
                    let (a, b) = self.ends[e as usize];
                    [a, b]
                })
                .collect();
            nodes.sort_unstable();
            nodes.dedup();
            let weight = nodes
                .iter()
                .map(|&x| {
                    if x == head {
                        total - self.sub[child as usize]
                    } else {
                        self.base[x as usize] + self.hang[x as usize]
                    }
                })
                .collect();
            let id = self.blocks.len() as u32;
            for &e in &block_edges {
                self.block_of[e as usize] = id;
            }
            self.blocks.push(Block { nodes, weight });
            self.score_block(id);
        }
        for x in visited {
            self.disc[x as usize] = UNVISITED;
        }
    }

    /// Weighted Brandes over block `id` alone, into `fast`.
    fn score_block(&mut self, id: u32) {
        let block = &self.blocks[id as usize];
        for (i, &x) in block.nodes.iter().enumerate() {
            self.local[x as usize] = i as u32;
        }
        let mut csr = Csr::new();
        for &x in &block.nodes {
            for i in self.range(x) {
                let (y, e) = self.slots[i];
                if self.block_of[e as usize] == id {
                    csr.push(self.local[y as usize], e);
                }
            }
            csr.end_symmetric_node();
        }
        let weight: Vec<f64> = block.weight.iter().map(|&w| f64::from(w)).collect();
        self.kernel.run(&csr, &weight, &mut self.fast);
    }

    /// Unit-weight Brandes over one whole component (`nodes` ascending),
    /// into `exact`: the original algorithm's bits.
    fn score_exact(&mut self, nodes: &[u32]) {
        for (i, &x) in nodes.iter().enumerate() {
            self.local[x as usize] = i as u32;
        }
        let mut csr = Csr::new();
        for &x in nodes {
            for i in self.range(x) {
                let (y, e) = self.slots[i];
                csr.push(self.local[y as usize], 2 * e + u32::from(x > y));
            }
            csr.end_symmetric_node();
        }
        self.kernel
            .run(&csr, &vec![1.0; nodes.len()], &mut self.exact);
    }
}

/// Communities from one G-N iteration, with communities smaller than
/// `min_size` dropped (the paper omits "communities smaller than 3 nodes" in
/// Algorithm 5.4 step 5 and removes clusters of fewer than four nodes from
/// its plots).
///
/// Returns communities as node-id groups sorted by decreasing size.
pub fn communities(graph: &DiGraph, levels: usize, min_size: usize) -> Vec<Vec<NodeId>> {
    let result = girvan_newman(graph, levels);
    let mut groups: Vec<Vec<NodeId>> = result
        .partition
        .groups()
        .into_iter()
        .filter(|g| g.len() >= min_size)
        .collect();
    groups.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
    groups
}

/// Newman–Girvan modularity `Q` of a partition over the undirected view of
/// `graph`.
///
/// `Q = Σ_c (e_c / m − (d_c / 2m)²)` with `e_c` intra-community undirected
/// edges, `d_c` total degree of community `c`, and `m` undirected edges.
pub fn modularity(graph: &DiGraph, partition: &Partition) -> f64 {
    let und = graph.to_undirected();
    let m2 = und.edge_count() as f64; // = 2m (each undirected edge stored twice)
    if m2 == 0.0 {
        return 0.0;
    }
    let mut intra = vec![0.0f64; partition.count]; // directed intra-edge count
    let mut deg = vec![0.0f64; partition.count];
    for (u, v) in und.edges() {
        let lu = partition.label(u);
        if lu == partition.label(v) {
            intra[lu as usize] += 1.0;
        }
    }
    for n in und.nodes() {
        deg[partition.label(n) as usize] += und.out_degree(n) as f64;
    }
    intra
        .iter()
        .zip(&deg)
        .map(|(&e, &d)| e / m2 - (d / m2) * (d / m2))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two 4-cliques joined by a single bridge — the canonical community
    /// detection test case.
    fn two_cliques() -> DiGraph {
        let mut g = DiGraph::new();
        g.add_nodes(8);
        for base in [0u32, 4u32] {
            for i in base..base + 4 {
                for j in i + 1..base + 4 {
                    g.add_edge(NodeId(i), NodeId(j));
                }
            }
        }
        g.add_edge(NodeId(3), NodeId(4));
        g
    }

    #[test]
    fn gn_splits_cliques_at_bridge() {
        let g = two_cliques();
        let r = girvan_newman(&g, 1);
        assert_eq!(r.partition.count, 2);
        assert_eq!(r.removed_edges, vec![(3, 4)], "bridge removed first");
        for i in 0..4u32 {
            assert!(r.partition.same(NodeId(0), NodeId(i)));
        }
        for i in 4..8u32 {
            assert!(r.partition.same(NodeId(4), NodeId(i)));
        }
        assert!(!r.partition.same(NodeId(0), NodeId(4)));
    }

    #[test]
    fn gn_second_level_splits_again() {
        let g = two_cliques();
        let r = girvan_newman(&g, 2);
        assert!(r.partition.count >= 3);
    }

    #[test]
    fn gn_on_edgeless_graph() {
        let mut g = DiGraph::new();
        g.add_nodes(3);
        let r = girvan_newman(&g, 1);
        assert_eq!(r.partition.count, 3);
        assert!(r.removed_edges.is_empty());
    }

    #[test]
    fn gn_direction_irrelevant() {
        // Reversing every edge must give identical communities because G-N
        // works on the undirected view.
        let g = two_cliques();
        let rev = g.reversed();
        let a = girvan_newman(&g, 1);
        let b = girvan_newman(&rev, 1);
        assert_eq!(a.partition.labels, b.partition.labels);
    }

    #[test]
    fn communities_filter_small() {
        // Two cliques plus an isolated pendant pair (community of size 2).
        let mut g = two_cliques();
        let p = g.add_node();
        let q = g.add_node();
        g.add_edge(p, q);
        let cs = communities(&g, 1, 3);
        assert_eq!(cs.len(), 2, "pendant pair filtered out");
        assert!(cs.iter().all(|c| c.len() == 4));
    }

    #[test]
    fn communities_sorted_by_size() {
        // 5-clique and 4-clique joined by a bridge.
        let mut g = DiGraph::new();
        g.add_nodes(9);
        for i in 0..5u32 {
            for j in i + 1..5 {
                g.add_edge(NodeId(i), NodeId(j));
            }
        }
        for i in 5..9u32 {
            for j in i + 1..9 {
                g.add_edge(NodeId(i), NodeId(j));
            }
        }
        g.add_edge(NodeId(4), NodeId(5));
        let cs = communities(&g, 1, 2);
        assert_eq!(cs[0].len(), 5);
        assert_eq!(cs[1].len(), 4);
    }

    #[test]
    fn modularity_good_split_positive() {
        let g = two_cliques();
        let r = girvan_newman(&g, 1);
        let q = modularity(&g, &r.partition);
        assert!(q > 0.3, "clique split should have high modularity, got {q}");
    }

    #[test]
    fn modularity_trivial_partition_zero() {
        let g = two_cliques();
        let p = Partition::new(vec![0; 8], 1);
        let q = modularity(&g, &p);
        assert!(q.abs() < 1e-12);
    }

    #[test]
    fn modularity_singletons_negative() {
        let g = two_cliques();
        let p = Partition::new((0..8).collect(), 8);
        assert!(modularity(&g, &p) < 0.0);
    }

    #[test]
    fn block_and_exact_scores_track_the_reference() {
        // Trees (all bridges), sparse and dense graphs, through block
        // rescoring and component splits. Exact scores must carry the
        // reference's bits on a `DiGraph` that loses the same edges, and
        // block scores must equal them up to rounding.
        for seed in 0..6 {
            let g = crate::preferential_attachment(70, 1 + seed as usize % 3, seed);
            let mut gn = Gn::new(&g);
            let mut work = g.to_undirected();
            for _ in 0..40 {
                if gn.live == 0 {
                    break;
                }
                gn.refresh();
                for root in 0..g.node_count() as u32 {
                    let mut nodes = gn.component(root);
                    nodes.sort_unstable();
                    if nodes[0] != root || nodes.len() == 1 {
                        continue;
                    }
                    gn.score_exact(&nodes);
                    let want = crate::reference::edge_betweenness_from(&work, &nodes);
                    for (e, &(lo, hi)) in gn.ends.iter().enumerate() {
                        if gn.block_of[e] != REMOVED && want.contains_key(&(lo, hi)) {
                            assert_eq!(gn.exact[2 * e].to_bits(), want[&(lo, hi)].to_bits());
                            assert_eq!(gn.exact[2 * e + 1].to_bits(), want[&(hi, lo)].to_bits());
                        }
                    }
                }
                for e in (0..gn.ends.len()).filter(|&e| gn.block_of[e] != REMOVED) {
                    let exact = gn.exact[2 * e] + gn.exact[2 * e + 1];
                    let gap = (gn.fast[e] - exact).abs() / exact;
                    assert!(gap < 1e-12, "seed {seed} edge {:?}: gap {gap}", gn.ends[e]);
                }
                let e = gn.select();
                let (u, v) = gn.ends[e];
                gn.remove(e);
                work.remove_edge(NodeId(u), NodeId(v));
                work.remove_edge(NodeId(v), NodeId(u));
            }
        }
    }

    #[test]
    fn symmetric_ties_follow_the_reference() {
        // Every edge of a ring or a grid ties with others, so each step is
        // decided on exact scores by the smallest directed key.
        let mut ring = DiGraph::new();
        ring.add_nodes(12);
        for i in 0..12 {
            ring.add_edge(NodeId(i), NodeId((i + 1) % 12));
        }
        let mut grid = DiGraph::new();
        grid.add_nodes(16);
        for r in 0..4u32 {
            for c in 0..4u32 {
                if c < 3 {
                    grid.add_edge(NodeId(4 * r + c), NodeId(4 * r + c + 1));
                }
                if r < 3 {
                    grid.add_edge(NodeId(4 * r + c), NodeId(4 * r + c + 4));
                }
            }
        }
        for g in [ring, grid] {
            for levels in 1..=3 {
                let (got, work) = girvan_newman_counted(&g, levels);
                let (want, _) = crate::reference::girvan_newman(&g, levels);
                assert_eq!(got.removed_edges, want.removed_edges);
                assert_eq!(got.partition, want.partition);
                assert!(work.exact_steps > 0);
            }
        }
    }
}
