//! Node centrality measures.
//!
//! The paper ranks nodes inside each community by **eigenvector
//! in-centrality** (§5.3): "we seek nodes which are likely to be affected by
//! the bug sources. From the perspective of sampling, we are looking for
//! information sinks rather than sources." Non-backtracking centrality
//! lives in [`crate::hashimoto`].

use crate::digraph::{DiGraph, Direction, NodeId};

/// Options for power-iteration based centralities.
#[derive(Debug, Clone, Copy)]
pub struct PowerIterOptions {
    /// Maximum iterations before giving up.
    pub max_iter: usize,
    /// L1 convergence tolerance between successive normalized iterates.
    pub tol: f64,
    /// Diagonal shift: power iteration runs on `A + shift·I`. A positive
    /// shift leaves eigenvectors unchanged for irreducible graphs but makes
    /// iteration converge on near-bipartite structures, and yields a useful
    /// (longest-path weighted) ranking on DAG-like assignment graphs where
    /// the plain spectral radius is zero.
    pub shift: f64,
}

impl Default for PowerIterOptions {
    fn default() -> Self {
        PowerIterOptions {
            max_iter: 1000,
            tol: 1e-10,
            shift: 1.0,
        }
    }
}

/// Eigenvector centrality by power iteration.
///
/// With `Direction::In` this is the paper's eigenvector **in**-centrality:
/// the fixed point of `x_i ∝ Σ_{j→i} x_j` — a node is central when many
/// central nodes flow *into* it (an information sink). With `Direction::Out`
/// the transpose system is solved.
///
/// Returns the centrality vector normalized to unit Euclidean norm (all
/// entries non-negative). Isolated graphs return the uniform vector.
pub fn eigenvector_centrality(graph: &DiGraph, dir: Direction, opts: PowerIterOptions) -> Vec<f64> {
    let n = graph.node_count();
    if n == 0 {
        return Vec::new();
    }
    let mut x = vec![1.0 / (n as f64).sqrt(); n];
    let mut next = vec![0.0; n];
    for _ in 0..opts.max_iter {
        // next = (A_dir + shift I) x, where (A_dir x)_i sums x over the
        // neighbors whose edges point *at* i when dir == In.
        for (i, nx) in next.iter_mut().enumerate() {
            let mut acc = opts.shift * x[i];
            for &j in graph.neighbors(NodeId(i as u32), dir) {
                acc += x[j as usize];
            }
            *nx = acc;
        }
        let norm = next.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm == 0.0 {
            // Nilpotent with zero shift: fall back to uniform.
            return vec![1.0 / (n as f64).sqrt(); n];
        }
        let mut delta = 0.0;
        for (xi, ni) in x.iter_mut().zip(next.iter()) {
            let v = ni / norm;
            delta += (v - *xi).abs();
            *xi = v;
        }
        if delta < opts.tol {
            break;
        }
    }
    x
}

/// Indices of the `m` highest-scoring nodes, descending; ties broken by node
/// id for determinism. This is Algorithm 5.4 step 6: "select m nodes with
/// largest centrality".
pub fn top_m(scores: &[f64], m: usize) -> Vec<NodeId> {
    let mut idx: Vec<u32> = (0..scores.len() as u32).collect();
    idx.sort_by(|&a, &b| {
        scores[b as usize]
            .partial_cmp(&scores[a as usize])
            .unwrap()
            .then_with(|| a.cmp(&b))
    });
    idx.truncate(m);
    idx.into_iter().map(NodeId).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> PowerIterOptions {
        PowerIterOptions::default()
    }

    /// Star with edges pointing in: leaves 1..5 -> center 0.
    fn in_star() -> DiGraph {
        let mut g = DiGraph::new();
        g.add_nodes(6);
        for v in 1..6u32 {
            g.add_edge(NodeId(v), NodeId(0));
        }
        g
    }

    #[test]
    fn eigenvector_in_centrality_sink_dominates() {
        let g = in_star();
        let c = eigenvector_centrality(&g, Direction::In, opts());
        assert!(c[0] > c[1], "sink must outrank sources: {c:?}");
        for leaf in 2..6 {
            assert!((c[1] - c[leaf]).abs() < 1e-8, "leaves symmetric");
        }
    }

    #[test]
    fn eigenvector_on_undirected_cycle_uniform() {
        let mut g = DiGraph::new();
        g.add_nodes(4);
        for i in 0..4u32 {
            let j = (i + 1) % 4;
            g.add_edge(NodeId(i), NodeId(j));
            g.add_edge(NodeId(j), NodeId(i));
        }
        let c = eigenvector_centrality(&g, Direction::In, opts());
        for v in &c {
            assert!((v - 0.5).abs() < 1e-6, "uniform on cycle: {c:?}");
        }
    }

    #[test]
    fn eigenvector_known_spectrum() {
        // Undirected path a-b-c: dominant eigenvector of A+I is
        // (1, sqrt(2), 1)/2 — center twice-sqrt the ends.
        let mut g = DiGraph::new();
        g.add_nodes(3);
        for (u, v) in [(0, 1), (1, 2)] {
            g.add_edge(NodeId(u), NodeId(v));
            g.add_edge(NodeId(v), NodeId(u));
        }
        let c = eigenvector_centrality(&g, Direction::In, opts());
        assert!((c[1] / c[0] - std::f64::consts::SQRT_2).abs() < 1e-6);
        assert!((c[0] - c[2]).abs() < 1e-8);
    }

    #[test]
    fn eigenvector_scale_invariance() {
        let g = in_star();
        let c = eigenvector_centrality(&g, Direction::In, opts());
        let norm: f64 = c.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn eigenvector_dag_ranks_depth() {
        // Chain 0 -> 1 -> 2: with shift, in-centrality increases downstream.
        let mut g = DiGraph::new();
        g.add_nodes(3);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        let c = eigenvector_centrality(&g, Direction::In, opts());
        assert!(c[2] > c[1] && c[1] > c[0], "downstream accumulates: {c:?}");
    }

    #[test]
    fn top_m_deterministic_ties() {
        let scores = vec![0.5, 0.9, 0.5, 0.1];
        assert_eq!(top_m(&scores, 3), vec![NodeId(1), NodeId(0), NodeId(2)]);
        assert_eq!(top_m(&scores, 0), Vec::<NodeId>::new());
        assert_eq!(top_m(&scores, 10).len(), 4, "m capped at n");
    }

    #[test]
    fn empty_graph_centralities() {
        let g = DiGraph::new();
        assert!(eigenvector_centrality(&g, Direction::In, opts()).is_empty());
    }
}
