//! Betweenness and Girvan–Newman do not depend on the thread count.
//!
//! Scores once summed per-thread partials whose boundaries followed
//! `RAYON_NUM_THREADS`. Block scores now sum fixed source chunks, which a
//! large block runs on the thread pool. The test sets that process-wide
//! variable, so this file holds a single test: nothing else in the
//! process reads or changes the variable while it runs.

use rca_graph::community::{girvan_newman_counted, GnWork};
use rca_graph::{edge_betweenness, preferential_attachment, reference, DiGraph, NodeId};

/// Removal order and partition of `levels` Girvan–Newman iterations,
/// with their work counts.
fn split(g: &DiGraph, levels: usize) -> (Vec<(u32, u32)>, rca_graph::Partition, GnWork) {
    let (gn, work) = girvan_newman_counted(g, levels);
    (gn.removed_edges, gn.partition, work)
}

/// `g`'s undirected edges with every other one subdivided by a new node.
fn half_subdivided(g: &DiGraph) -> DiGraph {
    let und = g.to_undirected();
    let mut out = DiGraph::new();
    out.add_nodes(g.node_count());
    for (i, (u, v)) in und.edges().filter(|(u, v)| u < v).enumerate() {
        if i % 2 == 0 {
            let x = out.add_node();
            out.add_edge(u, x);
            out.add_edge(x, v);
        } else {
            out.add_edge(u, v);
        }
    }
    out
}

#[test]
fn results_are_bit_identical_at_any_thread_count() {
    // Hash-map partials merged per thread chunk once made this graph's
    // removal order diverge at the 15th removal. No block of it reaches
    // the fan-out constant.
    let small = preferential_attachment(60, 2, 0);
    let und = small.to_undirected();
    // One 300-node block: its nodes × adjacency entries clear the fan-out
    // constant, so its chunks run on the pool.
    let large = preferential_attachment(300, 2, 0);
    // A block that clears the fan-out constant and folds the new nodes
    // whose two ends have degree 3 or more, but not the others.
    let folding = half_subdivided(&preferential_attachment(200, 2, 5));
    let cases = [(&large, 1), (&large, 2), (&folding, 1)];
    let run = |threads: usize| {
        std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
        let mut eb: Vec<((u32, u32), u64)> = edge_betweenness(&und)
            .into_iter()
            .map(|(key, score)| (key, score.to_bits()))
            .collect();
        eb.sort_unstable();
        let splits = cases.map(|(g, levels)| split(g, levels));
        (split(&small, 3), eb, splits)
    };
    let one = run(1);
    assert!(one.0 .0.len() > 15, "the split must pass removal 15");
    assert_eq!(
        one.0 .2.fanned_out, 0,
        "the small graph stays on the caller"
    );
    for (i, ((g, levels), got)) in cases.into_iter().zip(&one.2).enumerate() {
        let (want, _) = reference::girvan_newman(g, levels);
        assert_eq!(got.0, want.removed_edges, "case {i}: removal order");
        assert_eq!(got.1, want.partition, "case {i}: partition");
        assert!(got.2.fanned_out > 0, "case {i}: no block fanned out");
    }
    // An added node with an end of degree 2 never folds.
    let unfoldable = (200..folding.node_count() as u32)
        .map(NodeId)
        .filter(|&x| {
            let ends = [folding.successors(x)[0], folding.predecessors(x)[0]];
            ends.iter().any(|&y| folding.degree(NodeId(y)) < 3)
        })
        .count();
    assert!(unfoldable > 0, "some added nodes must stay unfolded");
    assert!(one.2[2].2.folded > 0, "no node folded");
    for threads in [2, 3, 4, 8] {
        let other = run(threads);
        assert_eq!(one.0, other.0, "small graph at {threads} threads");
        assert!(
            one.1 == other.1,
            "edge betweenness bits at {threads} threads"
        );
        assert_eq!(one.2, other.2, "large graphs at {threads} threads");
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}
