//! Betweenness and Girvan–Newman do not depend on the thread count.
//!
//! Scores once summed per-thread partials whose boundaries followed
//! `RAYON_NUM_THREADS`. Block scores now sum fixed source chunks, which a
//! large block runs on the thread pool. The test sets that process-wide
//! variable, so this file holds a single test: nothing else in the
//! process reads or changes the variable while it runs.

use rca_graph::community::girvan_newman_counted;
use rca_graph::{edge_betweenness, preferential_attachment, reference, DiGraph};

/// Removal order and partition of `levels` Girvan–Newman iterations,
/// with the number of block scorings that ran on the thread pool.
fn split(g: &DiGraph, levels: usize) -> (Vec<(u32, u32)>, rca_graph::Partition, u64) {
    let (gn, work) = girvan_newman_counted(g, levels);
    (gn.removed_edges, gn.partition, work.fanned_out)
}

#[test]
fn results_are_bit_identical_at_any_thread_count() {
    // Hash-map partials merged per thread chunk once made this graph's
    // removal order diverge at the 15th removal. No block of it reaches
    // the fan-out constant.
    let small = preferential_attachment(60, 2, 0);
    let und = small.to_undirected();
    // One 300-node block: its sources × adjacency entries clear the
    // fan-out constant, so its chunks run on the pool.
    let large = preferential_attachment(300, 2, 0);
    let run = |threads: usize| {
        std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
        let mut eb: Vec<((u32, u32), u64)> = edge_betweenness(&und)
            .into_iter()
            .map(|(key, score)| (key, score.to_bits()))
            .collect();
        eb.sort_unstable();
        (split(&small, 3), eb, [split(&large, 1), split(&large, 2)])
    };
    let one = run(1);
    assert!(one.0 .0.len() > 15, "the split must pass removal 15");
    assert_eq!(one.0 .2, 0, "the small graph stays on the caller");
    for (levels, got) in [1, 2].into_iter().zip(&one.2) {
        let (want, _) = reference::girvan_newman(&large, levels);
        assert_eq!(got.0, want.removed_edges, "removal order at level {levels}");
        assert_eq!(got.1, want.partition, "partition at level {levels}");
        assert!(got.2 > 0, "no block fanned out at level {levels}");
    }
    for threads in [2, 3, 4, 8] {
        let other = run(threads);
        assert_eq!(one.0, other.0, "small graph at {threads} threads");
        assert!(
            one.1 == other.1,
            "edge betweenness bits at {threads} threads"
        );
        assert_eq!(one.2, other.2, "large graph at {threads} threads");
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}
