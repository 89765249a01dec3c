//! Betweenness and Girvan–Newman do not depend on the thread count.
//!
//! Scores once summed per-thread partials whose boundaries followed
//! `RAYON_NUM_THREADS`. The test sets that process-wide variable, so this
//! file holds a single test: nothing else in the process reads or changes
//! the variable while it runs.

use rca_graph::{edge_betweenness, girvan_newman, preferential_attachment};

#[test]
fn results_are_bit_identical_at_any_thread_count() {
    // Hash-map partials merged per thread chunk once made this graph's
    // removal order diverge at the 15th removal.
    let g = preferential_attachment(60, 2, 0);
    let und = g.to_undirected();
    let run = |threads: usize| {
        std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
        let gn = girvan_newman(&g, 3);
        let mut eb: Vec<((u32, u32), u64)> = edge_betweenness(&und)
            .into_iter()
            .map(|(key, score)| (key, score.to_bits()))
            .collect();
        eb.sort_unstable();
        (gn.removed_edges, gn.partition, eb)
    };
    let one = run(1);
    assert!(one.0.len() > 15, "the split must pass removal 15");
    for threads in [2, 3, 4, 8] {
        let other = run(threads);
        assert_eq!(one.0, other.0, "removal order at {threads} threads");
        assert_eq!(one.1, other.1, "partition at {threads} threads");
        assert!(
            one.2 == other.2,
            "edge betweenness bits at {threads} threads"
        );
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}
