//! Figures 10 & 11 — GOFFGRATCH subgraph degree distribution and
//! Hashimoto vs. eigenvector centrality.
//!
//! Paper: the GOFFGRATCH induced subgraph is "approximately scale-free"
//! (Fig. 10); the log-rank curves of Hashimoto non-backtracking and
//! eigenvector centrality track each other closely, with the Hashimoto
//! curve redistributing weight subtly after ~the 300th rank and dropping
//! sharply at the end (nodes excluded by the line graph) (Fig. 11).

use rca_bench::{bench_model, bench_session, header};
use rca_core::Scenario;
use rca_graph::{
    degree_distribution, eigenvector_centrality, fit_power_law, log_rank_series,
    nonbacktracking_centrality, DegreeKind, Direction, PowerIterOptions,
};
use rca_model::Experiment;

fn main() {
    header(
        "Figure 10/11: GOFFGRATCH subgraph degree distribution + centrality comparison",
        "subgraph ~scale-free; Hashimoto ≈ eigenvector until deep ranks, sharp tail drop",
    );
    let model = bench_model();
    let session = bench_session(&model, true);
    let goffgratch = Scenario::paper(&model, session.setup(), Experiment::GoffGratch);
    let sliced = session
        .statistics_scenario(&goffgratch)
        .expect("statistics")
        .slice()
        .expect("slice");
    let slice = &sliced.slice;
    println!(
        "GOFFGRATCH subgraph: {} nodes, {} edges (paper: 4243 / 9150 at CESM scale)",
        slice.graph.node_count(),
        slice.graph.edge_count()
    );

    // Figure 10: degree distribution.
    println!("\nFigure 10 series (degree, count):");
    let dist = degree_distribution(&slice.graph, DegreeKind::Total);
    for p in dist.iter().take(25) {
        println!("  {:>5} {:>6}", p.degree, p.count);
    }
    if let Some(fit) = fit_power_law(&slice.graph, DegreeKind::Total, 2) {
        println!("  power-law alpha = {:.3} ± {:.3}", fit.alpha, fit.sigma);
    }

    // Figure 11: log-rank curves.
    let opts = PowerIterOptions::default();
    let ev = eigenvector_centrality(&slice.graph, Direction::In, opts);
    let nb = nonbacktracking_centrality(&slice.graph, Direction::In, opts);
    let ev_series = log_rank_series(&ev);
    let nb_series = log_rank_series(&nb);
    println!(
        "\nFigure 11: ranked-node counts — eigenvector {}, Hashimoto {} (sharp drop: {} nodes excluded)",
        ev_series.len(),
        nb_series.len(),
        ev_series.len().saturating_sub(nb_series.len())
    );
    println!("{:>6} {:>14} {:>14}", "rank", "eigenvector", "hashimoto");
    let n = ev_series.len().max(1);
    for pct in [0usize, 5, 10, 25, 50, 75, 90, 99] {
        let idx = (pct * n / 100).min(n - 1);
        let e = ev_series.get(idx).map_or(0.0, |&(_, v)| v);
        let h = nb_series.get(idx).map_or(0.0, |&(_, v)| v);
        println!("{:>6} {:>14.4e} {:>14.4e}", idx + 1, e, h);
    }

    // Rank agreement in the head (the paper's "no advantage" finding).
    let top = |v: &[f64], k: usize| -> Vec<usize> {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&a, &b| v[b].partial_cmp(&v[a]).unwrap());
        idx.truncate(k);
        idx
    };
    let k = 20.min(ev.len());
    let ev_top = top(&ev, k);
    let nb_top = top(&nb, k);
    let agree = ev_top.iter().filter(|i| nb_top.contains(i)).count();
    println!("\ntop-{k} rank agreement between the centralities: {agree}/{k}");
}
