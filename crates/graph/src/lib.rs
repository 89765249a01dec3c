//! # rca-graph — directed-graph substrate for climate-rca
//!
//! The paper ("Making root cause analysis feasible for large code bases",
//! Milroy et al., HPDC 2019) represents 660k lines of coverage-filtered CESM
//! Fortran as a NetworkX digraph of ~100k variables and ~170k assignment
//! edges, then analyzes it with BFS slicing, Girvan–Newman community
//! detection, eigenvector in-centrality, Hashimoto non-backtracking
//! centrality, and module-quotient centrality. This crate is the Rust
//! re-implementation of that entire graph layer:
//!
//! - [`DiGraph`]: compact adjacency-list digraph with O(1) edge queries,
//!   induced subgraphs and undirected views.
//! - [`mod@bfs`]: multi-source BFS, backward shortest-path slices and
//!   shortest-path DAGs (Algorithm 5.4 steps 3/8), reachability oracles.
//! - [`components`]: weakly/strongly connected components.
//! - [`betweenness`]: exact Brandes node/edge betweenness: one dense,
//!   edge-indexed kernel with node weights, sources summed in ascending
//!   order, so scores are bit-identical at any thread count.
//! - [`community`]: Girvan–Newman splits that rescore only the biconnected
//!   blocks a removal affects (exact tie fallback keeps the removal order
//!   of the whole-component algorithm), and Newman modularity.
//! - [`centrality`]: degree / eigenvector / Katz / PageRank centrality in
//!   either direction (the paper uses eigenvector **in**-centrality).
//! - [`hashimoto`]: non-backtracking centrality via implicit edge-space
//!   power iteration (supplementary §8.1).
//! - [`quotient`]: graph minors by equivalence classes (module graph,
//!   §6.5).
//! - [`degree`]: degree distributions, power-law MLE, log-rank series and a
//!   preferential-attachment generator (Figs. 4/9/10/11).
//! - [`export`]: DOT and JSON output for figure rendering.

pub mod betweenness;
pub mod bfs;
pub mod centrality;
pub mod community;
pub mod components;
pub mod degree;
pub mod digraph;
pub mod export;
pub mod hashimoto;
pub mod quotient;
#[doc(hidden)]
pub mod reference;

pub use betweenness::{edge_betweenness, node_betweenness};
pub use bfs::{
    bfs, bfs_multi, reaches_any, shortest_path, shortest_path_dag, shortest_path_slice, BfsResult,
};
pub use centrality::{
    degree_centrality, eigenvector_centrality, katz_centrality, pagerank, top_m, PowerIterOptions,
};
pub use community::{communities, girvan_newman, modularity, GnResult};
pub use components::{strongly_connected_components, weakly_connected_components, Partition};
pub use degree::{
    degree_distribution, degree_sequence, fit_power_law, log_rank_series, power_law_mle,
    preferential_attachment, DegreeKind, DegreePoint, PowerLawFit,
};
pub use digraph::{DiGraph, Direction, NodeId};
pub use export::{from_json, to_dot, to_json, DotStyle};
pub use hashimoto::nonbacktracking_centrality;
pub use quotient::{quotient_graph, Quotient};
