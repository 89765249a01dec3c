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
//! - [`mod@bfs`]: multi-source BFS, backward shortest-path slices
//!   (Algorithm 5.4 steps 3/8), reachability oracles.
//! - [`components`]: weakly connected components.
//! - [`betweenness`]: exact Brandes edge betweenness over a dense,
//!   edge-indexed adjacency with node weights. [`edge_betweenness`] sums
//!   its sources in one ascending pass; Girvan–Newman's block scores fold
//!   degree-2 nodes into their neighbours' passes and sum the remaining
//!   sources in fixed 32-source chunks in chunk order, on every core for
//!   large blocks. No score depends on the thread count.
//! - [`community`]: Girvan–Newman splits that rescore only the biconnected
//!   blocks a removal affects (exact tie fallback keeps the removal order
//!   of the whole-component algorithm).
//! - [`centrality`]: eigenvector centrality in either direction (the paper
//!   uses eigenvector **in**-centrality) and top-m selection.
//! - [`hashimoto`]: non-backtracking centrality via implicit edge-space
//!   power iteration (supplementary §8.1).
//! - [`quotient`]: graph minors by equivalence classes (module graph,
//!   §6.5).
//! - [`degree`]: degree distributions, power-law MLE, log-rank series and a
//!   preferential-attachment generator (Figs. 4/9/10/11).

pub mod betweenness;
pub mod bfs;
pub mod centrality;
pub mod community;
pub mod components;
pub mod degree;
pub mod digraph;
pub mod hashimoto;
pub mod quotient;
#[doc(hidden)]
pub mod reference;

pub use betweenness::edge_betweenness;
pub use bfs::{bfs_multi, reaches_any, shortest_path_slice, BfsResult};
pub use centrality::{eigenvector_centrality, top_m, PowerIterOptions};
pub use community::{communities, girvan_newman, GnResult};
pub use components::{weakly_connected_components, Partition};
pub use degree::{
    degree_distribution, degree_sequence, fit_power_law, log_rank_series, power_law_mle,
    preferential_attachment, DegreeKind, DegreePoint, PowerLawFit,
};
pub use digraph::{DiGraph, Direction, NodeId};
pub use hashimoto::nonbacktracking_centrality;
pub use quotient::{quotient_graph, Quotient};
