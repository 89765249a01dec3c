//! Figure 12 — RANDOMBUG (supplementary §8.2.1).
//!
//! Paper: array-index error in the assignment writing state%omega;
//! slicing on canonical name "omega" yields a sparse subgraph (628 nodes /
//! 295 edges at CESM scale) with small communities, one of whose most
//! central nodes is the bug itself.

use rca_bench::{bench_model, bench_session, experiment_figure, header};
use rca_model::Experiment;

fn main() {
    header(
        "Figure 12: RANDOMBUG refinement",
        "sparse omega slice; bug is central in a small community",
    );
    let model = bench_model();
    let session = bench_session(&model, true);
    experiment_figure(&session, &model, Experiment::RandomBug);
}
