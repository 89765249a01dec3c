//! Figures 5 & 6 — RAND-MT iterations.
//!
//! Paper: lasso selects 5 outputs; the induced subgraph (4509 nodes /
//! 9498 edges at CESM scale) splits into two main communities; sampling
//! the PRNG community's central nodes detects **nothing** on iteration 1
//! (no paths from the PRNG taint to the upstream cluster), step 8a then
//! dramatically shrinks the graph, and iteration 2 detects the sources.

use rca_bench::{bench_model, bench_session, experiment_figure, header};
use rca_model::Experiment;

fn main() {
    header(
        "Figure 5/6: RAND-MT iterative refinement",
        "no detection on iteration 1; step 8a reduction; detection afterwards",
    );
    let model = bench_model();
    let session = bench_session(&model, true);
    experiment_figure(&session, &model, Experiment::RandMt);
}
