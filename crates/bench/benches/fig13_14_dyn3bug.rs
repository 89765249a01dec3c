//! Figures 13 & 14 — DYN3BUG iterations (supplementary §8.2.2).
//!
//! Paper: hydrostatic-pressure bug in the dynamics core; slice 5999 nodes
//! / 11495 edges at CESM scale; Girvan-Newman separates the dynamics
//! community from the physics community and sampling detects the bug on
//! iteration 1.

use rca_bench::{bench_model, bench_session, experiment_figure, header};
use rca_model::Experiment;

fn main() {
    header(
        "Figure 13/14: DYN3BUG refinement",
        "dynamics community separated from physics; detected on iteration 1",
    );
    let model = bench_model();
    let session = bench_session(&model, true);
    experiment_figure(&session, &model, Experiment::Dyn3Bug);
}
