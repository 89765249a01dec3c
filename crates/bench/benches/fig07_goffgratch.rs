//! Figure 7 — GOFFGRATCH first iteration.
//!
//! Paper: lasso selects 10 outputs; induced subgraph 4243 nodes / 9150
//! edges at CESM scale; the largest (physics) community contains the bug
//! and sampling its top-10 central nodes detects a difference on the
//! FIRST iteration; the second iteration stalls ("the induced subgraph
//! equals the community subgraph").

use rca_bench::{bench_model, bench_session, experiment_figure, header};
use rca_model::Experiment;

fn main() {
    header(
        "Figure 7: GOFFGRATCH refinement",
        "bug community sampled and detected on iteration 1",
    );
    let model = bench_model();
    let session = bench_session(&model, true);
    experiment_figure(&session, &model, Experiment::GoffGratch);
}
