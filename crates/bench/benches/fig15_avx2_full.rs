//! Figure 15 — AVX2 with the CAM restriction lifted.
//!
//! Paper: the same affected-variable list as Fig. 8 but allowing non-CAM
//! nodes (e.g. the land model) produces a larger graph (7796 nodes /
//! 16532 edges at CESM scale) that "manifests the community structure of
//! the CAM core" and reaches the same conclusions after one extra
//! iteration.

use rca_bench::{bench_model, bench_session, experiment_figure, header};
use rca_model::Experiment;

fn main() {
    header(
        "Figure 15: AVX2 without the CAM restriction",
        "larger slice including land nodes, same conclusions",
    );
    let model = bench_model();
    let session = bench_session(&model, false);
    experiment_figure(&session, &model, Experiment::Avx2);
}
