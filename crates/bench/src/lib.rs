//! # rca-bench — harnesses regenerating every table and figure
//!
//! Each `harness = false` bench target prints the rows/series of one paper
//! table or figure next to the paper's own numbers (absolute values differ
//! — the substrate is a synthetic model — but the *shape* must hold).
//! Criterion benches (`perf_*`) measure the pipeline's computational
//! kernels.

use rca_core::{ExperimentSetup, RcaPipeline, RcaSession, Scenario, SliceScope};
use rca_model::{generate, Experiment, ModelConfig, ModelSource};
use serde::Json;
use std::sync::Arc;

/// Scale used by the figure/table harnesses. Override with
/// `RCA_BENCH_SCALE=test|medium|paper`.
pub fn bench_config() -> ModelConfig {
    match std::env::var("RCA_BENCH_SCALE").as_deref() {
        Ok("test") => ModelConfig::test(),
        Ok("paper") => ModelConfig::paper(),
        _ => ModelConfig::medium(),
    }
}

/// Generates the model every harness starts from, shared so that
/// [`Scenario::paper`] can hand it to config-only experiments.
pub fn bench_model() -> Arc<ModelSource> {
    Arc::new(generate(&bench_config()))
}

/// Builds the model + pipeline pair for harnesses that work on the raw
/// metagraph (degree distributions, module ranking).
pub fn bench_pipeline() -> (Arc<ModelSource>, RcaPipeline) {
    let model = bench_model();
    let pipeline = RcaPipeline::build(&model).expect("pipeline build");
    (model, pipeline)
}

/// Builds the standard harness session over `model` (paper-scale setup,
/// reachability oracle, CAM or unrestricted slice scope).
pub fn bench_session(model: &ModelSource, restrict_cam: bool) -> RcaSession<'_> {
    RcaSession::builder(model)
        .setup(ExperimentSetup::default())
        .scope(if restrict_cam {
            SliceScope::Cam
        } else {
            SliceScope::AllComponents
        })
        .build()
        .expect("session build")
}

/// Writes one `BENCH_*.json` record, pretty-printed with a trailing
/// newline. The record holds the bench's own numbers only; a per-phase
/// breakdown comes from a trace folded with
/// `rca_obs::PhaseProfile::from_records`. Errors are reported, not
/// fatal — a read-only checkout must not kill the bench.
pub fn record_bench(path: &str, record: Json) {
    let text = serde_json::to_string_pretty(&record).expect("json render is infallible");
    match std::fs::write(path, text + "\n") {
        Ok(()) => println!("recorded {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}

/// Prints a standard harness header.
pub fn header(id: &str, paper_claim: &str) {
    println!("=== {id} ===");
    println!("paper: {paper_claim}");
    println!();
}

/// Runs one paper experiment on `model`, the session's model, end-to-end
/// (statistics → slice → Algorithm 5.4 with the session's oracle) and
/// prints the figure's trace.
pub fn experiment_figure(
    session: &RcaSession<'_>,
    model: &Arc<ModelSource>,
    experiment: Experiment,
) {
    let scenario = Scenario::paper(model, session.setup(), experiment);
    let mut stats = session.statistics_scenario(&scenario).expect("statistics");
    println!(
        "UF-ECT: {} (failure rate {:.0}%)",
        stats.data.verdict,
        stats.data.failure_rate * 100.0
    );
    let n = experiment.table2_outputs().len().clamp(5, 10);
    stats.affected = stats.data.affected_outputs(n);
    println!("selected outputs: {:?}", stats.affected);

    let sliced = stats.slice().expect("slice");
    println!("internal criteria: {:?}", sliced.criteria_names());
    println!(
        "induced subgraph: {} nodes, {} edges",
        sliced.slice.graph.node_count(),
        sliced.slice.graph.edge_count()
    );

    for &b in &session.scenario_bug_nodes(&scenario) {
        println!("bug node: {}", session.metagraph().display(b));
    }
    let diagnosis = sliced.refine().into_diagnosis();
    println!();
    if let Some(report) = &diagnosis.refinement {
        print!(
            "{}",
            rca_core::refinement_trace(session.metagraph(), report)
        );
    }
    println!(
        "bug instrumented: {} | bug in final subgraph: {}",
        diagnosis.instrumented(),
        diagnosis.localized()
    );
}
