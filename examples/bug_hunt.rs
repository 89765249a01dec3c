//! Bug hunt: run every paper experiment end-to-end and score the method.
//!
//! For each of the paper's experiments (§6, §8.2) this example asks one
//! `RcaSession` — configured with **real runtime sampling**, not the
//! reachability simulation — to diagnose the experiment's
//! `Scenario::paper`: the instrumented variables are captured in actual
//! bytecode VM runs of the control and experimental models.
//!
//! Run with: `cargo run --release --example bug_hunt`

use climate_rca::prelude::*;
use model::{generate, Experiment, ModelConfig};
use std::sync::Arc;

fn main() -> Result<(), RcaError> {
    let model = Arc::new(generate(&ModelConfig::test()));
    let session = RcaSession::builder(&model)
        .setup(ExperimentSetup::quick())
        .oracle(OracleKind::Runtime)
        .max_outputs(8)
        .build()?;

    println!(
        "{:<12} {:>8} {:>7} {:>9} {:>7} {:>33}  outcome",
        "experiment", "verdict", "rate", "slice", "iters", "stopped because"
    );
    for experiment in [
        Experiment::WsubBug,
        Experiment::GoffGratch,
        Experiment::Dyn3Bug,
        Experiment::RandomBug,
        Experiment::RandMt,
    ] {
        let d = session.diagnose_scenario(&Scenario::paper(&model, session.setup(), experiment))?;
        let outcome = if d.instrumented() {
            "bug instrumented"
        } else if d.localized() {
            "bug localized in final subgraph"
        } else {
            "missed"
        };
        println!(
            "{:<12} {:>8} {:>6.0}% {:>9} {:>7} {:>33}  {}",
            experiment.name(),
            d.verdict.to_string(),
            d.failure_rate * 100.0,
            format!("{}n", d.slice_nodes),
            d.iterations(),
            d.stop().map_or_else(|| "-".to_string(), |s| s.to_string()),
            outcome
        );
    }
    Ok(())
}
