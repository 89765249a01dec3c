//! Quickstart: the full root-cause-analysis pipeline on one bug.
//!
//! Reproduces the paper's workflow end-to-end for the GOFFGRATCH
//! experiment (§6.3): a one-character typo in the Goff–Gratch saturation
//! vapor pressure coefficient, located by slicing + community detection +
//! centrality-guided sampling — all through one
//! `RcaSession::diagnose_scenario` call.
//!
//! Run with: `cargo run --release --example quickstart`

use climate_rca::prelude::*;
use model::{generate, Experiment, ModelConfig};
use std::sync::Arc;

fn main() -> Result<(), RcaError> {
    // ------------------------------------------------------------------
    // 0. Generate the synthetic climate model; the experiment injects
    //    the paper's bug.
    // ------------------------------------------------------------------
    let config = ModelConfig::medium();
    let model = Arc::new(generate(&config));
    let experiment = Experiment::GoffGratch;
    println!(
        "model: {} modules, {} lines of Fortran",
        model.files.len(),
        model.total_loc()
    );
    println!(
        "experiment: {} — {:?}",
        experiment.name(),
        experiment.source_patches()
    );

    // ------------------------------------------------------------------
    // 1. Build the session: parse, coverage-calibrate, compile the
    //    variable digraph (paper §4) — once per model.
    // ------------------------------------------------------------------
    let session = RcaSession::builder(&model)
        .setup(ExperimentSetup::quick())
        .oracle(OracleKind::Reachability)
        .build()?;
    println!(
        "\nmetagraph: {} nodes, {} edges across {} modules",
        session.metagraph().node_count(),
        session.metagraph().edge_count(),
        session.metagraph().modules.len()
    );

    // ------------------------------------------------------------------
    // 2. Diagnose: statistics (§3) → slice (§5.1) → Algorithm 5.4.
    // ------------------------------------------------------------------
    let scenario = Scenario::paper(&model, session.setup(), experiment);
    let diagnosis = session.diagnose_scenario(&scenario)?;
    print!("\n{}", diagnosis.render());

    println!(
        "\nground-truth bug {} by the procedure",
        if diagnosis.located() {
            "LOCATED"
        } else {
            "NOT located"
        }
    );
    for &b in &diagnosis.bug_nodes {
        println!("  bug node: {}", session.metagraph().display(b));
    }
    Ok(())
}
