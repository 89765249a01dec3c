//! History-slice fills against full fills over seeded campaign mutants.
//!
//! The sim crate fences [`EnsembleRuns::run_history`] on the paper's
//! experiments; this sweep fences it on the adversarial family — every
//! non-clean scenario of the fixed-seed campaign plan (source mutants,
//! PRNG and FMA config mutants, and the paper experiments), whose
//! injected statements land anywhere in the model, including in
//! statements the history slice drops. Each scenario's experimental fill
//! — the statistics layer's members, perturbations and run configuration
//! — must equal the full-program fill by bits: member health, written
//! lengths, the output table and every step plane.

use rca_campaign::{plan_campaign, CampaignOptions, ScenarioClass};
use rca_core::experiments::IC_MAGNITUDE;
use rca_core::{ExperimentSetup, RcaSession};
use rca_model::{generate, ModelConfig};
use rca_sim::{compile_model, perturbations, EnsembleRuns};
use std::sync::Arc;

/// Sweeps the seed-51966 plan of `scenarios` entries plus the paper
/// experiments and returns how many scenarios were compared.
fn sweep(config: &ModelConfig, setup: ExperimentSetup, scenarios: usize) -> usize {
    let model = Arc::new(generate(config));
    let session = RcaSession::builder(&model)
        .setup(setup)
        .build()
        .expect("session");
    let setup = session.setup();
    let plan = plan_campaign(
        &model,
        &session,
        &CampaignOptions {
            scenarios,
            seed: 51966,
            include_paper: true,
            ..Default::default()
        },
    );
    // The experimental side of `RcaSession::statistics_scenario`.
    let perts = perturbations(setup.n_experiment, IC_MAGNITUDE, setup.seed ^ 0xDEAD);
    let mut compared = 0;
    for cs in plan.iter().filter(|cs| cs.class != ScenarioClass::Clean) {
        let label = format!("{} ({})", cs.scenario.name, cs.detail);
        let program = compile_model(&cs.scenario.model).expect("planned mutants compile");
        let cfg = &cs.scenario.config;
        let full = EnsembleRuns::run_resilient(&program, cfg, &perts, setup.retry.max_retries);
        let fast = EnsembleRuns::run_history(&program, cfg, &perts, setup.retry.max_retries);
        if let Some(diff) = full.data_mismatch(&fast) {
            panic!("{label}: history fill differs from the full fill: {diff}");
        }
        // Non-vacuous: only a failing member sends the fill back to the
        // full program.
        assert_eq!(
            Arc::ptr_eq(fast.program(), &program),
            full.first_failure().is_some(),
            "{label}: wrong fill path"
        );
        compared += 1;
    }
    compared
}

#[test]
fn history_fills_match_full_fills_over_the_seeded_plan() {
    // 200 planned entries: 40 cleans, 160 mutants, plus 7 paper
    // experiments.
    assert_eq!(
        sweep(&ModelConfig::test(), ExperimentSetup::quick(), 200),
        167
    );
}

/// Paper scale (run in CI in release:
/// `cargo test --release -p rca-campaign --test history_fill_mutants -- --ignored`).
#[test]
#[ignore = "paper scale: about half a minute in release"]
fn history_fills_match_full_fills_over_the_seeded_plan_at_paper_scale() {
    assert_eq!(
        sweep(&ModelConfig::paper(), ExperimentSetup::default(), 30),
        31
    );
}
