//! Fault-tolerance plane integration tests: seeded runtime fault plans
//! never panic the pipeline (every outcome is a `Diagnosis` or a
//! structured `RcaError`), quorum edges degrade instead of diverging,
//! budgets surface as retryable errors, and checkpointed campaigns
//! resume byte-identically.

use proptest::prelude::*;
use rca_campaign::{run_campaign, CampaignOptions, RunnerOptions};
use rca_core::experiments::experiment_quorum;
use rca_core::{ExperimentSetup, OracleKind, RcaError, RcaSession, Scenario};
use rca_model::{generate, ModelConfig, ModelSource};
use rca_sim::{Fault, FaultKind, FaultPlan};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

fn fixture() -> &'static (Arc<ModelSource>, RcaSession<'static>) {
    static MODEL: OnceLock<ModelSource> = OnceLock::new();
    static FIX: OnceLock<(Arc<ModelSource>, RcaSession<'static>)> = OnceLock::new();
    FIX.get_or_init(|| {
        let m = MODEL.get_or_init(|| generate(&ModelConfig::test()));
        let session = RcaSession::builder(m)
            .setup(ExperimentSetup::quick())
            .build()
            .expect("session");
        (Arc::new(m.clone()), session)
    })
}

/// A clean scenario whose experimental members run under `plan`.
fn chaos_scenario(name: &str, plan: FaultPlan) -> Scenario {
    let (model, session) = fixture();
    let mut config = session.control_config();
    config.faults = plan;
    Scenario::new(name.to_string(), model.clone(), config)
}

/// Persistent aborts for members `0..n` — nothing survives retries.
fn abort_members(n: u32) -> FaultPlan {
    FaultPlan {
        faults: (0..n)
            .map(|m| Fault {
                member: m,
                step: 1,
                output: 0,
                kind: FaultKind::Abort,
                persistent: true,
            })
            .collect(),
    }
}

#[test]
fn all_members_failing_is_a_structured_quorum_error() {
    let (_, session) = fixture();
    let n = session.setup().n_experiment as u32;
    let scenario = chaos_scenario("all-abort", abort_members(n));
    let err = session
        .diagnose_scenario(&scenario)
        .expect_err("zero survivors cannot meet any quorum");
    assert!(matches!(err, RcaError::Stats(_)), "{err:?}");
    let msg = err.to_string();
    assert!(msg.contains("below quorum"), "{msg}");
    assert!(msg.contains("member-abort"), "cause must be carried: {msg}");
}

#[test]
fn exactly_quorum_survivors_degrade_instead_of_erroring() {
    let (_, session) = fixture();
    let setup = session.setup();
    let n = setup.n_experiment;
    let quorum = experiment_quorum(n);
    assert!(quorum < n, "test needs headroom to quarantine");
    // Quarantine all but exactly `quorum` members.
    let scenario = chaos_scenario("exact-quorum", abort_members((n - quorum) as u32));
    let d = session
        .diagnose_scenario(&scenario)
        .expect("quorum survivors must still produce a diagnosis");
    let note = d.degraded.expect("degraded ensembles must be noted");
    assert_eq!(note.experimental.surviving as usize, quorum);
    assert_eq!(note.experimental.quarantined as usize, n - quorum);
    assert!(d.render().contains("DEGRADED ensemble"), "{}", d.render());
}

#[test]
fn fuel_exhaustion_surfaces_the_budget_cause() {
    let (_, session) = fixture();
    let mut config = session.control_config();
    config.fuel = Some(20); // far below one run's statement count
    let scenario = Scenario::new("starved".to_string(), fixture().0.clone(), config);
    let err = session
        .diagnose_scenario(&scenario)
        .expect_err("every member starves");
    let msg = err.to_string();
    assert!(msg.contains("below quorum"), "{msg}");
    assert!(msg.contains("fuel budget"), "{msg}");
}

#[test]
fn wall_budget_is_a_retryable_typed_error() {
    let (model, _) = fixture();
    let session = RcaSession::builder(model)
        .setup(ExperimentSetup::quick())
        .wall_budget(Duration::ZERO)
        .build()
        .expect("budget applies per diagnosis, not to the build");
    let scenario = Scenario::new(
        "no-time".to_string(),
        model.clone(),
        session.control_config(),
    );
    let err = session
        .diagnose_scenario(&scenario)
        .expect_err("a zero wall budget cannot complete a diagnosis");
    assert!(matches!(err, RcaError::Budget { .. }), "{err:?}");
    assert!(err.is_retryable());
    assert_eq!(err.kind_slug(), "budget");
    assert!(err.to_string().contains("wall-clock"), "{err}");
}

#[test]
fn chaos_campaign_completes_with_absorbed_or_degraded_outcomes() {
    let (model, _) = fixture();
    let opts = CampaignOptions {
        scenarios: 8,
        seed: 0xC0FFEE,
        runtime_faults: 0xFA17,
        ..Default::default()
    };
    let card = run_campaign(model, &opts, &RunnerOptions::default()).expect("campaign");
    assert_eq!(card.results.len(), 8);
    for r in &card.results {
        // Every scenario either produced a verdict or a typed absorbed
        // error — never a panic, never a stringly outcome.
        assert!(
            r.verdict.is_some() || r.error.is_some(),
            "{} has neither verdict nor error",
            r.name
        );
        if let Some(e) = &r.error {
            assert!(!e.kind.is_empty());
        }
    }
    let s = card.summary();
    assert_eq!(s.scenarios, 8);
    // And the chaos axis is deterministic: same seeds, same scorecard.
    let again = run_campaign(model, &opts, &RunnerOptions::default()).expect("campaign");
    assert_eq!(
        serde_json::to_string(&card).unwrap(),
        serde_json::to_string(&again).unwrap()
    );
}

#[test]
fn interrupted_checkpointed_campaign_resumes_byte_identically() {
    let (model, _) = fixture();
    let opts = CampaignOptions {
        scenarios: 6,
        seed: 0xBEAD,
        ..Default::default()
    };
    let path = std::env::temp_dir().join(format!("rca-resume-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    // Uninterrupted reference run (no checkpoint).
    let reference = run_campaign(model, &opts, &RunnerOptions::default()).expect("campaign");
    // First leg: stop after three fresh scenarios (the deterministic
    // stand-in for a mid-campaign kill).
    let interrupted = RunnerOptions {
        checkpoint: Some(path.clone()),
        stop_after: Some(3),
        ..Default::default()
    };
    let partial = run_campaign(model, &opts, &interrupted).expect("campaign");
    assert_eq!(partial.results.len(), 3, "stopped after three scenarios");
    // Second leg: same checkpoint, no stop — restores the three and runs
    // the rest.
    let resumed_opts = RunnerOptions {
        checkpoint: Some(path.clone()),
        ..Default::default()
    };
    let resumed = run_campaign(model, &opts, &resumed_opts).expect("campaign");
    assert_eq!(resumed.results.len(), 6);
    assert_eq!(
        serde_json::to_string_pretty(&resumed).unwrap(),
        serde_json::to_string_pretty(&reference).unwrap(),
        "merged scorecard must be byte-identical to the uninterrupted run"
    );
    // Third leg: everything is restored, nothing re-runs, still
    // byte-identical.
    let replayed = run_campaign(model, &opts, &resumed_opts).expect("campaign");
    assert_eq!(
        serde_json::to_string_pretty(&replayed).unwrap(),
        serde_json::to_string_pretty(&reference).unwrap()
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn checkpoint_never_restores_results_of_other_session_settings() {
    let (model, _) = fixture();
    let opts = CampaignOptions {
        scenarios: 6,
        seed: 0xFACE,
        ..Default::default()
    };
    let path = std::env::temp_dir().join(format!("rca-foreign-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let written = RunnerOptions {
        checkpoint: Some(path.clone()),
        stop_after: Some(3),
        ..Default::default()
    };
    let partial = run_campaign(model, &opts, &written).expect("campaign");
    assert_eq!(partial.results.len(), 3);
    // Same plan, same settings: the three results come back without a
    // fresh run.
    let same = RunnerOptions {
        stop_after: Some(0),
        ..written.clone()
    };
    let restored = run_campaign(model, &opts, &same).expect("campaign");
    assert_eq!(restored.results.len(), 3, "same settings restore");
    // Same plan under a setting that can change a result: nothing of the
    // recorded results may be restored.
    let mut fueled = ExperimentSetup::quick();
    fueled.fuel = Some(2_000_000);
    let foreign = [
        RunnerOptions {
            oracle: OracleKind::Runtime,
            ..same.clone()
        },
        RunnerOptions {
            setup: fueled,
            ..same.clone()
        },
        RunnerOptions {
            wall_budget: Some(Duration::from_secs(3600)),
            ..same.clone()
        },
    ];
    for runner in &foreign {
        let card = run_campaign(model, &opts, runner).expect("campaign");
        assert!(
            card.results.is_empty(),
            "restored {} results recorded under other settings",
            card.results.len()
        );
    }
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The no-panic contract: any seeded fault plan driven through the
    /// full pipeline yields a diagnosis or a structured error.
    #[test]
    fn seeded_fault_plans_never_panic_the_pipeline(fault_seed in any::<u64>()) {
        let (_, session) = fixture();
        let setup = session.setup();
        let steps = session.control_config().steps;
        let plan = FaultPlan::seeded(fault_seed, setup.n_experiment, steps, 3);
        let scenario = chaos_scenario("prop-chaos", plan);
        match session.diagnose_scenario(&scenario) {
            Ok(d) => {
                // A degraded note is only recorded when some member
                // actually retried or was quarantined, on either side.
                if let Some(n) = d.degraded {
                    prop_assert!(
                        n.control.degraded() || n.experimental.degraded(),
                        "vacuous degraded note: {n}"
                    );
                }
            }
            Err(e) => {
                // Structured, displayable, classified.
                prop_assert!(!e.kind_slug().is_empty());
                prop_assert!(!e.to_string().is_empty());
            }
        }
    }
}
