//! History fills: ensembles run on the history slice must equal the
//! full-program fill by bits.
//!
//! [`EnsembleRuns::run_history`] runs every member on the program pruned
//! to the statements that can reach an `outfld`. The statistics layer
//! reads only member health, written lengths, the output table and the
//! step planes, so those must equal [`EnsembleRuns::run_resilient`] on
//! the full program, bit for bit, for the pristine model and every paper
//! experiment under its run configuration. Fault plans, fuel budgets and
//! any member failure keep the full program as the only path.

use rca_model::{generate, Experiment, ModelConfig, ModelSource};
use rca_sim::{
    compile_model, perturbations, specialize_for_history, Avx2Policy, EnsembleRuns, Fault,
    FaultKind, FaultPlan, MemberHealth, PrngKind, Program, RunConfig,
};
use std::sync::Arc;

fn experiment_config(e: Experiment, steps: u32) -> RunConfig {
    let mut cfg = RunConfig {
        steps,
        ..Default::default()
    };
    if e.uses_mersenne_twister() {
        cfg.prng = PrngKind::MersenneTwister;
    }
    if e.enables_avx2() {
        cfg.avx2 = Avx2Policy::AllModules;
    }
    cfg
}

/// Fills `perts` both ways and asserts the history fill took the slice
/// and equals the full fill by bits.
fn assert_history_fill_matches(
    label: &str,
    program: &Arc<Program>,
    cfg: &RunConfig,
    perts: &[f64],
) {
    let full = EnsembleRuns::run_resilient(program, cfg, perts, 2);
    let fast = EnsembleRuns::run_history(program, cfg, perts, 2, None);
    let slice = program
        .history_program()
        .unwrap_or_else(|| panic!("{label}: the history slice must prune something"));
    assert!(
        Arc::ptr_eq(fast.program(), slice),
        "{label}: the fill did not run the history slice"
    );
    assert!(
        full.health().iter().all(|h| *h == MemberHealth::Healthy),
        "{label}: the fence needs healthy members"
    );
    if let Some(diff) = full.data_mismatch(&fast) {
        panic!("{label}: history fill differs from the full fill: {diff}");
    }
}

fn variant(model: &ModelSource, e: Experiment) -> ModelSource {
    if e.source_patches().is_empty() {
        model.clone()
    } else {
        model.apply(e)
    }
}

/// Every paper experiment under its run configuration (`Control` is the
/// pristine model).
fn sweep_paper_experiments(model: &ModelSource, steps: u32, members: usize) {
    let perts = perturbations(members, 1e-14, 0xC1);
    for e in Experiment::ALL {
        let program = compile_model(&variant(model, e)).expect("compile");
        assert_history_fill_matches(e.name(), &program, &experiment_config(e, steps), &perts);
    }
}

#[test]
fn history_fill_equals_full_fill_on_paper_experiments() {
    sweep_paper_experiments(&generate(&ModelConfig::test()), 5, 4);
}

#[test]
fn history_fill_equals_full_fill_at_medium_scale() {
    sweep_paper_experiments(&generate(&ModelConfig::medium()), 3, 2);
}

#[test]
fn history_slice_prunes_and_is_kept_with_the_program() {
    let program = compile_model(&generate(&ModelConfig::test())).expect("compile");
    let s = specialize_for_history(&program).expect("separable");
    assert!(
        !s.identical && s.pruned_fraction() > 0.0,
        "kept {}/{}",
        s.stmts_kept,
        s.stmts_total
    );
    assert!(s.program.instr_count() < program.instr_count());
    // Built once: the cached slice is the same allocation on every call,
    // and it is as small as the uncached one.
    let cached = program.history_program().expect("prunes");
    assert!(Arc::ptr_eq(cached, program.history_program().unwrap()));
    assert_eq!(cached.instr_count(), s.program.instr_count());
}

#[test]
fn fault_plans_fuel_and_samples_never_fill_from_the_history_slice() {
    let program = compile_model(&generate(&ModelConfig::test())).expect("compile");
    let perts = perturbations(3, 1e-14, 0x51);
    let base = RunConfig {
        steps: 3,
        ..Default::default()
    };
    // A poison-only plan: members stay healthy, so no retry telemetry.
    let faulted = RunConfig {
        faults: FaultPlan {
            faults: vec![Fault {
                member: 1,
                step: 1,
                output: 0,
                kind: FaultKind::PoisonNan,
                persistent: false,
            }],
        },
        ..base.clone()
    };
    let budgeted = RunConfig {
        fuel: Some(u64::MAX / 2),
        ..base.clone()
    };
    let sampled = RunConfig {
        sample_step: Some(1),
        samples: rca_sim::kernel_sample_specs_program(&program, "micro_mg"),
        ..base.clone()
    };
    for (label, cfg) in [
        ("faults", faulted),
        ("fuel", budgeted),
        ("samples", sampled),
    ] {
        let store = EnsembleRuns::run_history(&program, &cfg, &perts, 2, None);
        assert!(
            Arc::ptr_eq(store.program(), &program),
            "{label}: must fill from the full program"
        );
        let full = EnsembleRuns::run_resilient(&program, &cfg, &perts, 2);
        assert_eq!(full.data_mismatch(&store), None, "{label}");
    }
}

/// The statement feeding the `WSUB` history series, made to fail: an
/// out-of-bounds subscript in a statement the slice must keep.
fn failing_wsub_model() -> ModelSource {
    let model = generate(&ModelConfig::test());
    let file = "microp_aero.F90";
    let src = &model
        .files
        .iter()
        .find(|f| f.name == file)
        .expect("file")
        .source;
    let line = src
        .lines()
        .position(|l| l.trim_start().starts_with("wsub(i) = max("))
        .expect("wsub assignment");
    model.with_patched_line(
        file,
        line,
        "      wsub(i) = max(0.20_r8 * sqrt(tke_loc(i + 100000)), wsubmin)",
    )
}

fn counter(name: &str) -> u64 {
    rca_obs::metrics_snapshot().counter(name).unwrap_or(0)
}

#[test]
fn runtime_error_in_a_kept_statement_refills_on_the_full_program() {
    let program = compile_model(&failing_wsub_model()).expect("compile");
    assert!(program.history_program().is_some(), "the slice must exist");
    let cfg = RunConfig {
        steps: 3,
        ..Default::default()
    };
    let perts = perturbations(3, 1e-14, 0x52);
    let counts = || {
        [
            counter("ensemble.member_retry"),
            counter("ensemble.quarantined"),
            counter("ensemble.history_fallback"),
        ]
    };
    let c0 = counts();
    let full = EnsembleRuns::run_resilient(&program, &cfg, &perts, 2);
    let c1 = counts();
    let fast = EnsembleRuns::run_history(&program, &cfg, &perts, 2, None);
    let c2 = counts();

    assert!(
        Arc::ptr_eq(fast.program(), &program),
        "must refill on the full program"
    );
    assert_eq!(full.data_mismatch(&fast), None);
    assert_eq!(full.quarantined_count(), perts.len(), "every member fails");
    let message = |s: &EnsembleRuns| s.first_failure().map(|(m, e)| format!("{m}: {e}"));
    assert_eq!(message(&full), message(&fast));
    assert!(
        message(&fast).unwrap().contains("tke_loc"),
        "{:?}",
        message(&fast)
    );
    // The discarded slice fill leaves no retry or quarantine counts of
    // its own: the full refill owns them, exactly once.
    assert_eq!(c2[0] - c1[0], c1[0] - c0[0], "member retries");
    assert_eq!(c2[1] - c1[1], c1[1] - c0[1], "quarantines");
    assert_eq!(c1[1] - c0[1], perts.len() as u64);
    assert_eq!(c2[2] - c1[2], 1, "one history fallback");
}
