//! Differential suite: both engine tiers must be **bit-identical**.
//!
//! This is the proof obligation of the parse → compile → execute
//! pipeline: for every paper experiment (source patches, PRNG
//! substitution, AVX2/FMA contraction) and for instrumented runs, the
//! histories, captured samples, and coverage sets of the tree-walking
//! reference [`rca_sim::Interpreter`] and the bytecode VM behind
//! [`rca_sim::run_program`] must agree to the last bit. Any divergence —
//! an evaluation-order slip, a missed FMA shape, a scoping difference, a
//! mis-lowered instruction — fails here before it can silently corrupt
//! the statistical layer. The runtime fault axis, which the reference
//! interpreter does not implement, is held to the same standard through
//! the fault oracle ([`rca_sim::store::predict_member`]) fed by
//! tree-walk runs.

use rca_model::{generate, Experiment, ModelConfig, ModelSource};
use rca_sim::store::predict_member;
use rca_sim::{
    compile_model, kernel_sample_specs, perturbations, run_loaded, run_program, Avx2Policy,
    EnsembleRuns, FaultPlan, Interpreter, MemberHealth, PrngKind, RunConfig, RunOutput,
    FAULT_CONTEXT,
};

fn tree_walk(model: &ModelSource, config: &RunConfig, pert: f64) -> RunOutput {
    let (asts, errs) = model.parse();
    assert!(errs.is_empty(), "{errs:?}");
    let mut interp = Interpreter::load(&asts, config.clone()).expect("load");
    run_loaded(&mut interp, config, pert).expect("tree-walk run")
}

/// The differential check: interpreter vs bytecode VM, bit-identical.
fn assert_engines_agree(label: &str, model: &ModelSource, config: &RunConfig, pert: f64) {
    let reference = tree_walk(model, config, pert);
    let program = compile_model(model).expect("compile");
    let vm = run_program(&program, config, pert).expect("compiled run");
    assert_identical(&format!("{label}/interp-vs-vm"), &reference, &vm);
}

/// Asserts bit-identical histories, samples, and coverage.
///
/// Histories compare through `history_iter` (written outputs only — the
/// compiled engine's dense buffer spans the whole `OutputId` table, the
/// tree-walker's only the written set); samples compare positionally over
/// the shared `config.samples` list.
fn assert_identical(label: &str, a: &RunOutput, b: &RunOutput) {
    // Histories: same written outputs, same series, same bits.
    let names_a: Vec<_> = a.history_iter().map(|(n, _)| n.clone()).collect();
    let names_b: Vec<_> = b.history_iter().map(|(n, _)| n.clone()).collect();
    assert_eq!(names_a, names_b, "{label}: output sets differ");
    for (name, series) in a.history_iter() {
        let other = b.series(name).expect("written in both");
        assert_eq!(series.len(), other.len(), "{label}/{name}: lengths differ");
        for (i, (x, y)) in series.iter().zip(other).enumerate() {
            assert!(
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                "{label}/{name}[{i}]: {x:e} != {y:e}"
            );
        }
    }
    // Samples: same captures, positionally, same bits.
    assert_eq!(
        a.samples.len(),
        b.samples.len(),
        "{label}: sample buffer lengths differ"
    );
    for (i, (va, vb)) in a.samples.iter().zip(&b.samples).enumerate() {
        match (va, vb) {
            (None, None) => {}
            (Some(va), Some(vb)) => {
                assert_eq!(va.len(), vb.len(), "{label}/spec {i}: lengths differ");
                for (j, (x, y)) in va.iter().zip(vb).enumerate() {
                    assert!(
                        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                        "{label}/spec {i}[{j}]: {x:e} != {y:e}"
                    );
                }
            }
            _ => panic!("{label}/spec {i}: captured in one engine only"),
        }
    }
    // Coverage: same executed set (id-keyed sets compare through their
    // rendered pairs — the tables behind them differ by engine).
    assert_eq!(a.coverage, b.coverage, "{label}: coverage differs");
}

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

#[test]
fn engines_agree_on_all_paper_experiments() {
    let model = generate(&ModelConfig::test());
    for e in Experiment::ALL {
        let variant = if e.source_patches().is_empty() {
            model.clone()
        } else {
            model.apply(e)
        };
        let cfg = experiment_config(e, 4);
        assert_engines_agree(e.name(), &variant, &cfg, 0.0);
    }
}

#[test]
fn columnar_store_is_bit_identical_to_run_outputs_on_all_paper_experiments() {
    // The run store is the third face of the same semantics: for every
    // paper experiment, each member of a store-backed ensemble must
    // materialize to exactly what a standalone compiled run produces —
    // histories, samples, coverage, to the last bit. The store members
    // run through pooled, reset executors, so this also proves the
    // reset-and-reuse protocol leaks no state between members.
    let model = generate(&ModelConfig::test());
    let perts = perturbations(3, 1e-14, 0x51);
    for e in Experiment::ALL {
        let variant = if e.source_patches().is_empty() {
            model.clone()
        } else {
            model.apply(e)
        };
        let cfg = experiment_config(e, 4);
        let program = compile_model(&variant).expect("compile");
        let store = EnsembleRuns::run(&program, &cfg, &perts).expect("store");
        for (i, &p) in perts.iter().enumerate() {
            let direct = run_program(&program, &cfg, p).expect("direct run");
            let via_store = store.materialize(i);
            assert_identical(&format!("{}/member {i}", e.name()), &direct, &via_store);
            // Raw dense buffers must match too (bit-level: unwritten
            // intermediate steps are NaN on both sides).
            let bits = |h: &Vec<Vec<f64>>| -> Vec<Vec<u64>> {
                h.iter()
                    .map(|s| s.iter().map(|x| x.to_bits()).collect())
                    .collect()
            };
            assert_eq!(
                bits(&direct.history),
                bits(&via_store.history),
                "{}",
                e.name()
            );
        }
    }
}

#[test]
fn engines_agree_under_perturbation() {
    let model = generate(&ModelConfig::test());
    let cfg = RunConfig {
        steps: 3,
        ..Default::default()
    };
    for pert in [0.0, 1e-14, -3e-14, 1e-10] {
        assert_engines_agree(&format!("pert={pert:e}"), &model, &cfg, pert);
    }
}

#[test]
fn engines_agree_with_full_kernel_instrumentation() {
    // Every micro_mg variable instrumented (module vars + subprogram
    // locals) exercises both sampling paths on both engines.
    let model = generate(&ModelConfig::test());
    let specs = kernel_sample_specs(&model, "micro_mg").expect("specs");
    assert!(!specs.is_empty());
    let cfg = RunConfig {
        steps: 3,
        sample_step: Some(2),
        samples: specs,
        ..Default::default()
    };
    let a = tree_walk(&model, &cfg, 0.0);
    assert!(!a.samples.is_empty(), "instrumentation captured nothing");
    assert_engines_agree("kernel-instrumented", &model, &cfg, 0.0);
}

#[test]
fn engines_agree_under_per_module_fma() {
    // FMA in exactly one module (the campaign's FmaToggle mechanism).
    let model = generate(&ModelConfig::test());
    for module in ["micro_mg", "dyn_comp", "cldwat2m_macro"] {
        let cfg = RunConfig {
            steps: 3,
            avx2: Avx2Policy::Only([module.to_string()].into_iter().collect()),
            ..Default::default()
        };
        assert_engines_agree(&format!("fma-only-{module}"), &model, &cfg, 0.0);
    }
}

#[test]
fn engines_agree_at_medium_scale() {
    // The bench scale: more fillers, deeper call graph.
    let model = generate(&ModelConfig::medium());
    let cfg = RunConfig {
        steps: 2,
        ..Default::default()
    };
    assert_engines_agree("medium", &model, &cfg, 1e-14);
}

#[test]
fn tree_and_vm_agree_under_seeded_faults() {
    // The reference interpreter ignores the fault axis, so parity under
    // injected faults goes through the fault oracle: the VM's resilient
    // store under a seeded FaultPlan — aborts, retries, quarantines,
    // poisoned and stuck outputs — must equal the plan applied to
    // zero-fault tree-walk runs, bit for bit in data, series lengths, and
    // member health.
    let model = generate(&ModelConfig::test());
    let program = compile_model(&model).expect("compile");
    let perts = perturbations(6, 1e-14, 0x5EED);
    for fault_seed in [0xFA17u64, 0xDEAD_BEEF, 42] {
        let config = RunConfig {
            steps: 6,
            faults: FaultPlan::seeded(fault_seed, perts.len(), 6, 8),
            ..Default::default()
        };
        let clean = config.without_faults();
        let vm = EnsembleRuns::run_resilient(&program, &config, &perts, 2);
        for (m, &pert) in perts.iter().enumerate() {
            let label = format!("seed {fault_seed:#x}/member {m}");
            let health = &vm.health()[m];
            let tree = predict_member(&config, m as u32, pert, 2, |p| {
                let run = tree_walk(&model, &clean, p);
                let mut dense = vec![Vec::new(); vm.outputs()];
                for (name, series) in run.history_iter() {
                    dense[vm.index_of(name).expect("output known to the program")] = series.clone();
                }
                dense
            });
            match tree {
                Some((attempt, history)) => {
                    let want = match attempt {
                        0 => MemberHealth::Healthy,
                        retries => MemberHealth::Recovered { retries },
                    };
                    assert_eq!(health, &want, "{label}: member health differs");
                    let got = vm.materialize(m).history;
                    for (o, (a, b)) in got.iter().zip(&history).enumerate() {
                        assert_eq!(a.len(), b.len(), "{label}/output {o}: written differs");
                        for (step, (x, y)) in a.iter().zip(b).enumerate() {
                            assert!(
                                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                                "{label}/output {o}[{step}]: {x:e} != {y:e}"
                            );
                        }
                    }
                }
                None => {
                    let MemberHealth::Quarantined { error } = health else {
                        panic!("{label}: {health:?}, expected quarantine");
                    };
                    assert_eq!(error.context.as_str(), FAULT_CONTEXT, "{label}");
                    assert!(vm.written_of(m).iter().all(|&w| w == 0), "{label}");
                }
            }
        }
    }
}

#[test]
fn compiled_initial_globals_match_interpreter_load() {
    let model = generate(&ModelConfig::test());
    let program = compile_model(&model).expect("compile");
    let (asts, _) = model.parse();
    let interp = Interpreter::load(&asts, RunConfig::default()).expect("load");
    for module in ["micro_mg", "microp_aero", "wv_saturation", "shr_const_mod"] {
        for name in program.module_var_names(module) {
            let a = program.initial_global(module, &name);
            let b = interp.global(module, &name);
            assert_eq!(a, b, "{module}::{name} initial value differs");
        }
    }
}
