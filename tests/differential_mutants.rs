//! Proptest sweep: the compiled engine and the tree-walking interpreter
//! must be bit-identical on **seeded campaign mutants**, not just the
//! hand-written paper experiments.
//!
//! The campaign's mutation operators (constant perturbation, operator
//! swap, comparison flip) produce arbitrary single-line source edits
//! across the CAM modules — exactly the inputs the compiled execution
//! engine will see in production fault-injection campaigns. Each case
//! derives a mutant from the sweep seed, runs it through both engines,
//! and requires bit-equal histories and identical coverage. A second
//! sweep holds the engines equal under seeded runtime fault plans.

use climate_rca::{model, sim};
use proptest::prelude::*;
use rca_campaign::{campaign_sites, mutate_site, CampaignRng, MutationKind};
use rca_core::{ExperimentSetup, RcaSession};
use std::sync::OnceLock;

/// Model + mutation sites, built once for the whole sweep (session
/// construction is the expensive part).
fn fixture() -> &'static (model::ModelSource, Vec<model::PatchSite>) {
    static FIX: OnceLock<(model::ModelSource, Vec<model::PatchSite>)> = OnceLock::new();
    FIX.get_or_init(|| {
        let m = model::generate(&model::ModelConfig::test());
        let session = RcaSession::builder(&m)
            .setup(ExperimentSetup::quick())
            .build()
            .expect("session");
        let sites = campaign_sites(&m, &session);
        assert!(!sites.is_empty());
        (m, sites)
    })
}

fn run_both(mutant: &model::ModelSource) -> (sim::RunOutput, sim::RunOutput) {
    let cfg = sim::RunConfig {
        steps: 3,
        ..Default::default()
    };
    let (asts, errs) = mutant.parse();
    assert!(errs.is_empty(), "{errs:?}");
    let mut interp = sim::Interpreter::load(&asts, cfg.clone()).expect("load");
    let tree = sim::run_loaded(&mut interp, &cfg, 0.0).expect("tree-walk");
    let program = sim::compile_model(mutant).expect("compile");
    let compiled = sim::run_program(&program, &cfg, 0.0).expect("compiled");
    (tree, compiled)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Mutated models execute bit-identically on both engines.
    #[test]
    fn seeded_mutants_run_bit_identical(seed in 0u64..1_000_000) {
        let (base, sites) = fixture();
        let mut rng = CampaignRng::new(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
        let kind = MutationKind::SOURCE_KINDS[seed as usize % MutationKind::SOURCE_KINDS.len()];
        let applicable: Vec<_> = sites.iter().filter(|s| kind.applies_to(s)).collect();
        prop_assert!(!applicable.is_empty());
        let site = applicable[rng.below(applicable.len())];
        let Some((mutant, _detail)) = mutate_site(base, site, kind, &mut rng) else {
            unreachable!("pre-filtered site applies");
        };
        let (tree, compiled) = run_both(&mutant);
        // Histories bit-equal (written outputs only — the compiled
        // engine's dense buffer spans the full OutputId table).
        prop_assert_eq!(tree.written_count(), compiled.written_count());
        for (name, series) in tree.history_iter() {
            let other = compiled.series(name.as_ref()).expect("written in both");
            prop_assert_eq!(series.len(), other.len());
            for (i, (x, y)) in series.iter().zip(other).enumerate() {
                prop_assert!(
                    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                    "{}[{}]: {:e} != {:e} ({:?} at {}::{})",
                    name, i, x, y, kind, site.module, site.subprogram
                );
            }
        }
        // Coverage identical as a set (id-keyed, compared through the
        // rendered string edge).
        prop_assert_eq!(&tree.coverage, &compiled.coverage);

        // The columnar run store must reproduce the compiled run
        // bit-for-bit on the same mutant: one member through pooled
        // reset executors vs the standalone run.
        let cfg = sim::RunConfig {
            steps: 3,
            ..Default::default()
        };
        let program = sim::compile_model(&mutant).expect("compile");
        let store = sim::EnsembleRuns::run(&program, &cfg, &[0.0]).expect("store");
        let via_store = store.materialize(0);
        let bits = |h: &Vec<Vec<f64>>| -> Vec<Vec<u64>> {
            h.iter()
                .map(|s| s.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        prop_assert_eq!(bits(&via_store.history), bits(&compiled.history));
        prop_assert_eq!(&via_store.coverage, &compiled.coverage);
    }

    /// Seeded fault plans never panic the compiled engine, and its
    /// resilient fill stays bit-identical to the tree-walking interpreter
    /// *under* the faults (aborts, retries, quarantines, poisoned/stuck
    /// outputs): the interpreter ignores the fault axis, so its zero-fault
    /// runs feed the fault oracle, which must predict the VM's store.
    #[test]
    fn seeded_fault_plans_run_bit_identical_across_engines(seed in 0u64..1_000_000) {
        let (base, _) = fixture();
        let program = sim::compile_model(base).expect("compile");
        let (asts, errs) = base.parse();
        prop_assert!(errs.is_empty(), "{:?}", errs);
        let perts = sim::perturbations(4, 1e-14, seed | 1);
        let steps = 5u32;
        let cfg = sim::RunConfig {
            steps,
            faults: sim::FaultPlan::seeded(seed, perts.len(), steps, 1 + (seed % 6) as usize),
            ..Default::default()
        };
        let clean = cfg.without_faults();
        let vm = sim::EnsembleRuns::run_resilient(&program, &cfg, &perts, 2);
        // NaN-canonical bits: poisoned cells compare equal as NaN.
        let bits = |h: &[Vec<f64>]| -> Vec<Vec<u64>> {
            h.iter()
                .map(|s| {
                    s.iter()
                        .map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits())
                        .collect()
                })
                .collect()
        };
        for (m, &pert) in perts.iter().enumerate() {
            let health = &vm.health()[m];
            let tree = sim::store::predict_member(&cfg, m as u32, pert, 2, |p| {
                let mut interp = sim::Interpreter::load(&asts, clean.clone()).expect("load");
                let run = sim::run_loaded(&mut interp, &clean, p).expect("tree-walk");
                let mut dense = vec![Vec::new(); vm.outputs()];
                for (name, series) in run.history_iter() {
                    dense[vm.index_of(name).expect("output known to the program")] = series.clone();
                }
                dense
            });
            match tree {
                Some((attempt, history)) => {
                    let want = match attempt {
                        0 => sim::MemberHealth::Healthy,
                        retries => sim::MemberHealth::Recovered { retries },
                    };
                    prop_assert_eq!(health, &want, "member {}", m);
                    prop_assert_eq!(
                        bits(&vm.materialize(m).history),
                        bits(&history),
                        "member {}", m
                    );
                }
                None => {
                    prop_assert!(health.is_quarantined(), "member {}: {:?}", m, health);
                    prop_assert!(vm.written_of(m).iter().all(|&w| w == 0));
                }
            }
        }
    }
}
