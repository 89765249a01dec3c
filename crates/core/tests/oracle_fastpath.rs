//! Fast-path-vs-reference fences for the runtime oracle.
//!
//! The session's runtime oracle (`RuntimeSampler`) answers a query from a
//! per-node memo, a slice-specialized program pair truncated after the
//! sample step (`rca_sim::specialize`), or the full program pair. It
//! carries one contract: **fast paths never change evidence**. These
//! tests pit it against [`Reference`], an independent full-pair oracle
//! written against the public `rca_sim` API (`run_program` with
//! `RunConfig::samples`, fresh programs from `compile_model`, no memo),
//! and compare the answers — and whole serialized diagnoses — over the
//! paper's experiments, seeded campaign mutants, the fixed-seed campaign
//! plans, scenarios carrying runtime fault plans, and one case per
//! branch that sends a query to the full pair (compile failure, fuel
//! budget, failed specialized run, unseparable spec set).

use proptest::prelude::*;
use rca_campaign::{plan_campaign, CampaignOptions};
use rca_core::{Diagnosis, ExperimentSetup, Oracle, OracleKind, RcaError, RcaSession, Scenario};
use rca_graph::NodeId;
use rca_metagraph::{MetaGraph, NodeKind};
use rca_model::{generate, Experiment, ModelConfig, ModelSource};
use rca_obs::Collector;
use rca_sim::{
    compile_model, run_program, FaultPlan, Program, RunConfig, RuntimeError, SampleSpec,
};
use rca_stats::Verdict;
use std::sync::{Arc, OnceLock};

/// The oracle's relative difference threshold.
const TOLERANCE: f64 = 1e-12;

/// The paper experiments the node-batch fences sweep.
const EXPERIMENTS: [Experiment; 6] = [
    Experiment::WsubBug,
    Experiment::RandMt,
    Experiment::GoffGratch,
    Experiment::Avx2,
    Experiment::RandomBug,
    Experiment::Dyn3Bug,
];

/// Full-pair runtime sampling: every query compiles nothing, memoizes
/// nothing and runs the whole control and experimental programs with the
/// queried variables instrumented. A failed run answers `false` for the
/// whole query and records its error; a query with nothing to
/// instrument runs nothing.
struct Reference {
    programs: Result<(Arc<Program>, Arc<Program>), RuntimeError>,
    control: RunConfig,
    experiment: RunConfig,
    errors: Vec<RuntimeError>,
}

impl Reference {
    /// The session's control run against `exp_model` under `exp_config`,
    /// fault-free and sampled at the step the session samples.
    fn new(session: &RcaSession<'_>, exp_model: &ModelSource, exp_config: &RunConfig) -> Self {
        let sample_step = Some(session.setup().steps.saturating_sub(1).min(2));
        let configure = |c: &RunConfig| RunConfig {
            sample_step,
            ..c.without_faults()
        };
        Reference {
            programs: compile_model(session.model())
                .and_then(|ctl| Ok((ctl, compile_model(exp_model)?))),
            control: configure(&session.control_config()),
            experiment: configure(exp_config),
            errors: Vec::new(),
        }
    }

    fn run(&self, specs: &[SampleSpec]) -> Result<Vec<bool>, RuntimeError> {
        let (ctl, exp) = self.programs.clone()?;
        let sampled = |c: &RunConfig| RunConfig {
            samples: specs.to_vec(),
            ..c.clone()
        };
        let ctl = run_program(&ctl, &sampled(&self.control), 0.0)?;
        let exp = run_program(&exp, &sampled(&self.experiment), 0.0)?;
        Ok(ctl
            .samples
            .iter()
            .zip(&exp.samples)
            .map(|pair| match pair {
                (Some(a), Some(b)) if a.len() == b.len() => a
                    .iter()
                    .zip(b)
                    .any(|(&x, &y)| (x - y).abs() / x.abs().max(y.abs()).max(1e-300) > TOLERANCE),
                (Some(_), Some(_)) => true,
                _ => false,
            })
            .collect())
    }
}

impl Oracle for Reference {
    fn name(&self) -> &'static str {
        "runtime"
    }

    fn differs(&mut self, mg: &MetaGraph, nodes: &[NodeId]) -> Vec<bool> {
        let syms = mg.symbols();
        let specs: Vec<Option<SampleSpec>> = nodes
            .iter()
            .map(|&n| {
                let meta = mg.meta_of(n);
                (meta.kind == NodeKind::Variable).then(|| SampleSpec {
                    module: syms.module(meta.module).into(),
                    subprogram: meta.subprogram.map(|s| syms.var(s).into()),
                    name: syms.var(meta.canonical).into(),
                })
            })
            .collect();
        let live: Vec<SampleSpec> = specs.iter().flatten().cloned().collect();
        if live.is_empty() {
            return vec![false; nodes.len()];
        }
        match self.run(&live) {
            Ok(verdicts) => {
                let mut verdicts = verdicts.into_iter();
                specs
                    .iter()
                    .map(|s| s.is_some() && verdicts.next().expect("one verdict per spec"))
                    .collect()
            }
            Err(e) => {
                self.errors.push(e);
                vec![false; nodes.len()]
            }
        }
    }

    fn take_errors(&mut self) -> Vec<RuntimeError> {
        std::mem::take(&mut self.errors)
    }
}

/// The reference oracle for `scenario`.
fn reference(session: &RcaSession<'_>, scenario: &Scenario) -> Reference {
    Reference::new(session, &scenario.model, &scenario.config)
}

/// The diagnosis with every oracle query answered by [`Reference`].
fn diagnose_reference(
    session: &RcaSession<'_>,
    scenario: &Scenario,
) -> Result<Diagnosis, RcaError> {
    let stats = session.statistics_scenario(scenario)?;
    if stats.verdict() == Verdict::Pass {
        // A passing verdict never queries an oracle.
        return session.diagnose_scenario(scenario);
    }
    let mut reference = reference(session, scenario);
    Ok(stats.slice()?.refine_with(&mut reference).into_diagnosis())
}

/// The paper experiment `e` over the test model.
fn paper(session: &RcaSession<'_>, e: Experiment) -> Scenario {
    Scenario::paper(test_model(), session.setup(), e)
}

fn runtime_session(model: &ModelSource, setup: ExperimentSetup) -> RcaSession<'_> {
    RcaSession::builder(model)
        .setup(setup)
        .oracle(OracleKind::Runtime)
        .build()
        .expect("session")
}

fn test_model() -> &'static Arc<ModelSource> {
    static MODEL: OnceLock<Arc<ModelSource>> = OnceLock::new();
    MODEL.get_or_init(|| Arc::new(generate(&ModelConfig::test())))
}

fn json(d: &Diagnosis) -> String {
    serde_json::to_string_pretty(d).expect("serialize")
}

/// Diagnoses `scenario` through the session and through the reference;
/// returns whether it refined.
fn assert_diagnosis_matches(session: &RcaSession<'_>, scenario: &Scenario, label: &str) -> bool {
    match (
        session.diagnose_scenario(scenario),
        diagnose_reference(session, scenario),
    ) {
        (Ok(a), Ok(b)) => {
            assert_eq!(json(&a), json(&b), "{label}: diagnosis diverged");
            a.refinement.is_some()
        }
        (Err(a), Err(b)) => {
            assert_eq!(a.to_string(), b.to_string(), "{label}: failure diverged");
            false
        }
        (a, b) => panic!("{label}: one path failed: {a:?} vs {b:?}"),
    }
}

/// Queries the session's oracle and the reference with the same node
/// batches and compares every answer and every recorded error.
fn assert_batches_match(
    session: &RcaSession<'_>,
    scenario: &Scenario,
    batches: &[&[NodeId]],
    label: &str,
) -> Vec<RuntimeError> {
    let mg = session.metagraph();
    let mut oracle = session.scenario_oracle(scenario);
    let mut reference = reference(session, scenario);
    for (i, batch) in batches.iter().enumerate() {
        assert_eq!(
            oracle.differs(mg, batch),
            reference.differs(mg, batch),
            "{label} batch {i}: answers diverged"
        );
    }
    let errors = oracle.take_errors();
    assert_eq!(errors, reference.take_errors(), "{label}: errors diverged");
    errors
}

/// A scenario over `model` under the session's control configuration.
fn scenario(session: &RcaSession<'_>, name: &str, model: ModelSource) -> Scenario {
    Scenario::new(name, Arc::new(model), session.control_config())
}

/// Every paper experiment over three disjoint node batches (refinement
/// queries ~30 nodes a turn), a batch overlapping the first two (memo
/// hits + misses), then a full replay of batch 0 answered from the memo
/// alone. Error-class experiments (RANDOMBUG) are included deliberately.
#[test]
fn fastpath_verdicts_match_full_on_paper_experiments() {
    let session = runtime_session(test_model(), ExperimentSetup::quick());
    let nodes: Vec<NodeId> = session.metagraph().graph.nodes().collect();
    assert!(nodes.len() > 60, "metagraph too small: {}", nodes.len());
    let batches = [
        &nodes[0..30],
        &nodes[30..60],
        &nodes[nodes.len() - 30..],
        &nodes[15..45],
        &nodes[0..30],
    ];
    for exp in EXPERIMENTS {
        assert_batches_match(&session, &paper(&session, exp), &batches, exp.name());
    }
}

/// Whole-diagnosis equivalence: the serialized artifact (verdict,
/// refinement trace, suspects, sampling errors) equals the reference's.
#[test]
fn diagnosis_artifacts_match_the_reference() {
    let session = runtime_session(test_model(), ExperimentSetup::quick());
    for exp in [
        Experiment::WsubBug,
        Experiment::GoffGratch,
        Experiment::RandMt,
    ] {
        assert_diagnosis_matches(&session, &paper(&session, exp), exp.name());
    }
}

/// Scenario fault plans must not leak into oracle evidence: the session
/// strips faults from oracle run configs (`without_faults`), so a
/// heavily faulted scenario diagnoses to the reference's artifact — and
/// to the same refinement evidence as the fault-free scenario of the
/// same mutant.
#[test]
fn fault_plans_never_reach_oracle_evidence() {
    let session = runtime_session(test_model(), ExperimentSetup::quick());
    let base = Arc::new(test_model().apply(Experiment::GoffGratch));
    let config = session.control_config();
    let mut faulted_config = config.clone();
    faulted_config.faults =
        FaultPlan::seeded(0xFA17, session.setup().n_experiment, config.steps, 2);
    assert!(!faulted_config.faults.is_empty(), "fault plan must be live");

    let faulted = Scenario::new("goffgratch-faulted", Arc::clone(&base), faulted_config);
    let clean = Scenario::new("goffgratch-faulted", base, config);
    assert_diagnosis_matches(&session, &faulted, "faulted scenario");

    // The oracle's evidence (refinement + sampling errors) must match
    // the fault-free run of the same mutant — the statistics stage may
    // legitimately differ (experimental ensembles do run the faults),
    // so compare the oracle-owned pieces, not the whole artifact.
    let d_faulted = session
        .diagnose_scenario(&faulted)
        .expect("diagnose faulted");
    let d_clean = session.diagnose_scenario(&clean).expect("diagnose clean");
    assert_eq!(
        d_faulted.sampling_errors.len(),
        d_clean.sampling_errors.len(),
        "fault plan leaked into sampling errors"
    );
    if let (Some(a), Some(b)) = (&d_faulted.refinement, &d_clean.refinement) {
        assert_eq!(a.final_nodes, b.final_nodes, "fault plan changed evidence");
        assert_eq!(a.all_sampled, b.all_sampled, "fault plan changed sampling");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The adversarial family: campaign-planned defect mutants whose
    /// injected statements land at arbitrary points in the dependence
    /// graph, including inside statements the specializer prunes. For
    /// every sampled (seed, experiment) pair, the paper experiment and
    /// every planned scenario (source mutants, config mutants and clean
    /// controls alike) diagnose to the reference's artifact.
    #[test]
    fn fastpath_diagnoses_match_full_over_seeded_mutants(
        seed in any::<u64>(),
        exp in prop::sample::select(EXPERIMENTS.to_vec()),
    ) {
        let session = runtime_session(test_model(), ExperimentSetup::quick());
        assert_diagnosis_matches(&session, &paper(&session, exp), exp.name());
        let plan = plan_campaign(
            test_model(),
            &session,
            &CampaignOptions { scenarios: 4, seed, clean_every: 3, ..Default::default() },
        );
        prop_assert!(!plan.is_empty(), "seed {seed}: empty campaign plan");
        for entry in &plan {
            let label = format!("{} ({})", entry.scenario.name, entry.detail);
            assert_diagnosis_matches(&session, &entry.scenario, &label);
        }
    }
}

/// The fixed-seed `--paper` plan (seed 51966): every planned scenario
/// diagnoses to the reference's artifact; returns `(scenarios, refined)`.
fn fence_paper_plan(
    session: &RcaSession<'_>,
    model: &Arc<ModelSource>,
    scenarios: usize,
) -> (usize, usize) {
    let plan = plan_campaign(
        model,
        session,
        &CampaignOptions {
            scenarios,
            seed: 51966,
            include_paper: true,
            ..Default::default()
        },
    );
    let mut refined = 0;
    for cs in &plan {
        let label = format!("{} ({})", cs.scenario.name, cs.detail);
        refined += usize::from(assert_diagnosis_matches(session, &cs.scenario, &label));
    }
    (plan.len(), refined)
}

/// The N=8 plan of `rca-campaign --scenarios 8 --seed 51966 --paper
/// --oracle runtime` at test scale.
#[test]
fn fixed_seed_paper_plan_matches_the_reference() {
    let session = runtime_session(test_model(), ExperimentSetup::quick());
    let (scenarios, refined) = fence_paper_plan(&session, test_model(), 8);
    assert!(
        refined * 2 > scenarios,
        "only {refined} of {scenarios} scenarios refine: the fence covers too little"
    );
}

/// The same fence on the 6-scenario plan at paper scale (~20 s in
/// release; run with `--include-ignored`).
#[test]
#[ignore = "paper scale; run in release"]
fn fixed_seed_paper_plan_matches_the_reference_at_paper_scale() {
    let model = Arc::new(generate(&ModelConfig::paper()));
    let session = runtime_session(&model, ExperimentSetup::default());
    let (scenarios, refined) = fence_paper_plan(&session, &model, 6);
    assert!(
        refined * 2 > scenarios,
        "only {refined} of {scenarios} scenarios refine: the fence covers too little"
    );
}

/// A variant that does not parse: the sampler is built from the compile
/// error the session already has (one compile, the variant's), and every
/// query reports that error — the one `statistics_scenario` returns.
#[test]
fn compile_failure_is_reported_per_query_without_recompiling() {
    let session = runtime_session(test_model(), ExperimentSetup::quick());
    let file = &test_model().files[0].name;
    let broken = test_model().with_patched_line(file, 3, "this is not fortran ((");
    let broken = scenario(&session, "broken", broken);

    let collector = Arc::new(Collector::new());
    let _ = rca_obs::with_sink(collector.clone(), || session.scenario_oracle(&broken));
    assert_eq!(
        collector.spans_named("phase.compile"),
        1,
        "the base was recompiled"
    );

    let nodes: Vec<NodeId> = session.metagraph().graph.nodes().collect();
    let errors = assert_batches_match(&session, &broken, &[&nodes[0..30], &nodes[0..30]], "broken");
    let Err(RcaError::Runtime(loader)) = session.statistics_scenario(&broken) else {
        panic!("the variant must fail to compile");
    };
    assert_eq!(loader.context, "loader");
    assert_eq!(errors, vec![loader.clone(), loader]);
}

/// A fuel budget keeps the full pair: a pruned run truncated after the
/// sample step spends less fuel than the full program. The full
/// experimental run needs 30,365 statements, so one fewer exhausts the
/// budget at step 4, after the sample step, and the query fails; with
/// exactly enough, the full pair answers.
#[test]
fn fuel_budget_is_answered_by_the_full_pair() {
    let session = runtime_session(test_model(), ExperimentSetup::quick());
    let nodes: Vec<NodeId> = session.metagraph().graph.nodes().collect();
    for fuel in [30_364, 30_365] {
        let fueled = Scenario::new(
            "goffgratch-fuel",
            Arc::new(test_model().apply(Experiment::GoffGratch)),
            RunConfig {
                fuel: Some(fuel),
                ..session.control_config()
            },
        );
        let label = format!("fuel {fuel}");
        let errors = assert_batches_match(&session, &fueled, &[&nodes[0..30]], &label);
        if fuel == 30_365 {
            assert!(errors.is_empty(), "{label}: {errors:?}");
        } else {
            assert_eq!(errors.len(), 1, "{label}: {errors:?}");
            assert!(
                errors[0]
                    .message
                    .contains("fuel budget of 30364 exhausted at step 4"),
                "{errors:?}"
            );
        }
    }
}

/// A kept statement that fails before the sample step poisons the
/// sampler: the specialized failure is discarded and the full pair
/// answers, now and for every later query.
#[test]
fn failed_specialized_run_falls_back_to_the_full_pair() {
    let session = runtime_session(test_model(), ExperimentSetup::quick());
    let mut patched = ModelSource::clone(test_model());
    let f = patched
        .files
        .iter_mut()
        .find(|f| f.name == "dyn_update.F90")
        .expect("dyn_update.F90");
    f.source = f.source.replacen(
        "state%omega(i) = omg_tmp(i)",
        "state%omega(i) = omg_tmp(i + pcols)",
        1,
    );
    let failing = scenario(&session, "omega-out-of-bounds", patched);
    let mg = session.metagraph();
    let omega = mg.nodes_with_canonical("omega");
    let nodes: Vec<NodeId> = mg.graph.nodes().collect();
    let first: Vec<NodeId> = omega
        .iter()
        .copied()
        .chain(nodes[0..20].iter().copied())
        .collect();

    let poisoned = rca_obs::counter("oracle.fastpath_poisoned").get();
    let errors = assert_batches_match(
        &session,
        &failing,
        &[&first, &nodes[30..60], &first],
        "poisoned",
    );
    assert!(rca_obs::counter("oracle.fastpath_poisoned").get() > poisoned);
    assert_eq!(errors.len(), 3, "{errors:?}");
    assert!(errors[0].message.contains("out of bounds"), "{errors:?}");
}

/// A program without `cam_run_step` cannot be specialized: the full pair
/// answers, and its failure is the query's.
#[test]
fn unseparable_spec_set_is_answered_by_the_full_pair() {
    let session = runtime_session(test_model(), ExperimentSetup::quick());
    let mut renamed = ModelSource::clone(test_model());
    for f in &mut renamed.files {
        f.source = f.source.replace("cam_run_step", "cam_run_once");
    }
    let renamed = scenario(&session, "no-cam-run-step", renamed);
    let nodes: Vec<NodeId> = session.metagraph().graph.nodes().collect();

    let fallbacks = rca_obs::counter("oracle.fastpath_fallbacks").get();
    let errors = assert_batches_match(
        &session,
        &renamed,
        &[&nodes[0..30], &nodes[30..60]],
        "unseparable",
    );
    assert!(rca_obs::counter("oracle.fastpath_fallbacks").get() > fallbacks);
    assert_eq!(errors.len(), 2, "{errors:?}");
    assert!(errors[0].message.contains("cam_run_step"), "{errors:?}");
}
