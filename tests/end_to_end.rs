//! Cross-crate integration tests: the complete paper pipeline per
//! experiment through the `RcaSession` facade, at test scale, with both
//! sampling oracles.

use climate_rca::prelude::*;
use model::{generate, Experiment, ModelConfig};
use stats::Verdict;
use std::sync::Arc;

fn session_for(
    model: &model::ModelSource,
    oracle: OracleKind,
    max_outputs: usize,
) -> RcaSession<'_> {
    RcaSession::builder(model)
        .setup(ExperimentSetup::quick())
        .oracle(oracle)
        .max_outputs(max_outputs)
        .build()
        .expect("session builds")
}

fn diagnose(session: &RcaSession<'_>, m: &Arc<model::ModelSource>, e: Experiment) -> Diagnosis {
    let scenario = Scenario::paper(m, session.setup(), e);
    session.diagnose_scenario(&scenario).expect("diagnosis")
}

/// Runs the whole chain: statistics → selection → slice → refinement.
/// Both built-in oracles go through the identical session entry point.
fn full_chain(experiment: Experiment, oracle: OracleKind) -> (bool, Verdict) {
    let m = Arc::new(generate(&ModelConfig::test()));
    let n = experiment.table2_outputs().len().clamp(4, 10);
    let session = session_for(&m, oracle, n);
    let d = diagnose(&session, &m, experiment);
    (d.located(), d.verdict)
}

#[test]
fn wsubbug_end_to_end() {
    let (located, verdict) = full_chain(Experiment::WsubBug, OracleKind::Reachability);
    assert_eq!(verdict, Verdict::Fail);
    assert!(located, "wsub bug must be located");
}

#[test]
fn goffgratch_end_to_end_with_runtime_sampling() {
    let (located, verdict) = full_chain(Experiment::GoffGratch, OracleKind::Runtime);
    assert_eq!(verdict, Verdict::Fail);
    assert!(located, "Goff-Gratch typo must be located by real sampling");
}

#[test]
fn dyn3bug_end_to_end() {
    let (located, verdict) = full_chain(Experiment::Dyn3Bug, OracleKind::Reachability);
    assert_eq!(verdict, Verdict::Fail);
    assert!(located);
}

#[test]
fn randombug_end_to_end() {
    let (located, verdict) = full_chain(Experiment::RandomBug, OracleKind::Reachability);
    assert_eq!(verdict, Verdict::Fail);
    assert!(located);
}

#[test]
fn randmt_end_to_end_with_runtime_sampling() {
    let (located, verdict) = full_chain(Experiment::RandMt, OracleKind::Runtime);
    assert_eq!(verdict, Verdict::Fail);
    assert!(located, "PRNG swap sources must be located");
}

#[test]
fn both_oracles_locate_the_same_wsub_bug() {
    // The acceptance bar for the Oracle abstraction: the same end-to-end
    // test passes with either built-in oracle plugged into the same
    // session pipeline, and the verdicts agree.
    let m = Arc::new(generate(&ModelConfig::test()));
    let mut verdicts = Vec::new();
    for oracle in [OracleKind::Reachability, OracleKind::Runtime] {
        let session = session_for(&m, oracle, 4);
        let d = diagnose(&session, &m, Experiment::WsubBug);
        assert!(d.located(), "oracle {oracle:?} must locate the wsub bug");
        verdicts.push(d.verdict);
    }
    assert_eq!(verdicts[0], verdicts[1]);
}

#[test]
fn oracles_agree_on_reachable_detections() {
    // For source-level bugs sampled early, reachability simulation and
    // real runtime sampling must agree on a panel of probe nodes. Both
    // oracles query the SAME metagraph (node ids are only meaningful
    // within one compiled graph), built by one session; the runtime
    // sampler is constructed directly over that session's model.
    let m = Arc::new(generate(&ModelConfig::test()));
    let session = session_for(&m, OracleKind::Reachability, 10);
    let goffgratch = Scenario::paper(&m, session.setup(), Experiment::GoffGratch);
    let mut reach = session.scenario_oracle(&goffgratch);
    let mut runtime = rca::RuntimeSampler::new(
        (*m).clone(),
        (*goffgratch.model).clone(),
        session.control_config(),
        goffgratch.config.clone(),
    )
    .with_sample_step(2);

    let mg = session.metagraph();
    let probes: Vec<graph::NodeId> = ["cld", "relhum", "wsub", "flwds", "tlat", "snowhland"]
        .iter()
        .filter_map(|n| mg.nodes_with_canonical(n).first().copied())
        .collect();
    let a = reach.differs(mg, &probes);
    let b = rca::Oracle::differs(&mut runtime, mg, &probes);
    // Runtime detections must be a subset of reachability (static paths
    // are conservative, §5.4 issue 3) and agree on most probes.
    for (i, (&ra, &rb)) in a.iter().zip(&b).enumerate() {
        if rb {
            assert!(ra, "runtime detected {i} without a static path");
        }
    }
    let agree = a.iter().zip(&b).filter(|(x, y)| x == y).count();
    assert!(
        agree >= probes.len() - 1,
        "oracles disagree: {a:?} vs {b:?}"
    );
}

#[test]
fn control_experiment_passes_and_locates_nothing() {
    let m = Arc::new(generate(&ModelConfig::test()));
    let session = session_for(&m, OracleKind::Reachability, 10);
    let d = diagnose(&session, &m, Experiment::Control);
    assert_eq!(d.verdict, Verdict::Pass);
    assert!(d.refinement.is_none(), "a passing verdict must not refine");
    assert!(!d.located());
}

#[test]
fn coverage_reduction_reported() {
    let m = generate(&ModelConfig::test());
    let session = session_for(&m, OracleKind::Reachability, 10);
    let p = session.pipeline();
    assert!(p.filter_stats.subprograms_after > 0);
    assert!(session.metagraph().node_count() > 0);
    // Paper's preprocessing bookkeeping is available for reporting.
    assert!(p.coverage.len() >= p.filter_stats.subprograms_after);
}
