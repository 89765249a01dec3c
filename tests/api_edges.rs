//! API edge cases: unknown outputs, degenerate refinement options, and
//! foreign output tables.

use climate_rca::prelude::*;
use model::{generate, Experiment, ModelConfig};
use rca::refine::StopReason;
use rca::{refine, RcaPipeline, RefineOptions};
use std::sync::Arc;

fn model() -> Arc<model::ModelSource> {
    Arc::new(generate(&ModelConfig::test()))
}

fn wsub(session: &RcaSession<'_>, m: &Arc<model::ModelSource>) -> Scenario {
    Scenario::paper(m, session.setup(), Experiment::WsubBug)
}

#[test]
fn outputs_to_internal_ignores_unknown_names() {
    let m = model();
    let p = RcaPipeline::build(&m).expect("pipeline");
    // Entirely unknown names map to nothing.
    let internal = p.outputs_to_internal(&["no_such_output".into(), "also_missing".into()]);
    assert!(internal.is_empty(), "{internal:?}");
    // Mixed lists keep the known mappings, in order, without inventing
    // entries for the unknown ones.
    let internal = p.outputs_to_internal(&[
        "no_such_output".into(),
        "flds".into(),
        "bogus".into(),
        "taux".into(),
    ]);
    assert_eq!(internal, vec!["flwds".to_string(), "wsx".to_string()]);
}

#[test]
fn session_reports_unknown_outputs_as_typed_error() {
    let m = model();
    let session = RcaSession::builder(&m)
        .setup(ExperimentSetup::quick())
        .build()
        .expect("session");
    let mut stats = session
        .statistics_scenario(&wsub(&session, &m))
        .expect("statistics");
    // Override the selection with outputs the I/O registry cannot map.
    stats.affected = vec!["definitely_not_an_output".into()];
    let err = stats.slice().expect_err("slice must fail");
    match err {
        RcaError::UnknownOutputs(names) => {
            assert_eq!(names, vec!["definitely_not_an_output".to_string()]);
        }
        other => panic!("expected UnknownOutputs, got: {other}"),
    }
}

#[test]
fn zero_manual_threshold_still_terminates() {
    // manual_threshold: 0 removes the "small enough" exit entirely; the
    // loop must still stop via stall/disconnection/instrumentation/cap.
    let m = model();
    let session = RcaSession::builder(&m)
        .setup(ExperimentSetup::quick())
        .build()
        .expect("session");
    let scenario = wsub(&session, &m);
    let sliced = session
        .statistics_scenario(&scenario)
        .expect("statistics")
        .slice()
        .expect("slice");
    let report = refine(
        session.metagraph(),
        &sliced.slice,
        session.scenario_oracle(&scenario).as_mut(),
        &session.scenario_bug_nodes(&scenario),
        &RefineOptions {
            manual_threshold: 0,
            ..RefineOptions::default()
        },
    );
    assert_ne!(
        report.stop,
        StopReason::SmallEnough,
        "threshold 0 can never be reached by a non-empty subgraph"
    );
    // The procedure still produces a usable (non-empty) suspect set.
    assert!(!report.final_nodes.is_empty());
}

#[test]
fn foreign_output_table_pairs_columns_by_name() {
    // A variant whose program writes a different output set from the
    // base program: GOFFGRATCH without its `CLDTOT` history write. The
    // statistics stage pairs ensemble and experimental columns by name,
    // drops `cldtot`, and fits the ECT on the surviving ensemble columns.
    let m = model();
    let session = RcaSession::builder(&m)
        .setup(ExperimentSetup::quick())
        .build()
        .expect("session");
    let mut variant = m.apply(Experiment::GoffGratch);
    let line = "call outfld('CLDTOT', cltot, ncol)";
    let file = variant
        .files
        .iter_mut()
        .find(|f| f.source.contains(line))
        .expect("CLDTOT history write");
    file.source = file.source.replacen(line, "", 1);
    let scenario = Scenario::new(
        "goffgratch-without-cldtot",
        Arc::new(variant),
        session.control_config(),
    );
    let ens = session.ensemble().expect("ensemble");
    let stats = session.statistics_scenario(&scenario).expect("statistics");
    let data = &stats.data;
    let want: Vec<String> = ens
        .names
        .iter()
        .filter(|n| n.as_str() != "cldtot")
        .cloned()
        .collect();
    assert_eq!(
        want.len() + 1,
        ens.names.len(),
        "cldtot is an ensemble output"
    );
    assert_eq!(data.output_names, want);
    // Every ensemble-matrix column is the session ensemble's column of
    // the same name, by bits.
    assert_eq!(data.ensemble.rows(), ens.matrix.rows());
    assert_eq!(data.ensemble.cols(), want.len());
    for (c, name) in want.iter().enumerate() {
        let e = ens
            .names
            .iter()
            .position(|n| n == name)
            .expect("ensemble name");
        for r in 0..ens.matrix.rows() {
            assert_eq!(
                data.ensemble[(r, c)].to_bits(),
                ens.matrix[(r, e)].to_bits(),
                "{name} row {r}"
            );
        }
    }
    // Verdict and failure rate are the ECT fitted on exactly those
    // columns, evaluated on the experimental matrix.
    let ect = stats::Ect::fit(&data.ensemble, session.setup().ect);
    let head: Vec<Vec<f64>> = (0..3.min(data.experimental.rows()))
        .map(|i| data.experimental.row(i).to_vec())
        .collect();
    assert_eq!(
        data.verdict,
        ect.evaluate(&stats::Matrix::from_row_slices(&head))
    );
    assert_eq!(
        data.failure_rate.to_bits(),
        ect.failure_rate(&data.experimental, 3).to_bits()
    );
    assert_eq!(data.verdict, stats::Verdict::Fail);
    session
        .diagnose_scenario(&scenario)
        .expect("the pipeline runs on a foreign output table");
}
