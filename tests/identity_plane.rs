//! Identity-plane equivalence: everything the id-keyed pipeline renders
//! must be byte-identical to what the legacy string-keyed computation
//! produces.
//!
//! The PR that introduced the interned identity plane (one workspace-wide
//! `SymbolTable`, dense `VarId`/`ModuleId`/`OutputId` everywhere between
//! the simulator and the diagnosis) is only sound if the string edge is
//! lossless: for every paper experiment, the `Diagnosis` fields and the
//! rendered report derived *through ids* must match the same values
//! recomputed through the string-based APIs (`outputs_to_internal`,
//! `nodes_in_modules`, `display`).

use climate_rca::prelude::*;
use model::{generate, Experiment, ModelConfig};
use rca_core::backward_slice_names;
use std::sync::{Arc, OnceLock};

fn model() -> &'static Arc<model::ModelSource> {
    static MODEL: OnceLock<Arc<model::ModelSource>> = OnceLock::new();
    MODEL.get_or_init(|| Arc::new(generate(&ModelConfig::test())))
}

fn session() -> &'static RcaSession<'static> {
    static SESSION: OnceLock<RcaSession<'static>> = OnceLock::new();
    SESSION.get_or_init(|| {
        RcaSession::builder(model())
            .setup(ExperimentSetup::quick())
            .build()
            .expect("session")
    })
}

#[test]
fn id_keyed_diagnosis_matches_legacy_string_rendering_on_all_paper_experiments() {
    let session = session();
    let mg = session.metagraph();
    for e in Experiment::ALL {
        let scenario = Scenario::paper(model(), session.setup(), e);
        let d = session.diagnose_scenario(&scenario).expect("diagnosis");
        let Some(report) = &d.refinement else {
            // A passing verdict short-circuits before slicing.
            assert!(d.suspects.is_empty());
            assert!(d.slicing_criteria.is_empty());
            continue;
        };
        // Slicing criteria: the id path (OutputId → VarId → string at the
        // edge) must reproduce the legacy string-keyed I/O-registry
        // translation byte-for-byte.
        let legacy_criteria = session.pipeline().outputs_to_internal(&d.affected_outputs);
        assert_eq!(
            d.slicing_criteria,
            legacy_criteria,
            "{}: criteria diverge from string path",
            e.name()
        );
        // Suspects: id-resolved display names must equal per-node legacy
        // display rendering.
        let legacy_suspects: Vec<String> =
            report.final_nodes.iter().map(|&n| mg.display(n)).collect();
        assert_eq!(d.suspects, legacy_suspects, "{}", e.name());
        // Suspect modules: id-set → names must equal the string-keyed
        // sort/dedup of per-node module names.
        let mut legacy_modules: Vec<String> = report
            .final_nodes
            .iter()
            .map(|&n| mg.module_name_of(n).to_string())
            .collect();
        legacy_modules.sort();
        legacy_modules.dedup();
        assert_eq!(d.suspect_modules, legacy_modules, "{}", e.name());
        // The id list and the name list describe the same set.
        let syms = session.symbols();
        let mut from_ids: Vec<String> = d
            .suspect_module_ids
            .iter()
            .map(|&m| syms.module(m).to_string())
            .collect();
        from_ids.sort();
        assert_eq!(d.suspect_modules, from_ids, "{}", e.name());
        // The rendered report embeds exactly those strings.
        let rendered = d.render();
        assert!(rendered.contains(&format!("slicing criteria: {legacy_criteria:?}")));
        for m in &legacy_suspects[..legacy_suspects.len().min(3)] {
            assert!(
                rendered.contains(m),
                "{}: {m} missing from render",
                e.name()
            );
        }
    }
}

#[test]
fn id_keyed_slice_equals_string_keyed_slice() {
    // The id-keyed `backward_slice` engine and the string-edge wrapper
    // must induce the identical subgraph for Table-2 criteria.
    let session = session();
    let mg = session.metagraph();
    let syms = session.symbols();
    for e in [
        Experiment::WsubBug,
        Experiment::GoffGratch,
        Experiment::Dyn3Bug,
    ] {
        let names: Vec<String> = e
            .table2_internal()
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        let by_name = backward_slice_names(mg, &names, |m| session.pipeline().is_cam(m));
        let ids: Vec<_> = names.iter().filter_map(|n| syms.var_id(n)).collect();
        let by_id = rca_core::backward_slice(mg, &ids, |m| session.pipeline().is_cam_id(m));
        assert_eq!(by_name.mapping, by_id.mapping, "{}", e.name());
        assert_eq!(by_name.targets, by_id.targets, "{}", e.name());
        assert_eq!(
            by_name.graph.edge_count(),
            by_id.graph.edge_count(),
            "{}",
            e.name()
        );
    }
}

#[test]
fn columnar_ensemble_matrix_is_byte_identical_to_per_run_assembly() {
    // The session's cached control ensemble is assembled straight from
    // the columnar run store (history-slice fill, contiguous
    // evaluation-step planes, memcpy row gathers). Recomputing the same
    // matrix the legacy way — one standalone full-program run per member,
    // per-element indexing — must give the same bytes, column names, and
    // keep-set.
    let session = session();
    let ens = session.ensemble().expect("ensemble");
    let setup = session.setup();
    let program = session.program_for(session.model()).expect("base program");
    let config = session.control_config();
    let perts = sim::perturbations(setup.n_ensemble, rca::experiments::IC_MAGNITUDE, setup.seed);
    let runs: Vec<sim::RunOutput> = perts
        .iter()
        .map(|&p| sim::run_program(&program, &config, p).expect("run"))
        .collect();
    let eval_step = setup.steps - 1;
    let kept: Vec<usize> = (0..program.output_count())
        .filter(|&o| {
            runs.iter().all(|r| {
                r.history[o]
                    .get(eval_step as usize)
                    .is_some_and(|x| x.is_finite())
            })
        })
        .collect();
    let legacy_names: Vec<String> = kept
        .iter()
        .map(|&i| runs[0].output_names[i].to_string())
        .collect();
    assert_eq!(ens.names, legacy_names);
    let legacy = stats::Matrix::from_fn(runs.len(), kept.len(), |r, c| {
        runs[r].history[kept[c]][eval_step as usize]
    });
    assert_eq!(ens.matrix.rows(), legacy.rows());
    assert_eq!(ens.matrix.cols(), legacy.cols());
    for r in 0..legacy.rows() {
        for c in 0..legacy.cols() {
            assert_eq!(
                ens.matrix[(r, c)].to_bits(),
                legacy[(r, c)].to_bits(),
                "({r},{c}) diverges"
            );
        }
    }
    // The id-keyed per-run iterators agree with the name-keyed edge.
    for run in &runs {
        let by_ids: Vec<(String, u64)> = run
            .outputs_at_ids(eval_step)
            .map(|(id, x)| (run.output_names[id.index()].to_string(), x.to_bits()))
            .collect();
        let by_names: Vec<(String, u64)> = run
            .outputs_at(eval_step)
            .into_iter()
            .map(|(n, x)| (n.to_string(), x.to_bits()))
            .collect();
        assert_eq!(by_ids, by_names);
    }
}

#[test]
fn session_table_extends_program_table_without_invalidating_ids() {
    // The workspace table is the program interner plus the metagraph's
    // extensions: every module/output the program knows must resolve to
    // the same id through the session table.
    let session = session();
    let program = session
        .program_for(session.model())
        .expect("base program cached");
    let psyms = program.symbols();
    let ssyms = session.symbols();
    for i in 0..psyms.module_count() {
        let id = metagraph::ModuleId(i as u32);
        assert_eq!(ssyms.module(id), psyms.module(id), "module id {i} drifted");
    }
    for i in 0..psyms.output_count() {
        let id = metagraph::OutputId(i as u32);
        assert_eq!(ssyms.output(id), psyms.output(id), "output id {i} drifted");
    }
    for i in 0..psyms.var_count() {
        let id = metagraph::VarId(i as u32);
        assert_eq!(ssyms.var(id), psyms.var(id), "var id {i} drifted");
    }
    assert!(ssyms.var_count() >= psyms.var_count());
}
