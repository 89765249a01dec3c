//! Shared-parse and delta compiles against fresh ones over seeded
//! campaign mutants.
//!
//! A session parses its base model once; [`RcaSession::program_for`]
//! compiles a variant against that parse, keeping the base's AST for
//! every file whose name and text equal the base file at the same
//! position and parsing only the rest, and lowers it against the base
//! program, sharing every proc whose subprogram is unchanged when the
//! interface is. This sweep fences both on every source mutant of the
//! fixed-seed campaign plan and on the paper's source-patched
//! experiments: the shared parse must equal a fresh `ModelSource::parse`
//! value for value and share exactly the unchanged files, the program
//! must equal the one `compile_model` builds (bytecode disassembly,
//! output table, symbol table, global arena), and a one-line mutant
//! lowers one proc and shares every other with the base program. The
//! edge cases below cover parse failures, renamed, added and removed
//! files, config-only variants, and one variant per reason a compile
//! lowers every proc.

use rca_campaign::{plan_campaign, CampaignOptions};
use rca_core::{ExperimentSetup, RcaError, RcaSession};
use rca_model::{generate, Experiment, ModelConfig, ModelFile, ModelSource};
use rca_obs::{Collector, FieldValue};
use rca_sim::{compile_model, parse_model, ModuleId, OutputId, Program, VarId};
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

/// `f`'s result and the events it emitted on this thread.
fn traced<R>(f: impl FnOnce() -> R) -> (R, Arc<Collector>) {
    let collector = Arc::new(Collector::new());
    let out = rca_obs::with_sink(collector.clone(), f);
    (out, collector)
}

/// The `(a, b)` counts of every `name` event in `collector`.
fn counts(collector: &Collector, name: &str, [a, b]: [&str; 2]) -> Vec<(u64, u64)> {
    let field = |fields: &[(&str, FieldValue)], key: &str| match fields.iter().find(|f| f.0 == key)
    {
        Some((_, FieldValue::U64(n))) => *n,
        other => panic!("{name} without a {key} count: {other:?}"),
    };
    collector
        .events_named(name)
        .iter()
        .map(|e| (field(e, a), field(e, b)))
        .collect()
}

/// `(parsed, reused)` of every `parse.files` event.
fn parse_counts(collector: &Collector) -> Vec<(u64, u64)> {
    counts(collector, "parse.files", ["parsed", "reused"])
}

/// `(lowered, reused)` of every `compile.procs` event.
fn proc_counts(collector: &Collector) -> Vec<(u64, u64)> {
    counts(collector, "compile.procs", ["lowered", "reused"])
}

/// `program` equals `reference` in bytecode, output table, symbol table
/// and global arena.
fn assert_same_program(label: &str, program: &Program, reference: &Program) {
    assert_eq!(
        program.disassemble(),
        reference.disassemble(),
        "{label}: bytecode differs from a fresh compile"
    );
    assert_eq!(
        program.output_names(),
        reference.output_names(),
        "{label}: output table differs"
    );
    let table = |p: &Program| {
        let s = p.symbols();
        let vars: Vec<String> = (0..s.var_count() as u32)
            .map(|i| s.var(VarId(i)).to_string())
            .collect();
        let modules: Vec<String> = (0..s.module_count() as u32)
            .map(|i| s.module(ModuleId(i)).to_string())
            .collect();
        let outputs: Vec<String> = (0..s.output_count() as u32)
            .map(|i| s.output(OutputId(i)).to_string())
            .collect();
        (vars, modules, outputs)
    };
    assert_eq!(table(program), table(reference), "{label}: symbol table");
    assert_eq!(program.global_count(), reference.global_count(), "{label}");
    assert_eq!(
        program.global_origins(),
        reference.global_origins(),
        "{label}"
    );
    for g in 0..program.global_count() as u32 {
        assert_eq!(
            program.global_initial(g),
            reference.global_initial(g),
            "{label}: global {g}"
        );
    }
}

/// Positions where `variant` differs from the session's base model in
/// file name or text — the files a shared parse must parse.
fn changed_positions(session: &RcaSession<'_>, variant: &ModelSource) -> Vec<usize> {
    let base = &session.model().files;
    (0..variant.files.len())
        .filter(|&i| {
            base.get(i).is_none_or(|b| {
                b.name != variant.files[i].name || b.source != variant.files[i].source
            })
        })
        .collect()
}

/// The three-way check on one source variant; returns how many files
/// its compile parsed and how many procs it lowered.
fn check_variant(session: &RcaSession<'_>, label: &str, variant: &ModelSource) -> (usize, usize) {
    let base_files = session.parsed_sources();
    let changed = changed_positions(session, variant);

    // 1. The shared parse equals a fresh parse, value for value.
    let shared = parse_model(variant, Some((session.model(), base_files)))
        .unwrap_or_else(|e| panic!("{label}: shared parse failed: {e}"));
    let (fresh, errs) = variant.parse();
    assert!(errs.is_empty(), "{label}: {errs:?}");
    assert!(
        shared.iter().map(|f| &**f).eq(fresh.iter()),
        "{label}: shared parse differs from a fresh parse"
    );

    // 2. Exactly the unchanged files are the base's own ASTs.
    for (i, ast) in shared.iter().enumerate() {
        let reused = base_files.get(i).is_some_and(|b| Arc::ptr_eq(ast, b));
        assert_eq!(
            reused,
            !changed.contains(&i),
            "{label}: {} at position {i}",
            variant.files[i].name
        );
    }

    // 3. The session compiles the program `compile_model` builds; its
    // compile parses only the changed files, and every proc it did not
    // lower is the base program's own.
    let (program, events) = traced(|| session.program_for(variant));
    let program = program.unwrap_or_else(|e| panic!("{label}: {e}"));
    let parsed = changed.len() as u64;
    assert_eq!(
        parse_counts(&events),
        vec![(parsed, variant.files.len() as u64 - parsed)],
        "{label}: parse counts"
    );
    let reference = compile_model(variant).expect("the variant compiles");
    assert_same_program(label, &program, &reference);
    let procs = program.ir_procs().len();
    let [(lowered, reused)] = proc_counts(&events)[..] else {
        panic!("{label}: one compile.procs event expected")
    };
    assert_eq!(lowered + reused, procs as u64, "{label}: proc counts");
    let base = session.program_for(session.model()).expect("base program");
    let shared = program
        .ir_procs()
        .iter()
        .zip(base.ir_procs())
        .filter(|(p, b)| Arc::ptr_eq(p, b))
        .count();
    assert_eq!(
        shared as u64, reused,
        "{label}: reused procs are the base's"
    );
    (changed.len(), lowered as usize)
}

/// Checks every source variant of the seed-51966 plan of `scenarios`
/// entries (paper experiments included), then returns how many distinct
/// variants were compared.
fn sweep(config: &ModelConfig, setup: ExperimentSetup, scenarios: usize) -> usize {
    let model = Arc::new(generate(config));
    let session = RcaSession::builder(&model)
        .setup(setup)
        .build()
        .expect("session");
    // Coverage keeps every file whole at these scales, so the pipeline's
    // filtered view is the session's parse, `Arc` for `Arc`.
    let filtered = session.pipeline().filtered_sources();
    assert_eq!(filtered.len(), session.parsed_sources().len());
    assert!(filtered
        .iter()
        .zip(session.parsed_sources())
        .all(|(f, b)| Arc::ptr_eq(f, b)));
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
    let mut seen = HashSet::from([model.content_hash()]);
    let mut compared = 0;
    for cs in &plan {
        if !seen.insert(cs.scenario.model.content_hash()) {
            continue;
        }
        let label = format!("{} ({})", cs.scenario.name, cs.detail);
        assert_eq!(
            check_variant(&session, &label, &cs.scenario.model),
            (1, 1),
            "{label}"
        );
        compared += 1;
    }
    compared
}

/// The four source-patched paper experiments against a session at
/// `config`.
fn check_experiments(config: &ModelConfig) {
    let model = generate(config);
    let session = RcaSession::builder(&model)
        .setup(ExperimentSetup::quick())
        .build()
        .expect("session");
    let patched: Vec<Experiment> = Experiment::ALL
        .into_iter()
        .filter(|e| !e.source_patches().is_empty())
        .collect();
    assert_eq!(patched.len(), 4);
    for e in patched {
        let variant = model.apply(e);
        assert_eq!(
            check_variant(&session, e.name(), &variant),
            (1, 1),
            "{}",
            e.name()
        );
    }
}

#[test]
fn shared_parse_compiles_equal_fresh_compiles_over_the_seeded_plan() {
    assert_eq!(
        sweep(&ModelConfig::test(), ExperimentSetup::quick(), 200),
        127
    );
}

#[test]
fn source_patched_experiments_share_all_but_the_patched_file() {
    check_experiments(&ModelConfig::test());
    check_experiments(&ModelConfig::medium());
}

/// Paper scale (run in CI in release:
/// `cargo test --release -p rca-campaign --test shared_parse -- --ignored`).
#[test]
#[ignore = "paper scale: about a minute in release"]
fn shared_parse_compiles_equal_fresh_compiles_at_paper_scale() {
    assert_eq!(
        sweep(&ModelConfig::paper(), ExperimentSetup::default(), 30),
        27
    );
}

fn test_model() -> &'static ModelSource {
    static MODEL: OnceLock<ModelSource> = OnceLock::new();
    MODEL.get_or_init(|| generate(&ModelConfig::test()))
}

fn test_session() -> RcaSession<'static> {
    RcaSession::builder(test_model())
        .setup(ExperimentSetup::quick())
        .build()
        .expect("session")
}

#[test]
fn unparseable_variant_fails_like_compile_model_and_leaves_the_session_intact() {
    let session = test_session();
    let model = test_model();
    let file = &model.files[model.files.len() / 2].name;
    let broken = model.with_patched_line(file, 3, "this is not fortran ((");
    let (shared, events) = traced(|| session.program_for(&broken));
    let Err(RcaError::Runtime(shared)) = shared else {
        panic!("an unparseable variant must fail as a runtime error: {shared:?}");
    };
    let fresh = compile_model(&broken).expect_err("the variant does not parse");
    assert_eq!(shared, fresh, "same message, line and context");
    assert_eq!(shared.context, "loader");
    assert_eq!(parse_counts(&events), vec![]);
    assert_eq!(proc_counts(&events), vec![]);
    assert_eq!(
        session.compiled_programs(),
        1,
        "a failed compile is not cached"
    );

    // A valid variant compiled afterwards still parses only its own file
    // and lowers only its own proc.
    let valid = model.apply(Experiment::GoffGratch);
    assert_eq!(check_variant(&session, "after the failure", &valid), (1, 1));
}

#[test]
fn renamed_added_and_removed_files_parse_every_shifted_position() {
    let session = test_session();
    let model = test_model();
    let n = model.files.len();
    let k = n / 3;

    // A renamed file parses again but lowers nothing: the compiler never
    // reads file names.
    let mut renamed = model.clone();
    renamed.files[k].name = "renamed.F90".to_string();
    assert_eq!(check_variant(&session, "renamed", &renamed), (1, 0));

    // Every other change of the file list changes the module list, so
    // every proc is lowered.
    let procs = session
        .program_for(model)
        .expect("base program")
        .ir_procs()
        .len();

    let mut added = model.clone();
    added.files.insert(
        k,
        ModelFile {
            name: "extra.F90".to_string(),
            component: model.files[k].component,
            source: "module extra\n  real :: spare = 1.0\nend module extra\n".to_string(),
        },
    );
    assert_eq!(check_variant(&session, "added", &added), (n + 1 - k, procs));

    // Moving the driver (the last file) to the front shifts every file.
    let mut moved = model.clone();
    let driver = moved.files.pop().expect("the model has files");
    moved.files.insert(0, driver);
    assert_eq!(check_variant(&session, "moved", &moved), (n, procs));

    // Removing the last filler shifts the driver into its position; the
    // driver's calls into it lower to deferred errors, so both compiles
    // still succeed.
    let mut removed = model.clone();
    removed.files.remove(n - 2);
    let remaining = compile_model(&removed).expect("compiles").ir_procs().len();
    assert!(remaining < procs);
    assert_eq!(check_variant(&session, "removed", &removed), (1, remaining));
}

/// One variant per reason a variant compile lowers every proc; each still
/// builds the program `compile_model` builds.
#[test]
fn interface_changes_lower_every_proc() {
    let session = test_session();
    let model = test_model();
    let procs = session
        .program_for(model)
        .expect("base program")
        .ir_procs()
        .len();
    let file = "phys_aux_004.F90";
    let edit = |label: &str, from: &str, to: &str| {
        let mut variant = model.clone();
        let f = variant
            .files
            .iter_mut()
            .find(|f| f.name == file)
            .expect("the test model has the file");
        assert!(f.source.contains(from), "{label}: {from:?} not in {file}");
        f.source = f.source.replacen(from, to, 1);
        assert_eq!(
            check_variant(&session, label, &variant),
            (1, procs),
            "{label}"
        );
    };
    // A new module variable, declared on an existing line.
    edit(
        "new module variable",
        "  real(r8) :: pa004_a(pcols)\n",
        "  real(r8) :: pa004_a(pcols), pa004_spare(pcols)\n",
    );
    // A new history output name.
    edit(
        "new outfld name",
        "call outfld('AUX001', pa004_a, ncol)",
        "call outfld('AUXNEW', pa004_a, ncol)",
    );
    // A body write to a name nothing declares: a new implicit local, so
    // the frame layout changes.
    edit(
        "implicit local with a new name",
        "      pa004_a(i) = pa004_a(i) + 0.0658_r8",
        "      spare_new = pa004_a(i) + 0.0658_r8",
    );
    // A renamed subprogram (its caller's call now lowers to a deferred
    // error in both compiles).
    edit(
        "renamed subprogram",
        "subroutine phys_aux_004_run2(ncol)",
        "subroutine phys_aux_004_run9(ncol)",
    );
    // An inserted body line: every later subprogram of the file moves,
    // declaration lines included.
    edit(
        "inserted body line",
        "    call outfld('AUX001', pa004_a, ncol)\n",
        "    call outfld('AUX001', pa004_a, ncol)\n    pa004_b(1) = pa004_b(1)\n",
    );
}

#[test]
fn config_only_variant_parses_nothing() {
    let session = test_session();
    let model = test_model();
    let rand_mt = model.apply(Experiment::RandMt);
    assert_eq!(rand_mt.content_hash(), model.content_hash());
    let base = session.program_for(model).expect("base program");
    let (program, events) = traced(|| session.program_for(&rand_mt));
    assert!(Arc::ptr_eq(&program.expect("cached"), &base));
    assert_eq!(
        parse_counts(&events),
        vec![],
        "a config-only variant parses nothing"
    );
    assert_eq!(proc_counts(&events), vec![], "and lowers nothing");
    assert_eq!(session.compiled_programs(), 1);
}
