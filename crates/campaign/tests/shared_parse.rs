//! Shared-parse compiles against fresh ones over seeded campaign mutants.
//!
//! A session parses its base model once; [`RcaSession::program_for`]
//! compiles a variant against that parse, keeping the base's AST for
//! every file whose name and text equal the base file at the same
//! position and parsing only the rest. This sweep fences the reuse on
//! every source mutant of the fixed-seed campaign plan and on the paper's
//! source-patched experiments: the shared parse must equal a fresh
//! `ModelSource::parse` value for value, share exactly the unchanged
//! files, and compile to the program `compile_model` builds (same
//! bytecode disassembly, same output table). The edge cases below cover
//! parse failures, renamed, added and removed files, and config-only
//! variants.

use rca_campaign::{plan_campaign, CampaignOptions};
use rca_core::{ExperimentSetup, RcaError, RcaSession};
use rca_model::{generate, Experiment, ModelConfig, ModelFile, ModelSource};
use rca_obs::{Collector, FieldValue};
use rca_sim::{compile_model, parse_model};
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

/// `(parsed, reused)` of every `parse.files` event `f` emits on this
/// thread.
fn parse_counts<R>(f: impl FnOnce() -> R) -> (R, Vec<(u64, u64)>) {
    let collector = Arc::new(Collector::new());
    let out = rca_obs::with_sink(collector.clone(), f);
    let field = |fields: &[(&str, FieldValue)], key: &str| match fields.iter().find(|f| f.0 == key)
    {
        Some((_, FieldValue::U64(n))) => *n,
        other => panic!("parse.files without a {key} count: {other:?}"),
    };
    let counts = collector
        .events_named("parse.files")
        .iter()
        .map(|e| (field(e, "parsed"), field(e, "reused")))
        .collect();
    (out, counts)
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
/// its compile parsed.
fn check_variant(session: &RcaSession<'_>, label: &str, variant: &ModelSource) -> usize {
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

    // 3. The session compiles the program `compile_model` builds, and
    // its compile parses only the changed files.
    let (program, counts) = parse_counts(|| session.program_for(variant));
    let program = program.unwrap_or_else(|e| panic!("{label}: {e}"));
    let parsed = changed.len() as u64;
    assert_eq!(
        counts,
        vec![(parsed, variant.files.len() as u64 - parsed)],
        "{label}: parse counts"
    );
    let reference = compile_model(variant).expect("the variant compiles");
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
    changed.len()
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
            1,
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
            1,
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
    let (shared, counts) = parse_counts(|| session.program_for(&broken));
    let Err(RcaError::Runtime(shared)) = shared else {
        panic!("an unparseable variant must fail as a runtime error: {shared:?}");
    };
    let fresh = compile_model(&broken).expect_err("the variant does not parse");
    assert_eq!(shared, fresh, "same message, line and context");
    assert_eq!(shared.context, "loader");
    assert_eq!(counts, vec![]);
    assert_eq!(
        session.compiled_programs(),
        1,
        "a failed compile is not cached"
    );

    // A valid variant compiled afterwards still parses only its own file.
    let valid = model.apply(Experiment::GoffGratch);
    assert_eq!(check_variant(&session, "after the failure", &valid), 1);
}

#[test]
fn renamed_added_and_removed_files_parse_every_shifted_position() {
    let session = test_session();
    let model = test_model();
    let n = model.files.len();
    let k = n / 3;

    let mut renamed = model.clone();
    renamed.files[k].name = "renamed.F90".to_string();
    assert_eq!(check_variant(&session, "renamed", &renamed), 1);

    let mut added = model.clone();
    added.files.insert(
        k,
        ModelFile {
            name: "extra.F90".to_string(),
            component: model.files[k].component,
            source: "module extra\n  real :: spare = 1.0\nend module extra\n".to_string(),
        },
    );
    assert_eq!(check_variant(&session, "added", &added), n + 1 - k);

    // Moving the driver (the last file) to the front shifts every file.
    let mut moved = model.clone();
    let driver = moved.files.pop().expect("the model has files");
    moved.files.insert(0, driver);
    assert_eq!(check_variant(&session, "moved", &moved), n);

    // Removing the last filler shifts the driver into its position; the
    // driver's calls into it lower to deferred errors, so both compiles
    // still succeed.
    let mut removed = model.clone();
    removed.files.remove(n - 2);
    assert_eq!(check_variant(&session, "removed", &removed), 1);
}

#[test]
fn config_only_variant_parses_nothing() {
    let session = test_session();
    let model = test_model();
    let rand_mt = model.apply(Experiment::RandMt);
    assert_eq!(rand_mt.content_hash(), model.content_hash());
    let base = session.program_for(model).expect("base program");
    let (program, counts) = parse_counts(|| session.program_for(&rand_mt));
    assert!(Arc::ptr_eq(&program.expect("cached"), &base));
    assert_eq!(counts, vec![], "a config-only variant parses nothing");
    assert_eq!(session.compiled_programs(), 1);
}
