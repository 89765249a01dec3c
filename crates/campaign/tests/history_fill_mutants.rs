//! History-slice and cone fills against full fills over seeded campaign
//! variants.
//!
//! The sim crate fences [`EnsembleRuns::run_history`] on the paper's
//! experiments; this sweep fences it on the adversarial family — every
//! scenario of the fixed-seed campaign plan (cleans, source mutants, PRNG
//! and FMA config mutants, and the paper experiments), whose injected
//! statements land anywhere in the model, including in statements the
//! history slice drops. The programs are the session's own
//! ([`RcaSession::program_for`]: source mutants compiled as deltas of the
//! base program), and each scenario's experimental fill — the statistics
//! layer's members, perturbations and run configuration — must equal the
//! full-program fill by bits (member health, written lengths, the output
//! table and every step plane) on both paths the statistics stage takes:
//! the history slice, and the cone spliced onto the base program's fill
//! (whose slice, for a cone of every output, is the variant's history
//! slice). Every output outside a variant's cone must read the base
//! fill's bits in the variant's own full fill, and each path of the cone
//! fill is hit.

use rca_campaign::{plan_campaign, CampaignOptions};
use rca_core::experiments::{IC_MAGNITUDE, MAX_RETRIES};
use rca_core::{ExperimentSetup, RcaSession};
use rca_model::{generate, Experiment, ModelConfig, ModelSource};
use rca_obs::Collector;
use rca_sim::{
    compile_model, output_cone, perturbations, EnsembleRuns, Fault, FaultKind, FaultPlan,
    MemberHealth, Program, RunConfig,
};
use std::sync::{Arc, OnceLock};

/// The path a fill given a base took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    /// The members ran the cone slice.
    Cone,
    /// The base fill came back whole.
    BaseReuse,
    /// The variant's own history slice or full program: the base went
    /// unused, or a slice member failed.
    Fallback,
}

/// The path of `fill`, a fill of `program` given a base fill whose
/// program is the full base program (so a reused base fill is told apart
/// from the base program's own history fill).
fn path_of(fill: &EnsembleRuns, program: &Arc<Program>, base_fill: &EnsembleRuns) -> Path {
    let ran = fill.program();
    if Arc::ptr_eq(ran, base_fill.program()) {
        Path::BaseReuse
    } else if Arc::ptr_eq(ran, program)
        || program
            .history_program()
            .is_some_and(|h| Arc::ptr_eq(ran, h))
    {
        Path::Fallback
    } else {
        Path::Cone
    }
}

/// Whether output `o` reads the same bits in every member of `a` and `b`.
fn same_column(a: &EnsembleRuns, b: &EnsembleRuns, o: usize) -> bool {
    (0..a.members()).all(|m| {
        a.written_of(m)[o] == b.written_of(m)[o]
            && (0..a.steps())
                .all(|s| a.step_plane(m, s)[o].to_bits() == b.step_plane(m, s)[o].to_bits())
    })
}

/// How often each path was taken.
#[derive(Debug, Default)]
struct Paths {
    compared: usize,
    cone: usize,
    full_cone: usize,
    base_reuse: usize,
    fallback: usize,
}

/// Sweeps the seed-51966 plan of `scenarios` entries plus the paper
/// experiments.
fn sweep(config: &ModelConfig, setup: ExperimentSetup, scenarios: usize) -> Paths {
    let model = Arc::new(generate(config));
    let session = RcaSession::builder(&model)
        .setup(setup)
        .build()
        .expect("session");
    let setup = session.setup();
    let base = session.program_for(&model).expect("base program");
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
    // The experimental side of `RcaSession::statistics_scenario`.
    let perts = perturbations(setup.n_experiment, IC_MAGNITUDE, setup.seed ^ 0xDEAD);
    // Full fills by program and configuration: the base program's double
    // as the base fills (equal to its history fill by bits, and told
    // apart from it by program).
    let mut fulls: Vec<(Arc<Program>, RunConfig, Arc<EnsembleRuns>)> = Vec::new();
    let mut full_fill = |program: &Arc<Program>, cfg: &RunConfig| {
        let hit = fulls
            .iter()
            .find(|(p, c, _)| Arc::ptr_eq(p, program) && c == cfg);
        if let Some((_, _, fill)) = hit {
            return Arc::clone(fill);
        }
        let fill = Arc::new(EnsembleRuns::run_resilient(
            program,
            cfg,
            &perts,
            MAX_RETRIES,
        ));
        fulls.push((Arc::clone(program), cfg.clone(), Arc::clone(&fill)));
        fill
    };
    let mut paths = Paths::default();
    for cs in &plan {
        let label = format!("{} ({})", cs.scenario.name, cs.detail);
        let program = session
            .program_for(&cs.scenario.model)
            .expect("planned mutants compile");
        let cfg = &cs.scenario.config;
        let full = full_fill(&program, cfg);
        let history = EnsembleRuns::run_history(&program, cfg, &perts, MAX_RETRIES, None);
        if let Some(diff) = full.data_mismatch(&history) {
            panic!("{label}: history fill differs from the full fill: {diff}");
        }
        // Non-vacuous: only a failing member sends the fill back to the
        // full program.
        assert_eq!(
            Arc::ptr_eq(history.program(), &program),
            full.first_failure().is_some(),
            "{label}: wrong fill path"
        );
        paths.compared += 1;
        if !cfg.is_plain() {
            continue;
        }
        let base_fill = full_fill(&base, cfg);
        let spliced = EnsembleRuns::run_history(
            &program,
            cfg,
            &perts,
            MAX_RETRIES,
            Some((&base, &base_fill)),
        );
        if let Some(diff) = full.data_mismatch(&spliced) {
            panic!("{label}: cone fill differs from the full fill: {diff}");
        }
        let path = path_of(&spliced, &program, &base_fill);
        let cone = output_cone(&program, &base);
        let expected = match &cone {
            None => Path::Fallback,
            Some(c) if c.is_empty() => Path::BaseReuse,
            // Only a failing cone member sends a cone to the full refill.
            Some(_) if full.first_failure().is_some() => Path::Fallback,
            Some(_) => Path::Cone,
        };
        assert_eq!(path, expected, "{label}: cone {cone:?}");
        // A cone of every output runs the variant's history slice.
        if path == Path::Cone && cone.as_ref().map(Vec::len) == Some(base.output_count()) {
            let history = program.history_program().expect("the history slice prunes");
            assert_eq!(
                spliced.program().disassemble(),
                history.disassemble(),
                "{label}: the full cone's slice is not the history slice"
            );
            paths.full_cone += 1;
        }
        match path {
            Path::Cone => paths.cone += 1,
            Path::BaseReuse => paths.base_reuse += 1,
            Path::Fallback => paths.fallback += 1,
        }
        // The cone covers every output the variant changes.
        if let (Some(cone), None) = (&cone, full.first_failure()) {
            for o in (0..base.output_count()).filter(|o| !cone.contains(&(*o as u32))) {
                assert!(
                    same_column(&full, &base_fill, o),
                    "{label}: output {} outside the cone {cone:?} differs from the base fill",
                    base.output_names()[o]
                );
            }
        }
    }
    assert!(
        paths.cone > 0 && paths.full_cone > 0 && paths.base_reuse > 0,
        "the plan must fill cones, one of every output among them, and reuse the base fill: \
         {paths:?}"
    );
    paths
}

#[test]
fn history_fills_match_full_fills_over_the_seeded_plan() {
    // 200 planned entries (40 cleans, 160 mutants) plus the 7 paper
    // experiments.
    let paths = sweep(&ModelConfig::test(), ExperimentSetup::quick(), 200);
    assert_eq!(paths.compared, 207, "{paths:?}");
}

/// Paper scale (run in CI in release:
/// `cargo test --release -p rca-campaign --test history_fill_mutants -- --ignored`).
#[test]
#[ignore = "paper scale: about half a minute in release"]
fn history_fills_match_full_fills_over_the_seeded_plan_at_paper_scale() {
    let paths = sweep(&ModelConfig::paper(), ExperimentSetup::default(), 30);
    assert_eq!(paths.compared, 37, "{paths:?}");
}

/// A fresh session on the test-scale model (no variant compiled or
/// filled yet), its base program, and the base program's fill of the
/// statistics layer's experimental members under the control
/// configuration.
struct Fixture {
    model: &'static ModelSource,
    session: RcaSession<'static>,
    base: Arc<Program>,
    perts: Vec<f64>,
    cfg: RunConfig,
    base_fill: EnsembleRuns,
}

impl Fixture {
    fn new() -> Fixture {
        static MODEL: OnceLock<ModelSource> = OnceLock::new();
        let model = MODEL.get_or_init(|| generate(&ModelConfig::test()));
        let session = RcaSession::builder(model)
            .setup(ExperimentSetup::quick())
            .build()
            .expect("session");
        let setup = session.setup();
        let base = session.program_for(model).expect("base program");
        let perts = perturbations(setup.n_experiment, IC_MAGNITUDE, setup.seed ^ 0xDEAD);
        let cfg = session.control_config();
        let base_fill = EnsembleRuns::run_resilient(&base, &cfg, &perts, MAX_RETRIES);
        Fixture {
            model,
            session,
            base,
            perts,
            cfg,
            base_fill,
        }
    }

    /// Fills `program` under `cfg` given the base program and `base_fill`,
    /// asserts the fill equals the full fill by bits, and returns the
    /// fill, the full fill and the spans the fill opened on this thread.
    fn fill(
        &self,
        label: &str,
        program: &Arc<Program>,
        cfg: &RunConfig,
        base_fill: &EnsembleRuns,
    ) -> (EnsembleRuns, EnsembleRuns, Arc<Collector>) {
        let full = EnsembleRuns::run_resilient(program, cfg, &self.perts, MAX_RETRIES);
        let spans = Arc::new(Collector::new());
        let fill = rca_obs::with_sink(Arc::clone(&spans), || {
            let base = Some((&*self.base, base_fill));
            EnsembleRuns::run_history(program, cfg, &self.perts, MAX_RETRIES, base)
        });
        if let Some(diff) = full.data_mismatch(&fill) {
            panic!("{label}: fill differs from the full fill: {diff}");
        }
        (fill, full, spans)
    }

    /// Whether `program`'s cone holds some outputs but not all.
    fn partial(&self, program: &Program) -> bool {
        output_cone(program, &self.base)
            .is_some_and(|c| !c.is_empty() && c.len() < self.base.output_count())
    }

    /// `model` with line `line` of file `file` replaced, compiled by the
    /// session as a delta of the base program.
    fn patched(&self, file: &str, line: usize, text: &str) -> Arc<Program> {
        let variant = self.model.with_patched_line(file, line, text);
        self.session.program_for(&variant).expect("compiles")
    }

    /// A constant changed in `cam_init`, which is live for every output,
    /// so every output is in the cone.
    fn every_output(&self) -> Arc<Program> {
        let driver = self
            .model
            .files
            .iter()
            .find(|f| f.name == "cam_driver.F90")
            .expect("driver");
        let (line, text) = driver
            .source
            .lines()
            .enumerate()
            .find(|(_, l)| l.contains("state%omega(i) = 0.01_r8"))
            .expect("cam_init sets omega");
        let program = self.patched(&driver.name, line, &text.replace("0.01_r8", "0.02_r8"));
        assert_eq!(
            output_cone(&program, &self.base).map(|c| c.len()),
            Some(self.base.output_count())
        );
        program
    }

    /// A loop one element past its arrays, in a proc some outputs but not
    /// all need: the effects are unchanged, so the cone stands, and its
    /// members fail.
    fn failing_cone_member(&self) -> Arc<Program> {
        self.model
            .files
            .iter()
            .flat_map(|f| {
                let lines = f.source.lines().enumerate();
                lines
                    .filter(|(_, l)| l.trim() == "do i = 1, ncol")
                    .map(move |(i, l)| (f, i, l.replace("ncol", "ncol + 1")))
            })
            .map(|(f, i, l)| self.patched(&f.name, i, &l))
            .find(|p| self.partial(p))
            .expect("a loop in a proc with a partial cone")
    }
}

/// Each way a fill given a base cannot use it falls back to the variant's
/// own history slice or full program and still equals the full fill: a
/// configuration that is not plain, a variant compiled without the base's
/// tables, and a base fill with a member that is not healthy.
#[test]
fn cone_fills_fall_back_to_the_history_path() {
    let f = Fixture::new();
    let fall_back = |label: &str, program: &Arc<Program>, cfg: &RunConfig, base_fill| {
        let (fill, _, _) = f.fill(label, program, cfg, base_fill);
        assert_eq!(
            path_of(&fill, program, base_fill),
            Path::Fallback,
            "{label}"
        );
    };
    let wsub = f
        .session
        .program_for(&f.model.apply(Experiment::WsubBug))
        .expect("compiles");
    assert!(f.partial(&wsub), "WSUBBUG's cone is partial");
    let fuel = RunConfig {
        fuel: Some(u64::MAX),
        ..f.cfg.clone()
    };
    fall_back("fuel budget", &wsub, &fuel, &f.base_fill);
    let own_tables = compile_model(&f.model.apply(Experiment::WsubBug)).expect("compiles");
    assert!(output_cone(&own_tables, &f.base).is_none());
    fall_back("own tables", &own_tables, &f.cfg, &f.base_fill);
    let retried = RunConfig {
        faults: FaultPlan {
            faults: vec![Fault {
                member: 0,
                step: 1,
                output: 0,
                kind: FaultKind::Abort,
                persistent: false,
            }],
        },
        ..f.cfg.clone()
    };
    let sick = EnsembleRuns::run_resilient(&f.base, &retried, &f.perts, MAX_RETRIES);
    assert_ne!(sick.health()[0], MemberHealth::Healthy);
    fall_back("recovered base member", &wsub, &f.cfg, &sick);
}

/// A cone of every output fills on its cone slice, which is the variant's
/// history slice statement for statement: the fill decides the cone once
/// and never builds the history slice.
#[test]
fn a_cone_of_every_output_fills_on_its_cone_slice() {
    let f = Fixture::new();
    let program = f.every_output();
    let (fill, _, spans) = f.fill("every output", &program, &f.cfg, &f.base_fill);
    assert_eq!(spans.spans_named("statistics.cone"), 1);
    assert_eq!(
        spans.spans_named("compile.history"),
        0,
        "a history slice was built"
    );
    assert_eq!(path_of(&fill, &program, &f.base_fill), Path::Cone);
    let history = program.history_program().expect("the history slice prunes");
    assert_eq!(fill.program().disassemble(), history.disassemble());
}

/// A cone member that fails sends the fill straight to the full refill:
/// no history slice is built or filled in between.
#[test]
fn a_failing_cone_member_refills_on_the_full_program() {
    let f = Fixture::new();
    let program = f.failing_cone_member();
    let (fill, full, spans) = f.fill("failing cone member", &program, &f.cfg, &f.base_fill);
    assert!(full.first_failure().is_some(), "the mutant fails");
    assert_eq!(spans.spans_named("statistics.cone"), 1);
    assert_eq!(
        spans.spans_named("compile.history"),
        0,
        "a history slice was built"
    );
    assert!(
        Arc::ptr_eq(fill.program(), &program),
        "the full program refilled"
    );
}
