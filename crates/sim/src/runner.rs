//! Model execution driver: parsing, compiling and single runs.
//!
//! Mirrors the paper's experimental setup: an *ensemble* of runs differing
//! only in O(10⁻¹⁴) initial-condition perturbations (the CESM-ECT
//! methodology of refs [2, 24]), plus *experimental* runs with a bug
//! injected or the run configuration changed.
//!
//! Execution goes through the **parse → compile → execute** pipeline:
//! [`compile_model`] lowers the source into a shared [`Program`] exactly
//! once, and every run — each ensemble member, each refinement-oracle
//! sample — is an [`Executor`] over that program. A single run comes
//! back as the owned [`RunOutput`]; ensembles live only in the columnar
//! [`crate::EnsembleRuns`] store, where each rayon worker leases one
//! pooled executor, resets it between members, and publishes every run
//! into one contiguous history block.

use crate::exec::Executor;
use crate::interp::{Interpreter, RunConfig, RuntimeError};
use crate::program::Program;
use crate::store::RunCoverage;
use crate::value::Value;
use rca_fortran::{ParseError, SourceFile};
use rca_ident::OutputId;
use rca_model::{ModelFile, ModelSource};
use std::sync::Arc;

/// Results of one model run, **dense** end to end: histories are
/// `Vec`-backed buffers indexed by `OutputId` over the shared sorted
/// output table, samples are positional over `config.samples`, and
/// coverage is id-keyed ([`RunCoverage`]). Assembling a `RunOutput`
/// copies no name strings, and downstream matrix assembly indexes
/// columns without hashing a single key.
///
/// This is the **single-run edge type** ([`run_program`],
/// [`run_loaded`], [`crate::EnsembleRuns::materialize`]): hot paths
/// (ensemble statistics, oracle sampling) run on the columnar store or
/// directly on executor state and never build one.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Sorted output-name table (shared `Arc` across every run of one
    /// program); `OutputId` values index it.
    pub output_names: Arc<[Arc<str>]>,
    /// `history[i]` = per-step global means of `output_names[i]`; an
    /// empty series means the output was never written this run.
    pub history: Vec<Vec<f64>>,
    /// `samples[i]` = captured values of `config.samples[i]` (`None` when
    /// the spec was never captured).
    pub samples: Vec<Option<Vec<f64>>>,
    /// Executed subprograms, keyed by the identity plane (strings render
    /// at the edge).
    pub coverage: RunCoverage,
}

impl RunOutput {
    /// Dense index of `name` in this run's output table (binary search
    /// over the sorted table — no hashing, no allocation).
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.output_names.binary_search_by(|n| (**n).cmp(name)).ok()
    }

    /// Series written for `name`, if any.
    pub fn series(&self, name: &str) -> Option<&[f64]> {
        let s = &self.history[self.index_of(name)?];
        (!s.is_empty()).then_some(s.as_slice())
    }

    /// `(name, series)` pairs of every output written this run, in sorted
    /// name order.
    pub fn history_iter(&self) -> impl Iterator<Item = (&Arc<str>, &Vec<f64>)> {
        self.output_names
            .iter()
            .zip(&self.history)
            .filter(|(_, s)| !s.is_empty())
    }

    /// Id-keyed variant of [`RunOutput::history_iter`]: `(OutputId,
    /// series)` for every written output, in id (= sorted-name) order —
    /// no `Arc` refcount traffic, nothing allocated.
    pub fn history_iter_ids(&self) -> impl Iterator<Item = (OutputId, &[f64])> {
        self.history
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_empty())
            .map(|(i, s)| (OutputId(i as u32), s.as_slice()))
    }

    /// Number of outputs written this run.
    pub fn written_count(&self) -> usize {
        self.history.iter().filter(|s| !s.is_empty()).count()
    }

    /// Id-keyed output values at `step`, in id (= sorted-name) order —
    /// the non-allocating variant loops should consume; resolve an id
    /// through the shared table only at the rendering edge.
    pub fn outputs_at_ids(&self, step: u32) -> impl Iterator<Item = (OutputId, f64)> + '_ {
        self.history_iter_ids()
            .filter_map(move |(id, v)| v.get(step as usize).map(|&x| (id, x)))
    }

    /// Output values at `step` in sorted-name order (names are shared
    /// `Arc`s — cloning a pair is a refcount bump, not a string copy).
    pub fn outputs_at(&self, step: u32) -> Vec<(Arc<str>, f64)> {
        self.outputs_at_ids(step)
            .map(|(id, x)| (self.output_names[id.index()].clone(), x))
            .collect()
    }
}

/// Parses a model's files into shared ASTs, one `Arc` per file in file
/// order, failing with the first diagnostic of the first file that has
/// one.
///
/// With a `base` — a model and the files `parse_model` returned for it —
/// every file whose name and text equal the base's file at the same
/// position comes back as the base's `Arc`, and only the others are
/// parsed. [`rca_fortran::parse_source`] is a pure function of name and
/// text, so the result equals a fresh parse value for value whatever the
/// base. A successful parse emits a `parse.files` event under the
/// current span with how many files were `parsed` and how many `reused`.
pub fn parse_model(
    model: &ModelSource,
    base: Option<(&ModelSource, &[Arc<SourceFile>])>,
) -> Result<Vec<Arc<SourceFile>>, ParseError> {
    let mut files = Vec::with_capacity(model.files.len());
    let mut parsed = 0usize;
    for (i, f) in model.files.iter().enumerate() {
        let shared = base.and_then(|(base_model, base_files)| {
            let same = |b: &&ModelFile| b.name == f.name && b.source == f.source;
            base_model
                .files
                .get(i)
                .filter(same)
                .and(base_files.get(i))
                .cloned()
        });
        let ast = match shared {
            Some(ast) => ast,
            None => {
                parsed += 1;
                let (ast, errs) = rca_fortran::parse_source(&f.name, &f.source);
                if let Some(e) = errs.into_iter().next() {
                    return Err(e);
                }
                Arc::new(ast)
            }
        };
        files.push(ast);
    }
    rca_obs::event(
        "parse.files",
        &[
            ("parsed", parsed.into()),
            ("reused", (files.len() - parsed).into()),
        ],
    );
    Ok(files)
}

/// Parses and compiles a model into a shareable [`Program`].
///
/// This is the expensive, once-per-variant step; see [`run_program`] /
/// [`crate::EnsembleRuns::run`] for the cheap, many-times-per-variant
/// part. Every file is parsed and every proc lowered; [`compile_variant`]
/// shares both with a base model instead.
pub fn compile_model(model: &ModelSource) -> Result<Arc<Program>, RuntimeError> {
    compile_variant(model, None)
}

/// What a variant compile shares with its base model: the model, the
/// files [`parse_model`] returned for it and, once compiled, the program
/// compiled from exactly those files.
pub type VariantBase<'a> = (&'a ModelSource, &'a [Arc<SourceFile>], Option<&'a Program>);

/// [`compile_model`] for a variant of an already-parsed base
/// ([`VariantBase`]).
///
/// Only the files that differ from the base's are parsed. With a base
/// program the variant is lowered against it: when the interface (module
/// list, module `use`s, types, declarations and interfaces, subprogram
/// signatures and declarations, the `outfld` name set) equals the base's,
/// every proc whose subprogram is unchanged is the base's `Arc`, tree IR
/// and bytecode in one, the program-wide tables are the base's, and only
/// the changed procs are lowered — one proc for a one-line mutant.
/// Otherwise every proc is lowered. The program is the one
/// [`compile_model`] builds, bit for bit, and a parse failure is the same
/// `loader` error.
pub fn compile_variant(
    model: &ModelSource,
    base: Option<VariantBase<'_>>,
) -> Result<Arc<Program>, RuntimeError> {
    let _span = rca_obs::span("phase.compile");
    rca_obs::counter_inc!("sim.compiles", 1);
    let files = {
        let _span = rca_obs::span("compile.parse");
        parse_model(model, base.map(|(m, f, _)| (m, f))).map_err(|e| RuntimeError {
            message: format!("model does not parse: {e}"),
            context: "loader".to_string(),
            line: e.line,
        })?
    };
    let base = base.and_then(|(_, f, p)| Some((f, p?)));
    Ok(Arc::new(crate::compile::compile_against(&files, base)?))
}

/// Runs the model once: `cam_init(pert)` then `steps` × `cam_run_step`.
///
/// Convenience over [`compile_model`] + [`run_program`]; callers running a
/// model more than once should compile once and share the program.
pub fn run_model(
    model: &ModelSource,
    config: &RunConfig,
    pert: f64,
) -> Result<RunOutput, RuntimeError> {
    let program = compile_model(model)?;
    run_program(&program, config, pert)
}

/// Runs a compiled program once through the standard driver sequence and
/// materializes the owned edge type. Callers running many variants of one
/// configuration should pool an [`Executor`] ([`Executor::reset`]) or fill
/// a [`crate::EnsembleRuns`] store instead.
pub fn run_program(
    program: &Arc<Program>,
    config: &RunConfig,
    pert: f64,
) -> Result<RunOutput, RuntimeError> {
    let mut ex = Executor::new(Arc::clone(program), config);
    ex.drive(pert)?;
    Ok(ex.into_run_output())
}

/// Drives an already-loaded tree-walking interpreter through a full
/// simulation. Retained for the reference engine (differential testing
/// and spot verification against [`run_program`]).
pub fn run_loaded(
    interp: &mut Interpreter,
    config: &RunConfig,
    pert: f64,
) -> Result<RunOutput, RuntimeError> {
    interp.call("cam_init", &[Value::Real(pert)])?;
    for step in 0..config.steps {
        interp.set_step(step);
        interp.call("cam_run_step", &[])?;
        if config.sample_step == Some(step) {
            interp.capture_module_samples();
        }
    }
    // The interpreter only knows the outputs it actually wrote; its table
    // is the written set (sorted). Comparisons go through
    // `history_iter`/`series`, which skip unwritten outputs on the
    // compiled side, so the two engines remain directly comparable.
    let names = interp.history.names();
    let output_names: Arc<[Arc<str>]> = names
        .iter()
        .map(|n| Arc::from(n.as_str()))
        .collect::<Vec<Arc<str>>>()
        .into();
    let history = names
        .iter()
        .map(|n| {
            interp
                .history
                .series(n)
                .map(<[f64]>::to_vec)
                .unwrap_or_default()
        })
        .collect();
    let samples = config
        .samples
        .iter()
        .map(|spec| interp.samples.get(&spec.key()).cloned())
        .collect();
    Ok(RunOutput {
        output_names,
        history,
        samples,
        // The reference engine has no interner; its string pairs enter
        // the identity plane here, at the edge.
        coverage: RunCoverage::from_pairs(
            interp
                .coverage
                .iter()
                .map(|(m, s)| (m.as_str(), s.as_str())),
        ),
    })
}

/// Deterministic initial-condition perturbations of the requested
/// magnitude (the CESM ensemble uses O(10⁻¹⁴) temperature perturbations).
pub fn perturbations(n: usize, magnitude: f64, seed: u64) -> Vec<f64> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let u = (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64;
            magnitude * (2.0 * u - 1.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rca_model::{generate, Experiment, ModelConfig};

    fn cfg() -> RunConfig {
        RunConfig {
            steps: 3,
            ..Default::default()
        }
    }

    #[test]
    fn full_model_runs() {
        let model = generate(&ModelConfig::test());
        let out = run_model(&model, &cfg(), 0.0).expect("model run");
        assert!(
            out.series("wsub").is_some(),
            "outputs: {:?}",
            out.output_names
        );
        assert!(out.series("flds").is_some());
        assert!(out.series("omega").is_some());
        assert!(out.series("snowhlnd").is_some());
        // Every output finite at the last step.
        for (name, series) in out.history_iter() {
            let last = series.last().copied().unwrap_or(f64::NAN);
            assert!(last.is_finite(), "{name} = {last}");
        }
        // Coverage includes core physics.
        assert!(out.coverage.contains("micro_mg", "micro_mg_tend"));
    }

    #[test]
    fn identical_perturbations_are_bitwise_identical() {
        let model = generate(&ModelConfig::test());
        let a = run_model(&model, &cfg(), 1e-14).unwrap();
        let b = run_model(&model, &cfg(), 1e-14).unwrap();
        for (name, series) in a.history_iter() {
            assert_eq!(
                series.as_slice(),
                b.series(name.as_ref()).unwrap(),
                "{name} not reproducible"
            );
        }
    }

    #[test]
    fn perturbations_change_output() {
        let model = generate(&ModelConfig::test());
        let a = run_model(&model, &cfg(), 0.0).unwrap();
        let b = run_model(&model, &cfg(), 1e-10).unwrap();
        let diff = a
            .history_iter()
            .filter(|(name, series)| series.last() != b.series(name.as_ref()).unwrap().last())
            .count();
        assert!(diff > 0, "perturbation must move at least one output");
    }

    #[test]
    fn bugged_models_run_and_differ() {
        let model = generate(&ModelConfig::test());
        let base = run_model(&model, &cfg(), 0.0).unwrap();
        for e in [
            Experiment::WsubBug,
            Experiment::GoffGratch,
            Experiment::Dyn3Bug,
            Experiment::RandomBug,
        ] {
            let bugged = model.apply(e);
            let out = run_model(&bugged, &cfg(), 0.0).unwrap();
            let changed = base
                .history_iter()
                .any(|(name, series)| series.last() != out.series(name.as_ref()).unwrap().last());
            assert!(changed, "{e:?} must change some output");
        }
    }

    #[test]
    fn wsubbug_moves_wsub_by_factor() {
        let model = generate(&ModelConfig::test());
        let base = run_model(&model, &cfg(), 0.0).unwrap();
        let bugged = run_model(&model.apply(Experiment::WsubBug), &cfg(), 0.0).unwrap();
        let w0 = base.series("wsub").unwrap().last().unwrap();
        let w1 = bugged.series("wsub").unwrap().last().unwrap();
        assert!(w1 / w0 > 2.0, "wsub should grow: {w0} -> {w1}");
        // Bug is isolated: flds untouched (wsub feeds nothing else).
        assert_eq!(
            base.series("flds").unwrap().last(),
            bugged.series("flds").unwrap().last(),
            "wsub bug must stay isolated from radiation"
        );
    }

    #[test]
    fn ensemble_parallel_matches_serial() {
        let model = generate(&ModelConfig::test());
        let program = compile_model(&model).expect("compile");
        let perts = perturbations(4, 1e-14, 42);
        let ens = crate::EnsembleRuns::run(&program, &cfg(), &perts).unwrap();
        let serial = run_model(&model, &cfg(), perts[2]).unwrap();
        assert_eq!(ens.materialize(2).series("flds"), serial.series("flds"));
    }

    #[test]
    fn perturbations_deterministic_and_bounded() {
        let a = perturbations(10, 1e-14, 5);
        let b = perturbations(10, 1e-14, 5);
        assert_eq!(a, b);
        assert!(a.iter().all(|v| v.abs() <= 1e-14));
        assert!(a.iter().any(|v| *v != 0.0));
    }

    #[test]
    fn mt_prng_changes_cloud_outputs_only_slightly_elsewhere() {
        let model = generate(&ModelConfig::test());
        let base = run_model(&model, &cfg(), 0.0).unwrap();
        let mut mt_cfg = cfg();
        mt_cfg.prng = crate::prng::PrngKind::MersenneTwister;
        let mt = run_model(&model, &mt_cfg, 0.0).unwrap();
        // flds depends directly on the PRNG-perturbed overlap.
        assert_ne!(
            base.series("flds").unwrap().last(),
            mt.series("flds").unwrap().last(),
            "PRNG swap must move longwave fluxes"
        );
        // wsub is isolated from clouds entirely.
        assert_eq!(base.series("wsub"), mt.series("wsub"));
    }

    #[test]
    fn avx2_enables_detectable_differences() {
        let model = generate(&ModelConfig::test());
        let base = run_model(&model, &cfg(), 0.0).unwrap();
        let mut fma_cfg = cfg();
        fma_cfg.avx2 = crate::interp::Avx2Policy::AllModules;
        let fma = run_model(&model, &fma_cfg, 0.0).unwrap();
        let changed = base
            .history_iter()
            .filter(|(name, series)| series.last() != fma.series(name.as_ref()).unwrap().last())
            .count();
        assert!(changed > 0, "FMA contraction must alter some outputs");
    }

    #[test]
    fn compiled_program_is_shared_across_ensemble() {
        let model = generate(&ModelConfig::test());
        let program = compile_model(&model).expect("compile");
        let perts = perturbations(3, 1e-14, 9);
        let ens = crate::EnsembleRuns::run(&program, &cfg(), &perts).unwrap();
        assert_eq!(ens.members(), 3);
        // Same program, same pert => identical bits; the output table is
        // the program's own, shared by reference.
        let first = ens.materialize(0);
        let again = run_program(&program, &cfg(), perts[0]).unwrap();
        assert_eq!(first.history, again.history);
        assert!(Arc::ptr_eq(&first.output_names, program.output_names()));
    }
}
