//! The `RcaSession` facade: one entry point for the paper's workflow.
//!
//! The pipeline of Milroy et al. (HPDC 2019, Fig. 1) is a fixed staged
//! sequence — statistics → graph compilation → slicing → Algorithm 5.4
//! refinement — and this module packages it behind a builder-configured
//! session that diagnoses [`Scenario`]s:
//!
//! ```no_run
//! use rca_core::{ExperimentSetup, OracleKind, RcaSession, Scenario};
//! use rca_model::{generate, Experiment, ModelConfig};
//! use std::sync::Arc;
//!
//! let model = Arc::new(generate(&ModelConfig::test()));
//! let session = RcaSession::builder(&model)
//!     .setup(ExperimentSetup::quick())
//!     .oracle(OracleKind::Runtime)
//!     .build()?;
//! let goffgratch = Scenario::paper(&model, session.setup(), Experiment::GoffGratch);
//! let diagnosis = session.diagnose_scenario(&goffgratch)?;
//! println!("{}", diagnosis.render());
//! # Ok::<(), rca_core::RcaError>(())
//! ```
//!
//! Callers that need the granular control of the old free functions use
//! the **typed stage handles** instead: [`RcaSession::statistics_scenario`]
//! returns a [`Statistics`] stage, whose [`Statistics::slice`] consumes it
//! into a [`Sliced`] stage, whose [`Sliced::refine`]/[`Sliced::refine_with`]
//! consume it into [`Refined`]. Because each stage is only constructible
//! from its predecessor, the pipeline cannot be run out of order at
//! compile time — there is no way to refine before slicing or slice
//! before the statistics exist.
//!
//! # Scenarios
//!
//! A [`Scenario`] is any experimental model variant plus run
//! configuration, with optional ground truth; [`Scenario::paper`] builds
//! one of the paper's six experiments (and the control). The same
//! pipeline serves the paper's experiments and the `rca-campaign`
//! fault-injection engine: the session's expensive experiment-independent
//! state (parse, coverage, metagraph, **and the control ensemble + fitted
//! ECT**) is computed once and shared by every scenario, so N-scenario
//! campaigns scale with the per-scenario work only. Sessions are `Sync`;
//! scenarios can be diagnosed from parallel threads against one shared
//! session.

use crate::error::RcaError;
use crate::experiments::{
    collect_ensemble, evaluate_against_ensemble, experiment_configs, BaseFills, DegradedEnsemble,
    EnsembleStats, ExperimentData, ExperimentSetup,
};
use crate::oracle::{Oracle, ReachabilityOracle, RuntimeSampler};
use crate::pipeline::{PipelineOptions, RcaPipeline};
use crate::refine::{refine, RefineOptions, RefinementReport, StopReason};
use crate::report::refinement_trace;
use crate::slice::{backward_slice, Slice};
use rca_fortran::SourceFile;
use rca_graph::NodeId;
use rca_ident::{ModuleId, OutputId, SymbolTable, VarId};
use rca_metagraph::MetaGraph;
use rca_model::{BugSite, Experiment, ModelSource};
use rca_sim::{compile_variant, Program, RunConfig, RuntimeError};
use rca_stats::Verdict;
use serde::Json;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Which built-in evidence source Algorithm 5.4 consults.
///
/// See the [`crate::oracle`] module docs for the trade-off; in short:
/// `Reachability` for method evaluation with known ground truth,
/// `Runtime` for real investigations (two bytecode VM runs per
/// refinement iteration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleKind {
    /// Simulated sampling via directed-path reachability from the
    /// experiment's ground-truth bug sites (§5.2).
    Reachability,
    /// Real instrumented control + experimental bytecode VM runs.
    Runtime,
}

/// Which modules the backward slice may include.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceScope {
    /// Restrict to CAM modules (the paper's §6 default).
    Cam,
    /// No restriction (the paper's Fig. 15 full-model slice).
    AllComponents,
}

/// What a session diagnoses: one model variant plus run configuration —
/// a paper experiment ([`Scenario::paper`]), a campaign mutant, or any
/// caller-defined condition.
///
/// The model is `Arc`-shared so fault-injection campaigns can fan hundreds
/// of scenarios out across threads without cloning source trees. Ground
/// truth is optional: leave both `bug_sites` and `bug_modules` empty for a
/// genuinely unknown defect (the refinement loop then cannot stop on
/// `BugInstrumented`, exactly as a real investigation).
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Scenario identifier for reports (e.g. `"017-opswap-phys_aux_003"`).
    pub name: String,
    /// The experimental model (source mutations already applied).
    pub model: Arc<ModelSource>,
    /// The experimental run configuration (PRNG/AVX2 changes live here).
    pub config: RunConfig,
    /// Ground-truth bug sites, if known (variable-level).
    pub bug_sites: Vec<BugSite>,
    /// Ground-truth modules, if known (module-level: every metagraph node
    /// of these modules counts as a bug node).
    pub bug_modules: Vec<String>,
}

impl Scenario {
    /// A scenario with no ground truth: `model` under `config`.
    pub fn new(name: impl Into<String>, model: Arc<ModelSource>, config: RunConfig) -> Scenario {
        Scenario {
            name: name.into(),
            model,
            config,
            bug_sites: Vec::new(),
            bug_modules: Vec::new(),
        }
    }

    /// One of the paper's experiments over `model`, named
    /// `experiment.name()`: the shared `model` itself when the experiment
    /// patches no source (a config-only variant such as RAND-MT or AVX2
    /// then reuses the base program in a session's cache), otherwise
    /// `model.apply(experiment)`; the experimental configuration of
    /// [`experiment_configs`]; and the experiment's bug sites as ground
    /// truth, with no bug modules.
    pub fn paper(
        model: &Arc<ModelSource>,
        setup: &ExperimentSetup,
        experiment: Experiment,
    ) -> Scenario {
        let model = if experiment.source_patches().is_empty() {
            Arc::clone(model)
        } else {
            Arc::new(model.apply(experiment))
        };
        Scenario {
            name: experiment.name().to_string(),
            model,
            config: experiment_configs(experiment, setup).1,
            bug_sites: experiment.bug_sites(),
            bug_modules: Vec::new(),
        }
    }
}

/// Configures and builds an [`RcaSession`].
#[derive(Debug)]
pub struct RcaSessionBuilder<'m> {
    model: &'m ModelSource,
    setup: ExperimentSetup,
    oracle: OracleKind,
    max_outputs: usize,
    scope: SliceScope,
    wall_budget: Option<Duration>,
}

impl<'m> RcaSessionBuilder<'m> {
    /// Statistical campaign parameters (default: [`ExperimentSetup::default`]).
    pub fn setup(mut self, setup: ExperimentSetup) -> Self {
        self.setup = setup;
        self
    }

    /// Evidence source for refinement (default: reachability).
    pub fn oracle(mut self, oracle: OracleKind) -> Self {
        self.oracle = oracle;
        self
    }

    /// Cap on affected outputs carried into slicing (default: 10, the
    /// paper's lasso+median selection size).
    pub fn max_outputs(mut self, n: usize) -> Self {
        self.max_outputs = n;
        self
    }

    /// Slice restriction scope (default: CAM modules).
    pub fn scope(mut self, scope: SliceScope) -> Self {
        self.scope = scope;
        self
    }

    /// Wall-clock budget per diagnosis (default: unlimited). Checked
    /// between pipeline stages; exceeding it surfaces as the retryable
    /// [`RcaError::Budget`] instead of an open-ended hang.
    pub fn wall_budget(mut self, budget: Duration) -> Self {
        self.wall_budget = Some(budget);
        self
    }

    /// Parses the model once (the `phase.parse` span), compiles the base
    /// program from that parse, runs the coverage calibration, and
    /// compiles the variable digraph — everything experiment-independent.
    /// The compiled base program is the first entry of the session's
    /// program cache; the parse is kept, so a variant re-parses only the
    /// files it changes.
    pub fn build(self) -> Result<RcaSession<'m>, RcaError> {
        if self.max_outputs == 0 {
            return Err(RcaError::Config(
                "max_outputs must be at least 1 (nothing would be sliced)".into(),
            ));
        }
        if self.setup.steps < 2 {
            return Err(RcaError::Config(
                "setup.steps must be at least 2 (the ECT needs an evaluation step)".into(),
            ));
        }
        let base_files = RcaPipeline::parse(self.model)?;
        let base_program = compile_variant(self.model, Some((self.model, &base_files, None)))?;
        let pipeline = RcaPipeline::build_parsed(
            self.model,
            &base_files,
            Some(&base_program),
            &PipelineOptions::default(),
        )?;
        let mut programs = HashMap::new();
        programs.insert(self.model.content_hash(), Arc::clone(&base_program));
        Ok(RcaSession {
            model: self.model,
            base_files,
            base_program,
            pipeline,
            setup: self.setup,
            oracle: self.oracle,
            max_outputs: self.max_outputs,
            scope: self.scope,
            wall_budget: self.wall_budget,
            ensemble: OnceLock::new(),
            analysis: OnceLock::new(),
            programs: Mutex::new(programs),
            base_fills: BaseFills::default(),
        })
    }
}

/// A configured root-cause-analysis session over one model.
///
/// Building the session performs the experiment-independent work (parse,
/// coverage calibration, metagraph compilation) once; each
/// [`RcaSession::diagnose_scenario`] call then runs the per-scenario
/// pipeline. The control ensemble and its fitted
/// ECT are computed lazily on first use and cached for the session's
/// lifetime — the cache is thread-safe, so one session can serve parallel
/// scenario fan-outs.
#[derive(Debug)]
pub struct RcaSession<'m> {
    model: &'m ModelSource,
    /// The one parse of `model`, `base_files[i]` the AST of
    /// `model.files[i]`: every variant compile and the pipeline's
    /// filtered view share these `Arc`s.
    base_files: Vec<Arc<SourceFile>>,
    /// The program compiled from `base_files`: every variant is lowered
    /// against it and shares its unchanged procs.
    base_program: Arc<Program>,
    pipeline: RcaPipeline,
    setup: ExperimentSetup,
    oracle: OracleKind,
    max_outputs: usize,
    scope: SliceScope,
    /// Per-diagnosis wall-clock budget (`None` = unlimited).
    wall_budget: Option<Duration>,
    ensemble: OnceLock<Result<EnsembleStats, RcaError>>,
    /// Static analysis over the coverage-filtered sources (the
    /// dependence mirror the site classifier reads), computed lazily on
    /// first use.
    analysis: OnceLock<Result<rca_analysis::ModelAnalysis, RcaError>>,
    /// Compiled programs keyed by `ModelSource::content_hash` — the base
    /// model plus every experimental/scenario variant this session has
    /// diagnosed. Thread-safe: parallel campaign workers share it.
    programs: Mutex<HashMap<u64, Arc<Program>>>,
    /// The base program's experimental fill per plain run configuration,
    /// filled by the first scenario that needs it: a variant's statistics
    /// fill runs only its cone and takes every other output from here.
    base_fills: BaseFills,
}

impl<'m> RcaSession<'m> {
    /// Starts configuring a session for `model`.
    pub fn builder(model: &'m ModelSource) -> RcaSessionBuilder<'m> {
        RcaSessionBuilder {
            model,
            setup: ExperimentSetup::default(),
            oracle: OracleKind::Reachability,
            max_outputs: 10,
            scope: SliceScope::Cam,
            wall_budget: None,
        }
    }

    /// The model under analysis.
    pub fn model(&self) -> &'m ModelSource {
        self.model
    }

    /// The session's one parse of the model: `parsed_sources()[i]` is the
    /// AST of `model().files[i]`. Every variant [`RcaSession::program_for`]
    /// compiles shares these `Arc`s for the files it leaves unchanged.
    pub fn parsed_sources(&self) -> &[Arc<SourceFile>] {
        &self.base_files
    }

    /// The compiled pipeline (metagraph, coverage, filter statistics).
    pub fn pipeline(&self) -> &RcaPipeline {
        &self.pipeline
    }

    /// The compiled variable digraph.
    pub fn metagraph(&self) -> &MetaGraph {
        &self.pipeline.metagraph
    }

    /// The session's workspace-wide symbol table: seeded from the base
    /// program's interner, extended by the metagraph build, shared by
    /// every stage. Strings resolve to dense ids exactly once, here.
    pub fn symbols(&self) -> &Arc<SymbolTable> {
        self.pipeline.metagraph.symbols()
    }

    /// The statistical campaign parameters.
    pub fn setup(&self) -> &ExperimentSetup {
        &self.setup
    }

    /// The control-side statistics (perturbed ensemble runs + fitted ECT),
    /// computed on first use and cached for the session's lifetime.
    ///
    /// Batch drivers fanning scenarios across threads should call this
    /// once up front so the ensemble cost is paid before the fan-out.
    pub fn ensemble(&self) -> Result<&EnsembleStats, RcaError> {
        self.ensemble
            .get_or_init(|| collect_ensemble(&self.base_program, &self.setup))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The compiled program for a model variant, from the session's
    /// content-addressed cache. Each distinct source (keyed by
    /// [`ModelSource::content_hash`]) is compiled exactly once per
    /// session, no matter how many ensemble members, scenarios, or oracle
    /// queries execute it; variants differing only in run configuration
    /// (RAND-MT, AVX2) share one entry and parse nothing. Each file is
    /// parsed at most once per session too: a variant takes the base
    /// model's AST for every file whose name and text equal the base
    /// file at the same position, so its `compile.parse` covers only the
    /// files it changed (one for a seeded mutant). Each proc is lowered
    /// at most once per session as well: a variant is lowered against the
    /// base program ([`rca_sim::compile_variant`]), so when its interface
    /// equals the base's it shares every unchanged proc (IR and bytecode
    /// in one `Arc`) and the program-wide tables by `Arc`, and lowers only
    /// the procs it changed (one for a seeded mutant; a `compile.procs`
    /// event counts them). The program and any parse error are those of
    /// [`rca_sim::compile_model`].
    pub fn program_for(&self, model: &ModelSource) -> Result<Arc<Program>, RcaError> {
        Ok(self.compile_cached(model)?)
    }

    /// [`RcaSession::program_for`] with the untyped compile error.
    fn compile_cached(&self, model: &ModelSource) -> Result<Arc<Program>, RuntimeError> {
        let hash = model.content_hash();
        if let Some(p) = self.programs.lock().expect("program cache lock").get(&hash) {
            return Ok(Arc::clone(p));
        }
        // Compile outside the lock: mutants compile concurrently and a
        // poisoned cache is impossible.
        let base = (self.model, &self.base_files[..], Some(&*self.base_program));
        let program = compile_variant(model, Some(base))?;
        let mut cache = self.programs.lock().expect("program cache lock");
        Ok(Arc::clone(cache.entry(hash).or_insert(program)))
    }

    /// The program compiled from [`RcaSession::model`] when the session
    /// was built: the base every variant is lowered against, and the
    /// entry [`RcaSession::program_for`] returns for the model itself.
    pub fn base_program(&self) -> &Arc<Program> {
        &self.base_program
    }

    /// Number of distinct compiled programs this session holds.
    pub fn compiled_programs(&self) -> usize {
        self.programs.lock().expect("program cache lock").len()
    }

    /// The static analysis plane over this session's **coverage-filtered**
    /// source universe — the same files the metagraph was compiled from,
    /// so the IR dependence mirror and the metagraph agree node-for-node
    /// and the static observability pre-filter matches the metagraph
    /// filter on every campaign site. Computed lazily on first use and
    /// cached for the session's lifetime. When coverage kept every file
    /// whole, that universe is the base parse itself, so the analysis
    /// runs on [`RcaSession::base_program`] instead of lowering the same
    /// ASTs again. It holds the dependence graph only: the lint catalog
    /// ([`rca_analysis::ModelAnalysis::lint`]) builds its own facts.
    pub fn analyze(&self) -> Result<&rca_analysis::ModelAnalysis, RcaError> {
        self.analysis
            .get_or_init(|| {
                let _span = rca_obs::span("phase.analysis");
                let filtered = self.pipeline.filtered_sources();
                let unfiltered = filtered.len() == self.base_files.len()
                    && filtered
                        .iter()
                        .zip(&self.base_files)
                        .all(|(f, b)| Arc::ptr_eq(f, b));
                let program = if unfiltered {
                    Arc::clone(&self.base_program)
                } else {
                    Arc::new(rca_sim::compile_sources(filtered)?)
                };
                Ok(rca_analysis::ModelAnalysis::build(program))
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The control run configuration every subject is compared against.
    pub fn control_config(&self) -> RunConfig {
        crate::experiments::control_config(&self.setup)
    }

    /// Metagraph nodes of a scenario's ground truth: its `bug_sites` plus
    /// every node of its `bug_modules` (a module the session's graph never
    /// interned cannot host a bug node, so its name drops out).
    pub fn scenario_bug_nodes(&self, scenario: &Scenario) -> Vec<NodeId> {
        let mg = &self.pipeline.metagraph;
        let mut nodes = ReachabilityOracle::from_sites(mg, &scenario.bug_sites).bug_nodes;
        let syms = self.symbols();
        let modules: Vec<ModuleId> = scenario
            .bug_modules
            .iter()
            .filter_map(|m| syms.module_id(m))
            .collect();
        if !modules.is_empty() {
            nodes.extend(mg.nodes_in_module_ids(&modules));
        }
        nodes.sort();
        nodes.dedup();
        nodes
    }

    /// Instantiates the session's configured oracle for one scenario.
    ///
    /// Exposed so callers can drive [`crate::refine()`] (or
    /// [`Sliced::refine_with`]) with a built-in oracle while owning its
    /// lifecycle — e.g. to interleave queries across scenarios.
    pub fn scenario_oracle(&self, scenario: &Scenario) -> Box<dyn Oracle> {
        match self.oracle {
            OracleKind::Reachability => {
                Box::new(ReachabilityOracle::new(self.scenario_bug_nodes(scenario)))
            }
            OracleKind::Runtime => {
                // Oracle queries run fault-free: evidence must reflect
                // what the *program* computes, not the injected runtime
                // environment of the scenario under diagnosis (budgets
                // stay — a runaway variant should still be killed).
                let exp_config = scenario.config.without_faults();
                // The control program is the base program the ensemble
                // runs; the experimental one comes from the session cache,
                // shared with this scenario's statistics stage. A variant
                // that fails to compile still yields a best-effort
                // sampler, which reports that compile error per query.
                let programs = self
                    .compile_cached(&scenario.model)
                    .map(|exp| (Arc::clone(&self.base_program), exp));
                let sampler =
                    RuntimeSampler::from_compiled(programs, self.control_config(), exp_config);
                // Sample as early as the discrepancy can be observed (the
                // paper instruments early steps); stay within the run.
                Box::new(sampler.with_sample_step(self.setup.steps.saturating_sub(1).min(2)))
            }
        }
    }

    /// Stage 1 — the statistical front end (§3): ensemble + experimental
    /// runs, UF-ECT verdict, affected-output selection. The cached control
    /// ensemble is shared with every other statistics call on this
    /// session.
    ///
    /// Under a plain run configuration ([`RunConfig::is_plain`]) the
    /// experimental fill is a cone fill against the base model
    /// ([`rca_sim::EnsembleRuns::run_history`] with a base): the session
    /// fills the base program once per configuration, and a variant's
    /// members run only the slice of the outputs its changed procs can
    /// reach (none for the base model itself or a configuration-only
    /// variant), every other output's columns coming from the base fill.
    /// The data equal a fill of the variant's own by bits.
    pub fn statistics_scenario(&self, scenario: &Scenario) -> Result<Statistics<'_, 'm>, RcaError> {
        // The ensemble is a session-level cost: pay it before the
        // per-scenario statistics phase starts.
        let ens = self.ensemble()?;
        let data = {
            let _span = rca_obs::span("phase.statistics");
            let exp_program = self.program_for(&scenario.model)?;
            evaluate_against_ensemble(
                ens,
                &exp_program,
                &scenario.config,
                &self.setup,
                (&self.base_program, &self.base_fills),
            )?
        };
        if data.output_names.is_empty() {
            return Err(RcaError::Stats(
                "ensemble and experimental runs share no output variables".into(),
            ));
        }
        let affected = data.affected_outputs(self.max_outputs);
        Ok(Statistics {
            session: self,
            scenario: scenario.clone(),
            data,
            affected,
        })
    }

    /// Runs the full pipeline for one [`Scenario`]: statistics → slicing
    /// → Algorithm 5.4, consolidated into a [`Diagnosis`].
    ///
    /// A passing ECT verdict short-circuits: the model is statistically
    /// consistent with the ensemble, so there is no discrepancy to chase
    /// and the diagnosis carries no refinement.
    pub fn diagnose_scenario(&self, scenario: &Scenario) -> Result<Diagnosis, RcaError> {
        let _span = rca_obs::span_with("diagnose", &[("subject", scenario.name.as_str().into())]);
        let deadline = self.wall_budget.map(|b| Instant::now() + b);
        let stats = self.statistics_scenario(scenario)?;
        self.check_deadline(deadline, "statistics")?;
        if stats.data.verdict == Verdict::Pass {
            let passed = Refinement {
                oracle: oracle_label(self.oracle),
                ..Refinement::default()
            };
            let bug_nodes = self.scenario_bug_nodes(scenario);
            return Ok(self.diagnosis(
                stats.scenario.name,
                stats.data,
                stats.affected,
                bug_nodes,
                passed,
            ));
        }
        let sliced = stats.slice()?;
        self.check_deadline(deadline, "slice")?;
        Ok(sliced.refine().into_diagnosis())
    }

    /// Builds every [`Diagnosis`] — the string edge: every id carried
    /// through the pipeline resolves to its display name exactly once,
    /// here.
    fn diagnosis(
        &self,
        subject: String,
        data: ExperimentData,
        affected_outputs: Vec<String>,
        bug_nodes: Vec<NodeId>,
        r: Refinement,
    ) -> Diagnosis {
        let mg = &self.pipeline.metagraph;
        let syms = mg.symbols();
        let final_nodes = r.report.as_ref().map_or(&[][..], |rep| &rep.final_nodes);
        let suspects = final_nodes.iter().map(|&n| mg.display(n)).collect();
        let mut suspect_module_ids: Vec<ModuleId> =
            final_nodes.iter().map(|&n| mg.meta_of(n).module).collect();
        suspect_module_ids.sort();
        suspect_module_ids.dedup();
        // Rendered module list stays name-sorted (stable report/JSON
        // shape); the id list next to it is what campaigns match on.
        let mut suspect_modules: Vec<String> = suspect_module_ids
            .iter()
            .map(|&m| syms.module(m).to_string())
            .collect();
        suspect_modules.sort();
        Diagnosis {
            subject,
            verdict: data.verdict,
            failure_rate: data.failure_rate,
            affected_outputs,
            slicing_criteria: r
                .criteria
                .iter()
                .map(|&v| syms.var(v).to_string())
                .collect(),
            slice_nodes: r.slice_nodes,
            slice_edges: r.slice_edges,
            oracle: r.oracle,
            trace: r
                .report
                .as_ref()
                .map(|rep| refinement_trace(mg, rep))
                .unwrap_or_default(),
            refinement: r.report,
            bug_nodes,
            suspects,
            suspect_modules,
            suspect_module_ids,
            sampling_errors: r.sampling_errors,
            degraded: data.degraded,
        }
    }

    /// Surfaces an exceeded per-diagnosis wall budget as the retryable
    /// budget taxonomy. Checked between stages — a stage in flight is
    /// never interrupted, so the overshoot is bounded by one stage.
    fn check_deadline(&self, deadline: Option<Instant>, stage: &str) -> Result<(), RcaError> {
        let Some(deadline) = deadline else {
            return Ok(());
        };
        if Instant::now() <= deadline {
            return Ok(());
        }
        rca_obs::counter_inc!("run.budget_exhausted", 1);
        Err(RcaError::Budget {
            kind: crate::error::BudgetKind::Wall,
            detail: format!(
                "session wall budget of {:?} exceeded after the {stage} stage",
                self.wall_budget.unwrap_or_default()
            ),
        })
    }

    fn in_scope(&self, module: ModuleId) -> bool {
        match self.scope {
            SliceScope::Cam => self.pipeline.is_cam_id(module),
            SliceScope::AllComponents => true,
        }
    }
}

fn oracle_label(kind: OracleKind) -> &'static str {
    match kind {
        OracleKind::Reachability => "reachability",
        OracleKind::Runtime => "runtime",
    }
}

/// What slicing and Algorithm 5.4 add to a [`Diagnosis`]. The default,
/// with the session's oracle label, is a passing verdict's: nothing
/// sliced, no refinement.
#[derive(Default)]
struct Refinement {
    criteria: Vec<VarId>,
    slice_nodes: usize,
    slice_edges: usize,
    report: Option<RefinementReport>,
    oracle: &'static str,
    sampling_errors: Vec<RuntimeError>,
}

/// Typed stage handle: statistics have run. Produced by
/// [`RcaSession::statistics_scenario`]; consumed by [`Statistics::slice`].
#[derive(Debug)]
pub struct Statistics<'s, 'm> {
    session: &'s RcaSession<'m>,
    scenario: Scenario,
    /// Full statistical results (verdict, rankings, matrices).
    pub data: ExperimentData,
    /// Affected outputs selected for slicing (lasso first, topped up by
    /// median distance). Mutable before [`Statistics::slice`] for callers
    /// that want to override the selection.
    pub affected: Vec<String>,
}

impl<'s, 'm> Statistics<'s, 'm> {
    /// Name of the scenario under diagnosis.
    pub fn subject(&self) -> &str {
        &self.scenario.name
    }

    /// The UF-ECT verdict.
    pub fn verdict(&self) -> Verdict {
        self.data.verdict
    }

    /// Stage 2 — §5.1 hybrid slicing: map affected outputs to internal
    /// canonical names and induce the suspect subgraph. This is where
    /// strings leave the pipeline: the affected output names resolve
    /// through the session's symbol table once, and everything downstream
    /// (criteria, slice restriction, refinement, oracle queries) runs on
    /// dense ids.
    pub fn slice(self) -> Result<Sliced<'s, 'm>, RcaError> {
        let (criteria, slice) = {
            let _span = rca_obs::span("phase.slice");
            let mg = &self.session.pipeline.metagraph;
            let syms = mg.symbols();
            let output_ids: Vec<OutputId> = self
                .affected
                .iter()
                .filter_map(|n| syms.output_id(&n.to_lowercase()))
                .collect();
            let criteria = mg.outputs_to_internal_ids(&output_ids);
            if criteria.is_empty() {
                return Err(RcaError::UnknownOutputs(self.affected.clone()));
            }
            let slice = backward_slice(mg, &criteria, |module| self.session.in_scope(module));
            if slice.graph.node_count() == 0 {
                let names = criteria.iter().map(|&v| syms.var(v).to_string()).collect();
                return Err(RcaError::EmptySlice(names));
            }
            (criteria, slice)
        };
        rca_obs::counter_inc!("slice.nodes", slice.graph.node_count() as u64);
        Ok(Sliced {
            session: self.session,
            scenario: self.scenario,
            data: self.data,
            affected: self.affected,
            criteria,
            slice,
        })
    }
}

/// Typed stage handle: the suspect subgraph exists. Produced by
/// [`Statistics::slice`]; consumed by [`Sliced::refine`] or
/// [`Sliced::refine_with`].
#[derive(Debug)]
pub struct Sliced<'s, 'm> {
    session: &'s RcaSession<'m>,
    scenario: Scenario,
    /// Statistical results carried forward.
    pub data: ExperimentData,
    /// Affected outputs that produced the criteria.
    pub affected: Vec<String>,
    /// Internal canonical slicing criteria (§5.1 / Table 2), as interned
    /// ids — resolve with [`Sliced::criteria_names`] at the edge.
    pub criteria: Vec<VarId>,
    /// The induced suspect subgraph.
    pub slice: Slice,
}

impl<'s, 'm> Sliced<'s, 'm> {
    /// Name of the scenario under diagnosis.
    pub fn subject(&self) -> &str {
        &self.scenario.name
    }

    /// Slicing criteria as display strings (rendering edge).
    pub fn criteria_names(&self) -> Vec<String> {
        let syms = self.session.symbols();
        self.criteria
            .iter()
            .map(|&v| syms.var(v).to_string())
            .collect()
    }

    /// Stage 3 — Algorithm 5.4 with the session's configured oracle.
    pub fn refine(self) -> Refined<'s, 'm> {
        let mut oracle = self.session.scenario_oracle(&self.scenario);
        self.refine_with(oracle.as_mut())
    }

    /// Stage 3 with a caller-supplied evidence source — any
    /// [`Oracle`] implementation, including ones outside this crate.
    pub fn refine_with(self, oracle: &mut dyn Oracle) -> Refined<'s, 'm> {
        let bug_nodes = self.session.scenario_bug_nodes(&self.scenario);
        let report = {
            let _span = rca_obs::span("phase.refine");
            refine(
                &self.session.pipeline.metagraph,
                &self.slice,
                oracle,
                &bug_nodes,
                &RefineOptions::default(),
            )
        };
        Refined {
            session: self.session,
            scenario: self.scenario,
            data: self.data,
            affected: self.affected,
            criteria: self.criteria,
            slice_nodes: self.slice.graph.node_count(),
            slice_edges: self.slice.graph.edge_count(),
            report,
            oracle_name: oracle.name(),
            sampling_errors: oracle.take_errors(),
            bug_nodes,
        }
    }
}

/// Typed stage handle: refinement has run. Produced by
/// [`Sliced::refine`]/[`Sliced::refine_with`]; finished by
/// [`Refined::into_diagnosis`].
#[derive(Debug)]
pub struct Refined<'s, 'm> {
    session: &'s RcaSession<'m>,
    scenario: Scenario,
    /// Statistical results carried forward.
    pub data: ExperimentData,
    /// Affected outputs carried forward.
    pub affected: Vec<String>,
    /// Slicing criteria carried forward (interned ids).
    pub criteria: Vec<VarId>,
    /// Suspect subgraph size entering refinement.
    pub slice_nodes: usize,
    /// Suspect subgraph edges entering refinement.
    pub slice_edges: usize,
    /// The Algorithm 5.4 outcome.
    pub report: RefinementReport,
    /// Which oracle produced the evidence.
    pub oracle_name: &'static str,
    /// Runtime failures the oracle absorbed while sampling.
    pub sampling_errors: Vec<RuntimeError>,
    bug_nodes: Vec<NodeId>,
}

impl Refined<'_, '_> {
    /// Name of the scenario under diagnosis.
    pub fn subject(&self) -> &str {
        &self.scenario.name
    }

    /// Consolidates everything into the final [`Diagnosis`].
    pub fn into_diagnosis(self) -> Diagnosis {
        let refinement = Refinement {
            criteria: self.criteria,
            slice_nodes: self.slice_nodes,
            slice_edges: self.slice_edges,
            report: Some(self.report),
            oracle: self.oracle_name,
            sampling_errors: self.sampling_errors,
        };
        self.session.diagnosis(
            self.scenario.name,
            self.data,
            self.affected,
            self.bug_nodes,
            refinement,
        )
    }
}

/// The consolidated result of one [`RcaSession::diagnose_scenario`] run:
/// verdict, selected outputs, slice statistics, refinement trace, and
/// stop reason.
#[derive(Debug, Clone)]
pub struct Diagnosis {
    /// Name of the diagnosed scenario.
    pub subject: String,
    /// UF-ECT verdict (a `Pass` carries no refinement).
    pub verdict: Verdict,
    /// ECT failure rate over all experimental run-sets.
    pub failure_rate: f64,
    /// Affected outputs selected by the statistics.
    pub affected_outputs: Vec<String>,
    /// Internal canonical names sliced on.
    pub slicing_criteria: Vec<String>,
    /// Suspect subgraph size entering refinement.
    pub slice_nodes: usize,
    /// Suspect subgraph edges entering refinement.
    pub slice_edges: usize,
    /// Which oracle produced the evidence.
    pub oracle: &'static str,
    /// The Algorithm 5.4 outcome (`None` when the verdict passed).
    pub refinement: Option<RefinementReport>,
    /// Ground-truth bug nodes (empty when unknown/not injected).
    pub bug_nodes: Vec<NodeId>,
    /// Display names of the final suspect set.
    pub suspects: Vec<String>,
    /// Modules of the final suspect set (sorted, deduplicated) — the
    /// module-level localization check campaigns score against.
    pub suspect_modules: Vec<String>,
    /// The same module set as interned ids (id-sorted) — campaign
    /// scorecard matching runs on these, not on strings. Not serialized
    /// (ids are session-local).
    pub suspect_module_ids: Vec<ModuleId>,
    /// Runtime failures the oracle absorbed while sampling.
    pub sampling_errors: Vec<RuntimeError>,
    /// Set when the statistics were computed from a degraded ensemble
    /// (retried or quarantined members on either side) — the diagnosis
    /// stands, but on fewer runs than configured. `None` on healthy
    /// fills, and then absent from the serialized artifact too.
    pub degraded: Option<DegradedEnsemble>,
    trace: String,
}

impl Diagnosis {
    /// Why refinement stopped, if it ran.
    pub fn stop(&self) -> Option<StopReason> {
        self.refinement.as_ref().map(|r| r.stop)
    }

    /// Refinement iterations performed.
    pub fn iterations(&self) -> usize {
        self.refinement.as_ref().map_or(0, |r| r.iterations.len())
    }

    /// Whether a ground-truth bug node was instrumented during sampling.
    pub fn instrumented(&self) -> bool {
        self.refinement
            .as_ref()
            .is_some_and(|r| r.instrumented(&self.bug_nodes))
    }

    /// Whether a ground-truth bug node sits in the final suspect set.
    pub fn localized(&self) -> bool {
        self.refinement
            .as_ref()
            .is_some_and(|r| r.localized(&self.bug_nodes))
    }

    /// Whether the procedure found the bug (instrumented or localized) —
    /// meaningful only when ground truth exists.
    pub fn located(&self) -> bool {
        self.instrumented() || self.localized()
    }

    /// Whether `module` is among the final suspect modules (binary search
    /// over the id-sorted list — the campaign scoring path).
    pub fn suspects_module_id(&self, module: ModuleId) -> bool {
        self.suspect_module_ids.binary_search(&module).is_ok()
    }

    /// Renders the full human-readable report: verdict, selections, the
    /// per-iteration refinement trace, stop reason, and suspect list.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== RCA diagnosis: {} ==", self.subject);
        let _ = writeln!(
            out,
            "UF-ECT verdict: {} (failure rate {:.0}%, oracle: {})",
            self.verdict,
            self.failure_rate * 100.0,
            self.oracle
        );
        if let Some(d) = &self.degraded {
            let _ = writeln!(out, "DEGRADED ensemble: {d}");
        }
        if self.verdict == Verdict::Pass {
            let _ = writeln!(
                out,
                "output is statistically consistent with the ensemble; nothing to diagnose"
            );
            return out;
        }
        let _ = writeln!(out, "affected outputs: {:?}", self.affected_outputs);
        let _ = writeln!(out, "slicing criteria: {:?}", self.slicing_criteria);
        let _ = writeln!(
            out,
            "induced subgraph: {} nodes, {} edges",
            self.slice_nodes, self.slice_edges
        );
        out.push_str(&self.trace);
        if let Some(stop) = self.stop() {
            let _ = writeln!(out, "stop reason: {stop}");
        }
        let _ = writeln!(out, "final suspects ({}):", self.suspects.len());
        const SHOWN: usize = 12;
        for s in self.suspects.iter().take(SHOWN) {
            let _ = writeln!(out, "  {s}");
        }
        if self.suspects.len() > SHOWN {
            let _ = writeln!(out, "  ... and {} more", self.suspects.len() - SHOWN);
        }
        if !self.sampling_errors.is_empty() {
            let _ = writeln!(
                out,
                "sampling errors absorbed: {} (first: {})",
                self.sampling_errors.len(),
                self.sampling_errors[0]
            );
        }
        if !self.bug_nodes.is_empty() {
            let _ = writeln!(
                out,
                "ground-truth bug: {}",
                if self.instrumented() {
                    "LOCATED (instrumented during sampling)"
                } else if self.localized() {
                    "LOCATED (inside the final suspect set)"
                } else {
                    "NOT located"
                }
            );
        }
        out
    }
}

// Machine-readable diagnosis export: a stable, deterministic JSON shape
// for campaign scorecards and external tooling (no `render()` scraping).
impl serde::Serialize for Diagnosis {
    fn to_json(&self) -> Json {
        let mut fields: Vec<(&str, Json)> = vec![
            ("subject", self.subject.to_json()),
            ("verdict", self.verdict.to_json()),
            ("failure_rate", self.failure_rate.to_json()),
            ("affected_outputs", self.affected_outputs.to_json()),
            ("slicing_criteria", self.slicing_criteria.to_json()),
            ("slice_nodes", self.slice_nodes.to_json()),
            ("slice_edges", self.slice_edges.to_json()),
            ("oracle", self.oracle.to_json()),
            ("iterations", self.iterations().to_json()),
            ("stop", self.stop().to_json()),
            ("located", self.located().to_json()),
            ("instrumented", self.instrumented().to_json()),
            ("localized", self.localized().to_json()),
            (
                "bug_nodes",
                Json::Arr(
                    self.bug_nodes
                        .iter()
                        .map(|n| Json::Num(n.index() as f64))
                        .collect(),
                ),
            ),
            ("suspects", self.suspects.to_json()),
            ("suspect_modules", self.suspect_modules.to_json()),
            (
                "sampling_errors",
                Json::Arr(
                    self.sampling_errors
                        .iter()
                        .map(|e| Json::Str(e.to_string()))
                        .collect(),
                ),
            ),
        ];
        // Conditional key: a healthy (zero-fault) diagnosis serializes
        // without it, keeping legacy artifacts byte-identical — "degrade,
        // never diverge".
        if let Some(d) = &self.degraded {
            fields.push(("degraded", d.to_json()));
        }
        fields.push(("refinement", self.refinement.to_json()));
        Json::obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rca_model::{generate, ModelConfig};

    fn model() -> Arc<ModelSource> {
        Arc::new(generate(&ModelConfig::test()))
    }

    fn session(m: &ModelSource) -> RcaSession<'_> {
        RcaSession::builder(m)
            .setup(ExperimentSetup::quick())
            .build()
            .expect("session")
    }

    fn diagnose(session: &RcaSession<'_>, m: &Arc<ModelSource>, e: Experiment) -> Diagnosis {
        let scenario = Scenario::paper(m, session.setup(), e);
        session.diagnose_scenario(&scenario).expect("diagnosis")
    }

    #[test]
    fn builder_validates_configuration() {
        let m = model();
        let err = RcaSession::builder(&m)
            .max_outputs(0)
            .build()
            .expect_err("must fail");
        assert!(matches!(err, RcaError::Config(_)), "{err}");
        let err = RcaSession::builder(&m)
            .setup(ExperimentSetup {
                steps: 1,
                ..ExperimentSetup::quick()
            })
            .build()
            .expect_err("must fail");
        assert!(matches!(err, RcaError::Config(_)), "{err}");
    }

    #[test]
    fn builder_defaults_and_accessors() {
        let m = model();
        let session = session(&m);
        assert!(session.metagraph().node_count() > 300);
        assert!(session.pipeline().filter_stats.subprograms_after > 0);
        assert_eq!(session.setup().steps, 5);
    }

    #[test]
    fn paper_scenario_shares_the_model_unless_the_experiment_patches_it() {
        let m = model();
        let setup = ExperimentSetup::quick();
        for e in Experiment::ALL {
            let s = Scenario::paper(&m, &setup, e);
            assert_eq!(s.name, e.name());
            if e.source_patches().is_empty() {
                assert!(Arc::ptr_eq(&s.model, &m), "{}", e.name());
            } else {
                assert_eq!(s.model.content_hash(), m.apply(e).content_hash());
                assert_ne!(s.model.content_hash(), m.content_hash(), "{}", e.name());
            }
            let (_, config) = experiment_configs(e, &setup);
            assert_eq!(format!("{:?}", s.config), format!("{config:?}"));
            assert_eq!(s.bug_sites, e.bug_sites());
            assert!(s.bug_modules.is_empty());
        }
    }

    #[test]
    fn wsub_diagnose_end_to_end_and_renders() {
        let m = model();
        let session = session(&m);
        let d = diagnose(&session, &m, Experiment::WsubBug);
        assert_eq!(d.verdict, Verdict::Fail);
        assert_eq!(d.subject, "WSUBBUG");
        assert!(d.slice_nodes > 0);
        assert!(
            d.located(),
            "wsub bug must be located (stop {:?})",
            d.stop()
        );
        assert!(
            d.suspect_modules.iter().any(|m| m == "microp_aero"),
            "module-level check: {:?}",
            d.suspect_modules
        );
        let report = d.render();
        assert!(report.contains("WSUBBUG"));
        assert!(report.contains("stop reason:"));
        assert!(report.contains("final suspects"));
    }

    #[test]
    fn typed_stages_expose_granular_control() {
        let m = model();
        let session = session(&m);
        let wsub = Scenario::paper(&m, session.setup(), Experiment::WsubBug);
        let stats = session.statistics_scenario(&wsub).expect("stage 1");
        assert_eq!(stats.verdict(), Verdict::Fail);
        assert_eq!(stats.subject(), "WSUBBUG");
        let sliced = stats.slice().expect("stage 2");
        assert!(sliced.slice.graph.node_count() > 0);
        assert!(!sliced.criteria.is_empty());
        // Caller-supplied oracle through the object-safe interface.
        let mut oracle = session.scenario_oracle(&wsub);
        let refined = sliced.refine_with(oracle.as_mut());
        assert_eq!(refined.oracle_name, "reachability");
        let d = refined.into_diagnosis();
        assert!(d.located());
    }

    #[test]
    fn control_short_circuits_on_pass() {
        let m = model();
        let session = session(&m);
        let d = diagnose(&session, &m, Experiment::Control);
        assert_eq!(d.verdict, Verdict::Pass);
        assert!(d.refinement.is_none());
        assert_eq!(d.iterations(), 0);
        assert!(!d.located());
        assert!(d.render().contains("consistent"));
    }

    #[test]
    fn ensemble_is_cached_across_diagnoses() {
        let m = model();
        let session = session(&m);
        let a = session.ensemble().expect("ensemble") as *const EnsembleStats;
        let _ = diagnose(&session, &m, Experiment::Control);
        let b = session.ensemble().expect("ensemble") as *const EnsembleStats;
        assert_eq!(a, b, "the control ensemble must be computed once");
    }

    #[test]
    fn clean_scenario_passes_like_control() {
        let m = model();
        let session = session(&m);
        let scenario = Scenario::new("clean", Arc::clone(&m), session.control_config());
        let d = session.diagnose_scenario(&scenario).expect("diagnosis");
        assert_eq!(d.verdict, Verdict::Pass);
        assert_eq!(d.subject, "clean");
    }

    #[test]
    fn scenario_with_injected_wsub_bug_is_located() {
        // Recreate WSUBBUG by hand (patched model + ground truth, control
        // configuration) and require it to localize like the paper
        // experiment does.
        let m = model();
        let session = session(&m);
        let scenario = Scenario {
            name: "wsub-as-scenario".into(),
            model: Arc::new(m.apply(Experiment::WsubBug)),
            config: session.control_config(),
            bug_sites: Experiment::WsubBug.bug_sites(),
            bug_modules: Vec::new(),
        };
        assert!(!session.scenario_bug_nodes(&scenario).is_empty());
        let d = session.diagnose_scenario(&scenario).expect("diagnosis");
        assert_eq!(d.verdict, Verdict::Fail);
        assert!(d.located(), "stop {:?}", d.stop());
        let microp = session.symbols().module_id("microp_aero").expect("module");
        assert!(d.suspects_module_id(microp));
    }

    #[test]
    fn module_level_ground_truth_counts_whole_module() {
        let m = model();
        let session = session(&m);
        let microp = session.symbols().module_id("microp_aero").expect("module");
        let by_module = session.metagraph().nodes_in_module_ids(&[microp]);
        assert!(!by_module.is_empty());
        let scenario = Scenario {
            name: "module-truth".into(),
            model: Arc::new(m.apply(Experiment::WsubBug)),
            config: session.control_config(),
            bug_sites: Vec::new(),
            bug_modules: vec!["microp_aero".into(), "no_such_module".into()],
        };
        let nodes = session.scenario_bug_nodes(&scenario);
        assert_eq!(nodes, by_module);
    }

    #[test]
    fn program_cache_compiles_each_variant_once() {
        let m = model();
        let session = session(&m);
        // The base model was compiled during build.
        assert_eq!(session.compiled_programs(), 1);
        let base = session.program_for(&m).expect("base program");
        assert!(
            Arc::ptr_eq(&base, &session.program_for(&m).expect("again")),
            "same content hash must return the same Arc"
        );
        // Config-only experiments (Control, RandMt, Avx2) share the base
        // program: diagnosing them adds no cache entries.
        for e in [Experiment::Control, Experiment::RandMt, Experiment::Avx2] {
            let _ = diagnose(&session, &m, e);
        }
        assert_eq!(session.compiled_programs(), 1);
        // A source patch is a new variant — exactly one more entry, even
        // if diagnosed twice.
        let _ = diagnose(&session, &m, Experiment::WsubBug);
        assert_eq!(session.compiled_programs(), 2);
        let _ = diagnose(&session, &m, Experiment::WsubBug);
        assert_eq!(session.compiled_programs(), 2);
    }

    #[test]
    fn diagnosis_serializes_deterministically() {
        let m = model();
        let session = session(&m);
        let d = diagnose(&session, &m, Experiment::WsubBug);
        let a = serde_json::to_string(&d).expect("serialize");
        let b = serde_json::to_string(&d).expect("serialize");
        assert_eq!(a, b);
        let v = serde_json::from_str(&a).expect("round-trip");
        assert_eq!(v["subject"].as_str(), Some("WSUBBUG"));
        assert_eq!(v["verdict"].as_str(), Some("fail"));
        assert_eq!(v["located"], serde_json::Value::Bool(true));
        assert!(v["refinement"]["iterations"].as_array().is_some());
    }
}
