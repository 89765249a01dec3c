//! # climate-rca — root cause analysis for large simulation code bases
//!
//! A Rust reproduction of Milroy, Baker, Hammerling, Kim, Jessup, Hauser,
//! *"Making root cause analysis feasible for large code bases: a solution
//! approach for a climate model"* (HPDC 2019).
//!
//! When an ensemble consistency test reports that a simulation's output is
//! statistically distinguishable from an accepted ensemble, this library
//! locates the *root cause* inside the code base: it compiles the source
//! into a variable-dependency digraph, slices it backward from the affected
//! output variables, partitions the slice into communities, ranks nodes by
//! eigenvector in-centrality, and iteratively refines the suspect set with
//! runtime sampling (Algorithm 5.4 of the paper).
//!
//! ## Quickstart
//!
//! The whole workflow lives behind [`rca::RcaSession`]: build a session
//! once per model (parsing, coverage calibration, and graph compilation
//! happen here), then
//! [`diagnose_scenario`](rca::RcaSession::diagnose_scenario) any number of
//! [`Scenario`](rca::Scenario)s. A paper experiment is one such scenario,
//! built by [`Scenario::paper`](rca::Scenario::paper).
//!
//! ```no_run
//! use climate_rca::prelude::*;
//! use std::sync::Arc;
//!
//! // Generate the synthetic climate model; experiments inject the
//! // paper's bugs (e.g. the GOFFGRATCH typo 8.1328e-3 -> 8.1828e-3).
//! let model = Arc::new(model::generate(&model::ModelConfig::test()));
//!
//! let session = RcaSession::builder(&model)
//!     .setup(ExperimentSetup::quick())
//!     .oracle(OracleKind::Runtime) // sample real instrumented runs
//!     .build()?;
//!
//! let goffgratch = Scenario::paper(&model, session.setup(), model::Experiment::GoffGratch);
//! let diagnosis = session.diagnose_scenario(&goffgratch)?;
//! assert_eq!(diagnosis.verdict, stats::Verdict::Fail);
//! println!("{}", diagnosis.render());
//! # Ok::<(), RcaError>(())
//! ```
//!
//! When you need stage-level control — overriding the affected-output
//! selection, supplying your own evidence source — use the typed stage
//! handles. Each stage is only constructible from its predecessor, so the
//! pipeline cannot run out of order:
//!
//! ```no_run
//! # use climate_rca::prelude::*;
//! # let model = std::sync::Arc::new(model::generate(&model::ModelConfig::test()));
//! # let session = RcaSession::builder(&model).build()?;
//! let goffgratch = Scenario::paper(&model, session.setup(), model::Experiment::GoffGratch);
//! let mut stats = session.statistics_scenario(&goffgratch)?;
//! stats.affected.truncate(5);          // override the selection
//! let sliced = stats.slice()?;          // Statistics -> Sliced
//! let mut oracle = session.scenario_oracle(&goffgratch);
//! let refined = sliced.refine_with(oracle.as_mut()); // Sliced -> Refined
//! let diagnosis = refined.into_diagnosis();
//! # Ok::<(), RcaError>(())
//! ```
//!
//! ## Choosing an oracle
//!
//! Refinement consumes evidence through the object-safe
//! [`rca::Oracle`] trait (see [`rca::oracle`] for the full contract):
//!
//! - [`OracleKind::Reachability`](rca::OracleKind::Reachability) — the
//!   paper's simulated sampling: a difference is detectable iff a directed
//!   path exists from a ground-truth bug site. Fast and deterministic; use
//!   it to evaluate the *method* when bug locations are known.
//! - [`OracleKind::Runtime`](rca::OracleKind::Runtime) — real sampling:
//!   each refinement iteration instruments the chosen variables in actual
//!   control and experimental bytecode VM runs. Use it when the bug is
//!   genuinely unknown.
//!
//! Anything implementing `Oracle` can be passed to
//! [`Sliced::refine_with`](rca::session::Sliced::refine_with) or the
//! low-level [`rca::refine()`].
//!
//! ## The oracle fast path
//!
//! Runtime-oracle refinement is the dominant cost of a campaign: every
//! iteration of Algorithm 5.4 asks `differs` about ~an iteration's worth
//! of candidate nodes, and the naive answer is two *complete* model runs.
//! The sampler instead makes that cost proportional to the backward slice
//! of what it captures, through three stacked mechanisms that live
//! entirely behind the unchanged [`rca::Oracle`] surface:
//!
//! - **Slice specialization** ([`sim::specialize_for_samples`] over the
//!   program's cached effect summary, [`sim::Program::effects`]): the
//!   query's capture set is backward-sliced at the statement level and
//!   the program is re-materialized with every
//!   statement outside the slice pruned (control flow, PRNG draw
//!   positions, and capture-procedure invocation counts preserved), then
//!   re-lowered to bytecode. Specialized programs share the base
//!   program's interned arenas (`Arc`) and are built once per query:
//!   every answered node is memoized, so a capture set repeats only
//!   after a failed query.
//! - **Per-node memoization**: verdicts are keyed by metagraph `NodeId`;
//!   refinement re-queries overlapping node sets every iteration, and a
//!   memo hit answers without any run at all.
//! - **Early stopping**: sampling happens at one configured step, so
//!   specialized runs truncate at `sample_step + 1` instead of the full
//!   horizon.
//!
//! The contract is **fast paths never change evidence**, and there is
//! one query path, with no switch: memo, then the specialized pair, and
//! the full program pair only when the programs failed to compile, when
//! a capture set is not provably separable, when a run carries a fuel
//! budget (a pruned, truncated run spends less fuel than the full one),
//! or — permanently — once a specialized run failed (the full pair owns
//! all error semantics, exactly like the VM's kernel fallback). Oracle
//! runs are always fault-free (`RunConfig::without_faults`) so a
//! scenario's [`sim::FaultPlan`] can never shift verdicts. An rca-core
//! test fence enforces the contract end to end: it diffs whole diagnoses
//! against an independent full-pair reference oracle written on
//! [`sim::run_program`], at test and paper scale, and `sim_throughput`'s
//! `oracle_specialized` entry asserts the specialized query pair stays
//! ≥2× faster than the full pair.
//!
//! The statistics fills use the same specializer with a history capture
//! ([`sim::EnsembleRuns::run_history`]): every control and experimental
//! member runs only the statements that can reach an `outfld`, on a
//! slice built once per compiled program
//! ([`sim::Program::history_program`]). Member health, written lengths
//! and every history value equal the full fill's by bits; fault plans,
//! fuel budgets and any failing member keep the full program, which
//! owns all retry and quarantine semantics. The slice comes from one
//! fixpoint over per-output masks, so it also tells which outputs each
//! proc can reach: a session fills the base program once per plain run
//! configuration, and a source variant's experimental fill runs only the
//! slice of its *cone* — the outputs whose slices keep one of its changed
//! procs live — splicing those columns into the base fill, with the same
//! bits (the base fill comes back whole for an empty cone: the base model
//! itself, a configuration-only variant, a mutant of dead code). A fill
//! runs at most one slice: the cone slice when the base describes the
//! variant (for a cone of every output that is the variant's history
//! slice), the history slice otherwise, and the full program only when a
//! slice member fails.
//!
//! ## Migrating from the 0.1 free functions
//!
//! The 0.1 loose functions (`run_statistics`, `affected_outputs`,
//! `induce_slice`) and the `SamplingOracle` alias were deprecated shims
//! for one release and are now **removed**:
//!
//! | removed 0.1 call | replacement |
//! |---|---|
//! | `run_statistics(&model, exp, &setup)` | `session.statistics_scenario(&Scenario::paper(&model, &setup, exp))` (or `diagnose_scenario`) |
//! | `affected_outputs(&data, n)` | `ExperimentData::affected_outputs(&data, n)`, or the `affected` field of the `Statistics` stage |
//! | `induce_slice(&mg, &names, f)` | `stats.slice()` stage, or `backward_slice` for raw criteria |
//! | `SamplingOracle` (trait) | renamed [`rca::Oracle`] |
//! | manual report assembly | [`rca::Diagnosis`] fields + [`render`](rca::Diagnosis::render) |
//!
//! `RcaPipeline::build`, `backward_slice` and the free `refine` remain as
//! granular building blocks.
//!
//! Errors: every stage returns the workspace-wide [`rca::RcaError`]
//! instead of stringly-typed `RuntimeError`s; `RuntimeError` converts via
//! `From`, so `?` composes.
//!
//! ## Beyond the paper's experiments: scenarios and campaigns
//!
//! [`rca::Scenario`] describes any experimental model variant (a paper
//! experiment, mutated source, PRNG swap, per-module FMA) with optional
//! ground truth; [`rca::RcaSession::diagnose_scenario`] runs the one
//! pipeline on it, sharing the session's cached metagraph **and control
//! ensemble**.
//! The `rca-campaign` crate builds on this: it generates seeded random
//! fault-injection scenarios, fans them out across threads, and scores
//! module-level localization — see `examples/campaign.rs` and the
//! `rca-campaign` binary.
//!
//! ## Execution engine: parse → compile → execute
//!
//! Model execution is a three-stage pipeline. `sim::compile_model` parses
//! the Fortran and lowers it into a slot-indexed
//! [`sim::Program`] — interned symbols, pre-resolved call targets and
//! variable bindings (module globals become arena indices, subprogram
//! locals become frame offsets) — plus per-subprogram bytecode, and every
//! run is then a cheap [`sim::Executor`] over the shared `Arc<Program>`:
//! a register VM whose hot `cam_run_step` loop never hashes a name or
//! touches a `String`, with elementwise loops run as column
//! step-kernels. There are exactly two engines. The original
//! tree-walking `sim::Interpreter` survives as the *reference engine*; a
//! differential suite holds the two bit-identical (histories, samples,
//! coverage) across all paper experiments and seeded campaign mutants,
//! which is the proof that the compilation step is semantics-preserving.
//! Fault plans and fuel budgets, which only the VM implements, are
//! fenced by oracles that need no second engine: a faulted ensemble must
//! equal the plan applied to zero-fault runs, and fuel exhaustion must
//! match a golden table.
//!
//! [`rca::RcaSession`] keeps a **program cache** keyed by
//! [`model::ModelSource::content_hash`] (FNV-1a over every file name and
//! source text). The invalidation rule is content addressing itself:
//! a cached program is valid exactly as long as a model with the same
//! source bytes is being executed — any source patch produces a new hash
//! (and a new entry), while variants that differ only in run
//! configuration (RAND-MT's PRNG swap, AVX2's FMA policy) share one
//! compiled program, because PRNG, FMA policy, and instrumentation are
//! execution-time parameters of the `Executor`, not of the `Program`.
//! The cache means an N-scenario campaign compiles each mutated variant
//! exactly once — the ensemble, the statistics stage, and every
//! runtime-oracle query all execute the same shared program.
//!
//! Parsing is shared **per file**. The session parses its base model
//! once, at build, into `Arc<SourceFile>` ASTs that the base program,
//! the coverage filter (which hands back every file it leaves whole),
//! and the metagraph all borrow. A variant compiled through
//! [`rca::RcaSession::program_for`] (`sim::compile_variant` underneath)
//! takes the base's AST for every file whose name and text equal the
//! base file at the same position and parses only the rest — one file
//! for a seeded mutant, none for a config-only variant, which hits the
//! cache. Parsing is a pure function of name and text, so the program
//! is the one `compile_model` builds, bit for bit, and a parse failure
//! is the same error; `crates/campaign/tests/shared_parse.rs` fences
//! that over the seeded campaign plan.
//!
//! The program cache shares **per-proc IR** too. A program is one list
//! of self-contained procs over one `Arc` of program-wide tables. Each
//! proc carries its expression and call-site pools and its bytecode,
//! with the bytecode's constant and name pools, and every other index
//! it holds — proc index, global slot, `OutputId`, module id — is fixed
//! by the program's interface: the module list, module `use`s, types,
//! declarations and interfaces, subprogram signatures and declarations,
//! and the sorted `outfld` name set. A variant is lowered against the
//! session's base program: when its interface equals the base's, every
//! proc whose subprogram is unchanged is the base's `Arc` (IR and
//! bytecode in one), the tables (global arena, lookup maps, symbol and
//! output tables) are the base's `Arc`, and only the changed procs are
//! lowered — one of 1,536 for a one-line paper-scale mutant, which then
//! retains kilobytes instead of a whole program. Any interface
//! difference, or a changed proc whose frame layout moves, lowers every
//! proc; the result is the same program either way, which the same
//! fence checks (disassembly, output, symbol and global tables, and
//! `Arc::ptr_eq` for every proc not lowered). History slices and
//! runtime-oracle programs share every proc they keep whole in the same
//! way.
//!
//! ## The columnar run store
//!
//! Ensembles are the method's dominant cost (`n_ensemble +
//! n_experiment` full runs per diagnosis), so their data plane is **one
//! contiguous block, written in place and never re-assembled**:
//!
//! - [`sim::EnsembleRuns`] owns a single `members × steps × outputs`
//!   history block (member-major, each member's chunk step-major so the
//!   ECT evaluation step is a contiguous `outputs`-wide plane) plus
//!   positional sample buffers and a dense coverage bitmap. Ensemble and
//!   experimental matrices gather straight out of the store's step planes
//!   (one `Matrix::from_fn` in `rca-stats`) — no per-run vectors, no
//!   hashing, no re-assembly between the executor and the ECT.
//! - **Executor reuse contract**: [`sim::Executor::reset`] restores a
//!   just-constructed state in place — global arena overwritten from the
//!   program's pristine snapshot (allocation-reusing deep copy), PRNG
//!   reseeded, history rows / written lengths / coverage bits zeroed —
//!   and call frames, argument vectors, and array-local buffers are
//!   pooled across calls and runs. A reset run is bit-identical to a
//!   fresh one (the differential suite proves it on every paper
//!   experiment and on seeded campaign mutants), and a store fill gives
//!   each rayon worker one pooled executor for its whole chunk of
//!   members, so the steady-state ensemble allocates nothing beyond the
//!   store itself. Oracle queries change the instrumentation list every
//!   time, so each runs its pair on fresh executors.
//! - **When to materialize**: the store is the only multi-run container,
//!   and [`sim::RunOutput`] is the single-run edge type. Hot paths read
//!   the store's step planes or executor state directly;
//!   [`sim::EnsembleRuns::materialize`] reconstructs one member's owned
//!   ragged form bit-identically for callers that own a single run's
//!   results (single-run drivers, the differential harness, external
//!   tooling).
//!   Run coverage follows the same rule: [`sim::RunCoverage`] keys
//!   executed subprograms by `(ModuleId, VarId)` and renders strings only
//!   at the edges (calibration marking, reports, tests).
//!
//! ## The interned identity plane
//!
//! Every layer between the simulator and the diagnosis shares **one
//! workspace-wide symbol table** ([`metagraph::SymbolTable`], from the
//! `rca-ident` crate) assigning dense ids in three namespaces:
//! `VarId` (variable/canonical names), `ModuleId`, and `OutputId`
//! (history output names). Strings cross the boundary in exactly two
//! places:
//!
//! - **in** — parsing/compilation interns every module, variable, and
//!   `outfld` name into the base program's table; the session clones that
//!   table as the seed of the metagraph build, which appends the names
//!   only the graph knows (derived-type elements, per-line intrinsic
//!   nodes). The table is append-only, so every program-assigned id stays
//!   valid in the extended session table ([`rca::RcaSession::symbols`]).
//! - **out** — [`rca::Diagnosis`] resolves ids back to display strings
//!   (`render`, JSON export) exactly once, in the one function that
//!   builds every diagnosis.
//!
//! Everything in between is id-keyed and `Vec`-backed: run histories are
//! dense buffers indexed by `OutputId` over the program's sorted output
//! table ([`sim::RunOutput`]), sample captures are positional over
//! `RunConfig::samples`, metagraph node metadata and its three lookup
//! indexes are `VarId`/`ModuleId` keyed, slicing criteria are `VarId`s,
//! the slice scope is a dense CAM mask over `ModuleId`, the ensemble/ECT
//! matrices assemble by direct column indexing, and campaign ground truth
//! matches by `ModuleId` binary search. **Ownership rules:** ids are
//! session-local (never persist or compare ids across sessions or across
//! differently-sourced programs — the scorecard/JSON edge always goes
//! through strings), and the session table is sealed behind an `Arc`
//! after the metagraph build — nothing interns after construction.
//!
//! ## The static analysis plane
//!
//! The paper's feasibility argument is that *static*, compiler-style
//! analysis collapses the search space before anything dynamic runs.
//! The [`analysis`] crate is that plane for the reproduction — a
//! reusable dataflow framework over the slot-indexed [`sim::Program`]
//! IR, id-keyed end to end (strings only at the render edge):
//!
//! - **Framework** ([`analysis::dataflow`], [`analysis::reach`],
//!   [`analysis::absint`]): per-procedure CFGs with ordered use/def
//!   events and a reaching-definitions worklist solver (which marks the
//!   definitions some use reads and the reads no definition reaches),
//!   call-graph reachability from the host entry points, and an
//!   interval/sign abstract interpretation for definite numeric hazards.
//! - **Lint catalog** ([`analysis::ModelAnalysis::lint`], `rca-lint`
//!   CLI): uninitialized-read, dead-store/redundant-store, unreachable
//!   procedure, unused output, division-by-zero / sqrt/log domain
//!   hazards, and const-foldable subexpressions —
//!   deterministic string-keyed JSON, byte-identical across runs and
//!   thread counts. CI gates the bundled paper models at zero warnings
//!   and proves a seeded mutant still raises one.
//! - **Slicer-agreement invariant**: [`analysis::DepGraph`] is a
//!   *second, independent* implementation of §4.2 dependence extraction,
//!   built from the IR instead of the AST. A differential suite holds it
//!   node-for-node **and** edge-for-edge equal to the metagraph, and
//!   [`analysis::DepGraph::static_slice`] equal to
//!   [`rca::backward_slice`], on the pristine model, all seven paper
//!   experiments, and seeded campaign mutants — the same fence the
//!   interpreter/executor pair sits behind.
//! - **Campaign pre-filter**: `campaign_sites` drops every injection
//!   candidate in a subroutine the session's base program cannot reach
//!   from the host entry points ([`analysis::reach`]; the textual
//!   enumeration in `model::patch_sites` decides nothing about
//!   reachability), then classifies the rest through both planes
//!   ([`analysis::ModelAnalysis::classify_site`] vs the metagraph's
//!   backward-reachable set) and asserts they agree; provably-dead sites
//!   are rejected before they can corrupt ground truth.
//!   [`rca::RcaSession::analyze`] exposes the plane over the session's
//!   own coverage-filtered source universe; it builds the dependence
//!   graph only, and [`analysis::ModelAnalysis::lint`] builds the
//!   dataflow, reachability and constant globals the lints read.
//!
//! ## The fault-tolerance plane
//!
//! Ensembles are dozens of independent runs, and the method's statistics
//! only need a quorum of them — so the pipeline **degrades instead of
//! diverging** when members fail:
//!
//! - **Runtime fault injection** ([`sim::FaultPlan`]): a seeded,
//!   deterministic chaos axis the [`sim::Executor`] applies mid-run —
//!   NaN/Inf poisoning and stuck values on chosen outputs, transient or
//!   persistent member aborts. Executor-only by construction: the
//!   reference tree-walker ignores it, differential suites run zero-fault
//!   configurations, and an empty plan leaves the hot path byte-identical.
//!   `rca-campaign --runtime-faults S` seeds one plan per scenario from a
//!   stream independent of the mutation RNG, so the chaos axis never
//!   perturbs a recorded mutation plan.
//! - **Graceful degradation**: [`sim::EnsembleRuns::run_resilient`]
//!   (and the statistics fills' [`sim::EnsembleRuns::run_history`],
//!   which refills through it whenever a history-slice member fails)
//!   tracks per-member [`sim::MemberHealth`], retries failed members with
//!   derived reseeds up to [`rca::experiments::MAX_RETRIES`] times, and
//!   quarantines what never recovers; the statistics stages fit the ECT
//!   from the surviving quorum (half the ensemble, at least 3; one
//!   3-run set of experimental runs) and record a
//!   [`rca::DegradedEnsemble`] note on the [`rca::Diagnosis`] instead of
//!   erroring. Non-finite values that poison an output without killing
//!   its member fall out of the keep set the ECT already intersects.
//! - **Run budgets**: statement fuel per run (`RunConfig::fuel`) and a
//!   per-diagnosis wall clock ([`rca::RcaSessionBuilder::wall_budget`])
//!   turn runaway work into typed, **retryable**
//!   [`rca::RcaError::Budget`] errors ([`rca::RcaError::is_retryable`])
//!   instead of hangs.
//! - **Resumable campaigns**: the batch runner streams each finished
//!   scenario to an append-only JSONL checkpoint keyed by `(seed, plan
//!   digest, index)`; a restarted campaign restores what already ran and
//!   its merged scorecard is byte-identical to an uninterrupted run's.
//!
//! The standing invariant is *degrade, never diverge*: every
//! fault-tolerance path is observable in telemetry
//! (`ensemble.member_retry`, `ensemble.quarantined`,
//! `run.budget_exhausted`) but invisible in deterministic artifacts —
//! a zero-fault fixed-seed campaign produces byte-identical scorecards
//! before and after the whole plane existed.
//!
//! ## The observability plane
//!
//! Every layer from parse to diagnosis is instrumented through the
//! [`obs`] crate (`rca-obs`): structured spans and events, and
//! process-wide metrics. Three rules govern it:
//!
//! - **Telemetry never leaks into deterministic artifacts.** Scorecard
//!   JSON, lint JSON, and every fixed-seed export are byte-identical
//!   with tracing enabled or disabled; wall times travel only through
//!   the telemetry channel (trace JSONL, metrics snapshots, profiles
//!   folded from traces). Trace files themselves are deterministic
//!   modulo the explicitly-tagged `ts`/`dur` fields —
//!   [`obs::strip_timing`] removes them so CI can diff traces.
//! - **Span naming**: pipeline stages are `phase.<stage>` spans
//!   (`phase.parse`, `phase.compile`, `phase.coverage`,
//!   `phase.metagraph`, `phase.ensemble_fill`, `phase.ect_fit`,
//!   `phase.plan`, `phase.analysis`, `phase.statistics`, `phase.slice`,
//!   `phase.refine`, `phase.analysis_build`, `phase.lint`) and their
//!   sub-phases are `<stage>.<step>` spans nested inside them
//!   (`compile.parse`, `compile.lower`, `compile.bytecode` under
//!   `phase.compile`, where a variant's `compile.parse` covers only the
//!   files it re-parses — the base model's one parse is `phase.parse`,
//!   once per session; `statistics.experiment_fill`, `statistics.ect`,
//!   `statistics.ranking`, `statistics.lasso` under `phase.statistics`;
//!   `statistics.cone` under the experimental fill that decides a
//!   variant's cone and builds its slice;
//!   `compile.history`, a program's history slice, under the fill that
//!   first runs it; `compile.effects`, a program's effect summary, under
//!   whatever first needs it — the history slice, the oracle's first
//!   specialized query or `phase.analysis_build`; `refine.communities`, `refine.centrality`,
//!   `refine.oracle`, `refine.reinduce` under `phase.refine`). One
//!   diagnosis runs under a `diagnose` span; progress points are
//!   dot-namespaced events (`refine.iter`, `scenario`,
//!   `scenario.error`, `campaign.plan`, `lint.report`,
//!   `parse.files`, the `parsed` and `reused` file counts of one
//!   parse, and `compile.procs`, the `lowered` and `reused` proc counts
//!   of one `compile.lower`). Counters, the one metric kind (a size or an iteration
//!   count is a counter summing its values), use the same
//!   `subsystem.noun` convention
//!   (`executor.runs`, `oracle.queries`, `slice.nodes`; the statistics
//!   fills count `ensemble.cone_fills`, `ensemble.cone_outputs` summing
//!   the cone sizes, `ensemble.base_fill_reuse`, `ensemble.cone_fallback`
//!   (a base given but not usable) and `ensemble.history_fallback` (a
//!   slice member failed, so the full program refilled);
//!   the VM counts `vm.dispatch` host calls, the `vm.instructions` they
//!   retired, a column step-kernel counting as one, and the
//!   `vm.kernel_iterations` those kernels ran; `executor.runs` and the
//!   `vm.*` counters count only members that actually ran, on every
//!   thread, traced or not; each Girvan–Newman split that refinement
//!   runs adds its single-source Brandes passes to `community.sources`,
//!   the block nodes whose pairs ran in their neighbours' passes instead
//!   to `community.folded`, and its removals decided by the exact tie
//!   fallback to `community.exact_steps`, whatever the thread count).
//! - **Sink contract**: instrumentation is always on; the sink, an
//!   in-memory [`obs::Collector`], is opt-in ([`obs::with_sink`]
//!   thread-scoped, [`obs::install_global`] process-wide). With no sink
//!   installed a span is one relaxed atomic load and a branch — the
//!   `obs_overhead` bench holds the disabled cost under 2% of an
//!   ensemble fill. Use a **span** for anything with duration and
//!   structure, an **event** for a point-in-time progress fact, and a
//!   **counter** for aggregates that must be cheap enough for the
//!   hottest loops.
//!
//! Spans are the only clock. [`obs::PhaseProfile::from_records`] folds
//! collected spans into per-name counts, inclusive time, and self time
//! (inclusive minus direct child spans), so self times add up to the
//! root spans and nothing is counted twice. Profiling one diagnosis is a
//! collector around that call:
//!
//! ```no_run
//! use climate_rca::prelude::*;
//! use model::{generate, Experiment, ModelConfig};
//! use obs::{with_sink, Collector, PhaseProfile};
//! use std::sync::Arc;
//!
//! let model = Arc::new(generate(&ModelConfig::test()));
//! let session = RcaSession::builder(&model).build()?;
//! let wsub = Scenario::paper(&model, session.setup(), Experiment::WsubBug);
//! let collector = Arc::new(Collector::new());
//! with_sink(collector.clone(), || session.diagnose_scenario(&wsub))?;
//! print!("{}", PhaseProfile::from_records(&collector.records()).render());
//! # Ok::<(), RcaError>(())
//! ```
//!
//! The CLIs expose the plane as `--trace-out PATH` (a collector whose
//! records are written as JSONL when the run ends, schema-checked by
//! `rca-trace-check`) and `--metrics` (the counter snapshot to stderr,
//! plus the profile folded from the trace when `--trace-out` is given)
//! on both `rca-campaign` and `rca-lint`.
//!
//! ## Workspace layout
//!
//! One crate per subsystem, re-exported here:
//!
//! - [`graph`] — digraph algorithms (BFS slicing, Girvan–Newman,
//!   centralities, quotient graphs).
//! - [`fortran`] — lexer/parser/AST for the Fortran-90 subset.
//! - [`metagraph`] — AST → variable digraph with metadata.
//! - [`stats`] — PCA-based ensemble consistency testing, lasso and
//!   median-distance variable selection, normalized-RMS comparison.
//! - [`model`] — the synthetic CESM-like climate model generator with
//!   ground-truth bug injection.
//! - [`sim`] — the execution substrate: the compiled bytecode VM and the
//!   reference tree-walker, FMA/AVX2 simulation, PRNG
//!   substitution, coverage, runtime sampling, and the columnar
//!   [`sim::EnsembleRuns`] store behind parallel ensembles.
//! - [`analysis`] — the static analysis plane: IR dataflow framework,
//!   the `rca-lint` detector catalog, and the independent dependence
//!   slicer cross-checked against the metagraph.
//! - [`obs`] — the observability plane: spans/events delivered to an
//!   in-memory collector (rendered as JSONL traces), the metrics
//!   registry, and phase profiles folded from spans.
//! - [`rca`] — the paper's pipeline behind [`rca::RcaSession`]: hybrid
//!   slicing, community/centrality ranking, iterative refinement,
//!   module-level AVX2 policies, and the per-session program cache.

pub use rca_analysis as analysis;
pub use rca_core as rca;
pub use rca_fortran as fortran;
pub use rca_graph as graph;
pub use rca_metagraph as metagraph;
pub use rca_model as model;
pub use rca_obs as obs;
pub use rca_sim as sim;
pub use rca_stats as stats;

/// Convenient glob-import: the crates under their short names plus the
/// session-facade types.
pub mod prelude {
    pub use crate::{analysis, fortran, graph, metagraph, model, obs, rca, sim, stats};
    pub use rca_core::{
        Diagnosis, ExperimentSetup, OracleKind, RcaError, RcaSession, Scenario, SliceScope,
    };
}
