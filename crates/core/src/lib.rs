//! # rca-core — the paper's root-cause-analysis contribution
//!
//! Ties every substrate together into the pipeline of Milroy et al.
//! (HPDC 2019), Fig. 1, behind the [`RcaSession`] facade:
//!
//! ```no_run
//! use rca_core::{ExperimentSetup, OracleKind, RcaSession, Scenario};
//! use rca_model::{generate, Experiment, ModelConfig};
//! use std::sync::Arc;
//!
//! let model = Arc::new(generate(&ModelConfig::test()));
//! let session = RcaSession::builder(&model)
//!     .setup(ExperimentSetup::quick())
//!     .oracle(OracleKind::Reachability)
//!     .build()?;
//! let goffgratch = Scenario::paper(&model, session.setup(), Experiment::GoffGratch);
//! let diagnosis = session.diagnose_scenario(&goffgratch)?;
//! println!("{}", diagnosis.render());
//! # Ok::<(), rca_core::RcaError>(())
//! ```
//!
//! A session diagnoses [`Scenario`]s: a model variant, a run
//! configuration and optional ground truth. [`Scenario::paper`] turns one
//! of the paper's experiments into one; campaigns build the rest.
//!
//! The stages behind the facade (each also reachable through the typed
//! stage handles in [`session`]):
//!
//! 1. [`experiments`]: run ensemble + experimental simulations, apply the
//!    UF-ECT (Pass/Fail), and select the most-affected output variables by
//!    standardized median distance and lasso (§3).
//! 2. [`pipeline`]: coverage-filter the source (hybrid slicing's dynamic
//!    information) and compile it into the variable digraph (§4).
//! 3. [`mod@slice`]: BFS shortest-path backward slice on canonical names; the
//!    union of path nodes induces the suspect subgraph (§5.1).
//! 4. [`mod@refine`]: **Algorithm 5.4** — Girvan–Newman communities,
//!    per-community eigenvector in-centrality, runtime sampling, and k-ary
//!    shrinkage until the bug is instrumented or the graph is small enough
//!    to read (§5.2–5.4).
//! 5. [`oracle`]: the sampling step behind the object-safe [`Oracle`]
//!    trait — the paper's reachability simulation and real bytecode VM
//!    instrumentation are interchangeable evidence sources.
//! 6. [`module_rank`]: module-quotient centrality and the selective AVX2
//!    disablement policies of Table 1 (§6.5).
//!
//! Failures carry the workspace-wide [`RcaError`] ([`error`]).

pub mod error;
pub mod experiments;
pub mod module_rank;
pub mod oracle;
pub mod pipeline;
pub mod refine;
pub mod report;
pub mod session;
pub mod slice;

pub use error::{BudgetKind, RcaError};
pub use experiments::{
    experiment_configs, DegradedEnsemble, EnsembleHealth, EnsembleStats, ExperimentData,
    ExperimentSetup,
};
pub use module_rank::{avx2_policy, DisablementPolicy, ModuleRanking};
pub use oracle::{Oracle, ReachabilityOracle, RuntimeSampler};
pub use pipeline::{PipelineOptions, RcaPipeline};
pub use rca_ident::{ModuleId, OutputId, SymbolTable, VarId};
pub use refine::{refine, IterationReport, RefineOptions, RefinementReport, StopReason};
pub use report::refinement_trace;
pub use session::{
    Diagnosis, OracleKind, RcaSession, RcaSessionBuilder, Refined, Scenario, SliceScope, Sliced,
    Statistics,
};
pub use slice::{backward_slice, backward_slice_names, reinduce, Slice};
