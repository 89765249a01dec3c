//! # rca-sim — execution substrate for the synthetic climate model
//!
//! The paper's experiments run CESM on NCAR supercomputers; this crate is
//! the laptop-scale substitute. It executes the `rca-model` Fortran
//! through a **parse → compile → execute** pipeline with three
//! paper-critical capabilities:
//!
//! - **AVX2/FMA simulation**: per-module fused-multiply-add contraction of
//!   `a*b ± c` through `f64::mul_add` (the actual mechanism by which
//!   Broadwell's FMA changes CESM results), bit-true in both engines and
//!   the column kernels;
//! - **PRNG substitution** ([`prng`]): Marsaglia KISS (the CESM default) vs
//!   MT19937 for the RAND-MT experiment;
//! - **coverage recording and runtime sampling**: the Intel-codecov and
//!   variable-instrumentation substitutes used by hybrid slicing and
//!   Algorithm 5.4 step 7.
//!
//! ## Two engine tiers, one semantics
//!
//! The execution stack has two tiers that must agree bit for bit:
//!
//! 1. **Tree-walking [`Interpreter`]** ([`interp`]) — evaluates the AST
//!    directly, resolving names through hash maps at every access. Slow,
//!    obviously correct, kept as the reference semantics.
//! 2. **Bytecode [`Executor`]** ([`exec`]) — runs the compiled
//!    [`Program`] ([`compile`]: interned symbols, pre-resolved call
//!    targets and [`VarBind`] variable bindings), each subprogram
//!    flattened at compile time (`bytecode`, reachable via
//!    [`Program::disassemble`]) into a linear instruction array over a
//!    `u32`-indexed register frame: explicit jump/branch instructions
//!    replace host-stack recursion for `if`/`do`/`call`, and call targets
//!    and copy-out plans are pre-resolved into the instruction stream.
//!    Constant `if` arms fold during emission, and emitted code is never
//!    rewritten afterwards. Counted elementwise loops become column
//!    step-kernels. Typed frame slots are pooled per proc so derived-type
//!    maps and array buffers are reused across calls and steps.
//!
//! Both tiers share the same scalar kernel (`ops`), and the differential
//! suites (`tests/differential.rs`, `tests/kernels.rs`) hold them
//! bit-identical across histories, samples, and coverage. The runtime
//! fault-injection axis ([`fault`]: seeded [`FaultPlan`]s, statement
//! fuel) is **Executor-only** — the reference interpreter ignores it, so
//! the differential suites run zero-fault configurations and two oracles
//! that need no second engine fence the rest: the [`store`] fault oracle
//! checks seeded faulted ensembles against the plan applied to
//! zero-fault runs, and a golden table pins fuel exhaustion.
//!
//! [`runner`] parses, compiles and drives single runs, each returning the
//! owned [`RunOutput`] edge type; [`store`] holds whole ensembles as
//! **one contiguous columnar block** ([`EnsembleRuns`], the only
//! multi-run container) filled in place by pooled, reset-reused
//! executors, and materializes one member as a `RunOutput` on demand;
//! [`kernel`] reproduces the KGen normalized-RMS comparison that flags
//! FMA-affected Morrison–Gettelman variables (§6.4).

pub(crate) mod bytecode;
pub mod compile;
pub mod effects;
pub mod exec;
pub mod fault;
pub mod interp;
pub mod kernel;
mod ops;
pub mod prng;
pub mod program;
pub mod runner;
pub mod specialize;
pub mod store;
pub mod value;

pub use compile::compile_sources;
pub use exec::Executor;
pub use fault::{Fault, FaultKind, FaultPlan, BUDGET_CONTEXT, FAULT_CONTEXT};
pub use interp::{Avx2Policy, History, Interpreter, RunConfig, RuntimeError, SampleSpec};
pub use kernel::{
    compare_kernel, kernel_sample_specs, kernel_sample_specs_program, KernelComparison,
};
pub use prng::{make_prng, Kiss, Mt19937, Prng, PrngKind};
pub use program::{
    ArgFlow, CExpr, CPlace, CProc, CStmt, CallForm, CallSite, EId, IfArm, Intrin, LocalTemplate,
    Program, VarBind,
};
pub use rca_fortran::token::Op;
pub use rca_ident::{ModuleId, OutputId, SymbolTable, VarId};
pub use runner::{
    compile_model, compile_variant, parse_model, perturbations, run_loaded, run_model, run_program,
    RunOutput, VariantBase,
};
pub use specialize::{output_cone, specialize_for_history, specialize_for_samples, Specialized};
pub use store::{EnsembleRuns, FillBase, MemberHealth, RunCoverage};
pub use value::Value;
