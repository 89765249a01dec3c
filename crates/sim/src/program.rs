//! The compiled program: a flat, slot-indexed IR for the model.
//!
//! [`crate::compile`] lowers the parsed AST into this representation
//! exactly once per model variant; every simulation run then executes the
//! shared, immutable [`Program`] through [`crate::exec::Executor`] without
//! ever hashing a name or touching a `String` on the hot path:
//!
//! - **symbols are interned** — module/subprogram/variable names become
//!   `Arc<str>` held once in the program (kept only for diagnostics and
//!   host lookups), while every *reference* is a `u32`: procedures are
//!   indices into `Program::procs`, module globals are indices into the
//!   global arena, subprogram locals are frame offsets, and expressions
//!   and call sites index their own proc's pools;
//! - **call targets are pre-resolved** — each call site carries the callee
//!   procedure index, the lowered argument expressions, and the copy-out
//!   plan (which dummy slots write back to which caller places);
//! - **name scoping is pre-resolved** — every variable reference carries a
//!   `VarBind` that encodes the tree-walker's full lookup order
//!   (frame → use-chain → module scope) as at most one runtime branch.
//!
//! The program is `Send + Sync` and shared via `Arc`: an N-member ensemble
//! or an N-scenario campaign compiles each distinct source variant once
//! and fans out executors that only clone the initial global arena.
//!
//! Each lowered proc is self-contained: a [`CProc`] owns its expression
//! and call-site pools and its bytecode, which owns its constant and name
//! pools. Every other index a proc holds is fixed by the program's
//! interface (proc index, global slot, `OutputId`, module id), so procs
//! are shared by `Arc` between programs: a source variant whose interface
//! equals its base's reuses every unchanged proc
//! ([`crate::compile_variant`]), and a slice-specialized program reuses
//! every proc it keeps whole ([`crate::specialize`]). Everything else a
//! program holds — the global arena, the host lookup maps, the symbol and
//! output tables — is one `Arc`, built by a full compile and shared whole
//! by every program derived from it.

use crate::bytecode::BProc;
use crate::effects::Effects;
use crate::value::Value;
use rca_fortran::token::Op;
use rca_ident::SymbolTable;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Index into the owning proc's expression pool ([`CProc::exprs`]).
pub type EId = u32;

/// Pre-resolved variable binding: how a name in some subprogram resolves,
/// encoding the interpreter's dynamic scoping rules statically.
///
/// A local slot can be *unset* at runtime (implicit locals exist only
/// after their first write; `do`-variables only after the loop header
/// runs; declared locals only after frame initialization reaches them).
/// The binding says what an access falls back to in that window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarBind {
    /// Frame slot; when unset, the name is undefined (reads error,
    /// writes create the implicit local).
    Local(u32),
    /// Frame slot shadowing a module global; when the slot is unset,
    /// reads and writes go to the global.
    LocalOrGlobal(u32, u32),
    /// Module global (possibly through `use` renames), never local.
    Global(u32),
}

/// What a `name(args)` expression does when the name turns out not to be
/// a set variable at runtime (the Fortran call-vs-index ambiguity,
/// resolved in the same order the tree-walker uses).
#[derive(Debug, Clone)]
pub enum CallForm {
    /// A recognized intrinsic.
    Intrinsic(Intrin, Box<[EId]>),
    /// A user function call through a resolved site.
    Function(u32),
    /// Nothing matches: runtime "unknown function or array" error.
    Unknown,
}

/// Recognized intrinsics (the tree-walker's `eval_intrinsic` list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intrin {
    Min,
    Max,
    Sqrt,
    Exp,
    Log,
    Log10,
    Abs,
    Tanh,
    Sin,
    Cos,
    Atan,
    Mod,
    Sign,
    Sum,
    Maxval,
    Minval,
    Size,
    Real,
    Int,
    Floor,
    Nint,
    Epsilon,
    Tiny,
    Huge,
}

/// Declared intent of one dummy argument, recorded for static analysis
/// (the executor only needs the collapsed writeback flag on the call
/// site's copy-out plan).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgFlow {
    /// `intent(in)` — data flows caller → callee only.
    In,
    /// `intent(out)` — data flows callee → caller only.
    Out,
    /// `intent(inout)` — both directions.
    InOut,
    /// No intent declaration: treated bidirectionally.
    Unknown,
}

impl Intrin {
    /// Maps an intrinsic name (already lowercase in the AST) to its code.
    pub fn by_name(name: &str) -> Option<Intrin> {
        Some(match name {
            "min" => Intrin::Min,
            "max" => Intrin::Max,
            "sqrt" => Intrin::Sqrt,
            "exp" => Intrin::Exp,
            "log" => Intrin::Log,
            "log10" => Intrin::Log10,
            "abs" => Intrin::Abs,
            "tanh" => Intrin::Tanh,
            "sin" => Intrin::Sin,
            "cos" => Intrin::Cos,
            "atan" => Intrin::Atan,
            "mod" => Intrin::Mod,
            "sign" => Intrin::Sign,
            "sum" => Intrin::Sum,
            "maxval" => Intrin::Maxval,
            "minval" => Intrin::Minval,
            "size" => Intrin::Size,
            "real" => Intrin::Real,
            "int" => Intrin::Int,
            "floor" => Intrin::Floor,
            "nint" => Intrin::Nint,
            "epsilon" => Intrin::Epsilon,
            "tiny" => Intrin::Tiny,
            "huge" => Intrin::Huge,
            _ => return None,
        })
    }

    /// The intrinsic's source-level name (the inverse of
    /// [`Intrin::by_name`]) — static analysis renders localized intrinsic
    /// nodes (`min_l42`) from it.
    pub fn name(self) -> &'static str {
        match self {
            Intrin::Min => "min",
            Intrin::Max => "max",
            Intrin::Sqrt => "sqrt",
            Intrin::Exp => "exp",
            Intrin::Log => "log",
            Intrin::Log10 => "log10",
            Intrin::Abs => "abs",
            Intrin::Tanh => "tanh",
            Intrin::Sin => "sin",
            Intrin::Cos => "cos",
            Intrin::Atan => "atan",
            Intrin::Mod => "mod",
            Intrin::Sign => "sign",
            Intrin::Sum => "sum",
            Intrin::Maxval => "maxval",
            Intrin::Minval => "minval",
            Intrin::Size => "size",
            Intrin::Real => "real",
            Intrin::Int => "int",
            Intrin::Floor => "floor",
            Intrin::Nint => "nint",
            Intrin::Epsilon => "epsilon",
            Intrin::Tiny => "tiny",
            Intrin::Huge => "huge",
        }
    }
}

/// A lowered expression node. Children are arena indices, names appear
/// only for diagnostics.
#[derive(Debug, Clone)]
pub enum CExpr {
    Real(f64),
    Int(i64),
    Str(Arc<str>),
    Logical(bool),
    /// Variable read through a pre-resolved binding.
    Var {
        bind: VarBind,
        name: Arc<str>,
    },
    /// `name(sub)` where the name can be a visible array: index it;
    /// otherwise dispatch to `fallback` (only reachable for bindings whose
    /// local slot may be unset with no global behind it).
    Index {
        bind: VarBind,
        name: Arc<str>,
        sub: EId,
        fallback: Option<Box<CallForm>>,
    },
    /// User function call through a resolved site.
    CallFn {
        site: u32,
    },
    /// Intrinsic evaluation.
    Intrinsic {
        which: Intrin,
        args: Box<[EId]>,
    },
    /// `base%field` / `base%field(sub)` where base is a plain variable.
    /// `err` is the pre-rendered "not a derived value" message (the
    /// tree-walker formats the base AST node into it).
    DerivedVar {
        bind: VarBind,
        name: Arc<str>,
        field: Arc<str>,
        sub: Option<EId>,
        err: Arc<str>,
    },
    /// Derived access with a computed base expression.
    DerivedExpr {
        base: EId,
        field: Arc<str>,
        sub: Option<EId>,
        err: Arc<str>,
    },
    Unary {
        op: Op,
        e: EId,
    },
    Binary {
        op: Op,
        l: EId,
        r: EId,
    },
    /// `a*b ± c` — FMA-contractible when the executing module is compiled
    /// with AVX2. The unfused path evaluates `l op c`, where `l` is the
    /// plain product `a*b` (or its folded literal), re-evaluated on
    /// fallback exactly as the tree-walker does.
    MaybeFma {
        op: Op,
        a: EId,
        b: EId,
        c: EId,
        l: EId,
    },
    /// Deferred runtime error (the tree-walker reports these lazily, only
    /// when the expression actually evaluates).
    ErrorExpr {
        msg: Arc<str>,
    },
}

/// A lowered assignment place.
#[derive(Debug, Clone)]
pub enum CPlace {
    Var {
        bind: VarBind,
    },
    Elem {
        bind: VarBind,
        name: Arc<str>,
        sub: EId,
    },
    Derived {
        bind: VarBind,
        name: Arc<str>,
        field: Arc<str>,
        sub: Option<EId>,
    },
    /// Deferred runtime error ("invalid assignment target ...").
    Invalid {
        msg: Arc<str>,
    },
}

/// One `if` / `else if` / `else` arm: optional condition plus block.
pub type IfArm = (Option<EId>, Box<[CStmt]>);

/// A lowered statement.
#[derive(Debug, Clone)]
pub enum CStmt {
    Assign {
        place: CPlace,
        value: EId,
        line: u32,
    },
    /// Resolved subroutine call with copy-out plan.
    Call {
        site: u32,
        line: u32,
    },
    /// `call outfld('NAME', data [, ncol])` with the name pre-resolved to
    /// its dense [`rca_ident::OutputId`] index — recording a history value
    /// is a direct `Vec` write, no map lookup.
    Outfld {
        out: u32,
        data: EId,
        ncol: Option<EId>,
        line: u32,
    },
    /// `call random_number(x)`: evaluate the current value (for the
    /// shape), then overwrite through the place.
    RandomNumber {
        current: EId,
        place: CPlace,
        line: u32,
    },
    PbufSet {
        idx: EId,
        data: EId,
        line: u32,
    },
    PbufGet {
        idx: EId,
        current: EId,
        place: CPlace,
        line: u32,
    },
    If {
        arms: Box<[IfArm]>,
        line: u32,
    },
    Do {
        /// Loop variable frame slot (a `do` always writes the local).
        var: u32,
        start: EId,
        end: EId,
        step: Option<EId>,
        body: Box<[CStmt]>,
        line: u32,
    },
    DoWhile {
        cond: EId,
        body: Box<[CStmt]>,
        line: u32,
    },
    Return,
    Exit,
    Cycle,
    /// `call random_seed(...)` and friends: executes as a no-op.
    Nop,
    /// Deferred runtime error.
    ErrorStmt {
        msg: Arc<str>,
        line: u32,
    },
}

/// A resolved call site: callee + lowered arguments + copy-out plan. It
/// lives in its calling proc's pool ([`CProc::sites`]).
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee index into the procedure table ([`Program::ir_procs`]).
    pub proc: u32,
    /// Lowered actual arguments, in order (all evaluated before the call,
    /// including extras beyond the dummy list).
    pub args: Box<[EId]>,
    /// Copy-out plan: `(dummy frame slot, caller place)` for every
    /// writeback-eligible designator argument.
    pub copyout: Box<[(u32, CPlace)]>,
}

/// How one frame local is initialized at subprogram entry (after dummy
/// binding, in declaration order).
#[derive(Debug, Clone)]
pub enum LocalTemplate {
    /// Derived-type instance, prototype precomputed at compile time.
    Derived(Value),
    /// Real array with runtime extents (shapes may reference dummies).
    Array(Box<[EId]>),
    /// Scalars with optional initializer, coerced per base type.
    Int(Option<EId>),
    Logic(Option<EId>),
    Char(Option<EId>),
    RealVal(Option<EId>),
    /// Initialization that the tree-walker would fail at call time
    /// (e.g. an unknown derived type).
    Error(Arc<str>, u32),
}

/// One compiled subprogram, self-contained: its expressions and call
/// sites live in its own pools, which [`EId`]s and site indices in its
/// body index. The pools are `Arc`-shared, so a pruned copy of the proc
/// (the slice-specialized programs) pays only for its new body. Programs
/// hold procs by `Arc`: a variant or slice that keeps a proc whole shares
/// it with its base, and so does every slice that keeps none of it (the
/// proc's emptied copy is built once and cached on the proc).
#[derive(Debug, Clone)]
pub struct CProc {
    /// Owning module name (diagnostics context).
    pub module: Arc<str>,
    /// Subprogram name.
    pub name: Arc<str>,
    /// Owning module id (FMA policy table index).
    pub module_id: u32,
    /// Argument position → frame slot (identity unless dummies repeat);
    /// dummies occupy the first slots in order.
    pub arg_slots: Box<[u32]>,
    /// Declared intent per dummy argument (static-analysis metadata; the
    /// executor reads the collapsed copy-out plan instead).
    pub arg_flows: Box<[ArgFlow]>,
    /// Total frame slots (dummies + declared + result + implicit).
    pub n_locals: usize,
    /// Slot → name (diagnostics and sample resolution).
    pub local_names: Box<[Arc<str>]>,
    /// Ordered local initialization actions (`(slot, decl line, template)`).
    pub inits: Box<[(u32, u32, LocalTemplate)]>,
    /// Function result slot, if this is a function.
    pub result_slot: Option<u32>,
    /// Lowered body.
    pub body: Box<[CStmt]>,
    /// Declared (non-dummy) local names, as the host API reports them.
    pub declared_locals: Box<[String]>,
    /// Expression pool: every [`EId`] in this proc indexes it.
    pub exprs: Arc<[CExpr]>,
    /// Call-site pool: [`CStmt::Call`], [`CExpr::CallFn`] and
    /// [`CallForm::Function`] carry indices into it.
    pub sites: Arc<[CallSite]>,
    /// The proc's bytecode, which the register VM in [`crate::exec`]
    /// runs: emitted from this proc alone by
    /// [`crate::bytecode::lower_procs`], so a program that shares the
    /// proc shares its code.
    pub(crate) bc: BProc,
    /// This proc without body or frame initialization: what a slice that
    /// keeps none of the proc runs. Built on first use
    /// ([`crate::specialize`]) and shared by every slice of every program
    /// holding this proc.
    pub(crate) empty: OnceLock<Arc<CProc>>,
}

impl CProc {
    /// A copy of this proc's metadata and pools with a new body and frame
    /// initialization (a slice's pruned copy), its bytecode not yet
    /// emitted.
    pub(crate) fn with_body(
        &self,
        inits: Box<[(u32, u32, LocalTemplate)]>,
        body: Box<[CStmt]>,
    ) -> CProc {
        // Field by field — never `..self.clone()`, which would deep-copy
        // the body being replaced.
        CProc {
            module: Arc::clone(&self.module),
            name: Arc::clone(&self.name),
            module_id: self.module_id,
            arg_slots: self.arg_slots.clone(),
            arg_flows: self.arg_flows.clone(),
            n_locals: self.n_locals,
            local_names: self.local_names.clone(),
            inits,
            result_slot: self.result_slot,
            body,
            declared_locals: self.declared_locals.clone(),
            exprs: Arc::clone(&self.exprs),
            sites: Arc::clone(&self.sites),
            bc: BProc::default(),
            empty: OnceLock::new(),
        }
    }
}

/// The compiled model: everything a run needs, immutable and shareable.
///
/// Obtain one with [`crate::compile_model`] (or [`crate::compile_sources`]
/// from already-parsed files) and execute it with
/// [`crate::Executor`] / [`crate::run_program`].
///
/// A program is a list of self-contained procs over one set of
/// program-wide tables (the global arena, the host lookup maps, the
/// symbol and output tables), both `Arc`-shared: derived programs
/// (source variants with an unchanged interface, the slice-specialized
/// programs of [`crate::specialize`]) hold the same table and the same
/// `Arc<CProc>` of every proc they do not lower again, so they cost
/// refcount bumps, not deep clones.
pub struct Program {
    /// All subprograms, each self-contained (see [`CProc`]).
    pub(crate) procs: Vec<Arc<CProc>>,
    /// Everything else a run or a host lookup reads, shared whole.
    pub(crate) tables: Arc<Tables>,
    /// The history slice, computed on first use
    /// ([`Program::history_program`]). Never this program itself: that
    /// would be an `Arc` cycle.
    pub(crate) history: OnceLock<Option<Arc<Program>>>,
    /// The effect summary, computed on first use ([`Program::effects`]).
    pub(crate) effects: OnceLock<Effects>,
    /// The per-output relevance masks, computed on first use
    /// ([`Program::output_masks`]).
    pub(crate) masks: OnceLock<Option<crate::specialize::Masks>>,
}

/// A program's program-wide tables, fixed by its interface: built once
/// by a full compile and shared by every program derived from it.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tables {
    /// Initial module-global values (cloned per executor).
    pub(crate) globals: Vec<Value>,
    /// Host lookup: module → variable → global slot (nested so `&str`
    /// queries never allocate key tuples).
    pub(crate) globals_by_module: HashMap<String, HashMap<String, u32>>,
    /// Module names by id.
    pub(crate) module_names: Vec<Arc<str>>,
    /// Host entry lookup: subprogram name → first-candidate proc index.
    pub(crate) entry_procs: HashMap<String, u32>,
    /// Host lookup: module → subprogram → proc index.
    pub(crate) procs_by_module: HashMap<String, HashMap<String, u32>>,
    /// Declared module variables per module, in declaration order.
    pub(crate) module_vars: HashMap<String, Vec<String>>,
    /// Sorted distinct history output names; [`rca_ident::OutputId`]
    /// values index this table (and every run's dense history buffer).
    pub(crate) output_names: Arc<[Arc<str>]>,
    /// Module-level initializer dependencies `(src, dst)`: global slot
    /// `dst`'s declaration initializer reads global slot `src`. The values
    /// themselves are const-folded into [`Tables::globals`] at compile
    /// time; this side table preserves the dataflow the folding erases.
    pub(crate) global_init_deps: Vec<(u32, u32)>,
    /// Slot-indexed origin of every module global: `(module id, name)`.
    pub(crate) global_origins: Vec<(u32, Arc<str>)>,
    /// The program's interner: every module/variable/output name resolved
    /// during compilation, as dense ids. Sessions seed the workspace-wide
    /// table from this (append-only extension keeps these ids valid).
    pub(crate) syms: Arc<SymbolTable>,
}

impl Program {
    /// A program of `procs` over `tables`.
    pub(crate) fn new(procs: Vec<Arc<CProc>>, tables: Arc<Tables>) -> Program {
        Program {
            procs,
            tables,
            history: OnceLock::new(),
            effects: OnceLock::new(),
            masks: OnceLock::new(),
        }
    }

    /// The program's symbol table: module/variable/output names interned
    /// during compilation. An `RcaSession` clones this as the seed of the
    /// workspace-wide table (append-only extension preserves every id
    /// assigned here).
    pub fn symbols(&self) -> &Arc<SymbolTable> {
        &self.tables.syms
    }

    /// A program of `procs` over this program's tables, shared by `Arc`.
    /// Sound only when every proc was lowered against this program's
    /// interface: a delta compile's procs, or a slice's.
    pub(crate) fn with_procs(&self, procs: Vec<Arc<CProc>>) -> Program {
        Program::new(procs, Arc::clone(&self.tables))
    }

    /// Whether `other` holds this program's tables by `Arc`: a delta
    /// variant of it, a slice of it, or the program itself.
    pub(crate) fn shares_tables(&self, other: &Program) -> bool {
        Arc::ptr_eq(&self.tables, &other.tables)
    }

    /// Renders the program's bytecode as one deterministic listing — the
    /// VM tier's debugging surface (pinned by a golden snapshot test).
    pub fn disassemble(&self) -> String {
        crate::bytecode::disassemble(self)
    }

    /// Total bytecode instructions across all subprograms (bench and
    /// telemetry surface; compile-time static count, not dynamic).
    pub fn instr_count(&self) -> usize {
        self.procs.iter().map(|p| p.bc.code.len()).sum()
    }

    /// Total column step-kernels the compiler extracted (the
    /// `bytecode` module's loop vectorizer); zero means every loop runs
    /// through the generic dispatch path.
    pub fn kernel_count(&self) -> usize {
        self.procs.iter().map(|p| p.bc.kernels.len()).sum()
    }

    /// This program pruned to the statements that can reach a history
    /// write ([`crate::specialize::specialize_for_history`]: every
    /// statement some output's mask keeps, see [`crate::specialize`]), built
    /// once under a `compile.history` span on first use and kept for the
    /// program's lifetime. `None` when the specializer cannot separate
    /// the program or prunes nothing. A zero-fault, unbudgeted run of it
    /// writes this program's history bits whenever this program's run
    /// succeeds; [`crate::EnsembleRuns::run_history`] is the fill that
    /// uses it.
    pub fn history_program(&self) -> Option<&Arc<Program>> {
        self.history
            .get_or_init(|| {
                let _span = rca_obs::span("compile.history");
                crate::specialize::history_slice(self)
            })
            .as_ref()
    }

    /// Which outputs' history each proc and statement can reach
    /// ([`crate::specialize`]'s one relevance fixpoint), computed on
    /// first use — by the history slice, or by the first variant filled
    /// as a cone of this program — and kept for the program's lifetime.
    /// `None` when the program is unseparable.
    pub(crate) fn output_masks(&self) -> Option<&crate::specialize::Masks> {
        self.masks
            .get_or_init(|| crate::specialize::history_masks(self))
            .as_ref()
    }

    /// The per-proc effect summary ([`Effects`]: callees, global writes,
    /// history, PRNG, physics buffer, deferred errors), built once under a
    /// `compile.effects` span on first use and kept for the program's
    /// lifetime. The specializer, reachability, the lint catalog and
    /// constant-global detection all read it.
    pub fn effects(&self) -> &Effects {
        self.effects.get_or_init(|| {
            let _span = rca_obs::span("compile.effects");
            Effects::build(self)
        })
    }

    /// Sorted distinct history output names; `OutputId` indexes this
    /// table. Shared (`Arc`) with every [`crate::RunOutput`] of this
    /// program.
    pub fn output_names(&self) -> &Arc<[Arc<str>]> {
        &self.tables.output_names
    }

    /// Number of distinct history outputs the program can write.
    pub fn output_count(&self) -> usize {
        self.tables.output_names.len()
    }

    /// Global slot of `(module, variable)`, if declared — zero-allocation
    /// `&str` lookup (sampling resolution's hot path).
    pub fn global_slot(&self, module: &str, name: &str) -> Option<u32> {
        self.tables
            .globals_by_module
            .get(module)?
            .get(name)
            .copied()
    }

    /// Names of all module variables of `module` (declaration order).
    pub fn module_var_names(&self, module: &str) -> Vec<String> {
        self.tables
            .module_vars
            .get(module)
            .cloned()
            .unwrap_or_default()
    }

    /// Number of compiled subprograms.
    pub fn proc_count(&self) -> usize {
        self.procs.len()
    }

    /// Identity-plane key of subprogram `idx`: its owning `ModuleId` (the
    /// program module-id space equals the interner's) and the interned
    /// `VarId` of its name. `None` only for an index out of range.
    pub(crate) fn proc_identity(
        &self,
        idx: usize,
        syms: &SymbolTable,
    ) -> Option<(rca_ident::ModuleId, rca_ident::VarId)> {
        let p = self.procs.get(idx)?;
        let var = syms.var_id(&p.name)?;
        Some((rca_ident::ModuleId(p.module_id), var))
    }

    /// Initial value of one module variable, if it exists.
    pub fn initial_global(&self, module: &str, name: &str) -> Option<&Value> {
        self.global_slot(module, name)
            .map(|s| &self.tables.globals[s as usize])
    }

    // ----- read-only IR surface (the static-analysis plane) --------------

    /// All compiled subprograms; [`CallSite::proc`] and proc-index
    /// accessors index this slice. Each proc carries its own expression
    /// and call-site pools.
    pub fn ir_procs(&self) -> &[Arc<CProc>] {
        &self.procs
    }

    /// Module-initializer dataflow `(src slot, dst slot)` pairs erased by
    /// load-time constant folding (see [`Program::global_origins`] for the
    /// slot identities).
    pub fn global_init_deps(&self) -> &[(u32, u32)] {
        &self.tables.global_init_deps
    }

    /// Slot-indexed `(module id, variable name)` origin of every module
    /// global. Module ids index [`Program::ir_module_names`] and equal the
    /// interner's [`rca_ident::ModuleId`] space.
    pub fn global_origins(&self) -> &[(u32, Arc<str>)] {
        &self.tables.global_origins
    }

    /// Module names by program module id.
    pub fn ir_module_names(&self) -> &[Arc<str>] {
        &self.tables.module_names
    }

    /// Number of module globals.
    pub fn global_count(&self) -> usize {
        self.tables.globals.len()
    }

    /// Compile-time initial value of global `slot`.
    pub fn global_initial(&self, slot: u32) -> &Value {
        &self.tables.globals[slot as usize]
    }

    /// Proc index of `(module, subprogram)`, if defined — zero-allocation
    /// `&str` lookup.
    pub fn proc_index(&self, module: &str, name: &str) -> Option<u32> {
        self.tables.procs_by_module.get(module)?.get(name).copied()
    }

    /// Proc index a host `Executor::call(name, ..)` entry resolves to
    /// (first-candidate rule), if any.
    pub fn entry_proc_index(&self, name: &str) -> Option<u32> {
        self.tables.entry_procs.get(name).copied()
    }
}

impl std::fmt::Debug for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Program")
            .field("procs", &self.procs.len())
            .field("globals", &self.tables.globals.len())
            .field("modules", &self.tables.module_names.len())
            .field("outputs", &self.tables.output_names.len())
            .finish()
    }
}
