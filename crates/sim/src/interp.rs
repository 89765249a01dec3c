//! Tree-walking interpreter for the parsed model.
//!
//! This is the "supercomputer" substrate: it executes the synthetic CESM
//! so that the statistical layer operates on *measured* floating-point
//! output, not mocks. Three paper-specific features:
//!
//! 1. **FMA simulation** (§6.4): when a module is "compiled with AVX2",
//!    `a*b ± c` patterns evaluate through `f64::mul_add`. The observable
//!    effect of FMA on Broadwell is exactly this single-rounding
//!    contraction, so the arithmetic is bit-true FMA.
//! 2. **PRNG substitution** (§6.2): `random_number` is backed by KISS by
//!    default and MT19937 under the RAND-MT experiment.
//! 3. **Coverage + sampling**: every executed `(module, subprogram)` is
//!    recorded (the Intel-codecov substitute), and configured variables
//!    are snapshotted at a chosen time step (the runtime instrumentation
//!    of Algorithm 5.4 step 7).

use crate::ops::{assign_into, binary_op, unary_op, write_elem, Flow, RunResult};
use crate::prng::{make_prng, Prng, PrngKind};
use crate::value::Value;
use rca_fortran::ast::{
    Attr, BaseType, Declaration, DerivedType, Expr, Module, SourceFile, Stmt, Subprogram,
    SubprogramKind, UseStmt,
};
use rca_fortran::token::Op;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// A runtime failure with source context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeError {
    /// Description.
    pub message: String,
    /// Module where it occurred (best effort).
    pub context: String,
    /// Source line (0 when unknown).
    pub line: u32,
}

impl RuntimeError {
    pub(crate) fn new(message: impl Into<String>, context: &str, line: u32) -> Self {
        RuntimeError {
            message: message.into(),
            context: context.to_string(),
            line,
        }
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (in {} line {})",
            self.message, self.context, self.line
        )
    }
}

impl std::error::Error for RuntimeError {}

/// Per-module AVX2/FMA enablement (Table 1's selective disablement).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Avx2Policy {
    /// FMA nowhere (the paper's ensemble baseline).
    Disabled,
    /// FMA in every module.
    AllModules,
    /// FMA everywhere except the listed modules ("AVX2 disabled, 50
    /// central modules").
    Except(HashSet<String>),
    /// FMA only in the listed modules.
    Only(HashSet<String>),
}

impl Avx2Policy {
    /// Whether FMA contraction applies in `module`.
    pub fn enabled_for(&self, module: &str) -> bool {
        match self {
            Avx2Policy::Disabled => false,
            Avx2Policy::AllModules => true,
            Avx2Policy::Except(set) => !set.contains(module),
            Avx2Policy::Only(set) => set.contains(module),
        }
    }
}

/// A variable to instrument at the sampling step.
///
/// Fields are shared `Arc<str>` so oracles building specs from interned
/// metagraph names clone refcounts, never string bytes; captures are
/// returned positionally (the spec's index in `RunConfig::samples`), so
/// the hot comparison path does no key hashing at all.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SampleSpec {
    /// Module owning the variable.
    pub module: Arc<str>,
    /// Subprogram for locals; `None` for module-level variables.
    pub subprogram: Option<Arc<str>>,
    /// Variable (canonical) name.
    pub name: Arc<str>,
}

impl SampleSpec {
    /// Key format shared with the metagraph (`module::sub::name`).
    pub fn key(&self) -> String {
        format!(
            "{}::{}::{}",
            self.module,
            self.subprogram.as_deref().unwrap_or(""),
            self.name
        )
    }
}

/// Run configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Number of time steps (UF-CAM-ECT evaluates at step nine).
    pub steps: u32,
    /// PRNG backing `random_number`.
    pub prng: PrngKind,
    /// PRNG seed (identical across ensemble members — members differ only
    /// in the initial-condition perturbation, as in CESM).
    pub prng_seed: u32,
    /// FMA policy.
    pub avx2: Avx2Policy,
    /// Step at which instrumented variables are snapshotted.
    pub sample_step: Option<u32>,
    /// Instrumented variables.
    pub samples: Vec<SampleSpec>,
    /// Runtime fault injection plan (the chaos axis). **Executor-only**:
    /// the tree-walking reference engine ignores it, so the differential
    /// suites only ever run zero-fault configurations and the store's
    /// fault oracle fences the executor's behavior under a plan. Empty by
    /// default, and an empty plan leaves the hot path byte-identical.
    pub faults: crate::fault::FaultPlan,
    /// Statement-fuel budget per run. **Executor-only**, like `faults`
    /// (fenced by the golden fuel table in `tests/kernels.rs`). `None`
    /// means unlimited; exhaustion aborts the run with a retryable budget
    /// error instead of hanging.
    pub fuel: Option<u64>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            steps: 9,
            prng: PrngKind::Kiss,
            prng_seed: 112358,
            avx2: Avx2Policy::Disabled,
            sample_step: None,
            samples: Vec::new(),
            faults: crate::fault::FaultPlan::default(),
            fuel: None,
        }
    }
}

impl RunConfig {
    /// A copy with fault injection stripped (budgets retained).
    ///
    /// Oracle queries answer "what does the *program* compute", so
    /// evidence gathering must run fault-free even when the scenario
    /// under diagnosis carries a fault plan.
    pub fn without_faults(&self) -> RunConfig {
        let mut c = self.clone();
        c.faults = crate::fault::FaultPlan::default();
        c
    }

    /// Whether a run under this configuration injects no faults, carries
    /// no fuel budget and captures no samples, so that its history is all
    /// it yields: the statistics fills may then run a slice of the
    /// program ([`crate::EnsembleRuns::run_history`]).
    pub fn is_plain(&self) -> bool {
        self.faults.is_empty() && self.fuel.is_none() && self.samples.is_empty()
    }
}

/// History output: per-variable global means per step (the h0 substitute).
#[derive(Debug, Clone, Default)]
pub struct History {
    data: BTreeMap<String, Vec<f64>>,
}

impl History {
    fn record(&mut self, step: u32, name: &str, value: f64) {
        let v = self.data.entry(name.to_string()).or_default();
        if v.len() <= step as usize {
            v.resize(step as usize + 1, f64::NAN);
        }
        v[step as usize] = value;
    }

    /// Output names in sorted order.
    pub fn names(&self) -> Vec<String> {
        self.data.keys().cloned().collect()
    }

    /// Full series for one output.
    pub fn series(&self, name: &str) -> Option<&[f64]> {
        self.data.get(name).map(Vec::as_slice)
    }
}

struct ProcDef {
    module: String,
    sub: Arc<Subprogram>,
    /// Dummy-intent flags: `true` when the dummy may be written back.
    writeback: Vec<bool>,
}

struct ModuleDef {
    uses: Vec<UseStmt>,
    decls: Vec<Declaration>,
}

/// Per-call execution frame.
struct Frame {
    module: String,
    proc: String,
    vars: HashMap<String, Value>,
}

/// The interpreter instance: load once, run one simulation.
pub struct Interpreter {
    modules: HashMap<String, ModuleDef>,
    procs: HashMap<String, Vec<usize>>,
    proc_defs: Vec<ProcDef>,
    types: HashMap<String, (String, DerivedType)>,
    globals: Vec<Value>,
    global_index: HashMap<(String, String), usize>,
    /// Cache: (module, proc, var) -> global slot (locals resolved first).
    binding_cache: HashMap<(String, String, String), usize>,
    pbuf: HashMap<i64, Vec<f64>>,
    prng: Box<dyn Prng>,
    config: RunConfig,
    step: u32,
    /// History output buffer.
    pub history: History,
    /// Executed (module, subprogram) pairs — the codecov substitute.
    pub coverage: HashSet<(String, String)>,
    /// Captured samples keyed `module::sub::name`.
    pub samples: HashMap<String, Vec<f64>>,
}

impl std::fmt::Debug for Interpreter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Interpreter")
            .field("modules", &self.modules.len())
            .field("procs", &self.proc_defs.len())
            .field("step", &self.step)
            .finish_non_exhaustive()
    }
}

impl Interpreter {
    /// Loads parsed sources into an executable image.
    pub fn load(files: &[SourceFile], config: RunConfig) -> RunResult<Interpreter> {
        let mut interp = Interpreter {
            modules: HashMap::new(),
            procs: HashMap::new(),
            proc_defs: Vec::new(),
            types: HashMap::new(),
            globals: Vec::new(),
            global_index: HashMap::new(),
            binding_cache: HashMap::new(),
            pbuf: HashMap::new(),
            prng: make_prng(config.prng, config.prng_seed),
            config,
            step: 0,
            history: History::default(),
            coverage: HashSet::new(),
            samples: HashMap::new(),
        };
        for file in files {
            for module in &file.modules {
                interp.ingest_module(module);
            }
        }
        // Force-evaluate every module-level variable now so dependency
        // cycles surface at load time.
        let keys: Vec<(String, String)> = interp
            .modules
            .iter()
            .flat_map(|(m, def)| {
                def.decls
                    .iter()
                    .flat_map(|d| d.entities.iter().map(|e| (m.clone(), e.name.clone())))
                    .collect::<Vec<_>>()
            })
            .collect();
        for (m, n) in keys {
            let mut in_progress = HashSet::new();
            interp.ensure_global(&m, &n, &mut in_progress)?;
        }
        Ok(interp)
    }

    fn ingest_module(&mut self, module: &Module) {
        for ty in &module.types {
            self.types
                .insert(ty.name.clone(), (module.name.clone(), ty.clone()));
        }
        for sub in &module.subprograms {
            let writeback = sub
                .args
                .iter()
                .map(|arg| {
                    // intent(in) dummies are never written back.
                    !sub.decls.iter().any(|d| {
                        d.attrs.contains(&Attr::IntentIn)
                            && d.entities.iter().any(|e| &e.name == arg)
                    })
                })
                .collect();
            let idx = self.proc_defs.len();
            self.proc_defs.push(ProcDef {
                module: module.name.clone(),
                sub: Arc::new(sub.clone()),
                writeback,
            });
            self.procs.entry(sub.name.clone()).or_default().push(idx);
        }
        self.modules.insert(
            module.name.clone(),
            ModuleDef {
                uses: module.uses.clone(),
                decls: module.decls.clone(),
            },
        );
    }

    /// Lazily computes a module variable (parameter values, array
    /// allocation, derived-type instantiation), with cycle detection.
    fn ensure_global(
        &mut self,
        module: &str,
        name: &str,
        in_progress: &mut HashSet<(String, String)>,
    ) -> RunResult<Option<usize>> {
        let key = (module.to_string(), name.to_string());
        if let Some(&slot) = self.global_index.get(&key) {
            return Ok(Some(slot));
        }
        let Some(mdef) = self.modules.get(module) else {
            return Ok(None);
        };
        // Find the declaration entity.
        let mut found: Option<(Declaration, rca_fortran::ast::DeclEntity)> = None;
        for d in &mdef.decls {
            for e in &d.entities {
                if e.name == name {
                    found = Some((d.clone(), e.clone()));
                }
            }
        }
        let Some((decl, entity)) = found else {
            return Ok(None);
        };
        if !in_progress.insert(key.clone()) {
            return Err(RuntimeError::new(
                format!("cyclic initialization of {module}::{name}"),
                module,
                decl.line,
            ));
        }
        let value = self.build_value(module, &decl, &entity, in_progress)?;
        in_progress.remove(&key);
        let slot = self.globals.len();
        self.globals.push(value);
        self.global_index.insert(key, slot);
        Ok(Some(slot))
    }

    fn build_value(
        &mut self,
        module: &str,
        decl: &Declaration,
        entity: &rca_fortran::ast::DeclEntity,
        in_progress: &mut HashSet<(String, String)>,
    ) -> RunResult<Value> {
        let shape = decl.shape_of(entity).map(<[Expr]>::to_vec);
        let init = entity.init.clone();
        let base = decl.base.clone();
        // Initializer first (parameters), in module scope.
        let init_value = match &init {
            Some(e) => Some(self.const_eval(module, e, in_progress)?),
            None => None,
        };
        match base {
            BaseType::Derived(tyname) => {
                let (tymod, tydef) = self.types.get(&tyname).cloned().ok_or_else(|| {
                    RuntimeError::new(format!("unknown type {tyname}"), module, decl.line)
                })?;
                let mut fields = HashMap::new();
                for fdecl in &tydef.fields {
                    for fent in &fdecl.entities {
                        let v = self.build_value(&tymod, fdecl, fent, in_progress)?;
                        fields.insert(fent.name.clone(), v);
                    }
                }
                Ok(Value::derived(fields))
            }
            _ => {
                if let Some(shape) = shape {
                    let mut n = 1usize;
                    for extent in &shape {
                        let v = self.const_eval(module, extent, in_progress)?;
                        let e = v.as_i64().ok_or_else(|| {
                            RuntimeError::new("array extent not integer", module, decl.line)
                        })?;
                        n *= e.max(0) as usize;
                    }
                    let fill = init_value.and_then(|v| v.as_f64()).unwrap_or(0.0);
                    Ok(Value::RealArray(vec![fill; n]))
                } else if let Some(v) = init_value {
                    Ok(match (&decl.base, v) {
                        (BaseType::Integer, Value::Real(r)) => Value::Int(r as i64),
                        (BaseType::Real, Value::Int(i)) => Value::Real(i as f64),
                        (_, v) => v,
                    })
                } else {
                    Ok(match decl.base {
                        BaseType::Integer => Value::Int(0),
                        BaseType::Logical => Value::Logical(false),
                        BaseType::Character => Value::Str(String::new()),
                        _ => Value::Real(0.0),
                    })
                }
            }
        }
    }

    /// Constant evaluation in module scope (init expressions, shapes).
    fn const_eval(
        &mut self,
        module: &str,
        expr: &Expr,
        in_progress: &mut HashSet<(String, String)>,
    ) -> RunResult<Value> {
        match expr {
            Expr::Real(v) => Ok(Value::Real(*v)),
            Expr::Int(v) => Ok(Value::Int(*v)),
            Expr::Str(s) => Ok(Value::Str(s.clone())),
            Expr::Logical(b) => Ok(Value::Logical(*b)),
            Expr::Var(name) => {
                let slot = self.resolve_module_name(module, name, in_progress)?;
                match slot {
                    Some(s) => Ok(self.globals[s].clone()),
                    None => Err(RuntimeError::new(
                        format!("undefined constant {name} in {module}"),
                        module,
                        0,
                    )),
                }
            }
            Expr::Unary { op, expr } => {
                let v = self.const_eval(module, expr, in_progress)?;
                unary_op(*op, v, module, 0)
            }
            Expr::Binary { op, lhs, rhs } => {
                let a = self.const_eval(module, lhs, in_progress)?;
                let b = self.const_eval(module, rhs, in_progress)?;
                binary_op(*op, a, b, module, 0)
            }
            other => Err(RuntimeError::new(
                format!("unsupported constant expression {other:?}"),
                module,
                0,
            )),
        }
    }

    /// Resolves a name visible at module scope (own vars then use-imports).
    fn resolve_module_name(
        &mut self,
        module: &str,
        name: &str,
        in_progress: &mut HashSet<(String, String)>,
    ) -> RunResult<Option<usize>> {
        if let Some(slot) = self.ensure_global(module, name, in_progress)? {
            return Ok(Some(slot));
        }
        let Some(mdef) = self.modules.get(module) else {
            return Ok(None);
        };
        let uses = mdef.uses.clone();
        for u in &uses {
            match &u.only {
                Some(list) => {
                    for (local, remote) in list {
                        if local == name {
                            return self.ensure_global(&u.module.clone(), remote, in_progress);
                        }
                    }
                }
                None => {
                    if let Some(slot) = self.ensure_global(&u.module.clone(), name, in_progress)? {
                        return Ok(Some(slot));
                    }
                }
            }
        }
        Ok(None)
    }

    /// Resolves a variable from a frame context to a global slot,
    /// consulting subprogram-level then module-level use statements.
    fn resolve_global(&mut self, frame: &Frame, name: &str) -> RunResult<Option<usize>> {
        let cache_key = (frame.module.clone(), frame.proc.clone(), name.to_string());
        if let Some(&slot) = self.binding_cache.get(&cache_key) {
            return Ok(Some(slot));
        }
        let mut in_progress = HashSet::new();
        // Subprogram use statements first.
        let sub_uses: Vec<UseStmt> = self
            .procs
            .get(&frame.proc)
            .and_then(|idxs| {
                idxs.iter()
                    .map(|&i| &self.proc_defs[i])
                    .find(|p| p.module == frame.module)
            })
            .map(|p| p.sub.uses.clone())
            .unwrap_or_default();
        for u in &sub_uses {
            match &u.only {
                Some(list) => {
                    for (local, remote) in list {
                        if local == name {
                            if let Some(slot) =
                                self.ensure_global(&u.module.clone(), remote, &mut in_progress)?
                            {
                                self.binding_cache.insert(cache_key, slot);
                                return Ok(Some(slot));
                            }
                        }
                    }
                }
                None => {
                    if let Some(slot) =
                        self.ensure_global(&u.module.clone(), name, &mut in_progress)?
                    {
                        self.binding_cache.insert(cache_key, slot);
                        return Ok(Some(slot));
                    }
                }
            }
        }
        if let Some(slot) =
            self.resolve_module_name(&frame.module.clone(), name, &mut in_progress)?
        {
            self.binding_cache.insert(cache_key, slot);
            return Ok(Some(slot));
        }
        Ok(None)
    }

    fn fma_enabled(&self, module: &str) -> bool {
        self.config.avx2.enabled_for(module)
    }

    // ----- public driving API -------------------------------------------

    /// Calls a subroutine by name with scalar arguments (no write-back) —
    /// the host-side entry point (`cam_init`, `cam_run_step`).
    pub fn call(&mut self, name: &str, args: &[Value]) -> RunResult<()> {
        let idx = self.find_proc(name, None)?;
        let arg_exprs: Vec<Expr> = Vec::new();
        let _ = arg_exprs;
        let values = args.to_vec();
        self.invoke(idx, values).map(|_| ())
    }

    /// Advances the time-step counter (affects history recording and
    /// sampling).
    pub fn set_step(&mut self, step: u32) {
        self.step = step;
    }

    /// Current step.
    pub fn step(&mut self) -> u32 {
        self.step
    }

    /// Snapshot module-level sampled variables (call at the end of the
    /// sampling step) and resolve fallbacks: module variables, then
    /// derived-type fields anywhere in the image.
    pub fn capture_module_samples(&mut self) {
        let specs = self.config.samples.clone();
        for spec in &specs {
            let key = spec.key();
            if self.samples.contains_key(&key) {
                continue;
            }
            if let Some(&slot) = self
                .global_index
                .get(&(spec.module.to_string(), spec.name.to_string()))
            {
                if let Some(flat) = self.globals[slot].flatten() {
                    self.samples.insert(key, flat);
                    continue;
                }
            }
            // Derived-field fallback: search derived globals for the field.
            for v in &self.globals {
                if let Value::Derived(fields) = v {
                    if let Some(f) = fields.get(&*spec.name) {
                        if let Some(flat) = f.flatten() {
                            self.samples.insert(key.clone(), flat);
                            break;
                        }
                    }
                }
            }
        }
    }

    /// Reads one module-level variable (tests, kernel comparison).
    pub fn global(&self, module: &str, name: &str) -> Option<&Value> {
        self.global_index
            .get(&(module.to_string(), name.to_string()))
            .map(|&s| &self.globals[s])
    }

    fn find_proc(&self, name: &str, caller_module: Option<&str>) -> RunResult<usize> {
        let Some(cands) = self.procs.get(name) else {
            return Err(RuntimeError::new(
                format!("unknown subprogram {name}"),
                caller_module.unwrap_or("<host>"),
                0,
            ));
        };
        if cands.len() == 1 {
            return Ok(cands[0]);
        }
        if let Some(cm) = caller_module {
            if let Some(&idx) = cands.iter().find(|&&i| self.proc_defs[i].module == cm) {
                return Ok(idx);
            }
        }
        Ok(cands[0])
    }

    /// Invokes a proc with positional values; returns the final frame.
    fn invoke(&mut self, proc_idx: usize, args: Vec<Value>) -> RunResult<Frame> {
        let (module, proc_name) = {
            let p = &self.proc_defs[proc_idx];
            (p.module.clone(), p.sub.name.clone())
        };
        self.coverage.insert((module.clone(), proc_name.clone()));
        let mut frame = Frame {
            module,
            proc: proc_name,
            vars: HashMap::new(),
        };
        // Bind dummies; the Arc keeps per-call cost at a refcount bump.
        let sub = Arc::clone(&self.proc_defs[proc_idx].sub);
        for (i, d) in sub.args.iter().enumerate() {
            let v = args.get(i).cloned().unwrap_or(Value::Real(0.0));
            frame.vars.insert(d.clone(), v);
        }
        // Allocate locals.
        for decl in &sub.decls {
            for entity in &decl.entities {
                if frame.vars.contains_key(&entity.name) {
                    continue;
                }
                let v = self.frame_value(&mut frame, decl, entity)?;
                frame.vars.insert(entity.name.clone(), v);
            }
        }
        if let Some(r) = sub.result_name() {
            frame.vars.entry(r.to_string()).or_insert(Value::Real(0.0));
        }
        self.exec_block(&mut frame, &sub.body)?;
        // Local sampling at the configured step.
        if self.config.sample_step == Some(self.step) {
            let specs = self.config.samples.clone();
            for spec in &specs {
                if *spec.module == *frame.module
                    && spec.subprogram.as_deref() == Some(frame.proc.as_str())
                {
                    if let Some(v) = frame.vars.get(&*spec.name) {
                        if let Some(flat) = v.flatten() {
                            self.samples.insert(spec.key(), flat);
                        }
                    }
                }
            }
        }
        Ok(frame)
    }

    /// Builds a local value (shapes may reference dummies, e.g.
    /// `real :: wsub(ncol)`).
    fn frame_value(
        &mut self,
        frame: &mut Frame,
        decl: &Declaration,
        entity: &rca_fortran::ast::DeclEntity,
    ) -> RunResult<Value> {
        if let BaseType::Derived(tyname) = &decl.base {
            let (tymod, tydef) = self.types.get(tyname).cloned().ok_or_else(|| {
                RuntimeError::new(format!("unknown type {tyname}"), &frame.module, decl.line)
            })?;
            let mut fields = HashMap::new();
            let mut in_progress = HashSet::new();
            for fdecl in &tydef.fields {
                for fent in &fdecl.entities {
                    let v = self.build_value(&tymod, fdecl, fent, &mut in_progress)?;
                    fields.insert(fent.name.clone(), v);
                }
            }
            return Ok(Value::derived(fields));
        }
        let shape = decl.shape_of(entity).map(<[Expr]>::to_vec);
        if let Some(shape) = shape {
            let mut n = 1usize;
            for extent in &shape {
                let v = self.eval(frame, extent, decl.line)?;
                let e = v.as_i64().ok_or_else(|| {
                    RuntimeError::new("array extent not integer", &frame.module, decl.line)
                })?;
                n *= e.max(0) as usize;
            }
            return Ok(Value::RealArray(vec![0.0; n]));
        }
        let init = match &entity.init {
            Some(e) => Some(self.eval(frame, e, decl.line)?),
            None => None,
        };
        Ok(match (&decl.base, init) {
            (BaseType::Integer, Some(v)) => Value::Int(v.as_i64().unwrap_or(0)),
            (BaseType::Integer, None) => Value::Int(0),
            (BaseType::Logical, Some(v)) => Value::Logical(v.as_bool().unwrap_or(false)),
            (BaseType::Logical, None) => Value::Logical(false),
            (BaseType::Character, v) => v.unwrap_or(Value::Str(String::new())),
            (_, Some(v)) => Value::Real(v.as_f64().unwrap_or(0.0)),
            (_, None) => Value::Real(0.0),
        })
    }

    // ----- statement execution ------------------------------------------

    fn exec_block(&mut self, frame: &mut Frame, stmts: &[Stmt]) -> RunResult<Flow> {
        for stmt in stmts {
            match self.exec_stmt(frame, stmt)? {
                Flow::Normal => {}
                flow => return Ok(flow),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, frame: &mut Frame, stmt: &Stmt) -> RunResult<Flow> {
        match stmt {
            Stmt::Assign {
                target,
                value,
                line,
            } => {
                let v = self.eval(frame, value, *line)?;
                self.write_place(frame, target, v, *line)?;
                Ok(Flow::Normal)
            }
            Stmt::Call { name, args, line } => {
                self.exec_call(frame, name, args, *line)?;
                Ok(Flow::Normal)
            }
            Stmt::If { arms, line } => {
                for (cond, block) in arms {
                    let taken = match cond {
                        Some(c) => self.eval(frame, c, *line)?.as_bool().ok_or_else(|| {
                            RuntimeError::new("if condition not logical", &frame.module, *line)
                        })?,
                        None => true,
                    };
                    if taken {
                        return self.exec_block(frame, block);
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Do {
                var,
                start,
                end,
                step,
                body,
                line,
            } => {
                let s = self.eval_int(frame, start, *line)?;
                let e = self.eval_int(frame, end, *line)?;
                let st = match step {
                    Some(x) => self.eval_int(frame, x, *line)?,
                    None => 1,
                };
                if st == 0 {
                    return Err(RuntimeError::new("zero do-step", &frame.module, *line));
                }
                let mut i = s;
                loop {
                    if (st > 0 && i > e) || (st < 0 && i < e) {
                        break;
                    }
                    frame.vars.insert(var.clone(), Value::Int(i));
                    match self.exec_block(frame, body)? {
                        Flow::Exit => break,
                        Flow::Return => return Ok(Flow::Return),
                        Flow::Normal | Flow::Cycle => {}
                    }
                    i += st;
                }
                Ok(Flow::Normal)
            }
            Stmt::DoWhile { cond, body, line } => {
                let mut guard = 0u64;
                loop {
                    let c = self.eval(frame, cond, *line)?.as_bool().ok_or_else(|| {
                        RuntimeError::new("do-while condition not logical", &frame.module, *line)
                    })?;
                    if !c {
                        break;
                    }
                    guard += 1;
                    if guard > 10_000_000 {
                        return Err(RuntimeError::new(
                            "do-while iteration bound exceeded",
                            &frame.module,
                            *line,
                        ));
                    }
                    match self.exec_block(frame, body)? {
                        Flow::Exit => break,
                        Flow::Return => return Ok(Flow::Return),
                        Flow::Normal | Flow::Cycle => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Return { .. } => Ok(Flow::Return),
            Stmt::Exit { .. } => Ok(Flow::Exit),
            Stmt::Cycle { .. } => Ok(Flow::Cycle),
        }
    }

    fn exec_call(
        &mut self,
        frame: &mut Frame,
        name: &str,
        args: &[Expr],
        line: u32,
    ) -> RunResult<()> {
        match name {
            "outfld" => return self.builtin_outfld(frame, args, line),
            "random_number" => return self.builtin_random_number(frame, args, line),
            "random_seed" => return Ok(()),
            "pbuf_set_field" => return self.builtin_pbuf_set(frame, args, line),
            "pbuf_get_field" => return self.builtin_pbuf_get(frame, args, line),
            _ => {}
        }
        let proc_idx = self.find_proc(name, Some(&frame.module))?;
        let mut values = Vec::with_capacity(args.len());
        for a in args {
            values.push(self.eval(frame, a, line)?);
        }
        let callee = self.invoke(proc_idx, values)?;
        // Copy-out: designator arguments receive the dummy's final value
        // unless the dummy is intent(in).
        let (dummies, writeback) = {
            let p = &self.proc_defs[proc_idx];
            (p.sub.args.clone(), p.writeback.clone())
        };
        for (i, arg) in args.iter().enumerate() {
            let Some(dummy) = dummies.get(i) else {
                continue;
            };
            if !writeback.get(i).copied().unwrap_or(true) {
                continue;
            }
            if !matches!(
                arg,
                Expr::Var(_) | Expr::CallOrIndex { .. } | Expr::DerivedRef { .. }
            ) {
                continue;
            }
            if let Some(v) = callee.vars.get(dummy) {
                self.write_place(frame, arg, v.clone(), line)?;
            }
        }
        Ok(())
    }

    // ----- builtins -------------------------------------------------------

    fn builtin_outfld(&mut self, frame: &mut Frame, args: &[Expr], line: u32) -> RunResult<()> {
        let name = match args.first() {
            Some(Expr::Str(s)) => s.to_lowercase(),
            other => {
                return Err(RuntimeError::new(
                    format!("outfld needs a name literal, got {other:?}"),
                    &frame.module,
                    line,
                ))
            }
        };
        let data = self.eval(frame, &args[1], line)?;
        let ncol = match args.get(2) {
            Some(e) => self.eval_int(frame, e, line)? as usize,
            None => usize::MAX,
        };
        let mean = match data {
            Value::RealArray(v) => {
                let n = v.len().min(ncol).max(1);
                v.iter().take(n).sum::<f64>() / n as f64
            }
            Value::Real(v) => v,
            other => {
                return Err(RuntimeError::new(
                    format!("outfld argument must be real, got {}", other.type_name()),
                    &frame.module,
                    line,
                ))
            }
        };
        let step = self.step;
        self.history.record(step, &name, mean);
        Ok(())
    }

    fn builtin_random_number(
        &mut self,
        frame: &mut Frame,
        args: &[Expr],
        line: u32,
    ) -> RunResult<()> {
        let Some(target) = args.first() else {
            return Err(RuntimeError::new(
                "random_number needs an argument",
                &frame.module,
                line,
            ));
        };
        let current = self.eval(frame, target, line)?;
        let new = match current {
            Value::RealArray(v) => {
                let mut out = vec![0.0; v.len()];
                self.prng.fill(&mut out);
                Value::RealArray(out)
            }
            _ => Value::Real(self.prng.next_f64()),
        };
        self.write_place(frame, target, new, line)
    }

    fn builtin_pbuf_set(&mut self, frame: &mut Frame, args: &[Expr], line: u32) -> RunResult<()> {
        let idx = self.eval_int(frame, &args[0], line)?;
        let data = self.eval(frame, &args[1], line)?;
        let arr = match data {
            Value::RealArray(v) => v,
            Value::Real(v) => vec![v],
            other => {
                return Err(RuntimeError::new(
                    format!("pbuf_set_field needs real data, got {}", other.type_name()),
                    &frame.module,
                    line,
                ))
            }
        };
        self.pbuf.insert(idx, arr);
        Ok(())
    }

    fn builtin_pbuf_get(&mut self, frame: &mut Frame, args: &[Expr], line: u32) -> RunResult<()> {
        let idx = self.eval_int(frame, &args[0], line)?;
        let data = self.pbuf.get(&idx).cloned().unwrap_or_default();
        let current = self.eval(frame, &args[1], line)?;
        let value = match current {
            Value::RealArray(v) => {
                let mut out = vec![0.0; v.len()];
                let n = out.len().min(data.len());
                out[..n].copy_from_slice(&data[..n]);
                Value::RealArray(out)
            }
            _ => Value::Real(data.first().copied().unwrap_or(0.0)),
        };
        self.write_place(frame, &args[1], value, line)
    }

    // ----- places ---------------------------------------------------------

    fn write_place(
        &mut self,
        frame: &mut Frame,
        target: &Expr,
        value: Value,
        line: u32,
    ) -> RunResult<()> {
        match target {
            Expr::Var(name) => {
                if let Some(existing) = frame.vars.get_mut(name) {
                    assign_into(existing, value, &frame.module, line)?;
                    return Ok(());
                }
                if let Some(slot) = self.resolve_global(frame, name)? {
                    assign_into(&mut self.globals[slot], value, &frame.module, line)?;
                    return Ok(());
                }
                // Implicit local (loop vars, undeclared temporaries).
                frame.vars.insert(name.clone(), value);
                Ok(())
            }
            Expr::CallOrIndex { name, args } => {
                let idx = self.eval_index(frame, args, line)?;
                if let Some(Value::RealArray(v)) = frame.vars.get_mut(name) {
                    return write_elem(v, idx, &value, &frame.module, line);
                }
                if let Some(slot) = self.resolve_global(frame, name)? {
                    if let Value::RealArray(v) = &mut self.globals[slot] {
                        return write_elem(v, idx, &value, &frame.module, line);
                    }
                }
                Err(RuntimeError::new(
                    format!("cannot index non-array {name}"),
                    &frame.module,
                    line,
                ))
            }
            Expr::DerivedRef { base, field, subs } => {
                let idx = if subs.is_empty() {
                    None
                } else {
                    Some(self.eval_index(frame, subs, line)?)
                };
                let Expr::Var(base_name) = base.as_ref() else {
                    return Err(RuntimeError::new(
                        "only single-level derived-type writes are supported",
                        &frame.module,
                        line,
                    ));
                };
                let module = frame.module.clone();
                let target_value: &mut Value = if frame.vars.contains_key(base_name) {
                    frame.vars.get_mut(base_name).expect("checked")
                } else {
                    match self.resolve_global(frame, base_name)? {
                        Some(slot) => &mut self.globals[slot],
                        None => {
                            return Err(RuntimeError::new(
                                format!("undefined derived base {base_name}"),
                                &module,
                                line,
                            ))
                        }
                    }
                };
                let Value::Derived(fields) = target_value else {
                    return Err(RuntimeError::new(
                        format!("{base_name} is not a derived type"),
                        &module,
                        line,
                    ));
                };
                let fv = fields
                    .get_mut(field)
                    .ok_or_else(|| RuntimeError::new(format!("no field {field}"), &module, line))?;
                match (idx, fv) {
                    (Some(i), Value::RealArray(v)) => write_elem(v, i, &value, &module, line),
                    (None, slot) => assign_into(slot, value, &module, line),
                    (Some(_), other) => Err(RuntimeError::new(
                        format!("cannot index field of type {}", other.type_name()),
                        &module,
                        line,
                    )),
                }
            }
            other => Err(RuntimeError::new(
                format!("invalid assignment target {other:?}"),
                &frame.module,
                line,
            )),
        }
    }

    fn eval_index(&mut self, frame: &mut Frame, subs: &[Expr], line: u32) -> RunResult<usize> {
        let Some(first) = subs.first() else {
            return Err(RuntimeError::new("missing subscript", &frame.module, line));
        };
        let v = self.eval_int(frame, first, line)?;
        if v < 1 {
            return Err(RuntimeError::new(
                format!("subscript {v} below lower bound 1"),
                &frame.module,
                line,
            ));
        }
        Ok(v as usize - 1)
    }

    // ----- expression evaluation -------------------------------------------

    fn eval_int(&mut self, frame: &mut Frame, expr: &Expr, line: u32) -> RunResult<i64> {
        let v = self.eval(frame, expr, line)?;
        v.as_i64()
            .or_else(|| v.as_f64().map(|f| f as i64))
            .ok_or_else(|| {
                RuntimeError::new(
                    format!("expected integer, got {}", v.type_name()),
                    &frame.module,
                    line,
                )
            })
    }

    fn eval(&mut self, frame: &mut Frame, expr: &Expr, line: u32) -> RunResult<Value> {
        match expr {
            Expr::Real(v) => Ok(Value::Real(*v)),
            Expr::Int(v) => Ok(Value::Int(*v)),
            Expr::Str(s) => Ok(Value::Str(s.clone())),
            Expr::Logical(b) => Ok(Value::Logical(*b)),
            Expr::Var(name) => self.read_var(frame, name, line),
            Expr::CallOrIndex { name, args } => {
                // Array indexing if the name is a visible variable.
                if frame.vars.contains_key(name) || self.resolve_global(frame, name)?.is_some() {
                    let base = self.read_var(frame, name, line)?;
                    return self.index_value(frame, base, args, name, line);
                }
                if let Some(v) = self.eval_intrinsic(frame, name, args, line)? {
                    return Ok(v);
                }
                // User function call.
                if self.procs.contains_key(name) {
                    let proc_idx = self.find_proc(name, Some(&frame.module))?;
                    let is_function = matches!(
                        self.proc_defs[proc_idx].sub.kind,
                        SubprogramKind::Function { .. }
                    );
                    if is_function {
                        let mut values = Vec::with_capacity(args.len());
                        for a in args {
                            values.push(self.eval(frame, a, line)?);
                        }
                        let result_name = self.proc_defs[proc_idx]
                            .sub
                            .result_name()
                            .expect("function has result")
                            .to_string();
                        let callee = self.invoke(proc_idx, values)?;
                        return callee.vars.get(&result_name).cloned().ok_or_else(|| {
                            RuntimeError::new(
                                format!("function {name} returned no value"),
                                &frame.module,
                                line,
                            )
                        });
                    }
                }
                Err(RuntimeError::new(
                    format!("unknown function or array '{name}'"),
                    &frame.module,
                    line,
                ))
            }
            Expr::DerivedRef { base, field, subs } => {
                let basev = self.eval(frame, base, line)?;
                let Value::Derived(fields) = basev else {
                    return Err(RuntimeError::new(
                        format!("{base:?} is not a derived value"),
                        &frame.module,
                        line,
                    ));
                };
                let fv = fields.get(field).cloned().ok_or_else(|| {
                    RuntimeError::new(format!("no field {field}"), &frame.module, line)
                })?;
                if subs.is_empty() {
                    Ok(fv)
                } else {
                    self.index_value(frame, fv, subs, field, line)
                }
            }
            Expr::Unary { op, expr } => {
                let v = self.eval(frame, expr, line)?;
                unary_op(*op, v, &frame.module, line)
            }
            Expr::Binary { op, lhs, rhs } => self.eval_binary(frame, *op, lhs, rhs, line),
            Expr::Range { .. } => Err(RuntimeError::new(
                "array sections are not values",
                &frame.module,
                line,
            )),
        }
    }

    fn read_var(&mut self, frame: &mut Frame, name: &str, line: u32) -> RunResult<Value> {
        if let Some(v) = frame.vars.get(name) {
            return Ok(v.clone());
        }
        if let Some(slot) = self.resolve_global(frame, name)? {
            return Ok(self.globals[slot].clone());
        }
        Err(RuntimeError::new(
            format!("undefined variable '{name}'"),
            &frame.module,
            line,
        ))
    }

    fn index_value(
        &mut self,
        frame: &mut Frame,
        base: Value,
        subs: &[Expr],
        name: &str,
        line: u32,
    ) -> RunResult<Value> {
        let idx = self.eval_index(frame, subs, line)?;
        match base {
            Value::RealArray(v) => v.get(idx).map(|&x| Value::Real(x)).ok_or_else(|| {
                RuntimeError::new(
                    format!(
                        "subscript {} out of bounds for {name} (len {})",
                        idx + 1,
                        v.len()
                    ),
                    &frame.module,
                    line,
                )
            }),
            other => Err(RuntimeError::new(
                format!("cannot index {} '{name}'", other.type_name()),
                &frame.module,
                line,
            )),
        }
    }

    /// Binary evaluation with FMA contraction of `a*b ± c` when the
    /// current module is compiled with AVX2.
    fn eval_binary(
        &mut self,
        frame: &mut Frame,
        op: Op,
        lhs: &Expr,
        rhs: &Expr,
        line: u32,
    ) -> RunResult<Value> {
        if matches!(op, Op::Add | Op::Sub) && self.fma_enabled(&frame.module) {
            if let Some(v) = self.try_fma(frame, op, lhs, rhs, line)? {
                return Ok(v);
            }
        }
        let a = self.eval(frame, lhs, line)?;
        let b = self.eval(frame, rhs, line)?;
        binary_op(op, a, b, &frame.module, line)
    }

    /// Contracts the **left** multiply of an add/sub (`a*b + c`,
    /// `a*b - c`) — the first product a compiler encounters is the one it
    /// fuses. Right-operand products are left unfused, which keeps
    /// convex-relaxation code (`x + w*(y - x)`) FMA-free, as observed in
    /// CESM's periphery.
    fn try_fma(
        &mut self,
        frame: &mut Frame,
        op: Op,
        lhs: &Expr,
        rhs: &Expr,
        line: u32,
    ) -> RunResult<Option<Value>> {
        if let Expr::Binary {
            op: Op::Mul,
            lhs: ma,
            rhs: mb,
        } = lhs
        {
            let a = self.eval(frame, ma, line)?;
            let b = self.eval(frame, mb, line)?;
            let c = self.eval(frame, rhs, line)?;
            if let (Some(a), Some(b), Some(c)) = (a.as_f64(), b.as_f64(), c.as_f64()) {
                let c = if op == Op::Sub { -c } else { c };
                return Ok(Some(Value::Real(a.mul_add(b, c))));
            }
            return Ok(None);
        }
        let _ = rhs;
        Ok(None)
    }

    fn eval_intrinsic(
        &mut self,
        frame: &mut Frame,
        name: &str,
        args: &[Expr],
        line: u32,
    ) -> RunResult<Option<Value>> {
        let Some(which) = crate::program::Intrin::by_name(name) else {
            return Ok(None);
        };
        let module = frame.module.clone();
        crate::ops::intrinsic_op(
            which,
            args.len(),
            &mut |i| self.eval(frame, &args[i], line),
            &module,
            line,
        )
        .map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rca_fortran::parse_source;

    fn load(src: &str) -> Interpreter {
        load_cfg(src, RunConfig::default())
    }

    fn load_cfg(src: &str, cfg: RunConfig) -> Interpreter {
        let (file, errs) = parse_source("t.F90", src);
        assert!(errs.is_empty(), "{errs:?}");
        Interpreter::load(&[file], cfg).expect("load")
    }

    #[test]
    fn module_params_and_arrays() {
        let mut i = load(
            r#"
module grid
  integer, parameter :: n = 4
end module grid
module data
  use grid, only: n
  real :: field(n)
  real, parameter :: c = 2.5 * 2.0
end module data
"#,
        );
        assert_eq!(i.global("data", "c"), Some(&Value::Real(5.0)));
        assert_eq!(
            i.global("data", "field"),
            Some(&Value::RealArray(vec![0.0; 4]))
        );
        let _ = i.step();
    }

    #[test]
    fn subroutine_executes_loops_and_writes_module_state() {
        let mut i = load(
            r#"
module m
  real :: acc(3)
contains
  subroutine run(ncol)
    integer, intent(in) :: ncol
    integer :: k
    do k = 1, ncol
      acc(k) = real(k) * 2.0
    end do
  end subroutine run
end module m
"#,
        );
        i.call("run", &[Value::Int(3)]).unwrap();
        assert_eq!(
            i.global("m", "acc"),
            Some(&Value::RealArray(vec![2.0, 4.0, 6.0]))
        );
    }

    #[test]
    fn function_calls_and_results() {
        let mut i = load(
            r#"
module m
  real :: out
contains
  real function square(x) result(s)
    real, intent(in) :: x
    s = x * x
  end function square
  subroutine run(v)
    real, intent(in) :: v
    out = square(v) + 1.0
  end subroutine run
end module m
"#,
        );
        i.call("run", &[Value::Real(3.0)]).unwrap();
        assert_eq!(i.global("m", "out"), Some(&Value::Real(10.0)));
    }

    #[test]
    fn intent_out_write_back() {
        let mut i = load(
            r#"
module m
  real :: a(2)
  real :: b(2)
contains
  subroutine fill(dst, v)
    real, intent(out) :: dst(2)
    real, intent(in) :: v
    dst(1) = v
    dst(2) = v * 2.0
  end subroutine fill
  subroutine run()
    call fill(a, 1.0)
    call fill(b, 10.0)
  end subroutine run
end module m
"#,
        );
        i.call("run", &[]).unwrap();
        assert_eq!(i.global("m", "a"), Some(&Value::RealArray(vec![1.0, 2.0])));
        assert_eq!(
            i.global("m", "b"),
            Some(&Value::RealArray(vec![10.0, 20.0]))
        );
    }

    #[test]
    fn derived_type_fields() {
        let mut i = load(
            r#"
module types
  type pair
    real :: x(2)
    real :: y(2)
  end type pair
end module types
module m
  use types, only: pair
  type(pair) :: p
contains
  subroutine run()
    integer :: k
    do k = 1, 2
      p%x(k) = real(k)
      p%y(k) = p%x(k) * 3.0
    end do
  end subroutine run
end module m
"#,
        );
        i.call("run", &[]).unwrap();
        let Some(Value::Derived(fields)) = i.global("m", "p") else {
            panic!()
        };
        assert_eq!(fields["x"], Value::RealArray(vec![1.0, 2.0]));
        assert_eq!(fields["y"], Value::RealArray(vec![3.0, 6.0]));
    }

    #[test]
    fn if_elseif_else_and_while() {
        let mut i = load(
            r#"
module m
  real :: r
contains
  subroutine classify(x)
    real, intent(in) :: x
    if (x > 10.0) then
      r = 3.0
    else if (x > 1.0) then
      r = 2.0
    else
      r = 1.0
    end if
    do while (r < 5.0)
      r = r + 1.0
    end do
  end subroutine classify
end module m
"#,
        );
        i.call("classify", &[Value::Real(5.0)]).unwrap();
        assert_eq!(i.global("m", "r"), Some(&Value::Real(5.0)));
    }

    #[test]
    fn intrinsics() {
        let mut i = load(
            r#"
module m
  real :: out(8)
  real :: arr(3)
contains
  subroutine run()
    arr(1) = 3.0
    arr(2) = -1.0
    arr(3) = 2.0
    out(1) = min(3.0, 1.0, 2.0)
    out(2) = max(3.0, 1.0, 2.0)
    out(3) = sqrt(16.0)
    out(4) = abs(-2.5)
    out(5) = sum(arr)
    out(6) = log10(100.0)
    out(7) = sign(4.0, -1.0)
    out(8) = real(7)
  end subroutine run
end module m
"#,
        );
        i.call("run", &[]).unwrap();
        let Some(Value::RealArray(v)) = i.global("m", "out") else {
            panic!()
        };
        assert_eq!(v[..8], [1.0, 3.0, 4.0, 2.5, 4.0, 2.0, -4.0, 7.0]);
    }

    #[test]
    fn fma_contraction_changes_rounding() {
        let src = r#"
module m
  real :: r
contains
  subroutine run(a, b, c)
    real, intent(in) :: a, b, c
    r = a * b + c
  end subroutine run
end module m
"#;
        // Pick operands where fused and unfused differ.
        let (a, b, c): (f64, f64, f64) = (1.0 + 1e-8, 1.0 - 1e-8, -1.0);
        let plain = a * b + c;
        let fused = a.mul_add(b, c);
        assert_ne!(plain, fused, "operand choice must expose FMA");

        let mut off = load(src);
        off.call("run", &[Value::Real(a), Value::Real(b), Value::Real(c)])
            .unwrap();
        assert_eq!(off.global("m", "r"), Some(&Value::Real(plain)));

        let cfg = RunConfig {
            avx2: Avx2Policy::AllModules,
            ..Default::default()
        };
        let mut on = load_cfg(src, cfg);
        on.call("run", &[Value::Real(a), Value::Real(b), Value::Real(c)])
            .unwrap();
        assert_eq!(on.global("m", "r"), Some(&Value::Real(fused)));
    }

    #[test]
    fn fma_policy_is_per_module() {
        let src = r#"
module hot
  real :: r1
contains
  subroutine run1(a, b, c)
    real, intent(in) :: a, b, c
    r1 = a * b + c
  end subroutine run1
end module hot
module cold
  real :: r2
contains
  subroutine run2(a, b, c)
    real, intent(in) :: a, b, c
    r2 = a * b + c
  end subroutine run2
end module cold
"#;
        let (a, b, c): (f64, f64, f64) = (1.0 + 1e-8, 1.0 - 1e-8, -1.0);
        let cfg = RunConfig {
            avx2: Avx2Policy::Only(["hot".to_string()].into_iter().collect()),
            ..Default::default()
        };
        let mut i = load_cfg(src, cfg);
        let args = [Value::Real(a), Value::Real(b), Value::Real(c)];
        i.call("run1", &args).unwrap();
        i.call("run2", &args).unwrap();
        assert_eq!(i.global("hot", "r1"), Some(&Value::Real(a.mul_add(b, c))));
        assert_eq!(i.global("cold", "r2"), Some(&Value::Real(a * b + c)));
    }

    #[test]
    fn outfld_records_history() {
        let mut i = load(
            r#"
module m
  real :: f(4)
contains
  subroutine run()
    integer :: k
    do k = 1, 4
      f(k) = real(k)
    end do
    call outfld('FLDS', f, 4)
  end subroutine run
end module m
"#,
        );
        i.set_step(3);
        i.call("run", &[]).unwrap();
        let flds = i.history.series("flds").unwrap();
        assert_eq!(flds[3], 2.5);
        assert!(flds[2].is_nan());
    }

    #[test]
    fn pbuf_round_trip() {
        let mut i = load(
            r#"
module m
  integer, parameter :: idx = 7
  real :: src(2)
  real :: dst(2)
contains
  subroutine put()
    src(1) = 5.0
    src(2) = 6.0
    call pbuf_set_field(idx, src)
  end subroutine put
  subroutine get()
    call pbuf_get_field(idx, dst)
  end subroutine get
end module m
"#,
        );
        i.call("put", &[]).unwrap();
        i.call("get", &[]).unwrap();
        assert_eq!(
            i.global("m", "dst"),
            Some(&Value::RealArray(vec![5.0, 6.0]))
        );
    }

    #[test]
    fn random_number_uses_configured_prng() {
        let src = r#"
module m
  real :: r(4)
contains
  subroutine run()
    call random_number(r)
  end subroutine run
end module m
"#;
        let mut kiss = load(src);
        kiss.call("run", &[]).unwrap();
        let Some(Value::RealArray(kv)) = kiss.global("m", "r").cloned() else {
            panic!()
        };
        let cfg = RunConfig {
            prng: PrngKind::MersenneTwister,
            ..Default::default()
        };
        let mut mt = load_cfg(src, cfg);
        mt.call("run", &[]).unwrap();
        let Some(Value::RealArray(mv)) = mt.global("m", "r").cloned() else {
            panic!()
        };
        assert!(kv.iter().all(|v| (0.0..1.0).contains(v)));
        assert_ne!(kv, mv, "different PRNGs must differ");
    }

    #[test]
    fn coverage_recorded() {
        let mut i = load(
            r#"
module m
  real :: x
contains
  subroutine used()
    x = 1.0
  end subroutine used
  subroutine unused()
    x = 2.0
  end subroutine unused
end module m
"#,
        );
        i.call("used", &[]).unwrap();
        assert!(i.coverage.contains(&("m".to_string(), "used".to_string())));
        assert!(!i
            .coverage
            .contains(&("m".to_string(), "unused".to_string())));
    }

    #[test]
    fn sampling_locals_and_module_vars() {
        let src = r#"
module m
  real :: mv(2)
contains
  subroutine run()
    real :: dum
    dum = 42.0
    mv(1) = dum
    mv(2) = dum * 2.0
  end subroutine run
end module m
"#;
        let mut cfg = RunConfig {
            sample_step: Some(0),
            ..Default::default()
        };
        cfg.samples = vec![
            SampleSpec {
                module: "m".into(),
                subprogram: Some("run".into()),
                name: "dum".into(),
            },
            SampleSpec {
                module: "m".into(),
                subprogram: None,
                name: "mv".into(),
            },
        ];
        let mut i = load_cfg(src, cfg);
        i.set_step(0);
        i.call("run", &[]).unwrap();
        i.capture_module_samples();
        assert_eq!(i.samples["m::run::dum"], vec![42.0]);
        assert_eq!(i.samples["m::::mv"], vec![42.0, 84.0]);
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let mut i = load(
            r#"
module m
  real :: a(2)
contains
  subroutine run()
    a(3) = 1.0
  end subroutine run
end module m
"#,
        );
        let err = i.call("run", &[]).unwrap_err();
        assert!(err.message.contains("out of bounds"), "{err}");
    }

    #[test]
    fn undefined_variable_is_an_error() {
        let mut i = load(
            "module m\nreal :: x\ncontains\nsubroutine run()\nx = mystery_var + 1.0\nend subroutine run\nend module m\n",
        );
        let err = i.call("run", &[]).unwrap_err();
        assert!(err.message.contains("undefined variable"), "{err}");
    }

    #[test]
    fn integer_division_truncates() {
        let mut i = load(
            "module m\ninteger :: k\ncontains\nsubroutine run()\nk = 7 / 2\nend subroutine run\nend module m\n",
        );
        i.call("run", &[]).unwrap();
        assert_eq!(i.global("m", "k"), Some(&Value::Int(3)));
    }

    #[test]
    fn exit_and_cycle() {
        let mut i = load(
            r#"
module m
  real :: total
contains
  subroutine run()
    integer :: k
    total = 0.0
    do k = 1, 10
      if (k == 3) cycle
      if (k > 5) exit
      total = total + real(k)
    end do
  end subroutine run
end module m
"#,
        );
        i.call("run", &[]).unwrap();
        // 1 + 2 + 4 + 5 = 12
        assert_eq!(i.global("m", "total"), Some(&Value::Real(12.0)));
    }

    #[test]
    fn use_rename_resolution_at_runtime() {
        let mut i = load(
            r#"
module consts
  real, parameter :: shr_g = 9.8
end module consts
module m
  use consts, only: g => shr_g
  real :: out
contains
  subroutine run()
    out = g * 2.0
  end subroutine run
end module m
"#,
        );
        i.call("run", &[]).unwrap();
        assert_eq!(i.global("m", "out"), Some(&Value::Real(19.6)));
    }
}
