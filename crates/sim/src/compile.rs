//! AST → [`Program`] lowering: the compile step between parse and execute.
//!
//! This pass does, once per model variant, everything the tree-walking
//! interpreter repeats on every variable access of every run:
//!
//! 1. **module-global construction** — the same lazy constant evaluation
//!    (parameters, array extents, derived-type instantiation, cycle
//!    detection) [`crate::interp::Interpreter::load`] performs, producing
//!    the initial global arena the executor clones per run;
//! 2. **name resolution** — every variable reference in every subprogram
//!    is resolved through the interpreter's exact lookup order (frame
//!    vars → subprogram `use` statements → module scope → module `use`
//!    statements, with renames) into a `VarBind`;
//! 3. **call resolution** — callee lookup (same-module preference),
//!    intrinsic-vs-array-vs-function disambiguation, and `intent`-driven
//!    copy-out planning;
//! 4. **body lowering** into the flat statement/expression IR.
//!
//! The lowering is **semantics-preserving to the bit**: evaluation order,
//! FMA contraction shape, coercions, and error messages mirror the tree
//! walker (the shared `ops` kernel guarantees the arithmetic).
//! Conditions the tree-walker only reports when an offending statement
//! actually executes are lowered to deferred error nodes, not compile
//! failures, so a model that runs under the interpreter compiles here.
//!
//! **Delta compiles.** A proc's lowering reads its own subprogram and,
//! outside it, only the program's *interface*: the module list; each
//! module's `use`s, types, declarations and interfaces; each
//! subprogram's name, kind, args, `use`s and declarations; the sorted
//! `outfld` name set. Given a base program compiled from base files whose
//! interface equals the variant's, every proc whose subprogram equals the
//! base's is the base's `Arc<CProc>` (tree IR and bytecode in one), the
//! program-wide tables are the base's one `Arc`, and only the changed
//! procs are lowered — as long as each of them keeps its base frame
//! layout (a new implicit local would add a symbol). Any difference
//! lowers every proc: a full compile is the same loop with nothing to
//! reuse.

use crate::bytecode::BProc;
use crate::interp::RuntimeError;
use crate::ops::{self, RunResult};
use crate::program::{
    ArgFlow, CExpr, CPlace, CProc, CStmt, CallForm, CallSite, EId, Intrin, LocalTemplate, Program,
    Tables, VarBind,
};
use crate::value::Value;
use rca_fortran::ast::{
    Attr, BaseType, Declaration, DerivedType, Expr, Module, SourceFile, Stmt, Subprogram,
    SubprogramKind, UseStmt,
};
use rca_fortran::token::Op;
use rca_ident::{OutputId, SymbolTable};
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

/// Compiles parsed sources into an executable [`Program`]. Takes owned
/// ASTs or the shared `Arc<SourceFile>`s of [`crate::parse_model`] alike.
pub fn compile_sources<F: Borrow<SourceFile>>(files: &[F]) -> Result<Program, RuntimeError> {
    compile_against(files, None)
}

/// [`compile_sources`], lowering against `base` — a program and the files
/// it was compiled from — when the interface allows (see the module
/// docs): the result equals `compile_sources(files)` bit for bit either
/// way. Emits one `compile.procs` event with the `lowered` and `reused`
/// proc counts.
pub(crate) fn compile_against<F: Borrow<SourceFile>>(
    files: &[F],
    base: Option<(&[Arc<SourceFile>], &Program)>,
) -> Result<Program, RuntimeError> {
    let _span = rca_obs::span("compile.lower");
    let mut c = Compiler::new(files);
    c.ingest();
    let delta = base.and_then(|(base_files, base)| c.delta(files, base_files, base));
    if delta.is_none() {
        c.force_globals()?;
    }
    // One lowering loop: reuse the base's proc where the delta allows,
    // lower it otherwise.
    let reused = |i: usize| delta.as_ref().filter(|d| d.same[i]).map(|d| d.base);
    let n = c.proc_asts.len();
    let lowered: Vec<CProc> = (0..n)
        .filter(|&i| reused(i).is_none())
        .map(|i| c.lower_proc(i))
        .collect();
    rca_obs::event(
        "compile.procs",
        &[
            ("lowered", lowered.len().into()),
            ("reused", (n - lowered.len()).into()),
        ],
    );
    let mut fresh = crate::bytecode::lower_procs(lowered).into_iter();
    let procs = (0..n)
        .map(|i| match reused(i) {
            Some(base) => Arc::clone(&base.procs[i]),
            None => fresh.next().expect("one proc per lowered proc"),
        })
        .collect();
    Ok(match delta {
        Some(d) => d.base.with_procs(procs),
        None => c.finish(procs),
    })
}

/// What a delta compile takes from its base program: per proc, whether
/// its subprogram equals the base's, so that its lowering is the base's.
struct Delta<'b> {
    base: &'b Program,
    same: Vec<bool>,
}

/// Per-proc frame layout, computed before its body is lowered.
struct FrameInfo {
    slot_names: Vec<Arc<str>>,
    slot_of: HashMap<String, u32>,
    result_slot: Option<u32>,
    declared_locals: Vec<String>,
}

struct Compiler<'a> {
    /// Unique module names in first-seen order.
    module_order: Vec<String>,
    /// Module name → definition (a redefinition replaces the earlier one,
    /// as in the interpreter's ingest).
    module_map: HashMap<String, &'a Module>,
    /// Module name → `(file, module)` position of its definition.
    module_pos: HashMap<String, (usize, usize)>,
    module_ids: HashMap<String, u32>,
    types: HashMap<String, (String, &'a DerivedType)>,
    proc_asts: Vec<(String, &'a Subprogram)>,
    procs_by_name: HashMap<String, Vec<u32>>,
    writeback: Vec<Vec<bool>>,
    /// Declared per-dummy intents, parallel to `writeback` (analysis
    /// metadata carried into [`CProc::arg_flows`]).
    arg_flows: Vec<Vec<ArgFlow>>,
    /// Per proc, argument position → frame slot (call sites read their
    /// callee's).
    arg_slots: Vec<Vec<u32>>,
    interner: HashMap<String, Arc<str>>,
    /// The pools of the proc being lowered.
    exprs: Vec<CExpr>,
    sites: Vec<CallSite>,
    /// The program-wide tables: the global arena, its module → variable →
    /// slot index and the initializer dependencies built by
    /// `force_globals`, the rest by `finish`; or a delta compile's base
    /// tables (`Arc`-shared, read only).
    tables: Arc<Tables>,
    /// The workspace identity plane seeded here: modules/outputs interned
    /// up front (outputs sorted, so `OutputId` order is name order),
    /// variables as `finish` walks the frames and globals. This is the
    /// single source of truth for the `OutputId` space — `outfld`
    /// lowering and `Program::output_names` both read through it.
    syms: SymbolTable,
}

impl<'a> Compiler<'a> {
    fn new<F: Borrow<SourceFile>>(files: &'a [F]) -> Compiler<'a> {
        let mut c = Compiler {
            module_order: Vec::new(),
            module_map: HashMap::new(),
            module_pos: HashMap::new(),
            module_ids: HashMap::new(),
            types: HashMap::new(),
            proc_asts: Vec::new(),
            procs_by_name: HashMap::new(),
            writeback: Vec::new(),
            arg_flows: Vec::new(),
            arg_slots: Vec::new(),
            interner: HashMap::new(),
            exprs: Vec::new(),
            sites: Vec::new(),
            tables: Arc::default(),
            syms: SymbolTable::new(),
        };
        for (fi, file) in files.iter().enumerate() {
            for (mi, module) in file.borrow().modules.iter().enumerate() {
                if !c.module_map.contains_key(&module.name) {
                    c.module_order.push(module.name.clone());
                    let id = c.module_ids.len() as u32;
                    c.module_ids.insert(module.name.clone(), id);
                    // ModuleId space == program module-id space.
                    c.syms.intern_module(&module.name);
                }
                c.module_map.insert(module.name.clone(), module);
                c.module_pos.insert(module.name.clone(), (fi, mi));
            }
        }
        // Pre-scan `call outfld('NAME', ...)` literals so OutputId space is
        // fixed (sorted, distinct) before any body is lowered: every run's
        // history is then a dense buffer indexed by OutputId.
        let mut outputs: Vec<String> = Vec::new();
        for file in files {
            for module in &file.borrow().modules {
                for sub in &module.subprograms {
                    collect_outfld_names(&sub.body, &mut outputs);
                }
            }
        }
        outputs.sort();
        outputs.dedup();
        for name in outputs {
            c.syms.intern_output(&name);
        }
        c
    }

    /// The delta against `base`, compiled from `base_files`, when the
    /// interface allows one (see the module docs); `None` means lower
    /// every proc. On success the compiler holds the base's tables, which
    /// every changed proc's frame was resolved against.
    fn delta<'b, F: Borrow<SourceFile>>(
        &mut self,
        files: &[F],
        base_files: &[Arc<SourceFile>],
        base: &'b Program,
    ) -> Option<Delta<'b>> {
        let outputs = (0..self.syms.output_count() as u32).map(|i| self.syms.output(OutputId(i)));
        let same_outputs = base.output_names().iter().map(|n| &**n).eq(outputs);
        if files.len() != base_files.len() || !same_outputs {
            return None;
        }
        for (f, b) in files.iter().zip(base_files) {
            let f = f.borrow();
            let same = std::ptr::eq(f, &**b)
                || (f.modules.len() == b.modules.len()
                    && f.modules
                        .iter()
                        .zip(&b.modules)
                        .all(|(m, n)| same_interface(m, n)));
            if !same {
                return None;
            }
        }
        // Same module list, so each proc has the same index in both
        // programs and its base subprogram sits at the same position.
        let mut same = Vec::with_capacity(self.proc_asts.len());
        for name in &self.module_order {
            let (fi, mi) = self.module_pos[name];
            let base_module = &base_files[fi].modules[mi];
            for (s, b) in self.module_map[name]
                .subprograms
                .iter()
                .zip(&base_module.subprograms)
            {
                same.push(std::ptr::eq(s, b) || s == b);
            }
        }
        self.tables = Arc::clone(&base.tables);
        for i in (0..same.len()).filter(|&i| !same[i]) {
            if *self.frame_info(i).slot_names != *base.procs[i].local_names {
                self.tables = Arc::default();
                return None;
            }
        }
        Some(Delta { base, same })
    }

    fn intern(&mut self, s: &str) -> Arc<str> {
        if let Some(a) = self.interner.get(s) {
            return a.clone();
        }
        let a: Arc<str> = Arc::from(s);
        self.interner.insert(s.to_string(), a.clone());
        a
    }

    fn push(&mut self, e: CExpr) -> EId {
        self.exprs.push(e);
        (self.exprs.len() - 1) as EId
    }

    // ----- constant folding ----------------------------------------------

    /// Scalar constant value of an already-lowered expression, if it is a
    /// literal node.
    fn const_value(&self, e: EId) -> Option<Value> {
        match &self.exprs[e as usize] {
            CExpr::Real(v) => Some(Value::Real(*v)),
            CExpr::Int(v) => Some(Value::Int(*v)),
            CExpr::Str(s) => Some(Value::Str(s.to_string())),
            CExpr::Logical(b) => Some(Value::Logical(*b)),
            _ => None,
        }
    }

    /// Literal node for a scalar value (arrays/derived are not literals).
    fn lit_of(&mut self, v: &Value) -> Option<CExpr> {
        Some(match v {
            Value::Real(x) => CExpr::Real(*x),
            Value::Int(x) => CExpr::Int(*x),
            Value::Logical(b) => CExpr::Logical(*b),
            Value::Str(s) => CExpr::Str(self.intern(s)),
            _ => return None,
        })
    }

    /// Pushes a binary node, folding literal-only operands at compile time
    /// through the **same** [`ops`] kernel the executor and the
    /// tree-walker evaluate with — bit-identical by construction. An
    /// operation the kernel rejects (type mismatch) stays unfolded so the
    /// error surfaces lazily at runtime, exactly as before. `a*b ± c` FMA
    /// shapes are never folded (the [`CExpr::MaybeFma`] node itself is
    /// built by the caller; only its unfused multiply operand goes
    /// through here, which the fused path never reads).
    fn push_binary(&mut self, op: Op, l: EId, r: EId) -> EId {
        if let (Some(a), Some(b)) = (self.const_value(l), self.const_value(r)) {
            if let Ok(v) = ops::binary_op(op, a, b, "<fold>", 0) {
                if let Some(lit) = self.lit_of(&v) {
                    return self.push(lit);
                }
            }
        }
        self.push(CExpr::Binary { op, l, r })
    }

    /// Pushes a unary node, folding a literal operand (same rules as
    /// [`Compiler::push_binary`]).
    fn push_unary(&mut self, op: Op, e: EId) -> EId {
        if let Some(v) = self.const_value(e) {
            if let Ok(folded) = ops::unary_op(op, v, "<fold>", 0) {
                if let Some(lit) = self.lit_of(&folded) {
                    return self.push(lit);
                }
            }
        }
        self.push(CExpr::Unary { op, e })
    }

    /// Mirrors `Interpreter::ingest_module`: derived types, subprogram
    /// registration order, and intent-driven writeback flags.
    fn ingest(&mut self) {
        for name in self.module_order.clone() {
            let module = self.module_map[&name];
            for ty in &module.types {
                self.types
                    .insert(ty.name.clone(), (module.name.clone(), ty));
            }
            for sub in &module.subprograms {
                let writeback = sub
                    .args
                    .iter()
                    .map(|arg| {
                        !sub.decls.iter().any(|d| {
                            d.attrs.contains(&Attr::IntentIn)
                                && d.entities.iter().any(|e| &e.name == arg)
                        })
                    })
                    .collect();
                let flows = sub
                    .args
                    .iter()
                    .map(|arg| {
                        let decl = sub
                            .decls
                            .iter()
                            .find(|d| d.entities.iter().any(|e| &e.name == arg));
                        match decl {
                            Some(d) if d.attrs.contains(&Attr::IntentIn) => ArgFlow::In,
                            Some(d) if d.attrs.contains(&Attr::IntentOut) => ArgFlow::Out,
                            Some(d) if d.attrs.contains(&Attr::IntentInOut) => ArgFlow::InOut,
                            _ => ArgFlow::Unknown,
                        }
                    })
                    .collect();
                // Dummies take the first frame slots, a repeated name its
                // first occurrence's.
                let mut distinct: Vec<&str> = Vec::new();
                let arg_slots = sub
                    .args
                    .iter()
                    .map(|a| match distinct.iter().position(|d| d == a) {
                        Some(s) => s as u32,
                        None => {
                            distinct.push(a);
                            (distinct.len() - 1) as u32
                        }
                    })
                    .collect();
                let idx = self.proc_asts.len() as u32;
                self.proc_asts.push((module.name.clone(), sub));
                self.writeback.push(writeback);
                self.arg_flows.push(flows);
                self.arg_slots.push(arg_slots);
                self.procs_by_name
                    .entry(sub.name.clone())
                    .or_default()
                    .push(idx);
            }
        }
    }

    // ----- module-global construction (load-time constant evaluation) ----

    /// Forces every declared module variable, surfacing initialization
    /// cycles and bad constant expressions at compile time (the same
    /// moment `Interpreter::load` surfaces them).
    fn force_globals(&mut self) -> RunResult<()> {
        for m in self.module_order.clone() {
            let names: Vec<String> = self.module_map[&m]
                .decls
                .iter()
                .flat_map(|d| d.entities.iter().map(|e| e.name.clone()))
                .collect();
            for n in names {
                let mut in_progress = HashSet::new();
                self.ensure_global(&m, &n, &mut in_progress)?;
            }
        }
        Ok(())
    }

    fn ensure_global(
        &mut self,
        module: &str,
        name: &str,
        in_progress: &mut HashSet<(String, String)>,
    ) -> RunResult<Option<u32>> {
        if let Some(&slot) = self
            .tables
            .globals_by_module
            .get(module)
            .and_then(|m| m.get(name))
        {
            return Ok(Some(slot));
        }
        let key = (module.to_string(), name.to_string());
        let Some(mdef) = self.module_map.get(module) else {
            return Ok(None);
        };
        // Find the declaration entity (last match wins, as in the
        // interpreter).
        let mut found: Option<(&'a Declaration, &'a rca_fortran::ast::DeclEntity)> = None;
        for d in &mdef.decls {
            for e in &d.entities {
                if e.name == name {
                    found = Some((d, e));
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
        let value = self.build_value(module, decl, entity, in_progress)?;
        in_progress.remove(&key);
        let tables = Arc::make_mut(&mut self.tables);
        let slot = tables.globals.len() as u32;
        tables.globals.push(value);
        tables
            .globals_by_module
            .entry(key.0)
            .or_default()
            .insert(key.1, slot);
        // Preserve the initializer's dataflow: `build_value` just folded
        // it into a constant, but the variables it read are real
        // dependencies (module-scope resolution, same order const_eval
        // used). Shape extents are index information and excluded.
        if let Some(init) = &entity.init {
            let mut reads = Vec::new();
            collect_init_reads(init, &mut reads);
            for name in reads {
                let mut fresh = HashSet::new();
                if let Ok(Some(src)) = self.resolve_module_name(module, &name, &mut fresh) {
                    Arc::make_mut(&mut self.tables)
                        .global_init_deps
                        .push((src, slot));
                }
            }
        }
        Ok(Some(slot))
    }

    fn build_value(
        &mut self,
        module: &str,
        decl: &Declaration,
        entity: &rca_fortran::ast::DeclEntity,
        in_progress: &mut HashSet<(String, String)>,
    ) -> RunResult<Value> {
        let shape = decl.shape_of(entity);
        // Initializer first (parameters), in module scope.
        let init_value = match &entity.init {
            Some(e) => Some(self.const_eval(module, e, in_progress)?),
            None => None,
        };
        match &decl.base {
            BaseType::Derived(tyname) => {
                let (tymod, tydef) = self.types.get(tyname).cloned().ok_or_else(|| {
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
                    for extent in shape {
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
                    Some(s) => Ok(self.tables.globals[s as usize].clone()),
                    None => Err(RuntimeError::new(
                        format!("undefined constant {name} in {module}"),
                        module,
                        0,
                    )),
                }
            }
            Expr::Unary { op, expr } => {
                let v = self.const_eval(module, expr, in_progress)?;
                ops::unary_op(*op, v, module, 0)
            }
            Expr::Binary { op, lhs, rhs } => {
                let a = self.const_eval(module, lhs, in_progress)?;
                let b = self.const_eval(module, rhs, in_progress)?;
                ops::binary_op(*op, a, b, module, 0)
            }
            other => Err(RuntimeError::new(
                format!("unsupported constant expression {other:?}"),
                module,
                0,
            )),
        }
    }

    /// Name visible at module scope: own variables, then use-imports (with
    /// renames), non-transitively — the interpreter's exact rule.
    fn resolve_module_name(
        &mut self,
        module: &str,
        name: &str,
        in_progress: &mut HashSet<(String, String)>,
    ) -> RunResult<Option<u32>> {
        if let Some(slot) = self.ensure_global(module, name, in_progress)? {
            return Ok(Some(slot));
        }
        let Some(mdef) = self.module_map.get(module) else {
            return Ok(None);
        };
        let uses: &[UseStmt] = &mdef.uses;
        // Split the borrow: collect the resolution steps first.
        let steps: Vec<(String, String)> = uses
            .iter()
            .filter_map(|u| match &u.only {
                Some(list) => list
                    .iter()
                    .find(|(local, _)| local == name)
                    .map(|(_, remote)| (u.module.clone(), remote.clone())),
                None => Some((u.module.clone(), name.to_string())),
            })
            .collect();
        for (m, n) in steps {
            if let Some(slot) = self.ensure_global(&m, &n, in_progress)? {
                return Ok(Some(slot));
            }
        }
        Ok(None)
    }

    /// Frame-context global resolution: subprogram `use` statements first,
    /// then module scope — the interpreter's `resolve_global`. Pure lookup
    /// once `force_globals` ran.
    fn frame_global_slot(&mut self, module: &str, sub: &Subprogram, name: &str) -> Option<u32> {
        let mut in_progress = HashSet::new();
        for u in &sub.uses {
            match &u.only {
                Some(list) => {
                    for (local, remote) in list {
                        if local == name {
                            if let Ok(Some(slot)) =
                                self.ensure_global(&u.module.clone(), remote, &mut in_progress)
                            {
                                return Some(slot);
                            }
                        }
                    }
                }
                None => {
                    if let Ok(Some(slot)) =
                        self.ensure_global(&u.module.clone(), name, &mut in_progress)
                    {
                        return Some(slot);
                    }
                }
            }
        }
        self.resolve_module_name(module, name, &mut in_progress)
            .ok()
            .flatten()
    }

    /// Mirrors `Interpreter::find_proc`: unique name, else same-module
    /// preference, else first registration.
    fn find_proc(&self, name: &str, caller_module: Option<&str>) -> Option<u32> {
        let cands = self.procs_by_name.get(name)?;
        if cands.len() == 1 {
            return Some(cands[0]);
        }
        if let Some(cm) = caller_module {
            if let Some(&idx) = cands.iter().find(|&&i| self.proc_asts[i as usize].0 == cm) {
                return Some(idx);
            }
        }
        cands.first().copied()
    }

    // ----- frame layout ---------------------------------------------------

    /// Computes the frame layout: dummies, declared locals, the function
    /// result, then every name the body can *create* as an implicit local
    /// (`do` variables always; written names only when no global shadows
    /// them, because writes to global-resolving names hit the global).
    fn frame_info(&mut self, proc_idx: usize) -> FrameInfo {
        let (module, sub) = {
            let (m, s) = &self.proc_asts[proc_idx];
            (m.clone(), *s)
        };
        let mut slot_names: Vec<Arc<str>> = Vec::new();
        let mut slot_of: HashMap<String, u32> = HashMap::new();
        let add = |c: &mut Compiler<'a>,
                   slot_names: &mut Vec<Arc<str>>,
                   slot_of: &mut HashMap<String, u32>,
                   name: &str|
         -> u32 {
            if let Some(&s) = slot_of.get(name) {
                return s;
            }
            let s = slot_names.len() as u32;
            slot_names.push(c.intern(name));
            slot_of.insert(name.to_string(), s);
            s
        };
        for a in &sub.args {
            add(self, &mut slot_names, &mut slot_of, a);
        }
        for d in &sub.decls {
            for e in &d.entities {
                add(self, &mut slot_names, &mut slot_of, &e.name);
            }
        }
        let result_slot = sub
            .result_name()
            .map(std::string::ToString::to_string)
            .map(|r| add(self, &mut slot_names, &mut slot_of, &r));
        // Body scan for implicit locals.
        let mut written: Vec<(String, bool)> = Vec::new(); // (name, is_do_var)
        collect_written(&sub.body, &mut written);
        for (name, is_do_var) in written {
            if slot_of.contains_key(&name) {
                continue;
            }
            if is_do_var || self.frame_global_slot(&module, sub, &name).is_none() {
                add(self, &mut slot_names, &mut slot_of, &name);
            }
        }
        let declared_locals: Vec<String> = sub
            .decls
            .iter()
            .flat_map(|d| d.entities.iter().map(|e| e.name.clone()))
            .filter(|n| !sub.args.contains(n))
            .collect();
        FrameInfo {
            slot_names,
            slot_of,
            result_slot,
            declared_locals,
        }
    }

    // ----- body lowering --------------------------------------------------

    /// Lowers proc `proc_idx` into a self-contained [`CProc`] (its
    /// expression and call-site pools start empty), its bytecode not yet
    /// emitted.
    fn lower_proc(&mut self, proc_idx: usize) -> CProc {
        let frame = self.frame_info(proc_idx);
        let (module, sub) = {
            let (m, s) = &self.proc_asts[proc_idx];
            (m.clone(), *s)
        };
        let module_sym = self.intern(&module);
        let mut cx = ProcCx {
            module: module.clone(),
            sub,
            binds: HashMap::new(),
            frame,
        };
        // Local initializers, in declaration order, skipping dummies and
        // repeated names (the interpreter's "already in frame" rule).
        let mut inits: Vec<(u32, u32, LocalTemplate)> = Vec::new();
        let mut seeded: HashSet<u32> = self.arg_slots[proc_idx].iter().copied().collect();
        for d in &sub.decls {
            for e in &d.entities {
                let slot = cx.frame.slot_of[&e.name];
                if !seeded.insert(slot) {
                    continue;
                }
                let tmpl = self.local_template(&mut cx, d, e);
                inits.push((slot, d.line, tmpl));
            }
        }
        let body = self.lower_block(&mut cx, &sub.body);
        let name_sym = self.intern(&sub.name);
        let frame = cx.frame;
        CProc {
            module: module_sym,
            name: name_sym,
            module_id: self.module_ids[&module],
            arg_slots: self.arg_slots[proc_idx].clone().into_boxed_slice(),
            arg_flows: self.arg_flows[proc_idx].clone().into_boxed_slice(),
            n_locals: frame.slot_names.len(),
            local_names: frame.slot_names.into_boxed_slice(),
            inits: inits.into_boxed_slice(),
            result_slot: frame.result_slot,
            body,
            declared_locals: frame.declared_locals.into_boxed_slice(),
            exprs: std::mem::take(&mut self.exprs).into(),
            sites: std::mem::take(&mut self.sites).into(),
            bc: BProc::default(),
            empty: OnceLock::new(),
        }
    }

    /// Mirrors `Interpreter::frame_value`: derived prototype, runtime
    /// array extents, or scalar with optional initializer.
    fn local_template(
        &mut self,
        cx: &mut ProcCx<'a>,
        decl: &'a Declaration,
        entity: &'a rca_fortran::ast::DeclEntity,
    ) -> LocalTemplate {
        if let BaseType::Derived(tyname) = &decl.base {
            let Some((tymod, tydef)) = self.types.get(tyname).cloned() else {
                return LocalTemplate::Error(
                    self.intern(&format!("unknown type {tyname}")),
                    decl.line,
                );
            };
            let mut fields = HashMap::new();
            let mut in_progress = HashSet::new();
            for fdecl in &tydef.fields {
                for fent in &fdecl.entities {
                    match self.build_value(&tymod, fdecl, fent, &mut in_progress) {
                        Ok(v) => {
                            fields.insert(fent.name.clone(), v);
                        }
                        Err(e) => return LocalTemplate::Error(self.intern(&e.message), decl.line),
                    }
                }
            }
            return LocalTemplate::Derived(Value::derived(fields));
        }
        if let Some(shape) = decl.shape_of(entity) {
            let extents: Vec<EId> = shape.iter().map(|e| self.lower_expr(cx, e)).collect();
            return LocalTemplate::Array(extents.into_boxed_slice());
        }
        let init = entity.init.as_ref().map(|e| self.lower_expr(cx, e));
        match decl.base {
            BaseType::Integer => LocalTemplate::Int(init),
            BaseType::Logical => LocalTemplate::Logic(init),
            BaseType::Character => LocalTemplate::Char(init),
            _ => LocalTemplate::RealVal(init),
        }
    }

    fn bind_of(&mut self, cx: &mut ProcCx<'a>, name: &str) -> Option<VarBind> {
        if let Some(b) = cx.binds.get(name) {
            return *b;
        }
        let slot = cx.frame.slot_of.get(name).copied();
        let global = self.frame_global_slot(&cx.module.clone(), cx.sub, name);
        let bind = match (slot, global) {
            (Some(s), Some(g)) => Some(VarBind::LocalOrGlobal(s, g)),
            (Some(s), None) => Some(VarBind::Local(s)),
            (None, Some(g)) => Some(VarBind::Global(g)),
            (None, None) => None,
        };
        cx.binds.insert(name.to_string(), bind);
        bind
    }

    fn lower_block(&mut self, cx: &mut ProcCx<'a>, stmts: &'a [Stmt]) -> Box<[CStmt]> {
        stmts.iter().map(|s| self.lower_stmt(cx, s)).collect()
    }

    fn lower_stmt(&mut self, cx: &mut ProcCx<'a>, stmt: &'a Stmt) -> CStmt {
        match stmt {
            Stmt::Assign {
                target,
                value,
                line,
            } => {
                let value = self.lower_expr(cx, value);
                let place = self.lower_place(cx, target);
                CStmt::Assign {
                    place,
                    value,
                    line: *line,
                }
            }
            Stmt::Call { name, args, line } => self.lower_call(cx, name, args, *line),
            Stmt::If { arms, line } => {
                let arms = arms
                    .iter()
                    .map(|(cond, block)| {
                        (
                            cond.as_ref().map(|c| self.lower_expr(cx, c)),
                            self.lower_block(cx, block),
                        )
                    })
                    .collect();
                CStmt::If { arms, line: *line }
            }
            Stmt::Do {
                var,
                start,
                end,
                step,
                body,
                line,
            } => {
                let slot = cx.frame.slot_of[var.as_str()];
                CStmt::Do {
                    var: slot,
                    start: self.lower_expr(cx, start),
                    end: self.lower_expr(cx, end),
                    step: step.as_ref().map(|s| self.lower_expr(cx, s)),
                    body: self.lower_block(cx, body),
                    line: *line,
                }
            }
            Stmt::DoWhile { cond, body, line } => CStmt::DoWhile {
                cond: self.lower_expr(cx, cond),
                body: self.lower_block(cx, body),
                line: *line,
            },
            Stmt::Return { .. } => CStmt::Return,
            Stmt::Exit { .. } => CStmt::Exit,
            Stmt::Cycle { .. } => CStmt::Cycle,
        }
    }

    fn lower_call(
        &mut self,
        cx: &mut ProcCx<'a>,
        name: &str,
        args: &'a [Expr],
        line: u32,
    ) -> CStmt {
        match name {
            "outfld" => {
                let out = match args.first() {
                    Some(Expr::Str(s)) => {
                        self.syms
                            .output_id(&s.to_lowercase())
                            .expect("outfld literal pre-scanned")
                            .0
                    }
                    other => {
                        let msg = format!("outfld needs a name literal, got {other:?}");
                        return CStmt::ErrorStmt {
                            msg: self.intern(&msg),
                            line,
                        };
                    }
                };
                let Some(data) = args.get(1) else {
                    return CStmt::ErrorStmt {
                        msg: self.intern("outfld needs a data argument"),
                        line,
                    };
                };
                let data = self.lower_expr(cx, data);
                let ncol = args.get(2).map(|e| self.lower_expr(cx, e));
                CStmt::Outfld {
                    out,
                    data,
                    ncol,
                    line,
                }
            }
            "random_number" => {
                let Some(target) = args.first() else {
                    return CStmt::ErrorStmt {
                        msg: self.intern("random_number needs an argument"),
                        line,
                    };
                };
                let current = self.lower_expr(cx, target);
                let place = self.lower_place(cx, target);
                CStmt::RandomNumber {
                    current,
                    place,
                    line,
                }
            }
            "random_seed" => CStmt::Nop,
            "pbuf_set_field" => {
                let (Some(idx), Some(data)) = (args.first(), args.get(1)) else {
                    return CStmt::ErrorStmt {
                        msg: self.intern("pbuf_set_field needs (index, data)"),
                        line,
                    };
                };
                CStmt::PbufSet {
                    idx: self.lower_expr(cx, idx),
                    data: self.lower_expr(cx, data),
                    line,
                }
            }
            "pbuf_get_field" => {
                let (Some(idx), Some(target)) = (args.first(), args.get(1)) else {
                    return CStmt::ErrorStmt {
                        msg: self.intern("pbuf_get_field needs (index, target)"),
                        line,
                    };
                };
                CStmt::PbufGet {
                    idx: self.lower_expr(cx, idx),
                    current: self.lower_expr(cx, target),
                    place: self.lower_place(cx, target),
                    line,
                }
            }
            _ => {
                let Some(callee) = self.find_proc(name, Some(&cx.module.clone())) else {
                    // The interpreter reports unknown subprograms with
                    // line 0 from `find_proc`.
                    return CStmt::ErrorStmt {
                        msg: self.intern(&format!("unknown subprogram {name}")),
                        line: 0,
                    };
                };
                let site = self.make_call_site(cx, callee, args);
                CStmt::Call { site, line }
            }
        }
    }

    fn make_call_site(&mut self, cx: &mut ProcCx<'a>, callee: u32, args: &'a [Expr]) -> u32 {
        let arg_ids: Vec<EId> = args.iter().map(|a| self.lower_expr(cx, a)).collect();
        let (dummies, writeback) = {
            let (_, sub) = &self.proc_asts[callee as usize];
            (sub.args.clone(), self.writeback[callee as usize].clone())
        };
        let mut copyout = Vec::new();
        for (i, arg) in args.iter().enumerate() {
            if dummies.get(i).is_none() {
                continue;
            }
            if !writeback.get(i).copied().unwrap_or(true) {
                continue;
            }
            if !matches!(
                arg,
                Expr::Var(_) | Expr::CallOrIndex { .. } | Expr::DerivedRef { .. }
            ) {
                continue;
            }
            let dummy_slot = self.arg_slots[callee as usize][i];
            let place = self.lower_place(cx, arg);
            copyout.push((dummy_slot, place));
        }
        self.sites.push(CallSite {
            proc: callee,
            args: arg_ids.into_boxed_slice(),
            copyout: copyout.into_boxed_slice(),
        });
        (self.sites.len() - 1) as u32
    }

    /// Function-call site from an expression context (no copy-out: the
    /// interpreter's expression path only reads the result).
    fn make_fn_site(&mut self, cx: &mut ProcCx<'a>, callee: u32, args: &'a [Expr]) -> u32 {
        let arg_ids: Vec<EId> = args.iter().map(|a| self.lower_expr(cx, a)).collect();
        self.sites.push(CallSite {
            proc: callee,
            args: arg_ids.into_boxed_slice(),
            copyout: Box::new([]),
        });
        (self.sites.len() - 1) as u32
    }

    fn lower_place(&mut self, cx: &mut ProcCx<'a>, target: &'a Expr) -> CPlace {
        match target {
            Expr::Var(name) => match self.bind_of(cx, name) {
                Some(bind) => CPlace::Var { bind },
                // Written plain names always received a frame slot, so a
                // missing binding can only mean this place is never a
                // legal target.
                None => CPlace::Invalid {
                    msg: self.intern(&format!("invalid assignment target {target:?}")),
                },
            },
            Expr::CallOrIndex { name, args } => {
                let Some(sub) = args.first() else {
                    return CPlace::Invalid {
                        msg: self.intern("missing subscript"),
                    };
                };
                let sub = self.lower_expr(cx, sub);
                match self.bind_of(cx, name) {
                    Some(bind) => CPlace::Elem {
                        bind,
                        name: self.intern(name),
                        sub,
                    },
                    None => CPlace::Invalid {
                        msg: self.intern(&format!("cannot index non-array {name}")),
                    },
                }
            }
            Expr::DerivedRef { base, field, subs } => {
                let sub = subs.first().map(|s| self.lower_expr(cx, s));
                let Expr::Var(base_name) = base.as_ref() else {
                    return CPlace::Invalid {
                        msg: self.intern("only single-level derived-type writes are supported"),
                    };
                };
                match self.bind_of(cx, base_name) {
                    Some(bind) => CPlace::Derived {
                        bind,
                        name: self.intern(base_name),
                        field: self.intern(field),
                        sub,
                    },
                    None => CPlace::Invalid {
                        msg: self.intern(&format!("undefined derived base {base_name}")),
                    },
                }
            }
            other => CPlace::Invalid {
                msg: self.intern(&format!("invalid assignment target {other:?}")),
            },
        }
    }

    fn lower_expr(&mut self, cx: &mut ProcCx<'a>, expr: &'a Expr) -> EId {
        let node = match expr {
            Expr::Real(v) => CExpr::Real(*v),
            Expr::Int(v) => CExpr::Int(*v),
            Expr::Str(s) => CExpr::Str(self.intern(s)),
            Expr::Logical(b) => CExpr::Logical(*b),
            Expr::Var(name) => match self.bind_of(cx, name) {
                Some(bind) => CExpr::Var {
                    bind,
                    name: self.intern(name),
                },
                None => CExpr::ErrorExpr {
                    msg: self.intern(&format!("undefined variable '{name}'")),
                },
            },
            Expr::CallOrIndex { name, args } => return self.lower_call_or_index(cx, name, args),
            Expr::DerivedRef { base, field, subs } => {
                let err = self.intern(&format!("{base:?} is not a derived value"));
                let sub = subs.first().map(|s| self.lower_expr(cx, s));
                let field = self.intern(field);
                if let Expr::Var(base_name) = base.as_ref() {
                    match self.bind_of(cx, base_name) {
                        Some(bind) => CExpr::DerivedVar {
                            bind,
                            name: self.intern(base_name),
                            field,
                            sub,
                            err,
                        },
                        None => CExpr::ErrorExpr {
                            msg: self.intern(&format!("undefined variable '{base_name}'")),
                        },
                    }
                } else {
                    let base = self.lower_expr(cx, base);
                    CExpr::DerivedExpr {
                        base,
                        field,
                        sub,
                        err,
                    }
                }
            }
            Expr::Unary { op, expr } => {
                let e = self.lower_expr(cx, expr);
                return self.push_unary(*op, e);
            }
            Expr::Binary { op, lhs, rhs } => {
                // FMA candidate: `a*b ± c` contracts the *left* multiply.
                // Shape detection runs on the AST, before folding, so a
                // literal-only product keeps its FMA-contractible form.
                if matches!(op, Op::Add | Op::Sub) {
                    if let Expr::Binary {
                        op: Op::Mul,
                        lhs: ma,
                        rhs: mb,
                    } = lhs.as_ref()
                    {
                        let a = self.lower_expr(cx, ma);
                        let b = self.lower_expr(cx, mb);
                        let l = self.push_binary(Op::Mul, a, b);
                        let c = self.lower_expr(cx, rhs);
                        return self.push(CExpr::MaybeFma {
                            op: *op,
                            a,
                            b,
                            c,
                            l,
                        });
                    }
                }
                let l = self.lower_expr(cx, lhs);
                let r = self.lower_expr(cx, rhs);
                return self.push_binary(*op, l, r);
            }
            Expr::Range { .. } => CExpr::ErrorExpr {
                msg: self.intern("array sections are not values"),
            },
        };
        self.push(node)
    }

    /// The call-vs-index ambiguity, resolved in the interpreter's order:
    /// visible variable → intrinsic → user function → error.
    fn lower_call_or_index(&mut self, cx: &mut ProcCx<'a>, name: &str, args: &'a [Expr]) -> EId {
        let bind = self.bind_of(cx, name);
        // Compile the non-variable interpretation (used directly when the
        // name never resolves to a variable, or as the runtime fallback
        // when a local slot may be unset).
        let callable = |c: &mut Compiler<'a>, cx: &mut ProcCx<'a>| -> CallForm {
            if let Some(which) = Intrin::by_name(name) {
                let arg_ids: Vec<EId> = args.iter().map(|a| c.lower_expr(cx, a)).collect();
                return CallForm::Intrinsic(which, arg_ids.into_boxed_slice());
            }
            if let Some(callee) = c.find_proc(name, Some(&cx.module.clone())) {
                let is_function = {
                    let (_, sub) = &c.proc_asts[callee as usize];
                    matches!(sub.kind, SubprogramKind::Function { .. })
                };
                if is_function {
                    let site = c.make_fn_site(cx, callee, args);
                    return CallForm::Function(site);
                }
            }
            CallForm::Unknown
        };
        match bind {
            Some(bind) => {
                let sub = match args.first() {
                    Some(s) => self.lower_expr(cx, s),
                    None => {
                        let msg = self.intern("missing subscript");
                        self.push(CExpr::ErrorExpr { msg })
                    }
                };
                // Only a plain local can be unset with nothing behind it;
                // globals are always set.
                let fallback = match bind {
                    VarBind::Local(_) => Some(Box::new(callable(self, cx))),
                    _ => None,
                };
                let name = self.intern(name);
                self.push(CExpr::Index {
                    bind,
                    name,
                    sub,
                    fallback,
                })
            }
            None => match callable(self, cx) {
                CallForm::Intrinsic(which, args) => self.push(CExpr::Intrinsic { which, args }),
                CallForm::Function(site) => self.push(CExpr::CallFn { site }),
                CallForm::Unknown => {
                    let msg = self.intern(&format!("unknown function or array '{name}'"));
                    self.push(CExpr::ErrorExpr { msg })
                }
            },
        }
    }

    /// Builds the program-wide tables of a full compile around `procs`.
    fn finish(mut self, procs: Vec<Arc<CProc>>) -> Program {
        let order = self.module_order.clone();
        let module_names: Vec<Arc<str>> = order.iter().map(|m| self.intern(m)).collect();
        let entry_procs: HashMap<String, u32> = self
            .procs_by_name
            .iter()
            .map(|(name, cands)| (name.clone(), cands[0]))
            .collect();
        let mut procs_by_module: HashMap<String, HashMap<String, u32>> = HashMap::new();
        // First definition wins, as in the interpreter's lookup.
        for (i, (m, s)) in self.proc_asts.iter().enumerate().rev() {
            procs_by_module
                .entry(m.clone())
                .or_default()
                .insert(s.name.clone(), i as u32);
        }
        let module_vars: HashMap<String, Vec<String>> = self
            .module_order
            .iter()
            .map(|m| {
                let vars = self.module_map[m]
                    .decls
                    .iter()
                    .flat_map(|d| d.entities.iter().map(|e| e.name.clone()))
                    .collect();
                (m.clone(), vars)
            })
            .collect();
        let mut global_origins: Vec<(u32, Arc<str>)> =
            vec![(u32::MAX, Arc::from("")); self.tables.globals.len()];
        for (m, vars) in &self.tables.globals_by_module {
            for (n, slot) in vars {
                global_origins[*slot as usize] = (self.module_ids[m], Arc::from(n.as_str()));
            }
        }
        // Seed the variable namespace: module variables (declaration
        // order per module), then subprogram names and frame-local names
        // (definition order) — the identifiers the metagraph and the
        // sampling layer resolve against.
        for m in &self.module_order {
            for v in &module_vars[m] {
                self.syms.intern_var(v);
            }
        }
        for p in &procs {
            self.syms.intern_var(&p.name);
            for local in &p.local_names {
                self.syms.intern_var(local);
            }
        }
        let output_names: Vec<Arc<str>> = (0..self.syms.output_count())
            .map(|i| self.syms.output_arc(rca_ident::OutputId(i as u32)))
            .collect();
        // `force_globals` filled the global arena, its index and the
        // initializer dependencies.
        let tables = Tables {
            module_names,
            entry_procs,
            procs_by_module,
            module_vars,
            output_names: output_names.into(),
            global_origins,
            syms: Arc::new(self.syms),
            ..Arc::unwrap_or_clone(self.tables)
        };
        Program::new(procs, Arc::new(tables))
    }
}

/// Per-proc lowering context: identity, frame layout, binding memo.
struct ProcCx<'a> {
    module: String,
    sub: &'a Subprogram,
    binds: HashMap<String, Option<VarBind>>,
    frame: FrameInfo,
}

/// Whether two modules at the same position have the same interface:
/// name, `use`s, types, declarations, interfaces, and per subprogram its
/// name, kind, args, `use`s and declarations.
fn same_interface(a: &Module, b: &Module) -> bool {
    std::ptr::eq(a, b)
        || (a.name == b.name
            && a.uses == b.uses
            && a.types == b.types
            && a.decls == b.decls
            && a.interfaces == b.interfaces
            && a.subprograms.len() == b.subprograms.len()
            && a.subprograms.iter().zip(&b.subprograms).all(|(s, t)| {
                s.name == t.name
                    && s.kind == t.kind
                    && s.args == t.args
                    && s.uses == t.uses
                    && s.decls == t.decls
            }))
}

/// Collects lowercased `call outfld('NAME', ...)` name literals — the
/// pre-scan that fixes the dense `OutputId` space before lowering.
fn collect_outfld_names(stmts: &[Stmt], out: &mut Vec<String>) {
    for stmt in stmts {
        match stmt {
            Stmt::Call { name, args, .. } if name == "outfld" => {
                if let Some(Expr::Str(s)) = args.first() {
                    out.push(s.to_lowercase());
                }
            }
            Stmt::If { arms, .. } => {
                for (_, block) in arms {
                    collect_outfld_names(block, out);
                }
            }
            Stmt::Do { body, .. } | Stmt::DoWhile { body, .. } => {
                collect_outfld_names(body, out);
            }
            _ => {}
        }
    }
}

/// Collects the variable names a module-declaration initializer reads
/// (constant expressions: literals, names, unary/binary operators — the
/// same forms `const_eval` accepts).
fn collect_init_reads(expr: &Expr, out: &mut Vec<String>) {
    match expr {
        Expr::Var(name) => out.push(name.clone()),
        Expr::Unary { expr, .. } => collect_init_reads(expr, out),
        Expr::Binary { lhs, rhs, .. } => {
            collect_init_reads(lhs, out);
            collect_init_reads(rhs, out);
        }
        _ => {}
    }
}

/// Collects names the body may create as implicit frame locals, in
/// encounter order: `do` variables (always, flagged `true`) and plain-name
/// write targets (assignments, `random_number`/`pbuf_get_field` targets,
/// call arguments in plain-variable form).
///
/// Call arguments are collected conservatively: even a position the callee
/// never writes back gets a slot. That is harmless — an unset slot behaves
/// exactly like an absent frame entry (reads fall through to the global or
/// the undefined-variable error), so over-approximating the candidate set
/// cannot change semantics.
fn collect_written(stmts: &[Stmt], out: &mut Vec<(String, bool)>) {
    for stmt in stmts {
        match stmt {
            Stmt::Assign { target, .. } => {
                if let Expr::Var(n) = target {
                    out.push((n.clone(), false));
                }
            }
            Stmt::Call { name, args, .. } => match name.as_str() {
                "random_number" => {
                    if let Some(Expr::Var(n)) = args.first() {
                        out.push((n.clone(), false));
                    }
                }
                "pbuf_get_field" => {
                    if let Some(Expr::Var(n)) = args.get(1) {
                        out.push((n.clone(), false));
                    }
                }
                "outfld" | "random_seed" | "pbuf_set_field" => {}
                _ => {
                    for arg in args {
                        if let Expr::Var(n) = arg {
                            out.push((n.clone(), false));
                        }
                    }
                }
            },
            Stmt::If { arms, .. } => {
                for (_, block) in arms {
                    collect_written(block, out);
                }
            }
            Stmt::Do { var, body, .. } => {
                out.push((var.clone(), true));
                collect_written(body, out);
            }
            Stmt::DoWhile { body, .. } => collect_written(body, out),
            Stmt::Return { .. } | Stmt::Exit { .. } | Stmt::Cycle { .. } => {}
        }
    }
}
