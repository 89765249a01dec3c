//! Slice-specialized programs: prune a compiled [`Program`] down to the
//! statements that can influence what a run is asked to reproduce.
//!
//! Two consumers ask narrow questions of full model runs:
//!
//! - the refinement hot loop ([`crate::interp::RunConfig::samples`] +
//!   `rca_core`'s runtime oracle) asks *do these ~30 instrumented
//!   variables differ between a control and an experimental run?*;
//! - the statistics fills ([`crate::EnsembleRuns::run_history`]) read
//!   only the history series every `outfld` writes.
//!
//! Answering either with a full model execution pays for every statement
//! the answer never observes. [`specialize_for_samples`] and
//! [`specialize_for_history`] compute an executable backward slice
//! instead: starting from the locations the capture can read — a
//! [`SampleSpec`] set, or the operands of every history write — they keep
//! exactly the statements whose effects can reach those locations (plus
//! everything needed to preserve control flow, the PRNG stream, and error
//! semantics) and drop the rest. The pruned tree IR is re-lowered through
//! the standard bytecode pipeline, so the specialized program runs on the
//! unmodified [`crate::Executor`] VM tier with all of its kernels and
//! pooling.
//!
//! # Soundness contract
//!
//! A specialized program must produce **bit-identical captures** to the
//! full program: the sample captures of the spec set it was built for, at
//! any `sample_step` within the truncated horizon, or — for the history
//! capture — every history series (values, written lengths, the output
//! table). The pass guarantees this with a closed-set fixpoint: the
//! relevant-location set `R` (module globals, per-proc frame slots, the
//! physics buffer, the PRNG stream) is closed so that every kept
//! statement reads and writes only locations in `R`, and every statement
//! anywhere that writes a location in `R` is kept. By induction,
//! locations in `R` hold exactly the full-program values at every point
//! in time; locations outside `R` are never read by kept code.
//!
//! The preserved-semantics rules beyond plain dataflow:
//!
//! - **control flow**: a kept `if`/`do`/`do while` evaluates all of its
//!   guards, so guard reads join `R` (which in turn keeps the statements
//!   defining them — loops iterate exactly as the full program does);
//!   `return`/`exit`/`cycle` are always kept.
//! - **the PRNG stream is one location**: if any kept statement draws,
//!   *every* draw in the program is kept, preserving sequence positions.
//! - **capture subprograms keep their invocation counts**: local-variable
//!   samples snapshot at the end of each invocation during the sample
//!   step (last invocation wins), and a history series keeps the last
//!   write of each step, so every call that can transitively reach a
//!   capture proc — for the history capture, any proc that writes
//!   history — is kept.
//! - **the history capture keeps every `outfld`**: each history write in
//!   a live proc stays, and its data and column-count operands join `R`.
//!   Sampling queries never read histories, so there a history write is
//!   kept only for the side effects of its operand expressions.
//! - **deferred errors are kept**: compile-lowered `ErrorStmt` /
//!   `ErrorExpr` / invalid places and calls that may transitively reach
//!   one stay in the program, so a model that fails under full execution
//!   fails under specialized execution too.
//! - **live inits always run**: frame initialization of a live proc is
//!   never pruned, and its initializer/extent expression reads join `R`.
//!
//! Residual divergence: a runtime error (out-of-bounds subscript, fuel
//! exhaustion) raised only inside a *dropped* statement — one that
//! cannot reach the capture — or after the truncated horizon never fires
//! in the specialized run. Callers own it with one rule: a specialized
//! result counts only when every specialized run succeeded, and any
//! error re-executes through the generic full-program path, which owns
//! all error semantics (the same shape as the bytecode tier's
//! kernel-validation fallback). The runtime oracle re-runs the full pair;
//! the history fill runs its members with zero retries and refills on the
//! full program under the caller's retry policy. What stays unseen is an
//! error the full program raises only in dropped code: the oracle would
//! have answered from a failing pair, a full fill would have retried or
//! quarantined the member. The history capture shares this residual with
//! the oracle's. The differential equivalence suites, the fastpath-on/off
//! scorecard gate, and the history-fill sweeps over seeded campaign
//! mutants fence the contract end to end.
//!
//! Anything the pass cannot prove separable (missing driver entry
//! points, a fixpoint that fails to settle) returns `None`; callers then
//! use the full program.

use crate::bytecode;
use crate::interp::SampleSpec;
use crate::program::{
    CExpr, CPlace, CProc, CStmt, CallForm, CallSite, EId, LocalTemplate, Program, VarBind,
};
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// A pruned proc body: the surviving statements plus the live-local
/// init templates `(slot, line, template)` the executor still runs.
type ProcBodyParts = (Box<[CStmt]>, Box<[(u32, u32, LocalTemplate)]>);

/// Pruned `if` arms: `(condition, pruned block)` per arm.
type PrunedArms = Box<[(Option<EId>, Box<[CStmt]>)]>;

/// A slice-specialized program plus its pruning statistics.
#[derive(Debug, Clone)]
pub struct Specialized {
    /// The pruned (re-lowered) program — or the original `Arc` when the
    /// pass proved every statement relevant.
    pub program: Arc<Program>,
    /// Tree-IR statements in the full program (all procs, nested).
    pub stmts_total: usize,
    /// Statements the specialized program kept.
    pub stmts_kept: usize,
    /// `true` when nothing could be pruned (`program` is the input).
    pub identical: bool,
}

impl Specialized {
    /// Fraction of tree-IR statements pruned away (0.0 when identical).
    pub fn pruned_fraction(&self) -> f64 {
        if self.stmts_total == 0 {
            return 0.0;
        }
        1.0 - (self.stmts_kept as f64 / self.stmts_total as f64)
    }
}

/// What a specialized program must reproduce bit for bit.
#[derive(Clone, Copy)]
enum Capture<'a> {
    /// The sample captures of one spec set (runtime-oracle queries).
    Samples(&'a [SampleSpec]),
    /// Every history write (the statistics fills).
    History,
}

/// A pruning result: the rebuilt program (`None` when every statement
/// stayed) plus the statement counts.
struct Pruned {
    program: Option<Program>,
    stmts_total: usize,
    stmts_kept: usize,
}

impl Pruned {
    fn into_specialized(self, full: &Arc<Program>) -> Specialized {
        Specialized {
            identical: self.program.is_none(),
            program: self.program.map_or_else(|| Arc::clone(full), Arc::new),
            stmts_total: self.stmts_total,
            stmts_kept: self.stmts_kept,
        }
    }
}

/// Specializes `program` for a sampling query capturing exactly `specs`.
///
/// Returns `None` when the pass cannot prove a pruned program
/// equivalent for this capture set (callers fall back to the full
/// program — the generic path owns all error semantics). Returns a
/// [`Specialized`] with `identical == true` (and the input `Arc`) when
/// the analysis keeps everything.
pub fn specialize_for_samples(program: &Arc<Program>, specs: &[SampleSpec]) -> Option<Specialized> {
    specialize_with(&SpecIndex::build(program), program, specs)
}

/// [`specialize_for_samples`] against a prebuilt [`SpecIndex`] — the
/// repeated-query form. The index must have been built from this exact
/// `program`.
pub fn specialize_with(
    index: &SpecIndex,
    program: &Arc<Program>,
    specs: &[SampleSpec],
) -> Option<Specialized> {
    prune(index, program, Capture::Samples(specs)).map(|p| p.into_specialized(program))
}

/// Specializes `program` for its history writes: every `outfld` stays,
/// and so does every statement that can reach one. A zero-fault,
/// unbudgeted run of the result writes the full program's history
/// series bit for bit whenever the full program's run succeeds.
/// [`Program::history_program`] keeps one per program; this uncached
/// form reports the pruning statistics.
pub fn specialize_for_history(program: &Arc<Program>) -> Option<Specialized> {
    prune(&SpecIndex::build(program), program, Capture::History)
        .map(|p| p.into_specialized(program))
}

/// The history slice behind [`Program::history_program`]: `None` when
/// the program is unseparable or nothing prunes.
pub(crate) fn history_slice(program: &Program) -> Option<Arc<Program>> {
    prune(&SpecIndex::build(program), program, Capture::History)?
        .program
        .map(Arc::new)
}

fn prune(index: &SpecIndex, program: &Program, capture: Capture<'_>) -> Option<Pruned> {
    let ctx = Ctx {
        p: program,
        ix: index,
        history: matches!(capture, Capture::History),
    };
    let mut rel = Rel::new(program);

    // Driver entry points: the sampler only ever runs `drive`
    // (cam_init + cam_run_step). A program without them is not ours to
    // specialize.
    let root_init = program.entry_proc_index("cam_init")?;
    let root_step = program.entry_proc_index("cam_run_step")?;
    rel.live[root_init as usize] = true;
    rel.live[root_step as usize] = true;

    let reaches_cap = match capture {
        Capture::Samples(specs) => {
            let mut capture_procs = vec![false; program.procs.len()];
            ctx.seed(&mut rel, specs, &mut capture_procs);
            ctx.reaches_capture(&capture_procs)
        }
        // Every proc that can reach a history write keeps its calls.
        Capture::History => index.summaries.iter().map(|s| s.writes_history).collect(),
    };

    // Monotone fixpoint: relevance, liveness, and keep decisions only
    // grow. Each settled round changes nothing; an unsettled analysis
    // (pathological nesting) falls back to the full program.
    let mut settled = false;
    for _ in 0..64 {
        rel.changed = false;
        for p in 0..program.procs.len() {
            if rel.live[p] {
                ctx.pass_proc(&mut rel, &reaches_cap, p as u32);
            }
        }
        if !rel.changed {
            settled = true;
            break;
        }
    }
    if !settled {
        return None;
    }

    // Materialize: prune live bodies against the stable relevance set,
    // empty dead procs (metadata stays — sample-plan resolution and
    // host lookups still need names and slot counts).
    let mut total = 0usize;
    let mut kept = 0usize;
    let mut procs = Vec::with_capacity(program.procs.len());
    for (i, proc) in program.procs.iter().enumerate() {
        let (body, inits): ProcBodyParts = if rel.live[i] {
            let body = ctx.prune_block(
                &mut rel,
                &reaches_cap,
                i as u32,
                &proc.body,
                &mut total,
                &mut kept,
            );
            (body, proc.inits.clone())
        } else {
            total += count_stmts(&proc.body);
            (Box::from([]), Box::from([]))
        };
        // Metadata only — never `..proc.clone()`, which would deep-copy
        // the body we are about to replace.
        procs.push(CProc {
            module: Arc::clone(&proc.module),
            name: Arc::clone(&proc.name),
            module_id: proc.module_id,
            arg_slots: proc.arg_slots.clone(),
            arg_flows: proc.arg_flows.clone(),
            n_locals: proc.n_locals,
            local_names: proc.local_names.clone(),
            inits,
            result_slot: proc.result_slot,
            body,
            declared_locals: proc.declared_locals.clone(),
        });
    }

    if kept == total {
        return Some(Pruned {
            program: None,
            stmts_total: total,
            stmts_kept: kept,
        });
    }

    let mut sp = Program {
        exprs: program.exprs.clone(),
        procs,
        sites: program.sites.clone(),
        globals: program.globals.clone(),
        globals_by_module: program.globals_by_module.clone(),
        module_names: program.module_names.clone(),
        entry_procs: program.entry_procs.clone(),
        procs_by_module: program.procs_by_module.clone(),
        module_vars: program.module_vars.clone(),
        output_names: Arc::clone(&program.output_names),
        global_init_deps: program.global_init_deps.clone(),
        global_origins: program.global_origins.clone(),
        syms: Arc::clone(&program.syms),
        bc: Default::default(),
        history: Default::default(),
    };
    sp.bc = bytecode::lower(&sp);
    Some(Pruned {
        program: Some(sp),
        stmts_total: total,
        stmts_kept: kept,
    })
}

fn count_stmts(body: &[CStmt]) -> usize {
    let mut n = 0;
    for s in body {
        n += 1;
        match s {
            CStmt::If { arms, .. } => {
                for (_, b) in arms {
                    n += count_stmts(b);
                }
            }
            CStmt::Do { body, .. } | CStmt::DoWhile { body, .. } => n += count_stmts(body),
            _ => {}
        }
    }
    n
}

// ----- relevance state ---------------------------------------------------

/// Dense bitset (globals are a few hundred slots, frames a few dozen).
#[derive(Clone, Debug)]
struct Bits {
    words: Vec<u64>,
}

impl Bits {
    fn new(n: usize) -> Bits {
        Bits {
            words: vec![0; n.div_ceil(64)],
        }
    }

    fn set(&mut self, i: u32) -> bool {
        let (w, b) = (i as usize / 64, i as usize % 64);
        let prev = self.words[w];
        self.words[w] |= 1 << b;
        self.words[w] != prev
    }

    fn get(&self, i: u32) -> bool {
        let (w, b) = (i as usize / 64, i as usize % 64);
        self.words.get(w).is_some_and(|&x| x >> b & 1 == 1)
    }

    fn intersects(&self, other: &Bits) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    fn union_from(&mut self, other: &Bits) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let prev = *a;
            *a |= b;
            changed |= *a != prev;
        }
        changed
    }
}

/// The growing relevant-location set `R` plus proc liveness.
struct Rel {
    globals: Bits,
    /// Per proc, by frame slot.
    locals: Vec<Bits>,
    pbuf: bool,
    prng: bool,
    live: Vec<bool>,
    changed: bool,
}

impl Rel {
    fn new(p: &Program) -> Rel {
        Rel {
            globals: Bits::new(p.globals.len()),
            locals: p.procs.iter().map(|pr| Bits::new(pr.n_locals)).collect(),
            pbuf: false,
            prng: false,
            live: vec![false; p.procs.len()],
            changed: false,
        }
    }

    fn add_global(&mut self, g: u32) {
        self.changed |= self.globals.set(g);
    }

    fn add_local(&mut self, proc: u32, slot: u32) {
        self.changed |= self.locals[proc as usize].set(slot);
    }

    fn add_pbuf(&mut self) {
        self.changed |= !self.pbuf;
        self.pbuf = true;
    }

    fn add_prng(&mut self) {
        self.changed |= !self.prng;
        self.prng = true;
    }

    fn mark_live(&mut self, proc: u32) {
        self.changed |= !self.live[proc as usize];
        self.live[proc as usize] = true;
    }
}

// ----- per-proc transitive effect summaries ------------------------------

/// Full-body effect summary of one proc, transitively closed over the
/// static call graph. Computed once, independent of `R`: whether a call
/// must be kept is decided against what the callee *could* do, and every
/// relevant effect inside it is then kept by the callee's own pass.
#[derive(Clone, Debug)]
struct Summary {
    /// Module globals the proc (or any transitive callee) may write —
    /// direct places, caller-side copy-out targets, `LocalOrGlobal`
    /// fallbacks included.
    gwrites: Bits,
    writes_pbuf: bool,
    draws: bool,
    /// Writes history (`outfld`).
    writes_history: bool,
    /// May raise a deferred compile error (`ErrorStmt`/`ErrorExpr`,
    /// invalid places, unknown-function fallbacks, failing init
    /// templates) — calls to it must stay so failures still fire.
    may_error: bool,
}

/// The program-dependent half of the analysis — per-proc transitive
/// effect summaries, the static call graph, and the derived-field writer
/// map. Everything here is independent of any particular spec set, so a
/// caller issuing many queries against one program (the runtime sampler)
/// builds it once and amortizes it across every
/// [`specialize_with`] call.
#[derive(Debug)]
pub struct SpecIndex {
    summaries: Vec<Summary>,
    callees: Vec<Vec<u32>>,
    /// Module globals written through a `CPlace::Derived` with a given
    /// field name anywhere in the program — the module-level capture
    /// scan can observe these through any derived global, so a module
    /// spec seeds all of them.
    derived_writers: HashMap<Arc<str>, Vec<u32>>,
}

impl SpecIndex {
    /// Scans every proc once and closes the effect summaries over the
    /// call graph.
    pub fn build(p: &Program) -> SpecIndex {
        let mut summaries = Vec::with_capacity(p.procs.len());
        let mut callees = Vec::with_capacity(p.procs.len());
        let mut derived_writers: HashMap<Arc<str>, Vec<u32>> = HashMap::new();
        for proc in &p.procs {
            let mut f = Facts {
                p,
                sum: Summary {
                    gwrites: Bits::new(p.globals.len()),
                    writes_pbuf: false,
                    draws: false,
                    writes_history: false,
                    may_error: false,
                },
                callees: Vec::new(),
                derived_writers: &mut derived_writers,
            };
            for (_, _, tpl) in &proc.inits {
                f.template(tpl);
            }
            f.block(&proc.body);
            summaries.push(f.sum);
            let mut c = f.callees;
            c.sort_unstable();
            c.dedup();
            callees.push(c);
        }
        // Transitive closure over the call graph (cycle-safe fixpoint).
        loop {
            let mut changed = false;
            for i in 0..summaries.len() {
                for &q in &callees[i] {
                    if q as usize == i {
                        continue;
                    }
                    let callee = summaries[q as usize].clone();
                    let s = &mut summaries[i];
                    changed |= s.gwrites.union_from(&callee.gwrites);
                    changed |= callee.writes_pbuf && !s.writes_pbuf;
                    s.writes_pbuf |= callee.writes_pbuf;
                    changed |= callee.draws && !s.draws;
                    s.draws |= callee.draws;
                    changed |= callee.writes_history && !s.writes_history;
                    s.writes_history |= callee.writes_history;
                    changed |= callee.may_error && !s.may_error;
                    s.may_error |= callee.may_error;
                }
            }
            if !changed {
                break;
            }
        }
        SpecIndex {
            summaries,
            callees,
            derived_writers,
        }
    }
}

struct Ctx<'p> {
    p: &'p Program,
    ix: &'p SpecIndex,
    /// The history capture: every `outfld` is kept.
    history: bool,
}

impl<'p> Ctx<'p> {
    /// Procs that are (or can transitively call) a capture proc —
    /// their invocation counts are observable, so calls to them stay.
    fn reaches_capture(&self, capture_procs: &[bool]) -> Vec<bool> {
        let mut reach = capture_procs.to_vec();
        loop {
            let mut changed = false;
            for i in 0..reach.len() {
                if !reach[i] && self.ix.callees[i].iter().any(|&q| reach[q as usize]) {
                    reach[i] = true;
                    changed = true;
                }
            }
            if !changed {
                return reach;
            }
        }
    }

    /// Seeds `R` from the spec set, mirroring the executor's capture
    /// resolution exactly ([`crate::exec`]'s `build_sample_plans` +
    /// `capture_module_samples`): module specs read the resolved global
    /// slot *and* — through the derived-field scan fallback — any
    /// derived global carrying the field; local specs read one frame
    /// slot of one capture proc. Unresolvable specs capture nothing in
    /// both programs and seed nothing.
    fn seed(&self, rel: &mut Rel, specs: &[SampleSpec], capture_procs: &mut [bool]) {
        for spec in specs {
            match &spec.subprogram {
                None => {
                    if let Some(g) = self.p.global_slot(&spec.module, &spec.name) {
                        rel.add_global(g);
                    }
                    for (slot, val) in self.p.globals.iter().enumerate() {
                        if let Value::Derived(fields) = val {
                            if fields.contains_key(&*spec.name) {
                                rel.add_global(slot as u32);
                            }
                        }
                    }
                    if let Some(slots) = self.ix.derived_writers.get(&spec.name) {
                        for &g in slots {
                            rel.add_global(g);
                        }
                    }
                }
                Some(sub) => {
                    let Some(q) = self.p.proc_slot(&spec.module, sub) else {
                        continue;
                    };
                    let proc = &self.p.procs[q as usize];
                    let Some(slot) = proc.local_names.iter().position(|n| **n == *spec.name) else {
                        continue;
                    };
                    rel.add_local(q, slot as u32);
                    capture_procs[q as usize] = true;
                }
            }
        }
    }

    // ----- keep decisions + closure (one round over a live proc) ---------

    fn pass_proc(&self, rel: &mut Rel, reach: &[bool], proc: u32) {
        // Frame initialization always runs for a live proc; its extent
        // and initializer expressions are evaluated unconditionally, so
        // their reads must hold full-program values.
        let inits: &[(u32, u32, LocalTemplate)] = &self.p.procs[proc as usize].inits;
        for (_, _, tpl) in inits {
            match tpl {
                LocalTemplate::Array(extents) => {
                    for &e in extents {
                        self.join_expr(rel, reach, proc, e);
                    }
                }
                LocalTemplate::Int(Some(e))
                | LocalTemplate::Logic(Some(e))
                | LocalTemplate::Char(Some(e))
                | LocalTemplate::RealVal(Some(e)) => self.join_expr(rel, reach, proc, *e),
                _ => {}
            }
        }
        self.pass_block(rel, reach, proc, &self.p.procs[proc as usize].body);
    }

    fn pass_block(&self, rel: &mut Rel, reach: &[bool], proc: u32, body: &[CStmt]) -> bool {
        let mut any = false;
        for s in body {
            any |= self.pass_stmt(rel, reach, proc, s);
        }
        any
    }

    /// Decides whether `s` must stay and, if so, joins everything it
    /// reads and writes into `R` (the closed-set induction of the module
    /// docs). Monotone in `R`, so round order cannot change the fixpoint.
    fn pass_stmt(&self, rel: &mut Rel, reach: &[bool], proc: u32, s: &CStmt) -> bool {
        match s {
            CStmt::Nop => false,
            // Control-transfer statements shape which kept statements
            // run; always preserved (their containers may still drop).
            CStmt::Return | CStmt::Exit | CStmt::Cycle => true,
            CStmt::ErrorStmt { .. } => true,
            CStmt::Assign { place, value, .. } => {
                let keep = self.place_hits(rel, proc, place)
                    || matches!(place, CPlace::Invalid { .. })
                    || self.expr_relevant(rel, reach, proc, *value)
                    || self.place_sub_relevant(rel, reach, proc, place);
                if keep {
                    self.join_place(rel, reach, proc, place);
                    self.join_expr(rel, reach, proc, *value);
                }
                keep
            }
            CStmt::Call { site, .. } => {
                let keep = self.call_relevant(rel, reach, proc, *site);
                if keep {
                    self.join_call(rel, reach, proc, *site);
                }
                keep
            }
            // The history capture keeps every history write; sampling
            // queries never read histories, so there a history write is
            // kept only for the side effects of its operand expressions.
            CStmt::Outfld { data, ncol, .. } => {
                let keep = self.history
                    || self.expr_relevant(rel, reach, proc, *data)
                    || ncol.is_some_and(|n| self.expr_relevant(rel, reach, proc, n));
                if keep {
                    self.join_expr(rel, reach, proc, *data);
                    if let Some(n) = ncol {
                        self.join_expr(rel, reach, proc, *n);
                    }
                }
                keep
            }
            // The PRNG stream is one shared location: once any draw is
            // relevant, every draw stays (sequence positions matter).
            CStmt::RandomNumber { current, place, .. } => {
                let keep = rel.prng
                    || self.place_hits(rel, proc, place)
                    || matches!(place, CPlace::Invalid { .. })
                    || self.expr_relevant(rel, reach, proc, *current)
                    || self.place_sub_relevant(rel, reach, proc, place);
                if keep {
                    rel.add_prng();
                    self.join_place(rel, reach, proc, place);
                    self.join_expr(rel, reach, proc, *current);
                }
                keep
            }
            CStmt::PbufSet { idx, data, .. } => {
                let keep = rel.pbuf
                    || self.expr_relevant(rel, reach, proc, *idx)
                    || self.expr_relevant(rel, reach, proc, *data);
                if keep {
                    self.join_expr(rel, reach, proc, *idx);
                    self.join_expr(rel, reach, proc, *data);
                }
                keep
            }
            CStmt::PbufGet {
                idx,
                current,
                place,
                ..
            } => {
                let keep = self.place_hits(rel, proc, place)
                    || matches!(place, CPlace::Invalid { .. })
                    || self.expr_relevant(rel, reach, proc, *idx)
                    || self.expr_relevant(rel, reach, proc, *current)
                    || self.place_sub_relevant(rel, reach, proc, place);
                if keep {
                    rel.add_pbuf();
                    self.join_place(rel, reach, proc, place);
                    self.join_expr(rel, reach, proc, *idx);
                    self.join_expr(rel, reach, proc, *current);
                }
                keep
            }
            // A kept `if` evaluates every guard on the path to the taken
            // arm, so all conditions join `R`; bodies prune per arm.
            CStmt::If { arms, .. } => {
                let mut keep = arms
                    .iter()
                    .any(|(c, _)| c.is_some_and(|c| self.expr_relevant(rel, reach, proc, c)));
                for (_, b) in arms {
                    keep |= self.pass_block(rel, reach, proc, b);
                }
                if keep {
                    for (c, _) in arms {
                        if let Some(c) = c {
                            self.join_expr(rel, reach, proc, *c);
                        }
                    }
                }
                keep
            }
            CStmt::Do {
                var,
                start,
                end,
                step,
                body,
                ..
            } => {
                let mut keep = rel.locals[proc as usize].get(*var)
                    || self.expr_relevant(rel, reach, proc, *start)
                    || self.expr_relevant(rel, reach, proc, *end)
                    || step.is_some_and(|e| self.expr_relevant(rel, reach, proc, e));
                keep |= self.pass_block(rel, reach, proc, body);
                if keep {
                    rel.add_local(proc, *var);
                    self.join_expr(rel, reach, proc, *start);
                    self.join_expr(rel, reach, proc, *end);
                    if let Some(e) = step {
                        self.join_expr(rel, reach, proc, *e);
                    }
                }
                keep
            }
            CStmt::DoWhile { cond, body, .. } => {
                let mut keep = self.expr_relevant(rel, reach, proc, *cond);
                keep |= self.pass_block(rel, reach, proc, body);
                if keep {
                    // Guard reads join R, which keeps every statement
                    // defining them — including inside this body — so
                    // the loop terminates exactly as the full program.
                    self.join_expr(rel, reach, proc, *cond);
                }
                keep
            }
        }
    }

    /// Does executing a call to `site` have effects the slice observes?
    fn call_relevant(&self, rel: &Rel, reach: &[bool], proc: u32, site: u32) -> bool {
        let cs: &CallSite = &self.p.sites[site as usize];
        self.summary_relevant(rel, reach, cs.proc)
            || cs.copyout.iter().any(|(_, pl)| {
                self.place_hits(rel, proc, pl) || matches!(pl, CPlace::Invalid { .. })
            })
            || cs
                .args
                .iter()
                .any(|&a| self.expr_relevant(rel, reach, proc, a))
            || cs
                .copyout
                .iter()
                .any(|(_, pl)| self.place_sub_relevant(rel, reach, proc, pl))
    }

    fn summary_relevant(&self, rel: &Rel, reach: &[bool], callee: u32) -> bool {
        let s = &self.ix.summaries[callee as usize];
        s.may_error
            || reach[callee as usize]
            || (s.writes_pbuf && rel.pbuf)
            || (s.draws && rel.prng)
            || s.gwrites.intersects(&rel.globals)
    }

    /// Whether evaluating `e` has effects that force keeping its
    /// statement: a deferred error, or a (possibly nested) call whose
    /// callee's transitive summary is relevant or whose copy-out writes
    /// a relevant caller location.
    fn expr_relevant(&self, rel: &Rel, reach: &[bool], proc: u32, e: EId) -> bool {
        match &self.p.exprs[e as usize] {
            CExpr::ErrorExpr { .. } => true,
            CExpr::CallFn { site } => self.call_relevant(rel, reach, proc, *site),
            CExpr::Index { sub, fallback, .. } => {
                self.expr_relevant(rel, reach, proc, *sub)
                    || match fallback.as_deref() {
                        Some(CallForm::Function(site)) => {
                            self.call_relevant(rel, reach, proc, *site)
                        }
                        Some(CallForm::Intrinsic(_, args)) => args
                            .iter()
                            .any(|&a| self.expr_relevant(rel, reach, proc, a)),
                        // Unresolvable name: errors if the fallback ever
                        // triggers — keep so failures still fire.
                        Some(CallForm::Unknown) => true,
                        None => false,
                    }
            }
            CExpr::Intrinsic { args, .. } => args
                .iter()
                .any(|&a| self.expr_relevant(rel, reach, proc, a)),
            CExpr::DerivedVar { sub, .. } => {
                sub.is_some_and(|s| self.expr_relevant(rel, reach, proc, s))
            }
            CExpr::DerivedExpr { base, sub, .. } => {
                self.expr_relevant(rel, reach, proc, *base)
                    || sub.is_some_and(|s| self.expr_relevant(rel, reach, proc, s))
            }
            CExpr::Unary { e, .. } => self.expr_relevant(rel, reach, proc, *e),
            CExpr::Binary { l, r, .. } => {
                self.expr_relevant(rel, reach, proc, *l) || self.expr_relevant(rel, reach, proc, *r)
            }
            CExpr::MaybeFma { a, b, c, l, r, .. } => [*a, *b, *c, *l, *r]
                .iter()
                .any(|&x| self.expr_relevant(rel, reach, proc, x)),
            CExpr::Real(_)
            | CExpr::Int(_)
            | CExpr::Str(_)
            | CExpr::Logical(_)
            | CExpr::Var { .. } => false,
        }
    }

    /// Does `place` write at least one location already in `R`?
    fn place_hits(&self, rel: &Rel, proc: u32, place: &CPlace) -> bool {
        match place {
            CPlace::Var { bind } | CPlace::Elem { bind, .. } | CPlace::Derived { bind, .. } => {
                self.bind_hits(rel, proc, *bind)
            }
            CPlace::Invalid { .. } => false,
        }
    }

    fn bind_hits(&self, rel: &Rel, proc: u32, bind: VarBind) -> bool {
        match bind {
            VarBind::Local(s) => rel.locals[proc as usize].get(s),
            VarBind::LocalOrGlobal(s, g) => rel.locals[proc as usize].get(s) || rel.globals.get(g),
            VarBind::Global(g) => rel.globals.get(g),
        }
    }

    /// Do a place's subscript expressions carry relevant effects?
    fn place_sub_relevant(&self, rel: &Rel, reach: &[bool], proc: u32, place: &CPlace) -> bool {
        match place {
            CPlace::Elem { sub, .. } => self.expr_relevant(rel, reach, proc, *sub),
            CPlace::Derived { sub, .. } => {
                sub.is_some_and(|s| self.expr_relevant(rel, reach, proc, s))
            }
            _ => false,
        }
    }

    // ----- closure joins --------------------------------------------------

    /// Binding read/write: `LocalOrGlobal` dispatches on slot liveness at
    /// runtime, so both locations join (definedness must match the full
    /// program for the dispatch — and therefore the access — to agree).
    fn join_bind(&self, rel: &mut Rel, proc: u32, bind: VarBind) {
        match bind {
            VarBind::Local(s) => rel.add_local(proc, s),
            VarBind::LocalOrGlobal(s, g) => {
                rel.add_local(proc, s);
                rel.add_global(g);
            }
            VarBind::Global(g) => rel.add_global(g),
        }
    }

    /// Kept-statement write targets join `R` (write-closure): partial
    /// updates (`a(i) = v`, `x%f = v`) read their container, and keeping
    /// every def of a written location is what makes `R` self-consistent.
    fn join_place(&self, rel: &mut Rel, reach: &[bool], proc: u32, place: &CPlace) {
        match place {
            CPlace::Var { bind } => self.join_bind(rel, proc, *bind),
            CPlace::Elem { bind, sub, .. } => {
                self.join_bind(rel, proc, *bind);
                self.join_expr(rel, reach, proc, *sub);
            }
            CPlace::Derived { bind, sub, .. } => {
                self.join_bind(rel, proc, *bind);
                if let Some(s) = sub {
                    self.join_expr(rel, reach, proc, *s);
                }
            }
            CPlace::Invalid { .. } => {}
        }
    }

    /// An executed call: callee becomes live, its result and copy-out
    /// source slots are read, argument expressions are evaluated in the
    /// caller, and copy-out targets are caller writes.
    fn join_call(&self, rel: &mut Rel, reach: &[bool], proc: u32, site: u32) {
        let cs: &CallSite = &self.p.sites[site as usize];
        rel.mark_live(cs.proc);
        if let Some(r) = self.p.procs[cs.proc as usize].result_slot {
            rel.add_local(cs.proc, r);
        }
        for &a in &cs.args {
            self.join_expr(rel, reach, proc, a);
        }
        for (dummy, pl) in &cs.copyout {
            rel.add_local(cs.proc, *dummy);
            self.join_place(rel, reach, proc, pl);
        }
    }

    /// Joins every location an executed expression reads (full
    /// read-closure: kept code must never read a location outside `R`,
    /// or its value — and even its definedness — could diverge).
    fn join_expr(&self, rel: &mut Rel, reach: &[bool], proc: u32, e: EId) {
        match &self.p.exprs[e as usize] {
            CExpr::Var { bind, .. } => self.join_bind(rel, proc, *bind),
            CExpr::Index {
                bind,
                sub,
                fallback,
                ..
            } => {
                self.join_bind(rel, proc, *bind);
                self.join_expr(rel, reach, proc, *sub);
                match fallback.as_deref() {
                    Some(CallForm::Function(site)) => self.join_call(rel, reach, proc, *site),
                    Some(CallForm::Intrinsic(_, args)) => {
                        for &a in args {
                            self.join_expr(rel, reach, proc, a);
                        }
                    }
                    _ => {}
                }
            }
            CExpr::CallFn { site } => self.join_call(rel, reach, proc, *site),
            CExpr::Intrinsic { args, .. } => {
                for &a in args {
                    self.join_expr(rel, reach, proc, a);
                }
            }
            CExpr::DerivedVar { bind, sub, .. } => {
                self.join_bind(rel, proc, *bind);
                if let Some(s) = sub {
                    self.join_expr(rel, reach, proc, *s);
                }
            }
            CExpr::DerivedExpr { base, sub, .. } => {
                self.join_expr(rel, reach, proc, *base);
                if let Some(s) = sub {
                    self.join_expr(rel, reach, proc, *s);
                }
            }
            CExpr::Unary { e, .. } => self.join_expr(rel, reach, proc, *e),
            CExpr::Binary { l, r, .. } => {
                self.join_expr(rel, reach, proc, *l);
                self.join_expr(rel, reach, proc, *r);
            }
            CExpr::MaybeFma { a, b, c, l, r, .. } => {
                for &x in &[*a, *b, *c, *l, *r] {
                    self.join_expr(rel, reach, proc, x);
                }
            }
            CExpr::Real(_)
            | CExpr::Int(_)
            | CExpr::Str(_)
            | CExpr::Logical(_)
            | CExpr::ErrorExpr { .. } => {}
        }
    }

    // ----- materialization ------------------------------------------------

    /// Rebuilds a block keeping exactly the statements the (stable)
    /// relevance set decided on. `rel` is passed mutably only so the keep
    /// logic is shared verbatim with the fixpoint pass; at a stable
    /// fixpoint the joins are no-ops.
    fn prune_block(
        &self,
        rel: &mut Rel,
        reach: &[bool],
        proc: u32,
        body: &[CStmt],
        total: &mut usize,
        kept: &mut usize,
    ) -> Box<[CStmt]> {
        let mut out = Vec::new();
        for s in body {
            *total += 1;
            let keep = self.pass_stmt(rel, reach, proc, s);
            match s {
                CStmt::If { arms, line } => {
                    let pruned: PrunedArms = arms
                        .iter()
                        .map(|(c, b)| (*c, self.prune_block(rel, reach, proc, b, total, kept)))
                        .collect();
                    if keep {
                        *kept += 1;
                        out.push(CStmt::If {
                            arms: pruned,
                            line: *line,
                        });
                    }
                }
                CStmt::Do {
                    var,
                    start,
                    end,
                    step,
                    body,
                    line,
                } => {
                    let pruned = self.prune_block(rel, reach, proc, body, total, kept);
                    if keep {
                        *kept += 1;
                        out.push(CStmt::Do {
                            var: *var,
                            start: *start,
                            end: *end,
                            step: *step,
                            body: pruned,
                            line: *line,
                        });
                    }
                }
                CStmt::DoWhile { cond, body, line } => {
                    let pruned = self.prune_block(rel, reach, proc, body, total, kept);
                    if keep {
                        *kept += 1;
                        out.push(CStmt::DoWhile {
                            cond: *cond,
                            body: pruned,
                            line: *line,
                        });
                    }
                }
                other => {
                    if keep {
                        *kept += 1;
                        out.push(other.clone());
                    }
                }
            }
        }
        out.into_boxed_slice()
    }
}

// ----- direct per-proc fact collection -----------------------------------

/// One proc's direct (non-transitive) effect facts, gathered in a single
/// walk over its body, init templates, and every call site it references
/// (including argument and copy-out subexpressions).
struct Facts<'a, 'p> {
    p: &'p Program,
    sum: Summary,
    callees: Vec<u32>,
    derived_writers: &'a mut HashMap<Arc<str>, Vec<u32>>,
}

impl Facts<'_, '_> {
    fn template(&mut self, tpl: &LocalTemplate) {
        match tpl {
            LocalTemplate::Array(extents) => {
                for &e in extents {
                    self.expr(e);
                }
            }
            LocalTemplate::Int(Some(e))
            | LocalTemplate::Logic(Some(e))
            | LocalTemplate::Char(Some(e))
            | LocalTemplate::RealVal(Some(e)) => self.expr(*e),
            LocalTemplate::Error(..) => self.sum.may_error = true,
            _ => {}
        }
    }

    fn block(&mut self, body: &[CStmt]) {
        for s in body {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &CStmt) {
        match s {
            CStmt::Assign { place, value, .. } => {
                self.place(place);
                self.expr(*value);
            }
            CStmt::Call { site, .. } => self.site(*site),
            CStmt::Outfld { data, ncol, .. } => {
                self.sum.writes_history = true;
                self.expr(*data);
                if let Some(n) = ncol {
                    self.expr(*n);
                }
            }
            CStmt::RandomNumber { current, place, .. } => {
                self.sum.draws = true;
                self.place(place);
                self.expr(*current);
            }
            CStmt::PbufSet { idx, data, .. } => {
                self.sum.writes_pbuf = true;
                self.expr(*idx);
                self.expr(*data);
            }
            CStmt::PbufGet {
                idx,
                current,
                place,
                ..
            } => {
                self.place(place);
                self.expr(*idx);
                self.expr(*current);
            }
            CStmt::If { arms, .. } => {
                for (c, b) in arms {
                    if let Some(c) = c {
                        self.expr(*c);
                    }
                    self.block(b);
                }
            }
            CStmt::Do {
                start,
                end,
                step,
                body,
                ..
            } => {
                self.expr(*start);
                self.expr(*end);
                if let Some(e) = step {
                    self.expr(*e);
                }
                self.block(body);
            }
            CStmt::DoWhile { cond, body, .. } => {
                self.expr(*cond);
                self.block(body);
            }
            CStmt::ErrorStmt { .. } => self.sum.may_error = true,
            CStmt::Return | CStmt::Exit | CStmt::Cycle | CStmt::Nop => {}
        }
    }

    fn site(&mut self, site: u32) {
        let cs: &CallSite = &self.p.sites[site as usize];
        self.callees.push(cs.proc);
        for &a in &cs.args {
            self.expr(a);
        }
        for (_, pl) in &cs.copyout {
            self.place(pl);
        }
    }

    fn place(&mut self, place: &CPlace) {
        match place {
            CPlace::Var { bind } => self.bind_write(*bind),
            CPlace::Elem { bind, sub, .. } => {
                self.bind_write(*bind);
                self.expr(*sub);
            }
            CPlace::Derived {
                bind, field, sub, ..
            } => {
                self.bind_write(*bind);
                if let Some(s) = sub {
                    self.expr(*s);
                }
                // The module-level capture scan can observe this field
                // through any derived global: remember the write target.
                if let VarBind::LocalOrGlobal(_, g) | VarBind::Global(g) = bind {
                    let slots = self.derived_writers.entry(field.clone()).or_default();
                    if !slots.contains(g) {
                        slots.push(*g);
                    }
                }
            }
            CPlace::Invalid { .. } => self.sum.may_error = true,
        }
    }

    fn bind_write(&mut self, bind: VarBind) {
        if let VarBind::LocalOrGlobal(_, g) | VarBind::Global(g) = bind {
            self.sum.gwrites.set(g);
        }
    }

    fn expr(&mut self, e: EId) {
        match &self.p.exprs[e as usize] {
            CExpr::ErrorExpr { .. } => self.sum.may_error = true,
            CExpr::CallFn { site } => self.site(*site),
            CExpr::Index { sub, fallback, .. } => {
                self.expr(*sub);
                match fallback.as_deref() {
                    Some(CallForm::Function(site)) => self.site(*site),
                    Some(CallForm::Intrinsic(_, args)) => {
                        for &a in args {
                            self.expr(a);
                        }
                    }
                    Some(CallForm::Unknown) => self.sum.may_error = true,
                    None => {}
                }
            }
            CExpr::Intrinsic { args, .. } => {
                for &a in args {
                    self.expr(a);
                }
            }
            CExpr::DerivedVar { sub, .. } => {
                if let Some(s) = sub {
                    self.expr(*s);
                }
            }
            CExpr::DerivedExpr { base, sub, .. } => {
                self.expr(*base);
                if let Some(s) = sub {
                    self.expr(*s);
                }
            }
            CExpr::Unary { e, .. } => self.expr(*e),
            CExpr::Binary { l, r, .. } => {
                self.expr(*l);
                self.expr(*r);
            }
            CExpr::MaybeFma { a, b, c, l, r, .. } => {
                for &x in &[*a, *b, *c, *l, *r] {
                    self.expr(x);
                }
            }
            CExpr::Real(_)
            | CExpr::Int(_)
            | CExpr::Str(_)
            | CExpr::Logical(_)
            | CExpr::Var { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::RunConfig;
    use crate::runner::compile_model;
    use crate::Executor;
    use rca_model::{generate, ModelConfig};

    fn spec(module: &str, name: &str) -> SampleSpec {
        SampleSpec {
            module: module.into(),
            subprogram: None,
            name: name.into(),
        }
    }

    fn local_spec(module: &str, sub: &str, name: &str) -> SampleSpec {
        SampleSpec {
            module: module.into(),
            subprogram: Some(sub.into()),
            name: name.into(),
        }
    }

    fn program() -> Arc<Program> {
        compile_model(&generate(&ModelConfig::test())).unwrap()
    }

    fn samples_of(program: &Arc<Program>, cfg: &RunConfig) -> Vec<Option<Vec<f64>>> {
        let mut ex = Executor::new(Arc::clone(program), cfg);
        ex.drive(0.0).expect("drive");
        ex.samples.clone()
    }

    #[test]
    fn specialized_program_prunes_and_matches_captures() {
        let full = program();
        let specs = vec![spec("cloud_diagnostics", "cld")];
        let s = specialize_for_samples(&full, &specs).expect("separable");
        assert!(
            !s.identical && s.stmts_kept < s.stmts_total,
            "cld feeds only part of the model; kept {}/{}",
            s.stmts_kept,
            s.stmts_total
        );
        let cfg = RunConfig {
            steps: 3,
            sample_step: Some(2),
            samples: specs,
            ..Default::default()
        };
        let full_samples = samples_of(&full, &cfg);
        assert!(
            full_samples.iter().all(Option::is_some),
            "cld must actually capture (non-vacuous test)"
        );
        assert_eq!(full_samples, samples_of(&s.program, &cfg));
    }

    #[test]
    fn specialized_captures_match_on_many_spec_sets() {
        let full = program();
        // Module-level and local captures across several modules,
        // including names that resolve to nothing.
        let sets: Vec<Vec<SampleSpec>> = vec![
            vec![
                spec("cloud_diagnostics", "cld"),
                spec("microp_aero", "wsub"),
            ],
            vec![spec("micro_mg", "tlat")],
            vec![local_spec("wv_saturation", "qsat_water", "es")],
            vec![spec("nope", "nothing")],
            vec![
                spec("cloud_diagnostics", "cld"),
                spec("micro_mg", "tlat"),
                local_spec("wv_saturation", "qsat_water", "es"),
            ],
        ];
        for specs in sets {
            let s = specialize_for_samples(&full, &specs).expect("separable");
            for steps in [2u32, 3] {
                let cfg = RunConfig {
                    steps,
                    sample_step: Some(steps - 1),
                    samples: specs.clone(),
                    ..Default::default()
                };
                assert_eq!(
                    samples_of(&full, &cfg),
                    samples_of(&s.program, &cfg),
                    "specs {specs:?} steps {steps}",
                );
            }
        }
    }

    #[test]
    fn truncated_horizon_matches_full_run_at_sample_step() {
        let full = program();
        let specs = vec![spec("cloud_diagnostics", "cld"), spec("micro_mg", "tlat")];
        let s = specialize_for_samples(&full, &specs).expect("separable");
        // Early exit: running the specialized program only to the sample
        // step must capture the same values the full program captures at
        // that step of a longer run.
        let long = RunConfig {
            steps: 4,
            sample_step: Some(1),
            samples: specs.clone(),
            ..Default::default()
        };
        let short = RunConfig {
            steps: 2,
            sample_step: Some(1),
            samples: specs,
            ..Default::default()
        };
        assert_eq!(samples_of(&full, &long), samples_of(&s.program, &short));
    }

    #[test]
    fn pruned_fraction_reported() {
        let full = program();
        let s =
            specialize_for_samples(&full, &[spec("cloud_diagnostics", "cld")]).expect("separable");
        assert!(
            s.pruned_fraction() > 0.0 && s.pruned_fraction() < 1.0,
            "kept {}/{} identical={} instr {} vs {}",
            s.stmts_kept,
            s.stmts_total,
            s.identical,
            s.program.instr_count(),
            full.instr_count()
        );
        assert!(s.program.instr_count() < full.instr_count());
        // A spec nothing can host captures nothing — the slice collapses.
        let none = specialize_for_samples(&full, &[spec("nope", "nothing")]).expect("separable");
        assert_eq!(none.stmts_kept, 0);
    }
}
