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
//! semantics) and drop the rest. Keep decisions read each statement's
//! effects from the IR effect walker ([`crate::effects`]) and judge a
//! call by its callee's summary ([`Program::effects`], built once per
//! program and shared by every query). Every proc the slice keeps whole
//! is the parent's `Arc` (tree IR and bytecode alike); only the pruned
//! procs are re-lowered, through the standard bytecode pipeline, so the
//! specialized program runs on the unmodified [`crate::Executor`] VM tier
//! with all of its kernels and pooling.
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
//! in the specialized run. Callers own it with two rules. A fuel budget
//! keeps the full program, since a pruned run spends less fuel. And a
//! specialized result counts only when every specialized run succeeded:
//! any error re-executes through the full program, which owns all error
//! semantics (the same shape as the bytecode tier's kernel-validation
//! fallback). The runtime oracle re-runs the full pair; the history fill
//! runs its members with zero retries and refills on the full program
//! under the caller's retry policy. What stays unseen is an error the
//! full program raises only in dropped code, or, for the oracle, after
//! the sample step: the oracle would have answered from a failing pair,
//! a full fill would have retried or quarantined the member. The
//! differential equivalence suites, the runtime-oracle fence (whole
//! diagnoses against a full-pair reference oracle) and the history-fill
//! sweeps over seeded campaign mutants fence the contract end to end.
//!
//! Anything the pass cannot prove separable (missing driver entry
//! points, a fixpoint that fails to settle) returns `None`; callers then
//! use the full program.

use crate::bytecode;
use crate::effects::{walk_expr, walk_stmt, walk_template, BitSet, Effect, Effects, Flow};
use crate::interp::SampleSpec;
use crate::program::{CProc, CStmt, EId, Program, VarBind};
use crate::value::Value;
use std::ops::ControlFlow::{Break, Continue};
use std::sync::Arc;

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
/// the analysis keeps everything. The program's effect summary
/// ([`Program::effects`]) is built on the first query and shared by
/// every later one.
pub fn specialize_for_samples(program: &Arc<Program>, specs: &[SampleSpec]) -> Option<Specialized> {
    prune(program, Capture::Samples(specs)).map(|p| p.into_specialized(program))
}

/// Specializes `program` for its history writes: every `outfld` stays,
/// and so does every statement that can reach one. A zero-fault,
/// unbudgeted run of the result writes the full program's history
/// series bit for bit whenever the full program's run succeeds.
/// [`Program::history_program`] keeps one per program; this uncached
/// form reports the pruning statistics.
pub fn specialize_for_history(program: &Arc<Program>) -> Option<Specialized> {
    prune(program, Capture::History).map(|p| p.into_specialized(program))
}

/// The history slice behind [`Program::history_program`]: `None` when
/// the program is unseparable or nothing prunes.
pub(crate) fn history_slice(program: &Program) -> Option<Arc<Program>> {
    prune(program, Capture::History)?.program.map(Arc::new)
}

fn prune(program: &Program, capture: Capture<'_>) -> Option<Pruned> {
    let fx = program.effects();
    let mut rel = Rel::new(program);

    // Driver entry points: the sampler only ever runs `drive`
    // (cam_init + cam_run_step). A program without them is not ours to
    // specialize.
    let root_init = program.entry_proc_index("cam_init")?;
    let root_step = program.entry_proc_index("cam_run_step")?;
    rel.live[root_init as usize] = true;
    rel.live[root_step as usize] = true;

    let reach = match capture {
        Capture::Samples(specs) => {
            let mut capture_procs = vec![false; program.procs.len()];
            seed(program, fx, &mut rel, specs, &mut capture_procs);
            reaches_capture(fx, capture_procs)
        }
        // Every proc that can reach a history write keeps its calls.
        Capture::History => fx.procs().iter().map(|s| s.writes_history).collect(),
    };
    let ctx = Ctx {
        p: program,
        fx,
        reach,
        history: matches!(capture, Capture::History),
    };

    // Monotone fixpoint: relevance, liveness, and keep decisions only
    // grow. Each settled round changes nothing; an unsettled analysis
    // (pathological nesting) falls back to the full program.
    let mut settled = false;
    for _ in 0..64 {
        rel.changed = false;
        for p in 0..program.procs.len() {
            if rel.live[p] {
                ctx.pass_proc(&mut rel, p as u32);
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

    // Materialize: a proc the fixpoint kept whole (live with every
    // statement, or dead with nothing to drop) is the parent's `Arc`;
    // the others get their live bodies pruned to the kept statements,
    // dead ones emptied (metadata stays — sample-plan resolution and
    // host lookups still need names and slot counts), and new bytecode.
    let mut total = 0usize;
    let mut kept = 0usize;
    let mut procs = Vec::with_capacity(program.procs.len());
    let mut pruned = Vec::new();
    for (i, proc) in program.procs.iter().enumerate() {
        let live = rel.live[i];
        let n = stmt_count(&proc.body);
        let k = rel.kept[i].iter().filter(|&&b| b).count();
        total += n;
        kept += k;
        if k == n && (live || proc.inits.is_empty()) {
            procs.push(Arc::clone(proc));
            continue;
        }
        let (mut visited, mut kept_here) = (0, 0);
        let body = prune_block(&proc.body, &rel.kept[i], &mut visited, &mut kept_here);
        debug_assert_eq!(
            (visited, kept_here),
            (n, k),
            "a kept statement's container is kept"
        );
        // Metadata and the shared pools only — never `..proc.clone()`,
        // which would deep-copy the body we are about to replace.
        procs.push(Arc::new(CProc {
            module: Arc::clone(&proc.module),
            name: Arc::clone(&proc.name),
            module_id: proc.module_id,
            arg_slots: proc.arg_slots.clone(),
            arg_flows: proc.arg_flows.clone(),
            n_locals: proc.n_locals,
            local_names: proc.local_names.clone(),
            inits: if live {
                proc.inits.clone()
            } else {
                Box::from([])
            },
            result_slot: proc.result_slot,
            body,
            declared_locals: proc.declared_locals.clone(),
            exprs: Arc::clone(&proc.exprs),
            sites: Arc::clone(&proc.sites),
        }));
        pruned.push(i);
    }

    if kept == total {
        return Some(Pruned {
            program: None,
            stmts_total: total,
            stmts_kept: kept,
        });
    }

    let mut fresh = bytecode::lower_procs(pruned.iter().map(|&i| &*procs[i])).into_iter();
    let mut bc = program.bytecode().clone();
    for &i in &pruned {
        bc.procs[i] = fresh.next().expect("one bytecode proc per pruned proc");
    }
    Some(Pruned {
        program: Some(program.with_procs(procs, bc)),
        stmts_total: total,
        stmts_kept: kept,
    })
}

/// Statements in `body`, nested ones included (the preorder count the
/// keep decisions index).
fn stmt_count(body: &[CStmt]) -> usize {
    body.iter()
        .map(|s| {
            1 + match s {
                CStmt::If { arms, .. } => arms.iter().map(|(_, b)| stmt_count(b)).sum(),
                CStmt::Do { body, .. } | CStmt::DoWhile { body, .. } => stmt_count(body),
                _ => 0,
            }
        })
        .sum()
}

/// Seeds `R` from the spec set, mirroring the executor's capture
/// resolution exactly ([`crate::exec`]'s `build_sample_plans` +
/// `capture_module_samples`): module specs read the resolved global
/// slot *and* — through the derived-field scan fallback — any derived
/// global carrying the field; local specs read one frame slot of one
/// capture proc. Unresolvable specs capture nothing in both programs
/// and seed nothing.
fn seed(
    p: &Program,
    fx: &Effects,
    rel: &mut Rel,
    specs: &[SampleSpec],
    capture_procs: &mut [bool],
) {
    for spec in specs {
        match &spec.subprogram {
            None => {
                if let Some(g) = p.global_slot(&spec.module, &spec.name) {
                    rel.add_global(g);
                }
                for (slot, val) in p.globals.iter().enumerate() {
                    if let Value::Derived(fields) = val {
                        if fields.contains_key(&*spec.name) {
                            rel.add_global(slot as u32);
                        }
                    }
                }
                for &g in fx.derived_writers(&spec.name) {
                    rel.add_global(g);
                }
            }
            Some(sub) => {
                let Some(q) = p.proc_slot(&spec.module, sub) else {
                    continue;
                };
                let proc = &p.procs[q as usize];
                let Some(slot) = proc.local_names.iter().position(|n| **n == *spec.name) else {
                    continue;
                };
                rel.add_local(q, slot as u32);
                capture_procs[q as usize] = true;
            }
        }
    }
}

/// Procs that are (or can transitively call) a capture proc — their
/// invocation counts are observable, so calls to them stay.
fn reaches_capture(fx: &Effects, mut reach: Vec<bool>) -> Vec<bool> {
    loop {
        let mut changed = false;
        for i in 0..reach.len() {
            if !reach[i] && fx.procs()[i].callees.iter().any(|&q| reach[q as usize]) {
                reach[i] = true;
                changed = true;
            }
        }
        if !changed {
            return reach;
        }
    }
}

// ----- relevance state ---------------------------------------------------

/// The growing relevant-location set `R`, proc liveness, and the
/// statements already kept.
struct Rel {
    globals: BitSet,
    /// Per proc, by frame slot.
    locals: Vec<BitSet>,
    pbuf: bool,
    prng: bool,
    live: Vec<bool>,
    /// Per proc, by preorder statement index: kept, and its effects
    /// joined. Keep decisions only grow and joins are idempotent, so a
    /// kept statement is never decided or joined again.
    kept: Vec<Vec<bool>>,
    changed: bool,
}

impl Rel {
    fn new(p: &Program) -> Rel {
        Rel {
            globals: BitSet::new(p.globals.len()),
            locals: p.procs.iter().map(|pr| BitSet::new(pr.n_locals)).collect(),
            pbuf: false,
            prng: false,
            live: vec![false; p.procs.len()],
            kept: vec![Vec::new(); p.procs.len()],
            changed: false,
        }
    }

    fn is_kept(&self, proc: u32, stmt: usize) -> bool {
        self.kept[proc as usize].get(stmt) == Some(&true)
    }

    fn keep(&mut self, proc: u32, stmt: usize) {
        let kept = &mut self.kept[proc as usize];
        if kept.len() <= stmt {
            kept.resize(stmt + 1, false);
        }
        kept[stmt] = true;
    }

    fn add_global(&mut self, g: u32) {
        self.changed |= self.globals.insert(g as usize);
    }

    fn add_local(&mut self, proc: u32, slot: u32) {
        self.changed |= self.locals[proc as usize].insert(slot as usize);
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

    /// Does binding `bind` of `proc` touch a location already in `R`?
    fn hits(&self, proc: u32, bind: VarBind) -> bool {
        let local = |s: u32| self.locals[proc as usize].contains(s as usize);
        match bind {
            VarBind::Local(s) => local(s),
            VarBind::LocalOrGlobal(s, g) => local(s) || self.globals.contains(g as usize),
            VarBind::Global(g) => self.globals.contains(g as usize),
        }
    }

    /// Binding read/write: `LocalOrGlobal` dispatches on slot liveness at
    /// runtime, so both locations join (definedness must match the full
    /// program for the dispatch — and therefore the access — to agree).
    fn add_bind(&mut self, proc: u32, bind: VarBind) {
        match bind {
            VarBind::Local(s) => self.add_local(proc, s),
            VarBind::LocalOrGlobal(s, g) => {
                self.add_local(proc, s);
                self.add_global(g);
            }
            VarBind::Global(g) => self.add_global(g),
        }
    }
}

struct Ctx<'p> {
    p: &'p Program,
    fx: &'p Effects,
    /// Per proc: calls to it must stay (it is or reaches a capture proc).
    reach: Vec<bool>,
    /// The history capture: every `outfld` is kept.
    history: bool,
}

impl Ctx<'_> {
    // ----- keep decisions + closure (one round over a live proc) ---------

    fn pass_proc(&self, rel: &mut Rel, proc: u32) {
        // Frame initialization always runs for a live proc; its extent
        // and initializer expressions are evaluated unconditionally, so
        // their reads must hold full-program values.
        let pr = &self.p.procs[proc as usize];
        for (_, _, tpl) in &pr.inits {
            let _ = walk_template(pr, tpl, &mut |e| self.join(rel, proc, e));
        }
        self.pass_block(rel, proc, &pr.body, &mut 0);
    }

    /// `next` is the preorder index of the block's first statement.
    fn pass_block(&self, rel: &mut Rel, proc: u32, body: &[CStmt], next: &mut usize) -> bool {
        let mut any = false;
        for s in body {
            any |= self.pass_stmt(rel, proc, s, next);
        }
        any
    }

    /// Decides whether `s` must stay and, if so, joins everything it
    /// reads and writes into `R` (the closed-set induction of the module
    /// docs). Monotone in `R`, so round order cannot change the fixpoint.
    /// A statement kept in an earlier round only passes its nested
    /// blocks on.
    fn pass_stmt(&self, rel: &mut Rel, proc: u32, s: &CStmt, next: &mut usize) -> bool {
        let id = *next;
        *next += 1;
        let kept = rel.is_kept(proc, id);
        let keep = match s {
            // Control-transfer statements shape which kept statements
            // run; always preserved (their containers may still drop).
            CStmt::Return | CStmt::Exit | CStmt::Cycle => true,
            // A kept `if` evaluates every guard on the path to the taken
            // arm, so all conditions join `R`; bodies prune per arm.
            CStmt::If { arms, .. } => {
                let guards = || arms.iter().filter_map(|(c, _)| *c);
                let mut keep = kept || guards().any(|c| self.expr_relevant(rel, proc, c));
                for (_, b) in arms {
                    keep |= self.pass_block(rel, proc, b, next);
                }
                if keep && !kept {
                    guards().for_each(|c| self.join_expr(rel, proc, c));
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
                let bounds = || [*start, *end].into_iter().chain(*step);
                let mut keep = kept
                    || rel.locals[proc as usize].contains(*var as usize)
                    || bounds().any(|e| self.expr_relevant(rel, proc, e));
                keep |= self.pass_block(rel, proc, body, next);
                if keep && !kept {
                    rel.add_local(proc, *var);
                    bounds().for_each(|e| self.join_expr(rel, proc, e));
                }
                keep
            }
            CStmt::DoWhile { cond, body, .. } => {
                let mut keep = kept || self.expr_relevant(rel, proc, *cond);
                keep |= self.pass_block(rel, proc, body, next);
                if keep && !kept {
                    // Guard reads join R, which keeps every statement
                    // defining them — including inside this body — so
                    // the loop terminates exactly as the full program.
                    self.join_expr(rel, proc, *cond);
                }
                keep
            }
            _ if kept => true,
            // Straight-line statements stay when any of their effects is
            // relevant, and then everything they touch joins `R`.
            _ => {
                let pr = &self.p.procs[proc as usize];
                let keep = walk_stmt(pr, s, &mut |e| self.relevant(rel, proc, e)).is_break();
                if keep {
                    let _ = walk_stmt(pr, s, &mut |e| self.join(rel, proc, e));
                }
                keep
            }
        };
        if keep && !kept {
            rel.keep(proc, id);
        }
        keep
    }

    /// Whether evaluating `e` has an effect that forces keeping its
    /// statement.
    fn expr_relevant(&self, rel: &Rel, proc: u32, e: EId) -> bool {
        let pr = &self.p.procs[proc as usize];
        walk_expr(pr, e, &mut |ef| self.relevant(rel, proc, ef)).is_break()
    }

    /// Joins every location an executed expression reads (full
    /// read-closure: kept code must never read a location outside `R`,
    /// or its value — and even its definedness — could diverge).
    fn join_expr(&self, rel: &mut Rel, proc: u32, e: EId) {
        let _ = walk_expr(&self.p.procs[proc as usize], e, &mut |ef| {
            self.join(rel, proc, ef)
        });
    }

    /// `Break` when one effect forces keeping its statement: a write to a
    /// location in `R`; a call whose callee may raise, reaches a capture
    /// proc, or may write a location in `R`; a draw once the PRNG stream
    /// is relevant; a physics-buffer write once the buffer is; any
    /// history write under the history capture (sampling queries never
    /// read histories, so there an `outfld` stays only for its operands'
    /// effects); a deferred error, so that failures still fire.
    fn relevant(&self, rel: &Rel, proc: u32, e: Effect<'_>) -> Flow {
        let keep = match e {
            Effect::Write { bind, .. } => rel.hits(proc, bind),
            Effect::Call(site) => {
                let callee = site.proc;
                let s = self.fx.proc(callee);
                s.may_raise
                    || self.reach[callee as usize]
                    || (s.writes_pbuf && rel.pbuf)
                    || (s.draws && rel.prng)
                    || s.global_writes.intersects(&rel.globals)
            }
            Effect::Outfld(_) => self.history,
            // The PRNG stream is one shared location: once any draw is
            // relevant, every draw stays (sequence positions matter).
            Effect::Draw => rel.prng,
            Effect::PbufWrite => rel.pbuf,
            Effect::Error => true,
            Effect::Read { .. } | Effect::PbufRead => false,
        };
        if keep {
            Break(())
        } else {
            Continue(())
        }
    }

    /// Joins what one executed effect touches into `R` (write-closure
    /// too: partial updates read their container, and keeping every def
    /// of a written location is what makes `R` self-consistent). An
    /// executed call makes the callee live and reads its result and
    /// copy-out source slots; a draw makes the PRNG stream relevant, a
    /// `pbuf_get` the physics buffer.
    fn join(&self, rel: &mut Rel, proc: u32, e: Effect<'_>) -> Flow {
        match e {
            Effect::Read { bind, .. } | Effect::Write { bind, .. } => rel.add_bind(proc, bind),
            Effect::Call(cs) => {
                rel.mark_live(cs.proc);
                if let Some(r) = self.p.procs[cs.proc as usize].result_slot {
                    rel.add_local(cs.proc, r);
                }
                for (dummy, _) in &cs.copyout {
                    rel.add_local(cs.proc, *dummy);
                }
            }
            Effect::Draw => rel.add_prng(),
            Effect::PbufRead => rel.add_pbuf(),
            Effect::Outfld(_) | Effect::PbufWrite | Effect::Error => {}
        }
        Continue(())
    }
}

/// Rebuilds a block keeping exactly the statements the fixpoint kept
/// (`keep`, by preorder index within the proc; a dead proc keeps
/// nothing). `next` counts the statements visited.
fn prune_block(body: &[CStmt], keep: &[bool], next: &mut usize, kept: &mut usize) -> Box<[CStmt]> {
    let mut out = Vec::new();
    for s in body {
        let k = keep.get(*next) == Some(&true);
        *next += 1;
        let mut prune = |b: &[CStmt]| prune_block(b, keep, next, kept);
        if !k {
            // A dropped statement's nested statements are dropped too:
            // count them without building anything.
            match s {
                CStmt::If { arms, .. } => arms.iter().for_each(|(_, b)| drop(prune(b))),
                CStmt::Do { body, .. } | CStmt::DoWhile { body, .. } => drop(prune(body)),
                _ => {}
            }
            continue;
        }
        let pruned = match s {
            CStmt::If { arms, line } => CStmt::If {
                arms: arms.iter().map(|(c, b)| (*c, prune(b))).collect(),
                line: *line,
            },
            CStmt::Do {
                var,
                start,
                end,
                step,
                body,
                line,
            } => CStmt::Do {
                var: *var,
                start: *start,
                end: *end,
                step: *step,
                body: prune(body),
                line: *line,
            },
            CStmt::DoWhile { cond, body, line } => CStmt::DoWhile {
                cond: *cond,
                body: prune(body),
                line: *line,
            },
            other => other.clone(),
        };
        *kept += 1;
        out.push(pruned);
    }
    out.into_boxed_slice()
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
