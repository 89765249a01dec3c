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
//! is the parent's `Arc` (tree IR and bytecode alike), and every proc it
//! keeps none of runs the proc's emptied copy, built once and cached on
//! the proc, so all slices of all programs holding it share one; only the
//! pruned procs are re-lowered, through the standard bytecode pipeline,
//! so the specialized program runs on the unmodified [`crate::Executor`]
//! VM tier with all of its kernels and pooling.
//!
//! # Output masks
//!
//! The keep and join rules below run once per program as one fixpoint
//! over *masks*: each location of `R`, each proc's liveness and each
//! statement's keep decision carries the set of outputs whose history it
//! can reach. An `outfld` of output `o` is relevant to `{o}`, a statement
//! kept in proc `q` is kept for its relevance masked by `q`'s liveness,
//! and what it touches joins `R` for exactly those outputs. So output
//! `o`'s bit describes the slice a fixpoint for `o`'s history alone would
//! build, and all outputs' slices come from one pass
//! (`Program::output_masks`, computed on first use). The history slice
//! is every statement with a non-empty mask (the union of closed sets is
//! closed); a sampling query is the one-bit case, seeded from its spec
//! set instead of the `outfld`s.
//!
//! # Cones
//!
//! A delta variant ([`crate::compile_variant`]) shares its base program's
//! tables and every unchanged proc's `Arc`. When each changed proc reads
//! the same to the rules as the base proc it replaces — the same frame
//! shape, statement shape and effects in order, as a changed constant,
//! operator or comparison does — the base's masks describe the variant.
//! Its **cone** ([`output_cone`]) is then the outputs whose slices keep a
//! changed proc live. Every other output's slice holds only procs the
//! variant shares with the base: it computes the base's values, so its
//! history is the base's bit for bit whenever both full runs succeed. The
//! statistics fill ([`crate::EnsembleRuns::run_history`] with a base)
//! runs the members on the cone slice — the statements some cone output's
//! slice keeps — and takes every other column from the base's fill. The
//! variant's own masks are the base's (the rules read both the same way),
//! so a cone of every output has the variant's history slice as its cone
//! slice, statement for statement, and a member that fails on a cone
//! slice fails the same way on the history slice: neither case needs
//! the history slice. The cone slice's residual is the history slice's:
//! a statement of the variant's history slice that is outside the cone
//! slice reads only locations of slices the variant does not change, so
//! it behaves as in the base, whose fill succeeded, and an error it could
//! raise there would have failed the base fill. A cone is a per-proc
//! bound: a changed proc that a slice
//! keeps live puts that output in the cone even when the changed
//! statement is one the slice drops.
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

use crate::bytecode::{self, Bytecode};
use crate::effects::{walk_expr, walk_stmt, walk_template, BitSet, Effect, Effects, Flow};
use crate::interp::SampleSpec;
use crate::program::{CProc, CStmt, EId, Program, VarBind};
use crate::value::Value;
use std::mem::{discriminant, Discriminant};
use std::ops::ControlFlow::{Break, Continue};
use std::ops::Range;
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

/// A set of outputs of one chunk of [`CHUNK`] consecutive output ids: bit
/// `i` is the chunk's `i`-th output. A sampling query's capture is the
/// one-bit case.
type Mask = u128;

/// Outputs per [`Mask`]. The fixpoint runs once per chunk (output slices
/// are independent), so any output count works; up to 128 take one run.
const CHUNK: usize = Mask::BITS as usize;

/// What a specialized program must reproduce bit for bit.
#[derive(Clone, Copy)]
enum Capture<'a> {
    /// The sample captures of one spec set (runtime-oracle queries).
    Samples(&'a [SampleSpec]),
    /// Every history write (the statistics fills), output by output.
    History,
}

/// The relevance fixpoint's result: per output, the procs its slice
/// keeps live and the statements it keeps. [`Program::output_masks`]
/// holds a program's history masks.
pub(crate) struct Masks {
    /// One per chunk of [`CHUNK`] outputs (one one-bit chunk for a
    /// sampling query).
    chunks: Vec<Chunk>,
    /// `first[p]..first[p + 1]` index proc `p`'s statements, in preorder.
    first: Vec<usize>,
}

/// The fixpoint's result for one chunk of outputs.
struct Chunk {
    /// Every output of the chunk.
    all: Mask,
    /// Per proc: the outputs whose slice keeps it live.
    live: Vec<Mask>,
    /// Per statement: the outputs whose slice keeps it.
    kept: Vec<Mask>,
}

impl Masks {
    /// Every output, chunk by chunk: the history slice's selection.
    fn all(&self) -> Vec<Mask> {
        self.chunks.iter().map(|c| c.all).collect()
    }

    /// Whether some output of `select` keeps proc `p` live.
    fn live(&self, select: &[Mask], p: usize) -> bool {
        self.chunks
            .iter()
            .zip(select)
            .any(|(c, &s)| c.live[p] & s != 0)
    }

    /// Whether some output of `select` keeps statement `id`.
    fn kept(&self, select: &[Mask], id: usize) -> bool {
        self.chunks
            .iter()
            .zip(select)
            .any(|(c, &s)| c.kept[id] & s != 0)
    }
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
    let masks = relevance(program, Capture::Samples(specs))?;
    Some(materialize(program, &masks, &[1]).into_specialized(program))
}

/// Specializes `program` for its history writes: every `outfld` stays,
/// and so does every statement that can reach one. A zero-fault,
/// unbudgeted run of the result writes the full program's history
/// series bit for bit whenever the full program's run succeeds.
/// [`Program::history_program`] keeps one per program; this uncached
/// form reports the pruning statistics.
pub fn specialize_for_history(program: &Arc<Program>) -> Option<Specialized> {
    let masks = relevance(program, Capture::History)?;
    Some(materialize(program, &masks, &masks.all()).into_specialized(program))
}

/// The masks behind [`Program::output_masks`].
pub(crate) fn history_masks(program: &Program) -> Option<Masks> {
    relevance(program, Capture::History)
}

/// The history slice behind [`Program::history_program`]: `None` when
/// the program is unseparable or nothing prunes.
pub(crate) fn history_slice(program: &Program) -> Option<Arc<Program>> {
    let masks = program.output_masks()?;
    materialize(program, masks, &masks.all())
        .program
        .map(Arc::new)
}

/// The outputs whose history `program`, a variant of `base`, may write
/// differently from `base`: its cone, ascending. `None` when `base`'s
/// masks do not describe `program` (see the module docs); an empty cone
/// when `program` changes no proc or only procs no output needs.
pub fn output_cone(program: &Program, base: &Program) -> Option<Vec<u32>> {
    cone(program, base).map(|c| c.outputs())
}

/// A variant's cone over its base program's masks ([`cone`]).
pub(crate) struct Cone<'b> {
    masks: &'b Masks,
    select: Vec<Mask>,
}

impl Cone<'_> {
    /// The cone's outputs, ascending.
    pub(crate) fn outputs(&self) -> Vec<u32> {
        let mut out = Vec::new();
        for (c, &m) in self.select.iter().enumerate() {
            let mut m = m;
            while m != 0 {
                out.push((c * CHUNK) as u32 + m.trailing_zeros());
                m &= m - 1;
            }
        }
        out
    }

    /// `program`'s cone slice: the statements some cone output's slice
    /// keeps, with the procs it keeps whole and the emptied copies of the
    /// procs it keeps nothing of shared by `Arc`.
    pub(crate) fn slice(&self, program: &Arc<Program>) -> Arc<Program> {
        materialize(program, self.masks, &self.select)
            .program
            .map_or_else(|| Arc::clone(program), Arc::new)
    }
}

/// The cone of `program` over `base`'s masks, or `None` when they do not
/// describe it: the tables differ, `base` is unseparable, or a changed
/// proc (one whose `Arc` is not `base`'s) reads differently to the keep
/// and join rules ([`same_walk`]).
pub(crate) fn cone<'b>(program: &Program, base: &'b Program) -> Option<Cone<'b>> {
    if !base.shares_tables(program) || base.procs.len() != program.procs.len() {
        return None;
    }
    let masks = base.output_masks()?;
    let mut select = vec![0; masks.chunks.len()];
    for (i, (variant, original)) in program.procs.iter().zip(&base.procs).enumerate() {
        if Arc::ptr_eq(variant, original) {
            continue;
        }
        if !same_walk(variant, original) {
            return None;
        }
        for (s, c) in select.iter_mut().zip(&masks.chunks) {
            *s |= c.live[i];
        }
    }
    Some(Cone { masks, select })
}

/// Runs the relevance fixpoint for `capture`: one run for a spec set,
/// one per chunk of outputs for the history.
fn relevance(program: &Program, capture: Capture<'_>) -> Option<Masks> {
    let fx = program.effects();
    // Driver entry points: the sampler only ever runs `drive`
    // (cam_init + cam_run_step). A program without them is not ours to
    // specialize.
    let roots = [
        program.entry_proc_index("cam_init")?,
        program.entry_proc_index("cam_run_step")?,
    ];
    let mut first = Vec::with_capacity(program.procs.len() + 1);
    first.push(0);
    for proc in &program.procs {
        first.push(first[first.len() - 1] + stmt_count(&proc.body));
    }
    let chunks = match capture {
        Capture::Samples(specs) => {
            let mut rel = Rel::new(program, &first);
            let mut capture_procs = vec![false; program.procs.len()];
            seed(program, fx, &mut rel, specs, &mut capture_procs);
            let reach = reaches_capture(fx, capture_procs);
            let reach = reach.into_iter().map(Mask::from).collect();
            vec![fixpoint(program, fx, rel, roots, reach, None)?]
        }
        Capture::History => {
            let n = program.output_count();
            (0..n)
                .step_by(CHUNK)
                .map(|lo| {
                    let outputs = lo as u32..n.min(lo + CHUNK) as u32;
                    let reach = writes_outputs(fx, &outputs);
                    let rel = Rel::new(program, &first);
                    fixpoint(program, fx, rel, roots, reach, Some(outputs))
                })
                .collect::<Option<Vec<_>>>()?
        }
    };
    // A program without outputs has no history to slice.
    (!chunks.is_empty()).then_some(Masks { chunks, first })
}

/// Runs one chunk's fixpoint from `rel` (seeded for a sampling query).
fn fixpoint(
    p: &Program,
    fx: &Effects,
    mut rel: Rel<'_>,
    roots: [u32; 2],
    reach: Vec<Mask>,
    outputs: Option<Range<u32>>,
) -> Option<Chunk> {
    let all = match &outputs {
        Some(r) if r.len() == CHUNK => Mask::MAX,
        Some(r) => (1 << r.len()) - 1,
        None => 1,
    };
    let ctx = Ctx {
        p,
        fx,
        reach,
        outputs,
        all,
    };
    for r in roots {
        rel.live[r as usize] = all;
    }
    // Monotone fixpoint: relevance, liveness, and keep masks only grow.
    // Each settled round changes nothing; an unsettled analysis
    // (pathological nesting) falls back to the full program.
    for _ in 0..64 {
        rel.changed = false;
        for proc in 0..p.procs.len() {
            if rel.live[proc] != 0 {
                ctx.pass_proc(&mut rel, proc as u32);
            }
        }
        if !rel.changed {
            return Some(Chunk {
                all,
                live: rel.live,
                kept: rel.kept,
            });
        }
    }
    None
}

/// Builds `program` pruned to what `masks` keeps for the outputs of
/// `select`. A proc the selection keeps whole (live with every statement,
/// or dead with nothing to drop) is `program`'s `Arc`; a dead proc runs
/// its emptied copy (metadata stays — sample-plan resolution and host
/// lookups still need names and slot counts), built once per proc and
/// cached on it, so every slice of every program holding the proc shares
/// it; a live proc's body is pruned to the kept statements and lowered
/// to new bytecode. `masks` index `program`'s statements: its own, or
/// those of a base whose masks describe it ([`cone`]).
fn materialize(program: &Program, masks: &Masks, select: &[Mask]) -> Pruned {
    enum Plan {
        Whole,
        Empty,
        Pruned,
    }
    let mut total = 0usize;
    let mut kept = 0usize;
    let mut plans = Vec::with_capacity(program.procs.len());
    let mut pruned = Vec::new();
    for (i, proc) in program.procs.iter().enumerate() {
        let ids = masks.first[i]..masks.first[i + 1];
        let n = ids.len();
        debug_assert_eq!(n, stmt_count(&proc.body), "the masks index this proc");
        let live = masks.live(select, i);
        // A dead proc keeps nothing.
        let keep: Vec<bool> = if live {
            ids.map(|id| masks.kept(select, id)).collect()
        } else {
            Vec::new()
        };
        let k = keep.iter().filter(|&&b| b).count();
        total += n;
        kept += k;
        plans.push(if k == n && (live || proc.inits.is_empty()) {
            Plan::Whole
        } else if !live {
            Plan::Empty
        } else {
            let (mut visited, mut kept_here) = (0, 0);
            let body = prune_block(&proc.body, &keep, &mut visited, &mut kept_here);
            debug_assert_eq!(
                (visited, kept_here),
                (n, k),
                "a kept statement's container is kept"
            );
            pruned.push(proc.with_body(proc.inits.clone(), body));
            Plan::Pruned
        });
    }
    if kept == total {
        return Pruned {
            program: None,
            stmts_total: total,
            stmts_kept: kept,
        };
    }

    // One bytecode lowering for the pruned procs and the emptied copies
    // not built yet.
    let cold: Vec<usize> = (0..plans.len())
        .filter(|&i| matches!(plans[i], Plan::Empty) && program.procs[i].empty.get().is_none())
        .collect();
    let empties: Vec<CProc> = cold
        .iter()
        .map(|&i| program.procs[i].with_body(Box::from([]), Box::from([])))
        .collect();
    let mut lowered = bytecode::lower_procs(pruned.iter().chain(&empties)).into_iter();
    let fresh: Vec<_> = pruned
        .into_iter()
        .map(Arc::new)
        .zip(lowered.by_ref())
        .collect();
    for ((&i, proc), bc) in cold.iter().zip(empties).zip(lowered) {
        // A concurrent slice may have cached one first; either is exact.
        let _ = program.procs[i].empty.set((Arc::new(proc), bc));
    }
    let mut fresh = fresh.into_iter();
    let (procs, bc) = plans
        .iter()
        .enumerate()
        .map(|(i, plan)| match plan {
            Plan::Whole => (
                Arc::clone(&program.procs[i]),
                Arc::clone(&program.bytecode().procs[i]),
            ),
            Plan::Empty => {
                let (proc, bc) = program.procs[i].empty.get().expect("emptied above");
                (Arc::clone(proc), Arc::clone(bc))
            }
            Plan::Pruned => fresh.next().expect("one lowered proc per pruned proc"),
        })
        .unzip();
    Pruned {
        program: Some(program.with_procs(procs, Bytecode { procs: bc })),
        stmts_total: total,
        stmts_kept: kept,
    }
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
    rel: &mut Rel<'_>,
    specs: &[SampleSpec],
    capture_procs: &mut [bool],
) {
    for spec in specs {
        match &spec.subprogram {
            None => {
                if let Some(g) = p.global_slot(&spec.module, &spec.name) {
                    rel.add_global(g, 1);
                }
                for (slot, val) in p.globals.iter().enumerate() {
                    if let Value::Derived(fields) = val {
                        if fields.contains_key(&*spec.name) {
                            rel.add_global(slot as u32, 1);
                        }
                    }
                }
                for &g in fx.derived_writers(&spec.name) {
                    rel.add_global(g, 1);
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
                rel.add_local(q, slot as u32, 1);
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

/// Per proc, the outputs of `outputs` it or a proc it can call writes:
/// a history series keeps the last write of each step, so a call that
/// can write output `o` stays in `o`'s slice.
fn writes_outputs(fx: &Effects, outputs: &Range<u32>) -> Vec<Mask> {
    let mut reach: Vec<Mask> = fx
        .procs()
        .iter()
        .map(|s| {
            s.outputs
                .iter()
                .filter(|o| outputs.contains(o))
                .fold(0, |m, &o| m | 1 << (o - outputs.start))
        })
        .collect();
    loop {
        let mut changed = false;
        for i in 0..reach.len() {
            let m = fx.procs()[i]
                .callees
                .iter()
                .fold(reach[i], |m, &q| m | reach[q as usize]);
            changed |= m != reach[i];
            reach[i] = m;
        }
        if !changed {
            return reach;
        }
    }
}

// ----- the variant check -------------------------------------------------

/// Whether two procs read the same to the keep and join rules: the same
/// frame shape, statement shape and effects, in order. Then a base's
/// masks describe a variant whose changed procs all read the same as the
/// base's — every seeded mutation (a constant, an operator, a
/// comparison) changes values, not effects.
fn same_walk(a: &CProc, b: &CProc) -> bool {
    a.n_locals == b.n_locals && a.result_slot == b.result_slot && facts(a) == facts(b)
}

/// One thing the keep and join rules read of a proc.
enum Fact<'p> {
    /// A frame initialization of this slot; its effects follow.
    Init(u32),
    /// A statement of this kind; its parts follow, then [`Fact::End`].
    Stmt(Discriminant<CStmt>),
    /// An `if` arm, guarded or not; the guard's effects, then the arm's
    /// statements follow.
    Arm(bool),
    /// A `do` loop's variable slot; the bounds' effects, then the body's
    /// statements follow.
    Var(u32),
    End,
    Effect(Effect<'p>),
}

impl PartialEq for Fact<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Fact::Init(a), Fact::Init(b)) | (Fact::Var(a), Fact::Var(b)) => a == b,
            (Fact::Stmt(a), Fact::Stmt(b)) => a == b,
            (Fact::Arm(a), Fact::Arm(b)) => a == b,
            (Fact::End, Fact::End) => true,
            (Fact::Effect(a), Fact::Effect(b)) => same_effect(a, b),
            _ => false,
        }
    }
}

/// Effect equality as the rules read it: a call is its callee and the
/// dummy slots it copies out of.
fn same_effect(a: &Effect<'_>, b: &Effect<'_>) -> bool {
    match (a, b) {
        (Effect::Read { bind: x, part: p }, Effect::Read { bind: y, part: q }) => x == y && p == q,
        (
            Effect::Write {
                bind: x,
                part: p,
                copy_out: c,
            },
            Effect::Write {
                bind: y,
                part: q,
                copy_out: d,
            },
        ) => x == y && p == q && c == d,
        (Effect::Call(x), Effect::Call(y)) => {
            x.proc == y.proc
                && x.copyout
                    .iter()
                    .map(|c| c.0)
                    .eq(y.copyout.iter().map(|c| c.0))
        }
        (Effect::Outfld(x), Effect::Outfld(y)) => x == y,
        (Effect::Draw, Effect::Draw)
        | (Effect::PbufRead, Effect::PbufRead)
        | (Effect::PbufWrite, Effect::PbufWrite)
        | (Effect::Error, Effect::Error) => true,
        _ => false,
    }
}

/// Everything the keep and join rules read of `p`, in reading order.
fn facts(p: &CProc) -> Vec<Fact<'_>> {
    let mut out = Vec::new();
    for (slot, _, tpl) in &p.inits {
        out.push(Fact::Init(*slot));
        let _ = walk_template(p, tpl, &mut |e| {
            out.push(Fact::Effect(e));
            Continue(())
        });
    }
    block_facts(p, &p.body, &mut out);
    out
}

fn block_facts<'p>(p: &'p CProc, body: &'p [CStmt], out: &mut Vec<Fact<'p>>) {
    let exprs = |out: &mut Vec<Fact<'p>>, es: &mut dyn Iterator<Item = EId>| {
        for e in es {
            let _ = walk_expr(p, e, &mut |e| {
                out.push(Fact::Effect(e));
                Continue(())
            });
        }
    };
    for s in body {
        out.push(Fact::Stmt(discriminant(s)));
        match s {
            CStmt::If { arms, .. } => {
                for (c, b) in arms {
                    out.push(Fact::Arm(c.is_some()));
                    exprs(out, &mut c.iter().copied());
                    block_facts(p, b, out);
                }
            }
            CStmt::Do {
                var,
                start,
                end,
                step,
                body,
                ..
            } => {
                out.push(Fact::Var(*var));
                exprs(out, &mut [*start, *end].into_iter().chain(*step));
                block_facts(p, body, out);
            }
            CStmt::DoWhile { cond, body, .. } => {
                exprs(out, &mut std::iter::once(*cond));
                block_facts(p, body, out);
            }
            _ => {
                let _ = walk_stmt(p, s, &mut |e| {
                    out.push(Fact::Effect(e));
                    Continue(())
                });
            }
        }
        out.push(Fact::End);
    }
}

// ----- relevance state ---------------------------------------------------

/// Grows `slot` by `m`; reports whether it changed.
fn grow(slot: &mut Mask, m: Mask) -> bool {
    let old = *slot;
    *slot |= m;
    *slot != old
}

/// The growing relevant-location sets `R`, one per output of the chunk,
/// held as masks: each location, each proc's liveness and each statement
/// carries the outputs it matters to.
struct Rel<'f> {
    globals: Vec<Mask>,
    /// Globals with a non-empty mask.
    any_global: BitSet,
    /// Proc `p`'s frame slot `s` is `locals[local_first[p] + s]`.
    local_first: Vec<usize>,
    locals: Vec<Mask>,
    pbuf: Mask,
    prng: Mask,
    live: Vec<Mask>,
    /// Per statement (proc `p`'s from `first[p]`, in preorder): the
    /// outputs it is kept for, its effects joined for each. Masks only
    /// grow and joins are idempotent, so a statement kept for every
    /// output its proc is live for is not decided again until the proc's
    /// liveness grows.
    kept: Vec<Mask>,
    first: &'f [usize],
    changed: bool,
}

impl<'f> Rel<'f> {
    fn new(p: &Program, first: &'f [usize]) -> Rel<'f> {
        let mut local_first = Vec::with_capacity(p.procs.len());
        let mut n = 0;
        for pr in &p.procs {
            local_first.push(n);
            n += pr.n_locals;
        }
        Rel {
            globals: vec![0; p.globals.len()],
            any_global: BitSet::new(p.globals.len()),
            local_first,
            locals: vec![0; n],
            pbuf: 0,
            prng: 0,
            live: vec![0; p.procs.len()],
            kept: vec![0; first[first.len() - 1]],
            first,
            changed: false,
        }
    }

    fn local(&self, proc: u32, slot: u32) -> Mask {
        self.locals[self.local_first[proc as usize] + slot as usize]
    }

    fn add_global(&mut self, g: u32, m: Mask) {
        if grow(&mut self.globals[g as usize], m) {
            self.any_global.insert(g as usize);
            self.changed = true;
        }
    }

    fn add_local(&mut self, proc: u32, slot: u32, m: Mask) {
        let i = self.local_first[proc as usize] + slot as usize;
        self.changed |= grow(&mut self.locals[i], m);
    }

    fn add_pbuf(&mut self, m: Mask) {
        self.changed |= grow(&mut self.pbuf, m);
    }

    fn add_prng(&mut self, m: Mask) {
        self.changed |= grow(&mut self.prng, m);
    }

    fn mark_live(&mut self, proc: u32, m: Mask) {
        self.changed |= grow(&mut self.live[proc as usize], m);
    }

    /// The outputs whose `R` holds a location binding `bind` of `proc`
    /// touches.
    fn hits(&self, proc: u32, bind: VarBind) -> Mask {
        match bind {
            VarBind::Local(s) => self.local(proc, s),
            VarBind::LocalOrGlobal(s, g) => self.local(proc, s) | self.globals[g as usize],
            VarBind::Global(g) => self.globals[g as usize],
        }
    }

    /// Binding read/write: `LocalOrGlobal` dispatches on slot liveness at
    /// runtime, so both locations join (definedness must match the full
    /// program for the dispatch — and therefore the access — to agree).
    fn add_bind(&mut self, proc: u32, bind: VarBind, m: Mask) {
        match bind {
            VarBind::Local(s) => self.add_local(proc, s, m),
            VarBind::LocalOrGlobal(s, g) => {
                self.add_local(proc, s, m);
                self.add_global(g, m);
            }
            VarBind::Global(g) => self.add_global(g, m),
        }
    }
}

struct Ctx<'p> {
    p: &'p Program,
    fx: &'p Effects,
    /// Per proc: the outputs for which calls to it must stay (it is, or
    /// can call, a capture proc).
    reach: Vec<Mask>,
    /// The history capture's chunk (`outfld` of output `o` is relevant
    /// to `o`); `None` for a sampling query.
    outputs: Option<Range<u32>>,
    /// Every output of the chunk.
    all: Mask,
}

impl Ctx<'_> {
    // ----- keep decisions + closure (one round over a live proc) ---------

    fn pass_proc(&self, rel: &mut Rel<'_>, proc: u32) {
        // Frame initialization always runs for a live proc; its extent
        // and initializer expressions are evaluated unconditionally, so
        // their reads must hold full-program values.
        let pr = &self.p.procs[proc as usize];
        let live = rel.live[proc as usize];
        for (_, _, tpl) in &pr.inits {
            let _ = walk_template(pr, tpl, &mut |e| self.join(rel, proc, e, live));
        }
        let mut next = rel.first[proc as usize];
        self.pass_block(rel, proc, &pr.body, &mut next);
    }

    /// `next` is the index of the block's first statement; returns the
    /// outputs any statement of the block is kept for.
    fn pass_block(&self, rel: &mut Rel<'_>, proc: u32, body: &[CStmt], next: &mut usize) -> Mask {
        let mut any = 0;
        for s in body {
            any |= self.pass_stmt(rel, proc, s, next);
        }
        any
    }

    /// Decides which of its proc's live outputs `s` must stay for and
    /// joins everything it reads and writes into their `R`s (the
    /// closed-set induction of the module docs). Monotone in the masks,
    /// so round order cannot change the fixpoint. A statement already
    /// kept for every live output only passes its nested blocks on.
    fn pass_stmt(&self, rel: &mut Rel<'_>, proc: u32, s: &CStmt, next: &mut usize) -> Mask {
        let id = *next;
        *next += 1;
        let live = rel.live[proc as usize];
        let kept = rel.kept[id];
        let keep = match s {
            // Control-transfer statements shape which kept statements
            // run; always preserved (their containers may still drop).
            CStmt::Return | CStmt::Exit | CStmt::Cycle => live,
            // A kept `if` evaluates every guard on the path to the taken
            // arm, so all conditions join `R`; bodies prune per arm.
            CStmt::If { arms, .. } => {
                let guards = || arms.iter().filter_map(|(c, _)| *c);
                let mut keep = kept;
                for c in guards() {
                    self.expr_relevance(rel, proc, c, live, &mut keep);
                }
                for (_, b) in arms {
                    keep |= self.pass_block(rel, proc, b, next);
                }
                keep &= live;
                if keep != kept {
                    guards().for_each(|c| self.join_expr(rel, proc, c, keep));
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
                let mut keep = kept | rel.local(proc, *var);
                for e in bounds() {
                    self.expr_relevance(rel, proc, e, live, &mut keep);
                }
                keep |= self.pass_block(rel, proc, body, next);
                keep &= live;
                if keep != kept {
                    rel.add_local(proc, *var, keep);
                    bounds().for_each(|e| self.join_expr(rel, proc, e, keep));
                }
                keep
            }
            CStmt::DoWhile { cond, body, .. } => {
                let mut keep = kept;
                self.expr_relevance(rel, proc, *cond, live, &mut keep);
                keep |= self.pass_block(rel, proc, body, next);
                keep &= live;
                if keep != kept {
                    // Guard reads join R, which keeps every statement
                    // defining them — including inside this body — so
                    // the loop terminates exactly as the full program.
                    self.join_expr(rel, proc, *cond, keep);
                }
                keep
            }
            _ if kept == live => kept,
            // Straight-line statements stay for the outputs any of their
            // effects is relevant to, and then everything they touch
            // joins those outputs' `R`.
            _ => {
                let pr = &self.p.procs[proc as usize];
                let mut keep = kept;
                let _ = walk_stmt(pr, s, &mut |e| self.relevant(rel, proc, e, live, &mut keep));
                keep &= live;
                if keep != kept {
                    let _ = walk_stmt(pr, s, &mut |e| self.join(rel, proc, e, keep));
                }
                keep
            }
        };
        if keep != kept {
            rel.kept[id] = keep;
            rel.changed = true;
        }
        keep
    }

    /// Adds to `acc` the outputs evaluating `e` has an effect relevant
    /// to (stopping once `acc` covers `live`).
    fn expr_relevance(&self, rel: &Rel<'_>, proc: u32, e: EId, live: Mask, acc: &mut Mask) {
        if *acc & live != live {
            let pr = &self.p.procs[proc as usize];
            let _ = walk_expr(pr, e, &mut |ef| self.relevant(rel, proc, ef, live, acc));
        }
    }

    /// Joins every location an executed expression reads into the `R` of
    /// each output of `m` (full read-closure: kept code must never read a
    /// location outside `R`, or its value — and even its definedness —
    /// could diverge).
    fn join_expr(&self, rel: &mut Rel<'_>, proc: u32, e: EId, m: Mask) {
        let _ = walk_expr(&self.p.procs[proc as usize], e, &mut |ef| {
            self.join(rel, proc, ef, m)
        });
    }

    /// Adds to `acc` the outputs effect `e` forces its statement to stay
    /// for; `Break` once `acc` covers `live`.
    fn relevant(
        &self,
        rel: &Rel<'_>,
        proc: u32,
        e: Effect<'_>,
        live: Mask,
        acc: &mut Mask,
    ) -> Flow {
        *acc |= self.effect_mask(rel, proc, e);
        if *acc & live == live {
            Break(())
        } else {
            Continue(())
        }
    }

    /// The outputs one effect forces keeping its statement for: those
    /// whose `R` holds a location it writes; for a call, those its callee
    /// may write history of or a location in `R` of, or every output when
    /// it may raise; a draw once the PRNG stream is relevant; a
    /// physics-buffer write once the buffer is; a history write its own
    /// output's (sampling queries never read histories, so there an
    /// `outfld` stays only for its operands' effects); a deferred error
    /// every output's, so that failures still fire.
    fn effect_mask(&self, rel: &Rel<'_>, proc: u32, e: Effect<'_>) -> Mask {
        match e {
            Effect::Write { bind, .. } => rel.hits(proc, bind),
            Effect::Call(site) => {
                let s = self.fx.proc(site.proc);
                if s.may_raise {
                    return self.all;
                }
                let mut m = self.reach[site.proc as usize];
                if s.writes_pbuf {
                    m |= rel.pbuf;
                }
                if s.draws {
                    m |= rel.prng;
                }
                for g in s.global_writes.ones_in(&rel.any_global) {
                    m |= rel.globals[g];
                    if m == self.all {
                        break;
                    }
                }
                m
            }
            Effect::Outfld(out) => match &self.outputs {
                Some(r) if r.contains(&out) => 1 << (out - r.start),
                _ => 0,
            },
            // The PRNG stream is one shared location: once any draw is
            // relevant, every draw stays (sequence positions matter).
            Effect::Draw => rel.prng,
            Effect::PbufWrite => rel.pbuf,
            Effect::Error => self.all,
            Effect::Read { .. } | Effect::PbufRead => 0,
        }
    }

    /// Joins what one executed effect touches into the `R` of each output
    /// of `m` (write-closure too: partial updates read their container,
    /// and keeping every def of a written location is what makes `R`
    /// self-consistent). An executed call makes the callee live and reads
    /// its result and copy-out source slots; a draw makes the PRNG stream
    /// relevant, a `pbuf_get` the physics buffer.
    fn join(&self, rel: &mut Rel<'_>, proc: u32, e: Effect<'_>, m: Mask) -> Flow {
        match e {
            Effect::Read { bind, .. } | Effect::Write { bind, .. } => rel.add_bind(proc, bind, m),
            Effect::Call(cs) => {
                rel.mark_live(cs.proc, m);
                if let Some(r) = self.p.procs[cs.proc as usize].result_slot {
                    rel.add_local(cs.proc, r, m);
                }
                for (dummy, _) in &cs.copyout {
                    rel.add_local(cs.proc, *dummy, m);
                }
            }
            Effect::Draw => rel.add_prng(m),
            Effect::PbufRead => rel.add_pbuf(m),
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
    fn slices_of_one_program_share_their_emptied_procs() {
        let full = program();
        let specs = [spec("cloud_diagnostics", "cld")];
        let history = specialize_for_history(&full).expect("separable");
        let oracle = specialize_for_samples(&full, &specs).expect("separable");
        // A proc neither slice keeps anything of is one `Arc` in both,
        // tree IR and bytecode alike.
        let emptied = |p: &Program, i: usize| p.procs[i].body.is_empty();
        let dead: Vec<usize> = (0..full.procs.len())
            .filter(|&i| !full.procs[i].body.is_empty())
            .filter(|&i| emptied(&history.program, i) && emptied(&oracle.program, i))
            .collect();
        assert!(!dead.is_empty(), "the two slices share dead procs");
        for i in dead {
            assert!(Arc::ptr_eq(
                &history.program.procs[i],
                &oracle.program.procs[i]
            ));
            assert!(Arc::ptr_eq(
                &history.program.bc.procs[i],
                &oracle.program.bc.procs[i]
            ));
        }
        // The cached copies emit what copies built afresh emit: the oracle
        // slice of a newly compiled program builds every emptied proc.
        let fresh = specialize_for_samples(&program(), &specs).expect("separable");
        assert_eq!(fresh.program.disassemble(), oracle.program.disassemble());
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
