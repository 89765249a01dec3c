//! One walk over the effects of the compiled IR, and the per-proc
//! summary built on it.
//!
//! Every static client of a [`Program`] asks the same questions of its
//! statements: which variables they read, which places they write, which
//! procs they call, whether they record history, draw random numbers,
//! touch the physics buffer, or may raise a deferred error. [`walk_stmt`],
//! [`walk_expr`] and [`walk_template`] answer them with the one match over
//! the IR and report each fact as an [`Effect`], in evaluation order. A
//! visitor stops the walk early by returning [`ControlFlow::Break`].
//!
//! Control flow is the caller's: the walk visits an `if`'s guards and
//! arms and a loop's header and body in source order, as if each ran
//! once. Clients that model paths (dataflow CFGs, abstract
//! interpretation, the specializer's keep decisions) dispatch on `if` /
//! `do` / `do while` themselves and walk only their parts. The walk is
//! intraprocedural: a call is one [`Effect::Call`], and what the callee
//! does is in its summary.
//!
//! [`Program::effects`] folds the walk over every proc into [`Effects`]
//! once per program: callees, globals written (closed over the call
//! graph), history outputs, PRNG draws, physics-buffer writes, deferred
//! errors and the derived-field writer map.
//!
//! The walk reads one proc: expression ids and call sites index that
//! proc's own pools ([`CProc::exprs`], [`CProc::sites`]).

use crate::program::{
    CExpr, CPlace, CProc, CStmt, CallForm, CallSite, EId, LocalTemplate, Program, VarBind,
};
use std::collections::HashMap;
use std::ops::ControlFlow::{self, Continue};
use std::sync::Arc;

/// A visitor's verdict: `Break` stops the walk.
pub type Flow = ControlFlow<()>;

/// Which part of a variable an access touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part<'p> {
    /// The whole value: a scalar read, an assignment to the variable.
    Whole,
    /// One element (`a(i)`). Reading a local whose slot is unset takes
    /// the expression's call fallback instead.
    Elem,
    /// One field of a derived value (`x%f`, `x%f(i)`).
    Field(&'p Arc<str>),
}

/// One fact the walk reports.
#[derive(Debug, Clone, Copy)]
pub enum Effect<'p> {
    /// A variable read through its binding.
    Read { bind: VarBind, part: Part<'p> },
    /// A place written, after its subscripts: an assignment target, a
    /// `random_number` or `pbuf_get` destination, a `do` variable, or —
    /// with `copy_out` — a call's copy-out target.
    Write {
        bind: VarBind,
        part: Part<'p>,
        copy_out: bool,
    },
    /// A call through a resolved site of the walked proc, after its
    /// arguments and before its copy-out writes.
    Call(&'p CallSite),
    /// A history write (`outfld`) of output `out`, after its operands.
    Outfld(u32),
    /// A `random_number` draw from the PRNG stream.
    Draw,
    /// A `pbuf_get` read of the physics buffer.
    PbufRead,
    /// A `pbuf_set` write of the physics buffer.
    PbufWrite,
    /// A deferred runtime error: `ErrorExpr`/`ErrorStmt`, an invalid
    /// place, an unknown-function fallback, a failing init template.
    Error,
}

/// Walks one expression.
pub fn walk_expr<'p, F>(p: &'p CProc, e: EId, f: &mut F) -> Flow
where
    F: FnMut(Effect<'p>) -> Flow,
{
    match &p.exprs[e as usize] {
        CExpr::Real(_) | CExpr::Int(_) | CExpr::Str(_) | CExpr::Logical(_) => Continue(()),
        CExpr::Var { bind, .. } => f(Effect::Read {
            bind: *bind,
            part: Part::Whole,
        }),
        CExpr::Index {
            bind,
            sub,
            fallback,
            ..
        } => {
            // The slot is consulted first; an unset local takes the
            // fallback instead of the element read.
            f(Effect::Read {
                bind: *bind,
                part: Part::Elem,
            })?;
            walk_expr(p, *sub, f)?;
            match fallback.as_deref() {
                Some(CallForm::Function(site)) => walk_site(p, *site, f),
                Some(CallForm::Intrinsic(_, args)) => walk_exprs(p, args, f),
                Some(CallForm::Unknown) => f(Effect::Error),
                None => Continue(()),
            }
        }
        CExpr::CallFn { site } => walk_site(p, *site, f),
        CExpr::Intrinsic { args, .. } => walk_exprs(p, args, f),
        CExpr::DerivedVar {
            bind, field, sub, ..
        } => {
            f(Effect::Read {
                bind: *bind,
                part: Part::Field(field),
            })?;
            walk_opt(p, *sub, f)
        }
        CExpr::DerivedExpr { base, sub, .. } => {
            walk_expr(p, *base, f)?;
            walk_opt(p, *sub, f)
        }
        CExpr::Unary { e, .. } => walk_expr(p, *e, f),
        CExpr::Binary { l, r, .. } => {
            walk_expr(p, *l, f)?;
            walk_expr(p, *r, f)
        }
        // The unfused operand `l` is `a*b` over the same leaves (or their
        // folded literal).
        CExpr::MaybeFma { a, b, c, .. } => walk_exprs(p, &[*a, *b, *c], f),
        CExpr::ErrorExpr { .. } => f(Effect::Error),
    }
}

fn walk_exprs<'p, F>(p: &'p CProc, es: &[EId], f: &mut F) -> Flow
where
    F: FnMut(Effect<'p>) -> Flow,
{
    for &e in es {
        walk_expr(p, e, f)?;
    }
    Continue(())
}

fn walk_opt<'p, F>(p: &'p CProc, e: Option<EId>, f: &mut F) -> Flow
where
    F: FnMut(Effect<'p>) -> Flow,
{
    e.map_or(Continue(()), |e| walk_expr(p, e, f))
}

/// A call: arguments, the call, then the copy-out writes.
fn walk_site<'p, F>(p: &'p CProc, site: u32, f: &mut F) -> Flow
where
    F: FnMut(Effect<'p>) -> Flow,
{
    let cs = &p.sites[site as usize];
    walk_exprs(p, &cs.args, f)?;
    f(Effect::Call(cs))?;
    for (_, place) in &cs.copyout {
        walk_place(p, place, true, f)?;
    }
    Continue(())
}

fn walk_place<'p, F>(p: &'p CProc, place: &'p CPlace, copy_out: bool, f: &mut F) -> Flow
where
    F: FnMut(Effect<'p>) -> Flow,
{
    let (bind, part) = match place {
        CPlace::Var { bind } => (*bind, Part::Whole),
        CPlace::Elem { bind, sub, .. } => {
            walk_expr(p, *sub, f)?;
            (*bind, Part::Elem)
        }
        CPlace::Derived {
            bind, field, sub, ..
        } => {
            walk_opt(p, *sub, f)?;
            (*bind, Part::Field(field))
        }
        CPlace::Invalid { .. } => return f(Effect::Error),
    };
    f(Effect::Write {
        bind,
        part,
        copy_out,
    })
}

/// Walks one statement, nested blocks included.
pub fn walk_stmt<'p, F>(p: &'p CProc, s: &'p CStmt, f: &mut F) -> Flow
where
    F: FnMut(Effect<'p>) -> Flow,
{
    match s {
        CStmt::Assign { place, value, .. } => {
            walk_expr(p, *value, f)?;
            walk_place(p, place, false, f)
        }
        CStmt::Call { site, .. } => walk_site(p, *site, f),
        CStmt::Outfld {
            out, data, ncol, ..
        } => {
            walk_expr(p, *data, f)?;
            walk_opt(p, *ncol, f)?;
            f(Effect::Outfld(*out))
        }
        CStmt::RandomNumber { current, place, .. } => {
            walk_expr(p, *current, f)?;
            f(Effect::Draw)?;
            walk_place(p, place, false, f)
        }
        CStmt::PbufSet { idx, data, .. } => {
            walk_exprs(p, &[*idx, *data], f)?;
            f(Effect::PbufWrite)
        }
        CStmt::PbufGet {
            idx,
            current,
            place,
            ..
        } => {
            walk_exprs(p, &[*idx, *current], f)?;
            f(Effect::PbufRead)?;
            walk_place(p, place, false, f)
        }
        CStmt::If { arms, .. } => {
            for (cond, body) in arms {
                walk_opt(p, *cond, f)?;
                walk_block(p, body, f)?;
            }
            Continue(())
        }
        CStmt::Do {
            var,
            start,
            end,
            step,
            body,
            ..
        } => {
            walk_exprs(p, &[*start, *end], f)?;
            walk_opt(p, *step, f)?;
            f(Effect::Write {
                bind: VarBind::Local(*var),
                part: Part::Whole,
                copy_out: false,
            })?;
            walk_block(p, body, f)
        }
        CStmt::DoWhile { cond, body, .. } => {
            walk_expr(p, *cond, f)?;
            walk_block(p, body, f)
        }
        CStmt::ErrorStmt { .. } => f(Effect::Error),
        CStmt::Return | CStmt::Exit | CStmt::Cycle | CStmt::Nop => Continue(()),
    }
}

/// Walks a statement list.
pub fn walk_block<'p, F>(p: &'p CProc, body: &'p [CStmt], f: &mut F) -> Flow
where
    F: FnMut(Effect<'p>) -> Flow,
{
    for s in body {
        walk_stmt(p, s, f)?;
    }
    Continue(())
}

/// Walks what frame initialization evaluates for one local: extents or
/// the initializer, or the template's deferred error.
pub fn walk_template<'p, F>(p: &'p CProc, tpl: &'p LocalTemplate, f: &mut F) -> Flow
where
    F: FnMut(Effect<'p>) -> Flow,
{
    match tpl {
        LocalTemplate::Array(extents) => walk_exprs(p, extents, f),
        LocalTemplate::Int(e)
        | LocalTemplate::Logic(e)
        | LocalTemplate::Char(e)
        | LocalTemplate::RealVal(e) => walk_opt(p, *e, f),
        LocalTemplate::Error(..) => f(Effect::Error),
        LocalTemplate::Derived(_) => Continue(()),
    }
}

/// Fixed-width bitset.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// All-zero set over `n` bits.
    pub fn new(n: usize) -> BitSet {
        BitSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Sets bit `i`; reports whether it was clear.
    pub fn insert(&mut self, i: usize) -> bool {
        let (w, bit) = (i / 64, 1 << (i % 64));
        let fresh = self.words[w] & bit == 0;
        self.words[w] |= bit;
        fresh
    }

    /// Tests bit `i`.
    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// `self |= other`; reports whether `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            let next = *w | o;
            changed |= next != *w;
            *w = next;
        }
        changed
    }

    /// `self &= !other`.
    pub fn subtract(&mut self, other: &BitSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= !o;
        }
    }

    /// Indices of the bits set in both `self` and `other`, ascending.
    pub fn ones_in<'a>(&'a self, other: &'a BitSet) -> impl Iterator<Item = usize> + 'a {
        self.words
            .iter()
            .zip(&other.words)
            .enumerate()
            .flat_map(|(wi, (&a, &b))| {
                let mut w = a & b;
                std::iter::from_fn(move || {
                    (w != 0).then(|| {
                        let bit = w.trailing_zeros() as usize;
                        w &= w - 1;
                        wi * 64 + bit
                    })
                })
            })
    }

    /// Indices of set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64).filter_map(move |b| (w & (1 << b) != 0).then_some(wi * 64 + b))
        })
    }
}

/// One proc's effects. Everything but `callees` and `outputs` is closed
/// over the static call graph: it holds for the proc or any proc it may
/// transitively call.
#[derive(Debug)]
pub struct ProcEffects {
    /// Procs it calls directly, ascending.
    pub callees: Vec<u32>,
    /// History outputs its own `outfld`s write, ascending.
    pub outputs: Vec<u32>,
    /// Module globals it may write: direct places, caller-side copy-out
    /// targets and `LocalOrGlobal` fallbacks.
    pub(crate) global_writes: BitSet,
    /// Writes history.
    pub(crate) writes_history: bool,
    /// Draws from the PRNG stream.
    pub(crate) draws: bool,
    /// Writes the physics buffer.
    pub(crate) writes_pbuf: bool,
    /// May raise a deferred error.
    pub(crate) may_raise: bool,
}

/// The effect summary of a whole program ([`Program::effects`]).
#[derive(Debug)]
pub struct Effects {
    procs: Vec<ProcEffects>,
    globals_written: BitSet,
    derived_writers: HashMap<Arc<str>, Vec<u32>>,
}

impl Effects {
    /// Walks every proc once, then closes the summaries over the call
    /// graph.
    pub(crate) fn build(p: &Program) -> Effects {
        let mut scan = Scan {
            globals_written: BitSet::new(p.global_count()),
            derived_writers: HashMap::new(),
        };
        let mut procs: Vec<ProcEffects> = Vec::with_capacity(p.procs.len());
        for proc in &p.procs {
            let mut fx = ProcEffects {
                callees: Vec::new(),
                outputs: Vec::new(),
                global_writes: BitSet::new(p.global_count()),
                writes_history: false,
                draws: false,
                writes_pbuf: false,
                may_raise: false,
            };
            // Reads and local writes are most of a walk and add nothing
            // here; keeping this visitor tiny lets it inline.
            let mut visit = |e: Effect<'_>| {
                if !matches!(
                    e,
                    Effect::Read { .. }
                        | Effect::PbufRead
                        | Effect::Write {
                            bind: VarBind::Local(_),
                            ..
                        }
                ) {
                    scan.note(&mut fx, e);
                }
                Continue(())
            };
            for (_, _, tpl) in &proc.inits {
                let _ = walk_template(proc, tpl, &mut visit);
            }
            let _ = walk_block(proc, &proc.body, &mut visit);
            for ids in [&mut fx.callees, &mut fx.outputs] {
                ids.sort_unstable();
                ids.dedup();
            }
            procs.push(fx);
        }

        // Close over the call graph, callees first; recursion needs more
        // than one round.
        let order = post_order(&procs);
        loop {
            let mut changed = false;
            for &i in &order {
                let mut writes = std::mem::take(&mut procs[i].global_writes);
                let me = &procs[i];
                let mut flags = (me.writes_history, me.draws, me.writes_pbuf, me.may_raise);
                let before = flags;
                for &q in me.callees.iter().filter(|&&q| q as usize != i) {
                    let c = &procs[q as usize];
                    changed |= writes.union_with(&c.global_writes);
                    flags.0 |= c.writes_history;
                    flags.1 |= c.draws;
                    flags.2 |= c.writes_pbuf;
                    flags.3 |= c.may_raise;
                }
                changed |= flags != before;
                let me = &mut procs[i];
                me.global_writes = writes;
                (me.writes_history, me.draws, me.writes_pbuf, me.may_raise) = flags;
            }
            if !changed {
                break;
            }
        }
        Effects {
            procs,
            globals_written: scan.globals_written,
            derived_writers: scan.derived_writers,
        }
    }

    /// Per-proc effects, indexed like [`Program::ir_procs`].
    pub fn procs(&self) -> &[ProcEffects] {
        &self.procs
    }

    /// Effects of proc `i`.
    pub fn proc(&self, i: u32) -> &ProcEffects {
        &self.procs[i as usize]
    }

    /// Module globals some statement of the program may write.
    pub fn globals_written(&self) -> &BitSet {
        &self.globals_written
    }

    /// Module globals written through a `%field` place with this field
    /// name anywhere in the program.
    pub(crate) fn derived_writers(&self, field: &str) -> &[u32] {
        self.derived_writers.get(field).map_or(&[], Vec::as_slice)
    }
}

/// The program-wide half of [`Effects::build`]'s per-proc walk.
struct Scan {
    globals_written: BitSet,
    derived_writers: HashMap<Arc<str>, Vec<u32>>,
}

impl Scan {
    /// Folds one effect of the walking proc into its direct facts `fx`.
    #[inline(never)]
    fn note(&mut self, fx: &mut ProcEffects, e: Effect<'_>) {
        match e {
            Effect::Write { bind, part, .. } => {
                if let VarBind::LocalOrGlobal(_, g) | VarBind::Global(g) = bind {
                    fx.global_writes.insert(g as usize);
                    self.globals_written.insert(g as usize);
                    // The module-level capture scan can observe a field
                    // write through any derived global.
                    if let Part::Field(field) = part {
                        match self.derived_writers.get_mut(&**field) {
                            Some(slots) if !slots.contains(&g) => slots.push(g),
                            Some(_) => {}
                            None => drop(self.derived_writers.insert(Arc::clone(field), vec![g])),
                        }
                    }
                }
            }
            Effect::Call(site) => fx.callees.push(site.proc),
            Effect::Outfld(out) => {
                fx.outputs.push(out);
                fx.writes_history = true;
            }
            Effect::Draw => fx.draws = true,
            Effect::PbufWrite => fx.writes_pbuf = true,
            Effect::Error => fx.may_raise = true,
            Effect::Read { .. } | Effect::PbufRead => {}
        }
    }
}

/// Procs in depth-first post-order over direct calls: callees before
/// their callers, except along a cycle.
fn post_order(procs: &[ProcEffects]) -> Vec<usize> {
    let mut seen = vec![false; procs.len()];
    let mut order = Vec::with_capacity(procs.len());
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for root in 0..procs.len() {
        if std::mem::replace(&mut seen[root], true) {
            continue;
        }
        stack.push((root, 0));
        while let Some((v, next)) = stack.last_mut() {
            match procs[*v].callees.get(*next) {
                Some(&q) => {
                    *next += 1;
                    if !std::mem::replace(&mut seen[q as usize], true) {
                        stack.push((q as usize, 0));
                    }
                }
                None => {
                    order.push(*v);
                    stack.pop();
                }
            }
        }
    }
    order
}
