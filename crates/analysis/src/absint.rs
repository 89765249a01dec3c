//! Simple interval/sign abstract interpretation for numeric-hazard lints.
//!
//! A structured walk over each procedure body tracking per-slot value
//! intervals (`[lo, hi]`, constants as degenerate intervals). Module
//! globals that are **never written anywhere** in the program — Fortran
//! `parameter`s and effectively-constant configuration — contribute their
//! initial values, which is what gives the analysis teeth: `max(eps, x)`
//! proves a denominator positive, `2.0 * pi` folds.
//!
//! Soundness over precision, everywhere:
//! - loops invalidate every slot their body may assign before the body is
//!   walked and again after it (a one-shot widening to ⊤), so loop-carried
//!   values never look tighter than they are and the state after a loop
//!   covers zero trips and `exit`;
//! - `if` guards and arms are walked on the entry state and the arms
//!   joined by interval hull;
//! - anything untracked (arrays, derived fields, cross-procedure values)
//!   reads as ⊤.
//!
//! Hazards are reported only when *definite* on the abstract state: a
//! denominator that is exactly `[0, 0]`, a `sqrt` argument entirely
//! negative, a `log` argument bounded ≤ 0. "Might be zero" is silent by
//! design — the clean-model gate (`rca-lint --assert-clean`) depends on
//! zero false positives.

use rca_sim::effects::{walk_block, Effect};
use rca_sim::{
    CExpr, CPlace, CProc, CStmt, EId, Intrin, LocalTemplate, Op, Program, Value, VarBind,
};
use std::ops::ControlFlow::Continue;

/// A closed interval over f64 (`NEG_INFINITY..INFINITY` = ⊤).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl Interval {
    /// The unbounded interval.
    pub const TOP: Interval = Interval {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };

    /// Degenerate constant interval.
    pub fn constant(v: f64) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// Whether the interval is a single finite value.
    pub fn as_const(&self) -> Option<f64> {
        (self.lo == self.hi && self.lo.is_finite()).then_some(self.lo)
    }

    /// Smallest interval containing both.
    pub fn hull(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    fn guard(self) -> Interval {
        if self.lo.is_nan() || self.hi.is_nan() || self.lo > self.hi {
            Interval::TOP
        } else {
            Interval {
                lo: self.lo,
                hi: self.hi,
            }
        }
    }

    fn add(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo + o.lo,
            hi: self.hi + o.hi,
        }
        .guard()
    }

    fn sub(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo - o.hi,
            hi: self.hi - o.lo,
        }
        .guard()
    }

    fn mul(self, o: Interval) -> Interval {
        let c = [
            self.lo * o.lo,
            self.lo * o.hi,
            self.hi * o.lo,
            self.hi * o.hi,
        ];
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for v in c {
            if v.is_nan() {
                return Interval::TOP;
            }
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Interval { lo, hi }.guard()
    }

    fn div(self, o: Interval) -> Interval {
        // Only safe when the denominator is bounded away from zero.
        if o.lo > 0.0 || o.hi < 0.0 {
            let c = [
                self.lo / o.lo,
                self.lo / o.hi,
                self.hi / o.lo,
                self.hi / o.hi,
            ];
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for v in c {
                if v.is_nan() {
                    return Interval::TOP;
                }
                lo = lo.min(v);
                hi = hi.max(v);
            }
            Interval { lo, hi }.guard()
        } else {
            Interval::TOP
        }
    }

    fn neg(self) -> Interval {
        Interval {
            lo: -self.hi,
            hi: -self.lo,
        }
    }

    /// Monotone map over both bounds.
    fn map_monotone(self, f: impl Fn(f64) -> f64) -> Interval {
        Interval {
            lo: f(self.lo),
            hi: f(self.hi),
        }
        .guard()
    }
}

/// One definite numeric hazard found by the walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HazardKind {
    /// Division whose denominator is exactly zero on every path.
    DivByZero,
    /// `sqrt` of an argument that is negative on every path.
    SqrtNegative,
    /// `log`/`log10` of an argument bounded ≤ 0.
    LogDomain,
    /// Composite subexpression with a provably constant value the
    /// compiler's literal folding missed (informational).
    ConstFoldable,
}

/// Hazard report: kind plus source line.
#[derive(Debug, Clone, Copy)]
pub struct Hazard {
    /// What was detected.
    pub kind: HazardKind,
    /// Source line of the containing statement.
    pub line: u32,
}

/// Global slots never written by any statement in any procedure, with
/// their (scalar numeric) initial values.
pub fn const_globals(prog: &Program) -> Vec<Option<f64>> {
    let written = prog.effects().globals_written();
    (0..prog.global_count())
        .map(|g| {
            if written.contains(g) {
                return None;
            }
            match prog.global_initial(g as u32) {
                Value::Real(v) => Some(*v),
                Value::Int(v) => Some(*v as f64),
                _ => None,
            }
        })
        .collect()
}

struct Walker<'p> {
    /// The proc being walked: expression ids and sites index its pools.
    proc: &'p CProc,
    global_const: &'p [Option<f64>],
    env: Vec<Option<Interval>>,
    hazards: Vec<Hazard>,
}

impl<'p> Walker<'p> {
    fn read_bind(&self, bind: VarBind) -> Interval {
        match bind {
            VarBind::Local(s) => self.env[s as usize].unwrap_or(Interval::TOP),
            VarBind::Global(g) => {
                self.global_const[g as usize].map_or(Interval::TOP, Interval::constant)
            }
            VarBind::LocalOrGlobal(..) => Interval::TOP,
        }
    }

    /// Whether the expression is a literal (already folded at compile
    /// time — never reported as foldable).
    fn is_literal(&self, e: EId) -> bool {
        matches!(
            self.proc.exprs[e as usize],
            CExpr::Real(_) | CExpr::Int(_) | CExpr::Str(_) | CExpr::Logical(_)
        )
    }

    fn eval(&mut self, e: EId, line: u32) -> Interval {
        let proc = self.proc;
        match &proc.exprs[e as usize] {
            CExpr::Real(v) => Interval::constant(*v),
            CExpr::Int(v) => Interval::constant(*v as f64),
            CExpr::Str(_) | CExpr::Logical(_) => Interval::TOP,
            CExpr::Var { bind, .. } => self.read_bind(*bind),
            CExpr::Index { sub, .. } => {
                self.eval(*sub, line);
                Interval::TOP
            }
            CExpr::CallFn { site } => {
                for &a in &proc.sites[*site as usize].args {
                    self.eval(a, line);
                }
                Interval::TOP
            }
            CExpr::Intrinsic { which, args } => {
                let vals: Vec<Interval> = args.iter().map(|&a| self.eval(a, line)).collect();
                self.intrinsic(*which, &vals, line)
            }
            CExpr::DerivedVar { sub, .. } => {
                if let Some(s) = sub {
                    self.eval(*s, line);
                }
                Interval::TOP
            }
            CExpr::DerivedExpr { base, sub, .. } => {
                self.eval(*base, line);
                if let Some(s) = sub {
                    self.eval(*s, line);
                }
                Interval::TOP
            }
            CExpr::Unary { op, e: inner } => {
                let v = self.eval(*inner, line);
                let out = match op {
                    Op::Sub => v.neg(),
                    Op::Add => v,
                    _ => Interval::TOP,
                };
                if out.as_const().is_some() && !self.is_literal(*inner) {
                    self.hazard(HazardKind::ConstFoldable, line);
                }
                out
            }
            CExpr::Binary { op, l, r } => {
                let lv = self.eval(*l, line);
                let rv = self.eval(*r, line);
                self.binary(*op, lv, rv, *l, *r, line)
            }
            CExpr::MaybeFma { op, a, b, c, .. } => {
                // Fused or not, the value is a*b ± c over the same leaves.
                let av = self.eval(*a, line);
                let bv = self.eval(*b, line);
                let cv = self.eval(*c, line);
                let prod = av.mul(bv);
                match op {
                    Op::Add => prod.add(cv),
                    Op::Sub => prod.sub(cv),
                    _ => Interval::TOP,
                }
            }
            CExpr::ErrorExpr { .. } => Interval::TOP,
        }
    }

    fn binary(
        &mut self,
        op: Op,
        lv: Interval,
        rv: Interval,
        l: EId,
        r: EId,
        line: u32,
    ) -> Interval {
        let out = match op {
            Op::Add => lv.add(rv),
            Op::Sub => lv.sub(rv),
            Op::Mul => lv.mul(rv),
            Op::Div => {
                if rv.lo == 0.0 && rv.hi == 0.0 {
                    self.hazard(HazardKind::DivByZero, line);
                }
                lv.div(rv)
            }
            _ => Interval::TOP,
        };
        // A composite arithmetic node with a provably constant value that
        // still exists in the IR was missed by literal folding.
        if matches!(op, Op::Add | Op::Sub | Op::Mul | Op::Div)
            && out.as_const().is_some()
            && !(self.is_literal(l) && self.is_literal(r))
        {
            self.hazard(HazardKind::ConstFoldable, line);
        }
        out
    }

    fn intrinsic(&mut self, which: Intrin, vals: &[Interval], line: u32) -> Interval {
        let a = vals.first().copied().unwrap_or(Interval::TOP);
        match which {
            Intrin::Sqrt => {
                if a.hi < 0.0 {
                    self.hazard(HazardKind::SqrtNegative, line);
                }
                Interval {
                    lo: a.lo.max(0.0).sqrt(),
                    hi: a.hi.max(0.0).sqrt(),
                }
                .guard()
            }
            Intrin::Log | Intrin::Log10 => {
                if a.hi <= 0.0 {
                    self.hazard(HazardKind::LogDomain, line);
                }
                if a.lo > 0.0 {
                    a.map_monotone(|v| {
                        if which == Intrin::Log {
                            v.ln()
                        } else {
                            v.log10()
                        }
                    })
                } else {
                    Interval::TOP
                }
            }
            Intrin::Exp => a.map_monotone(f64::exp),
            Intrin::Abs => {
                let hi = a.lo.abs().max(a.hi.abs());
                let lo = if a.lo <= 0.0 && a.hi >= 0.0 {
                    0.0
                } else {
                    a.lo.abs().min(a.hi.abs())
                };
                Interval { lo, hi }.guard()
            }
            Intrin::Min => vals
                .iter()
                .copied()
                .reduce(|x, y| Interval {
                    lo: x.lo.min(y.lo),
                    hi: x.hi.min(y.hi),
                })
                .unwrap_or(Interval::TOP),
            Intrin::Max => vals
                .iter()
                .copied()
                .reduce(|x, y| Interval {
                    lo: x.lo.max(y.lo),
                    hi: x.hi.max(y.hi),
                })
                .unwrap_or(Interval::TOP),
            Intrin::Tanh | Intrin::Sin | Intrin::Cos => Interval { lo: -1.0, hi: 1.0 },
            Intrin::Atan => Interval {
                lo: -std::f64::consts::FRAC_PI_2,
                hi: std::f64::consts::FRAC_PI_2,
            },
            Intrin::Real => a,
            Intrin::Floor => a.map_monotone(f64::floor),
            Intrin::Nint => a.map_monotone(f64::round),
            Intrin::Int => a.map_monotone(f64::trunc),
            Intrin::Epsilon => Interval::constant(f64::EPSILON),
            Intrin::Tiny => Interval::constant(f64::MIN_POSITIVE),
            Intrin::Huge => Interval::constant(f64::MAX),
            Intrin::Size => Interval {
                lo: 0.0,
                hi: f64::INFINITY,
            },
            Intrin::Sign => {
                let m = a.lo.abs().max(a.hi.abs());
                Interval { lo: -m, hi: m }.guard()
            }
            Intrin::Mod | Intrin::Sum | Intrin::Maxval | Intrin::Minval => Interval::TOP,
        }
    }

    fn hazard(&mut self, kind: HazardKind, line: u32) {
        // One report per (kind, line) keeps nested-expression walks from
        // flooding.
        if !self
            .hazards
            .iter()
            .any(|h| h.kind == kind && h.line == line)
        {
            self.hazards.push(Hazard { kind, line });
        }
    }

    fn assign_place(&mut self, place: &CPlace, val: Interval, line: u32) {
        match place {
            CPlace::Var {
                bind: VarBind::Local(s),
            } => self.env[*s as usize] = Some(val),
            CPlace::Var { .. } => {}
            CPlace::Elem { bind, sub, .. } => {
                self.eval(*sub, line);
                self.invalidate_bind(*bind);
            }
            CPlace::Derived { bind, sub, .. } => {
                if let Some(s) = sub {
                    self.eval(*s, line);
                }
                self.invalidate_bind(*bind);
            }
            CPlace::Invalid { .. } => {}
        }
    }

    fn invalidate_bind(&mut self, bind: VarBind) {
        if let VarBind::Local(s) | VarBind::LocalOrGlobal(s, _) = bind {
            self.env[s as usize] = Some(Interval::TOP);
        }
    }

    fn invalidate_place(&mut self, place: &CPlace) {
        match place {
            CPlace::Var { bind } | CPlace::Elem { bind, .. } | CPlace::Derived { bind, .. } => {
                self.invalidate_bind(*bind);
            }
            CPlace::Invalid { .. } => {}
        }
    }

    /// Widens every frame slot a loop body may assign to ⊤: its own
    /// writes, copy-outs of the calls it makes, nested `do` variables.
    fn widen_assigned(&mut self, body: &[CStmt]) {
        let env = &mut self.env;
        let _ = walk_block(self.proc, body, &mut |e| {
            if let Effect::Write {
                bind: VarBind::Local(s) | VarBind::LocalOrGlobal(s, _),
                ..
            } = e
            {
                env[s as usize] = Some(Interval::TOP);
            }
            Continue(())
        });
    }

    fn walk(&mut self, stmts: &[CStmt]) {
        for s in stmts {
            match s {
                CStmt::Assign { place, value, line } => {
                    let v = self.eval(*value, *line);
                    self.assign_place(place, v, *line);
                }
                CStmt::Call { site, line } => {
                    let site = &self.proc.sites[*site as usize];
                    for &a in &site.args {
                        self.eval(a, *line);
                    }
                    for (_, place) in &site.copyout {
                        self.invalidate_place(place);
                    }
                }
                CStmt::Outfld {
                    data, ncol, line, ..
                } => {
                    self.eval(*data, *line);
                    if let Some(n) = ncol {
                        self.eval(*n, *line);
                    }
                }
                CStmt::RandomNumber {
                    current: _,
                    place,
                    line,
                } => {
                    // Uniform deviate: [0, 1).
                    self.assign_place(place, Interval { lo: 0.0, hi: 1.0 }, *line);
                }
                CStmt::PbufSet { idx, data, line } => {
                    self.eval(*idx, *line);
                    self.eval(*data, *line);
                }
                CStmt::PbufGet {
                    idx,
                    current: _,
                    place,
                    line,
                } => {
                    self.eval(*idx, *line);
                    self.assign_place(place, Interval::TOP, *line);
                    self.invalidate_place(place);
                }
                CStmt::If { arms, line } => {
                    let entry = self.env.clone();
                    let mut merged: Option<Vec<Option<Interval>>> = None;
                    let mut has_else = false;
                    for (cond, block) in arms {
                        // Every guard runs on the entry state: a later
                        // guard is reached only when the earlier ones are
                        // false, never after an arm's body.
                        self.env = entry.clone();
                        if let Some(c) = cond {
                            self.eval(*c, *line);
                        } else {
                            has_else = true;
                        }
                        self.walk(block);
                        merged = Some(match merged {
                            None => self.env.clone(),
                            Some(m) => join_env(&m, &self.env),
                        });
                    }
                    let mut m = merged.unwrap_or_else(|| entry.clone());
                    if !has_else {
                        m = join_env(&m, &entry);
                    }
                    self.env = m;
                }
                CStmt::Do {
                    var,
                    start,
                    end,
                    step,
                    body,
                    line,
                } => {
                    let sv = self.eval(*start, *line);
                    let ev = self.eval(*end, *line);
                    if let Some(st) = step {
                        self.eval(*st, *line);
                    }
                    self.widen_assigned(body);
                    self.env[*var as usize] = Some(sv.hull(&ev));
                    self.walk(body);
                    // After the loop: zero trips, an `exit`, or the last
                    // iteration — anything the body assigns is ⊤ again.
                    self.widen_assigned(body);
                    self.env[*var as usize] = Some(Interval::TOP);
                }
                CStmt::DoWhile { cond, body, line } => {
                    self.widen_assigned(body);
                    self.eval(*cond, *line);
                    self.walk(body);
                    self.widen_assigned(body);
                }
                CStmt::Return | CStmt::Exit | CStmt::Cycle | CStmt::Nop => {}
                CStmt::ErrorStmt { .. } => {}
            }
        }
    }
}

/// Joins two environments by interval hull (`None` = unset stays unset
/// only when both sides agree).
fn join_env(a: &[Option<Interval>], b: &[Option<Interval>]) -> Vec<Option<Interval>> {
    a.iter()
        .zip(b)
        .map(|(x, y)| match (x, y) {
            (Some(x), Some(y)) => Some(x.hull(y)),
            (Some(x), None) | (None, Some(x)) => Some(*x),
            (None, None) => None,
        })
        .collect()
}

/// Runs the hazard walk over one procedure; returns definite hazards in
/// source order.
pub fn proc_hazards(prog: &Program, proc_index: u32, global_const: &[Option<f64>]) -> Vec<Hazard> {
    let proc = &prog.ir_procs()[proc_index as usize];
    let mut w = Walker {
        proc,
        global_const,
        env: vec![None; proc.n_locals],
        hazards: Vec::new(),
    };
    // Declaration templates seed the environment (implicit zero for
    // scalars without initializers, exactly as frame init does).
    for (slot, decl_line, tmpl) in &proc.inits {
        let v = match tmpl {
            LocalTemplate::Int(None) | LocalTemplate::RealVal(None) => {
                Some(Interval::constant(0.0))
            }
            LocalTemplate::Int(Some(e)) | LocalTemplate::RealVal(Some(e)) => {
                Some(w.eval(*e, *decl_line))
            }
            _ => Some(Interval::TOP),
        };
        w.env[*slot as usize] = v;
    }
    w.walk(&proc.body);
    w.hazards.sort_by_key(|h| (h.line, h.kind as u32));
    w.hazards
}
