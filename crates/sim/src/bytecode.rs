//! Bytecode tier: the [`Program`] statement/expression trees flattened
//! into linear instruction arrays over a register frame.
//!
//! [`lower_procs`] runs once per lowered proc (from
//! [`crate::compile_sources`] and the specializer) and emits one
//! [`BProc`] per subprogram: a flat `Vec<Instr>` executed by the
//! register VM in [`crate::exec`] with an explicit instruction pointer —
//! `if`/`do`/`do while` become jumps, calls push an explicit frame stack
//! instead of recursing on the host stack, and every operand is a `u32`
//! register index into a flat `Vec<Value>` frame. A [`BProc`] is a function of its [`CProc`] alone:
//! it owns its constant and name pools, so programs share bytecode by
//! `Arc` wherever they share the proc.
//!
//! **Bit-identity is load-bearing.** The VM must be indistinguishable
//! from the tree-walking reference interpreter: the emitter reproduces
//! the tree-walker's evaluation order, coercion points, error messages, and error *timing*
//! exactly — e.g. numeric intrinsic arguments get one [`Instr::ToNum`]
//! after each argument's code so a coercion failure still interleaves
//! between argument evaluations, `do` bounds coerce via [`Instr::ToInt`]
//! in header order, and copy-out skips its subscript evaluation when the
//! callee never set the dummy (mirroring `exec_call`). Register
//! allocation is a simple watermark: temporaries are single-use, released
//! statement by statement, so frames stay small and pooled.
//!
//! Emitted code is final: no pass rewrites it afterwards. Constant `if`
//! arms are folded during emission, which is exact because literal
//! conditions are pure. [`disassemble`] renders the code as the
//! debugging surface; a golden snapshot test pins the encoding of a
//! hand-written mini-model.

use crate::program::{
    CExpr, CPlace, CProc, CStmt, CallForm, EId, Intrin, LocalTemplate, Program, VarBind,
};
use crate::value::Value;
use rca_fortran::token::Op;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Sentinel for "no register" operands (`ncol`-less `outfld`,
/// initializer-less locals, subroutine calls without a result).
pub(crate) const NO_REG: u32 = u32::MAX;

/// Jump-target placeholder during emission; every one is patched before
/// the proc is sealed (checked by `FnEmitter::seal`).
const PATCH: u32 = u32::MAX;

/// Fused operand of the hot consumers ([`Instr::Binary`],
/// [`Instr::FmaTry`], [`Instr::IndexLoad`], [`Instr::StoreElem`]): a
/// register, a local frame slot, or a constant-pool index, tagged in the
/// top two bits so the operand stays one `u32` wide.
///
/// The emitter defers *simple* operands — scalar constants and plain
/// local reads — into the consumer instead of materializing them through
/// `LoadConst`/`LoadLocal` temporaries, which removes roughly a third of
/// the dynamic instruction stream (operand loads dominate the opcode
/// histogram). Deferral is only legal when it cannot be observed:
/// constants are immutable and infallible, so they defer
/// unconditionally; a local may defer only when every operand evaluated
/// *after* it is itself simple, so no user code runs between the
/// operand's original read point and the consumer (a call in a later
/// operand could write the local through copy-out). Unset fused locals
/// still raise `undefined variable` inside the consumer, in original
/// operand order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Src(u32);

/// Decoded [`Src`] operand.
pub(crate) enum SrcKind {
    Reg(u32),
    Local(u32),
    Const(u32),
}

impl Src {
    const TAG: u32 = 3 << 30;
    const LOCAL: u32 = 1 << 30;
    const CONST: u32 = 2 << 30;

    pub(crate) fn reg(r: u32) -> Src {
        debug_assert_eq!(r & Self::TAG, 0, "register index overflows the tag");
        Src(r)
    }

    fn local(slot: u32) -> Src {
        debug_assert_eq!(slot & Self::TAG, 0);
        Src(Self::LOCAL | slot)
    }

    fn cst(k: u32) -> Src {
        debug_assert_eq!(k & Self::TAG, 0);
        Src(Self::CONST | k)
    }

    #[inline(always)]
    pub(crate) fn kind(self) -> SrcKind {
        match self.0 & Self::TAG {
            0 => SrcKind::Reg(self.0),
            Self::LOCAL => SrcKind::Local(self.0 & !Self::TAG),
            _ => SrcKind::Const(self.0 & !Self::TAG),
        }
    }
}

/// One VM instruction. All fields are plain copies (`u32` registers,
/// slots, and side-table indices) so dispatch copies the instruction out
/// of the code array and never borrows it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Instr {
    /// Per-statement budget check (check-then-decrement statement fuel).
    Fuel,
    /// `regs[dst] <- consts[k]` (allocation-reusing clone; `k` indexes
    /// the running proc's [`BProc::consts`], as every name, message and
    /// field index does its [`BProc::names`]).
    LoadConst {
        dst: u32,
        k: u32,
    },
    /// Read a plain local; errors "undefined variable" when unset.
    LoadLocal {
        dst: u32,
        slot: u32,
        name: u32,
    },
    /// Read a local that shadows a global (global when unset).
    LoadLocalOr {
        dst: u32,
        slot: u32,
        global: u32,
    },
    /// Read a module global.
    LoadGlobal {
        dst: u32,
        global: u32,
    },
    /// Coerce a numeric intrinsic argument to `Real` in place.
    ToNum {
        reg: u32,
    },
    /// Coerce to `Int` (`eval_int`: integer, or real truncated).
    ToInt {
        reg: u32,
    },
    /// Coerce an array extent to `Int` (integers only, no truncation).
    ToExtent {
        reg: u32,
    },
    Unary {
        op: Op,
        dst: u32,
        src: u32,
    },
    Binary {
        op: Op,
        dst: u32,
        l: Src,
        r: Src,
    },
    /// Fused multiply-add (`mul_add`) when all three operands are numeric;
    /// jumps to `plain` (the re-evaluating unfused path) otherwise.
    FmaTry {
        op: Op,
        dst: u32,
        a: Src,
        b: Src,
        c: Src,
        plain: u32,
    },
    /// Intrinsic over a contiguous argument window
    /// `regs[argv .. argv + n_args]`.
    Intrinsic {
        which: Intrin,
        n_args: u32,
        dst: u32,
        argv: u32,
    },
    /// `regs[dst] <- element` of a bound array; `sub` holds the raw
    /// subscript value (coerced + bounds-checked here, `eval_index`).
    IndexLoad {
        dst: u32,
        bind: VarBind,
        sub: Src,
        name: u32,
    },
    /// Structural checks of `base%field(sub)` before the subscript runs
    /// (the tree-walker's first pass: unset local, derived base, field
    /// exists) — no value is produced.
    FieldCheck {
        bind: VarBind,
        name: u32,
        field: u32,
        err: u32,
    },
    /// `regs[dst] <- clone(base%field)` with the same checks.
    LoadField {
        dst: u32,
        bind: VarBind,
        name: u32,
        field: u32,
        err: u32,
    },
    /// Indexed field read after [`Instr::FieldCheck`]: coerces `sub`,
    /// re-acquires the base (the subscript may have run user code) and
    /// indexes the field array in place.
    LoadFieldElem {
        dst: u32,
        bind: VarBind,
        sub: u32,
        name: u32,
        field: u32,
        err: u32,
    },
    /// `regs[dst] <- clone(regs[src] % field)` for computed bases.
    FieldOfValue {
        dst: u32,
        src: u32,
        field: u32,
        err: u32,
    },
    /// `regs[dst] <- regs[src][regs[sub]]` (field value indexing).
    IndexValue {
        dst: u32,
        src: u32,
        sub: u32,
        field: u32,
    },
    Jump {
        to: u32,
    },
    /// Conditional branch; `is_while` selects the do-while error text.
    BranchIfFalse {
        cond: u32,
        to: u32,
        is_while: bool,
    },
    /// Taken when the local slot is set (array-vs-call disambiguation).
    BranchLocalSet {
        slot: u32,
        to: u32,
    },
    /// Taken when FMA is disabled for `module` under this run's policy.
    BranchFmaOff {
        module: u32,
        to: u32,
    },
    /// Taken when the just-returned callee never set `dummy` — skips the
    /// copy-out (including its subscript evaluation, like `exec_call`).
    BranchDummyUnset {
        dummy: u32,
        to: u32,
    },
    /// `do` header test: zero-step check, loop-exit test, then writes
    /// `Int(i)` into the loop-variable slot and falls through.
    DoCheck {
        i: u32,
        e: u32,
        st: u32,
        var: u32,
        exit: u32,
    },
    /// `i += st`, unconditional jump back to the matching [`Instr::DoCheck`].
    DoIncr {
        i: u32,
        st: u32,
        back: u32,
    },
    /// `do while` runaway guard (increments, errors past 10M iterations).
    WhileGuard {
        g: u32,
    },
    /// Call through a resolved site; actuals are in
    /// `regs[argv .. argv + site.args.len()]`. `dst == NO_REG` for
    /// subroutines; `keep` parks the finished frame for copy-out.
    Call {
        site: u32,
        dst: u32,
        argv: u32,
        keep: bool,
    },
    /// `regs[dst] <- clone(parked frame's dummy slot)` during copy-out.
    LoadDummy {
        dst: u32,
        dummy: u32,
    },
    /// Recycle the parked copy-out frame.
    EndCall,
    /// Return: local sampling, pop the frame stack (or finish the entry).
    Ret,
    /// Initialize a derived-type local from its prototype constant.
    InitDerived {
        slot: u32,
        k: u32,
    },
    /// Initialize an array local; extents are `Int` registers in
    /// `regs[argv .. argv + n_ext]`.
    InitArray {
        slot: u32,
        argv: u32,
        n_ext: u32,
    },
    /// Scalar local initializers (`src == NO_REG` = default value).
    InitInt {
        slot: u32,
        src: u32,
    },
    InitLogic {
        slot: u32,
        src: u32,
    },
    InitChar {
        slot: u32,
        src: u32,
    },
    InitReal {
        slot: u32,
        src: u32,
    },
    /// Default the function result slot to `Real(0.0)` when unset.
    InitResult {
        slot: u32,
    },
    /// Assignment through a variable binding (`write_place` Var).
    StoreVar {
        bind: VarBind,
        val: u32,
    },
    /// Array element store; `sub` coerces here, before base resolution
    /// (the fused `val` reads first — `write_place` evaluation order).
    StoreElem {
        bind: VarBind,
        sub: Src,
        val: Src,
        name: u32,
    },
    /// Derived-field store (`sub == NO_REG` for whole-field assignment).
    StoreField {
        bind: VarBind,
        sub: u32,
        val: u32,
        name: u32,
        field: u32,
    },
    /// `call outfld`: mean + fault adjustment + history row write.
    Outfld {
        out: u32,
        data: u32,
        ncol: u32,
    },
    /// `call random_number`: refill the evaluated current value in place.
    RngFill {
        reg: u32,
    },
    /// `pbuf_set_field(idx, data)`.
    PbufStore {
        idx: u32,
        data: u32,
    },
    /// Snapshot the pbuf entry (before `current` runs user code).
    PbufLoad {
        dst: u32,
        idx: u32,
    },
    /// Merge the snapshot into the evaluated current value (in `cur`).
    PbufMerge {
        cur: u32,
        data: u32,
    },
    /// Deferred runtime error (lazy compile diagnostics).
    Fail {
        msg: u32,
    },
    /// Column step-kernel attempt (`k` indexes [`BProc::kernels`]). The
    /// matching [`Instr::DoCheck`] is always the *next* instruction: the
    /// VM validates the kernel's preconditions against the coerced bound
    /// registers and either executes the whole counted loop
    /// column-at-a-time (jumping to the `DoCheck`'s exit) or falls
    /// through to the generic bytecode loop untouched.
    Kernel {
        k: u32,
    },
}

/// One lowered subprogram, self-contained like its [`CProc`].
#[derive(Debug, Clone, Default)]
pub(crate) struct BProc {
    pub(crate) code: Vec<Instr>,
    /// Source line per instruction (error context; cold path only).
    pub(crate) lines: Vec<u32>,
    /// Register frame size.
    pub(crate) n_regs: u32,
    /// Local slot count (mirrors `CProc::n_locals`).
    pub(crate) n_slots: u32,
    /// Column step-kernels referenced by [`Instr::Kernel`].
    pub(crate) kernels: Vec<Kernel>,
    /// Literal pool (scalars deduplicated, derived prototypes appended).
    pub(crate) consts: Box<[Value]>,
    /// Interned names and pre-rendered error messages.
    pub(crate) names: Box<[Arc<str>]>,
}

// ----- column step-kernels ------------------------------------------------

/// A counted loop whose body is pure elementwise array arithmetic,
/// compiled to column programs at lowering time.
///
/// Detection is static (see `FnEmitter::try_kernel`): every body
/// statement is `arr(v) = expr` where `v` is exactly the loop variable
/// and `expr` uses only real literals, loop-invariant scalar reads,
/// array/derived-field reads subscripted by `v`, the infallible
/// real-path operators (`+ - * / **`, unary `±`), the FMA contraction
/// blend, and whitelisted pure `f64` intrinsics. Because every element
/// access is at exactly the loop index, iteration `k` can touch only
/// column `k` — there is no cross-iteration dataflow, so executing each
/// statement over a whole column of indices is bit-identical to the
/// interleaved per-index order (statement order is preserved within each
/// column chunk).
///
/// Everything *dynamic* the static shape cannot prove — bounds are
/// `Int`, step is 1, arrays are live `RealArray`s covering `[lo, hi]`,
/// scalars are `Real`, the fuel budget covers every iteration — is
/// validated by the VM before a single write; any failure falls through
/// to the generic bytecode loop, which reproduces the exact error (or
/// non-error) semantics. After validation the kernel is infallible: the
/// real-path operators and the whitelisted intrinsics cannot error on
/// `f64` inputs (see `ops::binary_op_ref` and `ops::intrinsic_op`).
#[derive(Debug, Clone)]
pub(crate) struct Kernel {
    /// Arrays touched, deduplicated by binding + field. Store targets
    /// are plain arrays; loads may also be derived-field arrays.
    pub(crate) arrays: Box<[KArr]>,
    /// Loop-invariant scalar reads (no body statement writes a scalar,
    /// so one pre-read per kernel execution is exact).
    pub(crate) scalars: Box<[KScalar]>,
    /// Body statements in source order; each writes one full column.
    pub(crate) stmts: Box<[KStmt]>,
    /// Maximum RPN stack depth across all statements and both modes.
    pub(crate) max_depth: u32,
    /// Module id for the run's FMA policy lookup.
    pub(crate) module: u32,
}

/// One kernel array reference: a binding plus an optional derived-type
/// field (a name-table index) for `base%field(v)` reads.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KArr {
    pub(crate) bind: VarBind,
    pub(crate) field: Option<u32>,
}

/// One loop-invariant scalar read, mirroring [`VarBind`] resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KScalar {
    Local(u32),
    LocalOr(u32, u32),
    Global(u32),
}

/// One kernel statement: `arrays[dst](v) = rpn(v)` with the RPN compiled
/// twice — `on` uses the FMA contraction (`mul_add`) for `MaybeFma` nodes,
/// `off` compiles their plain operand trees literally (the two forms are
/// *not* algebraically interchangeable bit-for-bit).
#[derive(Debug, Clone)]
pub(crate) struct KStmt {
    pub(crate) dst: u32,
    pub(crate) on: Box<[KOp]>,
    pub(crate) off: Box<[KOp]>,
}

/// Column RPN op. Every stack cell is one column of `f64` lanes; the
/// arithmetic must mirror the scalar real-path of `ops` bit for bit.
#[derive(Debug, Clone, Copy)]
pub(crate) enum KOp {
    /// Push the current column of `arrays[i]`.
    Arr(u32),
    /// Push a broadcast of pre-validated scalar `scalars[i]`.
    Scalar(u32),
    /// Push a broadcast literal.
    Const(f64),
    Add,
    Sub,
    Mul,
    Div,
    /// `x.powf(y)` (the `(Real, Real)` arm of `binary_op_ref`).
    Pow,
    Neg,
    /// `a.mul_add(b, ±c)` — the `FmaTry` contraction.
    Fma {
        sub: bool,
    },
    /// One-argument pure `f64` map intrinsic (sqrt/exp/log/…/abs).
    Map(Intrin),
    /// Two-argument `min`/`max` via the interpreter's seeded fold
    /// (`fold(±inf, f64::min/max)` — NaN handling is part of the bits).
    Min2,
    Max2,
    /// `sign(a, b) = |a| * signum(b)`.
    Sign2,
}

/// The lowered program: one `Arc`-shared [`BProc`] per proc.
#[derive(Debug, Clone, Default)]
pub(crate) struct Bytecode {
    pub(crate) procs: Vec<Arc<BProc>>,
}

impl Bytecode {
    /// Total instruction count (bench/telemetry surface).
    pub(crate) fn instr_count(&self) -> usize {
        self.procs.iter().map(|p| p.code.len()).sum()
    }

    /// Total compiled column step-kernels (bench/telemetry surface).
    pub(crate) fn kernel_count(&self) -> usize {
        self.procs.iter().map(|p| p.kernels.len()).sum()
    }
}

// ----- side tables --------------------------------------------------------

/// Scalar constant identity (f64 by bit pattern so `-0.0`/NaN dedup
/// exactly).
#[derive(Hash, PartialEq, Eq)]
enum ConstKey {
    Real(u64),
    Int(i64),
    Str(Arc<str>),
    Logical(bool),
}

#[derive(Default)]
struct Tables {
    consts: Vec<Value>,
    const_ix: HashMap<ConstKey, u32>,
    names: Vec<Arc<str>>,
    name_ix: HashMap<Arc<str>, u32>,
}

impl Tables {
    fn scalar(&mut self, key: ConstKey, v: Value) -> u32 {
        if let Some(&i) = self.const_ix.get(&key) {
            return i;
        }
        let i = self.consts.len() as u32;
        self.consts.push(v);
        self.const_ix.insert(key, i);
        i
    }

    /// Non-deduplicated constant (derived-type prototypes).
    fn proto(&mut self, v: Value) -> u32 {
        let i = self.consts.len() as u32;
        self.consts.push(v);
        i
    }

    fn name(&mut self, s: &Arc<str>) -> u32 {
        if let Some(&i) = self.name_ix.get(s) {
            return i;
        }
        let i = self.names.len() as u32;
        self.names.push(Arc::clone(s));
        self.name_ix.insert(Arc::clone(s), i);
        i
    }

    fn msg(&mut self, s: String) -> u32 {
        self.name(&Arc::from(s.as_str()))
    }
}

// ----- emission -----------------------------------------------------------

/// A deferrable operand shape (see [`Src`]), decided before any code or
/// constant-pool entry is emitted.
#[derive(Clone, Copy)]
enum Simple {
    Const,
    Local(u32),
}

/// Open-loop context: forward patches for `exit`, and either a known
/// `cycle` target (do-while head) or patches for one (do increment).
struct LoopCx {
    exits: Vec<usize>,
    cycles: Vec<usize>,
    cycle_to: Option<u32>,
}

/// In-flight kernel lowering state: the shared array/scalar tables and
/// the RPN stack-depth watermark (see [`Kernel`]).
#[derive(Default)]
struct KBuild {
    arrays: Vec<KArr>,
    scalars: Vec<KScalar>,
    depth: u32,
    max_depth: u32,
}

impl KBuild {
    /// Accounts one pushed column; rejects pathological depth.
    fn push(&mut self) -> Option<()> {
        self.depth += 1;
        self.max_depth = self.max_depth.max(self.depth);
        (self.depth <= 16).then_some(())
    }
}

/// Dedup key for [`VarBind`] (which carries no `Eq` of its own).
fn bind_key(b: VarBind) -> (u8, u32, u32) {
    match b {
        VarBind::Local(s) => (0, s, 0),
        VarBind::LocalOrGlobal(s, g) => (1, s, g),
        VarBind::Global(g) => (2, 0, g),
    }
}

/// Accepts `e` only when it reads exactly the loop variable's slot (the
/// slot is always live inside the body — `DoCheck` wrote it — so a
/// shadowing `LocalOrGlobal` binding reads the local too).
fn kernel_loop_var(pr: &CProc, e: EId, var: u32) -> Option<()> {
    match &pr.exprs[e as usize] {
        CExpr::Var {
            bind: VarBind::Local(s) | VarBind::LocalOrGlobal(s, _),
            ..
        } if *s == var => Some(()),
        _ => None,
    }
}

/// The kernelizable binary operators: the infallible `(Real, Real)` arm
/// of `ops::binary_op_ref` (comparisons produce logicals — rejected).
fn kop_bin(op: Op) -> Option<KOp> {
    Some(match op {
        Op::Add => KOp::Add,
        Op::Sub => KOp::Sub,
        Op::Mul => KOp::Mul,
        Op::Div => KOp::Div,
        Op::Pow => KOp::Pow,
        _ => return None,
    })
}

struct FnEmitter<'a> {
    pr: &'a CProc,
    t: Tables,
    module_id: u32,
    code: Vec<Instr>,
    lines: Vec<u32>,
    line: u32,
    next_reg: u32,
    n_regs: u32,
    loops: Vec<LoopCx>,
    kernels: Vec<Kernel>,
}

impl<'a> FnEmitter<'a> {
    fn emit(&mut self, i: Instr) -> usize {
        self.code.push(i);
        self.lines.push(self.line);
        self.code.len() - 1
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    /// Allocates the next watermark register.
    fn rtemp(&mut self) -> u32 {
        let r = self.next_reg;
        self.next_reg += 1;
        self.n_regs = self.n_regs.max(self.next_reg);
        r
    }

    fn mark(&self) -> u32 {
        self.next_reg
    }

    fn release(&mut self, m: u32) {
        self.next_reg = m;
    }

    /// Patches the jump field of the instruction at `idx` to `target`.
    fn patch(&mut self, idx: usize, target: u32) {
        match &mut self.code[idx] {
            Instr::Jump { to }
            | Instr::BranchIfFalse { to, .. }
            | Instr::BranchLocalSet { to, .. }
            | Instr::BranchFmaOff { to, .. }
            | Instr::BranchDummyUnset { to, .. } => *to = target,
            Instr::DoCheck { exit, .. } => *exit = target,
            Instr::FmaTry { plain, .. } => *plain = target,
            other => unreachable!("patching non-jump instruction {other:?}"),
        }
    }

    // -- expressions -------------------------------------------------------

    /// Interns a literal expression into the constant pool, if `e` is one.
    fn literal(&mut self, e: EId) -> Option<u32> {
        let pr = self.pr;
        let k = match &pr.exprs[e as usize] {
            CExpr::Real(v) => self.t.scalar(ConstKey::Real(v.to_bits()), Value::Real(*v)),
            CExpr::Int(v) => self.t.scalar(ConstKey::Int(*v), Value::Int(*v)),
            CExpr::Str(s) => self
                .t
                .scalar(ConstKey::Str(Arc::clone(s)), Value::Str(s.to_string())),
            CExpr::Logical(b) => self.t.scalar(ConstKey::Logical(*b), Value::Logical(*b)),
            _ => return None,
        };
        Some(k)
    }

    /// Classifies `e` as a deferrable operand without emitting anything
    /// (and without speculatively interning constants).
    fn classify(&self, e: EId) -> Option<Simple> {
        match &self.pr.exprs[e as usize] {
            CExpr::Real(_) | CExpr::Int(_) | CExpr::Str(_) | CExpr::Logical(_) => {
                Some(Simple::Const)
            }
            CExpr::Var {
                bind: VarBind::Local(slot),
                ..
            } => Some(Simple::Local(*slot)),
            _ => None,
        }
    }

    /// Emits an operand group left-to-right with operand fusion (see
    /// [`Src`]): constants defer unconditionally, plain locals defer
    /// when every *later* operand is itself simple, and everything else
    /// evaluates into a fresh temporary at its original position.
    fn emit_operands<const N: usize>(&mut self, es: [EId; N]) -> [Src; N] {
        let simple = es.map(|e| self.classify(e));
        // tail[i]: every operand after `i` is simple (emits no code).
        let mut tail = [true; N];
        for i in (0..N.saturating_sub(1)).rev() {
            tail[i] = tail[i + 1] && simple[i + 1].is_some();
        }
        let mut out = [Src::reg(0); N];
        for i in 0..N {
            out[i] = match simple[i] {
                Some(Simple::Const) => Src::cst(self.literal(es[i]).expect("classified literal")),
                Some(Simple::Local(slot)) if tail[i] => Src::local(slot),
                _ => {
                    let r = self.rtemp();
                    self.emit_expr(es[i], r);
                    Src::reg(r)
                }
            };
        }
        out
    }

    /// Emits code leaving the value of `e` in `dst`. Internal temporaries
    /// are released before returning (the watermark is unchanged).
    fn emit_expr(&mut self, e: EId, dst: u32) {
        let pr = self.pr;
        match &pr.exprs[e as usize] {
            CExpr::Real(_) | CExpr::Int(_) | CExpr::Str(_) | CExpr::Logical(_) => {
                let k = self.literal(e).expect("literal arm");
                self.emit(Instr::LoadConst { dst, k });
            }
            CExpr::Var { bind, name } => match *bind {
                VarBind::Local(slot) => {
                    let name = self.t.name(name);
                    self.emit(Instr::LoadLocal { dst, slot, name });
                }
                VarBind::LocalOrGlobal(slot, global) => {
                    self.emit(Instr::LoadLocalOr { dst, slot, global });
                }
                VarBind::Global(global) => {
                    self.emit(Instr::LoadGlobal { dst, global });
                }
            },
            CExpr::Index {
                bind,
                name,
                sub,
                fallback,
            } => {
                if let VarBind::Local(slot) = *bind {
                    // Unset local: take the call interpretation instead.
                    let b = self.emit(Instr::BranchLocalSet { slot, to: PATCH });
                    match fallback.as_deref() {
                        Some(CallForm::Intrinsic(which, args)) => {
                            self.emit_intrinsic(*which, args, dst);
                        }
                        Some(CallForm::Function(site)) => self.emit_call(*site, dst),
                        Some(CallForm::Unknown) | None => {
                            let msg = self.t.msg(format!("unknown function or array '{name}'"));
                            self.emit(Instr::Fail { msg });
                        }
                    }
                    let j = self.emit(Instr::Jump { to: PATCH });
                    let here = self.here();
                    self.patch(b, here);
                    self.emit_index_load(*bind, name, *sub, dst);
                    let end = self.here();
                    self.patch(j, end);
                } else {
                    self.emit_index_load(*bind, name, *sub, dst);
                }
            }
            CExpr::CallFn { site } => self.emit_call(*site, dst),
            CExpr::Intrinsic { which, args } => self.emit_intrinsic(*which, args, dst),
            CExpr::DerivedVar {
                bind,
                name,
                field,
                sub,
                err,
            } => {
                let name = self.t.name(name);
                let field = self.t.name(field);
                let err = self.t.name(err);
                match sub {
                    None => {
                        self.emit(Instr::LoadField {
                            dst,
                            bind: *bind,
                            name,
                            field,
                            err,
                        });
                    }
                    Some(s) => {
                        self.emit(Instr::FieldCheck {
                            bind: *bind,
                            name,
                            field,
                            err,
                        });
                        let m = self.mark();
                        let sub = self.rtemp();
                        self.emit_expr(*s, sub);
                        self.emit(Instr::LoadFieldElem {
                            dst,
                            bind: *bind,
                            sub,
                            name,
                            field,
                            err,
                        });
                        self.release(m);
                    }
                }
            }
            CExpr::DerivedExpr {
                base,
                field,
                sub,
                err,
            } => {
                let field = self.t.name(field);
                let err = self.t.name(err);
                let m = self.mark();
                let rb = self.rtemp();
                self.emit_expr(*base, rb);
                self.emit(Instr::FieldOfValue {
                    dst,
                    src: rb,
                    field,
                    err,
                });
                if let Some(s) = sub {
                    let rs = self.rtemp();
                    self.emit_expr(*s, rs);
                    self.emit(Instr::IndexValue {
                        dst,
                        src: dst,
                        sub: rs,
                        field,
                    });
                }
                self.release(m);
            }
            CExpr::Unary { op, e } => {
                let m = self.mark();
                let src = self.rtemp();
                self.emit_expr(*e, src);
                self.emit(Instr::Unary { op: *op, dst, src });
                self.release(m);
            }
            CExpr::Binary { op, l, r } => {
                let m = self.mark();
                let [ls, rs] = self.emit_operands([*l, *r]);
                self.emit(Instr::Binary {
                    op: *op,
                    dst,
                    l: ls,
                    r: rs,
                });
                self.release(m);
            }
            CExpr::MaybeFma { op, a, b, c, l } => {
                let br = self.emit(Instr::BranchFmaOff {
                    module: self.module_id,
                    to: PATCH,
                });
                let m = self.mark();
                let [ra, rb, rc] = self.emit_operands([*a, *b, *c]);
                let ft = self.emit(Instr::FmaTry {
                    op: *op,
                    dst,
                    a: ra,
                    b: rb,
                    c: rc,
                    plain: PATCH,
                });
                self.release(m);
                let j = self.emit(Instr::Jump { to: PATCH });
                // Unfused path: re-evaluate the plain operands, exactly
                // like the tree-walker's non-numeric fallback.
                let plain = self.here();
                self.patch(br, plain);
                self.patch(ft, plain);
                let m = self.mark();
                let [ls, rs] = self.emit_operands([*l, *c]);
                self.emit(Instr::Binary {
                    op: *op,
                    dst,
                    l: ls,
                    r: rs,
                });
                self.release(m);
                let end = self.here();
                self.patch(j, end);
            }
            CExpr::ErrorExpr { msg } => {
                let msg = self.t.name(msg);
                self.emit(Instr::Fail { msg });
            }
        }
    }

    fn emit_index_load(&mut self, bind: VarBind, name: &Arc<str>, sub: EId, dst: u32) {
        let m = self.mark();
        let [rs] = self.emit_operands([sub]);
        let name = self.t.name(name);
        self.emit(Instr::IndexLoad {
            dst,
            bind,
            sub: rs,
            name,
        });
        self.release(m);
    }

    /// Arguments evaluated by intrinsic `which` when given `n` actuals —
    /// the tree-walker's selectivity (part of the semantics: skipped
    /// arguments never run, never error).
    fn evaluated_args(which: Intrin, n: usize) -> usize {
        match which {
            Intrin::Epsilon | Intrin::Tiny | Intrin::Huge => 0,
            Intrin::Abs
            | Intrin::Sum
            | Intrin::Maxval
            | Intrin::Minval
            | Intrin::Size
            | Intrin::Real
            | Intrin::Int => n.min(1),
            Intrin::Mod => n.min(2),
            _ => n,
        }
    }

    /// Intrinsics whose arguments coerce through `eval_real_args` — each
    /// argument gets a [`Instr::ToNum`] so the coercion error interleaves
    /// between argument evaluations exactly like the tree-walker.
    fn coerces_args(which: Intrin) -> bool {
        matches!(
            which,
            Intrin::Min
                | Intrin::Max
                | Intrin::Sqrt
                | Intrin::Exp
                | Intrin::Log
                | Intrin::Log10
                | Intrin::Tanh
                | Intrin::Sin
                | Intrin::Cos
                | Intrin::Atan
                | Intrin::Sign
                | Intrin::Floor
                | Intrin::Nint
        )
    }

    fn emit_intrinsic(&mut self, which: Intrin, args: &[EId], dst: u32) {
        let n = Self::evaluated_args(which, args.len());
        let coerce = Self::coerces_args(which);
        let m = self.mark();
        let argv = self.next_reg;
        for _ in 0..n {
            self.rtemp();
        }
        for (i, &a) in args.iter().take(n).enumerate() {
            let reg = argv + i as u32;
            self.emit_expr(a, reg);
            if coerce {
                self.emit(Instr::ToNum { reg });
            }
        }
        self.emit(Instr::Intrinsic {
            which,
            n_args: n as u32,
            dst,
            argv,
        });
        self.release(m);
    }

    /// Emits a call through `site`; `dst == NO_REG` is the subroutine
    /// form (with copy-out), otherwise the function form.
    fn emit_call(&mut self, site: u32, dst: u32) {
        let pr = self.pr;
        let s = &pr.sites[site as usize];
        let n = s.args.len() as u32;
        let m = self.mark();
        let argv = self.next_reg;
        for _ in 0..n {
            self.rtemp();
        }
        for (i, &a) in s.args.iter().enumerate() {
            self.emit_expr(a, argv + i as u32);
        }
        let keep = dst == NO_REG && !s.copyout.is_empty();
        self.emit(Instr::Call {
            site,
            dst,
            argv,
            keep,
        });
        self.release(m);
        if keep {
            for (dummy, place) in &s.copyout {
                // `exec_call` skips the whole write-back (including the
                // place's subscript evaluation) for unset dummies.
                let b = self.emit(Instr::BranchDummyUnset {
                    dummy: *dummy,
                    to: PATCH,
                });
                let m = self.mark();
                let rv = self.rtemp();
                self.emit(Instr::LoadDummy {
                    dst: rv,
                    dummy: *dummy,
                });
                self.emit_store(place, rv);
                self.release(m);
                let here = self.here();
                self.patch(b, here);
            }
            self.emit(Instr::EndCall);
        }
    }

    // -- statements --------------------------------------------------------

    /// Emits the store of register `val` through `place` (subscripts are
    /// evaluated here, after the value — `write_place` order).
    fn emit_store(&mut self, place: &CPlace, val: u32) {
        match place {
            CPlace::Var { bind } => {
                self.emit(Instr::StoreVar { bind: *bind, val });
            }
            CPlace::Elem { bind, name, sub } => {
                let m = self.mark();
                let [rs] = self.emit_operands([*sub]);
                let name = self.t.name(name);
                self.emit(Instr::StoreElem {
                    bind: *bind,
                    sub: rs,
                    val: Src::reg(val),
                    name,
                });
                self.release(m);
            }
            CPlace::Derived {
                bind,
                name,
                field,
                sub,
            } => {
                let name = self.t.name(name);
                let field = self.t.name(field);
                let m = self.mark();
                let rs = match sub {
                    Some(s) => {
                        let r = self.rtemp();
                        self.emit_expr(*s, r);
                        r
                    }
                    None => NO_REG,
                };
                self.emit(Instr::StoreField {
                    bind: *bind,
                    sub: rs,
                    val,
                    name,
                    field,
                });
                self.release(m);
            }
            CPlace::Invalid { msg } => {
                let msg = self.t.name(msg);
                self.emit(Instr::Fail { msg });
            }
        }
    }

    fn emit_block(&mut self, stmts: &[CStmt]) {
        for s in stmts {
            self.emit_stmt(s);
        }
    }

    fn emit_stmt(&mut self, stmt: &CStmt) {
        if let Some(line) = stmt_line(stmt) {
            self.line = line;
        }
        self.emit(Instr::Fuel);
        match stmt {
            CStmt::Assign { place, value, .. } => {
                let m = self.mark();
                if let CPlace::Elem { bind, name, sub } = place {
                    // The value evaluates before the subscript
                    // (`write_place` order); fuse it when deferral is
                    // unobservable — constants always, locals only when
                    // the subscript is itself simple.
                    let vs = match self.classify(*value) {
                        Some(Simple::Const) => {
                            Src::cst(self.literal(*value).expect("classified literal"))
                        }
                        Some(Simple::Local(slot)) if self.classify(*sub).is_some() => {
                            Src::local(slot)
                        }
                        _ => {
                            let rv = self.rtemp();
                            self.emit_expr(*value, rv);
                            Src::reg(rv)
                        }
                    };
                    let [ss] = self.emit_operands([*sub]);
                    let name = self.t.name(name);
                    self.emit(Instr::StoreElem {
                        bind: *bind,
                        sub: ss,
                        val: vs,
                        name,
                    });
                } else {
                    let rv = self.rtemp();
                    self.emit_expr(*value, rv);
                    self.emit_store(place, rv);
                }
                self.release(m);
            }
            CStmt::Call { site, .. } => self.emit_call(*site, NO_REG),
            CStmt::Outfld {
                out, data, ncol, ..
            } => {
                let m = self.mark();
                let rd = self.rtemp();
                self.emit_expr(*data, rd);
                let rn = match ncol {
                    Some(e) => {
                        let r = self.rtemp();
                        self.emit_expr(*e, r);
                        self.emit(Instr::ToInt { reg: r });
                        r
                    }
                    None => NO_REG,
                };
                self.emit(Instr::Outfld {
                    out: *out,
                    data: rd,
                    ncol: rn,
                });
                self.release(m);
            }
            CStmt::RandomNumber { current, place, .. } => {
                let m = self.mark();
                let rv = self.rtemp();
                self.emit_expr(*current, rv);
                self.emit(Instr::RngFill { reg: rv });
                self.emit_store(place, rv);
                self.release(m);
            }
            CStmt::PbufSet { idx, data, .. } => {
                let m = self.mark();
                let ri = self.rtemp();
                self.emit_expr(*idx, ri);
                self.emit(Instr::ToInt { reg: ri });
                let rd = self.rtemp();
                self.emit_expr(*data, rd);
                self.emit(Instr::PbufStore { idx: ri, data: rd });
                self.release(m);
            }
            CStmt::PbufGet {
                idx,
                current,
                place,
                ..
            } => {
                let m = self.mark();
                let ri = self.rtemp();
                self.emit_expr(*idx, ri);
                self.emit(Instr::ToInt { reg: ri });
                let rd = self.rtemp();
                self.emit(Instr::PbufLoad { dst: rd, idx: ri });
                let rc = self.rtemp();
                self.emit_expr(*current, rc);
                self.emit(Instr::PbufMerge { cur: rc, data: rd });
                self.emit_store(place, rc);
                self.release(m);
            }
            CStmt::If { arms, .. } => self.emit_if(arms),
            CStmt::Do {
                var,
                start,
                end,
                step,
                body,
                ..
            } => self.emit_do(*var, *start, *end, *step, body),
            CStmt::DoWhile { cond, body, .. } => self.emit_do_while(*cond, body),
            CStmt::Return => {
                self.emit(Instr::Ret);
            }
            CStmt::Exit => match self.loops.last_mut() {
                Some(_) => {
                    let j = self.emit(Instr::Jump { to: PATCH });
                    self.loops.last_mut().expect("checked").exits.push(j);
                }
                // No enclosing loop: the flow escapes the subprogram
                // body (`invoke` discards it) — a return.
                None => {
                    self.emit(Instr::Ret);
                }
            },
            CStmt::Cycle => match self.loops.last() {
                Some(cx) => match cx.cycle_to {
                    Some(t) => {
                        self.emit(Instr::Jump { to: t });
                    }
                    None => {
                        let j = self.emit(Instr::Jump { to: PATCH });
                        self.loops.last_mut().expect("checked").cycles.push(j);
                    }
                },
                None => {
                    self.emit(Instr::Ret);
                }
            },
            CStmt::Nop => {}
            CStmt::ErrorStmt { msg, .. } => {
                let msg = self.t.name(msg);
                self.emit(Instr::Fail { msg });
            }
        }
    }

    fn emit_if(&mut self, arms: &[(Option<EId>, Box<[CStmt]>)]) {
        // Every arm's condition reports errors at the `if` statement's
        // line (the tree-walker passes the statement line to each arm),
        // so restore it after each block's statements advance the cursor.
        let line0 = self.line;
        let mut end_patches = Vec::new();
        for (ai, (cond, block)) in arms.iter().enumerate() {
            self.line = line0;
            match cond {
                // Literal condition: fold the branch at emission time.
                // Exact — evaluating a literal is pure, so skipping a
                // false arm (or the arms after a true one, which the
                // tree-walker never evaluates) is unobservable.
                Some(c) => {
                    if let CExpr::Logical(b) = self.pr.exprs[*c as usize] {
                        if b {
                            self.emit_block(block);
                            break;
                        }
                        continue;
                    }
                    let m = self.mark();
                    let rc = self.rtemp();
                    self.emit_expr(*c, rc);
                    self.release(m);
                    let br = self.emit(Instr::BranchIfFalse {
                        cond: rc,
                        to: PATCH,
                        is_while: false,
                    });
                    self.emit_block(block);
                    if ai + 1 < arms.len() {
                        end_patches.push(self.emit(Instr::Jump { to: PATCH }));
                    }
                    let next = self.here();
                    self.patch(br, next);
                }
                None => {
                    self.emit_block(block);
                    break;
                }
            }
        }
        let end = self.here();
        for j in end_patches {
            self.patch(j, end);
        }
    }

    fn emit_do(&mut self, var: u32, start: EId, end: EId, step: Option<EId>, body: &[CStmt]) {
        // The loop head re-executes after the body; its errors ("zero
        // do-step") belong to the `do` statement's line, not the last
        // body line.
        let line0 = self.line;
        let m = self.mark();
        let ri = self.rtemp();
        self.emit_expr(start, ri);
        self.emit(Instr::ToInt { reg: ri });
        let re = self.rtemp();
        self.emit_expr(end, re);
        self.emit(Instr::ToInt { reg: re });
        let rs = self.rtemp();
        match step {
            Some(x) => {
                self.emit_expr(x, rs);
                self.emit(Instr::ToInt { reg: rs });
            }
            None => {
                let k = self.t.scalar(ConstKey::Int(1), Value::Int(1));
                self.emit(Instr::LoadConst { dst: rs, k });
            }
        }
        // Pure elementwise body: emit a column step-kernel attempt. On
        // success the VM runs the whole loop and jumps past it; the
        // generic loop below stays intact as the runtime fallback. The
        // back-edge targets the `DoCheck`, so the attempt runs at most
        // once per loop entry.
        if let Some(k) = self.try_kernel(var, body) {
            self.emit(Instr::Kernel { k });
        }
        let head = self.here();
        let dc = self.emit(Instr::DoCheck {
            i: ri,
            e: re,
            st: rs,
            var,
            exit: PATCH,
        });
        self.loops.push(LoopCx {
            exits: Vec::new(),
            cycles: Vec::new(),
            cycle_to: None,
        });
        self.emit_block(body);
        let cx = self.loops.pop().expect("loop context pushed above");
        self.line = line0;
        let incr = self.here();
        self.emit(Instr::DoIncr {
            i: ri,
            st: rs,
            back: head,
        });
        let after = self.here();
        self.patch(dc, after);
        for x in cx.exits {
            self.patch(x, after);
        }
        for c in cx.cycles {
            self.patch(c, incr);
        }
        self.release(m);
    }

    fn emit_do_while(&mut self, cond: EId, body: &[CStmt]) {
        let line0 = self.line;
        let m = self.mark();
        let rg = self.rtemp();
        let k = self.t.scalar(ConstKey::Int(0), Value::Int(0));
        self.emit(Instr::LoadConst { dst: rg, k });
        let rc = self.rtemp();
        let head = self.here();
        self.emit_expr(cond, rc);
        let br = self.emit(Instr::BranchIfFalse {
            cond: rc,
            to: PATCH,
            is_while: true,
        });
        self.emit(Instr::WhileGuard { g: rg });
        self.loops.push(LoopCx {
            exits: Vec::new(),
            cycles: Vec::new(),
            cycle_to: Some(head),
        });
        self.emit_block(body);
        let cx = self.loops.pop().expect("loop context pushed above");
        self.line = line0;
        self.emit(Instr::Jump { to: head });
        let after = self.here();
        self.patch(br, after);
        for x in cx.exits {
            self.patch(x, after);
        }
        debug_assert!(cx.cycles.is_empty(), "do-while cycles jump directly");
        self.release(m);
    }

    // -- column step-kernels ----------------------------------------------

    /// Attempts to compile `body` into a column step-kernel (see
    /// [`Kernel`] for the legality argument). Returns the kernel-table
    /// index, or `None` when any statement falls outside the provably
    /// elementwise shape.
    fn try_kernel(&mut self, var: u32, body: &[CStmt]) -> Option<u32> {
        if body.is_empty() || body.len() > 64 {
            return None;
        }
        let mut kb = KBuild::default();
        let mut stmts = Vec::with_capacity(body.len());
        for s in body {
            let CStmt::Assign {
                place: CPlace::Elem { bind, sub, .. },
                value,
                ..
            } = s
            else {
                return None;
            };
            kernel_loop_var(self.pr, *sub, var)?;
            let dst = self.karr(*bind, None, &mut kb)?;
            let mut on = Vec::new();
            kb.depth = 0;
            self.kexpr(*value, var, true, &mut kb, &mut on)?;
            let mut off = Vec::new();
            kb.depth = 0;
            self.kexpr(*value, var, false, &mut kb, &mut off)?;
            stmts.push(KStmt {
                dst,
                on: on.into_boxed_slice(),
                off: off.into_boxed_slice(),
            });
        }
        let k = self.kernels.len() as u32;
        self.kernels.push(Kernel {
            arrays: kb.arrays.into_boxed_slice(),
            scalars: kb.scalars.into_boxed_slice(),
            stmts: stmts.into_boxed_slice(),
            max_depth: kb.max_depth,
            module: self.module_id,
        });
        Some(k)
    }

    /// Registers (or dedups) one kernel array reference.
    fn karr(&mut self, bind: VarBind, field: Option<&Arc<str>>, kb: &mut KBuild) -> Option<u32> {
        let fidx = field.map(|f| self.t.name(f));
        let key = (bind_key(bind), fidx);
        if let Some(i) = kb
            .arrays
            .iter()
            .position(|a| (bind_key(a.bind), a.field) == key)
        {
            return Some(i as u32);
        }
        if kb.arrays.len() >= 32 {
            return None;
        }
        kb.arrays.push(KArr { bind, field: fidx });
        Some((kb.arrays.len() - 1) as u32)
    }

    /// Registers (or dedups) one loop-invariant scalar read. The loop
    /// variable itself is rejected: it is integer-typed and changes per
    /// iteration, both outside the column model.
    fn kscalar(&mut self, bind: VarBind, var: u32, kb: &mut KBuild) -> Option<u32> {
        let ks = match bind {
            VarBind::Local(s) | VarBind::LocalOrGlobal(s, _) if s == var => return None,
            VarBind::Local(s) => KScalar::Local(s),
            VarBind::LocalOrGlobal(s, g) => KScalar::LocalOr(s, g),
            VarBind::Global(g) => KScalar::Global(g),
        };
        if let Some(i) = kb.scalars.iter().position(|x| *x == ks) {
            return Some(i as u32);
        }
        if kb.scalars.len() >= 32 {
            return None;
        }
        kb.scalars.push(ks);
        Some((kb.scalars.len() - 1) as u32)
    }

    /// Compiles one expression tree into column RPN, or rejects. `on`
    /// selects the FMA-contracted or plain form of `MaybeFma` nodes (the
    /// caller compiles both; the VM picks by the run's module policy).
    fn kexpr(
        &mut self,
        e: EId,
        var: u32,
        on: bool,
        kb: &mut KBuild,
        out: &mut Vec<KOp>,
    ) -> Option<()> {
        if out.len() > 256 {
            return None;
        }
        let pr = self.pr;
        match &pr.exprs[e as usize] {
            CExpr::Real(v) => {
                out.push(KOp::Const(*v));
                kb.push()?;
            }
            CExpr::Var { bind, .. } => {
                let s = self.kscalar(*bind, var, kb)?;
                out.push(KOp::Scalar(s));
                kb.push()?;
            }
            CExpr::Index { bind, sub, .. } => {
                kernel_loop_var(pr, *sub, var)?;
                let a = self.karr(*bind, None, kb)?;
                out.push(KOp::Arr(a));
                kb.push()?;
            }
            CExpr::DerivedVar {
                bind,
                field,
                sub: Some(sb),
                ..
            } => {
                kernel_loop_var(pr, *sb, var)?;
                let field = Arc::clone(field);
                let a = self.karr(*bind, Some(&field), kb)?;
                out.push(KOp::Arr(a));
                kb.push()?;
            }
            CExpr::Unary { op: Op::Sub, e } => {
                self.kexpr(*e, var, on, kb, out)?;
                out.push(KOp::Neg);
            }
            CExpr::Binary { op, l, r } => {
                let k = kop_bin(*op)?;
                self.kexpr(*l, var, on, kb, out)?;
                self.kexpr(*r, var, on, kb, out)?;
                out.push(k);
                kb.depth -= 1;
            }
            CExpr::MaybeFma { op, a, b, c, l } => {
                if on {
                    if !matches!(op, Op::Add | Op::Sub) {
                        return None;
                    }
                    self.kexpr(*a, var, on, kb, out)?;
                    self.kexpr(*b, var, on, kb, out)?;
                    self.kexpr(*c, var, on, kb, out)?;
                    out.push(KOp::Fma {
                        sub: *op == Op::Sub,
                    });
                    kb.depth -= 2;
                } else {
                    // The plain operand trees, literally — not `a op b`
                    // reassociated (NaN payloads and -0.0 would differ).
                    let k = kop_bin(*op)?;
                    self.kexpr(*l, var, on, kb, out)?;
                    self.kexpr(*c, var, on, kb, out)?;
                    out.push(k);
                    kb.depth -= 1;
                }
            }
            CExpr::Intrinsic { which, args } => match (*which, args.len()) {
                (
                    Intrin::Sqrt
                    | Intrin::Exp
                    | Intrin::Log
                    | Intrin::Log10
                    | Intrin::Abs
                    | Intrin::Tanh
                    | Intrin::Sin
                    | Intrin::Cos
                    | Intrin::Atan,
                    1,
                ) => {
                    let w = *which;
                    let a0 = args[0];
                    self.kexpr(a0, var, on, kb, out)?;
                    out.push(KOp::Map(w));
                }
                (Intrin::Min | Intrin::Max | Intrin::Sign, 2) => {
                    let k = match which {
                        Intrin::Min => KOp::Min2,
                        Intrin::Max => KOp::Max2,
                        _ => KOp::Sign2,
                    };
                    let (a0, a1) = (args[0], args[1]);
                    self.kexpr(a0, var, on, kb, out)?;
                    self.kexpr(a1, var, on, kb, out)?;
                    out.push(k);
                    kb.depth -= 1;
                }
                _ => return None,
            },
            _ => return None,
        }
        Some(())
    }

    /// Checks every jump was patched and packs the proc.
    fn seal(mut self, n_slots: u32) -> BProc {
        // Programs (and their history slices) live as long as the
        // session that caches them: drop the emission slack.
        self.code.shrink_to_fit();
        self.lines.shrink_to_fit();
        debug_assert!(
            self.code.iter().all(|i| jump_target(i) != Some(PATCH)),
            "unpatched jump survived emission"
        );
        BProc {
            code: self.code,
            lines: self.lines,
            n_regs: self.n_regs,
            n_slots,
            kernels: self.kernels,
            consts: self.t.consts.into_boxed_slice(),
            names: self.t.names.into_boxed_slice(),
        }
    }
}

fn stmt_line(s: &CStmt) -> Option<u32> {
    match s {
        CStmt::Assign { line, .. }
        | CStmt::Call { line, .. }
        | CStmt::Outfld { line, .. }
        | CStmt::RandomNumber { line, .. }
        | CStmt::PbufSet { line, .. }
        | CStmt::PbufGet { line, .. }
        | CStmt::If { line, .. }
        | CStmt::Do { line, .. }
        | CStmt::DoWhile { line, .. }
        | CStmt::ErrorStmt { line, .. } => Some(*line),
        CStmt::Return | CStmt::Exit | CStmt::Cycle | CStmt::Nop => None,
    }
}

fn lower_proc(pr: &CProc) -> BProc {
    let mut e = FnEmitter {
        pr,
        t: Tables::default(),
        module_id: pr.module_id,
        code: Vec::new(),
        lines: Vec::new(),
        line: 0,
        next_reg: 0,
        n_regs: 0,
        loops: Vec::new(),
        kernels: Vec::new(),
    };
    // Frame prologue: ordered local initializers, then the result
    // default — exactly `invoke`'s sequence.
    for (slot, line, tmpl) in &pr.inits {
        e.line = *line;
        match tmpl {
            LocalTemplate::Derived(proto) => {
                let k = e.t.proto(proto.clone());
                e.emit(Instr::InitDerived { slot: *slot, k });
            }
            LocalTemplate::Error(msg, eline) => {
                e.line = *eline;
                let msg = e.t.name(msg);
                e.emit(Instr::Fail { msg });
            }
            LocalTemplate::Array(extents) => {
                let m = e.mark();
                let argv = e.next_reg;
                for _ in extents {
                    e.rtemp();
                }
                for (i, &x) in extents.iter().enumerate() {
                    let reg = argv + i as u32;
                    e.emit_expr(x, reg);
                    e.emit(Instr::ToExtent { reg });
                }
                e.emit(Instr::InitArray {
                    slot: *slot,
                    argv,
                    n_ext: extents.len() as u32,
                });
                e.release(m);
            }
            LocalTemplate::Int(init) => emit_scalar_init(&mut e, *slot, *init, |slot, src| {
                Instr::InitInt { slot, src }
            }),
            LocalTemplate::Logic(init) => emit_scalar_init(&mut e, *slot, *init, |slot, src| {
                Instr::InitLogic { slot, src }
            }),
            LocalTemplate::Char(init) => emit_scalar_init(&mut e, *slot, *init, |slot, src| {
                Instr::InitChar { slot, src }
            }),
            LocalTemplate::RealVal(init) => emit_scalar_init(&mut e, *slot, *init, |slot, src| {
                Instr::InitReal { slot, src }
            }),
        }
    }
    if let Some(r) = pr.result_slot {
        e.emit(Instr::InitResult { slot: r });
    }
    e.emit_block(&pr.body);
    e.emit(Instr::Ret);
    e.seal(pr.n_locals as u32)
}

fn emit_scalar_init(
    e: &mut FnEmitter<'_>,
    slot: u32,
    init: Option<EId>,
    make: impl Fn(u32, u32) -> Instr,
) {
    match init {
        Some(x) => {
            let m = e.mark();
            let r = e.rtemp();
            e.emit_expr(x, r);
            e.emit(make(slot, r));
            e.release(m);
        }
        None => {
            e.emit(make(slot, NO_REG));
        }
    }
}

/// Lowers each proc into bytecode, in order (called from
/// [`crate::compile_sources`] for the procs it lowered, and by the
/// specializer for the procs it pruned).
pub(crate) fn lower_procs<'p>(procs: impl IntoIterator<Item = &'p CProc>) -> Vec<Arc<BProc>> {
    let _span = rca_obs::span("compile.bytecode");
    let lowered: Vec<BProc> = procs.into_iter().map(lower_proc).collect();
    // Wrapped back to back, so the procs the VM switches between on
    // every call and return sit together in memory.
    lowered.into_iter().map(Arc::new).collect()
}

/// The jump-target field of a control-flow instruction, if any.
fn jump_target(i: &Instr) -> Option<u32> {
    match i {
        Instr::Jump { to }
        | Instr::BranchIfFalse { to, .. }
        | Instr::BranchLocalSet { to, .. }
        | Instr::BranchFmaOff { to, .. }
        | Instr::BranchDummyUnset { to, .. }
        | Instr::FmaTry { plain: to, .. }
        | Instr::DoCheck { exit: to, .. }
        | Instr::DoIncr { back: to, .. } => Some(*to),
        _ => None,
    }
}

// ----- disassembler -------------------------------------------------------

/// Renders the whole program's bytecode — the debugging surface, pinned
/// by the golden snapshot test.
pub(crate) fn disassemble(p: &Program) -> String {
    let mut out = String::new();
    for (pi, (bp, pr)) in p.bc.procs.iter().zip(p.procs.iter()).enumerate() {
        let _ = writeln!(
            out,
            "proc {pi}: {}::{} (args {}, slots {}, regs {})",
            pr.module,
            pr.name,
            pr.arg_slots.len(),
            bp.n_slots,
            bp.n_regs
        );
        let mut last_line = u32::MAX;
        for (i, instr) in bp.code.iter().enumerate() {
            let line = bp.lines[i];
            let text = render(instr, p, pr, bp);
            if line != last_line {
                let _ = writeln!(out, "{i:4}  {text:<44}; line {line}");
                last_line = line;
            } else {
                let _ = writeln!(out, "{i:4}  {text}");
            }
        }
    }
    out
}

fn rname(bp: &BProc, n: u32) -> String {
    bp.names
        .get(n as usize)
        .map_or_else(|| format!("?{n}"), std::string::ToString::to_string)
}

fn rbind(b: VarBind) -> String {
    match b {
        VarBind::Local(s) => format!("local[{s}]"),
        VarBind::LocalOrGlobal(s, g) => format!("local[{s}]|global[{g}]"),
        VarBind::Global(g) => format!("global[{g}]"),
    }
}

fn rreg(r: u32) -> String {
    if r == NO_REG {
        "_".to_string()
    } else {
        format!("r{r}")
    }
}

fn rsrc(s: Src, bp: &BProc, pr: &CProc) -> String {
    match s.kind() {
        SrcKind::Reg(r) => format!("r{r}"),
        SrcKind::Local(sl) => {
            let name = pr
                .local_names
                .get(sl as usize)
                .map_or_else(|| format!("?{sl}"), std::string::ToString::to_string);
            format!("local[{sl}] '{name}'")
        }
        SrcKind::Const(k) => {
            let v = bp
                .consts
                .get(k as usize)
                .map_or_else(|| format!("?{k}"), std::string::ToString::to_string);
            format!("const {v}")
        }
    }
}

fn render(i: &Instr, p: &Program, pr: &CProc, bp: &BProc) -> String {
    match *i {
        Instr::Fuel => "fuel".to_string(),
        Instr::Kernel { k } => match bp.kernels.get(k as usize) {
            Some(kn) => {
                let arrs: Vec<String> = kn
                    .arrays
                    .iter()
                    .map(|a| {
                        let mut s = rbind(a.bind);
                        if let Some(f) = a.field {
                            let _ = write!(s, "%{}", rname(bp, f));
                        }
                        s
                    })
                    .collect();
                format!(
                    "kernel {k} ({} stmts) cols [{}]",
                    kn.stmts.len(),
                    arrs.join(", ")
                )
            }
            None => format!("kernel {k} ?"),
        },
        Instr::LoadConst { dst, k } => {
            let v = bp
                .consts
                .get(k as usize)
                .map_or_else(|| format!("?{k}"), std::string::ToString::to_string);
            format!("r{dst} <- const {v}")
        }
        Instr::LoadLocal { dst, slot, name } => {
            format!("r{dst} <- local[{slot}] '{}'", rname(bp, name))
        }
        Instr::LoadLocalOr { dst, slot, global } => {
            format!("r{dst} <- local[{slot}]|global[{global}]")
        }
        Instr::LoadGlobal { dst, global } => format!("r{dst} <- global[{global}]"),
        Instr::ToNum { reg } => format!("tonum r{reg}"),
        Instr::ToInt { reg } => format!("toint r{reg}"),
        Instr::ToExtent { reg } => format!("toextent r{reg}"),
        Instr::Unary { op, dst, src } => format!("r{dst} <- {op} r{src}"),
        Instr::Binary { op, dst, l, r } => {
            format!("r{dst} <- {} {op} {}", rsrc(l, bp, pr), rsrc(r, bp, pr))
        }
        Instr::FmaTry {
            op,
            dst,
            a,
            b,
            c,
            plain,
        } => format!(
            "r{dst} <- fma {}*{} {op} {} else -> {plain}",
            rsrc(a, bp, pr),
            rsrc(b, bp, pr),
            rsrc(c, bp, pr)
        ),
        Instr::Intrinsic {
            which,
            n_args,
            dst,
            argv,
        } => format!(
            "r{dst} <- {}(r{argv}..r{})",
            which.name(),
            argv + n_args.max(1) - 1
        ),
        Instr::IndexLoad {
            dst,
            bind,
            sub,
            name,
        } => format!(
            "r{dst} <- {}[{}] '{}'",
            rbind(bind),
            rsrc(sub, bp, pr),
            rname(bp, name)
        ),
        Instr::FieldCheck {
            bind, name, field, ..
        } => format!(
            "fieldcheck {} '{}' %{}",
            rbind(bind),
            rname(bp, name),
            rname(bp, field)
        ),
        Instr::LoadField {
            dst,
            bind,
            name,
            field,
            ..
        } => format!(
            "r{dst} <- {} '{}' %{}",
            rbind(bind),
            rname(bp, name),
            rname(bp, field)
        ),
        Instr::LoadFieldElem {
            dst,
            bind,
            sub,
            name,
            field,
            ..
        } => format!(
            "r{dst} <- {} '{}' %{}[r{sub}]",
            rbind(bind),
            rname(bp, name),
            rname(bp, field)
        ),
        Instr::FieldOfValue {
            dst, src, field, ..
        } => format!("r{dst} <- r{src} %{}", rname(bp, field)),
        Instr::IndexValue { dst, src, sub, .. } => format!("r{dst} <- r{src}[r{sub}]"),
        Instr::Jump { to } => format!("jump -> {to}"),
        Instr::BranchIfFalse { cond, to, is_while } => {
            let kind = if is_while { "while" } else { "if" };
            format!("br.false({kind}) r{cond} -> {to}")
        }
        Instr::BranchLocalSet { slot, to } => format!("br.set local[{slot}] -> {to}"),
        Instr::BranchFmaOff { module, to } => format!("br.fmaoff m{module} -> {to}"),
        Instr::BranchDummyUnset { dummy, to } => format!("br.unset dummy[{dummy}] -> {to}"),
        Instr::DoCheck {
            i,
            e,
            st,
            var,
            exit,
        } => {
            format!("docheck r{i}..r{e} step r{st} var local[{var}] exit -> {exit}")
        }
        Instr::DoIncr { i, st, back } => format!("doincr r{i} += r{st} -> {back}"),
        Instr::WhileGuard { g } => format!("whileguard r{g}"),
        Instr::Call {
            site,
            dst,
            argv,
            keep,
        } => {
            let callee = pr
                .sites
                .get(site as usize)
                .and_then(|s| p.procs.get(s.proc as usize))
                .map_or_else(
                    || format!("site{site}"),
                    |pr| format!("{}::{}", pr.module, pr.name),
                );
            let keep = if keep { " keep" } else { "" };
            format!("{} <- call {callee} argv r{argv}{keep}", rreg(dst))
        }
        Instr::LoadDummy { dst, dummy } => format!("r{dst} <- dummy[{dummy}]"),
        Instr::EndCall => "endcall".to_string(),
        Instr::Ret => "ret".to_string(),
        Instr::InitDerived { slot, k } => format!("init local[{slot}] <- derived const[{k}]"),
        Instr::InitArray { slot, argv, n_ext } => {
            format!("init local[{slot}] <- array extents r{argv} x{n_ext}")
        }
        Instr::InitInt { slot, src } => format!("init local[{slot}] <- int {}", rreg(src)),
        Instr::InitLogic { slot, src } => format!("init local[{slot}] <- logical {}", rreg(src)),
        Instr::InitChar { slot, src } => format!("init local[{slot}] <- char {}", rreg(src)),
        Instr::InitReal { slot, src } => format!("init local[{slot}] <- real {}", rreg(src)),
        Instr::InitResult { slot } => format!("init result local[{slot}]"),
        Instr::StoreVar { bind, val } => format!("{} <- r{val}", rbind(bind)),
        Instr::StoreElem {
            bind,
            sub,
            val,
            name,
        } => format!(
            "{}[{}] <- {} '{}'",
            rbind(bind),
            rsrc(sub, bp, pr),
            rsrc(val, bp, pr),
            rname(bp, name)
        ),
        Instr::StoreField {
            bind,
            sub,
            val,
            name,
            field,
        } => {
            let idx = if sub == NO_REG {
                String::new()
            } else {
                format!("[r{sub}]")
            };
            format!(
                "{} '{}' %{}{idx} <- r{val}",
                rbind(bind),
                rname(bp, name),
                rname(bp, field)
            )
        }
        Instr::Outfld { out, data, ncol } => {
            let name = p
                .output_names
                .get(out as usize)
                .map_or_else(|| format!("out{out}"), std::string::ToString::to_string);
            format!("outfld '{name}' <- r{data} ncol {}", rreg(ncol))
        }
        Instr::RngFill { reg } => format!("rngfill r{reg}"),
        Instr::PbufStore { idx, data } => format!("pbuf[r{idx}] <- r{data}"),
        Instr::PbufLoad { dst, idx } => format!("r{dst} <- pbuf[r{idx}]"),
        Instr::PbufMerge { cur, data } => format!("pbufmerge r{cur} <- r{data}"),
        Instr::Fail { msg } => format!("fail \"{}\"", rname(bp, msg)),
    }
}
