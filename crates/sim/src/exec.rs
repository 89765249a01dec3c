//! The compiled-program executor: a bytecode register VM over a shared
//! [`Program`], bit-identical to the tree-walking interpreter.
//!
//! An [`Executor`] is one simulation run over a shared [`Program`] — or,
//! through the reset-and-reuse protocol, many runs: construction clones
//! the initial global arena once, and [`Executor::reset`] restores it in
//! place (allocation-reusing deep copy, reseeded PRNG, pooled frames and
//! array buffers) for the next run of the same configuration. Every host
//! call runs the program's lowered bytecode (see
//! [`Program::disassemble`]): one flat instruction array per subprogram
//! over a register frame, nested calls on an explicit frame stack instead
//! of the host stack, and counted elementwise loops as column
//! step-kernels. The hot loop touches no `String` and hashes no name —
//! variables are frame slots or global indices, call targets are
//! pre-resolved, history writes land in a flat step-major
//! `OutputId`-indexed block, and sample captures are positional over
//! `config.samples`.
//!
//! Semantic parity with [`crate::interp::Interpreter`], the reference
//! engine, is load-bearing (the differential suites enforce bit-equal
//! histories, samples, and coverage): evaluation order, FMA contraction
//! (including the re-evaluation on non-numeric fallback), implicit-local
//! creation, copy-out, and error messages all mirror the interpreter. The
//! one deliberate deviation: array reads index the stored value in place
//! instead of cloning the whole array first, which is observationally
//! identical unless a subscript expression itself mutates the array it
//! subscripts — a pattern the model generator never emits.
//!
//! Fault plans and statement fuel exist only here (the interpreter
//! ignores both), so their fences need no second engine: the store's
//! fault oracle checks faulted ensembles against the plan applied to
//! zero-fault runs, and `tests/kernels.rs` pins fuel exhaustion to a
//! golden table.

use crate::bytecode::{Instr, KArr, KOp, KScalar, Kernel, Src, SrcKind, NO_REG};
use crate::fault::{Fault, FaultKind, FaultPlan, BUDGET_CONTEXT, FAULT_CONTEXT};
use crate::interp::{RunConfig, RuntimeError};
use crate::ops::{self, RunResult};
use crate::prng::{make_prng, Prng};
use crate::program::{CProc, Intrin, Program, VarBind};
use crate::store::RunCoverage;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// One module-level sampling instruction, resolved from a
/// [`crate::interp::SampleSpec`] at executor construction.
struct ModulePlan {
    /// Pre-resolved global slot, when `(module, name)` names one.
    global: Option<u32>,
    /// Field name for the derived-type fallback scan.
    field: Arc<str>,
    /// Dense slot into the run's sample buffer (the spec's position in
    /// `config.samples` — captures are positional, never keyed).
    idx: u32,
}

/// One typed frame slot of a VM frame. `live` says whether the local is
/// set (reading an unset local is an error); it is kept apart from `val`
/// so dead slots retain their last allocation (derived-type maps, array
/// buffers) for the next run of the same subprogram to reuse.
#[derive(Debug)]
struct VmSlot {
    live: bool,
    val: Value,
}

/// A pooled VM call frame: locals (`slots`) plus the register file.
#[derive(Debug, Default)]
struct VmFrame {
    slots: Vec<VmSlot>,
    regs: Vec<Value>,
}

/// A call's saved continuation on the explicit VM stack.
struct VmSuspend {
    /// Caller proc index.
    proc: u32,
    /// Caller resume ip (the instruction after the `Call`).
    ip: u32,
    /// Caller register for the function result; `NO_REG` = subroutine.
    dst: u32,
    /// Park the finished frame on the copy-out stack instead of
    /// recycling it (subroutine calls with a copy-out plan).
    keep: bool,
    /// The caller's suspended frame.
    frame: VmFrame,
}

/// Work one host call retired: dispatched instructions (a whole column
/// step-kernel is one) and the loop iterations the kernels ran.
#[derive(Default)]
struct VmWork {
    instructions: u64,
    kernel_iterations: u64,
}

/// The VM's run-to-run state: frame pools and the explicit stacks.
/// Pools persist across [`Executor::reset`].
struct VmState {
    /// Per-proc frame pools. A frame is only ever recycled into its own
    /// proc's pool, so pooled shapes (slot/register counts) are exact.
    pools: Vec<Vec<VmFrame>>,
    /// The explicit call stack (empty between host calls).
    stack: Vec<VmSuspend>,
    /// Finished frames parked for copy-out, tagged with their proc.
    returned: Vec<(u32, VmFrame)>,
    /// Per-proc local sampling plans: `(frame slot, sample idx)` pairs,
    /// captured positionally on `Ret` at the sample step.
    local_dense: Vec<Vec<(u32, u32)>>,
    /// Pooled column-kernel RPN stack (`max_depth` columns of
    /// [`KCHUNK`] lanes each).
    kcols: Vec<[f64; KCHUNK]>,
    /// Pooled column-kernel scalar broadcast values.
    kscalars: Vec<f64>,
}

/// Column-kernel chunk width: long enough to amortize per-op dispatch
/// and keep the element loops autovectorization-friendly, short enough
/// that the RPN stack stays cache-resident.
const KCHUNK: usize = 64;

impl VmState {
    fn new(n_procs: usize, local_dense: Vec<Vec<(u32, u32)>>) -> VmState {
        VmState {
            pools: (0..n_procs).map(|_| Vec::new()).collect(),
            stack: Vec::new(),
            returned: Vec::new(),
            local_dense,
            kcols: Vec::new(),
            kscalars: Vec::new(),
        }
    }
}

/// Executes a compiled [`Program`]: load once (cheap — the program is
/// shared), run one simulation — or, through the reset-and-reuse
/// protocol ([`Executor::reset`]), run many.
///
/// The history buffer is **flat and step-major**: one contiguous
/// `steps × outputs` block where row `s` holds every output's global mean
/// at step `s`, dense-indexed by `OutputId`. A run-store ensemble member
/// publishes the whole run with a single memcpy, and the evaluation-step
/// plane the ECT matrices are built from is a contiguous slice. Per-output
/// series lengths live in `written` (a series spans steps
/// `0..written[out]`, unwritten intermediate steps are NaN — exactly the
/// ragged legacy semantics, reconstructible on demand).
pub struct Executor {
    program: Arc<Program>,
    globals: Vec<Value>,
    /// Per-module-id FMA enablement under this run's AVX2 policy.
    fma: Vec<bool>,
    prng: Box<dyn Prng>,
    prng_seed: u32,
    step: u32,
    steps: u32,
    sample_step: Option<u32>,
    pbuf: HashMap<i64, Vec<f64>>,
    /// Flat step-major history (`step * outputs + out`), grown one
    /// NaN-filled row at a time as steps write outputs.
    pub(crate) history: Vec<f64>,
    /// Per-output series length: `1 + last written step`, 0 = never
    /// written this run.
    pub(crate) written: Vec<u32>,
    pub(crate) covered: Vec<bool>,
    /// Captured samples, positional over `config.samples` (`None` = the
    /// spec was never captured, exactly like an absent map key before).
    pub samples: Vec<Option<Vec<f64>>>,
    module_plan: Vec<ModulePlan>,
    /// Recycled `f64` buffers harvested from consumed `outfld` and pbuf
    /// data — an array-local initialization whose slot has no buffer of
    /// its own reuses one instead of allocating `vec![0.0; n]`.
    scratch_f64: Vec<Vec<f64>>,
    /// The run's fault plan; faults are resolved into `active` /
    /// `abort_at` per `(member, attempt)` by [`Executor::begin_member`].
    plan: FaultPlan,
    /// Output faults striking this member/attempt, output index already
    /// resolved modulo the program's output count. Empty on the
    /// zero-fault path — every hook guards on emptiness.
    active: Vec<Fault>,
    /// Earliest injected abort step for this member/attempt, if any.
    abort_at: Option<u32>,
    /// Ensemble member identity (0 for single runs) — error context only.
    member: u32,
    /// Retry attempt (0 = first run); transient faults strike only 0.
    attempt: u32,
    /// Configured statement budget (`u64::MAX` = unlimited).
    fuel_limit: u64,
    /// Remaining statements this run; 0 aborts with a budget error.
    fuel: u64,
    /// Bytecode-VM frame pools and stacks.
    vm: VmState,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("prng_seed", &self.prng_seed)
            .field("step", &self.step)
            .field("steps", &self.steps)
            .finish_non_exhaustive()
    }
}

impl Executor {
    /// Prepares one run of `program` under `config`.
    pub fn new(program: Arc<Program>, config: &RunConfig) -> Executor {
        rca_obs::counter_inc!("executor.builds", 1);
        let fma = program
            .ir_module_names()
            .iter()
            .map(|m| config.avx2.enabled_for(m))
            .collect();
        let (module_plan, local_dense) = build_sample_plans(&program, config);
        let fuel_limit = config.fuel.unwrap_or(u64::MAX);
        let vm = VmState::new(program.procs.len(), local_dense);
        let mut ex = Executor {
            globals: program.tables.globals.clone(),
            fma,
            prng: make_prng(config.prng, config.prng_seed),
            prng_seed: config.prng_seed,
            step: 0,
            steps: config.steps,
            sample_step: config.sample_step,
            pbuf: HashMap::new(),
            history: Vec::new(),
            written: vec![0; program.output_count()],
            covered: vec![false; program.procs.len()],
            samples: vec![None; config.samples.len()],
            module_plan,
            scratch_f64: Vec::new(),
            plan: config.faults.clone(),
            active: Vec::new(),
            abort_at: None,
            member: 0,
            attempt: 0,
            fuel_limit,
            fuel: fuel_limit,
            vm,
            program,
        };
        ex.resolve_faults();
        ex
    }

    /// The program this executor runs.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Restores the executor to its just-constructed state for another
    /// run of the **same configuration**: the global arena is overwritten
    /// in place from the program's pristine snapshot (allocation-reusing
    /// deep copy, no re-clone), the PRNG is reseeded in place, history
    /// rows / written lengths / coverage bits are zeroed, and the pooled
    /// frames stay pooled. A reset run is bit-identical to a fresh one.
    pub fn reset(&mut self) {
        rca_obs::counter_inc!("executor.resets", 1);
        let p = Arc::clone(&self.program);
        for (g, init) in self.globals.iter_mut().zip(&p.tables.globals) {
            g.clone_from(init);
        }
        self.prng.reseed(self.prng_seed);
        self.step = 0;
        self.pbuf.clear();
        self.history.clear();
        self.written.fill(0);
        self.covered.fill(false);
        self.fuel = self.fuel_limit;
        for s in &mut self.samples {
            *s = None;
        }
    }

    /// Declares which ensemble member (and retry attempt) the next run
    /// represents, re-resolving the fault plan for that coordinate.
    /// Call between [`Executor::reset`] and [`Executor::drive`]; single
    /// runs default to member 0, attempt 0.
    pub fn begin_member(&mut self, member: u32, attempt: u32) {
        self.member = member;
        self.attempt = attempt;
        self.resolve_faults();
    }

    /// Resolves `plan` into the `active` output-fault list and the
    /// earliest `abort_at` step for the current `(member, attempt)`.
    /// Output indices are reduced modulo the program's output count so
    /// plans are model-independent.
    fn resolve_faults(&mut self) {
        self.active.clear();
        self.abort_at = None;
        if self.plan.is_empty() {
            return;
        }
        let outputs = self.program.output_count() as u32;
        let striking: Vec<Fault> = self
            .plan
            .active_for(self.member, self.attempt)
            .cloned()
            .collect();
        for mut f in striking {
            if f.kind == FaultKind::Abort {
                self.abort_at = Some(self.abort_at.map_or(f.step, |s| s.min(f.step)));
            } else {
                if outputs > 0 {
                    f.output %= outputs;
                }
                self.active.push(f);
            }
        }
    }

    /// Applies active output faults to an `outfld` mean: poisoning
    /// substitutes a non-finite value, stuck freezes the output at its
    /// last written value (the first write passes through, then sticks).
    /// Only called when `active` is non-empty.
    fn fault_adjusted(&self, out: u32, mean: f64) -> f64 {
        for f in &self.active {
            if f.output == out && self.step >= f.step {
                return match f.kind {
                    FaultKind::PoisonNan => f64::NAN,
                    FaultKind::PoisonInf => f64::INFINITY,
                    FaultKind::Stuck => {
                        let w = self.written[out as usize] as usize;
                        if w > 0 {
                            self.history[(w - 1) * self.program.output_count() + out as usize]
                        } else {
                            mean
                        }
                    }
                    // Aborts are resolved into `abort_at`, never `active`.
                    FaultKind::Abort => mean,
                };
            }
        }
        mean
    }

    /// Runs the standard driver sequence (`cam_init(pert)` then one
    /// `cam_run_step` per configured step, sampling at the sample step)
    /// against the executor's current state. Callers reusing an executor
    /// must [`Executor::reset`] first.
    pub fn drive(&mut self, pert: f64) -> RunResult<()> {
        rca_obs::counter_inc!("executor.runs", 1);
        self.call("cam_init", &[Value::Real(pert)])?;
        for step in 0..self.steps {
            if self.abort_at == Some(step) {
                rca_obs::counter_inc!("executor.fault_aborts", 1);
                return Err(RuntimeError::new(
                    format!(
                        "injected member-abort fault at step {step} (member {}, attempt {})",
                        self.member, self.attempt
                    ),
                    FAULT_CONTEXT,
                    0,
                ));
            }
            self.set_step(step);
            self.call("cam_run_step", &[])?;
            if self.sample_step == Some(step) {
                self.capture_module_samples();
            }
        }
        Ok(())
    }

    // ----- public driving API -------------------------------------------

    /// Calls a subprogram by name with scalar arguments (no write-back) —
    /// the host-side entry point (`cam_init`, `cam_run_step`).
    pub fn call(&mut self, name: &str, args: &[Value]) -> RunResult<()> {
        let p = Arc::clone(&self.program);
        let Some(idx) = p.entry_proc_index(name) else {
            return Err(RuntimeError::new(
                format!("unknown subprogram {name}"),
                "<host>",
                0,
            ));
        };
        self.vm_entry(&p, idx, args)
    }

    /// Advances the time-step counter (affects history recording and
    /// sampling).
    pub fn set_step(&mut self, step: u32) {
        self.step = step;
    }

    /// Current step.
    pub fn step(&self) -> u32 {
        self.step
    }

    /// Executed subprograms as an id-keyed [`RunCoverage`] (strings render
    /// at the edge, in the legacy sorted `(module, subprogram)` order).
    pub fn coverage(&self) -> RunCoverage {
        RunCoverage::from_program(&self.program, &self.covered)
    }

    /// One output's series this run (steps `0..written`, NaN where a step
    /// was skipped), gathered out of the step-major block.
    pub fn series_of(&self, out: usize) -> Vec<f64> {
        let outputs = self.program.output_count();
        (0..self.written[out] as usize)
            .map(|s| self.history[s * outputs + out])
            .collect()
    }

    /// Consumes the executor into the materialized edge type: ragged
    /// per-output series, captured samples, id-keyed coverage.
    pub fn into_run_output(mut self) -> crate::runner::RunOutput {
        let history = (0..self.program.output_count())
            .map(|i| self.series_of(i))
            .collect();
        crate::runner::RunOutput {
            output_names: Arc::clone(self.program.output_names()),
            history,
            samples: std::mem::take(&mut self.samples),
            coverage: self.coverage(),
        }
    }

    /// Snapshot module-level sampled variables (call at the end of the
    /// sampling step): module variables first, then derived-type fields
    /// anywhere in the global arena.
    pub fn capture_module_samples(&mut self) {
        let plan = std::mem::take(&mut self.module_plan);
        for entry in &plan {
            if self.samples[entry.idx as usize].is_some() {
                continue;
            }
            if let Some(g) = entry.global {
                if let Some(flat) = self.globals[g as usize].flatten() {
                    self.samples[entry.idx as usize] = Some(flat);
                    continue;
                }
            }
            for v in &self.globals {
                if let Value::Derived(fields) = v {
                    if let Some(f) = fields.get(&*entry.field) {
                        if let Some(flat) = f.flatten() {
                            self.samples[entry.idx as usize] = Some(flat);
                            break;
                        }
                    }
                }
            }
        }
        self.module_plan = plan;
    }

    // ----- bytecode VM ----------------------------------------------------

    /// Leases a frame for `proc` from its pool (shapes are exact — a
    /// frame only ever returns to its own proc's pool) or builds one.
    fn vm_lease(&mut self, proc: usize, n_slots: usize, n_regs: usize) -> VmFrame {
        if let Some(f) = self.vm.pools[proc].pop() {
            debug_assert_eq!(f.slots.len(), n_slots);
            debug_assert_eq!(f.regs.len(), n_regs);
            return f;
        }
        VmFrame {
            slots: (0..n_slots)
                .map(|_| VmSlot {
                    live: false,
                    val: Value::Real(0.0),
                })
                .collect(),
            regs: vec![Value::Real(0.0); n_regs],
        }
    }

    /// Returns a finished frame to its proc's pool. Slot *values* stay —
    /// a dead slot's last derived-type map or array buffer is reused by
    /// the next `InitDerived`/`InitArray` of the same subprogram.
    fn vm_recycle(&mut self, proc: usize, mut f: VmFrame) {
        for s in &mut f.slots {
            s.live = false;
        }
        self.vm.pools[proc].push(f);
    }

    /// Runs `entry` on the bytecode VM: dispatch, then error-path frame
    /// salvage and the work counters (`vm.dispatch`, `vm.instructions`,
    /// `vm.kernel_iterations`), bumped once per host call.
    fn vm_entry(&mut self, p: &Program, entry: u32, args: &[Value]) -> RunResult<()> {
        let mut work = VmWork::default();
        let res = self.vm_loop(p, entry, args, &mut work);
        if res.is_err() {
            // Unwind: every suspended/parked frame returns to its own
            // proc's pool (the erroring frame itself was dropped).
            while let Some(sus) = self.vm.stack.pop() {
                self.vm_recycle(sus.proc as usize, sus.frame);
            }
            while let Some((pp, f)) = self.vm.returned.pop() {
                self.vm_recycle(pp as usize, f);
            }
        }
        debug_assert!(self.vm.stack.is_empty() && self.vm.returned.is_empty());
        rca_obs::counter_inc!("vm.dispatch", 1);
        rca_obs::counter_inc!("vm.instructions", work.instructions);
        rca_obs::counter_inc!("vm.kernel_iterations", work.kernel_iterations);
        res
    }

    /// The dispatch loop. One host call = one entry frame; nested calls
    /// suspend onto `vm.stack` instead of the host stack. Every arm
    /// mirrors the reference interpreter's semantics exactly — evaluation
    /// order, coercions, error text, error timing (the differential suite
    /// enforces bit-identity); comments call out the non-obvious cases.
    fn vm_loop(
        &mut self,
        p: &Program,
        entry: u32,
        args: &[Value],
        work: &mut VmWork,
    ) -> RunResult<()> {
        let mut proc = entry;
        let mut prx: &CProc = &p.procs[proc as usize];
        // The running proc's code, lines and constant pool, re-pointed on
        // every call and return.
        let mut code: &[Instr] = &prx.bc.code;
        let mut lines: &[u32] = &prx.bc.lines;
        let mut consts: &[Value] = &prx.bc.consts;
        let mut ip = 0usize;

        self.covered[proc as usize] = true;
        let mut cur = self.vm_lease(proc as usize, prx.n_locals, prx.bc.n_regs as usize);
        for (i, slot) in prx.arg_slots.iter().enumerate() {
            // Host args are borrowed — clone them into the entry frame.
            let v = args.get(i).cloned().unwrap_or(Value::Real(0.0));
            let sl = &mut cur.slots[*slot as usize];
            sl.val = v;
            sl.live = true;
        }

        loop {
            work.instructions += 1;
            match code[ip] {
                Instr::Fuel => {
                    // Check-then-decrement so the configured limit is
                    // exact; the unlimited default (`u64::MAX`) never
                    // trips and costs one predictable branch.
                    if self.fuel == 0 {
                        rca_obs::counter_inc!("run.budget_exhausted", 1);
                        return Err(RuntimeError::new(
                            format!(
                                "statement fuel budget of {} exhausted at step {} (member {})",
                                self.fuel_limit, self.step, self.member
                            ),
                            BUDGET_CONTEXT,
                            0,
                        ));
                    }
                    self.fuel -= 1;
                }
                Instr::LoadConst { dst, k } => {
                    cur.regs[dst as usize].clone_from(&consts[k as usize]);
                }
                Instr::LoadLocal { dst, slot, name } => {
                    let sl = &cur.slots[slot as usize];
                    if !sl.live {
                        return Err(RuntimeError::new(
                            format!("undefined variable '{}'", prx.bc.names[name as usize]),
                            &prx.module,
                            lines[ip],
                        ));
                    }
                    cur.regs[dst as usize].clone_from(&cur.slots[slot as usize].val);
                }
                Instr::LoadLocalOr { dst, slot, global } => {
                    if cur.slots[slot as usize].live {
                        cur.regs[dst as usize].clone_from(&cur.slots[slot as usize].val);
                    } else {
                        cur.regs[dst as usize].clone_from(&self.globals[global as usize]);
                    }
                }
                Instr::LoadGlobal { dst, global } => {
                    cur.regs[dst as usize].clone_from(&self.globals[global as usize]);
                }
                Instr::ToNum { reg } => {
                    match cur.regs[reg as usize].as_f64() {
                        Some(x) => cur.regs[reg as usize] = Value::Real(x),
                        None => {
                            return Err(RuntimeError::new(
                                format!(
                                    "intrinsic argument must be numeric, got {}",
                                    cur.regs[reg as usize].type_name()
                                ),
                                &prx.module,
                                lines[ip],
                            ))
                        }
                    };
                }
                Instr::ToInt { reg } => {
                    let x = vm_int(&cur.regs[reg as usize], &prx.module, lines[ip])?;
                    cur.regs[reg as usize] = Value::Int(x);
                }
                Instr::ToExtent { reg } => {
                    // Array extents: `as_i64` only, no truncation.
                    let x = cur.regs[reg as usize].as_i64().ok_or_else(|| {
                        RuntimeError::new("array extent not integer", &prx.module, lines[ip])
                    })?;
                    cur.regs[reg as usize] = Value::Int(x);
                }
                Instr::Unary { op, dst, src } => {
                    let v = std::mem::replace(&mut cur.regs[src as usize], Value::Real(0.0));
                    cur.regs[dst as usize] = ops::unary_op(op, v, &prx.module, lines[ip])?;
                }
                Instr::Binary { op, dst, l, r } => {
                    // Fused operands resolve here, in operand order (an
                    // unset fused local errors before `r` is touched).
                    let lv = vm_src(
                        l,
                        &cur.regs,
                        &cur.slots,
                        consts,
                        &prx.local_names,
                        &prx.module,
                        lines[ip],
                    )?;
                    let rv = vm_src(
                        r,
                        &cur.regs,
                        &cur.slots,
                        consts,
                        &prx.local_names,
                        &prx.module,
                        lines[ip],
                    )?;
                    let v = ops::binary_op_ref(op, lv, rv, &prx.module, lines[ip])?;
                    cur.regs[dst as usize] = v;
                }
                Instr::FmaTry {
                    op,
                    dst,
                    a,
                    b,
                    c,
                    plain,
                } => {
                    // All three operands resolve first, in order — an
                    // unset fused local errors (like the interpreter's
                    // operand evaluation), it does not fall back.
                    let rd = |s: Src| {
                        vm_src(
                            s,
                            &cur.regs,
                            &cur.slots,
                            consts,
                            &prx.local_names,
                            &prx.module,
                            lines[ip],
                        )
                        .map(Value::as_f64)
                    };
                    let (va, vb, vc) = (rd(a)?, rd(b)?, rd(c)?);
                    if let (Some(x), Some(y), Some(z)) = (va, vb, vc) {
                        let z = if op == rca_fortran::token::Op::Sub {
                            -z
                        } else {
                            z
                        };
                        cur.regs[dst as usize] = Value::Real(x.mul_add(y, z));
                    } else {
                        // Non-numeric operand: jump to the unfused path,
                        // which re-evaluates the plain operands (the
                        // interpreter's fallthrough semantics).
                        ip = plain as usize;
                        continue;
                    }
                }
                Instr::Intrinsic {
                    which,
                    n_args,
                    dst,
                    argv,
                } => {
                    let base = argv as usize;
                    let k = n_args as usize;
                    let line = lines[ip];
                    let v = {
                        // The window slice makes an out-of-range `arg(i)`
                        // (e.g. `sign(x)` with one actual) panic exactly
                        // like the interpreter's `args[i]` indexing.
                        let window = &mut cur.regs[base..base + k];
                        ops::intrinsic_op(
                            which,
                            k,
                            &mut |i| Ok(std::mem::replace(&mut window[i], Value::Real(0.0))),
                            &prx.module,
                            line,
                        )?
                    };
                    cur.regs[dst as usize] = v;
                }
                Instr::IndexLoad {
                    dst,
                    bind,
                    sub,
                    name,
                } => {
                    // Subscript resolution + coercion first, then base
                    // resolution (a fused unset local errors where its
                    // `LoadLocal` would have).
                    let sv = vm_src(
                        sub,
                        &cur.regs,
                        &cur.slots,
                        consts,
                        &prx.local_names,
                        &prx.module,
                        lines[ip],
                    )?;
                    let idx = vm_index(sv, &prx.module, lines[ip])?;
                    let base: &Value = match bind {
                        VarBind::Local(s) => {
                            // BranchLocalSet guards this path: live.
                            &cur.slots[s as usize].val
                        }
                        VarBind::LocalOrGlobal(s, g) => {
                            if cur.slots[s as usize].live {
                                &cur.slots[s as usize].val
                            } else {
                                &self.globals[g as usize]
                            }
                        }
                        VarBind::Global(g) => &self.globals[g as usize],
                    };
                    let v = match base {
                        Value::RealArray(v) => {
                            v.get(idx).copied().map(Value::Real).ok_or_else(|| {
                                RuntimeError::new(
                                    format!(
                                        "subscript {} out of bounds for {} (len {})",
                                        idx + 1,
                                        prx.bc.names[name as usize],
                                        v.len()
                                    ),
                                    &prx.module,
                                    lines[ip],
                                )
                            })?
                        }
                        other => {
                            return Err(RuntimeError::new(
                                format!(
                                    "cannot index {} '{}'",
                                    other.type_name(),
                                    prx.bc.names[name as usize]
                                ),
                                &prx.module,
                                lines[ip],
                            ))
                        }
                    };
                    cur.regs[dst as usize] = v;
                }
                Instr::FieldCheck {
                    bind,
                    name,
                    field,
                    err,
                } => {
                    // Structural checks on `base%field(sub)` only — the
                    // subscript runs next.
                    vm_field_check(
                        bind,
                        &cur.slots,
                        &self.globals,
                        &prx.bc.names[name as usize],
                        &prx.bc.names[field as usize],
                        &prx.bc.names[err as usize],
                        &prx.module,
                        lines[ip],
                    )?;
                }
                Instr::LoadField {
                    dst,
                    bind,
                    name,
                    field,
                    err,
                } => {
                    let fv = vm_field_check(
                        bind,
                        &cur.slots,
                        &self.globals,
                        &prx.bc.names[name as usize],
                        &prx.bc.names[field as usize],
                        &prx.bc.names[err as usize],
                        &prx.module,
                        lines[ip],
                    )?;
                    let v = fv.clone();
                    cur.regs[dst as usize] = v;
                }
                Instr::LoadFieldElem {
                    dst,
                    bind,
                    sub,
                    name,
                    field,
                    err,
                } => {
                    // Subscript coerced first, then the base re-acquired
                    // (the subscript may have run user code).
                    let idx = vm_index(&cur.regs[sub as usize], &prx.module, lines[ip])?;
                    let fv = vm_field_check(
                        bind,
                        &cur.slots,
                        &self.globals,
                        &prx.bc.names[name as usize],
                        &prx.bc.names[field as usize],
                        &prx.bc.names[err as usize],
                        &prx.module,
                        lines[ip],
                    )?;
                    let v = index_in_place(
                        fv,
                        idx,
                        &prx.bc.names[field as usize],
                        &prx.module,
                        lines[ip],
                    )?;
                    cur.regs[dst as usize] = v;
                }
                Instr::FieldOfValue {
                    dst,
                    src,
                    field,
                    err,
                } => {
                    let basev = std::mem::replace(&mut cur.regs[src as usize], Value::Real(0.0));
                    let Value::Derived(fields) = basev else {
                        return Err(RuntimeError::new(
                            prx.bc.names[err as usize].to_string(),
                            &prx.module,
                            lines[ip],
                        ));
                    };
                    let field = &prx.bc.names[field as usize];
                    let fv = fields.get(&**field).cloned().ok_or_else(|| {
                        RuntimeError::new(format!("no field {field}"), &prx.module, lines[ip])
                    })?;
                    cur.regs[dst as usize] = fv;
                }
                Instr::IndexValue {
                    dst,
                    src,
                    sub,
                    field,
                } => {
                    let idx = vm_index(&cur.regs[sub as usize], &prx.module, lines[ip])?;
                    let v = index_in_place(
                        &cur.regs[src as usize],
                        idx,
                        &prx.bc.names[field as usize],
                        &prx.module,
                        lines[ip],
                    )?;
                    cur.regs[dst as usize] = v;
                }
                Instr::Jump { to } => {
                    ip = to as usize;
                    continue;
                }
                Instr::BranchIfFalse { cond, to, is_while } => {
                    let c = cur.regs[cond as usize].as_bool().ok_or_else(|| {
                        let what = if is_while {
                            "do-while condition not logical"
                        } else {
                            "if condition not logical"
                        };
                        RuntimeError::new(what, &prx.module, lines[ip])
                    })?;
                    if !c {
                        ip = to as usize;
                        continue;
                    }
                }
                Instr::BranchLocalSet { slot, to } => {
                    if cur.slots[slot as usize].live {
                        ip = to as usize;
                        continue;
                    }
                }
                Instr::BranchFmaOff { module, to } => {
                    if !self.fma[module as usize] {
                        ip = to as usize;
                        continue;
                    }
                }
                Instr::BranchDummyUnset { dummy, to } => {
                    let set = self
                        .vm
                        .returned
                        .last()
                        .is_some_and(|(_, f)| f.slots[dummy as usize].live);
                    if !set {
                        // A dummy the callee left unset skips its whole
                        // copy-out, subscript included.
                        ip = to as usize;
                        continue;
                    }
                }
                Instr::Kernel { k } => {
                    // The matching `DoCheck` is always the next
                    // instruction (emission invariant; emitted code is
                    // never rewritten); its registers carry the
                    // already-coerced loop bounds.
                    let Instr::DoCheck {
                        i,
                        e,
                        st,
                        var,
                        exit,
                    } = code[ip + 1]
                    else {
                        unreachable!("Kernel not followed by its DoCheck")
                    };
                    if let Some(trip) = self.vm_kernel(
                        &prx.bc.kernels[k as usize],
                        &prx.bc.names,
                        &mut cur,
                        i,
                        e,
                        st,
                        var,
                    ) {
                        work.kernel_iterations += trip;
                        ip = exit as usize;
                        continue;
                    }
                    // Some precondition failed: fall through to the
                    // generic bytecode loop, which owns all error (and
                    // degenerate-loop) semantics.
                }
                Instr::DoCheck {
                    i,
                    e,
                    st,
                    var,
                    exit,
                } => {
                    let iv = vm_int_reg(&cur.regs[i as usize]);
                    let ev = vm_int_reg(&cur.regs[e as usize]);
                    let stv = vm_int_reg(&cur.regs[st as usize]);
                    // Checked per iteration instead of once before the
                    // loop; the step register never changes, so the first
                    // check errors before any iteration — identical.
                    if stv == 0 {
                        return Err(RuntimeError::new("zero do-step", &prx.module, lines[ip]));
                    }
                    if (stv > 0 && iv > ev) || (stv < 0 && iv < ev) {
                        ip = exit as usize;
                        continue;
                    }
                    let sl = &mut cur.slots[var as usize];
                    sl.val = Value::Int(iv);
                    sl.live = true;
                }
                Instr::DoIncr { i, st, back } => {
                    let stv = vm_int_reg(&cur.regs[st as usize]);
                    let iv = vm_int_reg(&cur.regs[i as usize]);
                    cur.regs[i as usize] = Value::Int(iv + stv);
                    ip = back as usize;
                    continue;
                }
                Instr::WhileGuard { g } => {
                    let n = vm_int_reg(&cur.regs[g as usize]) + 1;
                    if n > 10_000_000 {
                        return Err(RuntimeError::new(
                            "do-while iteration bound exceeded",
                            &prx.module,
                            lines[ip],
                        ));
                    }
                    cur.regs[g as usize] = Value::Int(n);
                }
                Instr::Call {
                    site,
                    dst,
                    argv,
                    keep,
                } => {
                    let s = &prx.sites[site as usize];
                    let callee = s.proc;
                    let callee_pr: &CProc = &p.procs[callee as usize];
                    self.covered[callee as usize] = true;
                    let mut f = self.vm_lease(
                        callee as usize,
                        callee_pr.n_locals,
                        callee_pr.bc.n_regs as usize,
                    );
                    let n_actuals = s.args.len();
                    for (i, slot) in callee_pr.arg_slots.iter().enumerate() {
                        // Move actuals out of the caller's arg window.
                        let v = if i < n_actuals {
                            std::mem::replace(&mut cur.regs[argv as usize + i], Value::Real(0.0))
                        } else {
                            Value::Real(0.0)
                        };
                        let sl = &mut f.slots[*slot as usize];
                        sl.val = v;
                        sl.live = true;
                    }
                    self.vm.stack.push(VmSuspend {
                        proc,
                        ip: (ip + 1) as u32,
                        dst,
                        keep,
                        frame: std::mem::replace(&mut cur, f),
                    });
                    proc = callee;
                    prx = callee_pr;
                    code = &prx.bc.code;
                    lines = &prx.bc.lines;
                    consts = &prx.bc.consts;
                    ip = 0;
                    continue;
                }
                Instr::LoadDummy { dst, dummy } => {
                    let (_, f) = self.vm.returned.last().expect("copy-out frame parked");
                    cur.regs[dst as usize].clone_from(&f.slots[dummy as usize].val);
                }
                Instr::EndCall => {
                    let (pp, f) = self.vm.returned.pop().expect("copy-out frame parked");
                    self.vm_recycle(pp as usize, f);
                }
                Instr::Ret => {
                    // Local sampling at the configured step, on the
                    // way out: live slots only, positional.
                    if self.sample_step == Some(self.step) {
                        for k in 0..self.vm.local_dense[proc as usize].len() {
                            let (slot, idx) = self.vm.local_dense[proc as usize][k];
                            let sl = &cur.slots[slot as usize];
                            if sl.live {
                                if let Some(flat) = sl.val.flatten() {
                                    self.samples[idx as usize] = Some(flat);
                                }
                            }
                        }
                    }
                    match self.vm.stack.pop() {
                        None => {
                            // Entry frame done: recycle and finish.
                            let fin = std::mem::take(&mut cur);
                            self.vm_recycle(proc as usize, fin);
                            return Ok(());
                        }
                        Some(sus) => {
                            let mut fin = std::mem::replace(&mut cur, sus.frame);
                            let fin_proc = proc;
                            proc = sus.proc;
                            prx = &p.procs[proc as usize];
                            code = &prx.bc.code;
                            lines = &prx.bc.lines;
                            consts = &prx.bc.consts;
                            ip = sus.ip as usize;
                            if sus.dst != NO_REG {
                                let rs = p.procs[fin_proc as usize]
                                    .result_slot
                                    .expect("function has result");
                                let sl = &mut fin.slots[rs as usize];
                                if sl.live {
                                    let v = std::mem::replace(&mut sl.val, Value::Real(0.0));
                                    cur.regs[sus.dst as usize] = v;
                                    self.vm_recycle(fin_proc as usize, fin);
                                } else {
                                    // Reported in the caller's context:
                                    // its module and the call
                                    // statement's line.
                                    let e = RuntimeError::new(
                                        format!(
                                            "function {} returned no value",
                                            p.procs[fin_proc as usize].name
                                        ),
                                        &prx.module,
                                        lines[ip - 1],
                                    );
                                    self.vm_recycle(fin_proc as usize, fin);
                                    return Err(e);
                                }
                            } else if sus.keep {
                                self.vm.returned.push((fin_proc, fin));
                            } else {
                                self.vm_recycle(fin_proc as usize, fin);
                            }
                            continue;
                        }
                    }
                }
                Instr::InitDerived { slot, k } => {
                    // `clone_from` reuses a dead slot's previous map
                    // allocation (typed-slot pooling); the value is the
                    // prototype either way.
                    let sl = &mut cur.slots[slot as usize];
                    sl.val.clone_from(&consts[k as usize]);
                    sl.live = true;
                }
                Instr::InitArray { slot, argv, n_ext } => {
                    let mut n = 1usize;
                    for k in 0..n_ext {
                        let x = vm_int_reg(&cur.regs[(argv + k) as usize]);
                        n *= x.max(0) as usize;
                    }
                    // Prefer the slot's own previous buffer, then the
                    // shared scratch pool, then a fresh allocation.
                    let sl = &mut cur.slots[slot as usize];
                    let mut buf = if let Value::RealArray(b) = &mut sl.val {
                        std::mem::take(b)
                    } else {
                        self.scratch_f64.pop().unwrap_or_default()
                    };
                    buf.clear();
                    buf.resize(n, 0.0);
                    let sl = &mut cur.slots[slot as usize];
                    sl.val = Value::RealArray(buf);
                    sl.live = true;
                }
                Instr::InitInt { slot, src } => {
                    let v = if src == NO_REG {
                        0
                    } else {
                        cur.regs[src as usize].as_i64().unwrap_or(0)
                    };
                    let sl = &mut cur.slots[slot as usize];
                    sl.val = Value::Int(v);
                    sl.live = true;
                }
                Instr::InitLogic { slot, src } => {
                    let v = if src == NO_REG {
                        false
                    } else {
                        cur.regs[src as usize].as_bool().unwrap_or(false)
                    };
                    let sl = &mut cur.slots[slot as usize];
                    sl.val = Value::Logical(v);
                    sl.live = true;
                }
                Instr::InitChar { slot, src } => {
                    let v = if src == NO_REG {
                        Value::Str(String::new())
                    } else {
                        std::mem::replace(&mut cur.regs[src as usize], Value::Real(0.0))
                    };
                    let sl = &mut cur.slots[slot as usize];
                    sl.val = v;
                    sl.live = true;
                }
                Instr::InitReal { slot, src } => {
                    let v = if src == NO_REG {
                        0.0
                    } else {
                        cur.regs[src as usize].as_f64().unwrap_or(0.0)
                    };
                    let sl = &mut cur.slots[slot as usize];
                    sl.val = Value::Real(v);
                    sl.live = true;
                }
                Instr::InitResult { slot } => {
                    let sl = &mut cur.slots[slot as usize];
                    if !sl.live {
                        sl.val = Value::Real(0.0);
                        sl.live = true;
                    }
                }
                Instr::StoreVar { bind, val } => {
                    let value = std::mem::replace(&mut cur.regs[val as usize], Value::Real(0.0));
                    match bind {
                        VarBind::Local(s) => {
                            let sl = &mut cur.slots[s as usize];
                            if sl.live {
                                ops::assign_into(&mut sl.val, value, &prx.module, lines[ip])?;
                            } else {
                                // Implicit local creation.
                                sl.val = value;
                                sl.live = true;
                            }
                        }
                        VarBind::LocalOrGlobal(s, g) => {
                            let sl = &mut cur.slots[s as usize];
                            if sl.live {
                                ops::assign_into(&mut sl.val, value, &prx.module, lines[ip])?;
                            } else {
                                ops::assign_into(
                                    &mut self.globals[g as usize],
                                    value,
                                    &prx.module,
                                    lines[ip],
                                )?;
                            }
                        }
                        VarBind::Global(g) => {
                            ops::assign_into(
                                &mut self.globals[g as usize],
                                value,
                                &prx.module,
                                lines[ip],
                            )?;
                        }
                    }
                }
                Instr::StoreElem {
                    bind,
                    sub,
                    val,
                    name,
                } => {
                    // Element-store order: the value resolves first
                    // (a fused unset value local errors before the
                    // subscript runs, like the RHS evaluation it
                    // replaces), then the subscript coerces before base
                    // resolution; value numeric-check inside
                    // `write_elem`, then the bounds check.
                    let value: Value = match val.kind() {
                        SrcKind::Reg(r) => {
                            std::mem::replace(&mut cur.regs[r as usize], Value::Real(0.0))
                        }
                        SrcKind::Const(k) => consts[k as usize].clone(),
                        SrcKind::Local(sl) => {
                            let slot = &cur.slots[sl as usize];
                            if !slot.live {
                                return Err(RuntimeError::new(
                                    format!(
                                        "undefined variable '{}'",
                                        prx.local_names[sl as usize]
                                    ),
                                    &prx.module,
                                    lines[ip],
                                ));
                            }
                            slot.val.clone()
                        }
                    };
                    let sv = vm_src(
                        sub,
                        &cur.regs,
                        &cur.slots,
                        consts,
                        &prx.local_names,
                        &prx.module,
                        lines[ip],
                    )?;
                    let idx = vm_index(sv, &prx.module, lines[ip])?;
                    let arr: Option<&mut Vec<f64>> = match bind {
                        VarBind::Local(s) => match &mut cur.slots[s as usize] {
                            VmSlot {
                                live: true,
                                val: Value::RealArray(v),
                            } => Some(v),
                            _ => None,
                        },
                        VarBind::LocalOrGlobal(s, g) => {
                            let local_is_array = matches!(
                                &cur.slots[s as usize],
                                VmSlot {
                                    live: true,
                                    val: Value::RealArray(_),
                                }
                            );
                            if local_is_array {
                                match &mut cur.slots[s as usize].val {
                                    Value::RealArray(v) => Some(v),
                                    _ => unreachable!(),
                                }
                            } else {
                                match &mut self.globals[g as usize] {
                                    Value::RealArray(v) => Some(v),
                                    _ => None,
                                }
                            }
                        }
                        VarBind::Global(g) => match &mut self.globals[g as usize] {
                            Value::RealArray(v) => Some(v),
                            _ => None,
                        },
                    };
                    match arr {
                        Some(v) => ops::write_elem(v, idx, &value, &prx.module, lines[ip])?,
                        None => {
                            return Err(RuntimeError::new(
                                format!("cannot index non-array {}", prx.bc.names[name as usize]),
                                &prx.module,
                                lines[ip],
                            ))
                        }
                    }
                }
                Instr::StoreField {
                    bind,
                    sub,
                    val,
                    name,
                    field,
                } => {
                    let idx = if sub == NO_REG {
                        None
                    } else {
                        Some(vm_index(&cur.regs[sub as usize], &prx.module, lines[ip])?)
                    };
                    let value = std::mem::replace(&mut cur.regs[val as usize], Value::Real(0.0));
                    let name = &prx.bc.names[name as usize];
                    let target: &mut Value = match bind {
                        VarBind::Local(s) => {
                            let sl = &mut cur.slots[s as usize];
                            if !sl.live {
                                return Err(RuntimeError::new(
                                    format!("undefined derived base {name}"),
                                    &prx.module,
                                    lines[ip],
                                ));
                            }
                            &mut sl.val
                        }
                        VarBind::LocalOrGlobal(s, g) => {
                            if cur.slots[s as usize].live {
                                &mut cur.slots[s as usize].val
                            } else {
                                &mut self.globals[g as usize]
                            }
                        }
                        VarBind::Global(g) => &mut self.globals[g as usize],
                    };
                    let Value::Derived(fields) = target else {
                        return Err(RuntimeError::new(
                            format!("{name} is not a derived type"),
                            &prx.module,
                            lines[ip],
                        ));
                    };
                    let field = &prx.bc.names[field as usize];
                    let fv = fields.get_mut(&**field).ok_or_else(|| {
                        RuntimeError::new(format!("no field {field}"), &prx.module, lines[ip])
                    })?;
                    match (idx, fv) {
                        (Some(i), Value::RealArray(v)) => {
                            ops::write_elem(v, i, &value, &prx.module, lines[ip])?;
                        }
                        (None, slot) => {
                            ops::assign_into(slot, value, &prx.module, lines[ip])?;
                        }
                        (Some(_), other) => {
                            return Err(RuntimeError::new(
                                format!("cannot index field of type {}", other.type_name()),
                                &prx.module,
                                lines[ip],
                            ))
                        }
                    }
                }
                Instr::Outfld { out, data, ncol } => {
                    let data = std::mem::replace(&mut cur.regs[data as usize], Value::Real(0.0));
                    let ncol = if ncol == NO_REG {
                        usize::MAX
                    } else {
                        vm_int_reg(&cur.regs[ncol as usize]) as usize
                    };
                    let mean = match data {
                        Value::RealArray(v) => {
                            let n = v.len().min(ncol).max(1);
                            let mean = v.iter().take(n).sum::<f64>() / n as f64;
                            // Harvest the evaluated buffer for reuse
                            // (values are unaffected).
                            self.scratch_f64.push(v);
                            mean
                        }
                        Value::Real(v) => v,
                        other => {
                            return Err(RuntimeError::new(
                                format!("outfld argument must be real, got {}", other.type_name()),
                                &prx.module,
                                lines[ip],
                            ))
                        }
                    };
                    let mean = if self.active.is_empty() {
                        mean
                    } else {
                        self.fault_adjusted(out, mean)
                    };
                    let outputs = self.program.output_count();
                    let step = self.step as usize;
                    let need = (step + 1) * outputs;
                    if self.history.len() < need {
                        self.history.resize(need, f64::NAN);
                    }
                    self.history[step * outputs + out as usize] = mean;
                    let w = &mut self.written[out as usize];
                    *w = (*w).max(self.step + 1);
                }
                Instr::RngFill { reg } => {
                    match &mut cur.regs[reg as usize] {
                        // Fill the evaluated current value in place —
                        // every element is overwritten, same draws.
                        Value::RealArray(v) => self.prng.fill(v),
                        other => *other = Value::Real(self.prng.next_f64()),
                    }
                }
                Instr::PbufStore { idx, data } => {
                    let i = vm_int_reg(&cur.regs[idx as usize]);
                    let data = std::mem::replace(&mut cur.regs[data as usize], Value::Real(0.0));
                    let arr = match data {
                        Value::RealArray(v) => v,
                        Value::Real(v) => vec![v],
                        other => {
                            return Err(RuntimeError::new(
                                format!(
                                    "pbuf_set_field needs real data, got {}",
                                    other.type_name()
                                ),
                                &prx.module,
                                lines[ip],
                            ))
                        }
                    };
                    self.pbuf.insert(i, arr);
                }
                Instr::PbufLoad { dst, idx } => {
                    // Snapshot before `current` runs (the
                    // interpreter's order).
                    let i = vm_int_reg(&cur.regs[idx as usize]);
                    let data = self.pbuf.get(&i).cloned().unwrap_or_default();
                    cur.regs[dst as usize] = Value::RealArray(data);
                }
                Instr::PbufMerge { cur: rc, data } => {
                    let Value::RealArray(d) =
                        std::mem::replace(&mut cur.regs[data as usize], Value::Real(0.0))
                    else {
                        unreachable!("PbufLoad always parks an array");
                    };
                    match &mut cur.regs[rc as usize] {
                        Value::RealArray(v) => {
                            let n = v.len().min(d.len());
                            v[..n].copy_from_slice(&d[..n]);
                            v[n..].fill(0.0);
                        }
                        other => *other = Value::Real(d.first().copied().unwrap_or(0.0)),
                    }
                    self.scratch_f64.push(d);
                }
                Instr::Fail { msg } => {
                    return Err(RuntimeError::new(
                        prx.bc.names[msg as usize].to_string(),
                        &prx.module,
                        lines[ip],
                    ));
                }
            }
            ip += 1;
        }
    }

    /// One column step-kernel attempt (see [`Kernel`]): validates every
    /// precondition the generic loop's semantics depend on, then either
    /// executes the whole counted loop column-at-a-time — returning its
    /// trip count with all post-loop state (arrays, fuel, loop-variable
    /// slot, induction register) exactly as the generic loop would leave
    /// it — or touches nothing and returns `None`.
    ///
    /// `ri`/`re`/`rs`/`var` come from the matching [`Instr::DoCheck`].
    #[allow(clippy::too_many_arguments)]
    fn vm_kernel(
        &mut self,
        kern: &Kernel,
        names: &[Arc<str>],
        cur: &mut VmFrame,
        ri: u32,
        re: u32,
        rs: u32,
        var: u32,
    ) -> Option<u64> {
        // Bounds: Int registers (`ToInt` guarantees it, but a fallback
        // costs nothing), unit step, at least one iteration, subscripts
        // starting at 1.
        let (Value::Int(lo), Value::Int(hi)) = (&cur.regs[ri as usize], &cur.regs[re as usize])
        else {
            return None;
        };
        let (lo, hi) = (*lo, *hi);
        if !matches!(cur.regs[rs as usize], Value::Int(1)) || hi < lo || lo < 1 {
            return None;
        }
        let trip = (hi - lo + 1) as u64;
        // Fuel: the generic loop burns one unit per body statement per
        // iteration (`Instr::Fuel`). Anything short falls back so the
        // budget error strikes at the exact statement it would have.
        let cost = trip.checked_mul(kern.stmts.len() as u64)?;
        if self.fuel < cost {
            return None;
        }
        // Arrays: live real arrays covering every subscript in [lo, hi].
        for a in &kern.arrays {
            match karr_ref(a, &cur.slots, &self.globals, names) {
                Some(arr) if arr.len() as u64 >= hi as u64 => {}
                _ => return None,
            }
        }
        // Scalars: loop-invariant reals, pre-read once (no body
        // statement writes a scalar).
        let mut svals = std::mem::take(&mut self.vm.kscalars);
        svals.clear();
        for s in &kern.scalars {
            let v: &Value = match *s {
                KScalar::Local(sl) => {
                    let sl = &cur.slots[sl as usize];
                    if !sl.live {
                        self.vm.kscalars = svals;
                        return None;
                    }
                    &sl.val
                }
                KScalar::LocalOr(sl, g) => {
                    if cur.slots[sl as usize].live {
                        &cur.slots[sl as usize].val
                    } else {
                        &self.globals[g as usize]
                    }
                }
                KScalar::Global(g) => &self.globals[g as usize],
            };
            let Value::Real(x) = v else {
                self.vm.kscalars = svals;
                return None;
            };
            svals.push(*x);
        }
        // ---- validated: the kernel is now infallible — run it all ----
        let on = self.fma[kern.module as usize];
        let mut cols = std::mem::take(&mut self.vm.kcols);
        cols.resize(kern.max_depth as usize, [0.0; KCHUNK]);
        let mut base = lo;
        while base <= hi {
            let n = ((hi - base + 1) as usize).min(KCHUNK);
            let off = (base - 1) as usize;
            for stmt in &kern.stmts {
                let rpn = if on { &stmt.on } else { &stmt.off };
                let mut sp = 0usize;
                // Per-op dispatch is hoisted outside the element loops,
                // which are plain `f64` slice traversals the compiler
                // can unroll/vectorize.
                macro_rules! bin {
                    ($f:expr) => {{
                        let (a, b) = cols.split_at_mut(sp - 1);
                        let (x, y) = (&mut a[sp - 2], &b[0]);
                        let f = $f;
                        for j in 0..n {
                            x[j] = f(x[j], y[j]);
                        }
                        sp -= 1;
                    }};
                }
                for op in rpn {
                    match *op {
                        KOp::Arr(a) => {
                            let src = karr_ref(
                                &kern.arrays[a as usize],
                                &cur.slots,
                                &self.globals,
                                names,
                            )
                            .expect("validated kernel array");
                            cols[sp][..n].copy_from_slice(&src[off..off + n]);
                            sp += 1;
                        }
                        KOp::Scalar(s) => {
                            cols[sp][..n].fill(svals[s as usize]);
                            sp += 1;
                        }
                        KOp::Const(v) => {
                            cols[sp][..n].fill(v);
                            sp += 1;
                        }
                        // Add/Mul go through `nan_left`: LLVM treats
                        // `fadd`/`fmul` as commutative and which operand's
                        // NaN survives is unspecified per code site, so the
                        // column loop could disagree with the scalar
                        // engines' single `binary_op_ref` site on the NaN's
                        // sign (`0x7ff8…` vs `0xfff8…`). Sub/Div are not
                        // commutable, so their operand order is fixed.
                        KOp::Add => bin!(|x, y| nan_left(x, y, x + y)),
                        KOp::Sub => bin!(|x, y| x - y),
                        KOp::Mul => bin!(|x, y| nan_left(x, y, x * y)),
                        KOp::Div => bin!(|x, y| x / y),
                        KOp::Pow => bin!(f64::powf),
                        KOp::Min2 => bin!(|x, y| f64::min(f64::min(f64::INFINITY, x), y)),
                        KOp::Max2 => bin!(|x, y| f64::max(f64::max(f64::NEG_INFINITY, x), y)),
                        KOp::Sign2 => bin!(|x: f64, y: f64| x.abs() * y.signum()),
                        KOp::Neg => {
                            let x = &mut cols[sp - 1];
                            for v in &mut x[..n] {
                                *v = -*v;
                            }
                        }
                        KOp::Fma { sub } => {
                            let (a, b) = cols.split_at_mut(sp - 2);
                            let x = &mut a[sp - 3];
                            let (y, z) = (&b[0], &b[1]);
                            if sub {
                                for j in 0..n {
                                    x[j] = x[j].mul_add(y[j], -z[j]);
                                }
                            } else {
                                for j in 0..n {
                                    x[j] = x[j].mul_add(y[j], z[j]);
                                }
                            }
                            sp -= 2;
                        }
                        KOp::Map(m) => {
                            let x = &mut cols[sp - 1];
                            match m {
                                Intrin::Sqrt => {
                                    for v in &mut x[..n] {
                                        *v = v.sqrt();
                                    }
                                }
                                Intrin::Exp => {
                                    for v in &mut x[..n] {
                                        *v = v.exp();
                                    }
                                }
                                Intrin::Log => {
                                    for v in &mut x[..n] {
                                        *v = v.ln();
                                    }
                                }
                                Intrin::Log10 => {
                                    for v in &mut x[..n] {
                                        *v = v.log10();
                                    }
                                }
                                Intrin::Abs => {
                                    for v in &mut x[..n] {
                                        *v = v.abs();
                                    }
                                }
                                Intrin::Tanh => {
                                    for v in &mut x[..n] {
                                        *v = v.tanh();
                                    }
                                }
                                Intrin::Sin => {
                                    for v in &mut x[..n] {
                                        *v = v.sin();
                                    }
                                }
                                Intrin::Cos => {
                                    for v in &mut x[..n] {
                                        *v = v.cos();
                                    }
                                }
                                Intrin::Atan => {
                                    for v in &mut x[..n] {
                                        *v = v.atan();
                                    }
                                }
                                other => unreachable!("non-map intrinsic {other:?} in kernel"),
                            }
                        }
                    }
                }
                debug_assert_eq!(sp, 1, "kernel RPN must net one column");
                let dst = karr_mut(
                    &kern.arrays[stmt.dst as usize],
                    &mut cur.slots,
                    &mut self.globals,
                    names,
                )
                .expect("validated kernel array");
                dst[off..off + n].copy_from_slice(&cols[0][..n]);
            }
            base += KCHUNK as i64;
        }
        self.vm.kcols = cols;
        self.vm.kscalars = svals;
        self.fuel -= cost;
        // Post-loop state: `DoCheck` writes `Int(i)` into the slot each
        // iteration (last write: `hi`); `DoIncr` leaves the induction
        // register one step past the bound.
        let sl = &mut cur.slots[var as usize];
        sl.val = Value::Int(hi);
        sl.live = true;
        cur.regs[ri as usize] = Value::Int(hi + 1);
        Some(trip)
    }
}

/// Pins the commutative-op NaN choice to the scalar engines' behavior:
/// the left operand's NaN propagates, else the right's, else the
/// hardware result (`r`, which covers invalid ops like `inf - inf`).
/// Exact for quiet NaNs — the only kind floating-point ops produce —
/// and the selects if-convert to compare+blend, so the column loops
/// still autovectorize.
#[inline(always)]
fn nan_left(x: f64, y: f64, r: f64) -> f64 {
    if x.is_nan() {
        x
    } else if y.is_nan() {
        y
    } else {
        r
    }
}

/// Resolves one kernel array reference to its `f64` buffer, mirroring
/// the generic instructions' base resolution (unset plain locals and
/// non-array values resolve to `None` — the caller falls back). Field
/// arrays re-resolve per access, so aliasing between entries is simply
/// correct: reads always see the latest writes.
fn karr_ref<'v>(
    a: &KArr,
    slots: &'v [VmSlot],
    globals: &'v [Value],
    names: &[Arc<str>],
) -> Option<&'v Vec<f64>> {
    let base: &Value = match a.bind {
        VarBind::Local(s) => {
            let sl = &slots[s as usize];
            if !sl.live {
                return None;
            }
            &sl.val
        }
        VarBind::LocalOrGlobal(s, g) => {
            if slots[s as usize].live {
                &slots[s as usize].val
            } else {
                &globals[g as usize]
            }
        }
        VarBind::Global(g) => &globals[g as usize],
    };
    let v = match a.field {
        None => base,
        Some(f) => {
            let Value::Derived(m) = base else {
                return None;
            };
            m.get(&*names[f as usize])?
        }
    };
    match v {
        Value::RealArray(arr) => Some(arr),
        _ => None,
    }
}

/// Mutable twin of [`karr_ref`] for store targets.
fn karr_mut<'v>(
    a: &KArr,
    slots: &'v mut [VmSlot],
    globals: &'v mut [Value],
    names: &[Arc<str>],
) -> Option<&'v mut Vec<f64>> {
    let base: &mut Value = match a.bind {
        VarBind::Local(s) => {
            let sl = &mut slots[s as usize];
            if !sl.live {
                return None;
            }
            &mut sl.val
        }
        VarBind::LocalOrGlobal(s, g) => {
            if slots[s as usize].live {
                &mut slots[s as usize].val
            } else {
                &mut globals[g as usize]
            }
        }
        VarBind::Global(g) => &mut globals[g as usize],
    };
    let v = match a.field {
        None => base,
        Some(f) => {
            let Value::Derived(m) = base else {
                return None;
            };
            m.get_mut(&*names[f as usize])?
        }
    };
    match v {
        Value::RealArray(arr) => Some(arr),
        _ => None,
    }
}

/// Resolves a fused operand (see [`Src`]) to a value reference. Unset
/// fused locals raise the interpreter's `undefined variable` error —
/// slot names come from the proc's `local_names` table, so the message
/// matches the unfused `LoadLocal` byte for byte.
#[inline(always)]
fn vm_src<'a>(
    s: Src,
    regs: &'a [Value],
    slots: &'a [VmSlot],
    consts: &'a [Value],
    local_names: &[std::sync::Arc<str>],
    module: &str,
    line: u32,
) -> RunResult<&'a Value> {
    match s.kind() {
        SrcKind::Reg(r) => Ok(&regs[r as usize]),
        SrcKind::Const(k) => Ok(&consts[k as usize]),
        SrcKind::Local(sl) => {
            let slot = &slots[sl as usize];
            if !slot.live {
                return Err(RuntimeError::new(
                    format!("undefined variable '{}'", local_names[sl as usize]),
                    module,
                    line,
                ));
            }
            Ok(&slot.val)
        }
    }
}

/// Integer coercion of a register value: integer, or real truncated.
fn vm_int(v: &Value, module: &str, line: u32) -> RunResult<i64> {
    v.as_i64()
        .or_else(|| v.as_f64().map(|f| f as i64))
        .ok_or_else(|| {
            RuntimeError::new(
                format!("expected integer, got {}", v.type_name()),
                module,
                line,
            )
        })
}

/// Subscript coercion of a register value: coerce, lower-bound check,
/// 0-base.
fn vm_index(v: &Value, module: &str, line: u32) -> RunResult<usize> {
    let x = vm_int(v, module, line)?;
    if x < 1 {
        return Err(RuntimeError::new(
            format!("subscript {x} below lower bound 1"),
            module,
            line,
        ));
    }
    Ok(x as usize - 1)
}

/// Reads a register that a `ToInt`/`ToExtent`/`LoadConst Int` guarantees
/// holds an integer.
fn vm_int_reg(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        other => unreachable!("register not coerced to Int: {other:?}"),
    }
}

/// The structural checks of a `base%field` read: unset-local precheck,
/// derived-base check, field lookup — returns the field value.
#[allow(clippy::too_many_arguments)]
fn vm_field_check<'v>(
    bind: VarBind,
    slots: &'v [VmSlot],
    globals: &'v [Value],
    name: &str,
    field: &str,
    err: &str,
    module: &str,
    line: u32,
) -> RunResult<&'v Value> {
    let base: &Value = match bind {
        VarBind::Local(s) => {
            let sl = &slots[s as usize];
            if !sl.live {
                return Err(RuntimeError::new(
                    format!("undefined variable '{name}'"),
                    module,
                    line,
                ));
            }
            &sl.val
        }
        VarBind::LocalOrGlobal(s, g) => {
            if slots[s as usize].live {
                &slots[s as usize].val
            } else {
                &globals[g as usize]
            }
        }
        VarBind::Global(g) => &globals[g as usize],
    };
    let Value::Derived(fields) = base else {
        return Err(RuntimeError::new(err.to_string(), module, line));
    };
    fields
        .get(field)
        .ok_or_else(|| RuntimeError::new(format!("no field {field}"), module, line))
}

/// Resolves `config.samples` into the executor's positional capture plans:
/// module-level scans, and per proc (indexed by proc) the `(frame slot,
/// sample idx)` snapshots taken on return. Specs the program cannot host
/// are simply never captured — the interpreter behaves the same.
fn build_sample_plans(
    program: &Program,
    config: &RunConfig,
) -> (Vec<ModulePlan>, Vec<Vec<(u32, u32)>>) {
    let mut module_plan = Vec::new();
    let mut local_plan = vec![Vec::new(); program.procs.len()];
    for (idx, spec) in config.samples.iter().enumerate() {
        let idx = idx as u32;
        match &spec.subprogram {
            None => module_plan.push(ModulePlan {
                global: program.global_slot(&spec.module, &spec.name),
                field: spec.name.clone(),
                idx,
            }),
            Some(sub) => {
                let Some(proc) = program.proc_index(&spec.module, sub) else {
                    continue;
                };
                let Some(slot) = program.procs[proc as usize]
                    .local_names
                    .iter()
                    .position(|n| **n == *spec.name)
                else {
                    continue;
                };
                local_plan[proc as usize].push((slot as u32, idx));
            }
        }
    }
    (module_plan, local_plan)
}

/// Indexes a field value without cloning the array (the interpreter's
/// `index_value`, minus the defensive whole-array clone).
fn index_in_place(fv: &Value, idx: usize, name: &str, module: &str, line: u32) -> RunResult<Value> {
    match fv {
        Value::RealArray(v) => v.get(idx).map(|&x| Value::Real(x)).ok_or_else(|| {
            RuntimeError::new(
                format!(
                    "subscript {} out of bounds for {name} (len {})",
                    idx + 1,
                    v.len()
                ),
                module,
                line,
            )
        }),
        other => Err(RuntimeError::new(
            format!("cannot index {} '{name}'", other.type_name()),
            module,
            line,
        )),
    }
}
