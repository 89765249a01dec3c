//! Per-procedure dataflow framework over the slot-indexed IR.
//!
//! Unlike the dependence mirror in [`crate::deps`] (which reproduces the
//! metagraph's §4.2 *static* edge rules, control flow ignored), this
//! module models **runtime semantics**: a real control-flow graph per
//! procedure — `if` arms, `do`/`do while` loops with back edges, `exit` /
//! `cycle` / `return` — and ordered use/def events per basic block, with
//! classic worklist solvers on top:
//!
//! - **reaching definitions** (forward, def-id bitvectors, strong defs
//!   kill), from which one pass marks every definition some use reads
//!   (the dead-store lint) and finds the reads no definition reaches
//!   (the uninitialized-read lint).
//!
//! The domain is the procedure's frame slots. Global reads/writes are
//! recorded as events but the solver tracks locals only:
//! cross-procedure global flow belongs to the dependence graph, and the
//! lints built here restrict themselves to provable frame-local facts.

use rca_sim::effects::{walk_expr, walk_stmt, walk_template, BitSet, Effect, Part};
use rca_sim::{CProc, CStmt, EId, LocalTemplate, Program, VarBind};
use std::ops::ControlFlow::Continue;

/// A tracked storage location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loc {
    /// Frame slot of the procedure under analysis.
    Local(u32),
    /// Module global slot.
    Global(u32),
}

/// Why a definition event exists (lints select on this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefOrigin {
    /// Dummy binding at procedure entry.
    Entry,
    /// Declaration template (all declared locals are initialized at frame
    /// entry, implicit zero for scalars without initializers).
    Init,
    /// Explicit assignment statement.
    Assign,
    /// Call-site copy-out writeback.
    CopyOut,
    /// `random_number` / `pbuf_get_field` write.
    IntrinsicWrite,
    /// `do` loop variable (set before the first test, again per
    /// iteration).
    DoVar,
}

/// One ordered use/def event inside a basic block.
#[derive(Debug, Clone, Copy)]
pub enum Event {
    /// A read. `certain` means the read unconditionally consults the
    /// local frame slot (a scalar `Var` read with a pure-local binding) —
    /// the only reads the uninitialized-read lint may flag.
    Use { loc: Loc, line: u32, certain: bool },
    /// A write. `strong` means the whole location is overwritten
    /// (scalar assignment); element/field writes are weak.
    Def {
        loc: Loc,
        line: u32,
        strong: bool,
        origin: DefOrigin,
    },
}

/// A basic block: ordered events plus successor edges.
#[derive(Debug, Default)]
pub struct Block {
    /// Ordered use/def events.
    pub events: Vec<Event>,
    /// Successor block ids.
    pub succs: Vec<u32>,
}

/// Control-flow graph of one procedure.
#[derive(Debug)]
pub struct Cfg {
    /// Blocks; block 0 is the entry, block 1 the synthetic exit.
    pub blocks: Vec<Block>,
    /// Frame slot count (solver domain).
    pub n_locals: usize,
}

impl Cfg {
    /// Entry block id.
    pub const ENTRY: u32 = 0;
    /// Synthetic exit block id.
    pub const EXIT: u32 = 1;

    /// Blocks reachable from entry (unreachable code is excluded from
    /// lint reporting).
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.blocks.len()];
        let mut stack = vec![Self::ENTRY];
        seen[Self::ENTRY as usize] = true;
        while let Some(b) = stack.pop() {
            for &s in &self.blocks[b as usize].succs {
                if !seen[s as usize] {
                    seen[s as usize] = true;
                    stack.push(s);
                }
            }
        }
        seen
    }
}

/// One local-slot definition site (solver def-id space).
#[derive(Debug, Clone, Copy)]
pub struct DefInfo {
    /// Containing block.
    pub block: u32,
    /// Event index within the block.
    pub event: u32,
    /// Defined frame slot.
    pub slot: u32,
    /// Whole-location overwrite?
    pub strong: bool,
    /// Source line (0 for synthetic entry defs).
    pub line: u32,
    /// Provenance.
    pub origin: DefOrigin,
}

/// A read no definition can reach on any path.
#[derive(Debug, Clone, Copy)]
pub struct UninitRead {
    /// Read frame slot.
    pub slot: u32,
    /// Source line.
    pub line: u32,
}

/// Dataflow results for one procedure.
#[derive(Debug)]
pub struct ProcFlow {
    /// Index into `Program::ir_procs`.
    pub proc: u32,
    /// The control-flow graph.
    pub cfg: Cfg,
    /// All local definitions, in block/event order.
    pub defs: Vec<DefInfo>,
    /// `used[d]`: some use reads the value of definition `d`.
    pub used: Vec<bool>,
    /// Reads of pure-local scalars with an empty reaching-definition set
    /// (in entry-reachable blocks only).
    pub uninit: Vec<UninitRead>,
}

struct CfgBuilder<'p> {
    proc: &'p CProc,
    blocks: Vec<Block>,
    cur: u32,
}

struct LoopCtx {
    head: u32,
    after: u32,
}

impl<'p> CfgBuilder<'p> {
    fn new_block(&mut self) -> u32 {
        let id = self.blocks.len() as u32;
        self.blocks.push(Block::default());
        id
    }

    fn push(&mut self, ev: Event) {
        self.blocks[self.cur as usize].events.push(ev);
    }

    fn link(&mut self, from: u32, to: u32) {
        self.blocks[from as usize].succs.push(to);
    }

    fn use_of(&mut self, bind: VarBind, line: u32, certain: bool) {
        match bind {
            VarBind::Local(s) => self.push(Event::Use {
                loc: Loc::Local(s),
                line,
                certain,
            }),
            VarBind::LocalOrGlobal(s, g) => {
                // Reads consult the slot when set, the global otherwise:
                // record both, neither certain.
                self.push(Event::Use {
                    loc: Loc::Local(s),
                    line,
                    certain: false,
                });
                self.push(Event::Use {
                    loc: Loc::Global(g),
                    line,
                    certain: false,
                });
            }
            VarBind::Global(g) => self.push(Event::Use {
                loc: Loc::Global(g),
                line,
                certain: false,
            }),
        }
    }

    /// A write through `bind`: `strong` when it overwrites the whole
    /// location. A `LocalOrGlobal` write lands on whichever of the two is
    /// active, so it is weak on both.
    fn def_of(&mut self, bind: VarBind, line: u32, strong: bool, origin: DefOrigin) {
        match bind {
            VarBind::Local(s) => self.push(Event::Def {
                loc: Loc::Local(s),
                line,
                strong,
                origin,
            }),
            VarBind::LocalOrGlobal(s, g) => {
                for loc in [Loc::Local(s), Loc::Global(g)] {
                    self.push(Event::Def {
                        loc,
                        line,
                        strong: false,
                        origin,
                    });
                }
            }
            VarBind::Global(g) => self.push(Event::Def {
                loc: Loc::Global(g),
                line,
                strong,
                origin,
            }),
        }
    }

    /// Runtime-semantics events of one effect, in evaluation order: a
    /// read is a use; a whole write is a def, while an element or field
    /// write reads the rest of its container and defines it weakly.
    /// Writes take `origin` unless they are a call's copy-out.
    fn effect(&mut self, e: Effect<'_>, line: u32, origin: DefOrigin) {
        match e {
            // A whole or field read of a pure local consults the slot
            // unconditionally; an element read may take a call fallback.
            Effect::Read { bind, part } => {
                let certain = part != Part::Elem && matches!(bind, VarBind::Local(_));
                self.use_of(bind, line, certain);
            }
            Effect::Write {
                bind,
                part,
                copy_out,
            } => {
                let origin = if copy_out { DefOrigin::CopyOut } else { origin };
                if part != Part::Whole {
                    self.use_of(bind, line, false);
                }
                self.def_of(bind, line, part == Part::Whole, origin);
            }
            _ => {}
        }
    }

    /// Everything evaluated before a statement acts is a use; calls embed
    /// their argument uses and copy-out defs.
    fn expr(&mut self, e: EId, line: u32) {
        let _ = walk_expr(self.proc, e, &mut |ef| {
            self.effect(ef, line, DefOrigin::CopyOut);
            Continue(())
        });
    }

    /// Uses of a declaration template's initializer or extents.
    fn template(&mut self, tpl: &LocalTemplate, line: u32) {
        let _ = walk_template(self.proc, tpl, &mut |ef| {
            self.effect(ef, line, DefOrigin::CopyOut);
            Continue(())
        });
    }

    /// Events of a straight-line statement; its own writes take `origin`.
    fn simple_stmt(&mut self, s: &CStmt, line: u32, origin: DefOrigin) {
        let _ = walk_stmt(self.proc, s, &mut |ef| {
            self.effect(ef, line, origin);
            Continue(())
        });
    }

    fn stmts(&mut self, body: &'p [CStmt], loops: &mut Vec<LoopCtx>) {
        for stmt in body {
            match stmt {
                CStmt::Assign { line, .. } => self.simple_stmt(stmt, *line, DefOrigin::Assign),
                CStmt::RandomNumber { line, .. } | CStmt::PbufGet { line, .. } => {
                    self.simple_stmt(stmt, *line, DefOrigin::IntrinsicWrite);
                }
                // Calls, history writes and pbuf sets define caller places
                // only through copy-out.
                CStmt::Call { line, .. }
                | CStmt::Outfld { line, .. }
                | CStmt::PbufSet { line, .. } => {
                    self.simple_stmt(stmt, *line, DefOrigin::CopyOut);
                }
                CStmt::If { arms, line } => {
                    let join = self.new_block();
                    let mut has_else = false;
                    for (cond, block) in arms {
                        match cond {
                            Some(c) => {
                                self.expr(*c, *line);
                                let body = self.new_block();
                                let next = self.new_block();
                                self.link(self.cur, body);
                                self.link(self.cur, next);
                                self.cur = body;
                                self.stmts(block, loops);
                                self.link(self.cur, join);
                                self.cur = next;
                            }
                            None => {
                                has_else = true;
                                self.stmts(block, loops);
                                self.link(self.cur, join);
                                // Continuation after an else never falls
                                // through.
                                self.cur = self.new_block();
                            }
                        }
                    }
                    if !has_else {
                        self.link(self.cur, join);
                    }
                    self.cur = join;
                }
                CStmt::Do {
                    var,
                    start,
                    end,
                    step,
                    body,
                    line,
                } => {
                    // Bounds evaluate once; the loop variable is assigned
                    // before the first test and again per iteration.
                    self.expr(*start, *line);
                    self.expr(*end, *line);
                    if let Some(s) = step {
                        self.expr(*s, *line);
                    }
                    self.push(Event::Def {
                        loc: Loc::Local(*var),
                        line: *line,
                        strong: true,
                        origin: DefOrigin::DoVar,
                    });
                    let head = self.new_block();
                    let body_block = self.new_block();
                    let after = self.new_block();
                    self.link(self.cur, head);
                    self.blocks[head as usize].events.push(Event::Def {
                        loc: Loc::Local(*var),
                        line: *line,
                        strong: true,
                        origin: DefOrigin::DoVar,
                    });
                    self.link(head, body_block);
                    self.link(head, after);
                    self.cur = body_block;
                    loops.push(LoopCtx { head, after });
                    self.stmts(body, loops);
                    loops.pop();
                    self.link(self.cur, head);
                    self.cur = after;
                }
                CStmt::DoWhile { cond, body, line } => {
                    let head = self.new_block();
                    let body_block = self.new_block();
                    let after = self.new_block();
                    self.link(self.cur, head);
                    self.cur = head;
                    self.expr(*cond, *line);
                    self.link(head, body_block);
                    self.link(head, after);
                    self.cur = body_block;
                    loops.push(LoopCtx { head, after });
                    self.stmts(body, loops);
                    loops.pop();
                    self.link(self.cur, head);
                    self.cur = after;
                }
                CStmt::Return => {
                    self.link(self.cur, Cfg::EXIT);
                    self.cur = self.new_block();
                }
                CStmt::Exit => {
                    if let Some(l) = loops.last() {
                        let after = l.after;
                        self.link(self.cur, after);
                    } else {
                        self.link(self.cur, Cfg::EXIT);
                    }
                    self.cur = self.new_block();
                }
                CStmt::Cycle => {
                    if let Some(l) = loops.last() {
                        let head = l.head;
                        self.link(self.cur, head);
                    } else {
                        self.link(self.cur, Cfg::EXIT);
                    }
                    self.cur = self.new_block();
                }
                CStmt::Nop => {}
                CStmt::ErrorStmt { .. } => {
                    // A deferred runtime error aborts the run.
                    self.link(self.cur, Cfg::EXIT);
                    self.cur = self.new_block();
                }
            }
        }
    }
}

/// Builds the CFG of one procedure, entry events (dummy bindings, then
/// declaration templates in order) included.
pub fn build_cfg(prog: &Program, proc_index: u32) -> Cfg {
    let proc = &prog.ir_procs()[proc_index as usize];
    let mut b = CfgBuilder {
        proc,
        blocks: vec![Block::default(), Block::default()],
        cur: Cfg::ENTRY,
    };
    for &slot in &b.proc.arg_slots {
        b.push(Event::Def {
            loc: Loc::Local(slot),
            line: 0,
            strong: true,
            origin: DefOrigin::Entry,
        });
    }
    // Declaration templates run in order; initializer expressions are
    // evaluated before their slot is set, so a template reading a
    // later-declared local is a visible uninitialized read.
    for (slot, decl_line, tmpl) in &proc.inits {
        b.template(tmpl, *decl_line);
        b.push(Event::Def {
            loc: Loc::Local(*slot),
            line: *decl_line,
            strong: true,
            origin: DefOrigin::Init,
        });
    }
    let mut loops = Vec::new();
    b.stmts(&proc.body, &mut loops);
    b.link(b.cur, Cfg::EXIT);
    Cfg {
        blocks: b.blocks,
        n_locals: proc.n_locals,
    }
}

/// Runs reaching definitions for one procedure, then marks in one pass
/// which definitions some use reads and which reads no definition
/// reaches.
pub fn analyze_proc(prog: &Program, proc_index: u32) -> ProcFlow {
    let cfg = build_cfg(prog, proc_index);
    let proc = &prog.ir_procs()[proc_index as usize];
    let nb = cfg.blocks.len();

    // ---- Def enumeration (local slots only). -------------------------
    // Def ids are in block order: block `b` numbers its defs from
    // `first_def_of_block[b]`.
    let mut defs: Vec<DefInfo> = Vec::new();
    let mut defs_by_slot: Vec<Vec<u32>> = vec![Vec::new(); cfg.n_locals];
    let mut first_def_of_block: Vec<u32> = Vec::with_capacity(nb);
    for (bi, block) in cfg.blocks.iter().enumerate() {
        first_def_of_block.push(defs.len() as u32);
        for (ei, ev) in block.events.iter().enumerate() {
            if let Event::Def {
                loc: Loc::Local(s),
                line,
                strong,
                origin,
            } = *ev
            {
                let id = defs.len() as u32;
                defs.push(DefInfo {
                    block: bi as u32,
                    event: ei as u32,
                    slot: s,
                    strong,
                    line,
                    origin,
                });
                defs_by_slot[s as usize].push(id);
            }
        }
    }
    let nd = defs.len();
    let slot_mask: Vec<BitSet> = defs_by_slot
        .iter()
        .map(|ids| {
            let mut m = BitSet::new(nd);
            for &i in ids {
                m.insert(i as usize);
            }
            m
        })
        .collect();

    // ---- Reaching definitions (forward). -----------------------------
    let apply = |state: &mut BitSet, ev: &Event, id_at: &mut u32| {
        if let Event::Def {
            loc: Loc::Local(s),
            strong,
            ..
        } = *ev
        {
            if strong {
                state.subtract(&slot_mask[s as usize]);
            }
            state.insert(*id_at as usize);
            *id_at += 1;
        }
    };
    let mut rd_in: Vec<BitSet> = (0..nb).map(|_| BitSet::new(nd)).collect();
    let mut rd_out: Vec<BitSet> = (0..nb).map(|_| BitSet::new(nd)).collect();
    let mut preds: Vec<Vec<u32>> = vec![Vec::new(); nb];
    for (bi, block) in cfg.blocks.iter().enumerate() {
        for &s in &block.succs {
            preds[s as usize].push(bi as u32);
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for bi in 0..nb {
            let mut inset = BitSet::new(nd);
            for &pi in &preds[bi] {
                inset.union_with(&rd_out[pi as usize]);
            }
            let mut out = inset.clone();
            let mut id_at = first_def_of_block[bi];
            for ev in &cfg.blocks[bi].events {
                apply(&mut out, ev, &mut id_at);
            }
            rd_in[bi] = inset;
            if out != rd_out[bi] {
                rd_out[bi] = out;
                changed = true;
            }
        }
    }

    // ---- Used definitions + uninitialized reads. ---------------------
    let reachable = cfg.reachable();
    let is_arg = |s: u32| proc.arg_slots.contains(&s);
    let mut used = vec![false; nd];
    let mut uninit: Vec<UninitRead> = Vec::new();
    for (bi, block) in cfg.blocks.iter().enumerate() {
        let mut state = rd_in[bi].clone();
        let mut id_at = first_def_of_block[bi];
        for ev in &block.events {
            match *ev {
                Event::Use {
                    loc: Loc::Local(s),
                    line,
                    certain,
                } => {
                    let mut any = false;
                    for d in state.iter_ones() {
                        if defs[d].slot == s {
                            used[d] = true;
                            any = true;
                        }
                    }
                    if !any && certain && reachable[bi] && !is_arg(s) {
                        uninit.push(UninitRead { slot: s, line });
                    }
                }
                _ => apply(&mut state, ev, &mut id_at),
            }
        }
    }

    ProcFlow {
        proc: proc_index,
        cfg,
        defs,
        used,
        uninit,
    }
}

impl ProcFlow {
    /// Dead stores: explicit scalar assignments to pure frame locals
    /// (never dummies, never the function result) whose value no use can
    /// observe — in entry-reachable code.
    pub fn dead_stores(&self, prog: &Program) -> Vec<DefInfo> {
        let proc = &prog.ir_procs()[self.proc as usize];
        let reachable = self.cfg.reachable();
        let mut out = Vec::new();
        for (d, info) in self.defs.iter().enumerate() {
            if !matches!(info.origin, DefOrigin::Assign) || !info.strong {
                continue;
            }
            if proc.arg_slots.contains(&info.slot) || proc.result_slot == Some(info.slot) {
                continue;
            }
            if !reachable[info.block as usize] {
                continue;
            }
            if !self.used[d] {
                out.push(*info);
            }
        }
        out
    }

    /// Which frame slots have *any* read event anywhere in the procedure
    /// (certain or not). Distinguishes a dead store to an otherwise-live
    /// variable (a redundant store, hygiene) from a store to a variable
    /// nothing ever reads (a definite defect).
    pub fn slots_read(&self) -> Vec<bool> {
        let mut read = vec![false; self.cfg.n_locals];
        for b in &self.cfg.blocks {
            for ev in &b.events {
                if let Event::Use {
                    loc: Loc::Local(s), ..
                } = ev
                {
                    read[*s as usize] = true;
                }
            }
        }
        read
    }
}
