//! Interprocedural dependence graph extracted from the compiled IR.
//!
//! This is a **second, independent implementation** of the metagraph's
//! §4.2 edge rules: where `rca_metagraph::builder` walks the AST with
//! textual scope resolution, this walk runs over the slot-indexed
//! [`Program`] and recovers the same `(module, subprogram, canonical)`
//! node universe from pre-resolved bindings. The differential suite in
//! `rca-core` holds the two node-for-node on every paper experiment —
//! the same fence the interpreter-vs-executor pair uses.
//!
//! Mirrored rules (paper §4.2 / §5.1):
//! - arrays are atomic: subscripts are ignored, subscript-only variables
//!   never become nodes;
//! - intrinsics localize per call site (`max_l42`);
//! - user calls fan out over *all* same-name candidates, actual-argument
//!   sources flow into dummy nodes, intents orient the edges;
//! - derived-type reads flow base → field, writes flow field → base;
//! - `outfld` populates the I/O registry without graph edges;
//! - control flow (if conditions, do headers) carries no data edges.
//!
//! Known, deliberate divergences (absent from the generated model, and
//! fenced by the differential suite): unknown external subroutines
//! (`ErrorStmt` here, bidirectional hub there), `random_seed` (no-op here,
//! isolated node there), variables shadowing intrinsic names, and array
//! locals with declaration initializers (the IR folds those away).

use std::collections::HashMap;
use std::collections::HashSet;

use rca_ident::{ModuleId, SymbolTable, VarId};
use rca_sim::{
    ArgFlow, CExpr, CPlace, CProc, CStmt, CallForm, EId, LocalTemplate, Program, VarBind,
};

/// Dependence-graph node identity: module, owning subprogram (`None` for
/// module scope), canonical variable name — all interned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triple {
    /// Owning module.
    pub module: ModuleId,
    /// Owning subprogram name (`None` = module-scope variable).
    pub sub: Option<VarId>,
    /// Canonical variable name (field name for derived-type elements).
    pub canonical: VarId,
}

/// Classification of a mutation site against output reachability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteClass {
    /// The assigned variable has a static dependence path to an `outfld`
    /// internal variable: a perturbation here is observable.
    Observable,
    /// The node exists but no path reaches any history output: a
    /// perturbation here is provably dead (it would corrupt campaign
    /// ground truth with unobservable "bugs").
    Dead,
    /// The assigned variable never became a dependence node (for example
    /// a statement form the graph does not model).
    Unmapped,
}

/// The IR-level dependence graph. Reverse adjacency only: every client —
/// slicing, output reachability, site classification — walks backward.
#[derive(Debug)]
pub struct DepGraph {
    syms: SymbolTable,
    nodes: Vec<Triple>,
    index: HashMap<Triple, u32>,
    preds: Vec<Vec<u32>>,
    by_canonical: HashMap<VarId, Vec<u32>>,
    io_internal: Vec<VarId>,
    edge_count: usize,
}

/// Per-subprogram resolution context (the IR analogue of the builder's
/// `Scope`: declared names resolve locally before any binding is
/// consulted).
struct ProcCtx<'p> {
    module: ModuleId,
    sub: VarId,
    declared: HashSet<&'p str>,
    /// The proc being walked: place bindings name slots through its
    /// `local_names`, expression ids and sites index its pools.
    proc: &'p CProc,
}

struct Mirror<'p> {
    prog: &'p Program,
    syms: SymbolTable,
    nodes: Vec<Triple>,
    index: HashMap<Triple, u32>,
    preds: Vec<Vec<u32>>,
    io_internal: Vec<VarId>,
    /// Raw program module id → interned [`ModuleId`].
    module_sym: Vec<ModuleId>,
    /// Global slot → node index (pre-created, like module decls).
    global_nodes: Vec<u32>,
    /// Subprogram name → function candidates / subroutine candidates
    /// (the IR analogue of `ProcTable::candidates`).
    fn_cands: HashMap<&'p str, Vec<u32>>,
    sub_cands: HashMap<&'p str, Vec<u32>>,
}

impl<'p> Mirror<'p> {
    fn node(&mut self, t: Triple) -> u32 {
        if let Some(&i) = self.index.get(&t) {
            return i;
        }
        let i = self.nodes.len() as u32;
        self.nodes.push(t);
        self.preds.push(Vec::new());
        self.index.insert(t, i);
        i
    }

    fn edge(&mut self, src: u32, dst: u32) {
        self.preds[dst as usize].push(src);
    }

    fn local_node(&mut self, ctx: &ProcCtx<'p>, name: &str) -> u32 {
        let canonical = self.syms.intern_var(name);
        self.node(Triple {
            module: ctx.module,
            sub: Some(ctx.sub),
            canonical,
        })
    }

    /// Mirrors `Builder::resolve_var`: declared names are subprogram-local;
    /// everything else follows the pre-resolved binding (globals carry
    /// their origin module through `use` renames), and unresolved names
    /// become implicit locals.
    fn resolve(&mut self, ctx: &ProcCtx<'p>, bind: VarBind, name: &str) -> u32 {
        if ctx.declared.contains(name) {
            return self.local_node(ctx, name);
        }
        match bind {
            VarBind::Global(g) | VarBind::LocalOrGlobal(_, g) => self.global_nodes[g as usize],
            VarBind::Local(_) => self.local_node(ctx, name),
        }
    }

    fn localized(&mut self, ctx: &ProcCtx<'p>, base: &str, line: u32) -> u32 {
        let name = format!("{base}_l{line}");
        self.local_node(ctx, &name)
    }

    /// Mirrors the intrinsic branch of `expr_sources`: inputs feed a
    /// per-call-site node which is the sole source.
    fn intrinsic_node(&mut self, ctx: &ProcCtx<'p>, name: &str, args: &[EId], line: u32) -> u32 {
        let inode = self.localized(ctx, name, line);
        let mut srcs = Vec::new();
        for &a in args {
            self.expr_sources(ctx, a, line, &mut srcs);
        }
        for s in srcs {
            self.edge(s, inode);
        }
        inode
    }

    /// Mirrors the user-function branch: argument sources map into every
    /// candidate's dummies; each candidate's result node flows out.
    fn function_call(&mut self, ctx: &ProcCtx<'p>, site: u32, line: u32, out: &mut Vec<u32>) {
        let prog = self.prog;
        let s = &ctx.proc.sites[site as usize];
        let name: &'p str = &prog.ir_procs()[s.proc as usize].name;
        let cands = self.fn_cands.get(name).cloned().unwrap_or_default();
        let mut arg_srcs: Vec<Vec<u32>> = Vec::with_capacity(s.args.len());
        for &a in &s.args {
            let mut srcs = Vec::new();
            self.expr_sources(ctx, a, line, &mut srcs);
            arg_srcs.push(srcs);
        }
        for cand in cands {
            let cp: &'p CProc = &prog.ir_procs()[cand as usize];
            let cmod = self.module_sym[cp.module_id as usize];
            let csub = self.syms.intern_var(&cp.name);
            for (i, srcs) in arg_srcs.iter().enumerate() {
                let Some(&slot) = cp.arg_slots.get(i) else {
                    continue;
                };
                let canonical = self.syms.intern_var(&cp.local_names[slot as usize]);
                let dnode = self.node(Triple {
                    module: cmod,
                    sub: Some(csub),
                    canonical,
                });
                for &s in srcs {
                    self.edge(s, dnode);
                }
            }
            let rslot = cp.result_slot.unwrap_or(0);
            let canonical = self.syms.intern_var(&cp.local_names[rslot as usize]);
            let rnode = self.node(Triple {
                module: cmod,
                sub: Some(csub),
                canonical,
            });
            out.push(rnode);
        }
    }

    /// Mirrors `Builder::expr_sources` over the proc's expression pool.
    fn expr_sources(&mut self, ctx: &ProcCtx<'p>, e: EId, line: u32, out: &mut Vec<u32>) {
        match &ctx.proc.exprs[e as usize] {
            CExpr::Real(_) | CExpr::Int(_) | CExpr::Str(_) | CExpr::Logical(_) => {}
            CExpr::Var { bind, name } => {
                let n = self.resolve(ctx, *bind, name);
                out.push(n);
            }
            CExpr::Index {
                bind,
                name,
                fallback,
                ..
            } => match fallback.as_deref() {
                Some(CallForm::Function(site)) if !ctx.declared.contains(name.as_ref()) => {
                    self.function_call(ctx, *site, line, out);
                }
                Some(CallForm::Intrinsic(which, args)) if !ctx.declared.contains(name.as_ref()) => {
                    let inode = self.intrinsic_node(ctx, which.name(), args, line);
                    out.push(inode);
                }
                // Arrays are atomic: the reference is the whole variable,
                // subscripts carry index (not value) information.
                _ => {
                    let n = self.resolve(ctx, *bind, name);
                    out.push(n);
                }
            },
            CExpr::CallFn { site } => self.function_call(ctx, *site, line, out),
            CExpr::Intrinsic { which, args } => {
                let inode = self.intrinsic_node(ctx, which.name(), args, line);
                out.push(inode);
            }
            CExpr::DerivedVar {
                bind, name, field, ..
            } => {
                // Read a%b: the aggregate feeds the element node.
                let fnode = self.local_node(ctx, field);
                let bnode = self.resolve(ctx, *bind, name);
                self.edge(bnode, fnode);
                out.push(fnode);
            }
            CExpr::DerivedExpr { base, field, .. } => {
                let fnode = self.local_node(ctx, field);
                let mut base_srcs = Vec::new();
                self.expr_sources(ctx, *base, line, &mut base_srcs);
                for b in base_srcs {
                    self.edge(b, fnode);
                }
                out.push(fnode);
            }
            CExpr::Unary { e, .. } => self.expr_sources(ctx, *e, line, out),
            CExpr::Binary { l, r, .. } => {
                self.expr_sources(ctx, *l, line, out);
                self.expr_sources(ctx, *r, line, out);
            }
            // The fused form reads exactly the operands of the unfused
            // `a*b ± c` tree.
            CExpr::MaybeFma { a, b, c, .. } => {
                self.expr_sources(ctx, *a, line, out);
                self.expr_sources(ctx, *b, line, out);
                self.expr_sources(ctx, *c, line, out);
            }
            CExpr::ErrorExpr { .. } => {}
        }
    }

    /// Mirrors `Builder::target_node` for assignment places, emitting the
    /// write-direction derived edge (`field → base`).
    fn target_from_place(&mut self, ctx: &ProcCtx<'p>, place: &'p CPlace) -> Option<u32> {
        let prog = self.prog;
        match place {
            CPlace::Var { bind } => {
                let name: &'p str = match *bind {
                    VarBind::Local(s) | VarBind::LocalOrGlobal(s, _) => {
                        &ctx.proc.local_names[s as usize]
                    }
                    VarBind::Global(g) => &prog.global_origins()[g as usize].1,
                };
                Some(self.resolve(ctx, *bind, name))
            }
            CPlace::Elem { bind, name, .. } => Some(self.resolve(ctx, *bind, name)),
            CPlace::Derived {
                bind, name, field, ..
            } => {
                let fnode = self.local_node(ctx, field);
                let bnode = self.resolve(ctx, *bind, name);
                self.edge(fnode, bnode);
                Some(fnode)
            }
            CPlace::Invalid { .. } => None,
        }
    }

    /// Mirrors `Builder::target_node` for out-intent actual arguments.
    fn target_from_expr(&mut self, ctx: &ProcCtx<'p>, e: EId) -> Option<u32> {
        let prog = self.prog;
        match &ctx.proc.exprs[e as usize] {
            CExpr::Var { bind, name } => Some(self.resolve(ctx, *bind, name)),
            CExpr::Index { bind, name, .. } => Some(self.resolve(ctx, *bind, name)),
            CExpr::CallFn { site } => {
                let name: &'p str =
                    &prog.ir_procs()[ctx.proc.sites[*site as usize].proc as usize].name;
                Some(self.local_node(ctx, name))
            }
            CExpr::DerivedVar {
                bind, name, field, ..
            } => {
                let fnode = self.local_node(ctx, field);
                let bnode = self.resolve(ctx, *bind, name);
                self.edge(fnode, bnode);
                Some(fnode)
            }
            CExpr::DerivedExpr { base, field, .. } => {
                let fnode = self.local_node(ctx, field);
                if let Some(b) = self.target_from_expr(ctx, *base) {
                    self.edge(fnode, b);
                }
                Some(fnode)
            }
            _ => None,
        }
    }

    /// Mirrors the known-subroutine branch of `process_call`: intents
    /// orient edges per candidate, extra actuals beyond the dummy list are
    /// skipped.
    fn subroutine_call(&mut self, ctx: &ProcCtx<'p>, site: u32, line: u32) {
        let prog = self.prog;
        let s = &ctx.proc.sites[site as usize];
        let name: &'p str = &prog.ir_procs()[s.proc as usize].name;
        let cands = self.sub_cands.get(name).cloned().unwrap_or_default();
        for cand in cands {
            let cp: &'p CProc = &prog.ir_procs()[cand as usize];
            let cmod = self.module_sym[cp.module_id as usize];
            let csub = self.syms.intern_var(&cp.name);
            for (i, &arg) in s.args.iter().enumerate() {
                let Some(&slot) = cp.arg_slots.get(i) else {
                    continue;
                };
                let flow = cp.arg_flows.get(i).copied().unwrap_or(ArgFlow::Unknown);
                let canonical = self.syms.intern_var(&cp.local_names[slot as usize]);
                let dnode = self.node(Triple {
                    module: cmod,
                    sub: Some(csub),
                    canonical,
                });
                if !matches!(flow, ArgFlow::Out) {
                    let mut srcs = Vec::new();
                    self.expr_sources(ctx, arg, line, &mut srcs);
                    for s in srcs {
                        self.edge(s, dnode);
                    }
                }
                if !matches!(flow, ArgFlow::In) {
                    if let Some(t) = self.target_from_expr(ctx, arg) {
                        self.edge(dnode, t);
                    }
                }
            }
        }
    }

    /// Mirrors the I/O-registry branch: the first argument with a
    /// canonical name is the internal variable; its reference is walked
    /// (so the node exists) but produces no assignment edges.
    fn outfld(&mut self, ctx: &ProcCtx<'p>, data: EId, ncol: Option<EId>, line: u32) {
        let prog = self.prog;
        for cand in std::iter::once(data).chain(ncol) {
            let canonical = match &ctx.proc.exprs[cand as usize] {
                CExpr::Var { name, .. } | CExpr::Index { name, .. } => Some(name.clone()),
                CExpr::DerivedVar { field, .. } | CExpr::DerivedExpr { field, .. } => {
                    Some(field.clone())
                }
                CExpr::CallFn { site } => Some(
                    prog.ir_procs()[ctx.proc.sites[*site as usize].proc as usize]
                        .name
                        .clone(),
                ),
                CExpr::Intrinsic { which, .. } => Some(Arc::from(which.name())),
                _ => None,
            };
            if let Some(c) = canonical {
                let mut srcs = Vec::new();
                self.expr_sources(ctx, cand, line, &mut srcs);
                let id = self.syms.intern_var(&c);
                self.io_internal.push(id);
                return;
            }
        }
    }

    fn stmts(&mut self, ctx: &ProcCtx<'p>, body: &'p [CStmt]) {
        for stmt in body {
            match stmt {
                CStmt::Assign { place, value, line } => {
                    // An unresolvable target skips the whole statement,
                    // sources included.
                    let Some(t) = self.target_from_place(ctx, place) else {
                        continue;
                    };
                    let mut srcs = Vec::new();
                    self.expr_sources(ctx, *value, *line, &mut srcs);
                    for s in srcs {
                        self.edge(s, t);
                    }
                }
                CStmt::Call { site, line } => self.subroutine_call(ctx, *site, *line),
                CStmt::Outfld {
                    data, ncol, line, ..
                } => self.outfld(ctx, *data, *ncol, *line),
                CStmt::RandomNumber { place, line, .. } => {
                    let gnode = self.localized(ctx, "random_number", *line);
                    if let Some(t) = self.target_from_place(ctx, place) {
                        self.edge(gnode, t);
                    }
                }
                CStmt::PbufSet { idx, data, line } => {
                    let hub = self.localized(ctx, "pbuf_set_field", *line);
                    let mut srcs = Vec::new();
                    self.expr_sources(ctx, *idx, *line, &mut srcs);
                    self.expr_sources(ctx, *data, *line, &mut srcs);
                    for s in srcs {
                        self.edge(s, hub);
                    }
                }
                CStmt::PbufGet {
                    idx, place, line, ..
                } => {
                    let hub = self.localized(ctx, "pbuf_get_field", *line);
                    let mut srcs = Vec::new();
                    self.expr_sources(ctx, *idx, *line, &mut srcs);
                    for s in srcs {
                        self.edge(s, hub);
                    }
                    if let Some(t) = self.target_from_place(ctx, place) {
                        self.edge(hub, t);
                    }
                }
                CStmt::If { arms, .. } => {
                    // Conditions carry control, not data.
                    for (_, block) in arms {
                        self.stmts(ctx, block);
                    }
                }
                CStmt::Do { body, .. } | CStmt::DoWhile { body, .. } => self.stmts(ctx, body),
                CStmt::Return | CStmt::Exit | CStmt::Cycle | CStmt::Nop => {}
                CStmt::ErrorStmt { .. } => {}
            }
        }
    }
}

use std::sync::Arc;

impl DepGraph {
    /// Extracts the dependence graph from a compiled program. The
    /// program's interner seeds the graph's symbol table (append-only
    /// extension: every program id stays valid).
    pub fn build(prog: &Program) -> DepGraph {
        let syms: SymbolTable = (**prog.symbols()).clone();
        let mut m = Mirror {
            prog,
            syms,
            nodes: Vec::new(),
            index: HashMap::new(),
            preds: Vec::new(),
            io_internal: Vec::new(),
            module_sym: Vec::new(),
            global_nodes: Vec::new(),
            fn_cands: HashMap::new(),
            sub_cands: HashMap::new(),
        };
        for name in prog.ir_module_names() {
            let id = m.syms.intern_module(name);
            m.module_sym.push(id);
        }
        for (i, p) in prog.ir_procs().iter().enumerate() {
            let key: &str = &p.name;
            if p.result_slot.is_some() {
                m.fn_cands.entry(key).or_default().push(i as u32);
            } else {
                m.sub_cands.entry(key).or_default().push(i as u32);
            }
        }
        // Module declarations first (every module variable exists as a
        // node even without an initializer), then the initializer
        // dependencies the compiler's constant folding erased.
        for g in 0..prog.global_count() {
            let (mid, name) = &prog.global_origins()[g];
            let module = m.module_sym[*mid as usize];
            let canonical = m.syms.intern_var(name);
            let n = m.node(Triple {
                module,
                sub: None,
                canonical,
            });
            m.global_nodes.push(n);
        }
        for &(src, dst) in prog.global_init_deps() {
            let s = m.global_nodes[src as usize];
            let d = m.global_nodes[dst as usize];
            m.edge(s, d);
        }
        // Subprogram bodies, declaration initializers first.
        for p in prog.ir_procs() {
            let module = m.module_sym[p.module_id as usize];
            let sub = m.syms.intern_var(&p.name);
            let mut declared: HashSet<&str> = HashSet::new();
            for &slot in &p.arg_slots {
                declared.insert(&p.local_names[slot as usize]);
            }
            for d in &p.declared_locals {
                declared.insert(d);
            }
            if let Some(r) = p.result_slot {
                declared.insert(&p.local_names[r as usize]);
            }
            let ctx = ProcCtx {
                module,
                sub,
                declared,
                proc: p,
            };
            for (slot, decl_line, tmpl) in &p.inits {
                let init = match tmpl {
                    LocalTemplate::Int(Some(e))
                    | LocalTemplate::Logic(Some(e))
                    | LocalTemplate::Char(Some(e))
                    | LocalTemplate::RealVal(Some(e)) => Some(*e),
                    _ => None,
                };
                if let Some(e) = init {
                    let name: &str = &p.local_names[*slot as usize];
                    let t = m.resolve(&ctx, VarBind::Local(*slot), name);
                    let mut srcs = Vec::new();
                    m.expr_sources(&ctx, e, *decl_line, &mut srcs);
                    for s in srcs {
                        m.edge(s, t);
                    }
                }
            }
            m.stmts(&ctx, &p.body);
        }
        // Freeze: dedup reverse adjacency, index canonical names.
        let mut edge_count = 0;
        for preds in &mut m.preds {
            preds.sort_unstable();
            preds.dedup();
            edge_count += preds.len();
        }
        let mut by_canonical: HashMap<VarId, Vec<u32>> = HashMap::new();
        for (i, t) in m.nodes.iter().enumerate() {
            by_canonical.entry(t.canonical).or_default().push(i as u32);
        }
        m.io_internal.sort_unstable();
        m.io_internal.dedup();
        DepGraph {
            syms: m.syms,
            nodes: m.nodes,
            index: m.index,
            preds: m.preds,
            by_canonical,
            io_internal: m.io_internal,
            edge_count,
        }
    }

    /// All nodes, in creation order.
    pub fn nodes(&self) -> &[Triple] {
        &self.nodes
    }

    /// Node count.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Deduplicated edge count.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The graph's symbol table (program interner plus names this walk
    /// appended: localized intrinsics, derived fields, implicit locals).
    pub fn symbols(&self) -> &SymbolTable {
        &self.syms
    }

    /// Canonical names of `outfld` internal variables (the I/O registry
    /// seeds for output reachability).
    pub fn io_internal(&self) -> &[VarId] {
        &self.io_internal
    }

    /// Direct predecessors (dependence sources) of a node.
    pub fn preds_of(&self, node: u32) -> &[u32] {
        &self.preds[node as usize]
    }

    /// All nodes whose canonical name matches `name`.
    pub fn nodes_with_canonical(&self, name: &str) -> Vec<u32> {
        let Some(id) = self.syms.var_id(name) else {
            return Vec::new();
        };
        self.by_canonical.get(&id).cloned().unwrap_or_default()
    }

    /// Node lookup by rendered identity.
    pub fn find(&self, module: &str, sub: Option<&str>, name: &str) -> Option<u32> {
        let module = self.syms.module_id(module)?;
        let canonical = self.syms.var_id(name)?;
        let sub = match sub {
            Some(s) => Some(self.syms.var_id(s)?),
            None => None,
        };
        self.index
            .get(&Triple {
                module,
                sub,
                canonical,
            })
            .copied()
    }

    /// Backward closure over dependence edges from `seeds` (inclusive).
    pub fn backward_closure(&self, seeds: &[u32]) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<u32> = Vec::new();
        for &s in seeds {
            if !seen[s as usize] {
                seen[s as usize] = true;
                stack.push(s);
            }
        }
        while let Some(n) = stack.pop() {
            for &p in &self.preds[n as usize] {
                if !seen[p as usize] {
                    seen[p as usize] = true;
                    stack.push(p);
                }
            }
        }
        seen
    }

    /// Nodes from which some history output is reachable (the static
    /// observability universe): the backward closure from every `outfld`
    /// internal variable's nodes.
    pub fn output_observable(&self) -> Vec<bool> {
        let mut seeds = Vec::new();
        for &v in &self.io_internal {
            if let Some(ns) = self.by_canonical.get(&v) {
                seeds.extend_from_slice(ns);
            }
        }
        self.backward_closure(&seeds)
    }

    /// Classifies one mutation site (strings, as `PatchSite` reports
    /// them) against output reachability. Mirrors the campaign's
    /// metagraph lookup: subprogram-scoped node first, module-scope
    /// fallback.
    pub fn classify_site(
        &self,
        observable: &[bool],
        module: &str,
        subprogram: &str,
        target: &str,
    ) -> SiteClass {
        let node = self
            .find(module, Some(subprogram), target)
            .or_else(|| self.find(module, None, target));
        match node {
            Some(n) if observable[n as usize] => SiteClass::Observable,
            Some(_) => SiteClass::Dead,
            None => SiteClass::Unmapped,
        }
    }

    /// Renders a node to `(module, subprogram, canonical)` strings.
    pub fn render(&self, node: u32) -> (String, Option<String>, String) {
        let t = &self.nodes[node as usize];
        (
            self.syms.module(t.module).to_string(),
            t.sub.map(|s| self.syms.var(s).to_string()),
            self.syms.var(t.canonical).to_string(),
        )
    }

    /// The independent backward slice: union of closures from every
    /// criterion's nodes, optionally restricted to one module, rendered
    /// and sorted. Mirrors `rca_core::backward_slice` node-for-node.
    pub fn static_slice(
        &self,
        criteria: &[&str],
        restrict: Option<&str>,
    ) -> Vec<(String, Option<String>, String)> {
        let mut seeds = Vec::new();
        for c in criteria {
            seeds.extend(self.nodes_with_canonical(c));
        }
        seeds.sort_unstable();
        seeds.dedup();
        let seen = self.backward_closure(&seeds);
        let keep_mod = restrict.and_then(|m| self.syms.module_id(m));
        let mut out: Vec<(String, Option<String>, String)> = Vec::new();
        for (i, t) in self.nodes.iter().enumerate() {
            if !seen[i] {
                continue;
            }
            if restrict.is_some() && keep_mod != Some(t.module) {
                continue;
            }
            out.push(self.render(i as u32));
        }
        out.sort();
        out
    }

    /// Rendered node set (differential-test surface).
    pub fn rendered_nodes(&self) -> Vec<(String, Option<String>, String)> {
        let mut out: Vec<_> = (0..self.nodes.len() as u32)
            .map(|i| self.render(i))
            .collect();
        out.sort();
        out
    }

    /// Rendered edge set as `(src, dst)` triples (differential-test
    /// surface).
    #[allow(clippy::type_complexity)]
    pub fn rendered_edges(
        &self,
    ) -> Vec<(
        (String, Option<String>, String),
        (String, Option<String>, String),
    )> {
        let mut out = Vec::with_capacity(self.edge_count);
        for (dst, preds) in self.preds.iter().enumerate() {
            for &src in preds {
                out.push((self.render(src), self.render(dst as u32)));
            }
        }
        out.sort();
        out
    }
}
