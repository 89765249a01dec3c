//! Pass 2: compiling ASTs into the variable digraph.
//!
//! Implements the paper's §4.2 edge rules:
//!
//! - assignments: every RHS variable/array/function-output gets an edge to
//!   the LHS ("the expression's right-hand-side variables and arrays and
//!   function (or subroutine argument) outputs are given edges to the
//!   left-hand-side");
//! - arrays are **atomic**: subscripts are ignored;
//! - derived types: canonical name is the last `%` component; reading
//!   `state%omega` adds `state → omega`, writing adds `omega → state` so
//!   aggregate passing through call chains preserves element dependencies;
//! - calls: argument trees map "outputs of lower levels to corresponding
//!   inputs above", dummy-argument intent orients caller/callee edges,
//!   interfaces map **all** candidate procedures (conservative);
//! - intrinsics are localized per call line (`min_l100__modname`) "to avoid
//!   creating spurious, highly connected variables";
//! - control flow (`if`, `do`) is ignored — this is what makes the slice
//!   *static*;
//! - `call outfld('NAME', var, ...)` populates the I/O registry instead of
//!   the graph (paper §5.1's instrumented output-name mapping).

use crate::meta::{unique_key, IoCall, MetaGraph, NodeKind, NodeMeta};
use crate::symbols::{ArgIntent, ProcTable};
use rca_fortran::ast::{Expr, Module, SourceFile, Stmt, Subprogram};
use rca_graph::NodeId;
use rca_ident::SymbolTable;
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Fortran intrinsic procedures we localize per call site.
const INTRINSIC_FUNCTIONS: &[&str] = &[
    "min", "max", "sqrt", "exp", "log", "log10", "abs", "mod", "sum", "product", "sign", "merge",
    "floor", "nint", "int", "real", "tanh", "sin", "cos", "atan", "asin", "acos", "epsilon",
    "tiny", "huge", "size", "maxval", "minval",
];

/// Intrinsic subroutines that *write* their arguments.
const INTRINSIC_SUBROUTINES: &[&str] = &["random_number", "random_seed"];

/// The history-output subroutine (CAM's `outfld`): its first string
/// argument is the output name and the following variable argument the
/// internal variable.
const IO_SUBROUTINE: &str = "outfld";

/// Builds the metagraph from parsed sources over a fresh symbol table.
/// Takes owned ASTs or shared `Arc<SourceFile>`s alike.
pub fn build_metagraph<F: Borrow<SourceFile>>(files: &[F]) -> MetaGraph {
    build_metagraph_seeded(files, SymbolTable::new())
}

/// Builds the metagraph over a **seeded** symbol table — the session path:
/// the table arrives pre-populated from the compiled program's interner,
/// this pass extends it (derived-type elements, localized intrinsics,
/// use-renamed names), and the sealed result is the workspace-wide
/// identity plane shared by every downstream stage. Extension is
/// append-only, so every id the program assigned stays valid.
pub fn build_metagraph_seeded<F: Borrow<SourceFile>>(files: &[F], syms: SymbolTable) -> MetaGraph {
    let mut table = ProcTable::build(files);
    table.resolve_interfaces();
    let mut b = Builder {
        table,
        syms,
        mg: MetaGraph::default(),
    };
    // Module-level declarations first (so module variables exist with
    // their defining line), then subprogram bodies.
    for file in files {
        for module in &file.borrow().modules {
            b.register_module(&module.name);
            b.process_module_decls(module);
        }
    }
    for file in files {
        for module in &file.borrow().modules {
            for sub in &module.subprograms {
                b.process_subprogram(module, sub);
            }
        }
    }
    b.finish()
}

struct Builder {
    table: ProcTable,
    syms: SymbolTable,
    mg: MetaGraph,
}

/// Per-subprogram name-resolution context.
struct Scope<'a> {
    module: &'a str,
    sub: Option<&'a str>,
    locals: HashSet<String>,
    use_map: HashMap<String, (String, String)>,
    full_uses: Vec<String>,
}

impl Builder {
    /// Seals the builder: the extended symbol table becomes the graph's
    /// identity plane, and the dense I/O map is assembled.
    fn finish(mut self) -> MetaGraph {
        let mut io_by_output: Vec<Vec<rca_ident::VarId>> =
            vec![Vec::new(); self.syms.output_count()];
        for call in &self.mg.io_calls {
            let bucket = &mut io_by_output[call.output.index()];
            if !bucket.contains(&call.internal) {
                bucket.push(call.internal);
            }
        }
        self.mg.io_by_output = io_by_output;
        self.mg.syms = Arc::new(self.syms);
        self.mg
    }

    fn register_module(&mut self, name: &str) -> rca_ident::ModuleId {
        let mid = self.syms.intern_module(name);
        if self.mg.module_class.len() <= mid.index() {
            self.mg.module_class.resize(mid.index() + 1, u32::MAX);
        }
        if self.mg.module_class[mid.index()] == u32::MAX {
            self.mg.module_class[mid.index()] = self.mg.modules.len() as u32;
            self.mg.modules.push(name.to_string());
        }
        mid
    }

    /// Interned node lookup/creation — the only place names become ids.
    fn node(
        &mut self,
        module: &str,
        sub: Option<&str>,
        canonical: &str,
        line: u32,
        kind: NodeKind,
    ) -> NodeId {
        let mid = self.register_module(module);
        let svid = sub.map(|s| self.syms.intern_var(s));
        let cvid = self.syms.intern_var(canonical);
        let key = unique_key(mid, svid, cvid);
        if let Some(&id) = self.mg.unique_index.get(&key) {
            return id;
        }
        let id = self.mg.graph.add_node();
        self.mg.meta.push(NodeMeta {
            canonical: cvid,
            module: mid,
            subprogram: svid,
            line,
            kind,
        });
        self.mg.unique_index.insert(key, id);
        if self.mg.canonical_index.len() <= cvid.index() {
            self.mg.canonical_index.resize(cvid.index() + 1, Vec::new());
        }
        self.mg.canonical_index[cvid.index()].push(id);
        id
    }

    fn edge(&mut self, from: NodeId, to: NodeId) {
        self.mg.graph.add_edge(from, to);
    }

    fn scope<'a>(&self, module: &'a Module, sub: Option<&'a Subprogram>) -> Scope<'a> {
        let mut locals = HashSet::new();
        let mut use_map = HashMap::new();
        let mut full_uses = Vec::new();
        let ingest_uses = |uses: &[rca_fortran::ast::UseStmt],
                           use_map: &mut HashMap<String, (String, String)>,
                           full_uses: &mut Vec<String>| {
            for u in uses {
                match &u.only {
                    Some(list) => {
                        for (local, remote) in list {
                            use_map.insert(local.clone(), (u.module.clone(), remote.clone()));
                        }
                    }
                    None => full_uses.push(u.module.clone()),
                }
            }
        };
        ingest_uses(&module.uses, &mut use_map, &mut full_uses);
        if let Some(s) = sub {
            ingest_uses(&s.uses, &mut use_map, &mut full_uses);
            for d in &s.decls {
                for e in &d.entities {
                    locals.insert(e.name.clone());
                }
            }
            for a in &s.args {
                locals.insert(a.clone());
            }
            if let Some(r) = s.result_name() {
                locals.insert(r.to_string());
            }
        }
        Scope {
            module: &module.name,
            sub: sub.map(|s| s.name.as_str()),
            locals,
            use_map,
            full_uses,
        }
    }

    /// Resolves a bare variable name to its node following Fortran scoping:
    /// locals, explicit use-renames/only-lists, own module variables, full
    /// `use` imports (no chained use, matching §4.2), then an implicit
    /// local.
    fn resolve_var(&mut self, scope: &Scope, name: &str, line: u32) -> NodeId {
        if scope.locals.contains(name) {
            return self.node(scope.module, scope.sub, name, line, NodeKind::Variable);
        }
        if let Some((src_mod, remote)) = scope.use_map.get(name).cloned() {
            return self.node(&src_mod, None, &remote, line, NodeKind::Variable);
        }
        if self
            .table
            .module_vars
            .get(scope.module)
            .is_some_and(|vars| vars.contains(name))
        {
            return self.node(scope.module, None, name, line, NodeKind::Variable);
        }
        for src in &scope.full_uses {
            if self
                .table
                .module_vars
                .get(src)
                .is_some_and(|vars| vars.contains(name))
            {
                let src = src.clone();
                return self.node(&src, None, name, line, NodeKind::Variable);
            }
        }
        self.node(scope.module, scope.sub, name, line, NodeKind::Variable)
    }

    /// Whether `name`, in `scope`, denotes a function call rather than an
    /// array: it must be in the function hash table and not shadowed by a
    /// declared variable.
    fn is_function_here(&self, scope: &Scope, name: &str) -> bool {
        if scope.locals.contains(name) {
            return false;
        }
        if self
            .table
            .module_vars
            .get(scope.module)
            .is_some_and(|vars| vars.contains(name))
        {
            return false;
        }
        self.table.is_function_name(name)
    }

    /// Value-source nodes of an expression; emits internal edges for calls
    /// and derived-type reads along the way.
    fn expr_sources(&mut self, scope: &Scope, expr: &Expr, line: u32, out: &mut Vec<NodeId>) {
        match expr {
            Expr::Var(name) => out.push(self.resolve_var(scope, name, line)),
            Expr::CallOrIndex { name, args } => {
                if INTRINSIC_FUNCTIONS.contains(&name.as_str()) {
                    // Localized intrinsic: inputs -> min_l42 -> consumer.
                    let local_name = format!("{name}_l{line}");
                    let inode = self.node(
                        scope.module,
                        scope.sub,
                        &local_name,
                        line,
                        NodeKind::Intrinsic,
                    );
                    let mut srcs = Vec::new();
                    for a in args {
                        self.expr_sources(scope, a, line, &mut srcs);
                    }
                    for s in srcs {
                        self.edge(s, inode);
                    }
                    out.push(inode);
                } else if self.is_function_here(scope, name) {
                    // User function call: argument tree maps into dummies,
                    // result node(s) flow out. All interface candidates.
                    let cands: Vec<(String, String, Vec<String>, String)> = self
                        .table
                        .candidates(name)
                        .iter()
                        .filter(|sig| sig.is_function)
                        .map(|sig| {
                            (
                                sig.module.clone(),
                                sig.name.clone(),
                                sig.args.clone(),
                                sig.result.clone().unwrap_or_else(|| sig.name.clone()),
                            )
                        })
                        .collect();
                    let mut arg_sources: Vec<Vec<NodeId>> = Vec::with_capacity(args.len());
                    for a in args {
                        let mut srcs = Vec::new();
                        self.expr_sources(scope, a, line, &mut srcs);
                        arg_sources.push(srcs);
                    }
                    for (fmod, fname, dummies, result) in &cands {
                        for (i, srcs) in arg_sources.iter().enumerate() {
                            if let Some(dummy) = dummies.get(i) {
                                let dnode =
                                    self.node(fmod, Some(fname), dummy, line, NodeKind::Variable);
                                for &s in srcs {
                                    self.edge(s, dnode);
                                }
                            }
                        }
                        let rnode = self.node(fmod, Some(fname), result, line, NodeKind::Variable);
                        out.push(rnode);
                    }
                    if cands.is_empty() {
                        // Function-named but unresolvable: fall back to a
                        // variable node so the reference is not lost.
                        out.push(self.resolve_var(scope, name, line));
                    }
                } else {
                    // Array reference: atomic, indices ignored (§4.2).
                    out.push(self.resolve_var(scope, name, line));
                }
            }
            Expr::DerivedRef { base, field, .. } => {
                // Read a%b: aggregate feeds the element node.
                let fnode = self.node(scope.module, scope.sub, field, line, NodeKind::Variable);
                let mut base_srcs = Vec::new();
                self.expr_sources(scope, base, line, &mut base_srcs);
                for b in base_srcs {
                    self.edge(b, fnode);
                }
                out.push(fnode);
            }
            Expr::Unary { expr, .. } => self.expr_sources(scope, expr, line, out),
            Expr::Binary { lhs, rhs, .. } => {
                self.expr_sources(scope, lhs, line, out);
                self.expr_sources(scope, rhs, line, out);
            }
            Expr::Range { .. } => {
                // Array-section bounds are index information: ignored.
            }
            Expr::Real(_) | Expr::Int(_) | Expr::Str(_) | Expr::Logical(_) => {}
        }
    }

    /// Resolves an assignment target (or out-argument designator) to its
    /// node, emitting the write-direction derived-type edge
    /// (`omega → state`).
    fn target_node(&mut self, scope: &Scope, expr: &Expr, line: u32) -> Option<NodeId> {
        match expr {
            Expr::Var(name) => Some(self.resolve_var(scope, name, line)),
            Expr::CallOrIndex { name, .. } => Some(self.resolve_var(scope, name, line)),
            Expr::DerivedRef { base, field, .. } => {
                let fnode = self.node(scope.module, scope.sub, field, line, NodeKind::Variable);
                if let Some(bnode) = self.target_node(scope, base, line) {
                    self.edge(fnode, bnode);
                }
                Some(fnode)
            }
            _ => None,
        }
    }

    fn process_module_decls(&mut self, module: &Module) {
        let scope = self.scope(module, None);
        // Keep borrowck happy: collect initializer work first.
        let work: Vec<(String, Expr, u32)> = module
            .decls
            .iter()
            .flat_map(|d| {
                d.entities.iter().filter_map(move |e| {
                    e.init
                        .as_ref()
                        .map(|init| (e.name.clone(), init.clone(), d.line))
                })
            })
            .collect();
        // Ensure every module variable exists as a node even without init.
        let names: Vec<(String, u32)> = module
            .decls
            .iter()
            .flat_map(|d| d.entities.iter().map(move |e| (e.name.clone(), d.line)))
            .collect();
        for (name, line) in names {
            self.node(&module.name, None, &name, line, NodeKind::Variable);
        }
        for (name, init, line) in work {
            let tnode = self.node(&module.name, None, &name, line, NodeKind::Variable);
            let mut srcs = Vec::new();
            self.expr_sources(&scope, &init, line, &mut srcs);
            for s in srcs {
                self.edge(s, tnode);
            }
        }
    }

    fn process_subprogram(&mut self, module: &Module, sub: &Subprogram) {
        let scope = self.scope(module, Some(sub));
        // Declaration initializers.
        let work: Vec<(String, Expr, u32)> = sub
            .decls
            .iter()
            .flat_map(|d| {
                d.entities.iter().filter_map(move |e| {
                    e.init
                        .as_ref()
                        .map(|init| (e.name.clone(), init.clone(), d.line))
                })
            })
            .collect();
        for (name, init, line) in work {
            let tnode = self.resolve_var(&scope, &name, line);
            let mut srcs = Vec::new();
            self.expr_sources(&scope, &init, line, &mut srcs);
            for s in srcs {
                self.edge(s, tnode);
            }
        }
        self.process_stmts(&scope, &sub.body);
    }

    fn process_stmts(&mut self, scope: &Scope, stmts: &[Stmt]) {
        for stmt in stmts {
            match stmt {
                Stmt::Assign {
                    target,
                    value,
                    line,
                } => {
                    let Some(tnode) = self.target_node(scope, target, *line) else {
                        self.mg.skipped_statements.push((
                            scope.module.to_string(),
                            *line,
                            "unsupported assignment target".to_string(),
                        ));
                        continue;
                    };
                    let mut srcs = Vec::new();
                    self.expr_sources(scope, value, *line, &mut srcs);
                    for s in srcs {
                        self.edge(s, tnode);
                    }
                }
                Stmt::Call { name, args, line } => self.process_call(scope, name, args, *line),
                Stmt::If { arms, .. } => {
                    // Conditions carry control, not data ("these paths
                    // ignore control flow", §5.1).
                    for (_, block) in arms {
                        self.process_stmts(scope, block);
                    }
                }
                Stmt::Do { body, .. } | Stmt::DoWhile { body, .. } => {
                    self.process_stmts(scope, body);
                }
                Stmt::Return { .. } | Stmt::Exit { .. } | Stmt::Cycle { .. } => {}
            }
        }
    }

    fn process_call(&mut self, scope: &Scope, name: &str, args: &[Expr], line: u32) {
        // History output: populate the I/O registry, no graph edges.
        if name == IO_SUBROUTINE {
            let mut output_name = None;
            let mut internal = None;
            for a in args {
                match a {
                    Expr::Str(s) if output_name.is_none() => {
                        output_name = Some(s.to_lowercase());
                    }
                    other => {
                        if internal.is_none() {
                            if let Some(c) = other.canonical_name() {
                                internal = Some(c.to_string());
                                // The output variable must exist as a node.
                                let mut srcs = Vec::new();
                                self.expr_sources(scope, other, line, &mut srcs);
                            }
                        }
                    }
                }
            }
            if let (Some(o), Some(i)) = (output_name, internal) {
                let module = self.register_module(scope.module);
                let subprogram = scope.sub.map(|s| self.syms.intern_var(s));
                let call = IoCall {
                    output: self.syms.intern_output(&o),
                    internal: self.syms.intern_var(&i),
                    module,
                    subprogram,
                    line,
                };
                self.mg.io_calls.push(call);
            }
            return;
        }
        // Intrinsic subroutines: random_number(x) writes x from a
        // localized generator node.
        if INTRINSIC_SUBROUTINES.contains(&name) {
            let gen = format!("{name}_l{line}");
            let gnode = self.node(scope.module, scope.sub, &gen, line, NodeKind::Intrinsic);
            for a in args {
                if let Some(t) = self.target_node(scope, a, line) {
                    self.edge(gnode, t);
                }
            }
            return;
        }
        // Physics-buffer indirection (CESM pbuf): statically opaque, but
        // the direction is known — `set` only reads its arguments, `get`
        // writes its data argument. This is exactly why the paper's wsub
        // slice stays small: the static chain breaks at the buffer.
        if name == "pbuf_set_field" {
            let hub = format!("{name}_l{line}");
            let hnode = self.node(scope.module, scope.sub, &hub, line, NodeKind::Intrinsic);
            for a in args {
                let mut srcs = Vec::new();
                self.expr_sources(scope, a, line, &mut srcs);
                for s in srcs {
                    self.edge(s, hnode);
                }
            }
            return;
        }
        if name == "pbuf_get_field" {
            let hub = format!("{name}_l{line}");
            let hnode = self.node(scope.module, scope.sub, &hub, line, NodeKind::Intrinsic);
            // First argument (the buffer index) is read; the rest are
            // written.
            if let Some(idx) = args.first() {
                let mut srcs = Vec::new();
                self.expr_sources(scope, idx, line, &mut srcs);
                for s in srcs {
                    self.edge(s, hnode);
                }
            }
            for a in args.iter().skip(1) {
                if let Some(t) = self.target_node(scope, a, line) {
                    self.edge(hnode, t);
                }
            }
            return;
        }
        let cands: Vec<(String, String, Vec<String>, Vec<ArgIntent>)> = self
            .table
            .candidates(name)
            .iter()
            .filter(|sig| !sig.is_function)
            .map(|sig| {
                (
                    sig.module.clone(),
                    sig.name.clone(),
                    sig.args.clone(),
                    sig.intents.clone(),
                )
            })
            .collect();
        if cands.is_empty() {
            // Unknown external subroutine: conservative bidirectional hub
            // localized to this call site.
            let hub = format!("{name}_l{line}");
            let hnode = self.node(scope.module, scope.sub, &hub, line, NodeKind::Intrinsic);
            for a in args {
                let mut srcs = Vec::new();
                self.expr_sources(scope, a, line, &mut srcs);
                for s in srcs {
                    self.edge(s, hnode);
                }
                if let Some(t) = self.target_node(scope, a, line) {
                    self.edge(hnode, t);
                }
            }
            return;
        }
        for (smod, sname, dummies, intents) in &cands {
            for (i, arg) in args.iter().enumerate() {
                let Some(dummy) = dummies.get(i) else {
                    continue;
                };
                let intent = intents.get(i).copied().unwrap_or(ArgIntent::Unknown);
                let dnode = self.node(smod, Some(sname), dummy, line, NodeKind::Variable);
                if matches!(
                    intent,
                    ArgIntent::In | ArgIntent::InOut | ArgIntent::Unknown
                ) {
                    let mut srcs = Vec::new();
                    self.expr_sources(scope, arg, line, &mut srcs);
                    for s in srcs {
                        self.edge(s, dnode);
                    }
                }
                if matches!(
                    intent,
                    ArgIntent::Out | ArgIntent::InOut | ArgIntent::Unknown
                ) {
                    if let Some(t) = self.target_node(scope, arg, line) {
                        self.edge(dnode, t);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rca_fortran::parse_source;
    use rca_graph::reaches_any;

    fn build(src: &str) -> MetaGraph {
        let (file, errs) = parse_source("t.F90", src);
        assert!(errs.is_empty(), "{errs:?}");
        build_metagraph(&[file])
    }

    fn node(mg: &MetaGraph, module: &str, sub: Option<&str>, name: &str) -> NodeId {
        mg.node_by_key(module, sub, name)
            .unwrap_or_else(|| panic!("missing node {module}::{sub:?}::{name}"))
    }

    #[test]
    fn simple_assignment_edges() {
        let mg = build(
            "module m\ncontains\nsubroutine s(a, b, c)\nreal :: a, b, c\nc = a + b\nend subroutine s\nend module m\n",
        );
        let a = node(&mg, "m", Some("s"), "a");
        let b = node(&mg, "m", Some("s"), "b");
        let c = node(&mg, "m", Some("s"), "c");
        assert!(mg.graph.has_edge(a, c));
        assert!(mg.graph.has_edge(b, c));
        assert!(!mg.graph.has_edge(c, a));
    }

    #[test]
    fn arrays_are_atomic() {
        let mg = build(
            "module m\ncontains\nsubroutine s(q, t, i)\nreal :: q(10), t(10)\ninteger :: i\nq(i) = t(i+1)\nend subroutine s\nend module m\n",
        );
        let q = node(&mg, "m", Some("s"), "q");
        let t = node(&mg, "m", Some("s"), "t");
        assert!(mg.graph.has_edge(t, q));
        // Indices are ignored (§4.2): `i` appears only as a subscript, so
        // it never becomes a node at all.
        assert!(mg.node_by_key("m", Some("s"), "i").is_none());
    }

    #[test]
    fn intrinsics_localized_per_line() {
        let mg = build(
            "module m\ncontains\nsubroutine s(a, b)\nreal :: a, b\nb = min(a, 1.0)\nb = min(b, 2.0)\nend subroutine s\nend module m\n",
        );
        // Two min call sites on different lines → two distinct nodes.
        let mins: Vec<NodeId> = mg
            .graph
            .nodes()
            .filter(|&n| mg.canonical_of(n).starts_with("min_l"))
            .collect();
        assert_eq!(mins.len(), 2, "{mins:?}");
        assert!(mins
            .iter()
            .all(|&n| mg.meta_of(n).kind == NodeKind::Intrinsic));
        // a -> min_l5 -> b
        let a = node(&mg, "m", Some("s"), "a");
        let b = node(&mg, "m", Some("s"), "b");
        assert!(reaches_any(&mg.graph, a, &[b]));
    }

    #[test]
    fn function_call_argument_tree() {
        // The paper's composite example: output(f) -> input(e), etc.
        let mg = build(
            r#"
module m
contains
  real function f(x) result(fr)
    real :: x
    fr = x * 2.0
  end function f
  real function e(y) result(er)
    real :: y
    er = y + 1.0
  end function e
  subroutine s(g, h, w)
    real :: g, h, w
    w = e(f(g + h))
  end subroutine s
end module m
"#,
        );
        let g = node(&mg, "m", Some("s"), "g");
        let h = node(&mg, "m", Some("s"), "h");
        let x = node(&mg, "m", Some("f"), "x");
        let fr = node(&mg, "m", Some("f"), "fr");
        let y = node(&mg, "m", Some("e"), "y");
        let er = node(&mg, "m", Some("e"), "er");
        let w = node(&mg, "m", Some("s"), "w");
        // g,h -> input(f)
        assert!(mg.graph.has_edge(g, x));
        assert!(mg.graph.has_edge(h, x));
        // inside f: x -> fr
        assert!(mg.graph.has_edge(x, fr));
        // output(f) -> input(e)
        assert!(mg.graph.has_edge(fr, y));
        // output(e) -> w
        assert!(mg.graph.has_edge(er, w));
        // Full path g -> w exists.
        assert!(reaches_any(&mg.graph, g, &[w]));
    }

    #[test]
    fn subroutine_intents_orient_edges() {
        let mg = build(
            r#"
module m
contains
  subroutine compute(a, b, c)
    real, intent(in) :: a
    real, intent(out) :: b
    real, intent(inout) :: c
    b = a + c
    c = b
  end subroutine compute
  subroutine driver(x, y, z)
    real :: x, y, z
    call compute(x, y, z)
  end subroutine driver
end module m
"#,
        );
        let x = node(&mg, "m", Some("driver"), "x");
        let y = node(&mg, "m", Some("driver"), "y");
        let z = node(&mg, "m", Some("driver"), "z");
        let a = node(&mg, "m", Some("compute"), "a");
        let b = node(&mg, "m", Some("compute"), "b");
        let c = node(&mg, "m", Some("compute"), "c");
        assert!(mg.graph.has_edge(x, a), "in: caller -> dummy");
        assert!(!mg.graph.has_edge(a, x), "in: no reverse edge");
        assert!(mg.graph.has_edge(b, y), "out: dummy -> caller");
        assert!(!mg.graph.has_edge(y, b), "out: no forward edge");
        assert!(
            mg.graph.has_edge(z, c) && mg.graph.has_edge(c, z),
            "inout: both"
        );
        // Cross-subprogram flow x -> ... -> y.
        assert!(reaches_any(&mg.graph, x, &[y]));
    }

    #[test]
    fn interface_maps_all_candidates() {
        let mg = build(
            r#"
module m
  interface qsat
    module procedure qsat_water
    module procedure qsat_ice
  end interface
contains
  subroutine qsat_water(t, q)
    real, intent(in) :: t
    real, intent(out) :: q
    q = t * 1.0
  end subroutine qsat_water
  subroutine qsat_ice(t, q)
    real, intent(in) :: t
    real, intent(out) :: q
    q = t * 2.0
  end subroutine qsat_ice
  subroutine s(temp, qv)
    real :: temp, qv
    call qsat(temp, qv)
  end subroutine s
end module m
"#,
        );
        let temp = node(&mg, "m", Some("s"), "temp");
        let tw = node(&mg, "m", Some("qsat_water"), "t");
        let ti = node(&mg, "m", Some("qsat_ice"), "t");
        assert!(mg.graph.has_edge(temp, tw));
        assert!(mg.graph.has_edge(temp, ti), "all possible connections");
    }

    #[test]
    fn derived_type_canonical_names() {
        let mg = build(
            r#"
module m
  type physics_state
    real :: omega(4)
    real :: t(4)
  end type physics_state
contains
  subroutine s(state, w)
    type(physics_state) :: state
    real :: w
    state%omega(1) = state%t(1) * 2.0
    w = state%omega(2)
  end subroutine s
end module m
"#,
        );
        let omega = node(&mg, "m", Some("s"), "omega");
        let t = node(&mg, "m", Some("s"), "t");
        let state = node(&mg, "m", Some("s"), "state");
        let w = node(&mg, "m", Some("s"), "w");
        assert_eq!(mg.canonical_of(omega), "omega");
        assert!(
            mg.graph.has_edge(t, omega),
            "element read feeds element write"
        );
        assert!(mg.graph.has_edge(state, t), "aggregate feeds element read");
        assert!(
            mg.graph.has_edge(omega, state),
            "element write updates aggregate"
        );
        assert!(mg.graph.has_edge(omega, w));
        assert_eq!(mg.nodes_with_canonical("omega"), &[omega]);
    }

    #[test]
    fn use_rename_resolves_to_source_module() {
        let mg = build(
            r#"
module shr_kind_mod
  real :: shr_const_g = 9.8
end module shr_kind_mod
module phys
  use shr_kind_mod, only: gravit => shr_const_g
contains
  subroutine s(f)
    real :: f
    f = gravit * 2.0
  end subroutine s
end module phys
"#,
        );
        let g = node(&mg, "shr_kind_mod", None, "shr_const_g");
        let f = node(&mg, "phys", Some("s"), "f");
        assert!(mg.graph.has_edge(g, f), "rename resolved to remote symbol");
        assert!(
            mg.node_by_key("phys", Some("s"), "gravit").is_none(),
            "no phantom local node for the rename"
        );
    }

    #[test]
    fn full_use_imports_public_vars() {
        let mg = build(
            r#"
module constants
  real :: pi = 3.14159
end module constants
module phys
  use constants
contains
  subroutine s(c)
    real :: c
    c = pi
  end subroutine s
end module phys
"#,
        );
        let pi = node(&mg, "constants", None, "pi");
        let c = node(&mg, "phys", Some("s"), "c");
        assert!(mg.graph.has_edge(pi, c));
    }

    #[test]
    fn outfld_populates_io_registry() {
        let mg = build(
            r#"
module m
contains
  subroutine s(flwds, ncol)
    real :: flwds(4)
    integer :: ncol
    flwds(1) = 1.0
    call outfld('FLDS', flwds, ncol)
  end subroutine s
end module m
"#,
        );
        assert_eq!(mg.io_calls.len(), 1);
        let io = &mg.io_calls[0];
        assert_eq!(mg.symbols().output(io.output), "flds");
        assert_eq!(mg.symbols().var(io.internal), "flwds");
        assert_eq!(
            mg.outputs_to_internal(&["FLDS".to_string()]),
            vec!["flwds".to_string()]
        );
    }

    #[test]
    fn random_number_is_a_source() {
        let mg = build(
            r#"
module m
contains
  subroutine s(r, cld)
    real :: r(4), cld
    call random_number(r)
    cld = r(1) * 0.5
  end subroutine s
end module m
"#,
        );
        let r = node(&mg, "m", Some("s"), "r");
        let cld = node(&mg, "m", Some("s"), "cld");
        let gen: Vec<NodeId> = mg
            .graph
            .nodes()
            .filter(|&n| mg.canonical_of(n).starts_with("random_number_l"))
            .collect();
        assert_eq!(gen.len(), 1);
        assert!(mg.graph.has_edge(gen[0], r), "PRNG writes its argument");
        assert!(reaches_any(&mg.graph, gen[0], &[cld]));
    }

    #[test]
    fn module_classes_for_quotient() {
        let mg = build(
            "module a\nreal :: x = 1.0\nend module a\nmodule b\nreal :: y = 2.0\nend module b\n",
        );
        let (labels, count) = mg.module_classes();
        assert_eq!(count, 2);
        assert_eq!(labels.len(), mg.node_count());
        let q = rca_graph::quotient_graph(&mg.graph, &labels, count);
        assert_eq!(q.graph.node_count(), 2);
    }

    #[test]
    fn unknown_external_subroutine_is_conservative() {
        let mg = build(
            "module m\ncontains\nsubroutine s(a, b)\nreal :: a, b\ncall mystery(a, b)\nend subroutine s\nend module m\n",
        );
        let a = node(&mg, "m", Some("s"), "a");
        let b = node(&mg, "m", Some("s"), "b");
        // a and b both connect through the localized hub in both directions.
        assert!(reaches_any(&mg.graph, a, &[b]));
        assert!(reaches_any(&mg.graph, b, &[a]));
    }

    #[test]
    fn control_flow_carries_no_data() {
        let mg = build(
            r#"
module m
contains
  subroutine s(a, b, flag)
    real :: a, b
    logical :: flag
    if (flag) then
      b = a
    end if
  end subroutine s
end module m
"#,
        );
        // The condition variable is control, not data: it never even
        // becomes a node ("these paths ignore control flow", §5.1).
        assert!(mg.node_by_key("m", Some("s"), "flag").is_none());
        let a = node(&mg, "m", Some("s"), "a");
        let b = node(&mg, "m", Some("s"), "b");
        assert!(mg.graph.has_edge(a, b), "body still processed");
    }

    #[test]
    fn display_names_match_paper() {
        let mg = build(
            "module micro_mg\ncontains\nsubroutine micro_mg_tend(dum)\nreal :: dum\ndum = 1.0\nend subroutine micro_mg_tend\nend module micro_mg\n",
        );
        let d = node(&mg, "micro_mg", Some("micro_mg_tend"), "dum");
        assert_eq!(mg.display(d), "dum__micro_mg_tend");
    }
}
