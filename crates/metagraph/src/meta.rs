//! The metagraph: a variable digraph plus node metadata and indexes.
//!
//! "Processing the ASTs results in a metagraph Python class that contains a
//! digraph of internal variables, subprograms, and methods to analyze these
//! structures. CESM internal variables are nodes with metadata, such as
//! location (module, subprogram and line) and 'canonical name'" (§4.2).
//!
//! Node metadata is **id-keyed** over the workspace-wide
//! [`rca_ident::SymbolTable`]: canonical names are [`VarId`]s, modules are
//! [`ModuleId`]s, and the three lookup indexes are dense `Vec`s or
//! integer-keyed maps — no string is hashed after construction. Strings
//! re-enter only through the explicit resolution helpers
//! ([`MetaGraph::display`], [`MetaGraph::canonical_of`], ...) used at the
//! rendering edge.

use rca_graph::{DiGraph, NodeId};
use rca_ident::{ModuleId, OutputId, SymbolTable, VarId};
use std::collections::HashMap;
use std::sync::Arc;

/// What a node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An ordinary program variable (locals, dummies, module variables,
    /// derived-type elements, parameters).
    Variable,
    /// A localized intrinsic call site (`min_l42__mod`), created so
    /// intrinsics don't become "spurious, highly connected variables".
    Intrinsic,
}

/// Metadata attached to each digraph node — dense ids into the graph's
/// [`SymbolTable`].
#[derive(Debug, Clone, Copy)]
pub struct NodeMeta {
    /// Canonical name (paper §4.2): last `%` component for derived types,
    /// base name for arrays, the variable name otherwise.
    pub canonical: VarId,
    /// Defining module.
    pub module: ModuleId,
    /// Enclosing subprogram; `None` for module-level variables.
    pub subprogram: Option<VarId>,
    /// First source line where the node was seen.
    pub line: u32,
    /// Node kind.
    pub kind: NodeKind,
}

/// One recognized history-output call (`call outfld('FLWDS', flwds, ...)`).
///
/// The paper instruments CESM's ~1200 I/O calls to map file-output names to
/// internal variable names (§5.1, Table 2); our model's calls are parsed
/// statically into this registry, with both sides interned.
#[derive(Debug, Clone, Copy)]
pub struct IoCall {
    /// Name written to file (`FLWDS`, lowercased on ingest → `flwds`).
    pub output: OutputId,
    /// Canonical name of the internal variable argument (`flwds`).
    pub internal: VarId,
    /// Module containing the call.
    pub module: ModuleId,
    /// Subprogram containing the call (`None` at module level).
    pub subprogram: Option<VarId>,
    /// Call line.
    pub line: u32,
}

/// Integer node key: `(module, subprogram + 1 or 0, canonical)`.
pub(crate) type UniqueKey = (u32, u32, u32);

pub(crate) fn unique_key(module: ModuleId, sub: Option<VarId>, canonical: VarId) -> UniqueKey {
    (module.0, sub.map_or(0, |s| s.0 + 1), canonical.0)
}

/// The compiled metagraph.
#[derive(Debug, Clone, Default)]
pub struct MetaGraph {
    /// The variable dependency digraph.
    pub graph: DiGraph,
    /// Per-node metadata, indexed by `NodeId::index`.
    pub meta: Vec<NodeMeta>,
    /// All module names seen by this graph, in first-seen order — the
    /// dense *class* space for quotient-graph construction (a seeded
    /// [`SymbolTable`] may know more modules than the filtered graph
    /// contains, so classes are graph-local).
    pub modules: Vec<String>,
    /// I/O registry: output-file names to internal variables.
    pub io_calls: Vec<IoCall>,
    /// Assignment statements that could not be processed (paper: 10 of
    /// 660k lines).
    pub skipped_statements: Vec<(String, u32, String)>,
    /// The identity plane this graph is keyed over (program-seeded in the
    /// session path, self-built otherwise).
    pub(crate) syms: Arc<SymbolTable>,
    /// Fully-scoped node lookup, integer-keyed.
    pub(crate) unique_index: HashMap<UniqueKey, NodeId>,
    /// `canonical_index[VarId]` → nodes with that canonical name (dense).
    pub(crate) canonical_index: Vec<Vec<NodeId>>,
    /// `module_class[ModuleId]` → graph-local class index (dense;
    /// `u32::MAX` = module absent from this graph).
    pub(crate) module_class: Vec<u32>,
    /// `io_by_output[OutputId]` → internal variables in registry order,
    /// deduplicated (dense; empty = output unknown to this graph).
    pub(crate) io_by_output: Vec<Vec<VarId>>,
}

impl MetaGraph {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// The symbol table this graph's ids resolve against. In the session
    /// path it is the workspace-wide table (seeded from the compiled
    /// program, extended here), so program-assigned ids stay valid.
    pub fn symbols(&self) -> &Arc<SymbolTable> {
        &self.syms
    }

    /// Metadata for `node`.
    pub fn meta_of(&self, node: NodeId) -> &NodeMeta {
        &self.meta[node.index()]
    }

    /// Canonical-name string of `node` (rendering edge).
    pub fn canonical_of(&self, node: NodeId) -> &str {
        self.syms.var(self.meta[node.index()].canonical)
    }

    /// Module-name string of `node` (rendering edge).
    pub fn module_name_of(&self, node: NodeId) -> &str {
        self.syms.module(self.meta[node.index()].module)
    }

    /// Subprogram-name string of `node`, if any (rendering edge).
    pub fn subprogram_of(&self, node: NodeId) -> Option<&str> {
        self.meta[node.index()].subprogram.map(|s| self.syms.var(s))
    }

    /// Display name in the paper's style: `dum__micro_mg_tend` (variable +
    /// subprogram suffix "to guarantee unique names in the directed
    /// graph"; module-level variables suffix the module).
    pub fn display(&self, node: NodeId) -> String {
        let m = &self.meta[node.index()];
        match m.subprogram {
            Some(s) => format!("{}__{}", self.syms.var(m.canonical), self.syms.var(s)),
            None => format!(
                "{}__{}",
                self.syms.var(m.canonical),
                self.syms.module(m.module)
            ),
        }
    }

    /// All nodes whose canonical name is `var` — the id-keyed slicing
    /// criterion lookup (dense index, no hashing).
    pub fn nodes_with_var(&self, var: VarId) -> &[NodeId] {
        self.canonical_index
            .get(var.index())
            .map_or(&[], Vec::as_slice)
    }

    /// All nodes whose canonical name equals `name` — the paper's slicing
    /// criterion ("we search for paths that terminate on nodes with the
    /// canonical name of omega", §5.1). String edge over
    /// [`MetaGraph::nodes_with_var`].
    pub fn nodes_with_canonical(&self, name: &str) -> &[NodeId] {
        match self.syms.var_id(name) {
            Some(v) => self.nodes_with_var(v),
            None => &[],
        }
    }

    /// Node by fully-resolved ids (zero-hash path for hot callers).
    pub fn node_by_ids(
        &self,
        module: ModuleId,
        subprogram: Option<VarId>,
        canonical: VarId,
    ) -> Option<NodeId> {
        self.unique_index
            .get(&unique_key(module, subprogram, canonical))
            .copied()
    }

    /// Node by fully-scoped unique key `module::subprogram::canonical`
    /// (subprogram empty for module-level variables). String edge over
    /// [`MetaGraph::node_by_ids`].
    pub fn node_by_key(
        &self,
        module: &str,
        subprogram: Option<&str>,
        canonical: &str,
    ) -> Option<NodeId> {
        let module = self.syms.module_id(module)?;
        let canonical = self.syms.var_id(canonical)?;
        let subprogram = match subprogram {
            Some(s) => Some(self.syms.var_id(s)?),
            None => None,
        };
        self.node_by_ids(module, subprogram, canonical)
    }

    /// Dense graph-local module-class index of `node` (for quotient
    /// graphs).
    pub fn module_class(&self, node: NodeId) -> u32 {
        self.module_class[self.meta_of(node).module.index()]
    }

    /// Module class labels for every node plus class count — feed directly
    /// to [`rca_graph::quotient_graph`] to get the paper's §6.5 module
    /// digraph.
    pub fn module_classes(&self) -> (Vec<u32>, usize) {
        let labels = self
            .meta
            .iter()
            .map(|m| self.module_class[m.module.index()])
            .collect();
        (labels, self.modules.len())
    }

    /// Nodes belonging to any of the given module ids (dense mask scan, no
    /// string compares).
    pub fn nodes_in_module_ids(&self, modules: &[ModuleId]) -> Vec<NodeId> {
        let mut mask = vec![false; self.module_class.len()];
        for m in modules {
            if let Some(slot) = mask.get_mut(m.index()) {
                *slot = true;
            }
        }
        self.meta
            .iter()
            .enumerate()
            .filter(|(_, m)| mask[m.module.index()])
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Nodes belonging to modules whose name satisfies `pred` (e.g.
    /// restricting to CAM modules, §6: "we restrict our subgraphs to nodes
    /// in CAM modules"). String edge; hot callers resolve ids once and use
    /// [`MetaGraph::nodes_in_module_ids`].
    pub fn nodes_in_modules(&self, pred: impl Fn(&str) -> bool) -> Vec<NodeId> {
        self.meta
            .iter()
            .enumerate()
            .filter(|(_, m)| pred(self.syms.module(m.module)))
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Maps output ids to internal canonical-name ids via the I/O
    /// registry, preserving order and dropping unknowns — the id-keyed
    /// slicing-criteria translation (dense lookups, no hashing).
    pub fn outputs_to_internal_ids(&self, outputs: &[OutputId]) -> Vec<VarId> {
        let mut seen = vec![false; self.syms.var_count()];
        let mut out = Vec::new();
        for &o in outputs {
            if let Some(internals) = self.io_by_output.get(o.index()) {
                for &v in internals {
                    if !std::mem::replace(&mut seen[v.index()], true) {
                        out.push(v);
                    }
                }
            }
        }
        out
    }

    /// Maps a set of output-file names to internal canonical names via the
    /// I/O registry, preserving order and dropping unknowns. String edge
    /// over [`MetaGraph::outputs_to_internal_ids`].
    pub fn outputs_to_internal(&self, output_names: &[String]) -> Vec<String> {
        let ids: Vec<OutputId> = output_names
            .iter()
            .filter_map(|n| self.syms.output_id(&n.to_lowercase()))
            .collect();
        self.outputs_to_internal_ids(&ids)
            .into_iter()
            .map(|v| self.syms.var(v).to_string())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_key_distinguishes_module_level_from_subprogram() {
        let m = ModuleId(3);
        let v = VarId(7);
        assert_ne!(unique_key(m, None, v), unique_key(m, Some(VarId(0)), v));
        assert_eq!(unique_key(m, None, v), (3, 0, 7));
        assert_eq!(unique_key(m, Some(VarId(4)), v), (3, 5, 7));
    }

    #[test]
    fn empty_graph_resolves_nothing() {
        let mg = MetaGraph::default();
        assert!(mg.nodes_with_canonical("anything").is_empty());
        assert!(mg.node_by_key("m", None, "v").is_none());
        assert!(mg.outputs_to_internal(&["flds".to_string()]).is_empty());
    }
}
