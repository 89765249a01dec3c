//! # rca-metagraph — from Fortran ASTs to a variable digraph
//!
//! Implements §4 of the paper: "In effect, we are compiling the CESM
//! Fortran source code into node relationships in a digraph." Construction
//! is two-pass, exactly as the paper requires:
//!
//! 1. **Procedure pass** ([`symbols`]): every file is read first,
//!    producing the function-name hash table (arrays vs. calls are
//!    syntactically ambiguous in Fortran), procedure signatures with dummy
//!    intents, generic interfaces, and module-variable tables
//!    ([`ProcTable`]).
//! 2. **Edge pass** ([`builder`]): assignments, call argument trees,
//!    derived-type canonical names, use-rename resolution, per-line
//!    intrinsic localization, and the `outfld` I/O registry turn into
//!    nodes, edges, and metadata on an [`rca_graph::DiGraph`].
//!
//! Node metadata and all three lookup indexes are keyed by the dense ids
//! of the workspace-wide [`rca_ident::SymbolTable`]: canonical names are
//! `VarId`s, modules are `ModuleId`s, `outfld` registry entries are
//! `OutputId`s. [`build_metagraph_seeded`] extends a table seeded from a
//! compiled `rca_sim::Program`, making graph ids and program ids one
//! identity space per session.
//!
//! [`coverage`] applies runtime coverage (from the `rca-sim` interpreter,
//! standing in for Intel codecov) to ASTs before graphing — the *hybrid* in
//! the paper's hybrid slicing.

pub mod builder;
pub mod coverage;
pub mod meta;
pub mod symbols;

pub use builder::{build_metagraph, build_metagraph_seeded};
pub use coverage::{filter_sources, FilterStats};
pub use meta::{IoCall, MetaGraph, NodeKind, NodeMeta};
pub use rca_ident::{ModuleId, OutputId, SymbolTable, VarId};
pub use symbols::{ArgIntent, ProcKey, ProcSig, ProcTable};
