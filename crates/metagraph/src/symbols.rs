//! pass 1: global procedure tables.
//!
//! "To allow correct mappings between call and subprogram arguments,
//! parsing statements with calls must be done after all source files are
//! read. Furthermore, Fortran syntax does not always distinguish function
//! calls from arrays, so correct associations must be made after creating a
//! hash table of function names" (§4.2). This module is that first pass: it
//! collects every procedure signature, interface, and module variable
//! before any edge is emitted.

use rca_fortran::ast::{Attr, Module, SourceFile, SubprogramKind};
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};

/// Intent of a dummy argument, used to orient call edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgIntent {
    /// `intent(in)` — data flows caller → callee only.
    In,
    /// `intent(out)` — data flows callee → caller only.
    Out,
    /// `intent(inout)` — both directions.
    InOut,
    /// Undeclared intent: treated bidirectionally (the paper's conservative
    /// "map all possible connections" stance).
    Unknown,
}

/// A procedure signature.
#[derive(Debug, Clone)]
pub struct ProcSig {
    /// Defining module.
    pub module: String,
    /// Procedure name.
    pub name: String,
    /// Dummy argument names in order.
    pub args: Vec<String>,
    /// Intents matching `args`.
    pub intents: Vec<ArgIntent>,
    /// Whether this is a function.
    pub is_function: bool,
    /// Function result variable, if a function.
    pub result: Option<String>,
}

/// Key identifying a procedure: `(module, name)`.
pub type ProcKey = (String, String);

/// Global symbol tables across all parsed files.
#[derive(Debug, Clone, Default)]
pub struct ProcTable {
    /// All procedures by key.
    pub procs: HashMap<ProcKey, ProcSig>,
    /// Procedure keys by bare name (several modules may define the same
    /// name; static analysis keeps all candidates).
    pub by_name: HashMap<String, Vec<ProcKey>>,
    /// The function-name hash table of §4.2 (bare names that are functions
    /// in at least one module).
    pub function_names: HashSet<String>,
    /// Generic interfaces: generic name → specific procedure keys.
    pub interfaces: HashMap<String, Vec<ProcKey>>,
    /// Module-level variable names per module (the "public variables"
    /// importable via plain `use`).
    pub module_vars: HashMap<String, HashSet<String>>,
}

impl ProcTable {
    /// Builds the table from every parsed file.
    pub fn build<F: Borrow<SourceFile>>(files: &[F]) -> ProcTable {
        let mut table = ProcTable::default();
        for file in files {
            for module in &file.borrow().modules {
                table.ingest_module(module);
            }
        }
        table
    }

    fn ingest_module(&mut self, module: &Module) {
        let mvars: &mut HashSet<String> = self.module_vars.entry(module.name.clone()).or_default();
        for decl in &module.decls {
            for e in &decl.entities {
                mvars.insert(e.name.clone());
            }
        }
        for sub in &module.subprograms {
            let mut intents = Vec::with_capacity(sub.args.len());
            for arg in &sub.args {
                let mut intent = ArgIntent::Unknown;
                'outer: for d in &sub.decls {
                    for e in &d.entities {
                        if &e.name == arg {
                            intent = if d.attrs.contains(&Attr::IntentIn) {
                                ArgIntent::In
                            } else if d.attrs.contains(&Attr::IntentOut) {
                                ArgIntent::Out
                            } else if d.attrs.contains(&Attr::IntentInOut) {
                                ArgIntent::InOut
                            } else {
                                ArgIntent::Unknown
                            };
                            break 'outer;
                        }
                    }
                }
                intents.push(intent);
            }
            let (is_function, result) = match &sub.kind {
                SubprogramKind::Function { result } => (true, Some(result.clone())),
                SubprogramKind::Subroutine => (false, None),
            };
            let key: ProcKey = (module.name.clone(), sub.name.clone());
            if is_function {
                self.function_names.insert(sub.name.clone());
            }
            self.by_name
                .entry(sub.name.clone())
                .or_default()
                .push(key.clone());
            self.procs.insert(
                key,
                ProcSig {
                    module: module.name.clone(),
                    name: sub.name.clone(),
                    args: sub.args.clone(),
                    intents,
                    is_function,
                    result,
                },
            );
        }
        for iface in &module.interfaces {
            let keys: Vec<ProcKey> = iface
                .procedures
                .iter()
                .map(|p| (module.name.clone(), p.clone()))
                .collect();
            // A generic interface is a function name if any target is.
            self.interfaces
                .entry(iface.name.clone())
                .or_default()
                .extend(keys);
        }
    }

    /// Finalize: interfaces whose targets are functions also enter the
    /// function-name table. Call after [`ProcTable::build`] ingests all
    /// files (interface targets may live in any module).
    pub fn resolve_interfaces(&mut self) {
        let mut promote = Vec::new();
        for (generic, keys) in &self.interfaces {
            if keys
                .iter()
                .any(|k| self.procs.get(k).is_some_and(|p| p.is_function))
            {
                promote.push(generic.clone());
            }
        }
        for g in promote {
            self.function_names.insert(g);
        }
    }

    /// Candidate procedures for a call of `name`: the direct definition(s),
    /// or every interface target ("with static analysis it is not always
    /// possible to determine which function a Fortran interface call
    /// actually executes at runtime. Therefore, we adopt the conservative
    /// approach of mapping all possible connections", §4.2).
    pub fn candidates(&self, name: &str) -> Vec<&ProcSig> {
        let mut out = Vec::new();
        if let Some(keys) = self.by_name.get(name) {
            out.extend(keys.iter().filter_map(|k| self.procs.get(k)));
        }
        if let Some(keys) = self.interfaces.get(name) {
            out.extend(keys.iter().filter_map(|k| self.procs.get(k)));
        }
        out
    }

    /// Whether `name` can denote a function call (in the hash table).
    pub fn is_function_name(&self, name: &str) -> bool {
        self.function_names.contains(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rca_fortran::parse_source;

    fn table(src: &str) -> ProcTable {
        let (file, errs) = parse_source("t.F90", src);
        assert!(errs.is_empty(), "{errs:?}");
        let mut t = ProcTable::build(&[file]);
        t.resolve_interfaces();
        t
    }

    const SRC: &str = r#"
module wv_saturation
  implicit none
  real(r8), parameter :: tboil = 373.16
  interface qsat
    module procedure qsat_water
    module procedure qsat_ice
  end interface
contains
  elemental real(r8) function goffgratch(t) result(es)
    real(r8), intent(in) :: t
    es = t * 2.0
  end function goffgratch
  subroutine qsat_water(t, qs)
    real(r8), intent(in) :: t
    real(r8), intent(out) :: qs
    qs = goffgratch(t)
  end subroutine qsat_water
  subroutine qsat_ice(t, qs)
    real(r8), intent(in) :: t
    real(r8), intent(out) :: qs
    qs = t
  end subroutine qsat_ice
end module wv_saturation
"#;

    #[test]
    fn function_hash_table() {
        let t = table(SRC);
        assert!(t.is_function_name("goffgratch"));
        assert!(!t.is_function_name("qsat_water"), "subroutines excluded");
        assert!(!t.is_function_name("tboil"), "variables excluded");
    }

    #[test]
    fn intents_recorded() {
        let t = table(SRC);
        let sig = &t.procs[&("wv_saturation".to_string(), "qsat_water".to_string())];
        assert_eq!(sig.intents, vec![ArgIntent::In, ArgIntent::Out]);
        assert!(!sig.is_function);
    }

    #[test]
    fn function_result_name() {
        let t = table(SRC);
        let sig = &t.procs[&("wv_saturation".to_string(), "goffgratch".to_string())];
        assert!(sig.is_function);
        assert_eq!(sig.result.as_deref(), Some("es"));
    }

    #[test]
    fn interface_candidates_conservative() {
        let t = table(SRC);
        let c = t.candidates("qsat");
        assert_eq!(c.len(), 2, "all possible connections mapped");
        let names: Vec<&str> = c.iter().map(|p| p.name.as_str()).collect();
        assert!(names.contains(&"qsat_water"));
        assert!(names.contains(&"qsat_ice"));
    }

    #[test]
    fn module_vars_collected() {
        let t = table(SRC);
        assert!(t.module_vars["wv_saturation"].contains("tboil"));
    }

    #[test]
    fn same_name_across_modules() {
        let src = r#"
module a
contains
  subroutine run(x)
    real :: x
    x = 1.0
  end subroutine run
end module a
module b
contains
  subroutine run(x)
    real :: x
    x = 2.0
  end subroutine run
end module b
"#;
        let t = table(src);
        assert_eq!(t.candidates("run").len(), 2);
    }
}
