//! Coverage-based source filtering — the "hybrid" in hybrid slicing.
//!
//! The paper uses Intel's code-coverage tool to discard "modules that are
//! not yet executed by the second time step, as well as to remove
//! unexecuted subprograms from the remaining modules" (§2.1), reducing
//! modules by ~30% and subprograms by ~60% (§4.1). Coverage data here comes
//! from the `rca-sim` interpreter's recorder; this module applies it to
//! parsed ASTs before metagraph construction.

use rca_fortran::ast::{Module, SourceFile};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::Arc;

/// Observed execution coverage: which modules and subprograms ran.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Coverage {
    executed_modules: HashSet<String>,
    executed_subprograms: HashSet<(String, String)>,
}

impl Coverage {
    /// Creates an empty coverage record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks `(module, subprogram)` as executed (also marks the module).
    pub fn mark(&mut self, module: &str, subprogram: &str) {
        self.executed_modules.insert(module.to_string());
        self.executed_subprograms
            .insert((module.to_string(), subprogram.to_string()));
    }

    /// Whether the module executed at all.
    pub fn module_executed(&self, module: &str) -> bool {
        self.executed_modules.contains(module)
    }

    /// Whether the subprogram executed.
    pub fn subprogram_executed(&self, module: &str, subprogram: &str) -> bool {
        self.executed_subprograms
            .contains(&(module.to_string(), subprogram.to_string()))
    }

    /// Number of executed modules.
    pub fn module_count(&self) -> usize {
        self.executed_modules.len()
    }

    /// Number of executed subprograms.
    pub fn subprogram_count(&self) -> usize {
        self.executed_subprograms.len()
    }

    /// Merges another coverage record into this one.
    pub fn merge(&mut self, other: &Coverage) {
        self.executed_modules
            .extend(other.executed_modules.iter().cloned());
        self.executed_subprograms
            .extend(other.executed_subprograms.iter().cloned());
    }
}

/// Statistics from a coverage-filter application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterStats {
    /// Modules before filtering.
    pub modules_before: usize,
    /// Modules kept.
    pub modules_after: usize,
    /// Subprograms before filtering.
    pub subprograms_before: usize,
    /// Subprograms kept.
    pub subprograms_after: usize,
}

/// Applies coverage to parsed sources: drops unexecuted modules entirely
/// and strips unexecuted subprograms from the survivors (the paper comments
/// them out; dropping the AST node is equivalent for graph construction).
///
/// A file coverage leaves whole comes back as its input `Arc`, so the
/// filtered view shares every such AST with the caller's parse; only a
/// file that loses a module or subprogram is copied into a new value.
pub fn filter_sources(
    files: &[Arc<SourceFile>],
    coverage: &Coverage,
) -> (Vec<Arc<SourceFile>>, FilterStats) {
    let mut stats = FilterStats {
        modules_before: 0,
        modules_after: 0,
        subprograms_before: 0,
        subprograms_after: 0,
    };
    // Parameter/type-only modules have no executable lines for a coverage
    // tool to observe; they are kept (they are "built into the
    // executable").
    let keeps_module = |m: &Module| m.subprograms.is_empty() || coverage.module_executed(&m.name);
    let mut out = Vec::new();
    for file in files {
        let mut whole = true;
        for m in &file.modules {
            stats.modules_before += 1;
            stats.subprograms_before += m.subprograms.len();
            if !keeps_module(m) {
                whole = false;
                continue;
            }
            stats.modules_after += 1;
            let executed = m
                .subprograms
                .iter()
                .filter(|s| coverage.subprogram_executed(&m.name, &s.name))
                .count();
            stats.subprograms_after += executed;
            whole &= executed == m.subprograms.len();
        }
        if whole {
            if !file.modules.is_empty() {
                out.push(Arc::clone(file));
            }
            continue;
        }
        let mut kept = SourceFile::clone(file);
        kept.modules.retain_mut(|m| {
            if !keeps_module(m) {
                return false;
            }
            m.subprograms
                .retain(|s| coverage.subprogram_executed(&m.name, &s.name));
            true
        });
        if !kept.modules.is_empty() {
            out.push(Arc::new(kept));
        }
    }
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rca_fortran::parse_source;

    fn files() -> Vec<Arc<SourceFile>> {
        let src = r#"
module hot
contains
  subroutine used(x)
    real :: x
    x = 1.0
  end subroutine used
  subroutine unused(x)
    real :: x
    x = 2.0
  end subroutine unused
end module hot
module cold
contains
  subroutine never(x)
    real :: x
    x = 3.0
  end subroutine never
end module cold
"#;
        let (f, errs) = parse_source("cov.F90", src);
        assert!(errs.is_empty());
        vec![Arc::new(f)]
    }

    /// The deep-copying filter `filter_sources` replaced: clone every
    /// file, then strip it.
    fn copying_filter(
        files: &[Arc<SourceFile>],
        coverage: &Coverage,
    ) -> (Vec<SourceFile>, FilterStats) {
        let mut stats = FilterStats {
            modules_before: 0,
            modules_after: 0,
            subprograms_before: 0,
            subprograms_after: 0,
        };
        let mut out = Vec::new();
        for file in files {
            let mut kept = SourceFile::clone(file);
            kept.modules.retain_mut(|m| {
                stats.modules_before += 1;
                stats.subprograms_before += m.subprograms.len();
                if !m.subprograms.is_empty() && !coverage.module_executed(&m.name) {
                    return false;
                }
                stats.modules_after += 1;
                m.subprograms
                    .retain(|s| coverage.subprogram_executed(&m.name, &s.name));
                stats.subprograms_after += m.subprograms.len();
                true
            });
            if !kept.modules.is_empty() {
                out.push(kept);
            }
        }
        (out, stats)
    }

    #[test]
    fn whole_files_come_back_shared_and_stripped_files_as_new_values() {
        let (whole, errs) = parse_source(
            "whole.F90",
            "module consts\n  real :: c = 1.0\nend module consts\n\
             module warm\ncontains\n  subroutine run(x)\n    real :: x\n    x = c\n  \
             end subroutine run\nend module warm\n",
        );
        assert!(errs.is_empty());
        let files = vec![Arc::new(whole), files().remove(0)];
        let mut cov = Coverage::new();
        cov.mark("warm", "run");
        cov.mark("hot", "used");
        cov.mark("cold", "never");
        let (filtered, stats) = filter_sources(&files, &cov);
        assert_eq!(filtered.len(), 2);
        assert!(
            Arc::ptr_eq(&filtered[0], &files[0]),
            "untouched file copied"
        );
        assert!(
            !Arc::ptr_eq(&filtered[1], &files[1]),
            "stripped file shared"
        );
        assert_eq!(filtered[1].modules[0].subprograms.len(), 1);
        // Same values and statistics as the copying filter, for this
        // coverage and for the two extremes.
        let mut everything = cov.clone();
        everything.mark("hot", "unused");
        for coverage in [&cov, &everything, &Coverage::new()] {
            let (shared, stats) = filter_sources(&files, coverage);
            let (copied, copied_stats) = copying_filter(&files, coverage);
            assert_eq!(stats, copied_stats);
            assert!(shared.iter().map(|f| &**f).eq(copied.iter()));
        }
        let (all, _) = filter_sources(&files, &everything);
        assert!(all.iter().zip(&files).all(|(a, b)| Arc::ptr_eq(a, b)));
        assert_eq!(
            stats,
            FilterStats {
                modules_before: 4,
                modules_after: 4,
                subprograms_before: 4,
                subprograms_after: 3,
            }
        );
    }

    #[test]
    fn filters_unexecuted_code() {
        let mut cov = Coverage::new();
        cov.mark("hot", "used");
        let (filtered, stats) = filter_sources(&files(), &cov);
        assert_eq!(filtered.len(), 1);
        assert_eq!(filtered[0].modules.len(), 1);
        assert_eq!(filtered[0].modules[0].name, "hot");
        assert_eq!(filtered[0].modules[0].subprograms.len(), 1);
        assert_eq!(filtered[0].modules[0].subprograms[0].name, "used");
        assert_eq!(stats.modules_before, 2);
        assert_eq!(stats.modules_after, 1);
        assert_eq!(stats.subprograms_before, 3);
        assert_eq!(stats.subprograms_after, 1);
    }

    #[test]
    fn empty_coverage_drops_everything() {
        let cov = Coverage::new();
        let (filtered, stats) = filter_sources(&files(), &cov);
        assert!(filtered.is_empty());
        assert_eq!(stats.modules_after, 0);
    }

    #[test]
    fn merge_unions_records() {
        let mut a = Coverage::new();
        a.mark("hot", "used");
        let mut b = Coverage::new();
        b.mark("cold", "never");
        a.merge(&b);
        assert!(a.module_executed("cold"));
        assert_eq!(a.subprogram_count(), 2);
        assert_eq!(a.module_count(), 2);
    }

    #[test]
    fn mark_is_idempotent() {
        let mut cov = Coverage::new();
        cov.mark("hot", "used");
        cov.mark("hot", "used");
        assert_eq!(cov.subprogram_count(), 1);
    }
}
