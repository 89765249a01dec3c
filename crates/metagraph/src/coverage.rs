//! Coverage-based source filtering — the "hybrid" in hybrid slicing.
//!
//! The paper uses Intel's code-coverage tool to discard "modules that are
//! not yet executed by the second time step, as well as to remove
//! unexecuted subprograms from the remaining modules" (§2.1), reducing
//! modules by ~30% and subprograms by ~60% (§4.1). Coverage data here is
//! the executed-subprogram set of one `rca-sim` run ([`RunCoverage`]);
//! this module applies it to parsed ASTs before metagraph construction.

use rca_fortran::ast::{Module, SourceFile};
use rca_sim::RunCoverage;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::Arc;

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

/// Applies a run's coverage to parsed sources: drops unexecuted modules
/// entirely and strips unexecuted subprograms from the survivors (the
/// paper comments them out; dropping the AST node is equivalent for graph
/// construction). A module executed when one of its `(module,
/// subprogram)` pairs ran.
///
/// A file coverage leaves whole comes back as its input `Arc`, so the
/// filtered view shares every such AST with the caller's parse; only a
/// file that loses a module or subprogram is copied into a new value.
pub fn filter_sources(
    files: &[Arc<SourceFile>],
    coverage: &RunCoverage,
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
    let executed_modules: HashSet<&str> = coverage.iter().map(|(m, _)| m).collect();
    let keeps_module =
        |m: &Module| m.subprograms.is_empty() || executed_modules.contains(m.name.as_str());
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
                .filter(|s| coverage.contains(&m.name, &s.name))
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
                .retain(|s| coverage.contains(&m.name, &s.name));
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

    fn coverage(pairs: &[(&str, &str)]) -> RunCoverage {
        RunCoverage::from_pairs(pairs.iter().copied())
    }

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
        coverage: &RunCoverage,
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
                if !m.subprograms.is_empty() && !coverage.iter().any(|(cm, _)| cm == m.name) {
                    return false;
                }
                stats.modules_after += 1;
                m.subprograms
                    .retain(|s| coverage.contains(&m.name, &s.name));
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
        let pairs = [("warm", "run"), ("hot", "used"), ("cold", "never")];
        let cov = coverage(&pairs);
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
        let everything = coverage(&[
            ("warm", "run"),
            ("hot", "used"),
            ("cold", "never"),
            ("hot", "unused"),
        ]);
        for case in [&cov, &everything, &coverage(&[])] {
            let (shared, stats) = filter_sources(&files, case);
            let (copied, copied_stats) = copying_filter(&files, case);
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
        let cov = coverage(&[("hot", "used")]);
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
        let (filtered, stats) = filter_sources(&files(), &coverage(&[]));
        assert!(filtered.is_empty());
        assert_eq!(stats.modules_after, 0);
    }
}
