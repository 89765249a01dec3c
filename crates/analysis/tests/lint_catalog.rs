//! The reachability and dataflow lints on small hand-written models:
//! each fires on the defect it names and stays silent on its look-alike.

use rca_analysis::{Finding, ModelAnalysis};
use rca_fortran::parse_source;
use rca_sim::compile_sources;

/// Lints `module m` (which must define `subroutine entry()`) behind the
/// host entry points, with `cam_run_step` calling `entry`.
fn lint(module: &str) -> Vec<Finding> {
    let src = format!(
        "{module}\
         module host\n\
         use m, only: entry\n\
         contains\n\
         subroutine cam_init(pert)\n\
         real(r8), intent(in) :: pert\n\
         end subroutine cam_init\n\
         subroutine cam_run_step()\n\
         call entry()\n\
         end subroutine cam_run_step\n\
         end module host\n"
    );
    let (ast, errs) = parse_source("catalog.F90", &src);
    assert!(errs.is_empty(), "{errs:?}");
    let program = compile_sources(&[ast]).expect("compiles");
    ModelAnalysis::build(program.into()).lint().findings
}

/// Findings of lint `slug` about `variable` (or, if empty, in
/// subprogram `sub`).
fn found<'a>(findings: &'a [Finding], slug: &str, sub: &str, variable: &str) -> Vec<&'a Finding> {
    findings
        .iter()
        .filter(|f| f.lint == slug && f.subprogram == sub && f.variable == variable)
        .collect()
}

const REACH: &str = "module m\n\
     contains\n\
     function f(x) result(r)\n\
     real(r8), intent(in) :: x\n\
     real(r8) :: r\n\
     r = x + 1.0_r8\n\
     end function f\n\
     subroutine orphan()\n\
     real(r8) :: t\n\
     t = 3.0_r8\n\
     call outfld('ORPHAN_T', t)\n\
     end subroutine orphan\n\
     subroutine entry()\n\
     real(r8) :: y\n\
     y = 2.0_r8 * f(1.0_r8)\n\
     call outfld('Y', y)\n\
     end subroutine entry\n\
     end module m\n";

#[test]
fn unreachable_proc_is_a_subroutine_no_entry_point_calls() {
    let f = lint(REACH);
    assert_eq!(
        found(&f, "unreachable-proc", "orphan", "").len(),
        1,
        "{f:#?}"
    );
    // Reached only through a call inside an expression.
    assert!(found(&f, "unreachable-proc", "f", "").is_empty(), "{f:#?}");
    assert!(
        found(&f, "unreachable-proc", "entry", "").is_empty(),
        "{f:#?}"
    );
}

#[test]
fn unused_output_is_recorded_only_in_unreachable_procs() {
    let f = lint(REACH);
    let unused: Vec<&str> = f
        .iter()
        .filter(|x| x.lint == "unused-output")
        .map(|x| x.variable.as_str())
        .collect();
    assert_eq!(unused.len(), 1, "{f:#?}");
    assert!(unused[0].eq_ignore_ascii_case("orphan_t"), "{f:#?}");
}

#[test]
fn uninit_read_of_an_implicit_local_before_its_first_assignment() {
    let f = lint(
        "module m\n\
         contains\n\
         subroutine entry()\n\
         real(r8) :: y\n\
         y = t + 1.0_r8\n\
         t = 2.0_r8 * y\n\
         call outfld('Y', y + t)\n\
         end subroutine entry\n\
         end module m\n",
    );
    let reads = found(&f, "uninit-read", "entry", "t");
    assert_eq!(reads.len(), 1, "{f:#?}");
    assert_eq!(reads[0].line, 5, "{f:#?}");
    // `y` is assigned before every read.
    assert!(found(&f, "uninit-read", "entry", "y").is_empty(), "{f:#?}");
}
