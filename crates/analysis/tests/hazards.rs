//! Definite numeric hazards on small hand-written models.
//!
//! The hazard lints (`div-by-zero`, `sqrt-domain`, `log-domain`) are
//! definite by construction: they fire only when the abstract state says
//! the hazard holds on every path. The first group pins paths the
//! interval walk must not lose (a later `else if` guard, a loop that runs
//! zero times or leaves through `exit`); the second pins what module
//! constants let it prove.

use rca_analysis::{Finding, ModelAnalysis, Severity};
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
    let (ast, errs) = parse_source("hazards.F90", &src);
    assert!(errs.is_empty(), "{errs:?}");
    let program = compile_sources(&[ast]).expect("compiles");
    ModelAnalysis::build(program.into()).lint().findings
}

/// Findings of lint `slug` in subprogram `sub`.
fn found<'a>(findings: &'a [Finding], slug: &str, sub: &str) -> Vec<&'a Finding> {
    findings
        .iter()
        .filter(|f| f.lint == slug && f.subprogram == sub)
        .collect()
}

/// Warnings (definite defects) in subprogram `sub`.
fn warnings<'a>(findings: &'a [Finding], sub: &str) -> Vec<&'a Finding> {
    findings
        .iter()
        .filter(|f| f.severity == Severity::Warning && f.subprogram == sub)
        .collect()
}

/// Module `m` with `entry` calling `s(...)`, the subroutine under test.
fn with_s(call: &str, s: &str) -> String {
    format!(
        "module m\n\
         contains\n\
         subroutine entry()\n\
         real(r8) :: a, y\n\
         integer :: n\n\
         a = 1.0_r8\n\
         n = 2\n\
         {call}\n\
         end subroutine entry\n\
         {s}\
         end module m\n"
    )
}

#[test]
fn else_if_guard_sees_the_entry_state() {
    // `1/x` runs only when the first guard is false, where `x` is 1.
    let f = lint(&with_s(
        "call s(a, y)",
        "subroutine s(a, y)\n\
         real(r8), intent(in) :: a\n\
         real(r8), intent(out) :: y\n\
         real(r8) :: x\n\
         y = 0.0_r8\n\
         x = 1.0_r8\n\
         if (a > 0.0_r8) then\n\
         x = 0.0_r8\n\
         else if (1.0_r8 / x > 2.0_r8) then\n\
         y = 1.0_r8\n\
         end if\n\
         end subroutine s\n",
    ));
    assert!(warnings(&f, "s").is_empty(), "{f:#?}");
    // What the guard does prove: `1/x` is the constant 1.
    assert_eq!(found(&f, "const-foldable", "s").len(), 1, "{f:#?}");
}

#[test]
fn counted_loop_may_run_zero_times() {
    let f = lint(&with_s(
        "call s(n, y)",
        "subroutine s(n, y)\n\
         integer, intent(in) :: n\n\
         real(r8), intent(out) :: y\n\
         real(r8) :: x\n\
         integer :: i\n\
         x = 1.0_r8\n\
         do i = 1, n\n\
         x = 0.0_r8\n\
         end do\n\
         y = 1.0_r8 / x\n\
         end subroutine s\n",
    ));
    assert!(warnings(&f, "s").is_empty(), "{f:#?}");
}

#[test]
fn while_loop_may_run_zero_times() {
    let f = lint(&with_s(
        "call s(a, y)",
        "subroutine s(a, y)\n\
         real(r8), intent(inout) :: a\n\
         real(r8), intent(out) :: y\n\
         real(r8) :: x\n\
         x = 1.0_r8\n\
         do while (a > 5.0_r8)\n\
         a = a - 1.0_r8\n\
         x = 0.0_r8\n\
         end do\n\
         y = 1.0_r8 / x\n\
         end subroutine s\n",
    ));
    assert!(warnings(&f, "s").is_empty(), "{f:#?}");
}

#[test]
fn loop_exit_skips_the_rest_of_the_body() {
    // Three trips, but the first may leave before `x = 0`.
    let f = lint(&with_s(
        "call s(a, y)",
        "subroutine s(a, y)\n\
         real(r8), intent(in) :: a\n\
         real(r8), intent(out) :: y\n\
         real(r8) :: x\n\
         integer :: i\n\
         x = 1.0_r8\n\
         do i = 1, 3\n\
         if (a > 0.0_r8) exit\n\
         x = 0.0_r8\n\
         end do\n\
         y = 1.0_r8 / x\n\
         end subroutine s\n",
    ));
    assert!(warnings(&f, "s").is_empty(), "{f:#?}");
}

/// Module `m` with constants `zero` (a parameter), `zv` and `gz`
/// (variables initialized to 0, `gz` written by a call's copy-out) and
/// `neg` (a negative parameter).
fn constants(entry_body: &str) -> String {
    format!(
        "module m\n\
         real(r8), parameter :: zero = 0.0_r8\n\
         real(r8), parameter :: neg = -2.0_r8\n\
         real(r8) :: zv = 0.0_r8\n\
         real(r8) :: gz = 0.0_r8\n\
         contains\n\
         subroutine setter(v)\n\
         real(r8), intent(out) :: v\n\
         v = 2.0_r8\n\
         end subroutine setter\n\
         subroutine entry()\n\
         real(r8) :: y\n\
         call setter(gz)\n\
         {entry_body}\n\
         call outfld('Y', y)\n\
         end subroutine entry\n\
         end module m\n"
    )
}

#[test]
fn div_by_a_never_written_zero_parameter() {
    let f = lint(&constants("y = 1.0_r8 / zero"));
    assert_eq!(found(&f, "div-by-zero", "entry").len(), 1, "{f:#?}");
}

#[test]
fn div_by_a_never_written_zero_variable() {
    let f = lint(&constants("y = 1.0_r8 / zv"));
    assert_eq!(found(&f, "div-by-zero", "entry").len(), 1, "{f:#?}");
}

#[test]
fn copy_out_makes_a_global_non_constant() {
    let f = lint(&constants("y = 1.0_r8 / gz"));
    assert!(found(&f, "div-by-zero", "entry").is_empty(), "{f:#?}");
}

#[test]
fn sqrt_of_a_negative_parameter() {
    let f = lint(&constants("y = sqrt(neg)"));
    assert_eq!(found(&f, "sqrt-domain", "entry").len(), 1, "{f:#?}");
}

#[test]
fn log_of_a_zero_parameter() {
    let f = lint(&constants("y = log(zero)"));
    assert_eq!(found(&f, "log-domain", "entry").len(), 1, "{f:#?}");
}
