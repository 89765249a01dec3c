//! Column step-kernel coverage: the compiler must extract kernels from
//! the generated model's elementwise loops, and every *edge* the runtime
//! validation guards — non-unit step, zero-trip bounds, fuel exhaustion
//! mid-loop — must leave the VM bit-identical with the reference
//! interpreter, or, for fuel (which the interpreter does not implement),
//! with a golden table of exhaustion errors.
//!
//! The broad differential suite (`tests/differential.rs`) proves parity
//! on the generated model at scale; this file pins the kernel-specific
//! corners with a handwritten model whose loops hit same-array
//! read/write, write-then-read across statements, derived fields,
//! `min`/`max`/`sign` folds, `**`, and unary minus.

use rca_model::{generate, Component, ModelConfig, ModelFile, ModelSource};
use rca_sim::{
    compile_model, run_loaded, run_program, Avx2Policy, Interpreter, RunConfig, RunOutput,
    BUDGET_CONTEXT,
};

const KEDGE: &str = r#"
module ktypes
  implicit none
  type cellfld
    real :: t(7)
  end type cellfld
end module ktypes

module kedge
  use ktypes, only: cellfld
  implicit none
  real :: acc(7)
  real :: aux(7)
  real :: tk(7)
  real :: w
  type(cellfld) :: state
contains
  subroutine cam_init(pert)
    real, intent(in) :: pert
    integer :: i
    do i = 1, 7
      acc(i) = 0.1 * i - 0.4 + pert
      aux(i) = 0.05 * i * i - 0.3
      state%t(i) = 250.0 + 2.5 * i
    end do
    w = 0.3 + pert
  end subroutine cam_init

  subroutine cam_run_step()
    integer :: i
    ! Kernelizable: same-array read/write, write-then-read across
    ! statements, derived-field read, min/max/sign folds, **, unary minus.
    do i = 1, 7
      acc(i) = acc(i) + w * (tanh(aux(i)) - acc(i))
      aux(i) = acc(i) * aux(i) + sign(w, aux(i) - 0.5)
      tk(i) = max(min(acc(i), state%t(i) * 0.01), -1.2) + abs(aux(i)) ** 0.5
    end do
    ! A derived-field store is outside the kernel shape: generic loop.
    do i = 1, 7
      state%t(i) = tk(i)
    end do
    ! Kernel-shaped but step 2: runtime validation rejects it and the
    ! generic loop must produce the identical strided result.
    do i = 1, 7, 2
      aux(i) = aux(i) * 0.99 + exp(-abs(acc(i)))
    end do
    ! Zero-trip bounds: validation rejects, DoCheck exits immediately.
    do i = 5, 4
      acc(i) = 1.0e9
    end do
    call outfld('KACC', acc, 7)
    call outfld('KAUX', aux, 7)
    call outfld('KST', state%t, 7)
  end subroutine cam_run_step
end module kedge
"#;

/// One scalar FMA site and one kernelized loop of them whose product
/// overflows: the exact `a*b + c` is about 1e400, so a fused
/// multiply-add rounds it to `+inf`, as the unfused form does.
const FMA_OVERFLOW: &str = r#"
module fmaover
  implicit none
  real :: a
  real :: b
  real :: c
  real :: x
  real :: va(3)
  real :: vb(3)
  real :: vc(3)
  real :: vx(3)
contains
  subroutine cam_init(pert)
    real, intent(in) :: pert
    integer :: i
    a = 1.0e200
    b = 1.0e200
    c = -1.0e300
    do i = 1, 3
      va(i) = 1.0e200
      vb(i) = 1.0e200
      vc(i) = -1.0e300
    end do
  end subroutine cam_init

  subroutine cam_run_step()
    integer :: i
    x = a * b + c
    do i = 1, 3
      vx(i) = va(i) * vb(i) + vc(i)
    end do
    call outfld('FMAX', x, 1)
    call outfld('FMAVX', vx, 3)
  end subroutine cam_run_step
end module fmaover
"#;

fn single_file_model(name: &str, source: &str) -> ModelSource {
    ModelSource {
        files: vec![ModelFile {
            name: name.to_string(),
            component: Component::Cam,
            source: source.to_string(),
        }],
        config: ModelConfig::test(),
    }
}

fn kedge_model() -> ModelSource {
    single_file_model("kedge.F90", KEDGE)
}

fn assert_series_identical(label: &str, a: &RunOutput, b: &RunOutput) {
    let names: Vec<_> = a.history_iter().map(|(n, _)| n.clone()).collect();
    let names_b: Vec<_> = b.history_iter().map(|(n, _)| n.clone()).collect();
    assert_eq!(names, names_b, "{label}: output sets differ");
    for (name, series) in a.history_iter() {
        let other = b.series(name).expect("written in both");
        assert_eq!(series.len(), other.len(), "{label}/{name}: lengths");
        for (i, (x, y)) in series.iter().zip(other).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "{label}/{name}[{i}]: {x:e} != {y:e}"
            );
        }
    }
}

/// The generated model's filler loops are the kernels' reason to exist:
/// the compiler must actually extract some.
#[test]
fn generated_model_compiles_kernels() {
    let model = generate(&ModelConfig::test());
    let program = compile_model(&model).expect("compile");
    assert!(
        program.kernel_count() > 0,
        "no loops kernelized in the generated model"
    );
    assert!(program.instr_count() > 0);
}

/// Handwritten kernel edge cases: interpreter-vs-VM bit-identity, and
/// the kernelizable loop really compiled to a kernel.
#[test]
fn kernel_edge_cases_match_the_interpreter() {
    let model = kedge_model();
    let cfg = RunConfig {
        steps: 9,
        ..Default::default()
    };

    let program = compile_model(&model).expect("compile");
    // The elementwise loop plus the two shapes rejected at run time.
    assert_eq!(
        program.kernel_count(),
        3,
        "the elementwise loop did not kernelize"
    );

    let (asts, errs) = model.parse();
    assert!(errs.is_empty(), "{errs:?}");
    let mut interp = Interpreter::load(&asts, cfg.clone()).expect("load");
    let reference = run_loaded(&mut interp, &cfg, 1.0e-14).expect("tree-walk run");
    let vm = run_program(&program, &cfg, 1.0e-14).expect("vm run");

    assert_series_identical("interp-vs-vm", &reference, &vm);
}

/// FMA contraction is `mul_add`, bit for bit, in the interpreter, the
/// VM's scalar site and its column kernel — also where the product
/// overflows and the fused result is `+inf`, the value AVX2-off runs
/// record too.
#[test]
fn fma_overflow_is_a_fused_multiply_add_in_both_engines() {
    let model = single_file_model("fmaover.F90", FMA_OVERFLOW);
    let program = compile_model(&model).expect("compile");
    // The initialization loop and the FMA loop.
    assert_eq!(program.kernel_count(), 2, "the FMA loop did not kernelize");
    let (asts, errs) = model.parse();
    assert!(errs.is_empty(), "{errs:?}");
    let fused = 1.0e200_f64.mul_add(1.0e200, -1.0e300);
    assert_eq!(fused, f64::INFINITY);
    for avx2 in [Avx2Policy::AllModules, Avx2Policy::Disabled] {
        let cfg = RunConfig {
            steps: 2,
            avx2,
            ..Default::default()
        };
        let label = format!("{:?}", cfg.avx2);
        let mut interp = Interpreter::load(&asts, cfg.clone()).expect("load");
        let reference = run_loaded(&mut interp, &cfg, 0.0).expect("tree-walk run");
        let vm = run_program(&program, &cfg, 0.0).expect("vm run");
        assert_series_identical(&label, &reference, &vm);
        for name in ["fmax", "fmavx"] {
            let series = vm.series(name).expect("recorded");
            assert!(
                series.iter().all(|v| v.to_bits() == fused.to_bits()),
                "{label}/{name}: {series:?}"
            );
        }
    }
}

/// The kedge run's fuel outcomes: `None` = completes, `Some(s)` = the
/// budget error naming step `s` (always `BUDGET_CONTEXT`, line 0).
/// `cam_init` costs 23 statements and each step 39, 21 of them in the
/// kernelized loop, so a step-`s` error covers budgets up to `61 + 39 s`
/// and 374 completes the nine steps. Besides the original sweep the
/// table holds the edges a miscounted kernel charge would cross: 44
/// leaves the step-0 kernel one statement short of its cost, 61/62 and
/// 373/374 straddle the end of step 0 and of the run. Every entry was
/// recorded while the retired slot-indexed tree executor still
/// cross-checked the VM statement by statement.
const FUEL_GOLDEN: &[(u64, Option<u32>)] = &[
    (1, Some(0)),
    (5, Some(0)),
    (20, Some(0)),
    (23, Some(0)),
    (24, Some(0)),
    (25, Some(0)),
    (40, Some(0)),
    (44, Some(0)),
    (60, Some(0)),
    (61, Some(0)),
    (62, Some(1)),
    (100, Some(1)),
    (373, Some(8)),
    (374, None),
    (100_000, None),
];

/// Fuel exhaustion *inside* a kernelized loop: the VM pre-checks the
/// budget and falls back, so the budget error must strike at the exact
/// statement a per-statement count reaches it. The interpreter has no
/// fuel, so the fence is the golden table above plus two properties: a
/// run that completes is bit-identical to an unlimited one, and the step
/// an exhaustion names never decreases as the budget grows.
#[test]
fn kernel_fuel_exhaustion_matches_golden_table() {
    let model = kedge_model();
    let program = compile_model(&model).expect("compile");
    let run = |fuel: Option<u64>| {
        let cfg = RunConfig {
            steps: 9,
            fuel,
            ..Default::default()
        };
        run_program(&program, &cfg, 0.0)
    };
    let unlimited = run(None).expect("unlimited run");
    let mut last_step = 0;
    for &(fuel, want) in FUEL_GOLDEN {
        match (run(Some(fuel)), want) {
            (Ok(out), None) => assert_series_identical(&format!("fuel={fuel}"), &unlimited, &out),
            (Err(e), Some(step)) => {
                assert_eq!(
                    e.message,
                    format!("statement fuel budget of {fuel} exhausted at step {step} (member 0)"),
                    "fuel={fuel}: message"
                );
                assert_eq!(e.context, BUDGET_CONTEXT, "fuel={fuel}: context");
                assert_eq!(e.line, 0, "fuel={fuel}: line");
                assert!(step >= last_step, "fuel={fuel}: step went back to {step}");
                last_step = step;
            }
            (got, want) => panic!("fuel={fuel}: got {got:?}, golden {want:?}"),
        }
    }
}
