//! Golden disassembly snapshot: the bytecode emitter's output for a
//! handwritten mini-model is pinned verbatim.
//!
//! Emitted code is never rewritten, so the snapshot is exactly what the
//! emitter produced. It is deliberately small but covers the shapes
//! that matter: a unary `+` (the parser drops it, so `t = +out` is a
//! plain load), code after `return` (kept, never reached), an
//! `if`/`else`, a counted `do` with its column kernel, an FMA-shaped
//! update (`BranchFmaOff`/`fmatry` pair), a function call with copy-out,
//! and an intrinsic. Any change to instruction selection or register
//! allocation shows up here as a readable diff — review it, then update
//! the golden text. A second test pins only determinism on the full
//! generated test-scale model, so it survives model-generator drift.

use rca_fortran::parse_source;
use rca_model::{generate, ModelConfig};
use rca_sim::{compile_model, compile_sources, Program};

const MINI: &str = r#"
module mini
  real :: out
  real :: acc(3)
contains
  real function halve(x) result(h)
    real, intent(in) :: x
    h = x * 0.5
    return
    h = -1.0
  end function halve
  subroutine step(ncol)
    integer, intent(in) :: ncol
    integer :: k
    real :: t
    t = +out
    do k = 1, ncol
      acc(k) = acc(k) * 1.5 + t
    end do
    if (ncol > 2) then
      out = halve(t) + sqrt(abs(t))
    else
      out = 0.0
    end if
  end subroutine step
end module mini
"#;

fn compile_mini() -> Program {
    let (file, errs) = parse_source("mini.F90", MINI);
    assert!(errs.is_empty(), "{errs:?}");
    compile_sources(&[file]).expect("compile")
}

#[test]
fn mini_model_disassembly_is_pinned() {
    let program = compile_mini();
    let got = program.disassemble();
    let want = "\
proc 0: mini::halve (args 1, slots 2, regs 1)
   0  init result local[1]                        ; line 0
   1  fuel                                        ; line 8
   2  r0 <- local[0] 'x' * const 0.5
   3  local[1] <- r0
   4  fuel
   5  ret
   6  fuel                                        ; line 10
   7  r0 <- const -1
   8  local[1] <- r0
   9  ret
proc 1: mini::step (args 1, slots 3, regs 6)
   0  init local[1] <- int _                      ; line 14
   1  init local[2] <- real _                     ; line 15
   2  fuel                                        ; line 16
   3  r0 <- global[0]
   4  local[2] <- r0
   5  fuel                                        ; line 17
   6  r0 <- const 1
   7  toint r0
   8  r1 <- local[0] 'ncol'
   9  toint r1
  10  r2 <- const 1
  11  kernel 0 (1 stmts) cols [global[1]]
  12  docheck r0..r1 step r2 var local[1] exit -> 23
  13  fuel                                        ; line 18
  14  br.fmaoff m0 -> 18
  15  r4 <- global[1][local[1] 'k'] 'acc'
  16  r3 <- fma r4*const 1.5 + local[2] 't' else -> 18
  17  jump -> 21
  18  r5 <- global[1][local[1] 'k'] 'acc'
  19  r4 <- r5 * const 1.5
  20  r3 <- r4 + local[2] 't'
  21  global[1][local[1] 'k'] <- r3 'acc'
  22  doincr r0 += r2 -> 12                       ; line 17
  23  fuel                                        ; line 20
  24  r0 <- local[0] 'ncol' > const 2
  25  br.false(if) r0 -> 36
  26  fuel                                        ; line 21
  27  r2 <- local[2] 't'
  28  r1 <- call mini::halve argv r2
  29  r4 <- local[2] 't'
  30  r3 <- abs(r4..r4)
  31  tonum r3
  32  r2 <- sqrt(r3..r3)
  33  r0 <- r1 + r2
  34  global[0] <- r0
  35  jump -> 39
  36  fuel                                        ; line 23
  37  r0 <- const 0
  38  global[0] <- r0
  39  ret
";
    assert_eq!(
        got, want,
        "disassembly drifted — review the diff, then update the golden text\n\
         ==== actual ====\n{got}\n================"
    );
}

#[test]
fn generated_model_disassembly_is_stable_and_well_formed() {
    let model = generate(&ModelConfig::test());
    let program = compile_model(&model).expect("compile");
    let a = program.disassemble();
    let b = compile_model(&model).expect("recompile").disassemble();
    // Deterministic: two independent compiles of the same source render
    // identically (interning order, register allocation).
    assert_eq!(a, b, "disassembly is not deterministic");
    assert!(!a.is_empty());
}
