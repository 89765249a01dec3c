//! Scalar operation kernel shared by both execution engines.
//!
//! The tree-walking [`crate::interp::Interpreter`] and the compiled
//! [`crate::exec::Executor`] must be **bit-identical**: every arithmetic
//! decision (integer vs real dispatch, `powi` for integer exponents,
//! Fortran broadcast assignment) lives here exactly once, so the two
//! engines cannot drift apart operator by operator. The differential test
//! suite then only has to police the *structural* semantics (scoping,
//! evaluation order, FMA contraction), not the arithmetic.

use crate::interp::RuntimeError;
use crate::program::Intrin;
use crate::value::Value;
use rca_fortran::token::Op;

pub(crate) type RunResult<T> = Result<T, RuntimeError>;

/// Stack-first buffer for numeric intrinsic arguments (spills to the
/// heap only beyond eight — arities generated code never reaches).
struct RealArgBuf {
    inline: [f64; 8],
    spill: Vec<f64>,
}

/// Evaluates `n_args` numeric arguments left-to-right into `buf` and
/// returns the filled slice. Values, evaluation order, and error
/// rendering are exactly those of the old per-call `Vec` collection.
fn eval_real_args<'b>(
    n_args: usize,
    arg: &mut dyn FnMut(usize) -> RunResult<Value>,
    buf: &'b mut RealArgBuf,
    module: &str,
    line: u32,
) -> RunResult<&'b [f64]> {
    let spilled = n_args > buf.inline.len();
    if spilled {
        buf.spill.reserve(n_args);
    }
    for i in 0..n_args {
        let v = arg(i)?;
        let x = v.as_f64().ok_or_else(|| {
            RuntimeError::new(
                format!("intrinsic argument must be numeric, got {}", v.type_name()),
                module,
                line,
            )
        })?;
        if spilled {
            buf.spill.push(x);
        } else {
            buf.inline[i] = x;
        }
    }
    Ok(if spilled {
        &buf.spill[..]
    } else {
        &buf.inline[..n_args]
    })
}

/// Evaluates one intrinsic, pulling arguments through `arg` on demand —
/// the callback indexes the caller's argument list, so each engine keeps
/// its own (lazy, left-to-right) argument evaluation while the arithmetic
/// lives here exactly once. Note the argument-evaluation *selectivity* is
/// part of the semantics: `abs`/`sum`/`size`/... evaluate only their
/// first argument, `epsilon`/`tiny`/`huge` evaluate nothing.
pub(crate) fn intrinsic_op(
    which: Intrin,
    n_args: usize,
    arg: &mut dyn FnMut(usize) -> RunResult<Value>,
    module: &str,
    line: u32,
) -> RunResult<Value> {
    // Numeric argument lists live on the stack: intrinsics are the single
    // densest allocation site of a simulation step (every min/max/sqrt in
    // the physics evaluated one Vec per call), and generated code never
    // passes more than a handful of arguments. The rare wider call spills
    // to the heap; values and evaluation order are identical either way.
    let mut argbuf = RealArgBuf {
        inline: [0.0; 8],
        spill: Vec::new(),
    };
    let v = match which {
        Intrin::Min => {
            let xs = eval_real_args(n_args, arg, &mut argbuf, module, line)?;
            Value::Real(xs.iter().copied().fold(f64::INFINITY, f64::min))
        }
        Intrin::Max => {
            let xs = eval_real_args(n_args, arg, &mut argbuf, module, line)?;
            Value::Real(xs.iter().copied().fold(f64::NEG_INFINITY, f64::max))
        }
        Intrin::Sqrt => {
            Value::Real(eval_real_args(n_args, arg, &mut argbuf, module, line)?[0].sqrt())
        }
        Intrin::Exp => {
            Value::Real(eval_real_args(n_args, arg, &mut argbuf, module, line)?[0].exp())
        }
        Intrin::Log => Value::Real(eval_real_args(n_args, arg, &mut argbuf, module, line)?[0].ln()),
        Intrin::Log10 => {
            Value::Real(eval_real_args(n_args, arg, &mut argbuf, module, line)?[0].log10())
        }
        Intrin::Abs => {
            let v = arg(0)?;
            match v {
                Value::Int(i) => Value::Int(i.abs()),
                other => Value::Real(other.as_f64().unwrap_or(f64::NAN).abs()),
            }
        }
        Intrin::Tanh => {
            Value::Real(eval_real_args(n_args, arg, &mut argbuf, module, line)?[0].tanh())
        }
        Intrin::Sin => {
            Value::Real(eval_real_args(n_args, arg, &mut argbuf, module, line)?[0].sin())
        }
        Intrin::Cos => {
            Value::Real(eval_real_args(n_args, arg, &mut argbuf, module, line)?[0].cos())
        }
        Intrin::Atan => {
            Value::Real(eval_real_args(n_args, arg, &mut argbuf, module, line)?[0].atan())
        }
        Intrin::Mod => {
            let a = arg(0)?;
            let b = arg(1)?;
            match (a, b) {
                (Value::Int(x), Value::Int(y)) => Value::Int(x % y.max(1)),
                (x, y) => Value::Real(x.as_f64().unwrap_or(f64::NAN) % y.as_f64().unwrap_or(1.0)),
            }
        }
        Intrin::Sign => {
            let xs = eval_real_args(n_args, arg, &mut argbuf, module, line)?;
            Value::Real(xs[0].abs() * xs[1].signum())
        }
        Intrin::Sum => {
            let v = arg(0)?;
            match v {
                Value::RealArray(a) => Value::Real(a.iter().sum()),
                other => other,
            }
        }
        Intrin::Maxval => {
            let v = arg(0)?;
            match v {
                Value::RealArray(a) => {
                    Value::Real(a.iter().copied().fold(f64::NEG_INFINITY, f64::max))
                }
                other => other,
            }
        }
        Intrin::Minval => {
            let v = arg(0)?;
            match v {
                Value::RealArray(a) => Value::Real(a.iter().copied().fold(f64::INFINITY, f64::min)),
                other => other,
            }
        }
        Intrin::Size => {
            let v = arg(0)?;
            match v {
                Value::RealArray(a) => Value::Int(a.len() as i64),
                _ => Value::Int(1),
            }
        }
        Intrin::Real => {
            let v = arg(0)?;
            Value::Real(
                v.as_f64()
                    .ok_or_else(|| RuntimeError::new("real() of non-numeric", module, line))?,
            )
        }
        Intrin::Int => {
            let v = arg(0)?;
            Value::Int(v.as_f64().unwrap_or(0.0) as i64)
        }
        Intrin::Floor => {
            Value::Int(eval_real_args(n_args, arg, &mut argbuf, module, line)?[0].floor() as i64)
        }
        Intrin::Nint => {
            Value::Int(eval_real_args(n_args, arg, &mut argbuf, module, line)?[0].round() as i64)
        }
        Intrin::Epsilon => Value::Real(f64::EPSILON),
        Intrin::Tiny => Value::Real(f64::MIN_POSITIVE),
        Intrin::Huge => Value::Real(f64::MAX),
    };
    Ok(v)
}

/// Control flow escaping a statement block.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Flow {
    Normal,
    Return,
    Exit,
    Cycle,
}

pub(crate) fn write_elem(
    arr: &mut [f64],
    idx: usize,
    value: &Value,
    module: &str,
    line: u32,
) -> RunResult<()> {
    let x = value.as_f64().ok_or_else(|| {
        RuntimeError::new(
            format!("cannot store {} into real array", value.type_name()),
            module,
            line,
        )
    })?;
    let len = arr.len();
    let slot = arr.get_mut(idx).ok_or_else(|| {
        RuntimeError::new(
            format!("subscript {} out of bounds (len {})", idx + 1, len),
            module,
            line,
        )
    })?;
    *slot = x;
    Ok(())
}

/// Assignment with Fortran-style coercion (scalar into array broadcasts).
pub(crate) fn assign_into(
    slot: &mut Value,
    value: Value,
    module: &str,
    line: u32,
) -> RunResult<()> {
    match (&mut *slot, value) {
        (Value::RealArray(dst), Value::RealArray(src)) => {
            let n = dst.len().min(src.len());
            dst[..n].copy_from_slice(&src[..n]);
            Ok(())
        }
        (Value::RealArray(dst), v) => {
            let x = v.as_f64().ok_or_else(|| {
                RuntimeError::new("cannot broadcast non-numeric into array", module, line)
            })?;
            dst.fill(x);
            Ok(())
        }
        (Value::Int(dst), v) => {
            *dst = v
                .as_i64()
                .or_else(|| v.as_f64().map(|f| f as i64))
                .ok_or_else(|| RuntimeError::new("cannot assign to integer", module, line))?;
            Ok(())
        }
        (Value::Real(dst), v) => {
            *dst = v
                .as_f64()
                .ok_or_else(|| RuntimeError::new("cannot assign to real", module, line))?;
            Ok(())
        }
        (dst, v) => {
            *dst = v;
            Ok(())
        }
    }
}

pub(crate) fn unary_op(op: Op, v: Value, module: &str, line: u32) -> RunResult<Value> {
    match op {
        Op::Sub => match v {
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Real(r) => Ok(Value::Real(-r)),
            other => Err(RuntimeError::new(
                format!("cannot negate {}", other.type_name()),
                module,
                line,
            )),
        },
        Op::Add => Ok(v),
        Op::Not => match v {
            Value::Logical(b) => Ok(Value::Logical(!b)),
            other => Err(RuntimeError::new(
                format!(".not. of {}", other.type_name()),
                module,
                line,
            )),
        },
        other => Err(RuntimeError::new(
            format!("invalid unary operator {other}"),
            module,
            line,
        )),
    }
}

pub(crate) fn binary_op(op: Op, a: Value, b: Value, module: &str, line: u32) -> RunResult<Value> {
    binary_op_ref(op, &a, &b, module, line)
}

/// Reference form of [`binary_op`] — the VM's registers hand out `&Value`
/// without moving, and the all-real case (the simulation's hot path)
/// dispatches on one match arm instead of three type probes.
pub(crate) fn binary_op_ref(
    op: Op,
    a: &Value,
    b: &Value,
    module: &str,
    line: u32,
) -> RunResult<Value> {
    use Value::*;
    // Real/real fast path. Bit-identical to the `as_f64` fallback below:
    // a `Real` right operand never takes the `powi` branch (`as_i64` is
    // `Int`-only), and the unsupported-operator error renders the same.
    if let (Real(x), Real(y)) = (a, b) {
        let (x, y) = (*x, *y);
        let v = match op {
            Op::Add => Real(x + y),
            Op::Sub => Real(x - y),
            Op::Mul => Real(x * y),
            Op::Div => Real(x / y),
            Op::Pow => Real(x.powf(y)),
            Op::Eq => Logical(x == y),
            Op::Ne => Logical(x != y),
            Op::Lt => Logical(x < y),
            Op::Le => Logical(x <= y),
            Op::Gt => Logical(x > y),
            Op::Ge => Logical(x >= y),
            _ => {
                return Err(RuntimeError::new(
                    format!("operator {op} on reals"),
                    module,
                    line,
                ))
            }
        };
        return Ok(v);
    }
    // Integer arithmetic stays integral (Fortran semantics).
    if let (Int(x), Int(y)) = (&a, &b) {
        let (x, y) = (*x, *y);
        let v = match op {
            Op::Add => Int(x + y),
            Op::Sub => Int(x - y),
            Op::Mul => Int(x * y),
            Op::Div => {
                if y == 0 {
                    return Err(RuntimeError::new("integer division by zero", module, line));
                }
                Int(x / y)
            }
            Op::Pow => Int(x.pow(y.max(0) as u32)),
            Op::Eq => Logical(x == y),
            Op::Ne => Logical(x != y),
            Op::Lt => Logical(x < y),
            Op::Le => Logical(x <= y),
            Op::Gt => Logical(x > y),
            Op::Ge => Logical(x >= y),
            _ => {
                return Err(RuntimeError::new(
                    format!("operator {op} on integers"),
                    module,
                    line,
                ))
            }
        };
        return Ok(v);
    }
    if let (Logical(x), Logical(y)) = (&a, &b) {
        let v = match op {
            Op::And => Logical(*x && *y),
            Op::Or => Logical(*x || *y),
            Op::Eq => Logical(x == y),
            Op::Ne => Logical(x != y),
            _ => {
                return Err(RuntimeError::new(
                    format!("operator {op} on logicals"),
                    module,
                    line,
                ))
            }
        };
        return Ok(v);
    }
    if let (Str(x), Str(y)) = (&a, &b) {
        let v = match op {
            Op::Concat => Str(format!("{x}{y}")),
            Op::Eq => Logical(x == y),
            Op::Ne => Logical(x != y),
            _ => {
                return Err(RuntimeError::new(
                    format!("operator {op} on strings"),
                    module,
                    line,
                ))
            }
        };
        return Ok(v);
    }
    let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) else {
        return Err(RuntimeError::new(
            format!("operator {op} on {} and {}", a.type_name(), b.type_name()),
            module,
            line,
        ));
    };
    let v = match op {
        Op::Add => Real(x + y),
        Op::Sub => Real(x - y),
        Op::Mul => Real(x * y),
        Op::Div => Real(x / y),
        Op::Pow => {
            // Integer exponents use powi for bit-reproducibility.
            if let Some(iy) = b.as_i64() {
                Real(x.powi(iy as i32))
            } else {
                Real(x.powf(y))
            }
        }
        Op::Eq => Logical(x == y),
        Op::Ne => Logical(x != y),
        Op::Lt => Logical(x < y),
        Op::Le => Logical(x <= y),
        Op::Gt => Logical(x > y),
        Op::Ge => Logical(x >= y),
        _ => {
            return Err(RuntimeError::new(
                format!("operator {op} on reals"),
                module,
                line,
            ))
        }
    };
    Ok(v)
}
