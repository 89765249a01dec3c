//! Interprocedural reachability over pre-resolved call targets.
//!
//! The host drives a run through exactly two entry points (`cam_init`,
//! then `cam_run_step` per step — see `rca_sim::runner`); everything a
//! campaign can observe hangs off that call tree. Procedures outside it
//! are dead code, and outputs recorded only there can never appear in a
//! history.

use rca_sim::Program;

/// The subprogram names the host invokes directly.
pub const ENTRY_ROOTS: &[&str] = &["cam_init", "cam_run_step"];

/// Procedures reachable from the named entry points over resolved call
/// targets (every call site in a body, an init template, an argument or
/// a subscript; [`Program::effects`]).
pub fn reachable_procs(prog: &Program, roots: &[&str]) -> Vec<bool> {
    let effects = prog.effects();
    let mut seen = vec![false; prog.ir_procs().len()];
    let mut stack: Vec<u32> = Vec::new();
    for root in roots.iter().filter_map(|r| prog.entry_proc_index(r)) {
        if !std::mem::replace(&mut seen[root as usize], true) {
            stack.push(root);
        }
    }
    while let Some(p) = stack.pop() {
        for &c in &effects.proc(p).callees {
            if !std::mem::replace(&mut seen[c as usize], true) {
                stack.push(c);
            }
        }
    }
    seen
}
