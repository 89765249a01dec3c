//! # rca-analysis — the static analysis plane
//!
//! The paper's feasibility argument (§4) is that *static* compiler-style
//! analysis shrinks root-cause search from millions of lines to a few
//! hundred candidate nodes before anything dynamic runs. This crate is
//! that plane for the reproduction, in five modules over the
//! slot-indexed [`Program`] IR. Four of them read the facts of
//! `rca_sim`'s one effect walker (`rca_sim::effects`: reads, writes,
//! calls, history writes, deferred errors) and its per-program summary
//! ([`Program::effects`]) and add only their own control-flow handling;
//! [`deps`] keeps its own walk on purpose.
//!
//! - [`dataflow`]: per-procedure CFGs whose use/def events are the
//!   walker's, plus a reaching-definitions worklist solver that marks
//!   the definitions some use reads and the reads no definition reaches.
//! - [`deps`]: an interprocedural dependence graph that independently
//!   re-implements the metagraph's §4.2 edge rules from the IR (subscripts
//!   ignored, intrinsics localized, intents orient edges); its
//!   [`DepGraph::static_slice`] is the *second slicer*, cross-checked
//!   node-for-node against `rca_core::backward_slice` by the
//!   differential suite.
//! - [`reach`]: call-graph reachability from the host entry points, over
//!   the summary's callees (the lint's unreachable-procedure check and
//!   the campaign's injection-site filter).
//! - [`absint`]: interval/sign abstract interpretation for definite
//!   numeric hazards; globals the summary never sees written are
//!   constants, and loops widen what the walker sees their bodies write.
//! - [`lints`]: the detector catalog with deterministic JSON output
//!   (`rca-lint` CLI); warnings are definite defects and gate CI at
//!   zero on the bundled paper models.
//!
//! [`ModelAnalysis`] holds, for one compiled program, what its site
//! classifier reads: the dependence graph and its output-observable set.
//! The campaign uses [`ModelAnalysis::classify_site`] as the static
//! observability pre-filter that rejects injection sites no output
//! observes (and must agree with the metagraph filter on every
//! candidate); [`ModelAnalysis::lint`] builds the dataflow, reachability
//! and constant globals that only the lint catalog reads, each time it
//! runs.

pub mod absint;
pub mod dataflow;
pub mod deps;
pub mod lints;
pub mod reach;

use std::sync::Arc;

use rca_sim::Program;

pub use deps::{DepGraph, SiteClass, Triple};
pub use lints::{Finding, LintReport, Severity};

/// Static analysis of one compiled program: the dependence graph and
/// its output-observable set.
#[derive(Debug)]
pub struct ModelAnalysis {
    program: Arc<Program>,
    deps: DepGraph,
    observable: Vec<bool>,
}

impl ModelAnalysis {
    /// Builds the dependence graph and marks the nodes that reach a
    /// history output.
    pub fn build(program: Arc<Program>) -> ModelAnalysis {
        let _span = rca_obs::span("phase.analysis_build");
        rca_obs::counter_inc!("analysis.builds", 1);
        let deps = DepGraph::build(&program);
        let observable = deps.output_observable();
        ModelAnalysis {
            program,
            deps,
            observable,
        }
    }

    /// The IR-level dependence graph (the independent slicer).
    pub fn deps(&self) -> &DepGraph {
        &self.deps
    }

    /// Static observability pre-filter: classifies one mutation site by
    /// whether its target can reach any history output.
    pub fn classify_site(&self, module: &str, subprogram: &str, target: &str) -> SiteClass {
        self.deps
            .classify_site(&self.observable, module, subprogram, target)
    }

    /// Runs the full lint catalog, building the per-procedure dataflow,
    /// the reachable procedures and the constant globals it reads.
    pub fn lint(&self) -> LintReport {
        let _span = rca_obs::span("phase.lint");
        rca_obs::counter_inc!("analysis.lints", 1);
        let mut findings = Vec::new();
        self.lint_dataflow(&mut findings);
        self.lint_reachability(&mut findings);
        self.lint_hazards(&mut findings);
        LintReport::seal(findings)
    }

    fn lint_dataflow(&self, findings: &mut Vec<Finding>) {
        for (pi, proc) in self.program.ir_procs().iter().enumerate() {
            let flow = dataflow::analyze_proc(&self.program, pi as u32);
            for u in &flow.uninit {
                let name = &proc.local_names[u.slot as usize];
                findings.push(Finding {
                    lint: "uninit-read",
                    module: proc.module.to_string(),
                    subprogram: proc.name.to_string(),
                    line: u.line,
                    variable: name.to_string(),
                    message: format!("`{name}` is read but no assignment reaches on any path"),
                    severity: Severity::Warning,
                });
            }
            let read = flow.slots_read();
            for d in flow.dead_stores(&self.program) {
                let name = &proc.local_names[d.slot as usize];
                // A store no use observes is a definite defect when the
                // variable is never read at all; when other stores to it
                // are live (a reused temporary overwritten before its next
                // read), it is a redundant-store hygiene note.
                let (lint, message, severity) = if read[d.slot as usize] {
                    (
                        "redundant-store",
                        format!("value assigned to `{name}` is overwritten before any read"),
                        Severity::Info,
                    )
                } else {
                    (
                        "dead-store",
                        format!("`{name}` is assigned but never read"),
                        Severity::Warning,
                    )
                };
                findings.push(Finding {
                    lint,
                    module: proc.module.to_string(),
                    subprogram: proc.name.to_string(),
                    line: d.line,
                    variable: name.to_string(),
                    message,
                    severity,
                });
            }
        }
    }

    fn lint_reachability(&self, findings: &mut Vec<Finding>) {
        let reachable = reach::reachable_procs(&self.program, reach::ENTRY_ROOTS);
        // Unreachable procedures.
        for (pi, proc) in self.program.ir_procs().iter().enumerate() {
            if reachable[pi] {
                continue;
            }
            findings.push(Finding {
                lint: "unreachable-proc",
                module: proc.module.to_string(),
                subprogram: proc.name.to_string(),
                line: 0,
                variable: String::new(),
                message: format!(
                    "`{}` is never called from the host entry points ({})",
                    proc.name,
                    reach::ENTRY_ROOTS.join(", ")
                ),
                severity: Severity::Warning,
            });
        }
        // Outputs recorded only in unreachable procedures can never
        // appear in a run history.
        let mut live_output = vec![false; self.program.output_count()];
        for (fx, &reachable) in self.program.effects().procs().iter().zip(&reachable) {
            if reachable {
                for &o in &fx.outputs {
                    live_output[o as usize] = true;
                }
            }
        }
        for (o, name) in self.program.output_names().iter().enumerate() {
            if !live_output[o] {
                findings.push(Finding {
                    lint: "unused-output",
                    module: String::new(),
                    subprogram: String::new(),
                    line: 0,
                    variable: name.to_string(),
                    message: format!("output `{name}` is only recorded in unreachable procedures"),
                    severity: Severity::Warning,
                });
            }
        }
    }

    fn lint_hazards(&self, findings: &mut Vec<Finding>) {
        let global_const = absint::const_globals(&self.program);
        for (pi, proc) in self.program.ir_procs().iter().enumerate() {
            for h in absint::proc_hazards(&self.program, pi as u32, &global_const) {
                let (lint, severity, message) = lints::hazard_lint(h.kind);
                findings.push(Finding {
                    lint,
                    module: proc.module.to_string(),
                    subprogram: proc.name.to_string(),
                    line: h.line,
                    variable: String::new(),
                    message: message.to_string(),
                    severity,
                });
            }
        }
    }
}
