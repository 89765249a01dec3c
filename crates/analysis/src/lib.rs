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
//!   walker's, plus worklist solvers — reaching definitions, def-use
//!   chains, liveness.
//! - [`deps`]: an interprocedural dependence graph that independently
//!   re-implements the metagraph's §4.2 edge rules from the IR (subscripts
//!   ignored, intrinsics localized, intents orient edges); its
//!   [`DepGraph::static_slice`] is the *second slicer*, cross-checked
//!   node-for-node against `rca_core::backward_slice` by the
//!   differential suite.
//! - [`reach`]: call-graph reachability from the host entry points, over
//!   the summary's callees.
//! - [`absint`]: interval/sign abstract interpretation for definite
//!   numeric hazards; globals the summary never sees written are
//!   constants, and loops widen what the walker sees their bodies write.
//! - [`lints`]: the detector catalog with deterministic JSON output
//!   (`rca-lint` CLI); warnings are definite defects and gate CI at
//!   zero on the bundled paper models.
//!
//! [`ModelAnalysis`] bundles all of it for one compiled program; the
//! campaign uses [`ModelAnalysis::classify_site`] as the static
//! observability pre-filter that rejects provably-dead injection sites
//! (and must agree with the metagraph filter on every candidate).

pub mod absint;
pub mod dataflow;
pub mod deps;
pub mod lints;
pub mod reach;

use std::sync::Arc;

use rca_sim::Program;

pub use deps::{DepGraph, SiteClass, Triple};
pub use lints::{Finding, LintReport, Severity};

/// Static analysis results for one compiled program: the dependence
/// graph, per-procedure dataflow, reachability, and the lint catalog.
#[derive(Debug)]
pub struct ModelAnalysis {
    program: Arc<Program>,
    deps: DepGraph,
    observable: Vec<bool>,
    reachable: Vec<bool>,
    flows: Vec<dataflow::ProcFlow>,
    global_const: Vec<Option<f64>>,
}

impl ModelAnalysis {
    /// Runs every analysis over the program.
    pub fn build(program: Arc<Program>) -> ModelAnalysis {
        let _span = rca_obs::span("phase.analysis_build");
        rca_obs::counter_inc!("analysis.builds", 1);
        let deps = DepGraph::build(&program);
        let observable = deps.output_observable();
        let reachable = reach::reachable_procs(&program, reach::ENTRY_ROOTS);
        let flows: Vec<dataflow::ProcFlow> = (0..program.ir_procs().len() as u32)
            .map(|p| dataflow::analyze_proc(&program, p))
            .collect();
        let global_const = absint::const_globals(&program);
        ModelAnalysis {
            program,
            deps,
            observable,
            reachable,
            flows,
            global_const,
        }
    }

    /// The analyzed program.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The IR-level dependence graph (the independent slicer).
    pub fn deps(&self) -> &DepGraph {
        &self.deps
    }

    /// Per-procedure dataflow results, indexed like `ir_procs`.
    pub fn flows(&self) -> &[dataflow::ProcFlow] {
        &self.flows
    }

    /// The independent backward slice (see [`DepGraph::static_slice`]).
    pub fn static_slice(
        &self,
        criteria: &[&str],
        restrict: Option<&str>,
    ) -> Vec<(String, Option<String>, String)> {
        self.deps.static_slice(criteria, restrict)
    }

    /// Static observability pre-filter: classifies one mutation site by
    /// whether its target can reach any history output.
    pub fn classify_site(&self, module: &str, subprogram: &str, target: &str) -> SiteClass {
        self.deps
            .classify_site(&self.observable, module, subprogram, target)
    }

    /// Runs the full lint catalog.
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
        for (pi, flow) in self.flows.iter().enumerate() {
            let proc = &self.program.ir_procs()[pi];
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
        // Unreachable procedures.
        for (pi, proc) in self.program.ir_procs().iter().enumerate() {
            if self.reachable[pi] {
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
        for (fx, &reachable) in self.program.effects().procs().iter().zip(&self.reachable) {
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
        for pi in 0..self.program.ir_procs().len() as u32 {
            let proc = &self.program.ir_procs()[pi as usize];
            for h in absint::proc_hazards(&self.program, pi, &self.global_const) {
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
