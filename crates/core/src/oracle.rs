//! Sampling oracles: does an instrumented variable differ between the
//! ensemble and the experiment?
//!
//! The paper performs its sampling "currently in simulation" (§2.1): with
//! known bug locations, "we can deduce whether a difference can be
//! detected" from directed-path reachability (§5.2). That simulation is
//! [`ReachabilityOracle`]. [`RuntimeSampler`] is the real thing the paper
//! leaves as future work: it instruments the chosen variables in
//! bytecode VM runs and compares values between a control run and an
//! experimental run.
//!
//! # The `Oracle` contract
//!
//! [`Oracle`] is the single object-safe evidence interface of Algorithm
//! 5.4: [`crate::refine()`] (and the [`crate::RcaSession`] facade) accept
//! `&mut dyn Oracle`, so evidence sources are swappable — simulated
//! reachability, real instrumented runs, or anything a caller implements
//! (cached verdicts, a remote sampling service, ...). Implementations
//! must uphold:
//!
//! - `differs` returns exactly one boolean per queried node, in order.
//! - Queries are **monotone in evidence, not stateful in effect**: the
//!   refinement loop may query the same node in different iterations and
//!   expects consistent answers for an unchanged experiment.
//! - A node the oracle cannot instrument (intrinsics, removed code) must
//!   answer `false`, not panic — the paper's §5.4 issue 3: the oracle, not
//!   the graph, is authoritative about detection.
//! - Failures of the underlying evidence machinery should be recorded and
//!   surfaced via [`Oracle::take_errors`]; sampling proceeds best-effort.
//!
//! **Picking an oracle:** use [`ReachabilityOracle`] when ground-truth bug
//! sites are known (method evaluation, regression harnesses) — it is
//! O(paths) fast and deterministic. Use [`RuntimeSampler`] when the bug is
//! genuinely unknown: it pays two instrumented runs per refinement
//! iteration but measures the real model.
//!
//! # The runtime-sampler fast path
//!
//! [`RuntimeSampler`] answers most queries far below the cost of two full
//! model executions, through three stacked mechanisms behind the
//! unchanged [`Oracle`] surface (see the workspace `rca` crate docs for
//! the architecture picture):
//!
//! 1. **slice-specialized programs** — [`rca_sim::specialize_for_samples`]
//!    prunes each compiled program down to the backward slice of the
//!    query's capture set, once per query; the pruned bytecode runs on
//!    the stock VM (no spec-set cache: every answered node is memoized,
//!    so a capture set can only repeat after a failed query);
//! 2. **per-node memoization** — configs, sample step, tolerance and
//!    programs are fixed for the sampler's lifetime and runs are
//!    deterministic, so each node's verdict is computed once and
//!    replayed across refinement iterations; a query executes only for
//!    memo-miss nodes;
//! 3. **early exit** — specialized runs stop right after the sample step
//!    ([`RuntimeSampler::with_sample_step`]; captures snapshot right after
//!    that step's `cam_run_step`), skipping the trailing steps the query
//!    never observes.
//!
//! **Fast paths never change evidence**: specialized answers are
//! bit-identical to full-program answers (the closed-set slice contract
//! of [`rca_sim::specialize`]). The full program pair answers instead
//! when the programs failed to compile, when the specializer cannot
//! separate the spec set, when a run carries a fuel budget (a pruned,
//! truncated run spends less fuel, so only the full pair knows whether
//! the budget holds), and — permanently — once any specialized run
//! failed: that failure is discarded and the full pair, which owns all
//! error semantics, re-runs the query, mirroring the bytecode tier's
//! kernel-fallback rule. The residual is the specializer's: an error the
//! full program raises only in pruned statements or after the sample
//! step goes unseen. The crate's fast-path test fence diffs whole
//! diagnoses against an independent full-pair oracle.

use rca_graph::{bfs_multi, BfsResult, Direction, NodeId};
use rca_metagraph::{MetaGraph, NodeKind};
use rca_model::ModelSource;
use rca_sim::{
    compile_model, specialize_for_samples, Executor, Program, RunConfig, RuntimeError, SampleSpec,
};
use std::collections::HashMap;
use std::sync::Arc;

/// A compiled (control, experimental) program pair.
type ProgramPair = (Arc<Program>, Arc<Program>);

/// Decides which sampled nodes take different values between ensemble and
/// experimental runs (Algorithm 5.4 step 7). See the module docs for the
/// full contract.
pub trait Oracle {
    /// Short stable identifier for reports ("reachability", "runtime").
    fn name(&self) -> &'static str {
        "oracle"
    }

    /// For each metagraph node, whether instrumentation would observe a
    /// difference.
    fn differs(&mut self, mg: &MetaGraph, nodes: &[NodeId]) -> Vec<bool>;

    /// Drains runtime failures encountered while sampling (best-effort
    /// oracles answer `false` for nodes they failed to instrument and
    /// report the cause here).
    fn take_errors(&mut self) -> Vec<RuntimeError> {
        Vec::new()
    }
}

/// The paper's simulated sampling: a difference is detectable at node `n`
/// iff a directed path exists from some bug source to `n`.
///
/// One multi-source forward BFS from the bug nodes is computed lazily on
/// the first query and reused for every later one: membership in the
/// reached mask answers each node in O(1) instead of a fresh traversal
/// per (bug, node) pair.
#[derive(Debug)]
pub struct ReachabilityOracle {
    /// Metagraph ids of the ground-truth bug locations.
    pub bug_nodes: Vec<NodeId>,
    /// Forward-reachable mask from `bug_nodes` (sources included, exactly
    /// as per-pair `reaches_any` treats a node reaching itself); rebuilt
    /// if queried against a graph of a different size.
    reached: Option<BfsResult>,
}

impl ReachabilityOracle {
    /// An oracle answering reachability from the given ground-truth
    /// metagraph nodes.
    pub fn new(bug_nodes: Vec<NodeId>) -> ReachabilityOracle {
        ReachabilityOracle {
            bug_nodes,
            reached: None,
        }
    }

    /// Builds the oracle from ground-truth bug sites.
    pub fn from_sites(mg: &MetaGraph, sites: &[rca_model::BugSite]) -> ReachabilityOracle {
        let mut bug_nodes = Vec::new();
        for site in sites {
            if let Some(n) = mg.node_by_key(&site.module, Some(&site.subprogram), &site.canonical) {
                bug_nodes.push(n);
            }
            // Module-level variables are also legal bug hosts.
            if let Some(n) = mg.node_by_key(&site.module, None, &site.canonical) {
                bug_nodes.push(n);
            }
        }
        bug_nodes.sort();
        bug_nodes.dedup();
        ReachabilityOracle::new(bug_nodes)
    }
}

impl Oracle for ReachabilityOracle {
    fn name(&self) -> &'static str {
        "reachability"
    }

    fn differs(&mut self, mg: &MetaGraph, nodes: &[NodeId]) -> Vec<bool> {
        let stale = self
            .reached
            .as_ref()
            .is_none_or(|m| m.dist.len() != mg.graph.node_count());
        if stale {
            self.reached = Some(bfs_multi(&mg.graph, &self.bug_nodes, Direction::Out));
        }
        let mask = self.reached.as_ref().expect("mask just built");
        nodes.iter().map(|&n| mask.reached(n)).collect()
    }
}

/// Real runtime sampling: run control and experimental models with the
/// node set instrumented and compare values.
///
/// Both models are **compiled once** at construction. A query first
/// consults the per-node memo, then runs only the memo-miss nodes, on a
/// slice-specialized program pair truncated after the sample step when
/// that is safe and on the full program pair otherwise — see the module
/// docs. Every run gets a fresh [`Executor`]; captures are compared
/// positionally straight off the executor state.
#[derive(Debug)]
pub struct RuntimeSampler {
    /// Compiled control/experimental programs (or the compile failure,
    /// re-reported per query — sampling proceeds best-effort).
    programs: Result<(Arc<Program>, Arc<Program>), RuntimeError>,
    /// Control run configuration.
    control_config: RunConfig,
    /// Experimental run configuration (PRNG/AVX2 changes live here).
    experiment_config: RunConfig,
    /// Time step at which values are captured (the paper samples as early
    /// as possible; default: the final step).
    sample_step: u32,
    /// Relative tolerance above which values are "different".
    tolerance: f64,
    /// Runtime failures encountered (sampling proceeds best-effort).
    errors: Vec<RuntimeError>,
    /// Per-node verdicts from clean runs (configs are fixed and runs
    /// deterministic, so a verdict never goes stale).
    node_memo: HashMap<NodeId, bool>,
    /// Set when only the full pair may answer: a run carries a fuel
    /// budget, or a specialized run ever failed.
    full_only: bool,
}

impl RuntimeSampler {
    /// Creates a sampler with the given models/configs, sampling at the
    /// last step with 1e-12 relative tolerance. The models are compiled
    /// here, once.
    pub fn new(
        control_model: ModelSource,
        experiment_model: ModelSource,
        control_config: RunConfig,
        experiment_config: RunConfig,
    ) -> RuntimeSampler {
        let programs = compile_model(&control_model)
            .and_then(|c| compile_model(&experiment_model).map(|e| (c, e)));
        Self::from_compiled(programs, control_config, experiment_config)
    }

    /// Creates a sampler over pre-compiled (control, experimental)
    /// programs, e.g. from a session's program cache — no parsing or
    /// compilation at all — or over their compile error, which every
    /// query that would run then reports.
    pub fn from_compiled(
        programs: Result<(Arc<Program>, Arc<Program>), RuntimeError>,
        control_config: RunConfig,
        experiment_config: RunConfig,
    ) -> RuntimeSampler {
        let sample_step = control_config.steps.saturating_sub(1);
        let full_only = control_config.fuel.is_some() || experiment_config.fuel.is_some();
        RuntimeSampler {
            programs,
            control_config,
            experiment_config,
            sample_step,
            tolerance: 1e-12,
            errors: Vec::new(),
            node_memo: HashMap::new(),
            full_only,
        }
    }

    /// Captures values at `step` instead of the last step. Set it before
    /// the first query: it forgets every memoized verdict.
    pub fn with_sample_step(mut self, step: u32) -> RuntimeSampler {
        self.sample_step = step;
        self.node_memo.clear();
        self
    }

    /// Uses `tolerance` as the relative difference threshold. Set it
    /// before the first query: it forgets every memoized verdict.
    pub fn with_tolerance(mut self, tolerance: f64) -> RuntimeSampler {
        self.tolerance = tolerance;
        self.node_memo.clear();
        self
    }

    fn spec_for(mg: &MetaGraph, node: NodeId) -> Option<SampleSpec> {
        let meta = mg.meta_of(node);
        if meta.kind != NodeKind::Variable {
            return None; // localized intrinsic call sites are not variables
        }
        // Interned names: building a spec is three refcount bumps, no
        // string copies, no hashing.
        let syms = mg.symbols();
        Some(SampleSpec {
            module: syms.module_arc(meta.module),
            subprogram: meta.subprogram.map(|s| syms.var_arc(s)),
            name: syms.var_arc(meta.canonical),
        })
    }

    /// Positional verdict for one spec's capture pair (the paper's
    /// relative-tolerance comparison; missing buffers answer `false`,
    /// shape changes answer `true`).
    fn capture_differs(tolerance: f64, a: Option<&Vec<f64>>, b: Option<&Vec<f64>>) -> bool {
        let (Some(a), Some(b)) = (a, b) else {
            return false;
        };
        if a.len() != b.len() {
            return true;
        }
        a.iter().zip(b).any(|(&x, &y)| {
            let scale = x.abs().max(y.abs()).max(1e-300);
            ((x - y).abs() / scale) > tolerance
        })
    }

    /// Verdicts for one query's miss set: from the specialized pair when
    /// it may answer, else from the full pair, whose error (or the
    /// compile failure) is the query's.
    fn query(&mut self, specs: &[SampleSpec]) -> Result<Vec<bool>, RuntimeError> {
        let full = self.programs.clone()?;
        if let Some(specialized) = self.specialized(&full, specs) {
            match self.run_pair(specialized, specs, true) {
                Ok(verdicts) => {
                    rca_obs::counter_inc!("oracle.specialized_queries", 1);
                    return Ok(verdicts);
                }
                // The full pair owns all error semantics: discard the
                // specialized failure and stand down permanently.
                Err(_) => {
                    self.full_only = true;
                    rca_obs::counter_inc!("oracle.fastpath_poisoned", 1);
                }
            }
        }
        self.run_pair(full, specs, false)
    }

    /// The pair specialized to `specs`; `None` when only the full pair
    /// may answer (the sampler stood down, or the specializer cannot
    /// separate the set).
    fn specialized(&self, (ctl, exp): &ProgramPair, specs: &[SampleSpec]) -> Option<ProgramPair> {
        if self.full_only {
            return None;
        }
        let pair = specialize_for_samples(ctl, specs)
            .and_then(|c| specialize_for_samples(exp, specs).map(|e| (c.program, e.program)));
        if pair.is_none() {
            rca_obs::counter_inc!("oracle.fastpath_fallbacks", 1);
        }
        pair
    }

    /// Runs one (control, experimental) program pair instrumented with
    /// `specs` on fresh executors and compares the captures positionally
    /// (the i-th spec is the i-th sample buffer in both runs). `truncate`
    /// stops both runs right after the sample step: `drive` captures
    /// after that step's `cam_run_step`, so later steps cannot affect it.
    fn run_pair(
        &self,
        (ctl, exp): ProgramPair,
        specs: &[SampleSpec],
        truncate: bool,
    ) -> Result<Vec<bool>, RuntimeError> {
        let configure = |base: &RunConfig| {
            let mut config = base.clone();
            config.sample_step = Some(self.sample_step);
            config.samples = specs.to_vec();
            if truncate {
                config.steps = config.steps.min(self.sample_step.saturating_add(1));
            }
            config
        };
        let mut ctl = Executor::new(ctl, &configure(&self.control_config));
        ctl.drive(0.0)?;
        let mut exp = Executor::new(exp, &configure(&self.experiment_config));
        exp.drive(0.0)?;
        Ok((0..specs.len())
            .map(|i| {
                Self::capture_differs(
                    self.tolerance,
                    ctl.samples[i].as_ref(),
                    exp.samples[i].as_ref(),
                )
            })
            .collect())
    }
}

impl Oracle for RuntimeSampler {
    fn name(&self) -> &'static str {
        "runtime"
    }

    fn take_errors(&mut self) -> Vec<RuntimeError> {
        std::mem::take(&mut self.errors)
    }

    fn differs(&mut self, mg: &MetaGraph, nodes: &[NodeId]) -> Vec<bool> {
        let specs: Vec<Option<SampleSpec>> = nodes.iter().map(|&n| Self::spec_for(mg, n)).collect();

        // Split memo hits from misses; only misses execute.
        let mut miss_nodes: Vec<NodeId> = Vec::new();
        let mut miss_specs: Vec<SampleSpec> = Vec::new();
        for (&n, spec) in nodes.iter().zip(&specs) {
            if let Some(sp) = spec {
                if !self.node_memo.contains_key(&n) && !miss_nodes.contains(&n) {
                    miss_nodes.push(n);
                    miss_specs.push(sp.clone());
                }
            }
        }
        if miss_nodes.is_empty() {
            rca_obs::counter_inc!("oracle.memo_answers", nodes.len() as u64);
        } else {
            match self.query(&miss_specs) {
                Ok(verdicts) => self.node_memo.extend(miss_nodes.into_iter().zip(verdicts)),
                // A failed query answers `false` for every node.
                Err(e) => {
                    self.errors.push(e);
                    return vec![false; nodes.len()];
                }
            }
        }
        // Unsampleable nodes answer `false`.
        nodes
            .iter()
            .zip(&specs)
            .map(|(n, s)| s.is_some() && self.node_memo[n])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rca_model::{generate, Experiment, ModelConfig};
    use rca_sim::Avx2Policy;

    fn pipeline() -> (ModelSource, MetaGraph) {
        let model = generate(&ModelConfig::test());
        let p = crate::pipeline::RcaPipeline::build(&model).unwrap();
        (model, p.metagraph)
    }

    #[test]
    fn reachability_oracle_respects_direction() {
        let (_, mg) = pipeline();
        let sites = Experiment::GoffGratch.bug_sites();
        let mut oracle = ReachabilityOracle::from_sites(&mg, &sites);
        assert!(!oracle.bug_nodes.is_empty());
        // cld (downstream of qsat) must be detectable; the bug's own
        // upstream (tboil) must not.
        let cld = mg.nodes_with_canonical("cld")[0];
        let tboil = mg.nodes_with_canonical("tboil")[0];
        let r = oracle.differs(&mg, &[cld, tboil]);
        assert_eq!(r, vec![true, false]);
    }

    #[test]
    fn runtime_sampler_detects_goffgratch_downstream() {
        let (model, mg) = pipeline();
        let bugged = model.apply(Experiment::GoffGratch);
        let cfg = RunConfig {
            steps: 3,
            ..Default::default()
        };
        let mut sampler = RuntimeSampler::new(model.clone(), bugged, cfg.clone(), cfg.clone());
        let cld = mg.nodes_with_canonical("cld")[0];
        let wsub = mg.nodes_with_canonical("wsub")[0];
        let r = sampler.differs(&mg, &[cld, wsub]);
        let errors = sampler.take_errors();
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(
            r,
            vec![true, false],
            "cld is downstream of qsat; wsub is isolated"
        );
    }

    #[test]
    fn runtime_sampler_agrees_with_reachability_on_wsubbug() {
        let (model, mg) = pipeline();
        let bugged = model.apply(Experiment::WsubBug);
        let cfg = RunConfig {
            steps: 3,
            ..Default::default()
        };
        let mut runtime = RuntimeSampler::new(model.clone(), bugged, cfg.clone(), cfg.clone());
        let mut reach = ReachabilityOracle::from_sites(&mg, &Experiment::WsubBug.bug_sites());
        let wsub = mg.nodes_with_canonical("wsub")[0];
        let flwds = mg.nodes_with_canonical("flwds")[0];
        let nodes = [wsub, flwds];
        assert_eq!(
            runtime.differs(&mg, &nodes),
            reach.differs(&mg, &nodes),
            "the two oracles must agree on the isolated wsub bug"
        );
    }

    #[test]
    fn runtime_sampler_detects_avx2_in_kernel() {
        let (model, mg) = pipeline();
        let ctl = RunConfig {
            steps: 3,
            ..Default::default()
        };
        let exp = RunConfig {
            steps: 3,
            avx2: Avx2Policy::AllModules,
            ..Default::default()
        };
        let mut sampler =
            RuntimeSampler::new(model.clone(), model.clone(), ctl, exp).with_tolerance(1e-16);
        let tlat = mg.node_by_key("micro_mg", None, "tlat").unwrap();
        let r = sampler.differs(&mg, &[tlat]);
        assert_eq!(r, vec![true], "FMA must perturb MG tendencies");
    }

    #[test]
    fn intrinsic_nodes_are_never_sampled() {
        let (model, mg) = pipeline();
        let cfg = RunConfig {
            steps: 2,
            ..Default::default()
        };
        let mut sampler = RuntimeSampler::new(
            model.clone(),
            model.apply(Experiment::GoffGratch),
            cfg.clone(),
            cfg,
        );
        let intrinsic = mg
            .meta
            .iter()
            .position(|m| m.kind == NodeKind::Intrinsic)
            .map(|i| NodeId(i as u32))
            .expect("model has intrinsic nodes");
        let r = sampler.differs(&mg, &[intrinsic]);
        assert_eq!(r, vec![false]);
    }
}
