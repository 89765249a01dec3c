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
//!    query's capture set; the pruned bytecode runs on the stock VM and
//!    is cached per spec-set key (the sampler holds exactly one
//!    program pair, so the program content hash is implicit in the
//!    cache's identity);
//! 2. **per-node memoization** — configs and programs are fixed for the
//!    sampler's lifetime and runs are deterministic, so each node's
//!    verdict is computed once and replayed across refinement
//!    iterations; a query executes only for cache-miss nodes;
//! 3. **early exit** — specialized runs truncate at
//!    [`RuntimeSampler::sample_step`] (captures snapshot right after
//!    that step's `cam_run_step`), skipping the trailing steps the
//!    query never observes.
//!
//! **Fast paths never change evidence**: specialized answers are
//! bit-identical to full-program answers (the closed-set slice contract
//! of [`rca_sim::specialize`]), and any specialized-run failure is
//! discarded, the sampler permanently poisoned, and the query re-run
//! through the generic full-program path — which owns all error
//! semantics, mirroring the bytecode tier's kernel-fallback rule. The
//! escape hatch (`RcaSessionBuilder::oracle_fastpath(false)`,
//! `rca-campaign --oracle-fastpath off`) disables all three mechanisms;
//! a fixed-seed campaign scorecard is byte-identical either way (CI
//! gate). Mutating [`RuntimeSampler::tolerance`] or
//! [`RuntimeSampler::sample_step`] after queries ran invalidates the
//! memo — call [`RuntimeSampler::clear_memo`].

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
/// Both models are **compiled once** at construction, and the sampler
/// holds one **pooled executor pair** for the generic path: the first
/// full-program query builds the executors, every later one resets them
/// in place ([`Executor::reset_with`] — arena restored by in-place copy,
/// frames pooled, PRNG reseeded) with the fresh instrumentation list.
/// Sample buffers are compared positionally straight off the executor
/// state (views, not owned `RunOutput`s).
///
/// With [`RuntimeSampler::fastpath`] on (the default), a query first
/// consults the per-node memo, then runs only the cache-miss nodes
/// through a slice-specialized program pair truncated at the sample step
/// — see the module docs. The generic path remains the sole owner of
/// error semantics: compile failures, unseparable spec sets, and any
/// specialized-run failure all route through it.
#[derive(Debug)]
pub struct RuntimeSampler {
    /// Compiled control/experimental programs (or the compile failure,
    /// re-reported per query — sampling proceeds best-effort).
    programs: Result<(Arc<Program>, Arc<Program>), RuntimeError>,
    /// Pooled (control, experimental) executors, built on first query and
    /// reset-with-reused on every later one.
    execs: Option<(Executor, Executor)>,
    /// Control run configuration.
    pub control_config: RunConfig,
    /// Experimental run configuration (PRNG/AVX2 changes live here).
    pub experiment_config: RunConfig,
    /// Time step at which values are captured (the paper samples as early
    /// as possible; default: the final step).
    pub sample_step: u32,
    /// Relative tolerance above which values are "different".
    pub tolerance: f64,
    /// Runtime failures encountered (sampling proceeds best-effort).
    pub errors: Vec<RuntimeError>,
    /// Enables the specialize + memoize + early-exit fast path (default
    /// `true`). Off, every query is two full pooled executions — the
    /// pre-fastpath behavior, bit for bit.
    pub fastpath: bool,
    /// Specialized (control, experimental) program pair per spec-set key;
    /// `None` records a set the specializer proved unseparable, so those
    /// queries go straight to the generic path.
    spec_cache: HashMap<String, Option<ProgramPair>>,
    /// Per-node verdicts from clean runs (configs are fixed and runs
    /// deterministic, so a verdict never goes stale).
    node_memo: HashMap<NodeId, bool>,
    /// Set when a specialized run ever failed: the fast path stands down
    /// permanently and the generic path owns everything from then on.
    poisoned: bool,
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
        Self::from_parts(programs, control_config, experiment_config)
    }

    /// Creates a sampler over pre-compiled programs (e.g. from a session's
    /// program cache) — no parsing or compilation at all.
    pub fn from_programs(
        control: Arc<Program>,
        experiment: Arc<Program>,
        control_config: RunConfig,
        experiment_config: RunConfig,
    ) -> RuntimeSampler {
        Self::from_parts(Ok((control, experiment)), control_config, experiment_config)
    }

    fn from_parts(
        programs: Result<(Arc<Program>, Arc<Program>), RuntimeError>,
        control_config: RunConfig,
        experiment_config: RunConfig,
    ) -> RuntimeSampler {
        let sample_step = control_config.steps.saturating_sub(1);
        RuntimeSampler {
            programs,
            execs: None,
            control_config,
            experiment_config,
            sample_step,
            tolerance: 1e-12,
            errors: Vec::new(),
            fastpath: true,
            spec_cache: HashMap::new(),
            node_memo: HashMap::new(),
            poisoned: false,
        }
    }

    /// Forgets all memoized per-node verdicts and specialized programs.
    /// Call after mutating [`RuntimeSampler::tolerance`] or
    /// [`RuntimeSampler::sample_step`] once queries have run (benchmarks
    /// re-measuring cold queries want this too). Each program's effect
    /// summary ([`Program::effects`]) survives: it is cached on the
    /// program, which cannot change.
    pub fn clear_memo(&mut self) {
        self.spec_cache.clear();
        self.node_memo.clear();
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

    /// The generic full-program query path — sole owner of all error
    /// semantics (compile failures and run failures are recorded here and
    /// answered `false`, exactly the pre-fastpath behavior). Returns the
    /// per-node answers and whether the query completed cleanly (clean
    /// answers are safe to memoize: configs are fixed and runs
    /// deterministic, so a rerun would reproduce them).
    fn differs_full(&mut self, mg: &MetaGraph, nodes: &[NodeId]) -> (Vec<bool>, bool) {
        let (ctl_program, exp_program) = match &self.programs {
            Ok((c, e)) => (Arc::clone(c), Arc::clone(e)),
            Err(e) => {
                self.errors.push(e.clone());
                return (vec![false; nodes.len()], false);
            }
        };
        let specs: Vec<Option<SampleSpec>> = nodes.iter().map(|&n| Self::spec_for(mg, n)).collect();
        let live: Vec<SampleSpec> = specs.iter().flatten().cloned().collect();

        let mut ctl = self.control_config.clone();
        ctl.sample_step = Some(self.sample_step);
        ctl.samples = live.clone();
        let mut exp = self.experiment_config.clone();
        exp.sample_step = Some(self.sample_step);
        exp.samples = live;

        // Lease the pooled executor pair: built once, reset in place with
        // this query's instrumentation list on every later query.
        match &mut self.execs {
            Some((c, e)) => {
                c.reset_with(&ctl);
                e.reset_with(&exp);
            }
            slot @ None => {
                *slot = Some((
                    Executor::new(ctl_program, &ctl),
                    Executor::new(exp_program, &exp),
                ));
            }
        }
        let (ctl_ex, exp_ex) = self.execs.as_mut().expect("executors just leased");
        if let Err(e) = ctl_ex.drive(0.0) {
            self.errors.push(e);
            return (vec![false; nodes.len()], false);
        }
        if let Err(e) = exp_ex.drive(0.0) {
            self.errors.push(e);
            return (vec![false; nodes.len()], false);
        }

        // Captures are positional over the instrumented spec list: the
        // i-th live spec is the i-th sample buffer in both runs — the
        // per-iteration comparison reads the executor state in place,
        // hashes nothing, and allocates no keys.
        let tolerance = self.tolerance;
        let mut live_idx = 0usize;
        let answers = specs
            .iter()
            .map(|spec| {
                if spec.is_none() {
                    return false;
                }
                let i = live_idx;
                live_idx += 1;
                Self::capture_differs(
                    tolerance,
                    ctl_ex.samples[i].as_ref(),
                    exp_ex.samples[i].as_ref(),
                )
            })
            .collect();
        (answers, true)
    }

    /// Reads a fully-memoized answer vector (unsampleable nodes answer
    /// `false`, like the generic path).
    fn assemble(&self, nodes: &[NodeId], specs: &[Option<SampleSpec>]) -> Vec<bool> {
        nodes
            .iter()
            .zip(specs)
            .map(|(&n, s)| s.is_some() && self.node_memo.get(&n).copied().unwrap_or(false))
            .collect()
    }

    /// Stores clean per-node verdicts for replay in later iterations.
    fn memoize(&mut self, nodes: &[NodeId], specs: &[Option<SampleSpec>], answers: &[bool]) {
        for ((&n, s), &a) in nodes.iter().zip(specs).zip(answers) {
            if s.is_some() {
                self.node_memo.insert(n, a);
            }
        }
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
        if !self.fastpath || self.poisoned || self.programs.is_err() {
            return self.differs_full(mg, nodes).0;
        }
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
            return self.assemble(nodes, &specs);
        }

        // Specialized program pair for this miss set, from the spec-set
        // cache (the sampler's program pair is fixed, so the program
        // content hash is implicit in the cache identity).
        let (ctl_program, exp_program) = match &self.programs {
            Ok((c, e)) => (Arc::clone(c), Arc::clone(e)),
            Err(_) => unreachable!("checked above"),
        };
        let mut key = String::new();
        for s in &miss_specs {
            key.push_str(&s.key());
            key.push('\n');
        }
        let pair = match self.spec_cache.get(&key) {
            Some(pair) => pair.clone(),
            None => {
                let pair = (|| {
                    let c = specialize_for_samples(&ctl_program, &miss_specs)?;
                    let e = specialize_for_samples(&exp_program, &miss_specs)?;
                    Some((c.program, e.program))
                })();
                self.spec_cache.insert(key, pair.clone());
                pair
            }
        };
        let Some((ctl_sp, exp_sp)) = pair else {
            // Unseparable spec set: the generic path answers the query.
            rca_obs::counter_inc!("oracle.fastpath_fallbacks", 1);
            let (answers, clean) = self.differs_full(mg, nodes);
            if clean {
                self.memoize(nodes, &specs, &answers);
            }
            return answers;
        };

        // Early exit: `drive` captures right after `cam_run_step` at the
        // sample step, so the trailing steps cannot affect the query.
        let horizon = self.sample_step.saturating_add(1);
        let mut ctl = self.control_config.clone();
        ctl.sample_step = Some(self.sample_step);
        ctl.samples = miss_specs.clone();
        ctl.steps = ctl.steps.min(horizon);
        let mut exp = self.experiment_config.clone();
        exp.sample_step = Some(self.sample_step);
        exp.samples = miss_specs;
        exp.steps = exp.steps.min(horizon);

        let mut ctl_ex = Executor::new(ctl_sp, &ctl);
        let mut exp_ex = Executor::new(exp_sp, &exp);
        if ctl_ex.drive(0.0).is_err() || exp_ex.drive(0.0).is_err() {
            // The generic path owns all error semantics: discard the
            // specialized failure, stand down permanently, re-run.
            self.poisoned = true;
            rca_obs::counter_inc!("oracle.fastpath_poisoned", 1);
            return self.differs_full(mg, nodes).0;
        }
        rca_obs::counter_inc!("oracle.specialized_queries", 1);
        let tolerance = self.tolerance;
        for (i, &n) in miss_nodes.iter().enumerate() {
            let verdict = Self::capture_differs(
                tolerance,
                ctl_ex.samples[i].as_ref(),
                exp_ex.samples[i].as_ref(),
            );
            self.node_memo.insert(n, verdict);
        }
        self.assemble(nodes, &specs)
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
        assert!(sampler.errors.is_empty(), "{:?}", sampler.errors);
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
        let mut sampler = RuntimeSampler::new(model.clone(), model.clone(), ctl, exp);
        sampler.tolerance = 1e-16;
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
