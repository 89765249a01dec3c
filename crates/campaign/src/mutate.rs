//! The mutation engine: seeded, deterministic defect injection.
//!
//! Turns the paper's six hand-written experiments into an unbounded family
//! of scenarios with known ground truth. Three **source-level** operators
//! perturb one assignment line enumerated by [`rca_model::patch_sites`]
//! (the mutated model still parses through the full front end), and two
//! **configuration-level** operators reproduce the paper's RAND-MT and
//! AVX2 mechanisms at arbitrary targets:
//!
//! - [`MutationKind::ConstantPerturb`] — scale a float literal (the
//!   WSUBBUG/GOFFGRATCH/DYN3BUG mechanism at a random site);
//! - [`MutationKind::OperatorSwap`] — `*`→`+` or `-`→`+` in one RHS;
//! - [`MutationKind::ComparisonFlip`] — `max(`↔`min(` (a branch-polarity
//!   flip: both intrinsics are comparison-selects);
//! - [`MutationKind::PrngSwap`] — substitute the Mersenne Twister for the
//!   default KISS generator (RAND-MT);
//! - [`MutationKind::FmaToggle`] — enable FMA contraction in exactly one
//!   module (the per-module form of the AVX2 experiment).
//!
//! Every scenario is a pure function of `(model, seed, index)`: the same
//! campaign seed reproduces byte-identical mutations, which is what makes
//! a scorecard a regression benchmark.

use rca_core::{ExperimentSetup, RcaSession, Scenario};
use rca_model::{BugSite, Experiment, ModelSource, PatchSite};
use rca_sim::{Avx2Policy, PrngKind, RunConfig};
use std::collections::HashSet;
use std::sync::Arc;

/// The campaign's deterministic xorshift64* generator.
#[derive(Debug)]
pub struct CampaignRng(u64);

impl CampaignRng {
    /// Seeds the generator. Only the all-zero state (which xorshift cannot
    /// leave) is remapped — any two distinct nonzero seeds yield distinct
    /// streams, so sweeping adjacent campaign seeds never repeats a
    /// campaign.
    pub fn new(seed: u64) -> CampaignRng {
        CampaignRng(if seed == 0 { 0x9E3779B97F4A7C15 } else { seed })
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// A defect-injection operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MutationKind {
    /// Scale one float literal by a random factor.
    ConstantPerturb,
    /// Swap one spaced `*` or `-` operator to `+`.
    OperatorSwap,
    /// Flip one `max(` ↔ `min(` comparison-select.
    ComparisonFlip,
    /// Flip one additive `+` to `-` (sign flip on one RHS term).
    SignFlip,
    /// Replace the run PRNG with the Mersenne Twister.
    PrngSwap,
    /// Enable FMA contraction in exactly one module.
    FmaToggle,
}

impl MutationKind {
    /// The kinds realized as source patches (the rest are run-config
    /// changes).
    pub const SOURCE_KINDS: [MutationKind; 4] = [
        MutationKind::ConstantPerturb,
        MutationKind::OperatorSwap,
        MutationKind::ComparisonFlip,
        MutationKind::SignFlip,
    ];

    /// Short stable identifier for names and reports.
    pub fn slug(&self) -> &'static str {
        match self {
            MutationKind::ConstantPerturb => "const",
            MutationKind::OperatorSwap => "opswap",
            MutationKind::ComparisonFlip => "cmpflip",
            MutationKind::SignFlip => "signflip",
            MutationKind::PrngSwap => "prng",
            MutationKind::FmaToggle => "fma",
        }
    }

    /// Whether `site` supports this source-level operator.
    pub fn applies_to(&self, site: &PatchSite) -> bool {
        match self {
            MutationKind::ConstantPerturb => !site.literals.is_empty(),
            MutationKind::OperatorSwap => !site.mul_ops.is_empty() || !site.minus_ops.is_empty(),
            MutationKind::ComparisonFlip => !site.minmax_ops.is_empty(),
            MutationKind::SignFlip => !site.plus_ops.is_empty(),
            MutationKind::PrngSwap | MutationKind::FmaToggle => false,
        }
    }
}

/// What one campaign entry diagnoses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioClass {
    /// Unmutated model — the verdict-accuracy control (must pass).
    Clean,
    /// A seeded injected defect (must fail and localize).
    Mutant(MutationKind),
    /// One of the paper's six experiments, run through the same batch
    /// machinery.
    Paper(Experiment),
}

impl ScenarioClass {
    /// Short stable identifier for names and reports.
    pub fn slug(&self) -> &'static str {
        match self {
            ScenarioClass::Clean => "clean",
            ScenarioClass::Mutant(k) => k.slug(),
            ScenarioClass::Paper(_) => "paper",
        }
    }

    /// Whether the scenario carries an injected discrepancy source.
    pub fn expects_fail(&self) -> bool {
        !matches!(
            self,
            ScenarioClass::Clean | ScenarioClass::Paper(Experiment::Control)
        )
    }
}

/// One planned campaign entry: the core [`Scenario`] plus scoring
/// expectations.
#[derive(Clone, Debug)]
pub struct CampaignScenario {
    /// The diagnosable scenario (model variant + config + ground truth).
    pub scenario: Scenario,
    /// What was injected.
    pub class: ScenarioClass,
    /// Ground-truth module the scorecard checks for, if any.
    pub injected_module: Option<String>,
    /// Human-readable description of the injection.
    pub detail: String,
}

/// Campaign generation knobs.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Number of generated scenarios (mutants + cleans; paper experiments
    /// come on top via `include_paper`).
    pub scenarios: usize,
    /// Master seed; the same seed reproduces the identical campaign.
    pub seed: u64,
    /// Every k-th generated scenario is an unmutated control (0 = none).
    pub clean_every: usize,
    /// Also queue the paper's six experiments as scenarios.
    pub include_paper: bool,
    /// Include the additive [`MutationKind::SignFlip`] operator in the
    /// weighted kind choice. Off by default so recorded fixed-seed
    /// baselines (the CI scorecard diff) stay byte-identical; enabling it
    /// re-rolls the plan for every seed.
    pub sign_flip: bool,
    /// Runtime fault-injection seed (the chaos axis): `0` = off. When
    /// nonzero, every planned scenario additionally carries a seeded
    /// [`rca_sim::FaultPlan`] that the executor applies mid-run to its
    /// experimental members (NaN/Inf poisoning, stuck values, member
    /// aborts). The axis derives its plans from a **separate** splitmix
    /// stream keyed by `(runtime_faults, index)`, so — like `sign_flip`
    /// — enabling it never perturbs the legacy mutation plan for a seed:
    /// scenario names, mutations, and configs are identical, only the
    /// fault plans differ.
    pub runtime_faults: u64,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            scenarios: 50,
            seed: 0xCAFE,
            clean_every: 5,
            include_paper: false,
            sign_flip: false,
            runtime_faults: 0,
        }
    }
}

/// Formats a float as a Fortran `_r8` literal the lexer accepts.
fn fortran_literal(v: f64) -> String {
    let mut s = format!("{v}");
    match s.find(['e', 'E']) {
        Some(epos) if !s[..epos].contains('.') => s.insert_str(epos, ".0"),
        None if !s.contains('.') => s.push_str(".0"),
        _ => {}
    }
    s + "_r8"
}

/// Applies one source-level mutation at `site`, returning the mutated
/// model and a description. Returns `None` if the site does not support
/// the operator (callers pre-filter, so `None` is defensive).
pub fn mutate_site(
    base: &ModelSource,
    site: &PatchSite,
    kind: MutationKind,
    rng: &mut CampaignRng,
) -> Option<(ModelSource, String)> {
    if !kind.applies_to(site) {
        return None;
    }
    let (new_line, detail) = match kind {
        MutationKind::ConstantPerturb => {
            let lit = site.literals[rng.below(site.literals.len())];
            // Mostly modest scalings (the GOFFGRATCH shape), sometimes the
            // WSUBBUG-style order-of-magnitude typo.
            let factor = if rng.f64() < 0.25 {
                10.0
            } else {
                1.05 + 0.45 * rng.f64()
            };
            let new_value = lit.value * factor;
            let new_lit = fortran_literal(new_value);
            let line = format!(
                "{}{}{}",
                &site.text[..lit.start],
                new_lit,
                &site.text[lit.end..]
            );
            let detail = format!(
                "{} -> {} (x{:.3})",
                &site.text[lit.start..lit.end],
                new_lit,
                factor
            );
            (line, detail)
        }
        MutationKind::OperatorSwap => {
            let n_mul = site.mul_ops.len();
            let pick = rng.below(n_mul + site.minus_ops.len());
            let (pos, from) = if pick < n_mul {
                (site.mul_ops[pick], "*")
            } else {
                (site.minus_ops[pick - n_mul], "-")
            };
            let mut line = site.text.clone();
            line.replace_range(pos..pos + 3, " + ");
            (line, format!("{from} -> + at col {pos}"))
        }
        MutationKind::ComparisonFlip => {
            let (pos, is_max) = site.minmax_ops[rng.below(site.minmax_ops.len())];
            let (from, to) = if is_max {
                ("max(", "min(")
            } else {
                ("min(", "max(")
            };
            let mut line = site.text.clone();
            line.replace_range(pos..pos + 4, to);
            (line, format!("{from} -> {to} at col {pos}"))
        }
        MutationKind::SignFlip => {
            let pos = site.plus_ops[rng.below(site.plus_ops.len())];
            let mut line = site.text.clone();
            line.replace_range(pos..pos + 3, " - ");
            (line, format!("+ -> - at col {pos}"))
        }
        MutationKind::PrngSwap | MutationKind::FmaToggle => return None,
    };
    let detail = format!(
        "{}::{} line {}: {}",
        site.module,
        site.subprogram,
        site.line + 1,
        detail
    );
    Some((
        base.with_patched_line(&site.file, site.line, &new_line),
        detail,
    ))
}

/// Injection sites usable by this session's campaign: CAM-component
/// modules (the slice scope) whose target variable survived coverage
/// filtering into the metagraph **and** lies on a directed path to some
/// history output. A defect nothing observes can neither be flagged nor
/// localized — injecting there would only measure the model's blind
/// spots, not the pipeline's quality.
///
/// Observability is decided twice, by independent implementations: the
/// metagraph's backward-reachable set (below) and the static analysis
/// plane's IR classifier ([`rca_analysis::ModelAnalysis::classify_site`]).
/// Both must agree on every candidate — a disagreement means one of the
/// two slicing planes is wrong, so it is asserted, not reconciled.
pub fn campaign_sites(model: &ModelSource, session: &RcaSession<'_>) -> Vec<PatchSite> {
    let components = model.component_map();
    let mg = session.metagraph();
    let syms = session.symbols();
    let analysis = session
        .analyze()
        .expect("session sources already compiled once; static analysis must too");
    // Backward-reachable set of every registered history output (the I/O
    // registry is id-keyed; node lookups are dense).
    let mut outputs: Vec<_> = mg
        .io_calls
        .iter()
        .flat_map(|c| mg.nodes_with_var(c.internal))
        .copied()
        .collect();
    outputs.sort();
    outputs.dedup();
    let observable = rca_graph::bfs_multi(&mg.graph, &outputs, rca_graph::Direction::In);
    rca_model::patch_sites(model)
        .into_iter()
        .filter(|s| {
            // Site names resolve through the session table once; a module
            // or target the graph never interned cannot be scored.
            syms.module_id(&s.module)
                .is_some_and(|m| session.pipeline().is_cam_id(m))
        })
        .filter(|s| components.contains_key(s.module.as_str()))
        .filter(|s| {
            let (Some(m), Some(v)) = (syms.module_id(&s.module), syms.var_id(&s.target)) else {
                return false;
            };
            let sub = syms.var_id(&s.subprogram);
            let mg_observable = sub
                .and_then(|sv| mg.node_by_ids(m, Some(sv), v))
                .or_else(|| mg.node_by_ids(m, None, v))
                .is_some_and(|n| observable.reached(n));
            let class = analysis.classify_site(&s.module, &s.subprogram, &s.target);
            debug_assert_eq!(
                mg_observable,
                class == rca_analysis::SiteClass::Observable,
                "metagraph and static observability disagree at {}::{}::{}",
                s.module,
                s.subprogram,
                s.target
            );
            // Intersection, not either-or: a site survives only when both
            // planes prove it output-reaching.
            mg_observable && class == rca_analysis::SiteClass::Observable
        })
        .collect()
}

/// Plans a deterministic campaign: `opts.scenarios` seeded clean/mutant
/// entries (plus the six paper experiments when requested), each carrying
/// its ground truth.
pub fn plan_campaign(
    model: &Arc<ModelSource>,
    session: &RcaSession<'_>,
    opts: &CampaignOptions,
) -> Vec<CampaignScenario> {
    let _span = rca_obs::span("phase.plan");
    let sites = campaign_sites(model, session);
    let control = session.control_config();
    let fma_modules: Vec<String> = {
        let set: HashSet<&str> = sites
            .iter()
            .filter(|s| s.fma_shape)
            .map(|s| s.module.as_str())
            .collect();
        let mut v: Vec<String> = set.into_iter().map(String::from).collect();
        v.sort();
        v
    };
    let mut out = Vec::with_capacity(opts.scenarios);

    for i in 0..opts.scenarios {
        // Each scenario derives its own generator from (seed, index), so a
        // campaign is a random-access family: scenario i is identical
        // whether generated alone or inside a larger batch.
        let mut rng =
            CampaignRng::new(opts.seed ^ (0x9E3779B97F4A7C15u64.wrapping_mul(i as u64 + 1)));
        if opts.clean_every > 0 && i % opts.clean_every == 0 {
            out.push(CampaignScenario {
                scenario: Scenario::new(format!("{i:03}-clean"), model.clone(), control.clone()),
                class: ScenarioClass::Clean,
                injected_module: None,
                detail: "unmutated model (verdict-accuracy control)".to_string(),
            });
            continue;
        }
        let entry = plan_mutant(model, &sites, &fma_modules, &control, opts, i, &mut rng);
        out.push(entry);
    }

    if opts.include_paper {
        for e in Experiment::ALL {
            out.push(paper_scenario(model, session.setup(), e));
        }
    }

    // The chaos axis rides on top of the finished plan: each scenario's
    // experimental members get a fault plan from its own derived seed.
    // The control ensemble (shared, prewarmed, fault-free) and the
    // mutation RNG streams above are untouched, so `runtime_faults: 0`
    // vs nonzero differ only in `scenario.config.faults`.
    if opts.runtime_faults != 0 {
        let members = session.setup().n_experiment;
        for (i, cs) in out.iter_mut().enumerate() {
            let fault_seed =
                opts.runtime_faults ^ (0x9E3779B97F4A7C15u64.wrapping_mul(i as u64 + 1));
            cs.scenario.config.faults =
                rca_sim::FaultPlan::seeded(fault_seed, members, cs.scenario.config.steps, 2);
        }
    }
    out
}

fn plan_mutant(
    model: &Arc<ModelSource>,
    sites: &[PatchSite],
    fma_modules: &[String],
    control: &RunConfig,
    opts: &CampaignOptions,
    index: usize,
    rng: &mut CampaignRng,
) -> CampaignScenario {
    // Weighted kind choice: source mutations dominate; the two config
    // mechanisms appear but stay rare (they each have few distinct
    // targets, and oversampling them would just repeat scenarios). The
    // legacy table (sign_flip off) must keep drawing the identical RNG
    // stream — fixed-seed scorecards are diffed byte-for-byte in CI.
    let kind = if opts.sign_flip {
        match rng.below(13) {
            0..=4 => MutationKind::ConstantPerturb,
            5..=7 => MutationKind::OperatorSwap,
            8..=9 => MutationKind::ComparisonFlip,
            10..=11 => MutationKind::SignFlip,
            _ if rng.below(2) == 0 && !fma_modules.is_empty() => MutationKind::FmaToggle,
            _ => MutationKind::PrngSwap,
        }
    } else {
        match rng.below(12) {
            0..=4 => MutationKind::ConstantPerturb,
            5..=8 => MutationKind::OperatorSwap,
            9..=10 => MutationKind::ComparisonFlip,
            _ if rng.below(2) == 0 && !fma_modules.is_empty() => MutationKind::FmaToggle,
            _ => MutationKind::PrngSwap,
        }
    };

    match kind {
        MutationKind::PrngSwap => {
            let mut config = control.clone();
            config.prng = PrngKind::MersenneTwister;
            let sites = Experiment::RandMt.bug_sites();
            let module = sites.first().map(|s| s.module.clone());
            CampaignScenario {
                scenario: Scenario {
                    name: format!("{index:03}-prng"),
                    model: model.clone(),
                    config,
                    bug_modules: sites.iter().map(|s| s.module.clone()).collect(),
                    bug_sites: sites,
                },
                class: ScenarioClass::Mutant(MutationKind::PrngSwap),
                injected_module: module,
                detail: "PRNG substituted: KISS -> Mersenne Twister".to_string(),
            }
        }
        MutationKind::FmaToggle => {
            let module = fma_modules[rng.below(fma_modules.len())].clone();
            let mut config = control.clone();
            config.avx2 = Avx2Policy::Only(HashSet::from([module.clone()]));
            let bug_sites: Vec<BugSite> = sites
                .iter()
                .filter(|s| s.fma_shape && s.module == module)
                .map(|s| BugSite {
                    module: s.module.clone(),
                    subprogram: s.subprogram.clone(),
                    canonical: s.target.clone(),
                })
                .collect();
            CampaignScenario {
                scenario: Scenario {
                    name: format!("{index:03}-fma-{module}"),
                    model: model.clone(),
                    config,
                    bug_sites,
                    bug_modules: vec![module.clone()],
                },
                class: ScenarioClass::Mutant(MutationKind::FmaToggle),
                injected_module: Some(module.clone()),
                detail: format!("FMA contraction enabled in {module} only"),
            }
        }
        source_kind => {
            let applicable: Vec<&PatchSite> =
                sites.iter().filter(|s| source_kind.applies_to(s)).collect();
            assert!(
                !applicable.is_empty(),
                "model has no sites for {source_kind:?}"
            );
            let site = applicable[rng.below(applicable.len())];
            let (mutated, detail) =
                mutate_site(model, site, source_kind, rng).expect("pre-filtered site applies");
            CampaignScenario {
                scenario: Scenario {
                    name: format!("{index:03}-{}-{}", source_kind.slug(), site.module),
                    model: Arc::new(mutated),
                    config: control.clone(),
                    bug_sites: vec![BugSite {
                        module: site.module.clone(),
                        subprogram: site.subprogram.clone(),
                        canonical: site.target.clone(),
                    }],
                    bug_modules: vec![site.module.clone()],
                },
                class: ScenarioClass::Mutant(source_kind),
                injected_module: Some(site.module.clone()),
                detail,
            }
        }
    }
}

/// One of the paper's six experiments, packaged as a campaign scenario so
/// the batch runner and scorecard treat it uniformly: the
/// [`Scenario::paper`] of `experiment`, named `paper-<NAME>`, with the
/// modules of its bug sites as module-level ground truth.
pub fn paper_scenario(
    model: &Arc<ModelSource>,
    setup: &ExperimentSetup,
    experiment: Experiment,
) -> CampaignScenario {
    let mut scenario = Scenario::paper(model, setup, experiment);
    scenario.name = format!("paper-{}", scenario.name);
    let mut bug_modules: Vec<String> = scenario
        .bug_sites
        .iter()
        .map(|s| s.module.clone())
        .collect();
    bug_modules.sort();
    bug_modules.dedup();
    scenario.bug_modules = bug_modules;
    CampaignScenario {
        injected_module: scenario.bug_modules.first().cloned(),
        scenario,
        class: ScenarioClass::Paper(experiment),
        detail: format!("paper experiment {}", experiment.name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rca_core::ExperimentSetup;
    use rca_model::{generate, ModelConfig};
    use std::sync::OnceLock;

    fn fixture() -> &'static (Arc<ModelSource>, RcaSession<'static>) {
        static MODEL: OnceLock<ModelSource> = OnceLock::new();
        static FIX: OnceLock<(Arc<ModelSource>, RcaSession<'static>)> = OnceLock::new();
        FIX.get_or_init(|| {
            let m = MODEL.get_or_init(|| generate(&ModelConfig::test()));
            let session = RcaSession::builder(m)
                .setup(ExperimentSetup::quick())
                .build()
                .expect("session");
            (Arc::new(m.clone()), session)
        })
    }

    #[test]
    fn fortran_literals_are_lexable_shapes() {
        assert_eq!(fortran_literal(0.264), "0.264_r8");
        assert_eq!(fortran_literal(2.0), "2.0_r8");
        let tiny = fortran_literal(8.1828e-23);
        assert!(tiny.ends_with("_r8"));
        assert!(tiny.contains('.'), "{tiny}");
    }

    #[test]
    fn every_source_kind_produces_a_parsing_mutant() {
        let (model, session) = fixture();
        let sites = campaign_sites(model, session);
        assert!(!sites.is_empty());
        for kind in MutationKind::SOURCE_KINDS {
            let site = sites
                .iter()
                .find(|s| kind.applies_to(s))
                .unwrap_or_else(|| panic!("no site for {kind:?}"));
            let mut rng = CampaignRng::new(7);
            let (mutated, detail) = mutate_site(model, site, kind, &mut rng).expect("applies");
            let (_, errs) = mutated.parse();
            assert!(
                errs.is_empty(),
                "{kind:?} broke parsing: {errs:?} ({detail})"
            );
            // Exactly one line differs from the base model.
            let base = &model
                .files
                .iter()
                .find(|f| f.name == site.file)
                .unwrap()
                .source;
            let new = &mutated
                .files
                .iter()
                .find(|f| f.name == site.file)
                .unwrap()
                .source;
            let diffs = base
                .lines()
                .zip(new.lines())
                .filter(|(a, b)| a != b)
                .count();
            assert_eq!(diffs, 1, "{kind:?}");
        }
    }

    #[test]
    fn campaign_sites_are_cam_and_in_graph() {
        let (model, session) = fixture();
        let components = model.component_map();
        for s in campaign_sites(model, session) {
            assert!(session.pipeline().is_cam(&s.module), "{}", s.module);
            assert!(components.contains_key(s.module.as_str()));
        }
    }

    #[test]
    fn plan_is_deterministic_and_random_access() {
        let (model, session) = fixture();
        let opts = CampaignOptions {
            scenarios: 12,
            seed: 42,
            ..Default::default()
        };
        let a = plan_campaign(model, session, &opts);
        let b = plan_campaign(model, session, &opts);
        assert_eq!(a.len(), 12);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.scenario.name, y.scenario.name);
            assert_eq!(x.detail, y.detail);
            assert_eq!(x.scenario.bug_sites, y.scenario.bug_sites);
        }
        // Random access: a shorter plan is a prefix of a longer one.
        let short = plan_campaign(
            model,
            session,
            &CampaignOptions {
                scenarios: 5,
                seed: 42,
                ..Default::default()
            },
        );
        for (x, y) in short.iter().zip(&a) {
            assert_eq!(x.scenario.name, y.scenario.name);
            assert_eq!(x.detail, y.detail);
        }
    }

    #[test]
    fn plan_mixes_cleans_and_mutants_with_ground_truth() {
        let (model, session) = fixture();
        let opts = CampaignOptions {
            scenarios: 20,
            seed: 1,
            clean_every: 5,
            ..Default::default()
        };
        let plan = plan_campaign(model, session, &opts);
        let cleans = plan
            .iter()
            .filter(|c| c.class == ScenarioClass::Clean)
            .count();
        assert_eq!(cleans, 4);
        for c in &plan {
            match c.class {
                ScenarioClass::Clean => {
                    assert!(c.scenario.bug_sites.is_empty());
                    assert!(!c.class.expects_fail());
                }
                _ => {
                    assert!(
                        !c.scenario.bug_sites.is_empty() || !c.scenario.bug_modules.is_empty(),
                        "{} lacks ground truth",
                        c.scenario.name
                    );
                    assert!(c.injected_module.is_some());
                    // Ground truth resolves to metagraph nodes — no
                    // orphaned injections.
                    assert!(
                        !session.scenario_bug_nodes(&c.scenario).is_empty(),
                        "{} ground truth not in graph",
                        c.scenario.name
                    );
                }
            }
        }
    }

    #[test]
    fn signflip_is_opt_in_and_scored_like_other_source_kinds() {
        let (model, session) = fixture();
        // Off (default): no signflip scenario can appear, and the plan is
        // exactly the legacy plan for the same seed.
        let legacy = plan_campaign(
            model,
            session,
            &CampaignOptions {
                scenarios: 24,
                seed: 99,
                ..Default::default()
            },
        );
        assert!(legacy
            .iter()
            .all(|c| c.class != ScenarioClass::Mutant(MutationKind::SignFlip)));
        // On: signflip mutants appear, carrying resolvable ground truth.
        let with = plan_campaign(
            model,
            session,
            &CampaignOptions {
                scenarios: 24,
                seed: 99,
                sign_flip: true,
                ..Default::default()
            },
        );
        let flips: Vec<_> = with
            .iter()
            .filter(|c| c.class == ScenarioClass::Mutant(MutationKind::SignFlip))
            .collect();
        assert!(!flips.is_empty(), "24 scenarios must draw a signflip");
        for f in flips {
            assert!(f.scenario.name.contains("signflip"));
            assert!(f.injected_module.is_some());
            assert!(!session.scenario_bug_nodes(&f.scenario).is_empty());
            // The mutation really flips one + to -.
            assert!(f.detail.contains("+ -> -"), "{}", f.detail);
        }
    }

    #[test]
    fn runtime_faults_are_a_separate_axis_over_the_same_plan() {
        let (model, session) = fixture();
        let base = CampaignOptions {
            scenarios: 10,
            seed: 7,
            ..Default::default()
        };
        let plain = plan_campaign(model, session, &base);
        let chaotic = plan_campaign(
            model,
            session,
            &CampaignOptions {
                runtime_faults: 0xFA17,
                ..base.clone()
            },
        );
        // The mutation plan is untouched: same names, same details, same
        // ground truth — only the fault plans differ.
        for (a, b) in plain.iter().zip(&chaotic) {
            assert_eq!(a.scenario.name, b.scenario.name);
            assert_eq!(a.detail, b.detail);
            assert_eq!(a.scenario.bug_sites, b.scenario.bug_sites);
            assert!(a.scenario.config.faults.is_empty());
            assert!(!b.scenario.config.faults.is_empty());
        }
        // Deterministic: the same fault seed reproduces identical plans;
        // a different one re-rolls them.
        let again = plan_campaign(
            model,
            session,
            &CampaignOptions {
                runtime_faults: 0xFA17,
                ..base.clone()
            },
        );
        let other = plan_campaign(
            model,
            session,
            &CampaignOptions {
                runtime_faults: 0xFA18,
                ..base
            },
        );
        for ((b, c), d) in chaotic.iter().zip(&again).zip(&other) {
            assert_eq!(
                b.scenario.config.faults.digest(),
                c.scenario.config.faults.digest()
            );
            assert_ne!(
                b.scenario.config.faults.digest(),
                d.scenario.config.faults.digest()
            );
        }
    }

    #[test]
    fn paper_scenarios_carry_experiment_ground_truth() {
        let (model, session) = fixture();
        let cs = paper_scenario(model, session.setup(), Experiment::GoffGratch);
        assert_eq!(cs.scenario.name, "paper-GOFFGRATCH");
        assert_eq!(cs.injected_module.as_deref(), Some("wv_saturation"));
        assert!(cs.class.expects_fail());
        let control = paper_scenario(model, session.setup(), Experiment::Control);
        assert!(!control.class.expects_fail());
    }

    #[test]
    fn paper_scenario_is_the_core_paper_scenario_renamed_with_modules() {
        let (model, session) = fixture();
        for e in Experiment::ALL {
            let cs = paper_scenario(model, session.setup(), e).scenario;
            let core = Scenario::paper(model, session.setup(), e);
            assert_eq!(cs.name, format!("paper-{}", core.name));
            assert_eq!(cs.model.content_hash(), core.model.content_hash());
            assert_eq!(
                Arc::ptr_eq(&cs.model, model),
                Arc::ptr_eq(&core.model, model),
                "{}",
                e.name()
            );
            assert_eq!(format!("{:?}", cs.config), format!("{:?}", core.config));
            assert_eq!(cs.bug_sites, core.bug_sites);
            assert!(core.bug_modules.is_empty());
            let mut modules: Vec<String> =
                core.bug_sites.iter().map(|s| s.module.clone()).collect();
            modules.sort();
            modules.dedup();
            assert_eq!(cs.bug_modules, modules, "{}", e.name());
        }
    }
}
