//! Seeded-mutant differential: the static analysis plane vs the session
//! planes, on campaign-generated defect variants.
//!
//! Three fences, all over the same seeded mutant family:
//!
//! 1. the metagraph observability filter and the IR classifier agree on
//!    **every** enumerated patch site (not just survivors);
//! 2. the IR slicer agrees with `backward_slice` node-for-node on every
//!    source-mutant model a campaign plans;
//! 3. the default fixed-seed campaign plan is byte-stable (pinned
//!    digest), so the site filters — IR reachability and the static
//!    observability pre-filter in `campaign_sites` — provably change
//!    nothing for recorded seeds.

use rca_campaign::{campaign_sites, plan_campaign, CampaignOptions, ScenarioClass};
use rca_core::{backward_slice_names, ExperimentSetup, RcaPipeline, RcaSession};
use rca_model::{generate, ModelConfig, ModelSource};
use rca_sim::compile_sources;
use std::sync::{Arc, OnceLock};

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
fn observability_planes_agree_on_every_enumerated_site() {
    let (model, session) = fixture();
    let mg = session.metagraph();
    let syms = session.symbols();
    let analysis = session.analyze().expect("analysis");
    let mut outputs: Vec<_> = mg
        .io_calls
        .iter()
        .flat_map(|c| mg.nodes_with_var(c.internal))
        .copied()
        .collect();
    outputs.sort();
    outputs.dedup();
    let observable = rca_graph::bfs_multi(&mg.graph, &outputs, rca_graph::Direction::In);
    let mut checked = 0usize;
    for s in rca_model::patch_sites(model) {
        let (Some(m), Some(v)) = (syms.module_id(&s.module), syms.var_id(&s.target)) else {
            continue;
        };
        let sub = syms.var_id(&s.subprogram);
        let mg_observable = sub
            .and_then(|sv| mg.node_by_ids(m, Some(sv), v))
            .or_else(|| mg.node_by_ids(m, None, v))
            .is_some_and(|n| observable.reached(n));
        let class = analysis.classify_site(&s.module, &s.subprogram, &s.target);
        assert_eq!(
            mg_observable,
            class == rca_analysis::SiteClass::Observable,
            "planes disagree at {}::{}::{} ({class:?})",
            s.module,
            s.subprogram,
            s.target
        );
        checked += 1;
    }
    assert!(checked > 100, "only {checked} sites cross-checked");
    // And the campaign's surviving set is non-empty under the
    // intersection of both planes.
    assert!(!campaign_sites(model, session).is_empty());
}

#[test]
fn static_slicer_agrees_with_backward_slice_on_campaign_mutants() {
    let (model, session) = fixture();
    let mut mutants_checked = 0usize;
    for seed in [7u64, 42, 51966] {
        let plan = plan_campaign(
            model,
            session,
            &CampaignOptions {
                scenarios: 6,
                seed,
                clean_every: 0,
                ..Default::default()
            },
        );
        for entry in &plan {
            // Config-level mutants share the base source; only source
            // mutants produce a new slicing universe.
            let ScenarioClass::Mutant(kind) = entry.class else {
                continue;
            };
            if !rca_campaign::MutationKind::SOURCE_KINDS.contains(&kind) {
                continue;
            }
            let mutated = &entry.scenario.model;
            let pipeline = RcaPipeline::build(mutated).expect("mutant pipeline");
            let internal = pipeline.outputs_to_internal(&["flds".into(), "taux".into()]);
            let criteria: Vec<&str> = internal.iter().map(String::as_str).collect();
            let names: Vec<String> = criteria.iter().map(|s| (*s).to_string()).collect();
            let mg = &pipeline.metagraph;
            let slice = backward_slice_names(mg, &names, |_| true);
            let mut meta: Vec<(String, Option<String>, String)> = slice
                .meta_nodes()
                .iter()
                .map(|&n| {
                    (
                        mg.module_name_of(n).to_string(),
                        mg.subprogram_of(n).map(str::to_string),
                        mg.canonical_of(n).to_string(),
                    )
                })
                .collect();
            meta.sort();
            let prog =
                compile_sources(pipeline.filtered_sources()).expect("mutant sources compile");
            let ir = rca_analysis::DepGraph::build(&prog).static_slice(&criteria, None);
            assert_eq!(
                meta, ir,
                "slicers disagree on {} ({})",
                entry.scenario.name, entry.detail
            );
            mutants_checked += 1;
        }
    }
    assert!(mutants_checked >= 5, "only {mutants_checked} mutants swept");
}

/// FNV-1a over the plan's observable surface: scenario names, injection
/// details, and ground-truth sites.
fn plan_digest(model: &Arc<ModelSource>, session: &RcaSession<'_>, opts: &CampaignOptions) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |s: &str| {
        for b in s.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x100000001b3);
    };
    for entry in plan_campaign(model, session, opts) {
        eat(&entry.scenario.name);
        eat(&entry.detail);
        for b in &entry.scenario.bug_sites {
            eat(&b.module);
            eat(&b.subprogram);
            eat(&b.canonical);
        }
    }
    h
}

#[test]
fn default_fixed_seed_plan_is_byte_stable() {
    // Pinned digest of the default-options plan (seed 0xCAFE, 50
    // scenarios). If the reachability filter, the static pre-filter, or
    // the RNG stream ever shifts the plan, this moves — and every
    // recorded scorecard baseline silently re-rolls with it.
    let (model, session) = fixture();
    let opts = CampaignOptions::default();
    let a = plan_digest(model, session, &opts);
    let b = plan_digest(model, session, &opts);
    assert_eq!(a, b, "plan digest is not even run-stable");
    assert_eq!(
        a, 0x06716d8a2ccf1314,
        "fixed-seed campaign plan changed; recorded baselines are stale"
    );
}
