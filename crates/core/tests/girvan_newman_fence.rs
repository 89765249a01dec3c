//! Real-slice fence for Girvan–Newman: on the graphs refinement actually
//! partitions, `girvan_newman` must remove the same edges in the same
//! order, and end with the same partition, as the sequential reference
//! (the original whole-component hash-map algorithm), at levels 1 and 2.
//!
//! The graphs are each slice's starting graph as `refine` builds it, for
//! every paper experiment and for every scenario of a seeded campaign
//! plan whose ECT verdict fails (the ones a campaign refines).

use rca_campaign::{plan_campaign, CampaignOptions};
use rca_core::{reinduce, ExperimentSetup, RcaSession, Scenario, Statistics};
use rca_graph::{girvan_newman, reference, DiGraph};
use rca_model::{generate, Experiment, ModelConfig};
use rca_stats::Verdict;
use std::sync::Arc;

fn assert_matches_reference(label: &str, g: &DiGraph) {
    for levels in [1, 2] {
        let got = girvan_newman(g, levels);
        let (want, _) = reference::girvan_newman(g, levels);
        assert_eq!(
            got.removed_edges, want.removed_edges,
            "{label}: removal order at level {levels}"
        );
        assert_eq!(
            got.partition, want.partition,
            "{label}: partition at level {levels}"
        );
    }
}

/// The graph `refine` starts from for this statistics stage.
fn start_graph(session: &RcaSession<'_>, stats: Statistics<'_, '_>) -> DiGraph {
    let sliced = stats.slice().expect("slice");
    reinduce(session.metagraph(), &sliced.slice, &sliced.slice.mapping).graph
}

/// Every paper experiment's slice, refined or not.
fn experiments_match(config: ModelConfig, setup: ExperimentSetup) {
    let model = Arc::new(generate(&config));
    let session = RcaSession::builder(&model)
        .setup(setup)
        .build()
        .expect("session");
    for e in Experiment::ALL {
        let scenario = Scenario::paper(&model, session.setup(), e);
        let stats = session.statistics_scenario(&scenario).expect("statistics");
        let g = start_graph(&session, stats);
        assert_matches_reference(e.name(), &g);
    }
}

/// The refined slices of the seed-51966 16-scenario campaign plan (paper
/// experiments included, as in the CI campaign). Returns how many.
fn campaign_matches(config: ModelConfig, setup: ExperimentSetup) -> usize {
    let model = Arc::new(generate(&config));
    let session = RcaSession::builder(&model)
        .setup(setup)
        .build()
        .expect("session");
    let opts = CampaignOptions {
        scenarios: 16,
        seed: 51966,
        include_paper: true,
        ..CampaignOptions::default()
    };
    let mut refined = 0;
    for cs in plan_campaign(&model, &session, &opts) {
        let stats = session
            .statistics_scenario(&cs.scenario)
            .expect("statistics");
        if stats.verdict() == Verdict::Fail {
            assert_matches_reference(&cs.scenario.name, &start_graph(&session, stats));
            refined += 1;
        }
    }
    refined
}

#[test]
fn experiment_slices_match_the_reference_at_test_scale() {
    experiments_match(ModelConfig::test(), ExperimentSetup::quick());
}

#[test]
fn experiment_slices_match_the_reference_at_medium_scale() {
    experiments_match(ModelConfig::medium(), ExperimentSetup::quick());
}

#[test]
fn campaign_slices_match_the_reference_at_test_scale() {
    let refined = campaign_matches(ModelConfig::test(), ExperimentSetup::quick());
    assert!(refined >= 8, "only {refined} refined slices");
}

/// Paper scale: minutes of reference Girvan–Newman. Run in release with
/// `cargo test --release -p rca-core --test girvan_newman_fence -- --ignored`.
#[test]
#[ignore]
fn paper_scale_slices_match_the_reference() {
    experiments_match(ModelConfig::paper(), ExperimentSetup::default());
    let refined = campaign_matches(ModelConfig::paper(), ExperimentSetup::default());
    assert!(refined >= 8, "only {refined} refined slices");
}
