//! Shape assertions from the paper's evaluation: relative sizes, orderings
//! and structural claims that must hold at any model scale.

use climate_rca::prelude::*;
use graph::{fit_power_law, DegreeKind};
use model::{generate, Experiment, ModelConfig};
use rca::{backward_slice_names, ModuleRanking, RcaPipeline};

fn pipeline() -> (model::ModelSource, RcaPipeline) {
    let m = generate(&ModelConfig::test());
    let p = RcaPipeline::build(&m).expect("pipeline");
    (m, p)
}

fn slice_for(p: &RcaPipeline, exp: Experiment) -> rca::Slice {
    let internal: Vec<String> = exp
        .table2_internal()
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    backward_slice_names(&p.metagraph, &internal, |m| p.is_cam(m))
}

#[test]
fn table2_output_mapping_is_complete() {
    // Every Table-2 output name resolves through the I/O registry to the
    // paper's internal name.
    let (_, p) = pipeline();
    for exp in [
        Experiment::WsubBug,
        Experiment::RandomBug,
        Experiment::GoffGratch,
        Experiment::Dyn3Bug,
        Experiment::RandMt,
        Experiment::Avx2,
    ] {
        let outputs: Vec<String> = exp
            .table2_outputs()
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        let internal = p.outputs_to_internal(&outputs);
        let expected: Vec<&str> = exp.table2_internal();
        for want in &expected {
            assert!(
                internal.iter().any(|i| i == want),
                "{exp:?}: internal {want} not derivable from outputs {outputs:?} -> {internal:?}"
            );
        }
    }
}

#[test]
fn slice_size_ordering_matches_paper() {
    // Paper subgraphs: WSUBBUG 14 << RANDOMBUG 628 < GOFFGRATCH 4243 ≈
    // AVX2 4159 < DYN3BUG 5999. Absolute sizes differ; the ordering of
    // the isolated bug vs. the core experiments must hold.
    let (_, p) = pipeline();
    let wsub = slice_for(&p, Experiment::WsubBug).graph.node_count();
    let goff = slice_for(&p, Experiment::GoffGratch).graph.node_count();
    let dyn3 = slice_for(&p, Experiment::Dyn3Bug).graph.node_count();
    assert!(wsub < 25, "wsub slice must be tiny, got {wsub}");
    assert!(
        wsub * 4 < goff,
        "isolated wsub ({wsub}) must be far below goffgratch ({goff})"
    );
    assert!(wsub * 4 < dyn3, "wsub {wsub} vs dyn3 {dyn3}");
}

#[test]
fn wsub_slice_members_are_all_wsub_related() {
    // §6.1: "The induced subgraph contains only 14 internal variables,
    // all of which are related to wsub."
    let (_, p) = pipeline();
    let slice = slice_for(&p, Experiment::WsubBug);
    for &n in slice.meta_nodes() {
        let module = p.metagraph.module_name_of(n);
        assert!(
            ["microp_aero", "camstate", "ppgrid", "shr_kind_mod"].contains(&module),
            "unexpected module {} ({}) in the wsub slice",
            module,
            p.metagraph.display(n)
        );
    }
}

#[test]
fn degree_distribution_is_heavy_tailed() {
    // Figs. 4/9: approximately power law.
    let (_, p) = pipeline();
    let fit = fit_power_law(&p.metagraph.graph, DegreeKind::Total, 2).expect("fit");
    assert!(
        fit.alpha > 1.3 && fit.alpha < 5.0,
        "implausible power-law exponent {}",
        fit.alpha
    );
    // A genuine hub exists (the state aggregate).
    let max_deg = p
        .metagraph
        .graph
        .nodes()
        .map(|n| p.metagraph.graph.degree(n))
        .max()
        .unwrap();
    let mean_deg =
        2.0 * p.metagraph.graph.edge_count() as f64 / p.metagraph.graph.node_count() as f64;
    assert!(
        max_deg as f64 > 6.0 * mean_deg,
        "no hub: max {max_deg} vs mean {mean_deg:.1}"
    );
}

#[test]
fn module_quotient_ranks_core_over_periphery() {
    // §6.5: centrality "accurately captures the information flow between
    // CESM modules" — the anchor physics must outrank the median filler.
    let (_, p) = pipeline();
    let ranking = ModuleRanking::build(&p.metagraph);
    let ranked = ranking.ranked();
    let pos = |name: &str| {
        ranked
            .iter()
            .position(|(m, _)| *m == name)
            .unwrap_or(usize::MAX)
    };
    let median = ranked.len() / 2;
    for core in ["micro_mg", "dycore", "camstate", "cloud_diagnostics"] {
        assert!(
            pos(core) < median,
            "{core} ranked {} of {}",
            pos(core),
            ranked.len()
        );
    }
}

#[test]
fn randmt_bug_nodes_downstream_of_central_cluster() {
    // The Fig. 5 signature: no directed path from the PRNG-tainted
    // variables back to the emissivity cluster that dominates centrality.
    let (_, p) = pipeline();
    let taint = p
        .metagraph
        .node_by_key("cloud_cover_lw", None, "cldovrlp")
        .expect("cldovrlp node");
    let emis = p
        .metagraph
        .node_by_key("cloud_cover_lw", None, "emis")
        .expect("emis node");
    assert!(
        graph::reaches_any(&p.metagraph.graph, emis, &[taint]),
        "emissivity cluster feeds the overlap"
    );
    assert!(
        !graph::reaches_any(&p.metagraph.graph, taint, &[emis]),
        "PRNG taint must NOT reach the upstream cluster (iteration-1 non-detection)"
    );
}

#[test]
fn dum_is_most_central_in_mg_kernel() {
    // §6.4: "The node with the largest eigenvector in-centrality is the
    // temporary, dummy variable dum."
    let (_, p) = pipeline();
    let mg_nodes: Vec<graph::NodeId> = p.metagraph.nodes_in_modules(|m| m == "micro_mg");
    let (sub, mapping) = p.metagraph.graph.induced_subgraph(&mg_nodes);
    let cent = graph::eigenvector_centrality(
        &sub,
        graph::Direction::In,
        graph::PowerIterOptions::default(),
    );
    let top = graph::top_m(&cent, 3);
    let names: Vec<String> = top
        .iter()
        .map(|&n| p.metagraph.canonical_of(mapping[n.index()]).to_string())
        .collect();
    assert_eq!(names[0], "dum", "top-3 by in-centrality: {names:?}");
}

#[test]
fn coverage_is_the_hybrid_in_hybrid_slicing() {
    // Dead code must vanish from slices when coverage is applied and
    // reappear when it is skipped.
    let mut m = generate(&ModelConfig::test());
    let f = m
        .files
        .iter_mut()
        .find(|f| f.name == "wv_saturation.F90")
        .unwrap();
    f.source = f.source.replace(
        "contains",
        "contains\n  real(r8) function dead_path(x) result(r)\n    real(r8), intent(in) :: x\n    r = x * 3.0_r8\n  end function dead_path\n",
    );
    let hybrid = RcaPipeline::build(&m).unwrap();
    assert!(hybrid
        .metagraph
        .nodes_with_canonical("dead_path")
        .is_empty());
    let static_only = RcaPipeline::build_with(
        &m,
        &rca::PipelineOptions {
            skip_coverage: true,
        },
    )
    .unwrap();
    assert!(
        static_only.metagraph.node_count() > hybrid.metagraph.node_count(),
        "static graph must be strictly larger"
    );
}
