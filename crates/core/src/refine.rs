//! Algorithm 5.4 — the iterative refinement procedure.
//!
//! The paper's core contribution: starting from the induced suspect
//! subgraph, repeatedly (5) detect communities with one Girvan–Newman
//! iteration, (6) rank each community by eigenvector **in**-centrality and
//! pick the top *m* nodes, (7) instrument them (in parallel across
//! communities) for an ensemble and an experimental run, then (8a) if no
//! difference is detected remove every node on a shortest path into the
//! sampled set, else (8b) keep only nodes on shortest paths into the
//! *differing* set, and (9) repeat "until the subgraph is small enough for
//! manual analysis or the bug locations are instrumented".
//!
//! This is "similar to a k-ary search" with `k` the community count. The
//! three §5.4 caveats are handled: non-refining iterations stall-stop,
//! never-detected bugs drive repeated 8a shrinkage toward disconnection,
//! and static paths may include non-traversed code (the oracle, not the
//! graph, is authoritative about detection).

use crate::oracle::Oracle;
use crate::slice::{reinduce, Slice};
use rca_graph::community::communities_counted;
use rca_graph::{bfs_multi, eigenvector_centrality, top_m, Direction, NodeId, PowerIterOptions};
use rca_metagraph::MetaGraph;
use serde::Json;

/// Nodes sampled per community (the paper samples the top 10, three for
/// very small subgraphs).
const SAMPLES_PER_COMMUNITY: usize = 10;

/// Girvan–Newman iterations per refinement round (paper: 1).
const GN_LEVELS: usize = 1;

/// Hard cap on refinement iterations.
const MAX_ITERATIONS: usize = 12;

/// Tuning knobs for Algorithm 5.4.
#[derive(Debug, Clone)]
pub struct RefineOptions {
    /// Communities smaller than this are omitted (paper: 3).
    pub min_community: usize,
    /// Stop when the subgraph reaches this size ("small enough for manual
    /// analysis").
    pub manual_threshold: usize,
}

impl Default for RefineOptions {
    fn default() -> Self {
        RefineOptions {
            min_community: 3,
            manual_threshold: 25,
        }
    }
}

/// Why the refinement loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A ground-truth bug node was among the instrumented nodes.
    BugInstrumented,
    /// Subgraph is small enough for manual analysis.
    SmallEnough,
    /// The induced subgraph stopped shrinking (paper issue #1).
    Stalled,
    /// No communities could be found (paper issue #2: increasingly
    /// disconnected subgraphs).
    Disconnected,
    /// Iteration cap.
    MaxIterations,
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let text = match self {
            StopReason::BugInstrumented => "bug instrumented",
            StopReason::SmallEnough => "small enough for manual analysis",
            StopReason::Stalled => "subgraph stopped shrinking",
            StopReason::Disconnected => "no communities (subgraph disconnected)",
            StopReason::MaxIterations => "iteration cap reached",
        };
        f.write_str(text)
    }
}

/// One refinement iteration's record (the paper's per-iteration
/// subfigures a/b/c).
#[derive(Debug, Clone)]
pub struct IterationReport {
    /// Subgraph size entering the iteration.
    pub nodes: usize,
    /// Edges entering the iteration.
    pub edges: usize,
    /// Community sizes (descending, after the min-size filter).
    pub community_sizes: Vec<usize>,
    /// Sampled nodes (metagraph ids) per community.
    pub sampled: Vec<Vec<NodeId>>,
    /// Which sampled nodes took different values.
    pub detected: Vec<Vec<bool>>,
    /// Whether any difference was detected (chooses 8a vs 8b).
    pub any_detected: bool,
}

/// Final outcome of Algorithm 5.4.
#[derive(Debug, Clone)]
pub struct RefinementReport {
    /// Per-iteration records.
    pub iterations: Vec<IterationReport>,
    /// Why the loop stopped.
    pub stop: StopReason,
    /// Metagraph nodes of the final subgraph, ascending (subgraph
    /// induction preserves metagraph node order).
    pub final_nodes: Vec<NodeId>,
    /// Every node instrumented across all iterations, sorted + deduped.
    pub all_sampled: Vec<NodeId>,
}

impl RefinementReport {
    /// Whether any ground-truth bug node was instrumented at some point.
    /// Both node lists are sorted (see field docs), so membership is a
    /// binary search — campaign scorecards call this per scenario with
    /// paper-scale slices.
    pub fn instrumented(&self, bug_nodes: &[NodeId]) -> bool {
        debug_assert!(self.all_sampled.is_sorted());
        bug_nodes
            .iter()
            .any(|b| self.all_sampled.binary_search(b).is_ok())
    }

    /// Whether any bug node is inside the final subgraph.
    pub fn localized(&self, bug_nodes: &[NodeId]) -> bool {
        debug_assert!(self.final_nodes.is_sorted());
        bug_nodes
            .iter()
            .any(|b| self.final_nodes.binary_search(b).is_ok())
    }
}

// Machine-readable refinement traces (campaign export, external tooling).

fn nodes_json(nodes: &[NodeId]) -> Json {
    Json::Arr(nodes.iter().map(|n| Json::Num(n.index() as f64)).collect())
}

impl serde::Serialize for StopReason {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                StopReason::BugInstrumented => "bug_instrumented",
                StopReason::SmallEnough => "small_enough",
                StopReason::Stalled => "stalled",
                StopReason::Disconnected => "disconnected",
                StopReason::MaxIterations => "max_iterations",
            }
            .to_string(),
        )
    }
}

impl serde::Serialize for IterationReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("nodes", self.nodes.to_json()),
            ("edges", self.edges.to_json()),
            ("community_sizes", self.community_sizes.to_json()),
            (
                "sampled",
                Json::Arr(self.sampled.iter().map(|g| nodes_json(g)).collect()),
            ),
            ("detected", self.detected.to_json()),
            ("any_detected", self.any_detected.to_json()),
        ])
    }
}

impl serde::Serialize for RefinementReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("iterations", self.iterations.to_json()),
            ("stop", self.stop.to_json()),
            ("final_nodes", nodes_json(&self.final_nodes)),
            ("all_sampled", nodes_json(&self.all_sampled)),
        ])
    }
}

/// Runs Algorithm 5.4 on a suspect slice with the given oracle.
///
/// `bug_nodes` (metagraph ids) are optional ground truth used only for
/// the `BugInstrumented` stop condition — pass an empty slice when the
/// location is unknown, exactly as a real investigation would.
pub fn refine(
    mg: &MetaGraph,
    slice: &Slice,
    oracle: &mut dyn Oracle,
    bug_nodes: &[NodeId],
    opts: &RefineOptions,
) -> RefinementReport {
    let mut current = {
        let _span = rca_obs::span("refine.reinduce");
        reinduce(mg, slice, &slice.mapping)
    };
    let mut iterations = Vec::new();
    let mut all_sampled: Vec<NodeId> = Vec::new();
    let mut stop = StopReason::MaxIterations;

    for _ in 0..MAX_ITERATIONS {
        if current.graph.node_count() <= opts.manual_threshold {
            stop = StopReason::SmallEnough;
            break;
        }
        // Step 5: communities of the undirected view.
        let comms = {
            let _span = rca_obs::span("refine.communities");
            let (comms, work) = communities_counted(&current.graph, GN_LEVELS, opts.min_community);
            rca_obs::counter_inc!("community.sources", work.sources);
            rca_obs::counter_inc!("community.folded", work.folded);
            rca_obs::counter_inc!("community.exact_steps", work.exact_steps);
            comms
        };
        if comms.is_empty() {
            stop = StopReason::Disconnected;
            break;
        }
        // Step 6: eigenvector in-centrality per community, top m.
        let sampled: Vec<Vec<NodeId>> = {
            let _span = rca_obs::span("refine.centrality");
            comms
                .iter()
                .map(|comm| {
                    let (cg, cmap) = current.graph.induced_subgraph(comm);
                    let cent =
                        eigenvector_centrality(&cg, Direction::In, PowerIterOptions::default());
                    top_m(&cent, SAMPLES_PER_COMMUNITY)
                        .into_iter()
                        .map(|local| current.to_meta(cmap[local.index()]))
                        .collect()
                })
                .collect()
        };
        // Step 7: instrument (batched across communities — the per-
        // community runs are independent, which is what the paper
        // parallelizes).
        let flat: Vec<NodeId> = sampled.iter().flatten().copied().collect();
        let flat_detect = {
            let _span = rca_obs::span("refine.oracle");
            oracle.differs(mg, &flat)
        };
        rca_obs::counter_inc!("oracle.queries", 1);
        rca_obs::counter_inc!("oracle.candidates", flat.len() as u64);
        let mut detected: Vec<Vec<bool>> = Vec::with_capacity(sampled.len());
        let mut cursor = 0usize;
        for group in &sampled {
            detected.push(flat_detect[cursor..cursor + group.len()].to_vec());
            cursor += group.len();
        }
        all_sampled.extend(&flat);
        let any_detected = flat_detect.iter().any(|&d| d);

        if rca_obs::tracing_active() {
            rca_obs::event(
                "refine.iter",
                &[
                    ("iter", iterations.len().into()),
                    ("nodes", current.graph.node_count().into()),
                    ("edges", current.graph.edge_count().into()),
                    ("communities", comms.len().into()),
                    ("candidates", flat.len().into()),
                    (
                        "detected",
                        flat_detect.iter().filter(|&&d| d).count().into(),
                    ),
                    ("any_detected", any_detected.into()),
                ],
            );
        }
        iterations.push(IterationReport {
            nodes: current.graph.node_count(),
            edges: current.graph.edge_count(),
            community_sizes: comms.iter().map(Vec::len).collect(),
            sampled: sampled.clone(),
            detected: detected.clone(),
            any_detected,
        });

        if bug_nodes.iter().any(|b| flat.contains(b)) {
            stop = StopReason::BugInstrumented;
            break;
        }

        // Steps 8a/8b: shortest-path sets are computed within the current
        // subgraph G.
        let sampled_sub: Vec<NodeId> = flat
            .iter()
            .filter_map(|&meta| current.to_sub(meta))
            .collect();
        let mut keep_meta: Vec<NodeId> = if any_detected {
            let differing_sub: Vec<NodeId> = flat
                .iter()
                .zip(&flat_detect)
                .filter(|&(_, &d)| d)
                .filter_map(|(&meta, _)| current.to_sub(meta))
                .collect();
            let reach = bfs_multi(&current.graph, &differing_sub, Direction::In);
            current
                .graph
                .nodes()
                .filter(|&n| reach.reached(n))
                .map(|n| current.to_meta(n))
                .collect()
        } else {
            let reach = bfs_multi(&current.graph, &sampled_sub, Direction::In);
            current
                .graph
                .nodes()
                .filter(|&n| !reach.reached(n))
                .map(|n| current.to_meta(n))
                .collect()
        };

        // Stall recovery (paper §5.4 issue 1: "it is possible that steps
        // 5-8b do not refine the subgraph"). The union of backward paths
        // into the differing nodes covered everything, so try the
        // *intersection*: nodes on backward paths into **every** differing
        // node — common ancestors, which still contain a single bug
        // source. (With multiple independent sources this can overshoot,
        // so it is only a stall fallback, never the main 8b rule.)
        if any_detected && keep_meta.len() >= current.graph.node_count() {
            let differing_sub: Vec<NodeId> = flat
                .iter()
                .zip(&flat_detect)
                .filter(|&(_, &d)| d)
                .filter_map(|(&meta, _)| current.to_sub(meta))
                .collect();
            if differing_sub.len() > 1 {
                let mut common: Option<Vec<bool>> = None;
                for &d in &differing_sub {
                    let reach = bfs_multi(&current.graph, &[d], Direction::In);
                    let mask: Vec<bool> = current.graph.nodes().map(|n| reach.reached(n)).collect();
                    common = Some(match common {
                        None => mask,
                        Some(prev) => prev.iter().zip(&mask).map(|(&a, &b)| a && b).collect(),
                    });
                }
                if let Some(mask) = common {
                    keep_meta = current
                        .graph
                        .nodes()
                        .filter(|&n| mask[n.index()])
                        .map(|n| current.to_meta(n))
                        .collect();
                }
            }
        }

        if keep_meta.len() >= current.graph.node_count() || keep_meta.is_empty() {
            stop = StopReason::Stalled;
            break;
        }
        current = {
            let _span = rca_obs::span("refine.reinduce");
            reinduce(mg, &current, &keep_meta)
        };
    }

    all_sampled.sort();
    all_sampled.dedup();
    rca_obs::counter_inc!("refine.iterations", iterations.len() as u64);
    RefinementReport {
        iterations,
        stop,
        final_nodes: current.mapping.clone(),
        all_sampled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ReachabilityOracle;
    use crate::pipeline::RcaPipeline;
    use crate::slice::backward_slice_names;
    use rca_model::{generate, Experiment, ModelConfig};

    fn setup(exp: Experiment) -> (MetaGraph, Slice, Vec<NodeId>) {
        let model = generate(&ModelConfig::test());
        let p = RcaPipeline::build(&model).unwrap();
        let internal: Vec<String> = exp
            .table2_internal()
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        let comp = p.components.clone();
        let slice = backward_slice_names(&p.metagraph, &internal, |m| {
            matches!(comp.get(m), Some(rca_model::Component::Cam))
        });
        let oracle = ReachabilityOracle::from_sites(&p.metagraph, &exp.bug_sites());
        let bugs = oracle.bug_nodes.clone();
        (p.metagraph, slice, bugs)
    }

    #[test]
    fn goffgratch_refinement_finds_bug() {
        let (mg, slice, bugs) = setup(Experiment::GoffGratch);
        assert!(!bugs.is_empty());
        assert!(
            slice.graph.node_count() > 30,
            "slice too small: {}",
            slice.graph.node_count()
        );
        let mut oracle = ReachabilityOracle::new(bugs.clone());
        let report = refine(&mg, &slice, &mut oracle, &bugs, &RefineOptions::default());
        // The paper's GOFFGRATCH run itself ends when "the induced
        // subgraph equals the community subgraph" — a stall with the bug
        // inside is a faithful outcome; instrumentation is better.
        assert!(
            report.instrumented(&bugs) || report.localized(&bugs),
            "bug neither instrumented nor localized (stop {:?})",
            report.stop
        );
        // First iteration must detect something (the bug community is the
        // big physics community, Fig. 7).
        assert!(report.iterations[0].any_detected);
    }

    #[test]
    fn wsubbug_slice_tiny_and_immediately_manual() {
        let (mg, slice, bugs) = setup(Experiment::WsubBug);
        assert!(
            slice.graph.node_count() <= 25,
            "wsub slice must be tiny (paper: 14), got {}",
            slice.graph.node_count()
        );
        let mut oracle = ReachabilityOracle::new(bugs.clone());
        let report = refine(&mg, &slice, &mut oracle, &bugs, &RefineOptions::default());
        assert_eq!(report.stop, StopReason::SmallEnough);
        assert!(report.localized(&bugs));
    }

    #[test]
    fn randmt_not_detected_first_iteration() {
        let (mg, slice, bugs) = setup(Experiment::RandMt);
        assert!(!bugs.is_empty(), "PRNG-tainted nodes must exist");
        let mut oracle = ReachabilityOracle::new(bugs.clone());
        let opts = RefineOptions {
            manual_threshold: 10,
            ..Default::default()
        };
        let report = refine(&mg, &slice, &mut oracle, &bugs, &opts);
        // The paper's signature RAND-MT behaviour: sampling the central
        // cluster detects nothing on iteration 1 (no paths from the PRNG
        // taint to the upstream emissivity cluster); step 8a then shrinks
        // the graph and a later iteration (or the final manual set)
        // contains the taint.
        assert!(!report.iterations.is_empty());
        assert!(
            report.instrumented(&bugs) || report.localized(&bugs),
            "stop={:?}, iterations={}",
            report.stop,
            report.iterations.len()
        );
    }

    #[test]
    fn refinement_shrinks_monotonically() {
        let (mg, slice, bugs) = setup(Experiment::GoffGratch);
        let mut oracle = ReachabilityOracle::new(bugs.clone());
        let report = refine(&mg, &slice, &mut oracle, &bugs, &RefineOptions::default());
        for w in report.iterations.windows(2) {
            assert!(
                w[1].nodes < w[0].nodes,
                "subgraph must shrink: {} -> {}",
                w[0].nodes,
                w[1].nodes
            );
        }
    }

    #[test]
    fn unknown_bug_runs_without_ground_truth() {
        let (mg, slice, bugs) = setup(Experiment::Dyn3Bug);
        let mut oracle = ReachabilityOracle::new(bugs);
        // Empty ground truth: loop must still terminate.
        let report = refine(&mg, &slice, &mut oracle, &[], &RefineOptions::default());
        assert!(
            !matches!(report.stop, StopReason::BugInstrumented),
            "cannot stop on instrumentation without ground truth"
        );
        assert!(!report.final_nodes.is_empty());
    }
}
