//! Plain-text rendering of the refinement trace that
//! [`Diagnosis::render`](crate::Diagnosis::render) prints (the figure
//! harnesses print it too).

use crate::refine::RefinementReport;
use rca_metagraph::MetaGraph;

/// Summarizes a refinement run iteration-by-iteration.
pub fn refinement_trace(mg: &MetaGraph, report: &RefinementReport) -> String {
    let mut out = String::new();
    for (i, it) in report.iterations.iter().enumerate() {
        out.push_str(&format!(
            "iteration {}: subgraph {} nodes / {} edges, communities {:?}, detected={}\n",
            i + 1,
            it.nodes,
            it.edges,
            it.community_sizes,
            it.any_detected
        ));
        for (c, (nodes, det)) in it.sampled.iter().zip(&it.detected).enumerate() {
            let marks: Vec<String> = nodes
                .iter()
                .zip(det)
                .map(|(n, d)| format!("{}{}", mg.display(*n), if *d { "*" } else { "" }))
                .collect();
            out.push_str(&format!("  community {}: {}\n", c + 1, marks.join(", ")));
        }
    }
    out.push_str(&format!(
        "stop: {:?}, final subgraph {} nodes\n",
        report.stop,
        report.final_nodes.len()
    ));
    out
}
