//! Static analysis throughput: dependence-graph nodes/sec and full lint
//! sweeps/sec over the compiled IR, recorded into `BENCH_analysis.json`.
//!
//! The paper's feasibility claim is that static analysis is *cheap*
//! relative to the dynamic pipeline it prunes — a campaign classifies
//! its injection sites on the session's analysis, so
//! `ModelAnalysis::build` (the dependence graph) sits on the planning
//! path, while the lint catalog builds its own dataflow, reachability
//! and constant globals on every sweep. This harness measures build rate
//! (graph nodes/sec) and lint rate (full catalog sweeps/sec), and
//! asserts the output is identical across repeated runs (the
//! determinism CI gates on).
//! `RCA_BENCH_SCALE=test|medium|paper` sizes the model.

use rca_analysis::ModelAnalysis;
use rca_bench::{bench_config, header};
use rca_sim::compile_model;
use serde::{Json, Serialize as _};
use std::time::Instant;

fn main() {
    header(
        "analysis_throughput",
        "static analysis must stay cheap relative to the dynamic pipeline it prunes",
    );
    let scale = std::env::var("RCA_BENCH_SCALE").unwrap_or_else(|_| "medium".to_string());
    let model = rca_model::generate(&bench_config());

    // Build throughput: the program's effect summary and the dependence
    // graph per pass, reported as graph nodes/sec. Each pass analyzes a
    // freshly compiled program (compiled outside the timing): the summary
    // is cached on the program, and a session analyzes its program once.
    let build_iters: usize = if scale == "paper" { 3 } else { 10 };
    let (mut build_secs, mut effects_secs) = (0.0, 0.0);
    let mut analysis = None;
    for _ in 0..build_iters {
        let program = compile_model(&model).expect("model compiles");
        let t0 = Instant::now();
        program.effects();
        effects_secs += t0.elapsed().as_secs_f64();
        analysis = Some(ModelAnalysis::build(program));
        build_secs += t0.elapsed().as_secs_f64();
    }
    let analysis = analysis.expect("at least one pass");
    build_secs /= build_iters as f64;
    effects_secs /= build_iters as f64;
    let nodes = analysis.deps().node_count();
    let edges = analysis.deps().edge_count();
    let nodes_per_sec = nodes as f64 / build_secs.max(1e-12);

    // Lint throughput: full catalog sweeps over the built analysis, each
    // building the per-proc dataflow, reachability and constant globals.
    let lint_iters: usize = if scale == "paper" { 5 } else { 20 };
    let reference = serde_json::to_string(&analysis.lint().json_doc("bench")).unwrap();
    let t0 = Instant::now();
    for _ in 0..lint_iters {
        let report = analysis.lint();
        let rendered = serde_json::to_string(&report.json_doc("bench")).unwrap();
        assert_eq!(rendered, reference, "lint output must be deterministic");
    }
    let lint_secs = t0.elapsed().as_secs_f64() / lint_iters as f64;
    let lints_per_sec = 1.0 / lint_secs.max(1e-12);
    let findings = analysis.lint().findings.len();

    println!("scale: {scale}, graph: {nodes} nodes / {edges} edges");
    println!(
        "build: {:.1} ms/pass ({:.0} nodes/sec), effect summary {:.1} ms of it",
        build_secs * 1e3,
        nodes_per_sec,
        effects_secs * 1e3
    );
    println!(
        "lint:  {:.1} ms/sweep ({:.1} sweeps/sec, {findings} findings)",
        lint_secs * 1e3,
        lints_per_sec
    );

    let record = Json::obj([
        ("bench", "analysis_throughput".to_json()),
        ("scale", scale.to_json()),
        ("nodes", nodes.to_json()),
        ("edges", edges.to_json()),
        ("build_seconds", build_secs.to_json()),
        ("effects_seconds", effects_secs.to_json()),
        ("nodes_per_sec", nodes_per_sec.to_json()),
        ("lint_seconds", lint_secs.to_json()),
        ("lints_per_sec", lints_per_sec.to_json()),
        ("findings", findings.to_json()),
    ]);
    rca_bench::record_bench("BENCH_analysis.json", record);
}
