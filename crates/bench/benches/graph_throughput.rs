//! Girvan–Newman throughput on real slices, recorded into
//! `BENCH_graph.json`: the block-restricted `girvan_newman` against the
//! sequential whole-component reference it must equal.
//!
//! The graphs are the starting graphs refinement partitions: one per
//! paper experiment whose ECT verdict fails, sliced as `RcaSession` slices
//! it. Each gets one Girvan–Newman split (`levels = 1`, what refinement
//! runs), timed for both implementations, with the removal count, the
//! Brandes sources visited and the removals decided by the exact tie
//! fallback. Removal orders and partitions must match, and the new code
//! must be at least 2x faster over all first splits (asserted).
//! `RCA_BENCH_SCALE=test|medium|paper` sizes the model.

use rca_bench::{bench_model, header};
use rca_core::{reinduce, ExperimentSetup, RcaSession};
use rca_graph::{community::girvan_newman_counted, reference, DiGraph};
use rca_model::Experiment;
use rca_stats::Verdict;
use serde::{Json, Serialize as _};
use std::time::Instant;

/// Speed-up floor of the block-restricted split over the reference.
const FLOOR: f64 = 2.0;

/// Best-of-`reps` milliseconds of `f`, and its last result.
fn timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t = Instant::now();
        out = Some(f());
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    (best, out.expect("reps > 0"))
}

fn main() {
    header(
        "graph_throughput",
        "betweenness is recalculated only for edges affected by the removal (§5.2)",
    );
    let scale = std::env::var("RCA_BENCH_SCALE").unwrap_or_else(|_| "medium".to_string());
    let reps = if scale == "paper" { 1 } else { 3 };
    let model = bench_model();
    let session = RcaSession::builder(&model)
        .setup(ExperimentSetup::default())
        .build()
        .expect("session build");

    let mut slices: Vec<(&str, DiGraph)> = Vec::new();
    for e in Experiment::ALL {
        let stats = session.statistics(e).expect("statistics");
        if stats.verdict() == Verdict::Fail {
            let sliced = stats.slice().expect("slice");
            let start = reinduce(session.metagraph(), &sliced.slice, &sliced.slice.mapping);
            slices.push((e.name(), start.graph));
        }
    }
    assert!(!slices.is_empty(), "no experiment fails its ECT");

    let mut rows = Vec::new();
    let (mut ref_ms, mut new_ms) = (0.0, 0.0);
    let (mut ref_sources, mut new_sources, mut exact_steps, mut removals) = (0, 0, 0, 0);
    println!(
        "{:<12} {:>5} {:>5} {:>8} {:>10} {:>10} {:>9} {:>9} {:>6}",
        "slice", "nodes", "edges", "removals", "ref ms", "new ms", "ref src", "new src", "exact"
    );
    for (name, g) in &slices {
        let (r_ms, (want, r_work)) = timed(reps, || reference::girvan_newman(g, 1));
        let (n_ms, (got, n_work)) = timed(reps, || girvan_newman_counted(g, 1));
        assert_eq!(
            got.removed_edges, want.removed_edges,
            "{name}: removal order"
        );
        assert_eq!(got.partition, want.partition, "{name}: partition");
        println!(
            "{name:<12} {:>5} {:>5} {:>8} {r_ms:>10.1} {n_ms:>10.1} {:>9} {:>9} {:>6}",
            g.node_count(),
            g.edge_count(),
            got.removed_edges.len(),
            r_work.sources,
            n_work.sources,
            n_work.exact_steps
        );
        ref_ms += r_ms;
        new_ms += n_ms;
        ref_sources += r_work.sources;
        new_sources += n_work.sources;
        exact_steps += n_work.exact_steps;
        removals += got.removed_edges.len();
        rows.push(Json::obj([
            ("slice", name.to_json()),
            ("nodes", g.node_count().to_json()),
            ("edges", g.edge_count().to_json()),
            ("removals", got.removed_edges.len().to_json()),
            ("reference_ms", r_ms.to_json()),
            ("new_ms", n_ms.to_json()),
            ("reference_sources", r_work.sources.to_json()),
            ("new_sources", n_work.sources.to_json()),
            ("exact_steps", n_work.exact_steps.to_json()),
        ]));
    }
    let speedup = ref_ms / new_ms.max(1e-9);
    println!(
        "first splits: reference {ref_ms:.1} ms ({ref_sources} sources), new {new_ms:.1} ms \
         ({new_sources} sources, {exact_steps} exact steps), {removals} removals: {speedup:.2}x"
    );
    let record = Json::obj([
        ("bench", "graph_throughput".to_json()),
        ("scale", scale.to_json()),
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map_or(1, std::num::NonZero::get)
                .to_json(),
        ),
        ("slices", Json::Arr(rows)),
        ("removals", removals.to_json()),
        ("reference_ms", ref_ms.to_json()),
        ("new_ms", new_ms.to_json()),
        ("reference_sources", ref_sources.to_json()),
        ("new_sources", new_sources.to_json()),
        ("exact_steps", exact_steps.to_json()),
        ("speedup", speedup.to_json()),
        ("floor", FLOOR.to_json()),
    ]);
    rca_bench::record_bench("BENCH_graph.json", record);
    assert!(
        speedup >= FLOOR,
        "first splits {speedup:.2}x faster than the reference, below the {FLOOR}x floor"
    );
}
