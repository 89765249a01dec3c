//! Girvan–Newman throughput on real slices, recorded into
//! `BENCH_graph.json`: the block-restricted `girvan_newman` against the
//! sequential whole-component reference it must equal.
//!
//! The graphs are the starting graphs refinement partitions: one per
//! paper experiment whose ECT verdict fails, sliced as `RcaSession` slices
//! it. Each gets one Girvan–Newman split (`levels = 1`, what refinement
//! runs), timed for both implementations, with the removal count, the
//! Brandes sources visited, the block nodes folded into their neighbours'
//! passes instead, and the removals decided by the exact tie fallback.
//! Removal orders and partitions must match, and the new code must be at
//! least 2x faster over all first splits (asserted). Each time is the best
//! of 3 runs, except the reference's at paper scale, which runs once.
//!
//! The new code is timed again with `RAYON_NUM_THREADS=1`, set inside the
//! bench, to record what running large blocks' source chunks on the pool
//! gains (`parallel_speedup`, no floor: it depends on the host's free
//! cores) and how many block scorings fanned out. Removal order,
//! partition and every work count must be the same at both thread counts.
//! `RCA_BENCH_SCALE=test|medium|paper` sizes the model.

use rca_bench::{bench_model, header};
use rca_core::{reinduce, ExperimentSetup, RcaSession, Scenario};
use rca_graph::{community::girvan_newman_counted, reference, DiGraph};
use rca_model::Experiment;
use rca_stats::Verdict;
use serde::{Json, Serialize as _};
use std::time::Instant;

/// Speed-up floor of the block-restricted split over the reference.
const FLOOR: f64 = 2.0;

/// Runs `f` with `RAYON_NUM_THREADS=1`, then restores the variable.
fn on_one_thread<T>(f: impl FnOnce() -> T) -> T {
    let saved = std::env::var_os("RAYON_NUM_THREADS");
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let out = f();
    match saved {
        Some(value) => std::env::set_var("RAYON_NUM_THREADS", value),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    out
}

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
    // The paper-scale reference takes about 9 s a run, so it runs once.
    let ref_reps = if scale == "paper" { 1 } else { 3 };
    let model = bench_model();
    let session = RcaSession::builder(&model)
        .setup(ExperimentSetup::default())
        .build()
        .expect("session build");

    let mut slices: Vec<(&str, DiGraph)> = Vec::new();
    for e in Experiment::ALL {
        let scenario = Scenario::paper(&model, session.setup(), e);
        let stats = session.statistics_scenario(&scenario).expect("statistics");
        if stats.verdict() == Verdict::Fail {
            let sliced = stats.slice().expect("slice");
            let start = reinduce(session.metagraph(), &sliced.slice, &sliced.slice.mapping);
            slices.push((e.name(), start.graph));
        }
    }
    assert!(!slices.is_empty(), "no experiment fails its ECT");

    let mut rows = Vec::new();
    let (mut ref_ms, mut new_ms, mut one_ms) = (0.0, 0.0, 0.0);
    let (mut ref_sources, mut new_sources, mut exact_steps, mut removals) = (0, 0, 0, 0);
    let (mut folded, mut fanned_out) = (0, 0);
    println!(
        "{:<12} {:>5} {:>5} {:>8} {:>10} {:>10} {:>10} {:>9} {:>9} {:>9} {:>6} {:>6}",
        "slice",
        "nodes",
        "edges",
        "removals",
        "ref ms",
        "new ms",
        "1-thr ms",
        "ref src",
        "new src",
        "folded",
        "exact",
        "fanned"
    );
    for (name, g) in &slices {
        let (r_ms, (want, r_work)) = timed(ref_reps, || reference::girvan_newman(g, 1));
        let (n_ms, (got, n_work)) = timed(3, || girvan_newman_counted(g, 1));
        let (o_ms, (one, o_work)) = on_one_thread(|| timed(3, || girvan_newman_counted(g, 1)));
        assert_eq!(
            got.removed_edges, want.removed_edges,
            "{name}: removal order"
        );
        assert_eq!(got.partition, want.partition, "{name}: partition");
        assert_eq!(
            one.removed_edges, got.removed_edges,
            "{name}: removal order on one thread"
        );
        assert_eq!(
            one.partition, got.partition,
            "{name}: partition on one thread"
        );
        assert_eq!(o_work, n_work, "{name}: work counts on one thread");
        println!(
            "{name:<12} {:>5} {:>5} {:>8} {r_ms:>10.1} {n_ms:>10.1} {o_ms:>10.1} {:>9} {:>9} {:>9} {:>6} {:>6}",
            g.node_count(),
            g.edge_count(),
            got.removed_edges.len(),
            r_work.sources,
            n_work.sources,
            n_work.folded,
            n_work.exact_steps,
            n_work.fanned_out
        );
        ref_ms += r_ms;
        new_ms += n_ms;
        one_ms += o_ms;
        ref_sources += r_work.sources;
        new_sources += n_work.sources;
        folded += n_work.folded;
        exact_steps += n_work.exact_steps;
        fanned_out += n_work.fanned_out;
        removals += got.removed_edges.len();
        rows.push(Json::obj([
            ("slice", name.to_json()),
            ("nodes", g.node_count().to_json()),
            ("edges", g.edge_count().to_json()),
            ("removals", got.removed_edges.len().to_json()),
            ("reference_ms", r_ms.to_json()),
            ("new_ms", n_ms.to_json()),
            ("one_thread_ms", o_ms.to_json()),
            ("reference_sources", r_work.sources.to_json()),
            ("new_sources", n_work.sources.to_json()),
            ("folded", n_work.folded.to_json()),
            ("exact_steps", n_work.exact_steps.to_json()),
            ("fanned_out", n_work.fanned_out.to_json()),
        ]));
    }
    let speedup = ref_ms / new_ms.max(1e-9);
    let parallel_speedup = one_ms / new_ms.max(1e-9);
    println!(
        "first splits: reference {ref_ms:.1} ms ({ref_sources} sources), new {new_ms:.1} ms \
         ({new_sources} sources, {folded} folded, {exact_steps} exact steps), {removals} removals: \
         {speedup:.2}x"
    );
    println!(
        "one thread: {one_ms:.1} ms, {parallel_speedup:.2}x from {fanned_out} block scorings on the pool"
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
        ("one_thread_ms", one_ms.to_json()),
        ("reference_sources", ref_sources.to_json()),
        ("new_sources", new_sources.to_json()),
        ("folded", folded.to_json()),
        ("exact_steps", exact_steps.to_json()),
        ("fanned_out", fanned_out.to_json()),
        ("speedup", speedup.to_json()),
        ("parallel_speedup", parallel_speedup.to_json()),
        ("floor", FLOOR.to_json()),
    ]);
    rca_bench::record_bench("BENCH_graph.json", record);
    assert!(
        speedup >= FLOOR,
        "first splits {speedup:.2}x faster than the reference, below the {FLOOR}x floor"
    );
}
