//! Observability overhead: the cost of the telemetry plane when nobody
//! is listening, recorded into `BENCH_obs.json`.
//!
//! The obs crate's contract is that instrumentation left in hot paths is
//! effectively free while no sink is installed — a disabled span is one
//! relaxed atomic load and a branch, a counter increment one relaxed
//! atomic add. This harness measures both per-op costs directly, counts
//! how many obs operations one ensemble fill actually performs (via
//! counter deltas), and asserts the implied overhead on the fill's
//! per-member wall time stays under 2%. It also times the fill with an
//! in-memory collector installed, as the enabled-path reference.
//! `RCA_BENCH_SCALE=test|medium|paper` sizes the model.

use rca_bench::{bench_config, header, record_bench};
use rca_sim::{compile_model, perturbations, EnsembleRuns, RunConfig};
use serde::{Json, Serialize as _};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Min-of-k wall time for one run of `f` (least-noise estimator).
fn min_wall<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    header(
        "obs_overhead",
        "disabled telemetry must cost <2% of the ensemble fill it instruments",
    );
    let scale = std::env::var("RCA_BENCH_SCALE").unwrap_or_else(|_| "medium".to_string());
    let iters: u64 = 1_000_000;

    // Per-op cost of a disabled span: open + drop with no sink installed.
    assert!(!rca_obs::tracing_active(), "bench must start with no sink");
    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(rca_obs::span("obs.bench.span"));
    }
    let span_ns = t0.elapsed().as_secs_f64() * 1e9 / iters as f64;

    // Per-op cost of a counter increment (counters are always live —
    // one relaxed atomic add — sink or no sink).
    let t0 = Instant::now();
    for i in 0..iters {
        rca_obs::counter_inc!("obs.bench.count", black_box(i & 1));
    }
    let counter_ns = t0.elapsed().as_secs_f64() * 1e9 / iters as f64;
    println!("disabled span: {span_ns:.1} ns/op, counter inc: {counter_ns:.1} ns/op");

    // How many obs ops does one ensemble fill actually perform? Count
    // via the counters the fill path itself maintains.
    let model = rca_model::generate(&bench_config());
    let program = compile_model(&model).expect("compile");
    let cfg = RunConfig {
        steps: 9,
        ..Default::default()
    };
    let members = if scale == "test" { 24 } else { 48 };
    let perts = perturbations(members, 1e-14, 0xC1);
    let fill = || EnsembleRuns::run(&program, &cfg, &perts).expect("ensemble fill");
    let _ = fill(); // warm caches and the executor pool

    // Each VM host call bumps three counters (`vm.dispatch`,
    // `vm.instructions`, `vm.kernel_iterations`).
    let count_ops = |snap: &rca_obs::MetricsSnapshot| -> u64 {
        let vm_ops = 3 * snap.counter("vm.dispatch").unwrap_or(0);
        [
            "sim.compiles",
            "executor.builds",
            "executor.resets",
            "executor.runs",
            "ensemble.fills",
            "ensemble.members",
        ]
        .iter()
        .filter_map(|n| snap.counter(n))
        .sum::<u64>()
            + vm_ops
    };
    let before = count_ops(&rca_obs::metrics_snapshot());
    let _ = fill();
    let obs_ops = count_ops(&rca_obs::metrics_snapshot()) - before;

    let reps = 3;
    let fill_s = min_wall(reps, fill);
    let member_ns = fill_s * 1e9 / members as f64;
    let ops_per_member = obs_ops as f64 / members as f64;
    // Every op on the fill path is a counter increment; disabled spans
    // are costed too in case future instrumentation adds them.
    let overhead_ns = ops_per_member * counter_ns.max(span_ns);
    let overhead_pct = overhead_ns / member_ns * 100.0;
    println!(
        "ensemble fill ({members} members): {member_ns:.0} ns/member, \
         {ops_per_member:.1} obs ops/member -> {overhead_pct:.4}% disabled overhead"
    );
    assert!(
        overhead_pct < 2.0,
        "disabled-sink overhead {overhead_pct:.4}% breaches the 2% budget"
    );

    // Enabled-path reference: the same fill with an in-memory collector
    // scoped in. This is the price a *traced* run pays, not the default.
    let collector = Arc::new(rca_obs::Collector::new());
    let enabled_s = min_wall(reps, || {
        rca_obs::with_sink(collector.clone(), || black_box(fill()))
    });
    let enabled_ratio = enabled_s / fill_s.max(1e-12);
    println!(
        "collector-enabled fill: {:.2} ms vs {:.2} ms disabled ({enabled_ratio:.3}x)",
        enabled_s * 1e3,
        fill_s * 1e3
    );

    record_bench(
        "BENCH_obs.json",
        Json::obj([
            ("bench", "obs_overhead".to_json()),
            ("scale", scale.to_json()),
            ("span_disabled_ns_per_op", span_ns.to_json()),
            ("counter_ns_per_op", counter_ns.to_json()),
            (
                "ensemble_fill",
                Json::obj([
                    ("members", members.to_json()),
                    ("wall_seconds", fill_s.to_json()),
                    ("ns_per_member", member_ns.to_json()),
                    ("obs_ops_per_member", ops_per_member.to_json()),
                    ("disabled_overhead_pct", overhead_pct.to_json()),
                    ("collector_enabled_ratio", enabled_ratio.to_json()),
                ]),
            ),
        ]),
    );
}
