//! VM work counters count every member a fill runs, with or without a
//! trace sink, on whichever thread the member runs.
//!
//! `vm.dispatch` counts host calls (one `cam_init` plus one
//! `cam_run_step` per step and member), `vm.instructions` the
//! instructions they retired and `vm.kernel_iterations` the loop
//! iterations the column step-kernels ran. Counters are process-wide, so
//! this file holds one test: nothing else bumps them while it reads.

use rca_model::{generate, ModelConfig};
use rca_obs::{metrics_snapshot, with_sink, Collector};
use rca_sim::{compile_model, perturbations, EnsembleRuns, RunConfig};
use std::sync::Arc;

const COUNTERS: [&str; 3] = ["vm.dispatch", "vm.instructions", "vm.kernel_iterations"];

fn read() -> [u64; 3] {
    let snap = metrics_snapshot();
    COUNTERS.map(|name| snap.counter(name).unwrap_or(0))
}

#[test]
fn vm_work_counters_count_every_member_with_or_without_a_sink() {
    assert!(!rca_obs::tracing_active(), "test must start with no sink");
    let program = compile_model(&generate(&ModelConfig::test())).expect("compile");
    assert!(program.kernel_count() > 0, "the model has column kernels");
    let cfg = RunConfig {
        steps: 3,
        ..Default::default()
    };
    let members = 6;
    let perts = perturbations(members, 1e-14, 0x5EED);
    let fill = || EnsembleRuns::run(&program, &cfg, &perts).expect("ensemble fill");

    let before = read();
    fill();
    let after = read();
    let untraced: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    let calls = members as u64 * (u64::from(cfg.steps) + 1);
    assert!(
        untraced[0] >= calls,
        "vm.dispatch grew by {} over {members} members × {} host calls",
        untraced[0],
        cfg.steps + 1
    );
    assert!(
        untraced[1] >= calls,
        "vm.instructions grew by {}",
        untraced[1]
    );
    assert!(untraced[2] > 0, "vm.kernel_iterations did not grow");

    // A thread-scoped sink on the calling thread changes no count.
    let collector = Arc::new(Collector::new());
    let before = read();
    with_sink(collector, fill);
    let after = read();
    let traced: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    assert_eq!(traced, untraced, "{COUNTERS:?} depend on the sink");
}
