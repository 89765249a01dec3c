//! Simulation throughput: compiled-engine steps/sec, single-run and
//! ensemble, with the tree-walking interpreter as the reference point,
//! plus a one-line mutant's compile with and without the shared parse —
//! recorded into `BENCH_sim.json` so the perf trajectory of the
//! parse → compile → execute pipeline is tracked next to
//! `BENCH_campaign.json`.
//!
//! `RCA_BENCH_SCALE=test|medium|paper` sizes the model;
//! `RCA_SIM_REPEAT` overrides the timed repetition count.

use rayon::prelude::*;
use rca_bench::{bench_config, header};
use rca_core::{PipelineOptions, RcaPipeline};
use rca_metagraph::NodeKind;
use rca_model::{Component, Experiment, ModelFile, ModelSource};
use rca_sim::{
    compile_model, compile_variant, output_cone, parse_model, perturbations, run_loaded,
    run_program, specialize_for_history, specialize_for_samples, EnsembleRuns, Interpreter,
    Program, RunConfig, SampleSpec, Specialized,
};
use serde::{Json, Serialize as _};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Counts every heap allocation so the ensemble-memory entry can report
/// allocations/member — the store's zero-steady-state claim, measured —
/// and the live heap bytes, so the variant-compile entry can report what
/// each program retains.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f`, returning its result plus (wall seconds, heap allocations).
fn counted<R>(f: impl FnOnce() -> R) -> (R, f64, u64) {
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let t0 = Instant::now();
    let r = f();
    let wall = t0.elapsed().as_secs_f64();
    let allocs = ALLOCS.load(Ordering::Relaxed) - a0;
    (r, wall, allocs)
}

/// Best of five timed runs after one warm-up; `run` returns the seconds
/// its own timed section took.
fn best_run_seconds(mut run: impl FnMut() -> f64) -> f64 {
    run();
    (0..5).map(|_| run()).fold(f64::INFINITY, f64::min)
}

fn main() {
    header(
        "sim_throughput",
        "the compiled engine must dominate per-run cost; ensembles compile once",
    );
    let scale = std::env::var("RCA_BENCH_SCALE").unwrap_or_else(|_| "medium".to_string());
    let repeat: usize = std::env::var("RCA_SIM_REPEAT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if scale == "test" { 8 } else { 5 });
    let model = rca_model::generate(&bench_config());
    let cfg = RunConfig {
        steps: 9,
        ..Default::default()
    };

    // Compile once (timed separately: this is the cost a campaign pays
    // once per mutated variant).
    let t0 = Instant::now();
    let program = compile_model(&model).expect("compile");
    let compile_s = t0.elapsed().as_secs_f64();

    // Compiled single runs — bytecode VM (the default engine).
    let t0 = Instant::now();
    for i in 0..repeat {
        run_program(&program, &cfg, i as f64 * 1e-14).expect("compiled run");
    }
    let compiled_s = t0.elapsed().as_secs_f64() / repeat as f64;

    // Tree-walking reference: parse + load + run per run, exactly the
    // per-run cost `run_model` paid before the compile step existed.
    let t0 = Instant::now();
    for i in 0..repeat {
        let (asts, errs) = model.parse();
        assert!(errs.is_empty(), "{errs:?}");
        let mut interp = Interpreter::load(&asts, cfg.clone()).expect("load");
        run_loaded(&mut interp, &cfg, i as f64 * 1e-14).expect("tree-walk run");
    }
    let tree_s = t0.elapsed().as_secs_f64() / repeat as f64;

    // Ensemble over the shared program, filled into the columnar store.
    let n_members = 16usize;
    let perts = perturbations(n_members, 1e-14, 0xC1);
    let t0 = Instant::now();
    let ens = EnsembleRuns::run(&program, &cfg, &perts).expect("ensemble");
    let ens_s = t0.elapsed().as_secs_f64();
    assert_eq!(ens.members(), n_members);

    // ----- ensemble memory + throughput: store vs clone-per-run ---------
    //
    // The clone-per-run baseline is what every ensemble member paid
    // before the columnar store: a fresh executor (global arena cloned
    // from the program) and an owned, materialized `RunOutput` per
    // member. The store path fills one contiguous block through pooled,
    // reset executors and materializes nothing. Warm both paths once,
    // then record members/sec and allocations/member.
    let store_members = if scale == "test" { 24 } else { 48 };
    let store_perts = perturbations(store_members, 1e-14, 0xC1);
    let baseline_run = || -> Vec<rca_sim::RunOutput> {
        // Parallel like the store path — the comparison isolates the data
        // plane (arena clones + materialization vs pooled in-place fill),
        // not the thread fan-out.
        store_perts
            .par_iter()
            .map(|&p| run_program(&program, &cfg, p).expect("baseline member"))
            .collect()
    };
    let store_run = || EnsembleRuns::run(&program, &cfg, &store_perts).expect("store ensemble");
    let _ = baseline_run();
    let _ = store_run();
    // Min-of-k wall time: the least-noise estimator on shared hardware
    // (each path's allocation count is deterministic, so one read
    // suffices).
    let reps = 3;
    let (mut baseline_runs, mut base_s, mut base_allocs) = counted(baseline_run);
    let (mut store, mut store_s, mut store_allocs) = counted(store_run);
    for _ in 1..reps {
        let (b, s, a) = counted(baseline_run);
        if s < base_s {
            (baseline_runs, base_s, base_allocs) = (b, s, a);
        }
        let (st, s, a) = counted(store_run);
        if s < store_s {
            (store, store_s, store_allocs) = (st, s, a);
        }
    }
    assert_eq!(baseline_runs.len(), store.members());
    // Same bits either way (spot check the last member's eval plane).
    let last = store.members() - 1;
    for (i, series) in baseline_runs[last].history.iter().enumerate() {
        if let Some(&x) = series.last() {
            let y = store
                .value(last, i, series.len() - 1)
                .expect("written in store");
            assert!(
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                "store/baseline diverge at output {i}"
            );
        }
    }
    let base_mps = store_members as f64 / base_s;
    let store_mps = store_members as f64 / store_s;
    let base_apm = base_allocs as f64 / store_members as f64;
    let store_apm = store_allocs as f64 / store_members as f64;
    println!(
        "ensemble store ({store_members} members): clone-per-run {base_mps:.1} members/sec \
         ({base_apm:.0} allocs/member), columnar store {store_mps:.1} members/sec \
         ({store_apm:.0} allocs/member), {:.2}x members/sec",
        store_mps / base_mps
    );

    let steps_per_run = cfg.steps as f64;
    let compiled_sps = steps_per_run / compiled_s;
    let tree_sps = steps_per_run / tree_s;
    let ens_sps = steps_per_run * n_members as f64 / ens_s;
    let speedup = tree_s / compiled_s;

    println!("model scale: {scale} ({} files)", model.files.len());
    println!(
        "compile: {:.1} ms (once per source variant)",
        compile_s * 1e3
    );
    println!(
        "bytecode VM single run: {:.1} ms ({compiled_sps:.0} steps/sec)",
        compiled_s * 1e3
    );
    println!(
        "tree-walker single run: {:.1} ms ({tree_sps:.0} steps/sec)",
        tree_s * 1e3
    );
    println!("speedup (tree-walker / VM): {speedup:.2}x");
    println!(
        "ensemble ({n_members} members, shared program): {ens_s:.2} s ({ens_sps:.0} steps/sec aggregate)"
    );
    // Perf floor, CI-enforced: the VM must run at least twice as many
    // steps per second as the reference interpreter.
    assert!(
        compiled_sps >= 2.0 * tree_sps,
        "vm_steps_per_sec ({compiled_sps:.0}) fell below 2x the interpreter's ({tree_sps:.0})"
    );

    // ----- step-kernel microbench: ns per element, VM vs interpreter ----
    //
    // One elementwise loop over a 4096-wide column pair, isolated from
    // the rest of the model: the compiled column step-kernel against the
    // reference interpreter walking the same statements
    // element-at-a-time. This is the per-element price of the innermost
    // tier.
    let kern_width = 4096usize;
    let kern_steps = 32u32;
    let kern_model = ModelSource {
        files: vec![ModelFile {
            name: "kernbench.F90".to_string(),
            component: Component::Cam,
            source: format!(
                r#"
module kernbench
  implicit none
  real :: a({kern_width})
  real :: b({kern_width})
contains
  subroutine cam_init(pert)
    real, intent(in) :: pert
    integer :: i
    do i = 1, {kern_width}
      a(i) = 0.001 * i + pert
      b(i) = 0.002 * i - 1.0
    end do
  end subroutine cam_init
  subroutine cam_run_step()
    integer :: i
    do i = 1, {kern_width}
      a(i) = a(i) + 0.25 * (tanh(b(i)) - a(i))
      b(i) = b(i) * 0.999 + 0.001 * a(i)
    end do
    call outfld('KBA', a, {kern_width})
  end subroutine cam_run_step
end module kernbench
"#
            ),
        }],
        config: bench_config(),
    };
    let kern_program = compile_model(&kern_model).expect("kernbench compile");
    assert_eq!(
        kern_program.kernel_count(),
        1,
        "microbench loop must kernelize"
    );
    let kern_cfg = RunConfig {
        steps: kern_steps,
        ..Default::default()
    };
    let elems = f64::from(kern_steps) * kern_width as f64 * 2.0;
    let ns_per_elem = |seconds: f64| seconds * 1e9 / elems;
    let kern_vm_ns = ns_per_elem(best_run_seconds(|| {
        let t0 = Instant::now();
        run_program(&kern_program, &kern_cfg, 0.0).expect("kernbench run");
        t0.elapsed().as_secs_f64()
    }));
    let (kern_asts, errs) = kern_model.parse();
    assert!(errs.is_empty(), "{errs:?}");
    let kern_interp_ns = ns_per_elem(best_run_seconds(|| {
        let mut interp = Interpreter::load(&kern_asts, kern_cfg.clone()).expect("load");
        let t0 = Instant::now();
        run_loaded(&mut interp, &kern_cfg, 0.0).expect("kernbench interpreter run");
        t0.elapsed().as_secs_f64()
    }));
    println!(
        "step kernel ({kern_width}-wide, 2 stmts): VM {kern_vm_ns:.1} ns/elem, \
         interpreter {kern_interp_ns:.1} ns/elem ({:.2}x)",
        kern_interp_ns / kern_vm_ns
    );
    println!(
        "bytecode: {} instrs, {} column kernels",
        program.instr_count(),
        program.kernel_count()
    );

    // ----- oracle-differs microbench: string-keyed vs id-keyed ----------
    //
    // The refinement oracle's per-iteration data plane, isolated from the
    // (identical-cost) simulation runs: the pre-identity-plane design
    // built owned `String` specs, formatted `module::sub::name` keys, and
    // looked captures up in per-run keyed maps; the id-keyed design
    // clones interned `Arc<str>` refcounts and compares sample buffers
    // positionally. Both layers produce the same detect vector here.
    let pipeline = RcaPipeline::build_with_program(&model, &program, &PipelineOptions::default())
        .expect("pipeline");
    let mg = &pipeline.metagraph;
    let nodes: Vec<_> = mg
        .graph
        .nodes()
        .filter(|&n| mg.meta_of(n).kind == NodeKind::Variable)
        .take(200)
        .collect();
    let syms = mg.symbols();
    let specs: Vec<SampleSpec> = nodes
        .iter()
        .map(|&n| {
            let meta = mg.meta_of(n);
            SampleSpec {
                module: syms.module_arc(meta.module),
                subprogram: meta.subprogram.map(|s| syms.var_arc(s)),
                name: syms.var_arc(meta.canonical),
            }
        })
        .collect();
    let sample_cfg = RunConfig {
        steps: 3,
        sample_step: Some(2),
        samples: specs,
        ..Default::default()
    };
    let ctl_run = run_program(&program, &sample_cfg, 0.0).expect("control run");
    let exp_run = run_program(&program, &sample_cfg, 1e-12).expect("experimental run");
    let tolerance = 1e-12;
    let queries: usize = if scale == "test" { 100 } else { 400 };

    // Id-keyed: interned spec construction + positional buffer compare.
    let t0 = Instant::now();
    let mut detect_id = Vec::new();
    for _ in 0..queries {
        detect_id = nodes
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let meta = mg.meta_of(n);
                let _spec = (
                    syms.module_arc(meta.module),
                    meta.subprogram.map(|s| syms.var_arc(s)),
                    syms.var_arc(meta.canonical),
                );
                let (Some(a), Some(b)) = (ctl_run.samples[i].as_ref(), exp_run.samples[i].as_ref())
                else {
                    return false;
                };
                a.iter().zip(b).any(|(&x, &y)| {
                    let s = x.abs().max(y.abs()).max(1e-300);
                    ((x - y).abs() / s) > tolerance
                })
            })
            .collect();
    }
    let id_us = t0.elapsed().as_secs_f64() * 1e6 / queries as f64;

    // String-keyed baseline: owned-String specs, formatted keys, per-run
    // keyed maps rebuilt for both runs of every query (what each pair of
    // instrumented runs returned before the identity plane).
    let t0 = Instant::now();
    let mut detect_str = Vec::new();
    for _ in 0..queries {
        let keys: Vec<String> = nodes
            .iter()
            .map(|&n| {
                let meta = mg.meta_of(n);
                let module = syms.module(meta.module).to_string();
                let sub = meta
                    .subprogram
                    .map(|s| syms.var(s).to_string())
                    .unwrap_or_default();
                let name = syms.var(meta.canonical).to_string();
                format!("{module}::{sub}::{name}")
            })
            .collect();
        let ctl_map: HashMap<&str, &Vec<f64>> = keys
            .iter()
            .enumerate()
            .filter_map(|(i, k)| ctl_run.samples[i].as_ref().map(|v| (k.as_str(), v)))
            .collect();
        let exp_map: HashMap<&str, &Vec<f64>> = keys
            .iter()
            .enumerate()
            .filter_map(|(i, k)| exp_run.samples[i].as_ref().map(|v| (k.as_str(), v)))
            .collect();
        detect_str = keys
            .iter()
            .map(|k| {
                let (Some(a), Some(b)) = (ctl_map.get(k.as_str()), exp_map.get(k.as_str())) else {
                    return false;
                };
                a.iter().zip(b.iter()).any(|(&x, &y)| {
                    let s = x.abs().max(y.abs()).max(1e-300);
                    ((x - y).abs() / s) > tolerance
                })
            })
            .collect();
    }
    let str_us = t0.elapsed().as_secs_f64() * 1e6 / queries as f64;
    assert_eq!(detect_id, detect_str, "keying layers must agree");

    let differs_speedup = str_us / id_us;
    println!(
        "oracle differs data plane ({} nodes): string-keyed {str_us:.1} us/query, \
         id-keyed {id_us:.1} us/query ({differs_speedup:.2}x)",
        nodes.len()
    );

    // ----- oracle microbench: specialized vs full query ----------------
    //
    // The refinement hot loop's whole-query cost. A full `differs` query
    // is two complete model runs (control + experimental) with capture
    // instrumentation; the fast path runs the same pair on a program
    // specialized to the backward slice of the capture set, truncated at
    // the sample step. Steady-state per-query cost is measured with the
    // specialized program pre-built, matching the sampler's per-spec-set
    // cache; the one-time specialize cost is recorded separately, on a
    // freshly compiled program so that it includes building the
    // program's effect summary (cached on the program after that), and
    // the summary's own build time with it. Both paths must produce
    // identical difference verdicts — the bench cross-checks every query
    // before trusting the timings.
    let slice_nodes = 24.min(sample_cfg.samples.len());
    let slice_specs: Vec<SampleSpec> = sample_cfg.samples[..slice_nodes].to_vec();
    let oracle_steps = cfg.steps;
    let oracle_sample_step = 2u32;
    let full_cfg = RunConfig {
        steps: oracle_steps,
        sample_step: Some(oracle_sample_step),
        samples: slice_specs.clone(),
        ..Default::default()
    };
    // `(specialized, total ms, effect summary ms)` on a cold program.
    let specialize_cold = |specialize: &dyn Fn(&Arc<Program>) -> Option<Specialized>| {
        let cold = compile_model(&model).expect("compile");
        let t0 = Instant::now();
        cold.effects();
        let effects_ms = t0.elapsed().as_secs_f64() * 1e3;
        let s = specialize(&cold).expect("the capture must be separable");
        (s, t0.elapsed().as_secs_f64() * 1e3, effects_ms)
    };
    let (specialized, specialize_ms, effects_ms) =
        specialize_cold(&|p| specialize_for_samples(p, &slice_specs));
    let spec_cfg = RunConfig {
        steps: oracle_steps.min(oracle_sample_step + 1),
        ..full_cfg.clone()
    };
    let verdicts = |ctl: &rca_sim::RunOutput, exp: &rca_sim::RunOutput| -> Vec<bool> {
        (0..slice_nodes)
            .map(|i| {
                let (Some(a), Some(b)) = (ctl.samples[i].as_ref(), exp.samples[i].as_ref()) else {
                    return false;
                };
                a.iter().zip(b).any(|(&x, &y)| {
                    let s = x.abs().max(y.abs()).max(1e-300);
                    ((x - y).abs() / s) > tolerance
                })
            })
            .collect()
    };
    let fast_queries: usize = if scale == "test" { 40 } else { 12 };
    let time_query = |prog: &std::sync::Arc<rca_sim::Program>, qcfg: &RunConfig| {
        let mut v = Vec::new();
        let mut best = f64::INFINITY;
        for _ in 0..fast_queries {
            let t0 = Instant::now();
            let ctl = run_program(prog, qcfg, 0.0).expect("control query run");
            let exp = run_program(prog, qcfg, 1e-12).expect("experimental query run");
            best = best.min(t0.elapsed().as_secs_f64());
            v = verdicts(&ctl, &exp);
        }
        (best * 1e6, v)
    };
    let (full_query_us, full_verdicts) = time_query(&program, &full_cfg);
    let (spec_query_us, spec_verdicts) = time_query(&specialized.program, &spec_cfg);
    assert_eq!(
        full_verdicts, spec_verdicts,
        "specialized query verdicts diverged from the full program"
    );
    let specialized_speedup = full_query_us / spec_query_us;
    println!(
        "oracle specialized query ({slice_nodes}-node capture set): full {full_query_us:.0} us/query, \
         specialized {spec_query_us:.0} us/query ({specialized_speedup:.2}x), \
         {:.0}% stmts pruned, specialize {specialize_ms:.1} ms once \
         (effect summary {effects_ms:.1} ms)",
        specialized.pruned_fraction() * 100.0
    );
    // Perf floor, CI-enforced: slice-specialized queries must beat the
    // full-program pair by >=2x at every scale (measured ~7x at test
    // scale, ~75x at paper scale — the floor leaves headroom for noisy
    // shared runners, not for a regression).
    assert!(
        specialized_speedup >= 2.0,
        "specialized query speedup {specialized_speedup:.2}x fell below the 2x floor"
    );

    // ----- history fill: statistics-side ensembles on the history slice
    //
    // `EnsembleRuns::run_history` runs every member on the program pruned
    // to the statements that can reach an `outfld`. Its data must equal
    // the full fill's by bits; the saving is the members/sec gain and the
    // VM instructions each member no longer retires. The slice is built
    // once per program (timed here through the uncached form, on a cold
    // program like the oracle's).
    let (history, history_specialize_ms, history_effects_ms) =
        specialize_cold(&specialize_for_history);
    let full_fill = || EnsembleRuns::run_resilient(&program, &cfg, &store_perts, 2);
    let history_fill = || EnsembleRuns::run_history(&program, &cfg, &store_perts, 2, None);
    let (full, fast) = (full_fill(), history_fill());
    assert!(
        !Arc::ptr_eq(fast.program(), &program),
        "the history fill fell back to the full program"
    );
    if let Some(diff) = full.data_mismatch(&fast) {
        panic!("history fill diverged from the full fill: {diff}");
    }
    let fill_s = |fill: &dyn Fn() -> EnsembleRuns| {
        best_run_seconds(|| {
            let t0 = Instant::now();
            std::hint::black_box(fill());
            t0.elapsed().as_secs_f64()
        })
    };
    let full_mps = store_members as f64 / fill_s(&full_fill);
    let history_mps = store_members as f64 / fill_s(&history_fill);
    let history_gain = history_mps / full_mps;
    // Retired VM instructions of one member (counted on a traced thread).
    let retired = |p: &Arc<Program>| {
        let count = || {
            rca_obs::metrics_snapshot()
                .counter("vm.instructions")
                .unwrap_or(0)
        };
        let before = count();
        rca_obs::with_sink(Arc::new(rca_obs::Collector::new()), || {
            run_program(p, &cfg, 0.0).expect("member run")
        });
        count() - before
    };
    let (full_instr, history_instr) = (retired(&program), retired(fast.program()));
    println!(
        "history fill ({store_members} members): full {full_mps:.1} members/sec, \
         history slice {history_mps:.1} members/sec ({history_gain:.2}x), \
         {full_instr} -> {history_instr} VM instructions/member, \
         {:.0}% stmts pruned, specialize {history_specialize_ms:.1} ms once \
         (effect summary {history_effects_ms:.1} ms)",
        history.pruned_fraction() * 100.0
    );
    // Perf floor, CI-enforced: the slice may never be slower; at paper
    // scale, where most statements cannot reach a history write, it
    // must at least double the fill rate.
    let history_floor = if scale == "paper" { 2.0 } else { 1.0 };
    assert!(
        history_gain >= history_floor,
        "history fill gain {history_gain:.2}x fell below the {history_floor}x floor"
    );

    // ----- cone fill: a one-output mutant's fill over the base fill -----
    //
    // Given the base program and its fill, `run_history` runs a delta
    // variant's members only on the slice of its cone (the outputs whose
    // slices keep a changed proc live) and splices those columns into the
    // base fill. WSUBBUG's one-line patch changes one output's slice. The
    // spliced data must equal the variant's own history fill by bits; the
    // timed cone fill includes deciding the cone and building its slice,
    // as every request pays them.
    let base_files = parse_model(&model, None).expect("the model parses");
    let base_program =
        compile_variant(&model, Some((&model, &base_files, None))).expect("base compile");
    let wsub = compile_variant(
        &model.apply(Experiment::WsubBug),
        Some((&model, &base_files, Some(&*base_program))),
    )
    .expect("delta compile");
    let cone = output_cone(&wsub, &base_program).expect("the base masks describe the mutant");
    assert_eq!(cone.len(), 1, "WSUBBUG changes one output's slice");
    let outputs = base_program.output_count();
    let base_fill = EnsembleRuns::run_history(&base_program, &cfg, &store_perts, 2, None);
    let own_fill = || EnsembleRuns::run_history(&wsub, &cfg, &store_perts, 2, None);
    let cone_fill = || {
        let base = Some((&*base_program, &base_fill));
        EnsembleRuns::run_history(&wsub, &cfg, &store_perts, 2, base)
    };
    let (own, spliced) = (own_fill(), cone_fill());
    assert!(
        !Arc::ptr_eq(spliced.program(), own.program())
            && !Arc::ptr_eq(spliced.program(), base_fill.program()),
        "the cone fill fell back"
    );
    if let Some(diff) = own.data_mismatch(&spliced) {
        panic!("cone fill diverged from the history fill: {diff}");
    }
    let own_mps = store_members as f64 / fill_s(&own_fill);
    let cone_mps = store_members as f64 / fill_s(&cone_fill);
    let cone_gain = cone_mps / own_mps;
    let (own_instr, cone_instr) = (retired(own.program()), retired(spliced.program()));
    println!(
        "cone fill ({store_members} members, WSUBBUG, cone of {} of {outputs} outputs): \
         history slice {own_mps:.1} members/sec, cone slice {cone_mps:.1} members/sec \
         ({cone_gain:.2}x), {own_instr} -> {cone_instr} VM instructions/member",
        cone.len()
    );
    // Perf floor, CI-enforced: the cone fill may never be slower; at
    // paper scale, where one output's slice is a sliver of the history
    // slice, it must at least double the fill rate.
    let cone_floor = if scale == "paper" { 2.0 } else { 1.0 };
    assert!(
        cone_gain >= cone_floor,
        "cone fill gain {cone_gain:.2}x fell below the {cone_floor}x floor"
    );

    // ----- variant compile: full, shared parse, delta -------------------
    //
    // A one-line mutant (GOFFGRATCH's patched constant), compiled the way
    // `compile_model` does — every file parsed, every proc lowered —, the
    // way a session without a base program would, against the base
    // model's parse (only the patched file parsed), and the way a session
    // does, against the base parse and program (only the patched proc
    // lowered, every other proc shared). All three must emit the same
    // bytecode.
    let mutant = model.apply(Experiment::GoffGratch);
    let shared_base = Some((&model, base_files.as_slice(), None));
    let delta_base = Some((&model, base_files.as_slice(), Some(&*base_program)));
    let shared_files =
        parse_model(&mutant, Some((&model, &base_files))).expect("the mutant parses");
    let shared_parsed = shared_files
        .iter()
        .zip(&base_files)
        .filter(|(v, b)| !Arc::ptr_eq(v, b))
        .count();
    drop(shared_files);
    let full_program = compile_model(&mutant).expect("full compile");
    for (path, base) in [("shared-parse", shared_base), ("delta", delta_base)] {
        assert_eq!(
            full_program.disassemble(),
            compile_variant(&mutant, base)
                .expect("variant compile")
                .disassemble(),
            "the {path} compile emitted different bytecode"
        );
    }
    drop(full_program);
    let compile_ms = |compile: &dyn Fn() -> Arc<Program>| {
        1e3 * best_run_seconds(|| {
            let t0 = Instant::now();
            drop(std::hint::black_box(compile()));
            t0.elapsed().as_secs_f64()
        })
    };
    // Heap bytes a compiled program keeps alive once its temporaries are
    // gone (what a session's program cache pays per variant).
    let retained_bytes = |compile: &dyn Fn() -> Arc<Program>| {
        let b0 = LIVE_BYTES.load(Ordering::Relaxed);
        let program = compile();
        let bytes = LIVE_BYTES.load(Ordering::Relaxed) - b0;
        drop(program);
        bytes
    };
    let full = || compile_model(&mutant).expect("full compile");
    let shared = || compile_variant(&mutant, shared_base).expect("shared-parse compile");
    let delta = || compile_variant(&mutant, delta_base).expect("delta compile");
    let full_compile_ms = compile_ms(&full);
    let shared_compile_ms = compile_ms(&shared);
    let delta_compile_ms = compile_ms(&delta);
    let (full_bytes, shared_bytes, delta_bytes) = (
        retained_bytes(&full),
        retained_bytes(&shared),
        retained_bytes(&delta),
    );
    let variant_gain = full_compile_ms / shared_compile_ms;
    let delta_gain = shared_compile_ms / delta_compile_ms;
    let delta_bytes_frac = delta_bytes as f64 / full_bytes as f64;
    println!(
        "variant compile (one-line mutant): full parse {full_compile_ms:.1} ms ({} files parsed, \
         {:.1} MiB retained), shared parse {shared_compile_ms:.1} ms ({shared_parsed} parsed, \
         {:.1} MiB), {variant_gain:.2}x; delta {delta_compile_ms:.2} ms ({:.3} MiB, \
         {:.2}% of full), {delta_gain:.2}x over shared parse",
        mutant.files.len(),
        full_bytes as f64 / 1048576.0,
        shared_bytes as f64 / 1048576.0,
        delta_bytes as f64 / 1048576.0,
        100.0 * delta_bytes_frac,
    );
    // Perf floors, CI-enforced: sharing the parse may never be slower; at
    // paper scale, where parsing and dropping the unchanged files costs
    // more than lowering, it must at least halve the compile. Lowering
    // only the changed proc may never be slower than lowering all of
    // them, must be 3x faster at paper scale, and must retain at most a
    // tenth of a full compile's bytes.
    let variant_floor = if scale == "paper" { 2.0 } else { 1.0 };
    assert!(
        variant_gain >= variant_floor,
        "variant compile gain {variant_gain:.2}x fell below the {variant_floor}x floor"
    );
    let delta_floor = if scale == "paper" { 3.0 } else { 1.0 };
    assert!(
        delta_gain >= delta_floor,
        "delta compile gain {delta_gain:.2}x fell below the {delta_floor}x floor"
    );
    assert!(
        delta_bytes_frac <= 0.1,
        "a delta compile retained {delta_bytes} bytes, {:.1}% of a full compile's {full_bytes}",
        100.0 * delta_bytes_frac
    );

    let record = Json::obj([
        ("bench", "sim_throughput".to_json()),
        ("scale", scale.to_json()),
        ("steps", cfg.steps.to_json()),
        ("compile_seconds", compile_s.to_json()),
        (
            "compiled",
            Json::obj([
                ("run_seconds", compiled_s.to_json()),
                ("steps_per_sec", compiled_sps.to_json()),
            ]),
        ),
        (
            "tree_walker",
            Json::obj([
                ("run_seconds", tree_s.to_json()),
                ("steps_per_sec", tree_sps.to_json()),
            ]),
        ),
        ("speedup", speedup.to_json()),
        (
            "bytecode",
            Json::obj([
                ("instr_count", program.instr_count().to_json()),
                ("kernel_count", program.kernel_count().to_json()),
            ]),
        ),
        (
            "step_kernel",
            Json::obj([
                ("width", kern_width.to_json()),
                ("vm_ns_per_elem", kern_vm_ns.to_json()),
                ("interp_ns_per_elem", kern_interp_ns.to_json()),
                ("vm_over_interp", (kern_interp_ns / kern_vm_ns).to_json()),
            ]),
        ),
        (
            "ensemble",
            Json::obj([
                ("members", n_members.to_json()),
                ("wall_seconds", ens_s.to_json()),
                ("steps_per_sec", ens_sps.to_json()),
            ]),
        ),
        (
            "ensemble_store",
            Json::obj([
                ("members", store_members.to_json()),
                (
                    "clone_per_run",
                    Json::obj([
                        ("wall_seconds", base_s.to_json()),
                        ("members_per_sec", base_mps.to_json()),
                        ("allocs_per_member", base_apm.to_json()),
                    ]),
                ),
                (
                    "columnar_store",
                    Json::obj([
                        ("wall_seconds", store_s.to_json()),
                        ("members_per_sec", store_mps.to_json()),
                        ("allocs_per_member", store_apm.to_json()),
                    ]),
                ),
                ("members_per_sec_gain", (store_mps / base_mps).to_json()),
                (
                    "allocs_per_member_ratio",
                    (base_apm / store_apm.max(1.0)).to_json(),
                ),
            ]),
        ),
        (
            "oracle_differs",
            Json::obj([
                ("nodes", nodes.len().to_json()),
                ("queries", queries.to_json()),
                ("string_keyed_us_per_query", str_us.to_json()),
                ("id_keyed_us_per_query", id_us.to_json()),
                ("speedup", differs_speedup.to_json()),
            ]),
        ),
        (
            "oracle_specialized",
            Json::obj([
                ("capture_nodes", slice_nodes.to_json()),
                ("full_us_per_query", full_query_us.to_json()),
                ("specialized_us_per_query", spec_query_us.to_json()),
                ("speedup", specialized_speedup.to_json()),
                ("pruned_fraction", specialized.pruned_fraction().to_json()),
                ("stmts_total", specialized.stmts_total.to_json()),
                ("stmts_kept", specialized.stmts_kept.to_json()),
                ("specialize_ms_once", specialize_ms.to_json()),
                ("effects_ms_once", effects_ms.to_json()),
            ]),
        ),
        (
            "history_fill",
            Json::obj([
                ("members", store_members.to_json()),
                ("full_members_per_sec", full_mps.to_json()),
                ("history_members_per_sec", history_mps.to_json()),
                ("members_per_sec_gain", history_gain.to_json()),
                ("full_vm_instructions_per_member", full_instr.to_json()),
                (
                    "history_vm_instructions_per_member",
                    history_instr.to_json(),
                ),
                ("pruned_fraction", history.pruned_fraction().to_json()),
                ("stmts_total", history.stmts_total.to_json()),
                ("stmts_kept", history.stmts_kept.to_json()),
                ("specialize_ms_once", history_specialize_ms.to_json()),
                ("effects_ms_once", history_effects_ms.to_json()),
            ]),
        ),
        (
            "cone_fill",
            Json::obj([
                ("mutant", "WSUBBUG one-line patch".to_json()),
                ("members", store_members.to_json()),
                ("cone_outputs", cone.len().to_json()),
                ("outputs", outputs.to_json()),
                ("history_members_per_sec", own_mps.to_json()),
                ("cone_members_per_sec", cone_mps.to_json()),
                ("members_per_sec_gain", cone_gain.to_json()),
                ("history_vm_instructions_per_member", own_instr.to_json()),
                ("cone_vm_instructions_per_member", cone_instr.to_json()),
            ]),
        ),
        (
            "variant_compile",
            Json::obj([
                ("mutant", "GOFFGRATCH one-line patch".to_json()),
                ("full_ms", full_compile_ms.to_json()),
                ("full_files_parsed", mutant.files.len().to_json()),
                ("shared_ms", shared_compile_ms.to_json()),
                ("shared_files_parsed", shared_parsed.to_json()),
                ("speedup", variant_gain.to_json()),
                ("delta_ms", delta_compile_ms.to_json()),
                ("delta_speedup_over_shared", delta_gain.to_json()),
                ("full_retained_bytes", full_bytes.to_json()),
                ("shared_retained_bytes", shared_bytes.to_json()),
                ("delta_retained_bytes", delta_bytes.to_json()),
            ]),
        ),
    ]);
    rca_bench::record_bench("BENCH_sim.json", record);
}
