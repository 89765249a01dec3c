//! `rca-lint` — static defect detection over the generated climate model.
//!
//! ```text
//! rca-lint [--scale test|medium|paper] [--all-experiments] [--json PATH]
//!          [--assert-clean] [--mutate-seed S] [--min-findings N]
//!          [--trace-out PATH] [--metrics] [--quiet]
//! ```
//!
//! Default mode lints the pristine generated model; `--all-experiments`
//! additionally lints every paper experiment variant. `--assert-clean`
//! exits nonzero if any linted model has warnings (infos never gate).
//!
//! `--mutate-seed S` is the CI smoke path: it injects one seeded
//! dead-store mutation at a random patch site (the assigned variable is
//! renamed to a fresh `lint_mut_*` local, which is then provably never
//! read) and `--min-findings N` asserts the linter gained at least `N`
//! warnings over the pristine baseline.
//!
//! Output JSON is byte-deterministic for a given model and seed; nothing
//! on the lint path uses the thread pool, so `RAYON_NUM_THREADS` cannot
//! move it. `--trace-out` records the compile, build and lint spans and
//! per-target `lint.report` events, written as JSONL telemetry when the
//! run ends; `--metrics` prints the counter snapshot
//! to stderr, plus the phase profile folded from the trace when
//! `--trace-out` is given. Neither flag changes a byte of the JSON
//! artifact.

use std::process::ExitCode;

use rca_analysis::ModelAnalysis;
use rca_model::{generate, patch_sites, Experiment, ModelConfig, ModelSource};
use rca_sim::compile_model;
use serde::{Json, Serialize};

struct Args {
    scale: String,
    all_experiments: bool,
    json: Option<String>,
    assert_clean: bool,
    mutate_seed: Option<u64>,
    min_findings: usize,
    trace_out: Option<String>,
    metrics: bool,
    quiet: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: rca-lint [--scale test|medium|paper] [--all-experiments] [--json PATH]\n\
         \x20               [--assert-clean] [--mutate-seed S] [--min-findings N]\n\
         \x20               [--trace-out PATH] [--metrics] [--quiet]\n\
         --metrics prints the counters to stderr, plus the phase profile folded\n\
         from the trace when --trace-out is given"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: "test".to_string(),
        all_experiments: false,
        json: None,
        assert_clean: false,
        mutate_seed: None,
        min_findings: 1,
        trace_out: None,
        metrics: false,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--scale" => args.scale = value("--scale"),
            "--all-experiments" => args.all_experiments = true,
            "--json" => args.json = Some(value("--json")),
            "--assert-clean" => args.assert_clean = true,
            "--mutate-seed" => {
                args.mutate_seed = Some(value("--mutate-seed").parse().unwrap_or_else(|_| usage()));
            }
            "--min-findings" => {
                args.min_findings = value("--min-findings").parse().unwrap_or_else(|_| usage());
            }
            "--trace-out" => args.trace_out = Some(value("--trace-out")),
            "--metrics" => args.metrics = true,
            "--quiet" => args.quiet = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage()
            }
        }
    }
    args
}

/// xorshift64* step, the same generator family the campaign planner uses.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545F4914F6CDD1D)
}

/// Injects one guaranteed-dead store: the assignment at a seeded patch
/// site is redirected to a fresh local that nothing reads.
fn mutate(model: &ModelSource, seed: u64) -> (ModelSource, String) {
    let sites = patch_sites(model);
    assert!(!sites.is_empty(), "model has no patch sites");
    let mut state = seed ^ 0x9E3779B97F4A7C15;
    // Warm up so small seeds do not correlate with site order.
    xorshift(&mut state);
    let site = &sites[(xorshift(&mut state) % sites.len() as u64) as usize];
    let eq = site.text.find(" = ").expect("patch sites are assignments");
    let indent: String = site
        .text
        .chars()
        .take_while(|c| c.is_whitespace())
        .collect();
    let rhs = &site.text[eq + 3..];
    let new_line = format!("{indent}lint_mut_{} = {rhs}", site.target);
    let label = format!(
        "{}::{} line {}: `{}` -> `{}`",
        site.module,
        site.subprogram,
        site.line + 1,
        site.text.trim(),
        new_line.trim()
    );
    (
        model.with_patched_line(&site.file, site.line, &new_line),
        label,
    )
}

fn lint_model(model: &ModelSource) -> Result<rca_analysis::LintReport, String> {
    let program = compile_model(model).map_err(|e| format!("compile failed: {e:?}"))?;
    Ok(ModelAnalysis::build(program).lint())
}

fn main() -> ExitCode {
    let args = parse_args();
    let trace_out = args.trace_out.as_deref();
    match rca_obs::run_with_telemetry(trace_out, args.metrics, || run(&args)) {
        Ok(code) => {
            if let (Some(path), false) = (trace_out, args.quiet) {
                eprintln!("trace written to {path}");
            }
            code
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> ExitCode {
    let config = match args.scale.as_str() {
        "test" => ModelConfig::test(),
        "medium" => ModelConfig::medium(),
        "paper" => ModelConfig::paper(),
        other => {
            eprintln!("unknown scale: {other}");
            usage()
        }
    };
    let base = generate(&config);

    // (label, model) pairs to lint, in a fixed order.
    let mut targets: Vec<(String, ModelSource)> = Vec::new();
    if let Some(seed) = args.mutate_seed {
        let (mutant, desc) = mutate(&base, seed);
        if !args.quiet {
            println!("mutation: {desc}");
        }
        targets.push((format!("mutant-seed-{seed}"), mutant));
    } else {
        targets.push(("pristine".to_string(), base.clone()));
        if args.all_experiments {
            for e in Experiment::ALL {
                targets.push((e.name().to_string(), base.apply(e)));
            }
        }
    }

    // The mutant gate is a *delta* over the pristine baseline, so it
    // stays meaningful even if a future model revision is not clean.
    let baseline_warnings = if args.mutate_seed.is_some() {
        match lint_model(&base) {
            Ok(r) => r.warning_count(),
            Err(e) => {
                eprintln!("rca-lint: pristine model {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        0
    };

    let mut docs: Vec<Json> = Vec::new();
    let mut total_warnings = 0usize;
    let mut mutant_delta = 0usize;
    for (label, model) in &targets {
        let report = match lint_model(model) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("rca-lint: {label}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if !args.quiet {
            println!(
                "{label}: {} warning(s), {} info(s)",
                report.warning_count(),
                report.info_count()
            );
            for f in &report.findings {
                let loc = if f.line > 0 {
                    format!(":{}", f.line)
                } else {
                    String::new()
                };
                println!(
                    "  [{}] {} {}::{}{loc} {}",
                    f.severity.name(),
                    f.lint,
                    f.module,
                    f.subprogram,
                    f.message
                );
            }
        }
        if rca_obs::tracing_active() {
            rca_obs::event(
                "lint.report",
                &[
                    ("target", label.as_str().into()),
                    ("warnings", report.warning_count().into()),
                    ("infos", report.info_count().into()),
                ],
            );
        }
        total_warnings += report.warning_count();
        mutant_delta = report.warning_count().saturating_sub(baseline_warnings);
        docs.push(report.json_doc(label));
    }

    if let Some(path) = &args.json {
        let doc = Json::obj([
            ("tool", "rca-lint".to_json()),
            ("scale", args.scale.to_json()),
            ("reports", Json::Arr(docs)),
        ]);
        let mut text = serde_json::to_string_pretty(&doc).expect("json render is infallible");
        text.push('\n');
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        if !args.quiet {
            println!("report written to {path}");
        }
    }

    let mut ok = true;
    if args.assert_clean && total_warnings > 0 {
        eprintln!("ASSERTION FAILED: expected zero warnings, found {total_warnings}");
        ok = false;
    }
    if args.mutate_seed.is_some() && mutant_delta < args.min_findings {
        eprintln!(
            "ASSERTION FAILED: mutant produced {mutant_delta} new warning(s), expected >= {}",
            args.min_findings
        );
        ok = false;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
