//! `rca-campaign` — run a seeded fault-injection campaign from the shell.
//!
//! ```text
//! rca-campaign [--scenarios N] [--seed S] [--scale test|medium|paper]
//!              [--oracle reachability|runtime] [--clean-every K] [--paper]
//!              [--signflip] [--runtime-faults S]
//!              [--checkpoint PATH] [--stop-after N] [--fuel N]
//!              [--wall-budget-ms MS] [--threads N] [--json PATH]
//!              [--trace-out PATH] [--metrics] [--quiet]
//!              [--assert-localization R] [--assert-clean-pass R]
//!              [--assert-flagged R]
//! ```
//!
//! `--signflip` adds the additive `+`→`-` operator to the mutation mix
//! (off by default so recorded fixed-seed baselines stay byte-identical).
//! `--runtime-faults S` seeds the runtime chaos axis: executor-injected
//! member faults (NaN/Inf poisoning, stuck values, aborts) that exercise
//! retry, quarantine, and quorum fitting — like `--signflip`, off by
//! default and independent of the mutation plan. `--fuel` and
//! `--wall-budget-ms` bound each run / diagnosis, surfacing as retryable
//! budget errors instead of hangs.
//!
//! `--checkpoint PATH` makes the campaign resumable: finished scenarios
//! stream to an append-only JSONL file and a rerun with the same plan,
//! model and result-changing settings (scale, `--oracle`, `--fuel`,
//! `--wall-budget-ms`) skips them (`--stop-after N` is the deterministic
//! interruption used by the CI kill-and-resume gate).
//!
//! The JSON artifact is deterministic for a given seed (timing excluded),
//! so CI can both diff it and assert quality floors via the `--assert-*`
//! flags (exit code 1 on violation). `--trace-out` records the run
//! (per-scenario progress, every pipeline phase span, diagnosed
//! sequentially) and writes it as a JSONL trace when the run ends — the
//! scorecard bytes are identical with or without it, which the CI
//! trace-smoke gate asserts. `--metrics` prints the counter snapshot to
//! stderr after the run plus, with `--trace-out`, the phase profile
//! folded from the trace (count, inclusive and self time per span name);
//! alone it installs no sink, so the scenario fan-out stays parallel.
//!
//! Exit codes: `0` clean, `1` assertion-floor violation, `2` usage,
//! `3` completed but some scenario failures were absorbed into the
//! scorecard (see its `errors` section).

use rca_campaign::{run_campaign, CampaignOptions, RunnerOptions};
use rca_core::{ExperimentSetup, OracleKind};
use rca_model::{generate, ModelConfig};
use std::process::ExitCode;

struct Args {
    opts: CampaignOptions,
    runner: RunnerOptions,
    fuel: Option<u64>,
    scale: String,
    json: Option<String>,
    trace_out: Option<String>,
    metrics: bool,
    quiet: bool,
    assert_localization: Option<f64>,
    assert_clean_pass: Option<f64>,
    assert_flagged: Option<f64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: rca-campaign [--scenarios N] [--seed S] [--scale test|medium|paper]\n\
         \x20                   [--oracle reachability|runtime] [--clean-every K] [--paper]\n\
         \x20                   [--signflip] [--runtime-faults S]\n\
         \x20                   [--checkpoint PATH] [--stop-after N] [--fuel N]\n\
         \x20                   [--wall-budget-ms MS] [--threads N] [--json PATH]\n\
         \x20                   [--trace-out PATH] [--metrics] [--quiet]\n\
         \x20                   [--assert-localization R] [--assert-clean-pass R]\n\
         \x20                   [--assert-flagged R]\n\
         --metrics prints the counters to stderr, plus the phase profile folded\n\
         from the trace when --trace-out is given"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        opts: CampaignOptions::default(),
        runner: RunnerOptions::default(),
        fuel: None,
        scale: "test".to_string(),
        json: None,
        trace_out: None,
        metrics: false,
        quiet: false,
        assert_localization: None,
        assert_clean_pass: None,
        assert_flagged: None,
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
            "--scenarios" => {
                args.opts.scenarios = value("--scenarios").parse().unwrap_or_else(|_| usage());
            }
            "--seed" => args.opts.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--clean-every" => {
                args.opts.clean_every = value("--clean-every").parse().unwrap_or_else(|_| usage());
            }
            "--paper" => args.opts.include_paper = true,
            "--signflip" => args.opts.sign_flip = true,
            "--runtime-faults" => {
                args.opts.runtime_faults = value("--runtime-faults")
                    .parse()
                    .unwrap_or_else(|_| usage());
            }
            "--checkpoint" => {
                args.runner.checkpoint = Some(value("--checkpoint").into());
            }
            "--stop-after" => {
                args.runner.stop_after =
                    Some(value("--stop-after").parse().unwrap_or_else(|_| usage()));
            }
            "--fuel" => args.fuel = Some(value("--fuel").parse().unwrap_or_else(|_| usage())),
            "--wall-budget-ms" => {
                let ms: u64 = value("--wall-budget-ms")
                    .parse()
                    .unwrap_or_else(|_| usage());
                args.runner.wall_budget = Some(std::time::Duration::from_millis(ms));
            }
            "--scale" => args.scale = value("--scale"),
            "--oracle" => {
                args.runner.oracle = match value("--oracle").as_str() {
                    "reachability" => OracleKind::Reachability,
                    "runtime" => OracleKind::Runtime,
                    other => {
                        eprintln!("unknown oracle: {other}");
                        usage()
                    }
                }
            }
            "--threads" => {
                // The rayon compat layer reads this per fan-out.
                std::env::set_var("RAYON_NUM_THREADS", value("--threads"));
            }
            "--json" => args.json = Some(value("--json")),
            "--trace-out" => args.trace_out = Some(value("--trace-out")),
            "--metrics" => args.metrics = true,
            "--quiet" => args.quiet = true,
            "--assert-localization" => {
                args.assert_localization = Some(
                    value("--assert-localization")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                );
            }
            "--assert-clean-pass" => {
                args.assert_clean_pass = Some(
                    value("--assert-clean-pass")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                );
            }
            "--assert-flagged" => {
                args.assert_flagged = Some(
                    value("--assert-flagged")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                );
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage()
            }
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let (config, setup) = match args.scale.as_str() {
        "test" => (ModelConfig::test(), ExperimentSetup::quick()),
        "medium" => (ModelConfig::medium(), ExperimentSetup::quick()),
        "paper" => (ModelConfig::paper(), ExperimentSetup::default()),
        other => {
            eprintln!("unknown scale: {other}");
            usage()
        }
    };
    let runner = RunnerOptions {
        setup: rca_core::ExperimentSetup {
            fuel: args.fuel,
            ..setup
        },
        oracle: args.runner.oracle,
        checkpoint: args.runner.checkpoint.clone(),
        stop_after: args.runner.stop_after,
        wall_budget: args.runner.wall_budget,
    };
    let model = generate(&config);
    let trace_out = args.trace_out.as_deref();
    let outcome = match rca_obs::run_with_telemetry(trace_out, args.metrics, || {
        run_campaign(&model, &args.opts, &runner)
    }) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let (Some(path), false) = (trace_out, args.quiet) {
        eprintln!("trace written to {path}");
    }
    let card = match outcome {
        Ok(card) => card,
        Err(e) => {
            eprintln!("campaign failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !args.quiet {
        print!("{}", card.render());
    }
    if let Some(path) = &args.json {
        let json = serde_json::to_string_pretty(&card).expect("serialization is infallible");
        if let Err(e) = std::fs::write(path, json + "\n") {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        if !args.quiet {
            println!("scorecard written to {path}");
        }
    }
    let s = card.summary();
    let mut ok = true;
    if let Some(floor) = args.assert_localization {
        if s.localization_rate < floor {
            eprintln!(
                "ASSERTION FAILED: localization rate {:.2} < floor {floor:.2}",
                s.localization_rate
            );
            ok = false;
        }
    }
    if let Some(floor) = args.assert_clean_pass {
        if s.clean_pass_rate < floor {
            eprintln!(
                "ASSERTION FAILED: clean pass rate {:.2} < floor {floor:.2}",
                s.clean_pass_rate
            );
            ok = false;
        }
    }
    if let Some(floor) = args.assert_flagged {
        if s.flagged_rate < floor {
            eprintln!(
                "ASSERTION FAILED: flagged rate {:.2} < floor {floor:.2}",
                s.flagged_rate
            );
            ok = false;
        }
    }
    if !ok {
        return ExitCode::FAILURE;
    }
    // Distinct from both success and assertion failure: the campaign
    // completed, but some scenarios' failures were absorbed into the
    // scorecard (rendered in its errors section) instead of aborting
    // the batch. Callers that must not tolerate silent absorption gate
    // on this code.
    if s.errors > 0 {
        eprintln!(
            "{} scenario failure(s) absorbed into the scorecard (exit 3)",
            s.errors
        );
        return ExitCode::from(3);
    }
    ExitCode::SUCCESS
}
