//! `rca-perfbench` — the repository benchmark.
//!
//! ```text
//! rca-perfbench --workload investigate-paper|campaign-test|screen-paper
//!               --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! Drives the library from outside, through its public entry points, over
//! one of three seeded workloads (see `workload.rs` for why each exists).
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that gives the per-layer
//! metrics (see `traced.rs`). Every metric is printed as
//! `metric <name> = <value> <unit>`, the evidence digest as
//! `digest ...`, and the last line of standard output is one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`.
//!
//! `--smoke` shrinks every workload to the test-scale model and a few
//! requests, for the benchmark's own smoke test.

mod traced;
mod workload;

use serde::{Json, Serialize};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use workload::{digest, Quality, Spec, WORKLOADS};

const USAGE: &str =
    "usage: rca-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut smoke = false;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                smoke = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value:?}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    });
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds.is_finite() && seconds >= 0.0) {
            return Err(format!(
                "--seconds must be a non-negative number, got {seconds}"
            ));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            smoke,
        })
    }
}

/// One run's result: every metric with its unit, the lines printed
/// before the result, and the correctness verdict.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    /// The metrics of the result object, in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Metrics printed but kept out of the result object, because they are
    /// not measured on every workload or are zero when all is well.
    pub extra: Vec<(String, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn print(&self) {
        for note in &self.notes {
            println!("{note}");
        }
        for (name, value, unit) in &self.extra {
            println!("metric {name} = {value} {unit}");
        }
        for (name, value, unit) in &self.metrics {
            println!("metric {name} = {value} {unit}");
        }
        let metrics = Json::obj(self.metrics.iter().map(|&(name, value, unit)| {
            (
                name,
                Json::obj([("value", Json::Num(value)), ("unit", unit.to_json())]),
            )
        }));
        let result = Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Uint(self.attempted as u64)),
            ("failed", Json::Uint(self.failed as u64)),
            ("metrics", metrics),
        ]);
        println!(
            "{}",
            serde_json::to_string(&result).expect("the JSON stub serializer is infallible")
        );
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::named(&args.workload, args.smoke) else {
        eprintln!(
            "unknown workload {:?}; expected one of {WORKLOADS:?}\n{USAGE}",
            args.workload
        );
        return ExitCode::from(2);
    };
    let report = if args.trace {
        traced::run(&spec, args.seed, args.smoke)
    } else {
        untraced(&spec, args.seed, args.seconds)
    };
    match report {
        Ok(report) => {
            report.print();
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("output checks failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark set-up failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The end-to-end run: set up `spec.setups` times, then drive requests
/// for `seconds` with tracing off.
fn untraced(spec: &Spec, seed: u64, seconds: f64) -> Result<Report, rca_core::RcaError> {
    let model = rca_model::generate(&spec.model);
    let shared = Arc::new(model.clone());
    let mut setup_s = Vec::with_capacity(spec.setups);
    let mut kept = None;
    for _ in 0..spec.setups {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(spec.set_up(&model, &shared, seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (session, plan) = kept.expect("at least one set-up");
    if spec.repeats {
        for cs in &plan {
            session.program_for(&cs.scenario.model)?;
        }
    }
    let (done, peak_rss_mb) = workload::drive(spec, &session, &plan, seconds);

    let mut report = Report {
        attempted: done.len(),
        ..Report::default()
    };
    let mut quality = Quality::default();
    let mut evidence = Vec::with_capacity(spec.evidence);
    for d in &done {
        match &d.outcome {
            Ok(outcome) if d.index < spec.evidence => {
                quality.add(&plan[d.index], outcome);
                evidence.push(outcome.evidence.as_str());
            }
            Ok(_) => {}
            Err(e) => {
                report.failed += 1;
                report.notes.push(format!(
                    "error {}: {e}",
                    plan[d.index % plan.len()].scenario.name
                ));
            }
        }
    }
    let mut walls: Vec<f64> = done.iter().map(|d| d.end - d.start).collect();
    walls.sort_by(f64::total_cmp);
    let busy = done.iter().map(|d| d.end).fold(0.0, f64::max);
    let completed = done.len() - report.failed;
    let evidence_s: f64 = done
        .iter()
        .filter(|d| d.index < spec.evidence)
        .map(|d| d.end - d.start)
        .sum();

    report.correct =
        report.failed == 0 && evidence.len() == spec.evidence && quality.cleans_all_pass();
    report.notes.push(format!(
        "digest {} seed={seed} requests={} fnv1a={:016x}",
        spec.name,
        evidence.len(),
        digest(evidence)
    ));
    report.notes.push(format!(
        "evidence requests={} seconds={evidence_s}",
        spec.evidence
    ));
    report.notes.push(format!(
        "requests {} in {busy:.3} s after set-up, {} client(s)",
        done.len(),
        spec.workers
    ));
    if let Some((pct, value)) = tail(&walls) {
        report.extra.push((
            format!("request_tail_s[p{pct},n={}]", walls.len()),
            value,
            "s",
        ));
    }
    report.extra.push((
        "error_rate".into(),
        workload::ratio(report.failed as f64, report.attempted as f64),
        "fraction",
    ));
    report
        .extra
        .push(("flagged_rate".into(), quality.flagged_rate(), "fraction"));
    report.extra.push((
        "clean_pass_rate".into(),
        quality.clean_pass_rate(),
        "fraction",
    ));
    if spec.depth == workload::Depth::Diagnose {
        report
            .extra
            .push(("located_rate".into(), quality.located_rate(), "fraction"));
    }

    report.metric("setup_s", median(&mut setup_s), "s");
    report.metric("request_p50_s", median(&mut walls), "s");
    report.metric("requests_per_s", completed as f64 / busy, "1/s");
    report.metric("peak_rss_mb", peak_rss_mb, "MiB");
    Ok(report)
}

/// Median of `values` (sorted in place).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// The highest whole percentile with at least ten samples above it
/// (nearest rank), reported once there are 100 samples, so that it is at
/// least the 90th.
fn tail(sorted: &[f64]) -> Option<(usize, f64)> {
    let n = sorted.len();
    if n < 100 {
        return None;
    }
    let pct = 100 * (n - 10) / n;
    let rank = (pct * n).div_ceil(100);
    Some((pct, sorted[rank - 1]))
}
