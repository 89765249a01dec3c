//! The localization scorecard: per-scenario outcomes and the aggregate
//! quality metrics that make a campaign a standing benchmark.
//!
//! Two exports, deliberately different:
//!
//! - [`Scorecard::render`] — the human report, including wall-clock
//!   timing and throughput;
//! - the [`serde::Serialize`] impl (consumed by `serde_json::to_string*`)
//!   — the machine-readable scorecard, which **excludes timing** so the
//!   same seed produces a byte-identical JSON artifact on any machine and
//!   thread count. CI diffs it; the throughput bench records timing
//!   separately.

use rca_core::{RcaError, StopReason};
use rca_stats::Verdict;
use serde::{Json, Serialize};
use std::fmt;
use std::fmt::Write as _;

/// A pipeline failure the campaign absorbed instead of aborting on —
/// the typed form of `scenario.error`, sharing the [`RcaError`]
/// taxonomy (kind slug + retryability) so consumers never string-match
/// messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbsorbedError {
    /// Stable failure-class slug ([`RcaError::kind_slug`]).
    pub kind: String,
    /// Whether retrying could plausibly succeed
    /// ([`RcaError::is_retryable`]): budget exhaustion and injected
    /// faults, never deterministic model/config failures.
    pub retryable: bool,
    /// Rendered failure message (carries member/step/stage context).
    pub message: String,
}

impl AbsorbedError {
    /// Captures a pipeline failure with its taxonomy metadata.
    pub fn from_rca(e: &RcaError) -> AbsorbedError {
        AbsorbedError {
            kind: e.kind_slug().to_string(),
            retryable: e.is_retryable(),
            message: e.to_string(),
        }
    }
}

impl fmt::Display for AbsorbedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}{}] {}",
            self.kind,
            if self.retryable { ", retryable" } else { "" },
            self.message
        )
    }
}

impl Serialize for AbsorbedError {
    fn to_json(&self) -> Json {
        Json::obj([
            ("kind", self.kind.to_json()),
            ("retryable", self.retryable.to_json()),
            ("message", self.message.to_json()),
        ])
    }
}

/// Outcome of one campaign scenario.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario name (stable for a given seed).
    pub name: String,
    /// Scenario class slug (`clean`, `const`, `opswap`, `cmpflip`,
    /// `prng`, `fma`, `paper`).
    pub kind: String,
    /// Ground-truth module, if one was injected.
    pub injected_module: Option<String>,
    /// Human-readable injection description.
    pub detail: String,
    /// Whether the scenario carries a discrepancy source (scores verdict
    /// accuracy).
    pub expect_fail: bool,
    /// The ECT verdict (`None` if the scenario errored).
    pub verdict: Option<Verdict>,
    /// Whether ground truth was instrumented or sits in the final
    /// suspect set.
    pub located: bool,
    /// Whether the injected module is among the final suspect modules.
    pub module_in_final: bool,
    /// Suspect subgraph size entering refinement.
    pub slice_nodes: usize,
    /// Final suspect-set size.
    pub final_suspects: usize,
    /// Refinement iterations performed.
    pub iterations: usize,
    /// Why refinement stopped, if it ran.
    pub stop: Option<StopReason>,
    /// Whether the diagnosis drew on a degraded ensemble (quarantined
    /// members survived by quorum instead of erroring).
    pub degraded: bool,
    /// Pipeline failure, if the scenario could not be diagnosed.
    pub error: Option<AbsorbedError>,
    /// Wall time of this diagnosis (excluded from JSON export).
    pub wall_ms: f64,
}

impl ScenarioResult {
    /// A mutant correctly flagged by the ECT.
    fn flagged_mutant(&self) -> bool {
        self.expect_fail && self.verdict == Some(Verdict::Fail)
    }

    /// Slice-size reduction achieved by refinement (`1 - final/initial`).
    fn slice_reduction(&self) -> Option<f64> {
        (self.slice_nodes > 0).then(|| 1.0 - self.final_suspects as f64 / self.slice_nodes as f64)
    }
}

impl Serialize for ScenarioResult {
    fn to_json(&self) -> Json {
        let mut fields: Vec<(&str, Json)> = vec![
            ("name", self.name.to_json()),
            ("kind", self.kind.to_json()),
            ("injected_module", self.injected_module.to_json()),
            ("detail", self.detail.to_json()),
            ("expect_fail", self.expect_fail.to_json()),
            (
                "verdict",
                self.verdict.as_ref().map_or(Json::Null, Verdict::to_json),
            ),
            ("located", self.located.to_json()),
            ("module_in_final", self.module_in_final.to_json()),
            ("slice_nodes", self.slice_nodes.to_json()),
            ("final_suspects", self.final_suspects.to_json()),
            ("iterations", self.iterations.to_json()),
            ("stop", self.stop.to_json()),
        ];
        // Conditional key: absent on healthy runs, so zero-fault
        // scorecards stay byte-identical to pre-fault-plane baselines.
        if self.degraded {
            fields.push(("degraded", self.degraded.to_json()));
        }
        fields.push(("error", self.error.to_json()));
        Json::obj(fields)
    }
}

/// Aggregated campaign metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Total scenarios run.
    pub scenarios: usize,
    /// Scenarios with an injected discrepancy source.
    pub mutants: usize,
    /// Unmutated control scenarios.
    pub cleans: usize,
    /// Scenarios that failed with a pipeline error.
    pub errors: usize,
    /// Scenarios diagnosed from a degraded (quarantine-survived)
    /// ensemble quorum.
    pub degraded: usize,
    /// Mutants the ECT flagged (`Fail`).
    pub mutants_flagged: usize,
    /// Cleans the ECT passed.
    pub cleans_passed: usize,
    /// Fraction of mutants flagged.
    pub flagged_rate: f64,
    /// Fraction of cleans passing.
    pub clean_pass_rate: f64,
    /// Flagged mutants whose ground truth was located.
    pub located: usize,
    /// Localization rate among flagged mutants.
    pub localization_rate: f64,
    /// Flagged mutants whose injected module is in the final suspects.
    pub module_in_final: usize,
    /// Mean slice-size reduction over refined scenarios.
    pub mean_slice_reduction: f64,
    /// Mean refinement iterations over refined scenarios.
    pub mean_iterations: f64,
}

impl Serialize for Summary {
    fn to_json(&self) -> Json {
        let mut fields: Vec<(&str, Json)> = vec![
            ("scenarios", self.scenarios.to_json()),
            ("mutants", self.mutants.to_json()),
            ("cleans", self.cleans.to_json()),
            ("errors", self.errors.to_json()),
            ("mutants_flagged", self.mutants_flagged.to_json()),
            ("cleans_passed", self.cleans_passed.to_json()),
            ("flagged_rate", self.flagged_rate.to_json()),
            ("clean_pass_rate", self.clean_pass_rate.to_json()),
            ("located", self.located.to_json()),
            ("localization_rate", self.localization_rate.to_json()),
            ("module_in_final", self.module_in_final.to_json()),
            ("mean_slice_reduction", self.mean_slice_reduction.to_json()),
            ("mean_iterations", self.mean_iterations.to_json()),
        ];
        // Conditional key, mirroring `ScenarioResult::degraded`: absent
        // unless some scenario actually degraded.
        if self.degraded > 0 {
            fields.push(("degraded", self.degraded.to_json()));
        }
        Json::obj(fields)
    }
}

/// A finished campaign: per-scenario results plus aggregates.
#[derive(Debug, Clone)]
pub struct Scorecard {
    /// Per-scenario outcomes, in plan order.
    pub results: Vec<ScenarioResult>,
    /// Wall time of the whole batch, seconds (excluded from JSON export).
    pub wall_seconds: f64,
}

impl Scorecard {
    /// Wraps results produced by the batch runner.
    pub fn new(results: Vec<ScenarioResult>, wall_seconds: f64) -> Scorecard {
        Scorecard {
            results,
            wall_seconds,
        }
    }

    /// Diagnoses per second over the whole batch.
    pub fn throughput(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.results.len() as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Computes the aggregate metrics.
    pub fn summary(&self) -> Summary {
        let scenarios = self.results.len();
        let errors = self.results.iter().filter(|r| r.error.is_some()).count();
        let degraded = self.results.iter().filter(|r| r.degraded).count();
        let mutants = self.results.iter().filter(|r| r.expect_fail).count();
        let cleans = scenarios - mutants;
        let mutants_flagged = self.results.iter().filter(|r| r.flagged_mutant()).count();
        let cleans_passed = self
            .results
            .iter()
            .filter(|r| !r.expect_fail && r.verdict == Some(Verdict::Pass))
            .count();
        let located = self
            .results
            .iter()
            .filter(|r| r.flagged_mutant() && r.located)
            .count();
        let module_in_final = self
            .results
            .iter()
            .filter(|r| r.flagged_mutant() && r.module_in_final)
            .count();
        let reductions: Vec<f64> = self
            .results
            .iter()
            .filter_map(ScenarioResult::slice_reduction)
            .collect();
        let refined = self.results.iter().filter(|r| r.iterations > 0).count();
        let rate = |num: usize, den: usize| {
            if den > 0 {
                num as f64 / den as f64
            } else {
                1.0
            }
        };
        // A campaign with mutants but zero flags means the flagger is
        // broken, not that localization is vacuously perfect — report 0
        // so `--assert-localization` cannot pass on a dead detector.
        let localization_rate = if mutants > 0 && mutants_flagged == 0 {
            0.0
        } else {
            rate(located, mutants_flagged)
        };
        Summary {
            scenarios,
            mutants,
            cleans,
            errors,
            degraded,
            mutants_flagged,
            cleans_passed,
            flagged_rate: rate(mutants_flagged, mutants),
            clean_pass_rate: rate(cleans_passed, cleans),
            located,
            localization_rate,
            module_in_final,
            mean_slice_reduction: if reductions.is_empty() {
                0.0
            } else {
                reductions.iter().sum::<f64>() / reductions.len() as f64
            },
            mean_iterations: if refined > 0 {
                self.results.iter().map(|r| r.iterations).sum::<usize>() as f64 / refined as f64
            } else {
                0.0
            },
        }
    }

    /// Renders the human-readable report (including timing).
    pub fn render(&self) -> String {
        let s = self.summary();
        let mut out = String::new();
        let _ = writeln!(out, "== rca-campaign scorecard ==");
        let _ = writeln!(
            out,
            "{:<28} {:>7} {:>8} {:>8} {:>6} {:>6} {:>8}  stop",
            "scenario", "verdict", "located", "modfinal", "slice", "iters", "ms"
        );
        for r in &self.results {
            let verdict = match (&r.error, r.verdict) {
                (Some(_), _) => "ERROR",
                (None, Some(Verdict::Fail)) => "Fail",
                (None, Some(Verdict::Pass)) => "Pass",
                (None, None) => "-",
            };
            let _ = writeln!(
                out,
                "{:<28} {:>7} {:>8} {:>8} {:>6} {:>6} {:>8.0}  {}",
                r.name,
                verdict,
                if r.located { "yes" } else { "-" },
                if r.module_in_final { "yes" } else { "-" },
                r.slice_nodes,
                r.iterations,
                r.wall_ms,
                r.stop.map(|s| s.to_string()).unwrap_or_default(),
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "scenarios: {} ({} mutants, {} cleans, {} errors)",
            s.scenarios, s.mutants, s.cleans, s.errors
        );
        if s.degraded > 0 {
            let _ = writeln!(
                out,
                "degraded: {} scenario(s) diagnosed from a reduced ensemble quorum",
                s.degraded
            );
        }
        let _ = writeln!(
            out,
            "verdict accuracy: {}/{} mutants flagged ({:.0}%), {}/{} cleans passed ({:.0}%)",
            s.mutants_flagged,
            s.mutants,
            s.flagged_rate * 100.0,
            s.cleans_passed,
            s.cleans,
            s.clean_pass_rate * 100.0
        );
        let _ = writeln!(
            out,
            "localization: {}/{} flagged mutants located ({:.0}%), {} with module in final suspects",
            s.located,
            s.mutants_flagged,
            s.localization_rate * 100.0,
            s.module_in_final
        );
        let _ = writeln!(
            out,
            "refinement: mean slice reduction {:.0}%, mean iterations {:.1}",
            s.mean_slice_reduction * 100.0,
            s.mean_iterations
        );
        let _ = writeln!(
            out,
            "wall time: {:.2} s ({:.2} diagnoses/sec)",
            self.wall_seconds,
            self.throughput()
        );
        let errored: Vec<&ScenarioResult> =
            self.results.iter().filter(|r| r.error.is_some()).collect();
        if !errored.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "errors:");
            for r in errored {
                if let Some(e) = &r.error {
                    let _ = writeln!(out, "  {}: {e}", r.name);
                }
            }
        }
        out
    }
}

// Deterministic machine export: same seed => byte-identical JSON (wall
// times deliberately excluded).
impl Serialize for Scorecard {
    fn to_json(&self) -> Json {
        Json::obj([
            ("summary", self.summary().to_json()),
            ("results", self.results.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(name: &str, expect_fail: bool, verdict: Verdict, located: bool) -> ScenarioResult {
        ScenarioResult {
            name: name.to_string(),
            kind: if expect_fail { "const" } else { "clean" }.to_string(),
            injected_module: expect_fail.then(|| "micro_mg".to_string()),
            detail: String::new(),
            expect_fail,
            verdict: Some(verdict),
            located,
            module_in_final: located,
            slice_nodes: 100,
            final_suspects: 20,
            iterations: 3,
            stop: Some(StopReason::SmallEnough),
            degraded: false,
            error: None,
            wall_ms: 1.0,
        }
    }

    #[test]
    fn summary_rates_count_correctly() {
        let card = Scorecard::new(
            vec![
                result("000-clean", false, Verdict::Pass, false),
                result("001-const", true, Verdict::Fail, true),
                result("002-const", true, Verdict::Fail, false),
                result("003-const", true, Verdict::Pass, false), // missed mutant
            ],
            2.0,
        );
        let s = card.summary();
        assert_eq!(s.scenarios, 4);
        assert_eq!(s.mutants, 3);
        assert_eq!(s.cleans, 1);
        assert_eq!(s.mutants_flagged, 2);
        assert_eq!(s.cleans_passed, 1);
        assert_eq!(s.located, 1);
        assert!((s.flagged_rate - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.localization_rate - 0.5).abs() < 1e-12);
        assert!((s.mean_slice_reduction - 0.8).abs() < 1e-12);
        assert!((card.throughput() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn localization_is_not_vacuous_when_no_mutant_is_flagged() {
        // A dead detector (every mutant passes) must score 0, not a
        // vacuous 100%, or the CI floor would green-light it.
        let card = Scorecard::new(
            vec![
                result("001-const", true, Verdict::Pass, false),
                result("002-const", true, Verdict::Pass, false),
            ],
            1.0,
        );
        let s = card.summary();
        assert_eq!(s.mutants_flagged, 0);
        assert_eq!(s.localization_rate, 0.0);
        // With no mutants at all there is nothing to assess: vacuous 1.0.
        let clean_only =
            Scorecard::new(vec![result("000-clean", false, Verdict::Pass, false)], 1.0);
        assert_eq!(clean_only.summary().localization_rate, 1.0);
    }

    #[test]
    fn json_export_excludes_timing_and_is_deterministic() {
        let card = Scorecard::new(vec![result("001-const", true, Verdict::Fail, true)], 1.5);
        let a = serde_json::to_string(&card).unwrap();
        let faster = Scorecard::new(card.results.clone(), 0.3);
        let b = serde_json::to_string(&faster).unwrap();
        assert_eq!(a, b, "wall time must not leak into the JSON export");
        assert!(!a.contains("wall"));
        let v = serde_json::from_str(&a).unwrap();
        assert_eq!(v["summary"]["mutants_flagged"].as_u64(), Some(1));
        assert_eq!(v["results"][0]["name"].as_str(), Some("001-const"));
    }

    #[test]
    fn degraded_and_error_keys_are_conditional_and_typed() {
        // Healthy result: no `degraded` key anywhere, `error` is null —
        // the exact byte shape of pre-fault-plane scorecards.
        let healthy = Scorecard::new(vec![result("000-clean", false, Verdict::Pass, false)], 1.0);
        let j = serde_json::to_string(&healthy).unwrap();
        assert!(!j.contains("degraded"));
        assert!(
            j.contains("\"error\": null") || j.contains("\"error\":null"),
            "{j}"
        );

        // Degraded result: the key appears on the scenario and the count
        // lands in the summary.
        let mut r = result("001-const", true, Verdict::Fail, true);
        r.degraded = true;
        let card = Scorecard::new(vec![r], 1.0);
        assert_eq!(card.summary().degraded, 1);
        let v = serde_json::from_str(&serde_json::to_string(&card).unwrap()).unwrap();
        assert_eq!(v["summary"]["degraded"].as_u64(), Some(1));
        assert!(matches!(
            v["results"][0]["degraded"],
            serde_json::Value::Bool(true)
        ));

        // Absorbed errors serialize as the typed taxonomy payload.
        let mut e = result("002-const", true, Verdict::Fail, false);
        e.verdict = None;
        e.error = Some(AbsorbedError {
            kind: "budget".to_string(),
            retryable: true,
            message: "run budget exhausted (fuel): ...".to_string(),
        });
        let card = Scorecard::new(vec![e], 1.0);
        assert_eq!(card.summary().errors, 1);
        let v = serde_json::from_str(&serde_json::to_string(&card).unwrap()).unwrap();
        assert_eq!(v["results"][0]["error"]["kind"].as_str(), Some("budget"));
        assert!(matches!(
            v["results"][0]["error"]["retryable"],
            serde_json::Value::Bool(true)
        ));
        let text = card.render();
        assert!(text.contains("[budget, retryable]"), "{text}");
    }

    #[test]
    fn render_reports_rates_and_throughput() {
        let card = Scorecard::new(
            vec![
                result("000-clean", false, Verdict::Pass, false),
                result("001-const", true, Verdict::Fail, true),
            ],
            1.0,
        );
        let text = card.render();
        assert!(text.contains("1/1 mutants flagged"));
        assert!(text.contains("1/1 cleans passed"));
        assert!(text.contains("diagnoses/sec"));
    }
}
