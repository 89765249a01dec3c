//! The three seeded workloads and the untraced request path.
//!
//! A workload is a model scale, a session configuration, a seeded plan
//! of scenarios, and how far each request carries its scenario. The plan
//! comes from the public planners `plan_campaign` and `paper_scenario`;
//! the library only ever sees the generated scenarios.

use rca_campaign::{paper_scenario, plan_campaign, CampaignOptions, CampaignRng, CampaignScenario};
use rca_core::{Diagnosis, ExperimentSetup, OracleKind, RcaError, RcaSession, Statistics};
use rca_model::{Experiment, ModelConfig, ModelSource};
use rca_stats::Verdict;
use serde::{Json, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How far one request carries its scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Depth {
    /// Statistics, slice and refinement: `RcaSession::diagnose_scenario`.
    Diagnose,
    /// The ECT verdict only: `RcaSession::statistics_scenario`.
    Verdict,
}

/// Which scenarios a workload's plan holds, in request order.
#[derive(Debug, Clone, Copy)]
enum PlanShape {
    /// The seven paper experiments, in a seeded order.
    Paper,
    /// Optionally the seven paper experiments, then a seeded campaign of
    /// `scenarios` mutants with a clean every `clean_every`-th.
    Campaign {
        paper: bool,
        scenarios: usize,
        clean_every: usize,
    },
}

/// One workload, fully configured.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub model: ModelConfig,
    pub setup: ExperimentSetup,
    pub oracle: OracleKind,
    pub depth: Depth,
    /// Concurrent clients, each sending its next request when the last
    /// one returns (1 = one closed-loop client).
    pub workers: usize,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
    /// Requests every run completes whatever `--seconds` says: the first
    /// `evidence` plan entries are the deterministic set that the digest,
    /// the quality rates and `peak_rss_mb` cover.
    pub evidence: usize,
    /// The plan is a few requests whose costs differ by an order of
    /// magnitude, repeated in whole passes: each variant's program is
    /// compiled before timing and a run stops only at the end of a pass,
    /// so that every pass, and every run, measures the same mix.
    pub repeats: bool,
    shape: PlanShape,
}

pub const WORKLOADS: [&str; 3] = ["investigate-paper", "campaign-test", "screen-paper"];

impl Spec {
    /// The workload called `name`; `smoke` shrinks it to the test-scale
    /// model and a handful of requests.
    pub fn named(name: &str, smoke: bool) -> Option<Spec> {
        // The campaign fans out like `run_campaign`'s rayon fan-out: over
        // `RAYON_NUM_THREADS` workers when set, else over every core.
        let cores = std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
            })
            .max(1);
        let mut spec = match name {
            // The paper's developer-facing investigation: refinement is
            // most of the time, Girvan-Newman on 350-900-node slices most
            // of that, and this is the only runtime-oracle traffic. Seeded
            // mutants are left out: one costs 0.6-2.7 s, so a run of a
            // few requests would measure which mutants the seed drew.
            "investigate-paper" => Spec {
                name: "investigate-paper",
                model: ModelConfig::paper(),
                setup: ExperimentSetup::default(),
                oracle: OracleKind::Runtime,
                depth: Depth::Diagnose,
                workers: 1,
                setups: 3,
                evidence: Experiment::ALL.len(),
                repeats: true,
                shape: PlanShape::Paper,
            },
            // The standing evaluation harness: many short diagnoses on
            // 130-250-node slices fanned out over every core, where fixed
            // per-diagnosis costs and scenario-level parallelism dominate.
            "campaign-test" => Spec {
                name: "campaign-test",
                model: ModelConfig::test(),
                setup: ExperimentSetup::quick(),
                oracle: OracleKind::Reachability,
                depth: Depth::Diagnose,
                workers: cores,
                setups: 5,
                evidence: 71,
                repeats: false,
                shape: PlanShape::Campaign {
                    paper: true,
                    scenarios: 640,
                    clean_every: 5,
                },
            },
            // The everyday ECT screen: every source mutant is a program
            // cache miss, then an ensemble fill and the ECT; it never
            // slices or refines.
            "screen-paper" => Spec {
                name: "screen-paper",
                model: ModelConfig::paper(),
                setup: ExperimentSetup::default(),
                oracle: OracleKind::Reachability,
                depth: Depth::Verdict,
                workers: 1,
                setups: 3,
                evidence: 24,
                repeats: false,
                shape: PlanShape::Campaign {
                    paper: false,
                    scenarios: 64,
                    clean_every: 5,
                },
            },
            _ => return None,
        };
        if smoke {
            spec.model = ModelConfig::test();
            spec.setup = ExperimentSetup::quick();
            spec.setups = 2;
            if let PlanShape::Campaign {
                paper, scenarios, ..
            } = &mut spec.shape
            {
                *scenarios = 8;
                spec.evidence = if *paper { 10 } else { 4 };
            }
        }
        Some(spec)
    }

    /// The seeded request plan, in request order.
    pub fn plan(
        &self,
        model: &Arc<ModelSource>,
        session: &RcaSession<'_>,
        seed: u64,
    ) -> Vec<CampaignScenario> {
        let paper = || {
            Experiment::ALL
                .into_iter()
                .map(|e| paper_scenario(model, session.setup(), e))
        };
        match self.shape {
            PlanShape::Paper => {
                let mut plan: Vec<CampaignScenario> = paper().collect();
                let mut rng = CampaignRng::new(seed);
                for i in (1..plan.len()).rev() {
                    plan.swap(i, rng.below(i + 1));
                }
                plan
            }
            PlanShape::Campaign {
                paper: with_paper,
                scenarios,
                clean_every,
            } => {
                let opts = CampaignOptions {
                    scenarios,
                    seed,
                    clean_every,
                    include_paper: false,
                    ..CampaignOptions::default()
                };
                let mut plan: Vec<CampaignScenario> = Vec::new();
                if with_paper {
                    plan.extend(paper());
                }
                plan.extend(plan_campaign(model, session, &opts));
                plan
            }
        }
    }

    /// Builds the session, fills the control ensemble and fits the ECT,
    /// and plans the requests: everything before the first request.
    pub fn set_up<'m>(
        &self,
        model: &'m ModelSource,
        shared: &Arc<ModelSource>,
        seed: u64,
    ) -> Result<(RcaSession<'m>, Vec<CampaignScenario>), RcaError> {
        let session = self.builder(model).build()?;
        session.ensemble()?;
        let plan = self.plan(shared, &session, seed);
        Ok((session, plan))
    }

    pub fn builder<'m>(&self, model: &'m ModelSource) -> rca_core::RcaSessionBuilder<'m> {
        RcaSession::builder(model)
            .setup(self.setup.clone())
            .oracle(self.oracle)
    }
}

/// What a request returned, reduced to what the benchmark checks.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Deterministic evidence: the diagnosis JSON, or the verdict record
    /// when there is nothing to diagnose.
    pub evidence: String,
    pub verdict: Verdict,
    /// Whether the ground-truth bug was found; `None` when the request
    /// did not refine or the scenario has no ground truth.
    pub located: Option<bool>,
}

impl Outcome {
    pub fn from_statistics(stats: &Statistics<'_, '_>) -> Outcome {
        Outcome {
            evidence: verdict_record(
                stats.subject(),
                stats.verdict(),
                stats.data.failure_rate,
                &stats.affected,
            ),
            verdict: stats.verdict(),
            located: None,
        }
    }

    pub fn from_diagnosis(d: &Diagnosis) -> Outcome {
        if d.verdict == Verdict::Pass {
            return Outcome {
                evidence: verdict_record(
                    &d.subject,
                    d.verdict,
                    d.failure_rate,
                    &d.affected_outputs,
                ),
                verdict: d.verdict,
                located: None,
            };
        }
        Outcome {
            evidence: serde_json::to_string(d).expect("the JSON stub serializer is infallible"),
            verdict: d.verdict,
            located: (!d.bug_nodes.is_empty()).then(|| d.located()),
        }
    }
}

/// The evidence of a request that stopped at the verdict: the fields a
/// passing `Diagnosis` and the `Statistics` stage both expose, so traced
/// and untraced requests produce the same bytes.
fn verdict_record(
    subject: &str,
    verdict: Verdict,
    failure_rate: f64,
    affected: &[String],
) -> String {
    let record = Json::obj([
        ("subject", subject.to_json()),
        ("verdict", verdict.to_json()),
        ("failure_rate", failure_rate.to_json()),
        ("affected_outputs", affected.to_vec().to_json()),
    ]);
    serde_json::to_string(&record).expect("the JSON stub serializer is infallible")
}

/// One untraced request.
pub fn request(
    session: &RcaSession<'_>,
    cs: &CampaignScenario,
    depth: Depth,
) -> Result<Outcome, RcaError> {
    match depth {
        Depth::Verdict => Ok(Outcome::from_statistics(
            &session.statistics_scenario(&cs.scenario)?,
        )),
        Depth::Diagnose => Ok(Outcome::from_diagnosis(
            &session.diagnose_scenario(&cs.scenario)?,
        )),
    }
}

/// One completed request of a timed loop.
#[derive(Debug)]
pub struct Done {
    /// Position in the request stream (plan index, wrapping around).
    pub index: usize,
    /// Start and end, in seconds since the loop started.
    pub start: f64,
    pub end: f64,
    pub outcome: Result<Outcome, RcaError>,
}

/// Runs the workload's clients until `seconds` have passed and the
/// evidence prefix is complete, cycling through the plan. Each client
/// sends its next request as soon as the previous one returns. Returns
/// the results in stream order and the peak resident memory once the
/// evidence prefix was complete.
pub fn drive(
    spec: &Spec,
    session: &RcaSession<'_>,
    plan: &[CampaignScenario],
    seconds: f64,
) -> (Vec<Done>, f64) {
    let t0 = Instant::now();
    let next = AtomicUsize::new(0);
    let evidence_done = AtomicUsize::new(0);
    let rss = Mutex::new(f64::NAN);
    let done = Mutex::new(Vec::new());
    let client = || loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        let boundary = !spec.repeats || index.is_multiple_of(plan.len());
        if index >= spec.evidence && boundary && t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let start = t0.elapsed().as_secs_f64();
        let outcome = request(session, &plan[index % plan.len()], spec.depth);
        let end = t0.elapsed().as_secs_f64();
        done.lock().expect("a client panicked").push(Done {
            index,
            start,
            end,
            outcome,
        });
        if index < spec.evidence
            && evidence_done.fetch_add(1, Ordering::Relaxed) + 1 == spec.evidence
        {
            *rss.lock().expect("a client panicked") = peak_rss_mb();
        }
    };
    // One client runs on this thread, where the session was built: a
    // spawned thread would allocate from a fresh heap arena.
    if spec.workers == 1 {
        client();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..spec.workers {
                scope.spawn(client);
            }
        });
    }
    let mut done = done.into_inner().expect("a client panicked");
    done.sort_by_key(|d| d.index);
    (done, rss.into_inner().expect("a client panicked"))
}

/// Peak resident set size of this process so far, from
/// `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Deterministic quality counts over the evidence prefix.
#[derive(Debug, Default)]
pub struct Quality {
    mutants: usize,
    flagged: usize,
    cleans: usize,
    cleans_passed: usize,
    with_truth: usize,
    located: usize,
}

impl Quality {
    pub fn add(&mut self, cs: &CampaignScenario, outcome: &Outcome) {
        if !cs.class.expects_fail() {
            self.cleans += 1;
            self.cleans_passed += usize::from(outcome.verdict == Verdict::Pass);
            return;
        }
        self.mutants += 1;
        if outcome.verdict == Verdict::Fail {
            self.flagged += 1;
            if let Some(found) = outcome.located {
                self.with_truth += 1;
                self.located += usize::from(found);
            }
        }
    }

    pub fn flagged_rate(&self) -> f64 {
        ratio(self.flagged as f64, self.mutants as f64)
    }

    pub fn clean_pass_rate(&self) -> f64 {
        ratio(self.cleans_passed as f64, self.cleans as f64)
    }

    pub fn located_rate(&self) -> f64 {
        ratio(self.located as f64, self.with_truth as f64)
    }

    /// Every clean scenario must pass: an unmutated model under the
    /// control configuration is consistent with its own ensemble.
    pub fn cleans_all_pass(&self) -> bool {
        self.cleans_passed == self.cleans
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// FNV-1a (64-bit) over each evidence string and a newline.
pub fn digest<'a>(evidence: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for text in evidence {
        for &b in text.as_bytes().iter().chain(b"\n") {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}
