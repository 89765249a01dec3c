//! The batch runner: one session, N scenarios, all cores.
//!
//! Builds the experiment-independent state once — parse + **compile**
//! (the slot-indexed program), coverage calibration, metagraph
//! compilation, **and the control ensemble + fitted ECT** (prewarmed
//! before the fan-out so no worker pays for it) — then drives every
//! planned scenario through [`RcaSession::diagnose_scenario`] in
//! parallel. Every ensemble under the hood — the shared control
//! ensemble and each scenario's experimental runs — fills one columnar
//! `rca_sim::EnsembleRuns` block through pooled, reset-reused executors,
//! so growing `--scenarios` or the ensemble size N pays for arithmetic,
//! not for per-run allocation and matrix re-assembly. The session's content-addressed program cache means clean
//! scenarios and config-only mutants (PRNG swap, FMA toggle) reuse the
//! already-compiled base program, and each source mutant is compiled
//! exactly once no matter how many runs its diagnosis needs, parsing
//! only the file it patches (every other AST is the session's).
//! Scenario results come back in plan order regardless of thread count,
//! so campaign output is order-deterministic; `RAYON_NUM_THREADS=1`
//! gives the sequential baseline the throughput bench compares against.
//!
//! Campaigns are also **resumable**: with [`RunnerOptions::checkpoint`]
//! set, finished scenarios stream to an append-only JSONL file as they
//! complete ([`crate::checkpoint`]), restored results are merged back in
//! plan order on restart, and the merged scorecard is byte-identical to
//! an uninterrupted run's.

use crate::checkpoint::{load_checkpoint, run_digest, Checkpoint};
use crate::mutate::{plan_campaign, CampaignOptions, CampaignScenario};
use crate::scorecard::{AbsorbedError, ScenarioResult, Scorecard};
use rayon::prelude::*;
use rca_core::{OracleKind, RcaError, RcaSession};
use rca_model::ModelSource;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Session-level knobs for a campaign run.
#[derive(Debug, Clone)]
pub struct RunnerOptions {
    /// Statistical campaign parameters for every scenario.
    pub setup: rca_core::ExperimentSetup,
    /// Evidence source for refinement.
    pub oracle: OracleKind,
    /// Append-only JSONL checkpoint path. When set, every finished
    /// scenario is streamed to this file as it completes, and scenarios
    /// already recorded there (for the same seed and run digest: plan,
    /// model and result-changing settings) are restored instead of
    /// re-run — an interrupted campaign resumes where it stopped, and the
    /// merged scorecard is byte-identical to an uninterrupted run's.
    pub checkpoint: Option<PathBuf>,
    /// Diagnose at most this many **new** scenarios (checkpoint-restored
    /// ones don't count), then stop. The deterministic interruption
    /// primitive: `--checkpoint c.jsonl --stop-after K` followed by a
    /// plain `--checkpoint c.jsonl` rerun is exactly a kill-and-resume.
    pub stop_after: Option<usize>,
    /// Per-diagnosis wall-clock budget, enforced at stage boundaries
    /// inside the session ([`rca_core::RcaError::Budget`], retryable).
    pub wall_budget: Option<Duration>,
}

impl Default for RunnerOptions {
    fn default() -> Self {
        RunnerOptions {
            setup: rca_core::ExperimentSetup::quick(),
            oracle: OracleKind::Reachability,
            checkpoint: None,
            stop_after: None,
            wall_budget: None,
        }
    }
}

/// Plans and runs a whole campaign over `model`, returning the scorecard.
pub fn run_campaign(
    model: &ModelSource,
    opts: &CampaignOptions,
    runner: &RunnerOptions,
) -> Result<Scorecard, RcaError> {
    let mut builder = RcaSession::builder(model)
        .setup(runner.setup.clone())
        .oracle(runner.oracle);
    if let Some(budget) = runner.wall_budget {
        builder = builder.wall_budget(budget);
    }
    let session = builder.build()?;
    // Pay for the shared control ensemble before the fan-out.
    session.ensemble()?;
    let model_arc = Arc::new(model.clone());
    let plan = plan_campaign(&model_arc, &session, opts);
    rca_obs::counter_inc!("campaign.scenarios", plan.len() as u64);
    rca_obs::event("campaign.plan", &[("scenarios", plan.len().into())]);

    // Checkpoint restore: results recorded under the identical (seed,
    // run digest) key are reused; everything else runs fresh.
    let digest = run_digest(model, runner, opts, &plan);
    let ckpt_io = |e: std::io::Error| RcaError::Config(format!("checkpoint unusable: {e}"));
    let (mut completed, ckpt) = match &runner.checkpoint {
        Some(path) => {
            let completed = load_checkpoint(path, opts.seed, digest).map_err(ckpt_io)?;
            let ckpt = Checkpoint::open(path, opts.seed, digest).map_err(ckpt_io)?;
            (completed, Some(ckpt))
        }
        None => (HashMap::new(), None),
    };
    if !completed.is_empty() {
        rca_obs::counter_inc!("campaign.resumed_scenarios", completed.len() as u64);
        rca_obs::event("campaign.resume", &[("restored", completed.len().into())]);
    }
    let mut pending: Vec<usize> = (0..plan.len())
        .filter(|i| !completed.contains_key(i))
        .collect();
    if let Some(cap) = runner.stop_after {
        pending.truncate(cap);
    }

    let started = Instant::now();
    // A checkpoint-append failure means resumability is silently broken
    // — collect the first one and fail the campaign loudly after the
    // fan-out instead of pretending the file is sound.
    let append_err: Mutex<Option<String>> = Mutex::new(None);
    let run_one = |&i: &usize| {
        let result = run_scenario(&session, &plan[i]);
        if let Some(c) = &ckpt {
            if let Err(e) = c.record(i, &result) {
                let mut slot = append_err.lock().expect("append-error mutex poisoned");
                slot.get_or_insert_with(|| e.to_string());
            }
        }
        (i, result)
    };
    // Trace sinks are thread-scoped, so a traced campaign runs its
    // scenarios sequentially on the installing thread — every phase of
    // every scenario lands in one deterministic trace. Results are
    // identical either way (scenario diagnoses are independent and
    // collected in plan order); the CI trace-smoke gate asserts the
    // scorecard bytes match the parallel no-trace run.
    let mut fresh: HashMap<usize, ScenarioResult> = if rca_obs::tracing_active() {
        pending.iter().map(run_one).collect()
    } else {
        pending.par_iter().map(run_one).collect()
    };
    if let Some(e) = append_err
        .into_inner()
        .expect("append-error mutex poisoned")
    {
        return Err(RcaError::Config(format!("checkpoint append failed: {e}")));
    }
    // Merge restored and fresh results in plan order. With `stop_after`
    // the tail indices are simply absent — the scorecard covers what has
    // run so far, and the next resume fills in the rest.
    let results: Vec<ScenarioResult> = (0..plan.len())
        .filter_map(|i| completed.remove(&i).or_else(|| fresh.remove(&i)))
        .collect();
    Ok(Scorecard::new(results, started.elapsed().as_secs_f64()))
}

/// Runs one planned scenario through the session pipeline, absorbing
/// per-scenario failures into the result (a campaign never aborts on one
/// broken mutant).
pub fn run_scenario(session: &RcaSession<'_>, cs: &CampaignScenario) -> ScenarioResult {
    let expect_fail = cs.class.expects_fail();
    let t0 = Instant::now();
    let outcome = session.diagnose_scenario(&cs.scenario);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    match outcome {
        Ok(d) => {
            // Scorecard matching runs on interned ids: the injected module
            // resolves through the session table once, then membership is
            // a binary search over the diagnosis' id-sorted module set.
            let module_in_final = cs
                .injected_module
                .as_deref()
                .and_then(|m| session.symbols().module_id(m))
                .is_some_and(|m| d.suspects_module_id(m));
            let degraded = d.degraded.is_some();
            if degraded {
                rca_obs::counter_inc!("campaign.degraded_scenarios", 1);
            }
            if rca_obs::tracing_active() {
                rca_obs::event(
                    "scenario",
                    &[
                        ("name", cs.scenario.name.as_str().into()),
                        ("kind", cs.class.slug().into()),
                        ("verdict", d.verdict.to_string().into()),
                        ("located", d.located().into()),
                        ("iterations", d.iterations().into()),
                        ("slice_nodes", d.slice_nodes.into()),
                    ],
                );
            }
            ScenarioResult {
                name: cs.scenario.name.clone(),
                kind: cs.class.slug().to_string(),
                injected_module: cs.injected_module.clone(),
                detail: cs.detail.clone(),
                expect_fail,
                verdict: Some(d.verdict),
                located: d.located(),
                module_in_final,
                slice_nodes: d.slice_nodes,
                final_suspects: d.suspects.len(),
                iterations: d.iterations(),
                stop: d.stop(),
                degraded,
                error: None,
                wall_ms,
            }
        }
        Err(e) => {
            // Surface the absorbed failure as a structured event —
            // silently folding it into the scorecard denominator hides
            // broken mutants from anyone watching the trace. The typed
            // payload carries the taxonomy (slug + retryability), so
            // trace consumers never string-match messages either.
            rca_obs::counter_inc!("campaign.errors", 1);
            rca_obs::event(
                "scenario.error",
                &[
                    ("name", cs.scenario.name.as_str().into()),
                    ("kind", cs.class.slug().into()),
                    ("error_kind", e.kind_slug().into()),
                    ("retryable", e.is_retryable().into()),
                    ("error", e.to_string().into()),
                ],
            );
            ScenarioResult {
                name: cs.scenario.name.clone(),
                kind: cs.class.slug().to_string(),
                injected_module: cs.injected_module.clone(),
                detail: cs.detail.clone(),
                expect_fail,
                verdict: None,
                located: false,
                module_in_final: false,
                slice_nodes: 0,
                final_suspects: 0,
                iterations: 0,
                stop: None,
                degraded: false,
                error: Some(AbsorbedError::from_rca(&e)),
                wall_ms,
            }
        }
    }
}
