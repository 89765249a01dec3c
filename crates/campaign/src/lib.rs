//! # rca-campaign — fault-injection campaigns for the RCA pipeline
//!
//! The paper evaluates root-cause analysis on six hand-written experiments
//! (WSUBBUG, RAND-MT, GOFFGRATCH, AVX2, RANDOMBUG, DYN3BUG). This crate
//! generalizes that evaluation into a **campaign engine**: hundreds of
//! seeded, deterministic defect scenarios with known ground truth, fanned
//! out across threads through one shared [`rca_core::RcaSession`], scored
//! into a localization benchmark.
//!
//! Three layers:
//!
//! 1. [`mutate`] — the mutation engine: constant perturbation, operator
//!    swap, comparison flip at [`rca_model::patch_sites`] sites, plus
//!    PRNG substitution and per-module FMA toggles; every scenario is a
//!    pure function of `(model, seed, index)` and carries its
//!    ground-truth [`rca_model::BugSite`]s / modules.
//! 2. [`runner`] — the batch runner: metagraph and control ensemble are
//!    built once, then N scenarios run in parallel (`rayon`) through
//!    [`rca_core::RcaSession::diagnose_scenario`]; per-scenario failures
//!    are absorbed, never fatal.
//! 3. [`scorecard`] — localization metrics: verdict accuracy (mutants
//!    flagged / cleans passing), located + module-in-final-slice rates,
//!    slice-size reduction, iterations, throughput; rendered as text and
//!    exported as deterministic JSON (same seed ⇒ byte-identical
//!    artifact). Absorbed per-scenario failures carry the typed
//!    [`AbsorbedError`] taxonomy (kind slug + retryability), and
//!    scenarios diagnosed from a degraded ensemble quorum are flagged.
//! 4. [`checkpoint`] — resumable campaigns: an append-only JSONL
//!    checkpoint keyed by `(seed, run digest, index)` streams results
//!    as they complete; a restarted campaign skips what already ran and
//!    its merged scorecard is byte-identical to an uninterrupted run's.
//!
//! A fourth axis, orthogonal to mutation: `CampaignOptions::runtime_faults`
//! seeds a per-scenario [`rca_sim::FaultPlan`] (NaN/Inf poisoning, stuck
//! values, member aborts) that the executor injects into experimental
//! ensemble members mid-run — the chaos harness for the pipeline's
//! graceful-degradation path (member retry, quarantine, quorum fitting).
//!
//! # Quickstart
//!
//! ```no_run
//! use rca_campaign::{run_campaign, CampaignOptions, RunnerOptions};
//! use rca_model::{generate, ModelConfig};
//!
//! let model = generate(&ModelConfig::test());
//! let opts = CampaignOptions {
//!     scenarios: 50,
//!     seed: 0xCAFE,
//!     include_paper: true,
//!     ..Default::default()
//! };
//! let card = run_campaign(&model, &opts, &RunnerOptions::default())?;
//! println!("{}", card.render());                       // human report
//! let json = serde_json::to_string_pretty(&card)?;      // machine export
//! assert!(card.summary().localization_rate > 0.5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Or from the shell:
//!
//! ```text
//! rca-campaign --scenarios 50 --seed 51966 --paper --json scorecard.json
//! ```

pub mod checkpoint;
pub mod mutate;
pub mod runner;
pub mod scorecard;

pub use checkpoint::{load_checkpoint, run_digest, Checkpoint};
pub use mutate::{
    campaign_sites, mutate_site, paper_scenario, plan_campaign, CampaignOptions, CampaignRng,
    CampaignScenario, MutationKind, ScenarioClass,
};
pub use runner::{run_campaign, run_scenario, RunnerOptions};
pub use scorecard::{AbsorbedError, ScenarioResult, Scorecard, Summary};
