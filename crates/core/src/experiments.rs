//! High-level experiment harness: ensembles, ECT verdicts, variable
//! selection — the statistical front end of every paper experiment.

use crate::error::RcaError;
use rca_model::Experiment;
use rca_sim::{perturbations, Avx2Policy, EnsembleRuns, PrngKind, Program, RunConfig};
use rca_stats::{fit_lasso_path, median_distance_selection, Ect, EctConfig, Matrix, Verdict};
use std::sync::{Arc, Mutex};

/// Initial-condition perturbation magnitude of every ensemble and
/// experimental member (CESM: O(10⁻¹⁴)).
pub const IC_MAGNITUDE: f64 = 1e-14;

/// Lasso sparsity target of the affected-output selection (paper: "about
/// five variables").
const LASSO_TARGET: usize = 5;

/// Sizing and statistical parameters for an experiment campaign.
#[derive(Debug, Clone)]
pub struct ExperimentSetup {
    /// Simulation steps (UF-CAM-ECT: nine).
    pub steps: u32,
    /// Ensemble size.
    pub n_ensemble: usize,
    /// Experimental-set size.
    pub n_experiment: usize,
    /// ECT configuration.
    pub ect: EctConfig,
    /// Ensemble/experiment perturbation seeds.
    pub seed: u64,
    /// Per-run statement fuel budget (`None` = unlimited); applied to
    /// every control, experimental, and scenario run derived from this
    /// setup.
    pub fuel: Option<u64>,
}

impl Default for ExperimentSetup {
    fn default() -> Self {
        ExperimentSetup {
            steps: 9,
            n_ensemble: 36,
            n_experiment: 12,
            ect: EctConfig::default(),
            seed: 0xC1,
            fuel: None,
        }
    }
}

/// Retry attempts per failed ensemble or experimental member before
/// quarantine — the graceful-degradation contract of the fault-tolerance
/// plane.
///
/// A member whose run fails is retried with a derived perturbation up to
/// `MAX_RETRIES` times, then quarantined; the ECT is fitted from the
/// surviving members as long as they meet the quorum
/// ([`control_quorum`], [`experiment_quorum`]), with a
/// `DegradedEnsemble` note recorded on the diagnosis. Below quorum the
/// pipeline errors (structured, not a panic).
pub const MAX_RETRIES: u32 = 2;

/// Minimum surviving control-ensemble members for an ECT fit out of
/// `total`: half the ensemble, at least 3 (capped at the ensemble).
pub fn control_quorum(total: usize) -> usize {
    (total / 2).max(3).min(total.max(1))
}

/// Minimum surviving experimental runs for a verdict out of `total`:
/// a pyCECT run-set of 3, capped at the set size.
pub fn experiment_quorum(total: usize) -> usize {
    3.min(total).max(1)
}

/// Fill-health summary of one ensemble (control or experimental side).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EnsembleHealth {
    /// Members requested.
    pub total: u32,
    /// Members whose data entered the statistics.
    pub surviving: u32,
    /// Surviving members that needed at least one retry.
    pub recovered: u32,
    /// Members excluded after exhausting retries.
    pub quarantined: u32,
}

impl EnsembleHealth {
    fn of(store: &EnsembleRuns) -> EnsembleHealth {
        EnsembleHealth {
            total: store.members() as u32,
            surviving: store.surviving_count() as u32,
            recovered: store.recovered_count() as u32,
            quarantined: store.quarantined_count() as u32,
        }
    }

    /// Whether any member retried or was quarantined.
    pub fn degraded(&self) -> bool {
        self.recovered > 0 || self.quarantined > 0
    }
}

/// Note recorded on a [`crate::Diagnosis`] when statistics were computed
/// from a degraded ensemble (retried or quarantined members on either
/// side) instead of erroring out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradedEnsemble {
    /// Control-ensemble fill health.
    pub control: EnsembleHealth,
    /// Experimental-set fill health.
    pub experimental: EnsembleHealth,
}

impl serde::Serialize for EnsembleHealth {
    fn to_json(&self) -> serde::Json {
        serde::Json::obj([
            ("total", serde::Json::Uint(u64::from(self.total))),
            ("surviving", serde::Json::Uint(u64::from(self.surviving))),
            ("recovered", serde::Json::Uint(u64::from(self.recovered))),
            (
                "quarantined",
                serde::Json::Uint(u64::from(self.quarantined)),
            ),
        ])
    }
}

impl serde::Serialize for DegradedEnsemble {
    fn to_json(&self) -> serde::Json {
        serde::Json::obj([
            ("control", self.control.to_json()),
            ("experimental", self.experimental.to_json()),
        ])
    }
}

impl std::fmt::Display for DegradedEnsemble {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "control {}/{} surviving ({} recovered, {} quarantined); \
             experimental {}/{} surviving ({} recovered, {} quarantined)",
            self.control.surviving,
            self.control.total,
            self.control.recovered,
            self.control.quarantined,
            self.experimental.surviving,
            self.experimental.total,
            self.experimental.recovered,
            self.experimental.quarantined,
        )
    }
}

impl ExperimentSetup {
    /// A faster configuration for unit/integration tests.
    pub fn quick() -> Self {
        ExperimentSetup {
            steps: 5,
            n_ensemble: 24,
            n_experiment: 9,
            ect: EctConfig {
                n_pcs: 10,
                ..Default::default()
            },
            ..Default::default()
        }
    }
}

/// The control run configuration every experiment and scenario is
/// compared against: defaults at the setup's step count. Single source of
/// truth — the cached ensemble, the session, and the experimental configs
/// all derive from here.
pub fn control_config(setup: &ExperimentSetup) -> RunConfig {
    RunConfig {
        steps: setup.steps,
        fuel: setup.fuel,
        ..Default::default()
    }
}

/// Run configurations for one experiment (control vs experimental).
pub fn experiment_configs(
    experiment: Experiment,
    setup: &ExperimentSetup,
) -> (RunConfig, RunConfig) {
    let control = control_config(setup);
    let mut exp = control.clone();
    if experiment.uses_mersenne_twister() {
        exp.prng = PrngKind::MersenneTwister;
    }
    if experiment.enables_avx2() {
        exp.avx2 = Avx2Policy::AllModules;
    }
    (control, exp)
}

/// Control-side statistics shared by every experiment and scenario over
/// one `(model, setup)` pair: the perturbed ensemble runs, their output
/// matrix, and the ECT fitted to it.
///
/// Computing this is the expensive half of the statistical front end
/// (`n_ensemble` bytecode VM runs); [`crate::RcaSession`] caches one per
/// session so a fault-injection campaign of N scenarios pays for the
/// ensemble once, not N times.
#[derive(Debug, Clone)]
pub struct EnsembleStats {
    /// Output names (sorted, finite in every ensemble run).
    pub names: Vec<String>,
    /// Ensemble output matrix at the evaluation step.
    pub matrix: Matrix,
    /// The ECT fitted to the full ensemble output set.
    pub(crate) ect: Ect,
    /// Control-fill health (all-healthy on the zero-fault path).
    pub health: EnsembleHealth,
}

/// Runs the control ensemble and fits the ECT — everything on the
/// statistical front end that does not depend on the experiment. The
/// base model arrives pre-compiled; every member executes the shared
/// program's history slice ([`EnsembleRuns::run_history`]: only the
/// statements that can reach an `outfld`, the same bits) **into one
/// columnar [`EnsembleRuns`] block**, and the ensemble matrix
/// memcpy-gathers from the store's contiguous evaluation-step planes —
/// no per-run history vectors, no re-assembly.
pub(crate) fn collect_ensemble(
    base_program: &Arc<Program>,
    setup: &ExperimentSetup,
) -> Result<EnsembleStats, RcaError> {
    let perts = perturbations(setup.n_ensemble, IC_MAGNITUDE, setup.seed);
    let store = {
        let _span = rca_obs::span("phase.ensemble_fill");
        EnsembleRuns::run_history(
            base_program,
            &control_config(setup),
            &perts,
            MAX_RETRIES,
            None,
        )
    };
    let health = EnsembleHealth::of(&store);
    let quorum = control_quorum(setup.n_ensemble);
    if (health.surviving as usize) < quorum {
        let cause = store
            .first_failure()
            .map(|(m, e)| format!("; first failure: member {m}: {e}"))
            .unwrap_or_default();
        return Err(RcaError::Stats(format!(
            "control ensemble below quorum: {} of {} members survived (minimum {quorum}){cause}",
            health.surviving, setup.n_ensemble
        )));
    }
    let eval_step = setup.steps - 1;
    let kept = store.finite_outputs_at(eval_step);
    let table = base_program.output_names();
    let names = kept
        .iter()
        .map(|&i| table[i as usize].to_string())
        .collect();
    let matrix = store.matrix_at(eval_step, &kept);
    let ect = {
        let _span = rca_obs::span("phase.ect_fit");
        Ect::fit(&matrix, setup.ect)
    };
    Ok(EnsembleStats {
        names,
        matrix,
        ect,
        health,
    })
}

/// The base program's experimental fills, one per plain run
/// configuration ([`RunConfig::is_plain`]): the fills
/// [`evaluate_against_ensemble`] splices a variant's cone into
/// ([`EnsembleRuns::run_history`]). Each is filled on first use and kept
/// for the session's lifetime.
#[derive(Debug, Default)]
pub(crate) struct BaseFills(Mutex<Vec<(RunConfig, Arc<EnsembleRuns>)>>);

impl BaseFills {
    /// The fill of `base` under `config` over `perts`.
    fn get(&self, base: &Arc<Program>, config: &RunConfig, perts: &[f64]) -> Arc<EnsembleRuns> {
        let cached = |fills: &[(RunConfig, Arc<EnsembleRuns>)]| {
            fills
                .iter()
                .find(|(c, _)| c == config)
                .map(|(_, fill)| Arc::clone(fill))
        };
        if let Some(fill) = cached(&self.0.lock().expect("base fill lock")) {
            return fill;
        }
        // Fill outside the lock, like a compile: parallel scenarios never
        // wait on each other's fills.
        let fill = Arc::new(EnsembleRuns::run_history(
            base,
            config,
            perts,
            MAX_RETRIES,
            None,
        ));
        let mut fills = self.0.lock().expect("base fill lock");
        if let Some(fill) = cached(&fills) {
            return fill;
        }
        fills.push((config.clone(), Arc::clone(&fill)));
        fill
    }
}

/// Statistical results for one experiment campaign.
#[derive(Debug, Clone)]
pub struct ExperimentData {
    /// ECT verdict over the first 3 experimental runs (pyCECT style).
    pub verdict: Verdict,
    /// Failure rate over all experimental run-sets of size 3.
    pub failure_rate: f64,
    /// Output names (sorted, shared by all matrices).
    pub output_names: Vec<String>,
    /// Outputs selected by the lasso, in |weight| order.
    pub lasso_selected: Vec<String>,
    /// Median-distance ranking `(output, standardized distance)`, best
    /// first (unfiltered, for ratio reporting).
    pub median_ranking: Vec<(String, f64)>,
    /// Ensemble output matrix at the evaluation step.
    pub ensemble: Matrix,
    /// Experimental output matrix at the evaluation step.
    pub experimental: Matrix,
    /// Set when either side's fill degraded (retries or quarantines);
    /// `None` on the zero-fault path.
    pub degraded: Option<DegradedEnsemble>,
}

/// Runs the experimental side of the statistical front end against a
/// prepared control ensemble: `n_experiment` runs of `exp_model` under
/// `exp_cfg`, the ECT verdict/failure rate, and affected-output selection
/// with both §3 methods.
///
/// This is the engine behind [`crate::RcaSession::statistics_scenario`]
/// and [`crate::RcaSession::diagnose_scenario`]: the same cached ensemble
/// serves every paper experiment and every injected-fault scenario. A
/// plain configuration fills from the base program's fill under that
/// configuration (built here on first use): only the variant's cone runs
/// when the base describes the variant, with the same bits as a fill of
/// its own.
pub(crate) fn evaluate_against_ensemble(
    ens: &EnsembleStats,
    exp_program: &Arc<Program>,
    exp_cfg: &RunConfig,
    setup: &ExperimentSetup,
    (base, base_fills): (&Arc<Program>, &BaseFills),
) -> Result<ExperimentData, RcaError> {
    let exp_perts = perturbations(setup.n_experiment, IC_MAGNITUDE, setup.seed ^ 0xDEAD);
    let exp_store = {
        let _span = rca_obs::span("statistics.experiment_fill");
        let base_fill = exp_cfg
            .is_plain()
            .then(|| base_fills.get(base, exp_cfg, &exp_perts));
        let base = base_fill.as_deref().map(|fill| (&**base, fill));
        EnsembleRuns::run_history(exp_program, exp_cfg, &exp_perts, MAX_RETRIES, base)
    };
    let exp_health = EnsembleHealth::of(&exp_store);
    let quorum = experiment_quorum(setup.n_experiment);
    if (exp_health.surviving as usize) < quorum {
        let cause = exp_store
            .first_failure()
            .map(|(m, e)| format!("; first failure: member {m}: {e}"))
            .unwrap_or_default();
        return Err(RcaError::Stats(format!(
            "experimental runs below quorum: {} of {} survived (minimum {quorum}){cause}",
            exp_health.surviving, setup.n_experiment
        )));
    }
    let degraded = if ens.health.degraded() || exp_health.degraded() {
        Some(DegradedEnsemble {
            control: ens.health,
            experimental: exp_health,
        })
    } else {
        None
    };

    let eval_step = setup.steps - 1;
    // One merge over the two sorted output tables pairs each kept
    // ensemble column with the experimental column of the same name —
    // id for id when the tables are equal, which they almost always are
    // (mutations patch assignments, not `outfld` calls). A column that is
    // missing from the experiment or not finite in every surviving
    // experimental run drops out on both sides.
    let exp_table = exp_store.output_names();
    let mut exp_kept = exp_store
        .finite_outputs_at(eval_step)
        .into_iter()
        .peekable();
    let (positions, exp_cols): (Vec<usize>, Vec<u32>) = ens
        .names
        .iter()
        .enumerate()
        .filter_map(|(p, name)| {
            while exp_kept
                .next_if(|&j| *exp_table[j as usize] < **name)
                .is_some()
            {}
            exp_kept
                .next_if(|&j| *exp_table[j as usize] == **name)
                .map(|j| (p, j))
        })
        .unzip();
    let full_match = positions.len() == ens.names.len();
    let names: Vec<String> = positions.iter().map(|&p| ens.names[p].clone()).collect();
    let ensemble = if full_match {
        ens.matrix.clone()
    } else {
        ens.matrix.gather_cols(&positions)
    };
    let experimental = exp_store.matrix_at(eval_step, &exp_cols);

    // ECT: verdict on the first 3 experimental runs, failure rate over all
    // 3-run sets. The prefit ECT is reused when every kept ensemble column
    // survives the merge (then `ensemble` is the fitted matrix and a
    // refit, `Ect::fit` being deterministic, would return the same
    // model); otherwise it refits on the surviving columns.
    let (verdict, failure_rate) = {
        let _span = rca_obs::span("statistics.ect");
        let refit;
        let ect = if full_match {
            &ens.ect
        } else {
            refit = Ect::fit(&ensemble, setup.ect);
            &refit
        };
        let head: Vec<Vec<f64>> = (0..3.min(experimental.rows()))
            .map(|i| experimental.row(i).to_vec())
            .collect();
        (
            ect.evaluate(&Matrix::from_row_slices(&head)),
            ect.failure_rate(&experimental, 3),
        )
    };

    // Variable selection (§3).
    let median_ranking: Vec<(String, f64)> = {
        let _span = rca_obs::span("statistics.ranking");
        median_distance_selection(&ensemble, &experimental, false)
            .iter()
            .map(|s| (names[s.index].clone(), s.median_distance))
            .collect()
    };

    let lasso_selected: Vec<String> = {
        let _span = rca_obs::span("statistics.lasso");
        let mut all_rows: Vec<Vec<f64>> = Vec::new();
        let mut labels = Vec::new();
        for i in 0..ensemble.rows() {
            all_rows.push(ensemble.row(i).to_vec());
            labels.push(0.0);
        }
        for i in 0..experimental.rows() {
            all_rows.push(experimental.row(i).to_vec());
            labels.push(1.0);
        }
        let lasso = fit_lasso_path(
            &Matrix::from_row_slices(&all_rows),
            &labels,
            LASSO_TARGET,
            30,
            500,
        );
        lasso
            .selected()
            .into_iter()
            .map(|i| names[i].clone())
            .collect()
    };

    Ok(ExperimentData {
        verdict,
        failure_rate,
        output_names: names,
        lasso_selected,
        median_ranking,
        ensemble,
        experimental,
        degraded,
    })
}

/// One-shot convenience over [`collect_ensemble`] +
/// [`evaluate_against_ensemble`] for a paper experiment on the test-scale
/// model, without a session cache.
#[cfg(test)]
fn collect_statistics(
    experiment: Experiment,
    setup: &ExperimentSetup,
) -> Result<ExperimentData, RcaError> {
    let base_model = Arc::new(rca_model::generate(&rca_model::ModelConfig::test()));
    let base_program = rca_sim::compile_model(&base_model)?;
    let ens = collect_ensemble(&base_program, setup)?;
    let scenario = crate::Scenario::paper(&base_model, setup, experiment);
    let exp_program = rca_sim::compile_model(&scenario.model)?;
    let base = (&base_program, &BaseFills::default());
    evaluate_against_ensemble(&ens, &exp_program, &scenario.config, setup, base)
}

impl ExperimentData {
    /// Picks the affected-output list for slicing: lasso selections first,
    /// topped up from the median-distance ranking. The paper notes the two
    /// methods "mostly coincide"; with perfectly separable classes the
    /// lasso saturates on very few variables, so the median ranking fills
    /// the rest.
    pub fn affected_outputs(&self, max_vars: usize) -> Vec<String> {
        let mut out: Vec<String> = self.lasso_selected.iter().take(max_vars).cloned().collect();
        for (name, _) in &self.median_ranking {
            if out.len() >= max_vars {
                break;
            }
            if !out.contains(name) {
                out.push(name.clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_defaults_scale_with_set_size() {
        assert_eq!(control_quorum(36), 18);
        assert_eq!(control_quorum(24), 12);
        assert_eq!(control_quorum(4), 3, "floor of 3 control members");
        assert_eq!(control_quorum(2), 2, "floor capped at the set size");
        assert_eq!(experiment_quorum(12), 3, "one pyCECT run-set");
        assert_eq!(experiment_quorum(2), 2);
    }

    #[test]
    fn zero_fault_statistics_report_no_degradation() {
        let data = collect_statistics(Experiment::Control, &ExperimentSetup::quick()).unwrap();
        assert_eq!(data.degraded, None, "healthy fills must not be flagged");
    }

    #[test]
    fn control_passes_ect() {
        let data = collect_statistics(Experiment::Control, &ExperimentSetup::quick()).unwrap();
        assert_eq!(data.verdict, Verdict::Pass, "control must be consistent");
        assert!(data.failure_rate < 0.5, "rate {}", data.failure_rate);
    }

    #[test]
    fn wsubbug_fails_ect_and_median_dominates() {
        let data = collect_statistics(Experiment::WsubBug, &ExperimentSetup::quick()).unwrap();
        assert_eq!(data.verdict, Verdict::Fail);
        // §6.1: "the distance between the experimental and ensemble
        // medians for this variable is more than 1,000 times greater than
        // for the variable ranked second."
        assert_eq!(data.median_ranking[0].0, "wsub");
        let ratio = data.median_ranking[0].1 / data.median_ranking[1].1.max(1e-300);
        assert!(ratio > 1000.0, "dominance ratio {ratio}");
    }

    #[test]
    fn goffgratch_fails_and_selects_cloud_outputs() {
        let data = collect_statistics(Experiment::GoffGratch, &ExperimentSetup::quick()).unwrap();
        assert_eq!(data.verdict, Verdict::Fail);
        let affected = data.affected_outputs(10);
        assert!(!affected.is_empty());
        // The selected set should overlap the paper's Table-2 outputs
        // (cloud/microphysics variables).
        let table2 = Experiment::GoffGratch.table2_outputs();
        let overlap = affected
            .iter()
            .filter(|o| table2.contains(&o.as_str()))
            .count();
        assert!(overlap >= 1, "affected {affected:?} vs table2 {table2:?}");
    }

    #[test]
    fn randmt_fails_ect() {
        let data = collect_statistics(Experiment::RandMt, &ExperimentSetup::quick()).unwrap();
        assert_eq!(data.verdict, Verdict::Fail);
        let affected = data.affected_outputs(5);
        // Longwave outputs must appear (flds/flns/qrl are directly
        // PRNG-driven).
        assert!(
            affected
                .iter()
                .any(|o| ["flds", "flns", "qrl", "fsds", "qrs"].contains(&o.as_str())),
            "{affected:?}"
        );
    }

    #[test]
    fn dyn3bug_selects_dynamics_outputs() {
        let data = collect_statistics(Experiment::Dyn3Bug, &ExperimentSetup::quick()).unwrap();
        assert_eq!(data.verdict, Verdict::Fail);
        let affected = data.affected_outputs(6);
        let dyn_outputs = ["vv", "omega", "z3", "uu", "omegat", "ps"];
        let overlap = affected
            .iter()
            .filter(|o| dyn_outputs.contains(&o.as_str()))
            .count();
        assert!(overlap >= 1, "{affected:?}");
    }
}
