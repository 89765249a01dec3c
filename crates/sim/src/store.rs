//! The columnar run store: one contiguous ensemble data plane.
//!
//! The paper's method is ensemble-statistical — every diagnosis pays for
//! `n_ensemble + n_experiment` full model runs before a single PCA/ECT
//! step — and before this module each of those runs allocated its own
//! ragged `Vec<Vec<f64>>` history, each member cloned the global arena
//! from scratch, and the statistics layer re-copied everything
//! element-by-element into a matrix. [`EnsembleRuns`] replaces all of
//! that with **one contiguous block** of `members × steps × outputs`
//! history values plus positional sample and coverage arenas:
//!
//! - each rayon worker leases one pooled [`Executor`] and runs its chunk
//!   of members through the reset-and-reuse protocol (arena restored in
//!   place, frames pooled, PRNG reseeded) — zero steady-state allocation;
//! - a finished member publishes its flat step-major history into the
//!   store with a single memcpy;
//! - the evaluation-step plane of every member is a contiguous
//!   `outputs`-wide slice, so ensemble/ECT matrices gather straight out
//!   of it ([`rca_stats::Matrix::from_fn`]) without hashing a name or
//!   allocating intermediate rows.
//!
//! The store is the only multi-run container: a caller that wants one
//! member as the owned single-run edge type calls
//! [`EnsembleRuns::materialize`], which reconstructs the
//! [`crate::RunOutput`] `run_program` would have produced, bit for bit.
//!
//! The statistics fills ([`EnsembleRuns::run_history`]) decide here, and
//! nowhere else, which program their members run: at most one slice of
//! the filled program — a delta variant's cone slice over its base
//! program's fill, or else the program's own history slice — and the
//! full program only when a slice member fails or the configuration is
//! not plain.
//!
//! [`RunCoverage`] is the id-keyed executed-subprogram set — coverage
//! pairs are `(ModuleId, VarId)` over the program's interner, and strings
//! are rendered only at the edges (calibration marking, reports, tests).

use crate::exec::Executor;
use crate::interp::{RunConfig, RuntimeError};
use crate::program::Program;
use crate::runner::RunOutput;
use rayon::prelude::*;
use rca_ident::{ModuleId, SymbolTable, VarId};
use rca_stats::Matrix;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// RunCoverage
// ---------------------------------------------------------------------------

/// Executed `(module, subprogram)` pairs of one run, keyed by the identity
/// plane: `ModuleId` for the module, the interned `VarId` of the
/// subprogram name. Pairs are held sorted by their rendered
/// `(module, subprogram)` names and deduplicated, so the string edge
/// ([`RunCoverage::iter`] / [`RunCoverage::to_pairs`]) reproduces the
/// legacy `Vec<(String, String)>` ordering byte-for-byte.
#[derive(Clone)]
pub struct RunCoverage {
    syms: Arc<SymbolTable>,
    ids: Vec<(ModuleId, VarId)>,
}

impl RunCoverage {
    /// The ordering invariant every constructor establishes: pairs sorted
    /// by their rendered `(module, subprogram)` names (what `iter`
    /// renders and `contains` binary-searches), deduplicated.
    fn finish(syms: Arc<SymbolTable>, mut ids: Vec<(ModuleId, VarId)>) -> RunCoverage {
        ids.sort_by(|a, b| {
            (syms.module(a.0), syms.var(a.1)).cmp(&(syms.module(b.0), syms.var(b.1)))
        });
        ids.dedup();
        RunCoverage { syms, ids }
    }

    /// Builds from an executor's covered-proc bitmap over the program's
    /// interner (no string copies — ids only, sorted by rendered name).
    pub(crate) fn from_program(program: &Arc<Program>, covered: &[bool]) -> RunCoverage {
        let syms = Arc::clone(program.symbols());
        let ids: Vec<(ModuleId, VarId)> = covered
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c)
            .filter_map(|(i, _)| program.proc_identity(i, &syms))
            .collect();
        Self::finish(syms, ids)
    }

    /// Builds from string pairs (the tree-walking reference engine, which
    /// has no interner): names are interned into a private table here, at
    /// the edge.
    pub fn from_pairs<'a>(pairs: impl IntoIterator<Item = (&'a str, &'a str)>) -> RunCoverage {
        let mut syms = SymbolTable::new();
        let ids: Vec<(ModuleId, VarId)> = pairs
            .into_iter()
            .map(|(m, s)| (syms.intern_module(m), syms.intern_var(s)))
            .collect();
        Self::finish(Arc::new(syms), ids)
    }

    /// Rendered `(module, subprogram)` pairs, sorted — the string edge,
    /// borrowing straight out of the interner.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.ids
            .iter()
            .map(|&(m, s)| (self.syms.module(m), self.syms.var(s)))
    }

    /// Owned rendered pairs (legacy shape, for tests and serialization).
    pub fn to_pairs(&self) -> Vec<(String, String)> {
        self.iter()
            .map(|(m, s)| (m.to_string(), s.to_string()))
            .collect()
    }

    /// Whether `(module, subprogram)` was executed (binary search over the
    /// name-sorted pairs — no allocation).
    pub fn contains(&self, module: &str, subprogram: &str) -> bool {
        self.ids
            .binary_search_by(|&(m, s)| {
                (self.syms.module(m), self.syms.var(s)).cmp(&(module, subprogram))
            })
            .is_ok()
    }

    /// Number of executed pairs.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether nothing executed.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

impl PartialEq for RunCoverage {
    /// Coverage sets compare by their rendered pairs (ids are table-local).
    fn eq(&self, other: &RunCoverage) -> bool {
        self.ids.len() == other.ids.len() && self.iter().eq(other.iter())
    }
}

impl Eq for RunCoverage {}

impl std::fmt::Debug for RunCoverage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

// ---------------------------------------------------------------------------
// EnsembleRuns
// ---------------------------------------------------------------------------

/// A whole ensemble as one columnar block: `members × steps × outputs`
/// history values in a single contiguous `Vec<f64>` (member-major, each
/// member's chunk step-major), written in place by pooled executors and
/// consumed by direct indexing — no per-run ragged vectors, no
/// re-assembly between the executor and the ECT.
///
/// Layout invariants:
/// - `data[member * steps * outputs + step * outputs + out]` is the mean
///   of output `out` at `step` in `member`'s run; unwritten cells are NaN;
/// - `written[member * outputs + out]` is the series length (`1 + last
///   written step`, 0 = never written), preserving the ragged legacy
///   semantics exactly;
/// - `covered[member * procs + p]` is the coverage bitmap;
/// - `samples[member]` is positional over `config.samples`.
#[derive(Clone)]
pub struct EnsembleRuns {
    program: Arc<Program>,
    members: usize,
    steps: usize,
    outputs: usize,
    data: Vec<f64>,
    written: Vec<u32>,
    covered: Vec<bool>,
    samples: Vec<Vec<Option<Vec<f64>>>>,
    /// Per-member outcome of the fill, in perturbation order. All
    /// [`MemberHealth::Healthy`] on the zero-fault path.
    health: Vec<MemberHealth>,
}

/// Outcome of one ensemble member's fill under the retry policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemberHealth {
    /// First attempt succeeded.
    Healthy,
    /// A retry with a derived perturbation succeeded after `retries`
    /// failed attempts.
    Recovered {
        /// Number of failed attempts before success.
        retries: u32,
    },
    /// Every attempt failed; the member's store chunk is untouched
    /// (NaN data, zero written lengths) and consumers must skip it.
    Quarantined {
        /// The final attempt's failure.
        error: RuntimeError,
    },
}

impl MemberHealth {
    /// Whether the member is excluded from statistics.
    pub fn is_quarantined(&self) -> bool {
        matches!(self, MemberHealth::Quarantined { .. })
    }
}

/// Derived perturbation for retry `attempt` (0 = the original): a
/// relative nudge at the same magnitude scale, so a recovered member is
/// still a valid draw from the perturbation distribution.
fn retry_pert(pert: f64, attempt: u32) -> f64 {
    if attempt == 0 {
        pert
    } else {
        pert * (1.0 + f64::from(attempt) * 1e-3)
    }
}

/// The fault oracle: what [`EnsembleRuns::run_resilient`] records for
/// `member` under `config.faults`, predicted from zero-fault runs alone.
///
/// Aborts only cut a run short and poison/stuck faults act only on
/// recorded values, so the first attempt in `0..=max_retries` that no
/// abort strikes survives with the zero-fault history at that attempt's
/// derived perturbation, under [`crate::FaultPlan::apply_to_history`].
/// `clean_history` supplies that zero-fault history (one series per
/// output id of the program) from any engine. Returns the surviving
/// attempt and its history, or `None` when every attempt aborts and the
/// member is quarantined.
pub fn predict_member(
    config: &RunConfig,
    member: u32,
    pert: f64,
    max_retries: u32,
    clean_history: impl FnOnce(f64) -> Vec<Vec<f64>>,
) -> Option<(u32, Vec<Vec<f64>>)> {
    let attempt = (0..=max_retries).find(|&a| !config.faults.aborts(member, a, config.steps))?;
    let mut history = clean_history(retry_pert(pert, attempt));
    config
        .faults
        .apply_to_history(member, attempt, &mut history);
    Some((attempt, history))
}

/// What a fill does with a member whose run fails.
#[derive(Clone, Copy)]
enum OnFailure {
    /// Retry up to this many times with derived perturbations, then
    /// quarantine; both are announced as telemetry.
    Retry(u32),
    /// Record the failure silently: the caller discards the whole fill.
    Discard,
}

/// Counts one kept fill of `members` members.
fn count_fill(members: usize) {
    rca_obs::counter_inc!("ensemble.fills", 1);
    rca_obs::counter_inc!("ensemble.members", members as u64);
}

/// What a statistics fill shares with its base ([`EnsembleRuns::run_history`]):
/// the base program, of which the filled program is a delta variant, and
/// the base program's own fill under the same run configuration and
/// perturbations.
pub type FillBase<'a> = (&'a Program, &'a EnsembleRuns);

/// What a plain statistics fill runs ([`EnsembleRuns::run_history`]).
enum Plan<'a> {
    /// Nothing: the cone is empty, so the fill is a copy of this base fill.
    BaseFill(&'a EnsembleRuns),
    /// The cone slice, whose fill's columns of these outputs are spliced
    /// into a copy of the base fill.
    Cone(Arc<Program>, Vec<u32>, &'a EnsembleRuns),
    /// The program's own history slice; `None` when nothing prunes.
    History(Option<&'a Arc<Program>>),
}

impl EnsembleRuns {
    /// Runs one ensemble member per perturbation in parallel, writing
    /// every run into the store in place. Each rayon worker leases one
    /// executor ([`Executor::new`] once per worker, [`Executor::reset`]
    /// between members) so the steady-state fill allocates nothing beyond
    /// the store itself.
    ///
    /// Fail-fast compatibility wrapper over
    /// [`EnsembleRuns::run_resilient`] with zero retries: the first
    /// member failure (in member order) is returned as an error.
    pub fn run(
        program: &Arc<Program>,
        config: &RunConfig,
        perts: &[f64],
    ) -> Result<EnsembleRuns, RuntimeError> {
        let store = Self::run_resilient(program, config, perts, 0);
        match store.first_failure() {
            Some((_, e)) => Err(e.clone()),
            None => Ok(store),
        }
    }

    /// Runs the ensemble with per-member retry and quarantine instead of
    /// fail-fast: a member whose run errors is retried with a derived
    /// perturbation up to `max_retries` times, then quarantined (chunk
    /// left NaN / zero-written, [`MemberHealth::Quarantined`] recorded)
    /// while the rest of the ensemble completes. Transient injected
    /// faults vanish on retry ([`crate::FaultPlan`] semantics); genuine
    /// model errors persist and quarantine the member.
    pub fn run_resilient(
        program: &Arc<Program>,
        config: &RunConfig,
        perts: &[f64],
        max_retries: u32,
    ) -> EnsembleRuns {
        count_fill(perts.len());
        Self::fill(program, config, perts, OnFailure::Retry(max_retries))
    }

    /// The statistics-side fill: [`EnsembleRuns::run_resilient`] with the
    /// members run on one slice of `program` whenever that is safe.
    ///
    /// Member health, written lengths, the output table and every step
    /// plane equal `run_resilient(program, ..)`'s by bits, up to the
    /// specializer's residual: a runtime error the full program raises
    /// only in statements that cannot reach a history write
    /// ([`crate::specialize`]). Coverage bits, samples and
    /// [`EnsembleRuns::program`] are a slice's, so callers that read
    /// coverage use `run_resilient`.
    ///
    /// The fill has these outcomes, and no other:
    /// - a configuration that is not plain ([`RunConfig::is_plain`]: a
    ///   fault plan, a fuel budget or sample captures) takes the full
    ///   fill with retries;
    /// - a plain configuration given a usable base — an all-healthy base
    ///   fill of these members and steps, and base masks that describe
    ///   `program` — fills from the base. The cone
    ///   ([`crate::specialize::output_cone`]: the outputs whose slices
    ///   keep a proc of `program` that is not the base program's live)
    ///   decides how: an empty cone returns a copy of the base fill
    ///   (`ensemble.base_fill_reuse`); any other cone, one of every output
    ///   included, runs the members on the cone slice and splices its
    ///   columns and written lengths into a copy of the base fill
    ///   (`ensemble.cone_fills`, `ensemble.cone_outputs` summing the cone
    ///   sizes). Every output outside the cone is computed by procs
    ///   `program` shares with the base, so its series is the base fill's;
    /// - any other plain configuration runs the members on `program`'s own
    ///   history slice ([`Program::history_program`]), or takes the full
    ///   fill when nothing prunes. A base given but not usable counts
    ///   `ensemble.cone_fallback`.
    ///
    /// A slice runs with zero retries and no retry or quarantine
    /// telemetry, and one failing member discards it (counted once as
    /// `ensemble.history_fallback`) for a full refill that owns every
    /// retry, quarantine and message. A statement outside the cone slice
    /// reads no value `program` changes, so it behaves as in the base,
    /// whose fill succeeded: the residual stays the history slice's.
    pub fn run_history(
        program: &Arc<Program>,
        config: &RunConfig,
        perts: &[f64],
        max_retries: u32,
        base: Option<FillBase<'_>>,
    ) -> EnsembleRuns {
        if !config.is_plain() {
            return Self::run_resilient(program, config, perts, max_retries);
        }
        let (slice, splice) = match Self::plan(program, config, perts, base) {
            Plan::BaseFill(base_fill) => {
                rca_obs::counter_inc!("ensemble.base_fill_reuse", 1);
                return base_fill.clone();
            }
            Plan::Cone(slice, outputs, base_fill) => (slice, Some((outputs, base_fill))),
            Plan::History(Some(history)) => (Arc::clone(history), None),
            Plan::History(None) => return Self::run_resilient(program, config, perts, max_retries),
        };
        let fill = Self::fill(&slice, config, perts, OnFailure::Discard);
        if fill.first_failure().is_some() {
            rca_obs::counter_inc!("ensemble.history_fallback", 1);
            return Self::run_resilient(program, config, perts, max_retries);
        }
        count_fill(perts.len());
        let Some((outputs, base_fill)) = splice else {
            return fill;
        };
        rca_obs::counter_inc!("ensemble.cone_fills", 1);
        rca_obs::counter_inc!("ensemble.cone_outputs", outputs.len() as u64);
        let mut store = base_fill.clone();
        let width = store.outputs;
        for member in 0..store.members {
            for step in 0..store.steps {
                let row = (member * store.steps + step) * width;
                for &o in &outputs {
                    store.data[row + o as usize] = fill.data[row + o as usize];
                }
            }
            for &o in &outputs {
                let at = member * width + o as usize;
                store.written[at] = fill.written[at];
            }
        }
        store.program = fill.program;
        store
    }

    /// The slice a plain [`EnsembleRuns::run_history`] fill runs.
    fn plan<'a>(
        program: &'a Arc<Program>,
        config: &RunConfig,
        perts: &[f64],
        base: Option<FillBase<'a>>,
    ) -> Plan<'a> {
        if let Some((base, base_fill)) = base {
            let usable = base_fill.members == perts.len()
                && base_fill.steps == config.steps as usize
                && base_fill.health.iter().all(|h| *h == MemberHealth::Healthy);
            if usable {
                let _span = rca_obs::span("statistics.cone");
                if let Some(cone) = crate::specialize::cone(program, base) {
                    let outputs = cone.outputs();
                    return if outputs.is_empty() {
                        Plan::BaseFill(base_fill)
                    } else {
                        Plan::Cone(cone.slice(program), outputs, base_fill)
                    };
                }
            }
            rca_obs::counter_inc!("ensemble.cone_fallback", 1);
        }
        Plan::History(program.history_program())
    }

    /// One member per perturbation, in parallel, written into the store
    /// in place; `on_failure` decides what a failing member does.
    fn fill(
        program: &Arc<Program>,
        config: &RunConfig,
        perts: &[f64],
        on_failure: OnFailure,
    ) -> EnsembleRuns {
        let members = perts.len();
        let steps = config.steps as usize;
        let outputs = program.output_count();
        let procs = program.proc_count();
        let mut data = vec![f64::NAN; members * steps * outputs];
        let mut written = vec![0u32; members * outputs];
        let mut covered = vec![false; members * procs];
        let mut samples: Vec<Vec<Option<Vec<f64>>>> = Vec::new();
        samples.resize_with(members, Vec::new);

        // One work item per member: disjoint &mut chunks of the store
        // (split explicitly so degenerate shapes — zero outputs, zero
        // steps — still produce one item per member).
        struct Slot<'a> {
            member: u32,
            hist: &'a mut [f64],
            written: &'a mut [u32],
            covered: &'a mut [bool],
            samples: &'a mut Vec<Option<Vec<f64>>>,
            pert: f64,
        }
        let chunk = steps * outputs;
        let mut items: Vec<Slot<'_>> = Vec::with_capacity(members);
        {
            let mut hist_rest: &mut [f64] = &mut data;
            let mut written_rest: &mut [u32] = &mut written;
            let mut covered_rest: &mut [bool] = &mut covered;
            for (member, (samples, &pert)) in samples.iter_mut().zip(perts.iter()).enumerate() {
                let (hist, hr) = hist_rest.split_at_mut(chunk);
                let (written, wr) = written_rest.split_at_mut(outputs);
                let (covered, cr) = covered_rest.split_at_mut(procs);
                hist_rest = hr;
                written_rest = wr;
                covered_rest = cr;
                items.push(Slot {
                    member: member as u32,
                    hist,
                    written,
                    covered,
                    samples,
                    pert,
                });
            }
        }
        let health: Vec<MemberHealth> = items
            .into_par_iter()
            .map_init(
                || Executor::new(Arc::clone(program), config),
                |ex, slot| {
                    let mut attempt = 0u32;
                    loop {
                        ex.reset();
                        ex.begin_member(slot.member, attempt);
                        match ex.drive(retry_pert(slot.pert, attempt)) {
                            Ok(()) => {
                                // Publish: one memcpy for the rows the run
                                // actually reached (the store is
                                // NaN-prefilled past them).
                                let n = ex.history.len().min(slot.hist.len());
                                slot.hist[..n].copy_from_slice(&ex.history[..n]);
                                slot.written.copy_from_slice(&ex.written);
                                slot.covered.copy_from_slice(&ex.covered);
                                *slot.samples = std::mem::take(&mut ex.samples);
                                ex.samples.resize(config.samples.len(), None);
                                return if attempt == 0 {
                                    MemberHealth::Healthy
                                } else {
                                    MemberHealth::Recovered { retries: attempt }
                                };
                            }
                            Err(error) => match on_failure {
                                OnFailure::Retry(max) if attempt < max => {
                                    rca_obs::counter_inc!("ensemble.member_retry", 1);
                                    rca_obs::event(
                                        "ensemble.member_retry",
                                        &[
                                            ("member", u64::from(slot.member).into()),
                                            ("attempt", u64::from(attempt).into()),
                                            ("error", error.to_string().into()),
                                        ],
                                    );
                                    attempt += 1;
                                }
                                OnFailure::Retry(_) => {
                                    rca_obs::counter_inc!("ensemble.quarantined", 1);
                                    rca_obs::event(
                                        "ensemble.quarantined",
                                        &[
                                            ("member", u64::from(slot.member).into()),
                                            ("attempts", u64::from(attempt + 1).into()),
                                            ("error", error.to_string().into()),
                                        ],
                                    );
                                    return MemberHealth::Quarantined { error };
                                }
                                OnFailure::Discard => return MemberHealth::Quarantined { error },
                            },
                        }
                    }
                },
            )
            .collect();
        EnsembleRuns {
            program: Arc::clone(program),
            members,
            steps,
            outputs,
            data,
            written,
            covered,
            samples,
            health,
        }
    }

    /// Per-member fill outcomes, in perturbation order.
    pub fn health(&self) -> &[MemberHealth] {
        &self.health
    }

    /// Member indices that survived the fill (not quarantined), in order.
    pub fn surviving(&self) -> Vec<usize> {
        (0..self.members)
            .filter(|&m| !self.health[m].is_quarantined())
            .collect()
    }

    /// Number of surviving (non-quarantined) members.
    pub fn surviving_count(&self) -> usize {
        self.health.iter().filter(|h| !h.is_quarantined()).count()
    }

    /// Number of quarantined members.
    pub fn quarantined_count(&self) -> usize {
        self.members - self.surviving_count()
    }

    /// Number of members that recovered via retry.
    pub fn recovered_count(&self) -> usize {
        self.health
            .iter()
            .filter(|h| matches!(h, MemberHealth::Recovered { .. }))
            .count()
    }

    /// The lowest-index quarantined member and its error, if any.
    pub fn first_failure(&self) -> Option<(usize, &RuntimeError)> {
        self.health.iter().enumerate().find_map(|(m, h)| match h {
            MemberHealth::Quarantined { error } => Some((m, error)),
            _ => None,
        })
    }

    /// Number of ensemble members held.
    pub fn members(&self) -> usize {
        self.members
    }

    /// Step capacity per member (the run configuration's step count).
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Width of the output dimension (the program's `OutputId` space).
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// The shared sorted output table (`OutputId` space).
    pub fn output_names(&self) -> &Arc<[Arc<str>]> {
        self.program.output_names()
    }

    /// The program every member executed.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Dense index of `name` in the output table.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.program
            .output_names()
            .binary_search_by(|n| (**n).cmp(name))
            .ok()
    }

    /// The contiguous `outputs`-wide plane of `member` at `step` — the
    /// slice ensemble matrices are built from. Cells of outputs not
    /// written by `step` are NaN; pair with [`EnsembleRuns::written_of`]
    /// or a [`EnsembleRuns::finite_outputs_at`] keep-set.
    pub fn step_plane(&self, member: usize, step: usize) -> &[f64] {
        assert!(member < self.members && step < self.steps, "out of range");
        let start = member * self.steps * self.outputs + step * self.outputs;
        &self.data[start..start + self.outputs]
    }

    /// Per-output series lengths of one member.
    pub fn written_of(&self, member: usize) -> &[u32] {
        &self.written[member * self.outputs..(member + 1) * self.outputs]
    }

    /// Value of output `out` at `step` in `member`'s run, if that step is
    /// within the output's written series.
    pub fn value(&self, member: usize, out: usize, step: usize) -> Option<f64> {
        (step < self.written_of(member)[out] as usize).then(|| self.step_plane(member, step)[out])
    }

    /// Dense output ids whose series are present and finite at `step` in
    /// **every surviving** member — the keep-set ensemble/ECT matrices
    /// are built from. Quarantined members are skipped (their chunks are
    /// all-NaN and would empty the keep-set); with zero survivors the
    /// keep-set is empty. Pure plane indexing, no hashing, no fallback:
    /// one store always means one program and one output table.
    pub fn finite_outputs_at(&self, step: u32) -> Vec<u32> {
        let (step, members) = (step as usize, self.surviving());
        if step >= self.steps || members.is_empty() {
            return Vec::new();
        }
        (0..self.outputs)
            .filter(|&o| {
                members
                    .iter()
                    .all(|&m| self.value(m, o, step).is_some_and(f64::is_finite))
            })
            .map(|o| o as u32)
            .collect()
    }

    /// Assembles the `surviving × kept` output matrix at `step` straight
    /// out of the store, each cell gathered from a surviving member's
    /// step plane. `kept` holds dense output ids (e.g. from
    /// [`EnsembleRuns::finite_outputs_at`]); quarantined members
    /// contribute no row, so a zero-fault store yields exactly the legacy
    /// `members × kept` matrix.
    pub fn matrix_at(&self, step: u32, kept: &[u32]) -> Matrix {
        let (step, rows) = (step as usize, self.surviving());
        Matrix::from_fn(rows.len(), kept.len(), |r, c| {
            self.step_plane(rows[r], step)[kept[c] as usize]
        })
    }

    /// The first difference between two fills' statistics data — member
    /// health, the output table, written lengths, or a step-plane cell
    /// compared by bits — or `None` when the two are equal. This is the
    /// equality [`EnsembleRuns::run_history`] promises against
    /// [`EnsembleRuns::run_resilient`]; coverage and samples are not
    /// compared.
    pub fn data_mismatch(&self, other: &EnsembleRuns) -> Option<String> {
        if self.health != other.health {
            return Some(format!("health {:?} != {:?}", self.health, other.health));
        }
        if self.output_names() != other.output_names() || self.steps != other.steps {
            return Some("output table or step count differs".to_string());
        }
        for m in 0..self.members {
            if self.written_of(m) != other.written_of(m) {
                return Some(format!("member {m}: written lengths differ"));
            }
            for step in 0..self.steps {
                let (a, b) = (self.step_plane(m, step), other.step_plane(m, step));
                if let Some(o) = (0..self.outputs).find(|&o| a[o].to_bits() != b[o].to_bits()) {
                    return Some(format!(
                        "member {m} step {step} output {}: {:e} != {:e}",
                        self.output_names()[o],
                        a[o],
                        b[o]
                    ));
                }
            }
        }
        None
    }

    /// Materializes one member as the owned single-run edge type:
    /// ragged per-output series, cloned samples, rendered-sorted coverage
    /// — bit-identical to what [`crate::run_program`] produces for that
    /// member's perturbation.
    pub fn materialize(&self, member: usize) -> RunOutput {
        assert!(member < self.members, "member {member} out of range");
        let written = self.written_of(member);
        let history = (0..self.outputs)
            .map(|o| {
                (0..written[o] as usize)
                    .map(|s| self.step_plane(member, s)[o])
                    .collect()
            })
            .collect();
        let procs = self.program.proc_count();
        RunOutput {
            output_names: Arc::clone(self.output_names()),
            history,
            samples: self.samples[member].clone(),
            coverage: RunCoverage::from_program(
                &self.program,
                &self.covered[member * procs..(member + 1) * procs],
            ),
        }
    }
}

impl std::fmt::Debug for EnsembleRuns {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnsembleRuns")
            .field("members", &self.members)
            .field("steps", &self.steps)
            .field("outputs", &self.outputs)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{compile_model, perturbations, run_program};
    use proptest::prelude::*;
    use rca_model::{generate, ModelConfig};

    fn cfg() -> RunConfig {
        RunConfig {
            steps: 3,
            ..Default::default()
        }
    }

    #[test]
    fn store_matches_per_run_outputs_bit_for_bit() {
        let model = generate(&ModelConfig::test());
        let program = compile_model(&model).expect("compile");
        let perts = perturbations(4, 1e-14, 0xAB);
        let store = EnsembleRuns::run(&program, &cfg(), &perts).expect("store");
        assert_eq!(store.members(), 4);
        let bits = |s: &[f64]| -> Vec<u64> { s.iter().map(|x| x.to_bits()).collect() };
        for (i, &p) in perts.iter().enumerate() {
            let direct = run_program(&program, &cfg(), p).expect("run");
            let materialized = store.materialize(i);
            assert_eq!(materialized.history.len(), direct.history.len());
            for (o, series) in direct.history.iter().enumerate() {
                assert_eq!(bits(&materialized.history[o]), bits(series), "member {i}");
                // Indexed store reads agree with the standalone series.
                assert_eq!(store.written_of(i)[o] as usize, series.len());
                let read: Vec<f64> = (0..series.len())
                    .map(|s| store.value(i, o, s).expect("written"))
                    .collect();
                assert_eq!(bits(&read), bits(series), "member {i} output {o}");
            }
            assert_eq!(materialized.samples, direct.samples);
            assert_eq!(materialized.coverage, direct.coverage);
        }
    }

    #[test]
    fn finite_keep_set_and_matrix_agree_with_legacy_assembly() {
        // The legacy assembly, rebuilt from standalone runs: a column is
        // kept when its series is written and finite at the step in every
        // run, and matrix cells index the per-run series directly.
        let model = generate(&ModelConfig::test());
        let program = compile_model(&model).expect("compile");
        let perts = perturbations(3, 1e-14, 0xEE);
        let store = EnsembleRuns::run(&program, &cfg(), &perts).expect("store");
        let runs: Vec<RunOutput> = perts
            .iter()
            .map(|&p| run_program(&program, &cfg(), p).expect("run"))
            .collect();
        let legacy: Vec<u32> = (0..program.output_count() as u32)
            .filter(|&o| {
                runs.iter()
                    .all(|r| r.history[o as usize].get(2).is_some_and(|x| x.is_finite()))
            })
            .collect();
        let kept = store.finite_outputs_at(2);
        assert_eq!(kept, legacy);
        assert!(kept.len() > 20, "expected many outputs, got {}", kept.len());
        let m = store.matrix_at(2, &kept);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), kept.len());
        for (r, run) in runs.iter().enumerate() {
            for (c, &k) in kept.iter().enumerate() {
                assert_eq!(m[(r, c)].to_bits(), run.history[k as usize][2].to_bits());
            }
        }
    }

    #[test]
    fn coverage_is_id_keyed_and_renders_sorted() {
        let model = generate(&ModelConfig::test());
        let program = compile_model(&model).expect("compile");
        let store = EnsembleRuns::run(&program, &cfg(), &[0.0]).expect("store");
        let cov = store.materialize(0).coverage;
        assert!(!cov.is_empty());
        assert!(cov.contains("micro_mg", "micro_mg_tend"));
        assert!(!cov.contains("micro_mg", "no_such_subprogram"));
        let pairs = cov.to_pairs();
        let mut sorted = pairs.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(pairs, sorted, "rendered pairs must be sorted + deduped");
        // Round-trip through the string edge.
        let back = RunCoverage::from_pairs(pairs.iter().map(|(m, s)| (m.as_str(), s.as_str())));
        assert_eq!(back, cov);
    }

    #[test]
    fn empty_ensemble_is_fine() {
        let model = generate(&ModelConfig::test());
        let program = compile_model(&model).expect("compile");
        let store = EnsembleRuns::run(&program, &cfg(), &[]).expect("store");
        assert_eq!(store.members(), 0);
        assert!(store.finite_outputs_at(0).is_empty());
        assert_eq!(store.matrix_at(0, &[]).rows(), 0);
    }

    #[test]
    fn resilient_fill_retries_transient_faults_and_quarantines_persistent_ones() {
        use crate::fault::{Fault, FaultKind, FaultPlan};
        let model = generate(&ModelConfig::test());
        let program = compile_model(&model).expect("compile");
        let perts = perturbations(4, 1e-14, 0x51);
        let config = RunConfig {
            faults: FaultPlan {
                faults: vec![
                    // Transient: aborts the first attempt only.
                    Fault {
                        member: 1,
                        step: 1,
                        output: 0,
                        kind: FaultKind::Abort,
                        persistent: false,
                    },
                    // Persistent: aborts every attempt.
                    Fault {
                        member: 2,
                        step: 1,
                        output: 0,
                        kind: FaultKind::Abort,
                        persistent: true,
                    },
                ],
            },
            ..cfg()
        };
        // Fail-fast entry point: the first failure surfaces as an error.
        assert!(EnsembleRuns::run(&program, &config, &perts).is_err());
        // Resilient entry point: retry what recovers, quarantine the rest.
        let store = EnsembleRuns::run_resilient(&program, &config, &perts, 2);
        assert_eq!(store.health()[0], MemberHealth::Healthy);
        assert_eq!(store.health()[1], MemberHealth::Recovered { retries: 1 });
        assert!(store.health()[2].is_quarantined());
        assert_eq!(store.health()[3], MemberHealth::Healthy);
        assert_eq!(store.surviving(), vec![0, 1, 3]);
        assert_eq!(store.surviving_count(), 3);
        assert_eq!(store.recovered_count(), 1);
        assert_eq!(store.quarantined_count(), 1);
        let (idx, err) = store.first_failure().expect("one quarantined member");
        assert_eq!(idx, 2);
        assert!(err.to_string().contains("member-abort"), "{err}");
        // The keep set and matrix cover survivors only: a quarantined
        // member's zeroed slot must never reach the ECT.
        let kept = store.finite_outputs_at(2);
        assert!(!kept.is_empty());
        let m = store.matrix_at(2, &kept);
        assert_eq!(m.rows(), 3, "one row per surviving member");
        // With every member quarantined nothing survives: empty keep set
        // instead of a panic or a poisoned matrix.
        let all_fail = RunConfig {
            faults: FaultPlan {
                faults: (0..4)
                    .map(|m| Fault {
                        member: m,
                        step: 1,
                        output: 0,
                        kind: FaultKind::Abort,
                        persistent: true,
                    })
                    .collect(),
            },
            ..cfg()
        };
        let dead = EnsembleRuns::run_resilient(&program, &all_fail, &perts, 1);
        assert_eq!(dead.surviving_count(), 0);
        assert_eq!(dead.quarantined_count(), 4);
        assert!(dead.finite_outputs_at(2).is_empty());
    }

    #[test]
    fn poisoned_outputs_fall_out_of_the_keep_set() {
        use crate::fault::{Fault, FaultKind, FaultPlan};
        let model = generate(&ModelConfig::test());
        let program = compile_model(&model).expect("compile");
        let perts = perturbations(3, 1e-14, 0x52);
        let clean = EnsembleRuns::run(&program, &cfg(), &perts).expect("store");
        let kept_clean = clean.finite_outputs_at(2);
        assert!(
            kept_clean.contains(&0),
            "output 0 must be finite when clean"
        );
        // NaN-poison output 0 on one member: the run completes (the
        // member stays healthy — this is the heterogeneous-output path,
        // not the quarantine path) but the poisoned column must drop out
        // of the keep set for every member.
        let config = RunConfig {
            faults: FaultPlan {
                faults: vec![Fault {
                    member: 1,
                    step: 1,
                    output: 0,
                    kind: FaultKind::PoisonNan,
                    persistent: false,
                }],
            },
            ..cfg()
        };
        let poisoned = EnsembleRuns::run(&program, &config, &perts).expect("poison is not fatal");
        assert_eq!(poisoned.surviving_count(), 3, "poisoning kills no member");
        let kept = poisoned.finite_outputs_at(2);
        assert!(!kept.contains(&0), "poisoned output must be excluded");
        assert!(kept.iter().all(|k| kept_clean.contains(k)));
        assert!(kept.len() < kept_clean.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Resilient fills under seeded fault plans equal the oracle's
        /// prediction bit for bit: member health, series lengths, and
        /// every step plane. Plans reach past the last step (aborts there
        /// never strike), retries vary over 0..=2, and seed bits
        /// make some poison/stuck faults persistent so retried attempts
        /// carry output faults too.
        #[test]
        fn resilient_fill_matches_the_fault_oracle(seed in 0u64..1_000_000) {
            use crate::fault::{FaultKind, FaultPlan, FAULT_CONTEXT};
            use std::sync::OnceLock;
            static PROGRAM: OnceLock<Arc<Program>> = OnceLock::new();
            let program = PROGRAM
                .get_or_init(|| compile_model(&generate(&ModelConfig::test())).expect("compile"));
            let perts = perturbations(4, 1e-14, seed | 1);
            let steps = 5u32;
            let count = 1 + (seed % 8) as usize;
            let mut faults = FaultPlan::seeded(seed, perts.len(), steps + 2, count);
            for (i, f) in faults.faults.iter_mut().enumerate() {
                if f.kind != FaultKind::Abort {
                    f.persistent = (seed >> i) & 1 == 1;
                }
            }
            let max_retries = (seed % 3) as u32;
            let config = RunConfig { steps, faults, ..cfg() };
            let store = EnsembleRuns::run_resilient(program, &config, &perts, max_retries);
            let clean = config.without_faults();
            for (m, &pert) in perts.iter().enumerate() {
                let health = &store.health()[m];
                let predicted = predict_member(&config, m as u32, pert, max_retries, |p| {
                    let history = run_program(program, &clean, p).expect("zero-fault").history;
                    // A finite zero-fault value proves the step was written,
                    // so series index = step, as the oracle requires.
                    assert!(
                        history.iter().flatten().all(|x| x.is_finite()),
                        "oracle needs written, finite series"
                    );
                    history
                });
                match predicted {
                    Some((attempt, history)) => {
                        let want = match attempt {
                            0 => MemberHealth::Healthy,
                            retries => MemberHealth::Recovered { retries },
                        };
                        prop_assert_eq!(health, &want, "seed {} member {}", seed, m);
                        let written: Vec<u32> = history.iter().map(|s| s.len() as u32).collect();
                        prop_assert_eq!(store.written_of(m), &written[..], "member {}", m);
                        for step in 0..steps as usize {
                            let got = store.step_plane(m, step);
                            for (o, &x) in got.iter().enumerate() {
                                let y = history[o].get(step).copied().unwrap_or(f64::NAN);
                                prop_assert!(
                                    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                                    "seed {seed} member {m} step {step} output {o}: {x:e} != {y:e}"
                                );
                            }
                        }
                    }
                    None => {
                        let MemberHealth::Quarantined { error } = health else {
                            panic!("seed {seed} member {m}: {health:?}, expected quarantine");
                        };
                        prop_assert_eq!(error.context.as_str(), FAULT_CONTEXT);
                        prop_assert!(store.written_of(m).iter().all(|&w| w == 0));
                        for step in 0..steps as usize {
                            prop_assert!(store.step_plane(m, step).iter().all(|x| x.is_nan()));
                        }
                    }
                }
            }
        }
    }
}
