//! Runtime fault injection — the deterministic chaos axis of the
//! fault-tolerance plane.
//!
//! A [`FaultPlan`] is a seeded list of [`Fault`]s the
//! [`Executor`](crate::Executor)
//! applies *mid-run*, independent of source mutation: real ensemble
//! members crash, hang, and emit non-finite values without any bug in
//! the model source, and the RCA service has to degrade gracefully
//! instead of erroring out. Three fault kinds cover those failure
//! modes:
//!
//! - **poisoning** ([`FaultKind::PoisonNan`] / [`FaultKind::PoisonInf`]):
//!   from the fault step on, one output field records a non-finite
//!   value — downstream the `finite_outputs_at` keep-set drops the
//!   output instead of poisoning the ECT statistics;
//! - **stuck-value** ([`FaultKind::Stuck`]): from the fault step on,
//!   one output freezes at its last written value — a silent data
//!   corruption the consistency test may legitimately flag;
//! - **member-abort** ([`FaultKind::Abort`]): the run dies at the fault
//!   step with a structured [`RuntimeError`](crate::RuntimeError) whose
//!   context is [`FAULT_CONTEXT`] — the ensemble layer retries and then
//!   quarantines the member.
//!
//! Faults target a `(member, step, output)` coordinate; the output index
//! is resolved modulo the program's output count at execution time, so a
//! plan is model-independent and can be generated before compilation.
//! Transient faults (`persistent == false`) strike only attempt 0 of a
//! member and vanish on retry; persistent faults strike every attempt.
//!
//! The plan is an **Executor-only** axis: the tree-walking reference
//! `Interpreter` ignores it (like `fuel`). The executor's behavior under
//! a plan is fenced by the fault oracle
//! ([`crate::store::predict_member`]) instead: poison and stuck faults
//! act only on recorded history values and aborts only truncate the run,
//! so every faulted ensemble must equal the plan applied to zero-fault
//! runs — the executor's own in the store's tests, the tree-walking
//! interpreter's in the differential suites. With an empty plan the
//! executor's hot path is byte-identical to a build without this module
//! (asserted by the `fault_overhead` bench entry).

use serde::{Deserialize, Serialize};

/// `RuntimeError::context` marker for injected member-abort faults.
///
/// Errors carrying this context are *environmental*, not programmatic:
/// `RcaError::is_retryable` returns `true` for them and the ensemble
/// layer retries the member with a derived reseed.
pub const FAULT_CONTEXT: &str = "<fault>";

/// `RuntimeError::context` marker for exhausted run budgets (fuel).
///
/// Mapped to the retryable `RcaError::Budget` taxonomy at the core
/// boundary so runaway runs are killed, not hung, and the kill is
/// distinguishable from a genuine model error.
pub const BUDGET_CONTEXT: &str = "<budget>";

/// What an injected fault does when it strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Output records NaN from the fault step on.
    PoisonNan,
    /// Output records +Inf from the fault step on.
    PoisonInf,
    /// Output freezes at its previous written value from the fault step
    /// on (an output with no earlier write passes its first value
    /// through).
    Stuck,
    /// The run aborts with a retryable [`RuntimeError`](crate::RuntimeError)
    /// when the fault step begins.
    Abort,
}

/// One injected fault at a `(member, step, output)` coordinate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fault {
    /// Ensemble member the fault strikes (single runs are member 0).
    pub member: u32,
    /// Time step at which the fault begins.
    pub step: u32,
    /// Output field index, resolved modulo the program's output count.
    /// Ignored by [`FaultKind::Abort`].
    pub output: u32,
    /// Fault behavior.
    pub kind: FaultKind,
    /// Persistent faults strike every retry attempt; transient faults
    /// strike only attempt 0 and vanish on retry.
    pub persistent: bool,
}

/// A deterministic, seeded set of runtime faults.
///
/// The default plan is empty and costs nothing: the executor guards
/// every fault hook on emptiness, keeping zero-fault runs byte-identical
/// ("degrade, never diverge").
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The faults, in generation order.
    pub faults: Vec<Fault>,
}

/// splitmix64 — the plan's own generator, independent of the campaign
/// RNG so adding the fault axis never perturbs the legacy scenario
/// stream (the sign-flip precedent).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Whether the plan injects nothing (the zero-fault hot path).
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Generate `count` faults over `members` ensemble members and
    /// `steps` time steps, deterministically from `seed`.
    ///
    /// The kind mix leans toward transient aborts (exercising retry)
    /// with a minority of persistent aborts (exercising quarantine),
    /// non-finite poisoning (exercising the keep-set), and stuck values
    /// (exercising the consistency test itself). Faults never strike
    /// step 0, so every member's initialization is observable.
    pub fn seeded(seed: u64, members: usize, steps: u32, count: usize) -> FaultPlan {
        let mut state = seed ^ 0xD1B5_4A32_D192_ED03;
        let members = members.max(1) as u64;
        let fault_steps = u64::from(steps.max(2) - 1);
        let faults = (0..count)
            .map(|_| {
                let member = (splitmix64(&mut state) % members) as u32;
                let step = 1 + (splitmix64(&mut state) % fault_steps) as u32;
                let output = (splitmix64(&mut state) >> 32) as u32;
                let (kind, persistent) = match splitmix64(&mut state) % 10 {
                    0..=3 => (FaultKind::Abort, false),
                    4 => (FaultKind::Abort, true),
                    5..=6 => (FaultKind::PoisonNan, false),
                    7 => (FaultKind::PoisonInf, false),
                    _ => (FaultKind::Stuck, false),
                };
                Fault {
                    member,
                    step,
                    output,
                    kind,
                    persistent,
                }
            })
            .collect();
        FaultPlan { faults }
    }

    /// Faults striking `member` on retry `attempt` (0 = first run).
    pub fn active_for(&self, member: u32, attempt: u32) -> impl Iterator<Item = &Fault> {
        self.faults
            .iter()
            .filter(move |f| f.member == member && (attempt == 0 || f.persistent))
    }

    /// Whether an abort strikes `member`'s retry `attempt` of a
    /// `steps`-step run (aborts scheduled at or past the last step never
    /// fire).
    pub fn aborts(&self, member: u32, attempt: u32, steps: u32) -> bool {
        self.active_for(member, attempt)
            .any(|f| f.kind == FaultKind::Abort && f.step < steps)
    }

    /// Applies the poison and stuck faults striking `member`'s retry
    /// `attempt` to that attempt's zero-fault `history` (one series per
    /// output id, series index = step). Each value takes the first fault
    /// in plan order on its output whose step it has reached: NaN, +Inf,
    /// or the previous step's (already faulted) value for stuck. For a
    /// run that writes every output at every step this is exactly what
    /// the executor records under the plan.
    pub fn apply_to_history(&self, member: u32, attempt: u32, history: &mut [Vec<f64>]) {
        let outputs = history.len();
        let striking: Vec<&Fault> = self
            .active_for(member, attempt)
            .filter(|f| f.kind != FaultKind::Abort)
            .collect();
        for (out, series) in history.iter_mut().enumerate() {
            for step in 0..series.len() {
                let fault = striking
                    .iter()
                    .find(|f| f.output as usize % outputs == out && step as u32 >= f.step);
                series[step] = match fault.map(|f| f.kind) {
                    Some(FaultKind::PoisonNan) => f64::NAN,
                    Some(FaultKind::PoisonInf) => f64::INFINITY,
                    Some(FaultKind::Stuck) if step > 0 => series[step - 1],
                    _ => series[step],
                };
            }
        }
    }

    /// FNV-1a digest over the plan's coordinates, for checkpoint keying.
    pub fn digest(&self) -> u64 {
        let mut h = rca_model::Fnv::default();
        for f in &self.faults {
            h.write_u64(u64::from(f.member));
            h.write_u64(u64::from(f.step));
            h.write_u64(u64::from(f.output));
            h.write_u64(
                match f.kind {
                    FaultKind::PoisonNan => 1,
                    FaultKind::PoisonInf => 2,
                    FaultKind::Stuck => 3,
                    FaultKind::Abort => 4,
                } + if f.persistent { 16 } else { 0 },
            );
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded(42, 12, 9, 6);
        let b = FaultPlan::seeded(42, 12, 9, 6);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        let c = FaultPlan::seeded(43, 12, 9, 6);
        assert_ne!(a, c, "different seeds must give different plans");
    }

    #[test]
    fn seeded_plans_stay_in_bounds() {
        for seed in 0..32u64 {
            let plan = FaultPlan::seeded(seed, 7, 9, 16);
            assert_eq!(plan.faults.len(), 16);
            for f in &plan.faults {
                assert!(f.member < 7);
                assert!(f.step >= 1 && f.step < 9, "step {} out of range", f.step);
            }
        }
    }

    #[test]
    fn transient_faults_vanish_on_retry() {
        let plan = FaultPlan {
            faults: vec![
                Fault {
                    member: 3,
                    step: 2,
                    output: 0,
                    kind: FaultKind::Abort,
                    persistent: false,
                },
                Fault {
                    member: 3,
                    step: 4,
                    output: 1,
                    kind: FaultKind::Stuck,
                    persistent: true,
                },
            ],
        };
        assert_eq!(plan.active_for(3, 0).count(), 2);
        assert_eq!(plan.active_for(3, 1).count(), 1);
        assert_eq!(plan.active_for(2, 0).count(), 0);
    }

    #[test]
    fn empty_plan_digest_is_stable() {
        assert_eq!(FaultPlan::default().digest(), FaultPlan::default().digest());
        assert!(FaultPlan::default().is_empty());
    }
}
