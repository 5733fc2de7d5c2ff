//! Minimization: the procedure behind the paper's Table IV.
//!
//! The synthesis call itself is a decision procedure for fixed budgets; the
//! paper obtains *optimal* circuits by "iteratively calling the procedure
//! with decreasing `N_V` and `N_R`" (§III). The [`parallel`] ladder driver
//! automates those loops and records every call, so a Table IV row can
//! report the found circuit, whether its minimality was *proved* (UNSAT at
//! the next smaller budget) or only *bounded* (the paper's "≤" rows, where
//! the solver timed out). This module holds the report types it returns.

pub mod parallel;

use std::time::Duration;

use mm_boolfn::MultiOutputFn;
use mm_circuit::MmCircuit;
use mm_sat::DratProof;

use crate::{SynthResult, SynthSpec};

/// One synthesis call made during a minimization run.
///
/// The serde representation backs `mmsynth --stats-json` and is schema-stable
/// (see the golden test in this module): `Duration` fields serialize as
/// `{"secs", "nanos"}` objects and the optional proof as DRAT text.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CallRecord {
    /// R-op budget of the call.
    pub n_rops: usize,
    /// Leg budget of the call.
    pub n_legs: usize,
    /// Steps-per-leg budget of the call.
    pub n_vsteps: usize,
    /// What the call concluded.
    pub result: SynthResultKind,
    /// CNF variables of the instance.
    pub n_vars: u32,
    /// CNF clauses of the instance.
    pub n_clauses: usize,
    /// Encode + solve time.
    pub time: Duration,
    /// DRAT steps emitted by the call (0 when proof logging was off).
    pub proof_steps: u64,
    /// Whether the ladder cancelled the call because another rung's
    /// answer already settled it (a subset of `Unknown` results). A call
    /// that gave up on its own budget has this `false`.
    pub cancelled: bool,
    /// Conflicts the call's solve spent.
    pub conflicts: u64,
    /// Whether the call aborted because the run's wall-clock
    /// [`Deadline`](mm_sat::Deadline) expired (a subset of `Unknown`
    /// results).
    pub deadline_expired: bool,
    /// Time spent checking the call's proof (zero when not certified).
    pub check_time: Duration,
    /// Whether an `Unrealizable` answer is backed by a checker-accepted
    /// proof. Always `false` for `Realizable`/`Unknown` calls.
    pub certified: bool,
    /// The checker-accepted refutation itself, retained so certified runs
    /// can archive per-call proof files. `None` unless `certified`.
    pub proof: Option<DratProof>,
}

/// A [`SynthResult`] variant tag without the circuit
/// payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum SynthResultKind {
    /// The instance was satisfiable.
    Realizable,
    /// The instance was proved unsatisfiable.
    Unrealizable,
    /// The budget ran out.
    Unknown,
}

/// Why a minimization run degraded instead of concluding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradeReason {
    /// The run's wall-clock [`Deadline`](mm_sat::Deadline) expired with
    /// budget points still undecided.
    DeadlineExpired,
    /// A per-call resource budget (conflicts, time, proof steps) was
    /// exhausted on a point that mattered for the optimality claim.
    BudgetExhausted,
    /// A worker thread panicked; its point is treated as undecided and the
    /// rest of the run continued.
    WorkerPanicked {
        /// The panic payload, if it was a string.
        message: String,
    },
}

impl std::fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DeadlineExpired => write!(f, "deadline expired"),
            Self::BudgetExhausted => write!(f, "budget exhausted"),
            Self::WorkerPanicked { message } => write!(f, "worker panicked: {message}"),
        }
    }
}

/// Whether a minimization run ran to a conclusive end or degraded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptimizeStatus {
    /// Every budget point that mattered was decided (SAT or UNSAT).
    Complete,
    /// The run returned its best-known answer without deciding every
    /// relevant point. `best` is then an *unproven upper bound* (possibly a
    /// heuristic seed), and `proven_optimal` is guaranteed `false`.
    Degraded {
        /// What cut the run short.
        reason: DegradeReason,
    },
}

impl OptimizeStatus {
    /// Whether the run degraded.
    pub fn is_degraded(&self) -> bool {
        matches!(self, Self::Degraded { .. })
    }
}

/// Result of a minimization run.
#[derive(Debug, Clone)]
pub struct OptimizeReport {
    /// The best circuit found, if any. On a
    /// [`Degraded`](OptimizeStatus::Degraded) run this is the best *known*
    /// circuit — possibly the heuristic seed — and only an upper bound.
    pub best: Option<MmCircuit>,
    /// Whether the next-smaller budget was *proved* infeasible. Never
    /// `true` on a degraded run.
    pub proven_optimal: bool,
    /// Whether the run concluded or degraded (deadline, budget, panic).
    pub status: OptimizeStatus,
    /// Every synthesis call, in execution order.
    pub calls: Vec<CallRecord>,
}

impl OptimizeReport {
    /// Total time across all recorded calls.
    pub fn total_time(&self) -> Duration {
        self.calls.iter().map(|c| c.time).sum()
    }
}

/// Falls back to the heuristic mapper as a best-known upper bound when a
/// degraded run found no circuit at all. The seed is functionally verified
/// by the mapper; failure to map (never expected) just leaves `best` empty.
fn seed_upper_bound(f: &MultiOutputFn) -> Option<MmCircuit> {
    crate::heuristic::map(f).ok()
}

fn record(outcome: &crate::SynthOutcome, spec: &SynthSpec) -> CallRecord {
    CallRecord {
        n_rops: spec.n_rops(),
        n_legs: spec.n_legs(),
        n_vsteps: spec.n_vsteps(),
        result: match outcome.result {
            SynthResult::Realizable(_) => SynthResultKind::Realizable,
            SynthResult::Unrealizable => SynthResultKind::Unrealizable,
            SynthResult::Unknown => SynthResultKind::Unknown,
        },
        n_vars: outcome.encode_stats.n_vars,
        n_clauses: outcome.encode_stats.n_clauses,
        time: outcome.total_time(),
        proof_steps: outcome.solver_stats.proof_steps,
        cancelled: outcome.solver_stats.cancelled,
        conflicts: outcome.solver_stats.conflicts,
        deadline_expired: outcome.solver_stats.deadline_expired,
        check_time: outcome.solver_stats.proof_check_time,
        certified: outcome.certificate.is_some(),
        proof: outcome.certificate.as_ref().map(|c| c.proof.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden-JSON schema stability for [`CallRecord`]: `--stats-json`
    /// consumers parse this exact shape. A field rename or re-ordering is a
    /// schema break.
    #[test]
    fn call_record_serde_schema_is_stable() {
        let record = CallRecord {
            n_rops: 2,
            n_legs: 3,
            n_vsteps: 4,
            result: SynthResultKind::Unrealizable,
            n_vars: 120,
            n_clauses: 456,
            time: Duration::new(0, 7_000),
            proof_steps: 5,
            cancelled: false,
            conflicts: 42,
            deadline_expired: false,
            check_time: Duration::new(0, 1_000),
            certified: true,
            proof: Some(mm_sat::DratProof::from_steps(vec![
                mm_sat::drat::ProofStep::Add(vec![]),
            ])),
        };
        let json = serde_json::to_string(&record).expect("record serialize");
        let golden = concat!(
            "{\"n_rops\":2,\"n_legs\":3,\"n_vsteps\":4,\"result\":\"Unrealizable\",",
            "\"n_vars\":120,\"n_clauses\":456,\"time\":{\"secs\":0,\"nanos\":7000},",
            "\"proof_steps\":5,\"cancelled\":false,\"conflicts\":42,",
            "\"deadline_expired\":false,",
            "\"check_time\":{\"secs\":0,\"nanos\":1000},\"certified\":true,",
            "\"proof\":\"0\\n\"}"
        );
        assert_eq!(json, golden);

        let back: CallRecord = serde_json::from_str(&json).expect("record parse");
        assert_eq!(serde_json::to_string(&back).expect("reserialize"), json);
        assert!(back.proof.expect("proof survives").is_concluded());
    }
}
