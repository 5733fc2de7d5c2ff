//! The ladder driver: portfolio minimization with cooperative cancellation.
//!
//! The functions here dispatch the independent `(N_V, N_R)` decision
//! problems of a minimization run across `jobs` workers, each claiming the
//! next budget point in ascending order, and wire every in-flight solver
//! call to a [`CancellationToken`](mm_sat::CancellationToken). At
//! `jobs = 1` this is the paper's scan up the budget ladder, one point at a
//! time:
//!
//! * a **SAT** answer at budget `k` cancels every call at a budget `> k`
//!   (a smaller witness already exists, larger budgets are uninteresting);
//! * an **UNSAT** answer at budget `k` cancels every call at a budget `< k`
//!   (the budget lattice is monotone, so everything below is also UNSAT).
//!
//! # Determinism
//!
//! For fixed inputs and a conflict-limited (or unlimited) per-call budget,
//! the reported optimum and `proven_optimal` are identical for every thread
//! count; only the order and number of entries in
//! [`OptimizeReport::calls`] may vary. The argument rests on the monotone
//! budget lattice (realizable at `k` implies realizable at `k + 1`):
//!
//! * Let `k*` be the smallest ladder point the (deterministic) solver
//!   answers SAT. Nothing can cancel `k*`: a completed SAT strictly below
//!   it cannot exist (by minimality of `k*`), and a completed UNSAT
//!   strictly above it would contradict monotone truth. So `k*` always
//!   completes and `best` is always its (deterministic) witness.
//! * Let `u*` be the largest ladder point the solver answers UNSAT
//!   (`u* < k*`). By the same case analysis `u*` always completes, and
//!   every point `≤ u*` is UNSAT by the lattice closure whether or not its
//!   own call was cancelled.
//! * Points in `(u*, k*)` — where the solver gives up with Unknown — can
//!   never be cancelled (no SAT exists below them, no UNSAT above them),
//!   so they always report Unknown.
//!
//! Hence `proven_optimal` — "`k* `is the ladder minimum, or every point
//! below `k*` is conclusively UNSAT" — is schedule-independent. Wall-clock
//! time limits break the first premise (the solver's answer at a point
//! stops being a function of the formula), so determinism across thread
//! counts is only guaranteed for conflict-limited or unlimited budgets.
//!
//! # Certified UNSAT
//!
//! Running the ladder with a
//! [certifying](crate::Synthesizer::with_certification) synthesizer makes
//! every UNSAT rung pass through the DRAT checker before it is allowed to
//! contribute to `proven_optimal`: each `Unrealizable` point carries a
//! checker-accepted refutation in its [`CallRecord`] (`certified`,
//! `proof`), and a rejected proof aborts the whole run with
//! [`SynthError::CertificationFailed`]. Cancellation composes soundly with
//! certification by construction — a cancelled solve returns `Unknown`
//! *before* the proof log is ever concluded with the empty clause, so an
//! aborted rung can never present a proof that checks, let alone assert an
//! UNSAT it did not finish.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use mm_boolfn::MultiOutputFn;
use mm_circuit::MmCircuit;
use mm_sat::CancellationToken;
use mm_telemetry::{kv, AttrValue};

use super::{record, seed_upper_bound, CallRecord, DegradeReason, OptimizeReport, OptimizeStatus};
use crate::{EncodeOptions, SynthError, SynthResult, SynthSpec, Synthesizer};

/// A sensible default worker count: the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The conclusive outcome of one ladder point after the portfolio run.
#[derive(Debug)]
enum PointOutcome {
    /// The solver returned a verified circuit.
    Sat(Box<MmCircuit>),
    /// The solver proved the point infeasible.
    Unsat,
    /// The solver gave up (budget exhausted, deadline expired — possibly
    /// before launch — or cancelled mid-run).
    Unknown {
        /// Whether the run's wall-clock deadline caused it.
        deadline: bool,
    },
    /// The worker solving this point panicked. The point counts as
    /// undecided; the rest of the run continued normally.
    Panicked(String),
    /// The point's token was already tripped before the call started
    /// (its answer is implied by the lattice), so no solver was ever
    /// launched and no [`CallRecord`] exists for it.
    Skipped,
}

/// What one budget ladder run concluded.
struct LadderOutcome {
    /// Ladder index of the cheapest SAT point, with its circuit.
    best: Option<(usize, MmCircuit)>,
    /// Whether every point below the best is conclusively UNSAT (directly
    /// or via the lattice closure under the largest completed UNSAT).
    proven: bool,
    /// Why the ladder degraded, when any point that mattered for the
    /// optimality claim was left undecided (or any worker panicked).
    degrade: Option<DegradeReason>,
    /// Call records in completion order.
    calls: Vec<CallRecord>,
}

/// Solves an ascending budget ladder (`specs[i]` strictly weaker than
/// `specs[i + 1]`) with `jobs` workers and lattice-driven cancellation.
fn run_ladder(
    synth: &Synthesizer,
    specs: &[SynthSpec],
    jobs: usize,
) -> Result<LadderOutcome, SynthError> {
    let n = specs.len();
    let jobs = jobs.max(1).min(n.max(1));
    let tokens: Vec<CancellationToken> = (0..n).map(|_| CancellationToken::new()).collect();
    let outcomes: Mutex<Vec<Option<PointOutcome>>> = Mutex::new((0..n).map(|_| None).collect());
    let calls: Mutex<Vec<CallRecord>> = Mutex::new(Vec::new());
    let first_error: Mutex<Option<SynthError>> = Mutex::new(None);
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        // Shadow with references so the `move` closures copy pointers, not
        // the shared state itself.
        let (tokens, cursor) = (&tokens, &cursor);
        let (outcomes, calls, first_error) = (&outcomes, &calls, &first_error);
        for worker_idx in 0..jobs {
            scope.spawn(move || {
                worker(
                    synth,
                    specs,
                    tokens,
                    cursor,
                    outcomes,
                    calls,
                    first_error,
                    worker_idx,
                );
            });
        }
    });

    if let Some(e) = first_error.into_inner().expect("no poisoned lock") {
        return Err(e);
    }
    let outcomes = outcomes.into_inner().expect("no poisoned lock");
    let calls = calls.into_inner().expect("no poisoned lock");

    let mut best: Option<(usize, MmCircuit)> = None;
    let mut u_max: Option<usize> = None;
    let mut unknowns: Vec<(usize, bool)> = Vec::new();
    let mut panic_message: Option<(usize, String)> = None;
    for (idx, outcome) in outcomes.into_iter().enumerate() {
        match outcome.expect("every ladder point is visited") {
            PointOutcome::Sat(c) => {
                if best.is_none() {
                    best = Some((idx, *c));
                }
            }
            PointOutcome::Unsat => u_max = Some(idx),
            PointOutcome::Unknown { deadline } => unknowns.push((idx, deadline)),
            PointOutcome::Panicked(message) => {
                if panic_message.is_none() {
                    panic_message = Some((idx, message));
                }
                unknowns.push((idx, false));
            }
            PointOutcome::Skipped => {}
        }
    }
    let proven = match &best {
        None => false,
        Some((0, _)) => true,
        Some((k, _)) => u_max.is_some_and(|u| u >= k - 1),
    };
    // A point degrades the run when its answer could still change the
    // outcome: anything below the best witness (or anywhere, if no witness
    // exists) that neither completed nor was closed by the lattice. A panic
    // is always surfaced, wherever it happened.
    let best_idx = best.as_ref().map(|(k, _)| *k);
    let closed = |idx: usize| u_max.is_some_and(|u| idx <= u);
    let relevant = |idx: usize| best_idx.is_none_or(|k| idx < k) && !closed(idx);
    let degrade = if let Some((_, message)) = panic_message {
        Some(DegradeReason::WorkerPanicked { message })
    } else if unknowns
        .iter()
        .any(|&(idx, deadline)| deadline && relevant(idx))
    {
        Some(DegradeReason::DeadlineExpired)
    } else if unknowns.iter().any(|&(idx, _)| relevant(idx)) {
        Some(DegradeReason::BudgetExhausted)
    } else {
        None
    };
    // One ladder-summary event per run: the verdict the rung events roll
    // up to, so a trace is self-contained.
    synth.telemetry().point(
        "ladder",
        vec![
            kv("points", n),
            kv("proven", proven && degrade.is_none()),
            kv("degraded", degrade.is_some()),
            kv(
                "reason",
                degrade
                    .as_ref()
                    .map(ToString::to_string)
                    .unwrap_or_default(),
            ),
        ],
    );
    Ok(LadderOutcome {
        best,
        proven: proven && degrade.is_none(),
        degrade,
        calls,
    })
}

/// Shared attributes of every `rung` / `rung.spawned` event: the ladder
/// index, the point's budgets, and the worker that handled it.
fn rung_attrs(idx: usize, spec: &SynthSpec, worker_idx: usize) -> Vec<(String, AttrValue)> {
    vec![
        kv("idx", idx),
        kv("n_rops", spec.n_rops()),
        kv("n_legs", spec.n_legs()),
        kv("n_vsteps", spec.n_vsteps()),
        kv("worker", format!("w{worker_idx}")),
    ]
}

#[allow(clippy::too_many_arguments)] // one call site; mirrors the shared state
fn worker(
    synth: &Synthesizer,
    specs: &[SynthSpec],
    tokens: &[CancellationToken],
    cursor: &AtomicUsize,
    outcomes: &Mutex<Vec<Option<PointOutcome>>>,
    calls: &Mutex<Vec<CallRecord>>,
    first_error: &Mutex<Option<SynthError>>,
    worker_idx: usize,
) {
    let telemetry = synth.telemetry().clone();
    loop {
        let idx = cursor.fetch_add(1, Ordering::Relaxed);
        if idx >= specs.len() {
            return;
        }
        let rung = |outcome: &str| {
            let mut attrs = rung_attrs(idx, &specs[idx], worker_idx);
            attrs.push(kv("outcome", outcome));
            attrs
        };
        if first_error.lock().expect("no poisoned lock").is_some() {
            telemetry.point("rung", rung("skipped"));
            set_outcome(outcomes, idx, PointOutcome::Skipped);
            continue;
        }
        if tokens[idx].is_cancelled() {
            // Lattice-closed before launch: the "cancelled" lifecycle case.
            let mut attrs = rung("skipped");
            attrs.push(kv("cancelled", true));
            telemetry.point("rung", attrs);
            set_outcome(outcomes, idx, PointOutcome::Skipped);
            continue;
        }
        // An already-expired deadline means the solver could only return
        // Unknown; skip the launch (and the encode) but record the point as
        // undecided, not as lattice-closed.
        if synth.budget().deadline().is_some_and(|d| d.expired()) {
            let mut attrs = rung("unknown");
            attrs.push(kv("deadline", true));
            telemetry.point("rung", attrs);
            set_outcome(outcomes, idx, PointOutcome::Unknown { deadline: true });
            continue;
        }
        telemetry.point("rung.spawned", rung_attrs(idx, &specs[idx], worker_idx));
        let budget = synth.budget().with_cancellation(tokens[idx].clone());
        let run = catch_unwind(AssertUnwindSafe(|| {
            synth.clone().with_budget(budget).run(&specs[idx])
        }));
        match run {
            Err(payload) => {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                telemetry.point("rung", rung("panicked"));
                set_outcome(outcomes, idx, PointOutcome::Panicked(message));
            }
            Ok(Ok(outcome)) => {
                let record = record(&outcome, &specs[idx]);
                let deadline = record.deadline_expired;
                let mut attrs = rung(match outcome.result {
                    SynthResult::Realizable(_) => "sat",
                    SynthResult::Unrealizable => "unsat",
                    SynthResult::Unknown => "unknown",
                });
                attrs.extend([
                    kv("conflicts", outcome.solver_stats.conflicts),
                    kv("vars", record.n_vars),
                    kv("clauses", record.n_clauses),
                    kv("time_us", record.time.as_micros() as u64),
                    kv("certified", record.certified),
                    kv("cancelled", outcome.solver_stats.cancelled),
                    kv("deadline", deadline),
                ]);
                calls.lock().expect("no poisoned lock").push(record);
                let point = match outcome.result {
                    SynthResult::Realizable(c) => {
                        // A witness at `idx` settles every larger budget.
                        for token in &tokens[idx + 1..] {
                            token.cancel();
                        }
                        attrs.push(kv("cancels_above", specs.len() - idx - 1));
                        PointOutcome::Sat(Box::new(c))
                    }
                    SynthResult::Unrealizable => {
                        // Lattice monotonicity: UNSAT here closes everything
                        // below.
                        for token in &tokens[..idx] {
                            token.cancel();
                        }
                        attrs.push(kv("cancels_below", idx));
                        PointOutcome::Unsat
                    }
                    SynthResult::Unknown => PointOutcome::Unknown { deadline },
                };
                telemetry.point("rung", attrs);
                set_outcome(outcomes, idx, point);
            }
            Ok(Err(e)) => {
                let mut slot = first_error.lock().expect("no poisoned lock");
                if slot.is_none() {
                    *slot = Some(e);
                }
                drop(slot);
                for token in tokens {
                    token.cancel();
                }
                telemetry.point("rung", rung("skipped"));
                set_outcome(outcomes, idx, PointOutcome::Skipped);
            }
        }
    }
}

fn set_outcome(outcomes: &Mutex<Vec<Option<PointOutcome>>>, idx: usize, outcome: PointOutcome) {
    outcomes.lock().expect("no poisoned lock")[idx] = Some(outcome);
}

/// Finds the minimal `N_R` for an R-only realization `Φ(f, 0, N_R)` (the
/// conventional-paradigm baseline of Table IV), probing
/// `N_R = 1..=max_rops` with `jobs` workers.
///
/// The reported optimum and `proven_optimal` are independent of `jobs` (see
/// the module docs); `calls` ordering may differ.
///
/// # Errors
///
/// Propagates [`SynthError`] from spec construction or synthesis.
pub fn minimize_r_only(
    synth: &Synthesizer,
    f: &MultiOutputFn,
    max_rops: usize,
    options: &EncodeOptions,
    jobs: usize,
) -> Result<OptimizeReport, SynthError> {
    let specs = (1..=max_rops)
        .map(|n_rops| Ok(SynthSpec::r_only(f, n_rops)?.with_options(options.clone())))
        .collect::<Result<Vec<_>, SynthError>>()?;
    let ladder = run_ladder(synth, &specs, jobs)?;
    Ok(OptimizeReport {
        best: ladder.best.map(|(_, c)| c),
        proven_optimal: ladder.proven,
        status: status_of(ladder.degrade),
        calls: ladder.calls,
    })
}

/// Lifts a ladder's degrade verdict into an [`OptimizeStatus`].
fn status_of(degrade: Option<DegradeReason>) -> OptimizeStatus {
    match degrade {
        Some(reason) => OptimizeStatus::Degraded { reason },
        None => OptimizeStatus::Complete,
    }
}

/// Finds the minimal `N_VS` for fixed `N_R` and `N_L` (the paper's inner
/// loop), probing `N_VS = 1..=max_vsteps` with `jobs` workers.
///
/// # Errors
///
/// Propagates [`SynthError`] from spec construction or synthesis.
pub fn minimize_vsteps(
    synth: &Synthesizer,
    f: &MultiOutputFn,
    n_rops: usize,
    n_legs: usize,
    max_vsteps: usize,
    options: &EncodeOptions,
    jobs: usize,
) -> Result<OptimizeReport, SynthError> {
    let specs = (1..=max_vsteps)
        .map(|vs| Ok(SynthSpec::mixed_mode(f, n_rops, n_legs, vs)?.with_options(options.clone())))
        .collect::<Result<Vec<_>, SynthError>>()?;
    let ladder = run_ladder(synth, &specs, jobs)?;
    Ok(OptimizeReport {
        best: ladder.best.map(|(_, c)| c),
        proven_optimal: ladder.proven,
        status: status_of(ladder.degrade),
        calls: ladder.calls,
    })
}

/// Finds the minimal `N_R` (with the paper's leg convention
/// `N_L = N_R + N_O [− 1 for adders]`), then the minimal `N_VS` for that
/// `N_R` — the procedure behind the MM rows of Table IV.
///
/// Runs two portfolio phases: an `N_R` ladder at `max_vsteps` (the paper's
/// outer loop), then an `N_VS` ladder at the smallest feasible `N_R` (the
/// inner loop). Within each phase all points run concurrently under the
/// cancellation protocol.
///
/// # Errors
///
/// Propagates [`SynthError`] from spec construction or synthesis.
pub fn minimize_mixed_mode(
    synth: &Synthesizer,
    f: &MultiOutputFn,
    max_rops: usize,
    max_vsteps: usize,
    is_adder: bool,
    options: &EncodeOptions,
    jobs: usize,
) -> Result<OptimizeReport, SynthError> {
    // Phase 1: find the smallest feasible N_R at the full V-step budget.
    let rop_specs = (0..=max_rops)
        .map(|n_rops| {
            let n_legs = SynthSpec::paper_legs(f, n_rops, is_adder);
            Ok(SynthSpec::mixed_mode(f, n_rops, n_legs, max_vsteps)?.with_options(options.clone()))
        })
        .collect::<Result<Vec<_>, SynthError>>()?;
    let outer = run_ladder(synth, &rop_specs, jobs)?;
    let mut calls = outer.calls;
    let Some((rop_idx, outer_circuit)) = outer.best else {
        // No witness at any N_R. If the ladder degraded (deadline, budget,
        // panic) the search is inconclusive: fall back to the heuristic
        // mapper's circuit as the best-known upper bound rather than
        // returning nothing.
        let status = status_of(outer.degrade);
        return Ok(OptimizeReport {
            best: status.is_degraded().then(|| seed_upper_bound(f)).flatten(),
            proven_optimal: false,
            status,
            calls,
        });
    };

    // Phase 2: shrink the V-step budget at that N_R.
    let n_rops = rop_idx; // ladder index 0 is N_R = 0
    let n_legs = SynthSpec::paper_legs(f, n_rops, is_adder);
    let vs_specs = (1..=max_vsteps)
        .map(|vs| Ok(SynthSpec::mixed_mode(f, n_rops, n_legs, vs)?.with_options(options.clone())))
        .collect::<Result<Vec<_>, SynthError>>()?;
    let inner = run_ladder(synth, &vs_specs, jobs)?;
    let mut inner_calls = inner.calls;
    calls.append(&mut inner_calls);
    let inner_status = status_of(inner.degrade);
    let status = match (status_of(outer.degrade), inner_status) {
        (s @ OptimizeStatus::Degraded { .. }, _) => s,
        (OptimizeStatus::Complete, s) => s,
    };
    Ok(OptimizeReport {
        // The inner ladder re-solves the outer witness's point; under a
        // deadline it may come back empty, in which case the outer witness
        // is still a valid upper bound.
        best: inner.best.map(|(_, c)| c).or(Some(outer_circuit)),
        // N_R minimality comes from the outer ladder's closure, N_VS
        // minimality from the inner one.
        proven_optimal: outer.proven && inner.proven && !status.is_degraded(),
        status,
        calls,
    })
}

#[cfg(test)]
mod tests {
    use mm_boolfn::generators;

    use super::super::SynthResultKind;
    use super::*;

    fn reports_agree(a: &OptimizeReport, b: &OptimizeReport) {
        assert_eq!(a.proven_optimal, b.proven_optimal);
        match (&a.best, &b.best) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                assert_eq!(x.metrics().n_rops, y.metrics().n_rops);
                assert_eq!(x.metrics().n_vsteps, y.metrics().n_vsteps);
                assert_eq!(x.metrics().n_legs, y.metrics().n_legs);
            }
            other => panic!("best presence differs across thread counts: {other:?}"),
        }
    }

    /// The paper's method, independent of the portfolio: one cold
    /// [`Synthesizer::run`] per budget point, scanning `N_R` upward. Returns
    /// the first feasible `N_R` and whether every point below it is UNSAT.
    fn cold_r_only_scan(f: &MultiOutputFn, max_rops: usize) -> Option<(usize, bool)> {
        let synth = Synthesizer::new();
        let mut all_unsat_below = true;
        for n_rops in 1..=max_rops {
            let spec = SynthSpec::r_only(f, n_rops)
                .unwrap()
                .with_options(EncodeOptions::recommended());
            match synth.run(&spec).unwrap().result {
                SynthResult::Realizable(_) => return Some((n_rops, all_unsat_below)),
                SynthResult::Unrealizable => {}
                SynthResult::Unknown => all_unsat_below = false,
            }
        }
        None
    }

    #[test]
    fn r_only_matches_sequential_and_is_jobs_invariant() {
        let f = generators::xor_gate(2);
        let opts = EncodeOptions::recommended();
        let synth = Synthesizer::new();
        let (seq_rops, seq_proven) = cold_r_only_scan(&f, 5).expect("XOR2 from NORs");
        assert_eq!(seq_rops, 3, "XOR2 needs 3 R-ops (Table IV)");
        assert!(seq_proven);
        for jobs in [1, 2, 8] {
            let par = minimize_r_only(&synth, &f, 5, &opts, jobs).unwrap();
            assert_eq!(
                par.best.as_ref().map(|c| c.metrics().n_rops),
                Some(seq_rops)
            );
            assert_eq!(par.proven_optimal, seq_proven);
            if jobs == 1 {
                // One worker scans upward like the cold loop: N_R = 1, 2
                // UNSAT, 3 SAT, and the points above are skipped.
                assert_eq!(par.calls.len(), 3);
            }
        }
    }

    #[test]
    fn vsteps_ladder_proves_and2_optimum_at_any_width() {
        let f = generators::and_gate(2);
        let opts = EncodeOptions::recommended();
        let synth = Synthesizer::new();
        for jobs in [1, 3] {
            let report = minimize_vsteps(&synth, &f, 0, 1, 4, &opts, jobs).unwrap();
            let best = report.best.expect("AND2 is V-realizable");
            assert_eq!(best.metrics().n_vsteps, 1);
            assert!(report.proven_optimal);
        }
    }

    #[test]
    fn mixed_mode_xor_is_jobs_invariant() {
        let f = generators::xor_gate(2);
        let opts = EncodeOptions::recommended();
        let synth = Synthesizer::new();
        let mut reports = Vec::new();
        for jobs in [1, 2, 8] {
            let report = minimize_mixed_mode(&synth, &f, 3, 3, false, &opts, jobs).unwrap();
            let best = report.best.as_ref().expect("XOR2 is MM-realizable");
            assert!(best.implements(&f));
            assert!(best.metrics().n_rops >= 1);
            reports.push(report);
        }
        for pair in reports.windows(2) {
            reports_agree(&pair[0], &pair[1]);
        }
    }

    #[test]
    fn skipped_points_leave_no_call_records() {
        // With one worker the ladder is a scan upward: every point after
        // the first SAT is skipped before launch and leaves no record.
        let f = generators::nor_gate(2);
        let opts = EncodeOptions::recommended();
        let report = minimize_r_only(&Synthesizer::new(), &f, 4, &opts, 1).unwrap();
        assert_eq!(report.calls.len(), 1, "NOR2 is SAT at N_R = 1");
        assert_eq!(report.calls[0].result, SynthResultKind::Realizable);
        assert_eq!(report.best.expect("NOR2 is one R-op").metrics().n_rops, 1);
        assert!(report.proven_optimal, "the ladder minimum is optimal");
    }

    #[test]
    fn certified_ladder_agrees_and_backs_every_unsat_with_a_proof() {
        let f = generators::xor_gate(2);
        let opts = EncodeOptions::recommended();
        let plain = Synthesizer::new();
        let certifying = Synthesizer::new().with_certification(true);
        let baseline = minimize_r_only(&plain, &f, 5, &opts, 2).unwrap();
        for jobs in [1, 4] {
            let report = minimize_r_only(&certifying, &f, 5, &opts, jobs).unwrap();
            reports_agree(&baseline, &report);
            let unsat_calls: Vec<_> = report
                .calls
                .iter()
                .filter(|c| c.result == SynthResultKind::Unrealizable)
                .collect();
            assert!(
                !unsat_calls.is_empty(),
                "XOR2 R-only has UNSAT rungs at N_R = 1, 2"
            );
            for call in unsat_calls {
                assert!(call.certified, "uncertified UNSAT at N_R = {}", call.n_rops);
                let proof = call.proof.as_ref().expect("certified call keeps its proof");
                assert!(proof.is_concluded());
                assert!(call.proof_steps > 0);
            }
            // Non-UNSAT calls never carry a certificate.
            for call in report
                .calls
                .iter()
                .filter(|c| c.result != SynthResultKind::Unrealizable)
            {
                assert!(!call.certified);
                assert!(call.proof.is_none());
            }
        }
    }

    #[test]
    fn budget_exhaustion_never_claims_optimality_in_parallel() {
        use mm_sat::Budget;
        let f = generators::gf22_multiplier();
        let synth = Synthesizer::new().with_budget(Budget::new().with_max_conflicts(1));
        for jobs in [1, 4] {
            let report =
                minimize_r_only(&synth, &f, 5, &EncodeOptions::recommended(), jobs).unwrap();
            if report.best.is_none() {
                assert!(!report.proven_optimal, "no circuit, no optimality claim");
            }
            assert!(report.total_time() > std::time::Duration::ZERO);
        }
    }
}
