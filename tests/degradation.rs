//! Graceful-degradation guarantees (ISSUE 3 acceptance criterion): a
//! deadline-bounded minimize must return a `Degraded` best-known result —
//! never an error, never a panic — at every portfolio width, and must
//! never claim `proven_optimal` for a degraded run.

use std::time::Duration;

use memristive_mm::boolfn::generators;
use memristive_mm::sat::{Budget, Deadline};
use memristive_mm::synth::optimize::parallel;
use memristive_mm::synth::optimize::{DegradeReason, OptimizeStatus};
use memristive_mm::synth::{heuristic, EncodeOptions, Synthesizer};

fn expired_synth() -> Synthesizer {
    Synthesizer::new().with_budget(Budget::new().with_deadline(Deadline::after(Duration::ZERO)))
}

#[test]
fn zero_deadline_minimize_mixed_mode_degrades_at_every_width() {
    let f = generators::xor_gate(2);
    let options = EncodeOptions::recommended();
    let seed = heuristic::map(&f).expect("the mapper covers XOR2");
    for jobs in [1, 2, 8] {
        let report =
            parallel::minimize_mixed_mode(&expired_synth(), &f, 3, 3, false, &options, jobs)
                .expect("deadline expiry is degradation, not an error");
        assert!(
            matches!(
                report.status,
                OptimizeStatus::Degraded {
                    reason: DegradeReason::DeadlineExpired
                }
            ),
            "jobs={jobs}: expected DeadlineExpired, got {:?}",
            report.status
        );
        assert!(
            !report.proven_optimal,
            "jobs={jobs}: degraded runs must never claim optimality"
        );
        // With no solver progress possible, the best-known circuit is the
        // heuristic mapper's seed upper bound — present and correct.
        let best = report
            .best
            .as_ref()
            .expect("degraded minimize still returns a best-known circuit");
        assert!(best.implements(&f), "jobs={jobs}: seed upper bound wrong");
        assert_eq!(
            best.metrics(),
            seed.metrics(),
            "jobs={jobs}: best-known circuit is not the heuristic seed"
        );
    }
}

#[test]
fn zero_deadline_minimize_r_only_never_errors() {
    let f = generators::and_gate(2);
    let options = EncodeOptions::recommended();
    for jobs in [1, 2, 8] {
        let report = parallel::minimize_r_only(&expired_synth(), &f, 4, &options, jobs)
            .expect("deadline expiry is degradation, not an error");
        assert!(report.status.is_degraded(), "jobs={jobs}");
        assert!(!report.proven_optimal, "jobs={jobs}");
    }
}

#[test]
fn generous_deadline_still_completes_and_proves() {
    // A deadline far beyond the solve time must not disturb the result:
    // same optimum, Complete status, optimality proven.
    let f = generators::xor_gate(2);
    let options = EncodeOptions::recommended();
    let synth = Synthesizer::new()
        .with_budget(Budget::new().with_deadline(Deadline::after(Duration::from_secs(600))));
    let report = parallel::minimize_mixed_mode(&synth, &f, 3, 3, false, &options, 2)
        .expect("well-budgeted run");
    assert_eq!(report.status, OptimizeStatus::Complete);
    assert!(report.proven_optimal);
    assert!(report.best.expect("XOR2 is realizable").implements(&f));
}

#[test]
fn conflict_budget_exhaustion_degrades_with_best_known() {
    // One conflict is not enough to settle the harder rungs: the report
    // must be tagged BudgetExhausted (when the unknowns matter) or stay
    // Complete — but never error, and never claim optimality falsely.
    let f = generators::gf22_multiplier();
    let options = EncodeOptions::recommended();
    let synth = Synthesizer::new().with_budget(Budget::new().with_max_conflicts(1));
    let report = parallel::minimize_mixed_mode(&synth, &f, 4, 3, false, &options, 2)
        .expect("budget exhaustion is degradation, not an error");
    if report.status.is_degraded() {
        assert!(!report.proven_optimal);
        assert!(matches!(
            report.status,
            OptimizeStatus::Degraded {
                reason: DegradeReason::BudgetExhausted
            }
        ));
        let best = report
            .best
            .expect("degraded runs return the seed upper bound");
        assert!(best.implements(&f));
    }
}
