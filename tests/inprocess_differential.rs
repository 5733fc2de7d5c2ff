//! Differential lockdown of the inprocessing layer.
//!
//! Inprocessing (subsumption with self-subsuming resolution,
//! vivification) is a pure *performance* feature: for every function and
//! worker count the verdict — `proven_optimal`, presence of a best
//! circuit, its optimal metrics — must be identical with it on and off,
//! and decoded circuits must survive device-model replay. Any divergence
//! is a soundness bug in the clause-database rewriting, never an
//! acceptable trade-off.

use memristive_mm::boolfn::{generators, MultiOutputFn, TruthTable};
use memristive_mm::circuit::{CircuitError, MmCircuit, Schedule};
use memristive_mm::sat::Budget;
use memristive_mm::synth::optimize::{parallel, OptimizeReport};
use memristive_mm::synth::{EncodeOptions, Synthesizer};

/// Worker counts every case runs under (mirrors ISSUE 5/10 acceptance).
const JOBS: [usize; 3] = [1, 2, 8];

/// The two configurations under test: inprocessing off (the pre-feature
/// baseline) and on.
fn engines() -> [(&'static str, Synthesizer); 2] {
    [
        (
            "no-inprocess",
            Synthesizer::new().with_budget(Budget::new().with_inprocess(false)),
        ),
        ("inprocess", Synthesizer::new().with_budget(Budget::new())),
    ]
}

/// Same-verdict assertion: optimality claim, witness presence, witness
/// metrics. Call counts/orders may differ and are not compared.
fn assert_same_verdict(label: &str, baseline: &OptimizeReport, report: &OptimizeReport) {
    assert_eq!(
        baseline.proven_optimal, report.proven_optimal,
        "{label}: proven_optimal diverged"
    );
    match (&baseline.best, &report.best) {
        (None, None) => {}
        (Some(b), Some(r)) => {
            assert_eq!(
                b.metrics().n_rops,
                r.metrics().n_rops,
                "{label}: optimal N_R diverged"
            );
            assert_eq!(
                b.metrics().n_vsteps,
                r.metrics().n_vsteps,
                "{label}: optimal N_VS diverged"
            );
            assert_eq!(
                b.metrics().n_legs,
                r.metrics().n_legs,
                "{label}: optimal N_L diverged"
            );
        }
        _ => panic!("{label}: witness presence diverged"),
    }
}

/// Replays the circuit's schedule on the ideal device model, input by
/// input; falls back to the truth-table check for families without a
/// line-array schedule.
fn device_verify(label: &str, circuit: &MmCircuit, f: &MultiOutputFn) {
    match Schedule::compile(circuit) {
        Ok(schedule) => assert!(
            schedule.verify(f),
            "{label}: device-model replay diverged from the spec"
        ),
        Err(CircuitError::UnsupportedROpKind { .. }) => {
            assert!(circuit.implements(f), "{label}: truth-table check failed");
        }
        Err(e) => panic!("{label}: schedule compilation failed: {e}"),
    }
}

/// Every 2-input NPN class through the pure V-op step ladder, both
/// configurations, all worker counts: inprocessing's clause rewriting must
/// keep the verdicts of both SAT and UNSAT-everywhere (XOR-class) ladders.
#[test]
fn npn_census_vsteps_ladders_are_inprocess_invariant() {
    let opts = EncodeOptions::recommended();
    let mut classes: Vec<u32> = (0..16u32).map(npn_canonical_2).collect();
    classes.sort_unstable();
    classes.dedup();
    assert_eq!(classes.len(), 4, "2-input NPN classes");

    for &bits in &classes {
        let tt = TruthTable::from_packed(2, u64::from(bits)).expect("2-input table");
        let f = MultiOutputFn::new(format!("npn{bits:x}"), vec![tt]).expect("one output");
        let baseline = parallel::minimize_vsteps(&engines()[0].1, &f, 0, 1, 4, &opts, 1)
            .expect("baseline ladder runs");
        for (name, synth) in engines() {
            for jobs in JOBS {
                let report = parallel::minimize_vsteps(&synth, &f, 0, 1, 4, &opts, jobs)
                    .expect("ladder runs");
                let label = format!("npn {bits:04b} vsteps {name} jobs={jobs}");
                assert_same_verdict(&label, &baseline, &report);
                if let Some(c) = &report.best {
                    device_verify(&label, c, &f);
                }
            }
        }
    }
}

/// The 1-bit ripple adder's full two-phase mixed-mode ladder (the paper's
/// Table IV row): 3 inputs, 2 outputs, outer `N_R` descent plus inner
/// step descent — the workload the portfolio actually runs in anger.
#[test]
fn adder_mixed_mode_ladder_is_inprocess_invariant() {
    let opts = EncodeOptions::recommended();
    let f = generators::ripple_adder(1);
    let baseline = parallel::minimize_mixed_mode(&engines()[0].1, &f, 3, 3, true, &opts, 1)
        .expect("baseline ladder runs");
    for (name, synth) in engines() {
        for jobs in JOBS {
            let report = parallel::minimize_mixed_mode(&synth, &f, 3, 3, true, &opts, jobs)
                .expect("ladder runs");
            let label = format!("adder1 mixed-mode {name} jobs={jobs}");
            assert_same_verdict(&label, &baseline, &report);
            let best = report.best.as_ref().expect("adder1 is MM-realizable");
            assert!(best.implements(&f), "{label}: truth-table check failed");
            device_verify(&label, best, &f);
        }
    }
}

/// The GF(2^2) multiplier's inner step ladder at the paper's optimal
/// `N_R = 4` (Table IV: `N_VS = 3`): the large-encoding, long-row regime
/// the inprocessing layer targets. Too heavy for a debug-mode run, so it
/// is `#[ignore]`d here and executed in release by the CI inprocessing
/// leg (`cargo test --release --test inprocess_differential -- --ignored`).
#[test]
#[ignore = "release-mode workload; run by the CI inprocessing leg"]
fn gf22_vsteps_ladder_is_inprocess_invariant() {
    let opts = EncodeOptions::recommended();
    let f = generators::gf22_multiplier();
    let baseline = parallel::minimize_vsteps(&engines()[0].1, &f, 4, 6, 3, &opts, 1)
        .expect("baseline ladder runs");
    for (name, synth) in engines() {
        for jobs in [1, 2] {
            let report =
                parallel::minimize_vsteps(&synth, &f, 4, 6, 3, &opts, jobs).expect("ladder runs");
            let label = format!("gf22 vsteps {name} jobs={jobs}");
            assert_same_verdict(&label, &baseline, &report);
            if let Some(c) = &report.best {
                device_verify(&label, c, &f);
            }
        }
    }
}

/// The canonical (smallest) NPN representative of a 2-input function —
/// same classifier as `census_vs_sat.rs`.
fn npn_canonical_2(bits: u32) -> u32 {
    let row = |b: u32, x1: u32, x2: u32| (b >> (x1 | (x2 << 1))) & 1;
    let mut best = u32::MAX;
    for swap in [false, true] {
        for neg1 in [0u32, 1] {
            for neg2 in [0u32, 1] {
                for negout in [0u32, 1] {
                    let mut t = 0u32;
                    for x1 in 0..2u32 {
                        for x2 in 0..2u32 {
                            let (a, b) = if swap { (x2, x1) } else { (x1, x2) };
                            let v = row(bits, a ^ neg1, b ^ neg2) ^ negout;
                            t |= v << (x1 | (x2 << 1));
                        }
                    }
                    best = best.min(t);
                }
            }
        }
    }
    best
}
