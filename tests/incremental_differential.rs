//! Differential lockdown of the incremental ladder engine.
//!
//! The incremental engine (shared-base encoding + assumption-activated
//! rungs + portfolio clause sharing) is a pure *performance* feature: for
//! every function, every ladder shape, and every worker count it must
//! return exactly the verdict of the classic cold engine — same
//! `proven_optimal`, same presence of a best circuit, same optimal metrics
//! — and its decoded circuits must survive device-model verification, not
//! just the truth-table check. Any divergence here means the shared base
//! is not equisatisfiable with the per-rung encodings and is a soundness
//! bug, never an acceptable trade-off.

use memristive_mm::boolfn::{generators, MultiOutputFn, TruthTable};
use memristive_mm::circuit::{CircuitError, MmCircuit, Schedule};
use memristive_mm::device::DeviceState;
use memristive_mm::synth::optimize::{parallel, OptimizeReport};
use memristive_mm::synth::repair::{synthesize_with_repair, RepairConfig};
use memristive_mm::synth::{EncodeOptions, SynthSpec, Synthesizer};

/// The worker counts every differential case runs under (ISSUE 5
/// acceptance: 1, 2 and 8).
const JOBS: [usize; 3] = [1, 2, 8];

fn cold() -> Synthesizer {
    Synthesizer::new()
}

fn warm() -> Synthesizer {
    Synthesizer::new().with_incremental(true)
}

/// Both engines must agree on the *verdict*: optimality claim, presence of
/// a witness, and the witness's optimal metrics. Call counts and orders
/// may differ (the warm engine skips re-encoding; cancellation is timing
/// dependent) and are deliberately not compared.
fn assert_same_verdict(label: &str, cold: &OptimizeReport, warm: &OptimizeReport) {
    assert_eq!(
        cold.proven_optimal, warm.proven_optimal,
        "{label}: proven_optimal diverged"
    );
    match (&cold.best, &warm.best) {
        (None, None) => {}
        (Some(c), Some(w)) => {
            assert_eq!(
                c.metrics().n_rops,
                w.metrics().n_rops,
                "{label}: optimal N_R diverged"
            );
            assert_eq!(
                c.metrics().n_vsteps,
                w.metrics().n_vsteps,
                "{label}: optimal N_VS diverged"
            );
            assert_eq!(
                c.metrics().n_legs,
                w.metrics().n_legs,
                "{label}: optimal N_L diverged"
            );
        }
        _ => panic!("{label}: witness presence diverged (cold={cold:?} warm={warm:?})"),
    }
}

/// Replays the circuit's schedule on the ideal device model, input by
/// input — the strongest in-tree check a decoded circuit can pass.
/// (Families without a line-array schedule fall back to the truth-table
/// check the synthesizer already ran.)
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

/// Every 2-input NPN class through the pure V-op step ladder: exercises
/// the `d_step` guard family (no R-ops, no spare legs) on both SAT and
/// UNSAT-everywhere (XOR-class) ladders.
#[test]
fn npn_census_vsteps_ladders_match_cold_engine() {
    let opts = EncodeOptions::recommended();
    let mut classes: Vec<u32> = (0..16u32).map(npn_canonical_2).collect();
    classes.sort_unstable();
    classes.dedup();
    assert_eq!(classes.len(), 4, "2-input NPN classes");

    for &bits in &classes {
        let tt = TruthTable::from_packed(2, u64::from(bits)).expect("2-input table");
        let f = MultiOutputFn::new(format!("npn{bits:x}"), vec![tt]).expect("one output");
        let baseline =
            parallel::minimize_vsteps(&cold(), &f, 0, 1, 4, &opts, 1).expect("cold ladder runs");
        for jobs in JOBS {
            let report = parallel::minimize_vsteps(&warm(), &f, 0, 1, 4, &opts, jobs)
                .expect("warm ladder runs");
            let label = format!("npn {bits:04b} vsteps jobs={jobs}");
            assert_same_verdict(&label, &baseline, &report);
            if let Some(c) = &report.best {
                device_verify(&label, c, &f);
            }
        }
    }
}

/// Mixed-mode ladders over functions with genuinely different optima:
/// exercises all three guard families (`d_rop`, `d_leg`, `d_step`) plus
/// the two-phase outer/inner portfolio composition.
#[test]
fn mixed_mode_ladders_match_cold_engine() {
    let opts = EncodeOptions::recommended();
    for f in [
        generators::xor_gate(2),
        generators::and_gate(3),
        generators::nor_gate(2),
    ] {
        let baseline = parallel::minimize_mixed_mode(&cold(), &f, 3, 3, false, &opts, 1)
            .expect("cold ladder runs");
        for jobs in JOBS {
            let report = parallel::minimize_mixed_mode(&warm(), &f, 3, 3, false, &opts, jobs)
                .expect("warm ladder runs");
            let label = format!("{} mixed-mode jobs={jobs}", f.name());
            assert_same_verdict(&label, &baseline, &report);
            let best = report.best.as_ref().expect("all three are MM-realizable");
            assert!(best.implements(&f), "{label}: truth-table check failed");
            device_verify(&label, best, &f);
        }
    }
}

/// R-only ladders: the `d_rop`-only degenerate shape (no legs, no steps),
/// including a function (XOR2) whose first two rungs are UNSAT — the
/// regime where carried-over learned clauses could most plausibly corrupt
/// a later verdict.
#[test]
fn r_only_ladders_match_cold_engine() {
    let opts = EncodeOptions::recommended();
    for f in [generators::xor_gate(2), generators::nor_gate(2)] {
        let baseline =
            parallel::minimize_r_only(&cold(), &f, 5, &opts, 1).expect("cold ladder runs");
        for jobs in JOBS {
            let report =
                parallel::minimize_r_only(&warm(), &f, 5, &opts, jobs).expect("warm ladder runs");
            let label = format!("{} r-only jobs={jobs}", f.name());
            assert_same_verdict(&label, &baseline, &report);
            if let Some(c) = &report.best {
                device_verify(&label, c, &f);
            }
        }
    }
}

/// The fault-repair path synthesizes under cell avoidance, which the
/// shared base cannot express — an incremental synthesizer must fall back
/// to the cold engine there and repair exactly as before.
#[test]
fn fault_repair_path_is_unchanged_by_the_incremental_flag() {
    use memristive_mm::circuit::FaultPlan;
    const ARRAY_SIZE: usize = 8;
    let f = generators::xor_gate(2);
    let spec = SynthSpec::mixed_mode(&f, 1, 2, 2).expect("valid spec");
    let plans = vec![FaultPlan::named("stuck-0").with_stuck(0, DeviceState::Lrs)];
    let config = RepairConfig::new(ARRAY_SIZE);

    let baseline = synthesize_with_repair(&cold(), &spec, &plans, &config).expect("repair runs");
    let incremental = synthesize_with_repair(&warm(), &spec, &plans, &config).expect("repair runs");
    assert_eq!(baseline.status, incremental.status);
    assert_eq!(baseline.avoided, incremental.avoided);
    let placed = incremental
        .placement
        .expect("repaired runs carry a placement");
    assert!(
        !placed.used_cells().contains(&0),
        "repaired schedule must not touch the stuck cell"
    );
    assert!(placed.verify(&f), "repaired schedule must compute XOR2");
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
