//! The answer checker: every returned circuit must have exactly the
//! reference cost and must compute its function when its compiled schedule
//! is executed, row by row, on the ideal device line-array model.
//!
//! The device replay goes through [`Schedule::compile`] and
//! [`LineArray`] only, so it does not trust the encoder, the decoder or the
//! synthesizer's own verification.

use mm_boolfn::MultiOutputFn;
use mm_circuit::{MmCircuit, Schedule};
use mm_device::LineArray;

use crate::manifest::Optimum;

/// Checks one answer for `f` against its reference optimum.
///
/// # Errors
///
/// Returns a one-line reason when the circuit is missing, costs more or
/// less than the reference, cannot be scheduled, or computes a wrong value
/// on any input row.
pub fn check_answer(
    f: &MultiOutputFn,
    circuit: Option<&MmCircuit>,
    expected: Optimum,
) -> Result<(), String> {
    let circuit = circuit.ok_or("no circuit returned")?;
    let m = circuit.metrics();
    let got = Optimum {
        n_rops: m.n_rops,
        n_legs: m.n_legs,
        n_vsteps: m.n_vsteps,
    };
    if got != expected {
        let kind = if (got.n_rops, got.n_vsteps) > (expected.n_rops, expected.n_vsteps) {
            "non-minimal"
        } else {
            "cost disagrees with the reference"
        };
        return Err(format!("{kind}: got {got}, expected {expected}"));
    }
    simulate_on_device(f, circuit)
}

/// Executes `circuit`'s schedule for every input row on a fresh ideal line
/// array and compares each read-out with `f`.
///
/// # Errors
///
/// Returns the first mismatching row, or a shape/compile error.
pub fn simulate_on_device(f: &MultiOutputFn, circuit: &MmCircuit) -> Result<(), String> {
    if circuit.n_inputs() != f.n_inputs() || circuit.outputs().len() != f.n_outputs() {
        return Err(format!(
            "shape: circuit has {} inputs / {} outputs, function {} / {}",
            circuit.n_inputs(),
            circuit.outputs().len(),
            f.n_inputs(),
            f.n_outputs()
        ));
    }
    let schedule = Schedule::compile(circuit).map_err(|e| format!("schedule: {e}"))?;
    let mut array = LineArray::ideal(schedule.n_cells());
    for x in 0..(1u32 << f.n_inputs()) {
        let got = schedule.execute(x, &mut array);
        for (k, &bit) in got.iter().enumerate() {
            let want = f.output(k).expect("output index in range").eval(x);
            if bit != want {
                return Err(format!(
                    "wrong answer: output {k} on row {x} reads {bit}, expected {want}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use mm_boolfn::generators;
    use mm_synth::{heuristic, SynthSpec, Synthesizer};

    use super::*;

    const ADDER1: Optimum = Optimum {
        n_rops: 2,
        n_legs: 3,
        n_vsteps: 3,
    };

    fn adder1_optimum_circuit() -> (MultiOutputFn, MmCircuit) {
        let f = generators::ripple_adder(1);
        let spec = SynthSpec::mixed_mode(&f, 2, 3, 3).unwrap();
        let outcome = Synthesizer::new().run(&spec).unwrap();
        let circuit = outcome.circuit().expect("Table IV: SAT").clone();
        (f, circuit)
    }

    #[test]
    fn accepts_the_table_iv_adder() {
        let (f, circuit) = adder1_optimum_circuit();
        check_answer(&f, Some(&circuit), ADDER1).unwrap();
    }

    #[test]
    fn swapped_output_taps_are_a_wrong_answer() {
        let (f, circuit) = adder1_optimum_circuit();
        let swapped = circuit.reorder_outputs(&[1, 0]);
        let err = check_answer(&f, Some(&swapped), ADDER1).unwrap_err();
        assert!(err.starts_with("wrong answer"), "{err}");
    }

    #[test]
    fn an_over_cost_circuit_is_non_minimal() {
        let f = generators::ripple_adder(1);
        let upper = heuristic::map(&f).unwrap();
        assert!(upper.implements(&f));
        let err = check_answer(&f, Some(&upper), ADDER1).unwrap_err();
        assert!(err.starts_with("non-minimal"), "{err}");
    }

    #[test]
    fn a_missing_circuit_fails() {
        let f = generators::ripple_adder(1);
        assert!(check_answer(&f, None, ADDER1).is_err());
    }
}
