//! Explore the designer's N_V/N_R trade-off the paper advertises:
//! synthesize the same function under different budget mixes and designer
//! constraints, and compare against the R-only baseline and the scalable
//! heuristic.
//!
//! ```sh
//! cargo run --release --example design_space
//! ```

use memristive_mm::boolfn::generators;
use memristive_mm::sat::Budget;
use memristive_mm::synth::optimize::parallel;
use memristive_mm::synth::{heuristic, EncodeOptions, SynthSpec, Synthesizer};
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let f = generators::xor_gate(3); // 3-input parity: hostile to V-ops
    println!("function: {f} ({})", f.output(0).expect("one output"));

    let synth =
        Synthesizer::new().with_budget(Budget::new().with_max_time(Duration::from_secs(60)));
    let options = EncodeOptions::recommended();
    let jobs = parallel::default_jobs();

    // 1. Optimal mixed-mode: smallest N_R, then smallest N_VS.
    let mm = parallel::minimize_mixed_mode(&synth, &f, 4, 4, false, &options, jobs)?;
    let mm_best = mm.best.as_ref().expect("XOR3 is MM-realizable");
    let m = mm_best.metrics();
    println!(
        "\nmixed-mode optimum: N_R={} N_VS={} -> {} steps on {} devices ({} SAT calls{})",
        m.n_rops,
        m.n_vsteps,
        m.n_steps,
        m.n_devices_structural,
        mm.calls.len(),
        if mm.proven_optimal {
            ", optimality proven"
        } else {
            ""
        }
    );

    // 2. Conventional stateful-only baseline.
    let r_only = parallel::minimize_r_only(&synth, &f, 8, &options, jobs)?;
    let r_best = r_only.best.as_ref().expect("NOR logic is universal");
    let rm = r_best.metrics();
    println!(
        "R-only baseline:    N_R={} -> {} steps on {} devices",
        rm.n_rops, rm.n_steps, rm.n_devices_structural
    );

    // 3. The scalable heuristic (no optimality, no SAT).
    let h = heuristic::map(&f)?;
    let hm = h.metrics();
    println!(
        "heuristic mapper:   N_R={} -> {} steps on {} devices (milliseconds, any size)",
        hm.n_rops, hm.n_steps, hm.n_devices_structural
    );

    // 4. A designer constraint: no cascaded R-ops (low-fidelity devices).
    let spec =
        SynthSpec::mixed_mode(&f, m.n_rops, m.n_legs, m.n_vsteps)?.with_options(EncodeOptions {
            forbid_rop_cascade: true,
            ..options.clone()
        });
    let constrained = synth.run(&spec)?;
    println!(
        "no-cascade variant at the same budgets: {}",
        match constrained.circuit() {
            Some(_) => "still realizable".to_string(),
            None => "needs a larger budget (cascading was load-bearing)".to_string(),
        }
    );

    println!("\ntakeaway (paper §III): V-ops are cheap and parallel but not universal;");
    println!("a few R-ops close the gap, and the N_V/N_R mix is a designer knob.");
    Ok(())
}
