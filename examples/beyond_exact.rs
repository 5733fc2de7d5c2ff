//! The paper's future work, working today: map functions *beyond* the
//! reach of optimal synthesis (more than 7 inputs) with the scalable
//! heuristic, verify them end to end on the line array, and measure the
//! optimality gap on functions small enough to also solve exactly.
//!
//! ```sh
//! cargo run --release --example beyond_exact
//! ```

use memristive_mm::boolfn::{generators, Gf2m};
use memristive_mm::circuit::Schedule;
use memristive_mm::sat::Budget;
use memristive_mm::synth::optimize::parallel;
use memristive_mm::synth::{heuristic, EncodeOptions, Synthesizer};
use std::time::{Duration, Instant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Large functions: exact synthesis is hopeless, the mapper is instant.
    println!("heuristic mapping beyond the exact frontier:");
    let big: Vec<memristive_mm::boolfn::MultiOutputFn> = vec![
        generators::ripple_adder(4),               // 9 inputs
        generators::gf_multiplier(&Gf2m::gf16()?), // 8 inputs, 4 outputs
        generators::xor_gate(8),
    ];
    for f in &big {
        let t = Instant::now();
        let c = heuristic::map(f)?;
        let dt = t.elapsed();
        let m = c.metrics();
        let schedule = Schedule::compile(&c)?;
        let ok = schedule.verify(f);
        println!(
            "  {:<12} n={} N_O={}: N_R={:>3} N_St={:>3} N_Dev={:>3} in {dt:>9.2?} (verified: {})",
            f.name(),
            f.n_inputs(),
            f.n_outputs(),
            m.n_rops,
            m.n_steps,
            m.n_devices_structural,
            if ok { "OK" } else { "FAIL" }
        );
    }

    // Optimality gap on small functions.
    println!("\nheuristic vs optimal on small functions (60 s budget per SAT call):");
    let synth =
        Synthesizer::new().with_budget(Budget::new().with_max_time(Duration::from_secs(60)));
    for f in [
        generators::xor_gate(2),
        generators::majority_gate(3),
        generators::mux21(),
        generators::and_or_22(),
    ] {
        let h = heuristic::map(&f)?;
        let hm = h.metrics();
        let report = parallel::minimize_mixed_mode(
            &synth,
            &f,
            3,
            3,
            false,
            &EncodeOptions::recommended(),
            parallel::default_jobs(),
        )?;
        match report.best {
            Some(best) => {
                let om = best.metrics();
                println!(
                    "  {:<12} heuristic: {} steps / {} dev   optimal: {} steps / {} dev",
                    f.name(),
                    hm.n_steps,
                    hm.n_devices_structural,
                    om.n_steps,
                    om.n_devices_structural
                );
            }
            None => println!(
                "  {:<12} heuristic: {} steps (exact search exceeded budget)",
                f.name(),
                hm.n_steps
            ),
        }
    }
    Ok(())
}
