//! Quick ladder timing probe (developer tool, not a bench).
//!
//! ```text
//! cargo run --release -p mm-bench --example ladder_timing -- [jobs]
//! ```

use std::time::Instant;

use mm_bench::table4;
use mm_boolfn::generators;
use mm_synth::optimize::parallel;
use mm_synth::{EncodeOptions, Synthesizer};

/// One timed ladder.
type Workload<'a> = Box<dyn Fn(&Synthesizer) + 'a>;

fn main() {
    let jobs: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let opts = EncodeOptions::recommended();
    let gf22 = table4::benchmarks()
        .into_iter()
        .find(|b| b.name == "GF(2^2) multipl.")
        .unwrap()
        .function;
    let adder1 = generators::ripple_adder(1);

    let workloads: Vec<(&str, Workload)> = vec![
        (
            "gf22 mm ladder (max_rops=4, max_steps=3)",
            Box::new(|s: &Synthesizer| {
                parallel::minimize_mixed_mode(s, &gf22, 4, 3, false, &opts, jobs).unwrap();
            }),
        ),
        (
            "adder1 mm ladder (max_rops=4, max_steps=4)",
            Box::new(|s: &Synthesizer| {
                parallel::minimize_mixed_mode(s, &adder1, 4, 4, true, &opts, jobs).unwrap();
            }),
        ),
        (
            "gf22 vsteps ladder (nR=4, nL=6, max_steps=3)",
            Box::new(|s: &Synthesizer| {
                parallel::minimize_vsteps(s, &gf22, 4, 6, 3, &opts, jobs).unwrap();
            }),
        ),
    ];

    let synth = Synthesizer::new();
    for (name, run) in &workloads {
        let t = Instant::now();
        run(&synth);
        println!("{name} [j{jobs}]: {:.2?}", t.elapsed());
    }
}
