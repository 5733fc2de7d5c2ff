//! Warm (incremental) vs cold minimality ladders on Table IV workloads.
//!
//! The cold engine re-encodes and re-solves `Φ(f)` from scratch at every
//! rung; the warm engine encodes once at the top rung with disable-literal
//! guards, then walks the whole two-phase ladder (outer `N_R`, inner
//! `N_VS`) on one long-lived solver per worker, flipping assumptions
//! between rungs so every learned clause carries over. This bench measures
//! end-to-end ladder wall-clock for both engines on the same minimization,
//! through the production driver (`optimize::parallel`) at one worker and
//! at four (bus clause sharing between the workers' warm solvers).
//!
//! Run with `cargo bench --bench ladder_warm_vs_cold`. One worker isolates
//! the reuse effect (no portfolio overlap to hide it behind); the last
//! group is the inprocessing on/off comparison on the warm engine
//! (restart-boundary subsumption + vivification on the long-lived
//! solver).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mm_bench::table4;
use mm_sat::Budget;
use mm_synth::optimize::parallel;
use mm_synth::{EncodeOptions, Synthesizer};

fn engines() -> [(&'static str, Synthesizer); 2] {
    [
        ("cold", Synthesizer::new()),
        ("warm", Synthesizer::new().with_incremental(true)),
    ]
}

fn table4_function(name: &str) -> mm_boolfn::MultiOutputFn {
    table4::benchmarks()
        .into_iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("Table IV contains {name}"))
        .function
}

fn ladder_warm_vs_cold(c: &mut Criterion) {
    let opts = EncodeOptions::recommended();
    let adder1 = table4_function("1-bit adder");
    let gf22 = table4_function("GF(2^2) multipl.");

    // Full two-phase mixed-mode ladder on the 1-bit adder: 5 outer rungs +
    // the inner step ladder, on one warm solver per worker.
    for jobs in [1, 4] {
        let mut group = c.benchmark_group(format!("ladder_warm_vs_cold/adder1_j{jobs}"));
        group.sample_size(10);
        for (name, synth) in engines() {
            group.bench_with_input(BenchmarkId::from_parameter(name), &synth, |b, synth| {
                b.iter(|| {
                    parallel::minimize_mixed_mode(synth, &adder1, 4, 4, true, &opts, jobs)
                        .expect("adder specs encode")
                })
            });
        }
        group.finish();
    }

    // The GF(2^2) multiplier's inner step ladder at the paper's optimal
    // N_R = 4: the heaviest UNSAT rung (N_VS = 2) dominates.
    let mut group = c.benchmark_group("ladder_warm_vs_cold/gf22_vsteps_j1");
    group.sample_size(2);
    for (name, synth) in engines() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &synth, |b, synth| {
            b.iter(|| {
                parallel::minimize_vsteps(synth, &gf22, 4, 6, 3, &opts, 1)
                    .expect("gf22 specs encode")
            })
        });
    }
    group.finish();

    // Inprocessing ablation on the warm engine: the same adder ladder with
    // restart-boundary inprocessing enabled (default) vs disabled via the
    // budget knob. At four workers, per-worker diversification
    // (seed/phase/restart policy) comes on top.
    let mut group = c.benchmark_group("ladder_warm_vs_cold/adder1_inprocess");
    group.sample_size(10);
    for jobs in [1, 4] {
        for (name, inprocess) in [("inprocess", true), ("no-inprocess", false)] {
            let synth = Synthesizer::new()
                .with_incremental(true)
                .with_budget(Budget::new().with_inprocess(inprocess));
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("j{jobs}/{name}")),
                &synth,
                |b, synth| {
                    b.iter(|| {
                        parallel::minimize_mixed_mode(synth, &adder1, 4, 4, true, &opts, jobs)
                            .expect("adder specs encode")
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, ladder_warm_vs_cold);
criterion_main!(benches);
