//! Emits the performance-trajectory report (`BENCH_<n>.json`).
//!
//! Runs a fixed probe set — synthesis ladders on the production driver
//! (`optimize::parallel` at one worker) with telemetry attached, a seeded fuzz sweep, and a Monte-Carlo device sweep — and
//! folds the results into a [`BenchReport`]: deterministic workload
//! counters (solver conflicts, CNF sizes, synthesis-call and rung counts,
//! degraded-scenario counts) plus advisory wall-clock timings. CI diffs
//! the emitted file against the committed baseline with
//! `scripts/bench_diff.py`.
//!
//! ```text
//! bench_report --pr 7 --out BENCH_7.json
//! ```

use std::sync::Arc;
use std::time::Instant;

use mm_bench::report::{BenchReport, Direction};
use mm_boolfn::{generators, MultiOutputFn};
use mm_device::ElectricalParams;
use mm_service::{Attempt, AttemptResult, Engine, JobRequest, ResultCache};
use mm_synth::fuzz::{run_fuzz, FuzzConfig};
use mm_synth::optimize::parallel::minimize_mixed_mode;
use mm_synth::{EncodeOptions, Synthesizer};
use mm_telemetry::{MemorySink, RunReport, Telemetry};

/// Fuzz probe parameters: small enough to finish in seconds, large enough
/// to hit every scenario regime (budget regimes, fault plans, repair).
const FUZZ_SEED: u64 = 42;
const FUZZ_BUDGET: usize = 20;

/// Monte-Carlo probe size.
const MC_TRIALS: u32 = 256;
const MC_SEED: u64 = 7;

fn ladder_probe(report: &mut BenchReport, tag: &str, f: &MultiOutputFn, max_rops: usize) {
    let sink = Arc::new(MemorySink::new());
    let synth = Synthesizer::new().with_telemetry(Telemetry::new(sink.clone()));
    let started = Instant::now();
    let out = minimize_mixed_mode(&synth, f, max_rops, 3, false, &EncodeOptions::default(), 1)
        .expect("probe ladder must synthesize");
    let elapsed = started.elapsed();
    assert!(out.proven_optimal, "probe ladder must prove optimality");
    let run = RunReport::from_events(&sink.snapshot());

    let conflicts: u64 = run.rungs.iter().map(|r| r.conflicts).sum();
    let vars: u64 = out.calls.iter().map(|c| c.n_vars as u64).max().unwrap_or(0);
    let clauses: u64 = out
        .calls
        .iter()
        .map(|c| c.n_clauses as u64)
        .max()
        .unwrap_or(0);
    let lower = Direction::Lower;
    report.push(
        format!("ladder_{tag}_conflicts"),
        conflicts as f64,
        "count",
        lower,
        true,
    );
    report.push(
        format!("ladder_{tag}_max_vars"),
        vars as f64,
        "count",
        lower,
        true,
    );
    report.push(
        format!("ladder_{tag}_max_clauses"),
        clauses as f64,
        "count",
        lower,
        true,
    );
    report.push(
        format!("ladder_{tag}_calls"),
        out.calls.len() as f64,
        "count",
        lower,
        true,
    );
    report.push(
        format!("ladder_{tag}_time_us"),
        elapsed.as_micros() as f64,
        "us",
        lower,
        false,
    );
}

fn fuzz_probe(report: &mut BenchReport) {
    let started = Instant::now();
    let summary = run_fuzz(
        FUZZ_SEED,
        FUZZ_BUDGET,
        None,
        &FuzzConfig::default(),
        |_, _| {},
    );
    let elapsed = started.elapsed();
    assert!(
        summary.violations.is_empty(),
        "fuzz probe found violations: {:?}",
        summary.violations
    );
    report.push(
        "fuzz_seed42_degraded",
        summary.degraded as f64,
        "count",
        Direction::None,
        true,
    );
    report.push(
        "fuzz_seed42_scenarios_per_s",
        summary.scenarios as f64 / elapsed.as_secs_f64(),
        "rate",
        Direction::Higher,
        false,
    );
    report.push(
        "fuzz_seed42_time_us",
        elapsed.as_micros() as f64,
        "us",
        Direction::Lower,
        false,
    );
}

fn device_probe(report: &mut BenchReport) {
    let started = Instant::now();
    let v_rate =
        mm_device::monte_carlo::v_op_error_rate(ElectricalParams::bfo(), MC_TRIALS, MC_SEED);
    let r_rate =
        mm_device::monte_carlo::r_op_error_rate(ElectricalParams::bfo(), MC_TRIALS, MC_SEED);
    let elapsed = started.elapsed();
    report.push(
        "mc_vop_error_rate_bfo",
        v_rate,
        "rate",
        Direction::Lower,
        true,
    );
    report.push(
        "mc_rop_error_rate_bfo",
        r_rate,
        "rate",
        Direction::Lower,
        true,
    );
    report.push(
        "mc_sweep_time_us",
        elapsed.as_micros() as f64,
        "us",
        Direction::Lower,
        false,
    );
}

/// The service-cache probe: one deterministic minimize request served
/// three ways — cold miss, warm hit, and warm hit with `--paranoid`
/// device re-execution. Deterministic gates: a hit must not invoke the
/// solver, and a hit must serve the same circuit step count as the cold
/// solve. The timings are advisory wall-clock.
fn service_cache_probe(report: &mut BenchReport) {
    let dir = std::env::temp_dir().join(format!("bench_service_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let line = r#"{"op":"minimize","id":"bench","tables":["0110"],"max_rops":3,"max_steps":3}"#;
    let request = JobRequest::parse(line).expect("probe request parses");
    let attempt = Attempt {
        index: 0,
        max_conflicts: None,
        backoff: std::time::Duration::ZERO,
    };
    let run = |engine: &Arc<Engine>| {
        let started = Instant::now();
        let response = match engine.run_attempt("bench", &request.op, &attempt) {
            AttemptResult::Done(r) => r,
            AttemptResult::Retry { reason, .. } => {
                panic!("probe request must be conclusive, got retry: {reason}")
            }
        };
        (response, started.elapsed())
    };

    let (cache, _) = ResultCache::open(&dir).expect("probe cache opens");
    let engine = Arc::new(Engine::new(1).with_cache(cache));
    let (cold, cold_t) = run(&engine);
    let (warm, warm_t) = run(&engine);
    drop(engine);
    let (cache, recovery) = ResultCache::open(&dir).expect("probe cache reopens");
    assert_eq!(recovery.quarantined, 0, "probe cache must survive reopen");
    let engine = Arc::new(Engine::new(1).with_cache(cache.with_paranoid(true)));
    let (paranoid, paranoid_t) = run(&engine);
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(cold.cache.map(|c| c.as_str()), Some("miss"));
    assert_eq!(warm.cache.map(|c| c.as_str()), Some("hit"));
    assert_eq!(paranoid.cache.map(|c| c.as_str()), Some("hit"));
    let steps = |r: &mm_service::JobResponse| {
        r.metrics
            .as_ref()
            .map(|m| m.n_steps as f64)
            .expect("probe solve yields a circuit")
    };
    assert_eq!(steps(&warm), steps(&cold), "hit must match the cold solve");

    let lower = Direction::Lower;
    report.push(
        "service_cache_hit_solver_calls",
        warm.solver_calls.unwrap_or(u64::MAX) as f64,
        "count",
        lower,
        true,
    );
    report.push(
        "service_cache_cold_solver_calls",
        cold.solver_calls.unwrap_or(0) as f64,
        "count",
        lower,
        true,
    );
    report.push("service_cache_steps", steps(&cold), "count", lower, true);
    report.push(
        "service_cache_cold_us",
        cold_t.as_micros() as f64,
        "us",
        lower,
        false,
    );
    report.push(
        "service_cache_hit_us",
        warm_t.as_micros() as f64,
        "us",
        lower,
        false,
    );
    report.push(
        "service_cache_paranoid_hit_us",
        paranoid_t.as_micros() as f64,
        "us",
        lower,
        false,
    );
}

/// Inprocessing probe: the 1-bit adder's mixed-mode ladder run at one
/// worker with inprocessing on and off. The inprocessing activity
/// counters and per-run conflict totals are deterministic (one worker);
/// the on/off wall-clock ratio is the
/// advisory speedup headline. Both runs must agree on the verdict — that
/// is the same invariant `tests/inprocess_differential.rs` locks down,
/// re-checked here on the exact workload the trajectory tracks.
fn inprocess_probe(report: &mut BenchReport) {
    use mm_sat::Budget;

    let f = generators::ripple_adder(1);
    let run = |inprocess: bool| {
        let sink = Arc::new(MemorySink::new());
        let synth = Synthesizer::new()
            .with_budget(Budget::new().with_inprocess(inprocess))
            .with_telemetry(Telemetry::new(sink.clone()));
        let started = Instant::now();
        let out = minimize_mixed_mode(&synth, &f, 4, 4, true, &EncodeOptions::default(), 1)
            .expect("probe ladder must synthesize");
        let elapsed = started.elapsed();
        assert!(out.proven_optimal, "probe ladder must prove optimality");
        (out, RunReport::from_events(&sink.snapshot()), elapsed)
    };
    let (on, on_run, on_t) = run(true);
    let (off, off_run, off_t) = run(false);
    let metrics = |o: &mm_synth::optimize::OptimizeReport| {
        let b = o.best.as_ref().expect("adder1 is MM-realizable");
        (b.metrics().n_rops, b.metrics().n_vsteps, b.metrics().n_legs)
    };
    assert_eq!(
        metrics(&on),
        metrics(&off),
        "inprocessing changed a verdict"
    );
    assert_eq!(
        off_run.counter("solver.inprocess.subsumed") + off_run.counter("solver.inprocess.vivified"),
        0,
        "--no-inprocess run must not inprocess"
    );

    let none = Direction::None;
    report.push(
        "inprocess_adder1_subsumed",
        on_run.counter("solver.inprocess.subsumed") as f64,
        "count",
        none,
        true,
    );
    report.push(
        "inprocess_adder1_vivified",
        on_run.counter("solver.inprocess.vivified") as f64,
        "count",
        none,
        true,
    );
    report.push(
        "inprocess_adder1_conflicts",
        on_run.counter("solver.conflicts") as f64,
        "count",
        Direction::Lower,
        true,
    );
    report.push(
        "noinprocess_adder1_conflicts",
        off_run.counter("solver.conflicts") as f64,
        "count",
        Direction::Lower,
        true,
    );
    report.push(
        "inprocess_adder1_time_us",
        on_t.as_micros() as f64,
        "us",
        Direction::Lower,
        false,
    );
    report.push(
        "inprocess_adder1_speedup",
        off_t.as_secs_f64() / on_t.as_secs_f64().max(f64::EPSILON),
        "ratio",
        Direction::Higher,
        false,
    );
}

/// Metrics-registry overhead probe: the hot-path cost the observability
/// layer adds to every job — one counter increment and one histogram
/// observation per attempt — plus a full Prometheus render with the
/// daemon's family set registered. The registered-family count is the
/// deterministic gate (it moves only when instrumentation is added or
/// removed); the per-op timings are advisory wall-clock.
fn metrics_overhead_probe(report: &mut BenchReport) {
    use mm_service::ServiceMetrics;
    use mm_telemetry::metrics::MetricsRegistry;

    let registry = Arc::new(MetricsRegistry::new());
    let _service = ServiceMetrics::register(registry.clone());
    let counter = registry.counter("bench_probe_total", "Overhead probe counter.");
    let histogram = registry.histogram("bench_probe_us", "Overhead probe histogram.");

    const OPS: u64 = 1_000_000;
    let started = Instant::now();
    for _ in 0..OPS {
        counter.inc();
    }
    let inc_ns = started.elapsed().as_nanos() as f64 / OPS as f64;
    let started = Instant::now();
    for i in 0..OPS {
        histogram.observe(i % 1_000_000);
    }
    let observe_ns = started.elapsed().as_nanos() as f64 / OPS as f64;
    assert_eq!(counter.get(), OPS, "probe counter must not drop increments");
    assert_eq!(
        histogram.count(),
        OPS,
        "probe histogram must not drop observations"
    );

    const RENDERS: u32 = 1_000;
    let started = Instant::now();
    let mut rendered_len = 0usize;
    for _ in 0..RENDERS {
        rendered_len = registry.render_prometheus().len();
    }
    let render_us = started.elapsed().as_micros() as f64 / f64::from(RENDERS);
    assert!(rendered_len > 0, "render must produce output");

    let families = match registry.to_value() {
        serde::Value::Object(fields) => fields
            .into_iter()
            .find(|(k, _)| k == "families")
            .map(|(_, v)| match v {
                serde::Value::Array(items) => items.len(),
                _ => 0,
            })
            .unwrap_or(0),
        _ => 0,
    };
    report.push(
        "metrics_overhead_families",
        families as f64,
        "count",
        Direction::None,
        true,
    );
    report.push(
        "metrics_overhead_counter_inc_ns",
        inc_ns,
        "ns",
        Direction::Lower,
        false,
    );
    report.push(
        "metrics_overhead_histogram_observe_ns",
        observe_ns,
        "ns",
        Direction::Lower,
        false,
    );
    report.push(
        "metrics_overhead_render_us",
        render_us,
        "us",
        Direction::Lower,
        false,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut pr: u64 = 0;
    let mut out_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--pr" => pr = it.next().and_then(|v| v.parse().ok()).unwrap_or(0),
            "--out" => out_path = it.next().cloned(),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: bench_report --pr <n> [--out BENCH_<n>.json]");
                std::process::exit(2);
            }
        }
    }

    let mut report = BenchReport::new(pr);
    ladder_probe(&mut report, "xor2", &generators::xor_gate(2), 3);
    ladder_probe(&mut report, "maj3", &generators::majority_gate(3), 4);
    inprocess_probe(&mut report);
    fuzz_probe(&mut report);
    device_probe(&mut report);
    service_cache_probe(&mut report);
    metrics_overhead_probe(&mut report);

    let json = report.to_json().expect("bench report serializes");
    match out_path {
        Some(path) => {
            mm_telemetry::atomic_write(&path, format!("{json}\n")).expect("write bench report");
            eprintln!("wrote {path} ({} metrics)", report.metrics.len());
        }
        None => println!("{json}"),
    }
}
