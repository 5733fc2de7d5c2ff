//! One benchmark run: the workload's passes, its answer checks, and the
//! end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::batch::{self, PassResult};
use crate::layers::TraceSummary;
use crate::manifest::{Manifest, WorkloadSpec};
use crate::measure::{median, median_or_zero, peak_rss_mb, tail};
use crate::service::{self, ServicePass};

/// The end-to-end metrics every workload prints with `--trace 0`, with
/// their units.
/// (`job_p50_ms`, `job_tail_ms`, `hit_p50_us` and `failed_ratio` are
/// printed in the report and, all but the last, with the per-layer
/// metrics: on the reference machine the per-job percentiles of the batch
/// workloads do not repeat within a tenth, `hit_p50_us` exists only on
/// `service`, and `failed_ratio` is 0.)
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("jobs_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("proven_ratio", "ratio"),
];

/// Batch set-ups timed before each untraced pass; `setup_s` is the median
/// over the run.
const SETUP_REPEATS: usize = 50;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement length; sets the number of passes.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

/// The result of a run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Every answer checked out and every determinism check held.
    pub correct: bool,
    /// Operations attempted (minimize calls or requests).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines (context, sample counts, failures).
    pub lines: Vec<String>,
}

/// Passes a run makes: `seconds` over the workload's nominal pass time,
/// at least one. A fixed count (not a deadline) keeps the sample count,
/// and so the tail percentile, the same on every run.
pub fn passes(spec: &WorkloadSpec, seconds: f64) -> usize {
    ((seconds / spec.nominal_pass_s).round() as usize).max(1)
}

/// Runs a workload as `manifest.json` defines it.
///
/// # Errors
///
/// An unknown workload, or a failure that stops the run before any result
/// (e.g. the daemon cannot start).
pub fn run(opts: &RunOptions) -> Result<RunOutcome, String> {
    run_with(&Manifest::load(), opts)
}

/// Runs a workload as `manifest` defines it (the self-test shrinks the
/// suites).
///
/// # Errors
///
/// As [`run`].
pub fn run_with(manifest: &Manifest, opts: &RunOptions) -> Result<RunOutcome, String> {
    let spec = manifest
        .workload(&opts.workload)
        .ok_or_else(|| format!("unknown workload {:?}", opts.workload))?
        .clone();
    let total = passes(&spec, opts.seconds);
    let (untraced, traced) = if opts.trace {
        let untraced = (total / 2).max(1);
        (untraced, (total - untraced).max(2))
    } else {
        (total, 0)
    };
    let mut report = Report::new(manifest, &spec, opts, untraced, traced);
    if spec.name == "service" {
        run_service(manifest, &spec, opts, untraced, traced, &mut report)?;
    } else {
        run_batch(manifest, &spec, opts, untraced, traced, &mut report)?;
    }
    Ok(report.finish())
}

/// Accumulates checks, samples and metrics while a run proceeds.
struct Report {
    layer_specs: Vec<crate::manifest::LayerMetric>,
    trace: bool,
    attempted: u64,
    failed: u64,
    correct: bool,
    lines: Vec<String>,
    metrics: BTreeMap<String, f64>,
}

impl Report {
    fn new(
        manifest: &Manifest,
        spec: &WorkloadSpec,
        opts: &RunOptions,
        untraced: usize,
        traced: usize,
    ) -> Self {
        let lines = vec![format!(
            "perfbench workload={} seed={} engine={} jobs={} passes={untraced} traced_passes={traced}",
            spec.name, opts.seed, spec.engine, spec.jobs
        )];
        Self {
            layer_specs: manifest.layer_metrics.clone(),
            trace: opts.trace,
            attempted: 0,
            failed: 0,
            correct: true,
            lines,
            metrics: BTreeMap::new(),
        }
    }

    fn outcome(&mut self, what: &str, failure: Option<&String>) {
        self.attempted += 1;
        if let Some(reason) = failure {
            self.failed += 1;
            self.correct = false;
            self.lines.push(format!("FAIL {what}: {reason}"));
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Writes the end-to-end timings shared by every workload.
    /// `peak_mb` is `VmHWM` after the first pass: later passes repeat the
    /// same work, and the allocator fragmentation repetition adds is the
    /// benchmark's artefact, not the program's peak.
    fn end_to_end(
        &mut self,
        walls: &[f64],
        cpus: &[f64],
        per_pass: usize,
        latencies_s: &[f64],
        peak_mb: f64,
    ) {
        let rates: Vec<f64> = walls.iter().map(|w| per_pass as f64 / w).collect();
        let ms: Vec<f64> = latencies_s.iter().map(|s| s * 1e3).collect();
        let (tail_ms, pct) = tail(&ms);
        self.set("wall_s", median(walls));
        self.set("jobs_per_s", median(&rates));
        self.set("job_p50_ms", median(&ms));
        self.set("job_tail_ms", tail_ms);
        self.set("cpu_s", median(cpus));
        self.set("peak_rss_mb", peak_mb);
        self.note(format!(
            "samples: {} passes, {} jobs; job_tail_ms is p{pct:.2}",
            walls.len(),
            ms.len()
        ));
        let list = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        self.note(format!(
            "per pass: wall_s {} | cpu_s {}",
            list(walls),
            list(cpus)
        ));
    }

    fn finish(mut self) -> RunOutcome {
        let failed_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        self.lines.push(format!(
            "e2e failed_ratio = {failed_ratio} ratio ({} of {} operations)",
            self.failed, self.attempted
        ));
        let mut metrics = Vec::new();
        if self.trace {
            for m in &self.layer_specs {
                let value = self.metrics.get(&m.name).copied().unwrap_or(f64::NAN);
                self.lines.push(format!(
                    "layer {} {} = {value} {} | moves {} on {} | flat on {}",
                    m.layer,
                    m.name,
                    m.unit,
                    m.moves.join(","),
                    m.on.join(","),
                    m.flat_on.join(",")
                ));
                metrics.push(Metric {
                    name: m.name.clone(),
                    value,
                    unit: m.unit.clone(),
                });
            }
        } else {
            for (name, unit) in END_TO_END {
                let value = self.metrics.get(name).copied().unwrap_or(f64::NAN);
                self.lines.push(format!("e2e {name} = {value} {unit}"));
                metrics.push(Metric {
                    name: name.to_string(),
                    value,
                    unit: unit.to_string(),
                });
            }
            for (name, unit) in [
                ("job_p50_ms", "ms"),
                ("job_tail_ms", "ms"),
                ("hit_p50_us", "us"),
            ] {
                if let Some(value) = self.metrics.get(name) {
                    self.lines.push(format!(
                        "e2e {name} = {value} {unit} (ungated; reported with the per-layer metrics)"
                    ));
                }
            }
        }
        for m in metrics.iter_mut().filter(|m| !m.value.is_finite()) {
            self.correct = false;
            self.lines
                .push(format!("FAIL metric {} was not measured", m.name));
            m.value = 0.0;
        }
        RunOutcome {
            correct: self.correct,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            lines: self.lines,
        }
    }
}

fn run_batch(
    manifest: &Manifest,
    spec: &WorkloadSpec,
    opts: &RunOptions,
    untraced: usize,
    traced: usize,
    report: &mut Report,
) -> Result<(), String> {
    let jobs = batch::suite(manifest, spec, opts.seed)?;
    report.note(format!(
        "suite (seeded order): {}",
        jobs.iter()
            .map(|j| j.name.as_str())
            .collect::<Vec<_>>()
            .join(" ")
    ));

    // Set-up (load the workload definition, build its seeded suite) is
    // timed before every untraced pass, so its median spans the whole run
    // rather than one instant of machine load.
    let mut setups = Vec::with_capacity(SETUP_REPEATS * untraced);
    let mut time_setups = || -> Result<(), String> {
        for _ in 0..SETUP_REPEATS {
            let t = Instant::now();
            let m = Manifest::load();
            let spec = m.workload(&spec.name).ok_or("workload vanished")?;
            std::hint::black_box(batch::suite(&m, spec, opts.seed)?);
            setups.push(t.elapsed().as_secs_f64());
        }
        Ok(())
    };
    let run = |traced: bool| batch::run_pass(manifest.ladder, spec, &jobs, traced);
    time_setups()?;
    let mut plain = vec![run(false)];
    let peak_mb = peak_rss_mb();
    for _ in 1..untraced {
        time_setups()?;
        plain.push(run(false));
    }
    let with_trace: Vec<PassResult> = (0..traced).map(|_| run(true)).collect();
    for pass in plain.iter().chain(&with_trace) {
        for job in &pass.jobs {
            report.outcome(&job.name, job.failure.as_ref());
        }
    }

    let walls: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
    let cpus: Vec<f64> = plain.iter().map(|p| p.cpu_s).collect();
    let latencies: Vec<f64> = plain
        .iter()
        .flat_map(|p| p.jobs.iter().map(|j| j.latency_s))
        .collect();
    let proven = plain
        .iter()
        .flat_map(|p| &p.jobs)
        .filter(|j| j.proven)
        .count();
    report.set("setup_s", median(&setups));
    report.set("proven_ratio", proven as f64 / latencies.len() as f64);
    report.end_to_end(&walls, &cpus, jobs.len(), &latencies, peak_mb);
    report.note(format!("setup_s is the median of {} set-ups", setups.len()));
    if !opts.trace {
        return Ok(());
    }

    if spec.jobs == 1 {
        check_determinism(&with_trace, report);
    }
    let per_pass: Vec<BTreeMap<String, f64>> = with_trace
        .iter()
        .map(|p| {
            let t = p.trace().expect("traced pass carries traces");
            let mut values = trace_values(&t);
            values.insert("drat.proof_steps".into(), p.proof_steps() as f64);
            values
        })
        .collect();
    let traced_walls: Vec<f64> = with_trace.iter().map(|p| p.wall_s).collect();
    set_layer_medians(report, &per_pass);
    run_level_layers(report, spec, &walls, &cpus, &traced_walls, spec.jobs);
    Ok(())
}

/// At `jobs = 1` the per-function counters must repeat exactly from pass
/// to pass (and so from run to run).
fn check_determinism(passes: &[PassResult], report: &mut Report) {
    let Some(first) = passes.first() else {
        return;
    };
    for later in &passes[1..] {
        for (a, b) in first.jobs.iter().zip(&later.jobs) {
            if a.fingerprint() != b.fingerprint() {
                let reason = format!(
                    "counters do not repeat: {:?} vs {:?} (conflicts, propagations, subsumed, vivified, eliminated, proof steps)",
                    a.fingerprint(),
                    b.fingerprint()
                );
                report.outcome(&format!("determinism {}", a.name), Some(&reason));
            }
        }
    }
    report.note(format!(
        "determinism: counters compared across {} traced passes",
        passes.len()
    ));
}

/// The per-layer numbers one traced pass's telemetry yields.
fn trace_values(t: &TraceSummary) -> BTreeMap<String, f64> {
    let solve_s = t.busy_s("solve");
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let pairs: Vec<(&str, f64)> = vec![
        ("optimize.rungs_solved", t.rungs_solved as f64),
        ("optimize.rungs_skipped", t.rungs_skipped as f64),
        ("optimize.rungs_cancelled", t.rungs_cancelled as f64),
        (
            "optimize.useful_conflict_ratio",
            ratio(t.useful_conflicts as f64, t.rung_conflicts as f64),
        ),
        ("encoder.busy_s", t.busy_s("encode")),
        ("encoder.calls", t.calls("encode") as f64),
        ("encoder.vars_max", t.vars_max as f64),
        ("encoder.clauses_max", t.clauses_max as f64),
        ("encoder.clauses_total", t.clauses_total as f64),
        ("solver.busy_s", solve_s),
        ("solver.conflicts", t.counter("solver.conflicts") as f64),
        ("solver.decisions", t.counter("solver.decisions") as f64),
        (
            "solver.propagations",
            t.counter("solver.propagations") as f64,
        ),
        (
            "solver.props_per_s",
            ratio(t.counter("solver.propagations") as f64, solve_s),
        ),
        ("solver.restarts", t.counter("solver.restarts") as f64),
        (
            "solver.reused_clauses",
            t.counter("solver.reused_clauses") as f64,
        ),
        ("solver.hardest_call_s", t.solve_max_us as f64 / 1e6),
        (
            "inprocess.subsumed",
            t.counter("solver.inprocess.subsumed") as f64,
        ),
        (
            "inprocess.vivified",
            t.counter("solver.inprocess.vivified") as f64,
        ),
        (
            "inprocess.eliminated",
            t.counter("solver.inprocess.eliminated") as f64,
        ),
        (
            "share.exported",
            t.counter("ladder.clauses_exported") as f64,
        ),
        (
            "share.imported",
            t.counter("ladder.clauses_imported") as f64,
        ),
        ("drat.busy_s", t.busy_s("certify")),
        ("drat.proof_steps", 0.0),
        ("drat.check_per_solve", ratio(t.busy_s("certify"), solve_s)),
        ("decode.busy_s", t.busy_s("decode")),
        ("device_verify.busy_s", t.busy_s("device-verify")),
        ("device_verify.calls", t.calls("device-verify") as f64),
        ("daemon.retries", t.retries as f64),
        ("daemon.shed", t.shed as f64),
        ("daemon.attempt_p50_us", 0.0),
        ("daemon.queue_wait_p50_us", 0.0),
        ("cache.hits", 0.0),
        ("cache.misses", 0.0),
        ("cache.stores", 0.0),
        ("cache.hit_ratio", 0.0),
        ("cache.disk_bytes", 0.0),
    ];
    pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// Per-layer metric = median over traced passes.
fn set_layer_medians(report: &mut Report, per_pass: &[BTreeMap<String, f64>]) {
    let Some(first) = per_pass.first() else {
        return;
    };
    for name in first.keys() {
        let values: Vec<f64> = per_pass.iter().map(|m| m[name]).collect();
        report.set(name, median(&values));
    }
}

/// Per-layer numbers that need the whole run: CPU utilization and the
/// tracing overhead (from untraced vs traced passes), and zero for the
/// cache-path timers a batch workload never calls.
fn run_level_layers(
    report: &mut Report,
    spec: &WorkloadSpec,
    walls: &[f64],
    cpus: &[f64],
    traced_walls: &[f64],
    width: usize,
) {
    let utilization: Vec<f64> = walls
        .iter()
        .zip(cpus)
        .map(|(w, c)| c / (w * width as f64))
        .collect();
    report.set("optimize.cpu_utilization", median(&utilization));
    report.set(
        "telemetry.overhead_ratio",
        median(traced_walls) / median(walls) - 1.0,
    );
    if spec.name != "service" {
        for name in [
            "hit_p50_us",
            "npn.canonicalize_p50_us",
            "npn.decanonicalize_p50_us",
            "npn.calls",
            "cache.open_s",
            "cache.lookup_p50_us",
            "cache.store_p50_us",
        ] {
            report.set(name, 0.0);
        }
    }
}

fn run_service(
    manifest: &Manifest,
    spec: &WorkloadSpec,
    opts: &RunOptions,
    untraced: usize,
    traced: usize,
    report: &mut Report,
) -> Result<(), String> {
    let root = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".perfbench_tmp")
        .join(format!("{}-{}", spec.name, std::process::id()));
    let result = service_passes(manifest, spec, opts, untraced, traced, &root, report);
    let _ = std::fs::remove_dir_all(&root);
    if let Some(parent) = root.parent() {
        // Removes the shared scratch root only when no other run uses it.
        let _ = std::fs::remove_dir(parent);
    }
    result
}

fn service_passes(
    manifest: &Manifest,
    spec: &WorkloadSpec,
    opts: &RunOptions,
    untraced: usize,
    traced: usize,
    root: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let prep = service::prepare(manifest, spec, opts.seed, root)?;
    let prefilled = prep
        .classes
        .iter()
        .filter(|c| c.prefilled.is_some())
        .count();
    report.note(format!(
        "stream: {} requests over {} functions; {prefilled} of {} classes prefilled; workers={} solve_jobs={} window={}",
        prep.stream.len(),
        prep.functions.len(),
        prep.classes.len(),
        spec.workers,
        spec.jobs,
        spec.window
    ));
    let mut plain = vec![service::run_pass(&prep, spec, false, 0)?];
    let peak_mb = peak_rss_mb();
    for i in 1..untraced {
        plain.push(service::run_pass(&prep, spec, false, i)?);
    }
    let mut with_trace = Vec::with_capacity(traced);
    for i in 0..traced {
        with_trace.push(service::run_pass(&prep, spec, true, untraced + i)?);
    }
    for pass in plain.iter().chain(&with_trace) {
        for (i, r) in pass.requests.iter().enumerate() {
            report.outcome(&format!("request r{i}"), r.failure.as_ref());
        }
    }

    let walls: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
    let cpus: Vec<f64> = plain.iter().map(|p| p.cpu_s).collect();
    let setups: Vec<f64> = plain.iter().map(|p| p.setup_s).collect();
    let latencies: Vec<f64> = plain
        .iter()
        .flat_map(|p| p.requests.iter().map(|r| r.latency_s))
        .collect();
    let hits_us: Vec<f64> = plain
        .iter()
        .flat_map(|p| {
            p.requests
                .iter()
                .filter(|r| r.hit)
                .map(|r| r.latency_s * 1e6)
        })
        .collect();
    let proven = plain
        .iter()
        .flat_map(|p| &p.requests)
        .filter(|r| r.proven)
        .count();
    report.set("setup_s", median(&setups));
    report.set("proven_ratio", proven as f64 / latencies.len() as f64);
    report.set("hit_p50_us", median_or_zero(&hits_us));
    report.end_to_end(&walls, &cpus, prep.stream.len(), &latencies, peak_mb);
    report.note(format!(
        "setup_s is the median of {} Daemon::start calls; hit_p50_us over {} hits",
        setups.len(),
        hits_us.len()
    ));
    if !opts.trace {
        return Ok(());
    }

    let per_pass: Vec<BTreeMap<String, f64>> = with_trace.iter().map(service_pass_values).collect();
    set_layer_medians(report, &per_pass);
    let traced_walls: Vec<f64> = with_trace.iter().map(|p| p.wall_s).collect();
    run_level_layers(
        report,
        spec,
        &walls,
        &cpus,
        &traced_walls,
        spec.workers * spec.jobs,
    );

    let last = with_trace.last().ok_or("no traced pass")?;
    let replay = service::replay(&prep, &last.class_circuits)?;
    report.set(
        "npn.canonicalize_p50_us",
        median_or_zero(&replay.canonicalize_us),
    );
    report.set(
        "npn.decanonicalize_p50_us",
        median_or_zero(&replay.decanonicalize_us),
    );
    report.set("npn.calls", replay.canonicalize_us.len() as f64);
    report.set("cache.open_s", replay.open_s);
    report.set("cache.lookup_p50_us", median_or_zero(&replay.lookup_us));
    report.set("cache.store_p50_us", median_or_zero(&replay.store_us));
    Ok(())
}

/// The per-layer numbers of one traced `service` pass.
fn service_pass_values(pass: &ServicePass) -> BTreeMap<String, f64> {
    let t = pass.trace.as_ref().expect("traced pass carries a trace");
    let mut values = trace_values(t);
    let attempts: Vec<f64> = t.attempt_us.iter().map(|(_, us)| *us as f64).collect();
    // Queue wait = client latency minus the job's own attempt time(s).
    let mut attempt_by_request = vec![0.0; pass.requests.len()];
    for (id, us) in &t.attempt_us {
        if let Some(i) = id.strip_prefix('r').and_then(|i| i.parse::<usize>().ok()) {
            if let Some(slot) = attempt_by_request.get_mut(i) {
                *slot += *us as f64;
            }
        }
    }
    let waits: Vec<f64> = pass
        .requests
        .iter()
        .zip(&attempt_by_request)
        .map(|(r, a)| (r.latency_s * 1e6 - a).max(0.0))
        .collect();
    let [hits, misses, stores] = pass.cache_counts;
    for (k, v) in [
        ("daemon.attempt_p50_us", median_or_zero(&attempts)),
        ("daemon.queue_wait_p50_us", median_or_zero(&waits)),
        ("cache.hits", hits as f64),
        ("cache.misses", misses as f64),
        ("cache.stores", stores as f64),
        (
            "cache.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        ),
        ("cache.disk_bytes", pass.disk_bytes as f64),
    ] {
        values.insert(k.to_string(), v);
    }
    values
}
