//! The batch workloads (`ladder`, `certified`, `portfolio`): one
//! `optimize::parallel::minimize_mixed_mode` call per function, built
//! exactly as `mmsynth minimize` builds it (incremental on, inprocessing
//! on, unlimited conflicts), with certification and `jobs` taken from the
//! workload.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use mm_boolfn::MultiOutputFn;
use mm_synth::optimize::{parallel, SynthResultKind};
use mm_synth::{EncodeOptions, Synthesizer};
use mm_telemetry::{MemorySink, Telemetry};

use crate::check::check_answer;
use crate::layers::{Phases, TraceSummary};
use crate::manifest::{named_function, LadderShape, Manifest, Optimum, WorkloadSpec};
use crate::measure::{process_cpu_s, SplitMix64};

/// One function of a batch suite with its reference optimum.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Function name.
    pub name: String,
    /// The function.
    pub f: MultiOutputFn,
    /// Its reference optimum.
    pub expected: Optimum,
}

/// The workload's functions in the order `seed` fixes.
///
/// # Errors
///
/// Names a suite function the benchmark cannot build or has no reference
/// optimum for.
pub fn suite(manifest: &Manifest, spec: &WorkloadSpec, seed: u64) -> Result<Vec<BatchJob>, String> {
    let mut jobs = spec
        .suite
        .iter()
        .map(|name| {
            let f = named_function(name).ok_or_else(|| format!("unknown function {name}"))?;
            let expected = manifest
                .function_optimum(name)
                .ok_or_else(|| format!("no reference optimum for {name}"))?;
            Ok(BatchJob {
                name: name.clone(),
                f,
                expected,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    SplitMix64::new(seed).shuffle(&mut jobs);
    Ok(jobs)
}

/// The outcome of one minimize call.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Function name.
    pub name: String,
    /// Submit to checked answer, seconds.
    pub latency_s: f64,
    /// Whether the answer was proven optimal.
    pub proven: bool,
    /// Why the answer was refused, if it was.
    pub failure: Option<String>,
    /// DRAT steps over the call's records.
    pub proof_steps: u64,
    /// Layer totals of the call (traced passes only).
    pub trace: Option<TraceSummary>,
}

impl JobResult {
    /// The counters that must repeat exactly across runs at `jobs = 1`
    /// (the optimum itself is checked against the reference): conflicts,
    /// propagations, inprocessing counts and DRAT steps.
    pub fn fingerprint(&self) -> Option<[u64; 6]> {
        let t = self.trace.as_ref()?;
        Some([
            t.counter("solver.conflicts"),
            t.counter("solver.propagations"),
            t.counter("solver.inprocess.subsumed"),
            t.counter("solver.inprocess.vivified"),
            t.counter("solver.inprocess.eliminated"),
            self.proof_steps,
        ])
    }
}

/// One pass over the suite.
#[derive(Debug, Clone)]
pub struct PassResult {
    /// Wall time of the whole job set, checks included.
    pub wall_s: f64,
    /// Process CPU time over the pass.
    pub cpu_s: f64,
    /// Per-call outcomes, in suite order.
    pub jobs: Vec<JobResult>,
}

impl PassResult {
    /// Layer totals summed over the pass's calls (traced passes only).
    pub fn trace(&self) -> Option<TraceSummary> {
        let mut total = TraceSummary::default();
        for job in &self.jobs {
            total.add(job.trace.as_ref()?);
        }
        Some(total)
    }

    /// DRAT steps over the pass.
    pub fn proof_steps(&self) -> u64 {
        self.jobs.iter().map(|j| j.proof_steps).sum()
    }
}

/// Runs the suite once, checking every answer; `traced` gives each call
/// its own in-memory telemetry sink.
pub fn run_pass(
    shape: LadderShape,
    spec: &WorkloadSpec,
    jobs: &[BatchJob],
    traced: bool,
) -> PassResult {
    let options = EncodeOptions::recommended();
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let mut results = Vec::with_capacity(jobs.len());
    let mut streams = Vec::with_capacity(jobs.len());
    for job in jobs {
        let sink = traced.then(|| Arc::new(MemorySink::new()));
        let telemetry = sink
            .as_ref()
            .map_or_else(Telemetry::disabled, |s| Telemetry::new(s.clone()));
        let synth = Synthesizer::new()
            .with_certification(spec.certify)
            .with_incremental(true)
            .with_telemetry(telemetry);
        let started = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| {
            parallel::minimize_mixed_mode(
                &synth,
                &job.f,
                shape.max_rops,
                shape.max_vsteps,
                job.name.starts_with("adder"),
                &options,
                spec.jobs,
            )
        }));
        let (proven, failure, proof_steps) = match run {
            Err(_) => (false, Some("panicked".to_string()), 0),
            Ok(Err(e)) => (false, Some(format!("error: {e}")), 0),
            Ok(Ok(report)) => {
                let uncertified = spec.certify
                    && report
                        .calls
                        .iter()
                        .any(|c| c.result == SynthResultKind::Unrealizable && !c.certified);
                let failure = if let mm_synth::optimize::OptimizeStatus::Degraded { reason } =
                    &report.status
                {
                    Some(format!("degraded: {reason}"))
                } else if uncertified {
                    Some("an UNSAT rung carries no checked proof".to_string())
                } else {
                    check_answer(&job.f, report.best.as_ref(), job.expected).err()
                };
                let steps = report.calls.iter().map(|c| c.proof_steps).sum();
                (report.proven_optimal, failure, steps)
            }
        };
        let latency_s = started.elapsed().as_secs_f64();
        results.push(JobResult {
            name: job.name.clone(),
            latency_s,
            proven,
            failure,
            proof_steps,
            trace: None,
        });
        streams.push(sink.map(|s| s.drain()));
    }
    let (wall_s, cpu_s) = (t0.elapsed().as_secs_f64(), process_cpu_s() - cpu0);
    // Summarize after the clock stops: aggregation is the benchmark's
    // work, not the program's.
    for (result, events) in results.iter_mut().zip(streams) {
        result.trace = events.map(|e| TraceSummary::from_events(&e, Phases::ByLadderPoint));
    }
    PassResult {
        wall_s,
        cpu_s,
        jobs: results,
    }
}
