//! `mmsynth` — command-line front end for memristive mixed-mode synthesis.
//!
//! ```text
//! mmsynth synth    --function gf22_mul --rops 4 --legs 6 --steps 3 [--budget 300]
//!                  [--avoid-cells 0,3 --array-size 16] [--deadline SECS]
//!                  [--certify] [--proof FILE] [--dot | --json | --dimacs | --schedule]
//! mmsynth minimize --function gf22_mul [--max-rops N] [--max-steps N] [--r-only]
//!                  [--jobs N] [--conflicts N] [--deadline SECS] [--certify]
//!                  [--no-inprocess] [--proof-dir DIR] [--dot | --json | --schedule]
//!                  [--cache-dir DIR [--paranoid]]
//! mmsynth faultsim --function xor2 --rops 1 --legs 2 --steps 2
//!                  [--stuck CELL:lrs,CELL:hrs] [--flip CELL:CYCLE,...]
//!                  [--variability SIGMA] [--trials N] [--seed N]
//!                  [--array-size N] [--repair [--retries N]] [--certify]
//!                  [--out FILE]
//! mmsynth fuzz     [--seed 42] [--budget 100] [--corpus tests/corpus]
//!                  [--replay tests/corpus] [--inject-violation]
//! mmsynth map      --function adder3 [--dot | --json]
//! mmsynth run      --function gf22_mul --input 1011 [--trace] [--seed 42]
//! mmsynth census   --inputs 3 [--pre K] [--post K] [--tebe K]
//! mmsynth list
//! mmsynth client   --socket PATH | --tcp ADDR:PORT [--op minimize|synth|faultsim|ping|stats|metrics|shutdown]
//!                  [--function NAME|BITS,...] [--id ID] [--no-cache] [--progress] [...op flags]
//! ```
//!
//! `minimize --cache-dir DIR` reads/writes the same persistent NPN result
//! cache `mmsynthd` serves from: the request is canonicalized, looked up,
//! solved (canonically) only on a miss, and de-canonicalized for printing.
//! `client` is a one-shot JSON-lines client for a running `mmsynthd`.
//!
//! `--certify` runs every SAT call with DRAT proof logging and checks each
//! UNSAT answer with the in-tree backward checker before reporting it;
//! `--proof`/`--proof-dir` additionally archive the accepted proofs as
//! standard DRAT text for cross-checking with external tools (`drat-trim`).
//!
//! `minimize` solves every rung of its budget ladder on its own: each
//! budget point is encoded and handed to a fresh solver, as in the paper,
//! so every archived proof refutes its own rung's formula. `--conflicts N`
//! caps each rung's solve; no rung inherits another's learnt clauses.
//!
//! Every subcommand also accepts the telemetry flags: `--trace-out F.jsonl`
//! streams the raw span/counter/point event stream as JSON lines,
//! `--report-json F` aggregates it into a versioned per-phase timing report
//! ([`RunReport`]), and `--progress` renders point events to stderr as a
//! live ticker. `synth` and `minimize` additionally accept `--stats-json
//! [FILE]` for a machine-readable summary (solver statistics, per-rung
//! call records) on stdout or in FILE.
//!
//! `faultsim` synthesizes a circuit, places its schedule on a physical
//! array, and runs a fault-injection campaign against it; `--repair` closes
//! the loop, avoiding the implicated cells and resynthesizing.
//!
//! `fuzz` runs `--budget` seeded end-to-end scenarios (randomized functions
//! × budgets × fault plans × job counts) through synthesize → certify →
//! device-verify → campaign → repair, checking cross-cutting invariants.
//! Failing scenarios are shrunk and archived as replayable JSON to
//! `--corpus DIR`; `--replay DIR` re-runs an archived corpus instead. The
//! whole sweep is bit-for-bit reproducible from `--seed`.
//!
//! Exit codes: 0 on success (including a proven UNSAT), 1 on errors, and
//! 2 when the answer is *inconclusive* — a budget or deadline expired
//! before the search finished, or a repair loop gave up. Degraded runs
//! still print their best-known circuit before exiting with 2.
//!
//! Functions are either named generators (see `mmsynth list`) or comma-
//! separated truth-table bitstrings (`--function 0110,1000` = two outputs).

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use memristive_mm::boolfn::{generators, MultiOutputFn, TruthTable};
use memristive_mm::circuit::campaign::{run_campaign_traced, CampaignConfig, CampaignReport};
use memristive_mm::circuit::{FaultPlan, Schedule};
use memristive_mm::device::{DeviceState, ElectricalParams, LineArray};
use memristive_mm::sat::{Budget, Deadline};
use memristive_mm::synth::optimize::parallel;
use memristive_mm::synth::repair::{synthesize_with_repair, RepairConfig, RepairStatus};
use memristive_mm::synth::universality::{census, CensusConfig};
use memristive_mm::synth::{heuristic, EncodeOptions, SynthResult, SynthSpec, Synthesizer};
use memristive_mm::telemetry::{
    atomic_write, JsonlSink, MemorySink, MultiSink, ProgressSink, RunReport, Telemetry,
    TelemetrySink,
};
use serde::{Serialize, Value};

/// Exit code for inconclusive answers: a budget/deadline expired before the
/// search finished, or a repair loop gave up. Distinct from 1 (errors) so
/// scripts can retry with a larger budget instead of failing hard.
const EXIT_INCONCLUSIVE: u8 = 2;

/// Version of the `--stats-json` sidecar schema, shared by every
/// subcommand. Version 2 dropped `incremental` from `minimize` and added
/// `cancelled` and `conflicts` to each call record.
const STATS_SCHEMA_VERSION: u64 = 2;

fn named_functions() -> Vec<(&'static str, MultiOutputFn)> {
    vec![
        ("adder1", generators::ripple_adder(1)),
        ("adder2", generators::ripple_adder(2)),
        ("adder3", generators::ripple_adder(3)),
        ("adder4", generators::ripple_adder(4)),
        ("gf22_mul", generators::gf22_multiplier()),
        ("gf16_inv", generators::gf16_inversion()),
        ("and2", generators::and_gate(2)),
        ("and4", generators::and_gate(4)),
        ("or4", generators::or_gate(4)),
        ("nand4", generators::nand_gate(4)),
        ("nor4", generators::nor_gate(4)),
        ("xor2", generators::xor_gate(2)),
        ("xor3", generators::xor_gate(3)),
        ("maj3", generators::majority_gate(3)),
        ("mux21", generators::mux21()),
        ("mul2", generators::int_multiplier(2)),
        ("cmp2", generators::comparator(2)),
        ("popcount4", generators::popcount(4)),
    ]
}

fn parse_function(spec: &str) -> Result<MultiOutputFn, String> {
    for (name, f) in named_functions() {
        if name == spec {
            return Ok(f);
        }
    }
    // Comma-separated bitstrings.
    let tables: Result<Vec<TruthTable>, _> =
        spec.split(',').map(TruthTable::from_bitstring).collect();
    match tables {
        Ok(ts) => MultiOutputFn::new("cli", ts).map_err(|e| e.to_string()),
        Err(e) => Err(format!(
            "{spec:?} is neither a known function name nor a truth-table list: {e}"
        )),
    }
}

struct Args {
    flags: HashMap<String, String>,
    bare: Vec<String>,
}

fn parse_args(argv: &[String]) -> Args {
    let mut flags = HashMap::new();
    let mut bare = Vec::new();
    let mut it = argv.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().expect("peeked").clone(),
                _ => String::from("true"),
            };
            flags.insert(name.to_string(), value);
        } else {
            bare.push(a.clone());
        }
    }
    Args { flags, bare }
}

impl Args {
    fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    fn get_usize(&self, name: &str, default: usize) -> usize {
        self.get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv);
    let command = args.bare.first().map(String::as_str).unwrap_or("help");
    match run(command, &args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Comma-separated cell indices (`0,3,5`).
fn parse_cells(spec: &str) -> Result<Vec<usize>, String> {
    spec.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|e| format!("bad cell index {s:?}: {e}"))
        })
        .collect()
}

/// Builds the solver budget shared by `synth`/`minimize`: `--conflicts`
/// keeps portfolio results deterministic across `--jobs`; `--deadline` adds
/// a wall-clock bound under which minimization degrades gracefully.
fn budget_from(args: &Args) -> Result<Option<Budget>, String> {
    let mut budget = None;
    if let Some(c) = args.get("conflicts") {
        let c: u64 = c.parse().map_err(|e| format!("bad --conflicts: {e}"))?;
        budget = Some(Budget::new().with_max_conflicts(c));
    }
    if let Some(d) = args.get("deadline") {
        let secs: f64 = d.parse().map_err(|e| format!("bad --deadline: {e}"))?;
        if !secs.is_finite() || secs < 0.0 {
            return Err(format!("--deadline must be a nonnegative number, got {d}"));
        }
        let deadline = Deadline::after(Duration::from_secs_f64(secs));
        budget = Some(budget.unwrap_or_default().with_deadline(deadline));
    }
    // Inprocessing is on by default; --no-inprocess disables it for
    // differential testing and clean benchmark baselines.
    if args.has("no-inprocess") {
        budget = Some(budget.unwrap_or_default().with_inprocess(false));
    }
    Ok(budget)
}

/// Telemetry wiring shared by every subcommand: `--trace-out FILE` streams
/// raw JSONL events, `--report-json FILE` aggregates them into a versioned
/// [`RunReport`], `--progress` renders point events to stderr as a ticker.
struct TelemetrySetup {
    telemetry: Telemetry,
    memory: Option<Arc<MemorySink>>,
    report_path: Option<String>,
}

fn telemetry_from(args: &Args, command: &str) -> Result<TelemetrySetup, String> {
    let report_path = args.get("report-json").map(str::to_string);
    let mut sinks: Vec<Arc<dyn TelemetrySink>> = Vec::new();
    let mut memory = None;
    if let Some(path) = args.get("trace-out") {
        let sink =
            JsonlSink::create(Path::new(path)).map_err(|e| format!("creating {path}: {e}"))?;
        sinks.push(Arc::new(sink));
    }
    if report_path.is_some() {
        let m = Arc::new(MemorySink::new());
        memory = Some(m.clone());
        sinks.push(m);
    }
    if args.has("progress") {
        sinks.push(Arc::new(ProgressSink::stderr()));
    }
    let telemetry = match sinks.len() {
        0 => Telemetry::disabled(),
        1 => Telemetry::new(sinks.pop().expect("length checked")),
        _ => Telemetry::new(Arc::new(MultiSink::new(sinks))),
    };
    telemetry.meta_event(command);
    Ok(TelemetrySetup {
        telemetry,
        memory,
        report_path,
    })
}

impl TelemetrySetup {
    /// Flushes sinks and writes the aggregated run report, if requested.
    fn finish(&self) -> Result<(), String> {
        self.telemetry.flush();
        if let (Some(path), Some(memory)) = (&self.report_path, &self.memory) {
            let report = RunReport::from_events(&memory.snapshot());
            let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
            atomic_write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("run report written to {path}");
        }
        Ok(())
    }
}

/// `--stats-json` with no value prints to stdout; with a value, writes to
/// that path.
fn write_stats_json(dest: &str, value: &Value) -> Result<(), String> {
    let json = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    if dest == "true" {
        println!("{json}");
    } else {
        atomic_write(dest, json).map_err(|e| format!("writing {dest}: {e}"))?;
        eprintln!("stats written to {dest}");
    }
    Ok(())
}

fn run(command: &str, args: &Args) -> Result<ExitCode, String> {
    let tel = telemetry_from(args, command)?;
    let result = dispatch(command, args, &tel);
    tel.finish()?;
    result
}

fn dispatch(command: &str, args: &Args, tel: &TelemetrySetup) -> Result<ExitCode, String> {
    match command {
        "list" => {
            println!("named functions:");
            for (name, f) in named_functions() {
                println!(
                    "  {name:<12} {} inputs, {} outputs",
                    f.n_inputs(),
                    f.n_outputs()
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        "census" => {
            let n = args.get_usize("inputs", 3) as u8;
            let cfg = CensusConfig::new(n)
                .with_pre(args.get_usize("pre", 0) as u32)
                .with_post(args.get_usize("post", 0) as u32)
                .with_tebe(args.get_usize("tebe", 0) as u32);
            let reached = census(&cfg);
            println!(
                "{reached} of {} {n}-input functions realizable with {cfg:?}",
                1u64 << (1 << n)
            );
            Ok(ExitCode::SUCCESS)
        }
        "map" => {
            let f = parse_function(args.get("function").ok_or("--function required")?)?;
            let circuit = heuristic::map(&f).map_err(|e| e.to_string())?;
            emit_circuit(&circuit, args)?;
            Ok(ExitCode::SUCCESS)
        }
        "synth" => {
            let f = parse_function(args.get("function").ok_or("--function required")?)?;
            let rops = args.get_usize("rops", 0);
            let mut spec = if args.has("r-only") {
                SynthSpec::r_only(&f, args.get_usize("r-only", 1))
            } else {
                let legs = args.get_usize(
                    "legs",
                    SynthSpec::paper_legs(&f, rops, f.name().starts_with("adder")),
                );
                SynthSpec::mixed_mode(&f, rops, legs, args.get_usize("steps", 3))
            }
            .map_err(|e| e.to_string())?;
            if let Some(cells) = args.get("avoid-cells") {
                let avoid = parse_cells(cells)?;
                spec = spec.with_cell_avoidance(args.get_usize("array-size", 16), avoid);
            }
            let mut budget = Budget::new()
                .with_max_time(Duration::from_secs(args.get_usize("budget", 120) as u64));
            if let Some(extra) = budget_from(args)? {
                if let Some(c) = extra.max_conflicts() {
                    budget = budget.with_max_conflicts(c);
                }
                if let Some(d) = extra.deadline() {
                    budget = budget.with_deadline(d);
                }
            }
            let synth = Synthesizer::new()
                .with_budget(budget)
                .with_certification(args.has("certify"))
                .with_telemetry(tel.telemetry.clone());
            if args.has("dimacs") {
                print!("{}", synth.export_dimacs(&spec).map_err(|e| e.to_string())?);
                return Ok(ExitCode::SUCCESS);
            }
            let outcome = synth.run(&spec).map_err(|e| e.to_string())?;
            eprintln!(
                "{} vars, {} clauses, {}",
                outcome.encode_stats.n_vars, outcome.encode_stats.n_clauses, outcome.solver_stats
            );
            if let Some(dest) = args.get("stats-json") {
                let result = match &outcome.result {
                    SynthResult::Realizable(_) => "realizable",
                    SynthResult::Unrealizable => "unrealizable",
                    SynthResult::Unknown => "unknown",
                };
                let stats = Value::Object(vec![
                    ("schema_version".into(), Value::UInt(STATS_SCHEMA_VERSION)),
                    ("command".into(), Value::Str("synth".into())),
                    ("function".into(), Value::Str(f.name().to_string())),
                    ("result".into(), Value::Str(result.into())),
                    (
                        "n_vars".into(),
                        Value::UInt(outcome.encode_stats.n_vars as u64),
                    ),
                    (
                        "n_clauses".into(),
                        Value::UInt(outcome.encode_stats.n_clauses as u64),
                    ),
                    ("solver_stats".into(), outcome.solver_stats.to_value()),
                ]);
                write_stats_json(dest, &stats)?;
            }
            if let Some(cert) = &outcome.certificate {
                eprintln!(
                    "certificate: {} proof steps, {} core, checked in {:.3}s",
                    cert.proof.n_steps(),
                    cert.check.core_additions,
                    cert.check.check_time.as_secs_f64()
                );
                if let Some(path) = args.get("proof") {
                    atomic_write(path, cert.proof.to_drat_string())
                        .map_err(|e| format!("writing {path}: {e}"))?;
                    eprintln!("proof written to {path}");
                }
            }
            match outcome.result {
                SynthResult::Realizable(circuit) => {
                    if let Some(placement) = &outcome.placement {
                        eprintln!(
                            "placed on {} cells, avoiding {:?} (used: {:?})",
                            placement.n_cells(),
                            args.get("avoid-cells").unwrap_or(""),
                            placement.used_cells()
                        );
                    }
                    emit_circuit(&circuit, args)?;
                    Ok(ExitCode::SUCCESS)
                }
                SynthResult::Unrealizable => {
                    println!(
                        "UNSAT: no circuit exists within these budgets (optimality certificate{})",
                        if outcome.certificate.is_some() {
                            ", DRAT-checked"
                        } else {
                            ""
                        }
                    );
                    Ok(ExitCode::SUCCESS)
                }
                SynthResult::Unknown => {
                    eprintln!("inconclusive: budget exhausted; raise --budget or --deadline");
                    Ok(ExitCode::from(EXIT_INCONCLUSIVE))
                }
            }
        }
        "minimize" => {
            let f = parse_function(args.get("function").ok_or("--function required")?)?;
            let jobs = args.get_usize("jobs", parallel::default_jobs()).max(1);
            let options = EncodeOptions::recommended();
            if let Some(dir) = args.get("cache-dir") {
                return minimize_cached(args, tel, &f, jobs, &options, dir);
            }
            let mut synth = Synthesizer::new()
                .with_certification(args.has("certify"))
                .with_telemetry(tel.telemetry.clone());
            // A conflict (not wall-clock) limit keeps the portfolio result
            // deterministic across --jobs settings; a --deadline bounds
            // wall-clock time and degrades gracefully. Unlimited by default.
            if let Some(budget) = budget_from(args)? {
                synth = synth.with_budget(budget);
            }
            let report = if args.has("r-only") {
                parallel::minimize_r_only(&synth, &f, args.get_usize("max-rops", 8), &options, jobs)
            } else {
                let is_adder = args.has("adder") || f.name().starts_with("adder");
                parallel::minimize_mixed_mode(
                    &synth,
                    &f,
                    args.get_usize("max-rops", 8),
                    args.get_usize("max-steps", 6),
                    is_adder,
                    &options,
                    jobs,
                )
            }
            .map_err(|e| e.to_string())?;
            if let Some(dir) = args.get("proof-dir") {
                std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
            }
            for c in &report.calls {
                eprintln!(
                    "  N_R={} N_L={} N_VS={} -> {:?} ({} vars, {} clauses, {:.3}s{})",
                    c.n_rops,
                    c.n_legs,
                    c.n_vsteps,
                    c.result,
                    c.n_vars,
                    c.n_clauses,
                    c.time.as_secs_f64(),
                    if c.certified {
                        format!(
                            ", certified: {} proof steps checked in {:.3}s",
                            c.proof_steps,
                            c.check_time.as_secs_f64()
                        )
                    } else {
                        String::new()
                    }
                );
                if let (Some(dir), Some(proof)) = (args.get("proof-dir"), &c.proof) {
                    let path = format!(
                        "{dir}/{}_nR{}_nL{}_nVS{}.drat",
                        f.name(),
                        c.n_rops,
                        c.n_legs,
                        c.n_vsteps
                    );
                    atomic_write(&path, proof.to_drat_string())
                        .map_err(|e| format!("writing {path}: {e}"))?;
                }
            }
            let certified = report.calls.iter().filter(|c| c.certified).count();
            eprintln!(
                "{} calls ({certified} certified UNSAT), {:.3}s solver time, {jobs} jobs",
                report.calls.len(),
                report.total_time().as_secs_f64()
            );
            let degraded = report.status.is_degraded();
            if let memristive_mm::synth::optimize::OptimizeStatus::Degraded { reason } =
                &report.status
            {
                eprintln!("degraded: {reason}; the result below is the best known");
            }
            if let Some(dest) = args.get("stats-json") {
                let stats = Value::Object(vec![
                    ("schema_version".into(), Value::UInt(STATS_SCHEMA_VERSION)),
                    ("command".into(), Value::Str("minimize".into())),
                    ("function".into(), Value::Str(f.name().to_string())),
                    ("proven_optimal".into(), Value::Bool(report.proven_optimal)),
                    ("degraded".into(), Value::Bool(degraded)),
                    ("inprocess".into(), Value::Bool(!args.has("no-inprocess"))),
                    ("n_calls".into(), Value::UInt(report.calls.len() as u64)),
                    ("certified_unsat".into(), Value::UInt(certified as u64)),
                    (
                        "total_solver_time_us".into(),
                        Value::UInt(report.total_time().as_micros() as u64),
                    ),
                    (
                        "calls".into(),
                        Value::Array(report.calls.iter().map(Serialize::to_value).collect()),
                    ),
                ]);
                write_stats_json(dest, &stats)?;
            }
            match report.best {
                Some(circuit) => {
                    emit_circuit(&circuit, args)?;
                    println!(
                        "optimality: {}",
                        match (report.proven_optimal, args.has("certify"), degraded) {
                            (true, true, _) => "proven (UNSAT below, DRAT-certified)",
                            (true, false, _) => "proven (UNSAT below)",
                            (false, _, true) => "upper bound only (degraded run)",
                            (false, _, false) => "upper bound only",
                        }
                    );
                    if degraded {
                        Ok(ExitCode::from(EXIT_INCONCLUSIVE))
                    } else {
                        Ok(ExitCode::SUCCESS)
                    }
                }
                None if degraded => {
                    eprintln!("inconclusive: no circuit found before the budget ran out");
                    Ok(ExitCode::from(EXIT_INCONCLUSIVE))
                }
                None => Err(
                    "no circuit found within the search limits; raise --max-rops/--max-steps"
                        .into(),
                ),
            }
        }
        "run" => {
            let f = parse_function(args.get("function").ok_or("--function required")?)?;
            let input = args
                .get("input")
                .ok_or("--input required (e.g. --input 1011)")?;
            if input.len() != f.n_inputs() as usize {
                return Err(format!("--input must have {} bits", f.n_inputs()));
            }
            let x = u32::from_str_radix(input, 2).map_err(|e| e.to_string())?;
            let circuit = heuristic::map(&f).map_err(|e| e.to_string())?;
            let schedule = Schedule::compile(&circuit).map_err(|e| e.to_string())?;
            let seed = args.get_usize("seed", 42) as u64;
            let mut array = LineArray::bfo(schedule.n_cells(), ElectricalParams::bfo(), seed);
            let out = schedule.execute(x, &mut array);
            array.trace().emit_telemetry(&tel.telemetry);
            if args.has("trace") {
                print!("{}", array.trace().to_table());
            }
            let bits: String = out.iter().map(|&b| if b { '1' } else { '0' }).collect();
            println!("{}({input}) = {bits}", f.name());
            Ok(ExitCode::SUCCESS)
        }
        "faultsim" => faultsim(args, tel),
        "fuzz" => fuzz(args),
        "client" => client(args),
        _ => {
            println!(
                "usage: mmsynth <synth|minimize|faultsim|fuzz|map|run|census|list|client> [--function NAME|BITS,...]\n\
                 \x20      synth:    --rops N [--legs N] [--steps N] [--r-only N] [--budget s]\n\
                 \x20                [--avoid-cells 0,3 --array-size N] [--deadline SECS]\n\
                 \x20                [--certify] [--proof FILE]\n\
                 \x20                [--dot | --json | --dimacs | --schedule]\n\
                 \x20      minimize: [--max-rops N] [--max-steps N] [--r-only] [--adder]\n\
                 \x20                [--jobs N] [--conflicts N] [--deadline SECS]\n\
                 \x20                [--no-inprocess]\n\
                 \x20                [--certify] [--proof-dir DIR]\n\
                 \x20                [--cache-dir DIR [--paranoid]]\n\
                 \x20                [--dot | --json | --schedule]\n\
                 \x20      client:   --socket PATH | --tcp ADDR:PORT [--op OP]\n\
                 \x20                [--function NAME|BITS,...] [--id ID] [--no-cache]\n\
                 \x20                [--progress] (streams frames on stderr)\n\
                 \x20                (forwards minimize/synth/faultsim flags to mmsynthd)\n\
                 \x20      faultsim: --rops N [--legs N] [--steps N]\n\
                 \x20                [--stuck CELL:lrs,...] [--flip CELL:CYCLE,...]\n\
                 \x20                [--variability SIGMA] [--trials N] [--seed N]\n\
                 \x20                [--array-size N] [--repair [--retries N]]\n\
                 \x20                [--certify] [--out FILE]\n\
                 \x20      fuzz:     [--seed N] [--budget N] [--corpus DIR]\n\
                 \x20                [--replay DIR] [--inject-violation]\n\
                 \x20                [--emit-seed-corpus --corpus DIR]\n\
                 \x20      map:      [--dot | --json | --schedule]\n\
                 \x20      run:      --input BITS [--trace] [--seed N]\n\
                 \x20      census:   --inputs N [--pre K] [--post K] [--tebe K]\n\
                 \n\
                 \x20      --certify checks every UNSAT answer against its DRAT proof\n\
                 \x20      before any optimality claim; --proof/--proof-dir archive the\n\
                 \x20      accepted proofs as DRAT text\n\
                 \x20      minimize encodes and solves each ladder rung on its own;\n\
                 \x20      --conflicts N caps each rung's solve\n\
                 \x20      the solver inprocesses (subsumption, vivification) at\n\
                 \x20      restart boundaries; --no-inprocess turns that off —\n\
                 \x20      verdicts and proofs are identical either way\n\
                 \x20      telemetry (all subcommands): --trace-out FILE.jsonl streams\n\
                 \x20      raw events, --report-json FILE writes the aggregated phase\n\
                 \x20      timing report, --progress renders a stderr ticker;\n\
                 \x20      synth/minimize also take --stats-json [FILE]\n\
                 \x20      exit codes: 0 ok, 1 error, 2 inconclusive (budget/deadline\n\
                 \x20      expired or repair gave up; best-known result still printed)"
            );
            Ok(ExitCode::SUCCESS)
        }
    }
}

/// `mmsynth minimize --cache-dir DIR`: the daemon's cache path without the
/// daemon. Canonicalize, look up, solve the canonical representative on a
/// miss, store, de-canonicalize for printing — so a CLI run warms (and is
/// warmed by) the same cache `mmsynthd` serves from.
fn minimize_cached(
    args: &Args,
    tel: &TelemetrySetup,
    f: &MultiOutputFn,
    jobs: usize,
    options: &EncodeOptions,
    dir: &str,
) -> Result<ExitCode, String> {
    use memristive_mm::boolfn::npn::canonicalize;
    use memristive_mm::service::engine::entry_from_report;
    use memristive_mm::service::ResultCache;
    use memristive_mm::synth::request::{decanonicalize_circuit, MinimizeRequest};

    if args.has("deadline") {
        // A deadline makes the verdict timing-dependent, so such runs can
        // neither be stored nor validly served from the cache.
        return Err(
            "--cache-dir requires a deterministic request; drop --deadline (use --conflicts to bound work)"
                .into(),
        );
    }
    let mut request = if args.has("r-only") {
        MinimizeRequest::r_only(args.get_usize("max-rops", 8))
    } else {
        MinimizeRequest::mixed_mode(
            args.get_usize("max-rops", 8),
            args.get_usize("max-steps", 6),
            args.has("adder") || f.name().starts_with("adder"),
        )
    };
    if let Some(c) = args.get("conflicts") {
        request.max_conflicts = Some(c.parse().map_err(|e| format!("bad --conflicts: {e}"))?);
    }
    request.certify = args.has("certify");

    let (cache, recovery) =
        ResultCache::open(dir).map_err(|e| format!("opening cache {dir}: {e}"))?;
    let cache = cache.with_paranoid(args.has("paranoid"));
    if recovery.quarantined > 0 || recovery.temps_removed > 0 {
        eprintln!(
            "cache recovery: {} valid, {} quarantined, {} temp files removed",
            recovery.valid, recovery.quarantined, recovery.temps_removed
        );
    }
    let (canonical, transform) = canonicalize(f);
    let (entry, outcome, degraded) = match cache.lookup(&canonical, &request) {
        Some(entry) => (entry, "hit", false),
        None => {
            let synth = Synthesizer::new()
                .with_certification(request.certify)
                .with_telemetry(tel.telemetry.clone());
            let report = request
                .run(&synth, &canonical, options, jobs)
                .map_err(|e| e.to_string())?;
            let degraded = report.status.is_degraded();
            if let memristive_mm::synth::optimize::OptimizeStatus::Degraded { reason } =
                &report.status
            {
                eprintln!("degraded: {reason}; the result below is the best known (not cached)");
            }
            let entry = entry_from_report(&canonical, &request, &report);
            if !degraded {
                cache
                    .store(&request, &entry)
                    .map_err(|e| format!("storing cache entry: {e}"))?;
            }
            (entry, "miss", degraded)
        }
    };
    let stats = cache.stats();
    eprintln!(
        "cache: {outcome} ({} entries, {} stored this run)",
        cache.len(),
        stats.stores
    );
    match &entry.circuit {
        Some(circuit) => {
            let circuit = decanonicalize_circuit(circuit, &transform).map_err(|e| e.to_string())?;
            emit_circuit(&circuit, args)?;
            println!(
                "optimality: {}",
                match (entry.proven_optimal, entry.proof.is_some(), degraded) {
                    (true, true, _) => "proven (UNSAT below, DRAT-certified)",
                    (true, false, _) => "proven (UNSAT below)",
                    (false, _, true) => "upper bound only (degraded run)",
                    (false, _, false) => "upper bound only",
                }
            );
            if degraded {
                Ok(ExitCode::from(EXIT_INCONCLUSIVE))
            } else {
                Ok(ExitCode::SUCCESS)
            }
        }
        None if degraded => {
            eprintln!("inconclusive: no circuit found before the budget ran out");
            Ok(ExitCode::from(EXIT_INCONCLUSIVE))
        }
        None => {
            Err("no circuit found within the search limits; raise --max-rops/--max-steps".into())
        }
    }
}

/// `mmsynth client`: one-shot JSON-lines client for a running `mmsynthd`.
/// Resolves `--function` to truth tables locally, sends a single request
/// over `--socket`/`--tcp`, prints the raw response line, and maps the
/// response status onto the usual exit codes (`degraded` → 2).
/// `--progress` subscribes to the daemon's progress stream: interleaved
/// `progress` frames render on stderr as they arrive, stdout still
/// carries exactly the final response line.
fn client(args: &Args) -> Result<ExitCode, String> {
    let op = args.get("op").unwrap_or("minimize");
    let id = args.get("id").unwrap_or("cli").to_string();
    let mut fields: Vec<(String, Value)> = vec![
        ("op".into(), Value::Str(op.into())),
        ("id".into(), Value::Str(id)),
    ];
    if matches!(op, "minimize" | "synth" | "faultsim") {
        let f = parse_function(args.get("function").ok_or("--function required")?)?;
        let tables: Vec<Value> = f
            .outputs()
            .iter()
            .map(|t| Value::Str(t.to_bitstring()))
            .collect();
        fields.push(("tables".into(), Value::Array(tables)));
    }
    for (flag, wire) in [
        ("max-rops", "max_rops"),
        ("max-steps", "max_steps"),
        ("conflicts", "max_conflicts"),
        ("rops", "rops"),
        ("legs", "legs"),
        ("steps", "steps"),
        ("trials", "trials"),
        ("seed", "seed"),
    ] {
        if let Some(v) = args.get(flag) {
            let n: u64 = v.parse().map_err(|e| format!("bad --{flag}: {e}"))?;
            fields.push((wire.into(), Value::UInt(n)));
        }
    }
    if let Some(d) = args.get("deadline") {
        let secs: f64 = d.parse().map_err(|e| format!("bad --deadline: {e}"))?;
        fields.push(("deadline_secs".into(), Value::Float(secs)));
    }
    for (flag, wire) in [
        ("r-only", "r_only"),
        ("adder", "adder"),
        ("certify", "certify"),
        ("no-cache", "no_cache"),
    ] {
        if args.has(flag) {
            fields.push((wire.into(), Value::Bool(true)));
        }
    }
    if let Some(stuck) = args.get("stuck-lrs") {
        let cells = parse_cells(stuck)?;
        fields.push((
            "stuck_lrs".into(),
            Value::Array(cells.into_iter().map(|c| Value::UInt(c as u64)).collect()),
        ));
    }
    let progress = args.has("progress");
    if progress {
        fields.push(("subscribe".into(), Value::Bool(true)));
    }
    let line = serde_json::to_string(&Value::Object(fields)).map_err(|e| e.to_string())?;

    let response = if let Some(path) = args.get("socket") {
        let stream = std::os::unix::net::UnixStream::connect(path)
            .map_err(|e| format!("connecting to {path}: {e}"))?;
        client_exchange(stream, &line, progress)?
    } else if let Some(addr) = args.get("tcp") {
        let stream =
            std::net::TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        client_exchange(stream, &line, progress)?
    } else {
        return Err("client needs --socket PATH or --tcp ADDR:PORT".into());
    };
    let reply = response.trim_end();
    if reply.is_empty() {
        return Err("daemon closed the connection without a response".into());
    }
    println!("{reply}");
    let status = serde_json::from_str::<Value>(reply)
        .ok()
        .and_then(|v| match v.get("status") {
            Some(Value::Str(s)) => Some(s.clone()),
            _ => None,
        })
        .unwrap_or_default();
    match status.as_str() {
        "ok" => Ok(ExitCode::SUCCESS),
        "degraded" => Ok(ExitCode::from(EXIT_INCONCLUSIVE)),
        _ => Ok(ExitCode::FAILURE),
    }
}

/// Sends one request line and reads until the final response, rendering
/// any interleaved `progress` frames on stderr (when `progress` is set;
/// frames only arrive if the request subscribed).
fn client_exchange<S: std::io::Read + std::io::Write>(
    mut stream: S,
    line: &str,
    progress: bool,
) -> Result<String, String> {
    use std::io::{BufRead, BufReader};

    stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| e.to_string())?;
    stream.flush().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    loop {
        let mut reply = String::new();
        let n = reader.read_line(&mut reply).map_err(|e| e.to_string())?;
        if n == 0 {
            return Ok(String::new()); // EOF: caller reports the hangup
        }
        let trimmed = reply.trim_end();
        match serde_json::from_str::<Value>(trimmed) {
            Ok(v) if matches!(v.get("frame"), Some(Value::Str(f)) if f == "progress") => {
                if progress {
                    render_progress_frame(&v);
                }
            }
            _ => return Ok(trimmed.to_string()),
        }
    }
}

/// One stderr line per frame: `mmsynth: progress <event> k=v ...`.
fn render_progress_frame(frame: &Value) {
    let Value::Object(fields) = frame else { return };
    let mut event = String::new();
    let mut rest = String::new();
    for (key, value) in fields {
        match key.as_str() {
            "frame" | "id" => {}
            "event" => {
                if let Value::Str(s) = value {
                    event = s.clone();
                }
            }
            _ => {
                let rendered = match value {
                    Value::Str(s) => s.clone(),
                    other => serde_json::to_string(other).unwrap_or_default(),
                };
                rest.push_str(&format!(" {key}={rendered}"));
            }
        }
    }
    eprintln!("mmsynth: progress {event}{rest}");
}

/// `mmsynth fuzz`: run seeded end-to-end scenarios, archive shrunk failures.
fn fuzz(args: &Args) -> Result<ExitCode, String> {
    use memristive_mm::synth::fuzz::{run_fuzz, run_scenario, seed_corpus, Corpus, FuzzConfig};

    let seed = args.get_usize("seed", 42) as u64;
    let budget = args.get_usize("budget", 25);
    let cfg = FuzzConfig {
        inject_violation: args.has("inject-violation"),
    };

    // --emit-seed-corpus: (re)write the hand-picked seed cases into
    // --corpus DIR. Used to regenerate `tests/corpus/` after a schema
    // change; the cases themselves live in `fuzz::seed_corpus`.
    if args.has("emit-seed-corpus") {
        let dir = args
            .get("corpus")
            .ok_or("--emit-seed-corpus needs --corpus DIR")?;
        let corpus = Corpus::open(dir).map_err(|e| format!("opening corpus {dir}: {e}"))?;
        for case in seed_corpus() {
            let path = corpus
                .archive(&case)
                .map_err(|e| format!("archiving {}: {e}", case.scenario.name))?;
            println!("wrote {}", path.display());
        }
        return Ok(ExitCode::SUCCESS);
    }

    // --replay DIR: re-run every archived corpus case (twice, pinning
    // replay determinism) instead of generating new scenarios.
    if let Some(dir) = args.get("replay") {
        let corpus = Corpus::open(dir).map_err(|e| format!("opening corpus {dir}: {e}"))?;
        let cases = corpus.load().map_err(|e| format!("loading corpus: {e}"))?;
        let mut violations = 0usize;
        for (path, case) in &cases {
            let first = run_scenario(&case.scenario, &cfg);
            let second = run_scenario(&case.scenario, &cfg);
            match (first, second) {
                (Ok(a), Ok(b)) => {
                    if a.fingerprint != b.fingerprint {
                        violations += 1;
                        eprintln!("{}: replay diverged", path.display());
                    }
                    for v in &a.violations {
                        violations += 1;
                        eprintln!("{}: {v}", path.display());
                    }
                }
                (Err(e), _) | (_, Err(e)) => {
                    violations += 1;
                    eprintln!("{}: scenario error: {e}", path.display());
                }
            }
        }
        println!(
            "replayed {} corpus cases, {violations} violations",
            cases.len()
        );
        return Ok(if violations == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    let corpus = match args.get("corpus") {
        Some(dir) => Some(Corpus::open(dir).map_err(|e| format!("opening corpus {dir}: {e}"))?),
        None => None,
    };
    let summary = run_fuzz(seed, budget, corpus.as_ref(), &cfg, |index, report| {
        if !report.violations.is_empty() {
            eprintln!("scenario {index} ({}) FAILED", report.name);
        }
    });
    for v in &summary.violations {
        eprintln!("violation: {v}");
    }
    for path in &summary.archived {
        eprintln!("archived shrunk reproducer: {}", path.display());
    }
    println!(
        "fuzz: {} scenarios (seed {seed}), {} degraded, {} violations, fingerprint {:016x}",
        summary.scenarios,
        summary.degraded,
        summary.violations.len(),
        summary.fingerprint
    );
    if let Some(dest) = args.get("stats-json") {
        let stats = Value::Object(vec![
            ("schema_version".into(), Value::UInt(STATS_SCHEMA_VERSION)),
            ("command".into(), Value::Str("fuzz".into())),
            ("seed".into(), Value::UInt(seed)),
            ("budget".into(), Value::UInt(budget as u64)),
            ("scenarios".into(), Value::UInt(summary.scenarios as u64)),
            (
                "degraded_scenarios".into(),
                Value::UInt(summary.degraded as u64),
            ),
            (
                "violations".into(),
                Value::UInt(summary.violations.len() as u64),
            ),
            (
                "fingerprint".into(),
                Value::Str(format!("{:016x}", summary.fingerprint)),
            ),
            (
                "archived".into(),
                Value::Array(
                    summary
                        .archived
                        .iter()
                        .map(|p| Value::Str(p.display().to_string()))
                        .collect(),
                ),
            ),
        ]);
        write_stats_json(dest, &stats)?;
    }
    Ok(if summary.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `mmsynth faultsim`: synthesize, place, inject faults, optionally repair.
fn faultsim(args: &Args, tel: &TelemetrySetup) -> Result<ExitCode, String> {
    let f = parse_function(args.get("function").ok_or("--function required")?)?;
    let rops = args.get_usize("rops", 1);
    let legs = args.get_usize(
        "legs",
        SynthSpec::paper_legs(&f, rops, f.name().starts_with("adder")),
    );
    let spec = SynthSpec::mixed_mode(&f, rops, legs, args.get_usize("steps", 3))
        .map_err(|e| e.to_string())?;

    // Fault plans: an always-present healthy control, plus one injected
    // plan when any fault flag is given.
    let mut injected = FaultPlan::named("injected");
    if let Some(stuck) = args.get("stuck") {
        for part in stuck.split(',').filter(|s| !s.is_empty()) {
            let (cell, state) = part
                .split_once(':')
                .ok_or_else(|| format!("bad --stuck entry {part:?}, want CELL:lrs|hrs"))?;
            let cell: usize = cell.trim().parse().map_err(|e| format!("bad cell: {e}"))?;
            let state = match state.trim().to_ascii_lowercase().as_str() {
                "lrs" | "1" => DeviceState::Lrs,
                "hrs" | "0" => DeviceState::Hrs,
                other => return Err(format!("bad stuck state {other:?}, want lrs|hrs")),
            };
            injected = injected.with_stuck(cell, state);
        }
    }
    if let Some(flips) = args.get("flip") {
        for part in flips.split(',').filter(|s| !s.is_empty()) {
            let (cell, cycle) = part
                .split_once(':')
                .ok_or_else(|| format!("bad --flip entry {part:?}, want CELL:CYCLE"))?;
            injected = injected.with_transient(
                cell.trim().parse().map_err(|e| format!("bad cell: {e}"))?,
                cycle
                    .trim()
                    .parse()
                    .map_err(|e| format!("bad cycle: {e}"))?,
            );
        }
    }
    if let Some(v) = args.get("variability") {
        let sigma: f64 = v.parse().map_err(|e| format!("bad --variability: {e}"))?;
        injected = injected.with_variability(memristive_mm::device::Variability {
            d2d_sigma: sigma,
            c2c_sigma: sigma / 4.0,
        });
    }
    let mut plans = vec![FaultPlan::named("control")];
    if !injected.is_healthy() {
        plans.push(injected);
    }

    let mut campaign = CampaignConfig::default();
    campaign.trials = args.get_usize("trials", campaign.trials as usize) as u32;
    campaign.seed = args.get_usize("seed", campaign.seed as usize) as u64;

    let synth = Synthesizer::new()
        .with_certification(args.has("certify"))
        .with_telemetry(tel.telemetry.clone());

    if args.has("repair") {
        let array_size = args.get_usize("array-size", 16);
        let config = RepairConfig {
            array_size,
            max_retries: args.get_usize("retries", 4),
            budget_escalation: 2,
            campaign,
        };
        let outcome =
            synthesize_with_repair(&synth, &spec, &plans, &config).map_err(|e| e.to_string())?;
        for (i, attempt) in outcome.attempts.iter().enumerate() {
            eprintln!(
                "round {i}: {} failures with cells {:?} avoided; newly implicated: {:?}",
                attempt.failures, attempt.avoided, attempt.newly_implicated
            );
        }
        match &outcome.status {
            RepairStatus::Clean => eprintln!("clean: schedule survives the campaign unrepaired"),
            RepairStatus::Repaired => eprintln!(
                "repaired: schedule routed around cells {:?} and survives the campaign",
                outcome.avoided
            ),
            RepairStatus::Unrepairable { reason } => eprintln!("unrepairable: {reason}"),
        }
        if let Some(report) = &outcome.report {
            write_report(report, args)?;
        }
        if outcome.succeeded() {
            Ok(ExitCode::SUCCESS)
        } else {
            Ok(ExitCode::from(EXIT_INCONCLUSIVE))
        }
    } else {
        let outcome = synth.run(&spec).map_err(|e| e.to_string())?;
        let circuit = match outcome.result {
            SynthResult::Realizable(c) => c,
            SynthResult::Unrealizable => {
                return Err("no circuit exists within these budgets; raise --rops/--steps".into())
            }
            SynthResult::Unknown => {
                eprintln!("inconclusive: synthesis budget exhausted");
                return Ok(ExitCode::from(EXIT_INCONCLUSIVE));
            }
        };
        let schedule = Schedule::compile(&circuit).map_err(|e| e.to_string())?;
        let n_cells = schedule.n_cells();
        let array_size = args.get_usize("array-size", n_cells);
        let placed = schedule
            .place_avoiding(array_size, &[])
            .map_err(|e| e.to_string())?;
        let report = run_campaign_traced(&placed, &plans, &campaign, &tel.telemetry)
            .map_err(|e| e.to_string())?;
        for plan in &report.plans {
            eprintln!(
                "plan {:?}: {}/{} executions failed (error rate {:.3}; \
                 {} stuck, {} transient, {} variability), first divergence: {:?}",
                plan.plan.name,
                plan.failures,
                plan.executions,
                plan.error_rate,
                plan.stuck_failures,
                plan.transient_failures,
                plan.variability_failures,
                plan.first_divergence_cycle,
            );
        }
        write_report(&report, args)?;
        Ok(ExitCode::SUCCESS)
    }
}

/// Prints the campaign report as JSON to stdout, or to `--out FILE`.
fn write_report(report: &CampaignReport, args: &Args) -> Result<(), String> {
    let json = report.to_json();
    match args.get("out") {
        Some(path) => {
            atomic_write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("campaign report written to {path}");
        }
        None => println!("{json}"),
    }
    Ok(())
}

fn emit_circuit(circuit: &memristive_mm::circuit::MmCircuit, args: &Args) -> Result<(), String> {
    if args.has("dot") {
        print!("{}", circuit.to_dot());
    } else if args.has("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(circuit).map_err(|e| e.to_string())?
        );
    } else if args.has("schedule") {
        let schedule = Schedule::compile(circuit).map_err(|e| e.to_string())?;
        println!(
            "{}",
            serde_json::to_string_pretty(&schedule).map_err(|e| e.to_string())?
        );
    } else {
        print!("{}", circuit.to_text());
        let m = circuit.metrics();
        println!(
            "metrics: N_R={} N_L={} N_VS={} N_St={} N_Dev={}",
            m.n_rops, m.n_legs, m.n_vsteps, m.n_steps, m.n_devices_structural
        );
    }
    Ok(())
}
