//! The `service` workload: an in-process `mm_service::Daemon`
//! (`Daemon::start` + `Daemon::serve` over an in-memory line stream) fed by
//! one closed-loop client with a bounded window of outstanding requests.
//!
//! The cache directory is fresh every pass. Harness prep (excluded from
//! every timing) prefills it with a seeded half of the 22 cost-preserving
//! NPN classes of 3-input functions, so the first request for each other
//! class misses and runs the daemon's cold canonical solve plus `store`;
//! every other request is a cache read.

use std::collections::{BTreeMap, VecDeque};
use std::fs;
use std::io::{self, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

use mm_boolfn::npn::{canonicalize, NpnTransform};
use mm_boolfn::{MultiOutputFn, TruthTable};
use mm_circuit::MmCircuit;
use mm_service::cache::device_trace;
use mm_service::engine::entry_from_report;
use mm_service::{CacheEntry, Daemon, DaemonConfig, ResultCache};
use mm_synth::request::{decanonicalize_circuit, MinimizeRequest};
use mm_synth::{EncodeOptions, Synthesizer};
use mm_telemetry::{MemorySink, Telemetry};
use serde::{Deserialize, Value};

use crate::check::check_answer;
use crate::layers::{Phases, TraceSummary};
use crate::manifest::{LadderShape, Manifest, Optimum, WorkloadSpec};
use crate::measure::{process_cpu_s, SplitMix64};

/// One of the 256 single-output 3-input functions.
#[derive(Debug, Clone)]
pub struct Fn3 {
    /// The truth table as the wire protocol carries it.
    pub table: String,
    /// The function.
    pub f: MultiOutputFn,
    /// Index of its class in [`ServicePrep::classes`].
    pub class: usize,
    /// The transform with `canonical = transform.apply(f)`.
    pub transform: NpnTransform,
}

/// One cost-preserving NPN class.
#[derive(Debug, Clone)]
pub struct Class3 {
    /// The canonical representative.
    pub canonical: MultiOutputFn,
    /// Its reference optimum.
    pub expected: Optimum,
    /// The canonical circuit stored by the prefill (prefilled classes).
    pub prefilled: Option<MmCircuit>,
}

/// Everything a `service` pass needs, built once per run.
#[derive(Debug)]
pub struct ServicePrep {
    /// All 256 functions.
    pub functions: Vec<Fn3>,
    /// All 22 classes, in manifest order.
    pub classes: Vec<Class3>,
    /// The request stream: indices into `functions`.
    pub stream: Vec<usize>,
    /// The ladder shape every stream entry requests.
    pub shape: LadderShape,
    /// The same request, as the cache keys it.
    pub request: MinimizeRequest,
    /// The prefilled cache every pass starts from.
    pub template: PathBuf,
    /// Scratch root of the run; the caller removes it.
    pub root: PathBuf,
}

/// Builds the classes, the seeded request stream and the prefilled cache
/// template under `root`.
///
/// # Errors
///
/// Reports a class set that disagrees with the manifest, a prefill solve
/// whose answer fails the checker, or an I/O failure.
pub fn prepare(
    manifest: &Manifest,
    spec: &WorkloadSpec,
    seed: u64,
    root: &Path,
) -> Result<ServicePrep, String> {
    let mut classes: Vec<Class3> = Vec::new();
    let mut class_of: BTreeMap<String, usize> = BTreeMap::new();
    for class in &manifest.classes {
        let tt = TruthTable::from_bitstring(&class.table).map_err(|e| e.to_string())?;
        let canonical = MultiOutputFn::new("class", vec![tt]).map_err(|e| e.to_string())?;
        class_of.insert(class.table.clone(), classes.len());
        classes.push(Class3 {
            canonical,
            expected: class.optimum,
            prefilled: None,
        });
    }
    let mut functions = Vec::with_capacity(256);
    for word in 0..256u64 {
        let tt = TruthTable::from_packed(3, word).map_err(|e| e.to_string())?;
        let table = tt.to_bitstring();
        let f = MultiOutputFn::new("fn3", vec![tt]).map_err(|e| e.to_string())?;
        let (canonical, transform) = canonicalize(&f);
        let key = canonical.outputs()[0].to_bitstring();
        let class = *class_of
            .get(&key)
            .ok_or_else(|| format!("class {key} of {table} is missing from the manifest"))?;
        functions.push(Fn3 {
            table,
            f,
            class,
            transform,
        });
    }
    if (0..classes.len()).any(|c| functions.iter().all(|f| f.class != c)) {
        return Err("the manifest lists a class no 3-input function belongs to".into());
    }

    let mut rng = SplitMix64::new(seed);
    let stream = (0..spec.requests_per_pass)
        .map(|_| rng.below(functions.len()))
        .collect();

    // One class of every stratum is prefilled, chosen by the seed.
    let mut strata: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, class) in manifest.classes.iter().enumerate() {
        strata.entry(class.stratum).or_default().push(i);
    }
    let prefill: Vec<usize> = strata
        .values()
        .map(|members| members[rng.below(members.len())])
        .collect();

    let shape = manifest.ladder;
    let request = MinimizeRequest::mixed_mode(shape.max_rops, shape.max_vsteps, false);
    let template = root.join("template");
    let (cache, _) = ResultCache::open(&template).map_err(|e| format!("prefill cache: {e}"))?;
    let options = EncodeOptions::recommended();
    for c in prefill {
        let class = &mut classes[c];
        // The daemon's miss path: cold canonical solve, then store.
        let report = request
            .run(&Synthesizer::new(), &class.canonical, &options, spec.jobs)
            .map_err(|e| format!("prefill solve: {e}"))?;
        check_answer(&class.canonical, report.best.as_ref(), class.expected)
            .map_err(|e| format!("prefill answer: {e}"))?;
        cache
            .store(
                &request,
                &entry_from_report(&class.canonical, &request, &report),
            )
            .map_err(|e| format!("prefill store: {e}"))?;
        class.prefilled = report.best;
    }
    Ok(ServicePrep {
        functions,
        classes,
        stream,
        shape,
        request,
        template,
        root: root.to_path_buf(),
    })
}

impl ServicePrep {
    /// A fresh copy of the prefilled template (harness prep, untimed).
    fn fresh_cache(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.root.join(name);
        let _ = fs::remove_dir_all(&dir);
        copy_dir(&self.template, &dir).map_err(|e| format!("copying cache template: {e}"))?;
        Ok(dir)
    }

    /// The wire line of stream entry `i` (the same request as
    /// [`request`](Self::request)).
    fn request_line(&self, i: usize) -> String {
        format!(
            r#"{{"op":"minimize","id":"r{i}","tables":["{}"],"max_rops":{},"max_steps":{}}}"#,
            self.functions[self.stream[i]].table, self.shape.max_rops, self.shape.max_vsteps,
        )
    }
}

fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let dest = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &dest)?;
        } else {
            fs::copy(entry.path(), dest)?;
        }
    }
    Ok(())
}

fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir).map_or(0, |d| {
        d.filter_map(Result::ok)
            .filter_map(|e| e.metadata().ok())
            .filter(fs::Metadata::is_file)
            .map(|m| m.len())
            .sum()
    })
}

/// The daemon's read side: request lines arrive over a channel; EOF when
/// the client drops its sender.
struct ChannelReader {
    rx: Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for ChannelReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if self.pos == self.buf.len() {
            match self.rx.recv() {
                Ok(bytes) => {
                    self.buf = bytes;
                    self.pos = 0;
                }
                Err(_) => return Ok(0),
            }
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// The daemon's write side: complete response lines go to the client.
struct ChannelWriter {
    tx: Sender<String>,
    line: Vec<u8>,
}

impl Write for ChannelWriter {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        for &b in bytes {
            if b == b'\n' {
                let line = String::from_utf8(std::mem::take(&mut self.line))
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                self.tx
                    .send(line)
                    .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "client gone"))?;
            } else {
                self.line.push(b);
            }
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One request as the client saw it.
#[derive(Debug, Clone)]
pub struct RequestSample {
    /// Submit to checked answer, seconds.
    pub latency_s: f64,
    /// Whether the daemon answered from the cache.
    pub hit: bool,
    /// Whether the answer was proven optimal.
    pub proven: bool,
    /// Why the answer was refused, if it was.
    pub failure: Option<String>,
}

/// One pass of the request stream against a fresh daemon.
#[derive(Debug)]
pub struct ServicePass {
    /// `Daemon::start` time, seconds.
    pub setup_s: f64,
    /// First submit to last checked answer, seconds.
    pub wall_s: f64,
    /// Process CPU time over the stream.
    pub cpu_s: f64,
    /// Per-request outcomes, in stream order.
    pub requests: Vec<RequestSample>,
    /// The daemon's own cache counters (`stats` op): hits, misses, stores.
    pub cache_counts: [u64; 3],
    /// Bytes of cache entries on disk after the pass.
    pub disk_bytes: u64,
    /// The canonical circuit of every class, as served in this pass.
    pub class_circuits: Vec<Option<MmCircuit>>,
    /// Layer totals (traced passes only).
    pub trace: Option<TraceSummary>,
}

/// The client's answer checker for one pass: every answer must pass the
/// device checker, and every answer for a class must be byte-identical to
/// the first (miss or prefilled) answer for that class, mapped through the
/// request's NPN transform.
struct Checker<'a> {
    prep: &'a ServicePrep,
    class_circuit: Vec<Option<MmCircuit>>,
    served: Vec<Option<String>>,
}

impl Checker<'_> {
    fn check(&mut self, fi: usize, v: &Value) -> Result<(), String> {
        let status = v.get("status").and_then(as_str).unwrap_or("?");
        if status != "ok" {
            let error = v.get("error").and_then(as_str).unwrap_or_default();
            return Err(format!("status {status} {error}"));
        }
        let cv = v
            .get("circuit")
            .filter(|c| **c != Value::Null)
            .ok_or("no circuit returned")?;
        let got = serde_json::to_string(cv).map_err(|e| e.to_string())?;
        if let Some(bytes) = &self.served[fi] {
            return if *bytes == got {
                Ok(())
            } else {
                Err("answer differs from this pass's first answer for the function".into())
            };
        }
        let func = &self.prep.functions[fi];
        let class = &self.prep.classes[func.class];
        let circuit = MmCircuit::from_value(cv).map_err(|e| format!("circuit: {e}"))?;
        check_answer(&func.f, Some(&circuit), class.expected)?;
        match &self.class_circuit[func.class] {
            Some(canonical) => {
                let want = decanonicalize_circuit(canonical, &func.transform)
                    .map_err(|e| e.to_string())?;
                if serde_json::to_string(&want).map_err(|e| e.to_string())? != got {
                    return Err("not byte-identical to the class's first answer".into());
                }
            }
            None => {
                let canonical = decanonicalize_circuit(&circuit, &func.transform.inverse())
                    .map_err(|e| e.to_string())?;
                self.class_circuit[func.class] = Some(canonical);
            }
        }
        self.served[fi] = Some(got);
        Ok(())
    }
}

fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn as_u64(v: Option<&Value>) -> u64 {
    match v {
        Some(Value::UInt(u)) => *u,
        _ => 0,
    }
}

/// Runs the request stream once against a fresh daemon on a fresh copy of
/// the prefilled cache.
///
/// # Errors
///
/// Reports daemon start/serve/drain failures and a broken stream.
pub fn run_pass(
    prep: &ServicePrep,
    spec: &WorkloadSpec,
    traced: bool,
    pass: usize,
) -> Result<ServicePass, String> {
    let dir = prep.fresh_cache(&format!("pass{pass}"))?;
    let sink = traced.then(|| Arc::new(MemorySink::new()));
    let telemetry = sink
        .as_ref()
        .map_or_else(Telemetry::disabled, |s| Telemetry::new(s.clone()));
    let config = DaemonConfig {
        cache_dir: Some(dir.clone()),
        workers: spec.workers,
        solve_jobs: spec.jobs,
        ..DaemonConfig::default()
    };
    let t = Instant::now();
    let daemon = Daemon::start(config, telemetry).map_err(|e| format!("Daemon::start: {e}"))?;
    let setup_s = t.elapsed().as_secs_f64();

    let (req_tx, req_rx) = channel::<Vec<u8>>();
    let (resp_tx, resp_rx) = channel::<String>();
    let reader = BufReader::new(ChannelReader {
        rx: req_rx,
        buf: Vec::new(),
        pos: 0,
    });
    let writer = ChannelWriter {
        tx: resp_tx,
        line: Vec::new(),
    };
    let mut checker = Checker {
        prep,
        class_circuit: prep.classes.iter().map(|c| c.prefilled.clone()).collect(),
        served: vec![None; prep.functions.len()],
    };
    let (served, outcome) = std::thread::scope(|scope| {
        // The client owns the request sender: when it returns, the serve
        // loop sees end of stream and returns too.
        let client = scope.spawn(|| drive_client(prep, spec, &mut checker, req_tx, resp_rx));
        let served = daemon.serve(reader, writer);
        (served, client.join())
    });
    served.map_err(|e| format!("Daemon::serve: {e}"))?;
    let outcome = outcome.map_err(|_| "client panicked".to_string())??;
    daemon.drain().map_err(|e| format!("Daemon::drain: {e}"))?;
    let disk_bytes = dir_bytes(&dir.join("entries"));
    let _ = fs::remove_dir_all(&dir);
    Ok(ServicePass {
        setup_s,
        wall_s: outcome.wall_s,
        cpu_s: outcome.cpu_s,
        requests: outcome.requests,
        cache_counts: outcome.cache_counts,
        disk_bytes,
        class_circuits: checker.class_circuit,
        trace: sink.map(|s| TraceSummary::from_events(&s.drain(), Phases::ByThread)),
    })
}

struct ClientOutcome {
    wall_s: f64,
    cpu_s: f64,
    requests: Vec<RequestSample>,
    cache_counts: [u64; 3],
}

/// The closed-loop client: keeps `spec.window` requests outstanding,
/// checks each answer as it arrives, then asks for the cache counters.
fn drive_client(
    prep: &ServicePrep,
    spec: &WorkloadSpec,
    checker: &mut Checker,
    req_tx: Sender<Vec<u8>>,
    resp_rx: Receiver<String>,
) -> Result<ClientOutcome, String> {
    let send = |line: String| {
        req_tx
            .send(format!("{line}\n").into_bytes())
            .map_err(|_| "daemon stopped reading".to_string())
    };
    let n = prep.stream.len();
    let mut requests = Vec::with_capacity(n);
    let mut outstanding: VecDeque<(usize, Instant)> = VecDeque::new();
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let mut next = 0;
    while next < n && outstanding.len() < spec.window {
        outstanding.push_back((next, Instant::now()));
        send(prep.request_line(next))?;
        next += 1;
    }
    while let Some((i, sent)) = outstanding.pop_front() {
        let line = resp_rx.recv().map_err(|_| "daemon hung up".to_string())?;
        let (failure, hit, proven) = match serde_json::from_str::<Value>(&line) {
            Err(e) => (Some(format!("bad response: {e}")), false, false),
            Ok(v) if v.get("id").and_then(as_str) != Some(format!("r{i}").as_str()) => {
                (Some("response out of order".to_string()), false, false)
            }
            Ok(v) => (
                checker.check(prep.stream[i], &v).err(),
                v.get("cache").and_then(as_str) == Some("hit"),
                v.get("proven_optimal") == Some(&Value::Bool(true)),
            ),
        };
        requests.push(RequestSample {
            latency_s: sent.elapsed().as_secs_f64(),
            hit,
            proven,
            failure,
        });
        if next < n {
            outstanding.push_back((next, Instant::now()));
            send(prep.request_line(next))?;
            next += 1;
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    send(r#"{"op":"stats","id":"stats"}"#.to_string())?;
    let reply = resp_rx.recv().map_err(|_| "no stats reply".to_string())?;
    let stats: Value = serde_json::from_str(&reply).map_err(|e| format!("stats reply: {e}"))?;
    let counts = stats.get("cache_stats");
    let cache_counts = ["hits", "misses", "stores"].map(|k| as_u64(counts.and_then(|c| c.get(k))));
    Ok(ClientOutcome {
        wall_s,
        cpu_s,
        requests,
        cache_counts,
    })
}

/// The benchmark's own timers around the public cache-path calls,
/// replayed on the pass's request stream against a fresh copy of the
/// prefilled cache: `npn::canonicalize`, `ResultCache::open`/`lookup`/
/// `store` and `request::decanonicalize_circuit`.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// `ResultCache::open` (recovery scan), seconds.
    pub open_s: f64,
    /// `canonicalize` per request, microseconds.
    pub canonicalize_us: Vec<f64>,
    /// `lookup` per request, microseconds.
    pub lookup_us: Vec<f64>,
    /// `store` per miss, microseconds.
    pub store_us: Vec<f64>,
    /// `decanonicalize_circuit` per hit, microseconds.
    pub decanonicalize_us: Vec<f64>,
}

/// Replays the stream through the cache path; `class_circuits` (from a
/// pass) supplies the entry each miss stores.
///
/// # Errors
///
/// Reports I/O failures and a class with no known circuit.
pub fn replay(prep: &ServicePrep, class_circuits: &[Option<MmCircuit>]) -> Result<Replay, String> {
    let dir = prep.fresh_cache("replay")?;
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    let t = Instant::now();
    let (cache, _) = ResultCache::open(&dir).map_err(|e| format!("ResultCache::open: {e}"))?;
    let mut out = Replay {
        open_s: t.elapsed().as_secs_f64(),
        ..Replay::default()
    };
    let (mode, max_conflicts) = prep.request.cache_facet();
    for &fi in &prep.stream {
        let func = &prep.functions[fi];
        let t = Instant::now();
        let (canonical, transform) = canonicalize(&func.f);
        out.canonicalize_us.push(us(t));
        let t = Instant::now();
        let found = cache.lookup(&canonical, &prep.request);
        out.lookup_us.push(us(t));
        match found {
            Some(entry) => {
                let circuit = entry.circuit.ok_or("cached entry without a circuit")?;
                let t = Instant::now();
                let served = decanonicalize_circuit(&circuit, &transform);
                out.decanonicalize_us.push(us(t));
                std::hint::black_box(served.map_err(|e| e.to_string())?);
            }
            None => {
                let circuit = class_circuits[func.class]
                    .clone()
                    .ok_or("replay met a class the pass never answered")?;
                let entry = CacheEntry {
                    canonical,
                    mode: mode.clone(),
                    max_conflicts,
                    trace: device_trace(&circuit),
                    circuit: Some(circuit),
                    proven_optimal: true,
                    proof: None,
                    solver_calls: 0,
                };
                let t = Instant::now();
                cache
                    .store(&prep.request, &entry)
                    .map_err(|e| format!("ResultCache::store: {e}"))?;
                out.store_us.push(us(t));
            }
        }
    }
    let _ = fs::remove_dir_all(&dir);
    Ok(out)
}
