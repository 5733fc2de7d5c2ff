//! End-to-end tests for `mmsynthd`: mixed batches over stdio, kill -9
//! torture against the persistent cache, and the service's core safety
//! claim — a cache hit is bit-identical to a cold solve at any `--jobs`.
//!
//! Everything runs the real binary (`CARGO_BIN_EXE_mmsynthd`) against a
//! throwaway cache directory, exactly as CI's daemon smoke leg does.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use memristive_mm::boolfn::{MultiOutputFn, TruthTable};
use memristive_mm::circuit::MmCircuit;
use serde::{Deserialize, Value};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("svc_e2e_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn_daemon(cache: &Path, extra: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_mmsynthd"))
        .arg("--cache-dir")
        .arg(cache)
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("mmsynthd spawns")
}

/// Runs one daemon lifetime: writes `lines`, closes stdin (EOF drains),
/// and returns (parsed responses, stderr).
fn run_batch(cache: &Path, extra: &[&str], lines: &[String]) -> (Vec<Value>, String) {
    let mut child = spawn_daemon(cache, extra);
    let mut stdin = child.stdin.take().expect("piped stdin");
    for line in lines {
        writeln!(stdin, "{line}").expect("write request");
    }
    drop(stdin);
    let output = child.wait_with_output().expect("daemon exits");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(
        output.status.success(),
        "daemon failed: {stderr}\nstdout: {}",
        String::from_utf8_lossy(&output.stdout)
    );
    let responses = String::from_utf8_lossy(&output.stdout)
        .lines()
        .map(|l| serde_json::from_str(l).unwrap_or_else(|e| panic!("bad response {l:?}: {e}")))
        .collect();
    (responses, stderr)
}

/// Raw-line variant of [`run_batch`] for tests about frame interleaving:
/// progress frames are not responses, so callers split them themselves.
fn run_batch_raw(cache: &Path, extra: &[&str], lines: &[String]) -> (Vec<String>, String) {
    let mut child = spawn_daemon(cache, extra);
    let mut stdin = child.stdin.take().expect("piped stdin");
    for line in lines {
        writeln!(stdin, "{line}").expect("write request");
    }
    drop(stdin);
    let output = child.wait_with_output().expect("daemon exits");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(output.status.success(), "daemon failed: {stderr}");
    let raw = String::from_utf8_lossy(&output.stdout)
        .lines()
        .map(str::to_string)
        .collect();
    (raw, stderr)
}

fn is_progress_frame(line: &str) -> bool {
    matches!(
        serde_json::from_str::<Value>(line)
            .unwrap_or_else(|e| panic!("bad line {line:?}: {e}"))
            .get("frame"),
        Some(Value::Str(f)) if f == "progress"
    )
}

fn field<'a>(resp: &'a Value, key: &str) -> Option<&'a Value> {
    resp.get(key).filter(|v| !matches!(v, Value::Null))
}

fn str_field<'a>(resp: &'a Value, key: &str) -> Option<&'a str> {
    match field(resp, key) {
        Some(Value::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn minimize_line(id: &str, tables: &str, extra: &str) -> String {
    format!(
        r#"{{"op":"minimize","id":"{id}","tables":["{tables}"],"max_rops":3,"max_steps":3{extra}}}"#
    )
}

fn function(tables: &str) -> MultiOutputFn {
    MultiOutputFn::new(
        "spec",
        vec![TruthTable::from_bitstring(tables).expect("table")],
    )
    .expect("function")
}

/// Parses the circuit out of a response and checks it implements the
/// *requested* function — the "never a wrong verdict" assertion.
fn assert_circuit_implements(resp: &Value, tables: &str, context: &str) {
    let circuit_value = field(resp, "circuit")
        .unwrap_or_else(|| panic!("{context}: response has no circuit: {resp:?}"));
    let circuit = MmCircuit::from_value(circuit_value)
        .unwrap_or_else(|e| panic!("{context}: circuit does not parse: {e}"));
    assert!(
        circuit.implements(&function(tables)),
        "{context}: served circuit does not implement {tables}"
    );
}

#[test]
fn mixed_batch_over_stdio() {
    let cache = temp_dir("mixed");
    let lines = vec![
        r#"{"op":"ping","id":"p"}"#.to_string(),
        minimize_line("cold", "0110", ""),
        // XNOR canonicalizes onto XOR's representative: NPN hit.
        minimize_line("npn", "1001", ""),
        // A microscopic deadline: degraded, and (being timing-dependent)
        // never served from or stored into the cache.
        minimize_line("late", "0111", r#","deadline_secs":0.000001"#),
        r#"{"op":"stats","id":"s"}"#.to_string(),
    ];
    // --workers 1 serializes the jobs so cold/npn ordering is deterministic.
    let (responses, _) = run_batch(&cache, &["--workers", "1"], &lines);
    assert_eq!(responses.len(), 5, "one response line per request");
    let by_id: Vec<(&str, &Value)> = responses
        .iter()
        .map(|r| (str_field(r, "id").expect("id"), r))
        .collect();
    assert_eq!(
        by_id.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
        vec!["p", "cold", "npn", "late", "s"],
        "responses come back in submission order"
    );
    assert_eq!(str_field(by_id[0].1, "status"), Some("ok"));
    assert_eq!(str_field(by_id[1].1, "status"), Some("ok"));
    assert_eq!(str_field(by_id[1].1, "cache"), Some("miss"));
    assert_circuit_implements(by_id[1].1, "0110", "cold solve");
    assert_eq!(str_field(by_id[2].1, "status"), Some("ok"));
    assert_eq!(
        str_field(by_id[2].1, "cache"),
        Some("hit"),
        "xnor must hit xor's canonical entry: {:?}",
        by_id[2].1
    );
    assert_circuit_implements(by_id[2].1, "1001", "NPN hit");
    assert_eq!(
        str_field(by_id[3].1, "status"),
        Some("degraded"),
        "deadline-expired job must degrade, not lie: {:?}",
        by_id[3].1
    );
    assert!(str_field(by_id[3].1, "degraded_reason").is_some());
    // Stats are answered inline at read time (pipelined requests may not
    // have executed yet), so assert the counter shape, not the counts.
    let stats = field(by_id[4].1, "cache_stats").expect("stats response carries counters");
    for counter in ["hits", "misses", "stores", "quarantined"] {
        assert!(
            matches!(stats.get(counter), Some(Value::UInt(_))),
            "missing counter {counter}: {stats:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&cache);
}

/// The bit-identity claim: for the same deterministic request, a cache
/// hit equals a cold solve — same circuit, same proof, same verdict —
/// and both are invariant across portfolio widths 1/2/8.
#[test]
fn hits_are_bit_identical_to_cold_solves_across_jobs() {
    let request = minimize_line("j", "0110", r#","certify":true"#);
    let mut witnesses: Vec<(String, Value, Value, Value)> = Vec::new();
    for jobs in ["1", "2", "8"] {
        let cache = temp_dir(&format!("identity_{jobs}"));
        let (cold, _) = run_batch(&cache, &["--jobs", jobs], std::slice::from_ref(&request));
        let (warm, _) = run_batch(&cache, &["--jobs", jobs], std::slice::from_ref(&request));
        for (kind, resp) in [("cold", &cold[0]), ("warm", &warm[0])] {
            assert_eq!(
                str_field(resp, "status"),
                Some("ok"),
                "{kind}@{jobs}: {resp:?}"
            );
            let expected = if kind == "cold" { "miss" } else { "hit" };
            assert_eq!(str_field(resp, "cache"), Some(expected), "{kind}@{jobs}");
            witnesses.push((
                format!("{kind}@{jobs}"),
                field(resp, "circuit").expect("circuit").clone(),
                field(resp, "proven_optimal").expect("verdict").clone(),
                field(resp, "proof")
                    .expect("certified run carries a proof")
                    .clone(),
            ));
        }
        let _ = std::fs::remove_dir_all(&cache);
    }
    let (_, circuit0, optimal0, proof0) = &witnesses[0];
    for (who, circuit, optimal, proof) in &witnesses[1..] {
        assert_eq!(circuit, circuit0, "circuit differs for {who}");
        assert_eq!(optimal, optimal0, "verdict differs for {who}");
        assert_eq!(proof, proof0, "proof differs for {who}");
    }
}

/// Kill -9 torture: repeatedly murder the daemon mid-burst, restart on
/// the same cache directory, and require that recovery never serves a
/// wrong answer and converges to cache hits bit-identical to a cold
/// solve from an untouched cache.
#[test]
fn sigkill_torture_never_serves_a_wrong_answer() {
    let burst = ["0001", "0110", "1000", "0111"];
    // Reference: cold solves from a pristine cache.
    let pristine = temp_dir("pristine");
    let lines: Vec<String> = burst
        .iter()
        .enumerate()
        .map(|(i, t)| minimize_line(&format!("ref{i}"), t, ""))
        .collect();
    let (reference, _) = run_batch(&pristine, &[], &lines);
    let _ = std::fs::remove_dir_all(&pristine);

    let cache = temp_dir("torture");
    for round in 0..3u64 {
        let mut child = spawn_daemon(&cache, &[]);
        let mut stdin = child.stdin.take().expect("piped stdin");
        for (i, t) in burst.iter().enumerate() {
            let _ = writeln!(stdin, "{}", minimize_line(&format!("r{round}j{i}"), t, ""));
        }
        let _ = stdin.flush();
        // Vary the murder instant so different rounds die in different
        // phases (parsing, solving, storing).
        std::thread::sleep(std::time::Duration::from_millis(20 + 60 * round));
        child.kill().expect("SIGKILL");
        let _ = child.wait();

        // Restart on the same directory: recovery must scan, then the
        // resubmitted burst must serve only correct circuits.
        let (responses, stderr) = run_batch(&cache, &[], &lines);
        assert!(
            stderr.contains("mmsynthd: cache"),
            "restart must report the recovery scan: {stderr}"
        );
        assert_eq!(responses.len(), burst.len());
        for (resp, tables) in responses.iter().zip(burst) {
            assert_eq!(
                str_field(resp, "status"),
                Some("ok"),
                "round {round}: {resp:?}"
            );
            assert_circuit_implements(resp, tables, &format!("round {round}"));
        }
    }
    // After the dust settles everything is cached, and each answer is
    // bit-identical to the pristine cold solve.
    let (settled, _) = run_batch(&cache, &[], &lines);
    for ((resp, reference), tables) in settled.iter().zip(&reference).zip(burst) {
        assert_eq!(str_field(resp, "cache"), Some("hit"), "{tables}: {resp:?}");
        assert_eq!(
            field(resp, "circuit"),
            field(reference, "circuit"),
            "{tables}: crash-recovered cache serves a different circuit than a cold solve"
        );
        assert_eq!(
            field(resp, "proven_optimal"),
            field(reference, "proven_optimal"),
            "{tables}: verdict drifted"
        );
    }
    let _ = std::fs::remove_dir_all(&cache);
}

/// One rung frame's `(n_rops, n_vsteps, idx)`.
type RungKey = (u64, u64, u64);

/// Streaming contract: a subscribed minimize on a multi-rung ladder
/// yields exactly one `rung` frame per ladder index, every frame
/// precedes the job's final, and the *set* of rung indices is invariant
/// across portfolio widths 1/2/8 (mirroring `parallel_determinism`).
#[test]
fn progress_frames_cover_every_rung_and_are_jobs_invariant() {
    let request = minimize_line("sub", "0110", r#","subscribe":true"#);
    let mut rung_idx_sets: Vec<(String, Vec<RungKey>)> = Vec::new();
    for jobs in ["1", "2", "8"] {
        let cache = temp_dir(&format!("frames_{jobs}"));
        let (lines, _) = run_batch_raw(&cache, &["--jobs", jobs], std::slice::from_ref(&request));
        let (frames, finals): (Vec<&String>, Vec<&String>) =
            lines.iter().partition(|l| is_progress_frame(l));
        assert_eq!(
            finals.len(),
            1,
            "jobs={jobs}: exactly one final: {lines:#?}"
        );
        assert_eq!(
            lines.last().map(String::as_str),
            finals.first().map(|s| s.as_str()),
            "jobs={jobs}: every frame precedes the final"
        );
        // A minimize descends several ladders in sequence; each ladder
        // emits one `rung` frame per spec index, so the *multiset* of
        // (n_rops, n_vsteps, idx) triples is the deterministic shape.
        let mut rungs: Vec<RungKey> = frames
            .iter()
            .map(|l| serde_json::from_str::<Value>(l).expect("frame parses"))
            .filter(|v| matches!(v.get("event"), Some(Value::Str(e)) if e == "rung"))
            .map(|v| {
                let num = |key: &str| match v.get(key) {
                    Some(Value::UInt(n)) => *n,
                    other => panic!("jobs={jobs}: rung frame without {key}: {other:?}"),
                };
                (num("n_rops"), num("n_vsteps"), num("idx"))
            })
            .collect();
        rungs.sort_unstable();
        assert!(!rungs.is_empty(), "jobs={jobs}: ladder emits rung frames");
        rung_idx_sets.push((format!("jobs={jobs}"), rungs));
        let _ = std::fs::remove_dir_all(&cache);
    }
    let (_, reference) = &rung_idx_sets[0];
    for (who, rungs) in &rung_idx_sets[1..] {
        assert_eq!(rungs, reference, "{who}: rung frame set differs");
    }
}

/// Non-subscribers are untouched by the streaming layer: in a mixed
/// pipelined batch only the subscribed job's frames appear, and the
/// non-subscribed final is byte-identical to a run with no subscriber
/// anywhere.
#[test]
fn non_subscribers_get_no_frames_and_identical_bytes() {
    // --jobs 1 pins `solver_calls`, which is timing-dependent under a
    // portfolio, so finals compare bytewise.
    let quiet_request = minimize_line("q", "0111", "");
    let cache_mixed = temp_dir("mixed_sub");
    let mixed = vec![
        minimize_line("loud", "0110", r#","subscribe":true"#),
        quiet_request.clone(),
    ];
    let (lines, _) = run_batch_raw(&cache_mixed, &["--workers", "1", "--jobs", "1"], &mixed);
    let frames: Vec<&String> = lines.iter().filter(|l| is_progress_frame(l)).collect();
    assert!(!frames.is_empty(), "subscribed job streams: {lines:#?}");
    for frame in &frames {
        assert!(
            frame.contains(r#""id":"loud""#),
            "frame from a non-subscriber: {frame}"
        );
    }
    let mixed_quiet_final = lines
        .iter()
        .find(|l| !is_progress_frame(l) && l.contains(r#""id":"q""#))
        .expect("non-subscribed final")
        .clone();
    let _ = std::fs::remove_dir_all(&cache_mixed);

    let cache_ref = temp_dir("no_sub");
    let (reference, _) = run_batch_raw(
        &cache_ref,
        &["--workers", "1", "--jobs", "1"],
        std::slice::from_ref(&quiet_request),
    );
    assert_eq!(reference.len(), 1);
    assert_eq!(
        mixed_quiet_final, reference[0],
        "a subscriber elsewhere in the batch must not change these bytes"
    );
    let _ = std::fs::remove_dir_all(&cache_ref);
}

/// The HTTP exporter end to end: `--metrics-addr 127.0.0.1:0` binds,
/// announces its port on stderr, and serves the queue/cache/solver
/// families; after a job runs, the per-op job families appear too.
#[test]
fn metrics_endpoint_serves_all_families_over_http() {
    use std::io::{BufRead, BufReader, Read};

    let cache = temp_dir("http_metrics");
    let mut child = spawn_daemon(&cache, &["--metrics-addr", "127.0.0.1:0", "--jobs", "1"]);
    let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let addr = loop {
        let mut line = String::new();
        assert_ne!(
            stderr.read_line(&mut line).expect("stderr readable"),
            0,
            "daemon exited before announcing the metrics address"
        );
        if let Some(rest) = line.trim().strip_prefix("mmsynthd: metrics on http://") {
            break rest
                .strip_suffix("/metrics")
                .expect("announcement format")
                .to_string();
        }
    };
    let get_metrics = || {
        let mut stream = std::net::TcpStream::connect(&addr).expect("connect to exporter");
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        response
    };

    let first = get_metrics();
    assert!(first.starts_with("HTTP/1.1 200 OK"), "{first}");
    for family in [
        "mmsynth_queue_depth",
        "mmsynth_jobs_inflight",
        "mmsynth_admissions_total",
        "mmsynth_sheds_total",
        "mmsynth_cache_hits_total",
        "mmsynth_cache_misses_total",
        "mmsynth_cache_entries",
        "mmsynth_solver_conflicts_total",
    ] {
        assert!(first.contains(family), "missing {family} in:\n{first}");
    }

    let mut stdin = child.stdin.take().expect("piped stdin");
    writeln!(stdin, "{}", minimize_line("m", "0110", "")).expect("write request");
    stdin.flush().expect("flush");
    // The final on stdout means the job (and its metric updates) is done.
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut final_line = String::new();
    stdout.read_line(&mut final_line).expect("final");
    assert!(final_line.contains(r#""status":"ok""#), "{final_line}");

    let second = get_metrics();
    for family in [
        r#"mmsynth_jobs_total{op="minimize",status="ok"} 1"#,
        r#"mmsynth_job_duration_us_count{op="minimize"} 1"#,
        "mmsynth_rungs_total",
        "mmsynth_admissions_total 1",
        "mmsynth_cache_misses_total 1",
        "mmsynth_cache_stores_total 1",
    ] {
        assert!(second.contains(family), "missing {family} in:\n{second}");
    }

    drop(stdin); // EOF drains
    let status = child.wait().expect("daemon exits");
    assert!(status.success());
    let _ = std::fs::remove_dir_all(&cache);
}

/// The one-shot client against a socket daemon: `degraded` maps to exit
/// code 2, `--progress` renders frames on stderr while stdout stays one
/// clean JSON line, and `--op metrics` exposes the registry.
#[test]
fn client_exit_codes_and_progress_over_unix_socket() {
    let cache = temp_dir("client");
    let socket = std::env::temp_dir().join(format!("svc_e2e_client_{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let mut child = spawn_daemon(&cache, &["--socket", socket.to_str().expect("utf8 path")]);
    // The daemon accepts only after the socket file exists.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !socket.exists() {
        assert!(
            std::time::Instant::now() < deadline,
            "daemon never bound {socket:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let client = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_mmsynth"))
            .arg("client")
            .arg("--socket")
            .arg(&socket)
            .args(extra)
            .output()
            .expect("client runs")
    };

    // A microscopic deadline degrades; the client must exit 2, not 0.
    let degraded = client(&["--function", "0111", "--deadline", "0.000001"]);
    assert_eq!(
        degraded.status.code(),
        Some(2),
        "degraded must map to exit 2\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&degraded.stdout),
        String::from_utf8_lossy(&degraded.stderr)
    );
    assert!(String::from_utf8_lossy(&degraded.stdout).contains(r#""status":"degraded""#));

    // --progress: frames on stderr, exactly the final on stdout, exit 0.
    let streamed = client(&["--function", "0110", "--progress"]);
    assert_eq!(streamed.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&streamed.stdout);
    assert_eq!(stdout.lines().count(), 1, "stdout: {stdout}");
    assert!(stdout.contains(r#""status":"ok""#));
    assert!(
        String::from_utf8_lossy(&streamed.stderr).contains("mmsynth: progress rung"),
        "stderr: {}",
        String::from_utf8_lossy(&streamed.stderr)
    );

    // The metrics op over the wire reflects the jobs just served.
    let metrics = client(&["--op", "metrics"]);
    assert_eq!(metrics.status.code(), Some(0));
    let snapshot = String::from_utf8_lossy(&metrics.stdout);
    assert!(snapshot.contains(r#""metrics_text":"#), "{snapshot}");
    assert!(snapshot.contains("mmsynth_jobs_total"), "{snapshot}");

    let shutdown = client(&["--op", "shutdown"]);
    assert_eq!(shutdown.status.code(), Some(0));
    let status = child.wait().expect("daemon exits");
    assert!(status.success());
    let _ = std::fs::remove_file(&socket);
    let _ = std::fs::remove_dir_all(&cache);
}

/// Overload shedding is reachable and explicit: a tiny queue + pipelined
/// burst must produce at least one `overloaded` response, and every
/// accepted job still resolves correctly.
#[test]
fn overload_sheds_explicitly_instead_of_buffering() {
    let cache = temp_dir("overload");
    // Admission happens before cache lookup, so even identical requests
    // exert queue pressure; a 12-deep pipelined burst against a depth-1
    // queue must trip the shed path.
    let lines: Vec<String> = (0..12)
        .map(|i| minimize_line(&format!("b{i}"), "0110", ""))
        .collect();
    let (responses, _) = run_batch(&cache, &["--workers", "1", "--queue-depth", "1"], &lines);
    assert_eq!(responses.len(), lines.len(), "every request gets a line");
    let overloaded = responses
        .iter()
        .filter(|r| str_field(r, "status") == Some("overloaded"))
        .count();
    let ok = responses
        .iter()
        .filter(|r| str_field(r, "status") == Some("ok"))
        .count();
    assert!(ok >= 1, "at least the first job must be served");
    assert!(
        overloaded >= 1,
        "a 12-deep pipelined burst against queue-depth 1 must shed; statuses: {:?}",
        responses
            .iter()
            .map(|r| str_field(r, "status").unwrap_or("?").to_string())
            .collect::<Vec<_>>()
    );
    for resp in responses
        .iter()
        .filter(|r| str_field(r, "status") == Some("ok"))
    {
        assert_circuit_implements(resp, "0110", "served under overload");
    }
    let _ = std::fs::remove_dir_all(&cache);
}
