//! Self-test: a small-scale run of every workload prints every metric
//! `BENCHMARK.json` names, with its unit, in a well-formed result line;
//! and answers that disagree with the reference are counted as failures.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use mm_perfbench::manifest::{Manifest, Optimum};
use mm_perfbench::run::{run_with, RunOptions, END_TO_END};
use serde::Value;

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn benchmark_metrics(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let Some(Value::Array(list)) = doc.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    list.iter()
        .map(|m| {
            let field = |k: &str| match m.get(k) {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("{key} entry without {k}: {other:?}"),
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// The real manifest with every batch suite cut to one small function and
/// a short request stream, so each workload's code path runs in seconds.
fn small_manifest() -> Manifest {
    let mut manifest = Manifest::load();
    for w in &mut manifest.workloads {
        if w.name == "service" {
            w.requests_per_pass = 96;
        } else {
            w.suite = vec!["mux21".into()];
        }
    }
    manifest
}

fn small_run(manifest: &Manifest, workload: &str, trace: bool) -> mm_perfbench::run::RunOutcome {
    let opts = RunOptions {
        workload: workload.into(),
        seed: 7,
        seconds: 0.001,
        trace,
    };
    run_with(manifest, &opts).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

fn printed(outcome: &mm_perfbench::run::RunOutcome) -> Vec<(String, String)> {
    let line = mm_perfbench::result_line(outcome);
    let doc: Value = serde_json::from_str(&line).expect("result line parses");
    let Value::Object(keys) = &doc else {
        panic!("result line is not an object");
    };
    let names: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, ["correct", "attempted", "failed", "metrics"]);
    let Some(Value::Object(metrics)) = doc.get("metrics") else {
        panic!("no metrics object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                matches!(m.get("value"), Some(Value::Float(_))),
                "{name} has no numeric value"
            );
            let Some(Value::Str(unit)) = m.get("unit") else {
                panic!("{name} has no unit");
            };
            (name.clone(), unit.clone())
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_manifest() {
    let manifest = Manifest::load();
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(benchmark_metrics("end_to_end"), e2e);
    let layers: Vec<(String, String)> = manifest
        .layer_metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect();
    assert_eq!(benchmark_metrics("per_layer"), layers);
    // A layer metric moves a gated end-to-end metric or one of the
    // ungated end-to-end numbers listed with the per-layer metrics.
    let ungated: Vec<&str> = manifest
        .layer_metrics
        .iter()
        .filter(|m| m.layer.starts_with("end-to-end"))
        .map(|m| m.name.as_str())
        .collect();
    for m in &manifest.layer_metrics {
        for target in &m.moves {
            assert!(
                END_TO_END.iter().any(|(n, _)| n == target) || ungated.contains(&target.as_str()),
                "{} moves unknown metric {target}",
                m.name
            );
        }
        for w in m.on.iter().chain(&m.flat_on) {
            assert!(
                manifest.workload(w).is_some(),
                "{} names workload {w}",
                m.name
            );
        }
    }
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let manifest = small_manifest();
    let e2e = benchmark_metrics("end_to_end");
    let layers = benchmark_metrics("per_layer");
    for w in ["ladder", "certified", "portfolio", "service"] {
        for (trace, want) in [(false, &e2e), (true, &layers)] {
            let outcome = small_run(&manifest, w, trace);
            assert!(outcome.correct, "{w}: {:?}", outcome.lines);
            assert_eq!(outcome.failed, 0, "{w}");
            assert!(outcome.attempted > 0, "{w}");
            assert_eq!(&printed(&outcome), want, "{w} trace={trace}");
        }
    }
}

#[test]
fn answers_off_the_reference_count_as_failures() {
    // mux21's optimum is (1, 2, 2). A reference one V-step cheaper makes
    // the program's answer over-cost; one V-step dearer makes it disagree.
    for n_vsteps in [1, 3] {
        let mut manifest = small_manifest();
        for f in &mut manifest.functions {
            if f.name == "mux21" {
                f.optimum = Optimum {
                    n_rops: 1,
                    n_legs: 2,
                    n_vsteps,
                };
            }
        }
        let outcome = small_run(&manifest, "ladder", false);
        assert!(!outcome.correct);
        assert_eq!(outcome.failed, outcome.attempted);
        let expect = if n_vsteps == 1 {
            "non-minimal"
        } else {
            "disagrees"
        };
        assert!(
            outcome
                .lines
                .iter()
                .any(|l| l.starts_with("FAIL") && l.contains(expect)),
            "{:?}",
            outcome.lines
        );
    }
}
