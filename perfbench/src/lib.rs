//! Production-path benchmark for the memristive mixed-mode synthesizer.
//!
//! Every workload drives an entry point that ships —
//! `optimize::parallel::minimize_mixed_mode` as `mmsynth minimize` builds
//! it, or an in-process `mm_service::Daemon` — checks every answer against
//! a reference optimum and an exhaustive device-model replay, and reports
//! end-to-end metrics (untraced) or per-layer metrics read from the
//! program's own telemetry (traced). See `manifest.json` for the
//! workloads and the layer attribution of every metric.

pub mod batch;
pub mod check;
pub mod derive;
pub mod layers;
pub mod manifest;
pub mod measure;
pub mod run;
pub mod service;

/// Renders the result line: one JSON object with exactly `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(outcome: &run::RunOutcome) -> String {
    use serde::Value;
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Value::Object(vec![
                    ("value".into(), Value::Float(m.value)),
                    ("unit".into(), Value::Str(m.unit.clone())),
                ]),
            )
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(outcome.correct)),
        ("attempted".into(), Value::UInt(outcome.attempted)),
        ("failed".into(), Value::UInt(outcome.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("finite metrics render")
}
