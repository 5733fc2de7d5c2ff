//! Live service metrics: the pre-registered handle bundle every layer of
//! the daemon updates, plus the bridge that folds existing telemetry
//! events (solver counters, rung verdicts) into the same registry.
//!
//! # Why a handle bundle
//!
//! Registration takes the registry's family lock; updates are single
//! atomic ops. The hot paths (admission, cache lookup, worker loop) must
//! only ever touch pre-registered [`Counter`]/[`Gauge`] handles, so
//! [`ServiceMetrics::register`] resolves every fixed-label family once at
//! daemon start. Per-op families (`mmsynth_jobs_total{op,status}`,
//! `mmsynth_job_duration_us{op}`) are resolved per job through
//! [`ServiceMetrics::observe_job`] — one registry lookup per *finished*
//! job, which is noise next to a solve.
//!
//! Instrumented types that can also run standalone (the cache in
//! `mmsynth --cache-dir`, the supervisor in unit tests) default to
//! [`ServiceMetrics::detached`]: the same handles over a private,
//! never-scraped registry, so their hot paths stay `Option`-free.

use std::sync::Arc;

use mm_telemetry::metrics::{Counter, Gauge, MetricsRegistry};
use mm_telemetry::{AttrValue, Event, EventKind, TelemetrySink};

/// The fixed-label metric handles shared across the service layers.
pub struct ServiceMetrics {
    registry: Arc<MetricsRegistry>,
    /// Jobs waiting in the admission queue (`mmsynth_queue_depth`).
    pub queue_depth: Gauge,
    /// Jobs currently executing on a worker (`mmsynth_jobs_inflight`).
    pub jobs_inflight: Gauge,
    /// Jobs accepted into the queue (`mmsynth_admissions_total`).
    pub admissions: Counter,
    /// Jobs refused because the queue was full (`mmsynth_sheds_total`).
    pub sheds: Counter,
    /// Attempts beyond the first (`mmsynth_retries_total`).
    pub retries: Counter,
    /// Attempts that panicked and were isolated (`mmsynth_panics_total`).
    pub panics: Counter,
    /// Cache lookups answered from disk (`mmsynth_cache_hits_total`).
    pub cache_hits: Counter,
    /// Cache lookups that missed (`mmsynth_cache_misses_total`).
    pub cache_misses: Counter,
    /// Cache entries written (`mmsynth_cache_stores_total`).
    pub cache_stores: Counter,
    /// Entries quarantined at startup or on lookup
    /// (`mmsynth_cache_quarantined_total`).
    pub cache_quarantined: Counter,
    /// Valid entries on disk (`mmsynth_cache_entries`).
    pub cache_entries: Gauge,
    /// Bytes the entry files occupy (`mmsynth_cache_disk_bytes`).
    pub cache_disk_bytes: Gauge,
    /// Streamed progress frames written to subscribers
    /// (`mmsynth_progress_frames_total`).
    pub progress_frames: Counter,
}

impl std::fmt::Debug for ServiceMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceMetrics")
            .field("queue_depth", &self.queue_depth.get())
            .field("jobs_inflight", &self.jobs_inflight.get())
            .field("admissions", &self.admissions.get())
            .field("sheds", &self.sheds.get())
            .finish_non_exhaustive()
    }
}

impl ServiceMetrics {
    /// Registers every fixed-label family on `registry` and returns the
    /// handle bundle. Idempotent: a second call returns handles over the
    /// same cells.
    pub fn register(registry: Arc<MetricsRegistry>) -> Arc<Self> {
        Arc::new(Self {
            queue_depth: registry.gauge(
                "mmsynth_queue_depth",
                "Jobs waiting in the admission queue.",
            ),
            jobs_inflight: registry.gauge(
                "mmsynth_jobs_inflight",
                "Jobs currently executing on a worker.",
            ),
            admissions: registry.counter(
                "mmsynth_admissions_total",
                "Jobs accepted into the admission queue.",
            ),
            sheds: registry.counter(
                "mmsynth_sheds_total",
                "Jobs refused with `overloaded` because the queue was full.",
            ),
            retries: registry.counter(
                "mmsynth_retries_total",
                "Job attempts beyond the first (escalated-budget retries).",
            ),
            panics: registry.counter(
                "mmsynth_panics_total",
                "Job attempts that panicked and were isolated.",
            ),
            cache_hits: registry.counter(
                "mmsynth_cache_hits_total",
                "Result-cache lookups answered from disk.",
            ),
            cache_misses: registry.counter(
                "mmsynth_cache_misses_total",
                "Result-cache lookups that found no valid entry.",
            ),
            cache_stores: registry.counter(
                "mmsynth_cache_stores_total",
                "Result-cache entries written.",
            ),
            cache_quarantined: registry.counter(
                "mmsynth_cache_quarantined_total",
                "Result-cache entries quarantined at startup or on lookup.",
            ),
            cache_entries: registry.gauge(
                "mmsynth_cache_entries",
                "Valid result-cache entries on disk.",
            ),
            cache_disk_bytes: registry.gauge(
                "mmsynth_cache_disk_bytes",
                "Bytes occupied by result-cache entry files.",
            ),
            progress_frames: registry.counter(
                "mmsynth_progress_frames_total",
                "Streamed progress frames written to subscribed clients.",
            ),
            registry,
        })
    }

    /// Handles over a private registry nothing scrapes. The default for
    /// standalone use of the instrumented types; updates cost the same
    /// atomic op but are observable only through the handles themselves.
    pub fn detached() -> Arc<Self> {
        Self::register(Arc::new(MetricsRegistry::new()))
    }

    /// The registry behind the handles.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Records one resolved job: bumps `mmsynth_jobs_total{op,status}`
    /// and observes its wall-clock latency into
    /// `mmsynth_job_duration_us{op}`.
    pub fn observe_job(&self, op: &str, status: &str, duration_us: u64) {
        self.registry
            .counter_with(
                "mmsynth_jobs_total",
                &[("op", op), ("status", status)],
                "Jobs resolved, by op and final status.",
            )
            .inc();
        self.registry
            .histogram_with(
                "mmsynth_job_duration_us",
                &[("op", op)],
                "Wall-clock job latency in microseconds (queue + attempts).",
            )
            .observe(duration_us);
    }
}

/// A [`TelemetrySink`] that folds the synthesis stack's existing trace
/// events into registry metrics, so solver effort and ladder verdicts are
/// scrapeable without touching the solver crates.
///
/// Attached by the daemon via [`mm_telemetry::Telemetry::with_extra_sink`];
/// coexists with JSONL tracing and per-job progress sinks.
pub struct MetricsBridgeSink {
    registry: Arc<MetricsRegistry>,
    conflicts: Counter,
    propagations: Counter,
    decisions: Counter,
    restarts: Counter,
    inprocess_subsumed: Counter,
    inprocess_vivified: Counter,
}

impl MetricsBridgeSink {
    /// Pre-registers the solver/ladder families on `registry`.
    pub fn new(registry: Arc<MetricsRegistry>) -> Self {
        Self {
            conflicts: registry.counter(
                "mmsynth_solver_conflicts_total",
                "CDCL conflicts across all solver calls.",
            ),
            propagations: registry.counter(
                "mmsynth_solver_propagations_total",
                "Unit propagations across all solver calls.",
            ),
            decisions: registry.counter(
                "mmsynth_solver_decisions_total",
                "Decisions across all solver calls.",
            ),
            restarts: registry.counter(
                "mmsynth_solver_restarts_total",
                "Restarts across all solver calls.",
            ),
            inprocess_subsumed: registry.counter(
                "mmsynth_solver_inprocess_subsumed_total",
                "Clauses subsumed or strengthened during inprocessing.",
            ),
            inprocess_vivified: registry.counter(
                "mmsynth_solver_inprocess_vivified_total",
                "Clauses shortened by vivification during inprocessing.",
            ),
            registry,
        }
    }
}

impl TelemetrySink for MetricsBridgeSink {
    fn record(&self, event: &Event) {
        match &event.kind {
            EventKind::Counter { name, delta } => match name.as_str() {
                "solver.conflicts" => self.conflicts.add(*delta),
                "solver.propagations" => self.propagations.add(*delta),
                "solver.decisions" => self.decisions.add(*delta),
                "solver.restarts" => self.restarts.add(*delta),
                "solver.inprocess.subsumed" => self.inprocess_subsumed.add(*delta),
                "solver.inprocess.vivified" => self.inprocess_vivified.add(*delta),
                _ => {}
            },
            EventKind::Point { name, attrs } if name == "rung" => {
                let outcome = attrs
                    .iter()
                    .find_map(|(k, v)| match (k.as_str(), v) {
                        ("outcome", AttrValue::Str(s)) => Some(s.as_str()),
                        _ => None,
                    })
                    .unwrap_or("unknown");
                self.registry
                    .counter_with(
                        "mmsynth_rungs_total",
                        &[("outcome", outcome)],
                        "Ladder rung verdicts, by outcome.",
                    )
                    .inc();
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use mm_telemetry::{kv, Telemetry};

    use super::*;

    #[test]
    fn register_is_idempotent_over_one_registry() {
        let registry = Arc::new(MetricsRegistry::new());
        let a = ServiceMetrics::register(registry.clone());
        let b = ServiceMetrics::register(registry);
        a.admissions.add(2);
        b.admissions.inc();
        assert_eq!(a.admissions.get(), 3, "both bundles share the cells");
    }

    #[test]
    fn observe_job_labels_by_op_and_status() {
        let metrics = ServiceMetrics::detached();
        metrics.observe_job("minimize", "ok", 1_000);
        metrics.observe_job("minimize", "ok", 2_000);
        metrics.observe_job("minimize", "degraded", 500_000);
        let text = metrics.registry().render_prometheus();
        assert!(text.contains(r#"mmsynth_jobs_total{op="minimize",status="ok"} 2"#));
        assert!(text.contains(r#"mmsynth_jobs_total{op="minimize",status="degraded"} 1"#));
        assert!(text.contains(r#"mmsynth_job_duration_us_count{op="minimize"} 3"#));
    }

    #[test]
    fn bridge_folds_solver_counters_and_rung_points() {
        let registry = Arc::new(MetricsRegistry::new());
        let telemetry = Telemetry::disabled()
            .with_extra_sink(Arc::new(MetricsBridgeSink::new(registry.clone())));
        telemetry.counter("solver.conflicts", 40);
        telemetry.counter("solver.conflicts", 2);
        telemetry.counter("solver.propagations", 100);
        telemetry.counter("solver.inprocess.subsumed", 8);
        telemetry.counter("solver.inprocess.subsumed", 1);
        telemetry.counter("solver.inprocess.vivified", 4);
        telemetry.counter("unrelated.counter", 5);
        telemetry.point("rung", vec![kv("n_rops", 2u64), kv("outcome", "unsat")]);
        telemetry.point("rung", vec![kv("n_rops", 3u64), kv("outcome", "sat")]);
        telemetry.point("rung", vec![kv("n_rops", 4u64), kv("outcome", "sat")]);
        telemetry.point("not_a_rung", vec![kv("outcome", "sat")]);
        let text = registry.render_prometheus();
        assert!(text.contains("mmsynth_solver_conflicts_total 42"));
        assert!(text.contains("mmsynth_solver_propagations_total 100"));
        assert!(text.contains("mmsynth_solver_inprocess_subsumed_total 9"));
        assert!(text.contains("mmsynth_solver_inprocess_vivified_total 4"));
        assert!(text.contains(r#"mmsynth_rungs_total{outcome="sat"} 2"#));
        assert!(text.contains(r#"mmsynth_rungs_total{outcome="unsat"} 1"#));
        assert!(!text.contains("unrelated"), "unknown names are ignored");
    }
}
