//! Per-layer numbers read from outside the program: the spans, counters
//! and `rung` points it already emits through its public telemetry,
//! aggregated with [`RunReport::from_events`] where a total is enough and
//! from the raw events where a per-span or per-rung view is needed.

use std::collections::BTreeMap;

use mm_telemetry::{attr, Event, EventKind, PhaseNode, RunReport};

/// How the `rung` points of one event stream split into ladder phases
/// (one two-phase `minimize_mixed_mode` call has two).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phases {
    /// The stream holds one call at a time: each `ladder` summary point
    /// closes the phase whose rungs precede it.
    ByLadderPoint,
    /// Calls may overlap, but each phase runs on its own single portfolio
    /// worker thread (`jobs = 1`), so the emitting thread names the phase.
    ByThread,
}

/// The span names whose busy time the benchmark attributes to a layer.
pub const BUSY_SPANS: [&str; 6] = [
    "encode",
    "solve",
    "certify",
    "decode",
    "device-verify",
    "job.attempt",
];

/// Layer totals of one event stream (or a sum of several).
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Total closed-span time per [`BUSY_SPANS`] name, microseconds.
    pub busy_us: BTreeMap<String, u64>,
    /// Closed spans per [`BUSY_SPANS`] name.
    pub span_count: BTreeMap<String, u64>,
    /// Counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Longest single `solve` span, microseconds.
    pub solve_max_us: u64,
    /// Rungs that launched a solver (`sat`/`unsat`/`unknown`/`panicked`).
    pub rungs_solved: u64,
    /// Rungs skipped before launch.
    pub rungs_skipped: u64,
    /// Rungs whose point carries `cancelled: true` (closed by the lattice
    /// before launch or cancelled mid-run).
    pub rungs_cancelled: u64,
    /// Conflicts on each phase's SAT witness rung and largest UNSAT rung.
    pub useful_conflicts: u64,
    /// Conflicts on every launched rung.
    pub rung_conflicts: u64,
    /// Largest CNF (variables) any rung solved against.
    pub vars_max: u64,
    /// Largest CNF (clauses) any rung solved against.
    pub clauses_max: u64,
    /// Clauses encoded: every cold rung's CNF plus each warm shared base
    /// once.
    pub clauses_total: u64,
    /// `job.retry` points.
    pub retries: u64,
    /// `daemon.shed` points.
    pub shed: u64,
    /// `job.attempt` span durations by job id, microseconds.
    pub attempt_us: Vec<(String, u64)>,
}

/// One `rung` point, as the benchmark reads it.
#[derive(Debug, Clone)]
struct Rung {
    idx: u64,
    outcome: String,
    cancelled: bool,
    conflicts: u64,
    vars: u64,
    clauses: u64,
}

impl TraceSummary {
    /// Summarizes one event stream.
    pub fn from_events(events: &[Event], phases: Phases) -> Self {
        let mut s = Self::default();
        let report = RunReport::from_events(events);
        for name in BUSY_SPANS {
            let (count, total) = phase_totals(&report.phases, name);
            s.busy_us.insert(name.to_string(), total);
            s.span_count.insert(name.to_string(), count);
        }
        for c in &report.counters {
            s.counters.insert(c.name.clone(), c.total);
        }

        let mut ordered: Vec<&Event> = events.iter().collect();
        ordered.sort_by_key(|e| e.seq);
        let mut open: BTreeMap<u64, (&str, u64, Option<String>)> = BTreeMap::new();
        let mut groups: BTreeMap<String, Vec<Rung>> = BTreeMap::new();
        let mut current_phase = 0u64;
        let mut warm = false;
        for event in ordered {
            match &event.kind {
                EventKind::SpanOpen { id, name, attrs } => {
                    let job = attr(attrs, "id")
                        .and_then(|v| v.as_str())
                        .map(str::to_string);
                    open.insert(*id, (name.as_str(), event.t_us, job));
                }
                EventKind::SpanClose { id } => {
                    if let Some((name, opened, job)) = open.remove(id) {
                        let dur = event.t_us.saturating_sub(opened);
                        match name {
                            "solve" => s.solve_max_us = s.solve_max_us.max(dur),
                            "job.attempt" => {
                                s.attempt_us.push((job.unwrap_or_default(), dur));
                            }
                            _ => {}
                        }
                    }
                }
                EventKind::Counter { .. } => {}
                EventKind::Point { name, attrs } => {
                    let u = |k: &str| attr(attrs, k).and_then(|v| v.as_u64()).unwrap_or(0);
                    let flag = |k: &str| attr(attrs, k).and_then(|v| v.as_bool()).unwrap_or(false);
                    match name.as_str() {
                        "rung" => {
                            let rung = Rung {
                                idx: u("idx"),
                                outcome: attr(attrs, "outcome")
                                    .and_then(|v| v.as_str())
                                    .unwrap_or_default()
                                    .to_string(),
                                cancelled: flag("cancelled"),
                                conflicts: u("conflicts"),
                                vars: u("vars"),
                                clauses: u("clauses"),
                            };
                            let key = match phases {
                                Phases::ByLadderPoint => format!("{current_phase:08}"),
                                Phases::ByThread => event.thread.clone(),
                            };
                            groups.entry(key).or_default().push(rung);
                        }
                        "ladder" => {
                            current_phase += 1;
                            warm |= flag("incremental");
                        }
                        "encoder.cnf" => s.clauses_total += u("clauses"),
                        "job.retry" => s.retries += 1,
                        "daemon.shed" => s.shed += 1,
                        _ => {}
                    }
                }
            }
        }

        for rungs in groups.values() {
            s.add_phase(rungs);
        }
        if warm {
            // A warm call encodes one shared base for both phases, and
            // every warm rung reports that base's size.
            s.clauses_total += s.clauses_max;
        }
        s
    }

    fn add_phase(&mut self, rungs: &[Rung]) {
        let launched = |r: &&Rung| r.outcome != "skipped";
        for r in rungs {
            if r.outcome == "skipped" {
                self.rungs_skipped += 1;
            } else {
                self.rungs_solved += 1;
            }
            if r.cancelled {
                self.rungs_cancelled += 1;
            }
        }
        for r in rungs.iter().filter(launched) {
            self.rung_conflicts += r.conflicts;
            self.vars_max = self.vars_max.max(r.vars);
            self.clauses_max = self.clauses_max.max(r.clauses);
        }
        let witness = rungs
            .iter()
            .filter(|r| r.outcome == "sat")
            .min_by_key(|r| r.idx);
        let below = witness.map_or(u64::MAX, |w| w.idx);
        let refuted = rungs
            .iter()
            .filter(|r| r.outcome == "unsat" && r.idx < below)
            .max_by_key(|r| r.idx);
        self.useful_conflicts += witness.map_or(0, |r| r.conflicts);
        self.useful_conflicts += refuted.map_or(0, |r| r.conflicts);
    }

    /// Adds another summary's totals into this one (sums, maxima, lists).
    pub fn add(&mut self, other: &Self) {
        for (k, v) in &other.busy_us {
            *self.busy_us.entry(k.clone()).or_default() += v;
        }
        for (k, v) in &other.span_count {
            *self.span_count.entry(k.clone()).or_default() += v;
        }
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
        self.solve_max_us = self.solve_max_us.max(other.solve_max_us);
        self.rungs_solved += other.rungs_solved;
        self.rungs_skipped += other.rungs_skipped;
        self.rungs_cancelled += other.rungs_cancelled;
        self.useful_conflicts += other.useful_conflicts;
        self.rung_conflicts += other.rung_conflicts;
        self.vars_max = self.vars_max.max(other.vars_max);
        self.clauses_max = self.clauses_max.max(other.clauses_max);
        self.clauses_total += other.clauses_total;
        self.retries += other.retries;
        self.shed += other.shed;
        self.attempt_us.extend(other.attempt_us.iter().cloned());
    }

    /// A counter total (0 when never emitted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Busy seconds of a [`BUSY_SPANS`] span name.
    pub fn busy_s(&self, span: &str) -> f64 {
        self.busy_us.get(span).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Closed spans of a [`BUSY_SPANS`] name.
    pub fn calls(&self, span: &str) -> u64 {
        self.span_count.get(span).copied().unwrap_or(0)
    }
}

/// Count and total time of every phase-tree node named `name`, at any
/// depth.
fn phase_totals(nodes: &[PhaseNode], name: &str) -> (u64, u64) {
    nodes.iter().fold((0, 0), |(count, total), node| {
        let (c, t) = phase_totals(&node.children, name);
        let (own_c, own_t) = if node.name == name {
            (node.count, node.total_us)
        } else {
            (0, 0)
        };
        (count + c + own_c, total + t + own_t)
    })
}
