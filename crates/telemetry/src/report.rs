//! Rolling a raw event stream up into a [`RunReport`].
//!
//! The report is the *stable*, versioned artifact `mmsynth --report-json`
//! writes: a per-phase timing tree (spans nested per emitting thread),
//! counter totals, and one summary row per portfolio rung. Aggregates are
//! deterministic functions of the event *multiset* — phases, counters, and
//! rungs are sorted by name/budget, never by arrival order — so reports from
//! different thread interleavings of the same run compare equal wherever the
//! underlying work was the same.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::event::{attr, Event, EventKind};

/// Version of the [`RunReport`] JSON schema. Bump on incompatible change.
pub const REPORT_SCHEMA_VERSION: u64 = 1;

/// Aggregated view of one run, built from its telemetry events.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Schema version; always [`REPORT_SCHEMA_VERSION`] for reports built by
    /// this crate.
    pub schema_version: u64,
    /// Number of events consumed.
    pub n_events: u64,
    /// Roots of the per-phase timing tree, sorted by name (recursively).
    pub phases: Vec<PhaseNode>,
    /// Counter totals, sorted by name.
    pub counters: Vec<CounterTotal>,
    /// One row per `rung` point event, sorted by budget then outcome.
    pub rungs: Vec<RungSummary>,
}

/// One node of the phase timing tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseNode {
    /// Span name (e.g. `"synth"`, `"encode"`).
    pub name: String,
    /// How many spans with this name closed at this tree position.
    pub count: u64,
    /// Total wall time across those spans, microseconds.
    pub total_us: u64,
    /// Child phases, sorted by name.
    pub children: Vec<PhaseNode>,
}

/// Total of one named counter across the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterTotal {
    /// Counter name.
    pub name: String,
    /// Sum of all deltas.
    pub total: u64,
}

/// Summary of one portfolio rung, decoded from a `rung` point event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RungSummary {
    /// R-op budget of the rung.
    pub n_rops: u64,
    /// Leg budget of the rung.
    pub n_legs: u64,
    /// V-step budget of the rung.
    pub n_vsteps: u64,
    /// Outcome: `sat`, `unsat`, `unknown`, `skipped`, or `panicked`.
    pub outcome: String,
    /// Label of the worker thread that ran the rung.
    pub worker: String,
    /// Solver conflicts spent on the rung.
    pub conflicts: u64,
    /// CNF variable count of the rung's encoding.
    pub vars: u64,
    /// CNF clause count of the rung's encoding.
    pub clauses: u64,
    /// Wall time of the rung's synthesis call, microseconds.
    pub time_us: u64,
    /// Whether the rung's answer carried a checked certificate.
    pub certified: bool,
    /// Whether the lattice cancelled the rung: before launch (`skipped`)
    /// or mid-solve (`unknown`), because a cheaper SAT or a costlier
    /// UNSAT already settled it. An `unknown` rung without this flag
    /// gave up on its own budget.
    pub cancelled: bool,
}

/// Mutable tree node used during aggregation.
struct Node {
    name: String,
    count: u64,
    total_us: u64,
    children: Vec<Node>,
}

impl Node {
    fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            count: 0,
            total_us: 0,
            children: Vec::new(),
        }
    }

    fn into_phase(mut self) -> PhaseNode {
        self.children.sort_by(|a, b| a.name.cmp(&b.name));
        PhaseNode {
            name: self.name,
            count: self.count,
            total_us: self.total_us,
            children: self.children.into_iter().map(Node::into_phase).collect(),
        }
    }
}

/// Index path into the forest: each element selects a child at that depth.
type NodePath = Vec<usize>;

fn find_or_create(forest: &mut Vec<Node>, path: &[usize], name: &str) -> usize {
    let children = path.iter().fold(forest, |nodes, &i| &mut nodes[i].children);
    if let Some(i) = children.iter().position(|n| n.name == name) {
        i
    } else {
        children.push(Node::new(name));
        children.len() - 1
    }
}

fn node_mut<'a>(forest: &'a mut [Node], path: &[usize]) -> &'a mut Node {
    let (&first, rest) = path.split_first().expect("non-empty node path");
    rest.iter()
        .fold(&mut forest[first], |node, &i| &mut node.children[i])
}

/// An open span on some thread's stack.
struct OpenSpan {
    id: u64,
    path: NodePath,
    opened_us: u64,
}

impl RunReport {
    /// Builds a report from events (any order; sorted internally by `seq`).
    pub fn from_events(events: &[Event]) -> RunReport {
        let mut ordered: Vec<&Event> = events.iter().collect();
        ordered.sort_by_key(|e| e.seq);

        let mut forest: Vec<Node> = Vec::new();
        let mut stacks: HashMap<&str, Vec<OpenSpan>> = HashMap::new();
        let mut counters: HashMap<&str, u64> = HashMap::new();
        let mut rungs: Vec<RungSummary> = Vec::new();
        let mut last_us = 0u64;

        for event in &ordered {
            last_us = last_us.max(event.t_us);
            match &event.kind {
                EventKind::SpanOpen { id, name, .. } => {
                    let stack = stacks.entry(event.thread.as_str()).or_default();
                    let parent: NodePath = stack.last().map(|s| s.path.clone()).unwrap_or_default();
                    let child = find_or_create(&mut forest, &parent, name);
                    let mut path = parent;
                    path.push(child);
                    stack.push(OpenSpan {
                        id: *id,
                        path,
                        opened_us: event.t_us,
                    });
                }
                EventKind::SpanClose { id } => {
                    let stack = stacks.entry(event.thread.as_str()).or_default();
                    if let Some(pos) = stack.iter().rposition(|s| s.id == *id) {
                        // Anything opened above the closing span is closed
                        // implicitly at the same timestamp.
                        for open in stack.drain(pos..).rev() {
                            let node = node_mut(&mut forest, &open.path);
                            node.count += 1;
                            node.total_us += event.t_us.saturating_sub(open.opened_us);
                        }
                    }
                }
                EventKind::Counter { name, delta } => {
                    *counters.entry(name.as_str()).or_default() += delta;
                }
                EventKind::Point { name, attrs } => {
                    if name == "rung" {
                        rungs.push(rung_from_attrs(attrs));
                    }
                }
            }
        }

        // Close anything left open at the last observed timestamp.
        for (_, stack) in stacks {
            for open in stack.into_iter().rev() {
                let node = node_mut(&mut forest, &open.path);
                node.count += 1;
                node.total_us += last_us.saturating_sub(open.opened_us);
            }
        }

        forest.sort_by(|a, b| a.name.cmp(&b.name));
        let mut counters: Vec<CounterTotal> = counters
            .into_iter()
            .map(|(name, total)| CounterTotal {
                name: name.to_string(),
                total,
            })
            .collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        rungs.sort_by(|a, b| {
            (a.n_rops, a.n_legs, a.n_vsteps, &a.outcome)
                .cmp(&(b.n_rops, b.n_legs, b.n_vsteps, &b.outcome))
        });

        RunReport {
            schema_version: REPORT_SCHEMA_VERSION,
            n_events: ordered.len() as u64,
            phases: forest.into_iter().map(Node::into_phase).collect(),
            counters,
            rungs,
        }
    }

    /// Builds a report from JSONL trace text (one [`Event`] per line).
    pub fn from_jsonl(text: &str) -> Result<RunReport, String> {
        let mut events = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let event: Event = serde_json::from_str(line)
                .map_err(|e| format!("trace line {}: {e}", lineno + 1))?;
            events.push(event);
        }
        Ok(RunReport::from_events(&events))
    }

    /// Looks up a phase node by path from the roots, e.g. `["synth", "solve"]`.
    pub fn phase(&self, path: &[&str]) -> Option<&PhaseNode> {
        let (&first, rest) = path.split_first()?;
        let mut node = self.phases.iter().find(|n| n.name == first)?;
        for &name in rest {
            node = node.children.iter().find(|n| n.name == name)?;
        }
        Some(node)
    }

    /// Total of a named counter, or 0 if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.total)
    }
}

fn rung_from_attrs(attrs: &[(String, crate::event::AttrValue)]) -> RungSummary {
    let get_u64 = |k: &str| attr(attrs, k).and_then(|v| v.as_u64()).unwrap_or(0);
    let get_str = |k: &str| {
        attr(attrs, k)
            .and_then(|v| v.as_str())
            .unwrap_or("")
            .to_string()
    };
    RungSummary {
        n_rops: get_u64("n_rops"),
        n_legs: get_u64("n_legs"),
        n_vsteps: get_u64("n_vsteps"),
        outcome: get_str("outcome"),
        worker: get_str("worker"),
        conflicts: get_u64("conflicts"),
        vars: get_u64("vars"),
        clauses: get_u64("clauses"),
        time_us: get_u64("time_us"),
        certified: attr(attrs, "certified")
            .and_then(|v| v.as_bool())
            .unwrap_or(false),
        cancelled: attr(attrs, "cancelled")
            .and_then(|v| v.as_bool())
            .unwrap_or(false),
    }
}
