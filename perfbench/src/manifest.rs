//! The benchmark's workload definitions, reference answers and per-layer
//! metric attribution, read from `manifest.json` (compiled in).
//!
//! The manifest is the single source of truth for what each workload runs
//! (suite, `jobs`, daemon shape, engine) and for the layer, end-to-end
//! metric and workload every per-layer metric is attributed to, so a
//! regression report can name the layer without editing any script.

use mm_boolfn::{generators, MultiOutputFn};
use serde::Deserialize;

/// The manifest text, compiled into the binary.
pub const MANIFEST_JSON: &str = include_str!("../manifest.json");

/// A circuit cost triple `(N_R, N_L, N_VS)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize)]
pub struct Optimum {
    /// R-ops.
    pub n_rops: usize,
    /// V-legs.
    pub n_legs: usize,
    /// V-steps per leg.
    pub n_vsteps: usize,
}

impl std::fmt::Display for Optimum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "(N_R={}, N_L={}, N_VS={})",
            self.n_rops, self.n_legs, self.n_vsteps
        )
    }
}

/// The expected optimum of one named function.
#[derive(Debug, Clone, Deserialize)]
pub struct NamedOptimum {
    /// Function name as `mmsynth list` prints it.
    pub name: String,
    /// The proven optimum.
    pub optimum: Optimum,
    /// Where the value comes from (paper table or certified run).
    pub evidence: String,
}

/// The expected optimum of one cost-preserving NPN class of 3-input
/// functions, keyed by its canonical truth table.
#[derive(Debug, Clone, Deserialize)]
pub struct ClassOptimum {
    /// Canonical representative as a truth-table bitstring.
    pub table: String,
    /// The proven optimum.
    pub optimum: Optimum,
    /// Classes sharing a stratum have similar cold-solve cost; the seeded
    /// cache prefill takes exactly one class of each stratum, so the miss
    /// work of a `service` pass barely depends on the seed. A class with no
    /// close partner in cost (among them the two costly ones) is a stratum
    /// of its own and therefore always prefilled.
    pub stratum: usize,
    /// Cold canonical solve time measured when the strata were derived.
    pub cold_solve_ms: f64,
}

/// The ladder shape every request of every workload uses (the
/// `mmsynth minimize` defaults).
#[derive(Debug, Clone, Copy, Deserialize)]
pub struct LadderShape {
    /// Largest R-op budget probed.
    pub max_rops: usize,
    /// Largest V-step budget probed.
    pub max_vsteps: usize,
}

/// One workload: what it runs and why.
#[derive(Debug, Clone, Deserialize)]
pub struct WorkloadSpec {
    /// Workload name (`--workload`).
    pub name: String,
    /// One-sentence reason the workload exists.
    pub why: String,
    /// The shipping entry point the workload drives.
    pub entry: String,
    /// `warm` (incremental shared base) or `cold` (per-rung encodings).
    pub engine: String,
    /// Named functions solved per pass (batch workloads), or a description
    /// of the request generator (`service`).
    pub suite: Vec<String>,
    /// What `--seed` decides.
    pub seed_use: String,
    /// Portfolio width per minimize call.
    pub jobs: usize,
    /// Whether UNSAT rungs are DRAT-checked and SAT witnesses
    /// device-verified by the program itself.
    pub certify: bool,
    /// Daemon workers (`service` only, else 0).
    pub workers: usize,
    /// Closed-loop client window: requests outstanding at once
    /// (`service` only, else 0).
    pub window: usize,
    /// Requests per pass (`service` only, else 0).
    pub requests_per_pass: usize,
    /// Measured seconds one pass takes on the reference machine; the
    /// number of passes in a run is `--seconds` divided by this.
    pub nominal_pass_s: f64,
    /// Layers the workload is predicted to exercise.
    pub exercises: Vec<String>,
    /// Layers the workload is predicted to bypass.
    pub bypasses: Vec<String>,
}

/// Attribution of one per-layer metric.
#[derive(Debug, Clone, Deserialize)]
pub struct LayerMetric {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// The program layer (module) the metric measures.
    pub layer: String,
    /// End-to-end metrics the layer metric should move.
    pub moves: Vec<String>,
    /// Workloads on which it should move them.
    pub on: Vec<String>,
    /// Workloads on which it is predicted flat (or absent).
    pub flat_on: Vec<String>,
    /// How the value is obtained.
    pub source: String,
}

/// The whole manifest.
#[derive(Debug, Clone, Deserialize)]
pub struct Manifest {
    /// Ladder shape shared by every workload.
    pub ladder: LadderShape,
    /// Reference optima of the batch functions.
    pub functions: Vec<NamedOptimum>,
    /// Reference optima of the 3-input classes.
    pub classes: Vec<ClassOptimum>,
    /// Workload definitions.
    pub workloads: Vec<WorkloadSpec>,
    /// Per-layer metric attribution, in print order.
    pub layer_metrics: Vec<LayerMetric>,
}

impl Manifest {
    /// Parses the compiled-in manifest.
    ///
    /// # Panics
    ///
    /// Panics if the compiled-in text is malformed (a build defect the
    /// self-test catches).
    pub fn load() -> Self {
        serde_json::from_str(MANIFEST_JSON).expect("manifest.json parses")
    }

    /// The workload named `name`.
    pub fn workload(&self, name: &str) -> Option<&WorkloadSpec> {
        self.workloads.iter().find(|w| w.name == name)
    }

    /// The reference optimum of the named function.
    pub fn function_optimum(&self, name: &str) -> Option<Optimum> {
        self.functions
            .iter()
            .find(|f| f.name == name)
            .map(|f| f.optimum)
    }
}

/// Builds a named benchmark function, with the names `mmsynth minimize
/// --function` accepts.
pub fn named_function(name: &str) -> Option<MultiOutputFn> {
    Some(match name {
        "adder1" => generators::ripple_adder(1),
        "xor3" => generators::xor_gate(3),
        "cmp2" => generators::comparator(2),
        "mux21" => generators::mux21(),
        _ => return None,
    })
}
