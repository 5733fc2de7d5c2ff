//! Serializable minimization jobs: the shared entry point behind the
//! `mmsynth minimize` CLI, the `mmsynthd` service, and the result cache.
//!
//! A [`MinimizeRequest`] captures *everything that determines a
//! minimization verdict* — the ladder shape and the per-call solver budget
//! — in a serde-able value, so the CLI and the daemon dispatch through one
//! code path and a cache key can be derived from the request alone.
//!
//! # Canonical solving
//!
//! [`minimize_canonical`] is the cache-aware entry point: it canonicalizes
//! the function under the cost-preserving NPN subgroup
//! ([`mm_boolfn::npn::canonicalize`]), minimizes the *canonical
//! representative*, and returns the transform alongside the report. Callers
//! serve the original function by mapping the canonical circuit back
//! through [`decanonicalize_circuit`] — a literal relabeling plus an output
//! reorder, which preserves every cost metric (`N_R`, `N_V`, `N_L`,
//! `N_VS`). Because the solver only ever sees canonical representatives,
//! a cache hit replays *exactly* the bytes a cold solve of the same
//! request would produce: both paths decanonicalize the same stored
//! canonical result.

use std::time::Duration;

use mm_boolfn::npn::{canonicalize, NpnTransform};
use mm_boolfn::MultiOutputFn;
use mm_circuit::{CircuitError, MmCircuit};
use mm_sat::{Budget, Deadline};

use crate::optimize::{parallel, OptimizeReport};
use crate::{EncodeOptions, SynthError, Synthesizer};

/// Which minimization ladder a request runs.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum MinimizeMode {
    /// The R-only ladder `N_R = 1..=max_rops` (paper baseline).
    ROnly {
        /// Largest R-op budget probed.
        max_rops: usize,
    },
    /// The two-phase mixed-mode ladder: minimal `N_R` at the full V-step
    /// budget, then minimal `N_VS` at that `N_R`.
    MixedMode {
        /// Largest R-op budget probed.
        max_rops: usize,
        /// Largest steps-per-leg budget probed.
        max_vsteps: usize,
        /// Whether the leg heuristic should use the adder shape.
        is_adder: bool,
    },
}

/// A complete minimization job description, shared by the CLI and the
/// service and stable under serde round-trips.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MinimizeRequest {
    /// Ladder shape and budgets.
    pub mode: MinimizeMode,
    /// Per-call conflict limit (`None` = unlimited). Conflict limits keep
    /// portfolio verdicts deterministic across worker counts.
    pub max_conflicts: Option<u64>,
    /// Wall-clock deadline for the whole run, applied relative to the
    /// moment [`run`](Self::run) starts. Deadline runs are *not*
    /// deterministic across machines or worker counts, so they are never
    /// admitted to the result cache.
    pub deadline: Option<Duration>,
    /// Whether UNSAT rungs must carry checker-accepted DRAT proofs.
    pub certify: bool,
}

impl MinimizeRequest {
    /// A mixed-mode request with no resource limits.
    pub fn mixed_mode(max_rops: usize, max_vsteps: usize, is_adder: bool) -> Self {
        Self {
            mode: MinimizeMode::MixedMode {
                max_rops,
                max_vsteps,
                is_adder,
            },
            max_conflicts: None,
            deadline: None,
            certify: false,
        }
    }

    /// An R-only request with no resource limits.
    pub fn r_only(max_rops: usize) -> Self {
        Self {
            mode: MinimizeMode::ROnly { max_rops },
            max_conflicts: None,
            deadline: None,
            certify: false,
        }
    }

    /// Whether this request's verdict is a pure function of the request —
    /// i.e. no wall-clock deadline can change what the solver concludes.
    /// Only deterministic requests may populate the result cache.
    pub fn is_deterministic(&self) -> bool {
        self.deadline.is_none()
    }

    /// The key-relevant part of the request: the fields that determine the
    /// verdict of a *completed* run. `deadline` is excluded — it can only
    /// turn an answer into `Unknown`, never change a conclusive one — and
    /// `certify` is excluded because certification never changes verdicts,
    /// only whether proofs are retained.
    pub fn cache_facet(&self) -> (MinimizeMode, Option<u64>) {
        (self.mode.clone(), self.max_conflicts)
    }

    /// The solver budget the request implies, with the deadline anchored
    /// at "now".
    pub fn budget(&self) -> Option<Budget> {
        let mut budget = self
            .max_conflicts
            .map(|c| Budget::new().with_max_conflicts(c));
        if let Some(d) = self.deadline {
            budget = Some(budget.unwrap_or_default().with_deadline(Deadline::after(d)));
        }
        budget
    }

    /// Runs the request's ladder on `f` with `jobs` portfolio workers.
    ///
    /// The synthesizer's certification flag and budget are overridden by
    /// the request; its telemetry handle is kept.
    ///
    /// # Errors
    ///
    /// Propagates [`SynthError`] from spec construction or synthesis.
    pub fn run(
        &self,
        synth: &Synthesizer,
        f: &MultiOutputFn,
        options: &EncodeOptions,
        jobs: usize,
    ) -> Result<OptimizeReport, SynthError> {
        let mut synth = synth.clone().with_certification(self.certify);
        if let Some(budget) = self.budget() {
            synth = synth.with_budget(budget);
        }
        match self.mode {
            MinimizeMode::ROnly { max_rops } => {
                parallel::minimize_r_only(&synth, f, max_rops, options, jobs)
            }
            MinimizeMode::MixedMode {
                max_rops,
                max_vsteps,
                is_adder,
            } => parallel::minimize_mixed_mode(
                &synth, f, max_rops, max_vsteps, is_adder, options, jobs,
            ),
        }
    }
}

/// The outcome of a canonical minimization: the report is about the
/// *canonical representative*; `transform` maps the original function onto
/// it (`canonical = transform.apply(original)`).
#[derive(Debug)]
pub struct CanonicalRun {
    /// The canonical representative that was actually solved.
    pub canonical: MultiOutputFn,
    /// The subgroup element with `canonical = transform.apply(original)`.
    pub transform: NpnTransform,
    /// The minimization report for `canonical`.
    pub report: OptimizeReport,
}

/// Cache-aware minimization: canonicalizes `f` under the cost-preserving
/// NPN subgroup, minimizes the canonical representative, and returns the
/// transform needed to map results back. Serving paths call
/// [`decanonicalize_circuit`] on `report.best`.
///
/// # Errors
///
/// Propagates [`SynthError`] from the underlying ladder.
pub fn minimize_canonical(
    request: &MinimizeRequest,
    synth: &Synthesizer,
    f: &MultiOutputFn,
    options: &EncodeOptions,
    jobs: usize,
) -> Result<CanonicalRun, SynthError> {
    let (canonical, transform) = canonicalize(f);
    let report = request.run(synth, &canonical, options, jobs)?;
    Ok(CanonicalRun {
        canonical,
        transform,
        report,
    })
}

/// Maps a circuit for the canonical representative back to one for the
/// original function: with `canonical = transform.apply(original)`, relabel
/// every literal and reorder the outputs through `transform.inverse()`.
/// Cost metrics are preserved exactly — the subgroup excludes output
/// complementation precisely so this holds.
///
/// # Errors
///
/// Propagates [`CircuitError`] from circuit reconstruction (impossible for
/// circuits produced by the synthesizer, which are structurally valid).
pub fn decanonicalize_circuit(
    circuit: &MmCircuit,
    transform: &NpnTransform,
) -> Result<MmCircuit, CircuitError> {
    let inv = transform.inverse();
    Ok(circuit
        .map_literals(|l| inv.map_literal(l))?
        .reorder_outputs(inv.output_perm()))
}

#[cfg(test)]
mod tests {
    use mm_boolfn::generators;

    use super::*;

    #[test]
    fn request_roundtrips_through_serde() {
        let req = MinimizeRequest {
            mode: MinimizeMode::MixedMode {
                max_rops: 3,
                max_vsteps: 4,
                is_adder: true,
            },
            max_conflicts: Some(10_000),
            deadline: Some(Duration::from_millis(1500)),
            certify: true,
        };
        let value = serde::Serialize::to_value(&req);
        let back: MinimizeRequest = serde::Deserialize::from_value(&value).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn deadline_requests_are_not_deterministic() {
        let mut req = MinimizeRequest::r_only(4);
        assert!(req.is_deterministic());
        req.deadline = Some(Duration::from_secs(1));
        assert!(!req.is_deterministic());
        // But the deadline is not part of the cache facet either way.
        let plain = MinimizeRequest::r_only(4);
        assert_eq!(req.cache_facet(), plain.cache_facet());
    }

    #[test]
    fn run_matches_direct_parallel_dispatch() {
        let f = generators::xor_gate(2);
        let opts = EncodeOptions::recommended();
        let synth = Synthesizer::new();
        let req = MinimizeRequest::r_only(5);
        let via_request = req.run(&synth, &f, &opts, 2).unwrap();
        let direct = parallel::minimize_r_only(&synth, &f, 5, &opts, 2).unwrap();
        assert_eq!(via_request.proven_optimal, direct.proven_optimal);
        assert_eq!(
            via_request.best.map(|c| c.metrics().n_rops),
            direct.best.map(|c| c.metrics().n_rops),
        );
    }

    #[test]
    fn canonical_run_decanonicalizes_to_the_original_function() {
        // A non-canonical function: NAND's canonical representative is a
        // different table, so the transform is non-trivial. (Kept to
        // 2-input functions — the canonical representative of a harder
        // function can land in a much slower solver region.)
        for f in [generators::nand_gate(2), generators::xor_gate(2)] {
            let req = MinimizeRequest::mixed_mode(4, 3, false);
            let run = minimize_canonical(
                &req,
                &Synthesizer::new(),
                &f,
                &EncodeOptions::recommended(),
                2,
            )
            .unwrap();
            assert_eq!(run.canonical, run.transform.apply(&f));
            let canonical_best = run.report.best.expect("ladder finds a witness");
            let served = decanonicalize_circuit(&canonical_best, &run.transform).unwrap();
            assert!(
                served.implements(&f),
                "decanonicalized circuit serves {f:?}"
            );
            // The subgroup is cost-preserving: identical metrics.
            assert_eq!(served.metrics(), canonical_best.metrics());
        }
    }
}
