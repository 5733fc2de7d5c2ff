//! End-to-end scenario fuzzing of the synthesis pipeline.
//!
//! A [`FuzzScenario`] is a small, serializable description of one complete
//! exercise of the stack: a randomized target function, ladder budgets,
//! solver budget (conflict-limited, unlimited, or an already-expired
//! deadline), certification, job counts, cell-avoidance masks, an electrical
//! sweep corner, an optional [`FaultPlan`] with campaign trials, and an
//! optional repair pass. [`run_scenario`] drives the scenario through
//! synthesize → certify → device-verify → fault campaign →
//! repair, checking cross-cutting invariants at every stage:
//!
//! * **Jobs invariance** — the portfolio reports the same best circuit
//!   and `proven_optimal` for every job count (the lattice argument in
//!   `optimize::parallel`).
//! * **Inprocessing invariance** — disabling solver inprocessing (the
//!   `--no-inprocess` regime) never changes a verdict or `proven_optimal`.
//! * **Degraded honesty** — `proven_optimal` is never claimed on a degraded
//!   run, and cancelled solves never carry proofs or certification.
//! * **Certified proofs re-check** — every archived DRAT proof refutes its
//!   rung's own cold DIMACS export.
//! * **Device ground truth** — decoded circuits re-execute correctly on the
//!   device model, placements avoid dead cells, healthy campaign controls
//!   never fail, campaigns are bit-for-bit reproducible, and successful
//!   repairs end with a clean report.
//!
//! Every random draw derives from the scenario's root seed through
//! [`mm_device::seeds`], so a scenario (and a whole [`run_fuzz`] sweep) is
//! bit-for-bit reproducible from `--seed`. Failing scenarios are shrunk with
//! the vendored [`proptest::shrink`] primitives and archived as replayable
//! JSON under `tests/corpus/` (see [`Corpus`]).

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use mm_boolfn::{MultiOutputFn, TruthTable};
use mm_circuit::campaign::{run_campaign, CampaignConfig};
use mm_circuit::{FaultPlan, Schedule};
use mm_device::seeds;
use mm_sat::{Budget, Deadline};
use proptest::shrink::Shrink;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::optimize::parallel;
use crate::optimize::{OptimizeReport, OptimizeStatus, SynthResultKind};
use crate::repair::{synthesize_with_repair, RepairConfig};
use crate::{EncodeOptions, SynthResult, SynthSpec, Synthesizer};

/// Version stamp of the corpus JSON layout.
pub const CORPUS_SCHEMA_VERSION: u64 = 1;

/// Substream tag for per-scenario campaign seeds.
const STREAM_CAMPAIGN: u64 = 0x5eed_ca30;

/// One complete randomized exercise of the synthesis pipeline.
///
/// Scenarios are plain data: serializable (the corpus format), comparable,
/// and shrinkable. All behavior lives in [`run_scenario`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuzzScenario {
    /// Human-readable identifier (also the corpus file stem).
    pub name: String,
    /// Root seed; every RNG stream in the scenario derives from it.
    pub seed: u64,
    /// Target function outputs as truth-table bitstrings (MSB-first, the
    /// `TruthTable::from_bitstring` format). All outputs share an input
    /// count.
    pub outputs: Vec<String>,
    /// Top of the R-op ladder.
    pub max_rops: usize,
    /// Top of the V-step ladder; `0` selects the R-only ladder.
    pub max_vsteps: usize,
    /// Per-call conflict limit; `None` is unlimited.
    pub max_conflicts: Option<u64>,
    /// Run every solve under an already-expired deadline (the deterministic
    /// way to exercise the degraded path: every call reports `Unknown`).
    pub zero_deadline: bool,
    /// Run a certified (cold, DRAT-checked) ladder as well.
    pub certify: bool,
    /// Portfolio widths the cold ladder must agree across.
    pub jobs: Vec<usize>,
    /// Physical array size used for placement, campaigns, and repair.
    pub array_size: usize,
    /// Dead cells the placement must avoid (mixed-mode scenarios only).
    pub avoid_cells: Vec<usize>,
    /// Electrical sweep corner index (see
    /// [`mm_device::arbitrary::params_corner`]).
    pub params_corner: u8,
    /// Optional fault environment for the campaign/repair stages.
    pub fault_plan: Option<FaultPlan>,
    /// Campaign trials per plan.
    pub campaign_trials: u32,
    /// Run the diagnose → avoid → resynthesize repair loop.
    pub repair: bool,
    /// Run solves with solver inprocessing (subsumption, vivification)
    /// enabled. Mirrors the `--no-inprocess`
    /// CLI knob; verdicts must be identical either way, which unlimited
    /// scenarios check differentially.
    pub inprocess: bool,
}

impl FuzzScenario {
    /// Generates scenario `index` of the sweep rooted at `root_seed`.
    ///
    /// Pure function of its arguments: the scenario draws everything from
    /// [`seeds::split`]`(root_seed, index)`.
    pub fn generate(root_seed: u64, index: u64) -> Self {
        let scenario_seed = seeds::split(root_seed, index);
        let mut rng = SmallRng::seed_from_u64(scenario_seed);

        let n_inputs: u8 = if rng.gen_range(0u8..10) < 6 { 2 } else { 3 };
        let n_outputs: usize = if rng.gen_range(0u8..10) < 7 { 1 } else { 2 };
        let f = mm_boolfn::arbitrary::multi_output(&mut rng, "fuzz", n_inputs, n_outputs);
        let outputs = f.outputs().iter().map(TruthTable::to_bitstring).collect();

        let (max_rops, max_vsteps) = if rng.gen_range(0u8..10) < 3 {
            (rng.gen_range(2usize..=4), 0)
        } else {
            (rng.gen_range(1usize..=2), rng.gen_range(2usize..=3))
        };

        let (max_conflicts, zero_deadline) = match rng.gen_range(0u8..10) {
            0..=5 => (None, false),
            6..=8 => (Some(rng.gen_range(200u64..=5_000)), false),
            _ => (None, true),
        };

        let jobs = match rng.gen_range(0u8..4) {
            0 => vec![1],
            1 => vec![2],
            2 => vec![4],
            _ => vec![1, 2, 8],
        };

        let array_size = if rng.gen::<bool>() { 16 } else { 24 };
        let avoid_cells = if max_vsteps > 0 && rng.gen_range(0u8..4) == 0 {
            let n = rng.gen_range(1usize..=2);
            let mut cells: Vec<usize> = (0..n).map(|_| rng.gen_range(0usize..4)).collect();
            cells.sort_unstable();
            cells.dedup();
            cells
        } else {
            Vec::new()
        };

        let params_corner = rng.gen_range(0u8..4);
        let fault_plan = if rng.gen_range(0u8..10) < 4 {
            Some(mm_device::arbitrary::fault_plan(&mut rng, array_size, 16))
        } else {
            None
        };
        let campaign_trials = rng.gen_range(2u32..=4);
        let unlimited = max_conflicts.is_none() && !zero_deadline;
        let repair =
            fault_plan.is_some() && unlimited && max_vsteps > 0 && rng.gen_range(0u8..10) < 3;

        Self {
            name: format!("fuzz-{root_seed:x}-{index}"),
            seed: scenario_seed,
            outputs,
            max_rops,
            max_vsteps,
            max_conflicts,
            zero_deadline,
            certify: rng.gen_range(0u8..10) < 3,
            jobs,
            array_size,
            avoid_cells,
            params_corner,
            fault_plan,
            campaign_trials,
            repair,
            inprocess: rng.gen_range(0u8..10) < 7,
        }
    }

    /// Reconstructs the target function from the stored bitstrings.
    pub fn function(&self) -> Result<MultiOutputFn, String> {
        let tables = self
            .outputs
            .iter()
            .map(|s| TruthTable::from_bitstring(s).map_err(|e| format!("bad bitstring {s:?}: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        MultiOutputFn::new(self.name.clone(), tables).map_err(|e| format!("bad outputs: {e}"))
    }

    /// The per-call solver budget this scenario runs under, if any.
    pub fn budget(&self) -> Option<Budget> {
        let mut budget = self
            .max_conflicts
            .map(|c| Budget::new().with_max_conflicts(c));
        if self.zero_deadline {
            let deadline = Deadline::after(Duration::ZERO);
            budget = Some(budget.unwrap_or_default().with_deadline(deadline));
        }
        if !self.inprocess {
            budget = Some(budget.unwrap_or_default().with_inprocess(false));
        }
        budget
    }

    /// True when every solve runs to completion (no conflict cap, no
    /// deadline) — the regime where the verdicts of every configuration
    /// (jobs, inprocessing, certification) are forced to agree.
    pub fn unlimited(&self) -> bool {
        self.max_conflicts.is_none() && !self.zero_deadline
    }
}

impl Shrink for FuzzScenario {
    fn shrink_candidates(&self) -> Vec<Self> {
        let mut out = Vec::new();
        let push = |out: &mut Vec<Self>, f: &dyn Fn(&mut Self)| {
            let mut s = self.clone();
            f(&mut s);
            out.push(s);
        };
        // Cheapest structural simplifications first.
        if self.fault_plan.is_some() {
            push(&mut out, &|s| {
                s.fault_plan = None;
                s.repair = false;
            });
        }
        if self.repair {
            push(&mut out, &|s| s.repair = false);
        }
        if self.certify {
            push(&mut out, &|s| s.certify = false);
        }
        if !self.inprocess {
            // Toward the default: a reproducer that needs inprocessing
            // *off* is the unusual one worth keeping flagged.
            push(&mut out, &|s| s.inprocess = true);
        }
        if !self.avoid_cells.is_empty() {
            push(&mut out, &|s| s.avoid_cells.clear());
        }
        if self.jobs.len() > 1 {
            push(&mut out, &|s| s.jobs.truncate(1));
        }
        if let Some(plan) = &self.fault_plan {
            for cand in plan.shrink_candidates() {
                let mut s = self.clone();
                s.fault_plan = Some(cand);
                out.push(s);
            }
        }
        // Function shrinks: drop an output, then clear minterms.
        if self.outputs.len() > 1 {
            for i in 0..self.outputs.len() {
                let mut s = self.clone();
                s.outputs.remove(i);
                out.push(s);
            }
        }
        for (i, bits) in self.outputs.iter().enumerate() {
            let Ok(table) = TruthTable::from_bitstring(bits) else {
                continue;
            };
            for cand in table.shrink_candidates() {
                let mut s = self.clone();
                s.outputs[i] = cand.to_bitstring();
                out.push(s);
            }
        }
        out
    }
}

/// A failed cross-cutting invariant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// Name of the scenario that failed.
    pub scenario: String,
    /// Stable invariant identifier (e.g. `jobs-invariance`).
    pub invariant: String,
    /// Human-readable failure description.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.scenario, self.invariant, self.detail)
    }
}

/// Outcome of running one scenario through the pipeline.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Name of the scenario.
    pub name: String,
    /// Verdict-level digest of the run; equal across replays of the same
    /// scenario (the replay-determinism contract).
    pub fingerprint: String,
    /// Whether the cold ladder degraded (deadline/budget).
    pub degraded: bool,
    /// Invariant violations found, empty on a healthy run.
    pub violations: Vec<Violation>,
}

/// Knobs for [`run_scenario`]/[`run_fuzz`].
#[derive(Debug, Clone, Default)]
pub struct FuzzConfig {
    /// Deliberately violate an (artificial) invariant on scenarios whose
    /// target function has at least two minterms set, to prove the
    /// catch → shrink → archive path end to end.
    pub inject_violation: bool,
}

/// Verdict-level fingerprint of an optimize report.
fn fingerprint_of(report: &OptimizeReport) -> String {
    let best = report
        .best
        .as_ref()
        .map(|c| {
            let m = c.metrics();
            format!("R{}L{}S{}", m.n_rops, m.n_legs, m.n_vsteps)
        })
        .unwrap_or_else(|| "none".to_string());
    let status = match &report.status {
        OptimizeStatus::Complete => "complete".to_string(),
        OptimizeStatus::Degraded { reason } => format!("degraded({reason})"),
    };
    format!("best={best};proven={};{status}", report.proven_optimal)
}

/// Runs one scenario end to end, collecting invariant violations.
///
/// `Err` means the scenario could not be executed at all (a malformed
/// hand-written corpus case, or a pipeline error that generated scenarios
/// can never trigger); [`run_fuzz`] treats that as a violation too.
pub fn run_scenario(sc: &FuzzScenario, cfg: &FuzzConfig) -> Result<ScenarioReport, String> {
    let f = sc.function()?;
    let mut violations: Vec<Violation> = Vec::new();

    // The injected violation short-circuits the pipeline: the shrink loop
    // re-runs the scenario per candidate, and the artificial failure is
    // about the harness, not the solver.
    if cfg.inject_violation {
        let ones: usize = f.outputs().iter().map(TruthTable::count_ones).sum();
        if ones >= 2 {
            return Ok(ScenarioReport {
                name: sc.name.clone(),
                fingerprint: format!("injected;ones={ones}"),
                degraded: false,
                violations: vec![Violation {
                    scenario: sc.name.clone(),
                    invariant: "injected".to_string(),
                    detail: format!("deliberate violation: {ones} minterms set (threshold 2)"),
                }],
            });
        }
    }

    let options = EncodeOptions::recommended();
    let make_synth = |certify: bool| {
        let mut synth = Synthesizer::new().with_certification(certify);
        if let Some(budget) = sc.budget() {
            synth = synth.with_budget(budget);
        }
        synth
    };
    let run_ladder = |synth: &Synthesizer, jobs: usize| -> Result<OptimizeReport, String> {
        let report = if sc.max_vsteps == 0 {
            parallel::minimize_r_only(synth, &f, sc.max_rops, &options, jobs)
        } else {
            parallel::minimize_mixed_mode(
                synth,
                &f,
                sc.max_rops,
                sc.max_vsteps,
                false,
                &options,
                jobs,
            )
        };
        report.map_err(|e| format!("ladder failed: {e}"))
    };
    let fail = |violations: &mut Vec<Violation>, invariant: &str, detail: String| {
        violations.push(Violation {
            scenario: sc.name.clone(),
            invariant: invariant.to_string(),
            detail,
        });
    };

    // Per-report invariants that hold in every regime.
    let check_internal = |report: &OptimizeReport, label: &str, violations: &mut Vec<Violation>| {
        if report.status.is_degraded() && report.proven_optimal {
            violations.push(Violation {
                scenario: sc.name.clone(),
                invariant: "no-proven-optimal-when-degraded".to_string(),
                detail: format!("{label}: degraded run claims proven_optimal"),
            });
        }
        for call in &report.calls {
            let rung = format!(
                "{label} rung (R{},L{},VS{})",
                call.n_rops, call.n_legs, call.n_vsteps
            );
            match call.result {
                SynthResultKind::Unknown => {
                    if call.certified || call.proof.is_some() {
                        violations.push(Violation {
                            scenario: sc.name.clone(),
                            invariant: "no-proof-on-cancelled-solve".to_string(),
                            detail: format!("{rung}: unknown verdict carries proof/certification"),
                        });
                    }
                }
                SynthResultKind::Realizable => {
                    if call.proof.is_some() {
                        violations.push(Violation {
                            scenario: sc.name.clone(),
                            invariant: "no-proof-on-sat".to_string(),
                            detail: format!("{rung}: SAT verdict carries a refutation proof"),
                        });
                    }
                }
                SynthResultKind::Unrealizable => {}
            }
        }
    };

    // ── Stage 1: cold portfolio, jobs invariance ─────────────────────────
    let mut cold_report: Option<OptimizeReport> = None;
    let mut cold_fp = String::new();
    for &jobs in &sc.jobs {
        let report = run_ladder(&make_synth(false), jobs.max(1))?;
        check_internal(&report, &format!("cold j{jobs}"), &mut violations);
        let fp = fingerprint_of(&report);
        if cold_report.is_none() {
            cold_fp = fp;
            cold_report = Some(report);
        } else if fp != cold_fp {
            fail(
                &mut violations,
                "jobs-invariance",
                format!("cold j{jobs} reported {fp}, expected {cold_fp}"),
            );
        }
    }
    let cold_report = cold_report.ok_or("scenario has an empty jobs list")?;

    // ── Stage 2: inprocessing invariance ─────────────────────────────────
    // Inprocessing rewrites the clause database, never the verdicts: in
    // the unlimited regime, a single-worker ladder with the pass disabled
    // must land on the same fingerprint.
    if sc.inprocess && sc.unlimited() {
        let budget = sc.budget().unwrap_or_default().with_inprocess(false);
        let synth = Synthesizer::new().with_budget(budget);
        let report = run_ladder(&synth, 1)?;
        check_internal(&report, "no-inprocess", &mut violations);
        let fp = fingerprint_of(&report);
        if fp != cold_fp {
            fail(
                &mut violations,
                "inprocess-invariance",
                format!("no-inprocess ladder reported {fp}, default reported {cold_fp}"),
            );
        }
    }

    // ── Stage 3: certified ladder, proofs re-check ───────────────────────
    if sc.certify {
        let report = run_ladder(&make_synth(true), *sc.jobs.first().unwrap_or(&1))?;
        check_internal(&report, "certified", &mut violations);
        let fp = fingerprint_of(&report);
        if fp != cold_fp {
            fail(
                &mut violations,
                "certified-cold-equality",
                format!("certified ladder reported {fp}, cold reported {cold_fp}"),
            );
        }
        for call in &report.calls {
            if call.result != SynthResultKind::Unrealizable {
                continue;
            }
            let rung = format!(
                "rung (R{},L{},VS{})",
                call.n_rops, call.n_legs, call.n_vsteps
            );
            if !call.certified || call.proof.is_none() {
                fail(
                    &mut violations,
                    "unsat-must-be-certified",
                    format!("{rung}: certified run left an unchecked UNSAT"),
                );
                continue;
            }
            let spec = if call.n_vsteps == 0 && call.n_legs == 0 {
                SynthSpec::r_only(&f, call.n_rops)
            } else {
                SynthSpec::mixed_mode(&f, call.n_rops, call.n_legs, call.n_vsteps)
            };
            let spec = match spec {
                Ok(s) => s.with_options(options.clone()),
                Err(e) => {
                    fail(
                        &mut violations,
                        "proof-recheck",
                        format!("{rung}: cannot rebuild spec: {e}"),
                    );
                    continue;
                }
            };
            let recheck = Synthesizer::new()
                .export_dimacs(&spec)
                .map_err(|e| e.to_string())
                .and_then(|text| mm_sat::dimacs::parse(&text).map_err(|e| e.to_string()))
                .and_then(|cnf| {
                    mm_sat::drat::check(&cnf, call.proof.as_ref().expect("checked above"))
                        .map(|_| ())
                        .map_err(|e| e.to_string())
                });
            if let Err(e) = recheck {
                fail(
                    &mut violations,
                    "proof-recheck",
                    format!("{rung}: archived proof rejected against cold export: {e}"),
                );
            }
        }
    }

    // ── Stage 4: device ground truth for the best circuit ────────────────
    let schedule = match &cold_report.best {
        Some(best) => match Schedule::compile(best) {
            Ok(s) => {
                if !s.verify(&f) {
                    fail(
                        &mut violations,
                        "device-verify",
                        "best circuit's schedule does not implement the target".to_string(),
                    );
                }
                Some(s)
            }
            Err(e) => {
                fail(
                    &mut violations,
                    "device-verify",
                    format!("best circuit does not compile to a schedule: {e}"),
                );
                None
            }
        },
        None => None,
    };

    // ── Stage 5: cell avoidance placement ────────────────────────────────
    if !sc.avoid_cells.is_empty() && sc.max_vsteps > 0 && !sc.zero_deadline {
        let legs = SynthSpec::paper_legs(&f, sc.max_rops, false);
        let spec = SynthSpec::mixed_mode(&f, sc.max_rops, legs, sc.max_vsteps)
            .map_err(|e| format!("avoidance spec: {e}"))?
            .with_options(options.clone())
            .with_cell_avoidance(sc.array_size, sc.avoid_cells.clone());
        let outcome = make_synth(false)
            .run(&spec)
            .map_err(|e| format!("avoidance run: {e}"))?;
        if matches!(outcome.result, SynthResult::Realizable(_)) {
            match &outcome.placement {
                Some(placement) => {
                    let used = placement.used_cells();
                    if let Some(cell) = sc.avoid_cells.iter().find(|c| used.contains(c)) {
                        fail(
                            &mut violations,
                            "avoided-cell-placement",
                            format!("placement uses avoided cell {cell} (used: {used:?})"),
                        );
                    }
                    if !placement.verify(&f) {
                        fail(
                            &mut violations,
                            "avoided-placement-verify",
                            "avoiding placement no longer implements the target".to_string(),
                        );
                    }
                }
                None => fail(
                    &mut violations,
                    "avoided-cell-placement",
                    "realizable avoidance run produced no placement".to_string(),
                ),
            }
        }
    }

    // ── Stage 6: fault campaign (determinism + healthy control) ──────────
    let mut campaign_digest = String::new();
    if let (Some(schedule), Some(plan)) = (&schedule, &sc.fault_plan) {
        let placed = schedule
            .place_avoiding(sc.array_size, &[])
            .map_err(|e| format!("campaign placement: {e}"))?;
        let plans = vec![FaultPlan::named("control"), plan.clone()];
        let config = CampaignConfig {
            trials: sc.campaign_trials.max(1),
            seed: seeds::substream(sc.seed, STREAM_CAMPAIGN),
            params: mm_device::arbitrary::params_corner(sc.params_corner),
        };
        let first = run_campaign(&placed, &plans, &config).map_err(|e| format!("campaign: {e}"))?;
        let second =
            run_campaign(&placed, &plans, &config).map_err(|e| format!("campaign: {e}"))?;
        if first != second {
            fail(
                &mut violations,
                "campaign-determinism",
                "two campaign runs with one seed diverged".to_string(),
            );
        }
        if first.plans[0].failures != 0 {
            fail(
                &mut violations,
                "healthy-control-clean",
                format!(
                    "healthy control plan failed {}/{} executions",
                    first.plans[0].failures, first.plans[0].executions
                ),
            );
        }
        campaign_digest = first
            .plans
            .iter()
            .map(|p| format!("{}:{}/{}", p.plan.name, p.failures, p.executions))
            .collect::<Vec<_>>()
            .join(",");

        // ── Stage 7: repair loop ─────────────────────────────────────────
        if sc.repair && sc.unlimited() && sc.max_vsteps > 0 {
            let legs = SynthSpec::paper_legs(&f, sc.max_rops, false);
            let spec = SynthSpec::mixed_mode(&f, sc.max_rops, legs, sc.max_vsteps)
                .map_err(|e| format!("repair spec: {e}"))?
                .with_options(options.clone());
            let mut repair_cfg = RepairConfig::new(sc.array_size);
            repair_cfg.campaign = config;
            let repair_plans = [plan.clone()];
            let outcome =
                synthesize_with_repair(&make_synth(false), &spec, &repair_plans, &repair_cfg)
                    .map_err(|e| format!("repair: {e}"))?;
            if outcome.succeeded() {
                if let Some(report) = &outcome.report {
                    if report.any_failures() {
                        fail(
                            &mut violations,
                            "repair-clean-report",
                            "repair claims success but the final campaign has failures".to_string(),
                        );
                    }
                }
                match &outcome.placement {
                    Some(placement) => {
                        if !placement.verify(&f) {
                            fail(
                                &mut violations,
                                "repair-placement-verify",
                                "repaired placement does not implement the target".to_string(),
                            );
                        }
                    }
                    None => fail(
                        &mut violations,
                        "repair-placement-verify",
                        "successful repair produced no placement".to_string(),
                    ),
                }
            }
        }
    }

    Ok(ScenarioReport {
        name: sc.name.clone(),
        fingerprint: format!("{cold_fp};campaign[{campaign_digest}]"),
        degraded: cold_report.status.is_degraded(),
        violations,
    })
}

/// One archived regression case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusCase {
    /// Corpus layout version ([`CORPUS_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Why this case is in the corpus.
    pub description: String,
    /// The (possibly shrunk) scenario to replay.
    pub scenario: FuzzScenario,
}

/// A directory of replayable JSON regression cases.
#[derive(Debug, Clone)]
pub struct Corpus {
    dir: PathBuf,
}

impl Corpus {
    /// Opens (creating if needed) the corpus directory.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The corpus directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Archives a case as `<scenario name>.json`, returning the path.
    pub fn archive(&self, case: &CorpusCase) -> std::io::Result<PathBuf> {
        let stem: String = case
            .scenario
            .name
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '-'
                }
            })
            .collect();
        let path = self.dir.join(format!("{stem}.json"));
        let text = serde_json::to_string_pretty(case).map_err(std::io::Error::other)?;
        // Atomic: a crash mid-archive must not leave a torn corpus case
        // that poisons every later replay run.
        mm_telemetry::atomic_write(&path, text)?;
        Ok(path)
    }

    /// Loads every `*.json` case, sorted by file name.
    pub fn load(&self) -> std::io::Result<Vec<(PathBuf, CorpusCase)>> {
        let mut paths: Vec<PathBuf> = fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        paths.sort();
        let mut cases = Vec::with_capacity(paths.len());
        for path in paths {
            let text = fs::read_to_string(&path)?;
            let case: CorpusCase = serde_json::from_str(&text)
                .map_err(|e| std::io::Error::other(format!("{}: {e}", path.display())))?;
            cases.push((path, case));
        }
        Ok(cases)
    }
}

/// The hand-picked seed corpus: one case per historically interesting
/// regime of the pipeline (dedup'd NOR fan-in, cancelled certification,
/// zero-deadline degradation, cell avoidance, jobs invariance, fault
/// campaigns under variability, repair, transients, R-only certification,
/// multi-output functions, constant functions, an unlimited certified maj3
/// ladder,
/// inprocessing with certification, inprocessing under cancellation, and
/// the `--no-inprocess` regime).
///
/// `tests/corpus/` holds these cases as committed JSON
/// (`mmsynth fuzz --emit-seed-corpus --corpus tests/corpus` regenerates
/// them after a schema change) and `tests/fuzz_corpus.rs` replays every
/// file in tier-1 CI.
pub fn seed_corpus() -> Vec<CorpusCase> {
    use mm_boolfn::generators;

    let base = |name: &str, seed: u64, outputs: Vec<String>| FuzzScenario {
        name: name.to_string(),
        seed,
        outputs,
        max_rops: 2,
        max_vsteps: 3,
        max_conflicts: None,
        zero_deadline: false,
        certify: false,
        jobs: vec![1],
        array_size: 16,
        avoid_cells: Vec::new(),
        params_corner: 0,
        fault_plan: None,
        campaign_trials: 2,
        repair: false,
        inprocess: true,
    };
    let bits = |f: &MultiOutputFn| -> Vec<String> {
        f.outputs().iter().map(TruthTable::to_bitstring).collect()
    };
    let case = |description: &str, scenario: FuzzScenario| CorpusCase {
        schema_version: CORPUS_SCHEMA_VERSION,
        description: description.to_string(),
        scenario,
    };

    // NOR(a, a) — a NOT through duplicated fan-in, the literal-dedup case.
    let a = TruthTable::var(2, 1).expect("2-input var x_1");
    let not_a = a.nor(&a);

    vec![
        case("NOR(a,a) literal dedup on the R-only certified ladder", {
            let mut s = base("seed-nor-dedup", 1, vec![not_a.to_bitstring()]);
            s.max_rops = 2;
            s.max_vsteps = 0;
            s.certify = true;
            s.jobs = vec![1, 2];
            s
        }),
        case(
            "cancelled (conflict-capped) solves must never carry proofs",
            {
                let mut s = base("seed-cancelled-no-proof", 2, bits(&generators::xor_gate(2)));
                s.max_conflicts = Some(1);
                s.certify = true;
                s
            },
        ),
        case(
            "zero deadline: deterministic degraded run, no optimality claims",
            {
                let mut s = base("seed-zero-deadline", 3, bits(&generators::xor_gate(2)));
                s.zero_deadline = true;
                s.jobs = vec![1, 2];
                s
            },
        ),
        case("placement must route around avoided (dead) cells", {
            let mut s = base("seed-avoided-cells", 4, bits(&generators::xor_gate(2)));
            s.avoid_cells = vec![0, 2];
            s.params_corner = 1;
            s
        }),
        case("cold portfolio verdicts agree across jobs = 1, 2, 8", {
            let mut s = base(
                "seed-jobs-invariance",
                5,
                bits(&generators::majority_gate(3)),
            );
            s.jobs = vec![1, 2, 8];
            s
        }),
        case(
            "campaign under HIGH variability stays reproducible, control clean",
            {
                let mut s = base(
                    "seed-variability-campaign",
                    6,
                    bits(&generators::and_gate(2)),
                );
                s.fault_plan = Some(
                    FaultPlan::named("high-variability")
                        .with_variability(mm_device::Variability::HIGH),
                );
                s.campaign_trials = 3;
                s.params_corner = 2;
                s
            },
        ),
        case(
            "stuck-at-LRS cell: diagnose, avoid, resynthesize, verify",
            {
                let mut s = base("seed-stuck-repair", 7, bits(&generators::xor_gate(2)));
                s.fault_plan =
                    Some(FaultPlan::named("stuck-lrs").with_stuck(3, mm_device::DeviceState::Lrs));
                s.repair = true;
                s
            },
        ),
        case(
            "transient bit flip mid-schedule exercises the campaign path",
            {
                let mut s = base("seed-transient-flip", 8, bits(&generators::or_gate(2)));
                s.fault_plan = Some(FaultPlan::named("transient").with_transient(2, 4));
                s.params_corner = 3;
                s
            },
        ),
        case(
            "R-only certified ladder: every UNSAT rung's DRAT proof re-checks",
            {
                let mut s = base("seed-ronly-certified", 9, bits(&generators::nor_gate(2)));
                s.max_rops = 3;
                s.max_vsteps = 0;
                s.certify = true;
                s
            },
        ),
        case(
            "multi-output function (half adder) through the full pipeline",
            {
                let f = MultiOutputFn::new(
                    "half-adder",
                    vec![
                        generators::xor_gate(2).outputs()[0].clone(),
                        generators::and_gate(2).outputs()[0].clone(),
                    ],
                )
                .expect("matching input counts");
                let mut s = base("seed-multi-output", 10, bits(&f));
                s.jobs = vec![1, 2];
                s
            },
        ),
        case(
            "constant-false target: trivial SAT at every rung, certified",
            {
                let mut s = base("seed-const-false", 11, vec!["0000".to_string()]);
                s.max_rops = 2;
                s.max_vsteps = 0;
                s.certify = true;
                s
            },
        ),
        // The name and description date from a second, warm ladder engine
        // that has since been removed; they stay so the committed corpus
        // file is unchanged. The case runs an unlimited certified ladder.
        case("warm and cold ladders agree rung for rung on maj3", {
            let mut s = base(
                "seed-maj3-warm-cold",
                12,
                bits(&generators::majority_gate(3)),
            );
            s.certify = true;
            s
        }),
        case(
            "inprocessing + certification: every UNSAT proof re-checks with \
             the pass enabled, and the on/off fingerprints agree",
            {
                let mut s = base(
                    "seed-inprocess-certified",
                    13,
                    bits(&generators::majority_gate(3)),
                );
                s.certify = true;
                s.jobs = vec![1, 2];
                s.inprocess = true;
                s
            },
        ),
        case(
            "inprocessing + cancellation: a conflict-capped solve may abort \
             mid-pass and must still carry no proof or certification",
            {
                let mut s = base("seed-inprocess-cancel", 14, bits(&generators::xor_gate(2)));
                s.max_conflicts = Some(2);
                s.certify = true;
                s.inprocess = true;
                s
            },
        ),
        case(
            "--no-inprocess regime: the legacy solver path stays exercised",
            {
                let mut s = base("seed-no-inprocess", 15, bits(&generators::xor_gate(2)));
                s.jobs = vec![1, 2];
                s.inprocess = false;
                s
            },
        ),
    ]
}

/// Summary of a [`run_fuzz`] sweep.
#[derive(Debug, Clone)]
pub struct FuzzSummary {
    /// Scenarios executed.
    pub scenarios: usize,
    /// Scenarios whose cold ladder degraded (expected under zero
    /// deadlines / tight conflict caps — not a failure).
    pub degraded: usize,
    /// All invariant violations found.
    pub violations: Vec<Violation>,
    /// Corpus files written for (shrunk) failing scenarios.
    pub archived: Vec<PathBuf>,
    /// FNV-1a digest over every scenario fingerprint, in order — two sweeps
    /// with the same seed and budget must produce the same digest.
    pub fingerprint: u64,
}

/// Folds a scenario fingerprint into the sweep digest.
fn fold_fingerprint(digest: u64, fp: &str) -> u64 {
    let mut h = digest;
    for b in fp.bytes().chain([b'\n']) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Runs `budget` generated scenarios rooted at `root_seed`.
///
/// Failing scenarios are shrunk with [`proptest::shrink::minimize`] (the
/// shrunk scenario must reproduce the *same invariant*) and archived to
/// `corpus` when one is given.
pub fn run_fuzz(
    root_seed: u64,
    budget: usize,
    corpus: Option<&Corpus>,
    cfg: &FuzzConfig,
    mut progress: impl FnMut(usize, &ScenarioReport),
) -> FuzzSummary {
    let mut summary = FuzzSummary {
        scenarios: 0,
        degraded: 0,
        violations: Vec::new(),
        archived: Vec::new(),
        fingerprint: 0xcbf2_9ce4_8422_2325,
    };
    for index in 0..budget {
        let scenario = FuzzScenario::generate(root_seed, index as u64);
        let (fingerprint, degraded, violations) = match run_scenario(&scenario, cfg) {
            Ok(report) => {
                progress(index, &report);
                (report.fingerprint, report.degraded, report.violations)
            }
            Err(e) => (
                "error".to_string(),
                false,
                vec![Violation {
                    scenario: scenario.name.clone(),
                    invariant: "scenario-error".to_string(),
                    detail: e,
                }],
            ),
        };
        summary.scenarios += 1;
        summary.degraded += usize::from(degraded);
        summary.fingerprint = fold_fingerprint(summary.fingerprint, &fingerprint);
        if violations.is_empty() {
            continue;
        }
        let shrunk = shrink_failing(scenario, &violations[0].invariant, cfg);
        if let Some(corpus) = corpus {
            let case = CorpusCase {
                schema_version: CORPUS_SCHEMA_VERSION,
                description: format!(
                    "shrunk reproducer for invariant `{}`: {}",
                    violations[0].invariant, violations[0].detail
                ),
                scenario: shrunk,
            };
            match corpus.archive(&case) {
                Ok(path) => summary.archived.push(path),
                Err(e) => summary.violations.push(Violation {
                    scenario: case.scenario.name.clone(),
                    invariant: "corpus-archive-error".to_string(),
                    detail: e.to_string(),
                }),
            }
        }
        summary.violations.extend(violations);
    }
    summary
}

/// Shrinks a failing scenario to a local minimum that still reproduces the
/// given invariant violation.
pub fn shrink_failing(scenario: FuzzScenario, invariant: &str, cfg: &FuzzConfig) -> FuzzScenario {
    proptest::shrink::minimize(scenario, |candidate| match run_scenario(candidate, cfg) {
        Ok(report) => report.violations.iter().any(|v| v.invariant == invariant),
        Err(_) => invariant == "scenario-error",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_valid() {
        for index in 0..24 {
            let a = FuzzScenario::generate(42, index);
            let b = FuzzScenario::generate(42, index);
            assert_eq!(a, b);
            assert!(!a.jobs.is_empty());
            assert!(!a.outputs.is_empty());
            a.function().expect("generated scenarios parse");
            if let Some(plan) = &a.fault_plan {
                assert!(plan.max_cell().is_none_or(|c| c < a.array_size));
            }
        }
        assert_ne!(FuzzScenario::generate(42, 0), FuzzScenario::generate(43, 0));
    }

    #[test]
    fn scenario_roundtrips_through_corpus_json() {
        for index in 0..16 {
            let scenario = FuzzScenario::generate(7, index);
            let case = CorpusCase {
                schema_version: CORPUS_SCHEMA_VERSION,
                description: "roundtrip".to_string(),
                scenario,
            };
            let text = serde_json::to_string_pretty(&case).expect("serialize");
            let back: CorpusCase = serde_json::from_str(&text).expect("parse");
            assert_eq!(back, case);
        }
    }

    #[test]
    fn injected_violation_is_caught_and_shrinks_to_two_minterms() {
        let cfg = FuzzConfig {
            inject_violation: true,
        };
        // Find a generated scenario whose function has >= 2 minterms.
        let scenario = (0..32)
            .map(|i| FuzzScenario::generate(1, i))
            .find(|s| {
                let f = s.function().unwrap();
                f.outputs()
                    .iter()
                    .map(TruthTable::count_ones)
                    .sum::<usize>()
                    >= 2
            })
            .expect("some scenario trips the injection");
        let report = run_scenario(&scenario, &cfg).unwrap();
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].invariant, "injected");

        let shrunk = shrink_failing(scenario, "injected", &cfg);
        let f = shrunk.function().unwrap();
        let ones: usize = f.outputs().iter().map(TruthTable::count_ones).sum();
        assert_eq!(ones, 2, "shrinking must reach the minimal reproducer");
        assert!(shrunk.fault_plan.is_none(), "irrelevant knobs are cleared");
        assert!(!shrunk.repair && !shrunk.certify);
        assert!(shrunk.avoid_cells.is_empty());
    }
}
