// Index loops below are deliberate: they sidestep aliasing between the
// iterated buffer and `&mut self` calls inside the loop bodies.
#![allow(clippy::needless_range_loop)]

mod inprocess;

use std::time::Instant;

use mm_telemetry::Telemetry;

use crate::drat::DratProof;
use crate::{Budget, CnfFormula, Lit, Model, ProofWriter, SolverStats, Var};
use inprocess::{Candidate, SubsumeState};

/// Conflicts accumulated before the first inprocessing pass fires, and the
/// base of the geometric growth between passes. Small solves never reach
/// it and pay nothing; the hard rungs of a ladder cross it, and that is
/// where database reduction pays off most.
const INPROCESS_FIRST_AT: u64 = 1_000;

/// Outcome of a [`Solver::solve`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// The formula is satisfiable; a witness assignment is attached.
    Sat(Model),
    /// The formula is unsatisfiable.
    Unsat,
    /// The solver exhausted its [`Budget`] before reaching an answer.
    Unknown,
}

impl SatResult {
    /// The model, if the result is [`SatResult::Sat`].
    pub fn model(&self) -> Option<&Model> {
        match self {
            Self::Sat(m) => Some(m),
            _ => None,
        }
    }

    /// Whether the result is [`SatResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, Self::Sat(_))
    }

    /// Whether the result is [`SatResult::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, Self::Unsat)
    }
}

/// Why a variable is assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reason {
    /// A decision or a top-level fact.
    Decision,
    /// Implied by the clause with this index.
    Clause(u32),
    /// Implied by a binary clause whose other literal (now false) is given.
    Binary(Lit),
}

#[derive(Debug)]
struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
    deleted: bool,
    activity: f32,
    lbd: u32,
}

#[derive(Debug, Clone, Copy)]
struct Watch {
    clause: u32,
    blocker: Lit,
}

const UNASSIGNED: i8 = 0;

/// A conflict-driven clause-learning (CDCL) SAT solver.
///
/// Construct with a finished [`CnfFormula`] and call [`solve`](Self::solve)
/// or [`solve_with_budget`](Self::solve_with_budget) for a one-shot answer,
/// or keep the solver alive and call
/// [`solve_under_assumptions`](Self::solve_under_assumptions) repeatedly:
/// each call reuses the clause database, VSIDS activities and saved phases
/// accumulated by the previous ones. Because assumptions are enqueued as
/// *decisions* (never resolved as clauses), every learnt clause is a
/// consequence of the base formula alone and stays valid across calls.
///
/// # Example
///
/// ```
/// use mm_sat::{CnfFormula, SatResult, Solver};
///
/// let mut cnf = CnfFormula::new();
/// let a = cnf.new_lit();
/// cnf.add_clause([a]);
/// cnf.add_clause([!a]);
/// assert_eq!(Solver::new(cnf).solve(), SatResult::Unsat);
/// ```
#[derive(Debug)]
pub struct Solver {
    clauses: Vec<Clause>,
    /// `bin_implications[l.code()]` lists the partner literals of all binary
    /// clauses containing `l`; traversed when `l` becomes false (each entry
    /// is then implied).
    bin_implications: Vec<Vec<Lit>>,
    /// `watches[l.code()]` lists clauses currently watching literal `l`;
    /// traversed when `l` becomes false.
    watches: Vec<Vec<Watch>>,
    assign: Vec<i8>,
    level: Vec<u32>,
    reason: Vec<Reason>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    heap: VarHeap,
    saved_phase: Vec<bool>,
    seen: Vec<bool>,
    analyze_stack: Vec<Lit>,
    analyze_clear: Vec<Var>,
    cla_inc: f32,
    ok: bool,
    stats: SolverStats,
    n_vars: usize,
    minimize_enabled: bool,
    /// DRAT log sink; `None` keeps the hot path to a single well-predicted
    /// branch per learn/delete site.
    proof: Option<Box<dyn ProofWriter>>,
    /// Telemetry handle; disabled by default, same single-branch discipline
    /// as `proof`. Counter deltas are emitted at the cancel-poll cadence.
    telemetry: Telemetry,
    /// Counter values already emitted to telemetry, so each emission sends
    /// only the delta: (conflicts, propagations, decisions, restarts).
    tel_emitted: (u64, u64, u64, u64),
    /// Inprocess-counter values already emitted to telemetry
    /// (subsumed+strengthened, vivified).
    tel_inprocess: (u64, u64),
    /// Failed-assumption set of the last UNSAT-under-assumptions call.
    failed: Vec<Lit>,
    /// Cumulative-conflict threshold for the next inprocessing pass.
    next_inprocess: u64,
    /// Current gap between passes; grows geometrically so inprocessing
    /// stays a vanishing fraction of total effort.
    inprocess_interval: u64,
    /// Trail prefix whose implied level-0 literals have already been
    /// emitted to the DRAT log as unit additions (see `log_level0_units`).
    l0_units_logged: usize,
    /// Subsumption state carried from one inprocessing pass to the next.
    subsume: SubsumeState,
    /// Tombstones (deleted entries) in `clauses`.
    dead_clauses: usize,
}

impl Solver {
    /// Builds a solver from a formula.
    pub fn new(cnf: CnfFormula) -> Self {
        let n = cnf.n_vars() as usize;
        let mut solver = Self {
            clauses: Vec::new(),
            bin_implications: vec![Vec::new(); 2 * n],
            watches: vec![Vec::new(); 2 * n],
            assign: vec![UNASSIGNED; n],
            level: vec![0; n],
            reason: vec![Reason::Decision; n],
            trail: Vec::with_capacity(n),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: vec![0.0; n],
            var_inc: 1.0,
            heap: VarHeap::new(n),
            saved_phase: vec![false; n],
            seen: vec![false; n],
            analyze_stack: Vec::new(),
            analyze_clear: Vec::new(),
            cla_inc: 1.0,
            ok: true,
            stats: SolverStats::default(),
            n_vars: n,
            minimize_enabled: true,
            proof: None,
            telemetry: Telemetry::disabled(),
            tel_emitted: (0, 0, 0, 0),
            tel_inprocess: (0, 0),
            failed: Vec::new(),
            next_inprocess: INPROCESS_FIRST_AT,
            inprocess_interval: INPROCESS_FIRST_AT,
            l0_units_logged: 0,
            subsume: SubsumeState::default(),
            dead_clauses: 0,
        };
        for clause in cnf.clauses() {
            solver.add_original_clause(clause);
            if !solver.ok {
                break;
            }
        }
        solver
    }

    /// Disables (or re-enables) learnt-clause minimization.
    ///
    /// Minimization is on by default; switching it off exists for ablation
    /// measurements of the solver itself.
    pub fn set_minimize(&mut self, enabled: bool) {
        self.minimize_enabled = enabled;
    }

    /// Installs a DRAT proof sink. Every learnt clause, every database
    /// deletion, and (on UNSAT) the final empty clause are forwarded to it.
    ///
    /// With no writer installed the logging sites compile down to one
    /// `Option` check each; see the `certify_overhead` bench.
    pub fn with_proof_writer(mut self, writer: Box<dyn ProofWriter>) -> Self {
        self.proof = Some(writer);
        self
    }

    /// Installs a telemetry handle. The search loop then emits
    /// `solver.conflicts` / `solver.propagations` / `solver.decisions` /
    /// `solver.restarts` counter *deltas* at the existing cancel-poll cadence
    /// (every `CANCEL_POLL_INTERVAL` loop rounds), plus one final delta when
    /// the solve returns — so counter totals always equal [`SolverStats`].
    ///
    /// A disabled handle keeps the loop byte-for-byte on its old path: the
    /// poll guard stays false and no emission code runs.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Cumulative statistics across every call made on this solver.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// The subset of the most recent call's assumptions that the solver
    /// proved incompatible with the formula.
    ///
    /// Populated when [`solve_under_assumptions`](Self::solve_under_assumptions)
    /// returns [`SatResult::Unsat`]; empty when the formula is
    /// unsatisfiable on its own (the empty subset already suffices).
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.failed
    }

    /// Adds a clause between solve calls.
    ///
    /// The clause is simplified against the top-level assignment and takes
    /// effect on the next call. Must not be combined with proof logging:
    /// an externally injected clause is not RUP with respect to this
    /// solver's derivation, so the DRAT log would no longer check.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        debug_assert!(!lits.is_empty());
        debug_assert!(
            self.proof.is_none(),
            "post-solve add_clause would poison the DRAT log"
        );
        self.backtrack_to(0);
        self.add_simplified_clause(lits);
    }

    /// Solves under `assumptions`, reusing all state learned by earlier
    /// calls on this solver.
    ///
    /// Assumptions are enqueued as the first decisions — assumption `i`
    /// owns decision level `i + 1` — so conflict analysis treats them like
    /// any other decision and learnt clauses never depend on them as
    /// clauses. On [`SatResult::Sat`] the model satisfies every assumption;
    /// on [`SatResult::Unsat`],
    /// [`failed_assumptions`](Self::failed_assumptions) names a subset of
    /// `assumptions` that is already incompatible with the formula.
    ///
    /// Per-call [`Budget`] limits (conflicts, time) are measured from this
    /// call's entry, and the `cancelled` / `deadline_expired` flags in
    /// [`stats`](Self::stats) describe the latest call; all other counters
    /// accumulate across calls.
    ///
    /// A DRAT proof is concluded only when an UNSAT answer is reached with
    /// *no* assumptions — "UNSAT under assumptions" is not refutation of
    /// the formula, so certified optimality ladders must fall back to
    /// one-shot solves.
    pub fn solve_under_assumptions(&mut self, assumptions: &[Lit], budget: Budget) -> SatResult {
        let start = Instant::now();
        self.stats.cancelled = false;
        self.stats.deadline_expired = false;
        self.failed.clear();
        self.backtrack_to(0);
        self.maybe_inprocess(&budget);
        let result = self.search(assumptions, budget, start);
        self.backtrack_to(0);
        self.emit_counter_deltas();
        if result.is_unsat() && assumptions.is_empty() {
            if let Some(w) = self.proof.as_mut() {
                w.conclude_unsat();
                self.stats.proof_steps += 1;
            }
        }
        self.stats.solve_time += start.elapsed();
        result
    }

    /// Solves the formula to completion (no budget).
    pub fn solve(self) -> SatResult {
        self.solve_with_budget(Budget::new()).0
    }

    /// Solves under a [`Budget`], also returning the search statistics.
    pub fn solve_with_budget(self, budget: Budget) -> (SatResult, SolverStats) {
        let (result, stats, _) = self.solve_logged(budget);
        (result, stats)
    }

    /// Solves under a [`Budget`], returning the proof writer installed via
    /// [`with_proof_writer`](Self::with_proof_writer) (if any) alongside the
    /// result and statistics.
    ///
    /// [`ProofWriter::conclude_unsat`] is invoked exactly when the result is
    /// [`SatResult::Unsat`] — a cancelled or budget-exhausted run hands back
    /// an unconcluded writer whose proof the checker will reject.
    pub fn solve_logged(
        mut self,
        budget: Budget,
    ) -> (SatResult, SolverStats, Option<Box<dyn ProofWriter>>) {
        // Thin wrapper over the reusable path: an empty assumption set
        // makes `solve_under_assumptions` behave exactly like the historic
        // one-shot call (solve_time starts at zero, so `+=` is `=`).
        let result = self.solve_under_assumptions(&[], budget);
        (result, self.stats, self.proof)
    }

    /// Solves with an in-memory [`DratProof`] log, for certification.
    ///
    /// The returned proof is `Some` whenever logging ran (it always does
    /// here) and is concluded only on a genuine UNSAT; pass it to
    /// [`drat::check`](crate::drat::check) together with the original
    /// formula to certify the answer.
    pub fn solve_certified(
        mut self,
        budget: Budget,
    ) -> (SatResult, SolverStats, Option<DratProof>) {
        if self.proof.is_none() {
            self.proof = Some(Box::<DratProof>::default());
        }
        let (result, stats, writer) = self.solve_logged(budget);
        let proof = writer
            .and_then(|w| w.into_any().downcast::<DratProof>().ok())
            .map(|boxed| *boxed);
        (result, stats, proof)
    }

    /// Sends counter deltas accumulated since the previous emission. No-op
    /// (one branch) when telemetry is disabled.
    fn emit_counter_deltas(&mut self) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let s = self.stats;
        self.telemetry
            .counter("solver.conflicts", s.conflicts - self.tel_emitted.0);
        self.telemetry
            .counter("solver.propagations", s.propagations - self.tel_emitted.1);
        self.telemetry
            .counter("solver.decisions", s.decisions - self.tel_emitted.2);
        self.telemetry
            .counter("solver.restarts", s.restarts - self.tel_emitted.3);
        self.tel_emitted = (s.conflicts, s.propagations, s.decisions, s.restarts);
        // Inprocess counters follow the same delta-when-nonzero discipline,
        // so runs that never inprocess produce the exact old event stream.
        // `subsumed` folds in self-subsumption strengthenings: both are
        // products of the same occurrence-list machinery.
        let is = s.subsumed_clauses + s.strengthened_clauses - self.tel_inprocess.0;
        let iv = s.vivified_clauses - self.tel_inprocess.1;
        if is > 0 {
            self.telemetry.counter("solver.inprocess.subsumed", is);
        }
        if iv > 0 {
            self.telemetry.counter("solver.inprocess.vivified", iv);
        }
        self.tel_inprocess = (
            s.subsumed_clauses + s.strengthened_clauses,
            s.vivified_clauses,
        );
    }

    #[inline]
    fn proof_add(&mut self, lits: &[Lit]) {
        if let Some(w) = self.proof.as_mut() {
            w.add_clause(lits);
            self.stats.proof_steps += 1;
            self.stats.proof_literals += lits.len() as u64;
        }
    }

    #[inline]
    fn proof_delete(&mut self, lits: &[Lit]) {
        if let Some(w) = self.proof.as_mut() {
            w.delete_clause(lits);
            self.stats.proof_steps += 1;
            self.stats.proof_literals += lits.len() as u64;
        }
    }

    fn add_original_clause(&mut self, lits: &[Lit]) {
        debug_assert!(!lits.is_empty());
        match lits.len() {
            1 => match self.value(lits[0]) {
                v if v == UNASSIGNED => {
                    self.enqueue(lits[0], Reason::Decision);
                }
                -1 => self.ok = false,
                _ => {}
            },
            2 => self.add_binary(lits[0], lits[1]),
            _ => {
                let idx = self.clauses.len() as u32;
                self.watches[lits[0].code() as usize].push(Watch {
                    clause: idx,
                    blocker: lits[1],
                });
                self.watches[lits[1].code() as usize].push(Watch {
                    clause: idx,
                    blocker: lits[0],
                });
                self.clauses.push(Clause {
                    lits: lits.to_vec(),
                    learnt: false,
                    deleted: false,
                    activity: 0.0,
                    lbd: 0,
                });
            }
        }
    }

    /// Installs the binary clause `(a ∨ b)` in the implication layer and,
    /// once inprocessing has started, queues it as a subsumption candidate
    /// for the next pass.
    fn add_binary(&mut self, a: Lit, b: Lit) {
        // Indexed by the falsified literal: when `a` becomes false, `b` is
        // implied (and vice versa).
        self.bin_implications[a.code() as usize].push(b);
        self.bin_implications[b.code() as usize].push(a);
        if self.subsume.started {
            self.subsume.queue.push_back(Candidate::Binary(a, b));
        }
    }

    /// Adds a clause at decision level 0, simplifying it against the
    /// top-level assignment first.
    ///
    /// This is the post-construction twin of `add_original_clause`: by the
    /// time it runs, `qhead` is already past the level-0 trail, so a watch
    /// placed on an already-false literal would never be repaired by
    /// propagation. Simplification (drop false literals, skip satisfied
    /// clauses) restores the watch invariant instead.
    fn add_simplified_clause(&mut self, lits: &[Lit]) {
        debug_assert_eq!(self.current_level(), 0);
        if !self.ok {
            return;
        }
        let mut reduced: Vec<Lit> = Vec::with_capacity(lits.len());
        for &l in lits {
            debug_assert!((l.var().index() as usize) < self.n_vars);
            match self.value(l) {
                1 => return, // satisfied at level 0
                -1 => {}     // falsified at level 0: drop
                _ => {
                    if reduced.contains(&!l) {
                        // A tautology constrains nothing; keeping one out
                        // also keeps subsumption's literal counting sound.
                        return;
                    }
                    if !reduced.contains(&l) {
                        reduced.push(l);
                    }
                }
            }
        }
        match reduced.len() {
            0 => self.ok = false,
            1 => self.enqueue(reduced[0], Reason::Decision),
            2 => self.add_binary(reduced[0], reduced[1]),
            _ => {
                let idx = self.clauses.len() as u32;
                self.watches[reduced[0].code() as usize].push(Watch {
                    clause: idx,
                    blocker: reduced[1],
                });
                self.watches[reduced[1].code() as usize].push(Watch {
                    clause: idx,
                    blocker: reduced[0],
                });
                let lbd = reduced.len() as u32;
                self.clauses.push(Clause {
                    lits: reduced,
                    learnt: false,
                    deleted: false,
                    activity: self.cla_inc,
                    lbd,
                });
            }
        }
    }

    /// Final-conflict analysis (MiniSat's `analyzeFinal`): called when
    /// assumption `p` is found false while enqueuing the assumption
    /// prefix. Walks the implication trail backwards from the assumption
    /// levels, collecting into `self.failed` the assumptions (= decisions
    /// at levels > 0) that together force `!p`.
    fn analyze_final(&mut self, p: Lit) {
        self.failed.clear();
        self.failed.push(p);
        if self.current_level() == 0 {
            // `!p` is a top-level consequence of the formula itself.
            return;
        }
        let pv = p.var().index() as usize;
        self.seen[pv] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var().index() as usize;
            if !self.seen[v] {
                continue;
            }
            self.seen[v] = false;
            match self.reason[v] {
                // Decisions above level 0 are exactly the enqueued
                // assumptions.
                Reason::Decision => self.failed.push(l),
                Reason::Binary(other) => {
                    let ov = other.var().index() as usize;
                    if self.level[ov] > 0 {
                        self.seen[ov] = true;
                    }
                }
                Reason::Clause(c) => {
                    for k in 0..self.clauses[c as usize].lits.len() {
                        let q = self.clauses[c as usize].lits[k];
                        let qv = q.var().index() as usize;
                        if qv != v && self.level[qv] > 0 {
                            self.seen[qv] = true;
                        }
                    }
                }
            }
        }
        self.seen[pv] = false;
    }

    #[inline]
    fn value(&self, l: Lit) -> i8 {
        let v = self.assign[l.var().index() as usize];
        if l.is_positive() {
            v
        } else {
            -v
        }
    }

    #[inline]
    fn current_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, l: Lit, reason: Reason) {
        debug_assert_eq!(self.value(l), UNASSIGNED);
        let v = l.var().index() as usize;
        self.assign[v] = if l.is_positive() { 1 } else { -1 };
        self.level[v] = self.current_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause's literals on
    /// conflict.
    fn propagate(&mut self) -> Option<Vec<Lit>> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = !p;
            let fcode = false_lit.code() as usize;

            // Binary layer first: cheapest propagations.
            for i in 0..self.bin_implications[fcode].len() {
                let q = self.bin_implications[fcode][i];
                match self.value(q) {
                    1 => {}
                    UNASSIGNED => {
                        self.stats.propagations += 1;
                        self.enqueue(q, Reason::Binary(false_lit));
                    }
                    _ => return Some(vec![q, false_lit]),
                }
            }

            // Long clauses watching `false_lit`.
            let mut ws = std::mem::take(&mut self.watches[fcode]);
            let mut i = 0;
            let mut conflict = None;
            'watches: while i < ws.len() {
                let w = ws[i];
                if self.value(w.blocker) == 1 {
                    i += 1;
                    continue;
                }
                let cidx = w.clause as usize;
                if self.clauses[cidx].deleted {
                    ws.swap_remove(i);
                    continue;
                }
                // Normalize: watched literals sit at positions 0 and 1.
                if self.clauses[cidx].lits[0] == false_lit {
                    self.clauses[cidx].lits.swap(0, 1);
                }
                debug_assert_eq!(self.clauses[cidx].lits[1], false_lit);
                let first = self.clauses[cidx].lits[0];
                if first != w.blocker && self.value(first) == 1 {
                    ws[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in 2..self.clauses[cidx].lits.len() {
                    let cand = self.clauses[cidx].lits[k];
                    if self.value(cand) != -1 {
                        self.clauses[cidx].lits.swap(1, k);
                        self.watches[cand.code() as usize].push(Watch {
                            clause: w.clause,
                            blocker: first,
                        });
                        ws.swap_remove(i);
                        continue 'watches;
                    }
                }
                // No replacement: clause is unit or conflicting.
                if self.value(first) == -1 {
                    conflict = Some(self.clauses[cidx].lits.clone());
                    break;
                }
                self.stats.propagations += 1;
                self.enqueue(first, Reason::Clause(w.clause));
                i += 1;
            }
            // Restore the (possibly shrunk) watch list.
            debug_assert!(self.watches[fcode].is_empty());
            self.watches[fcode] = ws;
            if conflict.is_some() {
                self.qhead = self.trail.len();
                return conflict;
            }
        }
        None
    }

    /// Copies the literals of `l`'s reason clause into `buf` (clearing it
    /// first). Avoids the per-resolution allocation that dominates analyze.
    fn copy_reason_lits(&self, l: Lit, buf: &mut Vec<Lit>) {
        buf.clear();
        match self.reason[l.var().index() as usize] {
            Reason::Decision => {}
            Reason::Binary(other) => buf.extend([l, other]),
            Reason::Clause(c) => buf.extend_from_slice(&self.clauses[c as usize].lits),
        }
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, conflict: Vec<Lit>) -> (Vec<Lit>, u32) {
        let current = self.current_level();
        let mut learnt: Vec<Lit> = vec![Lit::from_code(0)]; // placeholder for the asserting literal
        let mut counter = 0usize;
        let mut reason_buf = conflict;
        let mut skip: Option<Lit> = None;
        let mut idx = self.trail.len();

        loop {
            if let Some(p) = skip {
                if let Reason::Clause(c) = self.reason[p.var().index() as usize] {
                    self.bump_clause(c);
                }
            }
            for i in 0..reason_buf.len() {
                let q = reason_buf[i];
                if Some(q) == skip {
                    continue;
                }
                let v = q.var().index() as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(q.var());
                    if self.level[v] >= current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk back to the next marked trail literal.
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var().index() as usize] {
                    break;
                }
            }
            let p = self.trail[idx];
            self.seen[p.var().index() as usize] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !p;
                break;
            }
            let mut buf = std::mem::take(&mut reason_buf);
            self.copy_reason_lits(p, &mut buf);
            reason_buf = buf;
            skip = Some(p);
        }

        // Mark remaining literals as seen for minimization bookkeeping.
        for &l in &learnt[1..] {
            self.seen[l.var().index() as usize] = true;
        }
        if self.minimize_enabled {
            self.minimize_learnt(&mut learnt);
        }

        // Compute backtrack level and move that literal to position 1.
        let bt_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index() as usize]
                    > self.level[learnt[max_i].var().index() as usize]
                {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index() as usize]
        };

        for &l in &learnt {
            self.seen[l.var().index() as usize] = false;
        }
        for v in self.analyze_clear.drain(..) {
            self.seen[v.index() as usize] = false;
        }

        (learnt, bt_level)
    }

    /// Removes learnt-clause literals that are implied by the rest
    /// (recursive minimization à la MiniSat, conservative variant).
    fn minimize_learnt(&mut self, learnt: &mut Vec<Lit>) {
        let before = learnt.len();
        let mut keep = Vec::with_capacity(learnt.len() - 1);
        for i in 1..learnt.len() {
            let l = learnt[i];
            if self.literal_is_redundant(l) {
                // The removed literal's seen flag must be cleared after
                // analysis like every other mark.
                self.analyze_clear.push(l.var());
            } else {
                keep.push(l);
            }
        }
        learnt.truncate(1);
        learnt.extend(keep);
        self.stats.minimized_literals += (before - learnt.len()) as u64;
    }

    fn literal_is_redundant(&mut self, lit: Lit) -> bool {
        if matches!(self.reason[lit.var().index() as usize], Reason::Decision) {
            return false;
        }
        self.analyze_stack.clear();
        self.analyze_stack.push(lit);
        let mut to_undo: Vec<Var> = Vec::new();
        let mut rl: Vec<Lit> = Vec::new();
        while let Some(l) = self.analyze_stack.pop() {
            self.copy_reason_lits(!l, &mut rl);
            let skip = !l;
            for i in 0..rl.len() {
                let q = rl[i];
                if q == skip {
                    continue;
                }
                let v = q.var().index() as usize;
                if self.seen[v] || self.level[v] == 0 {
                    continue;
                }
                if matches!(self.reason[v], Reason::Decision) {
                    // Not implied: undo speculative marks and keep the literal.
                    for u in to_undo {
                        self.seen[u.index() as usize] = false;
                    }
                    return false;
                }
                self.seen[v] = true;
                to_undo.push(q.var());
                self.analyze_stack.push(q);
            }
        }
        // Marks stay seen; remember to clear them after analyze().
        self.analyze_clear.extend(to_undo);
        true
    }

    fn backtrack_to(&mut self, level: u32) {
        if self.current_level() <= level {
            return;
        }
        let lim = self.trail_lim[level as usize];
        for i in (lim..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var().index() as usize;
            self.saved_phase[v] = self.assign[v] == 1;
            self.assign[v] = UNASSIGNED;
            self.heap.insert(l.var(), &self.activity);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn learn(&mut self, learnt: Vec<Lit>) {
        // One emission site covers both analysis and minimization: `learnt`
        // is the final (post-minimization) clause, which is RUP w.r.t. the
        // clauses currently alive, so the derivation stays checkable.
        self.proof_add(&learnt);
        let lbd = self.compute_lbd(&learnt);
        match learnt.len() {
            1 => {
                self.enqueue(learnt[0], Reason::Decision);
            }
            2 => {
                self.add_binary(learnt[0], learnt[1]);
                self.enqueue(learnt[0], Reason::Binary(learnt[1]));
            }
            _ => {
                let idx = self.clauses.len() as u32;
                self.watches[learnt[0].code() as usize].push(Watch {
                    clause: idx,
                    blocker: learnt[1],
                });
                self.watches[learnt[1].code() as usize].push(Watch {
                    clause: idx,
                    blocker: learnt[0],
                });
                let first = learnt[0];
                self.clauses.push(Clause {
                    lits: learnt,
                    learnt: true,
                    deleted: false,
                    activity: self.cla_inc,
                    lbd,
                });
                self.stats.learnt_clauses += 1;
                self.enqueue(first, Reason::Clause(idx));
            }
        }
    }

    fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        let mut levels: Vec<u32> = lits
            .iter()
            .map(|l| self.level[l.var().index() as usize])
            .collect();
        levels.sort_unstable();
        levels.dedup();
        levels.len() as u32
    }

    fn bump_var(&mut self, v: Var) {
        let i = v.index() as usize;
        self.activity[i] += self.var_inc;
        if self.activity[i] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.update(v, &self.activity);
    }

    fn decay_var_activity(&mut self) {
        self.var_inc /= 0.95;
    }

    fn bump_clause(&mut self, c: u32) {
        let clause = &mut self.clauses[c as usize];
        if !clause.learnt {
            return;
        }
        clause.activity += self.cla_inc;
        if clause.activity > 1e20 {
            for cl in &mut self.clauses {
                cl.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn decay_clause_activity(&mut self) {
        self.cla_inc /= 0.999;
    }

    fn is_reason(&self, idx: u32) -> bool {
        let c = &self.clauses[idx as usize];
        let first = c.lits[0];
        self.value(first) == 1 && self.reason[first.var().index() as usize] == Reason::Clause(idx)
    }

    fn reduce_db(&mut self) {
        let mut candidates: Vec<u32> = (0..self.clauses.len() as u32)
            .filter(|&i| {
                let c = &self.clauses[i as usize];
                c.learnt && !c.deleted && c.lbd > 2 && !self.is_reason(i)
            })
            .collect();
        candidates.sort_by(|&a, &b| {
            let ca = &self.clauses[a as usize];
            let cb = &self.clauses[b as usize];
            cb.lbd.cmp(&ca.lbd).then(
                ca.activity
                    .partial_cmp(&cb.activity)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let delete_count = candidates.len() / 2;
        for &idx in &candidates[..delete_count] {
            // Take the literals so the deletion can be logged after the
            // storage is reclaimed.
            let lits = std::mem::take(&mut self.clauses[idx as usize].lits);
            self.proof_delete(&lits);
            self.mark_deleted(idx as usize);
            self.stats.deleted_clauses += 1;
        }
        // Stale watch entries are dropped lazily during propagation.
    }

    fn decide(&mut self) -> Option<Lit> {
        while let Some(v) = self.heap.pop(&self.activity) {
            let i = v.index() as usize;
            if self.assign[i] == UNASSIGNED {
                let phase = self.saved_phase[i];
                return Some(v.lit(phase));
            }
        }
        None
    }

    fn extract_model(&self) -> Model {
        Model::new((0..self.n_vars).map(|v| self.assign[v] == 1).collect())
    }

    fn search(&mut self, assumptions: &[Lit], budget: Budget, start: Instant) -> SatResult {
        if !self.ok {
            return SatResult::Unsat;
        }
        if self.propagate().is_some() {
            // A top-level conflict refutes the base formula itself;
            // remember that across calls.
            self.ok = false;
            return SatResult::Unsat;
        }

        // Budget limits and the reduce_db schedule are measured from this
        // call's entry so that reusing a solver does not shrink later
        // calls' budgets (counters in `stats` accumulate across calls).
        let conflicts_at_entry = self.stats.conflicts;
        let proof_steps_at_entry = self.stats.proof_steps;
        let mut restart_idx: u64 = 0;
        let mut conflicts_until_restart = restart_interval(restart_idx);
        let mut next_reduce: u64 = conflicts_at_entry + 4000;

        // Cancellation is polled every `CANCEL_POLL_INTERVAL` propagate/decide
        // rounds — far more often than restarts — so an external cancel()
        // aborts the call promptly even when the search is deep in a run
        // between restarts. The poll itself is one relaxed atomic load.
        const CANCEL_POLL_INTERVAL: u32 = 1024;
        let cancel = budget.cancellation().cloned();
        let deadline = budget.deadline();
        // Telemetry sampling rides the same cadence: enabling it turns the
        // poll guard on but adds no additional hot-loop checks.
        let poll_abort = cancel.is_some() || deadline.is_some() || self.telemetry.is_enabled();
        let mut cancel_countdown = 1u32; // poll on the first iteration

        loop {
            if poll_abort {
                cancel_countdown -= 1;
                if cancel_countdown == 0 {
                    cancel_countdown = CANCEL_POLL_INTERVAL;
                    self.stats.cancel_polls += 1;
                    if let Some(token) = &cancel {
                        if token.is_cancelled() {
                            self.stats.cancelled = true;
                            return SatResult::Unknown;
                        }
                    }
                    if let Some(d) = deadline {
                        if d.expired() {
                            self.stats.deadline_expired = true;
                            return SatResult::Unknown;
                        }
                    }
                    self.emit_counter_deltas();
                }
            }
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                if self.current_level() == 0 {
                    self.ok = false;
                    return SatResult::Unsat;
                }
                let (learnt, bt) = self.analyze(conflict);
                self.backtrack_to(bt);
                self.learn(learnt);
                self.decay_var_activity();
                self.decay_clause_activity();

                conflicts_until_restart = conflicts_until_restart.saturating_sub(1);
                if self.stats.conflicts >= next_reduce {
                    next_reduce +=
                        4000 + 600 * ((self.stats.conflicts - conflicts_at_entry) / 4000);
                    self.reduce_db();
                }
            } else {
                if conflicts_until_restart == 0 {
                    // Budget checks piggyback on restarts.
                    if let Some(max) = budget.max_conflicts() {
                        if self.stats.conflicts - conflicts_at_entry >= max {
                            return SatResult::Unknown;
                        }
                    }
                    if let Some(max) = budget.max_time() {
                        if start.elapsed() >= max {
                            return SatResult::Unknown;
                        }
                    }
                    if let Some(max) = budget.max_proof_steps() {
                        if self.stats.proof_steps - proof_steps_at_entry >= max {
                            return SatResult::Unknown;
                        }
                    }
                    restart_idx += 1;
                    conflicts_until_restart = restart_interval(restart_idx);
                    self.stats.restarts += 1;
                    self.backtrack_to(0);
                    // Restarts are the natural low-cost moment to
                    // inprocess the accumulated database: the trail is
                    // back at level 0 anyway.
                    self.maybe_inprocess(&budget);
                    if !self.ok {
                        return SatResult::Unsat;
                    }
                    continue;
                }
                // The assumption prefix: assumption `i` owns decision
                // level `i + 1` (an already-satisfied assumption holds an
                // empty level open), so final-conflict analysis can treat
                // every decision above level 0 as an assumption.
                if (self.current_level() as usize) < assumptions.len() {
                    let p = assumptions[self.current_level() as usize];
                    match self.value(p) {
                        1 => self.trail_lim.push(self.trail.len()),
                        -1 => {
                            self.analyze_final(p);
                            return SatResult::Unsat;
                        }
                        _ => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(p, Reason::Decision);
                        }
                    }
                    continue;
                }
                match self.decide() {
                    Some(l) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(l, Reason::Decision);
                    }
                    None => return SatResult::Sat(self.extract_model()),
                }
            }
        }
    }
}

/// Conflicts allotted to restart run `idx`: the Luby sequence times 128.
fn restart_interval(idx: u64) -> u64 {
    luby(idx) * 128
}

/// The Luby restart sequence (1, 1, 2, 1, 1, 2, 4, …), 0-indexed.
fn luby(x: u64) -> u64 {
    let mut x = x;
    let (mut size, mut seq) = (1u64, 0u32);
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

/// Max-heap over variables keyed by activity, with index positions for
/// `update`.
#[derive(Debug)]
struct VarHeap {
    heap: Vec<Var>,
    pos: Vec<usize>,
}

const NOT_IN_HEAP: usize = usize::MAX;

impl VarHeap {
    fn new(n: usize) -> Self {
        let heap: Vec<Var> = (0..n as u32).map(Var::from_index).collect();
        let pos = (0..n).collect();
        Self { heap, pos }
    }

    fn insert(&mut self, v: Var, act: &[f64]) {
        if self.pos[v.index() as usize] != NOT_IN_HEAP {
            return;
        }
        self.pos[v.index() as usize] = self.heap.len();
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, act);
    }

    fn update(&mut self, v: Var, act: &[f64]) {
        let p = self.pos[v.index() as usize];
        if p != NOT_IN_HEAP {
            self.sift_up(p, act);
        }
    }

    fn pop(&mut self, act: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("heap non-empty");
        self.pos[top.index() as usize] = NOT_IN_HEAP;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last.index() as usize] = 0;
            self.sift_down(0, act);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if act[self.heap[i].index() as usize] <= act[self.heap[parent].index() as usize] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut largest = i;
            if l < self.heap.len()
                && act[self.heap[l].index() as usize] > act[self.heap[largest].index() as usize]
            {
                largest = l;
            }
            if r < self.heap.len()
                && act[self.heap[r].index() as usize] > act[self.heap[largest].index() as usize]
            {
                largest = r;
            }
            if largest == i {
                break;
            }
            self.swap(i, largest);
            i = largest;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a].index() as usize] = a;
        self.pos[self.heap[b].index() as usize] = b;
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::CnfFormula;

    fn lits(cnf: &mut CnfFormula, n: usize) -> Vec<Lit> {
        (0..n).map(|_| cnf.new_lit()).collect()
    }

    /// Pigeonhole principle: `pigeons` into `holes`; UNSAT iff pigeons > holes.
    fn pigeonhole(pigeons: usize, holes: usize) -> CnfFormula {
        let mut cnf = CnfFormula::new();
        let vars: Vec<Vec<Lit>> = (0..pigeons).map(|_| lits(&mut cnf, holes)).collect();
        for p in &vars {
            cnf.add_clause(p.iter().copied());
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    cnf.add_clause([!vars[p1][h], !vars[p2][h]]);
                }
            }
        }
        cnf
    }

    #[test]
    fn trivial_cases() {
        let mut cnf = CnfFormula::new();
        let a = cnf.new_lit();
        cnf.add_clause([a]);
        assert!(Solver::new(cnf.clone()).solve().is_sat());
        cnf.add_clause([!a]);
        assert!(Solver::new(cnf).solve().is_unsat());
        assert!(Solver::new(CnfFormula::new()).solve().is_sat());
    }

    #[test]
    fn pigeonhole_unsat() {
        for holes in 1..=5usize {
            let cnf = pigeonhole(holes + 1, holes);
            assert!(
                Solver::new(cnf).solve().is_unsat(),
                "php({}, {holes})",
                holes + 1
            );
        }
    }

    #[test]
    fn pigeonhole_sat_when_enough_holes() {
        for holes in 1..=6usize {
            let cnf = pigeonhole(holes, holes);
            let clauses: Vec<Vec<Lit>> = cnf.clauses().to_vec();
            match Solver::new(cnf).solve() {
                SatResult::Sat(m) => {
                    for c in &clauses {
                        assert!(c.iter().any(|&l| m.value(l)), "model violates clause");
                    }
                }
                other => panic!("php({holes},{holes}) must be SAT, got {other:?}"),
            }
        }
    }

    #[test]
    fn models_satisfy_all_clauses_on_random_instances() {
        // Deterministic xorshift so the test is reproducible.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..60 {
            let n_vars = 8 + (rng() % 8) as usize;
            let n_clauses = (3 * n_vars) + (rng() % 10) as usize;
            let mut cnf = CnfFormula::new();
            let vars = lits(&mut cnf, n_vars);
            let mut clause_list = Vec::new();
            for _ in 0..n_clauses {
                let len = 1 + (rng() % 3) as usize;
                let clause: Vec<Lit> = (0..len)
                    .map(|_| {
                        let v = vars[(rng() % n_vars as u64) as usize];
                        if rng() % 2 == 0 {
                            v
                        } else {
                            !v
                        }
                    })
                    .collect();
                clause_list.push(clause.clone());
                cnf.add_clause(clause);
            }
            // Brute-force ground truth.
            let expected_sat = (0..(1u32 << n_vars)).any(|bits| {
                clause_list.iter().all(|c| {
                    c.iter().any(|l| {
                        let val = (bits >> l.var().index()) & 1 == 1;
                        val == l.is_positive()
                    })
                })
            });
            match Solver::new(cnf).solve() {
                SatResult::Sat(m) => {
                    assert!(
                        expected_sat,
                        "round {round}: solver said SAT, brute force UNSAT"
                    );
                    for c in &clause_list {
                        assert!(c.iter().any(|&l| m.value(l)), "round {round}: bad model");
                    }
                }
                SatResult::Unsat => {
                    assert!(
                        !expected_sat,
                        "round {round}: solver said UNSAT, brute force SAT"
                    )
                }
                SatResult::Unknown => panic!("round {round}: no budget was set"),
            }
        }
    }

    #[test]
    fn budget_returns_unknown() {
        let cnf = pigeonhole(9, 8); // hard enough to exceed a 10-conflict budget
        let (result, stats) =
            Solver::new(cnf).solve_with_budget(Budget::new().with_max_conflicts(10));
        assert_eq!(result, SatResult::Unknown);
        assert!(stats.conflicts >= 10);
    }

    #[test]
    fn cancellation_aborts_promptly() {
        use crate::CancellationToken;
        use std::time::Duration;

        // php(11, 10) takes a CDCL solver far longer than the test's
        // tolerance, so finishing under it proves the abort worked. The
        // generous time budget exists only to bound the test if cancellation
        // were broken.
        let cnf = pigeonhole(11, 10);
        let token = CancellationToken::new();
        let budget = Budget::new()
            .with_max_time(Duration::from_secs(120))
            .with_cancellation(token.clone());

        let handle = std::thread::spawn(move || {
            let start = Instant::now();
            let (result, stats) = Solver::new(cnf).solve_with_budget(budget);
            (result, stats, start.elapsed())
        });
        std::thread::sleep(Duration::from_millis(50));
        let cancel_time = Instant::now();
        token.cancel();
        let (result, stats, elapsed) = handle.join().expect("solver thread panicked");

        assert_eq!(result, SatResult::Unknown);
        assert!(stats.cancelled, "abort must be attributed to the token");
        assert!(stats.cancel_polls > 0);
        // Prompt: the solver noticed the trip in well under the time budget
        // (poll interval is 1024 propagate/decide rounds, i.e. milliseconds).
        assert!(
            cancel_time.elapsed() < Duration::from_secs(10),
            "solver took {:?} after cancel",
            cancel_time.elapsed()
        );
        assert!(elapsed < Duration::from_secs(60));
    }

    #[test]
    fn pre_cancelled_budget_returns_unknown_immediately() {
        use crate::CancellationToken;

        let token = CancellationToken::new();
        token.cancel();
        let cnf = pigeonhole(8, 7);
        let (result, stats) =
            Solver::new(cnf).solve_with_budget(Budget::new().with_cancellation(token));
        assert_eq!(result, SatResult::Unknown);
        assert!(stats.cancelled);
        assert_eq!(stats.conflicts, 0, "no search work after a pre-trip");
    }

    #[test]
    fn expired_deadline_returns_unknown_immediately() {
        use crate::Deadline;

        let cnf = pigeonhole(8, 7);
        let deadline = Deadline::after(Duration::ZERO);
        let (result, stats) =
            Solver::new(cnf).solve_with_budget(Budget::new().with_deadline(deadline));
        assert_eq!(result, SatResult::Unknown);
        assert!(stats.deadline_expired);
        assert!(!stats.cancelled);
        assert_eq!(
            stats.conflicts, 0,
            "no search work past an expired deadline"
        );
    }

    #[test]
    fn mid_search_deadline_aborts_promptly() {
        use crate::Deadline;

        // Hard enough that a 50 ms deadline expires mid-search; the hot-loop
        // poll must then abort well before the instance would finish.
        let cnf = pigeonhole(10, 9);
        let deadline = Deadline::after(Duration::from_millis(50));
        let start = Instant::now();
        let (result, stats) =
            Solver::new(cnf).solve_with_budget(Budget::new().with_deadline(deadline));
        assert_eq!(result, SatResult::Unknown);
        assert!(stats.deadline_expired);
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "deadline abort took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn certified_pigeonhole_proofs_check() {
        for holes in 1..=4usize {
            let cnf = pigeonhole(holes + 1, holes);
            let (result, stats, proof) = Solver::new(cnf.clone()).solve_certified(Budget::new());
            assert!(result.is_unsat(), "php({}, {holes})", holes + 1);
            let proof = proof.expect("certified solve returns the log");
            assert!(proof.is_concluded());
            assert_eq!(stats.proof_steps as usize, proof.n_steps());
            let check = crate::drat::check(&cnf, &proof)
                .unwrap_or_else(|e| panic!("php({}, {holes}) proof rejected: {e}", holes + 1));
            assert_eq!(check.additions + check.deletions + 1, proof.n_steps());
        }
    }

    #[test]
    fn sat_solve_leaves_proof_unconcluded() {
        let cnf = pigeonhole(4, 4);
        let (result, _, proof) = Solver::new(cnf.clone()).solve_certified(Budget::new());
        assert!(result.is_sat());
        let proof = proof.expect("log present");
        assert!(!proof.is_concluded());
        assert_eq!(
            crate::drat::check(&cnf, &proof),
            Err(crate::drat::DratError::NoEmptyClause)
        );
    }

    #[test]
    fn cancelled_solve_yields_unknown_and_uncheckable_proof() {
        use crate::CancellationToken;

        let token = CancellationToken::new();
        token.cancel();
        let cnf = pigeonhole(8, 7);
        let (result, stats, proof) =
            Solver::new(cnf.clone()).solve_certified(Budget::new().with_cancellation(token));
        assert_eq!(result, SatResult::Unknown);
        assert!(stats.cancelled);
        let proof = proof.expect("log present even when aborted");
        assert!(!proof.is_concluded());
        assert!(crate::drat::check(&cnf, &proof).is_err());
    }

    #[test]
    fn proof_step_budget_returns_unknown() {
        let cnf = pigeonhole(9, 8);
        let (result, stats, proof) =
            Solver::new(cnf).solve_certified(Budget::new().with_max_proof_steps(10));
        assert_eq!(result, SatResult::Unknown);
        assert!(stats.proof_steps >= 10);
        assert!(!proof.expect("log present").is_concluded());
    }

    #[test]
    fn proofs_with_db_reduction_still_check() {
        // Large enough to cross the 4000-conflict reduce_db threshold, so
        // the proof contains deletion steps the checker must undo.
        let cnf = pigeonhole(8, 7);
        let (result, stats, proof) = Solver::new(cnf.clone()).solve_certified(Budget::new());
        assert!(result.is_unsat());
        let proof = proof.expect("log present");
        if stats.deleted_clauses == 0 {
            // Deletions are what this test is about; the instance must be
            // hard enough to trigger at least one reduction.
            panic!("php(8,7) no longer triggers reduce_db; grow the instance");
        }
        let check = crate::drat::check(&cnf, &proof).expect("proof with deletions checks");
        assert!(check.deletions > 0);
        assert!(check.core_additions <= check.additions);
    }

    #[test]
    fn file_proof_writer_output_reparses_and_checks() {
        let cnf = pigeonhole(5, 4);
        let dir = std::env::temp_dir().join("mm-sat-proof-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("php54-{}.drat", std::process::id()));
        let writer = crate::FileProofWriter::create(&path).expect("create proof file");
        let (result, _, writer) = Solver::new(cnf.clone())
            .with_proof_writer(Box::new(writer))
            .solve_logged(Budget::new());
        assert!(result.is_unsat());
        let writer = writer
            .expect("writer returned")
            .into_any()
            .downcast::<crate::FileProofWriter>()
            .expect("concrete type");
        assert!(writer.steps_written() > 0);
        writer.finish().expect("no sticky I/O error");
        let text = std::fs::read_to_string(&path).expect("proof file readable");
        let proof = DratProof::parse(&text).expect("file round-trips");
        crate::drat::check(&cnf, &proof).expect("file-backed proof checks");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn luby_sequence_prefix() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..expected.len() as u64).map(luby).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn at_most_one_chain_propagates() {
        // A long implication chain mixed with an exactly-one block exercises
        // binary propagation, learning and backtracking together.
        let mut cnf = CnfFormula::new();
        let chain = lits(&mut cnf, 50);
        for w in chain.windows(2) {
            cnf.add_clause([!w[0], w[1]]);
        }
        let block = lits(&mut cnf, 10);
        cnf.exactly_one(&block, crate::ExactlyOne::Pairwise);
        cnf.add_clause([chain[0]]);
        cnf.add_clause([!chain[49], block[3]]);
        match Solver::new(cnf).solve() {
            SatResult::Sat(m) => {
                assert!(m.value(block[3]));
                assert_eq!(block.iter().filter(|&&b| m.value(b)).count(), 1);
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn stats_are_populated() {
        let cnf = pigeonhole(6, 5);
        let (result, stats) = Solver::new(cnf).solve_with_budget(Budget::new());
        assert!(result.is_unsat());
        assert!(stats.conflicts > 0);
        assert!(stats.propagations > 0);
        assert!(stats.solve_time.as_nanos() > 0);
    }

    #[test]
    fn assumptions_drive_reusable_solves() {
        // x1 -> x2 -> x3, plus (!x3 or x4).
        let mut cnf = CnfFormula::new();
        let x = lits(&mut cnf, 4);
        cnf.add_clause([!x[0], x[1]]);
        cnf.add_clause([!x[1], x[2]]);
        cnf.add_clause([!x[2], x[3]]);
        let mut solver = Solver::new(cnf);

        match solver.solve_under_assumptions(&[x[0]], Budget::new()) {
            SatResult::Sat(m) => {
                assert!(m.value(x[0]) && m.value(x[1]) && m.value(x[2]) && m.value(x[3]));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
        // The same solver answers a contradictory assumption set.
        let result = solver.solve_under_assumptions(&[x[0], !x[3]], Budget::new());
        assert_eq!(result, SatResult::Unsat);
        let failed = solver.failed_assumptions().to_vec();
        assert!(!failed.is_empty());
        for l in &failed {
            assert!([x[0], !x[3]].contains(l), "failed set must be a subset");
        }
        // And is still usable afterwards, including with no assumptions.
        assert!(solver.solve_under_assumptions(&[], Budget::new()).is_sat());
    }

    #[test]
    fn base_unsat_is_sticky_and_failed_set_is_empty() {
        let mut cnf = CnfFormula::new();
        let a = cnf.new_lit();
        let b = cnf.new_lit();
        cnf.add_clause([a, b]);
        cnf.add_clause([a, !b]);
        cnf.add_clause([!a, b]);
        cnf.add_clause([!a, !b]);
        let mut solver = Solver::new(cnf);
        assert_eq!(
            solver.solve_under_assumptions(&[a], Budget::new()),
            SatResult::Unsat
        );
        // The conflict is rooted at level 0, so no assumption is blamed …
        assert!(solver.failed_assumptions().is_empty());
        // … and the refutation is remembered across calls.
        assert_eq!(
            solver.solve_under_assumptions(&[], Budget::new()),
            SatResult::Unsat
        );
    }

    #[test]
    fn post_solve_add_clause_constrains_later_calls() {
        let mut cnf = CnfFormula::new();
        let x = lits(&mut cnf, 3);
        cnf.add_clause([x[0], x[1], x[2]]);
        let mut solver = Solver::new(cnf);
        assert!(solver.solve_under_assumptions(&[], Budget::new()).is_sat());
        solver.add_clause(&[!x[0]]);
        solver.add_clause(&[!x[1]]);
        match solver.solve_under_assumptions(&[], Budget::new()) {
            SatResult::Sat(m) => {
                assert!(!m.value(x[0]) && !m.value(x[1]) && m.value(x[2]));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
        solver.add_clause(&[!x[2]]);
        assert!(solver
            .solve_under_assumptions(&[], Budget::new())
            .is_unsat());
    }

    #[test]
    fn unsat_under_assumptions_leaves_formula_satisfiable() {
        // php(n, n) is SAT, but assuming two pigeons share a hole is not.
        let cnf = pigeonhole(3, 3);
        let mut solver = Solver::new(cnf);
        let p0h0 = Var::from_index(0).positive();
        let p1h0 = Var::from_index(3).positive();
        assert_eq!(
            solver.solve_under_assumptions(&[p0h0, p1h0], Budget::new()),
            SatResult::Unsat
        );
        let failed = solver.failed_assumptions().to_vec();
        assert!(!failed.is_empty());
        assert!(failed.iter().all(|l| [p0h0, p1h0].contains(l)));
        match solver.solve_under_assumptions(&[p0h0], Budget::new()) {
            SatResult::Sat(m) => {
                assert!(m.value(p0h0));
                assert!(!m.value(p1h0));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn repeated_assumption_solves_accumulate_stats() {
        let cnf = pigeonhole(6, 5);
        let mut solver = Solver::new(cnf);
        // UNSAT regardless of (consistent) assumptions, with learning
        // shared between the calls.
        assert!(solver
            .solve_under_assumptions(&[], Budget::new())
            .is_unsat());
        let after_first = solver.stats();
        assert!(after_first.conflicts > 0);
        assert!(solver
            .solve_under_assumptions(&[], Budget::new())
            .is_unsat());
        let after_second = solver.stats();
        assert!(after_second.solve_time >= after_first.solve_time);
        assert!(after_second.conflicts >= after_first.conflicts);
    }

    #[test]
    fn per_call_conflict_budget_is_not_consumed_by_earlier_calls() {
        let cnf = pigeonhole(7, 6);
        let mut solver = Solver::new(cnf);
        // Burn well past 10 conflicts solving to completion …
        assert!(solver
            .solve_under_assumptions(&[], Budget::new())
            .is_unsat());
        assert!(solver.stats().conflicts > 10);
        // … and a later tiny budget still gets its own 10 conflicts
        // (UNSAT is remembered, so this returns instantly — the point is
        // it must not claim Unknown from a pre-exhausted budget).
        let result = solver.solve_under_assumptions(&[], Budget::new().with_max_conflicts(10));
        assert_eq!(result, SatResult::Unsat);
    }

    #[test]
    fn telemetry_counter_totals_equal_stats() {
        use mm_telemetry::{MemorySink, RunReport};
        use std::sync::Arc;

        let sink = Arc::new(MemorySink::new());
        let telemetry = Telemetry::new(sink.clone());
        let cnf = pigeonhole(6, 5);
        let (result, stats) = Solver::new(cnf)
            .with_telemetry(telemetry.clone())
            .solve_with_budget(Budget::new());
        assert!(result.is_unsat());

        // Sampled emission batches deltas, but the final flush makes the
        // totals exact regardless of how many polls happened.
        let report = RunReport::from_events(&sink.snapshot());
        assert_eq!(report.counter("solver.conflicts"), stats.conflicts);
        assert_eq!(report.counter("solver.propagations"), stats.propagations);
        assert_eq!(report.counter("solver.decisions"), stats.decisions);
        assert_eq!(report.counter("solver.restarts"), stats.restarts);
        // Enabling telemetry turns the poll guard on even with no budget.
        assert!(stats.cancel_polls > 0);
    }
}
