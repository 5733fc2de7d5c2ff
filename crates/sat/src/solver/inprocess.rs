//! Inprocessing: clause-database simplification at restart boundaries.
//!
//! A pass runs in three phases, all at decision level 0:
//!
//! 1. **Vivification** — each candidate clause is temporarily detached and
//!    its literals' negations are asserted one by one with real unit
//!    propagation. A conflict, an implied literal, or a falsified literal
//!    shrinks the clause in place.
//! 2. **Subsumption / self-subsuming resolution** — the live database
//!    (long clauses *and* the binary implication layer) is snapshotted into
//!    a working set with occurrence lists; subsumed clauses are dropped and
//!    self-subsuming resolutions strengthen clauses.
//! 3. **Rebuild** — watches and binary lists are reconstructed from the
//!    surviving set and the whole trail is re-propagated from scratch,
//!    restoring every solver invariant.
//!
//! # DRAT coverage
//!
//! Every step is logged so `--certify` keeps checking:
//!
//! - Implied level-0 literals are logged as unit additions *before* any
//!   deletion can remove the clauses that derive them (each unit is RUP:
//!   its negation propagates to a conflict along the recorded reasons).
//! - A vivified or strengthened clause is a subset of a clause still in
//!   the database, with every dropped literal falsified by unit
//!   propagation from the asserted negations — RUP by construction. The
//!   candidate is detached during the probe precisely so the derivation
//!   never passes through the clause being rewritten.
//! - Additions are always emitted before the deletions they justify, and
//!   deletions are emitted for exact clauses previously in the database
//!   (the checker matches sorted literal multisets).
//!
//! Subsumption and plain deletion only ever *remove* clauses, which can
//! never invalidate a later RUP derivation recorded by the solver, because
//! the solver's own database shrinks in lockstep with the proof's.
//!
//! Every rewrite is equivalence-preserving and no pass takes a variable
//! out of the search, so assumptions, clause-bus imports and models need
//! no special handling.

use super::{Clause, Reason, Solver, Watch, UNASSIGNED};
use crate::{Budget, Lit};

/// Max candidate clauses probed by vivification per pass.
const VIVIFY_MAX_CLAUSES: usize = 256;
/// Max trail pushes vivification may spend per pass.
const VIVIFY_PROP_BUDGET: usize = 20_000;
/// Max subsumption candidate comparisons per pass.
const SUBSUME_CHECK_BUDGET: usize = 200_000;

/// A snapshotted clause in the phase-2 working set. Literals are sorted
/// by code and deduplicated, which makes subset tests linear-time.
struct WorkClause {
    lits: Vec<Lit>,
    learnt: bool,
    activity: f32,
    lbd: u32,
    removed: bool,
    sig: u64,
}

/// 64-bit variable-set signature: `sig(a) & !sig(b) != 0` proves `a ⊄ b`
/// over variables, pruning most subset tests in one AND.
fn var_sig(lits: &[Lit]) -> u64 {
    lits.iter()
        .fold(0u64, |s, l| s | 1u64 << (l.var().index() % 64))
}

/// Binary-search membership in a code-sorted literal slice.
fn contains(sorted: &[Lit], l: Lit) -> bool {
    sorted.binary_search_by_key(&l.code(), |x| x.code()).is_ok()
}

enum Check {
    /// `base` subsumes the candidate outright.
    Subsumed,
    /// Self-subsuming resolution: the candidate can drop this literal.
    Strengthen(Lit),
    None,
}

/// Does `base` subsume `other`, or strengthen it by one literal?
fn subsume_check(base: &[Lit], other: &[Lit]) -> Check {
    let mut strengthen: Option<Lit> = None;
    for &l in base {
        if contains(other, l) {
            continue;
        }
        if strengthen.is_none() && contains(other, !l) {
            strengthen = Some(!l);
            continue;
        }
        return Check::None;
    }
    match strengthen {
        Some(l) => Check::Strengthen(l),
        None => Check::Subsumed,
    }
}

impl Solver {
    /// Runs an inprocessing pass if the budget allows it and enough
    /// conflicts have accumulated since the last one. Called at call entry
    /// and at every restart, always at decision level 0.
    pub(super) fn maybe_inprocess(&mut self, budget: &Budget) {
        if !budget.inprocess() || !self.ok {
            return;
        }
        if self.stats.conflicts < self.next_inprocess {
            return;
        }
        self.inprocess_now();
        // Geometric back-off keeps inprocessing a vanishing fraction of
        // total search effort on long runs.
        self.inprocess_interval = self.inprocess_interval.saturating_mul(3) / 2;
        self.next_inprocess = self.stats.conflicts + self.inprocess_interval;
    }

    /// Runs one full inprocessing pass immediately.
    ///
    /// Public as a deterministic hook for tests and tools; normal solving
    /// schedules passes automatically at restart boundaries. Must be
    /// called at decision level 0 (between solve calls qualifies).
    pub fn inprocess_now(&mut self) {
        assert_eq!(
            self.current_level(),
            0,
            "inprocessing only runs at decision level 0"
        );
        if !self.ok {
            return;
        }
        if self.propagate().is_some() {
            self.ok = false;
            return;
        }
        self.log_level0_units();
        self.vivify();
        if self.ok {
            // Vivification's trailing propagate can derive further level-0
            // facts; log them while their reason clauses are still alive,
            // before phase 2 deletes any clause that derives them.
            self.log_level0_units();
            self.subsume_and_rebuild();
        }
    }

    /// Emits unit additions for implied level-0 literals not yet logged.
    ///
    /// Must run before any deletion that could remove a deriving clause:
    /// afterwards the units carry the facts in the proof database
    /// themselves, so the derivers become deletable.
    fn log_level0_units(&mut self) {
        if self.proof.is_none() {
            self.l0_units_logged = self.trail.len();
            return;
        }
        for i in self.l0_units_logged..self.trail.len() {
            let l = self.trail[i];
            // Decision-reason level-0 literals are original or previously
            // logged unit clauses — already in the proof database.
            if !matches!(self.reason[l.var().index() as usize], Reason::Decision) {
                self.proof_add(&[l]);
            }
        }
        self.l0_units_logged = self.trail.len();
    }

    /// Removes this clause's two watch entries (positions 0 and 1).
    fn detach_watches(&mut self, idx: usize) {
        for k in 0..2 {
            let l = self.clauses[idx].lits[k];
            let ws = &mut self.watches[l.code() as usize];
            if let Some(p) = ws.iter().position(|w| w.clause as usize == idx) {
                ws.swap_remove(p);
            }
        }
    }

    /// Re-adds watch entries on the clause's first two literals.
    fn attach_watches(&mut self, idx: usize) {
        let (l0, l1) = (self.clauses[idx].lits[0], self.clauses[idx].lits[1]);
        self.watches[l0.code() as usize].push(Watch {
            clause: idx as u32,
            blocker: l1,
        });
        self.watches[l1.code() as usize].push(Watch {
            clause: idx as u32,
            blocker: l0,
        });
    }

    /// Phase 1: clause vivification with the solver's own propagation.
    fn vivify(&mut self) {
        let n = self.clauses.len();
        if n == 0 {
            return;
        }
        let mut prop_budget = VIVIFY_PROP_BUDGET;
        let mut examined = 0usize;
        // Rotate the starting point across passes so long databases get
        // full coverage over time (deterministic: driven by the conflict
        // counter, not a clock).
        let start = self.stats.conflicts as usize % n;
        let mut step = 0usize;
        while step < n && examined < VIVIFY_MAX_CLAUSES && prop_budget > 0 && self.ok {
            let idx = (start + step) % n;
            step += 1;
            if self.clauses[idx].deleted || self.clauses[idx].lits.len() < 3 {
                continue;
            }
            examined += 1;
            self.vivify_one(idx, &mut prop_budget);
        }
        if self.ok && self.propagate().is_some() {
            self.ok = false;
        }
    }

    /// Probes one clause. On a successful shrink the old clause is deleted
    /// and the shortened one installed (as a unit, binary, or new long
    /// clause).
    fn vivify_one(&mut self, idx: usize, prop_budget: &mut usize) {
        let lits = self.clauses[idx].lits.clone();
        // Detach for the probe: the clause must not propagate in its own
        // test, and the shrunk clause must be RUP without it.
        self.detach_watches(idx);

        let mut kept: Vec<Lit> = Vec::with_capacity(lits.len());
        let mut satisfied_at_top = false;
        let mut conclusive = false; // conflict or implied literal
        let mut dropped = false;
        let mut exhausted = false;
        self.trail_lim.push(self.trail.len()); // one probe level
        for &l in &lits {
            match self.value(l) {
                1 => {
                    if self.level[l.var().index() as usize] == 0 {
                        // Permanently satisfied: delete instead of shrink.
                        satisfied_at_top = true;
                    } else {
                        // The asserted prefix implies `l`: the clause
                        // shrinks to the prefix plus `l`.
                        kept.push(l);
                        conclusive = true;
                    }
                    break;
                }
                -1 => {
                    // Falsified (at level 0 or by the prefix): drop it.
                    dropped = true;
                }
                _ => {
                    kept.push(l);
                    self.enqueue(!l, Reason::Decision);
                    let before = self.trail.len();
                    let conflict = self.propagate().is_some();
                    *prop_budget = prop_budget.saturating_sub(self.trail.len() - before + 1);
                    if conflict {
                        conclusive = true;
                        break;
                    }
                    if *prop_budget == 0 {
                        exhausted = true;
                        break;
                    }
                }
            }
        }
        self.backtrack_to(0);

        if satisfied_at_top {
            let old = std::mem::take(&mut self.clauses[idx].lits);
            self.proof_delete(&old);
            self.clauses[idx].deleted = true;
            return;
        }
        // A shrink is only valid when the probe finished its case
        // analysis: a conflict / implied literal is conclusive on its own,
        // dropped literals need the whole clause examined.
        let valid = (conclusive || (dropped && !exhausted)) && kept.len() < lits.len();
        if !valid || kept.is_empty() {
            self.attach_watches(idx);
            return;
        }

        self.stats.vivified_clauses += 1;
        self.proof_add(&kept);
        let old = std::mem::take(&mut self.clauses[idx].lits);
        self.proof_delete(&old);
        self.clauses[idx].deleted = true;
        match kept.len() {
            1 => match self.value(kept[0]) {
                -1 => self.ok = false,
                UNASSIGNED => {
                    self.enqueue(kept[0], Reason::Decision);
                    if self.propagate().is_some() {
                        self.ok = false;
                    } else {
                        // The cascade's facts must enter the proof before a
                        // later probe deletes a deriving clause as
                        // satisfied-at-top; reasons are intact right here.
                        self.log_level0_units();
                    }
                }
                _ => {}
            },
            2 => {
                self.bin_implications[kept[0].code() as usize].push(kept[1]);
                self.bin_implications[kept[1].code() as usize].push(kept[0]);
            }
            _ => {
                let learnt = self.clauses[idx].learnt;
                let activity = self.clauses[idx].activity;
                let lbd = self.clauses[idx].lbd.min(kept.len() as u32);
                let new_idx = self.clauses.len() as u32;
                self.watches[kept[0].code() as usize].push(Watch {
                    clause: new_idx,
                    blocker: kept[1],
                });
                self.watches[kept[1].code() as usize].push(Watch {
                    clause: new_idx,
                    blocker: kept[0],
                });
                self.clauses.push(Clause {
                    lits: kept,
                    learnt,
                    deleted: false,
                    activity,
                    lbd,
                });
            }
        }
    }

    /// Phase 2 + 3: snapshot, subsume/strengthen, rebuild.
    fn subsume_and_rebuild(&mut self) {
        debug_assert_eq!(self.current_level(), 0);
        let mut work: Vec<WorkClause> = Vec::with_capacity(self.clauses.len());

        // ---- snapshot long clauses, simplified against the trail ----
        for idx in 0..self.clauses.len() {
            if self.clauses[idx].deleted {
                continue;
            }
            let lits = self.clauses[idx].lits.clone();
            let mut satisfied = false;
            let mut reduced: Vec<Lit> = Vec::with_capacity(lits.len());
            for &l in &lits {
                match self.value(l) {
                    1 => {
                        satisfied = true;
                        break;
                    }
                    -1 => {}
                    _ => reduced.push(l),
                }
            }
            if satisfied {
                self.proof_delete(&lits);
                continue;
            }
            reduced.sort_by_key(|l| l.code());
            reduced.dedup();
            // Same-variable neighbours after sort+dedup = tautology.
            if reduced.windows(2).any(|w| w[0].var() == w[1].var()) {
                self.proof_delete(&lits);
                continue;
            }
            debug_assert!(reduced.len() >= 2, "watch invariant: ≥2 unassigned lits");
            if reduced.len() < lits.len() {
                self.proof_add(&reduced);
                self.proof_delete(&lits);
            }
            let sig = var_sig(&reduced);
            work.push(WorkClause {
                lits: reduced,
                learnt: self.clauses[idx].learnt,
                activity: self.clauses[idx].activity,
                lbd: self.clauses[idx].lbd,
                removed: false,
                sig,
            });
        }

        // ---- snapshot the binary layer (deduplicated) ----
        let mut bins: Vec<(Lit, Lit)> = Vec::new();
        for code in 0..self.bin_implications.len() {
            let l = Lit::from_code(code as u32);
            for &p in &self.bin_implications[code] {
                if l.code() < p.code() {
                    bins.push((l, p));
                }
            }
        }
        bins.sort_by_key(|&(a, b)| (a.code(), b.code()));
        let mut prev: Option<(Lit, Lit)> = None;
        for (a, b) in bins {
            if prev == Some((a, b)) {
                // Duplicate copy of the same binary: delete the extra.
                self.proof_delete(&[a, b]);
                continue;
            }
            prev = Some((a, b));
            if self.value(a) == 1 || self.value(b) == 1 || a.var() == b.var() {
                // Satisfied at level 0, or the tautology (x ∨ ¬x).
                self.proof_delete(&[a, b]);
                continue;
            }
            work.push(WorkClause {
                lits: vec![a, b],
                learnt: false,
                activity: 0.0,
                lbd: 2,
                removed: false,
                sig: var_sig(&[a, b]),
            });
        }

        // ---- occurrence lists ----
        let mut occ: Vec<Vec<usize>> = vec![Vec::new(); 2 * self.n_vars];
        for (i, wc) in work.iter().enumerate() {
            for &l in &wc.lits {
                occ[l.code() as usize].push(i);
            }
        }

        // ---- forward subsumption + self-subsuming resolution ----
        let mut steps = SUBSUME_CHECK_BUDGET;
        let initial = work.len();
        let mut queue: std::collections::VecDeque<usize> = (0..initial).collect();
        let mut queued: Vec<bool> = vec![true; initial];
        'queue: while let Some(i) = queue.pop_front() {
            if steps == 0 || !self.ok {
                break;
            }
            queued[i] = false;
            if work[i].removed {
                continue;
            }
            let base = work[i].lits.clone();
            let base_sig = work[i].sig;
            // Scan the sparsest variable's occurrence lists, both
            // polarities: that covers every subsumption and every
            // self-subsuming resolution `base` can justify.
            let best = base
                .iter()
                .copied()
                .min_by_key(|l| occ[l.code() as usize].len() + occ[(!*l).code() as usize].len())
                .expect("work clauses are non-empty");
            for polarity in [best, !best] {
                for k in 0..occ[polarity.code() as usize].len() {
                    let j = occ[polarity.code() as usize][k];
                    if j == i || work[j].removed {
                        continue;
                    }
                    if work[j].lits.len() < base.len() || base_sig & !work[j].sig != 0 {
                        continue;
                    }
                    steps = steps.saturating_sub(1);
                    if steps == 0 {
                        break 'queue;
                    }
                    match subsume_check(&base, &work[j].lits) {
                        Check::Subsumed => {
                            // Subsuming an irredundant clause makes the
                            // subsumer irredundant: it now carries the
                            // constraint alone.
                            if !work[j].learnt {
                                work[i].learnt = false;
                            }
                            let old = std::mem::take(&mut work[j].lits);
                            work[j].removed = true;
                            self.proof_delete(&old);
                            self.stats.subsumed_clauses += 1;
                        }
                        Check::Strengthen(drop_lit) => {
                            let mut new_lits = work[j].lits.clone();
                            new_lits.retain(|&x| x != drop_lit);
                            if !new_lits.is_empty() {
                                self.proof_add(&new_lits);
                            }
                            self.proof_delete(&work[j].lits);
                            self.stats.strengthened_clauses += 1;
                            match new_lits.len() {
                                0 => {
                                    work[j].removed = true;
                                    self.ok = false;
                                    break 'queue;
                                }
                                1 => {
                                    work[j].removed = true;
                                    self.work_assign_unit(new_lits[0], &mut work, &mut occ);
                                    // The cascade may have rewritten
                                    // anything, including `base`; start
                                    // over from the queue.
                                    if !queued[i] && !work[i].removed {
                                        queued[i] = true;
                                        queue.push_back(i);
                                    }
                                    continue 'queue;
                                }
                                _ => {
                                    work[j].lits = new_lits;
                                    work[j].sig = var_sig(&work[j].lits);
                                    if !queued[j] {
                                        queued[j] = true;
                                        queue.push_back(j);
                                    }
                                }
                            }
                        }
                        Check::None => {}
                    }
                }
            }
        }

        if !self.ok {
            // UNSAT was derived mid-phase: the emitted proof is complete
            // and consistent, and no further search will read the
            // database, so skip the rebuild.
            return;
        }

        // ---- rebuild watches and binary lists from the survivors ----
        self.clauses.clear();
        for ws in &mut self.watches {
            ws.clear();
        }
        for bs in &mut self.bin_implications {
            bs.clear();
        }
        for wc in work.into_iter().filter(|w| !w.removed) {
            debug_assert!(wc.lits.len() >= 2);
            debug_assert!(
                wc.lits.iter().all(|&l| self.value(l) == UNASSIGNED),
                "survivors are fully simplified against the trail"
            );
            if wc.lits.len() == 2 {
                self.bin_implications[wc.lits[0].code() as usize].push(wc.lits[1]);
                self.bin_implications[wc.lits[1].code() as usize].push(wc.lits[0]);
            } else {
                let idx = self.clauses.len() as u32;
                self.watches[wc.lits[0].code() as usize].push(Watch {
                    clause: idx,
                    blocker: wc.lits[1],
                });
                self.watches[wc.lits[1].code() as usize].push(Watch {
                    clause: idx,
                    blocker: wc.lits[0],
                });
                self.clauses.push(Clause {
                    lits: wc.lits,
                    learnt: wc.learnt,
                    deleted: false,
                    activity: wc.activity,
                    lbd: wc.lbd,
                });
            }
        }
        // Old clause indices are gone; level-0 facts need no live reason
        // (conflict analysis never dereferences level-0 reasons).
        for k in 0..self.trail.len() {
            let v = self.trail[k].var().index() as usize;
            self.reason[v] = Reason::Decision;
        }
        // Re-propagate the whole trail to restore the watch invariant and
        // surface any conflict the rewrite made explicit.
        self.qhead = 0;
        if self.propagate().is_some() {
            self.ok = false;
        }
    }

    /// Assigns a derived unit at level 0 and simplifies the working set
    /// against it (and any units that cascade from that).
    ///
    /// The caller has already emitted the unit's addition to the proof.
    fn work_assign_unit(&mut self, unit: Lit, work: &mut [WorkClause], occ: &mut [Vec<usize>]) {
        let mut pending = vec![unit];
        while let Some(l) = pending.pop() {
            match self.value(l) {
                1 => continue,
                -1 => {
                    self.ok = false;
                    return;
                }
                _ => self.enqueue(l, Reason::Decision),
            }
            // Clauses containing `l` are satisfied.
            for k in 0..occ[l.code() as usize].len() {
                let j = occ[l.code() as usize][k];
                if work[j].removed || !contains(&work[j].lits, l) {
                    continue;
                }
                let old = std::mem::take(&mut work[j].lits);
                work[j].removed = true;
                self.proof_delete(&old);
            }
            // Clauses containing `¬l` lose that literal.
            let neg = !l;
            for k in 0..occ[neg.code() as usize].len() {
                let j = occ[neg.code() as usize][k];
                if work[j].removed || !contains(&work[j].lits, neg) {
                    continue;
                }
                let mut new_lits = work[j].lits.clone();
                new_lits.retain(|&x| x != neg);
                if !new_lits.is_empty() {
                    self.proof_add(&new_lits);
                }
                self.proof_delete(&work[j].lits);
                match new_lits.len() {
                    0 => {
                        work[j].removed = true;
                        self.ok = false;
                        return;
                    }
                    1 => {
                        work[j].removed = true;
                        pending.push(new_lits[0]);
                    }
                    _ => {
                        work[j].lits = new_lits;
                        work[j].sig = var_sig(&work[j].lits);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{drat, Budget, CnfFormula, DratProof, Solver};

    #[test]
    fn subsumption_drops_a_duplicate_clause() {
        let mut cnf = CnfFormula::new();
        let (a, b, c) = {
            let v = cnf.new_lits(3);
            (v[0], v[1], v[2])
        };
        // An exact duplicate is the one redundancy vivification cannot
        // shrink away first, so it must fall to subsumption.
        cnf.add_clause([a, b, c]);
        cnf.add_clause([a, b, c]);
        cnf.add_clause([!a, !b, c]);
        let mut solver = Solver::new(cnf);
        solver.inprocess_now();
        assert!(solver.stats().subsumed_clauses >= 1, "{}", solver.stats());
        assert!(solver.solve().is_sat());
    }

    #[test]
    fn self_subsuming_resolution_strengthens() {
        let mut cnf = CnfFormula::new();
        let v = cnf.new_lits(4);
        let (a, b, c, d) = (v[0], v[1], v[2], v[3]);
        // (a b c) and (¬a b c) strengthen each other to (b c); the d
        // clauses keep every variable live.
        cnf.add_clause([a, b, c]);
        cnf.add_clause([!a, b, c]);
        cnf.add_clause([a, !b, d]);
        cnf.add_clause([!a, !c, !d]);
        let mut solver = Solver::new(cnf);
        solver.inprocess_now();
        assert!(
            solver.stats().strengthened_clauses >= 1,
            "{}",
            solver.stats()
        );
        assert!(solver.solve().is_sat());
    }

    #[test]
    fn vivification_shrinks_an_implied_clause() {
        let mut cnf = CnfFormula::new();
        let v = cnf.new_lits(5);
        let (a, b, c, d, e) = (v[0], v[1], v[2], v[3], v[4]);
        // ¬a → b, so (a b c) vivifies to (a b). Extra clauses keep the
        // database from collapsing to nothing before the probe runs.
        cnf.add_clause([a, b]);
        cnf.add_clause([a, b, c]);
        cnf.add_clause([c, d, e]);
        cnf.add_clause([!c, !d, e]);
        cnf.add_clause([!a, !b, !e]);
        let mut solver = Solver::new(cnf);
        solver.inprocess_now();
        assert!(solver.stats().vivified_clauses >= 1, "{}", solver.stats());
        assert!(solver.solve().is_sat());
    }

    #[test]
    fn inprocessed_pigeonhole_proof_checks() {
        // PHP(3,2): 3 pigeons, 2 holes — UNSAT. The pass runs with the
        // proof log attached, so every rewrite lands in the proof and the
        // backward checker must still accept the final refutation.
        let mut cnf = CnfFormula::new();
        let p: Vec<Vec<crate::Lit>> = (0..3).map(|_| cnf.new_lits(2)).collect();
        for row in &p {
            cnf.add_clause(row.clone());
        }
        for h in 0..2 {
            for i in 0..3 {
                for j in (i + 1)..3 {
                    cnf.add_clause([!p[i][h], !p[j][h]]);
                }
            }
        }
        let mut solver = Solver::new(cnf.clone()).with_proof_writer(Box::<DratProof>::default());
        solver.inprocess_now();
        let (result, _, proof) = solver.solve_certified(Budget::new());
        assert!(result.is_unsat());
        let proof = proof.expect("log present");
        assert!(proof.is_concluded());
        drat::check(&cnf, &proof).expect("inprocessed refutation must check");
    }

    #[test]
    fn vivify_cascade_facts_reach_the_proof_before_their_derivers_die() {
        // Vivifying (a b c) against the binaries (a x)(a ¬x) shrinks it to
        // the unit [a], whose propagation derives d through the long
        // clause (¬a ¬u d). A later probe in the same pass then deletes
        // that deriver as satisfied-at-top, and the probe after it shrinks
        // (¬d e f) to [e] — an addition that is RUP only if the fact d
        // entered the proof while its deriver was still alive. The
        // pigeonhole test cannot catch this: its clauses are all binary,
        // so vivification never shrinks anything there.
        let mut cnf = CnfFormula::new();
        let v = cnf.new_lits(8);
        let (u, a, x, b, c, d, e, f) = (v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]);
        cnf.add_clause([u]);
        cnf.add_clause([a, x]);
        cnf.add_clause([a, !x]);
        cnf.add_clause([a, b, c]); // vivifies to the unit [a]
        cnf.add_clause([!a, !u, d]); // derives d when a lands, then dies
        cnf.add_clause([!d, e, f]);
        cnf.add_clause([!d, e, !f]);
        cnf.add_clause([!d, !e, f]);
        cnf.add_clause([!d, !e, !f]);
        let mut solver = Solver::new(cnf.clone()).with_proof_writer(Box::<DratProof>::default());
        solver.inprocess_now();
        assert!(solver.stats().vivified_clauses >= 1, "{}", solver.stats());
        let (result, _, proof) = solver.solve_certified(Budget::new());
        assert!(result.is_unsat());
        let proof = proof.expect("log present");
        assert!(proof.is_concluded());
        drat::check(&cnf, &proof).expect("cascade-derived units must be in the proof");
    }

    #[test]
    fn pass_is_deterministic() {
        let mk = || {
            let mut cnf = CnfFormula::new();
            let v = cnf.new_lits(6);
            for w in v.windows(3) {
                cnf.add_clause([w[0], w[1], w[2]]);
                cnf.add_clause([!w[0], w[1], !w[2]]);
            }
            cnf.add_clause([v[0], !v[5]]);
            let mut s = Solver::new(cnf);
            s.inprocess_now();
            let (verdict, stats) = s.solve_with_budget(Budget::new());
            (verdict.is_sat(), stats)
        };
        let (r1, s1) = mk();
        let (r2, s2) = mk();
        assert_eq!(r1, r2);
        assert_eq!(s1.subsumed_clauses, s2.subsumed_clauses);
        assert_eq!(s1.strengthened_clauses, s2.strengthened_clauses);
        assert_eq!(s1.vivified_clauses, s2.vivified_clauses);
        assert_eq!(s1.conflicts, s2.conflicts);
    }
}
