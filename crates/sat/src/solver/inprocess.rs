//! Inprocessing: clause-database simplification at restart boundaries.
//!
//! A pass runs in two phases, both at decision level 0, and rewrites the
//! database in place on stable clause indices:
//!
//! 1. **Vivification** — each candidate clause is temporarily detached and
//!    its literals' negations are asserted one by one with real unit
//!    propagation. A conflict, an implied literal, or a falsified literal
//!    shrinks the clause in place.
//! 2. **Subsumption / self-subsuming resolution** — incremental. The level-0
//!    facts found since the previous pass first simplify the database:
//!    satisfied clauses become tombstones and falsified literals (never
//!    watched ones) are stripped. Then the clauses added or shortened since
//!    the previous pass serve as bases that subsume or strengthen the rest;
//!    next, the older clauses are checked against those new ones; last
//!    come the candidates an earlier pass's budget did not reach. Pairs of
//!    old clauses are never checked again. The occurrence lists behind
//!    these checks persist across passes: each pass indexes only the long
//!    clauses appended since the last one.
//!
//! Strengthening re-attaches the clause's watches (a watch's blocker may be
//! the removed literal); a clause that shrinks to two literals moves to the
//! binary layer; a derived unit is propagated from the current queue head.
//! Tombstones are reclaimed by compacting the clause vector once they
//! outnumber the live learnt clauses; watches, occurrence lists, level-0
//! reasons and queued candidates follow the moved clauses to their new
//! indices.
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
//! out of the search, so assumptions and models need no special handling.

use std::collections::VecDeque;
use std::time::Instant;

use mm_telemetry::kv;

use super::{Reason, Solver, Watch, UNASSIGNED};
use crate::{Budget, Lit};

/// Max candidate clauses probed by vivification per pass.
const VIVIFY_MAX_CLAUSES: usize = 256;
/// Max trail pushes vivification may spend per pass.
const VIVIFY_PROP_BUDGET: usize = 20_000;
/// Max subsumption candidate comparisons per pass: live occurrence entries
/// a base's scan visits, whether or not they pass the signature and length
/// filters, plus one per binary base's lookups. Counting visits rather than
/// filtered pairs bounds the scans themselves, which dominate a pass over a
/// large database (see `scripts/ladder_sweep.py` and EXPERIMENTS.md).
const SUBSUME_CHECK_BUDGET: usize = 200_000;

/// A clause waiting to be used as a subsumption base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Candidate {
    /// The long clause at this index.
    Long(u32),
    /// The binary clause `(a ∨ b)`.
    Binary(Lit, Lit),
}

/// Subsumption state carried from one pass to the next.
#[derive(Debug, Default)]
pub(super) struct SubsumeState {
    /// Whether a pass has run. Until then binaries are not queued one by
    /// one: the first pass takes every binary from the implication lists.
    pub(super) started: bool,
    /// Candidates waiting for a pass: what the last pass's budget left
    /// (the first `carried` entries), then every binary added since and
    /// clauses vivification shortened in place.
    pub(super) queue: VecDeque<Candidate>,
    /// How many leading `queue` entries the previous pass left unchecked.
    carried: usize,
    /// Trail prefix whose literals no live clause mentions any more.
    simp_trail: usize,
    /// `occurs[l.code()]`: the long clauses containing `l`, in increasing
    /// index order. Entries of deleted or shrunk clauses go stale and are
    /// dropped lazily, so every use re-checks the clause.
    occurs: Vec<Vec<u32>>,
    /// [`var_sig`] per indexed clause: a superset of the clause's current
    /// one, or 0 once the clause is deleted. The long clauses past its end
    /// were added since the previous pass (long clauses are append-only
    /// between passes); each pass indexes them.
    sig: Vec<u64>,
}

/// 64-bit variable-set signature. A base can subsume or strengthen a
/// clause only if every variable of the base occurs in the clause, so a
/// base bit missing from the clause's signature rules the pair out. Never
/// 0 for a clause with literals.
fn var_sig(lits: &[Lit]) -> u64 {
    lits.iter()
        .fold(0u64, |s, l| s | 1u64 << (l.var().index() % 64))
}

enum Check {
    /// The base subsumes the other clause outright.
    Subsumed,
    /// Self-subsuming resolution: the other clause can drop this literal.
    Strengthen(Lit),
    None,
}

/// Does the base clause (its literals set in `marks`, `base_len` of them)
/// subsume `other`, or strengthen it by one literal?
///
/// Sound because no clause in the database repeats a literal or holds
/// both polarities of a variable: the `base_len - 1` hits are then exactly
/// the base minus the negation of the one clashing literal.
fn subsume_check(marks: &[bool], base_len: usize, other: &[Lit]) -> Check {
    let mut hits = 0usize;
    let mut clash: Option<Lit> = None;
    for &l in other {
        if marks[l.code() as usize] {
            hits += 1;
        } else if marks[(!l).code() as usize] {
            if clash.is_some() {
                return Check::None;
            }
            clash = Some(l);
        }
    }
    match clash {
        None if hits == base_len => Check::Subsumed,
        Some(l) if hits + 1 == base_len => Check::Strengthen(l),
        _ => Check::None,
    }
}

/// Scratch state of one phase-2 run.
struct PassWork {
    /// `occurs[l]` entries from this position on belong to clauses added
    /// since the previous pass.
    fresh_start: Vec<u32>,
    /// `queued[i]`: long clause `i` is in the candidate queue.
    queued: Vec<bool>,
    /// `marks[l.code()]`: `l` belongs to the current base clause.
    marks: Vec<bool>,
    /// Comparisons left in this pass's budget.
    budget: usize,
    /// Comparisons made.
    checks: u64,
}

impl PassWork {
    /// Spends `n` comparisons of the budget.
    fn charge(&mut self, n: usize) {
        self.budget = self.budget.saturating_sub(n);
        self.checks += n as u64;
    }
}

/// Work counts of one phase-2 run, reported on the `inprocess` span.
#[derive(Debug, Clone, Copy, Default)]
struct SubsumeCounts {
    candidates: u64,
    checks: u64,
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
    ///
    /// With telemetry enabled the pass is recorded as an `inprocess` span
    /// (nested under the caller's open span) carrying its `candidates`,
    /// `checks`, `subsumed`, `strengthened` and `vivified` counts.
    pub fn inprocess_now(&mut self) {
        assert_eq!(
            self.current_level(),
            0,
            "inprocessing only runs at decision level 0"
        );
        if !self.ok {
            return;
        }
        let opened = self.telemetry.is_enabled().then(Instant::now);
        let before = self.stats;
        let counts = self.run_pass();
        if let Some(opened) = opened {
            let s = self.stats;
            self.telemetry.finished_span(
                "inprocess",
                opened,
                vec![
                    kv("candidates", counts.candidates),
                    kv("checks", counts.checks),
                    kv("subsumed", s.subsumed_clauses - before.subsumed_clauses),
                    kv(
                        "strengthened",
                        s.strengthened_clauses - before.strengthened_clauses,
                    ),
                    kv("vivified", s.vivified_clauses - before.vivified_clauses),
                ],
            );
        }
    }

    fn run_pass(&mut self) -> SubsumeCounts {
        if self.propagate().is_some() {
            self.ok = false;
            return SubsumeCounts::default();
        }
        if !self.subsume.started {
            // Every binary so far is a candidate of the first pass; later
            // ones are queued by `add_binary` as they arrive.
            self.subsume.started = true;
            for code in 0..self.bin_implications.len() {
                let a = Lit::from_code(code as u32);
                for k in 0..self.bin_implications[code].len() {
                    let b = self.bin_implications[code][k];
                    if a.code() < b.code() {
                        self.subsume.queue.push_back(Candidate::Binary(a, b));
                    }
                }
            }
        }
        self.log_level0_units();
        self.vivify();
        if !self.ok {
            return SubsumeCounts::default();
        }
        // Vivification's trailing propagate can derive further level-0
        // facts; log them while their reason clauses are still alive,
        // before phase 2 deletes any clause that derives them.
        self.log_level0_units();
        self.subsume()
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

    /// Probes one clause. On a successful shrink the clause is rewritten
    /// in place (or, shrunk to a unit or binary, moved out of the long
    /// clauses) and queued as a subsumption candidate.
    fn vivify_one(&mut self, idx: usize, prop_budget: &mut usize) {
        let len = self.clauses[idx].lits.len();
        // Detach for the probe: the clause must not propagate in its own
        // test, and the shrunk clause must be RUP without it. Detached, its
        // literals stay put while the probe propagates.
        self.detach_watches(idx);

        let mut kept: Vec<Lit> = Vec::with_capacity(len);
        let mut satisfied_at_top = false;
        let mut conclusive = false; // conflict or implied literal
        let mut dropped = false;
        let mut exhausted = false;
        self.trail_lim.push(self.trail.len()); // one probe level
        for k in 0..len {
            let l = self.clauses[idx].lits[k];
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
            self.delete_long(idx);
            return;
        }
        // A shrink is only valid when the probe finished its case
        // analysis: a conflict / implied literal is conclusive on its own,
        // dropped literals need the whole clause examined.
        let valid = (conclusive || (dropped && !exhausted)) && kept.len() < len;
        if !valid || kept.is_empty() {
            self.attach_watches(idx);
            return;
        }

        self.stats.vivified_clauses += 1;
        self.proof_add(&kept);
        if kept.len() >= 3 {
            let old = std::mem::replace(&mut self.clauses[idx].lits, kept);
            self.proof_delete(&old);
            if let Some(sig) = self.subsume.sig.get_mut(idx) {
                *sig = var_sig(&self.clauses[idx].lits);
            }
            let c = &mut self.clauses[idx];
            c.lbd = c.lbd.min(c.lits.len() as u32);
            self.attach_watches(idx);
            self.subsume.queue.push_back(Candidate::Long(idx as u32));
            return;
        }
        self.delete_long(idx);
        if kept.len() == 2 {
            self.add_binary(kept[0], kept[1]);
            return;
        }
        match self.value(kept[0]) {
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
        }
    }

    /// Tombstones a long clause: logs its deletion and frees its literals.
    /// Its watch entries are dropped lazily (by `propagate`) or by
    /// [`compact`](Self::compact), its occurrence entries by the scans.
    fn delete_long(&mut self, idx: usize) {
        let old = std::mem::take(&mut self.clauses[idx].lits);
        self.proof_delete(&old);
        self.mark_deleted(idx);
    }

    /// Marks clause `idx` (its literals already taken) as a tombstone.
    pub(super) fn mark_deleted(&mut self, idx: usize) {
        self.clauses[idx].deleted = true;
        self.dead_clauses += 1;
        if let Some(sig) = self.subsume.sig.get_mut(idx) {
            *sig = 0;
        }
    }

    /// Phase 2: level-0 simplification, then incremental subsumption and
    /// self-subsuming resolution, all in place.
    fn subsume(&mut self) -> SubsumeCounts {
        debug_assert_eq!(self.current_level(), 0);
        let (indexed, n) = (self.subsume.sig.len(), self.clauses.len());
        for i in indexed..n {
            if !self.clauses[i].deleted {
                self.subsume.queue.push_back(Candidate::Long(i as u32));
            }
        }
        if self.subsume.queue.is_empty() && self.subsume.simp_trail == self.trail.len() {
            return SubsumeCounts::default();
        }
        let n_lits = 2 * self.n_vars;
        if self.subsume.occurs.len() != n_lits {
            self.subsume.occurs = vec![Vec::new(); n_lits];
        }
        let fresh_start = self.subsume.occurs.iter().map(|o| o.len() as u32).collect();
        self.index_clauses(indexed, n);
        let mut w = PassWork {
            fresh_start,
            queued: vec![false; n],
            marks: vec![false; 2 * self.n_vars],
            budget: SUBSUME_CHECK_BUDGET,
            checks: 0,
        };
        // Vivification may have queued a clause the watermark queued too.
        let queued = &mut w.queued;
        self.subsume.queue.retain(|c| match *c {
            Candidate::Long(i) => !std::mem::replace(&mut queued[i as usize], true),
            Candidate::Binary(..) => true,
        });
        let candidates = self.subsume.queue.len() as u64;
        let carried = self.subsume.carried.min(self.subsume.queue.len());
        // Clauses new since the previous pass come first, then the old
        // clauses checked against them, then the backlog the previous
        // pass's budget left.
        let mut backlog: VecDeque<Candidate> = self.subsume.queue.drain(..carried).collect();

        self.simplify_level0(&mut w);
        let mut finished = self.drain_queue(&mut w);
        if finished && self.ok {
            finished = self.sweep_old_bases(indexed, &mut w) && self.drain_queue(&mut w);
        }
        while finished && self.ok {
            let Some(cand) = backlog.pop_front() else {
                break;
            };
            if !self.check_candidate(cand, &mut w) {
                backlog.push_front(cand);
                break;
            }
            finished = self.drain_queue(&mut w);
        }
        self.subsume.queue.extend(backlog);
        self.subsume.carried = self.subsume.queue.len();
        // Tombstones are measured against the learnt clauses, the part of
        // the database that turns over: against the whole of it, a large
        // irredundant base would put compaction off indefinitely.
        let live_learnt = self
            .clauses
            .iter()
            .filter(|c| c.learnt && !c.deleted)
            .count();
        if self.ok && self.dead_clauses > live_learnt {
            self.compact();
        }
        SubsumeCounts {
            candidates,
            checks: w.checks,
        }
    }

    /// Uses queued candidates as bases until the queue is empty (`true`) or
    /// the budget runs out (`false`, the unfinished candidate requeued).
    fn drain_queue(&mut self, w: &mut PassWork) -> bool {
        while self.ok {
            let Some(cand) = self.subsume.queue.pop_front() else {
                break;
            };
            if !self.check_candidate(cand, w) {
                // Out of budget: the next pass resumes with this candidate.
                self.subsume.queue.push_front(cand);
                return false;
            }
        }
        true
    }

    fn check_candidate(&mut self, cand: Candidate, w: &mut PassWork) -> bool {
        match cand {
            Candidate::Long(i) => {
                w.queued[i as usize] = false;
                self.subsume_with_long(i as usize, None, w)
            }
            Candidate::Binary(a, b) => self.subsume_with_binary(a, b, w),
        }
    }

    /// Appends long clauses `from..to` to the occurrence lists and
    /// signatures — at the first pass the whole input formula, later the
    /// clauses added since the previous pass.
    fn index_clauses(&mut self, from: usize, to: usize) {
        for i in from..to {
            let c = &self.clauses[i];
            for &l in &c.lits {
                self.subsume.occurs[l.code() as usize].push(i as u32);
            }
            self.subsume.sig.push(var_sig(&c.lits));
        }
    }

    /// Removes every level-0 fact found since the last call from the
    /// database: clauses and binaries it satisfies are deleted, and
    /// literals it falsifies are stripped.
    ///
    /// The trail is fully propagated and logged, so a live clause without a
    /// true literal has both watches unassigned: the stripped literals are
    /// never watched, and no clause shrinks below two literals.
    fn simplify_level0(&mut self, w: &mut PassWork) {
        let (from, to) = (self.subsume.simp_trail, self.trail.len());
        debug_assert_eq!(self.l0_units_logged, to, "facts logged before deletions");
        for k in from..to {
            let t = self.trail[k];
            for pos in 0..self.subsume.occurs[t.code() as usize].len() {
                let j = self.subsume.occurs[t.code() as usize][pos] as usize;
                if !self.clauses[j].deleted && self.clauses[j].lits.contains(&t) {
                    self.delete_long(j);
                }
            }
            // Binaries holding `¬t` are satisfied by their other literal,
            // which propagation has already made true.
            self.delete_binaries_with(t);
            self.delete_binaries_with(!t);
        }
        for k in from..to {
            let f = !self.trail[k];
            for pos in 0..self.subsume.occurs[f.code() as usize].len() {
                let j = self.subsume.occurs[f.code() as usize][pos] as usize;
                if self.clauses[j].deleted {
                    continue;
                }
                if let Some(p) = self.clauses[j].lits.iter().position(|&l| l == f) {
                    debug_assert!(p >= 2, "a falsified watch means a satisfied clause");
                    self.remove_literal(j, p, w);
                }
            }
        }
        self.subsume.simp_trail = to;
    }

    /// Deletes every binary clause containing `l`.
    fn delete_binaries_with(&mut self, l: Lit) {
        let mut partners = std::mem::take(&mut self.bin_implications[l.code() as usize]);
        for &p in &partners {
            let list = &mut self.bin_implications[p.code() as usize];
            if let Some(pos) = list.iter().position(|&x| x == l) {
                list.swap_remove(pos);
            }
            self.proof_delete(&[l, p]);
        }
        partners.clear();
        self.bin_implications[l.code() as usize] = partners;
    }

    /// Uses long clause `i` as a subsumption base: against every clause, or
    /// with `fresh_pivot` only against the clauses added since the previous
    /// pass, through that literal's variable. Returns `false` when the
    /// budget ran out before every target was examined.
    fn subsume_with_long(&mut self, i: usize, fresh_pivot: Option<Lit>, w: &mut PassWork) -> bool {
        if self.clauses[i].deleted {
            return true;
        }
        // Take the base out for the scan; no target is ever `i` itself.
        let base = std::mem::take(&mut self.clauses[i].lits);
        for &l in &base {
            w.marks[l.code() as usize] = true;
        }
        let pivot = fresh_pivot.unwrap_or_else(|| {
            base.iter()
                .copied()
                .min_by_key(|&l| self.var_occurrences(l))
                .expect("long clauses are non-empty")
        });
        let outcome = self.scan_targets(&base, pivot, i, fresh_pivot.is_some(), w);
        for &l in &base {
            w.marks[l.code() as usize] = false;
        }
        self.clauses[i].lits = base;
        match outcome {
            Some(subsumed_irredundant) => {
                // Subsuming an irredundant clause makes the subsumer
                // irredundant: it now carries the constraint alone.
                if subsumed_irredundant {
                    self.clauses[i].learnt = false;
                }
                true
            }
            None => false,
        }
    }

    /// Checks the long clauses older than the previous pass against the
    /// clauses added since (the new clauses were already checked against
    /// them the other way round). Only an old clause whose every variable
    /// occurs in some new clause can subsume or strengthen one; it scans
    /// the new entries of its variable with the fewest of them. Returns
    /// `false` when the budget ran out.
    fn sweep_old_bases(&mut self, indexed: usize, w: &mut PassWork) -> bool {
        let fresh_of_var: Vec<usize> = (0..self.n_vars)
            .map(|v| {
                (2 * v..2 * v + 2)
                    .map(|c| self.subsume.occurs[c].len() - w.fresh_start[c] as usize)
                    .sum()
            })
            .collect();
        let fresh = |l: Lit| fresh_of_var[l.var().index() as usize];
        let mut bases: Vec<(u32, Lit)> = Vec::new();
        for (i, c) in self.clauses[..indexed].iter().enumerate() {
            let pivot = c.lits.iter().copied().min_by_key(|&l| fresh(l));
            if let Some(p) = pivot.filter(|&p| fresh(p) > 0) {
                bases.push((i as u32, p));
            }
        }
        for (i, pivot) in bases {
            if !self.ok || !self.subsume_with_long(i as usize, Some(pivot), w) {
                return false;
            }
        }
        true
    }

    /// Occurrence-list entries of `l`'s variable, both polarities.
    fn var_occurrences(&self, l: Lit) -> usize {
        let occurs = &self.subsume.occurs;
        occurs[l.code() as usize].len() + occurs[(!l).code() as usize].len()
    }

    /// Uses the binary `(a ∨ b)` as a subsumption base: drops duplicate
    /// copies, resolves it with `(¬a ∨ b)` or `(a ∨ ¬b)` into a unit, and
    /// subsumes or strengthens the long clauses over both variables.
    fn subsume_with_binary(&mut self, a: Lit, b: Lit, w: &mut PassWork) -> bool {
        if w.budget == 0 {
            return false;
        }
        // The three lookups below count as one comparison.
        w.charge(1);
        let copies = self.binary_copies(a, b);
        if copies == 0 {
            return true; // deleted since it was queued
        }
        let with_not_a = self.binary_copies(!a, b);
        let with_not_b = self.binary_copies(a, !b);
        for _ in 1..copies {
            for (x, y) in [(a, b), (b, a)] {
                let list = &mut self.bin_implications[x.code() as usize];
                let pos = list.iter().position(|&p| p == y).expect("copy present");
                list.swap_remove(pos);
            }
            self.proof_delete(&[a, b]);
            self.stats.subsumed_clauses += 1;
        }
        let unit = if with_not_a > 0 {
            Some(b)
        } else if with_not_b > 0 {
            Some(a)
        } else {
            None
        };
        if let Some(u) = unit {
            self.proof_add(&[u]);
            self.stats.strengthened_clauses += 1;
            self.assign_unit(u, w);
            return true;
        }
        let pivot = if self.var_occurrences(a) <= self.var_occurrences(b) {
            a
        } else {
            b
        };
        w.marks[a.code() as usize] = true;
        w.marks[b.code() as usize] = true;
        let outcome = self.scan_targets(&[a, b], pivot, usize::MAX, false, w);
        w.marks[a.code() as usize] = false;
        w.marks[b.code() as usize] = false;
        outcome.is_some()
    }

    /// Copies of the binary `(x ∨ y)`, counted in the shorter of its two
    /// implication lists.
    fn binary_copies(&self, x: Lit, y: Lit) -> usize {
        let (xs, ys) = (
            &self.bin_implications[x.code() as usize],
            &self.bin_implications[y.code() as usize],
        );
        let (list, partner) = if xs.len() <= ys.len() {
            (xs, y)
        } else {
            (ys, x)
        };
        list.iter().filter(|&&p| p == partner).count()
    }

    /// Checks the marked `base` against the live long clauses over
    /// `pivot`'s variable; both polarities cover every subsumption and every
    /// self-subsuming resolution the base can justify. Each live entry
    /// visited costs one unit of the budget; entries of deleted clauses met
    /// on the way are dropped from the lists free of charge (each is
    /// dropped once).
    ///
    /// Returns `None` when the budget ran out, otherwise whether an
    /// irredundant clause was subsumed.
    fn scan_targets(
        &mut self,
        base: &[Lit],
        pivot: Lit,
        skip: usize,
        fresh_only: bool,
        w: &mut PassWork,
    ) -> Option<bool> {
        let base_sig = var_sig(base);
        let mut subsumed_irredundant = false;
        for side in [pivot, !pivot] {
            let code = side.code() as usize;
            let len = self.subsume.occurs[code].len();
            let fresh_start = w.fresh_start[code] as usize;
            let from = if fresh_only { fresh_start } else { 0 };
            let (mut read, mut keep) = (from, from);
            let mut dropped_old = 0u32;
            let mut out_of_budget = false;
            while read < len {
                let j = self.subsume.occurs[code][read] as usize;
                let sig = self.subsume.sig[j];
                if sig == 0 {
                    // Deleted: drop the entry.
                    if read < fresh_start {
                        dropped_old += 1;
                    }
                    read += 1;
                    continue;
                }
                if w.budget == 0 {
                    out_of_budget = true;
                    break;
                }
                w.charge(1);
                read += 1;
                self.subsume.occurs[code][keep] = j as u32;
                keep += 1;
                if j == skip || base_sig & !sig != 0 || self.clauses[j].lits.len() < base.len() {
                    continue;
                }
                match subsume_check(&w.marks, base.len(), &self.clauses[j].lits) {
                    Check::Subsumed => {
                        subsumed_irredundant |= !self.clauses[j].learnt;
                        self.delete_long(j);
                        self.stats.subsumed_clauses += 1;
                    }
                    Check::Strengthen(drop) => {
                        let p = self.clauses[j]
                            .lits
                            .iter()
                            .position(|&l| l == drop)
                            .expect("clashing literal is in the clause");
                        self.stats.strengthened_clauses += 1;
                        self.remove_literal(j, p, w);
                    }
                    Check::None => {}
                }
            }
            // Close the gap the dropped entries left.
            let list = &mut self.subsume.occurs[code];
            list.copy_within(read..len, keep);
            list.truncate(keep + len - read);
            w.fresh_start[code] -= dropped_old;
            if out_of_budget {
                return None;
            }
        }
        Some(subsumed_irredundant)
    }

    /// Removes the literal at position `p` of live long clause `j` in
    /// place (the result is RUP) and re-watches the clause: either watch's
    /// blocker may be the removed literal, wherever it sits. A clause left
    /// with two literals moves to the binary layer; a longer one is queued
    /// as a candidate again.
    fn remove_literal(&mut self, j: usize, p: usize, w: &mut PassWork) {
        let stays_long = self.clauses[j].lits.len() > 3;
        if stays_long {
            self.detach_watches(j);
        }
        let mut lits = std::mem::take(&mut self.clauses[j].lits);
        let dropped = lits.swap_remove(p);
        self.proof_add(&lits);
        lits.push(dropped);
        self.proof_delete(&lits);
        lits.pop();
        if !stays_long {
            self.mark_deleted(j);
            self.add_binary(lits[0], lits[1]);
            return;
        }
        self.subsume.sig[j] = var_sig(&lits);
        let c = &mut self.clauses[j];
        c.lits = lits;
        c.lbd = c.lbd.min(c.lits.len() as u32);
        self.attach_watches(j);
        if !w.queued[j] {
            w.queued[j] = true;
            self.subsume.queue.push_back(Candidate::Long(j as u32));
        }
    }

    /// Asserts a derived unit (already logged) at level 0, propagates it
    /// from the current queue head, logs the cascade, and simplifies the
    /// database against the new facts.
    fn assign_unit(&mut self, unit: Lit, w: &mut PassWork) {
        match self.value(unit) {
            1 => return,
            -1 => {
                self.ok = false;
                return;
            }
            _ => self.enqueue(unit, Reason::Decision),
        }
        if self.propagate().is_some() {
            self.ok = false;
            return;
        }
        self.log_level0_units();
        self.simplify_level0(w);
    }

    /// Reclaims tombstones: live clauses move down (their storage moves,
    /// nothing is copied), and watch entries, occurrence lists, level-0
    /// reasons and queued candidates follow them to their new indices.
    fn compact(&mut self) {
        debug_assert_eq!(self.current_level(), 0);
        debug_assert_eq!(self.l0_units_logged, self.trail.len());
        let mut remap = vec![u32::MAX; self.clauses.len()];
        let mut next = 0u32;
        for (i, c) in self.clauses.iter().enumerate() {
            if !c.deleted {
                remap[i] = next;
                next += 1;
            }
        }
        let moved = |i: &mut u32| {
            *i = remap[*i as usize];
            *i != u32::MAX
        };
        self.clauses.retain(|c| !c.deleted);
        self.dead_clauses = 0;
        for ws in &mut self.watches {
            ws.retain_mut(|w| moved(&mut w.clause));
        }
        for list in &mut self.subsume.occurs {
            list.retain_mut(|j| moved(j));
        }
        let mut k = 0;
        self.subsume.sig.retain(|_| {
            k += 1;
            remap[k - 1] != u32::MAX
        });
        self.subsume.queue.retain_mut(|c| match c {
            Candidate::Long(i) => moved(i),
            Candidate::Binary(..) => true,
        });
        for k in 0..self.trail.len() {
            let v = self.trail[k].var().index() as usize;
            if let Reason::Clause(c) = self.reason[v] {
                // Level-0 reasons are never dereferenced; one whose clause
                // is gone (its fact is logged) becomes a plain fact.
                self.reason[v] = match remap[c as usize] {
                    u32::MAX => Reason::Decision,
                    r => Reason::Clause(r),
                };
            }
        }
    }

    /// Verifies the watch invariants of the long clauses: every live clause
    /// has at least three literals and exactly two watch entries, one on
    /// `lits[0]` and one on `lits[1]`, each with a blocker from the clause,
    /// and no live clause is watched through any other literal. Entries of
    /// deleted clauses are allowed (they are dropped lazily).
    ///
    /// A test and tooling hook, O(database); the solver never calls it.
    pub fn check_watches(&self) -> Result<(), String> {
        let mut seen = vec![[false; 2]; self.clauses.len()];
        for (code, ws) in self.watches.iter().enumerate() {
            let l = Lit::from_code(code as u32);
            for w in ws {
                let idx = w.clause as usize;
                let c = self
                    .clauses
                    .get(idx)
                    .ok_or_else(|| format!("watch on {l:?} names clause {idx} out of range"))?;
                if c.deleted {
                    continue;
                }
                let k =
                    c.lits.iter().take(2).position(|&x| x == l).ok_or_else(|| {
                        format!("clause {idx} {:?} watched through {l:?}", c.lits)
                    })?;
                if !c.lits.contains(&w.blocker) {
                    return Err(format!(
                        "clause {idx} {:?} watched on {l:?} with blocker {:?}",
                        c.lits, w.blocker
                    ));
                }
                if std::mem::replace(&mut seen[idx][k], true) {
                    return Err(format!("clause {idx} watched twice on {l:?}"));
                }
            }
        }
        for (idx, c) in self.clauses.iter().enumerate() {
            if c.deleted {
                continue;
            }
            if c.lits.len() < 3 {
                return Err(format!("live long clause {idx} has {:?}", c.lits));
            }
            if seen[idx] != [true, true] {
                return Err(format!("clause {idx} {:?} lacks a watch", c.lits));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use mm_telemetry::{attr, EventKind, MemorySink, RunReport, Telemetry};

    use super::Reason;
    use crate::{drat, Budget, CnfFormula, DratProof, Lit, Solver};

    /// The `[candidates, checks, subsumed, strengthened, vivified]`
    /// attributes of every `inprocess` span recorded in `sink`, in order.
    fn pass_attrs(sink: &MemorySink) -> Vec<[u64; 5]> {
        let mut events = sink.snapshot();
        events.sort_by_key(|e| e.seq);
        events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::SpanOpen { name, attrs, .. } if name == "inprocess" => {
                    let get = |k: &str| attr(attrs, k).and_then(|v| v.as_u64()).expect(k);
                    Some([
                        get("candidates"),
                        get("checks"),
                        get("subsumed"),
                        get("strengthened"),
                        get("vivified"),
                    ])
                }
                _ => None,
            })
            .collect()
    }

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

    #[test]
    fn a_second_pass_without_search_checks_nothing() {
        // Incrementality: every clause was a candidate of the first pass,
        // and nothing was added or shortened since, so the second pass has
        // no candidate, makes no comparison and rewrites nothing.
        let mut cnf = CnfFormula::new();
        let v = cnf.new_lits(4);
        let (a, b, c, d) = (v[0], v[1], v[2], v[3]);
        cnf.add_clause([a, b, c]);
        cnf.add_clause([a, b, c]);
        cnf.add_clause([!a, !b, c]);
        cnf.add_clause([a, !c, d]);
        cnf.add_clause([a, c, d]);
        let sink = Arc::new(MemorySink::new());
        let mut solver = Solver::new(cnf).with_telemetry(Telemetry::new(sink.clone()));
        solver.inprocess_now();
        solver.inprocess_now();
        let passes = pass_attrs(&sink);
        assert_eq!(passes.len(), 2, "one span per pass");
        let [candidates, checks, subsumed, strengthened, _] = passes[0];
        assert!(candidates > 0 && checks > 0, "first pass: {:?}", passes[0]);
        assert!(subsumed + strengthened > 0, "first pass: {:?}", passes[0]);
        assert_eq!(passes[1], [0; 5], "second pass must do nothing");
        solver.check_watches().expect("watch invariant");
        assert!(solver.solve().is_sat());
    }

    #[test]
    fn a_solve_past_the_first_threshold_records_nested_inprocess_spans() {
        // PHP(8,7) needs well over the 1 000 conflicts that schedule the
        // first pass; the pass runs inside the caller's `solve` span.
        let mut cnf = CnfFormula::new();
        let p: Vec<Vec<Lit>> = (0..8).map(|_| cnf.new_lits(7)).collect();
        for row in &p {
            cnf.add_clause(row.clone());
        }
        for h in 0..7 {
            for i in 0..8 {
                for j in (i + 1)..8 {
                    cnf.add_clause([!p[i][h], !p[j][h]]);
                }
            }
        }
        let sink = Arc::new(MemorySink::new());
        let telemetry = Telemetry::new(sink.clone());
        let (result, stats) = {
            let _solve = telemetry.span("solve");
            Solver::new(cnf)
                .with_telemetry(telemetry.clone())
                .solve_with_budget(Budget::new())
        };
        assert!(result.is_unsat());
        assert!(stats.conflicts > 1_000, "{stats}");
        let report = RunReport::from_events(&sink.snapshot());
        let pass = report
            .phase(&["solve", "inprocess"])
            .expect("inprocess span nested under solve");
        assert!(pass.count >= 1);
        assert!(report.phase(&["inprocess"]).is_none(), "never a root span");
        assert_eq!(pass_attrs(&sink).len() as u64, pass.count);
    }

    #[test]
    fn strengthening_away_a_blocker_rewatches_the_clause() {
        // Falsifying x1 at level 1 moves it behind the watches: the clause
        // (x0 x1 x2 x3) reads (x0 x2 x1 x3), and its watch on x0 keeps x1 as
        // the blocker. The base (x0 x2 ¬x1) then strengthens x1 away. A
        // watch left with x1 as its blocker would skip the clause whenever
        // x1 is true, losing its propagations.
        let mut cnf = CnfFormula::new();
        let x = cnf.new_lits(4);
        cnf.add_clause([x[0], x[1], x[2], x[3]]);
        cnf.add_clause([x[0], x[2], !x[1]]);
        let mut solver = Solver::new(cnf);
        solver.trail_lim.push(solver.trail.len());
        solver.enqueue(!x[1], Reason::Decision);
        assert!(solver.propagate().is_none());
        solver.backtrack_to(0);
        assert_eq!(solver.clauses[0].lits, [x[0], x[2], x[1], x[3]]);
        let on_x0 = &solver.watches[x[0].code() as usize];
        assert!(on_x0.iter().any(|w| w.clause == 0 && w.blocker == x[1]));

        solver.subsume();
        assert_eq!(solver.stats().strengthened_clauses, 1);
        assert!(!solver.clauses[0].lits.contains(&x[1]));
        solver
            .check_watches()
            .expect("blockers name clause literals");
        assert!(solver.solve().is_sat());
    }

    #[test]
    fn tombstones_are_compacted_once_they_outnumber_live_learnt_clauses() {
        // The binary (a b) subsumes every long clause containing a and b,
        // leaving tombstones and no learnt clause: the pass compacts them
        // away, and the moved clauses keep their watches and their meaning.
        let mut cnf = CnfFormula::new();
        let v = cnf.new_lits(12);
        let (a, b) = (v[0], v[1]);
        cnf.add_clause([a, b]);
        for w in v[2..].windows(2) {
            cnf.add_clause([a, b, w[0], w[1]]);
        }
        cnf.add_clause([!a, v[2], v[3]]);
        cnf.add_clause([!b, !v[2], v[4]]);
        cnf.add_clause([!a, !b, !v[4]]);
        let mut solver = Solver::new(cnf.clone()).with_proof_writer(Box::<DratProof>::default());
        let before = solver.clauses.len();
        solver.inprocess_now();
        assert!(solver.stats().subsumed_clauses >= 9, "{}", solver.stats());
        assert_eq!(
            solver.dead_clauses, 0,
            "compaction reclaimed every tombstone"
        );
        assert!(solver.clauses.len() < before);
        assert!(solver.clauses.iter().all(|c| !c.deleted));
        solver
            .check_watches()
            .expect("watches follow the moved clauses");
        match solver.solve_certified(Budget::new()).0 {
            crate::SatResult::Sat(model) => {
                for c in cnf.clauses() {
                    assert!(c.iter().any(|&l| model.value(l)), "model violates {c:?}");
                }
            }
            other => panic!("formula is satisfiable, got {other:?}"),
        }
    }
}
