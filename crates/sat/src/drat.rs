//! DRAT proofs and a from-scratch backward proof checker.
//!
//! An UNSAT answer from the CDCL solver is only as trustworthy as the
//! solver's code. This module removes the solver from the trusted base:
//! with proof logging on, every learnt clause and every database deletion
//! is recorded as a [`ProofStep`], and [`check`] independently verifies
//! that the recorded derivation really ends in the empty clause.
//!
//! The checker implements the classic *backward* scheme of `drat-trim`:
//!
//! 1. a forward pass replays additions/deletions to build the clause
//!    database active at the point the empty clause is claimed;
//! 2. the empty clause is verified by unit propagation (RUP: reverse unit
//!    propagation), marking the clauses of the conflict derivation *core*;
//! 3. walking the proof backwards, each addition is removed from the
//!    database and — only if it was marked core by a later check — itself
//!    RUP-verified, lazily marking its own antecedents core. Deletion
//!    steps are undone by re-activating the clause.
//!
//! Lazy core marking means redundant learnt clauses (ones no later
//! derivation depends on) are never propagated over, which is the main
//! cost saving of backward over forward checking.
//!
//! The checker accepts the RUP fragment of DRAT, and everything `mm-sat`
//! emits lands in that fragment by construction:
//!
//! * every first-UIP learnt clause, minimized or not, is RUP with respect
//!   to the clauses alive when it was learnt;
//! * inprocessing (`solver/inprocess.rs`) stays inside the fragment too —
//!   a vivified or self-subsumption-strengthened clause is exactly what
//!   unit propagation proved, so it is RUP; and subsumption only emits
//!   *deletions*. All rewrites log Add-before-Delete (with level-0 implied
//!   units logged ahead of the first deletion that could depend on them),
//!   so no step ever references a clause the checker has already dropped.
//!
//! Completeness for `mm-sat` proofs is therefore by construction, and
//! soundness needs no assumption about the solver at all —
//! `tests/drat_negative.rs` pins that corrupted inprocessing deletions,
//! fabricated additions, and reordered parent deletions are all rejected.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

use crate::{CnfFormula, Lit, ProofWriter, SatError};

/// One step of a DRAT derivation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofStep {
    /// A clause addition; the empty clause concludes the proof.
    Add(Vec<Lit>),
    /// A clause deletion.
    Delete(Vec<Lit>),
}

/// An in-memory DRAT derivation, usable both as the solver's
/// [`ProofWriter`] backend and as the [`check`] input.
///
/// # Example
///
/// ```
/// use mm_sat::{drat, Budget, CnfFormula, SatResult, Solver};
///
/// let mut cnf = CnfFormula::new();
/// let a = cnf.new_lit();
/// let b = cnf.new_lit();
/// cnf.add_clause([a, b]);
/// cnf.add_clause([a, !b]);
/// cnf.add_clause([!a, b]);
/// cnf.add_clause([!a, !b]);
/// let (result, _, proof) = Solver::new(cnf.clone()).solve_certified(Budget::new());
/// assert_eq!(result, SatResult::Unsat);
/// let proof = proof.expect("certified solve always returns the log");
/// assert!(proof.is_concluded());
/// drat::check(&cnf, &proof).expect("solver proofs pass the checker");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DratProof {
    steps: Vec<ProofStep>,
    concluded: bool,
}

impl DratProof {
    /// An empty derivation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a proof from explicit steps (mainly for tests and tooling);
    /// the proof counts as concluded iff it contains an empty addition.
    pub fn from_steps(steps: Vec<ProofStep>) -> Self {
        let concluded = steps
            .iter()
            .any(|s| matches!(s, ProofStep::Add(lits) if lits.is_empty()));
        Self { steps, concluded }
    }

    /// The recorded steps, in emission order.
    pub fn steps(&self) -> &[ProofStep] {
        &self.steps
    }

    /// Total number of steps (additions + deletions).
    pub fn n_steps(&self) -> usize {
        self.steps.len()
    }

    /// Whether the derivation reached the empty clause. A cancelled or
    /// budget-exhausted solve leaves this `false`, and [`check`] rejects
    /// such a proof.
    pub fn is_concluded(&self) -> bool {
        self.concluded
    }

    /// Serializes to the textual DRAT format understood by external
    /// checkers (`drat-trim`, `gratgen`).
    pub fn to_drat_string(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for step in &self.steps {
            let lits = match step {
                ProofStep::Add(lits) => lits,
                ProofStep::Delete(lits) => {
                    out.push_str("d ");
                    lits
                }
            };
            for &l in lits {
                let _ = write!(out, "{} ", l.to_dimacs());
            }
            out.push_str("0\n");
        }
        out
    }

    /// Parses textual DRAT: one step per line, `d`-prefixed deletions,
    /// `0`-terminated DIMACS literals, `c` comments.
    ///
    /// # Errors
    ///
    /// Returns [`SatError::ParseDimacs`] for malformed tokens, a missing
    /// terminator, or trailing literals after the terminator.
    pub fn parse(text: &str) -> Result<Self, SatError> {
        let mut steps = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('c') {
                continue;
            }
            let (is_delete, body) = match line.strip_prefix('d') {
                Some(rest) => (true, rest),
                None => (false, line),
            };
            let mut lits = Vec::new();
            let mut terminated = false;
            for token in body.split_whitespace() {
                if terminated {
                    return Err(SatError::ParseDimacs {
                        line: lineno + 1,
                        reason: "literals after the 0 terminator".into(),
                    });
                }
                let value: i64 = token.parse().map_err(|_| SatError::ParseDimacs {
                    line: lineno + 1,
                    reason: format!("invalid literal token {token:?}"),
                })?;
                if value == 0 {
                    terminated = true;
                } else {
                    lits.push(
                        Lit::from_dimacs(value).ok_or_else(|| SatError::ParseDimacs {
                            line: lineno + 1,
                            reason: format!("literal {value} out of range"),
                        })?,
                    );
                }
            }
            if !terminated {
                return Err(SatError::ParseDimacs {
                    line: lineno + 1,
                    reason: "proof step is not 0-terminated".into(),
                });
            }
            steps.push(if is_delete {
                ProofStep::Delete(lits)
            } else {
                ProofStep::Add(lits)
            });
        }
        Ok(Self::from_steps(steps))
    }
}

// Serde uses the textual DRAT form: it is the interchange format external
// checkers already understand, round-trips exactly through
// [`DratProof::parse`], and keeps `CallRecord` (which embeds an optional
// proof) derivable without exposing `ProofStep` internals as JSON.
impl serde::Serialize for DratProof {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.to_drat_string())
    }
}

impl serde::Deserialize for DratProof {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Str(text) => DratProof::parse(text)
                .map_err(|e| serde::Error::msg(format!("invalid DRAT text: {e}"))),
            _ => Err(serde::Error::msg("expected DRAT text string")),
        }
    }
}

impl ProofWriter for DratProof {
    fn add_clause(&mut self, lits: &[Lit]) {
        self.steps.push(ProofStep::Add(lits.to_vec()));
    }

    fn delete_clause(&mut self, lits: &[Lit]) {
        self.steps.push(ProofStep::Delete(lits.to_vec()));
    }

    fn conclude_unsat(&mut self) {
        self.steps.push(ProofStep::Add(Vec::new()));
        self.concluded = true;
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// Why a proof was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DratError {
    /// The proof never adds the empty clause — typical of a truncated file
    /// or a cancelled solve.
    NoEmptyClause,
    /// A step references a variable the formula does not have.
    LiteralOutOfRange {
        /// 0-based index of the offending step.
        step: usize,
    },
    /// A deletion names a clause that is not currently in the database.
    DeleteUnknownClause {
        /// 0-based index of the offending step.
        step: usize,
    },
    /// An addition (or the final empty clause) is not derivable by unit
    /// propagation from the clauses active at that point.
    NotRup {
        /// 0-based index of the offending step.
        step: usize,
    },
}

impl fmt::Display for DratError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoEmptyClause => {
                write!(f, "proof does not derive the empty clause (truncated?)")
            }
            Self::LiteralOutOfRange { step } => {
                write!(f, "step {step} references a variable outside the formula")
            }
            Self::DeleteUnknownClause { step } => {
                write!(
                    f,
                    "step {step} deletes a clause that is not in the database"
                )
            }
            Self::NotRup { step } => {
                write!(
                    f,
                    "step {step} is not a reverse-unit-propagation consequence"
                )
            }
        }
    }
}

impl Error for DratError {}

/// Work counters of one [`check`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct CheckStats {
    /// Clause additions in the (truncated) proof.
    pub additions: usize,
    /// Clause deletions in the (truncated) proof.
    pub deletions: usize,
    /// Additions that were core-marked and therefore RUP-verified.
    pub core_additions: usize,
    /// Unit propagations performed across all RUP checks.
    pub propagations: u64,
    /// Wall-clock time of the check.
    pub check_time: Duration,
}

/// How a forward-pass step resolved against the clause database.
enum Resolved {
    Add(usize),
    Delete(usize),
}

const UNASSIGNED: i8 = 0;

struct Checker {
    /// Clause literals, indexed by clause id (originals first, then proof
    /// additions in step order).
    lits: Vec<Vec<Lit>>,
    active: Vec<bool>,
    core: Vec<bool>,
    /// `watches[l.code()]` lists clauses (len ≥ 2) watching literal `l`.
    watches: Vec<Vec<usize>>,
    /// Ids of every unit clause ever created; activity is checked at use.
    units: Vec<usize>,
    assign: Vec<i8>,
    reason: Vec<Option<usize>>,
    trail: Vec<Lit>,
    seen: Vec<bool>,
    propagations: u64,
}

impl Checker {
    fn new(n_vars: usize) -> Self {
        Self {
            lits: Vec::new(),
            active: Vec::new(),
            core: Vec::new(),
            watches: vec![Vec::new(); 2 * n_vars],
            units: Vec::new(),
            assign: vec![UNASSIGNED; n_vars],
            reason: vec![None; n_vars],
            trail: Vec::new(),
            seen: vec![false; n_vars],
            propagations: 0,
        }
    }

    fn add_record(&mut self, lits: Vec<Lit>) -> usize {
        debug_assert!(!lits.is_empty());
        let id = self.lits.len();
        if lits.len() >= 2 {
            self.watches[lits[0].code() as usize].push(id);
            self.watches[lits[1].code() as usize].push(id);
        } else {
            self.units.push(id);
        }
        self.lits.push(lits);
        self.active.push(true);
        self.core.push(false);
        id
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

    fn enqueue(&mut self, l: Lit, reason: Option<usize>) {
        debug_assert_eq!(self.value(l), UNASSIGNED);
        let v = l.var().index() as usize;
        self.assign[v] = if l.is_positive() { 1 } else { -1 };
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Two-watched-literal unit propagation over the active clauses;
    /// returns a conflicting clause id if one arises.
    fn propagate(&mut self) -> Option<usize> {
        let mut qhead = 0;
        while qhead < self.trail.len() {
            let p = self.trail[qhead];
            qhead += 1;
            let false_lit = !p;
            let fcode = false_lit.code() as usize;
            let mut i = 0;
            'watches: while i < self.watches[fcode].len() {
                let cid = self.watches[fcode][i];
                if !self.active[cid] {
                    i += 1;
                    continue;
                }
                if self.lits[cid][0] == false_lit {
                    self.lits[cid].swap(0, 1);
                }
                debug_assert_eq!(self.lits[cid][1], false_lit);
                let first = self.lits[cid][0];
                if self.value(first) == 1 {
                    i += 1;
                    continue;
                }
                for k in 2..self.lits[cid].len() {
                    let cand = self.lits[cid][k];
                    if self.value(cand) != -1 {
                        self.lits[cid].swap(1, k);
                        self.watches[cand.code() as usize].push(cid);
                        self.watches[fcode].swap_remove(i);
                        continue 'watches;
                    }
                }
                if self.value(first) == -1 {
                    return Some(cid);
                }
                self.propagations += 1;
                self.enqueue(first, Some(cid));
                i += 1;
            }
        }
        None
    }

    /// Marks `cid` and, transitively, every reason clause of the current
    /// trail that contributed to it, as core.
    fn mark_core(&mut self, cid: usize) {
        self.core[cid] = true;
        let mut stack = self.lits[cid].clone();
        let mut touched = Vec::new();
        while let Some(l) = stack.pop() {
            let v = l.var().index() as usize;
            if self.seen[v] {
                continue;
            }
            self.seen[v] = true;
            touched.push(v);
            if let Some(rid) = self.reason[v] {
                self.core[rid] = true;
                stack.extend_from_slice(&self.lits[rid]);
            }
        }
        for v in touched {
            self.seen[v] = false;
        }
    }

    /// RUP check: is a conflict derivable by unit propagation after
    /// assuming the negation of every literal in `clause`? On success the
    /// conflict's antecedents are core-marked. The trail is fully undone
    /// either way.
    fn rup(&mut self, clause: &[Lit]) -> bool {
        debug_assert!(self.trail.is_empty());
        // `Some(Some(id))` = conflict on clause `id`; `Some(None)` =
        // conflict among the assumptions alone (a tautological clause).
        let mut conflict: Option<Option<usize>> = None;
        for &l in clause {
            match self.value(!l) {
                1 => {}
                -1 => {
                    conflict = Some(None);
                    break;
                }
                _ => self.enqueue(!l, None),
            }
        }
        if conflict.is_none() {
            for idx in 0..self.units.len() {
                let uid = self.units[idx];
                if !self.active[uid] {
                    continue;
                }
                let u = self.lits[uid][0];
                match self.value(u) {
                    1 => {}
                    -1 => {
                        conflict = Some(Some(uid));
                        break;
                    }
                    _ => self.enqueue(u, Some(uid)),
                }
            }
        }
        if conflict.is_none() {
            conflict = self.propagate().map(Some);
        }
        let derived = conflict.is_some();
        if let Some(Some(cid)) = conflict {
            self.mark_core(cid);
        }
        for i in 0..self.trail.len() {
            let v = self.trail[i].var().index() as usize;
            self.assign[v] = UNASSIGNED;
            self.reason[v] = None;
        }
        self.trail.clear();
        derived
    }
}

fn sorted_key(lits: &[Lit]) -> Vec<Lit> {
    let mut key = lits.to_vec();
    key.sort_unstable_by_key(|l| l.code());
    key
}

/// Verifies that `proof` is a valid DRAT (RUP fragment) refutation of
/// `cnf`, using backward checking with lazy core marking.
///
/// The proof must contain an empty-clause addition; steps after the first
/// one are ignored, exactly like `drat-trim`.
///
/// # Errors
///
/// Returns a [`DratError`] describing the first step that fails, or
/// [`DratError::NoEmptyClause`] when the derivation never concludes (e.g.
/// a truncated file, or a solve that was cancelled mid-run).
pub fn check(cnf: &CnfFormula, proof: &DratProof) -> Result<CheckStats, DratError> {
    let start = Instant::now();
    let n_vars = cnf.n_vars() as usize;
    let mut checker = Checker::new(n_vars);
    let mut stats = CheckStats::default();

    // Clause-shape index for deletion matching: sorted literals → ids of
    // active clauses with that shape (multiset semantics).
    let mut shapes: HashMap<Vec<Lit>, Vec<usize>> = HashMap::new();
    for clause in cnf.clauses() {
        let id = checker.add_record(clause.clone());
        shapes.entry(sorted_key(clause)).or_default().push(id);
    }

    // Forward pass: replay the derivation up to the empty clause.
    let mut resolved: Vec<Resolved> = Vec::new();
    let mut empty_at = None;
    for (s, step) in proof.steps().iter().enumerate() {
        match step {
            ProofStep::Add(lits) => {
                if lits.is_empty() {
                    empty_at = Some(s);
                    break;
                }
                if lits.iter().any(|l| l.var().index() as usize >= n_vars) {
                    return Err(DratError::LiteralOutOfRange { step: s });
                }
                let id = checker.add_record(lits.clone());
                shapes.entry(sorted_key(lits)).or_default().push(id);
                resolved.push(Resolved::Add(id));
                stats.additions += 1;
            }
            ProofStep::Delete(lits) => {
                if lits.iter().any(|l| l.var().index() as usize >= n_vars) {
                    return Err(DratError::LiteralOutOfRange { step: s });
                }
                let id = shapes
                    .get_mut(&sorted_key(lits))
                    .and_then(Vec::pop)
                    .ok_or(DratError::DeleteUnknownClause { step: s })?;
                checker.active[id] = false;
                resolved.push(Resolved::Delete(id));
                stats.deletions += 1;
            }
        }
    }
    let empty_at = empty_at.ok_or(DratError::NoEmptyClause)?;

    // The claimed empty clause must follow from the final database.
    if !checker.rup(&[]) {
        return Err(DratError::NotRup { step: empty_at });
    }

    // Backward pass: peel additions off, verifying the core ones against
    // exactly the database that was active when they were derived.
    for s in (0..empty_at).rev() {
        match resolved[s] {
            Resolved::Add(id) => {
                checker.active[id] = false;
                if checker.core[id] {
                    stats.core_additions += 1;
                    let clause = checker.lits[id].clone();
                    if !checker.rup(&clause) {
                        return Err(DratError::NotRup { step: s });
                    }
                }
            }
            Resolved::Delete(id) => checker.active[id] = true,
        }
    }

    stats.propagations = checker.propagations;
    stats.check_time = start.elapsed();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: i64) -> Lit {
        Lit::from_dimacs(v).expect("non-zero")
    }

    /// x1, ¬x1: empty clause is RUP with no derivation steps.
    #[test]
    fn contradictory_units_need_no_steps() {
        let mut cnf = CnfFormula::new();
        let a = cnf.new_lit();
        cnf.add_clause([a]);
        cnf.add_clause([!a]);
        let proof = DratProof::from_steps(vec![ProofStep::Add(Vec::new())]);
        let stats = check(&cnf, &proof).expect("trivially refutable");
        assert_eq!(stats.additions, 0);
    }

    #[test]
    fn hand_built_rup_chain_checks() {
        // (a ∨ b)(a ∨ ¬b)(¬a ∨ b)(¬a ∨ ¬b): derive (a), then empty.
        let cnf = crate::dimacs::parse("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n").unwrap();
        let proof = DratProof::from_steps(vec![
            ProofStep::Add(vec![lit(1)]),
            ProofStep::Add(Vec::new()),
        ]);
        let stats = check(&cnf, &proof).expect("valid RUP chain");
        assert_eq!(stats.core_additions, 1);
    }

    #[test]
    fn non_rup_addition_is_rejected() {
        // (1 ∨ 2)(1 ∨ ¬2) implies 1, so the formula is SAT and (¬1) is not
        // RUP — assuming 1 satisfies both clauses with no conflict. The
        // empty clause *is* RUP once (¬1) is (bogusly) in the database,
        // which core-marks (¬1); the backward pass must then reject it.
        let cnf = crate::dimacs::parse("p cnf 2 2\n1 2 0\n1 -2 0\n").unwrap();
        let proof = DratProof::from_steps(vec![
            ProofStep::Add(vec![lit(-1)]),
            ProofStep::Add(Vec::new()),
        ]);
        assert_eq!(check(&cnf, &proof), Err(DratError::NotRup { step: 0 }));
    }

    #[test]
    fn non_core_bogus_addition_is_ignored_like_drat_trim() {
        // A redundant (even bogus) lemma that no later step depends on is
        // never verified — the lazy-core contract, matching drat-trim.
        let cnf = crate::dimacs::parse("p cnf 2 3\n1 0\n-1 2 0\n-1 -2 0\n").unwrap();
        let proof = DratProof::from_steps(vec![
            ProofStep::Add(vec![lit(-1), lit(2)]), // duplicate, harmless
            ProofStep::Add(Vec::new()),
        ]);
        // Empty clause conflicts via unit (1) and the *original* clauses;
        // whether the duplicate gets core-marked is resolution-order luck,
        // but the proof must check either way.
        check(&cnf, &proof).expect("redundant lemma never invalidates a proof");
    }

    #[test]
    fn unconcluded_proof_is_rejected() {
        let cnf = crate::dimacs::parse("p cnf 1 2\n1 0\n-1 0\n").unwrap();
        let proof = DratProof::new();
        assert_eq!(check(&cnf, &proof), Err(DratError::NoEmptyClause));
    }

    #[test]
    fn delete_of_unknown_clause_is_rejected() {
        let cnf = crate::dimacs::parse("p cnf 1 2\n1 0\n-1 0\n").unwrap();
        let proof = DratProof::from_steps(vec![
            ProofStep::Delete(vec![lit(1), lit(-1)]),
            ProofStep::Add(Vec::new()),
        ]);
        assert_eq!(
            check(&cnf, &proof),
            Err(DratError::DeleteUnknownClause { step: 0 })
        );
    }

    #[test]
    fn deleting_a_needed_clause_breaks_the_proof() {
        let cnf = crate::dimacs::parse("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n").unwrap();
        let proof = DratProof::from_steps(vec![
            ProofStep::Delete(vec![lit(-1), lit(2)]),
            ProofStep::Delete(vec![lit(-1), lit(-2)]),
            ProofStep::Add(vec![lit(1)]),
            ProofStep::Add(Vec::new()),
        ]);
        // With both ¬1-clauses deleted, (1) is still RUP? Assuming ¬1
        // propagates 2 (from 1 2) and ¬2 (from 1 -2): conflict, so (1) is
        // fine — but the empty clause then needs a conflict from {1 2,
        // 1 -2, 1}: assigning 1 satisfies everything. Rejected at the end.
        assert!(matches!(
            check(&cnf, &proof),
            Err(DratError::NotRup { step: 3 })
        ));
    }

    #[test]
    fn drat_text_round_trip() {
        let proof = DratProof::from_steps(vec![
            ProofStep::Add(vec![lit(1), lit(-2)]),
            ProofStep::Delete(vec![lit(1), lit(-2)]),
            ProofStep::Add(Vec::new()),
        ]);
        let text = proof.to_drat_string();
        assert_eq!(text, "1 -2 0\nd 1 -2 0\n0\n");
        let parsed = DratProof::parse(&text).expect("round trip");
        assert_eq!(parsed, proof);
        assert!(parsed.is_concluded());
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(DratProof::parse("1 2\n").is_err(), "missing terminator");
        assert!(DratProof::parse("1 x 0\n").is_err(), "bad token");
        assert!(DratProof::parse("1 0 2\n").is_err(), "trailing literal");
        let ok = DratProof::parse("c comment\n\nd 1 0\n0\n").expect("comments and blanks");
        assert_eq!(ok.n_steps(), 2);
    }

    #[test]
    fn literal_out_of_range_is_rejected() {
        let cnf = crate::dimacs::parse("p cnf 1 2\n1 0\n-1 0\n").unwrap();
        let proof = DratProof::from_steps(vec![
            ProofStep::Add(vec![lit(5)]),
            ProofStep::Add(Vec::new()),
        ]);
        assert_eq!(
            check(&cnf, &proof),
            Err(DratError::LiteralOutOfRange { step: 0 })
        );
    }
}
