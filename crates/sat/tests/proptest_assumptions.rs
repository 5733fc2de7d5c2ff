//! Property-based validation of assumption-based incremental solving.
//!
//! `Solver::solve_under_assumptions` is the path every one-shot solve runs
//! through (with no assumptions); the ladder no longer passes any. Three
//! semantic contracts pin what the assumption prefix does:
//!
//! 1. SAT under assumptions ⇒ the returned model satisfies every clause
//!    *and* every assumption.
//! 2. UNSAT under assumptions ⇒ the formula stays UNSAT when the
//!    assumptions are added as unit clauses to a fresh one-shot solver
//!    (i.e. "UNSAT under assumptions" is never an artifact of solver
//!    reuse).
//! 3. The failed-assumption set is a genuine subset of the assumptions,
//!    and is itself already incompatible: formula + failed-set units is
//!    UNSAT on its own.
//!
//! A fourth property checks the reuse story end to end: a solver answering
//! a whole sequence of assumption sets agrees call-by-call with fresh
//! cold solvers given the assumptions as units.

use mm_sat::{Budget, CnfFormula, Lit, SatResult, Solver, Var};
use proptest::prelude::*;

/// A random clause set over `n_vars` variables, as (var, polarity) pairs.
fn clauses_strategy(n_vars: u32) -> impl Strategy<Value = Vec<Vec<(u32, bool)>>> {
    let clause = prop::collection::vec((0..n_vars, any::<bool>()), 1..=4);
    prop::collection::vec(clause, 1..50)
}

/// A random assumption set over the same variables (may contain duplicates
/// and contradictory pairs — the solver must cope with both).
fn assumptions_strategy(n_vars: u32) -> impl Strategy<Value = Vec<(u32, bool)>> {
    prop::collection::vec((0..n_vars, any::<bool>()), 0..=6)
}

fn build(n_vars: u32, raw: &[Vec<(u32, bool)>]) -> (CnfFormula, Vec<Vec<Lit>>) {
    let mut cnf = CnfFormula::new();
    cnf.reserve_vars(n_vars);
    let mut list = Vec::new();
    for c in raw {
        let clause: Vec<Lit> = c
            .iter()
            .map(|&(v, pos)| Var::from_index(v).lit(pos))
            .collect();
        list.push(clause.clone());
        cnf.add_clause(clause);
    }
    (cnf, list)
}

fn to_lits(raw: &[(u32, bool)]) -> Vec<Lit> {
    raw.iter()
        .map(|&(v, pos)| Var::from_index(v).lit(pos))
        .collect()
}

/// One-shot ground truth: the formula with `units` added as unit clauses.
fn cold_solve_with_units(cnf: &CnfFormula, units: &[Lit]) -> SatResult {
    let mut hardened = cnf.clone();
    for &l in units {
        hardened.add_unit(l);
    }
    Solver::new(hardened).solve()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn assumption_verdicts_match_unit_clause_verdicts(
        raw in clauses_strategy(9),
        asm in assumptions_strategy(9),
    ) {
        let (cnf, clauses) = build(9, &raw);
        let assumptions = to_lits(&asm);
        let expected = cold_solve_with_units(&cnf, &assumptions);

        let mut solver = Solver::new(cnf.clone());
        match solver.solve_under_assumptions(&assumptions, Budget::new()) {
            SatResult::Sat(m) => {
                prop_assert!(expected.is_sat(), "incremental SAT but units-solve UNSAT");
                for c in &clauses {
                    prop_assert!(c.iter().any(|&l| m.value(l)), "model violates a clause");
                }
                for &a in &assumptions {
                    prop_assert!(m.value(a), "model violates assumption {a:?}");
                }
            }
            SatResult::Unsat => {
                prop_assert!(expected.is_unsat(), "incremental UNSAT but units-solve SAT");
            }
            SatResult::Unknown => prop_assert!(false, "no budget was set"),
        }
    }

    #[test]
    fn failed_assumptions_are_an_unsat_subset(
        raw in clauses_strategy(8),
        asm in assumptions_strategy(8),
    ) {
        let (cnf, _) = build(8, &raw);
        let assumptions = to_lits(&asm);
        let mut solver = Solver::new(cnf.clone());
        if solver.solve_under_assumptions(&assumptions, Budget::new()) == SatResult::Unsat {
            let failed = solver.failed_assumptions().to_vec();
            for l in &failed {
                prop_assert!(
                    assumptions.contains(l),
                    "failed literal {l:?} is not among the assumptions"
                );
            }
            // The failed subset alone must already refute the formula.
            prop_assert!(
                cold_solve_with_units(&cnf, &failed).is_unsat(),
                "failed-assumption set is not a refuting core"
            );
        }
    }

    #[test]
    fn solver_reuse_agrees_with_cold_solves_across_a_sequence(
        raw in clauses_strategy(8),
        asm_seq in prop::collection::vec(assumptions_strategy(8), 1..4),
    ) {
        let (cnf, _) = build(8, &raw);
        let mut warm = Solver::new(cnf.clone());
        for asm in &asm_seq {
            let assumptions = to_lits(asm);
            let warm_verdict = warm
                .solve_under_assumptions(&assumptions, Budget::new())
                .is_sat();
            let cold_verdict = cold_solve_with_units(&cnf, &assumptions).is_sat();
            prop_assert!(warm_verdict == cold_verdict, "warm/cold divergence");
        }
    }
}
