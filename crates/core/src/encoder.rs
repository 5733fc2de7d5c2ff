//! Construction of the CNF formula `Φ(f, N_V, N_R)` (paper Eqs. 4–10).
//!
//! Variable families (paper §III-A):
//!
//! * `l_{j,q}` — literal truth tables (faithful mode only; folded mode
//!   substitutes the constants directly),
//! * `v_{i,q}` — V-op output values, leg-major order,
//! * `r_{i,q}` — R-op output values,
//! * `o_{i,q}` — specified outputs (faithful mode only),
//! * `g^TE_{i,j}`, `g^BE_{·,j}` — V-op electrode connectivity,
//! * `g^In1/In2_{i,j}` — R-op input connectivity over the producer space
//!   (literals, then V-leg results, then preceding R-ops),
//! * `g^O_{i,j}` — output connectivity over the full producer space.
//!
//! One deliberate deviation from the paper's letter: **R-op inputs**
//! connect to a V-*leg's final value* rather than to arbitrary intermediate
//! V-ops. Intermediate values are physically overwritten by the remainder
//! of the leg before any R-op executes, so arbitrary-V-op R-op taps would
//! admit unimplementable schedules; leg-final taps lose no generality
//! because legs can end early with dummy cycles (which the solver is free
//! to synthesize as TE = BE steps). The paper's own decoded example taps
//! "the last V-op V6.3" (§III-B). **Outputs**, by contrast, range over
//! every V-op exactly as in the paper: an intermediate value can be
//! captured by an interleaved readout cycle before the leg overwrites it —
//! this is what makes the adder leg convention `N_L = N_R + N_O − 1` work
//! (the carry output shares a leg with an R-op feed).

#![allow(clippy::needless_range_loop)] // index loops keep paired arrays in lockstep

use std::time::{Duration, Instant};

use mm_boolfn::{Literal, LiteralSet};
use mm_circuit::ROpKind;
use mm_sat::{CnfFormula, Lit};

use crate::{EncodeMode, SharedBe, SynthError, SynthSpec};

/// Size and timing of one encoded formula (the `Vars`/`Clauses` columns of
/// the paper's Table IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct EncodeStats {
    /// Number of CNF variables.
    pub n_vars: u32,
    /// Number of CNF clauses.
    pub n_clauses: usize,
    /// Wall-clock encoding time.
    pub encode_time: Duration,
}

/// A producer's value on one truth-table row: a folded constant or a CNF
/// variable.
#[derive(Debug, Clone, Copy)]
enum Val {
    Const(bool),
    Var(Lit),
}

/// The encoded formula together with the variable map needed for decoding.
#[derive(Debug)]
pub(crate) struct Encoded {
    pub cnf: CnfFormula,
    pub stats: EncodeStats,
    pub map: VarMap,
}

/// Variable handles for decoding a model back into a circuit.
#[derive(Debug)]
pub(crate) struct VarMap {
    /// The admissible literal list, in selector order.
    pub literals: Vec<Literal>,
    /// `g^TE[vop][lit]`.
    pub g_te: Vec<Vec<Lit>>,
    /// `g^BE[step or vop][lit]` (per-step when `SharedBe::PerStepVar`).
    pub g_be: Vec<Vec<Lit>>,
    /// Whether `g_be` is indexed by step (true) or by V-op (false).
    pub be_per_step: bool,
    /// `g^In1[rop][producer]`, `g^In2[rop][producer]`.
    pub g_in: [Vec<Vec<Lit>>; 2],
    /// `g^O[output][producer]`.
    pub g_o: Vec<Vec<Lit>>,
}

/// Number of producers visible to R-op `i`: literals, legs, preceding
/// R-ops.
fn rop_producers(spec: &SynthSpec, n_lit: usize, i: usize) -> usize {
    n_lit + spec.n_legs() + i
}

pub(crate) fn encode(spec: &SynthSpec) -> Result<Encoded, SynthError> {
    let start = Instant::now();
    let f = spec.function();
    let n = f.n_inputs();
    let n_rows = f.n_rows();
    let options = spec.options();

    let literals: Vec<Literal> = match &options.allowed_literals {
        Some(list) => {
            for l in list {
                if let Some(v) = l.variable() {
                    if v == 0 || v > n {
                        return Err(SynthError::InvalidConstraint {
                            reason: format!("literal {l} out of range for {n} inputs"),
                        });
                    }
                }
            }
            list.clone()
        }
        None => LiteralSet::new(n).iter().collect(),
    };
    let n_lit = literals.len();
    if n_lit == 0 {
        return Err(SynthError::InvalidConstraint {
            reason: "allowed literal set must not be empty".into(),
        });
    }
    // Folded literal values: lit_vals[j][q].
    let lit_vals: Vec<Vec<bool>> = literals
        .iter()
        .map(|l| (0..n_rows as u32).map(|q| l.eval(n, q)).collect())
        .collect();

    let mut cnf = CnfFormula::new();
    let faithful = options.mode == EncodeMode::Faithful;

    // Eq. 4: literal variables with unit clauses (faithful mode only).
    let l_vars: Option<Vec<Vec<Lit>>> = faithful.then(|| {
        literals
            .iter()
            .enumerate()
            .map(|(j, _)| {
                (0..n_rows)
                    .map(|q| {
                        let x = cnf.new_lit();
                        cnf.add_unit(if lit_vals[j][q] { x } else { !x });
                        x
                    })
                    .collect()
            })
            .collect()
    });

    let n_vops = spec.n_vops();
    let n_vsteps = spec.n_vsteps();
    let v_vars: Vec<Vec<Lit>> = (0..n_vops)
        .map(|_| (0..n_rows).map(|_| cnf.new_lit()).collect())
        .collect();
    let r_vars: Vec<Vec<Lit>> = (0..spec.n_rops())
        .map(|_| (0..n_rows).map(|_| cnf.new_lit()).collect())
        .collect();

    let g_te: Vec<Vec<Lit>> = (0..n_vops)
        .map(|_| (0..n_lit).map(|_| cnf.new_lit()).collect())
        .collect();
    let be_per_step = options.shared_be == SharedBe::PerStepVar;
    let n_be_rows = if be_per_step { n_vsteps } else { n_vops };
    let g_be: Vec<Vec<Lit>> = (0..n_be_rows)
        .map(|_| (0..n_lit).map(|_| cnf.new_lit()).collect())
        .collect();
    let g_in: [Vec<Vec<Lit>>; 2] = [0, 1].map(|_| {
        (0..spec.n_rops())
            .map(|i| {
                (0..rop_producers(spec, n_lit, i))
                    .map(|_| cnf.new_lit())
                    .collect()
            })
            .collect()
    });
    // Output taps range over *every* V-op (paper-exact): intermediate leg
    // values are readable through interleaved readout cycles. R-op inputs
    // range over leg-final values only (see the module docs).
    let n_prod_out = n_lit + n_vops + spec.n_rops();
    let g_o: Vec<Vec<Lit>> = (0..f.n_outputs())
        .map(|_| (0..n_prod_out).map(|_| cnf.new_lit()).collect())
        .collect();

    // Producer value lookup for R-op inputs (literal / leg-final / R-op).
    let value_of = |j: usize, q: usize| -> Val {
        if j < n_lit {
            match &l_vars {
                Some(l) => Val::Var(l[j][q]),
                None => Val::Const(lit_vals[j][q]),
            }
        } else if j < n_lit + spec.n_legs() {
            let leg = j - n_lit;
            Val::Var(v_vars[leg * n_vsteps + n_vsteps - 1][q])
        } else {
            Val::Var(r_vars[j - n_lit - spec.n_legs()][q])
        }
    };

    // Producer value lookup for outputs (literal / any V-op / R-op).
    let out_value_of = |j: usize, q: usize| -> Val {
        if j < n_lit {
            match &l_vars {
                Some(l) => Val::Var(l[j][q]),
                None => Val::Const(lit_vals[j][q]),
            }
        } else if j < n_lit + n_vops {
            Val::Var(v_vars[j - n_lit][q])
        } else {
            Val::Var(r_vars[j - n_lit - n_vops][q])
        }
    };

    // Eq. 5: V-op semantics.
    for i in 0..n_vops {
        let step = i % n_vsteps;
        let be_row = if be_per_step { step } else { i };
        let prev = |q: usize| -> Val {
            if step == 0 {
                Val::Const(false)
            } else {
                Val::Var(v_vars[i - 1][q])
            }
        };
        for j in 0..n_lit {
            for k in 0..n_lit {
                let guard = [g_te[i][j], g_be[be_row][k]];
                for q in 0..n_rows {
                    let v = v_vars[i][q];
                    if faithful {
                        // V ≡ (A ∧ ¬B) ∨ (P ∧ (A ≡ B)) over the l-variables.
                        let l = l_vars.as_ref().expect("faithful mode allocates l");
                        let a = l[j][q];
                        let b = l[k][q];
                        match prev(q) {
                            Val::Var(p) => {
                                for bits in 0..8u8 {
                                    let (av, bv, pv) =
                                        (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
                                    let out = if av != bv { av } else { pv };
                                    cnf.add_clause([
                                        !guard[0],
                                        !guard[1],
                                        if av { !a } else { a },
                                        if bv { !b } else { b },
                                        if pv { !p } else { p },
                                        if out { v } else { !v },
                                    ]);
                                }
                            }
                            Val::Const(pc) => {
                                for bits in 0..4u8 {
                                    let (av, bv) = (bits & 1 != 0, bits & 2 != 0);
                                    let out = if av != bv { av } else { pc };
                                    cnf.add_clause([
                                        !guard[0],
                                        !guard[1],
                                        if av { !a } else { a },
                                        if bv { !b } else { b },
                                        if out { v } else { !v },
                                    ]);
                                }
                            }
                        }
                    } else {
                        let te = lit_vals[j][q];
                        let be = lit_vals[k][q];
                        if te != be {
                            cnf.add_clause([!guard[0], !guard[1], if te { v } else { !v }]);
                        } else {
                            match prev(q) {
                                Val::Const(pc) => {
                                    cnf.add_clause([!guard[0], !guard[1], if pc { v } else { !v }]);
                                }
                                Val::Var(p) => {
                                    cnf.add_guarded_iff(&guard, v, p);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    // Eq. 6: unique electrode drivers.
    for row in &g_te {
        cnf.exactly_one(row, options.mutex);
    }
    for row in &g_be {
        cnf.exactly_one(row, options.mutex);
    }
    // Paper-shaped shared BE: equality clauses between same-step V-ops of
    // adjacent legs.
    if options.shared_be == SharedBe::EqualityClauses {
        for leg in 0..spec.n_legs().saturating_sub(1) {
            for step in 0..n_vsteps {
                let i1 = leg * n_vsteps + step;
                let i2 = (leg + 1) * n_vsteps + step;
                for k in 0..n_lit {
                    cnf.add_clause([g_be[i1][k], !g_be[i2][k]]);
                    cnf.add_clause([!g_be[i1][k], g_be[i2][k]]);
                }
            }
        }
    }

    // Eq. 7: R-op semantics. With symmetry breaking, commutative R-ops only
    // admit ordered input pairs (in1 ≤ in2); the skipped combinations are
    // explicitly forbidden.
    let commutative = spec.rop_kind().is_commutative();
    let order_inputs = options.symmetry_breaking && commutative;
    for i in 0..spec.n_rops() {
        let n_prod = rop_producers(spec, n_lit, i);
        for j in 0..n_prod {
            for k in 0..n_prod {
                let guard = [g_in[0][i][j], g_in[1][i][k]];
                if order_inputs && j > k {
                    cnf.add_clause([!guard[0], !guard[1]]);
                    continue;
                }
                for q in 0..n_rows {
                    let r = r_vars[i][q];
                    let a = value_of(j, q);
                    let b = value_of(k, q);
                    encode_rop_row(&mut cnf, spec.rop_kind(), &guard, r, a, b);
                }
            }
        }
    }

    // Eq. 8: unique R-op inputs.
    for side in &g_in {
        for row in side {
            cnf.exactly_one(row, options.mutex);
        }
    }

    // No-cascade constraint: forbid R-op producers on R-op inputs.
    if options.forbid_rop_cascade {
        for i in 0..spec.n_rops() {
            for side in &g_in {
                for j in (n_lit + spec.n_legs())..rop_producers(spec, n_lit, i) {
                    cnf.add_unit(!side[i][j]);
                }
            }
        }
    }

    // Eqs. 9–10: outputs.
    let o_vars: Option<Vec<Vec<Lit>>> = faithful.then(|| {
        (0..f.n_outputs())
            .map(|i| {
                (0..n_rows)
                    .map(|q| {
                        let x = cnf.new_lit();
                        let target = f.output(i).expect("index in range").get(q);
                        cnf.add_unit(if target { x } else { !x });
                        x
                    })
                    .collect()
            })
            .collect()
    });
    for (i, row) in g_o.iter().enumerate() {
        let target = f.output(i).expect("index in range");
        for (j, &g) in row.iter().enumerate() {
            match &o_vars {
                Some(o) => {
                    for q in 0..n_rows {
                        match out_value_of(j, q) {
                            Val::Var(x) => cnf.add_guarded_iff(&[g], o[i][q], x),
                            Val::Const(c) => {
                                let ov = o[i][q];
                                cnf.add_clause([!g, if c { ov } else { !ov }]);
                            }
                        }
                    }
                }
                None => {
                    for q in 0..n_rows {
                        let t = target.get(q);
                        match out_value_of(j, q) {
                            Val::Const(c) => {
                                if c != t {
                                    cnf.add_unit(!g);
                                    break;
                                }
                            }
                            Val::Var(x) => {
                                cnf.add_clause([!g, if t { x } else { !x }]);
                            }
                        }
                    }
                }
            }
        }
        cnf.exactly_one(row, options.mutex);
    }

    // Cell-avoidance constraint: the compiled schedule occupies
    // N_L + N_R + (#distinct literal feeds) cells — one per leg, one per
    // R-op output, and one preloaded device per distinct literal consumed
    // by an R-op input or tapped by an output. Bounding the number of
    // distinct feed literals therefore guarantees the schedule fits into
    // the array's working cells, and `place_avoiding` can always route
    // around the dead ones.
    if let Some(avoidance) = spec.cell_avoidance() {
        let dead = avoidance.dead_cells();
        if let Some(&cell) = dead.iter().find(|&&c| c >= avoidance.array_size) {
            return Err(SynthError::InvalidConstraint {
                reason: format!(
                    "avoided cell {cell} is outside the {}-cell array",
                    avoidance.array_size
                ),
            });
        }
        let working = avoidance.array_size - dead.len();
        let fixed = spec.n_legs() + spec.n_rops();
        if working < fixed {
            return Err(SynthError::InvalidConstraint {
                reason: format!(
                    "schedule needs at least {fixed} cells ({} legs + {} R-ops) \
                     but only {working} of {} work",
                    spec.n_legs(),
                    spec.n_rops(),
                    avoidance.array_size
                ),
            });
        }
        let feed_budget = working - fixed;
        if feed_budget < n_lit {
            // feed_used[j] is implied true whenever any R-op input or
            // output selector picks literal j; at-most-k over them caps the
            // distinct feeds. (One-sided implications suffice: the solver
            // can only relax feed_used[j] when literal j is unused.)
            let feed_used: Vec<Lit> = (0..n_lit).map(|_| cnf.new_lit()).collect();
            for side in &g_in {
                for row in side {
                    for j in 0..n_lit {
                        cnf.add_implies(row[j], feed_used[j]);
                    }
                }
            }
            for row in &g_o {
                for j in 0..n_lit {
                    cnf.add_implies(row[j], feed_used[j]);
                }
            }
            cnf.at_most_k(&feed_used, feed_budget);
        }
    }

    // Designer constraints: forced TE literals.
    for &(leg, step, literal) in &options.forced_te {
        if leg >= spec.n_legs() || step >= n_vsteps {
            return Err(SynthError::InvalidConstraint {
                reason: format!("forced TE targets V-op ({leg}, {step}) outside the spec"),
            });
        }
        let j = literals.iter().position(|&l| l == literal).ok_or_else(|| {
            SynthError::InvalidConstraint {
                reason: format!("forced TE literal {literal} is not admissible"),
            }
        })?;
        cnf.add_unit(g_te[leg * n_vsteps + step][j]);
    }

    // Leg-permutation symmetry breaking: the first-step TE selector indices
    // must be non-decreasing across legs. Disabled when explicit TE
    // constraints distinguish legs.
    if options.symmetry_breaking && options.forced_te.is_empty() && spec.n_legs() > 1 {
        for leg in 0..spec.n_legs() - 1 {
            let i1 = leg * n_vsteps;
            let i2 = (leg + 1) * n_vsteps;
            for j in 0..n_lit {
                // te_idx(leg+1) = j -> te_idx(leg) <= j.
                let mut clause: Vec<Lit> = vec![!g_te[i2][j]];
                clause.extend((0..=j).map(|j2| g_te[i1][j2]));
                cnf.add_clause(clause);
            }
        }
    }

    let stats = EncodeStats {
        n_vars: cnf.n_vars(),
        n_clauses: cnf.n_clauses(),
        encode_time: start.elapsed(),
    };
    Ok(Encoded {
        cnf,
        stats,
        map: VarMap {
            literals,
            g_te,
            g_be,
            be_per_step,
            g_in,
            g_o,
        },
    })
}

/// Emits `guard → (r ≡ kind(a, b))` for one row, folding constants.
fn encode_rop_row(cnf: &mut CnfFormula, kind: ROpKind, guard: &[Lit; 2], r: Lit, a: Val, b: Val) {
    let (g0, g1) = (!guard[0], !guard[1]);
    match kind {
        ROpKind::MagicNor => match (a, b) {
            (Val::Const(a), Val::Const(b)) => {
                let out = !(a | b);
                cnf.add_clause([g0, g1, if out { r } else { !r }]);
            }
            (Val::Const(true), Val::Var(_)) | (Val::Var(_), Val::Const(true)) => {
                cnf.add_clause([g0, g1, !r]);
            }
            (Val::Const(false), Val::Var(x)) | (Val::Var(x), Val::Const(false)) => {
                // r ≡ ¬x
                cnf.add_clause([g0, g1, !x, !r]);
                cnf.add_clause([g0, g1, x, r]);
            }
            (Val::Var(x), Val::Var(y)) => {
                cnf.add_guarded_nor(guard, r, x, y);
            }
        },
        ROpKind::Nimp => match (a, b) {
            (Val::Const(a), Val::Const(b)) => {
                let out = a & !b;
                cnf.add_clause([g0, g1, if out { r } else { !r }]);
            }
            (Val::Const(false), Val::Var(_)) => cnf.add_clause([g0, g1, !r]),
            (Val::Const(true), Val::Var(y)) => {
                // r ≡ ¬y
                cnf.add_clause([g0, g1, !y, !r]);
                cnf.add_clause([g0, g1, y, r]);
            }
            (Val::Var(_), Val::Const(true)) => cnf.add_clause([g0, g1, !r]),
            (Val::Var(x), Val::Const(false)) => {
                // r ≡ x
                cnf.add_clause([g0, g1, !x, r]);
                cnf.add_clause([g0, g1, x, !r]);
            }
            (Val::Var(x), Val::Var(y)) => {
                cnf.add_guarded_nimp(guard, r, x, y);
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use mm_boolfn::generators;

    use super::*;
    use crate::EncodeOptions;

    #[test]
    fn encoding_produces_nonempty_formula() {
        let f = generators::and_gate(2);
        let spec = SynthSpec::mixed_mode(&f, 0, 1, 2).unwrap();
        let enc = encode(&spec).unwrap();
        assert!(enc.stats.n_vars > 0);
        assert!(enc.stats.n_clauses > 0);
        assert_eq!(enc.map.g_te.len(), 2);
        assert!(enc.map.be_per_step);
    }

    #[test]
    fn faithful_mode_is_larger_than_folded() {
        let f = generators::gf22_multiplier();
        let spec = SynthSpec::mixed_mode(&f, 2, 4, 2).unwrap();
        let folded = encode(&spec).unwrap();
        let faithful_spec = spec.clone().with_options(EncodeOptions {
            mode: EncodeMode::Faithful,
            shared_be: SharedBe::EqualityClauses,
            ..EncodeOptions::recommended()
        });
        let faithful = encode(&faithful_spec).unwrap();
        assert!(faithful.stats.n_vars > folded.stats.n_vars);
        assert!(faithful.stats.n_clauses > folded.stats.n_clauses);
        assert!(!faithful.map.be_per_step);
    }

    #[test]
    fn invalid_constraints_are_rejected() {
        let f = generators::and_gate(2);
        let spec = SynthSpec::mixed_mode(&f, 0, 1, 1)
            .unwrap()
            .with_options(EncodeOptions {
                forced_te: vec![(3, 0, mm_boolfn::Literal::Pos(1))],
                ..EncodeOptions::default()
            });
        assert!(matches!(
            encode(&spec),
            Err(SynthError::InvalidConstraint { .. })
        ));

        let spec = SynthSpec::mixed_mode(&f, 0, 1, 1)
            .unwrap()
            .with_options(EncodeOptions {
                allowed_literals: Some(vec![mm_boolfn::Literal::Pos(5)]),
                ..EncodeOptions::default()
            });
        assert!(matches!(
            encode(&spec),
            Err(SynthError::InvalidConstraint { .. })
        ));
    }
}
