//! Encoding predicates into MILP constraints.
//!
//! The encoder walks a predicate's negation normal form, borrowed from the
//! predicate itself ([`Nnf`]): conjunctions become plain constraint lists;
//! disjunctions introduce selector binaries (`Σ y ≥ 1`) whose branches are
//! encoded as big-M guarded constraints. Strict inequalities (which only
//! arise from negation) are relaxed by a configurable ε margin, the
//! standard finite-precision treatment.
//!
//! Generated rows and selectors are unnamed: nothing reads their names, and
//! a row is identified by its index in the model.

use crate::nnf::Nnf;
use crate::pred::{AtomCmp, Pred};
use contrarc_milp::encode as menc;
use contrarc_milp::{Cmp, LinExpr, Model, SolveError, VarId};

/// Encoding parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncodeOptions {
    /// Margin used to encode strict inequalities: `a < b` becomes
    /// `a ≤ b − eps`.
    ///
    /// The default (`1e-4`) sits two orders of magnitude above the solver's
    /// feasibility tolerances so that big-M encodings cannot blur a strict
    /// inequality into its closed complement. Quantities in contract
    /// formulas are expected to be scaled to roughly `O(1)–O(10³)`.
    pub eps: f64,
}

impl Default for EncodeOptions {
    fn default() -> Self {
        EncodeOptions { eps: 1e-4 }
    }
}

/// Assert `pred` in `model`: add constraints satisfied exactly by the
/// assignments where the predicate holds (up to big-M/ε precision).
///
/// Rows are appended in the order the predicate's negation normal form
/// lists its atoms, each disjunction's selector binaries and its `Σ y`
/// row before its branches.
///
/// # Errors
///
/// Returns [`SolveError::InvalidModel`] when a disjunctive branch mentions a
/// variable without finite bounds (no sound big-M exists) or when the
/// predicate mentions variables missing from `model`.
pub fn assert_pred(model: &mut Model, pred: &Pred, opts: &EncodeOptions) -> Result<(), SolveError> {
    encode(model, &Nnf::of(pred, false), None, opts)
}

/// Assert a formula already in negation normal form, as [`assert_pred`]
/// asserts the predicate it normalizes.
pub(crate) fn encode(
    model: &mut Model,
    nnf: &Nnf<'_>,
    guard: Option<VarId>,
    opts: &EncodeOptions,
) -> Result<(), SolveError> {
    match nnf {
        Nnf::Const(true) => {}
        Nnf::Const(false) => {
            match guard {
                // Unconditionally false: 0 ≥ 1.
                None => model.add_constr("", LinExpr::new(), Cmp::Ge, 1.0)?,
                // Guard must be off.
                Some(g) => model.add_constr("", LinExpr::var(g), Cmp::Le, 0.0)?,
            };
        }
        Nnf::Atom { expr, cmp, rhs } => encode_atom(model, expr, *cmp, *rhs, guard, opts)?,
        Nnf::And(children) => {
            for c in children {
                encode(model, c, guard, opts)?;
            }
        }
        Nnf::Or(children) => {
            // One selector per branch, added consecutively.
            let first = model.num_vars();
            for _ in children {
                model.add_binary("");
            }
            let selectors = (first..first + children.len()).map(VarId::from_index);
            // At least one branch taken — relative to the guard if present.
            let mut sum = LinExpr::sum(selectors.clone());
            match guard {
                None => model.add_constr("", sum, Cmp::Ge, 1.0)?,
                // Σy ≥ g.
                Some(g) => {
                    sum.add_term(g, -1.0);
                    model.add_constr("", sum, Cmp::Ge, 0.0)?
                }
            };
            for (y, c) in selectors.zip(children) {
                encode(model, c, Some(y), opts)?;
            }
        }
    }
    Ok(())
}

fn encode_atom(
    model: &mut Model,
    expr: &LinExpr,
    cmp: AtomCmp,
    rhs: f64,
    guard: Option<VarId>,
    opts: &EncodeOptions,
) -> Result<(), SolveError> {
    let (cmp, rhs) = match cmp {
        AtomCmp::Le => (Cmp::Le, rhs),
        AtomCmp::Ge => (Cmp::Ge, rhs),
        AtomCmp::Eq => (Cmp::Eq, rhs),
        AtomCmp::Lt => (Cmp::Le, rhs - opts.eps),
        AtomCmp::Gt => (Cmp::Ge, rhs + opts.eps),
    };
    match (guard, cmp) {
        (None, cmp) => {
            model.add_constr("", expr.clone(), cmp, rhs)?;
        }
        (Some(g), Cmp::Le) => {
            menc::implies_le(model, "", g, expr.clone(), rhs)?;
        }
        (Some(g), Cmp::Ge) => {
            menc::implies_ge(model, "", g, expr.clone(), rhs)?;
        }
        // A guarded `=` is a guarded `≤` and a guarded `≥`.
        (Some(g), Cmp::Eq) => {
            menc::implies_le(model, "", g, expr.clone(), rhs)?;
            menc::implies_ge(model, "", g, expr.clone(), rhs)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocabulary::Vocabulary;
    use contrarc_milp::{LinExpr, Outcome, Sense, SolveOptions};

    fn feasible(voc: &Vocabulary, pred: &Pred) -> bool {
        let mut model = voc.instantiate("q").unwrap();
        assert_pred(&mut model, pred, &EncodeOptions::default()).unwrap();
        model.solve(&SolveOptions::default()).unwrap().is_feasible()
    }

    #[test]
    fn conjunction_feasibility() {
        let mut voc = Vocabulary::new();
        let x = voc.add_continuous("x", 0.0, 10.0);
        assert!(feasible(
            &voc,
            &Pred::le(1.0 * x, 5.0).and(Pred::ge(1.0 * x, 2.0))
        ));
        assert!(!feasible(
            &voc,
            &Pred::le(1.0 * x, 1.0).and(Pred::ge(1.0 * x, 2.0))
        ));
    }

    #[test]
    fn disjunction_feasibility() {
        let mut voc = Vocabulary::new();
        let x = voc.add_continuous("x", 0.0, 10.0);
        // (x ≤ -5) ∨ (x ≥ 8): only the right branch is possible.
        let p = Pred::le(1.0 * x, -5.0).or(Pred::ge(1.0 * x, 8.0));
        assert!(feasible(&voc, &p));
        // Force the impossible side only.
        let q = Pred::le(1.0 * x, -5.0).or(Pred::le(1.0 * x, -7.0));
        assert!(!feasible(&voc, &q));
    }

    #[test]
    fn negation_via_nnf() {
        let mut voc = Vocabulary::new();
        let x = voc.add_continuous("x", 0.0, 10.0);
        // ¬(2 ≤ x ≤ 5) is satisfiable in [0,10]…
        let band = Pred::ge(1.0 * x, 2.0).and(Pred::le(1.0 * x, 5.0));
        assert!(feasible(&voc, &band.clone().not()));
        // …but ¬(0 ≤ x ≤ 10) is not.
        let full = Pred::ge(1.0 * x, 0.0).and(Pred::le(1.0 * x, 10.0));
        assert!(!feasible(&voc, &full.not()));
    }

    #[test]
    fn strictness_margin_respected() {
        let mut voc = Vocabulary::new();
        let x = voc.add_continuous("x", 0.0, 1.0);
        // ¬(x ≥ 0) = x < 0: infeasible within [0,1].
        assert!(!feasible(&voc, &Pred::ge(1.0 * x, 0.0).not()));
        // ¬(x ≥ 0.5) = x < 0.5: feasible.
        assert!(feasible(&voc, &Pred::ge(1.0 * x, 0.5).not()));
    }

    #[test]
    fn nested_or_inside_and() {
        let mut voc = Vocabulary::new();
        let x = voc.add_continuous("x", 0.0, 10.0);
        let y = voc.add_continuous("y", 0.0, 10.0);
        // (x ≤ 1 ∨ x ≥ 9) ∧ (y = 5) ∧ (x + y ≤ 7) → x ≤ 1 branch forced.
        let p = Pred::le(1.0 * x, 1.0)
            .or(Pred::ge(1.0 * x, 9.0))
            .and(Pred::eq(1.0 * y, 5.0))
            .and(Pred::le(1.0 * x + 1.0 * y, 7.0));
        let mut model = voc.instantiate("q").unwrap();
        assert_pred(&mut model, &p, &EncodeOptions::default()).unwrap();
        model.set_objective(Sense::Maximize, LinExpr::var(x));
        let sol = model
            .solve(&SolveOptions::default())
            .unwrap()
            .expect_optimal()
            .unwrap();
        assert!(sol.value(x) <= 1.0 + 1e-6);
        assert!((sol.value(y) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn nested_and_inside_or() {
        let mut voc = Vocabulary::new();
        let x = voc.add_continuous("x", 0.0, 10.0);
        let y = voc.add_continuous("y", 0.0, 10.0);
        // (x ≥ 9 ∧ y ≥ 9) ∨ (x ≤ 1 ∧ y ≤ 1); minimize x + y → 0.
        let p = Pred::ge(1.0 * x, 9.0)
            .and(Pred::ge(1.0 * y, 9.0))
            .or(Pred::le(1.0 * x, 1.0).and(Pred::le(1.0 * y, 1.0)));
        let mut model = voc.instantiate("q").unwrap();
        assert_pred(&mut model, &p, &EncodeOptions::default()).unwrap();
        model.set_objective(Sense::Minimize, x + y);
        let sol = model
            .solve(&SolveOptions::default())
            .unwrap()
            .expect_optimal()
            .unwrap();
        assert!(sol.objective() <= 2.0 + 1e-6);
        // And maximize → both at least 9 each.
        let mut model = voc.instantiate("q2").unwrap();
        assert_pred(&mut model, &p, &EncodeOptions::default()).unwrap();
        model.set_objective(Sense::Maximize, x + y);
        let sol = model
            .solve(&SolveOptions::default())
            .unwrap()
            .expect_optimal()
            .unwrap();
        assert!((sol.objective() - 20.0).abs() < 1e-6);
    }

    #[test]
    fn unbounded_disjunct_rejected() {
        let mut voc = Vocabulary::new();
        let x = voc.add_continuous("x", 0.0, f64::INFINITY);
        let p = Pred::le(1.0 * x, 1.0).or(Pred::le(1.0 * x, 2.0));
        let mut model = voc.instantiate("q").unwrap();
        let err = assert_pred(&mut model, &p, &EncodeOptions::default());
        assert!(
            err.is_err(),
            "guarded ≤ over an unbounded variable must be refused"
        );
    }

    #[test]
    fn false_and_true_literals() {
        let mut voc = Vocabulary::new();
        let _x = voc.add_continuous("x", 0.0, 1.0);
        assert!(feasible(&voc, &Pred::True));
        assert!(!feasible(&voc, &Pred::False));
    }

    /// `false` is the row `0 ≥ 1`, which presolve decides: no node is
    /// solved.
    #[test]
    fn false_is_infeasible_without_a_node() {
        let mut voc = Vocabulary::new();
        let _x = voc.add_continuous("x", 0.0, 1.0);
        let mut model = voc.instantiate("q").unwrap();
        assert_pred(&mut model, &Pred::False, &EncodeOptions::default()).unwrap();
        assert_eq!(model.num_constrs(), 1);
        let outcome = model.solve(&SolveOptions::default()).unwrap();
        assert!(matches!(outcome, Outcome::Infeasible { .. }), "{outcome}");
        assert_eq!(outcome.stats().nodes, 0);
    }

    #[test]
    fn guarded_false_disables_branch() {
        let mut voc = Vocabulary::new();
        let x = voc.add_continuous("x", 0.0, 10.0);
        // false ∨ (x ≥ 3): must take the right branch.
        let p = Pred::False.or(Pred::ge(1.0 * x, 3.0));
        let mut model = voc.instantiate("q").unwrap();
        assert_pred(&mut model, &p, &EncodeOptions::default()).unwrap();
        model.set_objective(Sense::Minimize, LinExpr::var(x));
        let sol = model
            .solve(&SolveOptions::default())
            .unwrap()
            .expect_optimal()
            .unwrap();
        assert!((sol.value(x) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn eval_agrees_with_encoding_on_grid() {
        // Property-style check: encoded feasibility == eval-satisfiability
        // over a coarse grid for several formulas.
        let mut voc = Vocabulary::new();
        let x = voc.add_continuous("x", 0.0, 4.0);
        let y = voc.add_continuous("y", 0.0, 4.0);
        let formulas = vec![
            Pred::le(1.0 * x + 1.0 * y, 3.0),
            Pred::le(1.0 * x, 1.0).or(Pred::ge(1.0 * y, 3.5)),
            Pred::eq(1.0 * x, 2.0).and(Pred::le(1.0 * y, 1.0)),
            Pred::ge(1.0 * x, 1.0).implies(Pred::ge(1.0 * y, 2.0)),
            Pred::le(1.0 * x, 3.0).and(Pred::ge(1.0 * x, 1.0)).not(),
        ];
        for p in formulas {
            let mut sat_on_grid = false;
            for xi in 0..=8 {
                for yi in 0..=8 {
                    if p.eval(&[xi as f64 * 0.5, yi as f64 * 0.5], 1e-9) {
                        sat_on_grid = true;
                    }
                }
            }
            let enc = feasible(&voc, &p);
            // Grid satisfiability implies encoded feasibility; the converse
            // can fail only between grid points, which these formulas avoid.
            assert_eq!(enc, sat_on_grid, "formula {p}");
        }
    }
}
