//! Encoding helpers for the logical constructs that assume-guarantee
//! contracts compile into: guarded (big-M) implications and the
//! "instantiated iff connected" indicator link. Disjunctions of contract
//! formulas are encoded by `contrarc_contracts::encode` on top of these.
//!
//! The implications compute conservative big-M constants from the current
//! variable bounds via interval arithmetic, and refuse (with
//! [`SolveError::InvalidModel`]) to encode an implication whose body is
//! unbounded — a silent, too-small M would make the encoding unsound.

use crate::constraint::{Cmp, ConstrId};
use crate::error::SolveError;
use crate::expr::LinExpr;
use crate::model::Model;
use crate::var::VarId;

/// Interval `[lo, hi]` of an expression under the model's variable bounds.
fn expr_range(model: &Model, expr: &LinExpr) -> (f64, f64) {
    let mut lo = expr.constant();
    let mut hi = expr.constant();
    for (v, c) in expr.iter() {
        let d = model.var(v);
        let (a, b) = (c * d.lb, c * d.ub);
        lo += a.min(b);
        hi += a.max(b);
    }
    (lo, hi)
}

/// Add `guard = 1 → expr ≤ rhs`, encoded as `expr ≤ rhs + M·(1 − guard)`.
///
/// # Errors
///
/// Returns [`SolveError::InvalidModel`] when `expr` has no finite upper bound
/// (no sound M exists) or `guard` is not a binary variable.
pub fn implies_le(
    model: &mut Model,
    name: impl Into<String>,
    guard: VarId,
    expr: LinExpr,
    rhs: f64,
) -> Result<ConstrId, SolveError> {
    check_binary(model, guard)?;
    let (_, hi) = expr_range(model, &expr);
    if !hi.is_finite() {
        return Err(SolveError::InvalidModel(
            "implies_le: expression is unbounded above; no sound big-M exists".into(),
        ));
    }
    let big_m = (hi - rhs).max(0.0);
    // expr + M·guard ≤ rhs + M
    let lhs = expr + big_m * guard;
    model.add_constr(name, lhs, Cmp::Le, rhs + big_m)
}

/// Add `guard = 1 → expr ≥ rhs`, encoded as `expr ≥ rhs − M·(1 − guard)`.
///
/// # Errors
///
/// Returns [`SolveError::InvalidModel`] when `expr` has no finite lower bound
/// or `guard` is not binary.
pub fn implies_ge(
    model: &mut Model,
    name: impl Into<String>,
    guard: VarId,
    expr: LinExpr,
    rhs: f64,
) -> Result<ConstrId, SolveError> {
    check_binary(model, guard)?;
    let (lo, _) = expr_range(model, &expr);
    if !lo.is_finite() {
        return Err(SolveError::InvalidModel(
            "implies_ge: expression is unbounded below; no sound big-M exists".into(),
        ));
    }
    let big_m = (rhs - lo).max(0.0);
    let lhs = expr - big_m * guard;
    model.add_constr(name, lhs, Cmp::Ge, rhs - big_m)
}

/// Add `guard = 1 → expr = rhs` (two guarded inequalities).
///
/// # Errors
///
/// Returns [`SolveError::InvalidModel`] when `expr` is unbounded in either
/// direction or `guard` is not binary.
pub fn implies_eq(
    model: &mut Model,
    name: impl Into<String>,
    guard: VarId,
    expr: LinExpr,
    rhs: f64,
) -> Result<(ConstrId, ConstrId), SolveError> {
    let name = name.into();
    let le = implies_le(model, format!("{name}.le"), guard, expr.clone(), rhs)?;
    let ge = implies_ge(model, format!("{name}.ge"), guard, expr, rhs)?;
    Ok((le, ge))
}

/// Add the pair of implications `indicator = 1 ↔ Σ vars ≥ 1` for binary
/// `vars` — the "instantiated iff connected" link from the interconnection
/// contract. Encoded as `indicator ≤ Σ vars` and `vars[i] ≤ indicator ∀i`.
///
/// # Errors
///
/// Propagates model validation errors.
pub fn indicator_or(
    model: &mut Model,
    name: impl Into<String>,
    indicator: VarId,
    vars: &[VarId],
) -> Result<(), SolveError> {
    let name = name.into();
    let sum = LinExpr::sum(vars.iter().copied());
    model.add_constr(
        format!("{name}.le"),
        LinExpr::var(indicator) - sum,
        Cmp::Le,
        0.0,
    )?;
    for (i, &v) in vars.iter().enumerate() {
        model.add_constr(
            format!("{name}.ge{i}"),
            LinExpr::var(v) - LinExpr::var(indicator),
            Cmp::Le,
            0.0,
        )?;
    }
    Ok(())
}

fn check_binary(model: &Model, guard: VarId) -> Result<(), SolveError> {
    if model.var(guard).ty != crate::var::VarType::Binary {
        return Err(SolveError::InvalidModel(format!(
            "guard variable {} must be binary",
            model.var_name(guard)
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Model, Sense, SolveOptions};

    fn solve(m: &Model) -> crate::Outcome {
        m.solve(&SolveOptions::default()).unwrap()
    }

    #[test]
    fn expr_range_interval_arithmetic() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", -1.0, 2.0);
        let y = m.add_continuous("y", 0.0, 3.0);
        let (lo, hi) = expr_range(&m, &(2.0 * x - y + 1.0));
        assert_eq!((lo, hi), (-4.0, 5.0));
    }

    #[test]
    fn implies_le_binds_only_when_guarded() {
        let mut m = Model::new("t");
        let g = m.add_binary("g");
        let x = m.add_continuous("x", 0.0, 10.0);
        implies_le(&mut m, "imp", g, LinExpr::var(x), 3.0).unwrap();
        m.set_objective(Sense::Maximize, 1.0 * x);
        // Guard free: solver sets g = 0 and x = 10.
        let sol = solve(&m).expect_optimal().unwrap();
        assert!((sol.value(x) - 10.0).abs() < 1e-6);

        // Force the guard: x must drop to 3.
        m.add_constr("force", LinExpr::var(g), Cmp::Ge, 1.0)
            .unwrap();
        let sol = solve(&m).expect_optimal().unwrap();
        assert!((sol.value(x) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn implies_ge_symmetric() {
        let mut m = Model::new("t");
        let g = m.add_binary("g");
        let x = m.add_continuous("x", 0.0, 10.0);
        implies_ge(&mut m, "imp", g, LinExpr::var(x), 7.0).unwrap();
        m.add_constr("force", LinExpr::var(g), Cmp::Ge, 1.0)
            .unwrap();
        m.set_objective(Sense::Minimize, 1.0 * x);
        let sol = solve(&m).expect_optimal().unwrap();
        assert!((sol.value(x) - 7.0).abs() < 1e-6);
    }

    #[test]
    fn implies_rejects_unbounded_body() {
        let mut m = Model::new("t");
        let g = m.add_binary("g");
        let x = m.add_free("x");
        assert!(implies_le(&mut m, "bad", g, LinExpr::var(x), 0.0).is_err());
        assert!(implies_ge(&mut m, "bad", g, LinExpr::var(x), 0.0).is_err());
    }

    #[test]
    fn implies_rejects_non_binary_guard() {
        let mut m = Model::new("t");
        let g = m.add_continuous("g", 0.0, 1.0);
        let x = m.add_continuous("x", 0.0, 1.0);
        assert!(implies_le(&mut m, "bad", g, LinExpr::var(x), 0.0).is_err());
    }

    #[test]
    fn implies_eq_pins_value() {
        let mut m = Model::new("t");
        let g = m.add_binary("g");
        let x = m.add_continuous("x", 0.0, 10.0);
        implies_eq(&mut m, "pin", g, LinExpr::var(x), 4.0).unwrap();
        m.add_constr("force", LinExpr::var(g), Cmp::Ge, 1.0)
            .unwrap();
        m.set_objective(Sense::Maximize, 1.0 * x);
        let sol = solve(&m).expect_optimal().unwrap();
        assert!((sol.value(x) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn indicator_or_links_both_directions() {
        let mut m = Model::new("t");
        let b = m.add_binary("b");
        let e1 = m.add_binary("e1");
        let e2 = m.add_binary("e2");
        indicator_or(&mut m, "link", b, &[e1, e2]).unwrap();
        // Force an edge on: indicator must be 1.
        m.add_constr("f", LinExpr::var(e1), Cmp::Ge, 1.0).unwrap();
        m.set_objective(Sense::Minimize, LinExpr::var(b));
        let sol = solve(&m).expect_optimal().unwrap();
        assert!(sol.is_set(b));
    }

    #[test]
    fn indicator_or_forces_zero_when_no_edges() {
        let mut m = Model::new("t");
        let b = m.add_binary("b");
        let e1 = m.add_binary("e1");
        indicator_or(&mut m, "link", b, &[e1]).unwrap();
        m.add_constr("off", LinExpr::var(e1), Cmp::Le, 0.0).unwrap();
        m.set_objective(Sense::Maximize, LinExpr::var(b));
        let sol = solve(&m).expect_optimal().unwrap();
        assert!(!sol.is_set(b));
    }
}
