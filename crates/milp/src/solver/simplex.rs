//! Textbook LPs solved end to end through branch-and-bound, as the
//! [`Solver`](crate::Solver) runs it: presolve, the standard form, the
//! revised simplex and postsolve together.
//!
//! The engine's own tests in `revised` start from a `StandardForm`, so they
//! skip presolve and postsolve. Here each model is solved twice, with
//! presolve off (the model goes straight to the revised simplex, as at the
//! retry ladder's last rung) and on (presolve may settle a model with no
//! rows or fixed columns without the engine), and both runs must give the
//! same answer.

use crate::solver::{branch_bound, Numerics, SolveOptions};
use crate::{Model, Outcome, Status};

/// Solves `m` with presolve off and on, asserting that both runs end in the
/// same status; returns both outcomes.
fn solve_both_ways(m: &Model) -> [Outcome; 2] {
    let outcomes = [false, true].map(|presolve| {
        let numerics = Numerics {
            presolve,
            ..Numerics::at_rung(0)
        };
        branch_bound::solve(m, &SolveOptions::default(), &numerics, None)
            .expect("no limit is reached on a textbook LP")
            .0
    });
    assert_eq!(
        outcomes[0].status(),
        outcomes[1].status(),
        "presolve off and on disagree"
    );
    outcomes
}

fn status(m: &Model) -> Status {
    solve_both_ways(m)[0].status()
}

/// The optimum of `m` in its own sense, asserting that the two runs agree on
/// it to within `tol`.
fn optimal_obj(m: &Model, tol: f64) -> f64 {
    let [off, on] =
        solve_both_ways(m).map(|o| o.expect_optimal().expect("expected optimal").objective());
    assert!((off - on).abs() < tol, "presolve off {off}, on {on}");
    off
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cmp, Sense};

    #[test]
    fn textbook_max_lp() {
        // max 3x + 4y s.t. x + 2y <= 14, 3x - y >= 0, x - y <= 2
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.add_constr("c1", x + 2.0 * y, Cmp::Le, 14.0).unwrap();
        m.add_constr("c2", 3.0 * x - y, Cmp::Ge, 0.0).unwrap();
        m.add_constr("c3", x - y, Cmp::Le, 2.0).unwrap();
        m.set_objective(Sense::Maximize, 3.0 * x + 4.0 * y);
        assert!((optimal_obj(&m, 1e-6) - 34.0).abs() < 1e-6);
    }

    #[test]
    fn equality_constraints_need_phase1() {
        // min x + y s.t. x + y = 10, x - y = 4  ->  x=7, y=3, obj 10
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.add_constr("s", x + y, Cmp::Eq, 10.0).unwrap();
        m.add_constr("d", x - y, Cmp::Eq, 4.0).unwrap();
        m.set_objective(Sense::Minimize, x + y);
        for outcome in solve_both_ways(&m) {
            let sol = outcome.expect_optimal().expect("expected optimal");
            assert!((sol.value(x) - 7.0).abs() < 1e-6);
            assert!((sol.value(y) - 3.0).abs() < 1e-6);
            assert!((sol.objective() - 10.0).abs() < 1e-6);
        }
    }

    #[test]
    fn detects_infeasible() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 1.0);
        m.add_constr("lo", 1.0 * x, Cmp::Ge, 2.0).unwrap();
        assert_eq!(status(&m), Status::Infeasible);
    }

    #[test]
    fn detects_infeasible_between_rows() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        m.add_constr("a", 1.0 * x, Cmp::Ge, 5.0).unwrap();
        m.add_constr("b", 1.0 * x, Cmp::Le, 4.0).unwrap();
        assert_eq!(status(&m), Status::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        m.add_constr("c", 1.0 * x, Cmp::Ge, 1.0).unwrap();
        m.set_objective(Sense::Maximize, 1.0 * x);
        assert_eq!(status(&m), Status::Unbounded);
    }

    #[test]
    fn bounded_by_variable_bounds_only() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", -3.0, 5.0);
        m.set_objective(Sense::Minimize, 2.0 * x);
        // No constraints at all.
        assert!((optimal_obj(&m, 1e-9) - (-6.0)).abs() < 1e-9);
    }

    #[test]
    fn free_variable_equality() {
        // min |shape|: free t with t = 5 exactly.
        let mut m = Model::new("t");
        let t = m.add_free("t");
        m.add_constr("fix", 1.0 * t, Cmp::Eq, 5.0).unwrap();
        m.set_objective(Sense::Minimize, 1.0 * t);
        assert!((optimal_obj(&m, 1e-9) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn upper_bounded_vars_flip() {
        // max x + y, x,y in [0,1], x + y <= 1.5 -> 1.5
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 1.0);
        let y = m.add_continuous("y", 0.0, 1.0);
        m.add_constr("c", x + y, Cmp::Le, 1.5).unwrap();
        m.set_objective(Sense::Maximize, x + y);
        assert!((optimal_obj(&m, 1e-9) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Classic degeneracy: many redundant constraints through one vertex.
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        for k in 1..=6 {
            m.add_constr(format!("c{k}"), (k as f64) * x + y, Cmp::Le, 0.0)
                .unwrap();
        }
        m.set_objective(Sense::Maximize, x + y);
        assert!((optimal_obj(&m, 1e-9) - 0.0).abs() < 1e-9);
    }

    #[test]
    fn negative_rhs_rows() {
        // min -x - y s.t. -x - y >= -4  (i.e. x + y <= 4), x,y <= 3
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 3.0);
        let y = m.add_continuous("y", 0.0, 3.0);
        m.add_constr("c", -1.0 * x - 1.0 * y, Cmp::Ge, -4.0)
            .unwrap();
        m.set_objective(Sense::Minimize, -1.0 * x - 1.0 * y);
        assert!((optimal_obj(&m, 1e-6) - (-4.0)).abs() < 1e-6);
    }

    #[test]
    fn fixed_variables_respected() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 2.0, 2.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        m.add_constr("c", x + y, Cmp::Le, 5.0).unwrap();
        m.set_objective(Sense::Maximize, 3.0 * x + y);
        // x pinned to 2, so y <= 3 and obj = 9.
        assert!((optimal_obj(&m, 1e-6) - 9.0).abs() < 1e-6);
    }

    #[test]
    fn zero_row_model() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 1.0, 2.0);
        m.set_objective(Sense::Maximize, 1.0 * x);
        assert!((optimal_obj(&m, 1e-12) - 2.0).abs() < 1e-12);
    }
}
