//! Fault-injection resilience tests: the retry ladder (Bland's rule →
//! tightened tolerances + per-pivot refactorization → presolve off) must
//! absorb recoverable faults and surface unrecoverable ones.
#![cfg(feature = "fault-injection")]

use contrarc_milp::{
    Cmp, FaultKind, FaultPlan, LinExpr, Model, Sense, SolveError, SolveOptions, Solver,
};

/// A small knapsack that needs branching, so every ladder rung does real work.
fn knapsack() -> Model {
    let mut m = Model::new("faulty");
    let weights = [3.0, 4.0, 5.0, 6.0, 7.0];
    let values = [4.0, 5.0, 6.0, 7.5, 8.0];
    let vars: Vec<_> = (0..5).map(|i| m.add_binary(format!("x{i}"))).collect();
    let w: LinExpr = vars
        .iter()
        .zip(weights)
        .map(|(&v, wi)| LinExpr::term(v, wi))
        .sum();
    let val: LinExpr = vars
        .iter()
        .zip(values)
        .map(|(&v, vi)| LinExpr::term(v, vi))
        .sum();
    m.add_constr("cap", w, Cmp::Le, 12.0).unwrap();
    m.set_objective(Sense::Maximize, val);
    m
}

fn opts(plan: FaultPlan) -> SolveOptions {
    SolveOptions {
        fault_plan: Some(plan),
        ..SolveOptions::default()
    }
}

#[test]
fn numerical_fault_is_absorbed_by_retry_ladder() {
    let m = knapsack();
    let plan = FaultPlan::new().inject_at(1, FaultKind::Numerical);
    let out = Solver::new(opts(plan)).solve(&m).unwrap();
    assert_eq!(
        out.stats().numerical_retries,
        1,
        "expected exactly one ladder rung"
    );
    let sol = out.expect_optimal().unwrap();
    assert!(
        (sol.objective() - 15.0).abs() < 1e-6,
        "got {}",
        sol.objective()
    );
}

#[test]
fn repeated_numerical_faults_climb_every_rung_then_succeed() {
    let m = knapsack();
    // Three consecutive faults exercise all three rungs (Bland, tighter
    // tolerances + refactor-every-pivot, presolve off); the 4th call
    // succeeds with the most conservative settings.
    let plan = FaultPlan::new()
        .inject_at(1, FaultKind::Numerical)
        .inject_at(2, FaultKind::Numerical)
        .inject_at(3, FaultKind::Numerical);
    let out = Solver::new(opts(plan)).solve(&m).unwrap();
    assert_eq!(out.stats().numerical_retries, 3);
    let sol = out.expect_optimal().unwrap();
    assert!((sol.objective() - 15.0).abs() < 1e-6);
}

#[test]
fn exhausted_ladder_surfaces_the_numerical_error() {
    let m = knapsack();
    let mut plan = FaultPlan::new();
    for call in 1..=4 {
        plan = plan.inject_at(call, FaultKind::Numerical);
    }
    match Solver::new(opts(plan)).solve(&m) {
        Err(SolveError::Numerical(_)) => {}
        other => panic!("expected numerical error, got {other:?}"),
    }
}

#[test]
fn limit_faults_are_not_retried() {
    let m = knapsack();
    let plan = FaultPlan::new().inject_at(1, FaultKind::PivotLimit);
    match Solver::new(opts(plan)).solve(&m) {
        Err(SolveError::IterationLimit { .. }) => {}
        other => panic!("expected iteration limit, got {other:?}"),
    }
    let plan = FaultPlan::new().inject_at(1, FaultKind::DeadlineExpired);
    match Solver::new(opts(plan)).solve(&m) {
        Err(SolveError::TimeLimit { .. }) => {}
        other => panic!("expected time limit, got {other:?}"),
    }
}

#[test]
fn warm_started_solves_survive_mid_sequence_faults() {
    // A cut-loop-shaped sequence: solve, append a cut, warm-start the next
    // solve — with a numerical fault injected mid-sequence. The ladder must
    // absorb it and the warm-started sequence must keep producing the same
    // optima as a fault-free cold sequence.
    let mut m = knapsack();
    let plan = FaultPlan::new().inject_at(2, FaultKind::Numerical);
    let solver = Solver::new(SolveOptions {
        warm_start: true,
        ..opts(plan)
    });
    let (out, warm) = solver.solve_with_state(&m, None).unwrap();
    assert!((out.expect_optimal().unwrap().objective() - 15.0).abs() < 1e-6);

    // Cut off the incumbent {x0, x1, x2}: at most two of the three. The
    // optimum drops to {x2, x4} = 14.
    let vars: Vec<_> = m.vars().map(|(v, _)| v).collect();
    m.add_constr(
        "cut",
        1.0 * vars[0] + 1.0 * vars[1] + 1.0 * vars[2],
        Cmp::Le,
        2.0,
    )
    .unwrap();
    let (out, warm) = solver.solve_with_state(&m, warm.as_ref()).unwrap();
    let sol = out.expect_optimal().unwrap();
    assert!(
        (sol.objective() - 14.0).abs() < 1e-6,
        "got {} after cut",
        sol.objective()
    );
    assert!(warm.is_some());
}
