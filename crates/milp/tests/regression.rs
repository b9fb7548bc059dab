//! Regression and stress tests for the MILP solver beyond the unit tests:
//! degenerate geometry, big-M structures like the contract encodings
//! produce, and scaling behaviour.

use contrarc_milp::{
    Budget, Cmp, Deadline, LinExpr, Model, Outcome, Sense, SolveError, SolveOptions, VarId,
};

#[test]
fn klee_minty_style_cube_terminates() {
    // A worst-case-for-Dantzig family (scaled-down): the solver must
    // terminate and find the known optimum.
    let n = 7;
    let mut m = Model::new("km");
    let xs: Vec<_> = (0..n)
        .map(|i| m.add_continuous(format!("x{i}"), 0.0, f64::INFINITY))
        .collect();
    for i in 0..n {
        let mut e = LinExpr::new();
        for (j, &xj) in xs.iter().enumerate().take(i) {
            e.add_term(xj, 2.0 * 10f64.powi((i - j) as i32));
        }
        e.add_term(xs[i], 1.0);
        m.add_constr(format!("c{i}"), e, Cmp::Le, 100f64.powi(i as i32 + 1))
            .unwrap();
    }
    let mut obj = LinExpr::new();
    for (j, &xj) in xs.iter().enumerate() {
        obj.add_term(xj, 10f64.powi((n - 1 - j) as i32));
    }
    m.set_objective(Sense::Maximize, obj);
    let sol = m
        .solve(&SolveOptions::default())
        .unwrap()
        .expect_optimal()
        .unwrap();
    // Known optimum: 100^n.
    let expect = 100f64.powi(n as i32);
    assert!(
        (sol.objective() - expect).abs() / expect < 1e-6,
        "got {}, want {expect}",
        sol.objective()
    );
}

#[test]
fn equality_chain_long() {
    // x0 = 1, x_{i+1} = x_i + 1 → x_99 = 100.
    let n = 100;
    let mut m = Model::new("chain");
    let xs: Vec<_> = (0..n)
        .map(|i| m.add_continuous(format!("x{i}"), -1e6, 1e6))
        .collect();
    m.add_constr("base", LinExpr::var(xs[0]), Cmp::Eq, 1.0)
        .unwrap();
    for i in 1..n {
        m.add_constr(
            format!("s{i}"),
            LinExpr::var(xs[i]) - LinExpr::var(xs[i - 1]),
            Cmp::Eq,
            1.0,
        )
        .unwrap();
    }
    m.set_objective(Sense::Minimize, LinExpr::var(xs[n - 1]));
    let sol = m
        .solve(&SolveOptions::default())
        .unwrap()
        .expect_optimal()
        .unwrap();
    assert!((sol.value(xs[n - 1]) - n as f64).abs() < 1e-6);
}

#[test]
fn bigm_indicator_lattice() {
    // A lattice of guarded constraints (the shape contract encodings emit):
    // pick exactly one option per slot; each option pins a continuous level;
    // the sum of levels is bounded. Verify the optimum against enumeration.
    let slots = 4;
    let options = 3;
    let level_of = |s: usize, o: usize| 2.0 + (s as f64) * 0.5 + (o as f64) * 3.0;
    let cost_of = |s: usize, o: usize| 10.0 - (o as f64) * 2.5 + (s as f64) * 0.1;

    let mut m = Model::new("lattice");
    let mut sel = Vec::new();
    let mut levels = Vec::new();
    let mut cost = LinExpr::new();
    for s in 0..slots {
        let lv = m.add_continuous(format!("lvl{s}"), 0.0, 100.0);
        levels.push(lv);
        let mut slot_sel = Vec::new();
        for o in 0..options {
            let b = m.add_binary(format!("b{s}_{o}"));
            slot_sel.push(b);
            cost.add_term(b, cost_of(s, o));
        }
        // Exactly one option per slot, and the slot's level is the chosen
        // option's: lvl − Σ_o level_o · b_o = 0.
        m.add_constr(
            format!("one{s}"),
            LinExpr::sum(slot_sel.iter().copied()),
            Cmp::Eq,
            1.0,
        )
        .unwrap();
        let chosen = LinExpr::weighted_sum(
            slot_sel
                .iter()
                .enumerate()
                .map(|(o, &b)| (b, level_of(s, o))),
        );
        m.add_constr(
            format!("lvl_sel{s}"),
            LinExpr::var(lv) - chosen,
            Cmp::Eq,
            0.0,
        )
        .unwrap();
        sel.push(slot_sel);
    }
    let total = LinExpr::sum(levels.iter().copied());
    m.add_constr("budget", total, Cmp::Le, 20.0).unwrap();
    m.set_objective(Sense::Minimize, cost);

    let got = m.solve(&SolveOptions::default()).unwrap();

    // Brute-force reference.
    let mut best: Option<f64> = None;
    let mut stack = vec![0usize; slots];
    'outer: loop {
        let lvl: f64 = (0..slots).map(|s| level_of(s, stack[s])).sum();
        if lvl <= 20.0 + 1e-9 {
            let c: f64 = (0..slots).map(|s| cost_of(s, stack[s])).sum();
            best = Some(best.map_or(c, |b: f64| b.min(c)));
        }
        for digit in stack.iter_mut() {
            *digit += 1;
            if *digit < options {
                continue 'outer;
            }
            *digit = 0;
        }
        break;
    }
    match (got.solution(), best) {
        (Some(sol), Some(b)) => {
            assert!(
                (sol.objective() - b).abs() < 1e-6,
                "got {}, want {b}",
                sol.objective()
            )
        }
        (None, None) => {}
        (g, b) => panic!(
            "feasibility mismatch: {:?} vs {b:?}",
            g.map(|s| s.objective())
        ),
    }
}

#[test]
fn all_constraint_types_mixed() {
    let mut m = Model::new("mixed");
    let x = m.add_continuous("x", -10.0, 10.0);
    let y = m.add_integer("y", -10.0, 10.0);
    let z = m.add_binary("z");
    m.add_constr("eq", x + 2.0 * y, Cmp::Eq, 3.0).unwrap();
    m.add_constr("ge", x - 1.0 * y + 10.0 * z, Cmp::Ge, 2.0)
        .unwrap();
    m.add_constr("le", x + 1.0 * y + 1.0 * z, Cmp::Le, 6.0)
        .unwrap();
    m.set_objective(Sense::Minimize, 2.0 * x + 3.0 * y + 5.0 * z);
    let sol = m
        .solve(&SolveOptions::default())
        .unwrap()
        .expect_optimal()
        .unwrap();
    assert!(m.is_feasible_point(sol.values(), 1e-6));
    // y integral.
    let yv = sol.value(y);
    assert!((yv - yv.round()).abs() < 1e-6);
}

#[test]
fn infeasible_after_cut_accumulation() {
    // Simulate the exploration pattern: a feasible base model made
    // infeasible by accumulating no-good cuts until every binary pattern is
    // excluded.
    let mut m = Model::new("cuts");
    let bits: Vec<_> = (0..3).map(|i| m.add_binary(format!("b{i}"))).collect();
    m.set_objective(Sense::Minimize, LinExpr::sum(bits.iter().copied()));
    for mask in 0u32..8 {
        // Exclude pattern `mask`: Σ matching literals ≤ 2.
        let mut e = LinExpr::new();
        let mut onbits = 0;
        for (i, &b) in bits.iter().enumerate() {
            if mask >> i & 1 == 1 {
                e.add_term(b, 1.0);
                onbits += 1;
            } else {
                e.add_term(b, -1.0);
            }
        }
        m.add_constr(format!("cut{mask}"), e, Cmp::Le, f64::from(onbits) - 1.0)
            .unwrap();
        let out = m.solve(&SolveOptions::default()).unwrap();
        if mask < 7 {
            assert!(out.is_feasible(), "still {} patterns left", 7 - mask);
        } else {
            assert!(
                matches!(out, Outcome::Infeasible { .. }),
                "all patterns excluded"
            );
        }
    }
}

#[test]
fn moderately_large_lp() {
    // A transportation-style LP: 20 supplies × 20 demands.
    let n = 20;
    let mut m = Model::new("transport");
    let mut vars = vec![Vec::new(); n];
    let mut obj = LinExpr::new();
    for (i, row) in vars.iter_mut().enumerate() {
        for j in 0..n {
            let v = m.add_continuous(format!("t{i}_{j}"), 0.0, f64::INFINITY);
            row.push(v);
            obj.add_term(v, 1.0 + ((i * 7 + j * 13) % 11) as f64);
        }
    }
    for (i, row) in vars.iter().enumerate() {
        m.add_constr(
            format!("supply{i}"),
            LinExpr::sum(row.iter().copied()),
            Cmp::Le,
            10.0,
        )
        .unwrap();
    }
    for j in 0..n {
        let col = LinExpr::sum(vars.iter().map(|row| row[j]));
        m.add_constr(format!("demand{j}"), col, Cmp::Ge, 8.0)
            .unwrap();
    }
    m.set_objective(Sense::Minimize, obj);
    let sol = m
        .solve(&SolveOptions::default())
        .unwrap()
        .expect_optimal()
        .unwrap();
    assert!(m.is_feasible_point(sol.values(), 1e-5));
    // Each unit costs at least 1, total demand 160 → objective ≥ 160.
    assert!(sol.objective() >= 160.0 - 1e-6);
}

#[test]
fn duplicate_variable_terms_merge() {
    let mut m = Model::new("dup");
    let x = m.add_continuous("x", 0.0, 10.0);
    // x + x + x ≤ 9  ⇒ x ≤ 3.
    let e = LinExpr::var(x) + LinExpr::var(x) + LinExpr::var(x);
    m.add_constr("c", e, Cmp::Le, 9.0).unwrap();
    m.set_objective(Sense::Maximize, LinExpr::var(x));
    let sol = m
        .solve(&SolveOptions::default())
        .unwrap()
        .expect_optimal()
        .unwrap();
    assert!((sol.value(x) - 3.0).abs() < 1e-6);
}

#[test]
fn time_limit_enforced() {
    // A deliberately hard symmetric problem with a tiny time budget.
    let n = 26;
    let mut m = Model::new("hard");
    let xs: Vec<_> = (0..n).map(|i| m.add_binary(format!("x{i}"))).collect();
    // Σ odd-weighted xs == half-ish: forces heavy branching.
    let e = LinExpr::weighted_sum(
        xs.iter()
            .enumerate()
            .map(|(i, &x)| (x, 2.0 * i as f64 + 1.0)),
    );
    m.add_constr("parity", e, Cmp::Eq, (n * n / 2) as f64 + 0.5)
        .unwrap();
    m.set_objective(Sense::Minimize, LinExpr::sum(xs.iter().copied()));
    let budget = Budget::unlimited().with_deadline(Deadline::in_secs(0.05));
    let opts = SolveOptions::default().with_budget(budget);
    match m.solve(&opts) {
        Err(SolveError::TimeLimit { .. }) => {}
        Ok(out) => {
            // Fine if the solver proves infeasibility fast enough.
            assert!(matches!(out, Outcome::Infeasible { .. }));
        }
        Err(e) => panic!("unexpected error: {e}"),
    }
}

#[test]
fn an_invalid_objective_is_an_invalid_model_error() {
    // One variable and two rows, so index 1 names no variable although the
    // standard form has a slack column there.
    let mut m = Model::new("bad-objective");
    let x = m.add_continuous("x", 0.0, 10.0);
    m.add_constr("lo", LinExpr::var(x), Cmp::Ge, 1.0).unwrap();
    m.add_constr("hi", LinExpr::var(x), Cmp::Le, 5.0).unwrap();
    for objective in [
        LinExpr::var(x) + LinExpr::term(VarId::from_index(1), 5.0),
        LinExpr::term(x, f64::NAN),
    ] {
        m.set_objective(Sense::Minimize, objective);
        let err = m.solve(&SolveOptions::default()).unwrap_err();
        assert!(matches!(err, SolveError::InvalidModel(_)), "{err}");
    }
}
