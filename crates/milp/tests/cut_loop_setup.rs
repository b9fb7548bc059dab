//! A cut loop run through `Solver::solve_with_state` twice: once carrying
//! each solve's root setup (presolve run and equilibrated standard form)
//! into the next, as the exploration does, and once with the basis alone,
//! so every solve presolves and builds its form from scratch. Carrying the
//! setup must change nothing but the work: every outcome bit, pivot, node
//! and refactorization stays the same.
//!
//! The counters live in the process-global metrics registry. Every test in
//! this file runs inside `with_metrics`, which serializes its callers, and
//! no other test shares this binary.

use contrarc_milp::{Cmp, LinExpr, Model, Sense, SolveOptions, Solver, VarId, WarmStart};
use contrarc_obs::metrics::with_metrics;

/// Twelve priced binaries in four groups of three, at least one per group,
/// feeding a continuous flow per group that must meet a total demand.
fn selection_model() -> Model {
    let mut m = Model::new("select");
    let costs = [
        3.0, 4.5, 2.25, 5.0, 3.5, 6.0, 2.75, 4.0, 3.25, 5.5, 4.25, 2.5,
    ];
    let caps = [4.0, 6.0, 3.0, 7.0, 5.0, 8.0, 3.5, 6.5, 4.5, 7.5, 5.5, 3.0];
    let xs: Vec<VarId> = (0..12).map(|i| m.add_binary(format!("x{i}"))).collect();
    let mut cost = LinExpr::new();
    for (&x, &c) in xs.iter().zip(&costs) {
        cost.add_term(x, c);
    }
    let mut demand = LinExpr::new();
    for g in 0..4 {
        let y = m.add_continuous(format!("y{g}"), 0.0, 10.0);
        let group = &xs[3 * g..3 * g + 3];
        let at_least_one: LinExpr = group.iter().map(|&x| LinExpr::var(x)).sum();
        m.add_constr(format!("one{g}"), at_least_one, Cmp::Ge, 1.0)
            .unwrap();
        // The flow fits the capacity of the group's selected members.
        let mut cap = LinExpr::var(y);
        for (k, &x) in group.iter().enumerate() {
            cap.add_term(x, -caps[3 * g + k]);
        }
        m.add_constr(format!("cap{g}"), cap, Cmp::Le, 0.0).unwrap();
        demand.add_term(y, 1.0);
        cost.add_term(y, 0.25);
    }
    m.add_constr("demand", demand, Cmp::Ge, 26.0).unwrap();
    m.set_objective(Sense::Minimize, cost);
    m
}

/// Exclude the selection `chosen` (and every superset of it). Every third
/// cut goes through a fresh auxiliary binary `z`: either not all of
/// `chosen`, or `z`, which forbids its first member. Every fourth is
/// written 1024 times over, which moves column scale factors, and every
/// fifth iteration also caps a flow below its bound, which presolve
/// propagates.
fn cut(m: &mut Model, chosen: &[VarId], iteration: usize) {
    let size = chosen.len() as f64;
    let all: LinExpr = chosen.iter().map(|&x| LinExpr::var(x)).sum();
    if iteration % 3 == 2 {
        let z = m.add_binary(format!("z{iteration}"));
        m.add_constr(format!("cut{iteration}"), all - z, Cmp::Le, size - 1.0)
            .unwrap();
        m.add_constr(format!("aux{iteration}"), z + chosen[0], Cmp::Le, 1.0)
            .unwrap();
    } else {
        let k = if iteration % 4 == 3 { 1024.0 } else { 1.0 };
        m.add_constr(
            format!("cut{iteration}"),
            k * all,
            Cmp::Le,
            k * (size - 1.0),
        )
        .unwrap();
    }
    if iteration % 5 == 4 {
        let y = VarId::from_index(12 + iteration % 4);
        let cap = 10.0 - 0.25 * (iteration / 5 + 1) as f64;
        m.add_constr(format!("flow{iteration}"), LinExpr::var(y), Cmp::Le, cap)
            .unwrap();
    }
}

/// One solve's outcome bits and work.
#[derive(Debug, PartialEq)]
struct Solve {
    objective_bits: u64,
    value_bits: Vec<u64>,
    pivots: u64,
    nodes: u64,
}

/// What one run of the loop did, solve by solve, with its counters.
#[derive(Debug)]
struct Run {
    solves: Vec<Solve>,
    refactorizations: u64,
    presolve_reused: u64,
    form_extended: u64,
}

/// Run 24 iterations of the cut loop, or until it runs out of selections.
/// With `carry` each solve hands its whole state to the next; without, only
/// a clone of it, which keeps the basis and drops the root setup.
fn run(carry: bool) -> Run {
    let (solves, report) = with_metrics(|| {
        let mut m = selection_model();
        let xs: Vec<VarId> = m.vars().map(|(v, _)| v).take(12).collect();
        let solver = Solver::new(SolveOptions::default());
        let mut warm: Option<WarmStart> = None;
        let mut solves = Vec::new();
        for iteration in 0..24 {
            let offered = if carry { warm } else { warm.clone() };
            let (outcome, state) = solver.solve_with_state(&m, offered.as_ref()).unwrap();
            warm = state;
            let stats = *outcome.stats();
            let Some(solution) = outcome.solution() else {
                break;
            };
            solves.push(Solve {
                objective_bits: solution.objective().to_bits(),
                value_bits: solution.values().iter().map(|v| v.to_bits()).collect(),
                pivots: stats.simplex_iterations,
                nodes: stats.nodes,
            });
            let chosen: Vec<VarId> = xs.iter().copied().filter(|&x| solution.is_set(x)).collect();
            cut(&mut m, &chosen, iteration);
        }
        solves
    });
    let counter = |name| report.counter(name).unwrap_or(0);
    Run {
        solves,
        refactorizations: counter("milp.refactorizations"),
        presolve_reused: counter("milp.presolve_reused"),
        form_extended: counter("milp.form_extended"),
    }
}

#[test]
fn carrying_the_root_setup_changes_no_outcome_and_no_work() {
    let carried = run(true);
    let rebuilt = run(false);
    assert_eq!(carried.solves.len(), 24);
    assert_eq!(carried.solves, rebuilt.solves);
    assert_eq!(carried.refactorizations, rebuilt.refactorizations);
    assert_eq!((rebuilt.presolve_reused, rebuilt.form_extended), (0, 0));
    // Of the 23 solves after the first, the four after a flow cap rerun
    // presolve; the four after a scaled cut, and one after an auxiliary
    // cut with a flow cap, rebuild the form.
    assert_eq!((carried.presolve_reused, carried.form_extended), (19, 18));
}
