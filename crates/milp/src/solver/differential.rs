//! Differential testing of the solver against an enumeration oracle.
//!
//! [`oracle_optimum`] reads nothing but the [`Model`] — its rows, bounds,
//! objective and sense — and finds the optimum by brute force: it enumerates
//! every integer assignment and, for the continuous part, every vertex of
//! the polytope the rows and bounds leave. It shares no code with the
//! standard form, presolve, the simplex or branch-and-bound, so a defect in
//! any of those cannot pass by agreeing with itself. Seeded random LPs and
//! MILPs, solved at every rung of the numerical retry ladder with warm
//! starts off and on, must match its status and optimum.

use crate::solver::backend::REFACTORIZATIONS;
use crate::solver::{branch_bound, LpWorkspace, Numerics, SolveOptions, WarmStart};
use crate::{Cmp, LinExpr, Model, Outcome, Sense, Status, VarDef, VarType};

/// Tiny deterministic xorshift64* generator; no external RNG crates.
pub(super) struct Rng(u64);

impl Rng {
    pub(super) fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(2685821657736338717).max(1))
    }
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(2685821657736338717)
    }
    /// Uniform in `[lo, hi)`, quantized to 1/64 so coefficients are exact
    /// binary fractions.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let steps = ((hi - lo) * 64.0) as u64;
        lo + (self.next_u64() % steps.max(1)) as f64 / 64.0
    }
    pub(super) fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
    /// A multiple of 1/4 in `[lo, hi]`: exact in binary, so sums of products
    /// of these stay exact.
    pub(super) fn quarter(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.below(((hi - lo) * 4.0) as u64 + 1) as f64 / 4.0
    }
}

/// A random model small enough for [`oracle_optimum`]: 2–6 variables with
/// finite bounds (some fixed), 2–5 `≤`/`≥`/`=` rows with coefficients of
/// either sign, and either objective sense. Continuous variables only unless
/// `mixed`, which draws binaries, general integers and continuous variables.
/// Each row is written to hold at a random anchor point in the box, except
/// that one row in ten is shifted away from it, so most models are feasible
/// and some are not.
fn random_model(seed: u64, mixed: bool) -> Model {
    let (salt, prefix) = if mixed {
        (0x9e3779b97f4a7c15, "milp")
    } else {
        (0, "lp")
    };
    let mut rng = Rng::new(seed ^ salt);
    let n = 2 + rng.below(5) as usize;
    let rows = 2 + rng.below(4) as usize;
    let mut m = Model::new(format!("{prefix}{seed}"));
    let mut anchor = Vec::with_capacity(n);
    let vars: Vec<_> = (0..n)
        .map(|i| {
            let kind = if mixed { rng.below(3) } else { 2 };
            let (ty, lb, width) = match kind {
                0 => (VarType::Binary, 0.0, 1.0),
                1 => (
                    VarType::Integer,
                    rng.below(4) as f64 - 2.0,
                    rng.below(5) as f64,
                ),
                _ => {
                    // One continuous variable in six is fixed.
                    let width = if rng.below(6) == 0 {
                        0.0
                    } else {
                        rng.quarter(0.25, 6.0)
                    };
                    (VarType::Continuous, rng.quarter(-3.0, 2.0), width)
                }
            };
            anchor.push(if ty == VarType::Continuous {
                lb + rng.quarter(0.0, width)
            } else {
                lb + rng.below(width as u64 + 1) as f64
            });
            m.add_var(VarDef::new(format!("x{i}"), ty, lb, lb + width))
        })
        .collect();
    for r in 0..rows {
        let mut expr = LinExpr::new();
        for &v in &vars {
            if rng.below(4) != 0 {
                expr.add_term(v, rng.quarter(-4.0, 4.0));
            }
        }
        let at_anchor = expr.eval(&anchor);
        let slack = if rng.below(10) == 0 {
            -rng.quarter(0.25, 2.0)
        } else {
            rng.quarter(0.0, 3.0)
        };
        let (cmp, rhs) = match rng.below(5) {
            0 | 1 => (Cmp::Le, at_anchor + slack),
            2 | 3 => (Cmp::Ge, at_anchor - slack),
            _ => (Cmp::Eq, at_anchor + slack.min(0.0)),
        };
        m.add_constr(format!("c{r}"), expr, cmp, rhs).unwrap();
    }
    let obj: LinExpr = vars
        .iter()
        .map(|&v| LinExpr::term(v, rng.quarter(-5.0, 5.0)))
        .sum();
    let sense = if rng.below(2) == 0 {
        Sense::Minimize
    } else {
        Sense::Maximize
    };
    m.set_objective(sense, obj);
    m
}

/// The random bounded-feasible MILP of the warm/cold bit-identity test:
/// binaries, general integers and continuous variables under `≤` rows with
/// nonnegative coefficients; fractional capacities force real branching.
fn random_milp(seed: u64) -> Model {
    let mut rng = Rng::new(seed ^ 0x9e3779b97f4a7c15);
    let n = 6 + rng.below(5) as usize;
    let mut m = Model::new(format!("milp{seed}"));
    let vars: Vec<_> = (0..n)
        .map(|i| match rng.below(3) {
            0 => m.add_binary(format!("b{i}")),
            1 => m.add_integer(format!("z{i}"), 0.0, 5.0),
            _ => m.add_continuous(format!("y{i}"), 0.0, 6.0),
        })
        .collect();
    let rows = 2 + rng.below(3) as usize;
    for r in 0..rows {
        let expr: LinExpr = vars
            .iter()
            .map(|&v| LinExpr::term(v, rng.uniform(0.5, 6.0)))
            .sum();
        m.add_constr(format!("c{r}"), expr, Cmp::Le, rng.uniform(8.0, 30.0))
            .unwrap();
    }
    let obj: LinExpr = vars
        .iter()
        .map(|&v| LinExpr::term(v, rng.uniform(1.0, 9.0)))
        .sum();
    m.set_objective(Sense::Maximize, obj);
    m
}

/// The optimal objective of `m` by enumeration, `None` when `m` is
/// infeasible. Every variable needs finite bounds, and the work grows as
/// (integer assignments) × C(rows + 2·continuous, continuous).
///
/// For each integer assignment, every vertex of the continuous polytope is
/// the unique solution of some set of linearly independent hyperplanes, one
/// per continuous variable, taken from the rows and the variable bounds; the
/// polytope is bounded, so a nonempty one has a vertex and its optimum is
/// attained at one. All such subsets are tried, not only those containing
/// every equality row: an equality row may have no continuous term once the
/// integers are fixed, and equality rows may be linearly dependent.
/// [`Model::is_feasible_point`] keeps the candidates that satisfy every row.
fn oracle_optimum(m: &Model) -> Option<f64> {
    let defs: Vec<&VarDef> = m.vars().map(|(_, d)| d).collect();
    let (ints, conts): (Vec<usize>, Vec<usize>) =
        (0..defs.len()).partition(|&i| defs[i].ty.is_integral());
    let mut x = vec![0.0; defs.len()];
    for &i in &ints {
        x[i] = defs[i].lb.ceil();
    }
    let mut best: Option<f64> = None;
    loop {
        // Hyperplanes over the continuous variables, `a · x_cont = rhs`: the
        // rows with their integer terms moved to the right-hand side, then
        // both bounds of each continuous variable.
        let mut planes: Vec<(Vec<f64>, f64)> = m
            .constrs()
            .map(|c| {
                let mut a = vec![0.0; conts.len()];
                let mut rhs = c.rhs;
                for (v, coef) in c.expr.iter() {
                    match conts.iter().position(|&j| j == v.index()) {
                        Some(p) => a[p] += coef,
                        None => rhs -= coef * x[v.index()],
                    }
                }
                (a, rhs)
            })
            .collect();
        for (p, &j) in conts.iter().enumerate() {
            for bound in [defs[j].lb, defs[j].ub] {
                let mut a = vec![0.0; conts.len()];
                a[p] = 1.0;
                planes.push((a, bound));
            }
        }
        for_each_subset(planes.len(), conts.len(), &mut Vec::new(), &mut |subset| {
            let a = subset.iter().map(|&s| planes[s].0.clone()).collect();
            let b = subset.iter().map(|&s| planes[s].1).collect();
            let Some(y) = solve_square(a, b) else {
                return;
            };
            for (&j, &yj) in conts.iter().zip(&y) {
                x[j] = yj;
            }
            if m.is_feasible_point(&x, 1e-9) {
                let obj = m.objective().eval(&x);
                let better = match (best, m.sense()) {
                    (None, _) => true,
                    (Some(b), Sense::Minimize) => obj < b,
                    (Some(b), Sense::Maximize) => obj > b,
                };
                if better {
                    best = Some(obj);
                }
            }
        });
        // Next integer assignment, odometer style.
        let mut k = 0;
        loop {
            let Some(&i) = ints.get(k) else {
                return best;
            };
            if x[i] + 1.0 <= defs[i].ub {
                x[i] += 1.0;
                break;
            }
            x[i] = defs[i].lb.ceil();
            k += 1;
        }
    }
}

/// Calls `f` with every `k`-subset of `0..n` that extends `chosen`.
fn for_each_subset(n: usize, k: usize, chosen: &mut Vec<usize>, f: &mut dyn FnMut(&[usize])) {
    if chosen.len() == k {
        f(chosen);
        return;
    }
    let start = chosen.last().map_or(0, |&c| c + 1);
    for i in start..n {
        if n - i < k - chosen.len() {
            break;
        }
        chosen.push(i);
        for_each_subset(n, k, chosen, f);
        chosen.pop();
    }
}

/// Solves the square system `a · y = b` by Gaussian elimination with partial
/// pivoting; `None` when it is singular.
fn solve_square(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        let piv = (col..n).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[piv][col].abs() < 1e-9 {
            return None;
        }
        a.swap(col, piv);
        b.swap(col, piv);
        let (top, rest) = a.split_at_mut(col + 1);
        let pivot_row = &top[col];
        for (row, r) in rest.iter_mut().zip(col + 1..) {
            let factor = row[col] / pivot_row[col];
            for (v, p) in row.iter_mut().zip(pivot_row) {
                *v -= factor * p;
            }
            b[r] -= factor * b[col];
        }
    }
    let mut y = vec![0.0; n];
    for r in (0..n).rev() {
        let known: f64 = (r + 1..n).map(|c| a[r][c] * y[c]).sum();
        y[r] = (b[r] - known) / a[r][r];
    }
    Some(y)
}

/// `m` without its last row: the model a cut loop solves before appending
/// that row as a cut.
fn without_last_row(m: &Model) -> Model {
    let mut prefix = Model::new(m.name());
    for (_, d) in m.vars() {
        prefix.add_var(d.clone());
    }
    for c in m.constrs().take(m.num_constrs() - 1) {
        prefix
            .add_constr(c.name.clone(), c.expr.clone(), c.cmp, c.rhs)
            .unwrap();
    }
    prefix.set_objective(m.sense(), m.objective().clone());
    prefix
}

/// Solves `m` with the settings of retry-ladder rung `rung` and compares the
/// result with the oracle's `expected` optimum. With warm starts on, the
/// solve starts from the optimal basis of `m` without its last row — the
/// cut-loop pattern — so the dual simplex repairs an appended row and every
/// branch-and-bound child starts from its parent.
fn check_solve(
    m: &Model,
    expected: Option<f64>,
    rung: u64,
    warm_start: bool,
) -> Result<(), String> {
    let opts = SolveOptions {
        warm_start,
        ..SolveOptions::default()
    };
    let numerics = Numerics::at_rung(rung);
    let root_warm = if warm_start {
        branch_bound::solve(&without_last_row(m), &opts, &numerics, None)
            .map_err(|e| format!("solving without the last row: {e}"))?
            .1
    } else {
        None
    };
    let (outcome, _) =
        branch_bound::solve(m, &opts, &numerics, root_warm.as_ref()).map_err(|e| e.to_string())?;
    match (expected, outcome.status()) {
        (None, Status::Infeasible) => Ok(()),
        (Some(opt), Status::Optimal) => {
            let sol = outcome.expect_optimal().map_err(|e| e.to_string())?;
            if (sol.objective() - opt).abs() > 1e-6 * (1.0 + opt.abs()) {
                Err(format!(
                    "optimum {} but the oracle found {opt}",
                    sol.objective()
                ))
            } else if !m.is_feasible_point(sol.values(), 1e-6) {
                Err(format!("infeasible point {:?}", sol.values()))
            } else {
                Ok(())
            }
        }
        (expected, status) => Err(format!(
            "status {status:?} but the oracle found {expected:?}"
        )),
    }
}

/// Everything a solve reports, as bits: the outcome's status, objective and
/// values, its nodes and pivots, the basis it hands on, and the
/// refactorizations of its LPs; or its error.
type SolveBits = Result<
    (
        Status,
        Option<(u64, Vec<u64>)>,
        u64,
        u64,
        Option<(Vec<u32>, Vec<u8>)>,
    ),
    String,
>;

/// Solves `m` as [`check_solve`] does, but with its node LPs on workspace
/// `ws`; returns what the solve reported with its refactorizations, and the
/// workspace when the solve hands it on.
fn solve_on(
    m: &Model,
    rung: u64,
    warm_start: bool,
    ws: LpWorkspace,
) -> ((SolveBits, u64), Option<LpWorkspace>) {
    let opts = SolveOptions {
        warm_start,
        ..SolveOptions::default()
    };
    let numerics = Numerics::at_rung(rung);
    let root_warm = warm_start
        .then(|| branch_bound::solve(&without_last_row(m), &opts, &numerics, None).ok())
        .flatten()
        .and_then(|(_, state)| state);
    let before = REFACTORIZATIONS.with(|n| n.get());
    let result = branch_bound::solve_on(m, &opts, &numerics, root_warm.as_ref(), ws);
    let refactorizations = REFACTORIZATIONS.with(|n| n.get()) - before;
    let bits = |outcome: &Outcome, state: &Option<WarmStart>| {
        let solution = outcome.solution().map(|s| {
            (
                s.objective().to_bits(),
                s.values().iter().map(|v| v.to_bits()).collect(),
            )
        });
        let basis = state
            .as_ref()
            .map(|w| (w.snap.basis.clone(), w.snap.state.clone()));
        let stats = outcome.stats();
        (
            outcome.status(),
            solution,
            stats.nodes,
            stats.simplex_iterations,
            basis,
        )
    };
    match result {
        Ok((outcome, state)) => {
            let reported = bits(&outcome, &state);
            let ws = state.as_ref().and_then(WarmStart::take_workspace);
            ((Ok(reported), refactorizations), ws)
        }
        Err(e) => ((Err(e.to_string()), refactorizations), None),
    }
}

/// Checks 200 seeded models against the oracle, each solved at every
/// retry-ladder rung with warm starts off and on; panics listing every
/// disagreement. Returns how many of the models are feasible.
fn check_population(mixed: bool) -> usize {
    let mut feasible = 0;
    let mut mismatches = Vec::new();
    for seed in 0..200 {
        let m = random_model(seed, mixed);
        let expected = oracle_optimum(&m);
        feasible += usize::from(expected.is_some());
        for rung in 0..=Numerics::TOP_RUNG {
            for warm_start in [false, true] {
                if let Err(e) = check_solve(&m, expected, rung, warm_start) {
                    mismatches.push(format!(
                        "{} rung={rung} warm_start={warm_start}: {e}",
                        m.name()
                    ));
                }
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of 1,600 solves disagree with the oracle:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
    feasible
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_solves_known_models() {
        // max 3x + 4y s.t. x + 2y <= 14, 3x - y >= 0, x - y <= 2 on a box
        // that does not bind: optimum 34 at (6, 4).
        let mut m = Model::new("lp");
        let x = m.add_continuous("x", 0.0, 20.0);
        let y = m.add_continuous("y", 0.0, 20.0);
        m.add_constr("c1", x + 2.0 * y, Cmp::Le, 14.0).unwrap();
        m.add_constr("c2", 3.0 * x - y, Cmp::Ge, 0.0).unwrap();
        m.add_constr("c3", x - y, Cmp::Le, 2.0).unwrap();
        m.set_objective(Sense::Maximize, 3.0 * x + 4.0 * y);
        assert_eq!(oracle_optimum(&m), Some(34.0));

        // max x with integer x in [0, 10] and 2x <= 7: optimum 3.
        let mut m = Model::new("int");
        let x = m.add_integer("x", 0.0, 10.0);
        m.add_constr("c", 2.0 * x, Cmp::Le, 7.0).unwrap();
        m.set_objective(Sense::Maximize, 1.0 * x);
        assert_eq!(oracle_optimum(&m), Some(3.0));

        // A pure-integer equality row next to a continuous variable, and
        // dependent equality rows: x + y = 1.5 and 2x + 2y = 3 with y >= 1.
        let mut m = Model::new("mixed");
        let b = m.add_binary("b");
        let z = m.add_integer("z", 0.0, 3.0);
        let y = m.add_continuous("y", 1.0, 4.0);
        m.add_constr("int_eq", b + z, Cmp::Eq, 2.0).unwrap();
        m.add_constr("e1", z + y, Cmp::Eq, 3.5).unwrap();
        m.add_constr("e2", 2.0 * z + 2.0 * y, Cmp::Eq, 7.0).unwrap();
        m.set_objective(Sense::Minimize, 1.0 * y + 1.0 * b);
        // (b, z, y) = (1, 1, 2.5) or (0, 2, 1.5): the second is better.
        assert_eq!(oracle_optimum(&m), Some(1.5));

        m.add_constr("clash", 1.0 * y, Cmp::Ge, 3.0).unwrap();
        // Now z + y = 3.5 forces z = 0, so b = 2: infeasible.
        assert_eq!(oracle_optimum(&m), None);
    }

    #[test]
    fn lp_optima_match_the_vertex_enumeration_oracle() {
        let feasible = check_population(false);
        assert!(
            (100..200).contains(&feasible),
            "the generator must keep making feasible and infeasible LPs: {feasible} of 200 feasible"
        );
    }

    #[test]
    fn milp_optima_match_the_enumeration_oracle() {
        let feasible = check_population(true);
        assert!(
            (100..200).contains(&feasible),
            "the generator must keep making feasible and infeasible MILPs: {feasible} of 200 feasible"
        );
    }

    /// Every solve of the oracle's 400 models and of the bit-identity test's
    /// MILPs, at every rung with warm starts off and on, reports the same
    /// bits on a reused workspace poisoned with NaN as on a fresh one: a
    /// workspace carries values only under keys, and poisoned keys match
    /// no form.
    #[test]
    fn a_poisoned_reused_workspace_changes_no_bit() {
        let models = (0..200)
            .flat_map(|seed| [random_model(seed, false), random_model(seed, true)])
            .chain((0..25).map(random_milp));
        let mut used = LpWorkspace::default();
        let (mut solves, mut poisoned) = (0, 0);
        for m in models {
            for rung in 0..=Numerics::TOP_RUNG {
                for warm_start in [false, true] {
                    let (fresh, _) = solve_on(&m, rung, warm_start, LpWorkspace::default());
                    poisoned += usize::from(used.poison() > 0);
                    let (reused, handed_on) = solve_on(&m, rung, warm_start, used.clone());
                    assert_eq!(
                        reused,
                        fresh,
                        "{} rung={rung} warm_start={warm_start}",
                        m.name()
                    );
                    used = handed_on.unwrap_or(used);
                    solves += 1;
                }
            }
        }
        // Only the first model's first two solves, which no solve handed a
        // workspace on to, start from an empty one.
        assert_eq!(solves, 425 * 8);
        assert_eq!(poisoned, solves - 2, "workspaces that held buffers");
    }

    /// Taking factors, basic values and reduced costs from the workspace's
    /// slots changes no bit: each seeded MILP, at every rung and warm
    /// started, reports the same optimum, nodes, pivots and handed-on basis
    /// as with the reuse off; most branch, and each of those takes slots.
    #[test]
    fn reusing_the_slots_changes_no_bit() {
        let (mut solves, mut branched, mut fewer) = (0, 0, 0);
        for seed in 0..25 {
            let m = random_milp(seed);
            for rung in 0..=Numerics::TOP_RUNG {
                let ((reused, with), _) = solve_on(&m, rung, true, LpWorkspace::default());
                let mut off = LpWorkspace::default();
                off.reuse_off = true;
                let ((recomputed, without), _) = solve_on(&m, rung, true, off);
                assert_eq!(reused, recomputed, "{} rung={rung}", m.name());
                let (_, _, nodes, _, _) = reused.expect("every seeded MILP solves");
                solves += 1;
                branched += usize::from(nodes > 1);
                fewer += usize::from(with < without);
            }
        }
        assert!(
            branched * 4 >= solves * 3,
            "{branched} of {solves} solves branch"
        );
        assert_eq!(fewer, branched, "branching solves that took a slot");
    }

    /// Warm-started and cold solves agree bit-for-bit on the final
    /// objective: warm starting changes work, not answers.
    #[test]
    fn warm_and_cold_runs_agree_bitwise_on_revised_backend() {
        for seed in 0..25u64 {
            let m = random_milp(seed);
            let solve_with = |warm_start: bool| {
                let opts = SolveOptions {
                    warm_start,
                    ..SolveOptions::default()
                };
                branch_bound::solve(&m, &opts, &Numerics::at_rung(0), None)
                    .unwrap()
                    .0
                    .expect_optimal()
                    .unwrap()
                    .objective()
            };
            let warm = solve_with(true);
            let cold = solve_with(false);
            assert_eq!(
                warm.to_bits(),
                cold.to_bits(),
                "seed {seed}: warm {warm} vs cold {cold}"
            );
        }
    }
}
