//! Differential testing of the LP backends.
//!
//! The dense tableau simplex ([`LpBackend::DenseTableau`]) is kept alive as a
//! reference implementation precisely so the revised simplex can be checked
//! against it: both backends solve the same seeded random LPs and MILPs and
//! must agree on status, optimum, and — for branch-and-bound — the entire
//! incumbent trajectory (the bound/prune/branch trajectory is a function of
//! the LP values, so agreeing incumbents pin far more than the final answer).

use crate::solver::backend::{solve_lp, LpRequest};
use crate::solver::budget::Deadline;
use crate::solver::{branch_bound, LpBackend, LpOutcome, SolveOptions};
use crate::standard_form::StandardForm;
use crate::{Cmp, LinExpr, Model, Sense};

/// Tiny deterministic xorshift64* generator; no external RNG crates.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
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
    /// binary fractions (keeps cross-backend arithmetic comparable).
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let steps = ((hi - lo) * 64.0) as u64;
        lo + (self.next_u64() % steps.max(1)) as f64 / 64.0
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A random bounded-feasible pure LP: maximize a positive objective under
/// `≤` constraints with nonnegative coefficients (always feasible at 0,
/// always bounded by the variable boxes).
fn random_lp(seed: u64) -> Model {
    let mut rng = Rng::new(seed);
    let n = 4 + rng.below(6) as usize;
    let rows = 3 + rng.below(5) as usize;
    let mut m = Model::new(format!("lp{seed}"));
    let vars: Vec<_> = (0..n)
        .map(|i| m.add_continuous(format!("x{i}"), 0.0, rng.uniform(1.0, 10.0)))
        .collect();
    for r in 0..rows {
        let expr: LinExpr = vars
            .iter()
            .map(|&v| LinExpr::term(v, rng.uniform(0.0, 4.0)))
            .sum();
        m.add_constr(format!("c{r}"), expr, Cmp::Le, rng.uniform(3.0, 20.0))
            .unwrap();
    }
    let obj: LinExpr = vars
        .iter()
        .map(|&v| LinExpr::term(v, rng.uniform(0.5, 5.0)))
        .sum();
    m.set_objective(Sense::Maximize, obj);
    m
}

/// A random bounded-feasible MILP mixing binaries, general integers, and
/// continuous variables; fractional capacities force real branching.
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

fn opts_for(backend: LpBackend) -> SolveOptions {
    SolveOptions {
        backend,
        ..SolveOptions::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both backends agree on the optimum of raw LP relaxations, driven
    /// directly through `solve_lp` (no branch-and-bound smoothing).
    #[test]
    fn lp_optima_agree_across_backends() {
        for seed in 0..40u64 {
            let m = random_lp(seed);
            let lbs: Vec<f64> = m.vars().map(|(_, d)| d.lb).collect();
            let ubs: Vec<f64> = m.vars().map(|(_, d)| d.ub).collect();
            let sf = StandardForm::build(&m, Some((&lbs, &ubs)));
            let mut objs = Vec::new();
            for backend in [LpBackend::Revised, LpBackend::DenseTableau] {
                let opts = opts_for(backend);
                let solve = solve_lp(&LpRequest {
                    sf: &sf,
                    opts: &opts,
                    deadline: Deadline::unlimited(),
                    warm: None,
                });
                match solve
                    .result
                    .unwrap_or_else(|e| panic!("seed {seed}: backend {backend:?} errored: {e}"))
                {
                    LpOutcome::Optimal { min_obj, .. } => objs.push((backend, min_obj)),
                    other => panic!("seed {seed}: backend {backend:?} returned {other:?}"),
                }
            }
            let (b0, o0) = objs[0];
            let (b1, o1) = objs[1];
            assert!(
                (o0 - o1).abs() <= 1e-6 * (1.0 + o0.abs()),
                "seed {seed}: {b0:?} found {o0}, {b1:?} found {o1}"
            );
        }
    }

    /// Both backends produce identical branch-and-bound incumbent
    /// trajectories (every accepted incumbent objective, in commit order) on
    /// seeded random MILPs — warm starts on or off.
    #[test]
    fn milp_incumbent_trajectories_agree_across_backends() {
        for seed in 0..25u64 {
            let m = random_milp(seed);
            for warm_start in [false, true] {
                let mut runs = Vec::new();
                for backend in [LpBackend::Revised, LpBackend::DenseTableau] {
                    let opts = SolveOptions {
                        warm_start,
                        ..opts_for(backend)
                    };
                    let mut traj = Vec::new();
                    let (outcome, _) = branch_bound::solve_traced(&m, &opts, None, Some(&mut traj))
                        .unwrap_or_else(|e| panic!("seed {seed}: {backend:?} errored: {e}"));
                    let obj = outcome
                        .expect_optimal()
                        .unwrap_or_else(|e| panic!("seed {seed}: {backend:?}: {e}"))
                        .objective();
                    runs.push((backend, obj, traj));
                }
                let (b0, o0, t0) = &runs[0];
                let (b1, o1, t1) = &runs[1];
                assert!(
                    (o0 - o1).abs() <= 1e-6 * (1.0 + o0.abs()),
                    "seed {seed} warm={warm_start}: {b0:?} optimum {o0} vs {b1:?} {o1}"
                );
                assert_eq!(
                    t0.len(),
                    t1.len(),
                    "seed {seed} warm={warm_start}: trajectory lengths differ: \
                     {b0:?} {t0:?} vs {b1:?} {t1:?}"
                );
                for (i, (a, b)) in t0.iter().zip(t1).enumerate() {
                    assert!(
                        (a - b).abs() <= 1e-6 * (1.0 + a.abs()),
                        "seed {seed} warm={warm_start}: incumbent {i} differs: \
                         {b0:?} {a} vs {b1:?} {b}"
                    );
                }
            }
        }
    }

    /// Warm-started and cold solves agree bit-for-bit on the revised
    /// backend's final objective: warm starting changes work, not answers.
    #[test]
    fn warm_and_cold_runs_agree_bitwise_on_revised_backend() {
        for seed in 0..25u64 {
            let m = random_milp(seed);
            let solve_with = |warm_start: bool| {
                let opts = SolveOptions {
                    warm_start,
                    ..opts_for(LpBackend::Revised)
                };
                branch_bound::solve(&m, &opts, None)
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
