//! One LP solve over a [`StandardForm`], with optional warm starting from a
//! [`BasisSnapshot`]: the whole LP interface branch-and-bound uses.
//!
//! [`solve_lp`] runs the revised simplex (see the `revised` module). It tries
//! the warm (dual simplex) path when warm starts are on and a snapshot is
//! offered, falls back to a cold solve otherwise or when the warm path fails
//! (unusable snapshot, numerical trouble), settles the pivot budget at the LP
//! boundary, and reports what happened so callers can emit metrics at
//! deterministic commit points.

use crate::error::SolveError;
use crate::solver::budget::Deadline;
use crate::solver::revised::{LpWorkspace, RevisedSimplex};
use crate::solver::{Numerics, SolveOptions};
use crate::standard_form::StandardForm;
use std::sync::Arc;

/// Result of an LP solve.
#[derive(Debug, Clone)]
pub(crate) enum LpOutcome {
    /// Optimal basic solution: structural variable values and the *internal
    /// minimization* objective value (callers map it back through
    /// [`StandardForm::model_objective`]).
    Optimal {
        values: Vec<f64>,
        min_obj: f64,
    },
    Infeasible,
    Unbounded,
}

/// A reusable snapshot of an optimal basis, for warm-starting the dual
/// simplex. Valid across *bound* changes (branch-and-bound children share
/// their parent's snapshot) and across *growth* of the standard form — the
/// exploration cut loop only ever appends cut rows and auxiliary columns, and
/// [`BasisSnapshot::remap`] extends a snapshot to the grown shape. Coefficient
/// changes to existing entries invalidate a snapshot.
#[derive(Debug, Clone)]
pub(crate) struct BasisSnapshot {
    pub(crate) basis: Vec<u32>,
    /// Per column: 0 = at lower, 1 = at upper, 2 = free-at-zero, 3 = basic.
    pub(crate) state: Vec<u8>,
}

impl BasisSnapshot {
    /// Rows covered by this snapshot.
    pub(crate) fn num_rows(&self) -> usize {
        self.basis.len()
    }

    /// Structural columns covered by this snapshot (columns are structurals
    /// followed by one slack per row).
    pub(crate) fn num_structural(&self) -> usize {
        self.state.len() - self.basis.len()
    }

    /// Extend a snapshot to a standard form that *grew* from the one it was
    /// taken on: `new_structural ≥` old structurals (appended auxiliary
    /// columns) and `new_rows ≥` old rows (appended cut rows). Old column
    /// indices are remapped (slacks shift when structurals are appended), new
    /// structurals start nonbasic at a bound, and each new row's slack starts
    /// basic — exactly the state the dual simplex repairs when the appended
    /// cuts are violated by the previous optimum. Returns `None` when the
    /// shape shrank in either dimension (the snapshot describes a different
    /// problem).
    pub(crate) fn remap(&self, new_structural: usize, new_rows: usize) -> Option<BasisSnapshot> {
        let old_n = self.num_structural();
        let old_m = self.num_rows();
        if new_structural < old_n || new_rows < old_m {
            return None;
        }
        if new_structural == old_n && new_rows == old_m {
            return Some(self.clone());
        }
        let remap_col = |c: usize| -> usize {
            if c < old_n {
                c
            } else {
                c - old_n + new_structural
            }
        };
        let mut basis: Vec<u32> = self
            .basis
            .iter()
            .map(|&b| remap_col(b as usize) as u32)
            .collect();
        let mut state = vec![0u8; new_structural + new_rows];
        for (j, &s) in self.state.iter().enumerate() {
            state[remap_col(j)] = s;
        }
        // Appended structural columns: nonbasic at their lower bound (the
        // engine's install pass moves unbounded-below columns elsewhere).
        // Appended rows: their slack starts basic in that row.
        for r in old_m..new_rows {
            let slack = new_structural + r;
            state[slack] = 3;
            basis.push(slack as u32);
        }
        Some(BasisSnapshot { basis, state })
    }
}

/// Everything one LP solve needs.
pub(crate) struct LpRequest<'a> {
    pub sf: &'a StandardForm,
    pub opts: &'a SolveOptions,
    /// The retry-ladder rung's tolerances, pricing and refactorization
    /// cadence.
    pub numerics: &'a Numerics,
    pub deadline: Deadline,
    /// Snapshot to warm-start from; ignored unless `opts.warm_start`.
    pub warm: Option<&'a BasisSnapshot>,
}

/// What one LP solve produced. `pivots` is recorded even when the solve
/// errored, so committed branch-and-bound statistics stay exact; the warm /
/// refactorization flags let callers emit metrics only at deterministic
/// commit points (speculative evaluations stay silent).
pub(crate) struct LpSolve {
    pub result: Result<LpOutcome, SolveError>,
    pub pivots: u64,
    /// Optimal basis for future warm starts (only on an optimal outcome
    /// with warm starts on).
    pub basis: Option<Arc<BasisSnapshot>>,
    /// A warm start was attempted (a snapshot was offered and enabled).
    pub warm_attempted: bool,
    /// The warm (dual simplex) path produced the outcome.
    pub warm_used: bool,
    /// Basis refactorizations performed during this solve.
    pub refactorizations: u64,
    /// Factorizations taken instead of rebuilt: at a warm install whose
    /// basis one of the workspace's slots factors, and at a finish whose eta
    /// file is empty.
    pub refactor_reuses: u64,
}

#[cfg(test)]
thread_local! {
    /// Refactorizations of the LP solves this thread has run, for tests
    /// that compare the work of two solves.
    pub(crate) static REFACTORIZATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Solve one LP on workspace `ws`, warm-starting when the request carries a
/// usable snapshot and falling back to a cold solve otherwise.
pub(crate) fn solve_lp(req: &LpRequest<'_>, ws: &mut LpWorkspace) -> LpSolve {
    let new_engine =
        |ws| RevisedSimplex::new(req.sf, &req.opts.budget, *req.numerics, req.deadline, ws);
    let mut engine = new_engine(ws);
    let warm_attempted = req.opts.warm_start && req.warm.is_some();
    let mut warm_used = false;
    let mut refactorizations = 0u64;
    let mut refactor_reuses = 0u64;
    let mut pivots = 0u64;
    let lp_result = match req.warm {
        Some(snap) if req.opts.warm_start => match engine.solve_warm(snap) {
            Ok(Some(outcome)) => {
                warm_used = true;
                Ok(outcome)
            }
            Ok(None) | Err(SolveError::Numerical(_)) => {
                // Unusable snapshot (singular basis, lost dual feasibility)
                // or a numerical failure during the repair (a singular
                // refactorization, say): cold start on a fresh engine over
                // the same workspace, keeping the pivots already spent so
                // budgets stay exact.
                // The cold solve owns the outcome, so the retry ladder only
                // sees numerical trouble the cold path hits too.
                pivots += engine.pivots;
                refactorizations += engine.refactorizations;
                refactor_reuses += engine.refactor_reuses;
                let settled = req
                    .opts
                    .budget
                    .charge_pivots(engine.take_uncharged_pivots());
                engine = new_engine(engine.into_workspace());
                match settled {
                    Ok(()) => engine.solve(),
                    Err(e) => Err(e),
                }
            }
            Err(e) => Err(e),
        },
        _ => engine.solve(),
    };
    pivots += engine.pivots;
    refactorizations += engine.refactorizations;
    refactor_reuses += engine.refactor_reuses;
    #[cfg(test)]
    REFACTORIZATIONS.with(|n| n.set(n.get() + refactorizations));
    // Settle the shared budget at the LP boundary; exhaustion takes
    // precedence over the LP outcome, matching the serial control flow.
    let charged = req
        .opts
        .budget
        .charge_pivots(engine.take_uncharged_pivots());
    // Only a warm start can use the basis, so `warm_start: false` skips the
    // snapshot. With warm starts on, every optimal LP hands its basis on: to
    // its branch-and-bound children, and to the caller's next cut-loop solve.
    let basis = match &lp_result {
        Ok(LpOutcome::Optimal { .. }) if req.opts.warm_start => engine.snapshot().map(Arc::new),
        _ => None,
    };
    let result = match charged {
        Err(e) => Err(e),
        Ok(()) => lp_result,
    };
    LpSolve {
        result,
        pivots,
        basis,
        warm_attempted,
        warm_used,
        refactorizations,
        refactor_reuses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::budget::Deadline;
    use crate::solver::{branch_bound, Solver, WarmStart};
    use crate::{Cmp, Model, Sense};

    /// An LP and a snapshot whose dual repair pivots into a singular basis:
    ///
    /// ```text
    /// min  −x1 − x2
    /// s.t. x1/32 + x2/32       + 32·x3   ≤ 1
    ///      32·x1 + (32 − δ)·x2 + x3/32   ≤ 100,   x ≥ 0
    /// ```
    ///
    /// Every row and column already has geometric mean 1, so equilibration
    /// leaves the matrix as written. The snapshot makes x1 basic in row 0 and
    /// row 1's slack basic, at −924. The dual ratio test then picks x2
    /// (reduced cost 0, pivot −δ, above the simplex's pivot floor), but the
    /// basis {x1, x2} has an LU pivot of δ/1024, below the factorization's
    /// singularity floor. With `refactor_every: 1` that refactorization
    /// follows the pivot at once and fails.
    fn singular_repair() -> (Model, BasisSnapshot, Numerics) {
        let delta = 4e-9;
        let mut m = Model::new("singular-repair");
        let x1 = m.add_continuous("x1", 0.0, f64::INFINITY);
        let x2 = m.add_continuous("x2", 0.0, f64::INFINITY);
        let x3 = m.add_continuous("x3", 0.0, f64::INFINITY);
        let r0 = 0.03125 * x1 + 0.03125 * x2 + 32.0 * x3;
        m.add_constr("r0", r0, Cmp::Le, 1.0).unwrap();
        let r1 = 32.0 * x1 + (32.0 - delta) * x2 + 0.03125 * x3;
        m.add_constr("r1", r1, Cmp::Le, 100.0).unwrap();
        m.set_objective(Sense::Minimize, -1.0 * x1 - 1.0 * x2);
        // Columns x1, x2, x3, then the slacks of r0 and r1.
        let snap = BasisSnapshot {
            basis: vec![0, 4],
            state: vec![3, 0, 0, 0, 3],
        };
        let numerics = Numerics {
            refactor_every: 1,
            ..Numerics::at_rung(0)
        };
        (m, snap, numerics)
    }

    #[test]
    fn numerical_failure_on_the_warm_path_falls_back_to_a_cold_solve() {
        let (m, snap, numerics) = singular_repair();
        let opts = SolveOptions {
            warm_start: true,
            ..SolveOptions::default()
        };
        let sf = StandardForm::build(&m, None);
        let request = |warm| LpRequest {
            sf: &sf,
            opts: &opts,
            numerics: &numerics,
            deadline: Deadline::unlimited(),
            warm,
        };
        let mut ws = LpWorkspace::default();
        let cold = solve_lp(&request(None), &mut ws);
        let Ok(LpOutcome::Optimal {
            values: cold_values,
            ..
        }) = cold.result
        else {
            panic!("cold solve failed: {:?}", cold.result);
        };
        let warm = solve_lp(&request(Some(&snap)), &mut ws);
        assert!(warm.warm_attempted);
        assert!(!warm.warm_used, "the dual repair cannot have succeeded");
        match warm.result {
            Ok(LpOutcome::Optimal { values, .. }) => {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&values), bits(&cold_values));
            }
            other => panic!("expected the cold optimum, got {other:?}"),
        }

        // Through branch-and-bound, which each rung of the solver's retry
        // ladder runs: the fallback absorbs the failure, so the solve
        // returns `Ok` and the ladder, which only a numerical error climbs,
        // never runs.
        let (outcome, _) =
            branch_bound::solve(&m, &opts, &numerics, Some(&WarmStart::from_basis(snap)))
                .expect("the cold fallback solves the LP");
        let cold_opts = SolveOptions {
            warm_start: false,
            ..opts
        };
        let reference = Solver::new(cold_opts).solve(&m).unwrap();
        assert_eq!(reference.stats().numerical_retries, 0);
        assert_eq!(
            outcome.expect_optimal().unwrap().objective().to_bits(),
            reference.expect_optimal().unwrap().objective().to_bits()
        );
    }

    #[test]
    fn a_warm_solve_of_the_singular_repair_finds_the_cold_optimum() {
        // At the default refactorization cadence the dual repair succeeds,
        // and the primal cleanup prices the last pivots through the eta
        // file; only the fresh pricing at the finish sees the column that
        // still prices out.
        let (m, snap, _) = singular_repair();
        let (outcome, _) = Solver::new(SolveOptions::default())
            .solve_with_state(&m, Some(&WarmStart::from_basis(snap)))
            .unwrap();
        let objective = outcome.expect_optimal().unwrap().objective();
        assert!(
            (objective + 3.125).abs() <= 1e-9,
            "warm optimum {objective}, cold −3.125"
        );
    }

    #[test]
    fn remap_identity_when_shape_unchanged() {
        let snap = BasisSnapshot {
            basis: vec![2, 3],
            state: vec![0, 1, 3, 3],
        };
        let same = snap.remap(2, 2).unwrap();
        assert_eq!(same.basis, snap.basis);
        assert_eq!(same.state, snap.state);
    }

    #[test]
    fn remap_shifts_slacks_and_adds_cut_rows() {
        // 2 structurals + 2 rows; structural 0 basic, slack of row 1 basic.
        let snap = BasisSnapshot {
            basis: vec![0, 3],
            state: vec![3, 1, 0, 3],
        };
        // Grow to 3 structurals (one aux) and 3 rows (one cut).
        let grown = snap.remap(3, 3).unwrap();
        assert_eq!(grown.num_structural(), 3);
        assert_eq!(grown.num_rows(), 3);
        // Old slack index 3 shifts to 4; the new row's slack (5) is basic.
        assert_eq!(grown.basis, vec![0, 4, 5]);
        assert_eq!(grown.state, vec![3, 1, 0, 0, 3, 3]);
    }

    #[test]
    fn remap_rejects_shrinkage() {
        let snap = BasisSnapshot {
            basis: vec![0, 3],
            state: vec![3, 1, 0, 3],
        };
        assert!(snap.remap(1, 2).is_none());
        assert!(snap.remap(2, 1).is_none());
    }
}
