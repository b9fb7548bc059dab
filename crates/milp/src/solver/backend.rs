//! One LP solve over a [`StandardForm`], with optional warm starting from a
//! [`BasisSnapshot`]: the whole LP interface branch-and-bound uses.
//!
//! [`solve_lp`] runs the revised simplex (see the `revised` module). It tries
//! the warm (dual simplex) path when warm starts are on and a snapshot is
//! offered, falls back to a cold solve otherwise, settles the pivot budget at
//! the LP boundary, and reports what happened so callers can emit metrics at
//! deterministic commit points.

use crate::error::SolveError;
use crate::solver::budget::Deadline;
use crate::solver::revised::RevisedSimplex;
use crate::solver::SolveOptions;
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
    /// Optimal finishes that reused the current factorization instead of
    /// rebuilding it (eta file already empty at canonicalization time).
    pub refactor_reuses: u64,
}

/// Solve one LP, warm-starting when the request carries a usable snapshot
/// and falling back to a cold solve otherwise.
pub(crate) fn solve_lp(req: &LpRequest<'_>) -> LpSolve {
    let mut engine = RevisedSimplex::new(req.sf, req.opts, req.deadline);
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
            Ok(None) => {
                // Unusable snapshot (singular basis, lost dual feasibility):
                // cold start on a fresh engine, keeping the pivots already
                // spent so budgets stay exact.
                pivots += engine.pivots;
                refactorizations += engine.refactorizations;
                refactor_reuses += engine.refactor_reuses;
                let settled = req
                    .opts
                    .budget
                    .charge_pivots(engine.take_uncharged_pivots());
                engine = RevisedSimplex::new(req.sf, req.opts, req.deadline);
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
    // Settle the shared budget at the LP boundary; exhaustion takes
    // precedence over the LP outcome, matching the serial control flow.
    let charged = req
        .opts
        .budget
        .charge_pivots(engine.take_uncharged_pivots());
    // Only a warm start can use the basis, so the cold default skips the
    // snapshot.
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
