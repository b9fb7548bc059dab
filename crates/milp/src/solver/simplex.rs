//! Bounded-variable two-phase primal simplex on the equality standard form.
//!
//! The implementation keeps a dense explicit basis inverse `B⁻¹` (updated by
//! eta elimination each pivot, `O(m²)`), sparse constraint columns, and
//! supports variables that are nonbasic at either bound, free variables, and
//! range-free bound flips. Phase 1 introduces artificial variables only for
//! rows whose slack cannot absorb the initial residual. Degeneracy is handled
//! by falling back to Bland's rule after a run of non-improving pivots.

use crate::error::SolveError;
use crate::solver::backend::{
    BasisSnapshot, BoundHit, ColState, DualEnd, IterEnd, LpEngine, LpOutcome, RatioResult,
    BLAND_TRIGGER, PIVOT_TOL,
};
use crate::solver::budget::Deadline;
use crate::solver::SolveOptions;
use crate::standard_form::StandardForm;

/// Dense bounded-variable simplex over a [`StandardForm`].
#[derive(Debug)]
pub(crate) struct Simplex<'a> {
    sf: &'a StandardForm,
    opts: &'a SolveOptions,
    m: usize,
    /// Total columns including artificials.
    total_cols: usize,
    /// Artificial columns: `(row, sign)` with a single `±1` entry.
    artificials: Vec<(usize, f64)>,
    /// First artificial column index (== sf.num_cols()).
    art_base: usize,
    binv: Vec<f64>,
    basis: Vec<usize>,
    state: Vec<ColState>,
    xb: Vec<f64>,
    /// Current phase costs per column.
    costs: Vec<f64>,
    /// Cached reduced costs per column (maintained incrementally).
    dvec: Vec<f64>,
    /// Fixed-at-zero artificial bounds during phase 2.
    art_fixed: bool,
    pub pivots: u64,
    degenerate_run: u32,
    /// Absolute expiry honored even inside a single long LP. Defaults to the
    /// options' budget deadline tightened by `time_limit_secs`; callers that
    /// run many LPs against one allowance (branch-and-bound) override it via
    /// [`Simplex::with_deadline`] so the clock does not restart per LP.
    deadline: Deadline,
    /// Pivots already charged to the shared budget (see
    /// [`Simplex::check_budget`]).
    charged: u64,
}

impl<'a> Simplex<'a> {
    pub fn new(sf: &'a StandardForm, opts: &'a SolveOptions) -> Self {
        let m = sf.num_rows;
        Simplex {
            sf,
            opts,
            m,
            total_cols: sf.num_cols(),
            artificials: Vec::new(),
            art_base: sf.num_cols(),
            binv: vec![0.0; m * m],
            basis: vec![usize::MAX; m],
            state: vec![ColState::AtLower; sf.num_cols()],
            xb: vec![0.0; m],
            costs: Vec::new(),
            dvec: Vec::new(),
            art_fixed: false,
            pivots: 0,
            degenerate_run: 0,
            deadline: opts
                .budget
                .deadline()
                .tightened_by_secs(opts.time_limit_secs),
            charged: 0,
        }
    }

    /// Replace the expiry instant (used by branch-and-bound to share one
    /// deadline across every LP of a solve).
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// Pivots performed but not yet charged to the shared budget; calling
    /// this settles them. Branch-and-bound drains the remainder after each
    /// LP so the budget is exact at LP boundaries.
    pub fn take_uncharged_pivots(&mut self) -> u64 {
        let n = self.pivots - self.charged;
        self.charged = self.pivots;
        n
    }

    /// Periodic mid-LP checkpoint: charge accrued pivots to the shared
    /// budget, abort on deadline expiry, and abort with
    /// [`SolveError::Numerical`] if the basic values have gone non-finite
    /// (the branch-and-bound loop checks between nodes; this catches
    /// pathological single relaxations).
    fn check_budget(&mut self) -> Result<(), SolveError> {
        let newly = self.pivots - self.charged;
        self.charged = self.pivots;
        self.opts.budget.charge_pivots(newly)?;
        if self.deadline.expired() {
            return Err(self.deadline.to_error());
        }
        if self.xb.iter().any(|v| !v.is_finite()) {
            return Err(SolveError::Numerical(
                "basic solution went non-finite during pivoting".into(),
            ));
        }
        Ok(())
    }

    /// Solve the LP. Returns an outcome or an iteration-limit error.
    pub fn solve(&mut self) -> Result<LpOutcome, SolveError> {
        // Quick bound sanity: a column with lb > ub is trivially infeasible.
        for j in 0..self.sf.num_cols() {
            if self.sf.lower[j] > self.sf.upper[j] {
                return Ok(LpOutcome::Infeasible);
            }
        }
        if self.m == 0 {
            return Ok(self.solve_unconstrained());
        }
        self.init_phase1();
        if self.phase1_needed() {
            self.set_phase1_costs();
            self.iterate()?;
            let infeas: f64 = self.phase1_objective();
            if !infeas.is_finite() {
                return Err(SolveError::Numerical(
                    "phase-1 infeasibility measure is non-finite".into(),
                ));
            }
            // Feasible LPs reach a phase-1 optimum of ~0 (1e-12-ish); scale
            // the acceptance threshold sublinearly in the rhs magnitude so
            // big-M rows cannot mask real (ε-sized) infeasibility.
            if infeas > self.opts.feas_tol.max(1e-9) * (1.0 + self.rhs_norm().sqrt()) {
                return Ok(LpOutcome::Infeasible);
            }
            self.expel_artificials();
        }
        self.set_phase2_costs();
        match self.iterate()? {
            IterEnd::Optimal => {}
            IterEnd::Unbounded => return Ok(LpOutcome::Unbounded),
        }
        let out = self.finish_optimal();
        if let LpOutcome::Optimal { min_obj, .. } = &out {
            if !min_obj.is_finite() {
                return Err(SolveError::Numerical(
                    "optimal objective evaluated to a non-finite value".into(),
                ));
            }
        }
        Ok(out)
    }

    fn finish_optimal(&self) -> LpOutcome {
        let values = self.extract_structural();
        let min_obj: f64 = (0..self.sf.num_cols())
            .map(|j| self.sf.obj[j] * self.col_value(j))
            .sum();
        LpOutcome::Optimal { values, min_obj }
    }

    /// Snapshot the current basis for later warm starts. Returns `None` when
    /// the basis still contains an artificial column (possible after a
    /// degenerate phase 1 on redundant rows), since snapshots only describe
    /// the standard form's own columns.
    pub fn snapshot(&self) -> Option<BasisSnapshot> {
        if self.basis.iter().any(|&b| b >= self.art_base) {
            return None;
        }
        let state = (0..self.sf.num_cols())
            .map(|j| match self.state[j] {
                ColState::AtLower => 0,
                ColState::AtUpper => 1,
                ColState::FreeZero => 2,
                ColState::Basic(_) => 3,
            })
            .collect();
        Some(BasisSnapshot {
            basis: self.basis.iter().map(|&b| b as u32).collect(),
            state,
        })
    }

    /// Warm-start from a snapshot taken on a standard form with identical
    /// coefficients (bounds may differ) and run the dual simplex. Returns
    /// `Ok(None)` when the snapshot cannot be installed (singular basis) —
    /// the caller should fall back to a cold [`Simplex::solve`].
    pub fn solve_warm(&mut self, snap: &BasisSnapshot) -> Result<Option<LpOutcome>, SolveError> {
        for j in 0..self.sf.num_cols() {
            if self.sf.lower[j] > self.sf.upper[j] {
                return Ok(Some(LpOutcome::Infeasible));
            }
        }
        if self.m == 0 {
            return Ok(Some(self.solve_unconstrained()));
        }
        if !self.install(snap) {
            return Ok(None);
        }
        match self.dual_iterate()? {
            DualEnd::PrimalFeasible => {}
            DualEnd::Infeasible => return Ok(Some(LpOutcome::Infeasible)),
            DualEnd::LostDualFeasibility => {
                // Numerical trouble: let the caller cold-start.
                return Ok(None);
            }
        }
        // Primal cleanup: certify optimality (usually zero pivots).
        match self.iterate()? {
            IterEnd::Optimal => Ok(Some(self.finish_optimal())),
            IterEnd::Unbounded => Ok(Some(LpOutcome::Unbounded)),
        }
    }

    /// Install a snapshot: set states, rebuild `B⁻¹` by Gauss–Jordan
    /// inversion of the basis matrix, and recompute basic values. Returns
    /// `false` when the snapshot does not fit this standard form or the basis
    /// matrix is singular.
    fn install(&mut self, snap: &BasisSnapshot) -> bool {
        if snap.basis.len() != self.m || snap.state.len() != self.sf.num_cols() {
            return false;
        }
        let m = self.m;
        // Build the dense basis matrix column by column.
        let mut mat = vec![0.0_f64; m * m]; // row-major
        for (r, &col) in snap.basis.iter().enumerate() {
            let _ = r;
            let j = col as usize;
            for (i, a) in self.sf.cols[j].iter() {
                mat[i * m + r] = a;
            }
        }
        // Gauss-Jordan with partial pivoting: invert into binv.
        let inv = &mut self.binv;
        inv.fill(0.0);
        for d in 0..m {
            inv[d * m + d] = 1.0;
        }
        for col in 0..m {
            // Pivot selection.
            let mut best = col;
            let mut best_abs = mat[col * m + col].abs();
            for r in col + 1..m {
                let a = mat[r * m + col].abs();
                if a > best_abs {
                    best_abs = a;
                    best = r;
                }
            }
            if best_abs < 1e-11 {
                return false; // singular
            }
            if best != col {
                for k in 0..m {
                    mat.swap(col * m + k, best * m + k);
                    inv.swap(col * m + k, best * m + k);
                }
            }
            let pivot = mat[col * m + col];
            let inv_pivot = 1.0 / pivot;
            for k in 0..m {
                mat[col * m + k] *= inv_pivot;
                inv[col * m + k] *= inv_pivot;
            }
            for r in 0..m {
                if r != col {
                    let f = mat[r * m + col];
                    if f != 0.0 {
                        for k in 0..m {
                            mat[r * m + k] -= f * mat[col * m + k];
                            inv[r * m + k] -= f * inv[col * m + k];
                        }
                    }
                }
            }
        }
        // Install states.
        self.artificials.clear();
        self.total_cols = self.sf.num_cols();
        self.state.truncate(self.sf.num_cols());
        for (j, &s) in snap.state.iter().enumerate() {
            self.state[j] = match s {
                0 => ColState::AtLower,
                1 => ColState::AtUpper,
                2 => ColState::FreeZero,
                _ => ColState::AtLower, // placeholder; fixed below for basics
            };
        }
        for (r, &col) in snap.basis.iter().enumerate() {
            self.basis[r] = col as usize;
            self.state[col as usize] = ColState::Basic(r as u32);
        }
        // Nonbasic variables whose stored bound became infinite (should not
        // happen with branch-and-bound bound changes) rest at zero.
        for j in 0..self.sf.num_cols() {
            match self.state[j] {
                ColState::AtLower if !self.sf.lower[j].is_finite() => {
                    self.state[j] = if self.sf.upper[j].is_finite() {
                        ColState::AtUpper
                    } else {
                        ColState::FreeZero
                    };
                }
                ColState::AtUpper if !self.sf.upper[j].is_finite() => {
                    self.state[j] = if self.sf.lower[j].is_finite() {
                        ColState::AtLower
                    } else {
                        ColState::FreeZero
                    };
                }
                _ => {}
            }
        }
        self.set_phase2_costs();
        self.refresh_xb();
        true
    }

    /// Dual simplex: starting from a dual-feasible basis, pivot until the
    /// basic values are within their bounds (primal feasible) or the LP is
    /// proven infeasible.
    fn dual_iterate(&mut self) -> Result<DualEnd, SolveError> {
        // Dual repair after a branch-and-bound bound change should need few
        // pivots; a run much longer than the basis size signals cycling, and
        // a cold primal start is cheaper than fighting it.
        let budget = 4 * (self.m as u64) + 64;
        let mut used = 0u64;
        loop {
            if self.pivots >= self.opts.max_simplex_iters {
                return Err(SolveError::IterationLimit {
                    limit: self.opts.max_simplex_iters,
                });
            }
            if used >= budget {
                return Ok(DualEnd::LostDualFeasibility);
            }
            used += 1;
            // Leaving row: the most violated basic variable.
            let mut leave: Option<(usize, f64, bool)> = None; // (row, violation, below)
            for r in 0..self.m {
                let j = self.basis[r];
                let lb = self.col_lower(j);
                let ub = self.col_upper(j);
                let x = self.xb[r];
                if x < lb - self.opts.feas_tol {
                    let v = lb - x;
                    if leave.as_ref().is_none_or(|&(_, bv, _)| v > bv) {
                        leave = Some((r, v, true));
                    }
                } else if x > ub + self.opts.feas_tol {
                    let v = x - ub;
                    if leave.as_ref().is_none_or(|&(_, bv, _)| v > bv) {
                        leave = Some((r, v, false));
                    }
                }
            }
            let Some((row, _, below)) = leave else {
                return Ok(DualEnd::PrimalFeasible);
            };

            // Reduced costs (recomputed; these solves are short).
            let y = self.btran_costs();
            let rho = &self.binv[row * self.m..(row + 1) * self.m];

            // Entering column: dual ratio test among eligible nonbasics.
            let mut best: Option<(usize, f64)> = None; // (col, |d|/|alpha|)
            for j in 0..self.total_cols {
                if matches!(self.state[j], ColState::Basic(_)) {
                    continue;
                }
                if self.col_lower(j) >= self.col_upper(j) {
                    continue; // fixed
                }
                let alpha: f64 = if j >= self.art_base {
                    let (ar, sign) = self.artificials[j - self.art_base];
                    rho[ar] * sign
                } else {
                    self.sf.cols[j].iter().map(|(i, a)| rho[i] * a).sum()
                };
                if alpha.abs() <= PIVOT_TOL {
                    continue;
                }
                // xb_row changes by -alpha per unit increase of x_j. When
                // below, we need xb_row to increase as x_j moves *into* its
                // feasible direction.
                let eligible = match (self.state[j], below) {
                    (ColState::AtLower, true) => alpha < 0.0,  // x_j ↑
                    (ColState::AtLower, false) => alpha > 0.0, // x_j ↑
                    (ColState::AtUpper, true) => alpha > 0.0,  // x_j ↓
                    (ColState::AtUpper, false) => alpha < 0.0, // x_j ↓
                    (ColState::FreeZero, _) => true,
                    (ColState::Basic(_), _) => false,
                };
                if !eligible {
                    continue;
                }
                let dj = self.costs[j] - self.col_dot(&y, j);
                let ratio = dj.abs() / alpha.abs();
                if best.as_ref().is_none_or(|&(_, br)| ratio < br - 1e-12) {
                    best = Some((j, ratio));
                } else if let Some((bj, br)) = best {
                    // Tie-break toward larger |alpha| for stability.
                    if (ratio - br).abs() <= 1e-12 {
                        let balpha: f64 = self.sf.cols[bj].iter().map(|(i, a)| rho[i] * a).sum();
                        if alpha.abs() > balpha.abs() {
                            best = Some((j, ratio));
                        }
                    }
                }
            }
            let Some((enter, ratio)) = best else {
                return Ok(DualEnd::Infeasible);
            };
            if ratio > 1e9 {
                // Reduced costs have drifted far from dual feasibility;
                // give up on the warm start rather than risk cycling.
                return Ok(DualEnd::LostDualFeasibility);
            }

            // Pivot `enter` into `row`.
            let w = self.ftran(enter);
            if w[row].abs() <= PIVOT_TOL {
                return Ok(DualEnd::LostDualFeasibility);
            }
            let hit = if below {
                BoundHit::Lower
            } else {
                BoundHit::Upper
            };
            // Entering value chosen so the leaving variable lands exactly on
            // its violated bound: solve xb_row - t·w_row = bound.
            let leaving_col = self.basis[row];
            let bound = if below {
                self.col_lower(leaving_col)
            } else {
                self.col_upper(leaving_col)
            };
            let t = (self.xb[row] - bound) / w[row];
            let enter_val = self.nonbasic_value(enter) + t;
            for (r, &wr) in w.iter().enumerate() {
                if r != row {
                    self.xb[r] -= t * wr;
                }
            }
            self.pivot(enter, row, &w, t, enter_val, hit);
            self.pivots += 1;
            if self.pivots % 64 == 63 {
                self.refresh_xb();
                self.check_budget()?;
            }
        }
    }

    // ---- setup ------------------------------------------------------------

    fn solve_unconstrained(&self) -> LpOutcome {
        // No rows: each structural variable independently moves to the bound
        // favoured by its cost.
        let mut values = Vec::with_capacity(self.sf.num_structural);
        let mut min_obj = 0.0;
        for j in 0..self.sf.num_structural {
            let c = self.sf.obj[j];
            let v = if c > 0.0 {
                if self.sf.lower[j].is_finite() {
                    self.sf.lower[j]
                } else {
                    return LpOutcome::Unbounded;
                }
            } else if c < 0.0 {
                if self.sf.upper[j].is_finite() {
                    self.sf.upper[j]
                } else {
                    return LpOutcome::Unbounded;
                }
            } else if self.sf.lower[j].is_finite() {
                self.sf.lower[j]
            } else if self.sf.upper[j].is_finite() {
                self.sf.upper[j]
            } else {
                0.0
            };
            values.push(v);
            min_obj += c * v;
        }
        LpOutcome::Optimal { values, min_obj }
    }

    fn initial_nonbasic_state(&self, j: usize) -> ColState {
        let (lb, ub) = (self.sf.lower[j], self.sf.upper[j]);
        if lb.is_finite() {
            ColState::AtLower
        } else if ub.is_finite() {
            ColState::AtUpper
        } else {
            ColState::FreeZero
        }
    }

    fn init_phase1(&mut self) {
        let n = self.sf.num_structural;
        // Structural variables nonbasic at their preferred bound.
        for j in 0..n {
            self.state[j] = self.initial_nonbasic_state(j);
        }
        // Residual per row with structurals at their nonbasic values.
        let mut residual = self.sf.rhs.clone();
        for j in 0..n {
            let v = self.nonbasic_value(j);
            if v != 0.0 {
                for (r, a) in self.sf.cols[j].iter() {
                    residual[r] -= a * v;
                }
            }
        }
        // Choose a basic column per row: the slack if it can hold the
        // residual, otherwise a fresh artificial.
        for (r, &res) in residual.iter().enumerate() {
            let slack = n + r;
            let (slb, sub) = (self.sf.lower[slack], self.sf.upper[slack]);
            if res >= slb && res <= sub {
                self.state[slack] = ColState::Basic(r as u32);
                self.basis[r] = slack;
                self.xb[r] = res;
                self.binv[r * self.m + r] = 1.0;
            } else {
                // Slack rests at the bound nearest the residual.
                let clamped = res.clamp(slb, sub);
                self.state[slack] = if clamped == slb {
                    ColState::AtLower
                } else {
                    ColState::AtUpper
                };
                let rem = res - clamped;
                let sign = if rem >= 0.0 { 1.0 } else { -1.0 };
                let art_col = self.art_base + self.artificials.len();
                self.artificials.push((r, sign));
                self.state.push(ColState::Basic(r as u32));
                self.basis[r] = art_col;
                self.xb[r] = rem.abs();
                // Basis column is sign·e_r, so B⁻¹ row is sign·e_r too.
                self.binv[r * self.m + r] = sign;
            }
        }
        self.total_cols = self.art_base + self.artificials.len();
    }

    fn phase1_needed(&self) -> bool {
        !self.artificials.is_empty()
    }

    fn set_phase1_costs(&mut self) {
        self.costs = vec![0.0; self.total_cols];
        for k in 0..self.artificials.len() {
            self.costs[self.art_base + k] = 1.0;
        }
    }

    fn set_phase2_costs(&mut self) {
        self.costs = vec![0.0; self.total_cols];
        self.costs[..self.sf.num_cols()].copy_from_slice(&self.sf.obj);
        self.art_fixed = true;
    }

    fn phase1_objective(&self) -> f64 {
        (0..self.artificials.len())
            .map(|k| self.col_value(self.art_base + k).max(0.0))
            .sum()
    }

    fn rhs_norm(&self) -> f64 {
        self.sf.rhs.iter().fold(0.0_f64, |a, b| a.max(b.abs()))
    }

    /// After phase 1, pivot remaining basic artificials out of the basis, or
    /// pin them at zero if their row is linearly dependent.
    fn expel_artificials(&mut self) {
        for r in 0..self.m {
            let bcol = self.basis[r];
            if bcol < self.art_base {
                continue;
            }
            // Look for any non-artificial nonbasic column with a nonzero
            // pivot element in row r.
            let mut entering = None;
            for j in 0..self.sf.num_cols() {
                if matches!(self.state[j], ColState::Basic(_)) {
                    continue;
                }
                let wr = self.row_dot_col(r, j);
                if wr.abs() > 1e-7 {
                    entering = Some((j, wr));
                    break;
                }
            }
            if let Some((j, _)) = entering {
                let w = self.ftran(j);
                self.pivot(j, r, &w, 0.0, self.nonbasic_value(j), BoundHit::Lower);
            }
            // If no pivot exists the row is redundant; the artificial stays
            // basic at (degenerate) zero and phase 2's fixed bounds keep it
            // there.
        }
    }

    // ---- column helpers ----------------------------------------------------

    fn col_lower(&self, j: usize) -> f64 {
        if j >= self.art_base {
            0.0
        } else {
            self.sf.lower[j]
        }
    }

    fn col_upper(&self, j: usize) -> f64 {
        if j >= self.art_base {
            if self.art_fixed {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.sf.upper[j]
        }
    }

    fn nonbasic_value(&self, j: usize) -> f64 {
        match self.state[j] {
            ColState::AtLower => self.col_lower(j),
            ColState::AtUpper => self.col_upper(j),
            ColState::FreeZero => 0.0,
            ColState::Basic(r) => self.xb[r as usize],
        }
    }

    fn col_value(&self, j: usize) -> f64 {
        self.nonbasic_value(j)
    }

    /// Dot product of row `r` of `B⁻¹` with column `j`.
    fn row_dot_col(&self, r: usize, j: usize) -> f64 {
        let row = &self.binv[r * self.m..(r + 1) * self.m];
        if j >= self.art_base {
            let (ar, sign) = self.artificials[j - self.art_base];
            row[ar] * sign
        } else {
            self.sf.cols[j].iter().map(|(i, a)| row[i] * a).sum()
        }
    }

    /// `w = B⁻¹ A_j`.
    fn ftran(&self, j: usize) -> Vec<f64> {
        let mut w = vec![0.0; self.m];
        if j >= self.art_base {
            let (ar, sign) = self.artificials[j - self.art_base];
            for (r, wr) in w.iter_mut().enumerate() {
                *wr = self.binv[r * self.m + ar] * sign;
            }
        } else {
            for (i, a) in self.sf.cols[j].iter() {
                for (r, wr) in w.iter_mut().enumerate() {
                    *wr += self.binv[r * self.m + i] * a;
                }
            }
        }
        w
    }

    /// `y = c_Bᵀ B⁻¹`.
    fn btran_costs(&self) -> Vec<f64> {
        let mut y = vec![0.0; self.m];
        for r in 0..self.m {
            let cb = self.costs[self.basis[r]];
            if cb != 0.0 {
                let row = &self.binv[r * self.m..(r + 1) * self.m];
                for i in 0..self.m {
                    y[i] += cb * row[i];
                }
            }
        }
        y
    }

    /// Recompute the cached reduced costs `d_j = c_j − c_Bᵀ B⁻¹ A_j` for all
    /// columns (done at phase entry and periodically to wash out the drift
    /// of incremental updates).
    fn recompute_reduced_costs(&mut self) {
        let y = self.btran_costs();
        self.dvec.resize(self.total_cols, 0.0);
        for j in 0..self.total_cols {
            self.dvec[j] = self.costs[j] - self.col_dot(&y, j);
        }
    }

    // ---- main loop ---------------------------------------------------------

    fn iterate(&mut self) -> Result<IterEnd, SolveError> {
        loop {
            if self.pivots >= self.opts.max_simplex_iters {
                return Err(SolveError::IterationLimit {
                    limit: self.opts.max_simplex_iters,
                });
            }
            if self.pivots % 256 == 255 {
                self.refresh_xb();
                self.check_budget()?;
            }
            // Fresh reduced costs each pivot. The incremental
            // `update_reduced_costs` alternative measured *slower* here:
            // `btran_costs` skips the (many) zero-cost basic columns, so the
            // full recompute is effectively sparse already, and fresh costs
            // also keep Dantzig pricing on the true steepest coefficient.
            self.recompute_reduced_costs();
            let bland = self.opts.force_bland || self.degenerate_run >= BLAND_TRIGGER;
            let Some((j, dj, dir)) = self.price_cached(bland) else {
                return Ok(IterEnd::Optimal);
            };
            let _ = dj;
            let w = self.ftran(j);
            match self.ratio_test(j, dir, &w, bland) {
                RatioResult::Unbounded => return Ok(IterEnd::Unbounded),
                RatioResult::BoundFlip { t } => {
                    self.apply_bound_flip(j, dir, t, &w);
                    self.pivots += 1;
                    self.degenerate_run = 0;
                }
                RatioResult::Pivot { row, t, hit } => {
                    let enter_val = self.nonbasic_value(j) + dir * t;
                    // Update the other basic values before rewriting binv.
                    for (r, &wr) in w.iter().enumerate() {
                        if r != row {
                            self.xb[r] -= dir * t * wr;
                        }
                    }
                    self.pivot(j, row, &w, t, enter_val, hit);
                    self.pivots += 1;
                    if t <= 1e-12 {
                        self.degenerate_run += 1;
                    } else {
                        self.degenerate_run = 0;
                    }
                }
            }
        }
    }

    /// Choose an entering column from the cached reduced costs; returns
    /// `(col, reduced_cost, direction)`.
    fn price_cached(&self, bland: bool) -> Option<(usize, f64, f64)> {
        let tol = self.opts.dual_tol;
        let mut best: Option<(usize, f64, f64)> = None;
        for j in 0..self.total_cols {
            let st = self.state[j];
            if matches!(st, ColState::Basic(_)) {
                continue;
            }
            // Fixed columns can never move.
            if self.col_lower(j) >= self.col_upper(j) {
                continue;
            }
            let dj = self.dvec[j];
            let dir = match st {
                ColState::AtLower if dj < -tol => 1.0,
                ColState::AtUpper if dj > tol => -1.0,
                ColState::FreeZero if dj.abs() > tol => -dj.signum(),
                _ => continue,
            };
            if bland {
                return Some((j, dj, dir));
            }
            match best {
                Some((_, bd, _)) if dj.abs() <= bd.abs() => {}
                _ => best = Some((j, dj, dir)),
            }
        }
        best
    }

    fn col_dot(&self, y: &[f64], j: usize) -> f64 {
        if j >= self.art_base {
            let (r, sign) = self.artificials[j - self.art_base];
            y[r] * sign
        } else {
            self.sf.cols[j].iter().map(|(r, a)| y[r] * a).sum()
        }
    }

    fn ratio_test(&self, j: usize, dir: f64, w: &[f64], bland: bool) -> RatioResult {
        // Entering variable's own range (bound flip distance).
        let own_range = self.col_upper(j) - self.col_lower(j);
        let mut t_min = if own_range.is_finite() {
            own_range
        } else {
            f64::INFINITY
        };
        let mut choice: Option<(usize, f64, BoundHit)> = None;

        for r in 0..self.m {
            let rate = dir * w[r]; // xb[r] changes by -rate·t
            let bcol = self.basis[r];
            if rate > PIVOT_TOL {
                let lb = self.col_lower(bcol);
                if lb.is_finite() {
                    let limit = ((self.xb[r] - lb) / rate).max(0.0);
                    if self.better_ratio(limit, t_min, r, w, &choice, bland) {
                        t_min = limit;
                        choice = Some((r, limit, BoundHit::Lower));
                    }
                }
            } else if rate < -PIVOT_TOL {
                let ub = self.col_upper(bcol);
                if ub.is_finite() {
                    let limit = ((ub - self.xb[r]) / -rate).max(0.0);
                    if self.better_ratio(limit, t_min, r, w, &choice, bland) {
                        t_min = limit;
                        choice = Some((r, limit, BoundHit::Upper));
                    }
                }
            }
        }

        match choice {
            None if t_min.is_infinite() => RatioResult::Unbounded,
            None => RatioResult::BoundFlip { t: t_min },
            Some((row, t, hit)) => {
                if own_range.is_finite() && own_range < t - 1e-12 {
                    RatioResult::BoundFlip { t: own_range }
                } else {
                    RatioResult::Pivot { row, t, hit }
                }
            }
        }
    }

    fn better_ratio(
        &self,
        limit: f64,
        t_min: f64,
        r: usize,
        w: &[f64],
        choice: &Option<(usize, f64, BoundHit)>,
        bland: bool,
    ) -> bool {
        if limit < t_min - 1e-12 {
            return true;
        }
        if limit > t_min + 1e-12 {
            return false;
        }
        // Tie: prefer the numerically larger pivot element (stability), or
        // the lowest basis column index under Bland's rule.
        match choice {
            None => true,
            Some((cr, _, _)) => {
                if bland {
                    self.basis[r] < self.basis[*cr]
                } else {
                    w[r].abs() > w[*cr].abs()
                }
            }
        }
    }

    fn apply_bound_flip(&mut self, j: usize, dir: f64, t: f64, w: &[f64]) {
        for (xb, &wr) in self.xb.iter_mut().zip(w) {
            *xb -= dir * t * wr;
        }
        self.state[j] = match self.state[j] {
            ColState::AtLower => ColState::AtUpper,
            ColState::AtUpper => ColState::AtLower,
            other => other, // free variables never bound-flip with finite t
        };
    }

    fn pivot(&mut self, j: usize, row: usize, w: &[f64], _t: f64, enter_val: f64, hit: BoundHit) {
        let leaving = self.basis[row];
        self.state[leaving] = match hit {
            BoundHit::Lower => ColState::AtLower,
            BoundHit::Upper => ColState::AtUpper,
        };
        self.basis[row] = j;
        self.state[j] = ColState::Basic(row as u32);
        self.xb[row] = enter_val;

        // Eta update of B⁻¹.
        let pivot = w[row];
        let m = self.m;
        let (before, rest) = self.binv.split_at_mut(row * m);
        let (prow, after) = rest.split_at_mut(m);
        let inv_pivot = 1.0 / pivot;
        for x in prow.iter_mut() {
            *x *= inv_pivot;
        }
        for (r, chunk) in before.chunks_exact_mut(m).enumerate() {
            let factor = w[r];
            if factor != 0.0 {
                for (x, p) in chunk.iter_mut().zip(prow.iter()) {
                    *x -= factor * p;
                }
            }
        }
        for (k, chunk) in after.chunks_exact_mut(m).enumerate() {
            let factor = w[row + 1 + k];
            if factor != 0.0 {
                for (x, p) in chunk.iter_mut().zip(prow.iter()) {
                    *x -= factor * p;
                }
            }
        }
    }

    /// Recompute basic values `x_B = B⁻¹ (b − N x_N)` from scratch to wash
    /// out floating-point drift accumulated by the eta updates.
    fn refresh_xb(&mut self) {
        let mut v = self.sf.rhs.clone();
        for j in 0..self.total_cols {
            if matches!(self.state[j], ColState::Basic(_)) {
                continue;
            }
            let x = self.nonbasic_value(j);
            if x != 0.0 {
                if j >= self.art_base {
                    let (r, sign) = self.artificials[j - self.art_base];
                    v[r] -= sign * x;
                } else {
                    for (r, a) in self.sf.cols[j].iter() {
                        v[r] -= a * x;
                    }
                }
            }
        }
        for r in 0..self.m {
            let row = &self.binv[r * self.m..(r + 1) * self.m];
            self.xb[r] = row.iter().zip(&v).map(|(b, x)| b * x).sum();
        }
    }

    fn extract_structural(&self) -> Vec<f64> {
        (0..self.sf.num_structural)
            .map(|j| self.sf.unscale_value(j, self.col_value(j)))
            .collect()
    }
}

impl<'a> LpEngine<'a> for Simplex<'a> {
    fn new(sf: &'a StandardForm, opts: &'a SolveOptions, deadline: Deadline) -> Self {
        Simplex::new(sf, opts).with_deadline(deadline)
    }
    fn solve(&mut self) -> Result<LpOutcome, SolveError> {
        Simplex::solve(self)
    }
    fn solve_warm(&mut self, snap: &BasisSnapshot) -> Result<Option<LpOutcome>, SolveError> {
        Simplex::solve_warm(self, snap)
    }
    fn snapshot(&self) -> Option<BasisSnapshot> {
        Simplex::snapshot(self)
    }
    fn pivots(&self) -> u64 {
        self.pivots
    }
    fn take_uncharged_pivots(&mut self) -> u64 {
        Simplex::take_uncharged_pivots(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cmp, Model, Sense};

    fn lp(model: &Model) -> LpOutcome {
        let sf = StandardForm::build(model, None);
        let opts = SolveOptions::default();
        Simplex::new(&sf, &opts)
            .solve()
            .expect("no iteration limit expected")
    }

    fn optimal_obj(model: &Model) -> f64 {
        let sf = StandardForm::build(model, None);
        let opts = SolveOptions::default();
        match Simplex::new(&sf, &opts).solve().unwrap() {
            LpOutcome::Optimal { min_obj, .. } => sf.model_objective(min_obj),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

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
        assert!((optimal_obj(&m) - 34.0).abs() < 1e-6);
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
        match lp(&m) {
            LpOutcome::Optimal { values, min_obj } => {
                assert!((values[0] - 7.0).abs() < 1e-6);
                assert!((values[1] - 3.0).abs() < 1e-6);
                assert!((min_obj - 10.0).abs() < 1e-6);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn detects_infeasible() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 1.0);
        m.add_constr("lo", 1.0 * x, Cmp::Ge, 2.0).unwrap();
        assert!(matches!(lp(&m), LpOutcome::Infeasible));
    }

    #[test]
    fn detects_infeasible_between_rows() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        m.add_constr("a", 1.0 * x, Cmp::Ge, 5.0).unwrap();
        m.add_constr("b", 1.0 * x, Cmp::Le, 4.0).unwrap();
        assert!(matches!(lp(&m), LpOutcome::Infeasible));
    }

    #[test]
    fn detects_unbounded() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        m.add_constr("c", 1.0 * x, Cmp::Ge, 1.0).unwrap();
        m.set_objective(Sense::Maximize, 1.0 * x);
        assert!(matches!(lp(&m), LpOutcome::Unbounded));
    }

    #[test]
    fn bounded_by_variable_bounds_only() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", -3.0, 5.0);
        m.set_objective(Sense::Minimize, 2.0 * x);
        // No constraints at all.
        assert!((optimal_obj(&m) - (-6.0)).abs() < 1e-9);
    }

    #[test]
    fn free_variable_equality() {
        // min |shape|: free t with t = 5 exactly.
        let mut m = Model::new("t");
        let t = m.add_free("t");
        m.add_constr("fix", 1.0 * t, Cmp::Eq, 5.0).unwrap();
        m.set_objective(Sense::Minimize, 1.0 * t);
        assert!((optimal_obj(&m) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn upper_bounded_vars_flip() {
        // max x + y, x,y in [0,1], x + y <= 1.5 -> 1.5
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 1.0);
        let y = m.add_continuous("y", 0.0, 1.0);
        m.add_constr("c", x + y, Cmp::Le, 1.5).unwrap();
        m.set_objective(Sense::Maximize, x + y);
        assert!((optimal_obj(&m) - 1.5).abs() < 1e-9);
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
        assert!((optimal_obj(&m) - 0.0).abs() < 1e-9);
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
        assert!((optimal_obj(&m) - (-4.0)).abs() < 1e-6);
    }

    #[test]
    fn fixed_variables_respected() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 2.0, 2.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        m.add_constr("c", x + y, Cmp::Le, 5.0).unwrap();
        m.set_objective(Sense::Maximize, 3.0 * x + y);
        // x pinned to 2, so y <= 3 and obj = 9.
        assert!((optimal_obj(&m) - 9.0).abs() < 1e-6);
    }

    #[test]
    fn zero_row_model() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 1.0, 2.0);
        m.set_objective(Sense::Maximize, 1.0 * x);
        assert!((optimal_obj(&m) - 2.0).abs() < 1e-12);
    }
}
