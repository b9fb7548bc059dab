//! Bounded-variable two-phase revised simplex with a factorized basis.
//!
//! Dantzig pricing with a Bland's-rule fallback after a degenerate run, bound
//! flips, phase-1 artificials only for rows whose slack cannot absorb the
//! residual, and a dual-simplex entry point for warm starts. The basis
//! inverse is never formed: all linear algebra goes through a sparse LU
//! factorization plus a product-form eta file ([`FactorizedBasis`]): FTRAN
//! for entering columns and basic values, BTRAN for duals and `B⁻¹` rows. The
//! eta file is collapsed into a fresh factorization every 64 pivots (the
//! retry ladder's rung 2 drops this to 1, making every pivot a fresh
//! factorization). Tolerances, pricing and this cadence come from the
//! ladder rung's `Numerics`.
//!
//! A cold solve therefore factorizes its slack/artificial start basis,
//! refactorizes every 64 pivots, and refactorizes once more at the canonical
//! finish unless the eta file is empty. The factorization and
//! the etas cost time in proportion to their nonzeros, so the start basis,
//! all singleton columns, factorizes in O(m).
//!
//! # Determinism
//!
//! Refactorization processes basis columns in a canonical order — ascending
//! `(nonzero count, column index)` — so the factors depend only on the *set*
//! of basic columns. On top of that, every optimal finish refactorizes and
//! recomputes the basic values from scratch before extracting the solution
//! (`finalize_canonical`), which makes the reported values a pure function
//! of `(basis, nonbasic states, standard form)` rather than of the eta
//! history that reached the basis. Cold-solve bits are defined by that
//! finish, and a warm-started solve that lands on the same optimal basis as
//! a cold solve reports bit-identical values. On an LP with several optimal
//! bases the dual repair of a warm start may land on a different one than
//! the cold path: warm starts ([`SolveOptions::warm_start`], on by default)
//! accept the weaker tie guarantee documented on that flag.
//!
//! [`SolveOptions::warm_start`]: crate::SolveOptions::warm_start

use crate::error::SolveError;
use crate::solver::backend::{BasisSnapshot, LpOutcome};
use crate::solver::budget::{Budget, Deadline};
use crate::solver::factor::{FactorizedBasis, LuFactors};
use crate::solver::Numerics;
use crate::standard_form::StandardForm;

/// Simplex pivots one LP solve may take.
pub(crate) const MAX_LP_PIVOTS: u64 = 500_000;
/// Hard floor below which a pivot element is considered numerically zero.
const PIVOT_TOL: f64 = 1e-9;
/// Non-improving pivots tolerated before switching to Bland's rule.
const BLAND_TRIGGER: u32 = 200;

/// Where a column currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColState {
    Basic(u32),
    AtLower,
    AtUpper,
    /// Free variable resting at zero.
    FreeZero,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BoundHit {
    Lower,
    Upper,
}

#[derive(Debug)]
enum RatioResult {
    Unbounded,
    BoundFlip { t: f64 },
    Pivot { row: usize, t: f64, hit: BoundHit },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IterEnd {
    Optimal,
    Unbounded,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DualEnd {
    /// Basic values are back within bounds.
    PrimalFeasible,
    /// No entering column exists for a violated row: the LP is infeasible.
    Infeasible,
    /// Numerical trouble; the caller should cold-start instead.
    LostDualFeasibility,
}

/// Revised simplex over a [`StandardForm`].
#[derive(Debug)]
pub(crate) struct RevisedSimplex<'a> {
    sf: &'a StandardForm,
    /// The shared budget this engine's pivots are charged to.
    budget: &'a Budget,
    numerics: Numerics,
    m: usize,
    /// Total columns including artificials.
    total_cols: usize,
    /// Artificial column `art_base + k` holds the single entry
    /// `art_signs[k]` (`±1`) in row `art_rows[k]`.
    art_rows: Vec<u32>,
    art_signs: Vec<f64>,
    /// First artificial column index (== sf.num_cols()).
    art_base: usize,
    /// Factorized basis operator; `None` only before the first factorization.
    basis_op: Option<FactorizedBasis>,
    basis: Vec<usize>,
    state: Vec<ColState>,
    xb: Vec<f64>,
    /// Current phase costs per column.
    costs: Vec<f64>,
    /// Cached reduced costs per column (recomputed each pivot).
    dvec: Vec<f64>,
    /// Fixed-at-zero artificial bounds during phase 2.
    art_fixed: bool,
    pub pivots: u64,
    degenerate_run: u32,
    deadline: Deadline,
    charged: u64,
    /// Basis refactorizations performed so far.
    pub refactorizations: u64,
    /// Optimal finishes that reused the current factorization (see
    /// `finalize_canonical`).
    pub refactor_reuses: u64,
}

impl<'a> RevisedSimplex<'a> {
    pub fn new(
        sf: &'a StandardForm,
        budget: &'a Budget,
        numerics: Numerics,
        deadline: Deadline,
    ) -> Self {
        let m = sf.num_rows;
        RevisedSimplex {
            sf,
            budget,
            numerics,
            m,
            total_cols: sf.num_cols(),
            art_rows: Vec::new(),
            art_signs: Vec::new(),
            art_base: sf.num_cols(),
            basis_op: None,
            basis: vec![usize::MAX; m],
            state: vec![ColState::AtLower; sf.num_cols()],
            xb: vec![0.0; m],
            costs: Vec::new(),
            dvec: Vec::new(),
            art_fixed: false,
            pivots: 0,
            degenerate_run: 0,
            deadline,
            charged: 0,
            refactorizations: 0,
            refactor_reuses: 0,
        }
    }

    pub fn take_uncharged_pivots(&mut self) -> u64 {
        let n = self.pivots - self.charged;
        self.charged = self.pivots;
        n
    }

    fn check_budget(&mut self) -> Result<(), SolveError> {
        let newly = self.pivots - self.charged;
        self.charged = self.pivots;
        self.budget.charge_pivots(newly)?;
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

    pub fn solve(&mut self) -> Result<LpOutcome, SolveError> {
        for j in 0..self.sf.num_cols() {
            if self.sf.lower[j] > self.sf.upper[j] {
                return Ok(LpOutcome::Infeasible);
            }
        }
        if self.m == 0 {
            return Ok(self.solve_unconstrained());
        }
        self.init_phase1();
        if !self.refactorize() {
            return Err(SolveError::Numerical(
                "initial basis factorization failed".into(),
            ));
        }
        if self.phase1_needed() {
            self.set_phase1_costs();
            self.iterate()?;
            let infeas: f64 = self.phase1_objective();
            if !infeas.is_finite() {
                return Err(SolveError::Numerical(
                    "phase-1 infeasibility measure is non-finite".into(),
                ));
            }
            if infeas > self.numerics.feas_tol.max(1e-9) * (1.0 + self.rhs_norm().sqrt()) {
                return Ok(LpOutcome::Infeasible);
            }
            self.expel_artificials()?;
        }
        self.set_phase2_costs();
        match self.iterate()? {
            IterEnd::Optimal => {}
            IterEnd::Unbounded => return Ok(LpOutcome::Unbounded),
        }
        self.finalize_canonical();
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
            DualEnd::LostDualFeasibility => return Ok(None),
        }
        match self.iterate()? {
            IterEnd::Optimal => {
                self.finalize_canonical();
                Ok(Some(self.finish_optimal()))
            }
            IterEnd::Unbounded => Ok(Some(LpOutcome::Unbounded)),
        }
    }

    /// Canonical finish: collapse the eta file into a fresh factorization and
    /// recompute the basic values from scratch, making the extracted solution
    /// a pure function of the final basis (see module docs).
    ///
    /// When the eta file is already empty the current operator *is* the
    /// canonical factorization of this basis — `refactorize` always builds in
    /// the canonical column order, and no pivot has touched the basis since —
    /// so rebuilding the LU is skipped and only the basic values are
    /// recomputed (which the rebuild path does too, keeping the extracted
    /// solution bit-identical).
    fn finalize_canonical(&mut self) {
        if let Some(op) = &self.basis_op {
            if op.num_etas() == 0 {
                self.refactor_reuses += 1;
                self.refresh_xb();
                return;
            }
        }
        if self.refactorize() {
            self.refresh_xb();
        }
    }

    fn finish_optimal(&self) -> LpOutcome {
        let values = self.extract_structural();
        let min_obj: f64 = (0..self.sf.num_cols())
            .map(|j| self.sf.obj[j] * self.col_value(j))
            .sum();
        LpOutcome::Optimal { values, min_obj }
    }

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

    /// Install a snapshot: set states, factorize the snapshot basis, and
    /// recompute basic values. Returns `false` when the snapshot does not fit
    /// this standard form or its basis matrix is singular.
    fn install(&mut self, snap: &BasisSnapshot) -> bool {
        if snap.basis.len() != self.m || snap.state.len() != self.sf.num_cols() {
            return false;
        }
        self.art_rows.clear();
        self.art_signs.clear();
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
        if !self.refactorize() {
            return false;
        }
        self.set_phase2_costs();
        self.refresh_xb();
        true
    }

    /// Dual simplex: from a (nominally) dual-feasible basis, pivot until the
    /// basic values are within bounds or the LP is proven infeasible.
    fn dual_iterate(&mut self) -> Result<DualEnd, SolveError> {
        let budget = 4 * (self.m as u64) + 64;
        let mut used = 0u64;
        loop {
            if self.pivots >= MAX_LP_PIVOTS {
                return Err(SolveError::IterationLimit {
                    limit: MAX_LP_PIVOTS,
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
                if x < lb - self.numerics.feas_tol {
                    let v = lb - x;
                    if leave.as_ref().is_none_or(|&(_, bv, _)| v > bv) {
                        leave = Some((r, v, true));
                    }
                } else if x > ub + self.numerics.feas_tol {
                    let v = x - ub;
                    if leave.as_ref().is_none_or(|&(_, bv, _)| v > bv) {
                        leave = Some((r, v, false));
                    }
                }
            }
            let Some((row, _, below)) = leave else {
                return Ok(DualEnd::PrimalFeasible);
            };

            let y = self.btran_costs();
            let rho = self.binv_row(row);

            // Entering column: dual ratio test among eligible nonbasics.
            let mut best: Option<(usize, f64, f64)> = None; // (col, ratio, |alpha|)
            for j in 0..self.total_cols {
                if matches!(self.state[j], ColState::Basic(_)) {
                    continue;
                }
                if self.col_lower(j) >= self.col_upper(j) {
                    continue; // fixed
                }
                let alpha = self.col_dot(&rho, j);
                if alpha.abs() <= PIVOT_TOL {
                    continue;
                }
                let eligible = match (self.state[j], below) {
                    (ColState::AtLower, true) => alpha < 0.0,
                    (ColState::AtLower, false) => alpha > 0.0,
                    (ColState::AtUpper, true) => alpha > 0.0,
                    (ColState::AtUpper, false) => alpha < 0.0,
                    (ColState::FreeZero, _) => true,
                    (ColState::Basic(_), _) => false,
                };
                if !eligible {
                    continue;
                }
                let dj = self.costs[j] - self.col_dot(&y, j);
                let ratio = dj.abs() / alpha.abs();
                match best {
                    None => best = Some((j, ratio, alpha.abs())),
                    Some((_, br, balpha)) => {
                        if ratio < br - 1e-12
                            || ((ratio - br).abs() <= 1e-12 && alpha.abs() > balpha)
                        {
                            best = Some((j, ratio, alpha.abs()));
                        }
                    }
                }
            }
            let Some((enter, ratio, _)) = best else {
                return Ok(DualEnd::Infeasible);
            };
            if ratio > 1e9 {
                return Ok(DualEnd::LostDualFeasibility);
            }

            let w = self.ftran_col(enter);
            if w[row].abs() <= PIVOT_TOL {
                return Ok(DualEnd::LostDualFeasibility);
            }
            let hit = if below {
                BoundHit::Lower
            } else {
                BoundHit::Upper
            };
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
            self.pivot(enter, row, &w, enter_val, hit)?;
            self.pivots += 1;
            if self.pivots % 64 == 63 {
                self.refresh_xb();
                self.check_budget()?;
            }
        }
    }

    // ---- setup ------------------------------------------------------------

    fn solve_unconstrained(&self) -> LpOutcome {
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
        for j in 0..n {
            self.state[j] = self.initial_nonbasic_state(j);
        }
        let mut residual = self.sf.rhs.clone();
        for j in 0..n {
            let v = self.nonbasic_value(j);
            if v != 0.0 {
                for (r, a) in self.sf.cols[j].iter() {
                    residual[r] -= a * v;
                }
            }
        }
        for (r, &res) in residual.iter().enumerate() {
            let slack = n + r;
            let (slb, sub) = (self.sf.lower[slack], self.sf.upper[slack]);
            if res >= slb && res <= sub {
                self.state[slack] = ColState::Basic(r as u32);
                self.basis[r] = slack;
                self.xb[r] = res;
            } else {
                let clamped = res.clamp(slb, sub);
                self.state[slack] = if clamped == slb {
                    ColState::AtLower
                } else {
                    ColState::AtUpper
                };
                let rem = res - clamped;
                let sign = if rem >= 0.0 { 1.0 } else { -1.0 };
                let art_col = self.art_base + self.art_rows.len();
                self.art_rows.push(r as u32);
                self.art_signs.push(sign);
                self.state.push(ColState::Basic(r as u32));
                self.basis[r] = art_col;
                self.xb[r] = rem.abs();
            }
        }
        self.total_cols = self.art_base + self.art_rows.len();
    }

    fn phase1_needed(&self) -> bool {
        !self.art_rows.is_empty()
    }

    fn set_phase1_costs(&mut self) {
        self.costs = vec![0.0; self.total_cols];
        self.costs[self.art_base..].fill(1.0);
    }

    fn set_phase2_costs(&mut self) {
        self.costs = vec![0.0; self.total_cols];
        self.costs[..self.sf.num_cols()].copy_from_slice(&self.sf.obj);
        self.art_fixed = true;
    }

    fn phase1_objective(&self) -> f64 {
        (self.art_base..self.total_cols)
            .map(|j| self.col_value(j).max(0.0))
            .sum()
    }

    fn rhs_norm(&self) -> f64 {
        self.sf.rhs.iter().fold(0.0_f64, |a, b| a.max(b.abs()))
    }

    /// After phase 1, pivot remaining basic artificials out of the basis, or
    /// pin them at zero if their row is linearly dependent.
    fn expel_artificials(&mut self) -> Result<(), SolveError> {
        for r in 0..self.m {
            let bcol = self.basis[r];
            if bcol < self.art_base {
                continue;
            }
            let rho = self.binv_row(r);
            let mut entering = None;
            for j in 0..self.sf.num_cols() {
                if matches!(self.state[j], ColState::Basic(_)) {
                    continue;
                }
                let wr = self.col_dot(&rho, j);
                if wr.abs() > 1e-7 {
                    entering = Some(j);
                    break;
                }
            }
            if let Some(j) = entering {
                let w = self.ftran_col(j);
                let enter_val = self.nonbasic_value(j);
                self.pivot(j, r, &w, enter_val, BoundHit::Lower)?;
            }
        }
        Ok(())
    }

    // ---- basis operator ----------------------------------------------------

    /// Column `j` of the *working* matrix (structural/slack or artificial)
    /// in original-row space, as parallel row-index and value slices.
    fn column(&self, j: usize) -> (&[u32], &[f64]) {
        if j >= self.art_base {
            let k = j - self.art_base;
            (&self.art_rows[k..=k], &self.art_signs[k..=k])
        } else {
            let col = &self.sf.cols[j];
            (&col.rows, &col.vals)
        }
    }

    /// Basis positions in the canonical factorization order, ascending
    /// `(column nnz, column index)`, read off the standard form's ranking.
    /// Artificials hold one entry each and have the highest indices, so the
    /// basic ones go right after the last column with at most one entry.
    /// `None` when a column fills two basis positions (a singular basis).
    fn canonical_order(&self) -> Option<Vec<usize>> {
        let ranked = &self.sf.nnz_order;
        let split = ranked.partition_point(|&j| self.sf.cols[j as usize].nnz() <= 1);
        let (low, high) = ranked.split_at(split);
        let order: Vec<usize> = low
            .iter()
            .map(|&j| j as usize)
            .chain(self.art_base..self.total_cols)
            .chain(high.iter().map(|&j| j as usize))
            .filter_map(|j| match self.state[j] {
                ColState::Basic(r) => Some(r as usize),
                _ => None,
            })
            .collect();
        (order.len() == self.m).then_some(order)
    }

    /// Collapse the eta file into a fresh factorization of the current basis
    /// using the canonical column order. Returns `false` on a singular basis.
    fn refactorize(&mut self) -> bool {
        let Some(order) = self.canonical_order() else {
            return false;
        };
        match LuFactors::build(order, |p| self.column(self.basis[p])) {
            Some(f) => {
                self.basis_op = Some(FactorizedBasis::new(f));
                self.refactorizations += 1;
                true
            }
            None => false,
        }
    }

    /// `w = B⁻¹ A_j` via the factorized operator (basis-position space).
    fn ftran_col(&mut self, j: usize) -> Vec<f64> {
        let mut b = vec![0.0; self.m];
        let (rows, vals) = self.column(j);
        for (&r, &a) in rows.iter().zip(vals) {
            b[r as usize] = a;
        }
        self.basis_op
            .as_mut()
            .expect("basis factorized before any ftran")
            .ftran(b)
    }

    /// `y = c_Bᵀ B⁻¹` in original-row space.
    fn btran_costs(&mut self) -> Vec<f64> {
        let cb: Vec<f64> = self.basis.iter().map(|&j| self.costs[j]).collect();
        self.basis_op
            .as_mut()
            .expect("basis factorized before any btran")
            .btran(cb)
    }

    /// Row `r` of `B⁻¹` in original-row space (`ρ = B⁻ᵀ e_r`).
    fn binv_row(&mut self, r: usize) -> Vec<f64> {
        let mut e = vec![0.0; self.m];
        e[r] = 1.0;
        self.basis_op
            .as_mut()
            .expect("basis factorized before any btran")
            .btran(e)
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

    /// Dot of a dense original-row-space vector with column `j`.
    fn col_dot(&self, y: &[f64], j: usize) -> f64 {
        if j >= self.art_base {
            let k = j - self.art_base;
            y[self.art_rows[k] as usize] * self.art_signs[k]
        } else {
            self.sf.cols[j].iter().map(|(r, a)| y[r] * a).sum()
        }
    }

    /// Recompute the cached reduced costs `d_j = c_j − c_Bᵀ B⁻¹ A_j`.
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
            if self.pivots >= MAX_LP_PIVOTS {
                return Err(SolveError::IterationLimit {
                    limit: MAX_LP_PIVOTS,
                });
            }
            if self.pivots % 256 == 255 {
                self.refresh_xb();
                self.check_budget()?;
            }
            self.recompute_reduced_costs();
            let bland = self.numerics.force_bland || self.degenerate_run >= BLAND_TRIGGER;
            let Some((j, dir)) = self.price_cached(bland) else {
                return Ok(IterEnd::Optimal);
            };
            let w = self.ftran_col(j);
            match self.ratio_test(j, dir, &w, bland) {
                RatioResult::Unbounded => return Ok(IterEnd::Unbounded),
                RatioResult::BoundFlip { t } => {
                    self.apply_bound_flip(j, dir, t, &w);
                    self.pivots += 1;
                    self.degenerate_run = 0;
                }
                RatioResult::Pivot { row, t, hit } => {
                    let enter_val = self.nonbasic_value(j) + dir * t;
                    for (r, &wr) in w.iter().enumerate() {
                        if r != row {
                            self.xb[r] -= dir * t * wr;
                        }
                    }
                    self.pivot(j, row, &w, enter_val, hit)?;
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
    /// `(col, direction)`.
    fn price_cached(&self, bland: bool) -> Option<(usize, f64)> {
        let tol = self.numerics.dual_tol;
        let mut best: Option<(usize, f64, f64)> = None; // (col, dj, dir)
        for j in 0..self.total_cols {
            let st = self.state[j];
            if matches!(st, ColState::Basic(_)) {
                continue;
            }
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
                return Some((j, dir));
            }
            match best {
                Some((_, bd, _)) if dj.abs() <= bd.abs() => {}
                _ => best = Some((j, dj, dir)),
            }
        }
        best.map(|(j, _, dir)| (j, dir))
    }

    fn ratio_test(&self, j: usize, dir: f64, w: &[f64], bland: bool) -> RatioResult {
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

    /// Commit a basis change: update states and values, append the eta, and
    /// refactorize once the eta file reaches the rung's `refactor_every`.
    fn pivot(
        &mut self,
        j: usize,
        row: usize,
        w: &[f64],
        enter_val: f64,
        hit: BoundHit,
    ) -> Result<(), SolveError> {
        let leaving = self.basis[row];
        self.state[leaving] = match hit {
            BoundHit::Lower => ColState::AtLower,
            BoundHit::Upper => ColState::AtUpper,
        };
        self.basis[row] = j;
        self.state[j] = ColState::Basic(row as u32);
        self.xb[row] = enter_val;

        let op = self
            .basis_op
            .as_mut()
            .expect("basis factorized before any pivot");
        op.push_eta(row, w);
        if op.num_etas() as u64 >= self.numerics.refactor_every {
            if !self.refactorize() {
                return Err(SolveError::Numerical(
                    "basis refactorization failed (singular basis)".into(),
                ));
            }
            self.refresh_xb();
        }
        Ok(())
    }

    /// Recompute basic values `x_B = B⁻¹ (b − N x_N)` from scratch.
    fn refresh_xb(&mut self) {
        let mut v = self.sf.rhs.clone();
        for j in 0..self.total_cols {
            if matches!(self.state[j], ColState::Basic(_)) {
                continue;
            }
            let x = self.nonbasic_value(j);
            if x != 0.0 {
                if j >= self.art_base {
                    let k = j - self.art_base;
                    v[self.art_rows[k] as usize] -= self.art_signs[k] * x;
                } else {
                    for (r, a) in self.sf.cols[j].iter() {
                        v[r] -= a * x;
                    }
                }
            }
        }
        self.xb = self
            .basis_op
            .as_mut()
            .expect("basis factorized before refresh")
            .ftran(v);
    }

    fn extract_structural(&self) -> Vec<f64> {
        (0..self.sf.num_structural)
            .map(|j| self.sf.unscale_value(j, self.col_value(j)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cmp, Model, Sense};

    /// An engine with no deadline at rung 0 of the retry ladder, where
    /// every solve starts.
    fn engine<'a>(sf: &'a StandardForm, budget: &'a Budget) -> RevisedSimplex<'a> {
        RevisedSimplex::new(sf, budget, Numerics::at_rung(0), Deadline::unlimited())
    }

    fn lp(model: &Model) -> LpOutcome {
        let sf = StandardForm::build(model, None);
        engine(&sf, &Budget::unlimited())
            .solve()
            .expect("no iteration limit expected")
    }

    fn optimal_obj(model: &Model) -> f64 {
        let sf = StandardForm::build(model, None);
        match engine(&sf, &Budget::unlimited()).solve().unwrap() {
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
    fn degenerate_lp_terminates() {
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
    fn upper_bounded_vars_flip() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 1.0);
        let y = m.add_continuous("y", 0.0, 1.0);
        m.add_constr("c", x + y, Cmp::Le, 1.5).unwrap();
        m.set_objective(Sense::Maximize, x + y);
        assert!((optimal_obj(&m) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn free_variable_equality() {
        let mut m = Model::new("t");
        let t = m.add_free("t");
        m.add_constr("fix", 1.0 * t, Cmp::Eq, 5.0).unwrap();
        m.set_objective(Sense::Minimize, 1.0 * t);
        assert!((optimal_obj(&m) - 5.0).abs() < 1e-9);
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

    #[test]
    fn aggressive_refactorization_agrees() {
        // refactor_every = 1 (every pivot rebuilds the LU) must not change
        // the optimum — this is the retry ladder's "refactorize" rung.
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.add_constr("c1", x + 2.0 * y, Cmp::Le, 14.0).unwrap();
        m.add_constr("c2", 3.0 * x - y, Cmp::Ge, 0.0).unwrap();
        m.add_constr("c3", x - y, Cmp::Le, 2.0).unwrap();
        m.set_objective(Sense::Maximize, 3.0 * x + 4.0 * y);
        let sf = StandardForm::build(&m, None);
        let numerics = Numerics {
            refactor_every: 1,
            ..Numerics::at_rung(0)
        };
        let budget = Budget::unlimited();
        let mut sx = RevisedSimplex::new(&sf, &budget, numerics, Deadline::unlimited());
        match sx.solve().unwrap() {
            LpOutcome::Optimal { min_obj, .. } => {
                assert!((sf.model_objective(min_obj) - 34.0).abs() < 1e-6);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
        assert!(sx.refactorizations > 1, "every pivot should refactorize");
        // The last pivot already rebuilt the LU, so the canonical finish
        // finds an empty eta file and reuses the factorization.
        assert!(
            sx.refactor_reuses >= 1,
            "optimal finish should reuse the fresh factorization"
        );
    }

    #[test]
    fn canonical_finish_reuse_preserves_solution() {
        // Same LP solved with an eta file forced empty at the finish
        // (refactor_every = 1) and with the default cadence: bit-identical
        // optima either way, proving the reuse path changes no values.
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.add_constr("c1", x + 2.0 * y, Cmp::Le, 14.0).unwrap();
        m.add_constr("c2", 3.0 * x - y, Cmp::Ge, 0.0).unwrap();
        m.add_constr("c3", x - y, Cmp::Le, 2.0).unwrap();
        m.set_objective(Sense::Maximize, 3.0 * x + 4.0 * y);
        let sf = StandardForm::build(&m, None);
        let budget = Budget::unlimited();
        let solve_with = |refactor_every: u64| {
            let numerics = Numerics {
                refactor_every,
                ..Numerics::at_rung(0)
            };
            let mut sx = RevisedSimplex::new(&sf, &budget, numerics, Deadline::unlimited());
            let out = sx.solve().unwrap();
            let LpOutcome::Optimal { values, min_obj } = out else {
                panic!("expected optimal");
            };
            (values, min_obj, sx.refactor_reuses)
        };
        let (v1, o1, reuses1) = solve_with(1);
        let (v2, o2, _) = solve_with(Numerics::at_rung(0).refactor_every);
        assert!(reuses1 >= 1, "reuse path must be exercised");
        assert_eq!(o1.to_bits(), o2.to_bits());
        for (a, b) in v1.iter().zip(v2.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// The canonical order as `refactorize` used to derive it: basis
    /// positions sorted by `(column nnz, column index)`.
    fn sorted_order(sx: &RevisedSimplex<'_>) -> Vec<usize> {
        let col_nnz = |j: usize| sx.column(j).0.len();
        let mut order: Vec<usize> = (0..sx.m).collect();
        order.sort_by_key(|&r| (col_nnz(sx.basis[r]), sx.basis[r]));
        order
    }

    #[test]
    fn canonical_order_of_a_phase1_basis_matches_the_sort() {
        // Equality and ≥ rows whose slacks cannot absorb the residual get
        // artificials; x and y hold two entries, z three, w one.
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        let z = m.add_continuous("z", 0.0, f64::INFINITY);
        let w = m.add_continuous("w", 0.0, f64::INFINITY);
        m.add_constr("e", x + y + z, Cmp::Eq, 10.0).unwrap();
        m.add_constr("le", x + 2.0 * z, Cmp::Le, 8.0).unwrap();
        m.add_constr("ge", y + z + w, Cmp::Ge, 3.0).unwrap();
        m.add_constr("le2", 1.0 * w, Cmp::Le, 4.0).unwrap();
        m.set_objective(Sense::Minimize, x + y + z + w);
        let sf = StandardForm::build(&m, None);
        let budget = Budget::unlimited();
        let mut sx = engine(&sf, &budget);
        sx.init_phase1();
        assert_eq!(sx.art_rows.len(), 2, "rows e and ge need artificials");
        assert_eq!(sx.canonical_order(), Some(sorted_order(&sx)));
        // Pivot structurals in, so the basis mixes structurals, slacks and
        // artificials, and compare again after every pivot.
        assert!(sx.refactorize());
        sx.set_phase1_costs();
        let mut mixed = 0;
        for _ in 0..3 {
            sx.recompute_reduced_costs();
            let Some((j, dir)) = sx.price_cached(false) else {
                break;
            };
            let col = sx.ftran_col(j);
            let RatioResult::Pivot { row, t, hit } = sx.ratio_test(j, dir, &col, false) else {
                break;
            };
            let enter_val = sx.nonbasic_value(j) + dir * t;
            sx.pivot(j, row, &col, enter_val, hit).unwrap();
            assert_eq!(sx.canonical_order(), Some(sorted_order(&sx)));
            let basic = |range: std::ops::Range<usize>| sx.basis.iter().any(|b| range.contains(b));
            if basic(0..sf.num_structural) && basic(sx.art_base..sx.total_cols) {
                mixed += 1;
            }
        }
        assert!(mixed >= 1, "no basis held structurals and artificials");
    }

    #[test]
    fn canonical_order_of_a_remapped_warm_basis_matches_the_sort() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        m.add_constr("c1", x + y, Cmp::Le, 8.0).unwrap();
        m.add_constr("c2", 2.0 * x + y, Cmp::Le, 12.0).unwrap();
        m.set_objective(Sense::Maximize, 3.0 * x + 2.0 * y);
        let budget = Budget::unlimited();
        let sf = StandardForm::build(&m, None);
        let mut sx = engine(&sf, &budget);
        assert!(matches!(sx.solve().unwrap(), LpOutcome::Optimal { .. }));
        let snap = sx.snapshot().expect("clean basis");
        assert!(snap.basis.iter().all(|&b| b < 2), "x and y end basic");

        // Grow the model as the cut loop does: one auxiliary column and one
        // cut row, which shifts the slacks' indices.
        let a = m.add_continuous("a", 0.0, 1.0);
        m.add_constr("cut", x + y + a, Cmp::Le, 7.0).unwrap();
        let grown = StandardForm::build(&m, None);
        let remapped = snap
            .remap(grown.num_structural, grown.num_rows)
            .expect("the model grew");
        let mut warm = engine(&grown, &budget);
        assert!(warm.install(&remapped));
        assert_eq!(warm.canonical_order(), Some(sorted_order(&warm)));
    }

    #[test]
    fn warm_start_dual_repair_after_bound_change() {
        // Solve, snapshot, tighten a bound that cuts off the optimum, and
        // dual-repair from the snapshot; compare against a cold solve.
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        m.add_constr("c1", x + y, Cmp::Le, 8.0).unwrap();
        m.add_constr("c2", 2.0 * x + y, Cmp::Le, 12.0).unwrap();
        m.set_objective(Sense::Maximize, 3.0 * x + 2.0 * y);
        let budget = Budget::unlimited();
        let sf = StandardForm::build(&m, None);
        let mut sx = engine(&sf, &budget);
        let first = sx.solve().unwrap();
        let LpOutcome::Optimal { values, .. } = &first else {
            panic!("expected optimal, got {first:?}");
        };
        let x0 = values[0];
        let snap = sx.snapshot().expect("clean basis");

        // Tighten x's upper bound below its optimal value.
        let lbs: Vec<f64> = vec![0.0, 0.0];
        let ubs: Vec<f64> = vec![(x0 - 1.0).max(0.0), 10.0];
        let sf2 = sf.rebind(&lbs, &ubs);
        let mut warm_sx = engine(&sf2, &budget);
        let warm = warm_sx
            .solve_warm(&snap)
            .unwrap()
            .expect("snapshot should install");
        let mut cold_sx = engine(&sf2, &budget);
        let cold = cold_sx.solve().unwrap();
        match (warm, cold) {
            (
                LpOutcome::Optimal {
                    min_obj: w,
                    values: wv,
                },
                LpOutcome::Optimal {
                    min_obj: c,
                    values: cv,
                },
            ) => {
                assert!((w - c).abs() < 1e-9, "warm {w} vs cold {c}");
                for (a, b) in wv.iter().zip(&cv) {
                    assert!((a - b).abs() < 1e-9);
                }
                assert!(
                    warm_sx.pivots <= cold_sx.pivots,
                    "dual repair ({} pivots) should not exceed cold start ({})",
                    warm_sx.pivots,
                    cold_sx.pivots
                );
            }
            other => panic!("expected two optima, got {other:?}"),
        }
    }
}
