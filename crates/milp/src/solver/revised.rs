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
//! # Cost
//!
//! An engine keeps every per-LP vector — basis, column states, basic
//! values, costs, reduced costs, the FTRAN/BTRAN inputs and outputs, the
//! canonical order and the basis operator — in an [`LpWorkspace`] it
//! borrows, so an LP allocates only what outlives it: the solution vector
//! and the basis snapshot. Each pivot recomputes the reduced costs of the
//! columns pricing reads, the nonbasic unfixed ones, with one BTRAN and a
//! dot product per such column.
//!
//! # Determinism
//!
//! A workspace carries capacity, never values: an engine writes every
//! buffer before reading it, so the workspace a previous solve left behind
//! changes no bit.
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
use crate::solver::factor::FactorizedBasis;
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

/// Every buffer a node LP needs, lent to each LP solve of a
/// branch-and-bound run so that node LPs allocate nothing but what outlives
/// them.
///
/// A workspace carries capacity, never values: every buffer is zero-filled
/// or fully overwritten before it is read, so a solve on a reused workspace
/// is bit for bit a solve on a fresh one (`LpWorkspace::poison` tests
/// this).
#[derive(Debug, Clone, Default)]
pub(crate) struct LpWorkspace {
    /// A node's structural bounds in model space, written by
    /// branch-and-bound.
    pub(crate) lbs: Vec<f64>,
    pub(crate) ubs: Vec<f64>,
    /// The same with every integer variable fixed at its rounded value.
    pub(crate) fixed_lbs: Vec<f64>,
    pub(crate) fixed_ubs: Vec<f64>,
    /// The bound vectors [`StandardForm::rebind`] fills.
    pub(crate) bounds: (Vec<f64>, Vec<f64>),
    /// The basis operator: LU factors, a spare set the next
    /// refactorization fills, the build's scratch and the eta file.
    basis_op: FactorizedBasis,
    /// Artificial column `art_base + k` holds the single entry
    /// `art_signs[k]` (`±1`) in row `art_rows[k]`.
    art_rows: Vec<u32>,
    art_signs: Vec<f64>,
    basis: Vec<usize>,
    state: Vec<ColState>,
    xb: Vec<f64>,
    /// Current phase costs per column.
    costs: Vec<f64>,
    /// Cached reduced costs per column, recomputed each pivot for the
    /// columns pricing reads.
    dvec: Vec<f64>,
    /// The canonical factorization order.
    order: Vec<usize>,
    /// The input of the next FTRAN or BTRAN, which consumes it.
    input: Vec<f64>,
    /// The entering column's FTRAN image `B⁻¹ A_j`, by basis position.
    w: Vec<f64>,
    /// The duals `c_Bᵀ B⁻¹`, by row.
    y: Vec<f64>,
    /// A row of `B⁻¹`, by row.
    rho: Vec<f64>,
}

impl LpWorkspace {
    /// Fill every buffer, to its capacity, with values no solve leaves
    /// (NaN where it holds floats); returns how many entries that wrote.
    #[cfg(test)]
    pub(crate) fn poison(&mut self) -> usize {
        use crate::solver::factor::poison;
        let floats: usize = [
            &mut self.lbs,
            &mut self.ubs,
            &mut self.fixed_lbs,
            &mut self.fixed_ubs,
            &mut self.bounds.0,
            &mut self.bounds.1,
            &mut self.art_signs,
            &mut self.xb,
            &mut self.costs,
            &mut self.dvec,
            &mut self.input,
            &mut self.w,
            &mut self.y,
            &mut self.rho,
        ]
        .into_iter()
        .map(|v| poison(v, f64::NAN))
        .sum();
        floats
            + self.basis_op.poison()
            + poison(&mut self.art_rows, u32::MAX)
            + poison(&mut self.basis, usize::MAX)
            + poison(&mut self.order, usize::MAX)
            + poison(&mut self.state, ColState::Basic(u32::MAX))
    }
}

/// Revised simplex over a [`StandardForm`], on a borrowed [`LpWorkspace`].
#[derive(Debug)]
pub(crate) struct RevisedSimplex<'a> {
    sf: &'a StandardForm,
    /// The shared budget this engine's pivots are charged to.
    budget: &'a Budget,
    numerics: Numerics,
    ws: &'a mut LpWorkspace,
    m: usize,
    /// Total columns including artificials.
    total_cols: usize,
    /// First artificial column index (== sf.num_cols()).
    art_base: usize,
    /// Whether `ws.basis_op` holds this engine's basis: false until the
    /// first factorization, since the workspace's operator is a previous
    /// solve's.
    factorized: bool,
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
        ws: &'a mut LpWorkspace,
    ) -> Self {
        let m = sf.num_rows;
        ws.art_rows.clear();
        ws.art_signs.clear();
        ws.basis.clear();
        ws.basis.resize(m, usize::MAX);
        ws.state.clear();
        ws.state.resize(sf.num_cols(), ColState::AtLower);
        ws.xb.clear();
        ws.xb.resize(m, 0.0);
        ws.costs.clear();
        ws.dvec.clear();
        RevisedSimplex {
            sf,
            budget,
            numerics,
            ws,
            m,
            total_cols: sf.num_cols(),
            art_base: sf.num_cols(),
            factorized: false,
            art_fixed: false,
            pivots: 0,
            degenerate_run: 0,
            deadline,
            charged: 0,
            refactorizations: 0,
            refactor_reuses: 0,
        }
    }

    /// End this engine, handing its workspace back for the next.
    pub fn into_workspace(self) -> &'a mut LpWorkspace {
        self.ws
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
        if self.ws.xb.iter().any(|v| !v.is_finite()) {
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
        if self.factorized && self.ws.basis_op.num_etas() == 0 {
            self.refactor_reuses += 1;
            self.refresh_xb();
            return;
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
        if self.ws.basis.iter().any(|&b| b >= self.art_base) {
            return None;
        }
        let state = (0..self.sf.num_cols())
            .map(|j| match self.ws.state[j] {
                ColState::AtLower => 0,
                ColState::AtUpper => 1,
                ColState::FreeZero => 2,
                ColState::Basic(_) => 3,
            })
            .collect();
        Some(BasisSnapshot {
            basis: self.ws.basis.iter().map(|&b| b as u32).collect(),
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
        self.ws.art_rows.clear();
        self.ws.art_signs.clear();
        self.total_cols = self.sf.num_cols();
        self.ws.state.truncate(self.sf.num_cols());
        for (j, &s) in snap.state.iter().enumerate() {
            self.ws.state[j] = match s {
                0 => ColState::AtLower,
                1 => ColState::AtUpper,
                2 => ColState::FreeZero,
                _ => ColState::AtLower, // placeholder; fixed below for basics
            };
        }
        for (r, &col) in snap.basis.iter().enumerate() {
            self.ws.basis[r] = col as usize;
            self.ws.state[col as usize] = ColState::Basic(r as u32);
        }
        for j in 0..self.sf.num_cols() {
            match self.ws.state[j] {
                ColState::AtLower if !self.sf.lower[j].is_finite() => {
                    self.ws.state[j] = if self.sf.upper[j].is_finite() {
                        ColState::AtUpper
                    } else {
                        ColState::FreeZero
                    };
                }
                ColState::AtUpper if !self.sf.upper[j].is_finite() => {
                    self.ws.state[j] = if self.sf.lower[j].is_finite() {
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
                return Err(engine_pivot_limit());
            }
            if used >= budget {
                return Ok(DualEnd::LostDualFeasibility);
            }
            used += 1;
            // Leaving row: the most violated basic variable.
            let mut leave: Option<(usize, f64, bool)> = None; // (row, violation, below)
            for r in 0..self.m {
                let j = self.ws.basis[r];
                let lb = self.col_lower(j);
                let ub = self.col_upper(j);
                let x = self.ws.xb[r];
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

            self.btran_costs();
            self.binv_row(row);

            // Entering column: dual ratio test among eligible nonbasics.
            let mut best: Option<(usize, f64, f64)> = None; // (col, ratio, |alpha|)
            for j in 0..self.total_cols {
                if self.unpriced(j) {
                    continue;
                }
                let alpha = self.col_dot(&self.ws.rho, j);
                if alpha.abs() <= PIVOT_TOL {
                    continue;
                }
                let eligible = match (self.ws.state[j], below) {
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
                let dj = self.ws.costs[j] - self.col_dot(&self.ws.y, j);
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

            self.ftran_col(enter);
            let w_row = self.ws.w[row];
            if w_row.abs() <= PIVOT_TOL {
                return Ok(DualEnd::LostDualFeasibility);
            }
            let hit = if below {
                BoundHit::Lower
            } else {
                BoundHit::Upper
            };
            let leaving_col = self.ws.basis[row];
            let bound = if below {
                self.col_lower(leaving_col)
            } else {
                self.col_upper(leaving_col)
            };
            let t = (self.ws.xb[row] - bound) / w_row;
            let enter_val = self.nonbasic_value(enter) + t;
            for (r, (xb, &wr)) in self.ws.xb.iter_mut().zip(&self.ws.w).enumerate() {
                if r != row {
                    *xb -= t * wr;
                }
            }
            self.pivot(enter, row, enter_val, hit)?;
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
        let sf = self.sf;
        let n = sf.num_structural;
        for j in 0..n {
            self.ws.state[j] = self.initial_nonbasic_state(j);
        }
        self.ws.input.clear();
        self.ws.input.extend_from_slice(&sf.rhs);
        for j in 0..n {
            let v = self.nonbasic_value(j);
            if v != 0.0 {
                for (r, a) in sf.cols[j].iter() {
                    self.ws.input[r] -= a * v;
                }
            }
        }
        let ws = &mut *self.ws;
        for (r, &res) in ws.input.iter().enumerate() {
            let slack = n + r;
            let (slb, sub) = (sf.lower[slack], sf.upper[slack]);
            if res >= slb && res <= sub {
                ws.state[slack] = ColState::Basic(r as u32);
                ws.basis[r] = slack;
                ws.xb[r] = res;
            } else {
                let clamped = res.clamp(slb, sub);
                ws.state[slack] = if clamped == slb {
                    ColState::AtLower
                } else {
                    ColState::AtUpper
                };
                let rem = res - clamped;
                let sign = if rem >= 0.0 { 1.0 } else { -1.0 };
                let art_col = self.art_base + ws.art_rows.len();
                ws.art_rows.push(r as u32);
                ws.art_signs.push(sign);
                ws.state.push(ColState::Basic(r as u32));
                ws.basis[r] = art_col;
                ws.xb[r] = rem.abs();
            }
        }
        self.total_cols = self.art_base + self.ws.art_rows.len();
    }

    fn phase1_needed(&self) -> bool {
        !self.ws.art_rows.is_empty()
    }

    fn set_phase1_costs(&mut self) {
        self.ws.costs.clear();
        self.ws.costs.resize(self.total_cols, 0.0);
        self.ws.costs[self.art_base..].fill(1.0);
    }

    fn set_phase2_costs(&mut self) {
        self.ws.costs.clear();
        self.ws.costs.resize(self.total_cols, 0.0);
        self.ws.costs[..self.sf.num_cols()].copy_from_slice(&self.sf.obj);
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
            let bcol = self.ws.basis[r];
            if bcol < self.art_base {
                continue;
            }
            self.binv_row(r);
            let mut entering = None;
            for j in 0..self.sf.num_cols() {
                if matches!(self.ws.state[j], ColState::Basic(_)) {
                    continue;
                }
                let wr = self.col_dot(&self.ws.rho, j);
                if wr.abs() > 1e-7 {
                    entering = Some(j);
                    break;
                }
            }
            if let Some(j) = entering {
                self.ftran_col(j);
                let enter_val = self.nonbasic_value(j);
                self.pivot(j, r, enter_val, BoundHit::Lower)?;
            }
        }
        Ok(())
    }

    // ---- basis operator ----------------------------------------------------

    /// Write the basis positions in the canonical factorization order,
    /// ascending `(column nnz, column index)`, read off the standard form's
    /// ranking, into `ws.order`. Artificials hold one entry each and have
    /// the highest indices, so the basic ones go right after the last
    /// column with at most one entry. `false` when a column fills two basis
    /// positions (a singular basis).
    fn canonical_order(&mut self) -> bool {
        let ranked = &self.sf.nnz_order;
        let split = ranked.partition_point(|&j| self.sf.cols[j as usize].nnz() <= 1);
        let (low, high) = ranked.split_at(split);
        let ws = &mut *self.ws;
        ws.order.clear();
        ws.order.extend(
            low.iter()
                .map(|&j| j as usize)
                .chain(self.art_base..self.total_cols)
                .chain(high.iter().map(|&j| j as usize))
                .filter_map(|j| match ws.state[j] {
                    ColState::Basic(r) => Some(r as usize),
                    _ => None,
                }),
        );
        ws.order.len() == self.m
    }

    /// Collapse the eta file into a fresh factorization of the current basis
    /// using the canonical column order. Returns `false` on a singular basis.
    fn refactorize(&mut self) -> bool {
        if !self.canonical_order() {
            return false;
        }
        let (sf, art_base) = (self.sf, self.art_base);
        let ws = &mut *self.ws;
        let (arts, basis) = ((&ws.art_rows, &ws.art_signs), &ws.basis);
        let col = |p: usize| working_column(sf, art_base, arts.0, arts.1, basis[p]);
        if !ws.basis_op.refactorize(&ws.order, col) {
            return false;
        }
        self.factorized = true;
        self.refactorizations += 1;
        true
    }

    /// `ws.w = B⁻¹ A_j` via the factorized operator (basis-position space).
    fn ftran_col(&mut self, j: usize) {
        assert!(self.factorized, "basis factorized before any ftran");
        let (sf, art_base) = (self.sf, self.art_base);
        let ws = &mut *self.ws;
        zero(&mut ws.input, self.m);
        let (rows, vals) = working_column(sf, art_base, &ws.art_rows, &ws.art_signs, j);
        for (&r, &a) in rows.iter().zip(vals) {
            ws.input[r as usize] = a;
        }
        ws.w.resize(self.m, 0.0);
        ws.basis_op.ftran(&mut ws.input, &mut ws.w);
    }

    /// `ws.y = c_Bᵀ B⁻¹` in original-row space.
    fn btran_costs(&mut self) {
        assert!(self.factorized, "basis factorized before any btran");
        let ws = &mut *self.ws;
        ws.input.clear();
        ws.input.extend(ws.basis.iter().map(|&j| ws.costs[j]));
        ws.y.resize(self.m, 0.0);
        ws.basis_op.btran(&mut ws.input, &mut ws.y);
    }

    /// `ws.rho`: row `r` of `B⁻¹` in original-row space (`ρ = B⁻ᵀ e_r`).
    fn binv_row(&mut self, r: usize) {
        assert!(self.factorized, "basis factorized before any btran");
        let ws = &mut *self.ws;
        zero(&mut ws.input, self.m);
        ws.input[r] = 1.0;
        ws.rho.resize(self.m, 0.0);
        ws.basis_op.btran(&mut ws.input, &mut ws.rho);
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
        match self.ws.state[j] {
            ColState::AtLower => self.col_lower(j),
            ColState::AtUpper => self.col_upper(j),
            ColState::FreeZero => 0.0,
            ColState::Basic(r) => self.ws.xb[r as usize],
        }
    }

    fn col_value(&self, j: usize) -> f64 {
        self.nonbasic_value(j)
    }

    /// Dot of a dense original-row-space vector with column `j`.
    fn col_dot(&self, y: &[f64], j: usize) -> f64 {
        if j >= self.art_base {
            let k = j - self.art_base;
            y[self.ws.art_rows[k] as usize] * self.ws.art_signs[k]
        } else {
            self.sf.cols[j].iter().map(|(r, a)| y[r] * a).sum()
        }
    }

    /// Whether pricing passes over column `j`: it is basic or fixed.
    fn unpriced(&self, j: usize) -> bool {
        matches!(self.ws.state[j], ColState::Basic(_)) || self.col_lower(j) >= self.col_upper(j)
    }

    /// Recompute the cached reduced costs `d_j = c_j − c_Bᵀ B⁻¹ A_j` of the
    /// columns pricing reads. An unpriced column keeps a stale entry, which
    /// `price_cached` never reads.
    fn recompute_reduced_costs(&mut self) {
        self.btran_costs();
        self.ws.dvec.resize(self.total_cols, 0.0);
        for j in 0..self.total_cols {
            if !self.unpriced(j) {
                self.ws.dvec[j] = self.ws.costs[j] - self.col_dot(&self.ws.y, j);
            }
        }
    }

    // ---- main loop ---------------------------------------------------------

    fn iterate(&mut self) -> Result<IterEnd, SolveError> {
        loop {
            if self.pivots >= MAX_LP_PIVOTS {
                return Err(engine_pivot_limit());
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
            self.ftran_col(j);
            match self.ratio_test(j, dir, bland) {
                RatioResult::Unbounded => return Ok(IterEnd::Unbounded),
                RatioResult::BoundFlip { t } => {
                    self.apply_bound_flip(j, dir, t);
                    self.pivots += 1;
                    self.degenerate_run = 0;
                }
                RatioResult::Pivot { row, t, hit } => {
                    let enter_val = self.nonbasic_value(j) + dir * t;
                    for (r, (xb, &wr)) in self.ws.xb.iter_mut().zip(&self.ws.w).enumerate() {
                        if r != row {
                            *xb -= dir * t * wr;
                        }
                    }
                    self.pivot(j, row, enter_val, hit)?;
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
            if self.unpriced(j) {
                continue;
            }
            let st = self.ws.state[j];
            let dj = self.ws.dvec[j];
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

    /// The ratio test for entering column `j` moving in direction `dir`,
    /// whose FTRAN image is `ws.w`.
    fn ratio_test(&self, j: usize, dir: f64, bland: bool) -> RatioResult {
        let w = &self.ws.w;
        let own_range = self.col_upper(j) - self.col_lower(j);
        let mut t_min = if own_range.is_finite() {
            own_range
        } else {
            f64::INFINITY
        };
        let mut choice: Option<(usize, f64, BoundHit)> = None;

        for r in 0..self.m {
            let rate = dir * w[r]; // xb[r] changes by -rate·t
            let bcol = self.ws.basis[r];
            if rate > PIVOT_TOL {
                let lb = self.col_lower(bcol);
                if lb.is_finite() {
                    let limit = ((self.ws.xb[r] - lb) / rate).max(0.0);
                    if self.better_ratio(limit, t_min, r, w, &choice, bland) {
                        t_min = limit;
                        choice = Some((r, limit, BoundHit::Lower));
                    }
                }
            } else if rate < -PIVOT_TOL {
                let ub = self.col_upper(bcol);
                if ub.is_finite() {
                    let limit = ((ub - self.ws.xb[r]) / -rate).max(0.0);
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
                    self.ws.basis[r] < self.ws.basis[*cr]
                } else {
                    w[r].abs() > w[*cr].abs()
                }
            }
        }
    }

    fn apply_bound_flip(&mut self, j: usize, dir: f64, t: f64) {
        for (xb, &wr) in self.ws.xb.iter_mut().zip(&self.ws.w) {
            *xb -= dir * t * wr;
        }
        self.ws.state[j] = match self.ws.state[j] {
            ColState::AtLower => ColState::AtUpper,
            ColState::AtUpper => ColState::AtLower,
            other => other, // free variables never bound-flip with finite t
        };
    }

    /// Commit a basis change: column `j`, whose FTRAN image is `ws.w`,
    /// enters at `row`. Update states and values, append the eta, and
    /// refactorize once the eta file reaches the rung's `refactor_every`.
    fn pivot(
        &mut self,
        j: usize,
        row: usize,
        enter_val: f64,
        hit: BoundHit,
    ) -> Result<(), SolveError> {
        assert!(self.factorized, "basis factorized before any pivot");
        let ws = &mut *self.ws;
        let leaving = ws.basis[row];
        ws.state[leaving] = match hit {
            BoundHit::Lower => ColState::AtLower,
            BoundHit::Upper => ColState::AtUpper,
        };
        ws.basis[row] = j;
        ws.state[j] = ColState::Basic(row as u32);
        ws.xb[row] = enter_val;

        ws.basis_op.push_eta(row, &ws.w);
        if ws.basis_op.num_etas() as u64 >= self.numerics.refactor_every {
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
        assert!(self.factorized, "basis factorized before refresh");
        let sf = self.sf;
        self.ws.input.clear();
        self.ws.input.extend_from_slice(&sf.rhs);
        for j in 0..self.total_cols {
            if matches!(self.ws.state[j], ColState::Basic(_)) {
                continue;
            }
            let x = self.nonbasic_value(j);
            if x != 0.0 {
                let ws = &mut *self.ws;
                if j >= self.art_base {
                    let k = j - self.art_base;
                    ws.input[ws.art_rows[k] as usize] -= ws.art_signs[k] * x;
                } else {
                    for (r, a) in sf.cols[j].iter() {
                        ws.input[r] -= a * x;
                    }
                }
            }
        }
        let ws = &mut *self.ws;
        ws.basis_op.ftran(&mut ws.input, &mut ws.xb);
    }

    fn extract_structural(&self) -> Vec<f64> {
        (0..self.sf.num_structural)
            .map(|j| self.sf.unscale_value(j, self.col_value(j)))
            .collect()
    }
}

/// The error of an LP that reached the engine's own pivot cap.
fn engine_pivot_limit() -> SolveError {
    SolveError::EngineLimit {
        what: "simplex pivots per LP",
        limit: MAX_LP_PIVOTS,
    }
}

/// Column `j` of the working matrix: a column of `sf` or, from `art_base`
/// on, the artificial column `art_base + k`, holding the single entry
/// `art_signs[k]` in row `art_rows[k]`.
fn working_column<'s>(
    sf: &'s StandardForm,
    art_base: usize,
    art_rows: &'s [u32],
    art_signs: &'s [f64],
    j: usize,
) -> (&'s [u32], &'s [f64]) {
    if j >= art_base {
        let k = j - art_base;
        (&art_rows[k..=k], &art_signs[k..=k])
    } else {
        let col = &sf.cols[j];
        (&col.rows, &col.vals)
    }
}

/// Make `v` a zero vector of length `n`.
fn zero(v: &mut Vec<f64>, n: usize) {
    v.clear();
    v.resize(n, 0.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cmp, Model, Sense};

    /// An engine with no deadline at rung 0 of the retry ladder, where
    /// every solve starts.
    fn engine<'a>(
        sf: &'a StandardForm,
        budget: &'a Budget,
        ws: &'a mut LpWorkspace,
    ) -> RevisedSimplex<'a> {
        RevisedSimplex::new(sf, budget, Numerics::at_rung(0), Deadline::unlimited(), ws)
    }

    fn lp(model: &Model) -> LpOutcome {
        let sf = StandardForm::build(model, None);
        engine(&sf, &Budget::unlimited(), &mut LpWorkspace::default())
            .solve()
            .expect("no iteration limit expected")
    }

    fn optimal_obj(model: &Model) -> f64 {
        let sf = StandardForm::build(model, None);
        let mut ws = LpWorkspace::default();
        match engine(&sf, &Budget::unlimited(), &mut ws).solve().unwrap() {
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
        let mut ws = LpWorkspace::default();
        let mut sx = RevisedSimplex::new(&sf, &budget, numerics, Deadline::unlimited(), &mut ws);
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
            let mut ws = LpWorkspace::default();
            let mut sx =
                RevisedSimplex::new(&sf, &budget, numerics, Deadline::unlimited(), &mut ws);
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
        let ws = &sx.ws;
        let col_nnz = |j: usize| {
            working_column(sx.sf, sx.art_base, &ws.art_rows, &ws.art_signs, j)
                .0
                .len()
        };
        let mut order: Vec<usize> = (0..sx.m).collect();
        order.sort_by_key(|&r| (col_nnz(ws.basis[r]), ws.basis[r]));
        order
    }

    /// The canonical order `refactorize` derives, or `None` for a singular
    /// basis.
    fn canonical(sx: &mut RevisedSimplex<'_>) -> Option<Vec<usize>> {
        sx.canonical_order().then(|| sx.ws.order.clone())
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
        let mut ws = LpWorkspace::default();
        let mut sx = engine(&sf, &budget, &mut ws);
        sx.init_phase1();
        assert_eq!(sx.ws.art_rows.len(), 2, "rows e and ge need artificials");
        assert_eq!(canonical(&mut sx), Some(sorted_order(&sx)));
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
            sx.ftran_col(j);
            let RatioResult::Pivot { row, t, hit } = sx.ratio_test(j, dir, false) else {
                break;
            };
            let enter_val = sx.nonbasic_value(j) + dir * t;
            sx.pivot(j, row, enter_val, hit).unwrap();
            assert_eq!(canonical(&mut sx), Some(sorted_order(&sx)));
            let basic =
                |range: std::ops::Range<usize>| sx.ws.basis.iter().any(|b| range.contains(b));
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
        let mut ws = LpWorkspace::default();
        let mut sx = engine(&sf, &budget, &mut ws);
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
        let mut ws = LpWorkspace::default();
        let mut warm = engine(&grown, &budget, &mut ws);
        assert!(warm.install(&remapped));
        assert_eq!(canonical(&mut warm), Some(sorted_order(&warm)));
    }

    #[test]
    fn the_engine_pivot_cap_is_an_engine_limit_cold_and_warm() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        m.add_constr("c1", x + y, Cmp::Le, 8.0).unwrap();
        m.add_constr("c2", 2.0 * x + y, Cmp::Le, 12.0).unwrap();
        m.set_objective(Sense::Maximize, 3.0 * x + 2.0 * y);
        let budget = Budget::unlimited();
        let sf = StandardForm::build(&m, None);
        let mut ws = LpWorkspace::default();
        let mut sx = engine(&sf, &budget, &mut ws);
        assert!(matches!(sx.solve().unwrap(), LpOutcome::Optimal { .. }));
        let snap = sx.snapshot().expect("clean basis");
        let capped = SolveError::EngineLimit {
            what: "simplex pivots per LP",
            limit: MAX_LP_PIVOTS,
        };

        let mut cold = engine(&sf, &budget, &mut ws);
        cold.pivots = MAX_LP_PIVOTS;
        assert_eq!(cold.solve().unwrap_err(), capped);
        let mut warm = engine(&sf, &budget, &mut ws);
        warm.pivots = MAX_LP_PIVOTS;
        assert_eq!(warm.solve_warm(&snap).unwrap_err(), capped);
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
        let mut ws = LpWorkspace::default();
        let mut sx = engine(&sf, &budget, &mut ws);
        let first = sx.solve().unwrap();
        let LpOutcome::Optimal { values, .. } = &first else {
            panic!("expected optimal, got {first:?}");
        };
        let x0 = values[0];
        let snap = sx.snapshot().expect("clean basis");

        // Tighten x's upper bound below its optimal value.
        let lbs: Vec<f64> = vec![0.0, 0.0];
        let ubs: Vec<f64> = vec![(x0 - 1.0).max(0.0), 10.0];
        let sf2 = sf.rebind(&lbs, &ubs, Default::default());
        let mut warm_ws = LpWorkspace::default();
        let mut warm_sx = engine(&sf2, &budget, &mut warm_ws);
        let warm = warm_sx
            .solve_warm(&snap)
            .unwrap()
            .expect("snapshot should install");
        let mut cold_ws = LpWorkspace::default();
        let mut cold_sx = engine(&sf2, &budget, &mut cold_ws);
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
