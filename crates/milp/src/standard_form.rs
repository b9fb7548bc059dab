//! Conversion of a [`Model`](crate::Model) into the equality standard form
//! consumed by the simplex method.
//!
//! Every constraint `aᵀx ⋛ b` becomes a row `aᵀx + s = b` with a slack
//! variable `s` whose bounds encode the comparison:
//!
//! * `≤` → `s ∈ [0, ∞)`
//! * `≥` → `s ∈ (-∞, 0]`
//! * `=` → `s ∈ [0, 0]`
//!
//! Columns are stored sparsely; the simplex only ever needs column access.

use crate::constraint::Cmp;
use crate::model::{Model, Sense};
use std::sync::Arc;

/// A sparse column: parallel row-index / value arrays.
#[derive(Debug, Clone, Default)]
pub(crate) struct SparseCol {
    pub rows: Vec<u32>,
    pub vals: Vec<f64>,
}

/// Geometric-mean row/column equilibration (two sweeps), rounded to powers
/// of two so the scaling itself introduces no rounding error. Returns the
/// per-column factors (`x = col_scale · x'`).
fn equilibrate(
    m: usize,
    cols: &mut [SparseCol],
    lower: &mut [f64],
    upper: &mut [f64],
    rhs: &mut [f64],
    obj: &mut [f64],
) -> Vec<f64> {
    let ncols = cols.len();
    let mut col_scale = vec![1.0_f64; ncols];
    if m == 0 {
        return col_scale;
    }
    let mut row_scale = vec![1.0_f64; m];
    for _ in 0..2 {
        // Row factors from the current scaled entries.
        let mut row_min = vec![f64::INFINITY; m];
        let mut row_max = vec![0.0_f64; m];
        for (j, col) in cols.iter().enumerate() {
            for (i, a) in col.iter() {
                let v = (a * row_scale[i] * col_scale[j]).abs();
                if v > 0.0 {
                    row_min[i] = row_min[i].min(v);
                    row_max[i] = row_max[i].max(v);
                }
            }
        }
        for i in 0..m {
            if row_max[i] > 0.0 {
                // Geometric mean of the row's current magnitudes → 1.
                let gm = (row_min[i] * row_max[i]).sqrt();
                if gm.is_finite() && gm > 0.0 {
                    row_scale[i] = pow2_round(row_scale[i] / gm);
                }
            }
        }
        // Column factors.
        for (j, col) in cols.iter().enumerate() {
            let mut lo = f64::INFINITY;
            let mut hi = 0.0_f64;
            for (i, a) in col.iter() {
                let v = (a * row_scale[i] * col_scale[j]).abs();
                if v > 0.0 {
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
            }
            if hi > 0.0 {
                let gm = (lo * hi).sqrt();
                if gm.is_finite() && gm > 0.0 {
                    col_scale[j] = pow2_round(col_scale[j] / gm);
                }
            }
        }
    }
    // Apply: A' = R·A·C, b' = R·b, bounds' = bounds / C, obj' = obj · C.
    for (j, col) in cols.iter_mut().enumerate() {
        for k in 0..col.rows.len() {
            let i = col.rows[k] as usize;
            col.vals[k] *= row_scale[i] * col_scale[j];
        }
    }
    for i in 0..m {
        rhs[i] *= row_scale[i];
    }
    for j in 0..ncols {
        // Infinite bounds stay infinite; finite ones scale.
        lower[j] /= col_scale[j];
        upper[j] /= col_scale[j];
        obj[j] *= col_scale[j];
    }
    col_scale
}

/// Round a positive factor to the nearest power of two, so multiplying by it
/// is exact in binary floating point.
fn pow2_round(x: f64) -> f64 {
    if !x.is_finite() || x <= 0.0 {
        return 1.0;
    }
    let exp = x.log2().round();
    // Clamp to a sane range to avoid overflow on pathological inputs.
    2.0_f64.powi(exp.clamp(-60.0, 60.0) as i32)
}

impl SparseCol {
    pub fn push(&mut self, row: usize, val: f64) {
        if val != 0.0 {
            self.rows.push(row as u32);
            self.vals.push(val);
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.rows
            .iter()
            .zip(&self.vals)
            .map(|(&r, &v)| (r as usize, v))
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.rows.len()
    }
}

/// Equality-form LP data: `minimize cᵀx  s.t.  A x = b,  l ≤ x ≤ u`.
///
/// Columns `0..num_structural` correspond 1:1 to model variables; columns
/// `num_structural..num_cols` are slacks (one per row, in row order).
///
/// The data is *equilibrated*: rows and columns are rescaled by
/// geometric-mean factors so coefficient magnitudes cluster around 1, which
/// keeps the simplex tolerances meaningful on badly scaled inputs. The
/// substitution is `x_j = col_scale[j] · x'_j`; [`StandardForm::unscale_value`]
/// maps solver values back to model space. Objective dot products are
/// scale-invariant (`obj` is scaled by the inverse factors), so objective
/// values need no correction.
#[derive(Debug, Clone)]
pub(crate) struct StandardForm {
    pub num_structural: usize,
    pub num_rows: usize,
    /// Shared column data: [`StandardForm::rebind`] clones the form with new
    /// bounds without copying the matrix.
    pub cols: Arc<Vec<SparseCol>>,
    /// Every column index, ascending by `(nnz, column index)`: the ranking
    /// the canonical factorization order is read from. Shared like `cols`.
    pub nnz_order: Arc<Vec<u32>>,
    pub lower: Vec<f64>,
    pub upper: Vec<f64>,
    pub rhs: Vec<f64>,
    /// Minimization costs per column (slacks have zero cost).
    pub obj: Vec<f64>,
    /// Constant to add to the minimized objective, *after* un-flipping the
    /// sense: `model_obj = sign * (min_obj) + offset` with `sign` below.
    pub obj_offset: f64,
    /// `+1` when the model minimizes, `-1` when it maximizes.
    pub obj_sign: f64,
    /// Per-column equilibration factor (`x = col_scale · x'`).
    pub col_scale: Vec<f64>,
}

impl StandardForm {
    /// Build the standard form of a model, optionally overriding variable
    /// bounds (used by branch-and-bound, which tightens integer bounds per
    /// node without mutating the shared model).
    pub fn build(model: &Model, bound_override: Option<(&[f64], &[f64])>) -> StandardForm {
        let n = model.num_vars();
        let m = model.num_constrs();
        let mut cols: Vec<SparseCol> = vec![SparseCol::default(); n + m];
        let mut lower = Vec::with_capacity(n + m);
        let mut upper = Vec::with_capacity(n + m);

        for (i, (_, def)) in model.vars().enumerate() {
            match bound_override {
                Some((lbs, ubs)) => {
                    lower.push(lbs[i]);
                    upper.push(ubs[i]);
                }
                None => {
                    lower.push(def.lb);
                    upper.push(def.ub);
                }
            }
        }

        let mut rhs = Vec::with_capacity(m);
        for (row, c) in model.constrs().enumerate() {
            for (v, coef) in c.expr.iter() {
                cols[v.index()].push(row, coef);
            }
            // Slack column for this row.
            let slack_col = n + row;
            cols[slack_col].push(row, 1.0);
            let (slb, sub) = match c.cmp {
                Cmp::Le => (0.0, f64::INFINITY),
                Cmp::Ge => (f64::NEG_INFINITY, 0.0),
                Cmp::Eq => (0.0, 0.0),
            };
            lower.push(slb);
            upper.push(sub);
            rhs.push(c.rhs - c.expr.constant());
        }

        let obj_sign = match model.sense() {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        let mut obj = vec![0.0; n + m];
        for (v, coef) in model.objective().iter() {
            obj[v.index()] = obj_sign * coef;
        }

        let col_scale = equilibrate(m, &mut cols, &mut lower, &mut upper, &mut rhs, &mut obj);
        let num_cols = u32::try_from(cols.len()).expect("column count fits in u32");
        let mut nnz_order: Vec<u32> = (0..num_cols).collect();
        nnz_order.sort_unstable_by_key(|&j| (cols[j as usize].nnz(), j));
        StandardForm {
            num_structural: n,
            num_rows: m,
            cols: Arc::new(cols),
            nnz_order: Arc::new(nnz_order),
            lower,
            upper,
            rhs,
            obj,
            obj_offset: model.objective().constant(),
            obj_sign,
            col_scale,
        }
    }

    /// Clone this form with new *structural* variable bounds (model space),
    /// sharing the (already equilibrated) matrix. This is what
    /// branch-and-bound uses per node: `O(n + m)` instead of rebuilding and
    /// re-equilibrating the whole matrix.
    pub fn rebind(&self, lbs: &[f64], ubs: &[f64]) -> StandardForm {
        let mut lower = self.lower.clone();
        let mut upper = self.upper.clone();
        for j in 0..self.num_structural {
            lower[j] = lbs[j] / self.col_scale[j];
            upper[j] = ubs[j] / self.col_scale[j];
        }
        StandardForm {
            num_structural: self.num_structural,
            num_rows: self.num_rows,
            cols: Arc::clone(&self.cols),
            nnz_order: Arc::clone(&self.nnz_order),
            lower,
            upper,
            rhs: self.rhs.clone(),
            obj: self.obj.clone(),
            obj_offset: self.obj_offset,
            obj_sign: self.obj_sign,
            col_scale: self.col_scale.clone(),
        }
    }

    /// Map a solver-space value of column `j` back to model space.
    pub fn unscale_value(&self, j: usize, v: f64) -> f64 {
        v * self.col_scale[j]
    }

    pub fn num_cols(&self) -> usize {
        self.cols.len()
    }

    /// Recover the model-sense objective value from the internal minimization
    /// value.
    pub fn model_objective(&self, min_obj: f64) -> f64 {
        self.obj_sign * min_obj + self.obj_offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cmp, Model, Sense};

    #[test]
    fn slack_bounds_match_cmp() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 10.0);
        m.add_constr("le", 1.0 * x, Cmp::Le, 5.0).unwrap();
        m.add_constr("ge", 1.0 * x, Cmp::Ge, 1.0).unwrap();
        m.add_constr("eq", 1.0 * x, Cmp::Eq, 2.0).unwrap();
        let sf = StandardForm::build(&m, None);
        assert_eq!(sf.num_structural, 1);
        assert_eq!(sf.num_rows, 3);
        assert_eq!(sf.num_cols(), 4);
        // slack of "le"
        assert_eq!((sf.lower[1], sf.upper[1]), (0.0, f64::INFINITY));
        // slack of "ge"
        assert_eq!((sf.lower[2], sf.upper[2]), (f64::NEG_INFINITY, 0.0));
        // slack of "eq"
        assert_eq!((sf.lower[3], sf.upper[3]), (0.0, 0.0));
        assert_eq!(sf.rhs, vec![5.0, 1.0, 2.0]);
    }

    #[test]
    fn maximization_flips_costs() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 10.0);
        m.set_objective(Sense::Maximize, 3.0 * x + 1.0);
        let sf = StandardForm::build(&m, None);
        assert_eq!(sf.obj[0], -3.0);
        // min value -30 (x = 10) maps back to max value 31.
        assert_eq!(sf.model_objective(-30.0), 31.0);
    }

    #[test]
    fn bound_override_replaces_model_bounds() {
        let mut m = Model::new("t");
        let _ = m.add_integer("n", 0.0, 10.0);
        let lbs = [2.0];
        let ubs = [3.0];
        let sf = StandardForm::build(&m, Some((&lbs, &ubs)));
        assert_eq!((sf.lower[0], sf.upper[0]), (2.0, 3.0));
    }

    #[test]
    fn nnz_order_ranks_columns_and_is_shared_by_rebind() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        let z = m.add_continuous("z", 0.0, 10.0);
        m.add_constr("a", x + y + z, Cmp::Le, 5.0).unwrap();
        m.add_constr("b", 1.0 * x + z, Cmp::Le, 4.0).unwrap();
        let sf = StandardForm::build(&m, None);
        // y and the two slacks hold one entry, x and z two: ties by index.
        assert_eq!(*sf.nnz_order, vec![1, 3, 4, 0, 2]);
        let child = sf.rebind(&[0.0, 1.0, 0.0], &[1.0, 1.0, 1.0]);
        assert!(Arc::ptr_eq(&child.nnz_order, &sf.nnz_order));
    }

    #[test]
    fn sparse_col_skips_zero() {
        let mut c = SparseCol::default();
        c.push(0, 0.0);
        c.push(1, 2.0);
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![(1, 2.0)]);
    }
}
