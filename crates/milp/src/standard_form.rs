//! Conversion of a [`Model`] into the equality standard form
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
//!
//! A [`RecordedForm`] keeps what the equilibration computed, so the form of
//! a model grown by appended rows and columns (the exploration cut loop) can
//! be extended instead of rebuilt whenever that gives the rebuild's result
//! bit for bit.
//!
//! Every build and every extension gives its form a fresh identity, which
//! [`StandardForm::rebind`] keeps: the LP engine keys what it computed from
//! a form's matrix and costs by it.

use crate::constraint::Cmp;
use crate::model::{Model, Sense};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The identity the next built or extended form takes. Identities start at
/// 1, so no form has identity 0.
static NEXT_FORM_ID: AtomicU64 = AtomicU64::new(1);

/// A sparse column: parallel row-index / value arrays.
#[derive(Debug, Clone, Default)]
pub(crate) struct SparseCol {
    pub rows: Vec<u32>,
    pub vals: Vec<f64>,
}

/// Smallest nonzero and largest entry magnitude of a row or column, under
/// the factors of one equilibration pass.
#[derive(Debug, Clone, Copy)]
struct Extremes {
    lo: f64,
    hi: f64,
}

impl Extremes {
    const NONE: Extremes = Extremes {
        lo: f64::INFINITY,
        hi: 0.0,
    };

    /// Take in entry `a` under row factor `r` and column factor `c`.
    fn add(&mut self, a: f64, r: f64, c: f64) {
        let v = (a * r * c).abs();
        if v > 0.0 {
            self.lo = self.lo.min(v);
            self.hi = self.hi.max(v);
        }
    }

    /// `scale` over the geometric mean of the extremes, rounded to a power
    /// of two: the factor that moves that mean to 1. `scale` itself when no
    /// entry was taken in.
    fn factor(self, scale: f64) -> f64 {
        if self.hi > 0.0 {
            let gm = (self.lo * self.hi).sqrt();
            if gm.is_finite() && gm > 0.0 {
                return pow2_round(scale / gm);
            }
        }
        scale
    }
}

/// What the two equilibration sweeps computed besides the final column
/// factors: enough to scale appended rows and columns as a rebuild would,
/// and to tell when they would move an existing factor.
#[derive(Debug, Clone, Default)]
struct Equilibration {
    /// Row factors after the first sweep.
    row1: Vec<f64>,
    /// Row factors after the second sweep: the final ones.
    row2: Vec<f64>,
    /// Per column: the extremes of the first sweep's column pass and the
    /// factor it set.
    col1: Vec<(Extremes, f64)>,
    /// Per column: the extremes of the second sweep's column pass, which set
    /// the final factor.
    ext2: Vec<Extremes>,
}

/// Geometric-mean row/column equilibration (two sweeps), rounded to powers
/// of two so the scaling itself introduces no rounding error. Returns the
/// per-column factors (`x = col_scale · x'`) and the sweeps' record.
fn equilibrate(m: usize, cols: &[SparseCol]) -> (Vec<f64>, Equilibration) {
    let ncols = cols.len();
    let mut col_scale = vec![1.0_f64; ncols];
    let mut row_scale = vec![1.0_f64; m];
    let mut eq = Equilibration::default();
    for sweep in 0..2 {
        // Row factors from the current scaled entries.
        let mut row_ext = vec![Extremes::NONE; m];
        for (j, col) in cols.iter().enumerate() {
            for (i, a) in col.iter() {
                row_ext[i].add(a, row_scale[i], col_scale[j]);
            }
        }
        for (scale, ext) in row_scale.iter_mut().zip(&row_ext) {
            // Geometric mean of the row's current magnitudes → 1.
            *scale = ext.factor(*scale);
        }
        // Column factors.
        let mut col_ext = Vec::with_capacity(ncols);
        for (j, col) in cols.iter().enumerate() {
            let mut ext = Extremes::NONE;
            for (i, a) in col.iter() {
                ext.add(a, row_scale[i], col_scale[j]);
            }
            col_scale[j] = ext.factor(col_scale[j]);
            col_ext.push(ext);
        }
        if sweep == 0 {
            eq.row1.clone_from(&row_scale);
            eq.col1 = col_ext.into_iter().zip(col_scale.iter().copied()).collect();
        } else {
            eq.ext2 = col_ext;
        }
    }
    eq.row2 = row_scale;
    (col_scale, eq)
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
        self.push_scaled(row, val, 1.0);
    }

    /// Store entry `val` of `row` multiplied by `scale`; a zero `val` is not
    /// stored, whatever `scale` is.
    fn push_scaled(&mut self, row: usize, val: f64, scale: f64) {
        if val != 0.0 {
            self.rows.push(row as u32);
            self.vals.push(val * scale);
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

/// Every column index, ascending by `(nnz, column index)`: a counting sort
/// on nnz that keeps column order within ties, in O(columns + largest nnz).
fn nnz_order(cols: &[SparseCol]) -> Vec<u32> {
    let max_nnz = cols.iter().map(SparseCol::nnz).max().unwrap_or(0);
    // `next[d]`: the next free position for a column of nnz `d`.
    let mut next = vec![0u32; max_nnz + 1];
    for col in cols {
        if col.nnz() < max_nnz {
            next[col.nnz() + 1] += 1;
        }
    }
    for d in 1..next.len() {
        next[d] += next[d - 1];
    }
    let mut order = vec![0u32; cols.len()];
    for (j, col) in cols.iter().enumerate() {
        let slot = &mut next[col.nnz()];
        order[*slot as usize] = u32::try_from(j).expect("column count fits in u32");
        *slot += 1;
    }
    order
}

/// Slack bounds that encode comparison `cmp`.
fn slack_bounds(cmp: Cmp) -> (f64, f64) {
    match cmp {
        Cmp::Le => (0.0, f64::INFINITY),
        Cmp::Ge => (f64::NEG_INFINITY, 0.0),
        Cmp::Eq => (0.0, 0.0),
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
    /// Bounds per column: the only data a rebound form does not share.
    pub lower: Vec<f64>,
    pub upper: Vec<f64>,
    /// Shared like `cols`.
    pub rhs: Arc<Vec<f64>>,
    /// Minimization costs per column (slacks have zero cost). Shared like
    /// `cols`.
    pub obj: Arc<Vec<f64>>,
    /// Constant to add to the minimized objective, *after* un-flipping the
    /// sense: `model_obj = sign * (min_obj) + offset` with `sign` below.
    pub obj_offset: f64,
    /// `+1` when the model minimizes, `-1` when it maximizes.
    pub obj_sign: f64,
    /// Per-column equilibration factor (`x = col_scale · x'`). Shared like
    /// `cols`.
    pub col_scale: Arc<Vec<f64>>,
    /// Fresh for every build and extension, kept by
    /// [`StandardForm::rebind`]: two forms with one identity have the same
    /// columns, right-hand sides and costs. It is a counter, not an address,
    /// since an extension may reuse its predecessor's allocations.
    pub id: u64,
}

impl StandardForm {
    /// The form [`RecordedForm::build`] builds, without its record.
    #[cfg(test)]
    pub fn build(model: &Model, bound_override: Option<(&[f64], &[f64])>) -> StandardForm {
        RecordedForm::build(model, bound_override).sf
    }

    /// The form around equilibrated columns `cols` with row factors
    /// `row_scale` and column factors `col_scale`: bounds, right-hand sides
    /// and costs from `model`, scaled, and the columns ranked.
    fn assemble(
        model: &Model,
        bound_override: Option<(&[f64], &[f64])>,
        cols: Vec<SparseCol>,
        row_scale: &[f64],
        col_scale: Vec<f64>,
    ) -> StandardForm {
        let n = model.num_vars();
        let m = model.num_constrs();
        // bounds' = bounds / C (infinite bounds stay infinite), b' = R·b,
        // obj' = obj · C.
        let mut lower = Vec::with_capacity(n + m);
        let mut upper = Vec::with_capacity(n + m);
        for (j, (_, def)) in model.vars().enumerate() {
            let (lb, ub) = match bound_override {
                Some((lbs, ubs)) => (lbs[j], ubs[j]),
                None => (def.lb, def.ub),
            };
            lower.push(lb / col_scale[j]);
            upper.push(ub / col_scale[j]);
        }
        let mut rhs = Vec::with_capacity(m);
        for (row, c) in model.constrs().enumerate() {
            let (slb, sub) = slack_bounds(c.cmp);
            lower.push(slb / col_scale[n + row]);
            upper.push(sub / col_scale[n + row]);
            rhs.push((c.rhs - c.expr.constant()) * row_scale[row]);
        }

        let obj_sign = match model.sense() {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        let mut obj = vec![0.0; n + m];
        for (v, coef) in model.objective().iter() {
            obj[v.index()] = obj_sign * coef;
        }
        for (o, c) in obj.iter_mut().zip(&col_scale) {
            *o *= c;
        }

        StandardForm {
            num_structural: n,
            num_rows: m,
            nnz_order: Arc::new(nnz_order(&cols)),
            cols: Arc::new(cols),
            lower,
            upper,
            rhs: Arc::new(rhs),
            obj: Arc::new(obj),
            obj_offset: model.objective().constant(),
            obj_sign,
            col_scale: Arc::new(col_scale),
            id: NEXT_FORM_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// This form with new *structural* variable bounds (model space),
    /// sharing everything else, the equilibrated matrix included. This is
    /// what branch-and-bound uses per node: `O(n + m)` instead of
    /// rebuilding and re-equilibrating the whole matrix. The bounds are
    /// written into `bounds`, a pair of vectors whose contents do not
    /// matter, so that a caller who hands them back
    /// ([`StandardForm::into_bounds`]) allocates nothing per node.
    pub fn rebind(&self, lbs: &[f64], ubs: &[f64], bounds: (Vec<f64>, Vec<f64>)) -> StandardForm {
        let (mut lower, mut upper) = bounds;
        lower.clone_from(&self.lower);
        upper.clone_from(&self.upper);
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
            rhs: Arc::clone(&self.rhs),
            obj: Arc::clone(&self.obj),
            obj_offset: self.obj_offset,
            obj_sign: self.obj_sign,
            col_scale: Arc::clone(&self.col_scale),
            id: self.id,
        }
    }

    /// The bound vectors, for the next [`StandardForm::rebind`].
    pub fn into_bounds(self) -> (Vec<f64>, Vec<f64>) {
        (self.lower, self.upper)
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

/// A [`StandardForm`] with the record of its equilibration, which
/// [`RecordedForm::extend`] grows with the model.
#[derive(Debug, Clone)]
pub(crate) struct RecordedForm {
    pub sf: StandardForm,
    eq: Equilibration,
}

impl RecordedForm {
    /// Build the standard form of a model, optionally overriding variable
    /// bounds (used by branch-and-bound, which tightens integer bounds per
    /// node without mutating the shared model), keeping the equilibration's
    /// record.
    pub fn build(model: &Model, bound_override: Option<(&[f64], &[f64])>) -> RecordedForm {
        let n = model.num_vars();
        let m = model.num_constrs();
        let mut cols: Vec<SparseCol> = vec![SparseCol::default(); n + m];
        for (row, c) in model.constrs().enumerate() {
            for (v, coef) in c.expr.iter() {
                cols[v.index()].push(row, coef);
            }
            // Slack column for this row.
            cols[n + row].push(row, 1.0);
        }
        let (col_scale, eq) = equilibrate(m, &cols);
        // A' = R·A·C.
        for (j, col) in cols.iter_mut().enumerate() {
            for (&i, val) in col.rows.iter().zip(col.vals.iter_mut()) {
                *val *= eq.row2[i as usize] * col_scale[j];
            }
        }
        let sf = StandardForm::assemble(model, bound_override, cols, &eq.row2, col_scale);
        RecordedForm { sf, eq }
    }

    /// The form of `model` with structural bounds `lbs`/`ubs`, where `model`
    /// is the model this form was built for with variables and constraints
    /// appended since. Bit for bit what [`RecordedForm::build`] gives; `None`
    /// when that needs a rebuild.
    ///
    /// The rows the form has keep their entries, so their first-sweep
    /// factors stand. A column's factors move only if appended entries move
    /// its geometric mean across a rounding boundary: the first sweep's
    /// extremes are merged with the appended entries under the appended
    /// rows' first-sweep factors, and if every touched column keeps its
    /// first-sweep factor, the old rows keep their second-sweep factors
    /// too; the same check on the second sweep's extremes then leaves every
    /// existing factor, and so every existing entry, as the rebuild has it.
    /// The appended rows and columns get their factors from the same
    /// formulas, in the same order, as in [`equilibrate`]. `None` when an
    /// appended entry changes an existing column's factor in either sweep.
    pub fn extend(self, model: &Model, lbs: &[f64], ubs: &[f64]) -> Option<RecordedForm> {
        let RecordedForm { sf, mut eq } = self;
        let (n0, m0) = (sf.num_structural, sf.num_rows);
        let n = model.num_vars();
        let appended = || model.constrs().skip(m0);
        let num_appended = model.num_constrs() - m0;

        // First sweep, rows: from each appended row's own entries, its
        // slack's 1 among them.
        let mut row1 = Vec::with_capacity(num_appended);
        for c in appended() {
            let mut ext = Extremes::NONE;
            for (_, a) in c.expr.iter() {
                ext.add(a, 1.0, 1.0);
            }
            ext.add(1.0, 1.0, 1.0);
            row1.push(ext.factor(1.0));
        }
        // First sweep, columns. Appended structurals have entries in
        // appended rows only.
        let mut new_col1 = vec![(Extremes::NONE, 1.0); n - n0];
        let mut touched = Vec::new();
        for (c, &r1) in appended().zip(&row1) {
            for (v, a) in c.expr.iter() {
                let j = v.index();
                if j < n0 {
                    eq.col1[j].0.add(a, r1, 1.0);
                    touched.push(j);
                } else {
                    new_col1[j - n0].0.add(a, r1, 1.0);
                }
            }
        }
        if touched
            .iter()
            .any(|&j| eq.col1[j].0.factor(1.0) != eq.col1[j].1)
        {
            return None;
        }
        for (ext, factor) in &mut new_col1 {
            *factor = ext.factor(1.0);
        }
        let slack_col1: Vec<(Extremes, f64)> = row1
            .iter()
            .map(|&r1| {
                let mut ext = Extremes::NONE;
                ext.add(1.0, r1, 1.0);
                (ext, ext.factor(1.0))
            })
            .collect();
        let col1 = |j: usize| {
            if j < n0 {
                eq.col1[j].1
            } else {
                new_col1[j - n0].1
            }
        };

        // Second sweep, rows.
        let mut row2 = Vec::with_capacity(num_appended);
        for ((c, &r1), &(_, slack1)) in appended().zip(&row1).zip(&slack_col1) {
            let mut ext = Extremes::NONE;
            for (v, a) in c.expr.iter() {
                ext.add(a, r1, col1(v.index()));
            }
            ext.add(1.0, r1, slack1);
            row2.push(ext.factor(r1));
        }
        // Second sweep, columns.
        let mut new_ext2 = vec![Extremes::NONE; n - n0];
        for (c, &r2) in appended().zip(&row2) {
            for (v, a) in c.expr.iter() {
                let j = v.index();
                if j < n0 {
                    eq.ext2[j].add(a, r2, eq.col1[j].1);
                } else {
                    new_ext2[j - n0].add(a, r2, new_col1[j - n0].1);
                }
            }
        }
        if touched
            .iter()
            .any(|&j| eq.ext2[j].factor(eq.col1[j].1) != sf.col_scale[j])
        {
            return None;
        }
        let slack_ext2: Vec<Extremes> = row2
            .iter()
            .zip(&slack_col1)
            .map(|(&r2, &(_, slack1))| {
                let mut ext = Extremes::NONE;
                ext.add(1.0, r2, slack1);
                ext
            })
            .collect();

        // Final column factors: appended structurals go before the slacks.
        let mut col_scale = Arc::unwrap_or_clone(sf.col_scale);
        col_scale.splice(
            n0..n0,
            new_ext2
                .iter()
                .zip(&new_col1)
                .map(|(ext, &(_, c1))| ext.factor(c1)),
        );
        col_scale.extend(
            slack_ext2
                .iter()
                .zip(&slack_col1)
                .map(|(ext, &(_, c1))| ext.factor(c1)),
        );

        // A' = R·A·C for the appended entries, each column's in row order.
        let mut cols = Arc::unwrap_or_clone(sf.cols);
        cols.splice(n0..n0, (n0..n).map(|_| SparseCol::default()));
        for (r, (c, &r2)) in appended().zip(&row2).enumerate() {
            let row = m0 + r;
            for (v, a) in c.expr.iter() {
                let j = v.index();
                cols[j].push_scaled(row, a, r2 * col_scale[j]);
            }
            let mut slack = SparseCol::default();
            slack.push_scaled(row, 1.0, r2 * col_scale[n + row]);
            cols.push(slack);
        }

        eq.row1.extend(row1);
        eq.row2.extend(row2);
        eq.col1.splice(n0..n0, new_col1);
        eq.col1.extend(slack_col1);
        eq.ext2.splice(n0..n0, new_ext2);
        eq.ext2.extend(slack_ext2);
        let sf = StandardForm::assemble(model, Some((lbs, ubs)), cols, &eq.row2, col_scale);
        Some(RecordedForm { sf, eq })
    }

    /// Panic unless `self` and `want` agree bit for bit in every field of
    /// the form and of the equilibration record.
    #[cfg(test)]
    pub(crate) fn assert_bit_identical(&self, want: &RecordedForm, context: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let ext_bits = |v: &[Extremes]| {
            v.iter()
                .map(|e| (e.lo.to_bits(), e.hi.to_bits()))
                .collect::<Vec<_>>()
        };
        let (got_sf, want_sf) = (&self.sf, &want.sf);
        assert_eq!(
            got_sf.num_structural, want_sf.num_structural,
            "{context}: structurals"
        );
        assert_eq!(got_sf.num_rows, want_sf.num_rows, "{context}: rows");
        assert_eq!(got_sf.cols.len(), want_sf.cols.len(), "{context}: columns");
        for (j, (got, want)) in got_sf.cols.iter().zip(want_sf.cols.iter()).enumerate() {
            assert_eq!(got.rows, want.rows, "{context}: rows of column {j}");
            assert_eq!(
                bits(&got.vals),
                bits(&want.vals),
                "{context}: entries of column {j}"
            );
        }
        assert_eq!(got_sf.nnz_order, want_sf.nnz_order, "{context}: nnz order");
        assert_eq!(
            bits(&got_sf.lower),
            bits(&want_sf.lower),
            "{context}: lower"
        );
        assert_eq!(
            bits(&got_sf.upper),
            bits(&want_sf.upper),
            "{context}: upper"
        );
        assert_eq!(bits(&got_sf.rhs), bits(&want_sf.rhs), "{context}: rhs");
        assert_eq!(bits(&got_sf.obj), bits(&want_sf.obj), "{context}: obj");
        assert_eq!(
            got_sf.obj_offset.to_bits(),
            want_sf.obj_offset.to_bits(),
            "{context}: objective offset"
        );
        assert_eq!(
            got_sf.obj_sign.to_bits(),
            want_sf.obj_sign.to_bits(),
            "{context}: objective sign"
        );
        assert_eq!(
            bits(&got_sf.col_scale),
            bits(&want_sf.col_scale),
            "{context}: col_scale"
        );
        let (got, want) = (&self.eq, &want.eq);
        assert_eq!(
            bits(&got.row1),
            bits(&want.row1),
            "{context}: first-sweep rows"
        );
        assert_eq!(
            bits(&got.row2),
            bits(&want.row2),
            "{context}: second-sweep rows"
        );
        let split =
            |v: &[(Extremes, f64)]| -> (Vec<Extremes>, Vec<f64>) { v.iter().copied().unzip() };
        let ((got_ext1, got_col1), (want_ext1, want_col1)) = (split(&got.col1), split(&want.col1));
        assert_eq!(
            ext_bits(&got_ext1),
            ext_bits(&want_ext1),
            "{context}: first-sweep extremes"
        );
        assert_eq!(
            bits(&got_col1),
            bits(&want_col1),
            "{context}: first-sweep columns"
        );
        assert_eq!(
            ext_bits(&got.ext2),
            ext_bits(&want.ext2),
            "{context}: second-sweep extremes"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cmp, Model, Sense, VarId};

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
        assert_eq!(*sf.rhs, vec![5.0, 1.0, 2.0]);
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
        let child = sf.rebind(&[0.0, 1.0, 0.0], &[1.0, 1.0, 1.0], Default::default());
        assert_eq!(child.id, sf.id, "a rebound form keeps its identity");
        assert!(Arc::ptr_eq(&child.nnz_order, &sf.nnz_order));
        assert!(Arc::ptr_eq(&child.rhs, &sf.rhs));
        assert!(Arc::ptr_eq(&child.obj, &sf.obj));
        assert!(Arc::ptr_eq(&child.col_scale, &sf.col_scale));
    }

    #[test]
    fn nnz_order_counting_sort_matches_the_sort() {
        // Seeded column sets with ties, empty columns and one long column.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for case in 0..200 {
            let ncols = next(40) as usize;
            let cols: Vec<SparseCol> = (0..ncols)
                .map(|_| {
                    let nnz = if next(10) == 0 { next(60) } else { next(4) };
                    let mut col = SparseCol::default();
                    for r in 0..nnz as usize {
                        col.push(r, 1.0);
                    }
                    col
                })
                .collect();
            let mut want: Vec<u32> = (0..ncols as u32).collect();
            want.sort_unstable_by_key(|&j| (cols[j as usize].nnz(), j));
            assert_eq!(nnz_order(&cols), want, "case {case}");
        }
    }

    /// `x, y ∈ [0, 10]` under `x + y ≤ 4` and `x − 2y ≥ −6`.
    fn two_var_model() -> Model {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        m.add_constr("a", x + y, Cmp::Le, 4.0).unwrap();
        m.add_constr("b", x - 2.0 * y, Cmp::Ge, -6.0).unwrap();
        m.set_objective(Sense::Maximize, x + 3.0 * y);
        m
    }

    fn bounds(m: &Model) -> (Vec<f64>, Vec<f64>) {
        m.vars().map(|(_, d)| (d.lb, d.ub)).unzip()
    }

    #[test]
    fn extension_by_rows_and_columns_equals_the_build() {
        let mut m = two_var_model();
        let form = RecordedForm::build(&m, None);
        let (x, y) = (VarId::from_index(0), VarId::from_index(1));
        // An auxiliary binary and two cut rows, one of them on it.
        let z = m.add_binary("z");
        m.add_constr("cut0", x + y + z, Cmp::Le, 3.0).unwrap();
        m.add_constr("cut1", 1.0 * y - 2.0 * z, Cmp::Ge, -1.0)
            .unwrap();
        let (lbs, ubs) = bounds(&m);
        let id = form.sf.id;
        let grown = form.extend(&m, &lbs, &ubs).expect("no factor moves");
        let rebuilt = RecordedForm::build(&m, Some((&lbs, &ubs)));
        grown.assert_bit_identical(&rebuilt, "grown");
        // Equal forms, yet each build and extension is a form of its own.
        assert!(id != grown.sf.id && grown.sf.id != rebuilt.sf.id);
        // The slacks moved behind the new structural.
        assert_eq!(grown.sf.num_structural, 3);
        assert_eq!(grown.sf.cols[3].rows, vec![0]);
    }

    #[test]
    fn an_entry_that_moves_a_column_factor_asks_for_a_rebuild() {
        let mut m = two_var_model();
        let form = RecordedForm::build(&m, None);
        // x's entries are all ±1; an entry of 1000 moves its geometric mean
        // by more than a factor of two in the first sweep.
        let x = VarId::from_index(0);
        m.add_constr("big", 1000.0 * x, Cmp::Le, 5000.0).unwrap();
        let (lbs, ubs) = bounds(&m);
        assert!(form.extend(&m, &lbs, &ubs).is_none());
    }

    #[test]
    fn sparse_col_skips_zero() {
        let mut c = SparseCol::default();
        c.push(0, 0.0);
        c.push(1, 2.0);
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![(1, 2.0)]);
    }
}
