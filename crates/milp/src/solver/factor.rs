//! Sparse LU factorization of a simplex basis with product-form eta updates.
//!
//! The revised simplex never forms `B⁻¹` explicitly. Instead it keeps, in a
//! [`FactorizedBasis`],
//!
//! * an [`LuFactors`] — a left-looking sparse LU of the basis matrix, built
//!   with partial pivoting over a **canonical column order** (ascending
//!   column nonzero count, ties by column index), so the factorization is a
//!   pure function of the *set* of basic columns, never of the pivot history
//!   that produced it; and
//! * an eta file — one [`Eta`] per simplex pivot since the last
//!   refactorization, representing the basis change `B ← B·E` in product
//!   form.
//!
//! FTRAN (`Bx = b`) runs the LU solve then applies etas oldest-first; BTRAN
//! (`Bᵀy = c`) applies etas newest-first then runs the transposed LU solve.
//! The eta file is periodically collapsed into a fresh factorization
//! (refactorization), which both bounds solve cost and washes out
//! accumulated floating-point drift.
//!
//! # Cost
//!
//! Both kernels touch only nonzeros. [`LuFactors::build`] costs
//! O(nnz(L + U) + the rows each column touches), times a log factor for the
//! ordered reach set and the sort of each L and U column. It reads each
//! basis column in place, as the row and value slices of the standard form,
//! and stores L and U as one flat entry array each with per-step offsets.
//! The leading run of singleton columns on free rows (the slacks of a
//! canonical order) costs O(1) per column, and a later column's entries in
//! those rows go straight into U. An eta stores only the nonzeros of its
//! FTRAN image, in one flat array for the whole eta file, so applying it
//! costs O(nnz) too.
//!
//! Nothing here allocates once its buffers are at size. A refactorization
//! refills a spare [`LuFactors`] and the build's scratch, and swaps the
//! spare in only when the basis is nonsingular, so a singular build leaves
//! the operator as it was. FTRAN and BTRAN write into the caller's output
//! buffer and consume the caller's input as scratch. The operator lives in
//! a branch-and-bound solve's LP workspace, so the node LPs of one solve,
//! and the selections of a cut loop, reuse the same arrays.
//!
//! # Arithmetic
//!
//! The sparse kernels perform exactly the floating-point operations of the
//! dense loops they replaced, in the same order, minus terms that multiply
//! an exact zero. The build therefore yields the same factors bit for bit
//! (the tests keep the dense build as a reference and compare). A skipped
//! eta term `±0·t` can only change the sign of a zero FTRAN entry, which no
//! comparison and no nonzero result can see.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::mem;

/// One product-form update: basis position `pos` was replaced by a column
/// whose FTRAN image (through the basis *before* this update) is `w`.
#[derive(Debug, Clone, Copy)]
struct Eta {
    pos: usize,
    /// `w[pos]`, the pivot element.
    pivot: f64,
    /// Its entries are `EtaFile::entries[start..end]`: `(i, w[i])` for every
    /// `i ≠ pos` with `w[i] ≠ 0`, in ascending `i`.
    start: usize,
    end: usize,
}

/// The etas since the last refactorization, oldest first, with their
/// entries in one flat array.
#[derive(Debug, Clone, Default)]
struct EtaFile {
    etas: Vec<Eta>,
    entries: Vec<(usize, f64)>,
}

impl EtaFile {
    fn entries(&self, eta: &Eta) -> &[(usize, f64)] {
        &self.entries[eta.start..eta.end]
    }

    fn clear(&mut self) {
        self.etas.clear();
        self.entries.clear();
    }
}

/// Sparse LU factors of an `m × m` basis matrix, `P B Q = L U` with unit
/// lower-triangular `L`, stored column-wise in elimination-step order.
#[derive(Debug, Clone, Default)]
pub(crate) struct LuFactors {
    m: usize,
    /// `colorder[k]` = basis position whose column was pivotal at step `k`
    /// (the canonical processing order).
    colorder: Vec<usize>,
    /// `perm[k]` = original row index chosen as the pivot row at step `k`.
    perm: Vec<usize>,
    /// `L` multipliers of step `k` are `l_entries[l_start[k]..l_start[k + 1]]`:
    /// `(row, l)` entries below the diagonal, in original-row space, in
    /// ascending row order.
    l_start: Vec<usize>,
    l_entries: Vec<(usize, f64)>,
    /// `U` off-diagonal entries of step `k` are
    /// `u_entries[u_start[k]..u_start[k + 1]]`: `(t, u)` with `t < k`, in
    /// ascending `t`.
    u_start: Vec<usize>,
    u_entries: Vec<(usize, f64)>,
    udiag: Vec<f64>,
}

/// Pivot elements smaller than this make the basis numerically singular.
const SINGULAR_TOL: f64 = 1e-11;

/// `step_of_row` value of a row that is not yet pivotal.
const FREE: usize = usize::MAX;

/// Scratch of one column's elimination: the rows it touches and the
/// earlier steps those rows reach.
#[derive(Debug, Clone, Default)]
struct ColumnWork {
    /// Column values in original-row space; zero outside `touched`.
    values: Vec<f64>,
    /// Rows holding a value, each listed once.
    touched: Vec<usize>,
    is_touched: Vec<bool>,
    /// Steps whose pivot row was touched and that are not yet applied.
    reach: BinaryHeap<Reverse<usize>>,
}

impl ColumnWork {
    /// Empty scratch for columns of `m` rows. A build that fails part way
    /// leaves its last column's marks behind, so every build starts here.
    fn reset(&mut self, m: usize) {
        self.values.clear();
        self.values.resize(m, 0.0);
        self.touched.clear();
        self.is_touched.clear();
        self.is_touched.resize(m, false);
        self.reach.clear();
    }

    /// Note that row `r` now holds a value; if it is pivotal, its step
    /// joins the reach set.
    fn touch(&mut self, r: usize, step_of_row: &[usize]) {
        if !self.is_touched[r] {
            self.is_touched[r] = true;
            self.touched.push(r);
            if step_of_row[r] != FREE {
                self.reach.push(Reverse(step_of_row[r]));
            }
        }
    }

    /// Zero the touched rows for the next column.
    fn clear(&mut self) {
        for &r in &self.touched {
            self.values[r] = 0.0;
            self.is_touched[r] = false;
        }
        self.touched.clear();
    }
}

/// The scratch a build needs besides the factors it fills.
#[derive(Debug, Clone, Default)]
struct BuildScratch {
    /// `step_of_row[r] = k` once row `r` became pivotal at step `k`.
    step_of_row: Vec<usize>,
    work: ColumnWork,
    free_rows: Vec<usize>,
}

impl LuFactors {
    /// Refill these factors with a factorization of a basis. `order` is the
    /// canonical processing order, a permutation of the basis positions
    /// `0..m`; `col(p)` is the column at basis position `p` as parallel
    /// row-index and value slices in original-row space, rows ascending.
    /// Returns `false` when the matrix is singular, leaving the factors
    /// half built.
    fn build<'c>(
        &mut self,
        order: &[usize],
        col: impl Fn(usize) -> (&'c [u32], &'c [f64]),
        scratch: &mut BuildScratch,
    ) -> bool {
        let m = order.len();
        self.m = m;
        self.colorder.clear();
        self.colorder.extend_from_slice(order);
        self.perm.clear();
        self.l_start.clear();
        self.l_entries.clear();
        self.u_start.clear();
        self.u_entries.clear();
        self.udiag.clear();
        self.l_start.push(0);
        self.u_start.push(0);
        let BuildScratch {
            step_of_row,
            work,
            free_rows,
        } = scratch;
        step_of_row.clear();
        step_of_row.resize(m, FREE);
        work.reset(m);
        // The leading run of singleton columns on free rows: each column's
        // one entry is its pivot, with nothing to apply and nothing below it,
        // so the general step below would reject it exactly when `|a|` is
        // below `SINGULAR_TOL` or NaN, and otherwise produce empty L and U
        // columns.
        let mut prefix = 0;
        while prefix < m {
            let (rows, vals) = col(self.colorder[prefix]);
            let (&[r], &[a]) = (rows, vals) else {
                break;
            };
            let r = r as usize;
            if step_of_row[r] != FREE {
                break;
            }
            if a.abs() < SINGULAR_TOL || a.is_nan() {
                return false;
            }
            step_of_row[r] = prefix;
            self.perm.push(r);
            self.udiag.push(a);
            self.l_start.push(0);
            self.u_start.push(0);
            prefix += 1;
        }
        for k in prefix..m {
            // A row pivoted in the prefix never enters an L column (a prefix
            // step has none, and a later step's L holds only rows free at
            // that step), so no step changes its value: the column's entry
            // there is its U entry as it stands, and needs no touch and no
            // reach. Those steps precede every step the heap yields, so
            // sorting them first keeps U in ascending step order.
            let (rows, vals) = col(self.colorder[k]);
            let u_begin = self.u_entries.len();
            for (&r, &a) in rows.iter().zip(vals) {
                let r = r as usize;
                let t = step_of_row[r];
                if t < prefix {
                    if a != 0.0 {
                        self.u_entries.push((t, a));
                    }
                } else {
                    work.values[r] = a;
                    work.touch(r, step_of_row);
                }
            }
            self.u_entries[u_begin..].sort_unstable_by_key(|&(t, _)| t);
            // Left-looking update: apply earlier elimination steps in
            // ascending order, harvesting the U entries as we go. Only a
            // step whose pivot row holds a value can apply. Step t touches
            // the rows of its L column; those that are pivotal became so
            // after t, so the heap yields every step a dense
            // `for t in 0..k` (the tests' reference build) would apply, in
            // the same order, and each row receives the same subtractions
            // in the same order.
            while let Some(Reverse(t)) = work.reach.pop() {
                let u = work.values[self.perm[t]];
                if u != 0.0 {
                    self.u_entries.push((t, u));
                    for &(r, l) in &self.l_entries[self.l_start[t]..self.l_start[t + 1]] {
                        work.values[r] -= l * u;
                        work.touch(r, step_of_row);
                    }
                }
            }
            // Partial pivoting among the touched rows not yet pivotal (every
            // other free row holds zero); ties break toward the smallest
            // row index (deterministic). Ascending rows also give the L
            // column the order `solve_transposed` sums in.
            free_rows.clear();
            free_rows.extend(
                work.touched
                    .iter()
                    .copied()
                    .filter(|&r| step_of_row[r] == FREE),
            );
            free_rows.sort_unstable();
            let mut pivot_row = usize::MAX;
            let mut pivot_abs = 0.0_f64;
            for &r in free_rows.iter() {
                if work.values[r].abs() > pivot_abs {
                    pivot_abs = work.values[r].abs();
                    pivot_row = r;
                }
            }
            if pivot_abs < SINGULAR_TOL {
                return false;
            }
            let d = work.values[pivot_row];
            self.l_entries.extend(
                free_rows
                    .iter()
                    .filter(|&&r| r != pivot_row && work.values[r] != 0.0)
                    .map(|&r| (r, work.values[r] / d)),
            );
            step_of_row[pivot_row] = k;
            self.perm.push(pivot_row);
            self.udiag.push(d);
            self.l_start.push(self.l_entries.len());
            self.u_start.push(self.u_entries.len());
            work.clear();
        }
        true
    }

    /// `L` multipliers of step `k`: `(row, l)`, rows ascending.
    fn l_col(&self, k: usize) -> &[(usize, f64)] {
        &self.l_entries[self.l_start[k]..self.l_start[k + 1]]
    }

    /// `U` off-diagonal entries of step `k`: `(t, u)`, steps ascending.
    fn u_col(&self, k: usize) -> &[(usize, f64)] {
        &self.u_entries[self.u_start[k]..self.u_start[k + 1]]
    }

    /// Solve `B x = b`: input in original-row space, output indexed by basis
    /// position. `z` is scratch of length `m`. Every position of `z` and
    /// `out` is written before it is read, so neither needs clearing.
    fn solve(&self, b: &mut [f64], z: &mut [f64], out: &mut [f64]) {
        // Forward: L z = P b, in step order.
        for k in 0..self.m {
            let zk = b[self.perm[k]];
            z[k] = zk;
            if zk != 0.0 {
                for &(r, l) in self.l_col(k) {
                    b[r] -= l * zk;
                }
            }
        }
        // Backward: U x = z, in reverse step order; x lands at the basis
        // position pivotal at each step.
        for k in (0..self.m).rev() {
            let xk = z[k] / self.udiag[k];
            out[self.colorder[k]] = xk;
            if xk != 0.0 {
                for &(t, u) in self.u_col(k) {
                    z[t] -= u * xk;
                }
            }
        }
    }

    /// Solve `Bᵀ y = c`: input indexed by basis position, output in
    /// original-row space. `v` is scratch of length `m`. Every position of
    /// `v` and `out` is written before it is read.
    fn solve_transposed(&self, c: &[f64], v: &mut [f64], out: &mut [f64]) {
        // Forward: Uᵀ v = d with d_k = c[colorder[k]], in step order.
        for k in 0..self.m {
            let mut d = c[self.colorder[k]];
            for &(t, u) in self.u_col(k) {
                d -= u * v[t];
            }
            v[k] = d / self.udiag[k];
        }
        // Backward: Lᵀ y = v, in reverse step order. Rows appearing in
        // step k's L column are pivotal at later steps, so their `y` is
        // known.
        for k in (0..self.m).rev() {
            let mut yk = v[k];
            for &(r, l) in self.l_col(k) {
                yk -= l * out[r];
            }
            out[self.perm[k]] = yk;
        }
    }

    /// Fill every array, to its capacity, with values no build leaves;
    /// returns how many entries that wrote.
    #[cfg(test)]
    fn poison(&mut self) -> usize {
        self.m = usize::MAX;
        let indices: usize = [
            &mut self.colorder,
            &mut self.perm,
            &mut self.l_start,
            &mut self.u_start,
        ]
        .into_iter()
        .map(|v| poison(v, usize::MAX))
        .sum();
        indices
            + poison(&mut self.l_entries, (usize::MAX, f64::NAN))
            + poison(&mut self.u_entries, (usize::MAX, f64::NAN))
            + poison(&mut self.udiag, f64::NAN)
    }
}

/// Fill `v` to its capacity with `x`; returns its new length.
#[cfg(test)]
pub(crate) fn poison<T: Clone>(v: &mut Vec<T>, x: T) -> usize {
    v.clear();
    v.resize(v.capacity(), x);
    v.len()
}

/// A factorized basis plus its eta file: the complete `B⁻¹` operator of the
/// revised simplex between two refactorizations, with every buffer its
/// refactorizations and solves reuse. An empty one (the default) holds no
/// operator until its first [`refactorize`](FactorizedBasis::refactorize).
#[derive(Debug, Clone, Default)]
pub(crate) struct FactorizedBasis {
    factor: LuFactors,
    /// The factors the next refactorization fills, swapped in when it
    /// succeeds.
    spare: LuFactors,
    build: BuildScratch,
    etas: EtaFile,
    /// Scratch of the LU solves.
    scratch: Vec<f64>,
}

impl FactorizedBasis {
    /// Factorize a basis, as [`LuFactors`] describes its `order` and `col`,
    /// and empty the eta file. Returns `false` on a singular basis, leaving
    /// the operator as it was.
    pub(crate) fn refactorize<'c>(
        &mut self,
        order: &[usize],
        col: impl Fn(usize) -> (&'c [u32], &'c [f64]),
    ) -> bool {
        if !self.spare.build(order, col, &mut self.build) {
            return false;
        }
        mem::swap(&mut self.factor, &mut self.spare);
        self.etas.clear();
        self.scratch.resize(order.len(), 0.0);
        true
    }

    /// Etas accumulated since the factorization was built.
    pub(crate) fn num_etas(&self) -> usize {
        self.etas.etas.len()
    }

    /// Record a pivot: basis position `pos` replaced by the column whose
    /// current FTRAN image is `w`.
    pub(crate) fn push_eta(&mut self, pos: usize, w: &[f64]) {
        let start = self.etas.entries.len();
        self.etas.entries.extend(
            w.iter()
                .enumerate()
                .filter(|&(i, &wi)| i != pos && wi != 0.0)
                .map(|(i, &wi)| (i, wi)),
        );
        self.etas.etas.push(Eta {
            pos,
            pivot: w[pos],
            start,
            end: self.etas.entries.len(),
        });
    }

    /// FTRAN: `out = B⁻¹ b`, input in original-row space, output indexed by
    /// basis position. Consumes `b` as scratch; writes every position of
    /// `out`. Both have length `m`.
    pub(crate) fn ftran(&mut self, b: &mut [f64], out: &mut [f64]) {
        self.factor.solve(b, &mut self.scratch, out);
        for eta in &self.etas.etas {
            let t = out[eta.pos] / eta.pivot;
            for &(i, wi) in self.etas.entries(eta) {
                out[i] -= wi * t;
            }
            out[eta.pos] = t;
        }
    }

    /// BTRAN: `out = B⁻ᵀ c`, input indexed by basis position, output in
    /// original-row space. Consumes `c` as scratch; writes every position of
    /// `out`. Both have length `m`.
    pub(crate) fn btran(&mut self, c: &mut [f64], out: &mut [f64]) {
        for eta in self.etas.etas.iter().rev() {
            let mut dot = 0.0;
            for &(i, wi) in self.etas.entries(eta) {
                dot += c[i] * wi;
            }
            c[eta.pos] = (c[eta.pos] - dot) / eta.pivot;
        }
        self.factor.solve_transposed(c, &mut self.scratch, out);
    }

    /// Fill every buffer, the current and the spare factors included, to
    /// its capacity with values no solve leaves; returns how many entries
    /// that wrote.
    #[cfg(test)]
    pub(crate) fn poison(&mut self) -> usize {
        let BuildScratch {
            step_of_row,
            work,
            free_rows,
        } = &mut self.build;
        while work.reach.len() < work.reach.capacity() {
            work.reach.push(Reverse(usize::MAX));
        }
        let eta = Eta {
            pos: usize::MAX,
            pivot: f64::NAN,
            start: usize::MAX,
            end: usize::MAX,
        };
        self.factor.poison()
            + self.spare.poison()
            + poison(step_of_row, usize::MAX)
            + poison(free_rows, usize::MAX)
            + poison(&mut work.values, f64::NAN)
            + poison(&mut work.touched, usize::MAX)
            + poison(&mut work.is_touched, true)
            + work.reach.len()
            + poison(&mut self.etas.etas, eta)
            + poison(&mut self.etas.entries, (usize::MAX, f64::NAN))
            + poison(&mut self.scratch, f64::NAN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::ops::RangeInclusive;

    fn dense_cols(mat: &[&[f64]]) -> Vec<Vec<(usize, f64)>> {
        let m = mat.len();
        (0..m)
            .map(|c| {
                (0..m)
                    .filter(|&r| mat[r][c] != 0.0)
                    .map(|r| (r, mat[r][c]))
                    .collect()
            })
            .collect()
    }

    /// Columns given as `(row, value)` lists, as parallel row and value
    /// arrays.
    fn split(cols: &[Vec<(usize, f64)>]) -> Vec<(Vec<u32>, Vec<f64>)> {
        cols.iter()
            .map(|col| col.iter().map(|&(r, a)| (r as u32, a)).unzip())
            .collect()
    }

    /// `LuFactors::build` into fresh factors.
    fn build(cols: &[Vec<(usize, f64)>], order: &[usize]) -> Option<LuFactors> {
        let split = split(cols);
        let mut f = LuFactors::default();
        f.build(
            order,
            |p| (&split[p].0, &split[p].1),
            &mut BuildScratch::default(),
        )
        .then_some(f)
    }

    /// The operator of factors `f` with an empty eta file.
    fn operator(f: LuFactors) -> FactorizedBasis {
        FactorizedBasis {
            scratch: vec![0.0; f.m],
            factor: f,
            ..FactorizedBasis::default()
        }
    }

    /// `B⁻¹ b` into a fresh vector.
    fn ftran(op: &mut FactorizedBasis, mut b: Vec<f64>) -> Vec<f64> {
        let mut out = vec![0.0; b.len()];
        op.ftran(&mut b, &mut out);
        out
    }

    /// `B⁻ᵀ c` into a fresh vector.
    fn btran(op: &mut FactorizedBasis, mut c: Vec<f64>) -> Vec<f64> {
        let mut out = vec![0.0; c.len()];
        op.btran(&mut c, &mut out);
        out
    }

    fn mat_vec(mat: &[&[f64]], x: &[f64]) -> Vec<f64> {
        mat.iter()
            .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    fn mat_t_vec(mat: &[&[f64]], y: &[f64]) -> Vec<f64> {
        let m = mat.len();
        (0..m)
            .map(|c| (0..m).map(|r| mat[r][c] * y[r]).sum())
            .collect()
    }

    #[test]
    fn ftran_btran_roundtrip_dense_matrix() {
        let mat: Vec<&[f64]> = vec![
            &[2.0, 1.0, 0.0, 0.5],
            &[0.0, 3.0, 1.0, 0.0],
            &[1.0, 0.0, -1.0, 2.0],
            &[0.0, 4.0, 0.0, 1.0],
        ];
        let cols = dense_cols(&mat);
        let order = vec![2, 0, 3, 1]; // arbitrary canonical order
        let f = build(&cols, &order).expect("nonsingular");
        let mut basis = operator(f);

        // FTRAN: solve B x = b, check B x == b.
        let b = vec![1.0, -2.0, 0.5, 3.0];
        let x = ftran(&mut basis, b.clone());
        let back = mat_vec(&mat, &x);
        for (got, want) in back.iter().zip(&b) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }

        // BTRAN: solve Bᵀ y = c, check Bᵀ y == c.
        let c = vec![0.5, 1.0, -1.0, 2.0];
        let y = btran(&mut basis, c.clone());
        let back = mat_t_vec(&mat, &y);
        for (got, want) in back.iter().zip(&c) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
    }

    #[test]
    fn singular_matrix_rejected() {
        let mat: Vec<&[f64]> = vec![&[1.0, 2.0], &[2.0, 4.0]];
        let cols = dense_cols(&mat);
        assert!(build(&cols, &[0, 1]).is_none());
    }

    #[test]
    fn eta_updates_match_refactorization() {
        // Start from the identity, pivot a new column into position 1, and
        // compare the eta path against factorizing the updated basis.
        let m = 3;
        let id_cols: Vec<Vec<(usize, f64)>> = (0..m).map(|r| vec![(r, 1.0)]).collect();
        let order: Vec<usize> = (0..m).collect();
        let f = build(&id_cols, &order).unwrap();
        let mut basis = operator(f);

        // New column a = (1, 2, 1)ᵀ enters position 1: w = B⁻¹ a = a.
        let a = vec![1.0, 2.0, 1.0];
        let w = ftran(&mut basis, a.clone());
        basis.push_eta(1, &w);

        // Updated basis matrix: columns e0, a, e2.
        let mat: Vec<&[f64]> = vec![&[1.0, 1.0, 0.0], &[0.0, 2.0, 0.0], &[0.0, 1.0, 1.0]];
        let b = vec![3.0, 4.0, 5.0];
        let x = ftran(&mut basis, b.clone());
        let back = mat_vec(&mat, &x);
        for (got, want) in back.iter().zip(&b) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
        let c = vec![1.0, -1.0, 0.5];
        let y = btran(&mut basis, c.clone());
        let back = mat_t_vec(&mat, &y);
        for (got, want) in back.iter().zip(&c) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }

        // Refactorizing the updated basis gives the same operator.
        let upd_cols = dense_cols(&mat);
        let f2 = build(&upd_cols, &order).unwrap();
        let x2 = ftran(&mut operator(f2), b);
        for (a, b) in x.iter().zip(&x2) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn canonical_order_is_history_independent() {
        // Two different processing orders of the same basis represent the
        // same operator (solutions agree to fp tolerance), but the canonical
        // order contract is that callers always pass the same one for the
        // same basis set — build() must be deterministic in (cols, order).
        let mat: Vec<&[f64]> = vec![&[4.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 2.0]];
        let cols = dense_cols(&mat);
        let f1 = build(&cols, &[0, 1, 2]).unwrap();
        let f2 = build(&cols, &[0, 1, 2]).unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let x1 = ftran(&mut operator(f1), b.clone());
        let x2 = ftran(&mut operator(f2), b);
        assert_eq!(x1, x2, "identical inputs must give bit-identical solves");
    }

    // ---- differential check against the dense kernels ---------------------

    /// Factors as the dense build stores them: one `Vec` per step.
    struct DenseFactors {
        m: usize,
        colorder: Vec<usize>,
        perm: Vec<usize>,
        l_cols: Vec<Vec<(usize, f64)>>,
        u_cols: Vec<Vec<(usize, f64)>>,
        udiag: Vec<f64>,
    }

    /// The dense left-looking build that `LuFactors::build` replaced, kept
    /// verbatim: the bitwise reference for the sparse build.
    fn dense_build(m: usize, cols: &[Vec<(usize, f64)>], order: &[usize]) -> Option<DenseFactors> {
        debug_assert_eq!(cols.len(), m);
        debug_assert_eq!(order.len(), m);
        let mut f = DenseFactors {
            m,
            colorder: order.to_vec(),
            perm: Vec::with_capacity(m),
            l_cols: Vec::with_capacity(m),
            u_cols: Vec::with_capacity(m),
            udiag: Vec::with_capacity(m),
        };
        // step_of_row[r] = Some(k) once row r became pivotal at step k.
        let mut step_of_row: Vec<Option<usize>> = vec![None; m];
        let mut work = vec![0.0_f64; m];
        for k in 0..m {
            let col = &cols[f.colorder[k]];
            for &(r, a) in col {
                work[r] = a;
            }
            // Left-looking update: apply earlier elimination steps in order,
            // harvesting the U entries as we go.
            let mut u_col = Vec::new();
            for t in 0..k {
                let u = work[f.perm[t]];
                if u != 0.0 {
                    u_col.push((t, u));
                    for &(r, l) in &f.l_cols[t] {
                        work[r] -= l * u;
                    }
                }
            }
            // Partial pivoting among rows not yet pivotal; ties break toward
            // the smallest row index (deterministic).
            let mut pivot_row = usize::MAX;
            let mut pivot_abs = 0.0_f64;
            for (r, s) in step_of_row.iter().enumerate() {
                if s.is_none() && work[r].abs() > pivot_abs {
                    pivot_abs = work[r].abs();
                    pivot_row = r;
                }
            }
            if pivot_abs < SINGULAR_TOL {
                return None;
            }
            let d = work[pivot_row];
            let mut l_col = Vec::new();
            for (r, s) in step_of_row.iter().enumerate() {
                if s.is_none() && r != pivot_row && work[r] != 0.0 {
                    l_col.push((r, work[r] / d));
                }
            }
            step_of_row[pivot_row] = Some(k);
            f.perm.push(pivot_row);
            f.udiag.push(d);
            f.u_cols.push(u_col);
            f.l_cols.push(l_col);
            // Reset touched entries for the next column.
            work.fill(0.0);
        }
        Some(f)
    }

    /// A dense eta: the whole FTRAN image `w`.
    struct DenseEta {
        pos: usize,
        w: Vec<f64>,
    }

    /// The dense eta file that `FactorizedBasis` replaced, its loops kept
    /// verbatim: the reference for the sparse etas.
    struct DenseBasis {
        factor: LuFactors,
        etas: Vec<DenseEta>,
        scratch: Vec<f64>,
    }

    impl DenseBasis {
        fn new(factor: LuFactors) -> Self {
            let m = factor.m;
            DenseBasis {
                factor,
                etas: Vec::new(),
                scratch: vec![0.0; m],
            }
        }

        fn push_eta(&mut self, pos: usize, w: Vec<f64>) {
            self.etas.push(DenseEta { pos, w });
        }

        fn ftran(&mut self, mut b: Vec<f64>) -> Vec<f64> {
            let m = self.factor.m;
            let mut out = vec![0.0; m];
            self.factor.solve(&mut b, &mut self.scratch, &mut out);
            for eta in &self.etas {
                let wp = eta.w[eta.pos];
                let t = out[eta.pos] / wp;
                for (i, (x, &wi)) in out.iter_mut().zip(&eta.w).enumerate() {
                    if i != eta.pos {
                        *x -= wi * t;
                    }
                }
                out[eta.pos] = t;
            }
            out
        }

        fn btran(&mut self, mut c: Vec<f64>) -> Vec<f64> {
            for eta in self.etas.iter().rev() {
                let mut dot = 0.0;
                for (i, (&ci, &wi)) in c.iter().zip(&eta.w).enumerate() {
                    if i != eta.pos {
                        dot += ci * wi;
                    }
                }
                c[eta.pos] = (c[eta.pos] - dot) / eta.w[eta.pos];
            }
            let m = self.factor.m;
            let mut out = vec![0.0; m];
            self.factor
                .solve_transposed(&c, &mut self.scratch, &mut out);
            out
        }
    }

    /// The shapes of basis the differential check draws.
    #[derive(Debug, Clone, Copy)]
    enum Shape {
        /// Unit slack columns plus a few structural columns whose entries
        /// crowd into a handful of dense, cut-like rows.
        SlackHeavy,
        /// Every entry nonzero.
        Dense,
        /// Small dyadic entries and near-copies of earlier columns, so
        /// elimination cancels entries to exactly zero.
        Cancelling,
        /// Entries `±1` only: every pivot search meets exact ties.
        Ties,
        /// Columns that nearly repeat an earlier one: pivots around and
        /// below `SINGULAR_TOL`, and exactly singular bases.
        NearSingular,
    }

    const SHAPES: [Shape; 5] = [
        Shape::SlackHeavy,
        Shape::Dense,
        Shape::Cancelling,
        Shape::Ties,
        Shape::NearSingular,
    ];

    fn dyadic(rng: &mut StdRng) -> f64 {
        let v = [0.5, 1.0, 2.0, 4.0][rng.random_range(0..4usize)];
        if rng.random_bool(0.5) {
            -v
        } else {
            v
        }
    }

    fn generic(rng: &mut StdRng) -> f64 {
        let v: f64 = rng.random_range(0.05..2.0);
        if rng.random_bool(0.5) {
            -v
        } else {
            v
        }
    }

    /// Between `count.start()` and `count.end()` distinct rows of `0..m`,
    /// ascending.
    fn distinct_rows(rng: &mut StdRng, m: usize, count: RangeInclusive<usize>) -> Vec<usize> {
        let count = rng.random_range(count);
        let mut rows: Vec<usize> = (0..m).collect();
        shuffle(rng, &mut rows);
        rows.truncate(count.min(m));
        rows.sort_unstable();
        rows
    }

    fn shuffle(rng: &mut StdRng, v: &mut [usize]) {
        for i in (1..v.len()).rev() {
            v.swap(i, rng.random_range(0..=i));
        }
    }

    /// A near-copy of `base`: same rows, values scaled by `scale`, plus
    /// `delta` at `row`.
    fn perturbed(base: &[(usize, f64)], scale: f64, row: usize, delta: f64) -> Vec<(usize, f64)> {
        let mut col: Vec<(usize, f64)> = base.iter().map(|&(r, a)| (r, a * scale)).collect();
        match col.iter_mut().find(|(r, _)| *r == row) {
            Some((_, a)) => *a += delta,
            None => col.push((row, delta)),
        }
        col.retain(|&(_, a)| a != 0.0);
        col.sort_unstable_by_key(|&(r, _)| r);
        col
    }

    fn unit_sign(rng: &mut StdRng) -> f64 {
        if rng.random_bool(0.5) {
            -1.0
        } else {
            1.0
        }
    }

    /// A column holding `own_row` (a basis whose columns own distinct rows
    /// is structurally nonsingular) and `extra` further random rows, each
    /// valued by `value`.
    fn sparse_col(
        rng: &mut StdRng,
        m: usize,
        own_row: usize,
        extra: RangeInclusive<usize>,
        value: fn(&mut StdRng) -> f64,
    ) -> Vec<(usize, f64)> {
        let mut rows = distinct_rows(rng, m, extra);
        rows.push(own_row);
        rows.sort_unstable();
        rows.dedup();
        rows.into_iter().map(|r| (r, value(rng))).collect()
    }

    fn random_basis(rng: &mut StdRng, shape: Shape) -> Vec<Vec<(usize, f64)>> {
        let m = rng.random_range(1..=60usize);
        let mut own: Vec<usize> = (0..m).collect();
        shuffle(rng, &mut own);
        match shape {
            Shape::SlackHeavy => {
                let slacks = m - rng.random_range(0..=m.div_ceil(3));
                let cut_rows = distinct_rows(rng, m, 1..=4);
                let mut cols: Vec<Vec<(usize, f64)>> =
                    own[..slacks].iter().map(|&r| vec![(r, 1.0)]).collect();
                for &r in &own[slacks..] {
                    let mut col = sparse_col(rng, m, r, 0..=2, generic);
                    for &c in &cut_rows {
                        if rng.random_bool(0.7) && col.iter().all(|&(r, _)| r != c) {
                            col.push((c, generic(rng)));
                        }
                    }
                    col.sort_unstable_by_key(|&(r, _)| r);
                    cols.push(col);
                }
                cols
            }
            Shape::Dense => (0..m)
                .map(|_| (0..m).map(|r| (r, generic(rng))).collect())
                .collect(),
            Shape::Cancelling => {
                let mut cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
                for &r in &own {
                    let col = if !cols.is_empty() && rng.random_bool(0.5) {
                        let base = cols[rng.random_range(0..cols.len())].clone();
                        perturbed(&base, dyadic(rng), r, dyadic(rng))
                    } else {
                        sparse_col(rng, m, r, 0..=3, dyadic)
                    };
                    cols.push(col);
                }
                cols
            }
            Shape::Ties => own
                .iter()
                .map(|&r| sparse_col(rng, m, r, 1..=5, unit_sign))
                .collect(),
            Shape::NearSingular => {
                let mut cols: Vec<Vec<(usize, f64)>> = own
                    .iter()
                    .map(|&r| sparse_col(rng, m, r, 0..=4, generic))
                    .collect();
                for _ in 0..rng.random_range(1..=2usize) {
                    let (src, dst) = (rng.random_range(0..m), rng.random_range(0..m));
                    let delta = [0.0, 1e-13, 5e-12, 2e-11, 1e-9][rng.random_range(0..5usize)];
                    cols[dst] = perturbed(&cols[src], 1.0, own[dst], delta);
                }
                cols
            }
        }
    }

    /// The canonical order `refactorize` uses (ascending nonzero count, then
    /// position) or, half the time, a random permutation.
    fn random_order(rng: &mut StdRng, cols: &[Vec<(usize, f64)>]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..cols.len()).collect();
        if rng.random_bool(0.5) {
            order.sort_by_key(|&p| (cols[p].len(), p));
        } else {
            shuffle(rng, &mut order);
        }
        order
    }

    fn entry_bits(col: &[(usize, f64)]) -> Vec<(usize, u64)> {
        col.iter().map(|&(i, x)| (i, x.to_bits())).collect()
    }

    fn assert_same_factors(got: &LuFactors, want: &DenseFactors, case: &str) {
        assert_eq!(got.m, want.m, "{case}: m");
        assert_eq!(got.colorder, want.colorder, "{case}: colorder");
        assert_eq!(got.perm, want.perm, "{case}: perm");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.udiag), bits(&want.udiag), "{case}: udiag");
        for k in 0..got.m {
            assert_eq!(
                entry_bits(got.l_col(k)),
                entry_bits(&want.l_cols[k]),
                "{case}: l_cols[{k}]"
            );
            assert_eq!(
                entry_bits(got.u_col(k)),
                entry_bits(&want.u_cols[k]),
                "{case}: u_cols[{k}]"
            );
        }
    }

    /// Panic unless two factorizations agree bit for bit.
    fn assert_same_lu(got: &LuFactors, want: &LuFactors, case: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(got.m, want.m, "{case}: reused m");
        assert_eq!(got.colorder, want.colorder, "{case}: reused colorder");
        assert_eq!(got.perm, want.perm, "{case}: reused perm");
        assert_eq!(got.l_start, want.l_start, "{case}: reused l_start");
        assert_eq!(got.u_start, want.u_start, "{case}: reused u_start");
        assert_eq!(
            entry_bits(&got.l_entries),
            entry_bits(&want.l_entries),
            "{case}: reused L"
        );
        assert_eq!(
            entry_bits(&got.u_entries),
            entry_bits(&want.u_entries),
            "{case}: reused U"
        );
        assert_eq!(bits(&got.udiag), bits(&want.udiag), "{case}: reused udiag");
    }

    /// Entries that elimination cancelled to exactly zero: rows a column
    /// touches (its own nonzeros plus the L rows of every step applied to
    /// it) that end up neither in U, nor the pivot, nor L.
    fn exact_cancellations(f: &LuFactors, cols: &[Vec<(usize, f64)>]) -> usize {
        (0..f.m)
            .map(|k| {
                let mut rows: Vec<usize> = cols[f.colorder[k]].iter().map(|&(r, _)| r).collect();
                for &(t, _) in f.u_col(k) {
                    rows.extend(f.l_col(t).iter().map(|&(r, _)| r));
                }
                rows.sort_unstable();
                rows.dedup();
                rows.len() - (f.u_col(k).len() + 1 + f.l_col(k).len())
            })
            .sum()
    }

    /// A vector of length `m`: dense, sparse with exact zeros, or a unit
    /// vector.
    fn random_vector(rng: &mut StdRng, m: usize) -> Vec<f64> {
        match rng.random_range(0..3usize) {
            0 => (0..m).map(|_| generic(rng)).collect(),
            1 => (0..m)
                .map(|_| {
                    if rng.random_bool(0.2) {
                        generic(rng)
                    } else {
                        0.0
                    }
                })
                .collect(),
            _ => {
                let mut e = vec![0.0; m];
                e[rng.random_range(0..m)] = 1.0;
                e
            }
        }
    }

    /// Drive up to 64 pivots through the sparse and the dense eta files and
    /// require equal FTRAN and BTRAN results throughout.
    fn check_etas(rng: &mut StdRng, f: LuFactors, case: &str) {
        let m = f.m;
        let mut dense = DenseBasis::new(f.clone());
        let mut sparse = operator(f);
        for step in 0..rng.random_range(1..=64usize) {
            let entering = random_vector(rng, m);
            let w = ftran(&mut sparse, entering.clone());
            assert_eq!(w, dense.ftran(entering), "{case}: entering FTRAN {step}");
            let mut pos = 0;
            for i in 1..m {
                if w[i].abs() > w[pos].abs() {
                    pos = i;
                }
            }
            if w[pos].abs() <= 1e-9 {
                continue;
            }
            sparse.push_eta(pos, &w);
            dense.push_eta(pos, w);
            let b = random_vector(rng, m);
            assert_eq!(
                ftran(&mut sparse, b.clone()),
                dense.ftran(b),
                "{case}: FTRAN {step}"
            );
            let c = random_vector(rng, m);
            assert_eq!(
                btran(&mut sparse, c.clone()),
                dense.btran(c),
                "{case}: BTRAN {step}"
            );
        }
    }

    /// Build with the flat and the dense kernels and require the same
    /// verdict and, when nonsingular, the same factors bit for bit.
    fn assert_builds_agree(
        cols: &[Vec<(usize, f64)>],
        order: &[usize],
        case: &str,
    ) -> Option<LuFactors> {
        let got = build(cols, order);
        match (&got, dense_build(cols.len(), cols, order)) {
            (None, None) => {}
            (Some(got), Some(want)) => assert_same_factors(got, &want, case),
            (got, want) => panic!(
                "{case}: flat build nonsingular: {}, dense build nonsingular: {}",
                got.is_some(),
                want.is_some()
            ),
        }
        got
    }

    /// Columns after the singleton prefix whose U holds both a prefix step
    /// and a later one.
    fn mixed_columns(f: &LuFactors, cols: &[Vec<(usize, f64)>]) -> usize {
        let prefix = (0..f.m)
            .take_while(|&k| cols[f.colorder[k]].len() == 1)
            .count();
        (prefix..f.m)
            .filter(|&k| {
                let u = f.u_col(k);
                u.iter().any(|&(t, _)| t < prefix) && u.iter().any(|&(t, _)| t >= prefix)
            })
            .count()
    }

    #[test]
    fn sparse_factorization_matches_dense_reference_bitwise() {
        let mut singular = 0;
        let mut cancelled = 0;
        let mut mixed = 0;
        // One operator refactorized for every case, its buffers poisoned
        // first: what earlier builds leave in them must not matter.
        let mut reused = FactorizedBasis::default();
        for shape in SHAPES {
            for seed in 0..40u64 {
                let case = format!("{shape:?} seed {seed}");
                let mut rng = StdRng::seed_from_u64(seed * 31 + shape as u64);
                let cols = random_basis(&mut rng, shape);
                let order = random_order(&mut rng, &cols);
                let split = split(&cols);
                reused.poison();
                let reused_ok = reused.refactorize(&order, |p| (&split[p].0, &split[p].1));
                let fresh = assert_builds_agree(&cols, &order, &case);
                assert_eq!(reused_ok, fresh.is_some(), "{case}: reused verdict");
                if let Some(fresh) = &fresh {
                    assert_same_lu(&reused.factor, fresh, &case);
                }
                match fresh {
                    None => singular += 1,
                    Some(got) => {
                        cancelled += exact_cancellations(&got, &cols);
                        mixed += mixed_columns(&got, &cols);
                        check_etas(&mut rng, got, &case);
                    }
                }
            }
        }
        // The seeds must reach both verdicts, the exact-zero paths, and
        // columns that meet both the singleton prefix and later steps.
        assert!(singular >= 10, "only {singular} singular bases");
        assert!(cancelled >= 10, "only {cancelled} exact cancellations");
        assert!(mixed >= 10, "only {mixed} columns past the prefix mix");
    }

    #[test]
    fn two_singletons_on_one_row_are_singular() {
        // Rows 0 and 1; both columns hold row 0 only.
        let cols = vec![vec![(0, 1.0)], vec![(0, 2.0)]];
        for order in [[0, 1], [1, 0]] {
            assert!(assert_builds_agree(&cols, &order, "two singletons").is_none());
        }
    }

    #[test]
    fn singleton_pivots_are_rejected_as_the_general_path_rejects_them() {
        let values = [
            SINGULAR_TOL / 2.0,
            -SINGULAR_TOL / 2.0,
            0.0,
            f64::NAN,
            SINGULAR_TOL,
            -SINGULAR_TOL,
            1.0,
        ];
        for a in values {
            let nonsingular = a.abs() >= SINGULAR_TOL;
            // After a unit slack, the singleton is in the leading prefix.
            let in_prefix = vec![vec![(0, 1.0)], vec![(1, a)]];
            let got = assert_builds_agree(&in_prefix, &[0, 1], &format!("prefix {a}"));
            assert_eq!(got.is_some(), nonsingular, "prefix singleton {a}");
            // After a two-entry column, the general path takes it.
            let after = vec![vec![(0, 1.0), (2, 1.0)], vec![(1, a)], vec![(2, 1.0)]];
            let got = assert_builds_agree(&after, &[0, 1, 2], &format!("general {a}"));
            assert_eq!(got.is_some(), nonsingular, "general singleton {a}");
        }
    }

    #[test]
    fn column_reaching_prefix_and_structural_steps_keeps_u_in_step_order() {
        // Steps 0 and 1 are the slacks of rows 3 and 0 (the prefix). Step 2
        // holds rows 1 and 2 and prefix row 3; it pivots on row 1 and leaves
        // an L entry in row 2. Step 3 holds prefix rows 0 and 3 (in row order
        // their steps are 1, 0), row 1 of step 2, and row 2, which step 2
        // updates.
        let cols = vec![
            vec![(3, 1.0)],
            vec![(0, 1.0)],
            vec![(1, 2.0), (2, 1.0), (3, 0.5)],
            vec![(0, 3.0), (1, 1.0), (2, 4.0), (3, -1.0)],
        ];
        let f = assert_builds_agree(&cols, &[0, 1, 2, 3], "mixed column").expect("nonsingular");
        let u: Vec<(usize, f64)> = f.u_col(3).to_vec();
        assert_eq!(u, vec![(0, -1.0), (1, 3.0), (2, 1.0)]);
        assert_eq!(f.udiag[3], 3.5);
    }
}
