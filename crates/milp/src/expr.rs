//! Linear expressions over decision variables.

use crate::var::VarId;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// A linear expression `Σ cᵢ·xᵢ + k`.
///
/// Expressions are built with ordinary arithmetic operators on [`VarId`]s,
/// `f64`s, and other expressions:
///
/// ```rust
/// use contrarc_milp::{LinExpr, Model};
/// let mut m = Model::new("ex");
/// let x = m.add_continuous("x", 0.0, 10.0);
/// let y = m.add_continuous("y", 0.0, 10.0);
/// let e: LinExpr = 2.0 * x - y + 3.0;
/// assert_eq!(e.coeff(x), 2.0);
/// assert_eq!(e.coeff(y), -1.0);
/// assert_eq!(e.constant(), 3.0);
/// ```
///
/// Terms with duplicate variables are merged and zero-coefficient terms are
/// dropped eagerly, so the representation is canonical: two expressions are
/// `==` iff they denote the same linear function.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LinExpr {
    terms: BTreeMap<VarId, f64>,
    constant: f64,
}

impl LinExpr {
    /// The zero expression.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A constant expression with no variable terms.
    #[must_use]
    pub fn constant_expr(k: f64) -> Self {
        LinExpr {
            terms: BTreeMap::new(),
            constant: k,
        }
    }

    /// The expression `1·v`.
    #[must_use]
    pub fn var(v: VarId) -> Self {
        LinExpr::term(v, 1.0)
    }

    /// The expression `c·v`.
    #[must_use]
    pub fn term(v: VarId, c: f64) -> Self {
        let mut terms = BTreeMap::new();
        if c != 0.0 {
            terms.insert(v, c);
        }
        LinExpr {
            terms,
            constant: 0.0,
        }
    }

    /// Sum of `1·v` over an iterator of variables.
    ///
    /// ```rust
    /// use contrarc_milp::{LinExpr, Model};
    /// let mut m = Model::new("ex");
    /// let vars: Vec<_> = (0..3).map(|i| m.add_binary(format!("b{i}"))).collect();
    /// let s = LinExpr::sum(vars.iter().copied());
    /// assert_eq!(s.num_terms(), 3);
    /// ```
    #[must_use]
    pub fn sum<I: IntoIterator<Item = VarId>>(vars: I) -> Self {
        let mut e = LinExpr::new();
        for v in vars {
            e.add_term(v, 1.0);
        }
        e
    }

    /// Weighted sum `Σ cᵢ·vᵢ` over `(var, coeff)` pairs.
    #[must_use]
    pub fn weighted_sum<I: IntoIterator<Item = (VarId, f64)>>(pairs: I) -> Self {
        let mut e = LinExpr::new();
        for (v, c) in pairs {
            e.add_term(v, c);
        }
        e
    }

    /// Add `c·v` to the expression in place, merging with any existing term.
    pub fn add_term(&mut self, v: VarId, c: f64) {
        if c == 0.0 {
            return;
        }
        let entry = self.terms.entry(v).or_insert(0.0);
        *entry += c;
        if *entry == 0.0 {
            self.terms.remove(&v);
        }
    }

    /// Add a constant to the expression in place.
    pub fn add_constant(&mut self, k: f64) {
        self.constant += k;
    }

    /// Coefficient of `v` (zero if absent).
    #[must_use]
    pub fn coeff(&self, v: VarId) -> f64 {
        self.terms.get(&v).copied().unwrap_or(0.0)
    }

    /// The additive constant `k`.
    #[must_use]
    pub fn constant(&self) -> f64 {
        self.constant
    }

    /// Number of variables with nonzero coefficient.
    #[must_use]
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Whether the expression has no variable terms.
    #[must_use]
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterate over `(variable, coefficient)` pairs in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, f64)> + '_ {
        self.terms.iter().map(|(&v, &c)| (v, c))
    }

    /// Evaluate the expression under an assignment `values[v.index()]`.
    ///
    /// # Panics
    ///
    /// Panics if a variable index is out of range for `values`.
    #[must_use]
    pub fn eval(&self, values: &[f64]) -> f64 {
        self.constant + self.iter().map(|(v, c)| c * values[v.index()]).sum::<f64>()
    }

    /// Largest variable index mentioned, if any.
    #[must_use]
    pub fn max_var_index(&self) -> Option<usize> {
        self.terms.keys().next_back().map(|v| v.index())
    }
}

impl From<VarId> for LinExpr {
    fn from(v: VarId) -> Self {
        LinExpr::var(v)
    }
}

impl From<f64> for LinExpr {
    fn from(k: f64) -> Self {
        LinExpr::constant_expr(k)
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in self.iter() {
            if first {
                if c == 1.0 {
                    write!(f, "{v}")?;
                } else if c == -1.0 {
                    write!(f, "-{v}")?;
                } else {
                    write!(f, "{c}·{v}")?;
                }
                first = false;
            } else if c >= 0.0 {
                if c == 1.0 {
                    write!(f, " + {v}")?;
                } else {
                    write!(f, " + {c}·{v}")?;
                }
            } else if c == -1.0 {
                write!(f, " - {v}")?;
            } else {
                write!(f, " - {}·{v}", -c)?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant > 0.0 {
            write!(f, " + {}", self.constant)?;
        } else if self.constant < 0.0 {
            write!(f, " - {}", -self.constant)?;
        }
        Ok(())
    }
}

// ---- operator impls ------------------------------------------------------

macro_rules! impl_add_like {
    ($lhs:ty, $rhs:ty) => {
        impl Add<$rhs> for $lhs {
            type Output = LinExpr;
            fn add(self, rhs: $rhs) -> LinExpr {
                let mut out = LinExpr::from(self);
                out += LinExpr::from(rhs);
                out
            }
        }
        impl Sub<$rhs> for $lhs {
            type Output = LinExpr;
            fn sub(self, rhs: $rhs) -> LinExpr {
                let mut out = LinExpr::from(self);
                out -= LinExpr::from(rhs);
                out
            }
        }
    };
}

impl_add_like!(LinExpr, LinExpr);
impl_add_like!(LinExpr, VarId);
impl_add_like!(LinExpr, f64);
impl_add_like!(VarId, LinExpr);
impl_add_like!(VarId, VarId);
impl_add_like!(VarId, f64);
impl_add_like!(f64, LinExpr);
impl_add_like!(f64, VarId);

impl AddAssign<LinExpr> for LinExpr {
    fn add_assign(&mut self, rhs: LinExpr) {
        for (v, c) in rhs.iter() {
            self.add_term(v, c);
        }
        self.constant += rhs.constant;
    }
}

impl SubAssign<LinExpr> for LinExpr {
    fn sub_assign(&mut self, rhs: LinExpr) {
        for (v, c) in rhs.iter() {
            self.add_term(v, -c);
        }
        self.constant -= rhs.constant;
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        let mut out = LinExpr::new();
        for (v, c) in self.iter() {
            out.add_term(v, -c);
        }
        out.constant = -self.constant;
        out
    }
}

impl Mul<f64> for LinExpr {
    type Output = LinExpr;
    fn mul(self, k: f64) -> LinExpr {
        let mut out = LinExpr::new();
        if k != 0.0 {
            for (v, c) in self.iter() {
                out.add_term(v, c * k);
            }
            out.constant = self.constant * k;
        }
        out
    }
}

impl Mul<LinExpr> for f64 {
    type Output = LinExpr;
    fn mul(self, e: LinExpr) -> LinExpr {
        e * self
    }
}

impl Mul<VarId> for f64 {
    type Output = LinExpr;
    fn mul(self, v: VarId) -> LinExpr {
        LinExpr::term(v, self)
    }
}

impl Mul<f64> for VarId {
    type Output = LinExpr;
    fn mul(self, k: f64) -> LinExpr {
        LinExpr::term(self, k)
    }
}

impl std::iter::Sum for LinExpr {
    fn sum<I: Iterator<Item = LinExpr>>(iter: I) -> LinExpr {
        let mut acc = LinExpr::new();
        for e in iter {
            acc += e;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> VarId {
        VarId::from_index(i)
    }

    #[test]
    fn canonical_merging() {
        let e = LinExpr::var(v(0)) + v(0) + v(1) - v(1);
        assert_eq!(e.coeff(v(0)), 2.0);
        assert_eq!(e.coeff(v(1)), 0.0);
        assert_eq!(e.num_terms(), 1);
    }

    #[test]
    fn zero_coeff_dropped() {
        let e = LinExpr::term(v(3), 0.0);
        assert!(e.is_constant());
    }

    #[test]
    fn operators_compose() {
        let e = 2.0 * v(0) - 0.5 * v(1) + 7.0;
        assert_eq!(e.coeff(v(0)), 2.0);
        assert_eq!(e.coeff(v(1)), -0.5);
        assert_eq!(e.constant(), 7.0);
    }

    #[test]
    fn neg_and_mul() {
        let e = -(1.0 * v(0) + 2.0);
        assert_eq!(e.coeff(v(0)), -1.0);
        assert_eq!(e.constant(), -2.0);
        let e2 = e * 3.0;
        assert_eq!(e2.coeff(v(0)), -3.0);
        assert_eq!(e2.constant(), -6.0);
    }

    #[test]
    fn mul_by_zero_clears() {
        let e = (2.0 * v(0) + 5.0) * 0.0;
        assert_eq!(e, LinExpr::new());
    }

    #[test]
    fn eval_matches_terms() {
        let e = 2.0 * v(0) + 3.0 * v(2) + 1.0;
        let values = [1.0, 99.0, 2.0];
        assert_eq!(e.eval(&values), 2.0 + 6.0 + 1.0);
    }

    #[test]
    fn sum_builders() {
        let e = LinExpr::sum([v(0), v(1), v(0)]);
        assert_eq!(e.coeff(v(0)), 2.0);
        let w = LinExpr::weighted_sum([(v(0), 1.5), (v(1), -1.5)]);
        assert_eq!(w.coeff(v(1)), -1.5);
    }

    #[test]
    fn display_readable() {
        let e = 1.0 * v(0) - 1.0 * v(1) + 2.5 * v(2) - 4.0;
        assert_eq!(e.to_string(), "x0 - x1 + 2.5·x2 - 4");
        assert_eq!(LinExpr::constant_expr(0.0).to_string(), "0");
    }

    #[test]
    fn iter_sum_collects() {
        let total: LinExpr = (0..3).map(|i| LinExpr::term(v(i), i as f64 + 1.0)).sum();
        assert_eq!(total.coeff(v(2)), 3.0);
    }

    #[test]
    fn equality_is_semantic() {
        let a = 1.0 * v(0) + 2.0 * v(1);
        let b = 2.0 * v(1) + 1.0 * v(0);
        assert_eq!(a, b);
    }
}
