//! Linear constraints.

use crate::expr::LinExpr;
use std::fmt;

/// Opaque handle to a constraint inside a [`Model`](crate::Model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConstrId(pub(crate) u32);

impl ConstrId {
    /// Index of the constraint within its model (dense, starting at zero).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ConstrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Comparison operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cmp {
    /// `expr ≤ rhs`
    Le,
    /// `expr ≥ rhs`
    Ge,
    /// `expr = rhs`
    Eq,
}

impl Cmp {
    /// The comparison satisfied by negating both sides.
    #[must_use]
    pub fn flipped(self) -> Cmp {
        match self {
            Cmp::Le => Cmp::Ge,
            Cmp::Ge => Cmp::Le,
            Cmp::Eq => Cmp::Eq,
        }
    }

    /// Whether `lhs cmp rhs` holds within `tol`.
    #[must_use]
    pub fn holds(self, lhs: f64, rhs: f64, tol: f64) -> bool {
        match self {
            Cmp::Le => lhs <= rhs + tol,
            Cmp::Ge => lhs >= rhs - tol,
            Cmp::Eq => (lhs - rhs).abs() <= tol,
        }
    }
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cmp::Le => f.write_str("<="),
            Cmp::Ge => f.write_str(">="),
            Cmp::Eq => f.write_str("="),
        }
    }
}

/// A named linear constraint `expr cmp rhs`.
///
/// The expression's additive constant is folded into the right-hand side when
/// the constraint enters the solver, so `x + 1 ≤ 3` and `x ≤ 2` are the same
/// constraint.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Human-readable name used in diagnostics.
    pub name: String,
    /// Left-hand side linear expression.
    pub expr: LinExpr,
    /// Comparison operator.
    pub cmp: Cmp,
    /// Right-hand side constant.
    pub rhs: f64,
}

impl Constraint {
    /// Create a constraint, folding the expression constant into the rhs.
    #[must_use]
    pub fn new(name: impl Into<String>, expr: LinExpr, cmp: Cmp, rhs: f64) -> Self {
        let k = expr.constant();
        let mut expr = expr;
        expr.add_constant(-k);
        Constraint {
            name: name.into(),
            expr,
            cmp,
            rhs: rhs - k,
        }
    }

    /// Whether the assignment `values[v.index()]` satisfies this constraint
    /// within `tol`.
    #[must_use]
    pub fn satisfied_by(&self, values: &[f64], tol: f64) -> bool {
        self.cmp.holds(self.expr.eval(values), self.rhs, tol)
    }

    /// Signed violation of the constraint (zero when satisfied).
    #[must_use]
    pub fn violation(&self, values: &[f64]) -> f64 {
        let lhs = self.expr.eval(values);
        match self.cmp {
            Cmp::Le => (lhs - self.rhs).max(0.0),
            Cmp::Ge => (self.rhs - lhs).max(0.0),
            Cmp::Eq => (lhs - self.rhs).abs(),
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} {} {}", self.name, self.expr, self.cmp, self.rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::VarId;

    fn v(i: usize) -> VarId {
        VarId::from_index(i)
    }

    #[test]
    fn constant_folded_into_rhs() {
        let c = Constraint::new("c", 1.0 * v(0) + 1.0, Cmp::Le, 3.0);
        assert_eq!(c.rhs, 2.0);
        assert_eq!(c.expr.constant(), 0.0);
    }

    #[test]
    fn satisfaction_and_violation() {
        let c = Constraint::new("c", 1.0 * v(0), Cmp::Le, 2.0);
        assert!(c.satisfied_by(&[2.0], 1e-9));
        assert!(!c.satisfied_by(&[2.1], 1e-9));
        assert!((c.violation(&[3.0]) - 1.0).abs() < 1e-12);

        let eq = Constraint::new("e", 1.0 * v(0), Cmp::Eq, 2.0);
        assert!((eq.violation(&[1.5]) - 0.5).abs() < 1e-12);

        let ge = Constraint::new("g", 1.0 * v(0), Cmp::Ge, 2.0);
        assert!((ge.violation(&[1.0]) - 1.0).abs() < 1e-12);
        assert_eq!(ge.violation(&[5.0]), 0.0);
    }

    #[test]
    fn cmp_flip_and_holds() {
        assert_eq!(Cmp::Le.flipped(), Cmp::Ge);
        assert_eq!(Cmp::Eq.flipped(), Cmp::Eq);
        assert!(Cmp::Eq.holds(1.0, 1.0 + 1e-12, 1e-9));
        assert!(!Cmp::Ge.holds(0.0, 1.0, 1e-9));
    }

    #[test]
    fn display_format() {
        let c = Constraint::new("cap", 2.0 * v(0), Cmp::Le, 7.0);
        assert_eq!(c.to_string(), "cap: 2·x0 <= 7");
    }
}
