//! Decision variables: identifiers, kinds, and definitions.

use std::fmt;

/// Opaque handle to a decision variable inside a [`Model`](crate::Model).
///
/// `VarId`s are only meaningful for the model that created them. They are
/// cheap to copy and implement ordering so they can key maps.
///
/// ```rust
/// use contrarc_milp::Model;
/// let mut m = Model::new("ex");
/// let x = m.add_continuous("x", 0.0, 1.0);
/// assert_eq!(m.var_name(x), "x");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// Index of the variable within its model (dense, starting at zero).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild a `VarId` from a dense index previously obtained via
    /// [`VarId::index`]. Only valid for the originating model.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        VarId(u32::try_from(index).expect("variable index overflow"))
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// The kind of a decision variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarType {
    /// Real-valued variable.
    Continuous,
    /// Integer-valued variable.
    Integer,
    /// Binary (0/1) variable; shorthand for an integer with bounds `[0, 1]`.
    Binary,
}

impl VarType {
    /// Whether this variable must take integral values in a feasible solution.
    #[must_use]
    pub fn is_integral(self) -> bool {
        matches!(self, VarType::Integer | VarType::Binary)
    }
}

impl fmt::Display for VarType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VarType::Continuous => f.write_str("continuous"),
            VarType::Integer => f.write_str("integer"),
            VarType::Binary => f.write_str("binary"),
        }
    }
}

/// Full definition of a variable stored by the model.
#[derive(Debug, Clone, PartialEq)]
pub struct VarDef {
    /// Human-readable name (used in diagnostics and reports).
    pub name: String,
    /// Variable kind.
    pub ty: VarType,
    /// Lower bound (may be `f64::NEG_INFINITY`).
    pub lb: f64,
    /// Upper bound (may be `f64::INFINITY`).
    pub ub: f64,
}

impl VarDef {
    /// Create a definition, validating that `lb <= ub` and bounds are not NaN.
    ///
    /// # Panics
    ///
    /// Panics if a bound is NaN or `lb > ub`; malformed bounds are a
    /// programming error at model-construction time.
    #[must_use]
    pub fn new(name: impl Into<String>, ty: VarType, lb: f64, ub: f64) -> Self {
        assert!(
            !lb.is_nan() && !ub.is_nan(),
            "variable bounds must not be NaN"
        );
        assert!(
            lb <= ub,
            "variable lower bound {lb} exceeds upper bound {ub}"
        );
        let (lb, ub) = match ty {
            VarType::Binary => (lb.max(0.0), ub.min(1.0)),
            _ => (lb, ub),
        };
        VarDef {
            name: name.into(),
            ty,
            lb,
            ub,
        }
    }

    /// Whether the bounds pin the variable to a single value.
    #[must_use]
    pub fn is_fixed(&self) -> bool {
        self.lb == self.ub
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_id_roundtrip() {
        let v = VarId::from_index(17);
        assert_eq!(v.index(), 17);
        assert_eq!(v.to_string(), "x17");
    }

    #[test]
    fn var_type_integrality() {
        assert!(!VarType::Continuous.is_integral());
        assert!(VarType::Integer.is_integral());
        assert!(VarType::Binary.is_integral());
    }

    #[test]
    fn binary_bounds_clamped() {
        let d = VarDef::new("b", VarType::Binary, -3.0, 9.0);
        assert_eq!((d.lb, d.ub), (0.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "exceeds upper bound")]
    fn inverted_bounds_panic() {
        let _ = VarDef::new("x", VarType::Continuous, 2.0, 1.0);
    }

    #[test]
    fn fixed_detection() {
        assert!(VarDef::new("x", VarType::Continuous, 2.0, 2.0).is_fixed());
        assert!(!VarDef::new("x", VarType::Continuous, 2.0, 3.0).is_fixed());
    }
}
