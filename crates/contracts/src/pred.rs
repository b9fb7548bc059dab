//! Linear-arithmetic predicates: the formula language of contracts.
//!
//! A [`Pred`] is a boolean combination of linear atoms `expr ⋈ rhs` over the
//! variables of a [`Vocabulary`](crate::Vocabulary). Negation is supported
//! and is pushed down to the atoms by [`Pred::nnf`], where it flips the
//! comparison into its (possibly strict) complement; strict inequalities are
//! later encoded with a small ε margin.

use contrarc_milp::{LinExpr, VarId};
use std::collections::BTreeSet;
use std::fmt;

/// Comparison operator of a predicate atom (a superset of the MILP
/// comparisons: negation introduces strict variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomCmp {
    /// `expr ≤ rhs`
    Le,
    /// `expr ≥ rhs`
    Ge,
    /// `expr = rhs`
    Eq,
    /// `expr < rhs`
    Lt,
    /// `expr > rhs`
    Gt,
}

impl AtomCmp {
    /// The complement comparison (used when negation reaches an atom):
    /// `¬(≤) = >`, `¬(<) = ≥`, and so on. `Eq` has no single complement; it
    /// is expanded to `< ∨ >` by [`Pred::nnf`] before this is used.
    #[must_use]
    pub fn complement(self) -> AtomCmp {
        match self {
            AtomCmp::Le => AtomCmp::Gt,
            AtomCmp::Ge => AtomCmp::Lt,
            AtomCmp::Lt => AtomCmp::Ge,
            AtomCmp::Gt => AtomCmp::Le,
            AtomCmp::Eq => unreachable!("Eq is expanded to Lt ∨ Gt before complementing"),
        }
    }

    /// Whether `lhs ⋈ rhs` holds (strict operators honour strictness up to
    /// `tol`: `lhs < rhs` requires `lhs ≤ rhs − tol`).
    #[must_use]
    pub fn holds(self, lhs: f64, rhs: f64, tol: f64) -> bool {
        match self {
            AtomCmp::Le => lhs <= rhs + tol,
            AtomCmp::Ge => lhs >= rhs - tol,
            AtomCmp::Eq => (lhs - rhs).abs() <= tol,
            AtomCmp::Lt => lhs < rhs - tol,
            AtomCmp::Gt => lhs > rhs + tol,
        }
    }
}

impl fmt::Display for AtomCmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AtomCmp::Le => "<=",
            AtomCmp::Ge => ">=",
            AtomCmp::Eq => "=",
            AtomCmp::Lt => "<",
            AtomCmp::Gt => ">",
        };
        f.write_str(s)
    }
}

/// A linear atom `expr ⋈ rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Atom {
    /// Left-hand side.
    pub expr: LinExpr,
    /// Comparison operator.
    pub cmp: AtomCmp,
    /// Right-hand side constant.
    pub rhs: f64,
}

impl Atom {
    /// Build an atom.
    #[must_use]
    pub fn new(expr: impl Into<LinExpr>, cmp: AtomCmp, rhs: f64) -> Self {
        Atom {
            expr: expr.into(),
            cmp,
            rhs,
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.expr, self.cmp, self.rhs)
    }
}

/// A predicate over linear atoms.
///
/// ```rust
/// use contrarc_contracts::{Pred, AtomCmp};
/// use contrarc_milp::LinExpr;
/// # use contrarc_milp::VarId;
/// let x = VarId::from_index(0);
/// let p = Pred::atom(1.0 * x, AtomCmp::Le, 5.0).and(Pred::atom(1.0 * x, AtomCmp::Ge, 1.0));
/// assert!(p.eval(&[3.0], 1e-9));
/// assert!(!p.eval(&[7.0], 1e-9));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Pred {
    /// Always true.
    #[default]
    True,
    /// Always false.
    False,
    /// A linear atom.
    Atom(Atom),
    /// Conjunction of sub-predicates.
    And(Vec<Pred>),
    /// Disjunction of sub-predicates.
    Or(Vec<Pred>),
    /// Negation.
    Not(Box<Pred>),
    /// Implication `lhs → rhs`.
    Implies(Box<Pred>, Box<Pred>),
}

impl Pred {
    /// Atom constructor shorthand.
    #[must_use]
    pub fn atom(expr: impl Into<LinExpr>, cmp: AtomCmp, rhs: f64) -> Self {
        Pred::Atom(Atom::new(expr, cmp, rhs))
    }

    /// `expr ≤ rhs`.
    #[must_use]
    pub fn le(expr: impl Into<LinExpr>, rhs: f64) -> Self {
        Pred::atom(expr, AtomCmp::Le, rhs)
    }

    /// `expr ≥ rhs`.
    #[must_use]
    pub fn ge(expr: impl Into<LinExpr>, rhs: f64) -> Self {
        Pred::atom(expr, AtomCmp::Ge, rhs)
    }

    /// `expr = rhs`.
    #[must_use]
    pub fn eq(expr: impl Into<LinExpr>, rhs: f64) -> Self {
        Pred::atom(expr, AtomCmp::Eq, rhs)
    }

    /// `|expr − center| ≤ bound`, expanded to two atoms.
    #[must_use]
    pub fn abs_le(expr: impl Into<LinExpr>, center: f64, bound: f64) -> Self {
        let e = expr.into();
        Pred::le(e.clone(), center + bound).and(Pred::ge(e, center - bound))
    }

    /// Conjunction, flattening nested `And`s and absorbing `True`/`False`.
    #[must_use]
    pub fn and(self, other: Pred) -> Pred {
        match (self, other) {
            (Pred::True, p) | (p, Pred::True) => p,
            (Pred::False, _) | (_, Pred::False) => Pred::False,
            (Pred::And(mut a), Pred::And(b)) => {
                a.extend(b);
                Pred::And(a)
            }
            (Pred::And(mut a), p) => {
                a.push(p);
                Pred::And(a)
            }
            (p, Pred::And(mut b)) => {
                b.insert(0, p);
                Pred::And(b)
            }
            (a, b) => Pred::And(vec![a, b]),
        }
    }

    /// Disjunction, flattening nested `Or`s and absorbing `True`/`False`.
    #[must_use]
    pub fn or(self, other: Pred) -> Pred {
        match (self, other) {
            (Pred::False, p) | (p, Pred::False) => p,
            (Pred::True, _) | (_, Pred::True) => Pred::True,
            (Pred::Or(mut a), Pred::Or(b)) => {
                a.extend(b);
                Pred::Or(a)
            }
            (Pred::Or(mut a), p) => {
                a.push(p);
                Pred::Or(a)
            }
            (p, Pred::Or(mut b)) => {
                b.insert(0, p);
                Pred::Or(b)
            }
            (a, b) => Pred::Or(vec![a, b]),
        }
    }

    /// Negation (simplifying double negation and constants).
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Pred {
        match self {
            Pred::True => Pred::False,
            Pred::False => Pred::True,
            Pred::Not(inner) => *inner,
            p => Pred::Not(Box::new(p)),
        }
    }

    /// Implication `self → other`.
    #[must_use]
    pub fn implies(self, other: Pred) -> Pred {
        match (&self, &other) {
            (Pred::False, _) => Pred::True,
            (Pred::True, _) => other,
            (_, Pred::True) => Pred::True,
            _ => Pred::Implies(Box::new(self), Box::new(other)),
        }
    }

    /// Conjunction of an iterator of predicates.
    #[must_use]
    pub fn all<I: IntoIterator<Item = Pred>>(preds: I) -> Pred {
        preds.into_iter().fold(Pred::True, Pred::and)
    }

    /// Disjunction of an iterator of predicates.
    #[must_use]
    pub fn any<I: IntoIterator<Item = Pred>>(preds: I) -> Pred {
        preds.into_iter().fold(Pred::False, Pred::or)
    }

    /// Negation normal form: negations pushed to atoms (with comparison
    /// complementing), implications expanded, constants folded.
    #[must_use]
    pub fn nnf(&self) -> Pred {
        self.nnf_inner(false)
    }

    fn nnf_inner(&self, neg: bool) -> Pred {
        match self {
            Pred::True => {
                if neg {
                    Pred::False
                } else {
                    Pred::True
                }
            }
            Pred::False => {
                if neg {
                    Pred::True
                } else {
                    Pred::False
                }
            }
            Pred::Atom(a) => {
                if !neg {
                    return Pred::Atom(a.clone());
                }
                match a.cmp {
                    AtomCmp::Eq => Pred::Or(vec![
                        Pred::atom(a.expr.clone(), AtomCmp::Lt, a.rhs),
                        Pred::atom(a.expr.clone(), AtomCmp::Gt, a.rhs),
                    ]),
                    cmp => Pred::atom(a.expr.clone(), cmp.complement(), a.rhs),
                }
            }
            Pred::And(children) => {
                let kids: Vec<Pred> = children.iter().map(|c| c.nnf_inner(neg)).collect();
                if neg {
                    Pred::any(kids)
                } else {
                    Pred::all(kids)
                }
            }
            Pred::Or(children) => {
                let kids: Vec<Pred> = children.iter().map(|c| c.nnf_inner(neg)).collect();
                if neg {
                    Pred::all(kids)
                } else {
                    Pred::any(kids)
                }
            }
            Pred::Not(inner) => inner.nnf_inner(!neg),
            Pred::Implies(a, b) => {
                // a → b ≡ ¬a ∨ b ; negated: a ∧ ¬b.
                if neg {
                    a.nnf_inner(false).and(b.nnf_inner(true))
                } else {
                    a.nnf_inner(true).or(b.nnf_inner(false))
                }
            }
        }
    }

    /// Evaluate under an assignment (`values[v.index()]`), with `tol` as the
    /// comparison tolerance.
    ///
    /// # Panics
    ///
    /// Panics if an atom mentions a variable index out of range for
    /// `values`.
    #[must_use]
    pub fn eval(&self, values: &[f64], tol: f64) -> bool {
        match self {
            Pred::True => true,
            Pred::False => false,
            Pred::Atom(a) => a.cmp.holds(a.expr.eval(values), a.rhs, tol),
            Pred::And(children) => children.iter().all(|c| c.eval(values, tol)),
            Pred::Or(children) => children.iter().any(|c| c.eval(values, tol)),
            Pred::Not(inner) => !inner.eval(values, tol),
            Pred::Implies(a, b) => !a.eval(values, tol) || b.eval(values, tol),
        }
    }

    /// The set of variables mentioned anywhere in the predicate.
    #[must_use]
    pub fn free_vars(&self) -> BTreeSet<VarId> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut BTreeSet<VarId>) {
        match self {
            Pred::True | Pred::False => {}
            Pred::Atom(a) => out.extend(a.expr.iter().map(|(v, _)| v)),
            Pred::And(children) | Pred::Or(children) => {
                for c in children {
                    c.collect_vars(out);
                }
            }
            Pred::Not(inner) => inner.collect_vars(out),
            Pred::Implies(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::True => f.write_str("true"),
            Pred::False => f.write_str("false"),
            Pred::Atom(a) => write!(f, "{a}"),
            Pred::And(children) => {
                f.write_str("(")?;
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" ∧ ")?;
                    }
                    write!(f, "{c}")?;
                }
                f.write_str(")")
            }
            Pred::Or(children) => {
                f.write_str("(")?;
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" ∨ ")?;
                    }
                    write!(f, "{c}")?;
                }
                f.write_str(")")
            }
            Pred::Not(inner) => write!(f, "¬{inner}"),
            Pred::Implies(a, b) => write!(f, "({a} → {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> VarId {
        VarId::from_index(i)
    }

    #[test]
    fn constructors_simplify_constants() {
        assert_eq!(
            Pred::True.and(Pred::le(1.0 * v(0), 1.0)),
            Pred::le(1.0 * v(0), 1.0)
        );
        assert_eq!(Pred::False.and(Pred::le(1.0 * v(0), 1.0)), Pred::False);
        assert_eq!(Pred::True.or(Pred::le(1.0 * v(0), 1.0)), Pred::True);
        assert_eq!(
            Pred::False.or(Pred::le(1.0 * v(0), 1.0)),
            Pred::le(1.0 * v(0), 1.0)
        );
        assert_eq!(Pred::True.not(), Pred::False);
        assert_eq!(
            Pred::le(1.0 * v(0), 1.0).not().not(),
            Pred::le(1.0 * v(0), 1.0)
        );
    }

    #[test]
    fn and_or_flatten() {
        let a = Pred::le(1.0 * v(0), 1.0);
        let b = Pred::ge(1.0 * v(1), 2.0);
        let c = Pred::eq(1.0 * v(2), 3.0);
        let p = a.clone().and(b.clone()).and(c.clone());
        match &p {
            Pred::And(kids) => assert_eq!(kids.len(), 3),
            other => panic!("expected flattened And, got {other:?}"),
        }
        let q = a.or(b).or(c);
        match &q {
            Pred::Or(kids) => assert_eq!(kids.len(), 3),
            other => panic!("expected flattened Or, got {other:?}"),
        }
    }

    #[test]
    fn eval_boolean_semantics() {
        let x = v(0);
        let p = Pred::le(1.0 * x, 5.0).implies(Pred::ge(1.0 * x, 2.0));
        assert!(p.eval(&[3.0], 1e-9)); // both hold
        assert!(p.eval(&[9.0], 1e-9)); // antecedent false
        assert!(!p.eval(&[1.0], 1e-9)); // antecedent true, consequent false
        assert!(p.clone().not().eval(&[1.0], 1e-9));
    }

    #[test]
    fn nnf_pushes_negation_to_atoms() {
        let x = v(0);
        let p = Pred::le(1.0 * x, 5.0)
            .and(Pred::ge(1.0 * x, 2.0))
            .not()
            .nnf();
        // ¬(x ≤ 5 ∧ x ≥ 2) = x > 5 ∨ x < 2
        match &p {
            Pred::Or(kids) => {
                assert_eq!(kids.len(), 2);
                assert!(matches!(&kids[0], Pred::Atom(a) if a.cmp == AtomCmp::Gt));
                assert!(matches!(&kids[1], Pred::Atom(a) if a.cmp == AtomCmp::Lt));
            }
            other => panic!("expected Or, got {other:?}"),
        }
    }

    #[test]
    fn nnf_expands_negated_equality() {
        let p = Pred::eq(1.0 * v(0), 3.0).not().nnf();
        match &p {
            Pred::Or(kids) => assert_eq!(kids.len(), 2),
            other => panic!("expected Or, got {other:?}"),
        }
    }

    #[test]
    fn nnf_expands_implication() {
        let x = v(0);
        let p = Pred::ge(1.0 * x, 1.0).implies(Pred::le(1.0 * x, 3.0)).nnf();
        // ¬(x≥1) ∨ (x≤3)  =  x<1 ∨ x≤3
        match &p {
            Pred::Or(kids) => {
                assert!(matches!(&kids[0], Pred::Atom(a) if a.cmp == AtomCmp::Lt));
                assert!(matches!(&kids[1], Pred::Atom(a) if a.cmp == AtomCmp::Le));
            }
            other => panic!("expected Or, got {other:?}"),
        }
    }

    #[test]
    fn nnf_preserves_semantics_samples() {
        let x = v(0);
        let y = v(1);
        let preds = vec![
            Pred::le(1.0 * x + 1.0 * y, 4.0).not(),
            Pred::eq(1.0 * x, 2.0).not(),
            Pred::ge(1.0 * x, 1.0).implies(Pred::le(1.0 * y, 0.5)),
            Pred::le(1.0 * x, 2.0).or(Pred::ge(1.0 * y, 3.0)).not(),
            Pred::abs_le(1.0 * x - 1.0 * y, 0.0, 1.0),
        ];
        let samples = [
            [0.0, 0.0],
            [1.0, 2.0],
            [2.5, 0.1],
            [3.0, 3.0],
            [0.4, 4.2],
            [2.0, 2.0],
        ];
        for p in preds {
            let n = p.nnf();
            for s in &samples {
                assert_eq!(p.eval(s, 1e-9), n.eval(s, 1e-9), "pred {p} at {s:?}");
            }
        }
    }

    #[test]
    fn free_vars_collected() {
        let p = Pred::le(1.0 * v(0) + 2.0 * v(3), 1.0)
            .and(Pred::ge(1.0 * v(1), 0.0))
            .not();
        let vars = p.free_vars();
        assert_eq!(vars.len(), 3);
        assert!(vars.contains(&v(3)));
    }

    #[test]
    fn abs_le_window_eval() {
        let p = Pred::abs_le(1.0 * v(0), 10.0, 2.0);
        assert!(p.eval(&[11.9], 1e-9));
        assert!(!p.eval(&[12.1], 1e-9));
        assert!(!p.eval(&[7.9], 1e-9));
    }

    #[test]
    fn all_any_builders() {
        let kids = (0..3).map(|i| Pred::ge(1.0 * v(i), 0.0));
        let conj = Pred::all(kids.clone());
        assert!(conj.eval(&[1.0, 1.0, 1.0], 1e-9));
        assert!(!conj.eval(&[1.0, -1.0, 1.0], 1e-9));
        let disj = Pred::any(kids);
        assert!(disj.eval(&[-1.0, -1.0, 0.0], 1e-9));
        assert!(!disj.eval(&[-1.0, -1.0, -1.0], 1e-9));
    }

    #[test]
    fn display_roundtrip_readable() {
        let p = Pred::le(1.0 * v(0), 5.0).and(Pred::ge(1.0 * v(1), 2.0).not());
        let s = p.to_string();
        assert!(s.contains('∧'));
        assert!(s.contains('¬'));
    }

    #[test]
    fn atom_cmp_holds_strictness() {
        assert!(AtomCmp::Lt.holds(0.9, 1.0, 1e-6));
        assert!(!AtomCmp::Lt.holds(1.0, 1.0, 1e-6));
        assert!(AtomCmp::Gt.holds(1.1, 1.0, 1e-6));
        assert!(!AtomCmp::Gt.holds(1.0, 1.0, 1e-6));
    }
}
