//! Borrowed negation normal form: what the encoder walks.
//!
//! [`Nnf`] is a predicate with negations pushed down to its atoms, the form
//! [`Pred::nnf`] returns, but borrowing each atom's expression from the
//! predicate it came from. Refinement queries are conjunctions and
//! negations of contract parts that already exist; building them as `Nnf`s
//! encodes them without copying a single predicate.

use crate::pred::{AtomCmp, Pred};
use contrarc_milp::LinExpr;

/// A predicate in negation normal form whose atoms borrow their
/// expressions.
///
/// Every value built by [`Nnf::of`] and [`Nnf::junction`] is normalized:
/// no `And` holds an `And` and no `Or` an `Or`, every junction has at least
/// two children, and a constant appears only as the whole formula.
#[derive(Debug, PartialEq)]
pub(crate) enum Nnf<'a> {
    /// `true` or `false`.
    Const(bool),
    /// `expr ⋈ rhs`, already complemented where a negation reached it.
    Atom {
        expr: &'a LinExpr,
        cmp: AtomCmp,
        rhs: f64,
    },
    /// Conjunction.
    And(Vec<Nnf<'a>>),
    /// Disjunction.
    Or(Vec<Nnf<'a>>),
}

impl<'a> Nnf<'a> {
    /// The NNF of `pred`, or of `¬pred` when `neg`: implications expanded,
    /// negations pushed to the atoms, where they complement the comparison
    /// and split a negated `=` into `< ∨ >`.
    pub(crate) fn of(pred: &'a Pred, neg: bool) -> Nnf<'a> {
        match pred {
            Pred::True => Nnf::Const(!neg),
            Pred::False => Nnf::Const(neg),
            Pred::Atom(a) => {
                let atom = |cmp| Nnf::Atom {
                    expr: &a.expr,
                    cmp,
                    rhs: a.rhs,
                };
                match (neg, a.cmp) {
                    (false, cmp) => atom(cmp),
                    (true, AtomCmp::Eq) => Nnf::Or(vec![atom(AtomCmp::Lt), atom(AtomCmp::Gt)]),
                    (true, cmp) => atom(cmp.complement()),
                }
            }
            // ¬(p ∧ q) = ¬p ∨ ¬q, and dually.
            Pred::And(children) => Nnf::junction(!neg, children.iter().map(|c| Nnf::of(c, neg))),
            Pred::Or(children) => Nnf::junction(neg, children.iter().map(|c| Nnf::of(c, neg))),
            Pred::Not(inner) => Nnf::of(inner, !neg),
            // a → b = ¬a ∨ b; negated: a ∧ ¬b.
            Pred::Implies(a, b) => Nnf::junction(neg, [Nnf::of(a, !neg), Nnf::of(b, neg)]),
        }
    }

    /// The conjunction (`conj`) or disjunction of normalized `parts`, as
    /// [`Pred::all`] and [`Pred::any`] fold them: a nested junction of the
    /// same kind is spliced in place, the unit (`true` in a conjunction) is
    /// dropped, the zero decides the whole, and one remaining part stands
    /// alone.
    pub(crate) fn junction<I: IntoIterator<Item = Nnf<'a>>>(conj: bool, parts: I) -> Nnf<'a> {
        let parts = parts.into_iter();
        let mut flat = Vec::with_capacity(parts.size_hint().0);
        for part in parts {
            match part {
                Nnf::Const(unit) if unit == conj => {}
                Nnf::Const(zero) => return Nnf::Const(zero),
                Nnf::And(kids) if conj => flat.extend(kids),
                Nnf::Or(kids) if !conj => flat.extend(kids),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Nnf::Const(conj),
            1 => flat.pop().expect("one part"),
            _ if conj => Nnf::And(flat),
            _ => Nnf::Or(flat),
        }
    }

    /// The owned [`Pred`] this form stands for.
    pub(crate) fn to_pred(&self) -> Pred {
        match self {
            Nnf::Const(true) => Pred::True,
            Nnf::Const(false) => Pred::False,
            Nnf::Atom { expr, cmp, rhs } => Pred::atom((*expr).clone(), *cmp, *rhs),
            Nnf::And(kids) => Pred::And(kids.iter().map(Nnf::to_pred).collect()),
            Nnf::Or(kids) => Pred::Or(kids.iter().map(Nnf::to_pred).collect()),
        }
    }
}

/// The recursive, owned NNF that [`Nnf::of`] replaced, kept verbatim as the
/// reference the borrowed form must materialize to.
#[cfg(test)]
pub(crate) fn reference_nnf(pred: &Pred) -> Pred {
    fn inner(p: &Pred, neg: bool) -> Pred {
        match p {
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
                let kids: Vec<Pred> = children.iter().map(|c| inner(c, neg)).collect();
                if neg {
                    Pred::any(kids)
                } else {
                    Pred::all(kids)
                }
            }
            Pred::Or(children) => {
                let kids: Vec<Pred> = children.iter().map(|c| inner(c, neg)).collect();
                if neg {
                    Pred::all(kids)
                } else {
                    Pred::any(kids)
                }
            }
            Pred::Not(p) => inner(p, !neg),
            Pred::Implies(a, b) => {
                if neg {
                    inner(a, false).and(inner(b, true))
                } else {
                    inner(a, true).or(inner(b, false))
                }
            }
        }
    }
    inner(pred, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use contrarc_milp::VarId;

    fn le(i: usize, rhs: f64) -> Pred {
        Pred::le(1.0 * VarId::from_index(i), rhs)
    }

    #[test]
    fn raw_nesting_is_flattened_and_constants_absorbed() {
        // Built without the simplifying constructors: an `And` inside an
        // `And`, units and single-child junctions.
        let p = Pred::And(vec![
            Pred::True,
            Pred::And(vec![le(0, 1.0), Pred::Or(vec![Pred::False, le(1, 2.0)])]),
            Pred::Or(vec![le(2, 3.0), Pred::Or(vec![le(3, 4.0), le(4, 5.0)])]),
        ]);
        let n = Nnf::of(&p, false).to_pred();
        assert_eq!(n, reference_nnf(&p));
        assert_eq!(
            n,
            Pred::And(vec![
                le(0, 1.0),
                le(1, 2.0),
                Pred::Or(vec![le(2, 3.0), le(3, 4.0), le(4, 5.0)]),
            ])
        );
        // A zero decides the whole junction; no junction is left empty.
        let zero = Pred::And(vec![le(0, 1.0), Pred::Not(Box::new(Pred::True))]);
        assert_eq!(Nnf::of(&zero, false), Nnf::Const(false));
        assert_eq!(Nnf::of(&Pred::Or(vec![]), false), Nnf::Const(false));
    }

    #[test]
    fn negation_complements_splits_and_expands() {
        let x = VarId::from_index(0);
        let p = Pred::eq(1.0 * x, 3.0)
            .implies(Pred::atom(1.0 * x, AtomCmp::Lt, 1.0))
            .not();
        // ¬(x = 3 → x < 1) = x = 3 ∧ x ≥ 1
        assert_eq!(
            Nnf::of(&p, false).to_pred(),
            Pred::eq(1.0 * x, 3.0).and(Pred::ge(1.0 * x, 1.0))
        );
        // ¬¬(x = 3 → x < 1) = (x < 3 ∨ x > 3) ∨ x < 1, one flat `Or`.
        let q = Nnf::of(&p, true).to_pred();
        assert_eq!(q, reference_nnf(&p.clone().not()));
        assert!(matches!(&q, Pred::Or(kids) if kids.len() == 3));
    }
}
