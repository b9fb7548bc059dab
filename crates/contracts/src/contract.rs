//! Assume-guarantee contracts and their algebra.

use crate::nnf::Nnf;
use crate::pred::Pred;
use std::fmt;

/// An assume-guarantee contract `C = (A, G)` over a shared
/// [`Vocabulary`](crate::Vocabulary).
///
/// `A` (assumptions) constrains the environment; `G` (guarantees) is what the
/// component promises when the assumptions hold. The *saturated* guarantee
/// `G ∨ ¬A` makes the promise unconditional and is what all algebraic
/// operations and refinement checks are defined over, following the standard
/// contract meta-theory \[Benveniste et al., *Contracts for System Design*\].
///
/// ```rust
/// use contrarc_contracts::{Contract, Pred};
/// use contrarc_milp::VarId;
/// let x = VarId::from_index(0);
/// let c = Contract::new("comp", Pred::ge(1.0 * x, 0.0), Pred::le(1.0 * x, 5.0));
/// assert_eq!(c.name(), "comp");
/// // Saturation: the guarantee holds vacuously when assumptions fail.
/// assert!(c.saturated_guarantees().eval(&[-3.0], 1e-9));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    name: String,
    assumptions: Pred,
    guarantees: Pred,
}

impl Contract {
    /// Create a contract from assumptions and guarantees.
    #[must_use]
    pub fn new(name: impl Into<String>, assumptions: Pred, guarantees: Pred) -> Self {
        Contract {
            name: name.into(),
            assumptions,
            guarantees,
        }
    }

    /// A contract with no obligations in either direction (the identity of
    /// composition).
    #[must_use]
    pub fn top(name: impl Into<String>) -> Self {
        Contract::new(name, Pred::True, Pred::True)
    }

    /// Contract name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The assumption predicate `A`.
    #[must_use]
    pub fn assumptions(&self) -> &Pred {
        &self.assumptions
    }

    /// The (unsaturated) guarantee predicate `G`.
    #[must_use]
    pub fn guarantees(&self) -> &Pred {
        &self.guarantees
    }

    /// The saturated guarantee `G ∨ ¬A`.
    #[must_use]
    pub fn saturated_guarantees(&self) -> Pred {
        self.guarantees.clone().or(self.assumptions.clone().not())
    }

    /// Composition `self ⊗ other`: the contract of the two components
    /// operating together.
    ///
    /// Standard rule on saturated contracts: guarantees conjoin, and the
    /// composite assumption is weakened by whatever the guarantees already
    /// discharge — `A = (A₁ ∧ A₂) ∨ ¬(G₁ ∧ G₂)`.
    #[must_use]
    pub fn compose(&self, other: &Contract) -> Contract {
        let g1 = self.saturated_guarantees();
        let g2 = other.saturated_guarantees();
        let g = g1.clone().and(g2.clone());
        let a = self
            .assumptions
            .clone()
            .and(other.assumptions.clone())
            .or(g1.and(g2).not());
        Contract::new(format!("{}⊗{}", self.name, other.name), a, g)
    }

    /// Compose an iterator of contracts (`⊗` is associative and commutative
    /// up to equivalence). Returns the [`Contract::top`] identity when the
    /// iterator is empty.
    ///
    /// Uses the flat n-ary rule `A = (∧ᵢ Aᵢ) ∨ ¬(∧ᵢ sat(Gᵢ))`,
    /// `G = ∧ᵢ sat(Gᵢ)` — equivalent to folding binary composition but with
    /// formulas that stay linear in the number of contracts, which keeps the
    /// MILP encodings of refinement queries small. The composite of two or
    /// more contracts is saturated already: its `¬A = ¬(∧ᵢ Aᵢ) ∧ G` lies
    /// inside `G`, so `sat(G) = G ∨ ¬A = G`.
    /// [`RefinementChecker::check`](crate::RefinementChecker::check) applies
    /// the same rules to borrowed contracts without building the composite,
    /// and encodes that `sat(G)` as `G`.
    #[must_use]
    pub fn compose_all<'a, I: IntoIterator<Item = &'a Contract>>(contracts: I) -> Contract {
        let contracts: Vec<&Contract> = contracts.into_iter().collect();
        match contracts.as_slice() {
            [] => Contract::top("⊗∅"),
            [only] => (*only).clone(),
            many => {
                let g = Pred::all(many.iter().map(|c| c.saturated_guarantees()));
                let a = Pred::all(many.iter().map(|c| c.assumptions.clone())).or(g.clone().not());
                let name = many
                    .iter()
                    .map(|c| c.name.as_str())
                    .collect::<Vec<_>>()
                    .join("⊗");
                Contract::new(name, a, g)
            }
        }
    }

    /// Conjunction `self ∧ other`: one component satisfying several
    /// viewpoints at once. Assumptions union, saturated guarantees intersect.
    #[must_use]
    pub fn conjoin(&self, other: &Contract) -> Contract {
        let a = self.assumptions.clone().or(other.assumptions.clone());
        let g = self
            .saturated_guarantees()
            .and(other.saturated_guarantees());
        Contract::new(format!("{}∧{}", self.name, other.name), a, g)
    }

    /// Whether an assignment is an allowed *implementation behaviour*:
    /// satisfies the saturated guarantee.
    #[must_use]
    pub fn allows_implementation(&self, values: &[f64], tol: f64) -> bool {
        self.saturated_guarantees().eval(values, tol)
    }

    /// Whether an assignment is an allowed *environment behaviour*:
    /// satisfies the assumptions.
    #[must_use]
    pub fn allows_environment(&self, values: &[f64], tol: f64) -> bool {
        self.assumptions.eval(values, tol)
    }
}

/// The composition `⊗ᵢ Cᵢ` of borrowed contracts, read part by part in
/// negation normal form by [`Contract::compose_all`]'s rules: none composes
/// to ⊤, one to itself, several by the flat n-ary rule. The assumptions and
/// guarantees equal the NNFs of the composite's, so a query built from them
/// encodes as one built from the composite would; the saturated guarantee
/// of several components is `G` alone (see [`Composition::saturated`]).
pub(crate) struct Composition<'c, 'a>(pub(crate) &'c [&'a Contract]);

impl<'a> Composition<'_, 'a> {
    /// `A`, or `¬A` when `neg`.
    pub(crate) fn assumptions(&self, neg: bool) -> Nnf<'a> {
        match self.0 {
            [] => Nnf::Const(!neg),
            [only] => Nnf::of(&only.assumptions, neg),
            // A = (∧ᵢ Aᵢ) ∨ ¬G
            many => {
                let all = Nnf::junction(!neg, many.iter().map(|c| Nnf::of(&c.assumptions, neg)));
                Nnf::junction(neg, [all, self.guarantees(!neg)])
            }
        }
    }

    /// `G`, or `¬G` when `neg`.
    pub(crate) fn guarantees(&self, neg: bool) -> Nnf<'a> {
        match self.0 {
            [] => Nnf::Const(!neg),
            [only] => Nnf::of(&only.guarantees, neg),
            // G = ∧ᵢ sat(Gᵢ)
            many => Nnf::junction(
                !neg,
                many.iter()
                    .map(|c| Composition(std::slice::from_ref(c)).saturated(neg)),
            ),
        }
    }

    /// The saturated guarantee `G ∨ ¬A`, or `¬G ∧ A` when `neg`. Several
    /// components saturate to `G` itself (`¬G` when `neg`): their
    /// `¬A = ¬(∧ᵢ Aᵢ) ∧ G` lies inside `G`.
    pub(crate) fn saturated(&self, neg: bool) -> Nnf<'a> {
        match self.0 {
            [_, _, ..] => self.guarantees(neg),
            _ => Nnf::junction(neg, [self.guarantees(neg), self.assumptions(!neg)]),
        }
    }
}

impl fmt::Display for Contract {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "contract {}: A = {}, G = {}",
            self.name, self.assumptions, self.guarantees
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contrarc_milp::VarId;

    fn v(i: usize) -> VarId {
        VarId::from_index(i)
    }

    #[test]
    fn saturation_weakens_guarantee() {
        let c = Contract::new("c", Pred::ge(1.0 * v(0), 0.0), Pred::le(1.0 * v(0), 5.0));
        // Inside assumptions, the guarantee must hold.
        assert!(c.allows_implementation(&[3.0], 1e-9));
        assert!(!c.allows_implementation(&[7.0], 1e-9));
        // Outside assumptions, anything goes.
        assert!(c.allows_implementation(&[-10.0], 1e-9));
    }

    #[test]
    fn composition_conjoins_guarantees() {
        let c1 = Contract::new("c1", Pred::True, Pred::le(1.0 * v(0), 5.0));
        let c2 = Contract::new("c2", Pred::True, Pred::ge(1.0 * v(0), 1.0));
        let c = c1.compose(&c2);
        assert!(c.allows_implementation(&[3.0], 1e-9));
        assert!(!c.allows_implementation(&[0.0], 1e-9));
        assert!(!c.allows_implementation(&[9.0], 1e-9));
        assert_eq!(c.name(), "c1⊗c2");
    }

    #[test]
    fn composition_discharges_assumptions() {
        // c1 assumes x ≥ 1 and guarantees y ≤ 2 ; c2 guarantees x ≥ 1.
        let (x, y) = (v(0), v(1));
        let c1 = Contract::new("c1", Pred::ge(1.0 * x, 1.0), Pred::le(1.0 * y, 2.0));
        let c2 = Contract::new("c2", Pred::True, Pred::ge(1.0 * x, 1.0));
        let c = c1.compose(&c2);
        // Where the composite guarantee holds (x≥1 ∧ y≤2), the environment
        // needs nothing: A must be satisfied there.
        assert!(c.allows_environment(&[1.5, 1.0], 1e-9));
    }

    #[test]
    fn compose_all_identity() {
        let id = Contract::compose_all([]);
        assert!(id.allows_implementation(&[123.0], 1e-9));
        let c1 = Contract::new("c1", Pred::True, Pred::le(1.0 * v(0), 5.0));
        let only = Contract::compose_all([&c1]);
        assert_eq!(only, c1);
    }

    #[test]
    fn conjunction_unions_assumptions() {
        let c1 = Contract::new("t", Pred::ge(1.0 * v(0), 0.0), Pred::le(1.0 * v(1), 1.0));
        let c2 = Contract::new("p", Pred::le(1.0 * v(0), 9.0), Pred::ge(1.0 * v(1), 0.0));
        let c = c1.conjoin(&c2);
        // Environment allowed if either viewpoint's assumption holds.
        assert!(c.allows_environment(&[-5.0, 0.0], 1e-9)); // c2's A holds
        assert!(c.allows_environment(&[10.0, 0.0], 1e-9)); // c1's A holds
    }

    #[test]
    fn top_is_unconstrained() {
        let t = Contract::top("top");
        assert!(t.allows_implementation(&[], 1e-9));
        assert!(t.allows_environment(&[], 1e-9));
    }

    #[test]
    fn display_shows_both_sides() {
        let c = Contract::new("c", Pred::True, Pred::False);
        let s = c.to_string();
        assert!(s.contains("A = true"));
        assert!(s.contains("G = false"));
    }
}
