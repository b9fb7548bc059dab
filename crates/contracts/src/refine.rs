//! MILP-backed satisfiability, consistency, compatibility, and refinement
//! checking.
//!
//! Refinement `C ⪯ C'` ("C can replace C'") holds iff
//!
//! * `A' ⊆ A` — C accepts every environment C' accepts: `A' ∧ ¬A` is UNSAT;
//! * `sat(G) ⊆ sat(G')` — C promises at least as much: `sat(G) ∧ ¬sat(G')`
//!   is UNSAT (with `sat(G) = G ∨ ¬A` the saturated guarantee).
//!
//! Both queries are MILP feasibility problems; a SAT answer comes with a
//! witness assignment, which the exploration loop uses as the infeasibility
//! evidence for certificate generation.
//!
//! *Note.* The paper's Section IV-B prints the transposed conditions
//! (`A_c ∧ ¬A_s`, `G_s ∧ ¬G_c`); we implement the standard definition from
//! the contract literature the paper cites, treating the printed version as
//! a typo (see DESIGN.md).

use crate::contract::Contract;
use crate::encode::{assert_pred, EncodeOptions};
use crate::pred::Pred;
use crate::vocabulary::Vocabulary;
use contrarc_milp::{Model, SolveError, SolveOptions};
use std::fmt;

/// Which refinement condition failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefinementFailure {
    /// The refining contract's assumptions are not weak enough
    /// (`A' ∧ ¬A` is satisfiable).
    Assumptions,
    /// The refining contract's guarantees are not strong enough
    /// (`sat(G) ∧ ¬sat(G')` is satisfiable).
    Guarantees,
}

impl fmt::Display for RefinementFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefinementFailure::Assumptions => f.write_str("assumptions not weakened"),
            RefinementFailure::Guarantees => f.write_str("guarantees not strengthened"),
        }
    }
}

/// Result of a refinement check.
#[derive(Debug, Clone, PartialEq)]
pub struct Refinement {
    failure: Option<(RefinementFailure, Vec<f64>)>,
}

impl Refinement {
    /// Whether the refinement holds.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.failure.is_none()
    }

    /// The failed condition and its witness assignment, when refinement does
    /// not hold. The witness is a behaviour allowed by one side and rejected
    /// by the other — the paper's "invalid architecture" evidence.
    #[must_use]
    pub fn failure(&self) -> Option<(&RefinementFailure, &[f64])> {
        self.failure.as_ref().map(|(k, w)| (k, w.as_slice()))
    }
}

impl fmt::Display for Refinement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.failure {
            None => f.write_str("refinement holds"),
            Some((k, _)) => write!(f, "refinement fails: {k}"),
        }
    }
}

/// Satisfiability / refinement query engine over a [`Vocabulary`].
///
/// ```rust
/// use contrarc_contracts::{Contract, Pred, RefinementChecker, Vocabulary};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut voc = Vocabulary::new();
/// let x = voc.add_continuous("x", 0.0, 10.0);
/// // C guarantees x ≤ 3; C' only requires x ≤ 5: C refines C'.
/// let strong = Contract::new("strong", Pred::True, Pred::le(1.0 * x, 3.0));
/// let weak = Contract::new("weak", Pred::True, Pred::le(1.0 * x, 5.0));
/// let checker = RefinementChecker::new();
/// assert!(checker.check(&voc, &strong, &weak)?.holds());
/// assert!(!checker.check(&voc, &weak, &strong)?.holds());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct RefinementChecker {
    solve_options: SolveOptions,
    encode_options: EncodeOptions,
}

impl RefinementChecker {
    /// Checker with default solver and encoding options.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Checker with explicit options.
    #[must_use]
    pub fn with_options(solve_options: SolveOptions, encode_options: EncodeOptions) -> Self {
        RefinementChecker {
            solve_options,
            encode_options,
        }
    }

    /// Satisfiability of a predicate over the vocabulary; returns a witness
    /// assignment when satisfiable.
    ///
    /// # Errors
    ///
    /// Returns a [`SolveError`] if encoding fails (e.g. unbounded variables
    /// inside a disjunction) or the solver hits a limit.
    pub fn satisfiable(
        &self,
        voc: &Vocabulary,
        pred: &Pred,
    ) -> Result<Option<Vec<f64>>, SolveError> {
        let mut model = voc.instantiate("sat-query")?;
        assert_pred(&mut model, pred, "q", &self.encode_options)?;
        self.solve_feasibility(model)
    }

    /// Contract consistency: does a valid implementation exist
    /// (`sat(G)` satisfiable)?
    ///
    /// # Errors
    ///
    /// Propagates encoding/solver errors as in
    /// [`RefinementChecker::satisfiable`].
    pub fn is_consistent(&self, voc: &Vocabulary, c: &Contract) -> Result<bool, SolveError> {
        Ok(self.satisfiable(voc, &c.saturated_guarantees())?.is_some())
    }

    /// Contract compatibility: does a valid environment exist
    /// (`A` satisfiable)?
    ///
    /// # Errors
    ///
    /// Propagates encoding/solver errors as in
    /// [`RefinementChecker::satisfiable`].
    pub fn is_compatible(&self, voc: &Vocabulary, c: &Contract) -> Result<bool, SolveError> {
        Ok(self.satisfiable(voc, c.assumptions())?.is_some())
    }

    /// Check `c ⪯ c_prime` (can `c` replace `c_prime`?).
    ///
    /// # Errors
    ///
    /// Propagates encoding/solver errors as in
    /// [`RefinementChecker::satisfiable`].
    pub fn check(
        &self,
        voc: &Vocabulary,
        c: &Contract,
        c_prime: &Contract,
    ) -> Result<Refinement, SolveError> {
        // Condition 1: A' ∧ ¬A UNSAT.
        let a_query = c_prime
            .assumptions()
            .clone()
            .and(c.assumptions().clone().not());
        if let Some(witness) = self.satisfiable(voc, &a_query)? {
            return Ok(Refinement {
                failure: Some((RefinementFailure::Assumptions, witness)),
            });
        }
        // Condition 2: sat(G) ∧ ¬sat(G') UNSAT.
        let g_query = c
            .saturated_guarantees()
            .and(c_prime.saturated_guarantees().not());
        if let Some(witness) = self.satisfiable(voc, &g_query)? {
            return Ok(Refinement {
                failure: Some((RefinementFailure::Guarantees, witness)),
            });
        }
        Ok(Refinement { failure: None })
    }

    fn solve_feasibility(&self, model: Model) -> Result<Option<Vec<f64>>, SolveError> {
        let outcome = model.solve(&self.solve_options)?;
        Ok(outcome.solution().map(|s| s.values().to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn voc_x() -> (Vocabulary, contrarc_milp::VarId) {
        let mut voc = Vocabulary::new();
        let x = voc.add_continuous("x", 0.0, 10.0);
        (voc, x)
    }

    #[test]
    fn reflexive_refinement() {
        let (voc, x) = voc_x();
        let c = Contract::new("c", Pred::ge(1.0 * x, 1.0), Pred::le(1.0 * x, 5.0));
        let checker = RefinementChecker::new();
        assert!(checker.check(&voc, &c, &c).unwrap().holds());
    }

    #[test]
    fn stronger_guarantee_refines() {
        let (voc, x) = voc_x();
        let strong = Contract::new("s", Pred::True, Pred::le(1.0 * x, 3.0));
        let weak = Contract::new("w", Pred::True, Pred::le(1.0 * x, 5.0));
        let checker = RefinementChecker::new();
        assert!(checker.check(&voc, &strong, &weak).unwrap().holds());
        let back = checker.check(&voc, &weak, &strong).unwrap();
        assert!(!back.holds());
        let (kind, witness) = back.failure().unwrap();
        assert_eq!(*kind, RefinementFailure::Guarantees);
        // The witness is a behaviour the weak contract allows but the strong
        // one forbids: 3 < x ≤ 5.
        assert!(
            witness[0] > 3.0 && witness[0] <= 5.0 + 1e-6,
            "witness {witness:?}"
        );
    }

    #[test]
    fn weaker_assumption_refines() {
        let (voc, x) = voc_x();
        // Refining contract accepts more environments.
        let wide = Contract::new("wide", Pred::ge(1.0 * x, 1.0), Pred::True);
        let narrow = Contract::new("narrow", Pred::ge(1.0 * x, 2.0), Pred::True);
        let checker = RefinementChecker::new();
        assert!(checker.check(&voc, &wide, &narrow).unwrap().holds());
        let back = checker.check(&voc, &narrow, &wide).unwrap();
        assert!(!back.holds());
        assert_eq!(*back.failure().unwrap().0, RefinementFailure::Assumptions);
    }

    #[test]
    fn saturation_matters_for_refinement() {
        let (voc, x) = voc_x();
        // G "x ≤ 3" with A "x ≥ 5": saturated guarantee is x<5 ∨ x≤3 = x<5…
        // wait: sat(G) = (x≤3) ∨ (x<5) = x<5. Against an unconditional x ≤ 6
        // promise, refinement holds because x<5 ⊆ x≤6.
        let odd = Contract::new("odd", Pred::ge(1.0 * x, 5.0), Pred::le(1.0 * x, 3.0));
        let plain = Contract::new("plain", Pred::True, Pred::le(1.0 * x, 6.0));
        let checker = RefinementChecker::new();
        // sat(G_odd) = x≤3 ∨ x<5 which is x<5; x<5 ⊆ x≤6 but A_plain=true ⊄ A_odd.
        let r = checker.check(&voc, &odd, &plain).unwrap();
        assert!(!r.holds(), "assumption condition must fail");
        assert_eq!(*r.failure().unwrap().0, RefinementFailure::Assumptions);
    }

    #[test]
    fn consistency_and_compatibility() {
        let (voc, x) = voc_x();
        let checker = RefinementChecker::new();
        let fine = Contract::new("fine", Pred::ge(1.0 * x, 2.0), Pred::le(1.0 * x, 8.0));
        assert!(checker.is_consistent(&voc, &fine).unwrap());
        assert!(checker.is_compatible(&voc, &fine).unwrap());

        // Incompatible: assumptions unsatisfiable in the domain.
        let incompatible = Contract::new("inc", Pred::ge(1.0 * x, 99.0), Pred::True);
        assert!(!checker.is_compatible(&voc, &incompatible).unwrap());
        // Still consistent (vacuously, via saturation).
        assert!(checker.is_consistent(&voc, &incompatible).unwrap());

        // Inconsistent: guarantee unsatisfiable and assumptions always hold.
        let inconsistent = Contract::new("bad", Pred::True, Pred::False);
        assert!(!checker.is_consistent(&voc, &inconsistent).unwrap());
    }

    #[test]
    fn satisfiable_returns_witness() {
        let (voc, x) = voc_x();
        let checker = RefinementChecker::new();
        let w = checker
            .satisfiable(&voc, &Pred::ge(1.0 * x, 4.0).and(Pred::le(1.0 * x, 4.5)))
            .unwrap()
            .expect("satisfiable");
        assert!(w[0] >= 4.0 - 1e-6 && w[0] <= 4.5 + 1e-6);
        assert!(checker
            .satisfiable(&voc, &Pred::ge(1.0 * x, 4.0).and(Pred::le(1.0 * x, 3.0)))
            .unwrap()
            .is_none());
    }

    #[test]
    fn composition_refines_components_spec() {
        // Classic: composed system refines a top-level spec.
        let mut voc = Vocabulary::new();
        let lat1 = voc.add_continuous("lat1", 0.0, 100.0);
        let lat2 = voc.add_continuous("lat2", 0.0, 100.0);
        let c1 = Contract::new("m1", Pred::True, Pred::le(1.0 * lat1, 10.0));
        let c2 = Contract::new("m2", Pred::True, Pred::le(1.0 * lat2, 20.0));
        let system_spec = Contract::new("sys", Pred::True, Pred::le(1.0 * lat1 + 1.0 * lat2, 30.0));
        let tight_spec = Contract::new("sys2", Pred::True, Pred::le(1.0 * lat1 + 1.0 * lat2, 25.0));
        let composed = c1.compose(&c2);
        let checker = RefinementChecker::new();
        assert!(checker
            .check(&voc, &composed, &system_spec)
            .unwrap()
            .holds());
        let r = checker.check(&voc, &composed, &tight_spec).unwrap();
        assert!(!r.holds(), "25 cannot be met by 10+20 components");
        assert_eq!(*r.failure().unwrap().0, RefinementFailure::Guarantees);
    }

    #[test]
    fn refinement_display() {
        let r = Refinement { failure: None };
        assert!(r.to_string().contains("holds"));
        let f = Refinement {
            failure: Some((RefinementFailure::Guarantees, vec![])),
        };
        assert!(f.to_string().contains("fails"));
    }
}
