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
//! witness assignment of the vocabulary's variables, which the exploration
//! loop uses as the infeasibility evidence for certificate generation.
//!
//! [`RefinementChecker::check`] takes `C` as the composition of its
//! components and builds both queries in negation normal form straight from
//! the borrowed contracts, by [`Contract::compose_all`]'s rules: it clones
//! no contract and no predicate. The assumption query's model is, variable
//! for variable and row for row, the model of the query built from the
//! composite contract, and so is the guarantee query's for one component or
//! none. For two or more, the guarantee query is `G ∧ ¬sat(G')`: the
//! composite's `sat(G)` is `G` (see [`Contract::compose_all`]), so it is
//! encoded once instead of as `G ∨ (¬∧ᵢAᵢ ∧ G)`, with the same verdicts.
//! A query whose normal form is constant `false` is UNSAT without a solve:
//! the assumption query of components that all assume `true` is one.
//!
//! *Note.* The paper's Section IV-B prints the transposed conditions
//! (`A_c ∧ ¬A_s`, `G_s ∧ ¬G_c`); we implement the standard definition from
//! the contract literature the paper cites, treating the printed version as
//! a typo (see DESIGN.md).

use crate::contract::{Composition, Contract};
use crate::encode::{encode, EncodeOptions};
use crate::nnf::Nnf;
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
    /// not hold. The witness assigns each vocabulary variable, indexed like
    /// the vocabulary, and is a behaviour allowed by one side and rejected
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
/// assert!(checker.check(&voc, [&strong], &weak)?.holds());
/// assert!(!checker.check(&voc, [&weak], &strong)?.holds());
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
    /// assignment of the vocabulary's variables when satisfiable.
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
        self.witness(voc, &Nnf::of(pred, false))
    }

    /// Contract consistency: does a valid implementation exist
    /// (`sat(G)` satisfiable)?
    ///
    /// # Errors
    ///
    /// Propagates encoding/solver errors as in
    /// [`RefinementChecker::satisfiable`].
    pub fn is_consistent(&self, voc: &Vocabulary, c: &Contract) -> Result<bool, SolveError> {
        let sat_g = Composition(&[c]).saturated(false);
        Ok(self.witness(voc, &sat_g)?.is_some())
    }

    /// Contract compatibility: does a valid environment exist
    /// (`A` satisfiable)?
    ///
    /// # Errors
    ///
    /// Propagates encoding/solver errors as in
    /// [`RefinementChecker::satisfiable`].
    pub fn is_compatible(&self, voc: &Vocabulary, c: &Contract) -> Result<bool, SolveError> {
        Ok(self
            .witness(voc, &Nnf::of(c.assumptions(), false))?
            .is_some())
    }

    /// Check `⊗ components ⪯ spec`: can the composition of `components`
    /// replace `spec`? One component is checked as itself and none as the
    /// unconstrained contract ⊤, following [`Contract::compose_all`], whose
    /// rules the two queries are built by, straight from the borrowed
    /// contracts. Two or more components enter the guarantee query as their
    /// composite guarantee `G`, which equals its saturation. A query that
    /// normalizes to `false` is UNSAT, so its condition holds, without a
    /// solve.
    ///
    /// # Errors
    ///
    /// Propagates encoding/solver errors as in
    /// [`RefinementChecker::satisfiable`].
    pub fn check<'a>(
        &self,
        voc: &Vocabulary,
        components: impl IntoIterator<Item = &'a Contract>,
        spec: &Contract,
    ) -> Result<Refinement, SolveError> {
        let components: Vec<&Contract> = components.into_iter().collect();
        // Condition 1: A' ∧ ¬A UNSAT.
        if let Some(witness) = self.witness(voc, &assumption_query(&components, spec))? {
            return Ok(Refinement {
                failure: Some((RefinementFailure::Assumptions, witness)),
            });
        }
        // Condition 2: sat(G) ∧ ¬sat(G') UNSAT.
        if let Some(witness) = self.witness(voc, &guarantee_query(&components, spec))? {
            return Ok(Refinement {
                failure: Some((RefinementFailure::Guarantees, witness)),
            });
        }
        Ok(Refinement { failure: None })
    }

    /// A satisfying assignment of `query`'s vocabulary variables, if any:
    /// the query model's own selector binaries are left out. A query whose
    /// normal form is constant `false` has none, and builds no model.
    fn witness(&self, voc: &Vocabulary, query: &Nnf<'_>) -> Result<Option<Vec<f64>>, SolveError> {
        if matches!(query, Nnf::Const(false)) {
            return Ok(None);
        }
        let outcome = query_model(voc, query, &self.encode_options)?.solve(&self.solve_options)?;
        Ok(outcome.solution().map(|s| s.values()[..voc.len()].to_vec()))
    }
}

/// `A' ∧ ¬A`: environments `spec` accepts and the composition does not.
fn assumption_query<'a>(components: &[&'a Contract], spec: &'a Contract) -> Nnf<'a> {
    Nnf::junction(
        true,
        [
            Nnf::of(spec.assumptions(), false),
            Composition(components).assumptions(true),
        ],
    )
}

/// `sat(G) ∧ ¬sat(G')`: implementations the composition allows and `spec`
/// does not.
fn guarantee_query<'a>(components: &[&'a Contract], spec: &'a Contract) -> Nnf<'a> {
    Nnf::junction(
        true,
        [
            Composition(components).saturated(false),
            Composition(&[spec]).saturated(true),
        ],
    )
}

/// The feasibility model of one query: the vocabulary's variables, then the
/// query's rows and selectors.
fn query_model(
    voc: &Vocabulary,
    query: &Nnf<'_>,
    opts: &EncodeOptions,
) -> Result<Model, SolveError> {
    let mut model = voc.instantiate("sat-query")?;
    encode(&mut model, query, None, opts)?;
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::assert_pred;
    use crate::nnf::reference_nnf;
    use crate::pred::AtomCmp;
    use contrarc_milp::{Budget, Cmp, LinExpr, VarType};

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
        assert!(checker.check(&voc, [&c], &c).unwrap().holds());
    }

    #[test]
    fn stronger_guarantee_refines() {
        let (voc, x) = voc_x();
        let strong = Contract::new("s", Pred::True, Pred::le(1.0 * x, 3.0));
        let weak = Contract::new("w", Pred::True, Pred::le(1.0 * x, 5.0));
        let checker = RefinementChecker::new();
        assert!(checker.check(&voc, [&strong], &weak).unwrap().holds());
        let back = checker.check(&voc, [&weak], &strong).unwrap();
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
        assert!(checker.check(&voc, [&wide], &narrow).unwrap().holds());
        let back = checker.check(&voc, [&narrow], &wide).unwrap();
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
        let r = checker.check(&voc, [&odd], &plain).unwrap();
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

    /// A query that normalizes to `false` is UNSAT without a model: even a
    /// budget of no branch-and-bound node decides it.
    #[test]
    fn constant_false_queries_are_unsat_without_a_solve() {
        let (voc, x) = voc_x();
        let checker = RefinementChecker::new();
        assert_eq!(checker.satisfiable(&voc, &Pred::False).unwrap(), None);
        let no_nodes = SolveOptions::default().with_budget(Budget::unlimited().with_node_limit(0));
        let starved = RefinementChecker::with_options(no_nodes, EncodeOptions::default());
        let falsified = Pred::le(1.0 * x, 3.0).and(Pred::False.or(Pred::False));
        assert_eq!(starved.satisfiable(&voc, &falsified).unwrap(), None);
        assert!(starved.satisfiable(&voc, &Pred::le(1.0 * x, 3.0)).is_err());
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
        // The binary composite checked as one component, and the two
        // components checked together, agree.
        for components in [vec![&composed], vec![&c1, &c2]] {
            assert!(checker
                .check(&voc, components.iter().copied(), &system_spec)
                .unwrap()
                .holds());
            let r = checker.check(&voc, components, &tight_spec).unwrap();
            assert!(!r.holds(), "25 cannot be met by 10+20 components");
            assert_eq!(*r.failure().unwrap().0, RefinementFailure::Guarantees);
        }
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

    /// A witness assigns the vocabulary's variables and nothing else, and
    /// it is a behaviour of the kind its failed condition names.
    #[test]
    fn witness_is_an_assignment_of_the_vocabulary() {
        let (voc, x) = voc_x();
        let gap = || Pred::le(1.0 * x, 5.0).or(Pred::ge(1.0 * x, 8.0));
        let strong = Contract::new("strong", Pred::True, Pred::le(1.0 * x, 3.0));
        let cases = [
            // sat(G) = x ≤ 5 ∨ x ≥ 8 reaches past x ≤ 3.
            (
                vec![Contract::new("weak", Pred::True, gap())],
                strong.clone(),
                RefinementFailure::Guarantees,
            ),
            (
                vec![
                    Contract::new("weak", Pred::True, gap()),
                    Contract::new("cap", Pred::True, Pred::le(1.0 * x, 9.0)),
                ],
                strong,
                RefinementFailure::Guarantees,
            ),
            // A' = x ≤ 2 ∨ x ≥ 8 reaches past A = x ≤ 2.
            (
                vec![Contract::new("narrow", Pred::le(1.0 * x, 2.0), Pred::True)],
                Contract::new(
                    "wide",
                    Pred::le(1.0 * x, 2.0).or(Pred::ge(1.0 * x, 8.0)),
                    Pred::True,
                ),
                RefinementFailure::Assumptions,
            ),
        ];
        let checker = RefinementChecker::new();
        for (components, spec, kind) in cases {
            let r = checker.check(&voc, &components, &spec).unwrap();
            let (got, witness) = r.failure().expect("refinement fails");
            assert_eq!(*got, kind);
            assert_eq!(witness.len(), voc.len(), "witness {witness:?}");
            let composite = Contract::compose_all(&components);
            let (allowed, refused) = match kind {
                RefinementFailure::Guarantees => (
                    composite.saturated_guarantees(),
                    spec.saturated_guarantees(),
                ),
                RefinementFailure::Assumptions => {
                    (spec.assumptions().clone(), composite.assumptions().clone())
                }
            };
            assert!(
                allowed.eval(witness, 1e-6) && !refused.eval(witness, 1e-6),
                "{kind}: witness {witness:?}"
            );
        }
    }

    /// Deterministic xorshift64* draws for the seeded property test.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(2_685_821_657_736_338_717) % n
        }

        /// A multiple of 1/4 in `[lo, hi]`.
        fn quarter(&mut self, lo: f64, hi: f64) -> f64 {
            lo + self.below(((hi - lo) * 4.0) as u64 + 1) as f64 / 4.0
        }
    }

    /// One to four variables with finite bounds: continuous, binary or
    /// integer.
    fn random_vocabulary(rng: &mut Rng) -> Vocabulary {
        let mut voc = Vocabulary::new();
        for i in 0..=rng.below(4) {
            let lo = rng.quarter(-4.0, 4.0);
            let hi = lo + rng.quarter(0.0, 8.0);
            match rng.below(4) {
                0 => voc.add_binary(format!("b{i}")),
                1 => voc.add_integer(format!("i{i}"), lo.floor(), hi.ceil()),
                _ => voc.add_continuous(format!("x{i}"), lo, hi),
            };
        }
        voc
    }

    /// A predicate of depth at most `depth`, built with the raw variants
    /// (so junctions nest in junctions of their own kind and hold
    /// constants) from `True`, `False`, atoms of all five comparisons over
    /// expressions with constants, `And`, `Or`, `Not` and `Implies`.
    fn random_pred(rng: &mut Rng, vars: u64, depth: u32) -> Pred {
        if depth == 0 || rng.below(4) == 0 {
            return match rng.below(8) {
                0 => Pred::True,
                1 => Pred::False,
                _ => {
                    let mut expr = LinExpr::constant_expr(match rng.below(4) {
                        0 => rng.quarter(-2.0, 2.0),
                        _ => 0.0,
                    });
                    for _ in 0..=rng.below(3) {
                        let v = contrarc_milp::VarId::from_index(rng.below(vars) as usize);
                        expr.add_term(v, rng.quarter(-3.0, 3.0));
                    }
                    let cmps = [
                        AtomCmp::Le,
                        AtomCmp::Ge,
                        AtomCmp::Eq,
                        AtomCmp::Lt,
                        AtomCmp::Gt,
                    ];
                    Pred::atom(expr, cmps[rng.below(5) as usize], rng.quarter(-6.0, 6.0))
                }
            };
        }
        let kids = |rng: &mut Rng, n: u64| -> Vec<Pred> {
            (0..n).map(|_| random_pred(rng, vars, depth - 1)).collect()
        };
        let sub = |rng: &mut Rng| Box::new(random_pred(rng, vars, depth - 1));
        match rng.below(4) {
            0 => {
                let n = rng.below(4);
                Pred::And(kids(rng, n))
            }
            1 => {
                let n = rng.below(4);
                Pred::Or(kids(rng, n))
            }
            2 => Pred::Not(sub(rng)),
            _ => Pred::Implies(sub(rng), sub(rng)),
        }
    }

    fn random_contract(rng: &mut Rng, vars: u64, name: &str) -> Contract {
        let a = random_pred(rng, vars, 3);
        let g = random_pred(rng, vars, 3);
        Contract::new(name, a, g)
    }

    /// Everything of a model the solver reads, bit for bit: each variable's
    /// type and bounds, and each row's terms, constant, comparison and
    /// right-hand side, in order. Names are left out.
    #[allow(clippy::type_complexity)]
    fn model_bits(
        m: &Model,
    ) -> (
        Vec<(VarType, u64, u64)>,
        Vec<(Vec<(usize, u64)>, u64, Cmp, u64)>,
    ) {
        let vars = m
            .vars()
            .map(|(_, d)| (d.ty, d.lb.to_bits(), d.ub.to_bits()))
            .collect();
        let rows = m
            .constrs()
            .map(|c| {
                let terms = c
                    .expr
                    .iter()
                    .map(|(v, k)| (v.index(), k.to_bits()))
                    .collect();
                (terms, c.expr.constant().to_bits(), c.cmp, c.rhs.to_bits())
            })
            .collect();
        (vars, rows)
    }

    /// The borrowed queries encode, variable for variable and row for row,
    /// as the owned queries built through `Contract::compose_all` encode,
    /// their NNFs materialize to the recursive reference NNF, and `check`
    /// reaches the verdict and witness bits of solving the owned queries.
    /// The owned guarantee query of two or more components is
    /// `G ∧ ¬sat(G')`; the composite's `sat(G) ∧ ¬sat(G')`, which encodes
    /// `G` twice, must reach the same verdict.
    #[test]
    fn borrowed_queries_encode_as_the_owned_queries() {
        let opts = EncodeOptions::default();
        let checker = RefinementChecker::new();
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let (mut rows, mut holds, mut fails, mut constant) = (0, 0, 0, 0);
        for case in 0..600 {
            let voc = random_vocabulary(&mut rng);
            let vars = voc.len() as u64;
            let spec = random_contract(&mut rng, vars, "spec");
            // 0, 1 and 2–5 components, in turn.
            let count = match case % 3 {
                0 => 0,
                1 => 1,
                _ => 2 + rng.below(4) as usize,
            };
            let components: Vec<Contract> = (0..count)
                .map(|i| random_contract(&mut rng, vars, &format!("c{i}")))
                .collect();
            let parts: Vec<&Contract> = components.iter().collect();
            for c in parts.iter().chain([&&spec]) {
                for p in [c.assumptions(), c.guarantees()] {
                    assert_eq!(Nnf::of(p, false).to_pred(), reference_nnf(p), "{p}");
                }
            }

            let composite = Contract::compose_all(parts.iter().copied());
            let sat_g = match count {
                0 | 1 => composite.saturated_guarantees(),
                _ => composite.guarantees().clone(),
            };
            let owned = [
                spec.assumptions()
                    .clone()
                    .and(composite.assumptions().clone().not()),
                sat_g.and(spec.saturated_guarantees().not()),
            ];
            let doubled = composite
                .saturated_guarantees()
                .and(spec.saturated_guarantees().not());
            let borrowed = [
                assumption_query(&parts, &spec),
                guarantee_query(&parts, &spec),
            ];
            for (owned, borrowed) in owned.iter().zip(&borrowed) {
                assert_eq!(borrowed.to_pred(), reference_nnf(owned), "case {case}");
                if matches!(borrowed, Nnf::Const(false)) {
                    constant += 1;
                }
                let mut want = voc.instantiate("owned").unwrap();
                assert_pred(&mut want, owned, &opts).unwrap();
                let got = query_model(&voc, borrowed, &opts).unwrap();
                assert_eq!(model_bits(&got), model_bits(&want), "case {case}");
                rows += got.num_constrs();
            }

            let solve = |query: &Pred| -> Result<Option<Vec<u64>>, SolveError> {
                let mut m = voc.instantiate("owned")?;
                assert_pred(&mut m, query, &opts)?;
                let outcome = m.solve(&SolveOptions::default())?;
                Ok(outcome.solution().map(|s| {
                    s.values()[..voc.len()]
                        .iter()
                        .map(|v| v.to_bits())
                        .collect()
                }))
            };
            let want = solve(&owned[0]).and_then(|w| match w {
                Some(w) => Ok(Some((RefinementFailure::Assumptions, w))),
                None => Ok(solve(&owned[1])?.map(|w| (RefinementFailure::Guarantees, w))),
            });
            let got = checker.check(&voc, parts.iter().copied(), &spec).map(|r| {
                r.failure()
                    .map(|(k, w)| (*k, w.iter().map(|v| v.to_bits()).collect::<Vec<_>>()))
            });
            assert_eq!(got, want, "case {case}");
            let oracle = solve(&owned[0]).and_then(|w| match w {
                Some(_) => Ok(Some(RefinementFailure::Assumptions)),
                None => Ok(solve(&doubled)?.map(|_| RefinementFailure::Guarantees)),
            });
            let verdict = got.clone().map(|f| f.map(|(k, _)| k));
            assert_eq!(verdict, oracle, "case {case}");
            match &got {
                Ok(None) => holds += 1,
                Ok(Some(_)) => fails += 1,
                Err(_) => {}
            }
        }
        // The draws reach both verdicts, constant-false queries and models
        // of some size.
        assert!(
            rows > 5_000 && holds > 100 && fails > 100 && constant > 100,
            "{rows} rows, {holds} holding and {fails} failing checks, \
             {constant} constant-false queries"
        );
    }

    /// A composite of two or more contracts is saturated already: its
    /// `sat(G) = G ∨ ¬A` and its `G` agree at every point, those outside
    /// its assumptions included.
    #[test]
    fn a_composite_guarantee_equals_its_saturation() {
        let mut rng = Rng(0x2545_f491_4f6c_dd1d);
        let (mut inside, mut outside) = (0, 0);
        for case in 0..400 {
            let voc = random_vocabulary(&mut rng);
            let vars = voc.len() as u64;
            let components: Vec<Contract> = (0..2 + rng.below(4))
                .map(|i| random_contract(&mut rng, vars, &format!("c{i}")))
                .collect();
            let composite = Contract::compose_all(&components);
            let (g, sat) = (composite.guarantees(), composite.saturated_guarantees());
            for _ in 0..25 {
                let point: Vec<f64> = (0..vars).map(|_| rng.quarter(-6.0, 6.0)).collect();
                assert_eq!(
                    sat.eval(&point, 1e-9),
                    g.eval(&point, 1e-9),
                    "case {case} at {point:?}"
                );
                if composite.assumptions().eval(&point, 1e-9) {
                    inside += 1;
                } else {
                    outside += 1;
                }
            }
        }
        assert!(
            inside > 1_000 && outside > 1_000,
            "{inside} in, {outside} out"
        );
    }
}
