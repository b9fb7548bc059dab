//! # contrarc-contracts
//!
//! Assume-guarantee (A/G) contract algebra with MILP-backed reasoning, built
//! for the ContrArc architecture-exploration methodology (DATE 2024).
//!
//! The crate provides:
//!
//! * a linear-arithmetic predicate language ([`Pred`], [`Atom`], [`AtomCmp`])
//!   with boolean structure, NNF normalization, and evaluation;
//! * a shared variable space ([`Vocabulary`]) giving meaning and bounds to
//!   the variables predicates range over;
//! * contracts ([`Contract`]) with the standard algebra: saturation,
//!   composition `⊗`, conjunction `∧`, consistency and compatibility;
//! * a [`RefinementChecker`] that decides `⊗ᵢ Cᵢ ⪯ C'` by compiling both
//!   refinement conditions into MILP feasibility queries (via
//!   [`contrarc_milp`]) and returns witness behaviours on failure. The
//!   queries are built from the borrowed contracts, in a negation normal
//!   form whose atoms borrow their expressions, so a check copies no
//!   predicate.
//!
//! The paper modeled contracts through the CHASE front-end and discharged
//! queries with Gurobi; this crate implements the same semantics natively.
//!
//! ```rust
//! use contrarc_contracts::{Contract, Pred, RefinementChecker, Vocabulary};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut voc = Vocabulary::new();
//! let latency = voc.add_continuous("latency", 0.0, 100.0);
//!
//! // A component guarantees latency ≤ 10 ms; the system spec needs ≤ 25 ms.
//! // `check` takes the components whose composition must refine the spec.
//! let component = Contract::new("component", Pred::True, Pred::le(1.0 * latency, 10.0));
//! let spec = Contract::new("spec", Pred::True, Pred::le(1.0 * latency, 25.0));
//!
//! let checker = RefinementChecker::new();
//! assert!(checker.check(&voc, [&component], &spec)?.holds());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod contract;
mod encode;
mod nnf;
mod pred;
mod refine;
mod vocabulary;

pub use contract::Contract;
pub use encode::{assert_pred, EncodeOptions};
pub use pred::{Atom, AtomCmp, Pred};
pub use refine::{Refinement, RefinementChecker, RefinementFailure};
pub use vocabulary::Vocabulary;
