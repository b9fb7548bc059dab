//! # contrarc-milp
//!
//! A self-contained mixed integer linear programming (MILP) solver written in
//! pure Rust, built as the optimization substrate of the ContrArc
//! architecture-exploration methodology (DATE 2024).
//!
//! The solver provides:
//!
//! * a modeling layer ([`Model`], [`LinExpr`], [`VarId`]) for building linear
//!   programs with continuous, integer, and binary variables;
//! * a bounded-variable **revised simplex** method (sparse LU-factorized
//!   basis, product-form updates, dual-simplex warm starts) for the LP
//!   relaxations;
//! * a best-bound **branch-and-bound** search for integer feasibility
//!   ([`Solver`]);
//! * encoding helpers ([`encode`]) for the logical constructs used by
//!   assume-guarantee contracts: guarded (big-M) implications and the
//!   indicator link between a binary and a set of binaries.
//!
//! The paper used Gurobi; this crate replaces it with an exact, dependency-free
//! implementation so the full methodology can run anywhere. Absolute solve
//! times differ from a commercial solver, but optima and SAT/UNSAT answers are
//! exact up to floating-point tolerances, which is all the methodology needs.
//!
//! ## Example
//!
//! ```rust
//! use contrarc_milp::{Model, Sense, SolveOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut model = Model::new("knapsack");
//! let x = model.add_binary("x");
//! let y = model.add_binary("y");
//! let z = model.add_binary("z");
//! // weights 3, 4, 5; capacity 7; values 4, 5, 6
//! model.add_constr("cap", 3.0 * x + 4.0 * y + 5.0 * z, contrarc_milp::Cmp::Le, 7.0)?;
//! model.set_objective(Sense::Maximize, 4.0 * x + 5.0 * y + 6.0 * z);
//! let outcome = model.solve(&SolveOptions::default())?;
//! let solution = outcome.expect_optimal()?;
//! assert!((solution.objective() - 9.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod constraint;
pub mod encode;
mod error;
mod expr;
mod model;
mod presolve;
mod solution;
pub(crate) mod solver;
mod standard_form;
mod var;

pub use constraint::{Cmp, ConstrId, Constraint};
pub use error::SolveError;
pub use expr::LinExpr;
pub use model::{Model, ModelStats, Sense};
pub use solution::{Outcome, Solution, SolveStats, Status};
pub use solver::budget::{Budget, Deadline};
#[cfg(feature = "fault-injection")]
pub use solver::faults::{FaultKind, FaultPlan};
pub use solver::{SolveOptions, Solver, WarmStart};
pub use var::{VarDef, VarId, VarType};
