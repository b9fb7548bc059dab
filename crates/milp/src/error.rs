//! Solver error type.

use std::error::Error;
use std::fmt;

/// Errors produced while building or solving a model.
///
/// Infeasibility and unboundedness are *not* errors — they are reported
/// through [`Outcome`](crate::Outcome) because they are meaningful answers to
/// an optimization question. `SolveError` covers malformed input and
/// exhausted resource limits, where no answer is known.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SolveError {
    /// The model is structurally invalid (unknown variable, NaN coefficient,
    /// inverted bounds, ...).
    InvalidModel(String),
    /// The caller's simplex pivot budget was exhausted before convergence.
    IterationLimit {
        /// Limit that was hit.
        limit: u64,
    },
    /// The caller's branch-and-bound node budget was exhausted before the
    /// tree was.
    NodeLimit {
        /// Limit that was hit.
        limit: u64,
    },
    /// The wall-clock time limit was exceeded.
    TimeLimit {
        /// Limit in seconds that was hit.
        limit_secs: f64,
    },
    /// The solver detected numerical trouble it could not recover from.
    Numerical(String),
    /// The solver reached one of its own caps: 500,000 simplex pivots in one
    /// LP, or 2,000,000 branch-and-bound nodes in one solve. A failure of
    /// the solver, not the exhaustion of a caller's budget.
    EngineLimit {
        /// What the cap counts.
        what: &'static str,
        /// The cap.
        limit: u64,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::InvalidModel(msg) => write!(f, "invalid model: {msg}"),
            SolveError::IterationLimit { limit } => {
                write!(f, "simplex iteration limit of {limit} exceeded")
            }
            SolveError::NodeLimit { limit } => {
                write!(f, "branch-and-bound node limit of {limit} exceeded")
            }
            SolveError::TimeLimit { limit_secs } => {
                write!(f, "time limit of {limit_secs} s exceeded")
            }
            SolveError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
            SolveError::EngineLimit { what, limit } => {
                write!(f, "solver engine cap of {limit} {what} reached")
            }
        }
    }
}

impl Error for SolveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(SolveError::InvalidModel("x".into())
            .to_string()
            .contains("invalid model"));
        assert!(SolveError::IterationLimit { limit: 9 }
            .to_string()
            .contains('9'));
        assert!(SolveError::NodeLimit { limit: 3 }.to_string().contains('3'));
        assert!(SolveError::TimeLimit { limit_secs: 1.5 }
            .to_string()
            .contains("1.5"));
        assert!(SolveError::Numerical("bad pivot".into())
            .to_string()
            .contains("bad pivot"));
        let cap = SolveError::EngineLimit {
            what: "simplex pivots per LP",
            limit: 500_000,
        };
        assert_eq!(
            cap.to_string(),
            "solver engine cap of 500000 simplex pivots per LP reached"
        );
    }

    #[test]
    fn error_trait_object_safe() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<SolveError>();
    }
}
