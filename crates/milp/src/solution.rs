//! Solve outcomes, solutions, and statistics.

use crate::error::SolveError;
use crate::var::VarId;
use std::fmt;

/// Terminal status of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    /// An optimal solution was found.
    Optimal,
    /// The problem has no feasible solution.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Status::Optimal => f.write_str("optimal"),
            Status::Infeasible => f.write_str("infeasible"),
            Status::Unbounded => f.write_str("unbounded"),
        }
    }
}

/// Statistics collected during a solve.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SolveStats {
    /// Total simplex pivots across all LP relaxations.
    pub simplex_iterations: u64,
    /// Branch-and-bound nodes processed (1 for a pure LP).
    pub nodes: u64,
    /// Wall-clock solve time in seconds.
    pub time_secs: f64,
    /// Retries the solver needed to absorb [`SolveError::Numerical`]
    /// failures (0 on a clean solve).
    ///
    /// [`SolveError::Numerical`]: crate::SolveError::Numerical
    pub numerical_retries: u64,
}

impl fmt::Display for SolveStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nodes, {} pivots, {:.3} s",
            self.nodes, self.simplex_iterations, self.time_secs
        )?;
        if self.numerical_retries > 0 {
            write!(f, " ({} numerical retries)", self.numerical_retries)?;
        }
        Ok(())
    }
}

/// A feasible assignment with its objective value.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    values: Vec<f64>,
    objective: f64,
}

impl Solution {
    pub(crate) fn new(values: Vec<f64>, objective: f64) -> Self {
        Solution { values, objective }
    }

    /// Value of a variable in this solution.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to the solved model.
    #[must_use]
    pub fn value(&self, v: VarId) -> f64 {
        self.values[v.index()]
    }

    /// Value of a variable rounded to the nearest integer — convenient for
    /// binary and integer variables that are integral only up to tolerance.
    #[must_use]
    pub fn value_rounded(&self, v: VarId) -> i64 {
        self.values[v.index()].round() as i64
    }

    /// Whether a binary variable is set (value rounds to 1).
    #[must_use]
    pub fn is_set(&self, v: VarId) -> bool {
        self.value_rounded(v) == 1
    }

    /// Objective value of this solution.
    #[must_use]
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// The full assignment, indexed by `VarId::index()`.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// The answer to an optimization question.
///
/// `Outcome` separates *answers* (optimal/infeasible/unbounded) from *errors*
/// (limits, numerical failures), which are carried by
/// [`SolveError`] instead.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Optimal solution found.
    Optimal {
        /// The optimal assignment.
        solution: Solution,
        /// Solve statistics.
        stats: SolveStats,
    },
    /// No feasible assignment exists.
    Infeasible {
        /// Solve statistics.
        stats: SolveStats,
    },
    /// The objective can be improved without bound.
    Unbounded {
        /// Solve statistics.
        stats: SolveStats,
    },
}

impl Outcome {
    /// Terminal status of this outcome.
    #[must_use]
    pub fn status(&self) -> Status {
        match self {
            Outcome::Optimal { .. } => Status::Optimal,
            Outcome::Infeasible { .. } => Status::Infeasible,
            Outcome::Unbounded { .. } => Status::Unbounded,
        }
    }

    /// Solve statistics regardless of status.
    #[must_use]
    pub fn stats(&self) -> &SolveStats {
        match self {
            Outcome::Optimal { stats, .. }
            | Outcome::Infeasible { stats }
            | Outcome::Unbounded { stats } => stats,
        }
    }

    /// Mutable solve statistics regardless of status.
    pub fn stats_mut(&mut self) -> &mut SolveStats {
        match self {
            Outcome::Optimal { stats, .. }
            | Outcome::Infeasible { stats }
            | Outcome::Unbounded { stats } => stats,
        }
    }

    /// The optimal solution, if this outcome is optimal.
    #[must_use]
    pub fn solution(&self) -> Option<&Solution> {
        match self {
            Outcome::Optimal { solution, .. } => Some(solution),
            _ => None,
        }
    }

    /// Whether a feasible solution exists (i.e. the outcome is optimal).
    ///
    /// For pure feasibility queries (constant objective) this is the SAT
    /// answer used by contract refinement checking.
    #[must_use]
    pub fn is_feasible(&self) -> bool {
        matches!(self, Outcome::Optimal { .. } | Outcome::Unbounded { .. })
    }

    /// Unwrap the optimal solution.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Numerical`] describing the actual status if the
    /// outcome is not optimal. This keeps call sites that *require* an
    /// optimum concise while still surfacing a useful message.
    pub fn expect_optimal(self) -> Result<Solution, SolveError> {
        match self {
            Outcome::Optimal { solution, .. } => Ok(solution),
            other => Err(SolveError::Numerical(format!(
                "expected an optimal solution but the model is {}",
                other.status()
            ))),
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Optimal { solution, stats } => {
                write!(f, "optimal (objective {}, {})", solution.objective(), stats)
            }
            Outcome::Infeasible { stats } => write!(f, "infeasible ({stats})"),
            Outcome::Unbounded { stats } => write!(f, "unbounded ({stats})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sol() -> Solution {
        Solution::new(vec![0.0, 0.999_999_9, 2.0], 5.0)
    }

    #[test]
    fn value_access() {
        let s = sol();
        assert_eq!(s.value(VarId::from_index(2)), 2.0);
        assert_eq!(s.value_rounded(VarId::from_index(1)), 1);
        assert!(s.is_set(VarId::from_index(1)));
        assert!(!s.is_set(VarId::from_index(0)));
        assert_eq!(s.objective(), 5.0);
        assert_eq!(s.values().len(), 3);
    }

    #[test]
    fn outcome_accessors() {
        let o = Outcome::Optimal {
            solution: sol(),
            stats: SolveStats::default(),
        };
        assert_eq!(o.status(), Status::Optimal);
        assert!(o.is_feasible());
        assert!(o.solution().is_some());
        assert!(o.clone().expect_optimal().is_ok());

        let i = Outcome::Infeasible {
            stats: SolveStats::default(),
        };
        assert_eq!(i.status(), Status::Infeasible);
        assert!(!i.is_feasible());
        assert!(i.solution().is_none());
        assert!(i.expect_optimal().is_err());

        let u = Outcome::Unbounded {
            stats: SolveStats::default(),
        };
        assert_eq!(u.status(), Status::Unbounded);
        assert!(u.is_feasible(), "an unbounded problem has feasible points");
    }

    #[test]
    fn displays() {
        assert_eq!(Status::Optimal.to_string(), "optimal");
        assert_eq!(Status::Infeasible.to_string(), "infeasible");
        assert_eq!(Status::Unbounded.to_string(), "unbounded");
        let o = Outcome::Infeasible {
            stats: SolveStats::default(),
        };
        assert!(o.to_string().contains("infeasible"));
    }
}
