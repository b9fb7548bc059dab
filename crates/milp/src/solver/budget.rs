//! Shared wall-clock and work budgets for anytime solving.
//!
//! An exploration issues many MILP solves (candidate selection, refinement
//! queries, certificate strengthening). A [`Deadline`] is an **absolute**
//! expiry instant: create it once per exploration, clone it into every
//! `SolveOptions`, and every simplex pivot loop and branch-and-bound node
//! naturally sees the remaining — not the full — allowance.
//!
//! A [`Budget`] bundles a deadline with cumulative node and pivot allowances
//! whose counters are *shared across clones* (`Arc<AtomicU64>`), so the total
//! work of an exploration is capped even though each solve clones the
//! options.

use crate::error::SolveError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An absolute wall-clock expiry shared by every solve of an exploration.
///
/// Unlike a relative time limit, cloning a `Deadline` does not restart the
/// clock: all clones expire at the same instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deadline {
    expires_at: Option<Instant>,
    /// The total seconds the deadline was created with, kept for error
    /// reporting ([`SolveError::TimeLimit`] carries it).
    nominal_secs: Option<f64>,
}

impl Default for Deadline {
    fn default() -> Self {
        Deadline::unlimited()
    }
}

impl Deadline {
    /// A deadline that never expires.
    #[must_use]
    pub const fn unlimited() -> Self {
        Deadline {
            expires_at: None,
            nominal_secs: None,
        }
    }

    /// A deadline `secs` from now. Non-positive `secs` yields an
    /// already-expired deadline; non-finite or astronomically large `secs`
    /// yields an unlimited one.
    #[must_use]
    pub fn in_secs(secs: f64) -> Self {
        Deadline::in_secs_from(Instant::now(), secs)
    }

    /// A deadline `secs` after `start`, under the rules of
    /// [`Deadline::in_secs`].
    #[must_use]
    pub fn in_secs_from(start: Instant, secs: f64) -> Self {
        if !secs.is_finite() || secs >= 1e15 {
            return Deadline::unlimited();
        }
        let expires_at = if secs <= 0.0 {
            Some(start)
        } else {
            start.checked_add(Duration::from_secs_f64(secs))
        };
        match expires_at {
            Some(t) => Deadline {
                expires_at: Some(t),
                nominal_secs: Some(secs),
            },
            None => Deadline::unlimited(),
        }
    }

    /// Whether the deadline has passed.
    #[must_use]
    pub fn expired(&self) -> bool {
        match self.expires_at {
            Some(t) => Instant::now() >= t,
            None => false,
        }
    }

    /// The total seconds this deadline was created with, when known.
    #[must_use]
    pub fn nominal_secs(&self) -> Option<f64> {
        self.nominal_secs
    }

    /// The earlier of two deadlines.
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        match (self.expires_at, other.expires_at) {
            (Some(a), Some(b)) => {
                if a <= b {
                    self
                } else {
                    other
                }
            }
            (Some(_), None) => self,
            (None, _) => other,
        }
    }

    /// This deadline tightened by a relative limit starting now; `None`
    /// leaves it unchanged: a run limited both ways stops at whichever
    /// comes first.
    #[must_use]
    pub fn tightened_by_secs(self, limit: Option<f64>) -> Self {
        match limit {
            Some(secs) => self.min(Deadline::in_secs(secs)),
            None => self,
        }
    }

    /// The error a computation should return when it stops at this deadline.
    #[must_use]
    pub fn to_error(&self) -> SolveError {
        SolveError::TimeLimit {
            limit_secs: self.nominal_secs.unwrap_or(0.0),
        }
    }
}

/// Cumulative work allowances shared by every solve of an exploration.
///
/// Cloning a `Budget` clones the *handles*: the node and pivot counters are
/// behind `Arc`s, so work charged through any clone is visible to all of
/// them. Limits and the deadline are plain values.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    deadline: Deadline,
    node_limit: Option<u64>,
    pivot_limit: Option<u64>,
    nodes_used: Arc<AtomicU64>,
    pivots_used: Arc<AtomicU64>,
}

impl PartialEq for Budget {
    /// Configuration equality: limits and deadline. Counter *identity* is
    /// deliberately ignored so that options equality remains a statement
    /// about how a solve is configured, not which exploration it belongs to.
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline
            && self.node_limit == other.node_limit
            && self.pivot_limit == other.pivot_limit
    }
}

impl Budget {
    /// A budget with no limits at all.
    #[must_use]
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Replace the wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// Cap total branch-and-bound nodes across all solves sharing this
    /// budget.
    #[must_use]
    pub fn with_node_limit(mut self, limit: u64) -> Self {
        self.node_limit = Some(limit);
        self
    }

    /// Cap total simplex pivots across all solves sharing this budget.
    #[must_use]
    pub fn with_pivot_limit(mut self, limit: u64) -> Self {
        self.pivot_limit = Some(limit);
        self
    }

    /// The shared deadline.
    #[must_use]
    pub fn deadline(&self) -> Deadline {
        self.deadline
    }

    /// Nodes charged so far across every clone.
    #[must_use]
    pub fn nodes_used(&self) -> u64 {
        self.nodes_used.load(Ordering::Relaxed)
    }

    /// Pivots charged so far across every clone.
    #[must_use]
    pub fn pivots_used(&self) -> u64 {
        self.pivots_used.load(Ordering::Relaxed)
    }

    /// Pre-load the counters, e.g. when resuming from a checkpoint so that
    /// the work done before the interruption still counts against the limits.
    pub fn restore_usage(&self, nodes: u64, pivots: u64) {
        self.nodes_used.store(nodes, Ordering::Relaxed);
        self.pivots_used.store(pivots, Ordering::Relaxed);
    }

    /// Charge `n` branch-and-bound nodes.
    ///
    /// # Errors
    ///
    /// [`SolveError::NodeLimit`] once the cumulative count exceeds the limit.
    pub fn charge_nodes(&self, n: u64) -> Result<(), SolveError> {
        let used = self.nodes_used.fetch_add(n, Ordering::Relaxed) + n;
        match self.node_limit {
            Some(limit) if used > limit => Err(SolveError::NodeLimit { limit }),
            _ => Ok(()),
        }
    }

    /// Charge `n` simplex pivots.
    ///
    /// # Errors
    ///
    /// [`SolveError::IterationLimit`] once the cumulative count exceeds the
    /// limit.
    pub fn charge_pivots(&self, n: u64) -> Result<(), SolveError> {
        let used = self.pivots_used.fetch_add(n, Ordering::Relaxed) + n;
        match self.pivot_limit {
            Some(limit) if used > limit => Err(SolveError::IterationLimit { limit }),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_expires() {
        let d = Deadline::unlimited();
        assert!(!d.expired());
        assert_eq!(d, Deadline::default());
        assert_eq!(d.nominal_secs(), None);
    }

    #[test]
    fn zero_budget_is_already_expired() {
        assert!(Deadline::in_secs(0.0).expired());
        assert!(Deadline::in_secs(-5.0).expired());
    }

    #[test]
    fn clones_share_expiry() {
        let d = Deadline::in_secs(3600.0);
        let c = d;
        assert_eq!(d, c);
        assert_eq!(d.expires_at, c.expires_at);
        assert!(d.expires_at.is_some());
    }

    #[test]
    fn min_picks_the_earlier() {
        let long = Deadline::in_secs(1000.0);
        let short = Deadline::in_secs(0.0);
        assert!(long.min(short).expired());
        assert!(short.min(long).expired());
        assert!(!long.min(Deadline::unlimited()).expired());
        assert!(Deadline::unlimited().min(short).expired());
    }

    #[test]
    fn tightening_composes_relative_limits() {
        let d = Deadline::unlimited().tightened_by_secs(Some(0.0));
        assert!(d.expired());
        let d = Deadline::in_secs(0.0).tightened_by_secs(Some(1000.0));
        assert!(d.expired());
        let d = Deadline::unlimited().tightened_by_secs(None);
        assert_eq!(d, Deadline::unlimited());
    }

    #[test]
    fn deadline_counts_from_its_start() {
        let start = Instant::now()
            .checked_sub(Duration::from_millis(50))
            .expect("the monotonic clock has run for 50 ms");
        let d = Deadline::in_secs_from(start, 0.01);
        assert!(d.expired(), "10 ms after an instant 50 ms ago has passed");
        assert_eq!(d.nominal_secs(), Some(0.01));
        let d = Deadline::in_secs_from(start, 1000.0);
        assert!(!d.expired());
        let remaining = d.expires_at.unwrap().duration_since(Instant::now());
        assert!(remaining.as_secs_f64() < 1000.0 - 0.04);
    }

    #[test]
    fn budget_counters_are_shared_across_clones() {
        let b = Budget::unlimited().with_node_limit(10);
        let c = b.clone();
        b.charge_nodes(4).unwrap();
        c.charge_nodes(4).unwrap();
        assert_eq!(b.nodes_used(), 8);
        assert_eq!(c.nodes_used(), 8);
        assert!(matches!(
            b.charge_nodes(4),
            Err(SolveError::NodeLimit { limit: 10 })
        ));
    }

    #[test]
    fn pivot_budget_enforced() {
        let b = Budget::unlimited().with_pivot_limit(5);
        b.charge_pivots(5).unwrap();
        assert!(matches!(
            b.charge_pivots(1),
            Err(SolveError::IterationLimit { limit: 5 })
        ));
    }

    #[test]
    fn restore_usage_counts_against_limits() {
        let b = Budget::unlimited().with_node_limit(10);
        b.restore_usage(9, 0);
        b.charge_nodes(1).unwrap();
        assert!(b.charge_nodes(1).is_err());
    }

    #[test]
    fn budget_equality_ignores_counters() {
        let a = Budget::unlimited().with_node_limit(7);
        let b = Budget::unlimited().with_node_limit(7);
        a.charge_nodes(3).unwrap();
        assert_eq!(a, b);
    }
}
