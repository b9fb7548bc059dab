//! Job-facing types of the exploration server: specs, identities, admission
//! errors, status snapshots, and the incumbent stream.

use contrarc::{Exploration, ExplorerConfig, Problem};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Unique identity of a submitted job within one [`JobServer`].
///
/// [`JobServer`]: crate::JobServer
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Everything needed to run one exploration as a server job.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Tenant/job label, used in traces and incumbent events. Not required
    /// to be unique.
    pub name: String,
    /// The exploration problem (owned: jobs outlive the submitting caller).
    pub problem: Problem,
    /// Exploration configuration (budgets, pruning semantics).
    pub config: ExplorerConfig,
    /// Admission weight — the budget currency of the server's admission
    /// control. The server admits jobs while the aggregate weight of running
    /// work stays within [`ServerConfig::capacity`]; excess weight queues up
    /// to [`ServerConfig::queue_limit`] and is rejected beyond that.
    ///
    /// [`ServerConfig::capacity`]: crate::ServerConfig::capacity
    /// [`ServerConfig::queue_limit`]: crate::ServerConfig::queue_limit
    pub weight: f64,
}

impl JobSpec {
    /// A job with the default exploration configuration and weight 1.
    #[must_use]
    pub fn new(name: impl Into<String>, problem: Problem) -> Self {
        JobSpec {
            name: name.into(),
            problem,
            config: ExplorerConfig::complete(),
            weight: 1.0,
        }
    }

    /// Replace the exploration configuration.
    #[must_use]
    pub fn with_config(mut self, config: ExplorerConfig) -> Self {
        self.config = config;
        self
    }

    /// Replace the admission weight.
    #[must_use]
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }
}

/// Structured admission-control rejection. Overload never panics or hangs a
/// submission — it returns one of these, with the numbers that explain it.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionError {
    /// The job's weight exceeds the server's total running capacity, so it
    /// could never be scheduled.
    TooLarge {
        /// The job's declared weight.
        requested: f64,
        /// The server's running-weight capacity.
        capacity: f64,
    },
    /// Aggregate admitted weight (running + queued) would exceed capacity
    /// plus the queue allowance.
    Overloaded {
        /// The job's declared weight.
        requested: f64,
        /// Weight currently admitted (running + queued).
        in_flight: f64,
        /// Maximum admissible aggregate weight (capacity + queue limit).
        limit: f64,
    },
    /// The server is draining and accepts no new work.
    Draining,
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::TooLarge {
                requested,
                capacity,
            } => write!(
                f,
                "job weight {requested} exceeds server capacity {capacity}"
            ),
            AdmissionError::Overloaded {
                requested,
                in_flight,
                limit,
            } => write!(
                f,
                "admitting weight {requested} on top of {in_flight} in flight \
                 would exceed the admission limit {limit}"
            ),
            AdmissionError::Draining => write!(f, "server is draining; submissions closed"),
        }
    }
}

impl Error for AdmissionError {}

/// Point-in-time snapshot of a job's lifecycle state.
// The `Done` payload dominates the enum size, but statuses are produced
// once per poll and immediately consumed; boxing would push unwrapping
// onto every caller for no measurable win.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum JobStatus {
    /// Waiting for capacity (or for a retry backoff to elapse).
    Queued {
        /// Position in the admission queue (0 = next).
        position: usize,
        /// Execution attempts so far (>0 after a supervised failure).
        attempts: u32,
    },
    /// Executing on a worker.
    Running {
        /// Execution attempts including the current one.
        attempts: u32,
    },
    /// Terminal: the exploration settled. Cancelled and deadline-expired
    /// jobs settle here too, as [`Exploration::Partial`] with the harvested
    /// incumbent — graceful degradation, not an error.
    Done {
        /// The exploration outcome.
        result: Exploration,
        /// How many times the job was recovered onto another attempt after a
        /// worker failure (resumed from a checkpoint or restarted).
        recoveries: u32,
    },
    /// Terminal: cancelled while still queued (nothing was learned).
    Cancelled,
    /// Terminal: the job failed [`ServerConfig::max_attempts`] times and is
    /// quarantined as a poison job.
    ///
    /// [`ServerConfig::max_attempts`]: crate::ServerConfig::max_attempts
    Quarantined {
        /// Execution attempts consumed.
        attempts: u32,
        /// Rendering of the last failure (panic message or solver error).
        last_error: String,
    },
}

impl JobStatus {
    /// Whether the job has reached a terminal state.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobStatus::Done { .. } | JobStatus::Cancelled | JobStatus::Quarantined { .. }
        )
    }

    /// The exploration result, when the job settled with one.
    #[must_use]
    pub fn result(&self) -> Option<&Exploration> {
        match self {
            JobStatus::Done { result, .. } => Some(result),
            _ => None,
        }
    }
}

/// One improvement on a job's anytime incumbent stream: a new candidate was
/// decoded (or the final optimum verified). Delivered at least once per
/// candidate — a recovered job may replay events from its resume point.
#[derive(Debug, Clone)]
pub struct IncumbentEvent {
    /// The job.
    pub job: JobId,
    /// The job's label.
    pub name: String,
    /// Cost of the new incumbent candidate.
    pub cost: f64,
    /// Proven lower bound on the optimal cost at this point.
    pub lower_bound: Option<f64>,
    /// Lazy-loop iteration that produced the candidate.
    pub iteration: usize,
    /// Whether this incumbent is the verified optimum (terminal event).
    pub verified: bool,
}

/// Callback receiving [`IncumbentEvent`]s as explorations improve. Called
/// from worker threads; must not block for long.
pub type IncumbentCallback = Arc<dyn Fn(&IncumbentEvent) + Send + Sync>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_errors_state_their_reason() {
        let e = AdmissionError::TooLarge {
            requested: 8.0,
            capacity: 4.0,
        };
        assert!(e.to_string().contains("exceeds server capacity 4"));
        let e = AdmissionError::Overloaded {
            requested: 1.0,
            in_flight: 7.0,
            limit: 7.5,
        };
        assert!(e.to_string().contains("admission limit 7.5"));
        assert!(AdmissionError::Draining.to_string().contains("draining"));
    }

    #[test]
    fn job_id_renders_compactly() {
        assert_eq!(JobId(7).to_string(), "job-7");
    }
}
