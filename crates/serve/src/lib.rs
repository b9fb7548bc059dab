//! Fault-tolerant multi-tenant exploration job server.
//!
//! `contrarc-serve` turns the resumable exploration loop of the core crate
//! into a long-running service: many tenants submit contract-exploration
//! jobs, a supervised pool of persistent workers runs them concurrently,
//! and every failure mode the workspace can inject — worker panics, torn
//! checkpoint writes, solver faults, overload, cancellation, shutdown — is
//! survived with a defined, deterministic outcome.
//!
//! The load-bearing pieces:
//!
//! - **Admission control** ([`JobServer::submit`]): budget-denominated by a
//!   per-job weight. Running weight never exceeds
//!   [`ServerConfig::capacity`]; overflow queues up to
//!   [`ServerConfig::queue_limit`] and is rejected beyond that with a
//!   structured [`AdmissionError`] stating the reason and the numbers.
//! - **Supervision**: every attempt runs under `catch_unwind`; a panicking
//!   worker never poisons the pool. Failed attempts retry with exponential
//!   backoff, and after [`ServerConfig::max_attempts`] failures the job is
//!   quarantined as poison ([`JobStatus::Quarantined`]) instead of
//!   crash-looping forever.
//! - **Checkpoint-based recovery**: workers periodically serialize the
//!   explorer's learned state (certificate cuts, objective floor, budget
//!   usage) into two shared slots. A retry — on any worker — resumes from
//!   the latest checkpoint that parses, falling back to the previous one
//!   and then to scratch. Because the exploration loop is deterministic
//!   from any valid prefix, the final incumbent and lower bound are
//!   bit-identical along every recovery path.
//! - **Graceful degradation**: cancellation and shutdown harvest the
//!   incumbent and lower bound into [`Exploration::Partial`] with
//!   [`StopReason::Cancelled`] rather than discarding the work; per-job
//!   deadlines and work budgets degrade the same way via the core crate's
//!   anytime contract.
//! - **Observability**: aggregate metrics (`serve.*` counters and gauges —
//!   queue depth, running jobs, busy workers, retries, recoveries,
//!   quarantines, checkpoint writes and corruptions) through
//!   `contrarc-obs`; per-job JSONL lifecycle traces via
//!   [`ServerConfig::trace_dir`], each closed by a final metrics snapshot;
//!   and an anytime incumbent stream via [`ServerConfig::on_incumbent`].
//!
//! With the `fault-injection` cargo feature, `ChaosConfig` arms a
//! deterministic chaos schedule (seeded worker panics and torn checkpoint
//! writes) used by the chaos test suite to prove the recovery claims.
//!
//! [`Exploration::Partial`]: contrarc::Exploration::Partial
//! [`StopReason::Cancelled`]: contrarc::StopReason::Cancelled

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod job;
mod server;
mod trace;

#[cfg(feature = "fault-injection")]
mod chaos;

#[cfg(feature = "fault-injection")]
pub use chaos::ChaosConfig;
pub use job::{AdmissionError, IncumbentCallback, IncumbentEvent, JobId, JobSpec, JobStatus};
pub use server::{JobConfig, JobServer, ServerConfig};
