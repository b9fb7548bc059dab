//! The supervised multi-tenant job server.
//!
//! A [`JobServer`] owns a pool of persistent worker threads and a queue of
//! admitted exploration jobs. Admission control is budget-denominated: each
//! job declares a weight, the aggregate weight of running work never exceeds
//! [`ServerConfig::capacity`], and submissions beyond the queue allowance
//! are rejected with a structured [`AdmissionError`] rather than queued
//! unboundedly.
//!
//! Supervision: every attempt runs under `catch_unwind`, so a panicking
//! worker never takes the pool down — the failure is recorded, the job goes
//! back on the queue with exponential backoff, and after
//! [`ServerConfig::max_attempts`] failures it is quarantined as a poison
//! job. Between steps the worker checkpoints the explorer's learned state
//! (cuts, objective floor, budget usage) into shared slots, so a retry —
//! possibly on a *different* worker — resumes from the last good checkpoint
//! with cuts and incumbent intact instead of restarting from scratch. Two
//! slots are kept (latest and previous) so a checkpoint torn mid-write
//! falls back to the one before it, and failing that, to scratch; the
//! deterministic exploration loop makes the final result identical along
//! every one of these paths.

use crate::job::{AdmissionError, IncumbentEvent, JobId, JobSpec, JobStatus};
use crate::trace::{Field, TraceSink};
use contrarc::{Exploration, ExploreError, Explorer, Step, StopReason};
use contrarc_obs::metrics::{counter_add, gauge_add, gauge_set, snapshot};
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Instant;

/// Configuration of a [`JobServer`].
#[derive(Clone)]
pub struct ServerConfig {
    /// Persistent worker threads in the pool.
    pub workers: usize,
    /// Aggregate weight of concurrently *running* jobs. Jobs whose weight
    /// would push the running total past this wait in the queue.
    pub capacity: f64,
    /// Additional aggregate weight allowed to *queue* beyond `capacity`.
    /// Submissions past `capacity + queue_limit` are rejected with
    /// [`AdmissionError::Overloaded`].
    pub queue_limit: f64,
    /// Execution attempts per job before it is quarantined as poison.
    pub max_attempts: u32,
    /// Base of the exponential retry backoff: attempt `n` waits
    /// `backoff_base_ms · 2^(n-1)` milliseconds before becoming eligible
    /// again.
    pub backoff_base_ms: u64,
    /// Ceiling on the retry backoff.
    pub backoff_cap_ms: u64,
    /// Checkpoint the explorer every this many exploration steps. `0`
    /// disables periodic checkpointing (retries then restart from scratch).
    pub checkpoint_every: u64,
    /// Callback receiving [`IncumbentEvent`]s from all jobs as their
    /// anytime incumbents improve.
    pub on_incumbent: Option<crate::job::IncumbentCallback>,
    /// Directory for per-job JSONL lifecycle traces; `None` disables
    /// tracing.
    pub trace_dir: Option<PathBuf>,
    /// Deterministic chaos schedule (seeded worker panics and torn
    /// checkpoint writes). Only present with the `fault-injection` feature.
    #[cfg(feature = "fault-injection")]
    pub chaos: Option<crate::chaos::ChaosConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            capacity: 4.0,
            queue_limit: 8.0,
            max_attempts: 3,
            backoff_base_ms: 5,
            backoff_cap_ms: 200,
            checkpoint_every: 1,
            on_incumbent: None,
            trace_dir: None,
            #[cfg(feature = "fault-injection")]
            chaos: None,
        }
    }
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("ServerConfig");
        s.field("workers", &self.workers)
            .field("capacity", &self.capacity)
            .field("queue_limit", &self.queue_limit)
            .field("max_attempts", &self.max_attempts)
            .field("backoff_base_ms", &self.backoff_base_ms)
            .field("backoff_cap_ms", &self.backoff_cap_ms)
            .field("checkpoint_every", &self.checkpoint_every)
            .field("on_incumbent", &self.on_incumbent.is_some())
            .field("trace_dir", &self.trace_dir);
        #[cfg(feature = "fault-injection")]
        s.field("chaos", &self.chaos);
        s.finish()
    }
}

/// Durable checkpoint slots of one job, shared between the supervisor state
/// and the worker currently running the job. Kept outside the job's phase so
/// they survive a panicking attempt.
#[derive(Debug, Default)]
struct CkptSlots {
    latest: Option<String>,
    prev: Option<String>,
}

impl CkptSlots {
    /// Shift `latest` into `prev` and install a new latest checkpoint. The
    /// previous slot is what recovery falls back to when `latest` turns out
    /// to be torn.
    fn store(&mut self, text: String) {
        self.prev = self.latest.take();
        self.latest = Some(text);
    }
}

// One `Phase` exists per job; the `Done` payload dwarfing the other
// variants is irrelevant at that population.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Phase {
    Queued { not_before: Instant },
    Running,
    Done { result: Exploration },
    Cancelled,
    Quarantined { last_error: String },
}

#[derive(Debug)]
struct Job {
    spec: Arc<JobSpec>,
    phase: Phase,
    attempts: u32,
    recoveries: u32,
    cancel: Arc<AtomicBool>,
    ckpt: Arc<Mutex<CkptSlots>>,
}

#[derive(Debug, Default)]
struct State {
    jobs: BTreeMap<u64, Job>,
    queue: VecDeque<u64>,
    running_weight: f64,
    queued_weight: f64,
    draining: bool,
    next_id: u64,
}

impl State {
    fn status_of(&self, id: u64) -> Option<JobStatus> {
        let job = self.jobs.get(&id)?;
        Some(match &job.phase {
            Phase::Queued { .. } => JobStatus::Queued {
                position: self.queue.iter().position(|&q| q == id).unwrap_or(0),
                attempts: job.attempts,
            },
            Phase::Running => JobStatus::Running {
                attempts: job.attempts,
            },
            Phase::Done { result } => JobStatus::Done {
                result: result.clone(),
                recoveries: job.recoveries,
            },
            Phase::Cancelled => JobStatus::Cancelled,
            Phase::Quarantined { last_error } => JobStatus::Quarantined {
                attempts: job.attempts,
                last_error: last_error.clone(),
            },
        })
    }

    fn all_terminal(&self) -> bool {
        self.jobs.values().all(|j| {
            matches!(
                j.phase,
                Phase::Done { .. } | Phase::Cancelled | Phase::Quarantined { .. }
            )
        })
    }

    fn publish_gauges(&self) {
        gauge_set("serve.queue.depth", self.queue.len() as i64);
        let running = self
            .jobs
            .values()
            .filter(|j| matches!(j.phase, Phase::Running))
            .count();
        gauge_set("serve.jobs.running", running as i64);
    }
}

#[derive(Debug)]
struct Inner {
    cfg: ServerConfig,
    state: Mutex<State>,
    /// Workers wait here for eligible work.
    wake: Condvar,
    /// Clients wait here for terminal transitions (`wait`, `drain`).
    settled: Condvar,
    shutdown: AtomicBool,
    trace: TraceSink,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Worker panics are caught and converted to job failures, but should
    // one ever poison a lock, the supervisor state itself is kept
    // consistent by the settle path — keep serving rather than wedge.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What one supervised attempt produced.
// Short-lived: constructed once per attempt and consumed immediately by
// `settle`, so the variant size skew does not matter.
#[allow(clippy::large_enum_variant)]
enum AttemptOutcome {
    /// The exploration settled (including graceful cancellation partials).
    Settled(Exploration),
    /// The attempt failed: a solver/encoding error or a caught worker
    /// panic, rendered for the retry ladder and the quarantine record.
    Failed(String),
}

/// A fault-tolerant, multi-tenant exploration job server.
///
/// ```no_run
/// # fn demo(problem: contrarc::Problem) {
/// use contrarc_serve::{JobServer, JobSpec, ServerConfig};
///
/// let server = JobServer::new(ServerConfig::default());
/// let id = server.submit(JobSpec::new("tenant-a", problem)).unwrap();
/// let status = server.wait(id).unwrap();
/// println!("{:?}", status.result());
/// # }
/// ```
///
/// Dropping the server shuts the pool down: running attempts settle as
/// [`Exploration::Partial`] with [`StopReason::Cancelled`] at their next
/// step boundary, still-queued jobs are left queued, and all workers are
/// joined.
#[derive(Debug)]
pub struct JobServer {
    inner: Arc<Inner>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl JobServer {
    /// Start the worker pool.
    #[must_use]
    pub fn new(cfg: ServerConfig) -> JobServer {
        let trace = TraceSink::new(cfg.trace_dir.clone());
        let workers = cfg.workers.max(1);
        let inner = Arc::new(Inner {
            cfg,
            state: Mutex::new(State::default()),
            wake: Condvar::new(),
            settled: Condvar::new(),
            shutdown: AtomicBool::new(false),
            trace,
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker thread")
            })
            .collect();
        JobServer {
            inner,
            workers: handles,
        }
    }

    /// Submit a job. Admission control answers immediately: `Ok` with the
    /// job's identity, or a structured [`AdmissionError`] stating why the
    /// job cannot be taken (never a panic, never a hang). Weights that are
    /// not strictly positive and finite are rejected as
    /// [`AdmissionError::TooLarge`].
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, AdmissionError> {
        let inner = &self.inner;
        let mut st = lock(&inner.state);
        if st.draining || inner.shutdown.load(Ordering::Acquire) {
            counter_add("serve.jobs.rejected", 1);
            return Err(AdmissionError::Draining);
        }
        let weight = spec.weight;
        if !weight.is_finite() || weight <= 0.0 || weight > inner.cfg.capacity {
            counter_add("serve.jobs.rejected", 1);
            return Err(AdmissionError::TooLarge {
                requested: weight,
                capacity: inner.cfg.capacity,
            });
        }
        let in_flight = st.running_weight + st.queued_weight;
        let limit = inner.cfg.capacity + inner.cfg.queue_limit;
        if in_flight + weight > limit {
            counter_add("serve.jobs.rejected", 1);
            return Err(AdmissionError::Overloaded {
                requested: weight,
                in_flight,
                limit,
            });
        }
        let id = st.next_id;
        st.next_id += 1;
        let name = spec.name.clone();
        st.jobs.insert(
            id,
            Job {
                spec: Arc::new(spec),
                phase: Phase::Queued {
                    not_before: Instant::now(),
                },
                attempts: 0,
                recoveries: 0,
                cancel: Arc::new(AtomicBool::new(false)),
                ckpt: Arc::new(Mutex::new(CkptSlots::default())),
            },
        );
        st.queue.push_back(id);
        st.queued_weight += weight;
        counter_add("serve.jobs.submitted", 1);
        st.publish_gauges();
        inner.trace.emit(
            JobId(id),
            "submitted",
            &[Field::Str("name", name), Field::Num("weight", weight)],
        );
        inner.wake.notify_all();
        Ok(JobId(id))
    }

    /// The job's current status, or `None` for an unknown identity.
    #[must_use]
    pub fn poll(&self, id: JobId) -> Option<JobStatus> {
        lock(&self.inner.state).status_of(id.0)
    }

    /// Request cancellation. A queued job transitions to
    /// [`JobStatus::Cancelled`] immediately; a running job settles as
    /// [`JobStatus::Done`] with an [`Exploration::Partial`] carrying
    /// [`StopReason::Cancelled`] and whatever incumbent it had at its next
    /// step boundary. Returns `false` when the job is unknown or already
    /// terminal.
    pub fn cancel(&self, id: JobId) -> bool {
        let inner = &self.inner;
        let mut st = lock(&inner.state);
        let Some(job) = st.jobs.get_mut(&id.0) else {
            return false;
        };
        match job.phase {
            Phase::Queued { .. } => {
                job.phase = Phase::Cancelled;
                let weight = job.spec.weight;
                st.queue.retain(|&q| q != id.0);
                st.queued_weight -= weight;
                counter_add("serve.jobs.cancelled", 1);
                st.publish_gauges();
                inner.trace.emit(id, "cancelled", &[]);
                emit_final_metrics(inner, id);
                inner.settled.notify_all();
                true
            }
            Phase::Running => {
                job.cancel.store(true, Ordering::Release);
                inner.trace.emit(id, "cancel_requested", &[]);
                true
            }
            Phase::Done { .. } | Phase::Cancelled | Phase::Quarantined { .. } => false,
        }
    }

    /// Block until the job reaches a terminal state and return it, or
    /// `None` for an unknown identity.
    #[must_use]
    pub fn wait(&self, id: JobId) -> Option<JobStatus> {
        let inner = &self.inner;
        let mut st = lock(&inner.state);
        loop {
            match st.status_of(id.0) {
                None => return None,
                Some(status) if status.is_terminal() => return Some(status),
                Some(_) => {
                    st = inner
                        .settled
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// Stop admitting new work, wait for every admitted job to settle, and
    /// return all terminal statuses in submission order. Further
    /// submissions are rejected with [`AdmissionError::Draining`].
    pub fn drain(&self) -> Vec<(JobId, JobStatus)> {
        let inner = &self.inner;
        let mut st = lock(&inner.state);
        st.draining = true;
        while !st.all_terminal() {
            st = inner
                .settled
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let ids: Vec<u64> = st.jobs.keys().copied().collect();
        ids.into_iter()
            .filter_map(|id| st.status_of(id).map(|s| (JobId(id), s)))
            .collect()
    }

    /// Remove a terminal job from the server, returning its final status.
    /// Running or queued jobs are not evicted (returns `None`; cancel
    /// first).
    pub fn take(&self, id: JobId) -> Option<JobStatus> {
        let mut st = lock(&self.inner.state);
        let status = st.status_of(id.0)?;
        if !status.is_terminal() {
            return None;
        }
        st.jobs.remove(&id.0);
        counter_add("serve.jobs.evicted", 1);
        Some(status)
    }

    /// Jobs currently waiting in the admission queue.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        lock(&self.inner.state).queue.len()
    }
}

impl Drop for JobServer {
    fn drop(&mut self) {
        // Set the flag under the state lock, which workers hold while they
        // read it before waiting on `wake`, so none can miss the notify.
        {
            let _state = lock(&self.inner.state);
            self.inner.shutdown.store(true, Ordering::Release);
        }
        self.inner.wake.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One claimed unit of work, extracted under the state lock and executed
/// outside it.
struct Claim {
    id: u64,
    spec: Arc<JobSpec>,
    attempt: u32,
    cancel: Arc<AtomicBool>,
    ckpt: Arc<Mutex<CkptSlots>>,
}

fn worker_loop(inner: &Inner) {
    loop {
        let Some(claim) = next_claim(inner) else {
            return; // shutdown
        };
        let outcome = match catch_unwind(AssertUnwindSafe(|| run_attempt(inner, &claim))) {
            Ok(Ok(result)) => AttemptOutcome::Settled(result),
            Ok(Err(err)) => AttemptOutcome::Failed(err.to_string()),
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                inner.trace.emit(
                    JobId(claim.id),
                    "worker_panic",
                    &[
                        Field::Int("attempt", u64::from(claim.attempt)),
                        Field::Str("message", message.clone()),
                    ],
                );
                AttemptOutcome::Failed(format!("worker panicked: {message}"))
            }
        };
        settle(inner, &claim, outcome);
    }
}

/// Block until an eligible queued job exists (its backoff has elapsed and
/// its weight fits the running capacity), claim it, and mark it running.
/// Returns `None` on shutdown.
fn next_claim(inner: &Inner) -> Option<Claim> {
    let mut st = lock(&inner.state);
    loop {
        if inner.shutdown.load(Ordering::Acquire) {
            return None;
        }
        let now = Instant::now();
        let mut chosen = None;
        let mut next_retry: Option<Instant> = None;
        for (pos, &id) in st.queue.iter().enumerate() {
            let job = &st.jobs[&id];
            let Phase::Queued { not_before } = job.phase else {
                continue;
            };
            if not_before > now {
                next_retry = Some(next_retry.map_or(not_before, |t| t.min(not_before)));
                continue;
            }
            if st.running_weight + job.spec.weight <= inner.cfg.capacity + 1e-9 {
                chosen = Some(pos);
                break;
            }
        }
        if let Some(pos) = chosen {
            let id = st.queue.remove(pos).expect("chosen position is in queue");
            let job = st.jobs.get_mut(&id).expect("queued job exists");
            job.phase = Phase::Running;
            job.attempts += 1;
            if job.attempts > 1 {
                job.recoveries += 1;
                counter_add("serve.recoveries", 1);
            }
            let weight = job.spec.weight;
            let claim = Claim {
                id,
                spec: Arc::clone(&job.spec),
                attempt: job.attempts,
                cancel: Arc::clone(&job.cancel),
                ckpt: Arc::clone(&job.ckpt),
            };
            st.queued_weight -= weight;
            st.running_weight += weight;
            gauge_add("serve.workers.busy", 1);
            st.publish_gauges();
            return Some(claim);
        }
        st = match next_retry {
            Some(at) => {
                inner
                    .wake
                    .wait_timeout(st, at.saturating_duration_since(now))
                    .unwrap_or_else(PoisonError::into_inner)
                    .0
            }
            None => inner.wake.wait(st).unwrap_or_else(PoisonError::into_inner),
        };
    }
}

/// Run one supervised attempt of a job: resolve the starting point (latest
/// checkpoint → previous checkpoint → scratch), then drive the explorer
/// step by step, checkpointing on the configured cadence and honouring
/// cancellation and shutdown between steps.
fn run_attempt(inner: &Inner, claim: &Claim) -> Result<Exploration, ExploreError> {
    let id = JobId(claim.id);
    let spec = &claim.spec;
    #[cfg(feature = "fault-injection")]
    let chaos = inner
        .cfg
        .chaos
        .as_ref()
        .map_or(crate::chaos::AttemptChaos::CLEAN, |c| {
            crate::chaos::plan_attempt(c, claim.id, claim.attempt, inner.cfg.max_attempts)
        });

    let (mut explorer, resume_src) = resolve_start(inner, id, spec, &claim.ckpt)?;
    inner.trace.emit(
        id,
        "attempt_start",
        &[
            Field::Int("attempt", u64::from(claim.attempt)),
            Field::Str("resume", resume_src.to_string()),
        ],
    );

    let mut steps: u64 = 0;
    loop {
        let stopped =
            inner.shutdown.load(Ordering::Acquire) || claim.cancel.load(Ordering::Acquire);
        let step = if stopped {
            // Graceful degradation: everything learned so far.
            Step::Exhausted(StopReason::Cancelled)
        } else {
            steps += 1;
            explorer.step()?
        };
        match &step {
            Step::Pruned { candidate, .. } => {
                fire_incumbent(inner, id, spec, &explorer, candidate.cost(), false);
            }
            Step::Optimal(arch) => {
                fire_incumbent(inner, id, spec, &explorer, arch.cost(), true);
            }
            Step::Infeasible | Step::Exhausted(_) => {}
        }
        if let Some(done) = explorer.conclude(step) {
            return Ok(done);
        }

        #[cfg(feature = "fault-injection")]
        if chaos.panic_after_steps == Some(steps) {
            if let Some(draw) = chaos.tear_before_panic {
                let torn = crate::chaos::torn_write(&explorer.checkpoint().to_text(), draw);
                lock(&claim.ckpt).store(torn);
                counter_add("serve.checkpoints.written", 1);
                inner.trace.emit(
                    id,
                    "checkpoint",
                    &[Field::Int("step", steps), Field::Str("torn", "true".into())],
                );
            }
            panic!(
                "chaos: injected worker panic ({id}, attempt {}, step {steps})",
                claim.attempt
            );
        }

        if inner.cfg.checkpoint_every > 0 && steps.is_multiple_of(inner.cfg.checkpoint_every) {
            let text = explorer.checkpoint().to_text();
            lock(&claim.ckpt).store(text);
            counter_add("serve.checkpoints.written", 1);
            inner
                .trace
                .emit(id, "checkpoint", &[Field::Int("step", steps)]);
        }
    }
}

/// Resolve the starting explorer for an attempt: the latest checkpoint if
/// it parses, else the previous one, else a fresh exploration. Corrupt
/// checkpoints are counted and traced, never fatal — losing a checkpoint
/// costs recomputation, not correctness, because the exploration loop is
/// deterministic from any valid prefix.
fn resolve_start<'p>(
    inner: &Inner,
    id: JobId,
    spec: &'p JobSpec,
    ckpt: &Mutex<CkptSlots>,
) -> Result<(Explorer<'p>, &'static str), ExploreError> {
    let slots = lock(ckpt);
    for (slot, text) in [("latest", &slots.latest), ("prev", &slots.prev)] {
        let Some(text) = text else { continue };
        match Explorer::resume_from_text(&spec.problem, spec.config.clone(), text) {
            Ok(explorer) => return Ok((explorer, slot)),
            Err(err) => {
                counter_add("serve.checkpoints.corrupt", 1);
                inner.trace.emit(
                    id,
                    "corrupt_checkpoint",
                    &[
                        Field::Str("slot", slot.to_string()),
                        Field::Str("error", err.to_string()),
                    ],
                );
            }
        }
    }
    drop(slots);
    Ok((
        Explorer::new(&spec.problem, spec.config.clone())?,
        "scratch",
    ))
}

fn fire_incumbent(
    inner: &Inner,
    id: JobId,
    spec: &JobSpec,
    explorer: &Explorer<'_>,
    cost: f64,
    verified: bool,
) {
    let Some(callback) = &inner.cfg.on_incumbent else {
        return;
    };
    callback(&IncumbentEvent {
        job: id,
        name: spec.name.clone(),
        cost,
        lower_bound: explorer.lower_bound(),
        iteration: explorer.stats().iterations,
        verified,
    });
}

/// Apply an attempt's outcome to the supervisor state: settle, or re-queue
/// with exponential backoff, or quarantine after the final failure.
fn settle(inner: &Inner, claim: &Claim, outcome: AttemptOutcome) {
    let id = JobId(claim.id);
    let mut st = lock(&inner.state);
    let weight = claim.spec.weight;
    st.running_weight -= weight;
    gauge_add("serve.workers.busy", -1);
    let job = st.jobs.get_mut(&claim.id).expect("running job exists");
    let mut terminal = true;
    match outcome {
        AttemptOutcome::Settled(result) => {
            let cancelled = matches!(
                &result,
                Exploration::Partial {
                    reason: StopReason::Cancelled,
                    ..
                }
            );
            let mut fields = vec![
                Field::Str("outcome", outcome_tag(&result).to_string()),
                Field::Int("recoveries", u64::from(job.recoveries)),
            ];
            if let Some(best) = result.incumbent() {
                fields.push(Field::Num("cost", best.cost()));
            }
            if let Some(lb) = result.lower_bound() {
                fields.push(Field::Num("lower_bound", lb));
            }
            inner.trace.emit(id, "done", &fields);
            counter_add(
                if cancelled {
                    "serve.jobs.cancelled"
                } else {
                    "serve.jobs.completed"
                },
                1,
            );
            job.phase = Phase::Done { result };
        }
        AttemptOutcome::Failed(error) => {
            if job.attempts >= inner.cfg.max_attempts {
                counter_add("serve.jobs.quarantined", 1);
                inner.trace.emit(
                    id,
                    "quarantined",
                    &[
                        Field::Int("attempts", u64::from(job.attempts)),
                        Field::Str("error", error.clone()),
                    ],
                );
                job.phase = Phase::Quarantined { last_error: error };
            } else {
                let backoff = backoff_ms(&inner.cfg, job.attempts);
                counter_add("serve.retries", 1);
                inner.trace.emit(
                    id,
                    "retry",
                    &[
                        Field::Int("attempt", u64::from(job.attempts)),
                        Field::Int("backoff_ms", backoff),
                        Field::Str("error", error),
                    ],
                );
                job.phase = Phase::Queued {
                    not_before: Instant::now() + std::time::Duration::from_millis(backoff),
                };
                st.queue.push_back(claim.id);
                st.queued_weight += weight;
                terminal = false;
            }
        }
    }
    st.publish_gauges();
    if terminal {
        emit_final_metrics(inner, id);
    }
    inner.wake.notify_all();
    inner.settled.notify_all();
}

/// Close a job's lifecycle trace with a full metrics snapshot, so every
/// per-job trace file ends with the registry state the job settled under.
/// Skipped entirely when tracing is off — a snapshot render is not free.
fn emit_final_metrics(inner: &Inner, id: JobId) {
    if !inner.trace.enabled() {
        return;
    }
    inner.trace.emit(
        id,
        "metrics_snapshot",
        &[Field::Json("metrics", snapshot().to_json())],
    );
}

fn outcome_tag(result: &Exploration) -> &'static str {
    match result {
        Exploration::Optimal { .. } => "optimal",
        Exploration::Infeasible { .. } => "infeasible",
        Exploration::Partial {
            reason: StopReason::Cancelled,
            ..
        } => "cancelled",
        Exploration::Partial { .. } => "partial",
    }
}

/// Exponential backoff for retry `attempts` (1-based): `base · 2^(n-1)`,
/// capped.
fn backoff_ms(cfg: &ServerConfig, attempts: u32) -> u64 {
    let shift = attempts.saturating_sub(1).min(20);
    cfg.backoff_base_ms
        .saturating_mul(1_u64 << shift)
        .min(cfg.backoff_cap_ms)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let cfg = ServerConfig {
            backoff_base_ms: 5,
            backoff_cap_ms: 35,
            ..ServerConfig::default()
        };
        assert_eq!(backoff_ms(&cfg, 1), 5);
        assert_eq!(backoff_ms(&cfg, 2), 10);
        assert_eq!(backoff_ms(&cfg, 3), 20);
        assert_eq!(backoff_ms(&cfg, 4), 35);
        assert_eq!(backoff_ms(&cfg, 64), 35);
    }

    #[test]
    fn checkpoint_slots_shift_latest_into_prev() {
        let mut slots = CkptSlots::default();
        slots.store("a".into());
        slots.store("b".into());
        assert_eq!(slots.latest.as_deref(), Some("b"));
        assert_eq!(slots.prev.as_deref(), Some("a"));
    }

    #[test]
    fn server_config_debug_omits_callback_body() {
        let dbg = format!("{:?}", ServerConfig::default());
        assert!(dbg.contains("workers: 2"));
        assert!(dbg.contains("on_incumbent: false"));
    }
}
