//! The LP/MILP solving engine: options, the public [`Solver`] facade, and the
//! internal simplex and branch-and-bound implementations.

mod backend;
mod branch_bound;
pub mod budget;
#[cfg(test)]
mod differential;
mod factor;
#[cfg(feature = "fault-injection")]
pub mod faults;
mod revised;
#[cfg(test)]
mod simplex;

pub(crate) use backend::{BasisSnapshot, LpOutcome};

use crate::error::SolveError;
use crate::model::Model;
use crate::solution::Outcome;
use budget::Budget;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Opaque reusable solver state: the optimal basis of a previous solve,
/// usable to warm-start a later solve of the *same model grown monotonically*
/// (bounds changed, cut rows and auxiliary columns appended — the exploration
/// cut-loop pattern). Obtained from [`Solver::solve_with_state`] when
/// [`SolveOptions::warm_start`] is on (the default); treat it as a black box.
/// An unusable state, or a numerical failure while repairing from it, falls
/// back to a cold solve.
#[derive(Debug, Clone)]
pub struct WarmStart {
    pub(crate) snap: Arc<BasisSnapshot>,
}

fn default_refactor_every() -> u64 {
    64
}

/// Tunable parameters of the solver.
///
/// The defaults are appropriate for the contract-exploration workloads this
/// crate was built for; they favour exactness over speed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolveOptions {
    /// Primal feasibility tolerance.
    pub feas_tol: f64,
    /// Dual feasibility (reduced-cost) tolerance.
    pub dual_tol: f64,
    /// Integrality tolerance: `x` counts as integral if `|x - round(x)| ≤ int_tol`.
    pub int_tol: f64,
    /// Absolute optimality gap at which branch-and-bound stops refining.
    pub abs_gap: f64,
    /// Maximum simplex pivots per LP relaxation.
    pub max_simplex_iters: u64,
    /// Maximum branch-and-bound nodes.
    pub max_nodes: u64,
    /// Optional wall-clock limit in seconds for a whole solve. Composes with
    /// [`SolveOptions::budget`]: the solve stops at whichever deadline comes
    /// first.
    pub time_limit_secs: Option<f64>,
    /// Shared work budget: an absolute deadline plus cumulative node/pivot
    /// allowances. Unlike `time_limit_secs`, cloning the options does **not**
    /// restart this budget — every solve of an exploration charges the same
    /// counters and races the same expiry instant. Unlimited by default.
    pub budget: Budget,
    /// Always price with Bland's rule instead of Dantzig pricing. Slower but
    /// cycle-proof; the retry ladder switches this on after a numerical
    /// failure.
    pub force_bland: bool,
    /// Whether to run the presolve pass before solving.
    pub presolve: bool,
    /// Dual-simplex warm starts (on by default; any trouble falls back to a
    /// cold solve). The root relaxation starts from the [`WarmStart`] passed
    /// to [`Solver::solve_with_state`] — the cut-loop pattern — and every
    /// branch-and-bound child starts from its parent's optimal basis: dual
    /// simplex, then a primal cleanup, then the canonical finish. This saves
    /// several-fold in pivots on the exploration workloads (1,048 cold
    /// against 205 warm on the two-line RPL, held at ≥ 2× by the test
    /// `warm_starts_halve_the_pivots_on_rpl_both_lines`), and the committed
    /// trajectory stays identical at any thread count. On models with many
    /// equally-optimal solutions the dual repair can land on a different
    /// optimal vertex than a cold solve, so the search may surface a
    /// *different equally-optimal* incumbent than a cold run would; the
    /// optimum is the same.
    ///
    /// `false` solves every LP cold with the two-phase primal simplex from
    /// the slack basis. That is the reference the warm path is tested
    /// against, and its pivots and nodes are pinned exactly.
    pub warm_start: bool,
    /// Collapse the revised simplex's eta file into a fresh basis
    /// factorization every this many pivots. Lower is numerically safer and
    /// slower; the retry ladder drops it to 1.
    #[serde(default = "default_refactor_every")]
    pub refactor_every: u64,
    /// A proven floor on the objective (model sense): the caller knows no
    /// feasible solution is better than this. Branch-and-bound stops as soon
    /// as an incumbent reaches the floor, skipping the (often expensive)
    /// optimality proof over plateaus of equal-cost solutions. The ContrArc
    /// exploration sets this to the previous iteration's optimum, which is
    /// valid because certificate cuts only ever remove solutions.
    pub objective_floor: Option<f64>,
    /// Worker threads for speculative branch-and-bound node evaluation.
    /// `1` (the default) is the fully serial solver; `0` means "use every
    /// available core". Any value yields the same optimum, branching
    /// trajectory, and statistics (speculative prefetch with serial commit;
    /// see the `branch_bound` module docs) — only wall-clock and, under a
    /// finite [`Budget`], the exact exhaustion point vary.
    pub threads: usize,
    /// Deterministic fault schedule for resilience testing; `None` disables
    /// injection. Only present with the `fault-injection` feature.
    #[cfg(feature = "fault-injection")]
    pub fault_plan: Option<faults::FaultPlan>,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            feas_tol: 1e-7,
            dual_tol: 1e-7,
            int_tol: 1e-6,
            abs_gap: 1e-6,
            max_simplex_iters: 500_000,
            max_nodes: 2_000_000,
            time_limit_secs: None,
            budget: Budget::unlimited(),
            force_bland: false,
            presolve: true,
            warm_start: true,
            refactor_every: default_refactor_every(),
            objective_floor: None,
            threads: 1,
            #[cfg(feature = "fault-injection")]
            fault_plan: None,
        }
    }
}

impl SolveOptions {
    /// Options with a wall-clock limit.
    #[must_use]
    pub fn with_time_limit(mut self, secs: f64) -> Self {
        self.time_limit_secs = Some(secs);
        self
    }

    /// Options charging work to (and racing the deadline of) `budget`.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Options with a worker-thread count (`0` = all available cores).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Branch-and-bound MILP solver.
///
/// A `Solver` is stateless between calls; it exists so options can be
/// configured once and reused across the many solves of an exploration loop.
///
/// ```rust
/// use contrarc_milp::{Cmp, Model, Sense, SolveOptions, Solver};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut m = Model::new("int");
/// let x = m.add_integer("x", 0.0, 10.0);
/// m.add_constr("c", 2.0 * x, Cmp::Le, 7.0)?;
/// m.set_objective(Sense::Maximize, 1.0 * x);
/// let solver = Solver::new(SolveOptions::default());
/// let sol = solver.solve(&m)?.expect_optimal()?;
/// assert_eq!(sol.value_rounded(x), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Solver {
    options: SolveOptions,
}

impl Solver {
    /// Create a solver with the given options.
    #[must_use]
    pub fn new(options: SolveOptions) -> Self {
        Solver { options }
    }

    /// The solver's options.
    #[must_use]
    pub fn options(&self) -> &SolveOptions {
        &self.options
    }

    /// Solve a model to proven optimality (or infeasibility/unboundedness).
    ///
    /// [`SolveError::Numerical`] failures are absorbed by a three-stage retry
    /// ladder, each stage re-solving with progressively more conservative
    /// settings: Bland's rule pricing (cycle-proof), then tightened
    /// feasibility/optimality tolerances, then presolve disabled. The number
    /// of stages consumed is reported in
    /// [`SolveStats::numerical_retries`](crate::SolveStats::numerical_retries).
    ///
    /// # Errors
    ///
    /// Returns a [`SolveError`] when the model is malformed, an iteration,
    /// node, or time limit is exhausted before the outcome is proven, or a
    /// numerical failure survives every rung of the retry ladder.
    pub fn solve(&self, model: &Model) -> Result<Outcome, SolveError> {
        self.solve_with_state(model, None)
            .map(|(outcome, _)| outcome)
    }

    /// Like [`Solver::solve`], but additionally accepts and returns reusable
    /// solver state for warm-starting across a *monotonically growing*
    /// sequence of solves (the exploration cut loop: each iteration only
    /// appends cut rows and auxiliary columns). Pass the [`WarmStart`]
    /// returned by the previous solve; an incompatible or unusable state is
    /// silently ignored (cold solve). The returned state is `None` when
    /// [`SolveOptions::warm_start`] is off, the outcome was not optimal, or
    /// no clean basis was available.
    ///
    /// With warm starts off this is exactly [`Solver::solve`]. With them on
    /// (the default) the optimum is the same, but on ties it may be a
    /// different equally-optimal solution (see [`SolveOptions::warm_start`]).
    ///
    /// # Errors
    ///
    /// Exactly as [`Solver::solve`].
    pub fn solve_with_state(
        &self,
        model: &Model,
        warm: Option<&WarmStart>,
    ) -> Result<(Outcome, Option<WarmStart>), SolveError> {
        let mut opts = self.options.clone();
        let mut retries = 0u64;
        loop {
            #[cfg(feature = "fault-injection")]
            if let Some(plan) = &opts.fault_plan {
                if let Some(kind) = plan.on_solve_call() {
                    let err = faults::FaultPlan::to_error(kind, opts.max_simplex_iters);
                    if let SolveError::Numerical(msg) = err {
                        match Self::escalate(&mut opts, &mut retries) {
                            true => continue,
                            false => return Err(SolveError::Numerical(msg)),
                        }
                    }
                    return Err(err);
                }
            }
            match branch_bound::solve(model, &opts, warm.map(|w| w.snap.as_ref())) {
                Err(SolveError::Numerical(msg)) => {
                    if !Self::escalate(&mut opts, &mut retries) {
                        return Err(SolveError::Numerical(msg));
                    }
                }
                Ok((mut outcome, state)) => {
                    outcome.stats_mut().numerical_retries = retries;
                    return Ok((outcome, state.map(|snap| WarmStart { snap })));
                }
                Err(err) => return Err(err),
            }
        }
    }

    /// Advance the retry ladder one rung; `false` when it is exhausted.
    fn escalate(opts: &mut SolveOptions, retries: &mut u64) -> bool {
        *retries += 1;
        contrarc_obs::metrics::counter_add("milp.retries", 1);
        contrarc_obs::event!("milp.retry", rung = *retries);
        match *retries {
            1 => opts.force_bland = true,
            2 => {
                opts.feas_tol *= 0.1;
                opts.dual_tol *= 0.1;
                // Refactorize after every pivot so no eta drift can survive
                // the tightened tolerances.
                opts.refactor_every = 1;
            }
            3 => opts.presolve = false,
            _ => return false,
        }
        true
    }
}
