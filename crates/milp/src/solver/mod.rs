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
mod setup;
#[cfg(test)]
mod simplex;

pub(crate) use backend::{BasisSnapshot, LpOutcome};
pub(crate) use branch_bound::ROW_TOL;
pub(crate) use revised::LpWorkspace;

use crate::error::SolveError;
use crate::model::Model;
use crate::solution::Outcome;
use budget::Budget;
use setup::RootSetup;
use std::sync::{Arc, Mutex, PoisonError};

/// Opaque solver state one solve of the exploration cut loop hands to the
/// next, from [`Solver::solve_with_state`] with [`SolveOptions::warm_start`]
/// on (the default). It holds three things:
///
/// - the basis of the solve's final incumbent, which warm-starts the next
///   solve's root relaxation by dual simplex when the next model has at
///   least its rows and columns (the cut loop appends both). A basis that
///   does not fit is ignored, and a numerical failure while repairing from
///   it falls back to a cold solve;
/// - the solve's root setup: its presolved root bounds with the record of
///   the presolve run, and its equilibrated standard form with the record
///   of the scaling. The next solve extends them instead of starting over
///   when its model is *this* model (not a clone of it) with variables and
///   constraints appended and no new objective, at the same presolve
///   setting, and only where the extension provably equals a rebuild bit
///   for bit. The first solve the setup fits takes it; a state from another
///   model leaves it unused, and a clone of the state starts without one;
/// - the buffers the solve's node LPs worked in, already at size. The first
///   solve that receives the state takes them, whatever its model; a clone
///   of the state starts without them.
///
/// The root setup and the buffers change only the work: a solve that
/// extends the setup is, bit for bit, the solve that would rebuild it. The
/// buffers carry values keyed by standard form and basis (LU factors, and
/// the basic values and reduced costs computed on them), and a solve takes
/// them only where they equal a recomputation; an extended or rebuilt form
/// is a new form, so the next solve recomputes them.
#[derive(Debug)]
pub struct WarmStart {
    pub(crate) snap: Arc<BasisSnapshot>,
    setup: Mutex<Option<RootSetup>>,
    workspace: Mutex<Option<LpWorkspace>>,
}

impl WarmStart {
    fn new(snap: Arc<BasisSnapshot>, setup: RootSetup, workspace: LpWorkspace) -> Self {
        WarmStart {
            snap,
            setup: Mutex::new(Some(setup)),
            workspace: Mutex::new(Some(workspace)),
        }
    }

    /// A state holding only a basis.
    #[cfg(test)]
    pub(crate) fn from_basis(snap: BasisSnapshot) -> Self {
        WarmStart {
            snap: Arc::new(snap),
            setup: Mutex::new(None),
            workspace: Mutex::new(None),
        }
    }

    /// Take the carried LP workspace, if no solve has taken it yet.
    fn take_workspace(&self) -> Option<LpWorkspace> {
        self.workspace
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }

    /// Take the carried root setup if it fits a solve of `model` at presolve
    /// setting `presolve`.
    fn take_setup(&self, model: &Model, presolve: bool) -> Option<RootSetup> {
        let mut slot = self.setup.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.as_ref()?.fits(model, presolve) {
            slot.take()
        } else {
            None
        }
    }
}

/// The clone shares the basis but neither the root setup, which only one
/// solve can extend, nor the LP workspace, which only one solve can use.
impl Clone for WarmStart {
    fn clone(&self) -> Self {
        WarmStart {
            snap: Arc::clone(&self.snap),
            setup: Mutex::new(None),
            workspace: Mutex::new(None),
        }
    }
}

/// What a caller sets on a solve: its work budget, warm starting and a
/// known objective floor. Tolerances, pivot and node limits, pricing,
/// refactorization cadence and presolve are the solver's own: they are fixed,
/// or set by the numerical retry ladder (see [`Solver::solve`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOptions {
    /// Shared work budget: an absolute deadline plus cumulative node/pivot
    /// allowances. Cloning the options does **not** restart this budget —
    /// every solve of an exploration charges the same counters and races the
    /// same expiry instant. Unlimited by default; a per-solve time limit is
    /// a budget with a deadline, `Budget::unlimited().with_deadline(..)`.
    pub budget: Budget,
    /// Dual-simplex warm starts (on by default; any trouble falls back to a
    /// cold solve). The root relaxation starts from the [`WarmStart`] passed
    /// to [`Solver::solve_with_state`] — the cut-loop pattern — and every
    /// branch-and-bound child starts from its parent's optimal basis: dual
    /// simplex, then a primal cleanup, then the canonical finish. This saves
    /// several-fold in pivots on the exploration workloads (1,048 cold
    /// against 205 warm on the two-line RPL, held at ≥ 2× by the test
    /// `warm_starts_halve_the_pivots_on_rpl_both_lines`). On models with many
    /// equally-optimal solutions the dual repair can land on a different
    /// optimal vertex than a cold solve, so the search may surface a
    /// *different equally-optimal* incumbent than a cold run would; the
    /// optimum is the same.
    ///
    /// `false` solves every LP cold with the two-phase primal simplex from
    /// the slack basis. That is the reference the warm path is tested
    /// against, and its pivots and nodes are pinned exactly.
    pub warm_start: bool,
    /// A proven floor on the objective (model sense): the caller knows no
    /// feasible solution is better than this. Branch-and-bound stops as soon
    /// as an incumbent reaches the floor, skipping the (often expensive)
    /// optimality proof over plateaus of equal-cost solutions. The ContrArc
    /// exploration sets this to the previous iteration's optimum, which is
    /// valid because certificate cuts only ever remove solutions.
    pub objective_floor: Option<f64>,
    /// Ignored: the solver runs on one thread. Kept only because the
    /// exploration benchmark still sets it; it will be removed, together
    /// with `contrarc-par`, in the next change to the benchmark.
    pub threads: usize,
    /// Deterministic fault schedule for resilience testing; `None` disables
    /// injection. Only present with the `fault-injection` feature.
    #[cfg(feature = "fault-injection")]
    pub fault_plan: Option<faults::FaultPlan>,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            budget: Budget::unlimited(),
            warm_start: true,
            objective_floor: None,
            threads: 1,
            #[cfg(feature = "fault-injection")]
            fault_plan: None,
        }
    }
}

impl SolveOptions {
    /// Options charging work to (and racing the deadline of) `budget`.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }
}

/// The settings the numerical retry ladder changes. Every solve starts at
/// rung 0; each later rung keeps the changes of the rungs below it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Numerics {
    /// Primal feasibility tolerance.
    pub feas_tol: f64,
    /// Dual feasibility (reduced-cost) tolerance.
    pub dual_tol: f64,
    /// Price with Bland's rule from the first pivot instead of Dantzig's:
    /// slower, but cycle-proof.
    pub force_bland: bool,
    /// Collapse the revised simplex's eta file into a fresh basis
    /// factorization every this many pivots.
    pub refactor_every: u64,
    /// Tighten the root bounds by activity presolve.
    pub presolve: bool,
}

impl Numerics {
    /// The last rung: a numerical failure there ends the solve.
    pub(crate) const TOP_RUNG: u64 = 3;

    /// The settings of ladder rung `rung`: rung 1 prices with Bland's rule,
    /// rung 2 multiplies both tolerances by 0.1 and refactorizes after every
    /// pivot, so no eta drift survives the tighter tolerances, and rung 3
    /// turns presolve off.
    pub(crate) fn at_rung(rung: u64) -> Self {
        let mut numerics = Numerics {
            feas_tol: 1e-7,
            dual_tol: 1e-7,
            force_bland: false,
            refactor_every: 64,
            presolve: true,
        };
        if rung >= 1 {
            numerics.force_bland = true;
        }
        if rung >= 2 {
            numerics.feas_tol *= 0.1;
            numerics.dual_tol *= 0.1;
            numerics.refactor_every = 1;
        }
        if rung >= 3 {
            numerics.presolve = false;
        }
        numerics
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
    /// Each LP relaxation may take at most 500,000 simplex pivots and each
    /// solve at most 2,000,000 branch-and-bound nodes; reaching either cap
    /// is [`SolveError::EngineLimit`], and the retry ladder does not re-solve
    /// it. [`SolveOptions::budget`] caps the work and wall time of a whole
    /// sequence of solves.
    ///
    /// [`SolveError::Numerical`] failures are absorbed by a three-rung retry
    /// ladder. Each rung re-solves with more conservative settings than the
    /// one below it, keeping their changes: Bland's rule pricing
    /// (cycle-proof), then 10× tighter feasibility and optimality tolerances
    /// with a fresh basis factorization after every pivot, then presolve
    /// off. The number of rungs climbed is reported in
    /// [`SolveStats::numerical_retries`](crate::SolveStats::numerical_retries).
    ///
    /// # Errors
    ///
    /// Returns a [`SolveError`] when the model is malformed (an objective
    /// that mentions a variable the model does not have, or a non-finite
    /// coefficient, is [`SolveError::InvalidModel`]), the budget's pivots,
    /// nodes or time run out before the outcome is proven, the solver
    /// reaches one of its own caps, or a numerical failure survives every
    /// rung of the retry ladder.
    pub fn solve(&self, model: &Model) -> Result<Outcome, SolveError> {
        self.solve_with_state(model, None)
            .map(|(outcome, _)| outcome)
    }

    /// Like [`Solver::solve`], but additionally accepts and returns reusable
    /// solver state for a *monotonically growing* sequence of solves (the
    /// exploration cut loop: each iteration only appends cut rows and
    /// auxiliary columns). Pass the [`WarmStart`] returned by the previous
    /// solve of the same model. Its basis warm-starts the root relaxation,
    /// and its root setup (presolved bounds and equilibrated standard form)
    /// is extended instead of rebuilt where that gives the rebuild's result
    /// bit for bit; see [`WarmStart`] for when each applies. What does not
    /// fit is silently ignored: a basis of the wrong shape gives a cold
    /// start, and the setup of another model (a clone included) a setup
    /// from scratch. The returned state is `None` when
    /// [`SolveOptions::warm_start`] is off, which also ignores any state
    /// passed in, when the outcome was not optimal, or when no clean basis
    /// was available.
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
        // Rows are checked as they enter; the objective is set unchecked.
        model.validate_expr(model.objective())?;
        let mut rung = 0u64;
        loop {
            #[cfg(feature = "fault-injection")]
            if let Some(plan) = &self.options.fault_plan {
                if let Some(kind) = plan.on_solve_call() {
                    let err = faults::FaultPlan::to_error(kind, revised::MAX_LP_PIVOTS);
                    if let SolveError::Numerical(msg) = err {
                        match Self::escalate(&mut rung) {
                            true => continue,
                            false => return Err(SolveError::Numerical(msg)),
                        }
                    }
                    return Err(err);
                }
            }
            let numerics = Numerics::at_rung(rung);
            match branch_bound::solve(model, &self.options, &numerics, warm) {
                Err(SolveError::Numerical(msg)) => {
                    if !Self::escalate(&mut rung) {
                        return Err(SolveError::Numerical(msg));
                    }
                }
                Ok((mut outcome, state)) => {
                    outcome.stats_mut().numerical_retries = rung;
                    return Ok((outcome, state));
                }
                Err(err) => return Err(err),
            }
        }
    }

    /// Climb the retry ladder one rung; `false` when it is exhausted.
    fn escalate(rung: &mut u64) -> bool {
        *rung += 1;
        contrarc_obs::metrics::counter_add("milp.retries", 1);
        contrarc_obs::event!("milp.retry", rung = *rung);
        *rung <= Numerics::TOP_RUNG
    }
}
