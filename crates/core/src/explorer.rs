//! The ContrArc exploration loop: Problems 2 → 3 → 4, iterated to the
//! optimum.

use crate::candidate::Architecture;
use crate::certificate::{apply_cuts, CutConfig};
use crate::checkpoint::{fingerprint, AuxVarRecord, CutRecord, ExplorerCheckpoint};
use crate::encode::encode_problem2_sym;
use crate::problem::Problem;
use crate::refinement::{check_candidate_all_cached, RefinementCache, RefinementConfig};
use crate::sym::SymmetryConfig;
use contrarc_contracts::{EncodeOptions, RefinementChecker};
use contrarc_graph::Automorphisms;
use contrarc_milp::{Budget, Deadline, LinExpr, SolveError, SolveOptions, VarDef, VarId};
use std::error::Error;
use std::fmt;
use std::time::Instant;

/// Configuration of the exploration loop. The two booleans reproduce the
/// paper's Table II ablations:
///
/// | paper mode                | `iso_pruning` | `compositional` |
/// |---------------------------|---------------|-----------------|
/// | "only subgraph isomorphism" | `true`      | `false`         |
/// | "only decomposition"        | `false`     | `true`          |
/// | "Complete"                  | `true`      | `true`          |
#[derive(Debug, Clone, PartialEq)]
pub struct ExplorerConfig {
    /// Generalize each infeasibility certificate to every isomorphic
    /// embedding (Algorithm 2). When off, only the violating candidate
    /// sub-architecture itself is excluded per iteration.
    pub iso_pruning: bool,
    /// Check path-specific viewpoints per source→sink path (Algorithm 1).
    pub compositional: bool,
    /// Widen certificate cuts to the dominated implementation set `ℒ_g⁺`
    /// (the `ImplementationSearch` step of Algorithm 2). Disabling this is
    /// an extra ablation beyond the paper's two, useful for quantifying how
    /// much of the pruning power comes from dominance versus isomorphism.
    pub dominance_widening: bool,
    /// Iteration cap for the lazy loop.
    pub max_iterations: usize,
    /// Optional wall-clock budget for the whole exploration, counted from
    /// the start of [`Explorer::new`] (encoding and automorphism search
    /// included).
    pub time_limit_secs: Option<f64>,
    /// MILP solver options (shared by candidate selection and refinement
    /// queries).
    pub solve_options: SolveOptions,
    /// Cap on path enumeration during compositional checking. A candidate
    /// with that many paths, all of which hold, has its timing checked
    /// monolithically.
    pub max_paths: usize,
    /// Symmetry-aware exploration knobs: orbit-pruned certificate matching
    /// and orbit-based symmetry-breaking rows in the Problem-2 MILP. Both
    /// default on; either can be disabled independently, and the optimum is
    /// bit-identical either way. The checkpoint fingerprint hashes the
    /// model the loop solves, so `milp_rows` changes it wherever the
    /// template has symmetry rows to add: a checkpoint resumes only under
    /// the `milp_rows` setting that wrote it. `orbit_pruning` changes
    /// neither the model nor the cut set and may differ on resume.
    pub symmetry: SymmetryConfig,
    /// Ignored: the exploration runs on one thread. Kept only because the
    /// exploration benchmark still sets it; it will be removed, together
    /// with `contrarc-par`, in the next change to the benchmark.
    pub threads: usize,
}

impl Default for ExplorerConfig {
    fn default() -> Self {
        ExplorerConfig {
            iso_pruning: true,
            compositional: true,
            dominance_widening: true,
            max_iterations: 10_000,
            time_limit_secs: None,
            solve_options: SolveOptions::default(),
            max_paths: 100_000,
            symmetry: SymmetryConfig::default(),
            threads: 0,
        }
    }
}

impl ExplorerConfig {
    /// The paper's "Complete" mode (both techniques on) — the default.
    #[must_use]
    pub fn complete() -> Self {
        Self::default()
    }

    /// The paper's "only subgraph isomorphism" ablation.
    #[must_use]
    pub fn only_iso() -> Self {
        ExplorerConfig {
            compositional: false,
            ..Self::default()
        }
    }

    /// The paper's "only decomposition" ablation.
    #[must_use]
    pub fn only_decomposition() -> Self {
        ExplorerConfig {
            iso_pruning: false,
            ..Self::default()
        }
    }
}

/// Statistics of one exploration run (the measurements behind Fig. 5 and
/// Table II of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ExplorationStats {
    /// Lazy-loop iterations (MILP solve + refinement check rounds).
    pub iterations: usize,
    /// Certificate cuts added across all iterations.
    pub cuts_added: usize,
    /// Variables in the initial Problem-2 MILP.
    pub milp_vars: usize,
    /// Constraints in the initial Problem-2 MILP.
    pub milp_constraints: usize,
    /// Seconds spent in candidate-selection MILP solves.
    pub milp_time: f64,
    /// Seconds spent in refinement checking.
    pub refine_time: f64,
    /// Seconds spent generating certificates.
    pub cert_time: f64,
    /// Total wall-clock seconds, counted from the start of
    /// [`Explorer::new`].
    pub total_time: f64,
    /// Path timing checks answered by the refinement-verdict cache.
    pub cache_hits: u64,
    /// Path timing checks that had to be solved fresh (and were then
    /// cached).
    pub cache_misses: u64,
}

impl fmt::Display for ExplorationStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // No `..`: a new field fails to compile here until it is shown.
        let ExplorationStats {
            iterations,
            cuts_added,
            milp_vars,
            milp_constraints,
            milp_time,
            refine_time,
            cert_time,
            total_time,
            cache_hits,
            cache_misses,
        } = self;
        write!(
            f,
            "iterations={iterations} cuts_added={cuts_added} milp_vars={milp_vars} \
             milp_constraints={milp_constraints} milp_time={milp_time:.3} \
             refine_time={refine_time:.3} cert_time={cert_time:.3} \
             total_time={total_time:.3} cache_hits={cache_hits} cache_misses={cache_misses}"
        )
    }
}

/// Why an exploration stopped before reaching an optimum or an
/// infeasibility proof.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopReason {
    /// The lazy-loop iteration cap ([`ExplorerConfig::max_iterations`]) was
    /// reached.
    IterationLimit {
        /// The configured cap.
        limit: usize,
    },
    /// The shared wall-clock deadline expired.
    TimeLimit {
        /// The nominal budget in seconds (0 when unknown).
        limit_secs: f64,
    },
    /// The cumulative branch-and-bound node budget was exhausted.
    NodeLimit {
        /// The configured node allowance.
        limit: u64,
    },
    /// The cumulative simplex pivot budget was exhausted.
    PivotLimit {
        /// The configured pivot allowance.
        limit: u64,
    },
    /// The exploration was cancelled by an external request (e.g. a job
    /// server draining or a client abandoning the job). The incumbent and
    /// lower bound harvested at the cancellation point remain valid.
    Cancelled,
}

impl StopReason {
    /// The stop reason corresponding to a budget-exhaustion solver error, or
    /// `None` when the error is a genuine failure that should propagate. A
    /// solver that reached one of its own caps
    /// ([`SolveError::EngineLimit`]) failed: no budget of the caller's ran
    /// out.
    #[must_use]
    pub fn from_solve_error(e: &SolveError) -> Option<StopReason> {
        match e {
            SolveError::TimeLimit { limit_secs } => Some(StopReason::TimeLimit {
                limit_secs: *limit_secs,
            }),
            SolveError::IterationLimit { limit } => Some(StopReason::PivotLimit { limit: *limit }),
            SolveError::NodeLimit { limit } => Some(StopReason::NodeLimit { limit: *limit }),
            _ => None,
        }
    }
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopReason::IterationLimit { limit } => {
                write!(f, "iteration cap of {limit} reached")
            }
            StopReason::TimeLimit { limit_secs } => {
                write!(f, "wall-clock budget of {limit_secs} s exhausted")
            }
            StopReason::NodeLimit { limit } => {
                write!(f, "branch-and-bound node budget of {limit} exhausted")
            }
            StopReason::PivotLimit { limit } => {
                write!(f, "simplex pivot budget of {limit} exhausted")
            }
            StopReason::Cancelled => write!(f, "cancelled by request"),
        }
    }
}

/// Result of an exploration.
#[derive(Debug, Clone, PartialEq)]
pub enum Exploration {
    /// The optimal architecture satisfying all system-level contracts.
    Optimal {
        /// The selected architecture `ℳ`.
        architecture: Architecture,
        /// Run statistics.
        stats: ExplorationStats,
    },
    /// No architecture satisfies the requirements.
    Infeasible {
        /// Run statistics.
        stats: ExplorationStats,
    },
    /// The budget ran out before the loop converged: everything learned so
    /// far, instead of an error. The exploration can be continued from a
    /// [`Explorer::checkpoint`] taken before the run.
    Partial {
        /// The most recent candidate selected by the MILP. It satisfies every
        /// certificate cut accumulated so far but has **not** been verified
        /// against the system-level contracts; `None` when the budget expired
        /// before the first candidate was decoded.
        incumbent: Option<Architecture>,
        /// A proven lower bound on the optimal cost (the last MILP optimum;
        /// cuts only remove infeasible architectures, so no feasible
        /// architecture can cost less).
        lower_bound: Option<f64>,
        /// Certificate cuts accumulated before the interruption (these remain
        /// valid for any continuation of the search).
        cuts: usize,
        /// Run statistics.
        stats: ExplorationStats,
        /// Which budget ran out.
        reason: StopReason,
    },
}

impl Exploration {
    /// Run statistics regardless of outcome.
    #[must_use]
    pub fn stats(&self) -> &ExplorationStats {
        match self {
            Exploration::Optimal { stats, .. }
            | Exploration::Infeasible { stats }
            | Exploration::Partial { stats, .. } => stats,
        }
    }

    /// The optimal architecture, if one was found **and verified**.
    #[must_use]
    pub fn architecture(&self) -> Option<&Architecture> {
        match self {
            Exploration::Optimal { architecture, .. } => Some(architecture),
            Exploration::Infeasible { .. } | Exploration::Partial { .. } => None,
        }
    }

    /// The best candidate available: the verified optimum, or on a partial
    /// run the unverified incumbent.
    #[must_use]
    pub fn incumbent(&self) -> Option<&Architecture> {
        match self {
            Exploration::Optimal { architecture, .. } => Some(architecture),
            Exploration::Partial { incumbent, .. } => incumbent.as_ref(),
            Exploration::Infeasible { .. } => None,
        }
    }

    /// A proven lower bound on the optimal cost, when one is known.
    #[must_use]
    pub fn lower_bound(&self) -> Option<f64> {
        match self {
            Exploration::Optimal { architecture, .. } => Some(architecture.cost()),
            Exploration::Partial { lower_bound, .. } => *lower_bound,
            Exploration::Infeasible { .. } => None,
        }
    }

    /// Whether the run stopped early on an exhausted budget.
    #[must_use]
    pub fn is_partial(&self) -> bool {
        matches!(self, Exploration::Partial { .. })
    }
}

/// Errors of the exploration loop.
///
/// Exhausted iteration/time budgets are **not** errors: they surface as
/// [`Exploration::Partial`] (or [`Step::Exhausted`]).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ExploreError {
    /// An underlying MILP/encoding failure.
    Solve(SolveError),
    /// A checkpoint was taken from a different problem or configuration than
    /// the one it is being resumed against.
    CheckpointMismatch {
        /// Fingerprint recorded in the checkpoint.
        expected: u64,
        /// Fingerprint of the problem/config being resumed.
        found: u64,
    },
    /// A checkpoint is internally inconsistent (e.g. a cut referencing a
    /// variable the encoding does not have).
    CheckpointInvalid(String),
    /// Checkpoint text failed to parse (truncated, garbage, or otherwise
    /// malformed input that never became an [`ExplorerCheckpoint`]).
    CheckpointParse(crate::checkpoint::CheckpointParseError),
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::Solve(e) => write!(f, "exploration failed: {e}"),
            ExploreError::CheckpointMismatch { expected, found } => write!(
                f,
                "checkpoint fingerprint {expected:016x} does not match problem/config {found:016x}"
            ),
            ExploreError::CheckpointInvalid(msg) => write!(f, "invalid checkpoint: {msg}"),
            ExploreError::CheckpointParse(e) => write!(f, "unreadable checkpoint: {e}"),
        }
    }
}

impl Error for ExploreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExploreError::Solve(e) => Some(e),
            ExploreError::CheckpointParse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SolveError> for ExploreError {
    fn from(e: SolveError) -> Self {
        ExploreError::Solve(e)
    }
}

/// Run the ContrArc exploration: select candidates with the Problem-2 MILP,
/// verify system contracts by refinement, prune with isomorphism
/// certificates, and repeat until the candidate verifies (then it is the
/// global optimum, since cuts only ever remove architectures that violate
/// system-level contracts).
///
/// For step-by-step control (inspecting each candidate and its violations),
/// use [`Explorer`] directly.
///
/// Budget exhaustion — `config.max_iterations`, `config.time_limit_secs`, or
/// the node/pivot allowances of `config.solve_options.budget` — is **not** an
/// error: it returns [`Exploration::Partial`] carrying the incumbent
/// candidate, the proven lower bound, and the cuts learned so far.
///
/// # Errors
///
/// Returns [`ExploreError`] on malformed problems or solver failures.
pub fn explore(problem: &Problem, config: &ExplorerConfig) -> Result<Exploration, ExploreError> {
    Explorer::new(problem, config.clone())?.run()
}

/// What one exploration iteration produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// A candidate was selected but violated system contracts; cuts were
    /// added and the loop should continue.
    Pruned {
        /// The rejected candidate.
        candidate: Architecture,
        /// The violations found (every violated path/viewpoint).
        violations: Vec<crate::refinement::Violation>,
        /// Certificate cuts added to the MILP.
        cuts_added: usize,
    },
    /// The candidate satisfied every system contract: exploration is done
    /// and this is the global optimum.
    Optimal(Architecture),
    /// The (cut-augmented) MILP is infeasible: no architecture satisfies the
    /// requirements.
    Infeasible,
    /// A budget (iterations, wall clock, nodes, or pivots) ran out. The
    /// explorer is finished; harvest the incumbent and lower bound from
    /// [`Explorer::incumbent`] / [`Explorer::lower_bound`], or resume later
    /// from a previously taken checkpoint.
    Exhausted(StopReason),
}

/// The exploration loop as a resumable state machine.
///
/// Each [`Explorer::step`] runs one iteration of Problems 2 → 3 → 4 and
/// reports what happened, which is the right granularity for debugging
/// libraries, visualizing the search, or interleaving exploration with other
/// work. [`Explorer::run`] drives it to completion (what [`explore`] does).
///
/// ```rust,no_run
/// # use contrarc::{Explorer, ExplorerConfig, Problem, Step};
/// # fn demo(problem: &Problem) -> Result<(), contrarc::ExploreError> {
/// let mut explorer = Explorer::new(problem, ExplorerConfig::complete())?;
/// loop {
///     match explorer.step()? {
///         Step::Pruned { candidate, violations, .. } => {
///             eprintln!("rejected cost {}: {} violations", candidate.cost(), violations.len());
///         }
///         Step::Optimal(arch) => { eprintln!("optimum: {}", arch.cost()); break; }
///         Step::Infeasible => { eprintln!("infeasible"); break; }
///         Step::Exhausted(reason) => { eprintln!("budget ran out: {reason}"); break; }
///     }
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Explorer<'p> {
    problem: &'p Problem,
    config: ExplorerConfig,
    enc: crate::encode::Encoding,
    checker: RefinementChecker,
    ref_config: RefinementConfig,
    stats: ExplorationStats,
    cut_seq: u32,
    cost_floor: Option<f64>,
    start: Instant,
    /// Wall-clock seconds accumulated before this process (restored from a
    /// checkpoint); `total_time` is always `prior_secs + start.elapsed()`.
    prior_secs: f64,
    finished: bool,
    /// The exploration-wide budget every solve charges: one absolute
    /// deadline plus shared node/pivot counters.
    budget: Budget,
    /// Last candidate decoded from the MILP (unverified until optimal).
    incumbent: Option<Architecture>,
    /// Variables in the freshly encoded model; later ones are auxiliary cut
    /// variables.
    baseline_vars: usize,
    /// Constraints in the freshly encoded model, symmetry rows included;
    /// rows beyond this index are certificate cuts.
    baseline_constrs: usize,
    /// FNV-1a fingerprint of the freshly encoded model + pruning
    /// configuration, used to validate checkpoints.
    fingerprint: u64,
    /// Path refinement-verdict cache, shared by every iteration.
    cache: RefinementCache,
    /// Cache counters restored from a checkpoint; the stats report
    /// `prior + cache counters` (the cache itself restarts empty on resume).
    prior_cache_hits: u64,
    prior_cache_misses: u64,
    /// Optimal basis of the previous candidate-selection solve, dual-simplex
    /// warm-started into the next one (cuts only ever append rows/columns).
    /// Always `None` with `solve_options.warm_start` off. In-memory
    /// only, deliberately *not* part of the checkpoint: a resumed run
    /// cold-starts its first solve.
    warm: Option<contrarc_milp::WarmStart>,
    /// Type-labeled template automorphism group for orbit-pruned certificate
    /// matching; `None` when disabled or when the template is asymmetric.
    sym: Option<Automorphisms>,
}

impl<'p> Explorer<'p> {
    /// Encode the problem and prepare the loop.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::Solve`] when the problem fails validation.
    pub fn new(problem: &'p Problem, mut config: ExplorerConfig) -> Result<Self, ExploreError> {
        // The exploration's clock and its time limit start here, so both
        // charge the encoding and the automorphism search below.
        let start = Instant::now();
        let enc = encode_problem2_sym(problem, &config.symmetry)?;
        // Orbit-pruned matching uses the *matcher* group (type labels only —
        // the compatibility VF2 matches under), computed once per run.
        let sym = if config.symmetry.orbit_pruning && config.iso_pruning {
            let aut = crate::sym::matcher_automorphisms(problem);
            contrarc_obs::metrics::counter_add("sym.template_orbits", aut.num_orbits() as u64);
            contrarc_obs::metrics::counter_add("sym.generators", aut.generators().len() as u64);
            if aut.is_trivial() {
                None
            } else {
                Some(aut)
            }
        } else {
            None
        };
        let model_stats = enc.model.stats();
        let stats = ExplorationStats {
            milp_vars: model_stats.num_vars,
            milp_constraints: model_stats.num_constraints,
            ..ExplorationStats::default()
        };
        // One budget for the whole exploration: the config's time limit
        // becomes an *absolute* deadline counted from `start`, shared
        // (together with the node and pivot counters) by every
        // candidate-selection solve, every refinement query, and every
        // certificate-strengthening solve. Each solve therefore sees the
        // remaining allowance, not a fresh one.
        let mut deadline = config.solve_options.budget.deadline();
        if let Some(secs) = config.time_limit_secs {
            deadline = deadline.min(Deadline::in_secs_from(start, secs));
        }
        let budget = config.solve_options.budget.clone().with_deadline(deadline);
        config.solve_options.budget = budget.clone();
        let checker =
            RefinementChecker::with_options(config.solve_options.clone(), EncodeOptions::default());
        let ref_config = RefinementConfig {
            compositional: config.compositional,
            max_paths: config.max_paths,
            ..RefinementConfig::default()
        };
        let baseline_vars = enc.model.num_vars();
        let baseline_constrs = enc.model.num_constrs();
        let fingerprint = fingerprint(&enc.model, &problem.spec, &config);
        Ok(Explorer {
            problem,
            config,
            enc,
            checker,
            ref_config,
            stats: ExplorationStats {
                total_time: start.elapsed().as_secs_f64(),
                ..stats
            },
            cut_seq: 0,
            cost_floor: None,
            start,
            prior_secs: 0.0,
            finished: false,
            budget,
            incumbent: None,
            baseline_vars,
            baseline_constrs,
            fingerprint,
            cache: RefinementCache::new(),
            prior_cache_hits: 0,
            prior_cache_misses: 0,
            warm: None,
            sym,
        })
    }

    /// Rebuild an explorer from a checkpoint: re-encode the problem, replay
    /// the recorded certificate cuts, and restore the counters so the
    /// continued run behaves as if it had never been interrupted (including
    /// charging the already-spent nodes/pivots against the budget).
    ///
    /// `config` may differ from the interrupted run's in its *budget* knobs
    /// (`max_iterations`, `time_limit_secs`, `solve_options.budget`) —
    /// raising them is exactly how an exhausted run is continued — and in
    /// `symmetry.orbit_pruning`. The semantic knobs (`iso_pruning`,
    /// `compositional`, `dominance_widening`, `max_paths`), the problem and
    /// its encoded model, symmetry rows included, are part of the checkpoint
    /// fingerprint and must match: a checkpoint resumes only in the build
    /// and under the `symmetry.milp_rows` setting that wrote it.
    ///
    /// # Errors
    ///
    /// [`ExploreError::CheckpointMismatch`] when the fingerprint disagrees,
    /// [`ExploreError::CheckpointInvalid`] when the cut records do not fit
    /// the encoding, or [`ExploreError::Solve`] when the problem fails
    /// validation.
    pub fn resume(
        problem: &'p Problem,
        config: ExplorerConfig,
        checkpoint: &ExplorerCheckpoint,
    ) -> Result<Self, ExploreError> {
        let mut ex = Explorer::new(problem, config)?;
        if ex.fingerprint != checkpoint.fingerprint {
            return Err(ExploreError::CheckpointMismatch {
                expected: checkpoint.fingerprint,
                found: ex.fingerprint,
            });
        }
        if ex.baseline_constrs != checkpoint.baseline_constrs
            || ex.baseline_vars != checkpoint.baseline_vars
        {
            return Err(ExploreError::CheckpointInvalid(format!(
                "baseline has {} vars / {} constraints, checkpoint recorded {} / {}",
                ex.baseline_vars,
                ex.baseline_constrs,
                checkpoint.baseline_vars,
                checkpoint.baseline_constrs
            )));
        }
        for aux in &checkpoint.aux_vars {
            if aux.lb.is_nan() || aux.ub.is_nan() || aux.lb > aux.ub {
                return Err(ExploreError::CheckpointInvalid(format!(
                    "auxiliary variable '{}' has malformed bounds",
                    aux.name
                )));
            }
            ex.enc
                .model
                .add_var(VarDef::new(aux.name.clone(), aux.ty, aux.lb, aux.ub));
        }
        let num_vars = ex.enc.model.num_vars();
        for cut in &checkpoint.cuts {
            if cut.terms.iter().any(|&(i, _)| i >= num_vars) {
                return Err(ExploreError::CheckpointInvalid(format!(
                    "cut '{}' references a variable outside the encoding",
                    cut.name
                )));
            }
            let expr =
                LinExpr::weighted_sum(cut.terms.iter().map(|&(i, c)| (VarId::from_index(i), c)));
            ex.enc
                .model
                .add_constr(cut.name.clone(), expr, cut.cmp, cut.rhs)?;
        }
        let fresh_vars = ex.stats.milp_vars;
        let fresh_constrs = ex.stats.milp_constraints;
        ex.stats = checkpoint.stats;
        ex.stats.milp_vars = fresh_vars;
        ex.stats.milp_constraints = fresh_constrs;
        ex.prior_secs = checkpoint.stats.total_time;
        ex.prior_cache_hits = checkpoint.stats.cache_hits;
        ex.prior_cache_misses = checkpoint.stats.cache_misses;
        ex.cut_seq = checkpoint.cut_seq;
        ex.cost_floor = checkpoint.cost_floor;
        ex.budget
            .restore_usage(checkpoint.nodes_used, checkpoint.pivots_used);
        Ok(ex)
    }

    /// [`Explorer::resume`] from serialized checkpoint text (the format of
    /// [`ExplorerCheckpoint::to_text`]), folding parse failures into the
    /// structured error space: truncated, garbage, or fingerprint-mismatched
    /// input returns an [`ExploreError`] — never a panic, and never a
    /// silently misparsed checkpoint (the text format is length-prefixed and
    /// validated record by record).
    ///
    /// # Errors
    ///
    /// [`ExploreError::CheckpointParse`] for unparseable text, plus every
    /// error [`Explorer::resume`] can return.
    pub fn resume_from_text(
        problem: &'p Problem,
        config: ExplorerConfig,
        text: &str,
    ) -> Result<Self, ExploreError> {
        let checkpoint =
            ExplorerCheckpoint::from_text(text).map_err(ExploreError::CheckpointParse)?;
        Explorer::resume(problem, config, &checkpoint)
    }

    /// Snapshot everything the exploration has learned — certificate cuts,
    /// the objective floor, counters, statistics — into a serializable
    /// checkpoint that [`Explorer::resume`] can continue from, possibly in a
    /// different process. The incumbent architecture is deliberately not
    /// stored: the first candidate-selection solve after resuming re-derives
    /// it from the replayed cuts.
    #[must_use]
    pub fn checkpoint(&self) -> ExplorerCheckpoint {
        let cuts = self
            .enc
            .model
            .constrs()
            .skip(self.baseline_constrs)
            .map(|c| CutRecord {
                name: c.name.clone(),
                cmp: c.cmp,
                rhs: c.rhs,
                terms: c.expr.iter().map(|(v, coeff)| (v.index(), coeff)).collect(),
            })
            .collect();
        let aux_vars = self
            .enc
            .model
            .vars()
            .skip(self.baseline_vars)
            .map(|(_, def)| AuxVarRecord {
                name: def.name.clone(),
                ty: def.ty,
                lb: def.lb,
                ub: def.ub,
            })
            .collect();
        let mut stats = self.stats;
        stats.total_time = self.prior_secs + self.start.elapsed().as_secs_f64();
        ExplorerCheckpoint {
            fingerprint: self.fingerprint,
            baseline_vars: self.baseline_vars,
            baseline_constrs: self.baseline_constrs,
            cut_seq: self.cut_seq,
            cost_floor: self.cost_floor,
            nodes_used: self.budget.nodes_used(),
            pivots_used: self.budget.pivots_used(),
            stats,
            aux_vars,
            cuts,
        }
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &ExplorationStats {
        &self.stats
    }

    /// The exploration-wide budget (shared deadline and work counters).
    #[must_use]
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// The most recent candidate selected by the MILP (unverified unless the
    /// exploration ended with [`Step::Optimal`]).
    #[must_use]
    pub fn incumbent(&self) -> Option<&Architecture> {
        self.incumbent.as_ref()
    }

    /// A proven lower bound on the optimal cost, once a candidate has been
    /// selected.
    #[must_use]
    pub fn lower_bound(&self) -> Option<f64> {
        self.cost_floor
    }

    /// Current total wall-clock time, including pre-checkpoint seconds.
    fn elapsed_total(&self) -> f64 {
        self.prior_secs + self.start.elapsed().as_secs_f64()
    }

    /// Finish the exploration on an exhausted budget.
    fn exhaust(&mut self, reason: StopReason) -> Step {
        self.stats.total_time = self.elapsed_total();
        self.finished = true;
        Step::Exhausted(reason)
    }

    /// Degrade a solver error gracefully when it is a budget exhaustion;
    /// propagate anything else.
    fn exhaust_or_err(&mut self, e: SolveError) -> Result<Step, ExploreError> {
        match StopReason::from_solve_error(&e) {
            Some(reason) => Ok(self.exhaust(reason)),
            None => Err(e.into()),
        }
    }

    /// Run one iteration of the loop.
    ///
    /// Exhausted budgets (iterations, the shared deadline, node or pivot
    /// allowances) are not errors: they yield [`Step::Exhausted`] and leave
    /// the incumbent and lower bound readable.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError`] on solver failures.
    ///
    /// # Panics
    ///
    /// Panics when called again after a terminal step ([`Step::Optimal`],
    /// [`Step::Infeasible`], or [`Step::Exhausted`]).
    pub fn step(&mut self) -> Result<Step, ExploreError> {
        assert!(!self.finished, "exploration already finished");
        if self.stats.iterations >= self.config.max_iterations {
            return Ok(self.exhaust(StopReason::IterationLimit {
                limit: self.config.max_iterations,
            }));
        }
        let deadline = self.budget.deadline();
        if deadline.expired() {
            return Ok(self.exhaust(StopReason::TimeLimit {
                limit_secs: deadline.nominal_secs().unwrap_or(0.0),
            }));
        }
        self.stats.iterations += 1;
        let mut iter_span = contrarc_obs::span!("explore.iteration", iter = self.stats.iterations);
        contrarc_obs::metrics::counter_add("explore.iterations", 1);

        // Problem 2: candidate selection. The optimum is nondecreasing
        // across iterations (cuts only remove solutions), so the previous
        // cost is a proven objective floor that lets branch-and-bound stop
        // at the first matching incumbent.
        let t0 = Instant::now();
        let mut solve_options = self.config.solve_options.clone();
        solve_options.objective_floor = self.cost_floor;
        let outcome = {
            let _select_span = contrarc_obs::span!(
                "explore.select",
                cuts = self.enc.model.num_constrs() - self.baseline_constrs,
            );
            // Dual-simplex warm start from the previous iteration's optimal
            // basis when warm starts are on: each iteration only appends cut
            // rows, so the old basis repairs cheaply.
            contrarc_milp::Solver::new(solve_options)
                .solve_with_state(&self.enc.model, self.warm.as_ref())
        };
        self.stats.milp_time += t0.elapsed().as_secs_f64();
        let outcome = match outcome {
            Ok((o, state)) => {
                self.warm = state;
                o
            }
            Err(e) => return self.exhaust_or_err(e),
        };

        let Some(solution) = outcome.solution() else {
            self.stats.total_time = self.elapsed_total();
            self.finished = true;
            iter_span.record("outcome", "infeasible");
            return Ok(Step::Infeasible);
        };
        self.cost_floor = Some(solution.objective());
        let arch = Architecture::decode(self.problem, &self.enc, solution);
        contrarc_obs::event!("explore.candidate", cost = arch.cost());
        self.incumbent = Some(arch.clone());

        // Problem 3: refinement verification (path verdicts memoized by the
        // path's label sequence).
        let t1 = Instant::now();
        let violations = {
            let _refine_span = contrarc_obs::span!("explore.refine");
            check_candidate_all_cached(
                self.problem,
                &arch,
                &self.ref_config,
                &self.checker,
                Some(&self.cache),
            )
        };
        self.stats.refine_time += t1.elapsed().as_secs_f64();
        self.stats.cache_hits = self.prior_cache_hits + self.cache.hits();
        self.stats.cache_misses = self.prior_cache_misses + self.cache.misses();
        contrarc_obs::metrics::gauge_set("refine.cache_entries", self.cache.len() as i64);
        let violations = match violations {
            Ok(v) => v,
            Err(e) => return self.exhaust_or_err(e),
        };

        if violations.is_empty() {
            self.stats.total_time = self.elapsed_total();
            self.finished = true;
            iter_span.record("outcome", "optimal");
            return Ok(Step::Optimal(arch));
        }

        // Problem 4: certificate generation.
        let t2 = Instant::now();
        let mut cert_span = contrarc_obs::span!("explore.cert", violations = violations.len());
        let cut_config = CutConfig {
            iso_pruning: self.config.iso_pruning,
            dominance_widening: self.config.dominance_widening,
            ..CutConfig::default()
        };
        let mut added = 0;
        let mut cut_err = None;
        for v in &violations {
            match apply_cuts(
                self.problem,
                &mut self.enc,
                &arch,
                v,
                &cut_config,
                self.sym.as_ref(),
                &mut self.cut_seq,
            ) {
                Ok(n) => added += n,
                Err(e) => {
                    cut_err = Some(e);
                    break;
                }
            }
        }
        cert_span.record("cuts", added);
        drop(cert_span);
        self.stats.cert_time += t2.elapsed().as_secs_f64();
        self.stats.cuts_added += added;
        contrarc_obs::metrics::counter_add("explore.cuts", added as u64);
        contrarc_obs::metrics::gauge_set(
            "explore.cut_pool",
            (self.enc.model.num_constrs() - self.baseline_constrs) as i64,
        );
        iter_span.record("outcome", "pruned");
        iter_span.record("cuts", added);
        if let Some(e) = cut_err {
            return self.exhaust_or_err(e);
        }
        debug_assert!(added > 0, "certificate generation must make progress");
        Ok(Step::Pruned {
            candidate: arch,
            violations,
            cuts_added: added,
        })
    }

    /// Drive the loop to completion (or budget exhaustion, which yields
    /// [`Exploration::Partial`] rather than an error).
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError`] on solver failures.
    pub fn run(mut self) -> Result<Exploration, ExploreError> {
        loop {
            match self.step()? {
                Step::Pruned { .. } => {}
                Step::Optimal(architecture) => {
                    return Ok(Exploration::Optimal {
                        architecture,
                        stats: self.stats,
                    });
                }
                Step::Infeasible => {
                    return Ok(Exploration::Infeasible { stats: self.stats });
                }
                Step::Exhausted(reason) => {
                    return Ok(Exploration::Partial {
                        incumbent: self.incumbent.take(),
                        lower_bound: self.cost_floor,
                        cuts: self.stats.cuts_added,
                        stats: self.stats,
                        reason,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{Attrs, COST, FLOW_CONS, FLOW_GEN, LATENCY, THROUGHPUT};
    use crate::problem::{FlowSpec, SystemSpec, TimingSpec};
    use crate::template::{Template, TypeConfig};
    use crate::Library;

    /// Two parallel lines; cheap machines are too slow for the latency
    /// budget, forcing at least one pruning iteration.
    fn lines_problem(max_latency: f64) -> Problem {
        let mut t = Template::new("two");
        let src_t = t.add_type("src", TypeConfig::source());
        let mach_t = t.add_type("mach", TypeConfig::bounded(2, 2));
        let sink_t = t.add_type("sink", TypeConfig::sink());
        for side in ["A", "B"] {
            let s = t.add_node(format!("S{side}"), src_t);
            let m = t.add_node(format!("M{side}"), mach_t);
            let k = t.add_required_node(format!("K{side}"), sink_t);
            t.add_candidate_edge(s, m);
            t.add_candidate_edge(m, k);
        }
        let mut lib = Library::new();
        lib.add(
            "S",
            src_t,
            Attrs::new()
                .with(COST, 1.0)
                .with(FLOW_GEN, 10.0)
                .with(LATENCY, 1.0),
        );
        lib.add(
            "M_slow",
            mach_t,
            Attrs::new()
                .with(COST, 1.0)
                .with(THROUGHPUT, 20.0)
                .with(LATENCY, 30.0),
        );
        lib.add(
            "M_mid",
            mach_t,
            Attrs::new()
                .with(COST, 3.0)
                .with(THROUGHPUT, 20.0)
                .with(LATENCY, 12.0),
        );
        lib.add(
            "M_fast",
            mach_t,
            Attrs::new()
                .with(COST, 6.0)
                .with(THROUGHPUT, 20.0)
                .with(LATENCY, 2.0),
        );
        lib.add(
            "K",
            sink_t,
            Attrs::new()
                .with(COST, 1.0)
                .with(FLOW_CONS, 5.0)
                .with(LATENCY, 1.0),
        );
        let spec = SystemSpec {
            flow: Some(FlowSpec {
                max_supply: 100.0,
                max_consumption: 100.0,
            }),
            timing: Some(TimingSpec {
                max_latency,
                max_input_jitter: 1.0,
                max_output_jitter: 1.0,
            }),
            flow_cap: 100.0,
            horizon: 1000.0,
        };
        Problem::new(t, lib, spec)
    }

    #[test]
    fn converges_to_feasible_optimum() {
        // Budget 15 admits M_mid (1+12+1 = 14) but not M_slow (32).
        let p = lines_problem(15.0);
        let result = explore(&p, &ExplorerConfig::complete()).unwrap();
        let arch = result.architecture().expect("optimal expected");
        // Expected: S + M_mid + K per line = (1+3+1)*2 = 10.
        assert!((arch.cost() - 10.0).abs() < 1e-6, "cost {}", arch.cost());
        assert!(
            result.stats().iterations >= 2,
            "must iterate past the slow candidate"
        );
    }

    #[test]
    fn no_iterations_needed_when_first_candidate_valid() {
        let p = lines_problem(50.0);
        let result = explore(&p, &ExplorerConfig::complete()).unwrap();
        assert_eq!(result.stats().iterations, 1);
        assert_eq!(result.stats().cuts_added, 0);
        // Cheapest machines fine: (1+1+1)*2 = 6.
        assert!((result.architecture().unwrap().cost() - 6.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_when_no_impl_fast_enough() {
        // Even M_fast (1+2+1 = 4) cannot meet a bound of 3.
        let p = lines_problem(3.0);
        let result = explore(&p, &ExplorerConfig::complete()).unwrap();
        assert!(matches!(result, Exploration::Infeasible { .. }));
    }

    #[test]
    fn all_three_modes_agree_on_cost() {
        let p = lines_problem(15.0);
        let complete = explore(&p, &ExplorerConfig::complete()).unwrap();
        let only_iso = explore(&p, &ExplorerConfig::only_iso()).unwrap();
        let only_dec = explore(&p, &ExplorerConfig::only_decomposition()).unwrap();
        let c = complete.architecture().unwrap().cost();
        assert!((only_iso.architecture().unwrap().cost() - c).abs() < 1e-6);
        assert!((only_dec.architecture().unwrap().cost() - c).abs() < 1e-6);
    }

    #[test]
    fn iso_pruning_reduces_iterations() {
        let p = lines_problem(15.0);
        let complete = explore(&p, &ExplorerConfig::complete()).unwrap();
        let only_dec = explore(&p, &ExplorerConfig::only_decomposition()).unwrap();
        assert!(
            complete.stats().iterations <= only_dec.stats().iterations,
            "iso pruning must not need more iterations ({} vs {})",
            complete.stats().iterations,
            only_dec.stats().iterations
        );
    }

    #[test]
    fn iteration_limit_degrades_to_partial() {
        let p = lines_problem(15.0);
        let config = ExplorerConfig {
            max_iterations: 1,
            ..ExplorerConfig::complete()
        };
        let result = explore(&p, &config).unwrap();
        let Exploration::Partial {
            incumbent,
            lower_bound,
            cuts,
            stats,
            reason,
        } = result
        else {
            panic!("expected Partial, got {result:?}");
        };
        assert!(matches!(reason, StopReason::IterationLimit { limit: 1 }));
        assert!(reason.to_string().contains("iteration cap"));
        // Iteration 1 selected (and rejected) the slow candidate, so the
        // partial result still carries what was learned from it.
        let inc = incumbent.expect("iteration 1 decoded a candidate");
        assert!(inc.cost() > 0.0);
        assert!(lower_bound.is_some());
        assert!(cuts > 0, "the rejected candidate must have produced cuts");
        assert_eq!(stats.iterations, 1);
        assert_eq!(stats.cuts_added, cuts);
    }

    #[test]
    fn expired_time_budget_degrades_to_partial() {
        let p = lines_problem(15.0);
        let config = ExplorerConfig {
            time_limit_secs: Some(0.0),
            ..ExplorerConfig::complete()
        };
        let result = explore(&p, &config).unwrap();
        assert!(result.is_partial());
        assert!(matches!(
            result,
            Exploration::Partial {
                reason: StopReason::TimeLimit { .. },
                ..
            }
        ));
        // Nothing was learned before the (already expired) deadline.
        assert!(result.incumbent().is_none());
    }

    #[test]
    fn pivot_budget_degrades_to_partial() {
        use contrarc_milp::Budget;
        let p = lines_problem(15.0);
        let mut config = ExplorerConfig::complete();
        config.solve_options.budget = Budget::unlimited().with_pivot_limit(1);
        let result = explore(&p, &config).unwrap();
        assert!(matches!(
            result,
            Exploration::Partial {
                reason: StopReason::PivotLimit { limit: 1 },
                ..
            }
        ));
    }

    #[test]
    fn partial_lower_bound_never_exceeds_optimum() {
        let p = lines_problem(15.0);
        let optimal = explore(&p, &ExplorerConfig::complete()).unwrap();
        let opt_cost = optimal.architecture().unwrap().cost();
        let config = ExplorerConfig {
            max_iterations: 1,
            ..ExplorerConfig::complete()
        };
        let partial = explore(&p, &config).unwrap();
        let lb = partial.lower_bound().expect("one iteration proves a floor");
        assert!(
            lb <= opt_cost + 1e-9,
            "lower bound {lb} exceeds optimum {opt_cost}"
        );
    }

    #[test]
    fn checkpoint_resume_reaches_same_optimum() {
        let p = lines_problem(15.0);
        let full = explore(&p, &ExplorerConfig::complete()).unwrap();
        let full_cost = full.architecture().unwrap().cost();
        let full_iters = full.stats().iterations;
        assert!(full_iters >= 2, "problem must need pruning for this test");

        // Interrupt after one iteration, checkpoint, resume, finish.
        let mut ex = Explorer::new(
            &p,
            ExplorerConfig {
                max_iterations: 1,
                ..ExplorerConfig::complete()
            },
        )
        .unwrap();
        loop {
            match ex.step().unwrap() {
                Step::Pruned { .. } => {}
                Step::Exhausted(_) => break,
                s => panic!("expected exhaustion first, got {s:?}"),
            }
        }
        let ckpt = ex.checkpoint();
        assert!(!ckpt.cuts.is_empty());
        assert_eq!(ckpt.stats.iterations, 1);

        let resumed = Explorer::resume(&p, ExplorerConfig::complete(), &ckpt).unwrap();
        let result = resumed.run().unwrap();
        let arch = result.architecture().expect("resumed run must converge");
        assert!((arch.cost() - full_cost).abs() < 1e-6);
        // The resumed run continues the iteration count instead of starting
        // over, and together the two halves match the uninterrupted run.
        assert_eq!(result.stats().iterations, full_iters);
    }

    #[test]
    fn checkpoint_rejects_different_problem() {
        let p15 = lines_problem(15.0);
        let p50 = lines_problem(50.0);
        let ex = Explorer::new(&p15, ExplorerConfig::complete()).unwrap();
        let ckpt = ex.checkpoint();
        let err = Explorer::resume(&p50, ExplorerConfig::complete(), &ckpt).unwrap_err();
        assert!(matches!(err, ExploreError::CheckpointMismatch { .. }));
    }

    #[test]
    fn checkpoint_rejects_different_pruning_config() {
        let p = lines_problem(15.0);
        let ex = Explorer::new(&p, ExplorerConfig::complete()).unwrap();
        let ckpt = ex.checkpoint();
        let err = Explorer::resume(&p, ExplorerConfig::only_iso(), &ckpt).unwrap_err();
        assert!(matches!(err, ExploreError::CheckpointMismatch { .. }));

        // Symmetry rows change the model the loop solves, so a checkpoint
        // written with them resumes only with them, and the reverse.
        let on = ExplorerConfig::complete();
        let off = ExplorerConfig {
            symmetry: SymmetryConfig::off(),
            ..ExplorerConfig::complete()
        };
        let written = [&on, &off].map(|config| {
            let mut ex = Explorer::new(&p, config.clone()).unwrap();
            let _ = ex.step().unwrap();
            ex.checkpoint()
        });
        assert!(written[0].baseline_constrs > written[1].baseline_constrs);
        for (ckpt, config) in written.iter().zip([off, on]) {
            let err = Explorer::resume(&p, config, ckpt).unwrap_err();
            assert!(matches!(err, ExploreError::CheckpointMismatch { .. }));
        }
    }

    #[test]
    fn symmetry_off_matches_default_optimum() {
        let p = lines_problem(15.0);
        let on = explore(&p, &ExplorerConfig::complete()).unwrap();
        let off = explore(
            &p,
            &ExplorerConfig {
                symmetry: SymmetryConfig::off(),
                ..ExplorerConfig::complete()
            },
        )
        .unwrap();
        let cost_on = on.architecture().unwrap().cost();
        let cost_off = off.architecture().unwrap().cost();
        assert_eq!(
            cost_on.to_bits(),
            cost_off.to_bits(),
            "symmetry must preserve the optimum bit-for-bit"
        );
        assert!(
            on.stats().cuts_added >= off.stats().cuts_added,
            "orbit expansion must not lose cuts ({} vs {})",
            on.stats().cuts_added,
            off.stats().cuts_added
        );
    }

    #[test]
    fn resume_may_raise_budget_knobs() {
        // Budget knobs (iteration caps, time limits) are not fingerprinted:
        // raising them is the whole point of resuming.
        let p = lines_problem(15.0);
        let config = ExplorerConfig {
            max_iterations: 1,
            ..ExplorerConfig::complete()
        };
        let ex = Explorer::new(&p, config).unwrap();
        let ckpt = ex.checkpoint();
        let raised = ExplorerConfig {
            max_iterations: 99,
            time_limit_secs: Some(3600.0),
            ..ExplorerConfig::complete()
        };
        assert!(Explorer::resume(&p, raised, &ckpt).is_ok());
    }

    #[test]
    fn stepwise_explorer_matches_batch() {
        let p = lines_problem(15.0);
        let batch = explore(&p, &ExplorerConfig::complete()).unwrap();
        let mut explorer = Explorer::new(&p, ExplorerConfig::complete()).unwrap();
        let mut pruned_steps = 0;
        let optimum = loop {
            match explorer.step().unwrap() {
                Step::Pruned {
                    violations,
                    cuts_added,
                    ..
                } => {
                    assert!(!violations.is_empty());
                    assert!(cuts_added > 0);
                    pruned_steps += 1;
                }
                Step::Optimal(arch) => break arch,
                Step::Infeasible => panic!("expected feasible"),
                Step::Exhausted(reason) => panic!("unexpected exhaustion: {reason}"),
            }
        };
        assert!((optimum.cost() - batch.architecture().unwrap().cost()).abs() < 1e-6);
        assert_eq!(pruned_steps + 1, batch.stats().iterations);
    }

    #[test]
    #[should_panic(expected = "already finished")]
    fn step_after_finish_panics() {
        let p = lines_problem(50.0);
        let mut explorer = Explorer::new(&p, ExplorerConfig::complete()).unwrap();
        while let Step::Pruned { .. } = explorer.step().unwrap() {}
        let _ = explorer.step();
    }

    #[test]
    fn stats_display() {
        let p = lines_problem(50.0);
        let result = explore(&p, &ExplorerConfig::complete()).unwrap();
        let text = result.stats().to_string();
        assert!(text.contains("iterations"));
        assert!(result.stats().milp_vars > 0);
        assert!(result.stats().milp_constraints > 0);
    }

    /// Every `StopReason` variant, for exhaustiveness-style tests. Extending
    /// the enum must extend this list (the match below fails to compile
    /// otherwise).
    fn all_stop_reasons() -> Vec<StopReason> {
        let variants = vec![
            StopReason::IterationLimit { limit: 7 },
            StopReason::TimeLimit {
                limit_secs: 0.1 + 0.2, // not exactly representable
            },
            StopReason::NodeLimit { limit: 9 },
            StopReason::PivotLimit { limit: 11 },
            StopReason::Cancelled,
        ];
        for v in &variants {
            // Force a compile error here when a new variant is missing above.
            match v {
                StopReason::IterationLimit { .. }
                | StopReason::TimeLimit { .. }
                | StopReason::NodeLimit { .. }
                | StopReason::PivotLimit { .. }
                | StopReason::Cancelled => {}
            }
        }
        variants
    }

    #[test]
    fn stop_reason_display_is_distinct_and_nonempty_for_every_variant() {
        let texts: Vec<String> = all_stop_reasons().iter().map(ToString::to_string).collect();
        for (i, t) in texts.iter().enumerate() {
            assert!(!t.is_empty());
            for u in &texts[i + 1..] {
                assert_ne!(t, u, "two variants render identically");
            }
        }
        assert!(texts[0].contains("iteration cap"));
        assert!(texts[1].contains("wall-clock"));
        assert!(texts[2].contains("node budget"));
        assert!(texts[3].contains("pivot budget"));
        assert!(texts[4].contains("cancelled"));
    }

    #[test]
    fn from_solve_error_maps_budget_exhaustion_and_nothing_else() {
        let cases = vec![
            (
                SolveError::TimeLimit { limit_secs: 2.5 },
                Some(StopReason::TimeLimit { limit_secs: 2.5 }),
            ),
            (
                SolveError::IterationLimit { limit: 3 },
                Some(StopReason::PivotLimit { limit: 3 }),
            ),
            (
                SolveError::NodeLimit { limit: 4 },
                Some(StopReason::NodeLimit { limit: 4 }),
            ),
            (SolveError::InvalidModel("x".into()), None),
            (SolveError::Numerical("y".into()), None),
            // The solver's own caps are failures, not a caller's budget.
            (
                SolveError::EngineLimit {
                    what: "simplex pivots per LP",
                    limit: 500_000,
                },
                None,
            ),
        ];
        for (e, expected) in cases {
            assert_eq!(StopReason::from_solve_error(&e), expected, "{e}");
        }
    }

    #[test]
    fn resume_from_text_round_trips_a_real_checkpoint() {
        let p = lines_problem(15.0);
        let mut ex = Explorer::new(
            &p,
            ExplorerConfig {
                max_iterations: 1,
                ..ExplorerConfig::complete()
            },
        )
        .unwrap();
        while !matches!(ex.step().unwrap(), Step::Exhausted(_)) {}
        let text = ex.checkpoint().to_text();
        let resumed = Explorer::resume_from_text(&p, ExplorerConfig::complete(), &text).unwrap();
        let result = resumed.run().unwrap();
        assert!(result.architecture().is_some());
    }

    #[test]
    fn resume_from_text_rejects_every_corruption_mode_structurally() {
        let p = lines_problem(15.0);
        let ex = Explorer::new(&p, ExplorerConfig::complete()).unwrap();
        let good = ex.checkpoint().to_text();

        // Truncation at every byte boundary that removes content (cutting
        // only the trailing newline leaves a complete document): never a
        // panic, never a silent misparse — every other prefix must error.
        for cut in 0..good.trim_end().len() {
            let truncated = &good[..cut];
            let err = Explorer::resume_from_text(&p, ExplorerConfig::complete(), truncated)
                .expect_err("truncated checkpoint accepted");
            assert!(
                matches!(err, ExploreError::CheckpointParse(_)),
                "byte {cut}: unexpected error {err:?}"
            );
        }

        // Garbage.
        for garbage in [
            "",
            "not a checkpoint",
            "\0\0\0\0",
            "contrarc-checkpoint v999\n",
        ] {
            let err = Explorer::resume_from_text(&p, ExplorerConfig::complete(), garbage)
                .expect_err("garbage accepted");
            assert!(matches!(err, ExploreError::CheckpointParse(_)));
        }

        // Fingerprint mismatch: a checkpoint of a different problem.
        let other = lines_problem(50.0);
        let other_text = Explorer::new(&other, ExplorerConfig::complete())
            .unwrap()
            .checkpoint()
            .to_text();
        let err = Explorer::resume_from_text(&p, ExplorerConfig::complete(), &other_text)
            .expect_err("mismatched checkpoint accepted");
        assert!(matches!(err, ExploreError::CheckpointMismatch { .. }));

        // Hostile record counts must not pre-allocate unboundedly.
        for (from, to) in [
            ("aux_vars 0", "aux_vars 987654321987654321"),
            ("cuts 0", "cuts 987654321987654321"),
        ] {
            let hostile = good.replace(from, to);
            if hostile == good {
                continue;
            }
            let err = Explorer::resume_from_text(&p, ExplorerConfig::complete(), &hostile)
                .expect_err("hostile count accepted");
            assert!(matches!(err, ExploreError::CheckpointParse(_)));
        }
    }

    /// A fresh explorer of `p` and its checkpoint text, carrying stats that
    /// a lossy float format would change.
    fn awkward_checkpoint(p: &Problem) -> (Explorer<'_>, ExplorationStats, String) {
        let ex = Explorer::new(p, ExplorerConfig::complete()).unwrap();
        let stats = ExplorationStats {
            iterations: 17,
            cuts_added: 5,
            milp_vars: 120,
            milp_constraints: 240,
            milp_time: 0.1 + 0.2, // not exactly representable
            refine_time: f64::MIN_POSITIVE,
            cert_time: -0.0,
            total_time: 123.456_789,
            cache_hits: u64::MAX,
            cache_misses: 3,
        };
        let text = ExplorerCheckpoint {
            stats,
            ..ex.checkpoint()
        }
        .to_text();
        (ex, stats, text)
    }

    #[test]
    fn stats_line_round_trip_is_exact() {
        // A resume takes every stats field from the text bit for bit, except
        // the model sizes, which it reads off the rebuilt model.
        let p = lines_problem(15.0);
        let (fresh, stats, text) = awkward_checkpoint(&p);
        let resumed = Explorer::resume_from_text(&p, ExplorerConfig::complete(), &text).unwrap();
        let expected = ExplorationStats {
            milp_vars: fresh.stats().milp_vars,
            milp_constraints: fresh.stats().milp_constraints,
            ..stats
        };
        assert_eq!(*resumed.stats(), expected);
        // Bit-exactness beyond PartialEq (−0.0 == 0.0 under PartialEq).
        assert_eq!(
            resumed.stats().cert_time.to_bits(),
            stats.cert_time.to_bits()
        );
    }

    #[test]
    fn stats_line_rejects_malformed_input() {
        let p = lines_problem(15.0);
        let (_, _, text) = awkward_checkpoint(&p);
        let good = text.lines().nth(6).unwrap();
        assert!(good.starts_with("stats 17 "));
        let mangled = good.replacen("17", "seventeen", 1);
        for bad in ["stats ", "stats 1 2 3", mangled.as_str()] {
            let err = Explorer::resume_from_text(
                &p,
                ExplorerConfig::complete(),
                &text.replacen(good, bad, 1),
            )
            .expect_err("malformed stats line accepted");
            assert!(
                matches!(err, ExploreError::CheckpointParse(ref e) if e.line == 7),
                "{err}"
            );
        }
    }

    #[test]
    fn display_names_every_field() {
        let stats = ExplorationStats {
            iterations: 17,
            total_time: 123.456_789,
            ..ExplorationStats::default()
        };
        assert_eq!(
            stats.to_string(),
            "iterations=17 cuts_added=0 milp_vars=0 milp_constraints=0 milp_time=0.000 \
             refine_time=0.000 cert_time=0.000 total_time=123.457 cache_hits=0 cache_misses=0"
        );
    }
}
