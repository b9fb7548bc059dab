//! What an exploration is given and what it reports: its configuration,
//! statistics, outcome, stop reasons and errors.

use crate::candidate::Architecture;
use crate::checkpoint::CheckpointParseError;
use crate::sym::SymmetryConfig;
use contrarc_milp::{SolveError, SolveOptions};
use std::error::Error;
use std::fmt;

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
    /// the start of [`Explorer::new`](crate::Explorer::new) (encoding and
    /// automorphism search included).
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
    /// Variables in the initial Problem-2 MILP; later ones are auxiliary
    /// cut variables.
    pub milp_vars: usize,
    /// Constraints in the initial Problem-2 MILP, symmetry rows included;
    /// rows beyond this index are certificate cuts.
    pub milp_constraints: usize,
    /// Seconds spent in candidate-selection MILP solves.
    pub milp_time: f64,
    /// Seconds spent in refinement checking.
    pub refine_time: f64,
    /// Seconds spent generating certificates.
    pub cert_time: f64,
    /// Total wall-clock seconds, counted from the start of
    /// [`Explorer::new`](crate::Explorer::new).
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
    /// [`Explorer::checkpoint`](crate::Explorer::checkpoint) taken before
    /// the run.
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
        /// Run statistics, `cuts_added` among them: the certificate cuts
        /// accumulated before the interruption, which remain valid for any
        /// continuation of the search.
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
/// [`Exploration::Partial`] (or [`Step::Exhausted`](crate::Step::Exhausted)).
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
    /// malformed input that never became an
    /// [`ExplorerCheckpoint`](crate::ExplorerCheckpoint)).
    CheckpointParse(CheckpointParseError),
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

#[cfg(test)]
mod tests {
    use super::*;

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
