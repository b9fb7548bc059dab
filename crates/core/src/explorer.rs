//! The ContrArc exploration loop: Problems 2 → 3 → 4, iterated to the
//! optimum.

use crate::candidate::Architecture;
use crate::certificate::{apply_cuts, CutConfig};
use crate::checkpoint::{fingerprint, ExplorerCheckpoint};
use crate::encode::encode_problem2_sym;
use crate::exploration::{Exploration, ExplorationStats, ExploreError, ExplorerConfig, StopReason};
use crate::problem::Problem;
use crate::refinement::{check_candidate_all_cached, RefinementCache, RefinementConfig};
use contrarc_contracts::{EncodeOptions, RefinementChecker};
use contrarc_graph::Automorphisms;
use contrarc_milp::{Budget, Deadline, SolveError};
use std::time::Instant;

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
    /// explorer is finished; [`Explorer::conclude`] harvests the incumbent
    /// and lower bound, and a previously taken checkpoint resumes the run.
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
    /// Counters so far. `milp_vars` and `milp_constraints` size the freshly
    /// encoded model: later variables are auxiliary cut variables and later
    /// rows are certificate cuts.
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
    /// FNV-1a fingerprint of the freshly encoded model + pruning
    /// configuration, used to validate checkpoints.
    fingerprint: u64,
    /// Path refinement-verdict cache, shared by every iteration. It restarts
    /// empty on resume, so each step adds its own hits and misses to
    /// `stats`.
    cache: RefinementCache,
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
        let fingerprint = fingerprint(&enc.model, &problem.spec, &config);
        Ok(Explorer {
            problem,
            config,
            stats: ExplorationStats {
                milp_vars: enc.model.num_vars(),
                milp_constraints: enc.model.num_constrs(),
                total_time: start.elapsed().as_secs_f64(),
                ..ExplorationStats::default()
            },
            enc,
            checker,
            ref_config,
            cut_seq: 0,
            cost_floor: None,
            start,
            prior_secs: 0.0,
            finished: false,
            budget,
            incumbent: None,
            fingerprint,
            cache: RefinementCache::new(),
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
    /// [`ExploreError::CheckpointInvalid`] when the records do not fit the
    /// encoding or no run could have written them, or
    /// [`ExploreError::Solve`] when the problem fails validation.
    pub fn resume(
        problem: &'p Problem,
        config: ExplorerConfig,
        checkpoint: &ExplorerCheckpoint,
    ) -> Result<Self, ExploreError> {
        let mut ex = Explorer::new(problem, config)?;
        checkpoint.replay(ex.fingerprint, &mut ex.enc.model)?;
        ex.stats = checkpoint.stats;
        ex.prior_secs = checkpoint.stats.total_time;
        ex.cut_seq = checkpoint.cut_seq;
        ex.cost_floor = checkpoint.cost_floor;
        ex.budget
            .restore_usage(checkpoint.nodes_used, checkpoint.pivots_used);
        Ok(ex)
    }

    /// [`Explorer::resume`] from serialized checkpoint text (the format of
    /// [`ExplorerCheckpoint::to_text`]), folding parse failures into the
    /// structured error space: truncated, garbage, corrupted or
    /// fingerprint-mismatched input returns an [`ExploreError`] — never a
    /// panic, and never a silently misparsed checkpoint (the text format is
    /// length-prefixed, validated record by record, and checksummed).
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
        ExplorerCheckpoint::capture(
            &self.enc.model,
            self.fingerprint,
            self.cut_seq,
            self.cost_floor,
            &self.budget,
            ExplorationStats {
                total_time: self.elapsed_total(),
                ..self.stats
            },
        )
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

    /// End the exploration with the terminal step `last`: stop the clock and
    /// refuse further steps.
    fn finish(&mut self, last: Step) -> Step {
        self.stats.total_time = self.elapsed_total();
        self.finished = true;
        last
    }

    /// Degrade a solver error gracefully when it is a budget exhaustion;
    /// propagate anything else.
    fn exhaust_or_err(&mut self, e: SolveError) -> Result<Step, ExploreError> {
        match StopReason::from_solve_error(&e) {
            Some(reason) => Ok(self.finish(Step::Exhausted(reason))),
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
            let limit = self.config.max_iterations;
            return Ok(self.finish(Step::Exhausted(StopReason::IterationLimit { limit })));
        }
        let deadline = self.budget.deadline();
        if deadline.expired() {
            let limit_secs = deadline.nominal_secs().unwrap_or(0.0);
            return Ok(self.finish(Step::Exhausted(StopReason::TimeLimit { limit_secs })));
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
                cuts = self.enc.model.num_constrs() - self.stats.milp_constraints,
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
            iter_span.record("outcome", "infeasible");
            return Ok(self.finish(Step::Infeasible));
        };
        self.cost_floor = Some(solution.objective());
        let arch = Architecture::decode(self.problem, &self.enc, solution);
        contrarc_obs::event!("explore.candidate", cost = arch.cost());
        self.incumbent = Some(arch.clone());

        // Problem 3: refinement verification (path verdicts memoized by the
        // path's label sequence).
        let t1 = Instant::now();
        let (hits, misses) = (self.cache.hits(), self.cache.misses());
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
        self.stats.cache_hits += self.cache.hits() - hits;
        self.stats.cache_misses += self.cache.misses() - misses;
        contrarc_obs::metrics::gauge_set("refine.cache_entries", self.cache.len() as i64);
        let violations = match violations {
            Ok(v) => v,
            Err(e) => return self.exhaust_or_err(e),
        };

        if violations.is_empty() {
            iter_span.record("outcome", "optimal");
            return Ok(self.finish(Step::Optimal(arch)));
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
            (self.enc.model.num_constrs() - self.stats.milp_constraints) as i64,
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

    /// The outcome of an exploration whose last step was `last`, or `None`
    /// when `last` is [`Step::Pruned`] and the loop goes on.
    ///
    /// [`Step::Exhausted`] becomes [`Exploration::Partial`] with the
    /// incumbent and lower bound as they stand, so a caller that stops the
    /// loop itself (on a cancellation, say) reports the same way with
    /// `Step::Exhausted(StopReason::Cancelled)`. On an exploration that has
    /// not finished, `total_time` is the time elapsed so far.
    #[must_use]
    pub fn conclude(&self, last: Step) -> Option<Exploration> {
        let mut stats = self.stats;
        if !self.finished {
            stats.total_time = self.elapsed_total();
        }
        match last {
            Step::Pruned { .. } => None,
            Step::Optimal(architecture) => Some(Exploration::Optimal {
                architecture,
                stats,
            }),
            Step::Infeasible => Some(Exploration::Infeasible { stats }),
            Step::Exhausted(reason) => Some(Exploration::Partial {
                incumbent: self.incumbent.clone(),
                lower_bound: self.cost_floor,
                stats,
                reason,
            }),
        }
    }

    /// Drive the loop to completion (or budget exhaustion, which yields
    /// [`Exploration::Partial`] rather than an error).
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError`] on solver failures.
    pub fn run(mut self) -> Result<Exploration, ExploreError> {
        loop {
            let last = self.step()?;
            if let Some(done) = self.conclude(last) {
                return Ok(done);
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::attr::{Attrs, COST, FLOW_CONS, FLOW_GEN, LATENCY, THROUGHPUT};
    use crate::problem::{FlowSpec, SystemSpec, TimingSpec};
    use crate::sym::SymmetryConfig;
    use crate::template::{Template, TypeConfig};
    use crate::Library;

    /// Two parallel lines; cheap machines are too slow for the latency
    /// budget, forcing at least one pruning iteration. The checkpoint tests
    /// run on it too.
    pub(crate) fn lines_problem(max_latency: f64) -> Problem {
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
        assert!(
            stats.cuts_added > 0,
            "the rejected candidate must have produced cuts"
        );
        assert_eq!(stats.iterations, 1);
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
    fn conclude_reports_each_terminal_step() {
        let p = lines_problem(15.0);
        let mut ex = Explorer::new(&p, ExplorerConfig::complete()).unwrap();
        let first = ex.step().unwrap();
        assert!(matches!(first, Step::Pruned { .. }));
        assert_eq!(ex.conclude(first), None);
        // A caller that stops the loop itself reports what was learned.
        let Some(Exploration::Partial {
            incumbent,
            lower_bound,
            stats,
            reason: StopReason::Cancelled,
        }) = ex.conclude(Step::Exhausted(StopReason::Cancelled))
        else {
            panic!("a stopped loop concludes Partial");
        };
        assert_eq!(incumbent.as_ref(), ex.incumbent());
        assert_eq!(lower_bound, ex.lower_bound());
        // The loop never finished, so the clock reads the time elapsed.
        let stopped = ExplorationStats {
            total_time: stats.total_time,
            ..*ex.stats()
        };
        assert_eq!(stats, stopped);
        assert!(stats.total_time > ex.stats().total_time);
        assert!(stats.cuts_added > 0);
        let Some(Exploration::Infeasible { stats: later }) = ex.conclude(Step::Infeasible) else {
            panic!("an infeasible step concludes Infeasible");
        };
        assert!(later.total_time >= stats.total_time);
        assert_eq!(
            later,
            ExplorationStats {
                total_time: later.total_time,
                ..stats
            }
        );
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
}
