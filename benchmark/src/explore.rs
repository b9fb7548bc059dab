//! One exploration, two ways: untraced through `Explorer` (the end-to-end
//! measurement) and traced, driving the same lazy loop through the layers'
//! public functions with a span and a metrics-snapshot pair around each call
//! (the per-layer measurement). Both report a [`Trajectory`]; the traced one
//! must reproduce the untraced one bit for bit.

use crate::spans::Spans;
use crate::workload::{config, Verdict};
use contrarc::certificate::{apply_cuts, CutConfig};
use contrarc::encode::encode_problem2_sym;
use contrarc::refinement::check_candidate_all_cached;
use contrarc::sym::matcher_automorphisms;
use contrarc::{
    Architecture, Explorer, Problem, RefinementCache, RefinementConfig, Step, SymmetryConfig,
};
use contrarc_contracts::{EncodeOptions, RefinementChecker};
use contrarc_milp::Solver;
use contrarc_obs::metrics::{snapshot, MetricsReport};
use contrarc_obs::Value;
use std::hint::black_box;
use std::time::Instant;

/// Everything that must be bit-identical between the untraced and the
/// traced run of one problem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Trajectory {
    /// Optimal cost bits, or `None` when infeasible.
    pub optimum_bits: Option<u64>,
    pub iterations: usize,
    pub cuts: usize,
    /// Simplex pivots charged to the exploration budget: selection and
    /// refinement solves, plus speculative node evaluations when
    /// `threads > 1`.
    pub pivots: u64,
    /// Branch-and-bound nodes committed by every solve.
    pub nodes: u64,
}

impl Trajectory {
    pub fn verdict(&self) -> Verdict {
        self.optimum_bits.map(f64::from_bits)
    }
}

/// One untraced exploration: `Explorer::new` to its terminal `Step`.
pub struct Timed {
    /// Seconds in `Explorer::new`.
    pub setup_s: f64,
    /// Seconds from `Explorer::new` to the terminal step.
    pub explore_s: f64,
    /// The trajectory, or why the exploration failed (an error or a
    /// budget-exhausted partial result).
    pub result: Result<Trajectory, String>,
}

pub fn untraced(problem: &Problem, threads: usize) -> Timed {
    let t0 = Instant::now();
    let explorer = Explorer::new(problem, config(threads));
    let setup_s = t0.elapsed().as_secs_f64();
    let mut ex = match explorer {
        Ok(ex) => ex,
        Err(e) => {
            return Timed {
                setup_s,
                explore_s: t0.elapsed().as_secs_f64(),
                result: Err(e.to_string()),
            }
        }
    };
    let verdict = loop {
        match ex.step() {
            Ok(Step::Pruned { .. }) => {}
            Ok(Step::Optimal(arch)) => break Ok(Some(black_box(arch.cost()).to_bits())),
            Ok(Step::Infeasible) => break Ok(None),
            Ok(Step::Exhausted(reason)) => break Err(format!("partial result: {reason}")),
            Err(e) => break Err(e.to_string()),
        }
    };
    let explore_s = t0.elapsed().as_secs_f64();
    let result = verdict.map(|optimum_bits| Trajectory {
        optimum_bits,
        iterations: ex.stats().iterations,
        cuts: ex.stats().cuts_added,
        pivots: ex.budget().pivots_used(),
        nodes: ex.budget().nodes_used(),
    });
    Timed {
        setup_s,
        explore_s,
        result,
    }
}

/// Per-layer totals over traced explorations. Counters are deltas of
/// `contrarc_obs::metrics` snapshots taken at the layer boundaries; pivots
/// are deltas of the exploration budget's pivot counter.
#[derive(Debug, Default)]
pub struct Layers {
    /// Traced wall seconds, `encode` through the terminal step.
    pub wall_s: f64,
    pub encode_s: f64,
    pub automorphisms_s: f64,
    pub encode_vars: u64,
    pub encode_rows: u64,
    pub sym_milp_rows: u64,
    pub select_s: f64,
    pub select_calls: u64,
    /// Seconds of each exploration's last selection solve.
    pub select_final_s: f64,
    /// Cut rows in each exploration's last selection model.
    pub cut_rows_final: u64,
    pub select_pivots: u64,
    pub select_nodes: u64,
    pub refactorizations: u64,
    pub refactor_reuse: u64,
    /// Largest open-node frontier a selection solve raised the
    /// `milp.frontier` high-water mark to.
    pub frontier_max: i64,
    pub incumbents: u64,
    pub warm_hits: u64,
    pub warm_cold_falls: u64,
    pub pivots_saved: u64,
    pub decode_s: f64,
    pub refine_s: f64,
    pub refine_calls: u64,
    pub path_checks: u64,
    pub refine_pivots: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cert_s: f64,
    pub cert_cuts: u64,
    pub cert_scopes: u64,
    pub vf2_searches: u64,
    pub vf2_embeddings: u64,
    pub sym_enumerated: u64,
    pub sym_total: u64,
}

impl Layers {
    /// Seconds charged to a layer; `wall_s` minus this is time no layer
    /// span covers.
    pub fn covered_s(&self) -> f64 {
        self.encode_s
            + self.automorphisms_s
            + self.select_s
            + self.decode_s
            + self.refine_s
            + self.cert_s
    }
}

/// Counter delta between two snapshots (absent counters read 0).
fn delta(before: &MetricsReport, after: &MetricsReport, name: &str) -> u64 {
    after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)
}

/// The `milp.frontier` high-water mark, 0 before any solve.
fn frontier(report: &MetricsReport) -> i64 {
    report.gauge("milp.frontier").map_or(0, |g| g.max)
}

/// One traced exploration, adding its layer figures to `l`: the lazy loop
/// of `Explorer::new` and `Explorer::step`, driven through
/// `encode_problem2_sym`, `matcher_automorphisms`,
/// `Solver::solve_with_state`, `Architecture::decode`,
/// `check_candidate_all_cached` and `apply_cuts`, with a span around each
/// call. Must run with the metrics registry enabled.
///
/// # Errors
///
/// Returns a message when a layer fails or the iteration cap is reached.
pub fn traced(
    problem: &Problem,
    threads: usize,
    spans: &mut Spans,
    l: &mut Layers,
) -> Result<Trajectory, String> {
    let cfg = config(threads);
    let wall = Instant::now();
    let root = spans.open("bench.exploration", vec![("threads", Value::from(threads))]);

    // Setup, as in `Explorer::new`: the Problem-2 encoding with symmetry
    // rows, the symmetry-free encoding its checkpoint fingerprint hashes,
    // and the matcher automorphism group.
    let before = snapshot();
    let span = spans.open("encode", Vec::new());
    let encoded = encode_problem2_sym(problem, &cfg.symmetry).and_then(|enc| {
        if cfg.symmetry.milp_rows {
            black_box(encode_problem2_sym(problem, &SymmetryConfig::off())?);
        }
        Ok(enc)
    });
    l.encode_s += spans.close(span);
    let after = snapshot();
    let mut enc = encoded.map_err(|e| e.to_string())?;
    l.sym_milp_rows += delta(&before, &after, "sym.milp_rows");
    l.encode_vars += enc.model.num_vars() as u64;
    l.encode_rows += enc.model.num_constrs() as u64;

    let span = spans.open("sym.automorphisms", Vec::new());
    let sym = (cfg.symmetry.orbit_pruning && cfg.iso_pruning)
        .then(|| matcher_automorphisms(problem))
        .filter(|aut| !aut.is_trivial());
    l.automorphisms_s += spans.close(span);

    let deadline = cfg
        .solve_options
        .budget
        .deadline()
        .tightened_by_secs(cfg.time_limit_secs);
    let budget = cfg.solve_options.budget.clone().with_deadline(deadline);
    let mut solve_options = cfg.solve_options.clone();
    solve_options.budget = budget.clone();
    solve_options.threads = cfg.threads;
    let mut checker_options = solve_options.clone();
    checker_options.threads = 1;
    let checker = RefinementChecker::with_options(checker_options, EncodeOptions::default());
    let ref_config = RefinementConfig {
        compositional: cfg.compositional,
        max_paths: cfg.max_paths,
        threads: cfg.threads,
    };
    let cut_config = CutConfig {
        iso_pruning: cfg.iso_pruning,
        dominance_widening: cfg.dominance_widening,
        threads: cfg.threads,
    };
    let baseline_rows = enc.model.num_constrs();
    let cache = RefinementCache::new();
    let mut cost_floor = None;
    let mut warm = None;
    let mut cut_seq = 0u32;
    let mut iterations = 0usize;
    let mut cuts = 0usize;
    let mut last_select_s;
    let mut last_cut_rows;

    let optimum: Option<f64> = loop {
        if iterations >= cfg.max_iterations {
            return Err(format!("iteration cap of {} reached", cfg.max_iterations));
        }
        iterations += 1;
        let iteration = spans.open("bench.iteration", vec![("iter", Value::from(iterations))]);

        // Problem 2: candidate selection.
        let mut options = solve_options.clone();
        options.objective_floor = cost_floor;
        last_cut_rows = enc.model.num_constrs() - baseline_rows;
        let before = snapshot();
        let pivots0 = budget.pivots_used();
        let span = spans.open("select", vec![("cuts", Value::from(last_cut_rows))]);
        let outcome = Solver::new(options).solve_with_state(&enc.model, warm.as_ref());
        last_select_s = spans.close(span);
        let after = snapshot();
        l.select_s += last_select_s;
        l.select_calls += 1;
        l.select_pivots += budget.pivots_used() - pivots0;
        l.select_nodes += delta(&before, &after, "milp.nodes");
        l.refactorizations += delta(&before, &after, "milp.refactorizations");
        l.refactor_reuse += delta(&before, &after, "milp.refactor_reuse");
        l.incumbents += delta(&before, &after, "milp.incumbents");
        l.warm_hits += delta(&before, &after, "milp.warm_start_hits");
        l.warm_cold_falls += delta(&before, &after, "milp.warm_start_cold_falls");
        l.pivots_saved += delta(&before, &after, "milp.pivots_saved");
        if frontier(&after) > frontier(&before) {
            l.frontier_max = l.frontier_max.max(frontier(&after));
        }
        let (outcome, state) = outcome.map_err(|e| e.to_string())?;
        warm = state;
        let Some(solution) = outcome.solution() else {
            spans.close(iteration);
            break None;
        };
        cost_floor = Some(solution.objective());

        let span = spans.open("decode", Vec::new());
        let arch = Architecture::decode(problem, &enc, solution);
        l.decode_s += spans.close(span);

        // Problem 3: refinement verification.
        let pivots0 = budget.pivots_used();
        let span = spans.open("refine", Vec::new());
        let violations =
            check_candidate_all_cached(problem, &arch, &ref_config, &checker, Some(&cache));
        l.refine_s += spans.close(span);
        let after_refine = snapshot();
        l.refine_calls += 1;
        l.refine_pivots += budget.pivots_used() - pivots0;
        l.path_checks += delta(&after, &after_refine, "refine.path_checks");
        let violations = violations.map_err(|e| e.to_string())?;
        if violations.is_empty() {
            spans.close(iteration);
            break Some(arch.cost());
        }

        // Problem 4: certificate cuts, stopping at the first failing
        // violation as `Explorer::step` does.
        let span = spans.open("cert", vec![("violations", Value::from(violations.len()))]);
        let added: Result<usize, _> = violations
            .iter()
            .map(|v| {
                apply_cuts(
                    problem,
                    &mut enc,
                    &arch,
                    v,
                    &cut_config,
                    sym.as_ref(),
                    &mut cut_seq,
                )
            })
            .sum();
        l.cert_s += spans.close(span);
        let after_cert = snapshot();
        l.cert_scopes += delta(&after_refine, &after_cert, "cert.scopes");
        l.vf2_searches += delta(&after_refine, &after_cert, "vf2.searches");
        l.vf2_embeddings += delta(&after_refine, &after_cert, "vf2.embeddings");
        l.sym_enumerated += delta(&after_refine, &after_cert, "sym.embeddings_enumerated");
        l.sym_total += delta(&after_refine, &after_cert, "sym.embeddings_total");
        let added = added.map_err(|e| e.to_string())?;
        cuts += added;
        l.cert_cuts += added as u64;
        spans.close(iteration);
    };
    spans.close(root);
    l.wall_s += wall.elapsed().as_secs_f64();
    l.select_final_s += last_select_s;
    l.cut_rows_final += last_cut_rows as u64;
    l.cache_hits += cache.hits();
    l.cache_misses += cache.misses();
    Ok(Trajectory {
        optimum_bits: optimum.map(f64::to_bits),
        iterations,
        cuts,
        pivots: budget.pivots_used(),
        nodes: budget.nodes_used(),
    })
}
