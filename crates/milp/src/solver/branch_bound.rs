//! Best-bound branch-and-bound over the simplex LP relaxation.
//!
//! Nodes pop in a *total* order (bound, then depth, then creation sequence
//! number), so the trajectory is a pure function of the model and options:
//! ties never depend on the heap's insertion history.

use crate::error::SolveError;
use crate::model::Model;
use crate::solution::{Outcome, Solution, SolveStats};
use crate::solver::backend::{solve_lp, LpRequest, LpSolve};
use crate::solver::budget::Deadline;
use crate::solver::setup::RootSetup;
use crate::solver::{BasisSnapshot, LpOutcome, LpWorkspace, Numerics, SolveOptions, WarmStart};
use crate::standard_form::StandardForm;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::mem;
use std::sync::Arc;
use std::time::Instant;

/// Integrality tolerance: `x` counts as integral if `|x − round(x)| ≤ INT_TOL`.
const INT_TOL: f64 = 1e-6;
/// Absolute optimality gap at which branch-and-bound stops refining.
const ABS_GAP: f64 = 1e-6;
/// Branch-and-bound nodes one solve may process.
const MAX_NODES: u64 = 2_000_000;

/// One branching tightening relative to the parent node.
#[derive(Debug, Clone, Copy)]
enum BranchStep {
    /// `x[var] ≤ value` (down branch).
    Upper { var: usize, value: f64 },
    /// `x[var] ≥ value` (up branch).
    Lower { var: usize, value: f64 },
}

/// A subproblem, stored as the *delta* from the shared root bounds: the chain
/// of branching steps on the path from the root to this node. Materializing
/// the full bound vectors costs one copy of the root bounds at pop time;
/// nodes that are pruned before being processed never materialize at all.
/// This keeps pushing children O(depth) instead of O(vars).
#[derive(Debug, Clone)]
struct Node {
    steps: Vec<BranchStep>,
    /// LP bound of the *parent* (minimization space); used for best-first
    /// ordering before this node's own relaxation is solved.
    bound: f64,
    depth: u32,
    /// Creation sequence number: unique, assigned in push order. The last
    /// tie-break of the heap order, which makes that order total.
    seq: u64,
    /// Parent's optimal basis, for dual-simplex warm starts.
    warm: Option<Arc<BasisSnapshot>>,
}

impl Node {
    /// Write this node's full bound vectors, from the shared root bounds,
    /// into `lbs` and `ubs`.
    fn materialize(
        &self,
        root_lbs: &[f64],
        root_ubs: &[f64],
        lbs: &mut Vec<f64>,
        ubs: &mut Vec<f64>,
    ) {
        lbs.clear();
        lbs.extend_from_slice(root_lbs);
        ubs.clear();
        ubs.extend_from_slice(root_ubs);
        for step in &self.steps {
            match *step {
                BranchStep::Upper { var, value } => ubs[var] = value,
                BranchStep::Lower { var, value } => lbs[var] = value,
            }
        }
    }
}

/// Max-heap entry ordered so the smallest bound pops first.
struct HeapEntry(Node);

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the lowest bound first;
        // break ties toward deeper nodes (cheap plunging), then toward the
        // earlier-created node. The final tie-break makes the order *total*,
        // so the pop sequence is a pure function of the heap's contents.
        other
            .0
            .bound
            .partial_cmp(&self.0.bound)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.0.depth.cmp(&other.0.depth))
            .then_with(|| other.0.seq.cmp(&self.0.seq))
    }
}

/// Solve one LP relaxation on workspace `ws` (with optional dual-simplex
/// warm start), charging pivots to the shared budget and counting its
/// refactorizations. The bounds are the node's, `ws.lbs`/`ws.ubs`, or with
/// `fixed` the node's with every integer fixed, `ws.fixed_lbs`/`ws.fixed_ubs`.
fn eval_lp(
    sf_root: &StandardForm,
    fixed: bool,
    warm: Option<&BasisSnapshot>,
    opts: &SolveOptions,
    numerics: &Numerics,
    deadline: Deadline,
    ws: &mut LpWorkspace,
) -> LpSolve {
    let mut lp_span = contrarc_obs::span!("milp.lp");
    let (lbs, ubs) = if fixed {
        (&ws.fixed_lbs, &ws.fixed_ubs)
    } else {
        (&ws.lbs, &ws.ubs)
    };
    let sf = sf_root.rebind(lbs, ubs, mem::take(&mut ws.bounds));
    let solve = solve_lp(
        &LpRequest {
            sf: &sf,
            opts,
            numerics,
            deadline,
            warm,
        },
        ws,
    );
    ws.bounds = sf.into_bounds();
    lp_span.record("pivots", solve.pivots);
    if solve.refactorizations > 0 {
        contrarc_obs::metrics::counter_add("milp.refactorizations", solve.refactorizations);
    }
    if solve.refactor_reuses > 0 {
        contrarc_obs::metrics::counter_add("milp.refactor_reuse", solve.refactor_reuses);
    }
    solve
}

/// Solve a MILP with the settings `numerics` of one retry-ladder rung.
/// `root_warm` optionally carries state from a *previous* solve of a
/// monotonically grown model (the cut loop): its basis warm-starts the root
/// relaxation, remapped to this model's shape and silently dropped when it
/// does not fit, its root setup is extended where it fits (see the `setup`
/// module), and its LP workspace, if it still has one, serves this solve's
/// node LPs. Returns the outcome together with the state for the caller to
/// feed into the next solve: the basis of the final incumbent (root basis
/// when no incumbent improved on it), this solve's root setup and its LP
/// workspace; `None` with warm starts off.
pub(crate) fn solve(
    model: &Model,
    opts: &SolveOptions,
    numerics: &Numerics,
    root_warm: Option<&WarmStart>,
) -> Result<(Outcome, Option<WarmStart>), SolveError> {
    let ws = root_warm
        .filter(|_| opts.warm_start)
        .and_then(WarmStart::take_workspace)
        .unwrap_or_default();
    solve_on(model, opts, numerics, root_warm, ws)
}

/// [`solve`] with its node LPs on workspace `ws`, whatever its buffers hold.
pub(crate) fn solve_on(
    model: &Model,
    opts: &SolveOptions,
    numerics: &Numerics,
    root_warm: Option<&WarmStart>,
    mut ws: LpWorkspace,
) -> Result<(Outcome, Option<WarmStart>), SolveError> {
    let start = Instant::now();
    // One absolute deadline, the shared budget's: every LP below inherits
    // it, so a long branch-and-bound cannot restart the clock per relaxation.
    let deadline = opts.budget.deadline();
    let mut stats = SolveStats::default();
    let mut solve_span = contrarc_obs::span!(
        "milp.solve",
        vars = model.num_vars(),
        constraints = model.stats().num_constraints,
    );

    // Root setup: presolve (detect trivial infeasibility, tighten bounds),
    // then build and equilibrate the matrix once; nodes only rebind bounds.
    // A setup carried from the previous cut-loop solve is extended where
    // that equals a rebuild. Warm starts off rebuild every time.
    let carried = root_warm
        .filter(|_| opts.warm_start)
        .and_then(|w| w.take_setup(model, numerics.presolve));
    let (setup, setup_report) = RootSetup::prepare(model, numerics.presolve, carried);
    let Some(setup) = setup else {
        stats.time_secs = start.elapsed().as_secs_f64();
        setup_report.emit();
        return Ok((Outcome::Infeasible { stats }, None));
    };
    let (root_lbs, root_ubs) = (&setup.lbs, &setup.ubs);
    let sf_root = &setup.form.sf;

    let int_vars: Vec<usize> = model
        .vars()
        .filter(|(_, d)| d.ty.is_integral())
        .map(|(v, _)| v.index())
        .collect();
    // Branching priority: fractional variables with large objective
    // coefficients move the node bound fastest (a cheap pseudo-cost proxy).
    let mut branch_weight = vec![0.0_f64; model.num_vars()];
    for (v, c) in model.objective().iter() {
        branch_weight[v.index()] = c.abs();
    }
    let wmax = branch_weight
        .iter()
        .fold(0.0_f64, |a, &b| a.max(b))
        .max(1.0);
    for (i, w) in branch_weight.iter_mut().enumerate() {
        *w = (1.0 + *w / wmax) * model.branch_priority(crate::VarId::from_index(i));
    }

    // Cut-loop warm start: remap the previous solve's basis to this model's
    // shape (cuts append rows and auxiliary columns; the snapshot grows to
    // match, or is dropped when the model shrank).
    let root_warm: Option<Arc<BasisSnapshot>> = root_warm
        .and_then(|w| w.snap.remap(sf_root.num_structural, sf_root.num_rows))
        .map(Arc::new);

    let mut next_seq: u64 = 0;
    let mut heap = BinaryHeap::new();
    heap.push(HeapEntry(Node {
        steps: Vec::new(),
        bound: f64::NEG_INFINITY,
        depth: 0,
        seq: next_seq,
        warm: root_warm,
    }));
    next_seq += 1;

    // (values, min-space obj, model-sense obj)
    let mut incumbent: Option<(Vec<f64>, f64, f64)> = None;
    let mut root_unbounded = false;
    // Root relaxation pivot count: the cold-ish baseline used to estimate
    // pivots saved by warm-started descendants.
    let mut root_pivots: Option<u64> = None;
    // Basis to hand back for the *next* solve in a cut loop: the final
    // incumbent's basis, falling back to the root basis.
    let mut warm_out: Option<Arc<BasisSnapshot>> = None;
    // Objective floor in minimization space: an incumbent at or below it is
    // provably optimal without exhausting the tree.
    let floor_min = opts
        .objective_floor
        .map(|f| sf_root.obj_sign * (f - sf_root.obj_offset));
    let reached_floor = |inc: &Option<(Vec<f64>, f64, f64)>| -> bool {
        match (inc, floor_min) {
            (Some((_, min_inc, _)), Some(fl)) => *min_inc <= fl + ABS_GAP,
            _ => false,
        }
    };

    while let Some(HeapEntry(node)) = heap.pop() {
        if stats.nodes >= MAX_NODES {
            return Err(SolveError::EngineLimit {
                what: "branch-and-bound nodes per solve",
                limit: MAX_NODES,
            });
        }
        if deadline.expired() {
            return Err(deadline.to_error());
        }
        // Bound-based pruning against the incumbent.
        if let Some((_, inc, _)) = &incumbent {
            if node.bound >= *inc - ABS_GAP {
                continue;
            }
        }
        stats.nodes += 1;
        opts.budget.charge_nodes(1)?;
        let mut node_span = contrarc_obs::span!("milp.node", seq = node.seq, depth = node.depth);
        contrarc_obs::metrics::counter_add("milp.nodes", 1);
        // Open-node frontier after this pop.
        contrarc_obs::metrics::gauge_set("milp.frontier", heap.len() as i64);

        node.materialize(root_lbs, root_ubs, &mut ws.lbs, &mut ws.ubs);
        let eval = eval_lp(
            sf_root,
            false,
            node.warm.as_deref(),
            opts,
            numerics,
            deadline,
            &mut ws,
        );
        stats.simplex_iterations += eval.pivots;
        node_span.record("pivots", eval.pivots);
        if eval.warm_attempted {
            if eval.warm_used {
                contrarc_obs::metrics::counter_add("milp.warm_start_hits", 1);
                if node.depth > 0 {
                    if let Some(rp) = root_pivots {
                        contrarc_obs::metrics::counter_add(
                            "milp.pivots_saved",
                            rp.saturating_sub(eval.pivots),
                        );
                    }
                }
            } else {
                contrarc_obs::metrics::counter_add("milp.warm_start_cold_falls", 1);
            }
        }
        if node.depth == 0 {
            root_pivots = Some(eval.pivots);
        }
        let lp = eval.result?;
        let node_snapshot = eval.basis;
        if node.depth == 0 {
            warm_out = node_snapshot.clone();
        }
        let (values, min_obj) = match lp {
            LpOutcome::Infeasible => continue,
            // An unbounded child of a bounded root needs an integral
            // recession direction; treat any unbounded node conservatively.
            LpOutcome::Unbounded => {
                root_unbounded = true;
                break;
            }
            LpOutcome::Optimal { values, min_obj } => (values, min_obj),
        };

        if let Some((_, inc, _)) = &incumbent {
            if min_obj >= *inc - ABS_GAP {
                continue; // dominated
            }
        }

        // Split on the most fractional integral variable. A node integral
        // within tolerance offers at most one candidate point instead: its
        // LP point when every integer is exactly integral. Near-integral
        // values leak through big-M constraints (M·INT_TOL can exceed the
        // constraint margin), so otherwise the candidate is the point of the
        // LP with every integer fixed to its rounded value, and the node
        // still splits on its most nearly fractional variable, since the
        // relaxation may admit better integer points nearby.
        let mut split = most_fractional(&values, &int_vars, INT_TOL, &branch_weight);
        let mut candidate = None;
        if split.is_none() {
            ws.fixed_lbs.clone_from(&ws.lbs);
            ws.fixed_ubs.clone_from(&ws.ubs);
            let mut exact = true;
            for &vi in &int_vars {
                let r = values[vi].round().clamp(ws.lbs[vi], ws.ubs[vi]);
                if (values[vi] - r).abs() > 1e-12 {
                    exact = false;
                }
                ws.fixed_lbs[vi] = r;
                ws.fixed_ubs[vi] = r;
            }
            if exact {
                candidate = Some((values, min_obj, node_snapshot.clone()));
            } else {
                split = most_fractional(&values, &int_vars, 0.0, &branch_weight);
                let fixed = eval_lp(sf_root, true, None, opts, numerics, deadline, &mut ws);
                stats.simplex_iterations += fixed.pivots;
                match fixed.result? {
                    LpOutcome::Optimal {
                        values: mut point,
                        min_obj: fixed_obj,
                    } => {
                        for &vi in &int_vars {
                            point[vi] = point[vi].round();
                        }
                        candidate = Some((point, fixed_obj, fixed.basis));
                    }
                    // A phantom integral point: only the split remains.
                    LpOutcome::Infeasible => {}
                    LpOutcome::Unbounded => {
                        root_unbounded = true;
                        break;
                    }
                }
            }
        }

        if let Some((point, cand_obj, basis)) = candidate {
            if incumbent
                .as_ref()
                .is_none_or(|(_, inc, _)| cand_obj < *inc - ABS_GAP)
            {
                check_rows(model, &point)?;
                let objective = sf_root.model_objective(cand_obj);
                contrarc_obs::event!("milp.incumbent", objective = objective);
                contrarc_obs::metrics::counter_add("milp.incumbents", 1);
                incumbent = Some((point, cand_obj, objective));
                if basis.is_some() {
                    warm_out = basis;
                }
                if reached_floor(&incumbent) {
                    break;
                }
            }
        }
        if let Some((vi, x)) = split {
            push_children(
                &mut heap,
                &node,
                (&ws.lbs, &ws.ubs),
                vi,
                x,
                min_obj,
                &node_snapshot,
                &mut next_seq,
            );
        }
    }

    stats.time_secs = start.elapsed().as_secs_f64();
    solve_span.record("nodes", stats.nodes);
    solve_span.record("pivots", stats.simplex_iterations);
    setup_report.emit();
    if root_unbounded {
        return Ok((Outcome::Unbounded { stats }, None));
    }
    match incumbent {
        Some((values, _, objective)) => Ok((
            Outcome::Optimal {
                solution: Solution::new(values, objective),
                stats,
            },
            warm_out.map(|snap| WarmStart::new(snap, setup, ws)),
        )),
        None => Ok((Outcome::Infeasible { stats }, None)),
    }
}

/// The integral variable maximizing `fractionality · weight` (among those
/// strictly more fractional than `threshold`), with its value. Weights bias
/// branching toward objective-heavy variables.
fn most_fractional(
    values: &[f64],
    int_vars: &[usize],
    threshold: f64,
    weights: &[f64],
) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    let mut best_score = 0.0_f64;
    for &vi in int_vars {
        let x = values[vi];
        let frac = (x - x.round()).abs();
        if frac <= threshold {
            continue;
        }
        let score = frac * weights.get(vi).copied().unwrap_or(1.0);
        if best.is_none() || score > best_score {
            best_score = score;
            best = Some((vi, x));
        }
    }
    best
}

/// Relative tolerance of the incumbent row check, and of presolve's verdict
/// on a row without terms: a row may miss its right-hand side by at most
/// `ROW_TOL · (1 + |rhs|)` in model units.
pub(crate) const ROW_TOL: f64 = 1e-6;

/// Check an incumbent against the model's own (unscaled) rows. The simplex
/// judges feasibility on the equilibrated standard form with its own
/// tolerances, and on rare ill-conditioned bases the point it reports as
/// optimal misses a model row by far more than its feasibility tolerance. A violating
/// incumbent is reported as a numerical failure, so the solver's retry
/// ladder re-solves with safer settings instead of returning an infeasible
/// "optimum". The error names the row by its index, and by its name too
/// when it has one.
fn check_rows(model: &Model, values: &[f64]) -> Result<(), SolveError> {
    for (i, c) in model.constrs().enumerate() {
        let violation = c.violation(values);
        if violation > ROW_TOL * (1.0 + c.rhs.abs()) {
            let name = if c.name.is_empty() {
                String::new()
            } else {
                format!(" `{}`", c.name)
            };
            return Err(SolveError::Numerical(format!(
                "incumbent violates row {i}{name} by {violation:e}"
            )));
        }
    }
    Ok(())
}

/// Push the down (`x ≤ ⌊v⌋`) and up (`x ≥ ⌊v⌋+1`) children of a node. Each
/// child extends the parent's branching chain by one step; `bounds` is the
/// parent's materialized bounds, used only for child-feasibility checks.
/// Children carry the parent's basis for dual-simplex warm starts; it is
/// present only under [`SolveOptions::warm_start`].
#[allow(clippy::too_many_arguments)]
fn push_children(
    heap: &mut BinaryHeap<HeapEntry>,
    node: &Node,
    bounds: (&[f64], &[f64]),
    vi: usize,
    x: f64,
    bound: f64,
    warm: &Option<Arc<BasisSnapshot>>,
    next_seq: &mut u64,
) {
    let (lbs, ubs) = bounds;
    let floor = x.floor();
    if floor >= lbs[vi] - INT_TOL {
        let mut steps = node.steps.clone();
        steps.push(BranchStep::Upper {
            var: vi,
            value: floor,
        });
        heap.push(HeapEntry(Node {
            steps,
            bound,
            depth: node.depth + 1,
            seq: *next_seq,
            warm: warm.clone(),
        }));
        *next_seq += 1;
    }
    if floor + 1.0 <= ubs[vi] + INT_TOL {
        let mut steps = node.steps.clone();
        steps.push(BranchStep::Lower {
            var: vi,
            value: floor + 1.0,
        });
        heap.push(HeapEntry(Node {
            steps,
            bound,
            depth: node.depth + 1,
            seq: *next_seq,
            warm: warm.clone(),
        }));
        *next_seq += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::budget::Budget;
    use crate::{Cmp, LinExpr, Model, Sense};

    /// [`super::solve`] at rung 0 of the retry ladder, where every solve
    /// starts.
    fn solve(
        m: &Model,
        opts: &SolveOptions,
        root_warm: Option<&WarmStart>,
    ) -> Result<(Outcome, Option<WarmStart>), SolveError> {
        super::solve(m, opts, &Numerics::at_rung(0), root_warm)
    }

    fn solve_default(m: &Model) -> Outcome {
        solve(m, &SolveOptions::default(), None)
            .expect("solver error")
            .0
    }

    #[test]
    fn knapsack_small() {
        // max 4a+5b+6c s.t. 3a+4b+5c <= 7 -> pick a,b: 9
        let mut m = Model::new("k");
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let c = m.add_binary("c");
        m.add_constr("cap", 3.0 * a + 4.0 * b + 5.0 * c, Cmp::Le, 7.0)
            .unwrap();
        m.set_objective(Sense::Maximize, 4.0 * a + 5.0 * b + 6.0 * c);
        let sol = solve_default(&m).expect_optimal().unwrap();
        assert!((sol.objective() - 9.0).abs() < 1e-6);
        assert!(sol.is_set(a) && sol.is_set(b) && !sol.is_set(c));
    }

    #[test]
    fn integer_rounding_matters() {
        // max x s.t. 2x <= 7, x integer -> 3 (LP gives 3.5)
        let mut m = Model::new("i");
        let x = m.add_integer("x", 0.0, 100.0);
        m.add_constr("c", 2.0 * x, Cmp::Le, 7.0).unwrap();
        m.set_objective(Sense::Maximize, 1.0 * x);
        let sol = solve_default(&m).expect_optimal().unwrap();
        assert_eq!(sol.value_rounded(x), 3);
    }

    #[test]
    fn infeasible_integrality() {
        // 0.4 <= x <= 0.6, x integer -> infeasible
        let mut m = Model::new("i");
        let _ = m.add_integer("x", 0.4, 0.6);
        assert!(matches!(solve_default(&m), Outcome::Infeasible { .. }));
    }

    #[test]
    fn equality_partition() {
        // exactly-one constraint: min cost selection
        let mut m = Model::new("p");
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let c = m.add_binary("c");
        m.add_constr("one", a + b + c, Cmp::Eq, 1.0).unwrap();
        m.set_objective(Sense::Minimize, 5.0 * a + 3.0 * b + 4.0 * c);
        let sol = solve_default(&m).expect_optimal().unwrap();
        assert!((sol.objective() - 3.0).abs() < 1e-6);
        assert!(sol.is_set(b));
    }

    #[test]
    fn mixed_integer_continuous() {
        // max 2x + y, x bin, 0<=y<=10, x + y <= 5.5 -> x=1, y=4.5, obj 6.5
        let mut m = Model::new("mix");
        let x = m.add_binary("x");
        let y = m.add_continuous("y", 0.0, 10.0);
        m.add_constr("c", x + y, Cmp::Le, 5.5).unwrap();
        m.set_objective(Sense::Maximize, 2.0 * x + y);
        let sol = solve_default(&m).expect_optimal().unwrap();
        assert!((sol.objective() - 6.5).abs() < 1e-6);
        assert!(sol.is_set(x));
        assert!((sol.value(y) - 4.5).abs() < 1e-6);
    }

    #[test]
    fn unbounded_milp() {
        let mut m = Model::new("u");
        let x = m.add_integer("x", 0.0, f64::INFINITY);
        m.set_objective(Sense::Maximize, 1.0 * x);
        assert!(matches!(solve_default(&m), Outcome::Unbounded { .. }));
    }

    #[test]
    fn bigger_knapsack_exact() {
        // 10-item knapsack with known optimum (checked by brute force below).
        let weights = [23.0, 31.0, 29.0, 44.0, 53.0, 38.0, 63.0, 85.0, 89.0, 82.0];
        let values = [92.0, 57.0, 49.0, 68.0, 60.0, 43.0, 67.0, 84.0, 87.0, 72.0];
        let cap = 165.0;
        let mut m = Model::new("k10");
        let vars: Vec<_> = (0..10).map(|i| m.add_binary(format!("x{i}"))).collect();
        let w: LinExpr = vars
            .iter()
            .zip(weights)
            .map(|(&v, wi)| LinExpr::term(v, wi))
            .sum();
        let val: LinExpr = vars
            .iter()
            .zip(values)
            .map(|(&v, vi)| LinExpr::term(v, vi))
            .sum();
        m.add_constr("cap", w, Cmp::Le, cap).unwrap();
        m.set_objective(Sense::Maximize, val);
        let sol = solve_default(&m).expect_optimal().unwrap();

        // Brute force reference.
        let mut best = 0.0_f64;
        for mask in 0u32..1 << 10 {
            let (mut tw, mut tv) = (0.0, 0.0);
            for i in 0..10 {
                if mask >> i & 1 == 1 {
                    tw += weights[i];
                    tv += values[i];
                }
            }
            if tw <= cap {
                best = best.max(tv);
            }
        }
        assert!(
            (sol.objective() - best).abs() < 1e-6,
            "got {} want {best}",
            sol.objective()
        );
    }

    #[test]
    fn node_limit_respected() {
        let mut m = Model::new("nl");
        // A problem that needs branching.
        let xs: Vec<_> = (0..12).map(|i| m.add_binary(format!("x{i}"))).collect();
        let e: LinExpr = xs.iter().map(|&v| LinExpr::term(v, 7.3)).sum();
        m.add_constr("c", e.clone(), Cmp::Le, 40.0).unwrap();
        m.set_objective(Sense::Maximize, e);
        let opts = SolveOptions {
            budget: Budget::unlimited().with_node_limit(1),
            ..SolveOptions::default()
        };
        // One node is not enough to finish branching here.
        match solve(&m, &opts, None) {
            Err(SolveError::NodeLimit { limit: 1 }) => {}
            Ok((out, _)) => {
                // If the root LP happened to be integral the solve finishes
                // in one node; accept that too.
                assert!(matches!(out, Outcome::Optimal { .. }));
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn minimize_with_constant_offset() {
        let mut m = Model::new("off");
        let x = m.add_integer("x", 0.0, 5.0);
        m.add_constr("c", 1.0 * x, Cmp::Ge, 2.2).unwrap();
        m.set_objective(Sense::Minimize, 2.0 * x + 10.0);
        let sol = solve_default(&m).expect_optimal().unwrap();
        assert_eq!(sol.value_rounded(x), 3);
        assert!((sol.objective() - 16.0).abs() < 1e-6);
    }

    #[test]
    fn objective_floor_accepts_matching_incumbent() {
        // Knapsack with known optimum 9 (see knapsack_small). With the floor
        // set to the optimum, the solver must still return a solution of
        // exactly that value.
        let mut m = Model::new("k");
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let c = m.add_binary("c");
        m.add_constr("cap", 3.0 * a + 4.0 * b + 5.0 * c, Cmp::Le, 7.0)
            .unwrap();
        m.set_objective(Sense::Maximize, 4.0 * a + 5.0 * b + 6.0 * c);
        let opts = SolveOptions {
            objective_floor: Some(9.0),
            ..SolveOptions::default()
        };
        let sol = solve(&m, &opts, None).unwrap().0.expect_optimal().unwrap();
        assert!((sol.objective() - 9.0).abs() < 1e-6);
    }

    #[test]
    fn objective_floor_below_optimum_is_harmless() {
        // A floor that is *not* attainable (better than the true optimum)
        // must not stop the search early or corrupt the answer: the solver
        // simply never reaches it and proves the real optimum.
        let mut m = Model::new("k");
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        m.add_constr("cap", 3.0 * a + 4.0 * b, Cmp::Le, 5.0)
            .unwrap();
        m.set_objective(Sense::Maximize, 4.0 * a + 5.0 * b);
        let opts = SolveOptions {
            objective_floor: Some(100.0),
            ..SolveOptions::default()
        };
        let sol = solve(&m, &opts, None).unwrap().0.expect_optimal().unwrap();
        assert!(
            (sol.objective() - 5.0).abs() < 1e-6,
            "got {}",
            sol.objective()
        );
    }

    #[test]
    fn warm_start_agrees_with_cold() {
        // Same optimum with and without dual-simplex warm starts, across a
        // family of knapsack-like problems that require branching.
        for seed in 0..10u64 {
            let mut m = Model::new("ws");
            let n = 10;
            let vars: Vec<_> = (0..n).map(|i| m.add_binary(format!("x{i}"))).collect();
            let w: LinExpr = vars
                .iter()
                .enumerate()
                .map(|(i, &v)| LinExpr::term(v, 7.0 + ((seed + i as u64 * 13) % 17) as f64))
                .sum();
            let val: LinExpr = vars
                .iter()
                .enumerate()
                .map(|(i, &v)| LinExpr::term(v, 3.0 + ((seed * 5 + i as u64 * 11) % 23) as f64))
                .sum();
            m.add_constr("cap", w, Cmp::Le, 60.0).unwrap();
            m.set_objective(Sense::Maximize, val);

            let cold = solve(
                &m,
                &SolveOptions {
                    warm_start: false,
                    ..SolveOptions::default()
                },
                None,
            )
            .unwrap()
            .0
            .expect_optimal()
            .unwrap();
            let warm = solve(
                &m,
                &SolveOptions {
                    warm_start: true,
                    ..SolveOptions::default()
                },
                None,
            )
            .unwrap()
            .0
            .expect_optimal()
            .unwrap();
            assert!(
                (cold.objective() - warm.objective()).abs() < 1e-6,
                "seed {seed}: cold {} vs warm {}",
                cold.objective(),
                warm.objective()
            );
        }
    }

    #[test]
    fn near_integral_relaxation_is_re_solved_with_integers_fixed() {
        // max x − 0.001·y s.t. x ≤ 0.1, x ≤ 1e6·y: the relaxation sets
        // y = 1e-7, integral within INT_TOL but not exactly. Fixing y = 0
        // gives the first incumbent, x = 0; the split's up child y = 1 then
        // gives the optimum. Accepting the near-integral point itself would
        // return y = 1e-7, and not splitting after the fixed LP would stop
        // at x = 0.
        let mut m = Model::new("near-integral");
        let x = m.add_continuous("x", 0.0, 1e6);
        let y = m.add_binary("y");
        m.add_constr("cap", 1.0 * x, Cmp::Le, 0.1).unwrap();
        m.add_constr("link", 1.0 * x - 1e6 * y, Cmp::Le, 0.0)
            .unwrap();
        m.set_objective(Sense::Maximize, 1.0 * x - 0.001 * y);
        let sol = solve_default(&m).expect_optimal().unwrap();
        assert_eq!(sol.value(y), 1.0);
        assert!((sol.value(x) - 0.1).abs() <= 1e-9, "x = {}", sol.value(x));
        assert!(
            (sol.objective() - 0.099).abs() <= 1e-9,
            "objective {}",
            sol.objective()
        );
    }

    #[test]
    fn pure_feasibility_query() {
        let mut m = Model::new("feas");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_constr("c1", x + y, Cmp::Ge, 1.0).unwrap();
        m.add_constr("c2", x + y, Cmp::Le, 1.0).unwrap();
        // No objective.
        let out = solve_default(&m);
        assert!(out.is_feasible());
    }

    #[test]
    fn row_check_names_a_violated_row_by_index() {
        let mut m = Model::new("rows");
        let x = m.add_continuous("x", 0.0, 10.0);
        m.add_constr("cap", LinExpr::var(x), Cmp::Le, 4.0).unwrap();
        m.add_constr("", LinExpr::var(x), Cmp::Ge, 2.0).unwrap();
        assert_eq!(check_rows(&m, &[3.0]), Ok(()));
        let msg = |point: f64| match check_rows(&m, &[point]) {
            Err(SolveError::Numerical(msg)) => msg,
            other => panic!("expected a numerical error, got {other:?}"),
        };
        assert_eq!(msg(5.0), "incumbent violates row 0 `cap` by 1e0");
        assert_eq!(msg(1.5), "incumbent violates row 1 by 5e-1");
    }

    /// A knapsack that requires branching.
    fn branching_knapsack(seed: u64) -> Model {
        let mut m = Model::new("par");
        let n = 12;
        let vars: Vec<_> = (0..n).map(|i| m.add_binary(format!("x{i}"))).collect();
        let w: LinExpr = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| LinExpr::term(v, 5.0 + ((seed + i as u64 * 7) % 19) as f64))
            .sum();
        let val: LinExpr = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| LinExpr::term(v, 2.0 + ((seed * 3 + i as u64 * 5) % 29) as f64))
            .sum();
        m.add_constr("cap", w, Cmp::Le, 70.0).unwrap();
        m.set_objective(Sense::Maximize, val);
        m
    }

    #[test]
    fn budget_exhaustion_is_an_error_not_a_panic() {
        // A pivot budget far too small to finish must surface as a limit
        // error.
        let m = branching_knapsack(1);
        let opts = SolveOptions {
            budget: Budget::unlimited().with_pivot_limit(3),
            ..SolveOptions::default()
        };
        match solve(&m, &opts, None) {
            Err(SolveError::IterationLimit { limit: 3 }) => {}
            other => panic!("expected pivot-limit error, got {other:?}"),
        }
    }

    #[test]
    fn delta_nodes_materialize_branch_chain() {
        let node = Node {
            steps: vec![
                BranchStep::Upper { var: 1, value: 3.0 },
                BranchStep::Lower { var: 0, value: 2.0 },
                BranchStep::Upper { var: 1, value: 1.0 },
            ],
            bound: 0.0,
            depth: 3,
            seq: 7,
            warm: None,
        };
        // Bound vectors holding another node's values are overwritten.
        let (mut lbs, mut ubs) = (vec![f64::NAN; 5], vec![f64::NAN; 1]);
        node.materialize(&[0.0, 0.0, 0.0], &[5.0, 5.0, 5.0], &mut lbs, &mut ubs);
        assert_eq!(lbs, vec![2.0, 0.0, 0.0]);
        // Later steps override earlier ones on the same variable.
        assert_eq!(ubs, vec![5.0, 1.0, 5.0]);
    }

    #[test]
    fn heap_order_is_total_and_reinsertion_stable() {
        // Popping k entries and pushing them back must not change the pop
        // sequence: the order is total, so it depends only on the contents.
        let mk = |bound: f64, depth: u32, seq: u64| {
            HeapEntry(Node {
                steps: Vec::new(),
                bound,
                depth,
                seq,
                warm: None,
            })
        };
        let entries = [
            (1.0, 1, 4),
            (1.0, 1, 2),
            (0.5, 0, 1),
            (1.0, 2, 3),
            (2.0, 0, 0),
        ];
        let mut heap: BinaryHeap<HeapEntry> =
            entries.iter().map(|&(b, d, s)| mk(b, d, s)).collect();
        // Peek three, push back, then drain.
        let peeked: Vec<_> = (0..3).map(|_| heap.pop().unwrap()).collect();
        for e in peeked {
            heap.push(e);
        }
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop().map(|e| e.0.seq)).collect();
        // Lowest bound first; ties deeper-first, then earlier seq.
        assert_eq!(order, vec![1, 3, 2, 4, 0]);
    }
}
