//! ArchEx-style monolithic baseline (the Fig. 5(a) comparator).
//!
//! Instead of the lazy Problems 2→3→4 loop, the baseline encodes the
//! system-level requirements *eagerly* into one MILP:
//!
//! * worst-case arrival-time propagation over all candidate edges with big-M
//!   activation, bounding every source→sink path's latency by `L_s`;
//! * jitter-compatibility constraints on every candidate edge and at the
//!   system boundary;
//! * total supply/consumption bounds from the flow spec.
//!
//! This reproduces the "effective MILP formulations" of ArchEx [Kirov et
//! al., DAC'17] closely enough for the runtime comparison: one big solve
//! whose size grows with the template, versus many small solves with lazy
//! cuts. Optimal costs must agree with [`explore`](crate::explore) — that
//! equivalence is tested.

use crate::attr;
use crate::candidate::Architecture;
use crate::encode::encode_problem2;
use crate::exploration::{Exploration, ExplorationStats, ExploreError};
use crate::problem::Problem;
use contrarc_milp::{Cmp, LinExpr, SolveOptions};
use std::time::Instant;

/// Solve the exploration problem with the monolithic baseline encoding.
///
/// Returns the same [`Exploration`] type as the lazy loop; `iterations` is
/// always 1 and `cuts_added` 0.
///
/// # Errors
///
/// Propagates MILP build/solve failures.
pub fn solve_monolithic(
    problem: &Problem,
    options: &SolveOptions,
) -> Result<Exploration, ExploreError> {
    let start = Instant::now();
    let mut enc = encode_problem2(problem)?;
    let t = &problem.template;
    let lib = &problem.library;
    let spec = &problem.spec;

    // --- eager timing constraints -------------------------------------------
    if let Some(ts) = spec.timing {
        // Conservative horizon for arrival times: the worst possible chain.
        let max_lat = lib.max_finite_attr(attr::LATENCY, 0.0);
        let max_jout = lib.max_finite_attr(attr::JITTER_OUT, 0.0);
        let horizon = (max_lat + max_jout + 1.0) * (t.num_nodes() as f64 + 1.0)
            + ts.max_latency
            + ts.max_input_jitter
            + ts.max_output_jitter;
        let big_m = 2.0 * horizon;
        let jitter_cap = big_m;

        // Per-node selected-attribute expressions.
        let lat_sel: Vec<LinExpr> = t
            .node_ids()
            .map(|n| {
                LinExpr::weighted_sum(
                    enc.map_vars[n.index()]
                        .iter()
                        .map(|&(x, v)| (v, lib.attr(x, attr::LATENCY).min(big_m))),
                )
            })
            .collect();
        let jout_sel: Vec<LinExpr> = t
            .node_ids()
            .map(|n| {
                LinExpr::weighted_sum(
                    enc.map_vars[n.index()]
                        .iter()
                        .map(|&(x, v)| (v, lib.attr(x, attr::JITTER_OUT).min(jitter_cap))),
                )
            })
            .collect();
        let jin_sel: Vec<LinExpr> = t
            .node_ids()
            .map(|n| {
                LinExpr::weighted_sum(
                    enc.map_vars[n.index()]
                        .iter()
                        .map(|&(x, v)| (v, lib.attr(x, attr::JITTER_IN).min(jitter_cap))),
                )
            })
            .collect();

        // Arrival variables: worst-case output nominal time per node.
        let arr: Vec<_> = t
            .node_ids()
            .map(|n| {
                enc.model
                    .add_continuous(format!("arr[{}]", t.node(n).name), 0.0, horizon)
            })
            .collect();

        for n in t.node_ids() {
            let info = t.node(n);
            let cfg = t.type_config(info.ty);
            if cfg.source {
                // arr_s ≥ lat_s when instantiated.
                enc.model.add_constr(
                    format!("arr_src[{}]", info.name),
                    LinExpr::var(arr[n.index()]) - lat_sel[n.index()].clone(),
                    Cmp::Ge,
                    0.0,
                )?;
                // Source must tolerate the system's input jitter:
                // jin_s ≥ J_s^I − M(1−β).
                enc.model.add_constr(
                    format!("src_jin[{}]", info.name),
                    jin_sel[n.index()].clone() + LinExpr::term(enc.beta_vars[n.index()], -big_m),
                    Cmp::Ge,
                    ts.max_input_jitter - big_m,
                )?;
            }
            if cfg.sink {
                // Latency bound at sinks.
                enc.model.add_constr(
                    format!("arr_snk[{}]", info.name),
                    LinExpr::var(arr[n.index()]),
                    Cmp::Le,
                    ts.max_latency,
                )?;
                // Sink output jitter within the system guarantee:
                // jout_k ≤ J_s^O + M(1−β).
                enc.model.add_constr(
                    format!("snk_jout[{}]", info.name),
                    jout_sel[n.index()].clone() + LinExpr::term(enc.beta_vars[n.index()], big_m),
                    Cmp::Le,
                    ts.max_output_jitter + big_m,
                )?;
            }
        }
        // Propagation and jitter compatibility per candidate edge.
        for (e, a, b) in t.candidate_edges() {
            let ev = enc.edge_vars[e.index()];
            // e → arr_b ≥ arr_a + jout_a + lat_b.
            let lhs = LinExpr::var(arr[b.index()])
                - LinExpr::var(arr[a.index()])
                - jout_sel[a.index()].clone()
                - lat_sel[b.index()].clone()
                + LinExpr::term(ev, -big_m);
            enc.model
                .add_constr(format!("prop[{}]", e.index()), lhs, Cmp::Ge, -big_m)?;
            // e → jout_a ≤ jin_b.
            let lhs2 =
                jout_sel[a.index()].clone() - jin_sel[b.index()].clone() + LinExpr::term(ev, big_m);
            enc.model
                .add_constr(format!("jcomp[{}]", e.index()), lhs2, Cmp::Le, big_m)?;
        }
    }

    // --- eager flow bounds -----------------------------------------------------
    if let Some(fs) = spec.flow {
        let mut total_gen = LinExpr::new();
        let mut total_cons = LinExpr::new();
        for n in t.node_ids() {
            let is_source = t.type_config(t.node(n).ty).source;
            for &(x, v) in &enc.map_vars[n.index()] {
                if is_source {
                    total_gen.add_term(v, lib.attr(x, attr::FLOW_GEN).min(spec.flow_cap));
                }
                total_cons.add_term(v, lib.attr(x, attr::FLOW_CONS).min(spec.flow_cap));
            }
        }
        enc.model
            .add_constr("sys_supply", total_gen, Cmp::Le, fs.max_supply)?;
        enc.model
            .add_constr("sys_consumption", total_cons, Cmp::Le, fs.max_consumption)?;
    }

    // --- solve -------------------------------------------------------------------
    let model_stats = enc.model.stats();
    let outcome = enc.model.solve(options)?;
    let mut stats = ExplorationStats {
        iterations: 1,
        milp_vars: model_stats.num_vars,
        milp_constraints: model_stats.num_constraints,
        ..ExplorationStats::default()
    };
    stats.milp_time = start.elapsed().as_secs_f64();
    stats.total_time = stats.milp_time;
    match outcome.solution() {
        Some(solution) => {
            let architecture = Architecture::decode(problem, &enc, solution);
            Ok(Exploration::Optimal {
                architecture,
                stats,
            })
        }
        None => Ok(Exploration::Infeasible { stats }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{Attrs, COST, FLOW_CONS, FLOW_GEN, LATENCY, THROUGHPUT};
    use crate::problem::{FlowSpec, SystemSpec, TimingSpec};
    use crate::template::{Template, TypeConfig};
    use crate::Library;
    use crate::{explore, ExplorerConfig};

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
                max_input_jitter: 0.0,
                max_output_jitter: 1.0,
            }),
            flow_cap: 100.0,
            horizon: 1000.0,
        };
        Problem::new(t, lib, spec)
    }

    #[test]
    fn baseline_agrees_with_lazy_loop() {
        for bound in [15.0, 50.0, 4.0] {
            let p = lines_problem(bound);
            let lazy = explore(&p, &ExplorerConfig::complete()).unwrap();
            let mono = solve_monolithic(&p, &SolveOptions::default()).unwrap();
            match (lazy.architecture(), mono.architecture()) {
                (Some(a), Some(b)) => {
                    assert!(
                        (a.cost() - b.cost()).abs() < 1e-6,
                        "bound {bound}: lazy {} vs monolithic {}",
                        a.cost(),
                        b.cost()
                    );
                }
                (None, None) => {}
                (l, m) => panic!(
                    "bound {bound}: feasibility disagreement (lazy {:?}, mono {:?})",
                    l.map(Architecture::cost),
                    m.map(Architecture::cost)
                ),
            }
        }
    }

    #[test]
    fn baseline_agrees_with_lazy_loop_on_ill_conditioned_synth_instance() {
        // On this instance the revised simplex once reported an optimal
        // vertex violating the big-M row `arr_src[S]` by 7e-4, and the
        // baseline returned 8.2439, below the true optimum 8.6024.
        let p = crate::synth::generate(&crate::synth::SynthConfig {
            seed: 865,
            layers: 3,
            width: 2,
            impls_per_type: 3,
            latency_slack: 0.8,
            ..Default::default()
        });
        let lazy = explore(&p, &ExplorerConfig::complete()).unwrap();
        let mono = solve_monolithic(&p, &SolveOptions::default()).unwrap();
        let lazy_cost = lazy.architecture().expect("feasible").cost();
        let mono_cost = mono.architecture().expect("feasible").cost();
        assert_eq!(
            lazy_cost.to_bits(),
            mono_cost.to_bits(),
            "lazy {lazy_cost} vs monolithic {mono_cost}"
        );
    }

    #[test]
    fn baseline_infeasible_when_too_tight() {
        let p = lines_problem(3.0);
        let mono = solve_monolithic(&p, &SolveOptions::default()).unwrap();
        assert!(matches!(mono, Exploration::Infeasible { .. }));
    }

    #[test]
    fn baseline_model_is_larger() {
        let p = lines_problem(15.0);
        let lazy = explore(&p, &ExplorerConfig::complete()).unwrap();
        let mono = solve_monolithic(&p, &SolveOptions::default()).unwrap();
        assert!(
            mono.stats().milp_constraints > lazy.stats().milp_constraints,
            "eager encoding must carry the extra system constraints"
        );
    }
}
