//! Experiment runners behind the table/figure binaries.

use contrarc::baseline::solve_monolithic;
use contrarc::report::{fmt_time, render_table};
use contrarc::{explore, Exploration, ExploreError, ExplorerConfig, Problem};
use contrarc_milp::{SolveError, SolveOptions};
use contrarc_systems::decompose::{explore_decomposed, explore_monolithic};
use contrarc_systems::epn::{build as build_epn, EpnConfig};
use contrarc_systems::rpl::{build as build_rpl, RplConfig, RplLines};

/// Per-method wall-clock budget, configurable via the `CONTRARC_TIME_LIMIT`
/// environment variable (seconds). Methods that exceed it are reported with
/// the budget as their time and no cost — exactly how the paper reports its
/// slowest ablation cells.
#[must_use]
pub fn time_limit_secs() -> f64 {
    std::env::var("CONTRARC_TIME_LIMIT")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(900.0)
}

fn limited_solve_options() -> SolveOptions {
    SolveOptions::default().with_time_limit(time_limit_secs())
}

fn limited_explorer(mut cfg: ExplorerConfig) -> ExplorerConfig {
    cfg.solve_options = limited_solve_options();
    cfg.time_limit_secs = Some(time_limit_secs());
    cfg
}

/// The result of a run under the wall-clock budget; `None` means a solve
/// exhausted its budget before an answer. Any other error panics, naming
/// `what` failed.
fn within_budget<T>(result: Result<T, ExploreError>, what: &str) -> Option<T> {
    match result {
        Ok(x) => Some(x),
        Err(ExploreError::Solve(
            SolveError::TimeLimit { .. }
            | SolveError::IterationLimit { .. }
            | SolveError::NodeLimit { .. },
        )) => None,
        Err(e) => panic!("{what} failed: {e}"),
    }
}

/// Run an exploration under the wall-clock budget; `None` means the budget
/// was exhausted before an answer. A run that stops with
/// [`Exploration::Partial`] proved nothing, so it is `None` too.
fn explore_limited(problem: &Problem, cfg: &ExplorerConfig) -> Option<Exploration> {
    within_budget(explore(problem, cfg), "exploration").filter(|e| !e.is_partial())
}

/// One point of the Fig. 5(a) sweep.
#[derive(Debug, Clone)]
pub struct Fig5aRow {
    /// Problem size `n = n_A = n_B`.
    pub n: usize,
    /// ContrArc (complete) runtime in seconds.
    pub contrarc_time: f64,
    /// ArchEx-style monolithic baseline runtime in seconds.
    pub archex_time: f64,
    /// ContrArc iterations.
    pub iterations: usize,
    /// Optimal cost found by ContrArc.
    pub contrarc_cost: Option<f64>,
    /// Optimal cost found by the baseline (must match).
    pub archex_cost: Option<f64>,
}

/// Run the Fig. 5(a) sweep: ContrArc vs ArchEx on the RPL for each `n`.
/// Methods that exhaust the time budget report the budget as their time and
/// no cost.
#[must_use]
pub fn run_fig5a(ns: &[usize]) -> Vec<Fig5aRow> {
    ns.iter()
        .map(|&n| {
            let problem = build_rpl(&RplConfig::symmetric(n), RplLines::Both);
            let contrarc = explore_limited(&problem, &limited_explorer(ExplorerConfig::complete()));
            let archex = within_budget(
                solve_monolithic(&problem, &limited_solve_options()),
                "baseline solve",
            );
            Fig5aRow {
                n,
                contrarc_time: contrarc
                    .as_ref()
                    .map_or(time_limit_secs(), |e| e.stats().total_time),
                archex_time: archex
                    .as_ref()
                    .map_or(time_limit_secs(), |e| e.stats().total_time),
                iterations: contrarc.as_ref().map_or(0, |e| e.stats().iterations),
                contrarc_cost: contrarc
                    .as_ref()
                    .and_then(|e| e.architecture().map(|a| a.cost())),
                archex_cost: archex
                    .as_ref()
                    .and_then(|e| e.architecture().map(|a| a.cost())),
            }
        })
        .collect()
}

/// Render Fig. 5(a) rows as a text table.
#[must_use]
pub fn render_fig5a(rows: &[Fig5aRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                fmt_time(r.contrarc_time),
                fmt_time(r.archex_time),
                format!("{:.1}x", r.archex_time / r.contrarc_time.max(1e-9)),
                r.iterations.to_string(),
                r.contrarc_cost.map_or("-".into(), |c| format!("{c:.1}")),
                r.archex_cost.map_or("-".into(), |c| format!("{c:.1}")),
            ]
        })
        .collect();
    render_table(
        &[
            "n",
            "ContrArc (s)",
            "ArchEx (s)",
            "speedup",
            "iters",
            "cost",
            "cost(ArchEx)",
        ],
        &body,
    )
}

/// One point of the Fig. 5(b) sweep.
#[derive(Debug, Clone)]
pub struct Fig5bRow {
    /// Problem size `n = n_A = n_B`.
    pub n: usize,
    /// Monolithic (both lines jointly) runtime in seconds.
    pub monolithic_time: f64,
    /// Compositional (Comb B) runtime in seconds.
    pub compositional_time: f64,
    /// Monolithic optimal cost.
    pub monolithic_cost: Option<f64>,
    /// Compositional total cost (must match).
    pub compositional_cost: Option<f64>,
}

/// Run the Fig. 5(b) sweep: monolithic vs compositional RPL exploration.
///
/// The size axis grows the *length* of each production line (machine
/// stages), which is where splitting the system into per-line subproblems
/// pays off most visibly: the joint exploration's cost is superlinear in
/// template size, the decomposed one solves two problems of half the size.
#[must_use]
pub fn run_fig5b(ns: &[usize]) -> Vec<Fig5bRow> {
    ns.iter()
        .map(|&n| {
            let stages = n + 1;
            let config = RplConfig {
                stages,
                // Keeps the per-size exploration difficulty constant: the
                // cheapest chain always needs exactly two machine upgrades.
                max_latency: 25.0 * stages as f64 - 2.0,
                ..RplConfig::default()
            };
            let cfg = limited_explorer(ExplorerConfig::complete());
            let mono = within_budget(explore_monolithic(&config, &cfg), "monolithic");
            let dec = within_budget(explore_decomposed(&config, &cfg), "decomposed");
            Fig5bRow {
                n,
                monolithic_time: mono
                    .as_ref()
                    .map_or(time_limit_secs(), |e| e.stats().total_time),
                compositional_time: dec.as_ref().map_or(time_limit_secs(), |d| d.total_time),
                monolithic_cost: mono
                    .as_ref()
                    .and_then(|e| e.architecture().map(|a| a.cost())),
                compositional_cost: dec.as_ref().and_then(|d| d.total_cost()),
            }
        })
        .collect()
}

/// Render Fig. 5(b) rows as a text table.
#[must_use]
pub fn render_fig5b(rows: &[Fig5bRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                fmt_time(r.monolithic_time),
                fmt_time(r.compositional_time),
                format!("{:.1}x", r.monolithic_time / r.compositional_time.max(1e-9)),
                r.monolithic_cost.map_or("-".into(), |c| format!("{c:.1}")),
                r.compositional_cost
                    .map_or("-".into(), |c| format!("{c:.1}")),
            ]
        })
        .collect();
    render_table(
        &[
            "n",
            "monolithic (s)",
            "compositional (s)",
            "speedup",
            "cost",
            "cost(comp)",
        ],
        &body,
    )
}

/// One Table II row: a template configuration under one ablation mode.
#[derive(Debug, Clone)]
pub struct Table2Cell {
    /// Runtime in seconds.
    pub time: f64,
    /// Lazy-loop iterations.
    pub iterations: usize,
    /// Optimal cost (`None` = infeasible).
    pub cost: Option<f64>,
}

/// One Table II row across the three modes.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// `(L, R, APU)` label.
    pub label: String,
    /// Variables of the Problem-2 MILP.
    pub vars: usize,
    /// Constraints of the Problem-2 MILP.
    pub constraints: usize,
    /// "Only subgraph isomorphism" ablation.
    pub only_iso: Table2Cell,
    /// "Only decomposition" ablation.
    pub only_dec: Table2Cell,
    /// Complete ContrArc.
    pub complete: Table2Cell,
}

fn cell(e: &Exploration) -> Table2Cell {
    Table2Cell {
        time: e.stats().total_time,
        iterations: e.stats().iterations,
        cost: e.architecture().map(|a| a.cost()),
    }
}

/// Run one Table II row. Timed-out cells report the budget and zero
/// iterations.
#[must_use]
pub fn run_table2_row(config: &EpnConfig) -> Table2Row {
    let problem = build_epn(config);
    let only_iso = explore_limited(&problem, &limited_explorer(ExplorerConfig::only_iso()));
    let only_dec = explore_limited(
        &problem,
        &limited_explorer(ExplorerConfig::only_decomposition()),
    );
    let complete = explore_limited(&problem, &limited_explorer(ExplorerConfig::complete()));
    // Only modes that finished proved an optimum (or infeasibility).
    let optima: Vec<Option<f64>> = [&only_iso, &only_dec, &complete]
        .into_iter()
        .flatten()
        .map(|e| e.architecture().map(|a| (a.cost() * 1e6).round()))
        .collect();
    assert!(
        optima.windows(2).all(|w| w[0] == w[1]),
        "ablation modes must agree on the optimum: {optima:?}"
    );
    let timeout_cell = || Table2Cell {
        time: time_limit_secs(),
        iterations: 0,
        cost: None,
    };
    let stats = complete
        .as_ref()
        .or(only_iso.as_ref())
        .or(only_dec.as_ref());
    Table2Row {
        label: config.label(),
        vars: stats.map_or(0, |e| e.stats().milp_vars),
        constraints: stats.map_or(0, |e| e.stats().milp_constraints),
        only_iso: only_iso.as_ref().map_or_else(timeout_cell, cell),
        only_dec: only_dec.as_ref().map_or_else(timeout_cell, cell),
        complete: complete.as_ref().map_or_else(timeout_cell, cell),
    }
}

/// The Table II configuration list from the paper.
#[must_use]
pub fn table2_configs() -> Vec<EpnConfig> {
    [
        (1, 0, 0),
        (2, 0, 0),
        (3, 0, 0),
        (4, 0, 0),
        (1, 1, 0),
        (2, 1, 0),
        (2, 2, 0),
        (1, 1, 1),
        (2, 1, 1),
        (2, 2, 1),
    ]
    .into_iter()
    .map(|(l, r, a)| EpnConfig::table2(l, r, a))
    .collect()
}

/// Render Table II rows, including the paper-style average/ratio footer.
#[must_use]
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                r.vars.to_string(),
                r.constraints.to_string(),
                fmt_time(r.only_iso.time),
                r.only_iso.iterations.to_string(),
                fmt_time(r.only_dec.time),
                r.only_dec.iterations.to_string(),
                fmt_time(r.complete.time),
                r.complete.iterations.to_string(),
            ]
        })
        .collect();
    if !rows.is_empty() {
        let n = rows.len() as f64;
        let avg = |f: fn(&Table2Row) -> f64| rows.iter().map(f).sum::<f64>() / n;
        let avg_iso_t = avg(|r| r.only_iso.time);
        let avg_dec_t = avg(|r| r.only_dec.time);
        let avg_com_t = avg(|r| r.complete.time);
        let avg_iso_i = avg(|r| r.only_iso.iterations as f64);
        let avg_dec_i = avg(|r| r.only_dec.iterations as f64);
        let avg_com_i = avg(|r| r.complete.iterations as f64);
        body.push(vec![
            "Average".into(),
            String::new(),
            String::new(),
            fmt_time(avg_iso_t),
            format!("{avg_iso_i:.1}"),
            fmt_time(avg_dec_t),
            format!("{avg_dec_i:.1}"),
            fmt_time(avg_com_t),
            format!("{avg_com_i:.1}"),
        ]);
        body.push(vec![
            "Ratio".into(),
            String::new(),
            String::new(),
            format!("{:.2}", avg_iso_t / avg_com_t.max(1e-9)),
            format!("{:.2}", avg_iso_i / avg_com_i.max(1e-9)),
            format!("{:.2}", avg_dec_t / avg_com_t.max(1e-9)),
            format!("{:.2}", avg_dec_i / avg_com_i.max(1e-9)),
            "1.00".into(),
            "1.00".into(),
        ]);
    }
    render_table(
        &[
            "Max # in T",
            "# vars",
            "# constrs",
            "iso (s)",
            "iso iters",
            "dec (s)",
            "dec iters",
            "complete (s)",
            "complete iters",
        ],
        &body,
    )
}

/// Render Table I: the RPL template and library for a configuration.
#[must_use]
pub fn render_table1(config: &RplConfig) -> String {
    let problem = build_rpl(config, RplLines::Both);
    let mut out = String::new();
    out.push_str(&format!(
        "RPL template (n_A = {}, n_B = {}): {} nodes, {} candidate edges\n\n",
        config.n_a,
        config.n_b,
        problem.template.num_nodes(),
        problem.template.num_candidate_edges()
    ));
    let mut type_rows = Vec::new();
    for idx in 0..problem.template.num_types() {
        let ty = contrarc::TypeId::from_index(idx);
        let count = problem.template.nodes_of_type(ty).count();
        if count == 0 {
            continue;
        }
        type_rows.push(vec![
            problem.template.type_name(ty).to_string(),
            count.to_string(),
            problem.library.impls_of_type(ty).len().to_string(),
        ]);
    }
    out.push_str(&render_table(
        &["component type", "# nodes in T", "# impls in L"],
        &type_rows,
    ));
    out.push('\n');

    let impl_rows: Vec<Vec<String>> = problem
        .library
        .iter()
        .map(|(_, im)| {
            vec![
                im.name.clone(),
                problem.template.type_name(im.ty).to_string(),
                format!("{:.1}", im.attrs.get(contrarc::attr::COST)),
                format!("{:.1}", im.attrs.get(contrarc::attr::LATENCY)),
                {
                    let thr = im.attrs.get(contrarc::attr::THROUGHPUT);
                    if thr.is_finite() {
                        format!("{thr:.0}")
                    } else {
                        "-".into()
                    }
                },
                {
                    let g = im.attrs.get(contrarc::attr::FLOW_GEN);
                    let c = im.attrs.get(contrarc::attr::FLOW_CONS);
                    if g > 0.0 {
                        format!("+{g:.0}")
                    } else if c > 0.0 {
                        format!("-{c:.0}")
                    } else {
                        "0".into()
                    }
                },
            ]
        })
        .collect();
    out.push_str(&render_table(
        &[
            "implementation",
            "type",
            "cost c",
            "latency",
            "throughput f^P",
            "flow f^S/f^C",
        ],
        &impl_rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_renders_all_impls() {
        let text = render_table1(&RplConfig::default());
        assert!(text.contains("Src"));
        assert!(text.contains("M0_eco"));
        assert!(text.contains("Sink"));
    }

    #[test]
    fn fig5a_smallest_point() {
        let rows = run_fig5a(&[1]);
        assert_eq!(rows.len(), 1);
        let (a, b) = (rows[0].contrarc_cost.unwrap(), rows[0].archex_cost.unwrap());
        assert!((a - b).abs() < 1e-6, "optimal costs must agree: {a} vs {b}");
        let text = render_fig5a(&rows);
        assert!(text.contains("speedup"));
    }

    #[test]
    fn partial_exploration_is_a_timeout() {
        // Two iterations do not prove EPN (1,0,0)'s optimum: `explore`
        // returns `Ok(Exploration::Partial)`, which must read as a timeout.
        let problem = build_epn(&EpnConfig::table2(1, 0, 0));
        let cfg = ExplorerConfig {
            max_iterations: 2,
            ..ExplorerConfig::complete()
        };
        assert!(explore(&problem, &cfg).unwrap().is_partial());
        assert!(explore_limited(&problem, &cfg).is_none());
    }

    #[test]
    fn table2_config_list_matches_paper() {
        let configs = table2_configs();
        assert_eq!(configs.len(), 10);
        assert_eq!(configs[0].label(), "1,0,0");
        assert_eq!(configs[9].label(), "2,2,1");
    }

    #[test]
    fn render_table2_includes_footer() {
        let rows = vec![Table2Row {
            label: "1,0,0".into(),
            vars: 10,
            constraints: 5,
            only_iso: Table2Cell {
                time: 1.0,
                iterations: 3,
                cost: Some(1.0),
            },
            only_dec: Table2Cell {
                time: 2.0,
                iterations: 6,
                cost: Some(1.0),
            },
            complete: Table2Cell {
                time: 0.5,
                iterations: 2,
                cost: Some(1.0),
            },
        }];
        let text = render_table2(&rows);
        assert!(text.contains("Average"));
        assert!(text.contains("Ratio"));
    }
}
