//! Experiment runners behind the table/figure binaries.

use contrarc::baseline::solve_monolithic;
use contrarc::encode::encode_problem2;
use contrarc::report::{fmt_time, render_table};
use contrarc::{explore, Exploration, ExploreError, ExplorerConfig, Problem};
use contrarc_milp::{SolveError, SolveOptions};
use contrarc_systems::decompose::{explore_decomposed, explore_monolithic};
use contrarc_systems::epn::{build as build_epn, EpnConfig};
use contrarc_systems::rpl::{build as build_rpl, RplConfig, RplLines};

/// Per-method wall-clock budget, configurable via the `CONTRARC_TIME_LIMIT`
/// environment variable (seconds). Methods that exceed it are reported as
/// `timeout`, with no iterations, cost or speedup.
#[must_use]
pub fn time_limit_secs() -> f64 {
    std::env::var("CONTRARC_TIME_LIMIT")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(900.0)
}

fn limited_solve_options(secs: f64) -> SolveOptions {
    SolveOptions::default().with_time_limit(secs)
}

fn limited_explorer(mut cfg: ExplorerConfig, secs: f64) -> ExplorerConfig {
    cfg.solve_options = limited_solve_options(secs);
    cfg.time_limit_secs = Some(secs);
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

/// A run that finished within the budget: one cell of Fig. 5 or Table II.
/// Wherever a cell is optional, `None` means the run timed out.
#[derive(Debug, Clone)]
pub struct Finished {
    /// Runtime in seconds.
    pub time: f64,
    /// Lazy-loop iterations.
    pub iterations: usize,
    /// Optimal cost (`None` = infeasible).
    pub cost: Option<f64>,
}

fn finished(e: Exploration) -> Finished {
    Finished {
        time: e.stats().total_time,
        iterations: e.stats().iterations,
        cost: e.architecture().map(|a| a.cost()),
    }
}

/// A cell's runtime, or `timeout`.
fn fmt_cell_time(c: Option<&Finished>) -> String {
    c.map_or("timeout".into(), |c| fmt_time(c.time))
}

/// A cell's optimal cost, or `-` when it timed out or was infeasible.
fn fmt_cell_cost(c: Option<&Finished>) -> String {
    c.and_then(|c| c.cost)
        .map_or("-".into(), |cost| format!("{cost:.1}"))
}

/// How many times faster `fast` finished than `slow`, or `-` unless both
/// finished.
fn fmt_speedup(slow: Option<&Finished>, fast: Option<&Finished>) -> String {
    match (slow, fast) {
        (Some(slow), Some(fast)) => format!("{:.1}x", slow.time / fast.time.max(1e-9)),
        _ => "-".into(),
    }
}

/// One point of the Fig. 5(a) sweep.
#[derive(Debug, Clone)]
pub struct Fig5aRow {
    /// Problem size `n = n_A = n_B`.
    pub n: usize,
    /// ContrArc (complete).
    pub contrarc: Option<Finished>,
    /// The ArchEx-style monolithic baseline (its cost must match).
    pub archex: Option<Finished>,
}

/// Run the Fig. 5(a) sweep: ContrArc vs ArchEx on the RPL for each `n`.
#[must_use]
pub fn run_fig5a(ns: &[usize]) -> Vec<Fig5aRow> {
    ns.iter()
        .map(|&n| {
            let problem = build_rpl(&RplConfig::symmetric(n), RplLines::Both);
            let contrarc = explore_limited(
                &problem,
                &limited_explorer(ExplorerConfig::complete(), time_limit_secs()),
            );
            let archex = within_budget(
                solve_monolithic(&problem, &limited_solve_options(time_limit_secs())),
                "baseline solve",
            );
            Fig5aRow {
                n,
                contrarc: contrarc.map(finished),
                archex: archex.map(finished),
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
            let (contrarc, archex) = (r.contrarc.as_ref(), r.archex.as_ref());
            vec![
                r.n.to_string(),
                fmt_cell_time(contrarc),
                fmt_cell_time(archex),
                fmt_speedup(archex, contrarc),
                contrarc.map_or("-".into(), |c| c.iterations.to_string()),
                fmt_cell_cost(contrarc),
                fmt_cell_cost(archex),
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
    /// Monolithic (both lines jointly).
    pub monolithic: Option<Finished>,
    /// Compositional (Comb B), both lines together; its cost must match.
    pub compositional: Option<Finished>,
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
            let cfg = limited_explorer(ExplorerConfig::complete(), time_limit_secs());
            let mono = within_budget(explore_monolithic(&config, &cfg), "monolithic")
                .filter(|e| !e.is_partial());
            let dec = within_budget(explore_decomposed(&config, &cfg), "decomposed")
                .filter(|d| !d.line_a.is_partial() && !d.line_b.is_partial());
            Fig5bRow {
                n,
                monolithic: mono.map(finished),
                compositional: dec.map(|d| Finished {
                    time: d.total_time,
                    iterations: d.combined_stats().iterations,
                    cost: d.total_cost(),
                }),
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
            let (mono, comp) = (r.monolithic.as_ref(), r.compositional.as_ref());
            vec![
                r.n.to_string(),
                fmt_cell_time(mono),
                fmt_cell_time(comp),
                fmt_speedup(mono, comp),
                fmt_cell_cost(mono),
                fmt_cell_cost(comp),
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

/// One Table II row across the three modes. A `None` cell timed out.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// `(L, R, APU)` label.
    pub label: String,
    /// Variables of the Problem-2 MILP.
    pub vars: usize,
    /// Constraints of the Problem-2 MILP.
    pub constraints: usize,
    /// "Only subgraph isomorphism" ablation.
    pub only_iso: Option<Finished>,
    /// "Only decomposition" ablation.
    pub only_dec: Option<Finished>,
    /// Complete ContrArc.
    pub complete: Option<Finished>,
}

/// Run one Table II row, each mode under a budget of `secs` seconds. The
/// MILP size comes from the encoding, which every mode shares, so it is
/// known even when every mode times out.
#[must_use]
pub fn run_table2_row(config: &EpnConfig, secs: f64) -> Table2Row {
    let problem = build_epn(config);
    let size = encode_problem2(&problem)
        .expect("the EPN problem encodes")
        .model
        .stats();
    let run = |cfg| explore_limited(&problem, &limited_explorer(cfg, secs));
    let only_iso = run(ExplorerConfig::only_iso());
    let only_dec = run(ExplorerConfig::only_decomposition());
    let complete = run(ExplorerConfig::complete());
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
    Table2Row {
        label: config.label(),
        vars: size.num_vars,
        constraints: size.num_constraints,
        only_iso: only_iso.map(finished),
        only_dec: only_dec.map(finished),
        complete: complete.map(finished),
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

/// Render Table II rows, including the paper-style average/ratio footer. A
/// timed-out cell prints as `timeout` with no iteration count. The footer
/// averages only the rows every mode finished, so each ratio compares the
/// modes on the same rows; its label says how many rows that is when some
/// are left out, and it reads `n/a` when none is left.
#[must_use]
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut line = vec![
                r.label.clone(),
                r.vars.to_string(),
                r.constraints.to_string(),
            ];
            for c in [&r.only_iso, &r.only_dec, &r.complete] {
                let c = c.as_ref();
                line.extend([
                    fmt_cell_time(c),
                    c.map_or("-".into(), |c| c.iterations.to_string()),
                ]);
            }
            line
        })
        .collect();
    let finished: Vec<[&Finished; 3]> = rows
        .iter()
        .filter_map(|r| {
            Some([
                r.only_iso.as_ref()?,
                r.only_dec.as_ref()?,
                r.complete.as_ref()?,
            ])
        })
        .collect();
    if !rows.is_empty() {
        let label = if finished.len() == rows.len() || finished.is_empty() {
            "Average".to_string()
        } else {
            format!("Average ({} of {} rows)", finished.len(), rows.len())
        };
        let mut average = vec![label, String::new(), String::new()];
        let mut ratio = vec!["Ratio".to_string(), String::new(), String::new()];
        if finished.is_empty() {
            average.extend(std::iter::repeat_n("n/a".to_string(), 6));
            ratio.extend(std::iter::repeat_n("n/a".to_string(), 6));
        } else {
            let n = finished.len() as f64;
            let avg = |f: &dyn Fn(&Finished) -> f64| -> [f64; 3] {
                std::array::from_fn(|mode| finished.iter().map(|c| f(c[mode])).sum::<f64>() / n)
            };
            let time = avg(&|c| c.time);
            let iters = avg(&|c| c.iterations as f64);
            for mode in 0..3 {
                average.extend([fmt_time(time[mode]), format!("{:.1}", iters[mode])]);
                ratio.extend([
                    format!("{:.2}", time[mode] / time[2].max(1e-9)),
                    format!("{:.2}", iters[mode] / iters[2].max(1e-9)),
                ]);
            }
        }
        body.push(average);
        body.push(ratio);
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
        let cost = |c: &Option<Finished>| c.as_ref().and_then(|c| c.cost).unwrap();
        let (a, b) = (cost(&rows[0].contrarc), cost(&rows[0].archex));
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
    fn render_fig5_prints_timeouts_without_a_speedup() {
        let done = |time, iterations, cost| {
            Some(Finished {
                time,
                iterations,
                cost: Some(cost),
            })
        };
        let text = render_fig5a(&[
            Fig5aRow {
                n: 1,
                contrarc: done(0.5, 2, 16.0),
                archex: done(2.0, 1, 16.0),
            },
            Fig5aRow {
                n: 3,
                contrarc: None,
                archex: done(4.68, 1, 32.0),
            },
        ]);
        assert_eq!(
            table2_fields(&text, "1 "),
            ["1", "0.50", "2.00", "4.0x", "2", "16.0", "16.0"]
        );
        assert_eq!(
            table2_fields(&text, "3 "),
            ["3", "timeout", "4.68", "-", "-", "-", "32.0"]
        );
        let text = render_fig5b(&[Fig5bRow {
            n: 2,
            monolithic: done(3.0, 9, 40.0),
            compositional: None,
        }]);
        assert_eq!(
            table2_fields(&text, "2 "),
            ["2", "3.00", "timeout", "-", "40.0", "-"]
        );
    }

    fn table2_cell(time: f64, iterations: usize) -> Option<Finished> {
        Some(Finished {
            time,
            iterations,
            cost: Some(1.0),
        })
    }

    /// The whitespace-separated fields of the rendered line starting with
    /// `label`.
    fn table2_fields(text: &str, label: &str) -> Vec<String> {
        let line = text
            .lines()
            .find(|l| l.trim_start().starts_with(label))
            .unwrap_or_else(|| panic!("no line starts with {label}:\n{text}"));
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn render_table2_includes_footer() {
        let rows = vec![Table2Row {
            label: "1,0,0".into(),
            vars: 10,
            constraints: 5,
            only_iso: table2_cell(1.0, 3),
            only_dec: table2_cell(2.0, 6),
            complete: table2_cell(0.5, 2),
        }];
        let text = render_table2(&rows);
        assert_eq!(
            table2_fields(&text, "Average"),
            ["Average", "1.00", "3.0", "2.00", "6.0", "0.50", "2.0"]
        );
        assert_eq!(
            table2_fields(&text, "Ratio"),
            ["Ratio", "2.00", "1.50", "4.00", "3.00", "1.00", "1.00"]
        );
    }

    #[test]
    fn render_table2_keeps_timeouts_out_of_the_footer() {
        // Complete timed out on the second row. Counted as 0 iterations, it
        // would turn the dec-iterations ratio into (6 + 72) / 2.
        let rows = vec![
            Table2Row {
                label: "1,0,0".into(),
                vars: 10,
                constraints: 5,
                only_iso: table2_cell(1.0, 3),
                only_dec: table2_cell(2.0, 6),
                complete: table2_cell(0.5, 2),
            },
            Table2Row {
                label: "2,0,0".into(),
                vars: 20,
                constraints: 9,
                only_iso: table2_cell(10.0, 30),
                only_dec: table2_cell(20.0, 72),
                complete: None,
            },
        ];
        let text = render_table2(&rows);
        assert_eq!(
            table2_fields(&text, "2,0,0"),
            ["2,0,0", "20", "9", "10.00", "30", "20.00", "72", "timeout", "-"]
        );
        assert_eq!(
            table2_fields(&text, "Average"),
            ["Average", "(1", "of", "2", "rows)", "1.00", "3.0", "2.00", "6.0", "0.50", "2.0"]
        );
        assert_eq!(
            table2_fields(&text, "Ratio"),
            ["Ratio", "2.00", "1.50", "4.00", "3.00", "1.00", "1.00"]
        );

        // With every row timed out somewhere, the footer has nothing to
        // average.
        let text = render_table2(&rows[1..]);
        assert_eq!(table2_fields(&text, "Ratio")[1..], ["n/a"; 6]);
    }

    #[test]
    fn table2_row_sizes_come_from_the_encoding() {
        // Under a zero budget every mode times out; the row still reports
        // the Problem-2 MILP's size.
        let row = run_table2_row(&EpnConfig::table2(1, 0, 0), 0.0);
        assert!(row.only_iso.is_none() && row.only_dec.is_none() && row.complete.is_none());
        let size = encode_problem2(&build_epn(&EpnConfig::table2(1, 0, 0)))
            .unwrap()
            .model
            .stats();
        assert!(size.num_vars > 0);
        assert_eq!(
            (row.vars, row.constraints),
            (size.num_vars, size.num_constraints)
        );
    }
}
