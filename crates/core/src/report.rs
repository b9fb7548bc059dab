//! Human-readable reporting helpers for exploration results.

use crate::candidate::Architecture;
use crate::explorer::{Exploration, ExplorationStats};
use crate::problem::Problem;
use contrarc_graph::dot::to_dot;

/// One row of a results table: a label plus the stats and cost of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRow {
    /// Row label (e.g. the template configuration, `"2,1,0"`).
    pub label: String,
    /// Size of the Problem-2 MILP.
    pub vars: usize,
    /// Constraint count of the Problem-2 MILP.
    pub constraints: usize,
    /// Wall-clock seconds.
    pub time_secs: f64,
    /// Lazy-loop iterations.
    pub iterations: usize,
    /// Optimal cost (`None` when infeasible).
    pub cost: Option<f64>,
}

impl RunRow {
    /// Build a row from an exploration outcome.
    #[must_use]
    pub fn from_exploration(label: impl Into<String>, e: &Exploration) -> Self {
        let stats: &ExplorationStats = e.stats();
        RunRow {
            label: label.into(),
            vars: stats.milp_vars,
            constraints: stats.milp_constraints,
            time_secs: stats.total_time,
            iterations: stats.iterations,
            cost: e.architecture().map(|a| a.cost()),
        }
    }
}

/// Render rows as an aligned text table with the given headers.
///
/// ```rust
/// use contrarc::report::render_table;
/// let table = render_table(
///     &["config", "time"],
///     &[vec!["1,0,0".to_string(), "0.56".to_string()]],
/// );
/// assert!(table.contains("config"));
/// assert!(table.contains("1,0,0"));
/// ```
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().take(ncols).enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{cell:>width$}", width = widths[i]));
        }
        line.push('\n');
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|s| (*s).to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    let total: usize = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Describe an exploration outcome, including the architecture when found.
#[must_use]
pub fn describe_outcome(problem: &Problem, e: &Exploration) -> String {
    match e {
        Exploration::Optimal {
            architecture,
            stats,
        } => {
            format!("{}\n{}", architecture.describe(problem), stats)
        }
        Exploration::Infeasible { stats } => {
            format!("no feasible architecture exists\n{stats}")
        }
        Exploration::Partial {
            incumbent,
            lower_bound,
            cuts,
            stats,
            reason,
        } => {
            let mut out = format!("exploration stopped early: {reason}\n");
            match incumbent {
                Some(arch) => {
                    out.push_str("best unverified candidate:\n");
                    out.push_str(&arch.describe(problem));
                    out.push('\n');
                }
                None => out.push_str("no candidate selected yet\n"),
            }
            if let Some(lb) = lower_bound {
                out.push_str(&format!("proven cost lower bound: {lb}\n"));
            }
            out.push_str(&format!("{cuts} certificate cuts remain valid\n{stats}"));
            out
        }
    }
}

/// Render a selected architecture as a Graphviz DOT graph: nodes are labeled
/// `component : implementation`, edges with their assigned flow (when the
/// flow viewpoint is active).
///
/// ```rust,no_run
/// # use contrarc::{Problem, Architecture};
/// # fn demo(problem: &Problem, arch: &Architecture) {
/// let dot = contrarc::report::architecture_dot(problem, arch);
/// std::fs::write("architecture.dot", dot).unwrap();
/// // then: dot -Tsvg architecture.dot -o architecture.svg
/// # }
/// ```
#[must_use]
pub fn architecture_dot(problem: &Problem, arch: &Architecture) -> String {
    to_dot(
        arch.graph(),
        problem.template.name(),
        |_, w| {
            format!(
                "{} : {}",
                w.name,
                problem.library.implementation(w.implementation).name
            )
        },
        |e| e.weight.flow.map_or(String::new(), |f| format!("{f:.1}")),
    )
}

/// Render the template (all candidate edges) as a Graphviz DOT graph.
#[must_use]
pub fn template_dot(problem: &Problem) -> String {
    to_dot(
        problem.template.graph(),
        problem.template.name(),
        |_, w| format!("{} : {}", w.name, problem.template.type_name(w.ty)),
        |_| String::new(),
    )
}

/// Format seconds the way the paper's Table II does (plain below 1000,
/// scientific above).
#[must_use]
pub fn fmt_time(secs: f64) -> String {
    if secs >= 1000.0 {
        format!("{secs:.2e}")
    } else {
        format!("{secs:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["a", "long-header"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long-header"));
        assert!(lines[1].starts_with('-'));
    }

    #[test]
    fn time_formatting() {
        assert_eq!(fmt_time(0.56), "0.56");
        assert_eq!(fmt_time(999.0), "999.00");
        assert!(fmt_time(6310.0).contains('e'));
    }

    #[test]
    fn run_row_from_exploration() {
        use crate::explorer::{Exploration, ExplorationStats};
        let stats = ExplorationStats {
            iterations: 4,
            milp_vars: 10,
            milp_constraints: 20,
            total_time: 1.25,
            ..ExplorationStats::default()
        };
        let infeasible = Exploration::Infeasible { stats };
        let row = RunRow::from_exploration("cfg-x", &infeasible);
        assert_eq!(row.label, "cfg-x");
        assert_eq!(row.vars, 10);
        assert_eq!(row.constraints, 20);
        assert_eq!(row.iterations, 4);
        assert_eq!(row.cost, None);
        assert!((row.time_secs - 1.25).abs() < 1e-12);
    }

    #[test]
    fn dot_exports_render() {
        use crate::attr::{Attrs, COST, FLOW_CONS, FLOW_GEN};
        use crate::encode::encode_problem2;
        use crate::problem::{FlowSpec, SystemSpec};
        use crate::template::{Template, TypeConfig};
        use crate::{Architecture, Library, Problem};
        use contrarc_milp::SolveOptions;

        let mut t = Template::new("dot-test");
        let src_t = t.add_type("src", TypeConfig::source());
        let sink_t = t.add_type("sink", TypeConfig::sink());
        let s = t.add_node("S", src_t);
        let k = t.add_required_node("K", sink_t);
        t.add_candidate_edge(s, k);
        let mut lib = Library::new();
        lib.add(
            "S0",
            src_t,
            Attrs::new().with(COST, 1.0).with(FLOW_GEN, 8.0),
        );
        lib.add(
            "K0",
            sink_t,
            Attrs::new().with(COST, 1.0).with(FLOW_CONS, 5.0),
        );
        let spec = SystemSpec {
            flow: Some(FlowSpec {
                max_supply: 10.0,
                max_consumption: 10.0,
            }),
            ..SystemSpec::default()
        };
        let p = Problem::new(t, lib, spec);

        let tdot = template_dot(&p);
        assert!(tdot.contains("digraph"));
        assert!(tdot.contains("S : src"));

        let enc = encode_problem2(&p).unwrap();
        let sol = enc
            .model
            .solve(&SolveOptions::default())
            .unwrap()
            .expect_optimal()
            .unwrap();
        let arch = Architecture::decode(&p, &enc, &sol);
        let adot = architecture_dot(&p, &arch);
        assert!(adot.contains("S : S0"));
        assert!(adot.contains("->"));
        assert!(adot.contains("5.0"), "flow label expected: {adot}");
    }
}
