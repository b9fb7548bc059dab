//! Human-readable reporting helpers for exploration results.

use crate::candidate::Architecture;
use crate::problem::Problem;
use contrarc_graph::dot::to_dot;

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
