//! Aggregate a `CONTRARC_TRACE` span JSONL capture into performance tables.
//!
//! Usage:
//!
//! ```text
//! trace_report <trace.jsonl>             # per-span-name table + critical path
//! trace_report --diff <old> <new>        # what got slower between two captures
//! trace_report --top N ...               # limit tables to the N biggest rows
//! ```
//!
//! The report aggregates every span by name into call count, total time
//! (sum of span durations), self time (duration minus time spent in child
//! spans), and mean/max duration, then reconstructs the **critical path**:
//! starting from the longest root span, repeatedly descend into the longest
//! direct child, which names the chain of phases that actually bounds
//! wall-clock.
//!
//! `--diff` takes two JSONL traces — a `CONTRARC_TRACE` capture or the file
//! the exploration benchmark writes with `--trace-out` — and shows per-name
//! self time old → new with the delta and ratio, worst regressions first.

use contrarc::report::render_table;
use contrarc_obs::json::validate_trace_line;
use std::collections::HashMap;
use std::process::ExitCode;

/// Aggregated timing of one span name.
#[derive(Debug, Default, Clone, PartialEq)]
struct NameStats {
    calls: u64,
    total_us: u64,
    self_us: u64,
    max_us: u64,
}

/// One closed span, kept for critical-path reconstruction.
#[derive(Debug)]
struct ClosedSpan {
    name: String,
    parent: u64,
    dur_us: u64,
}

/// Everything extracted from one JSONL trace.
#[derive(Debug, Default)]
struct TraceSummary {
    by_name: HashMap<String, NameStats>,
    spans: HashMap<u64, ClosedSpan>,
    instants: u64,
    threads: std::collections::BTreeSet<String>,
}

/// A span currently open while scanning the trace.
struct OpenSpan {
    name: String,
    parent: u64,
    children_us: u64,
}

fn parse_trace(text: &str) -> Result<TraceSummary, String> {
    let mut summary = TraceSummary::default();
    let mut open: HashMap<u64, OpenSpan> = HashMap::new();
    for (i, line) in text.lines().enumerate() {
        let ln = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let rec = validate_trace_line(line).map_err(|e| format!("line {ln}: {e}"))?;
        summary.threads.insert(rec.thread);
        match rec.ev.as_str() {
            "open" => {
                open.insert(
                    rec.span,
                    OpenSpan {
                        name: rec.name,
                        parent: rec.parent,
                        children_us: 0,
                    },
                );
            }
            "close" => {
                let dur = rec.dur_us.unwrap_or(0);
                let Some(span) = open.remove(&rec.span) else {
                    return Err(format!(
                        "line {ln}: close for span {} without a matching open",
                        rec.span
                    ));
                };
                let stats = summary.by_name.entry(span.name.clone()).or_default();
                stats.calls += 1;
                stats.total_us += dur;
                stats.self_us += dur.saturating_sub(span.children_us);
                stats.max_us = stats.max_us.max(dur);
                if let Some(parent) = open.get_mut(&span.parent) {
                    parent.children_us += dur;
                }
                summary.spans.insert(
                    rec.span,
                    ClosedSpan {
                        name: span.name,
                        parent: span.parent,
                        dur_us: dur,
                    },
                );
            }
            "instant" => summary.instants += 1,
            other => return Err(format!("line {ln}: unknown event kind '{other}'")),
        }
    }
    if !open.is_empty() {
        // A truncated capture (killed process) is still reportable; the
        // unclosed spans just contribute nothing.
        eprintln!(
            "trace_report: warning: {} span(s) never closed; reporting closed spans only",
            open.len()
        );
    }
    Ok(summary)
}

fn ms(us: u64) -> String {
    format!("{:.3}", us as f64 / 1000.0)
}

/// The per-span-name table, widest total first.
fn render_by_name(summary: &TraceSummary, top: usize) -> String {
    let mut rows: Vec<(&String, &NameStats)> = summary.by_name.iter().collect();
    rows.sort_by(|a, b| b.1.self_us.cmp(&a.1.self_us).then(a.0.cmp(b.0)));
    let shown = rows.len().min(top);
    let table: Vec<Vec<String>> = rows[..shown]
        .iter()
        .map(|(name, s)| {
            vec![
                (*name).clone(),
                s.calls.to_string(),
                ms(s.total_us),
                ms(s.self_us),
                ms(s.total_us / s.calls.max(1)),
                ms(s.max_us),
            ]
        })
        .collect();
    let mut out = render_table(
        &["span", "calls", "total ms", "self ms", "mean ms", "max ms"],
        &table,
    );
    if shown < rows.len() {
        out.push_str(&format!(
            "({} more span name(s) below --top)\n",
            rows.len() - shown
        ));
    }
    out
}

/// Reconstruct the critical path: the longest root span, then repeatedly the
/// longest direct child. Returns rows of (depth-indented name, total, self).
fn critical_path(summary: &TraceSummary) -> Vec<Vec<String>> {
    // parent id -> children ids
    let mut children: HashMap<u64, Vec<u64>> = HashMap::new();
    for (&id, span) in &summary.spans {
        children.entry(span.parent).or_default().push(id);
    }
    let child_sum = |id: u64| -> u64 {
        children
            .get(&id)
            .map(|c| c.iter().map(|cid| summary.spans[cid].dur_us).sum())
            .unwrap_or(0)
    };
    let longest = |ids: &[u64]| -> Option<u64> {
        ids.iter()
            .copied()
            .max_by_key(|id| (summary.spans[id].dur_us, u64::MAX - id))
    };
    let mut path = Vec::new();
    let Some(root) = children.get(&0).and_then(|roots| longest(roots)) else {
        return path;
    };
    let mut cursor = Some(root);
    let mut depth = 0usize;
    while let Some(id) = cursor {
        let span = &summary.spans[&id];
        path.push(vec![
            format!("{}{}", "  ".repeat(depth), span.name),
            ms(span.dur_us),
            ms(span.dur_us.saturating_sub(child_sum(id))),
        ]);
        cursor = children.get(&id).and_then(|c| longest(c));
        depth += 1;
    }
    path
}

/// Per-name stats of the JSONL trace at `path`.
fn load_by_name(path: &str) -> Result<HashMap<String, NameStats>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(parse_trace(&text)
        .map_err(|e| format!("{path}: {e}"))?
        .by_name)
}

/// The diff table: per-name self time old → new, worst regression first.
fn render_diff(
    old: &HashMap<String, NameStats>,
    new: &HashMap<String, NameStats>,
    top: usize,
) -> String {
    let mut names: Vec<&String> = old.keys().chain(new.keys()).collect();
    names.sort();
    names.dedup();
    let mut rows: Vec<(i64, Vec<String>)> = names
        .into_iter()
        .map(|name| {
            let o = old.get(name).map_or(0, |s| s.self_us);
            let n = new.get(name).map_or(0, |s| s.self_us);
            let delta = n as i64 - o as i64;
            let ratio = if o == 0 {
                if n == 0 {
                    "1.00".to_string()
                } else {
                    "new".to_string()
                }
            } else {
                format!("{:.2}", n as f64 / o as f64)
            };
            (
                delta,
                vec![
                    name.clone(),
                    ms(o),
                    ms(n),
                    format!("{:+.3}", delta as f64 / 1000.0),
                    ratio,
                ],
            )
        })
        .collect();
    rows.sort_by(|a, b| b.0.cmp(&a.0).then(a.1[0].cmp(&b.1[0])));
    let shown = rows.len().min(top);
    let table: Vec<Vec<String>> = rows[..shown].iter().map(|(_, r)| r.clone()).collect();
    let mut out = render_table(
        &["span", "old self ms", "new self ms", "delta ms", "ratio"],
        &table,
    );
    if shown < rows.len() {
        out.push_str(&format!(
            "({} more span name(s) below --top)\n",
            rows.len() - shown
        ));
    }
    out
}

fn report(path: &str, top: usize) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let summary = parse_trace(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut out = format!(
        "trace_report: {path}: {} span(s) across {} name(s), {} instant event(s), {} thread(s)\n\n",
        summary.spans.len(),
        summary.by_name.len(),
        summary.instants,
        summary.threads.len()
    );
    out.push_str(&render_by_name(&summary, top));
    let path_rows = critical_path(&summary);
    if !path_rows.is_empty() {
        out.push_str("\ncritical path (longest root, then longest child at each level):\n");
        out.push_str(&render_table(&["span", "total ms", "self ms"], &path_rows));
    }
    Ok(out)
}

struct Args {
    diff: Option<(String, String)>,
    trace: Option<String>,
    top: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        diff: None,
        trace: None,
        top: usize::MAX,
    };
    let mut positional = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--diff" => {
                let old = argv.get(i + 1).ok_or("--diff needs <old> <new>")?;
                let new = argv.get(i + 2).ok_or("--diff needs <old> <new>")?;
                args.diff = Some((old.clone(), new.clone()));
                i += 3;
            }
            "--top" => {
                let n = argv.get(i + 1).ok_or("--top needs a number")?;
                args.top = n.parse().map_err(|_| format!("invalid --top '{n}'"))?;
                i += 2;
            }
            other if other.starts_with("--") => return Err(format!("unknown flag '{other}'")),
            other => {
                positional.push(other.to_string());
                i += 1;
            }
        }
    }
    match (args.diff.is_some(), positional.len()) {
        (true, 0) => {}
        (false, 1) => args.trace = positional.pop(),
        _ => {
            return Err(
                "usage: trace_report [--top N] <trace.jsonl> | trace_report [--top N] --diff <old> <new>"
                    .to_string(),
            )
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("trace_report: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match (&args.diff, &args.trace) {
        (Some((old, new)), _) => match (load_by_name(old), load_by_name(new)) {
            (Ok(o), Ok(n)) => Ok(format!(
                "trace_report: diff {old} -> {new}\n\n{}",
                render_diff(&o, &n, args.top)
            )),
            (Err(e), _) | (_, Err(e)) => Err(e),
        },
        (None, Some(path)) => report(path, args.top),
        (None, None) => unreachable!("parse_args enforces one mode"),
    };
    match result {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace_report: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny two-thread trace: root explore(10ms) containing solve(6ms)
    /// which contains lp(2ms), plus a worker-thread lp(3ms) under root and
    /// one instant event.
    fn demo_trace() -> String {
        [
            r#"{"ev":"open","t_us":0,"span":1,"parent":0,"thread":"main","name":"explore","fields":{}}"#,
            r#"{"ev":"open","t_us":100,"span":2,"parent":1,"thread":"main","name":"solve","fields":{}}"#,
            r#"{"ev":"open","t_us":200,"span":3,"parent":2,"thread":"main","name":"lp","fields":{}}"#,
            r#"{"ev":"close","t_us":2200,"span":3,"parent":2,"thread":"main","name":"lp","dur_us":2000,"fields":{}}"#,
            r#"{"ev":"instant","t_us":2300,"span":0,"parent":2,"thread":"main","name":"note","fields":{}}"#,
            r#"{"ev":"close","t_us":6100,"span":2,"parent":1,"thread":"main","name":"solve","dur_us":6000,"fields":{}}"#,
            r#"{"ev":"open","t_us":6200,"span":4,"parent":1,"thread":"worker-0","name":"lp","fields":{}}"#,
            r#"{"ev":"close","t_us":9200,"span":4,"parent":1,"thread":"worker-0","name":"lp","dur_us":3000,"fields":{}}"#,
            r#"{"ev":"close","t_us":10000,"span":1,"parent":0,"thread":"main","name":"explore","dur_us":10000,"fields":{}}"#,
            "",
        ]
        .join("\n")
    }

    #[test]
    fn aggregates_self_time_and_calls() {
        let summary = parse_trace(&demo_trace()).unwrap();
        assert_eq!(summary.instants, 1);
        assert_eq!(summary.threads.len(), 2);
        let explore = &summary.by_name["explore"];
        // explore total 10ms, children solve 6ms + lp 3ms -> self 1ms.
        assert_eq!(explore.calls, 1);
        assert_eq!(explore.total_us, 10_000);
        assert_eq!(explore.self_us, 1_000);
        let solve = &summary.by_name["solve"];
        assert_eq!(solve.self_us, 4_000, "solve minus nested lp");
        let lp = &summary.by_name["lp"];
        assert_eq!(lp.calls, 2);
        assert_eq!(lp.total_us, 5_000);
        assert_eq!(lp.self_us, 5_000, "leaves keep all their time");
        assert_eq!(lp.max_us, 3_000);
    }

    #[test]
    fn critical_path_descends_longest_children() {
        let summary = parse_trace(&demo_trace()).unwrap();
        let path = critical_path(&summary);
        let names: Vec<&str> = path.iter().map(|row| row[0].trim()).collect();
        // Root explore -> solve (6ms beats worker lp's 3ms) -> lp.
        assert_eq!(names, vec!["explore", "solve", "lp"]);
        assert_eq!(path[0][1], "10.000");
        assert_eq!(path[1][2], "4.000", "solve self time on the path");
    }

    #[test]
    fn report_renders_tables() {
        let dir = std::env::temp_dir().join(format!("trace-report-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.jsonl");
        std::fs::write(&p, demo_trace()).unwrap();
        let text = report(p.to_str().unwrap(), usize::MAX).unwrap();
        assert!(text.contains("span"), "{text}");
        assert!(text.contains("critical path"), "{text}");
        assert!(text.contains("explore"), "{text}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn diff_flags_the_slower_phase() {
        let dir = std::env::temp_dir().join(format!("trace-diff-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.jsonl");
        let b = dir.join("b.jsonl");
        std::fs::write(&a, demo_trace()).unwrap();
        // The nested lp span grows from 2 ms to 4.5 ms; its ancestors grow
        // by the same 2.5 ms, so their self time holds.
        let slower = demo_trace()
            .replace(r#""dur_us":2000"#, r#""dur_us":4500"#)
            .replace(r#""dur_us":6000"#, r#""dur_us":8500"#)
            .replace(r#""dur_us":10000"#, r#""dur_us":12500"#);
        std::fs::write(&b, slower).unwrap();
        let old = load_by_name(a.to_str().unwrap()).unwrap();
        let new = load_by_name(b.to_str().unwrap()).unwrap();
        assert_eq!(old["lp"].self_us, 5_000);
        assert_eq!(new["lp"].self_us, 7_500);
        assert_eq!(new["solve"].self_us, old["solve"].self_us);
        let table = render_diff(&old, &new, usize::MAX);
        let first_row = table.lines().nth(2).unwrap();
        assert!(
            first_row.trim_start().starts_with("lp"),
            "worst regression sorts first: {table}"
        );
        assert!(first_row.contains("1.50"), "ratio 7.5/5: {table}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn parse_args_modes_and_errors() {
        let a = parse_args(&["t.jsonl".into()]).unwrap();
        assert_eq!(a.trace.as_deref(), Some("t.jsonl"));
        let a = parse_args(&[
            "--top".into(),
            "5".into(),
            "--diff".into(),
            "o".into(),
            "n".into(),
        ])
        .unwrap();
        assert_eq!(a.top, 5);
        assert_eq!(a.diff, Some(("o".into(), "n".into())));
        assert!(parse_args(&[]).is_err());
        assert!(parse_args(&["a".into(), "b".into()]).is_err());
        assert!(parse_args(&["--bogus".into()]).is_err());
    }
}
