//! Diagnostic probe for exploration performance (not part of the paper).
//! Usage: `probe [lineA|both] [warm|cold] [iso|noiso] [comp|mono] [n] [stages] [archex]`
//!
//! `cold` turns off `SolveOptions::warm_start`, solving every LP from the
//! slack basis; anything else keeps the default root and node dual-simplex
//! warm starts. `n` is the paper's
//! `n_A = n_B` sweep point and `stages` the stage count (defaults 1 and 2);
//! `archex` solves the monolithic baseline instead of exploring.
//!
//! Progress is reported through the structured event API: by default a
//! stderr pretty-printer renders each event, and `CONTRARC_TRACE=path.jsonl`
//! redirects the full span/event stream to a JSONL trace instead.

use contrarc::{Explorer, ExplorerConfig, Step};
use contrarc_milp::{Budget, Deadline, SolveOptions};
use contrarc_obs::event;
use contrarc_systems::rpl::{build, RplConfig, RplLines};
use std::time::Instant;

fn main() {
    contrarc_bench::init_bin_tracing();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let lines = if args.first().map(String::as_str) == Some("both") {
        RplLines::Both
    } else {
        RplLines::LineA
    };
    let warm = args.get(1).map(String::as_str) != Some("cold");
    let iso = args.get(2).map(String::as_str) != Some("noiso");
    let comp = args.get(3).map(String::as_str) != Some("mono");
    let n: usize = args.get(4).map_or(1, |s| s.parse().expect("n"));
    let stages: usize = args.get(5).map_or(2, |s| s.parse().expect("stages"));

    let mut rc = RplConfig::symmetric(n);
    rc.stages = stages;
    rc.max_latency = 13.0 * stages as f64 + 16.0;
    let p = build(&rc, lines);
    let mut cfg = ExplorerConfig::complete();
    cfg.solve_options.warm_start = warm;
    cfg.iso_pruning = iso;
    cfg.compositional = comp;
    if args.get(6).map(String::as_str) == Some("archex") {
        let t0 = Instant::now();
        let budget = Budget::unlimited().with_deadline(Deadline::in_secs(120.0));
        let r =
            contrarc::baseline::solve_monolithic(&p, &SolveOptions::default().with_budget(budget));
        match r {
            Ok(e) => event!(
                "probe.archex",
                cost = e
                    .architecture()
                    .map_or(f64::NAN, contrarc::Architecture::cost),
                secs = t0.elapsed().as_secs_f64(),
            ),
            Err(err) => event!(
                "probe.archex_error",
                error = format!("{err}"),
                secs = t0.elapsed().as_secs_f64(),
            ),
        }
        contrarc_obs::flush_sink();
        return;
    }
    let mut ex = Explorer::new(&p, cfg).unwrap();
    event!(
        "probe.model",
        vars = ex.stats().milp_vars,
        constraints = ex.stats().milp_constraints,
    );
    let t0 = Instant::now();
    loop {
        let it = Instant::now();
        match ex.step().unwrap() {
            Step::Pruned {
                candidate,
                violations,
                cuts_added,
            } => {
                event!(
                    "probe.iter",
                    iter = ex.stats().iterations,
                    secs = it.elapsed().as_secs_f64(),
                    cost = candidate.cost(),
                    violations = violations.len(),
                    cuts = cuts_added,
                    total_cuts = ex.stats().cuts_added,
                );
            }
            Step::Optimal(a) => {
                event!(
                    "probe.optimal",
                    cost = a.cost(),
                    iters = ex.stats().iterations,
                    secs = t0.elapsed().as_secs_f64(),
                );
                break;
            }
            Step::Infeasible => {
                event!(
                    "probe.infeasible",
                    iters = ex.stats().iterations,
                    secs = t0.elapsed().as_secs_f64(),
                );
                break;
            }
            Step::Exhausted(reason) => {
                event!(
                    "probe.exhausted",
                    reason = format!("{reason}"),
                    iters = ex.stats().iterations,
                    secs = t0.elapsed().as_secs_f64(),
                    incumbent_cost = ex
                        .incumbent()
                        .map_or(f64::NAN, contrarc::Architecture::cost),
                );
                break;
            }
        }
    }
    contrarc_obs::flush_sink();
}
