//! Exploration benchmark: wall time for the ContrArc select → refine →
//! certify loop to reach a proven optimum on four workloads, scaled to a
//! reference machine speed by a calibration kernel (`calib`), and a traced
//! run that splits that time by layer. `README.md` beside this package
//! describes the workloads, the metrics and the layer map.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <sym-dive|epn-loop|synth-pop|sym-dive-2t|all> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod calib;
mod env;
mod explore;
mod spans;
mod workload;

use contrarc_obs::json::validate_trace_line;
use contrarc_obs::metrics::with_metrics;
use explore::{Layers, Timed, Trajectory};
use spans::Spans;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workload::{Case, Workload};

const USAGE: &str = "usage: contrarc-explore-benchmark --workload \
    <sym-dive|epn-loop|synth-pop|sym-dive-2t|all> [--seed N] [--seconds S] \
    [--trace 0|1] [--trace-out PATH]";

/// `synth-pop` seed when `--seed` is absent. A performance claim must also
/// hold on the held-out seed 7, which tuning this benchmark never used.
const DEFAULT_SEED: u64 = 1;

/// A traced run whose layer spans cover less than this share of its wall
/// time reports itself incorrect: the layers no longer add up.
const MIN_COVERAGE: f64 = 0.95;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        trace_out: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("--seed takes a whole number, not '{value}'"))?;
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds takes a positive number, not '{value}'"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                };
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(args)
}

/// Explorations attempted and failed in one run, and every check that did
/// not hold.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Outcome {
    /// Count one exploration; its value when it was correct.
    fn record<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(problem) => {
                self.failed += 1;
                self.problems.push(problem);
                None
            }
        }
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The trajectory of an untraced exploration that reached the case's
/// reference verdict.
fn check(timed: &Timed, case: &Case) -> Result<Trajectory, String> {
    let trajectory = timed.result.clone()?;
    let got = trajectory.verdict();
    if workload::matches(got, case.reference) {
        Ok(trajectory)
    } else {
        Err(format!(
            "verdict {got:?} differs from reference {:?}",
            case.reference
        ))
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median: the mean of the middle two for an even count, NaN when empty.
fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest of p99.9, p99, p95, p90, p75 and p50 (nearest rank) with at
/// least ten samples above it, as `(percentile, value, samples above)`.
fn tail(xs: &[f64]) -> Option<(f64, f64, usize)> {
    let v = sorted(xs);
    let n = v.len();
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find_map(|p: f64| {
            let rank = (p / 100.0 * n as f64).ceil() as usize;
            (rank >= 1 && n - rank >= 10).then(|| (p, v[rank - 1], n - rank))
        })
}

/// One untimed but checked exploration, so that allocator growth and cold
/// caches land outside the measurement.
fn warm_up(w: &Workload, outcome: &mut Outcome) {
    let case = &w.cases[0];
    outcome.record(check(&explore::untraced(&case.problem, w.threads), case));
}

/// The end-to-end run: explorations through `Explorer` with tracing and the
/// metrics registry off, cycling through the workload's problems until
/// `seconds` have passed. Each exploration's times are scaled to the
/// reference machine speed (see `calib`): at 1 thread by the mean of the
/// kernel calibrations just before and just after it, at more threads by
/// the median of the sampler's calibrations during it (falling back to the
/// calibrations around it when none fell inside).
fn untraced_run(w: &Workload, seconds: f64) -> (Outcome, Vec<Metric>, Vec<String>) {
    let mut outcome = Outcome::default();
    warm_up(w, &mut outcome);
    // Room for the run, the exploration that overruns it and a margin.
    let sampler = (w.threads > 1).then(|| calib::Sampler::start(seconds + 60.0));
    // (start, end, setup seconds, explore seconds, kernel seconds around).
    let mut runs = Vec::new();
    let mut kernel_before = calib::kernel_s();
    let start = Instant::now();
    for case in w.cases.iter().cycle() {
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let from = Instant::now();
        let timed = explore::untraced(&case.problem, w.threads);
        let to = Instant::now();
        let kernel_after = calib::kernel_s();
        outcome.record(check(&timed, case));
        runs.push((
            from,
            to,
            timed.setup_s,
            timed.explore_s,
            0.5 * (kernel_before + kernel_after),
        ));
        kernel_before = kernel_after;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let samples = sampler.map(calib::Sampler::finish);
    let (mut setup_s, mut explore_s, mut kernel_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut wall_setup_s, mut wall_explore_s) = (Vec::new(), Vec::new());
    for &(from, to, setup, explore, around) in &runs {
        let during = samples
            .as_deref()
            .map(|s| calib::between(s, from, to))
            .unwrap_or_default();
        let kernel = if during.is_empty() {
            around
        } else {
            median(&during)
        };
        let scale = calib::REFERENCE_KERNEL_S / kernel;
        setup_s.push(setup * scale);
        explore_s.push(explore * scale);
        kernel_s.push(kernel);
        wall_setup_s.push(setup);
        wall_explore_s.push(explore);
    }
    let n = explore_s.len();
    let tail_note = match tail(&explore_s) {
        Some((p, value, above)) => {
            format!("explore_s_tail: p{p} = {value} s ({n} samples, {above} above it)")
        }
        None => format!("explore_s_tail: omitted ({n} samples, fewer than 11)"),
    };
    let kernel = median(&kernel_s);
    let notes = vec![
        format!("explorations: {n} in {elapsed:.3} s"),
        format!(
            "wall (unscaled): explore_s {} s, setup_s {} s, explorations_per_s {} 1/s",
            median(&wall_explore_s),
            median(&wall_setup_s),
            n as f64 / wall_explore_s.iter().sum::<f64>()
        ),
        format!(
            "calibration: kernel {kernel} s median over explorations, machine speed {} of reference{}",
            calib::REFERENCE_KERNEL_S / kernel,
            samples.map_or_else(String::new, |s| format!(", {} sampler calibrations", s.len()))
        ),
        tail_note,
        format!(
            "failed_frac: {} ({} of {} attempted)",
            outcome.failed as f64 / outcome.attempted as f64,
            outcome.failed,
            outcome.attempted
        ),
    ];
    let metrics = vec![
        metric("explore_s", median(&explore_s), "s"),
        metric(
            "explorations_per_s",
            n as f64 / explore_s.iter().sum::<f64>(),
            "1/s",
        ),
        metric("setup_s", median(&setup_s), "s"),
        metric("peak_rss_mib", env::peak_rss_mib(), "MiB"),
    ];
    (outcome, metrics, notes)
}

/// The per-layer run. Each problem is explored untraced through `Explorer`
/// (the reference trajectory), then traced through the layers' public
/// functions with the metrics registry on; the traced exploration must
/// reproduce the reference bit for bit. At `threads > 1` a traced 1-thread
/// twin also runs, for the 1-thread/n-thread layer ratios.
fn traced_run(w: &Workload, seconds: f64, trace_out: &Path) -> (Outcome, Vec<Metric>, Vec<String>) {
    let mut outcome = Outcome::default();
    warm_up(w, &mut outcome);
    let mut spans = Spans::new();
    let mut total = Layers::default();
    let mut serial = Layers::default();
    let mut traced = 0usize;
    let mut untraced_s = 0.0;
    let (mut iterations, mut cuts) = (0usize, 0usize);
    let start = Instant::now();
    for case in w.cases.iter().cycle() {
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let reference = explore::untraced(&case.problem, w.threads);
        let Some(expected) = outcome.record(check(&reference, case)) else {
            continue;
        };
        let (run, _) =
            with_metrics(|| explore::traced(&case.problem, w.threads, &mut spans, &mut total));
        let matched = run.and_then(|got| {
            if got == expected {
                Ok(())
            } else {
                Err(format!(
                    "traced trajectory {got:?} differs from untraced {expected:?}"
                ))
            }
        });
        if outcome.record(matched).is_none() {
            continue;
        }
        if w.threads > 1 {
            // Another thread count may change only wall time and the pivots
            // of speculative node evaluations.
            let key = |t: &Trajectory| (t.optimum_bits, t.iterations, t.cuts, t.nodes);
            let (run, _) =
                with_metrics(|| explore::traced(&case.problem, 1, &mut spans, &mut serial));
            let matched = run.and_then(|got| {
                if key(&got) == key(&expected) {
                    Ok(())
                } else {
                    Err(format!(
                        "1-thread trajectory {got:?} differs from {expected:?}"
                    ))
                }
            });
            if outcome.record(matched).is_none() {
                continue;
            }
        }
        traced += 1;
        untraced_s += reference.explore_s;
        iterations += expected.iterations;
        cuts += expected.cuts;
    }

    let n = traced.max(1) as f64;
    let per = |x: f64| x / n;
    let count = |x: u64| per(x as f64);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let vs_serial = |one: f64, many: f64| if w.threads > 1 { ratio(one, many) } else { 1.0 };
    let coverage = ratio(total.covered_s(), total.wall_s);
    if coverage < MIN_COVERAGE {
        outcome.problems.push(format!(
            "layer spans cover {coverage:.4} of the traced wall time, below {MIN_COVERAGE}"
        ));
    }
    let jsonl = spans.to_jsonl();
    if let Err(e) = jsonl
        .lines()
        .try_for_each(|line| validate_trace_line(line).map(drop))
    {
        outcome
            .problems
            .push(format!("trace line breaks the schema: {e}"));
    }
    let written = match trace_out.parent().filter(|p| !p.as_os_str().is_empty()) {
        Some(dir) => std::fs::create_dir_all(dir),
        None => Ok(()),
    }
    .and_then(|()| std::fs::write(trace_out, &jsonl));
    if let Err(e) = written {
        outcome
            .problems
            .push(format!("cannot write {}: {e}", trace_out.display()));
    }
    let notes = vec![
        format!(
            "traced explorations: {traced} in {:.3} s",
            start.elapsed().as_secs_f64()
        ),
        format!(
            "trace: {} events in {}",
            jsonl.lines().count(),
            trace_out.display()
        ),
    ];
    let t = &total;
    let metrics = vec![
        metric("encode.s", per(t.encode_s), "s"),
        metric("sym.automorphisms_s", per(t.automorphisms_s), "s"),
        metric("encode.vars", count(t.encode_vars), "count"),
        metric("encode.rows", count(t.encode_rows), "count"),
        metric("sym.milp_rows", count(t.sym_milp_rows), "count"),
        metric("select.s", per(t.select_s), "s"),
        metric("select.calls", count(t.select_calls), "count"),
        metric(
            "select.final_share",
            ratio(t.select_final_s, t.select_s),
            "ratio",
        ),
        metric("select.cut_rows_final", count(t.cut_rows_final), "count"),
        metric("milp.pivots", count(t.select_pivots), "count"),
        metric("milp.nodes", count(t.select_nodes), "count"),
        metric(
            "milp.pivots_per_node",
            ratio(t.select_pivots as f64, t.select_nodes as f64),
            "count/node",
        ),
        metric("milp.refactorizations", count(t.refactorizations), "count"),
        metric(
            "milp.refactorizations_per_node",
            ratio(t.refactorizations as f64, t.select_nodes as f64),
            "count/node",
        ),
        metric("milp.refactor_reuse", count(t.refactor_reuse), "count"),
        metric("milp.frontier_max", t.frontier_max as f64, "count"),
        metric("milp.incumbents", count(t.incumbents), "count"),
        metric(
            "milp.warm_start_hit_ratio",
            ratio(t.warm_hits as f64, (t.warm_hits + t.warm_cold_falls) as f64),
            "ratio",
        ),
        metric("milp.pivots_saved", count(t.pivots_saved), "count"),
        metric("refine.s", per(t.refine_s), "s"),
        metric("refine.calls", count(t.refine_calls), "count"),
        metric("refine.path_checks", count(t.path_checks), "count"),
        metric(
            "refine.s_per_path_check",
            ratio(t.refine_s, t.path_checks as f64),
            "s",
        ),
        metric("refine.lp_pivots", count(t.refine_pivots), "count"),
        metric(
            "refine.cache_hit_ratio",
            ratio(t.cache_hits as f64, (t.cache_hits + t.cache_misses) as f64),
            "ratio",
        ),
        metric("cert.s", per(t.cert_s), "s"),
        metric("cert.cuts", count(t.cert_cuts), "count"),
        metric("cert.scopes", count(t.cert_scopes), "count"),
        metric("vf2.searches", count(t.vf2_searches), "count"),
        metric("vf2.embeddings", count(t.vf2_embeddings), "count"),
        metric(
            "sym.embeddings_enumerated",
            count(t.sym_enumerated),
            "count",
        ),
        metric(
            "sym.embedding_reduction",
            if t.sym_enumerated > 0 {
                ratio(t.sym_total as f64, t.sym_enumerated as f64)
            } else {
                1.0
            },
            "ratio",
        ),
        metric("decode.s", per(t.decode_s), "s"),
        metric("loop.iterations", per(iterations as f64), "count"),
        metric("loop.cuts", per(cuts as f64), "count"),
        metric("layers.coverage", coverage, "ratio"),
        metric(
            "par.effective_threads",
            contrarc_par::effective_threads(w.threads) as f64,
            "count",
        ),
        metric(
            "par.select_1t_over_nt",
            vs_serial(serial.select_s, t.select_s),
            "ratio",
        ),
        metric(
            "par.refine_1t_over_nt",
            vs_serial(serial.refine_s, t.refine_s),
            "ratio",
        ),
        metric("trace.overhead_ratio", ratio(t.wall_s, untraced_s), "ratio"),
    ];
    (outcome, metrics, notes)
}

/// `--workload all`: every workload in its own process, one after another,
/// so each reports its own memory high-water mark.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let seed = args.seed.to_string();
    let seconds = args.seconds.to_string();
    let trace = if args.trace { "1" } else { "0" };
    let mut ok = true;
    for name in workload::NAMES {
        println!("== {name}");
        let status = Command::new(&exe)
            .args([
                "--workload",
                name,
                "--seed",
                seed.as_str(),
                "--seconds",
                seconds.as_str(),
                "--trace",
                trace,
            ])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let load_before = env::load_average();
    let w = match workload::build(&args.workload, args.seed) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut outcome, mut metrics, notes) = if args.trace {
        let trace_out = args.trace_out.clone().unwrap_or_else(|| {
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("traces")
                .join(format!("{}-seed{}.jsonl", w.name, args.seed))
        });
        traced_run(&w, args.seconds, &trace_out)
    } else {
        untraced_run(&w, args.seconds)
    };
    for m in &mut metrics {
        if !m.value.is_finite() {
            outcome
                .problems
                .push(format!("{} is not a finite number", m.name));
            m.value = 0.0;
        }
    }

    println!("env {}", env::describe(&load_before));
    println!(
        "workload {} seed {} threads {} problems {}",
        w.name,
        args.seed,
        w.threads,
        w.cases.len()
    );
    for note in &notes {
        println!("{note}");
    }
    for m in &metrics {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for problem in outcome.problems.iter().take(10) {
        eprintln!("check failed: {problem}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.problems.is_empty(),
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
