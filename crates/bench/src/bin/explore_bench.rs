//! Bench smoke for the parallel exploration engine (not part of the paper).
//!
//! Explores two instances — the default two-line RPL template and the
//! default EPN template — each at `threads = 1` (the serial baseline),
//! `threads = 2` (a fixed multi-thread point, meaningful even when CI
//! pins the job to one core), and `threads = 0` (every available core),
//! and writes `BENCH_explore.json` recording per-phase wall-clock times,
//! per-iteration LP solve times and pivot counts, the refinement-cache hit
//! rate, per-case parallel speedups, a warm-start comparison (cold vs.
//! warm-started, with the pivot-reduction ratio), a metrics block (counters
//! and histograms from the observability registry), and the measured
//! `NoopSink` overhead ratio. CI runs this as a smoke check that every
//! thread count reproduces the serial optimum bit for bit and that warm
//! starts actually save pivots; the speedup figures are only meaningful on
//! a multi-core runner, so the core count is recorded next to them.
//!
//! A third, symmetric stress case — three identical parallel RPL lines —
//! runs with symmetry reduction off and on and records the orbit counters
//! (`sym.*`), the embedding-reduction ratio of the orbit-pruned matcher,
//! and the branch-and-bound node reduction from the MILP symmetry rows,
//! asserting both are at least 2× while the optimum stays bit-identical.
//!
//! Usage: `explore_bench [--trace-folded] [output-path]`
//! (default `BENCH_explore.json`).
//!
//! `--trace-folded` prints flamegraph.pl-compatible collapsed stacks for
//! all runs on stdout: `explore_bench --trace-folded | flamegraph.pl > x.svg`.
//! `CONTRARC_TRACE=path.jsonl` writes the full JSONL trace instead.
//!
//! Every run also appends one summary line (git rev, timestamp, cores,
//! noop-overhead measurement, per-case wall clocks and trajectory counts)
//! to `BENCH_history.jsonl` next to the report — the bench-history time
//! series behind the `bench_diff` regression gate.

use contrarc::{ExplorationStats, Explorer, ExplorerConfig, Problem, Step, SymmetryConfig};
use contrarc_milp::Budget;
use contrarc_obs::event;
use contrarc_obs::metrics::{self, MetricsReport};
use contrarc_obs::sinks::{CollapsedStackSink, NoopSink};
use contrarc_systems::epn::{build as build_epn, EpnConfig};
use contrarc_systems::rpl::{build as build_rpl, build_parallel, RplConfig, RplLines};
use std::sync::Arc;
use std::time::Instant;

/// Thread counts every case is explored at: serial baseline, a fixed
/// two-thread point, and all available cores.
const THREAD_POINTS: [usize; 3] = [1, 2, 0];

/// Warm-start configurations the serial comparison runs under.
#[derive(Clone, Copy, PartialEq)]
enum WarmMode {
    /// Warm starts off — the default configuration.
    Cold,
    /// Warm starts on ([`contrarc_milp::SolveOptions::warm_start`]): the
    /// cut loop's root relaxation and every branch-and-bound child start
    /// from a previous optimal basis.
    Warm,
}

impl WarmMode {
    fn name(self) -> &'static str {
        match self {
            WarmMode::Cold => "cold",
            WarmMode::Warm => "warm",
        }
    }
}

struct Case {
    name: &'static str,
    problem: Problem,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "rpl-default-both",
            problem: build_rpl(&RplConfig::default(), RplLines::Both),
        },
        Case {
            name: "epn-1-0-0",
            problem: build_epn(&EpnConfig::default()),
        },
    ]
}

/// One exploration iteration's share of the LP work.
struct IterSample {
    lp_secs: f64,
    pivots: u64,
}

struct Run {
    threads: usize,
    effective_threads: usize,
    wall_secs: f64,
    cost: f64,
    stats: ExplorationStats,
    pivots: u64,
    nodes: u64,
    per_iter: Vec<IterSample>,
}

fn run_once(problem: &Problem, threads: usize, mode: WarmMode, symmetry: SymmetryConfig) -> Run {
    let budget = Budget::unlimited();
    let mut cfg = ExplorerConfig {
        threads,
        symmetry,
        ..ExplorerConfig::complete()
    };
    cfg.solve_options.budget = budget.clone();
    cfg.solve_options.warm_start = mode == WarmMode::Warm;

    // Step the exploration by hand so each iteration's LP time and pivot
    // count can be sampled at the boundary (deltas of the cumulative
    // milp_time and of the shared budget's pivot counter).
    let t0 = Instant::now();
    let mut ex = Explorer::new(problem, cfg).expect("bench instances build");
    let mut per_iter = Vec::new();
    let mut last_lp_secs = 0.0;
    let mut last_pivots = 0u64;
    let cost = loop {
        let step = ex.step().expect("exploration failed");
        let lp_secs = ex.stats().milp_time;
        let pivots = budget.pivots_used();
        per_iter.push(IterSample {
            lp_secs: lp_secs - last_lp_secs,
            pivots: pivots - last_pivots,
        });
        last_lp_secs = lp_secs;
        last_pivots = pivots;
        match step {
            Step::Pruned { .. } => {}
            Step::Optimal(arch) => break arch.cost(),
            other => panic!("bench instances are feasible, got {other:?}"),
        }
    };
    let wall_secs = t0.elapsed().as_secs_f64();
    Run {
        threads,
        effective_threads: contrarc_par::effective_threads(threads),
        wall_secs,
        cost,
        stats: *ex.stats(),
        pivots: budget.pivots_used(),
        nodes: budget.nodes_used(),
        per_iter,
    }
}

fn json_per_iter(samples: &[IterSample]) -> String {
    let items: Vec<String> = samples
        .iter()
        .map(|s| {
            format!(
                "{{\"lp_secs\": {:.6}, \"pivots\": {}}}",
                s.lp_secs, s.pivots
            )
        })
        .collect();
    format!("[{}]", items.join(", "))
}

fn json_run(r: &Run) -> String {
    let s = &r.stats;
    let consulted = s.cache_hits + s.cache_misses;
    let hit_rate = if consulted == 0 {
        0.0
    } else {
        s.cache_hits as f64 / consulted as f64
    };
    format!(
        concat!(
            "        {{\n",
            "          \"threads\": {},\n",
            "          \"effective_threads\": {},\n",
            "          \"wall_secs\": {:.6},\n",
            "          \"milp_secs\": {:.6},\n",
            "          \"refine_secs\": {:.6},\n",
            "          \"cert_secs\": {:.6},\n",
            "          \"iterations\": {},\n",
            "          \"cuts_added\": {},\n",
            "          \"pivots\": {},\n",
            "          \"nodes\": {},\n",
            "          \"cache_hits\": {},\n",
            "          \"cache_misses\": {},\n",
            "          \"cache_hit_rate\": {:.4},\n",
            "          \"optimum\": {:.6},\n",
            "          \"per_iteration\": {}\n",
            "        }}"
        ),
        r.threads,
        r.effective_threads,
        r.wall_secs,
        s.milp_time,
        s.refine_time,
        s.cert_time,
        s.iterations,
        s.cuts_added,
        r.pivots,
        r.nodes,
        s.cache_hits,
        s.cache_misses,
        hit_rate,
        r.cost,
        json_per_iter(&r.per_iter),
    )
}

/// Serial runs cold and warm-started: warm starts must reach an
/// equally-optimal answer, and their pivot savings are recorded as a
/// reduction ratio against the cold baseline.
fn warm_comparison(case: &Case) -> String {
    let cold = run_once(&case.problem, 1, WarmMode::Cold, SymmetryConfig::default());
    let warm = run_once(&case.problem, 1, WarmMode::Warm, SymmetryConfig::default());
    assert!(
        (warm.cost - cold.cost).abs() < 1e-9,
        "case {}: warm-started optimum {} differs from cold {}",
        case.name,
        warm.cost,
        cold.cost,
    );
    let rendered: Vec<String> = [(WarmMode::Cold, &cold), (WarmMode::Warm, &warm)]
        .iter()
        .map(|(mode, r)| {
            format!(
                concat!(
                    "        {{\"mode\": \"{}\", \"pivots\": {}, \"nodes\": {}, ",
                    "\"lp_secs\": {:.6}, \"iterations\": {}, \"optimum\": {:.6}}}"
                ),
                mode.name(),
                r.pivots,
                r.nodes,
                r.stats.milp_time,
                r.stats.iterations,
                r.cost,
            )
        })
        .collect();
    let reduction = cold.pivots as f64 / (warm.pivots as f64).max(1.0);
    if case.name == "rpl-default-both" {
        // The headline number of the LP-core rewrite: warm starts must at
        // least halve the total simplex pivots on the RPL two-line case.
        assert!(
            reduction >= 2.0,
            "case {}: warm starts saved too little ({} cold vs {} warm pivots)",
            case.name,
            cold.pivots,
            warm.pivots,
        );
    }
    format!(
        concat!(
            "{{\n",
            "        \"pivot_reduction\": {:.4},\n",
            "        \"modes\": [\n{}\n        ]\n",
            "      }}"
        ),
        reduction,
        rendered.join(",\n"),
    )
}

/// Explore one case at every thread point, assert cross-thread determinism,
/// and render its JSON object (including the warm-start comparison).
fn bench_case(case: &Case) -> String {
    let runs: Vec<Run> = THREAD_POINTS
        .iter()
        .map(|&t| run_once(&case.problem, t, WarmMode::Cold, SymmetryConfig::default()))
        .collect();
    let serial = &runs[0];
    for run in &runs[1..] {
        assert_eq!(
            serial.cost.to_bits(),
            run.cost.to_bits(),
            "case {}: optimum at threads={} must be bit-identical to serial",
            case.name,
            run.threads,
        );
        assert_eq!(serial.stats.iterations, run.stats.iterations);
        assert_eq!(serial.stats.cuts_added, run.stats.cuts_added);
    }
    let max_threads = runs.last().expect("thread points nonempty");
    let speedup = serial.wall_secs / max_threads.wall_secs.max(1e-12);
    let rendered: Vec<String> = runs.iter().map(json_run).collect();
    format!(
        concat!(
            "    {{\n",
            "      \"case\": \"{}\",\n",
            "      \"speedup_serial_over_max_threads\": {:.4},\n",
            "      \"warm_start\": {},\n",
            "      \"runs\": [\n{}\n      ]\n",
            "    }}"
        ),
        case.name,
        speedup,
        warm_comparison(case),
        rendered.join(",\n"),
    )
}

/// Counter deltas between two registry snapshots (absent counters read 0).
fn counter_delta(before: &MetricsReport, after: &MetricsReport, name: &str) -> u64 {
    after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)
}

/// Symmetry counters attributed to one exploration run.
struct SymSample {
    template_orbits: u64,
    generators: u64,
    orbits: u64,
    embeddings_enumerated: u64,
    embeddings_total: u64,
    milp_rows: u64,
    refactor_reuse: u64,
}

/// The symmetric stress case: three identical parallel RPL lines, explored
/// with symmetry reduction off (serial) and on (at every thread point).
/// Asserts the headline claims of the symmetry layer — bit-identical optima
/// on vs. off, cross-thread determinism with symmetry on, at least a 2×
/// reduction in VF2 embeddings enumerated (orbit representatives vs. the
/// expanded total, which equals the full-enumeration count), and at least
/// a 2× reduction in branch-and-bound nodes visited — and renders a case
/// object carrying the counters that prove them. Must run inside the
/// `with_metrics` scope (reads `sym.*` / `milp.refactor_reuse` via registry
/// snapshots).
fn symmetry_case() -> String {
    // The default two-stage config's cheapest chain busts the latency
    // budget, so the exploration needs several certificate-cut iterations —
    // without them the matcher (and its counters) never runs. Six lines
    // give a line-permutation group of 720 (lex rows capped at the first
    // 64 elements), big enough that the >=2x reductions hold with margin.
    let problem = build_parallel(&RplConfig::default(), 6);

    let measure = |threads: usize, symmetry: SymmetryConfig| -> (Run, SymSample) {
        let before = metrics::snapshot();
        let run = run_once(&problem, threads, WarmMode::Cold, symmetry);
        let after = metrics::snapshot();
        let d = |name| counter_delta(&before, &after, name);
        let sym = SymSample {
            template_orbits: d("sym.template_orbits"),
            generators: d("sym.generators"),
            orbits: d("sym.orbits"),
            embeddings_enumerated: d("sym.embeddings_enumerated"),
            embeddings_total: d("sym.embeddings_total"),
            milp_rows: d("sym.milp_rows"),
            refactor_reuse: d("milp.refactor_reuse"),
        };
        (run, sym)
    };

    let (off, off_sym) = measure(1, SymmetryConfig::off());
    assert_eq!(
        off_sym.milp_rows, 0,
        "symmetry off must add no symmetry-breaking rows"
    );
    assert_eq!(
        off_sym.embeddings_enumerated, 0,
        "symmetry off must not take the orbit-pruned matcher path"
    );

    let on_runs: Vec<(Run, SymSample)> = THREAD_POINTS
        .iter()
        .map(|&t| measure(t, SymmetryConfig::default()))
        .collect();
    let (on, on_sym) = &on_runs[0];

    // Symmetry reduction is an accelerator, not a semantic knob: the
    // optimum must be bit-identical with and without it.
    assert_eq!(
        off.cost.to_bits(),
        on.cost.to_bits(),
        "symmetric case: optimum must be bit-identical with symmetry on vs off",
    );
    // Cross-thread determinism with symmetry on (orbit expansion happens at
    // serial commit points, so the whole trajectory is thread-invariant).
    for (run, run_sym) in &on_runs[1..] {
        assert_eq!(
            on.cost.to_bits(),
            run.cost.to_bits(),
            "symmetric case: optimum at threads={} must match serial",
            run.threads,
        );
        assert_eq!(on.stats.iterations, run.stats.iterations);
        assert_eq!(on.stats.cuts_added, run.stats.cuts_added);
        assert_eq!(on_sym.orbits, run_sym.orbits);
        assert_eq!(on_sym.embeddings_enumerated, run_sym.embeddings_enumerated);
        assert_eq!(on_sym.embeddings_total, run_sym.embeddings_total);
    }

    // Headline reductions. `embeddings_total` is the size of the expanded
    // cut family — identical to what full enumeration would visit — while
    // `embeddings_enumerated` is what the orbit-pruned backtracker actually
    // explored.
    assert!(
        on_sym.embeddings_total >= 2 * on_sym.embeddings_enumerated.max(1),
        "symmetric case: expected >=2x embedding reduction, enumerated {} of {}",
        on_sym.embeddings_enumerated,
        on_sym.embeddings_total,
    );
    assert!(
        off.nodes >= 2 * on.nodes.max(1),
        "symmetric case: expected >=2x fewer B&B nodes, got {} off vs {} on",
        off.nodes,
        on.nodes,
    );

    let embedding_reduction =
        on_sym.embeddings_total as f64 / (on_sym.embeddings_enumerated as f64).max(1.0);
    let node_reduction = off.nodes as f64 / (on.nodes as f64).max(1.0);
    let rendered: Vec<String> = on_runs.iter().map(|(r, _)| json_run(r)).collect();
    format!(
        concat!(
            "    {{\n",
            "      \"case\": \"rpl-par-6x1-s2\",\n",
            "      \"symmetry\": {{\n",
            "        \"template_orbits\": {},\n",
            "        \"generators\": {},\n",
            "        \"orbits\": {},\n",
            "        \"embeddings_enumerated\": {},\n",
            "        \"embeddings_total\": {},\n",
            "        \"embedding_reduction\": {:.4},\n",
            "        \"milp_rows\": {},\n",
            "        \"refactor_reuse\": {},\n",
            "        \"nodes_off\": {},\n",
            "        \"nodes_on\": {},\n",
            "        \"node_reduction\": {:.4}\n",
            "      }},\n",
            "      \"off_run\": [\n{}\n      ],\n",
            "      \"runs\": [\n{}\n      ]\n",
            "    }}"
        ),
        on_sym.template_orbits,
        on_sym.generators,
        on_sym.orbits,
        on_sym.embeddings_enumerated,
        on_sym.embeddings_total,
        embedding_reduction,
        on_sym.milp_rows,
        on_sym.refactor_reuse,
        off.nodes,
        on.nodes,
        node_reduction,
        json_run(&off),
        rendered.join(",\n"),
    )
}

/// One serial exploration's wall clock.
fn one_wall(problem: &Problem) -> f64 {
    run_once(problem, 1, WarmMode::Cold, SymmetryConfig::default()).wall_secs
}

/// The `NoopSink` overhead measurement: best-of-N ratio plus per-arm spread.
struct NoopOverhead {
    /// `min(noop) / min(bare)`.
    ratio: f64,
    /// Fastest bare run (no sink installed at all), seconds.
    bare_secs: f64,
    /// Fastest run with a `NoopSink` installed (disabled fast path: one
    /// relaxed atomic load per site), seconds.
    noop_secs: f64,
    /// `(max - min) / min` within the bare arm — how noisy the measurement
    /// itself was.
    bare_spread: f64,
    /// Same for the noop arm.
    noop_spread: f64,
}

/// Measure the `NoopSink` overhead: serial exploration with no sink at all
/// versus with a `NoopSink` installed.
///
/// The measurement is interleaved best-of-N: one discarded warm-up pair
/// (first runs pay one-time costs — allocator growth, page faults, branch
/// history — which previously landed entirely on whichever arm ran first
/// and produced nonsense ratios like 0.94), then N alternating bare/noop
/// pairs, taking each arm's minimum. Minima converge on the true cost
/// floor, so the ratio is a property of the code, not of scheduler luck;
/// the per-arm spread is reported so a noisy machine is visible in the
/// report rather than silently folded into the ratio.
fn measure_noop_overhead(problem: &Problem) -> NoopOverhead {
    const ROUNDS: usize = 5;
    let previous = contrarc_obs::uninstall_sink();
    // Warm-up pair, discarded.
    let _ = one_wall(problem);
    let _ = contrarc_obs::with_sink(Arc::new(NoopSink), || one_wall(problem));
    let mut bare = Vec::with_capacity(ROUNDS);
    let mut noop = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        bare.push(one_wall(problem));
        noop.push(contrarc_obs::with_sink(Arc::new(NoopSink), || {
            one_wall(problem)
        }));
    }
    if let Some(sink) = previous {
        contrarc_obs::install_sink(sink);
    }
    let min = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |xs: &[f64]| xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let spread = |xs: &[f64]| (max(xs) - min(xs)) / min(xs).max(1e-12);
    NoopOverhead {
        ratio: min(&noop) / min(&bare).max(1e-12),
        bare_secs: min(&bare),
        noop_secs: min(&noop),
        bare_spread: spread(&bare),
        noop_spread: spread(&noop),
    }
}

fn main() {
    let mut trace_folded = false;
    let mut out_path = "BENCH_explore.json".to_string();
    for arg in std::env::args().skip(1) {
        if arg == "--trace-folded" {
            trace_folded = true;
        } else {
            out_path = arg;
        }
    }

    let folded_sink = if trace_folded {
        let sink = Arc::new(CollapsedStackSink::default());
        contrarc_obs::install_sink(Arc::<CollapsedStackSink>::clone(&sink));
        Some(sink)
    } else {
        contrarc_bench::init_bin_tracing();
        None
    };

    // All cases at all thread points; warm-up runs excluded on purpose —
    // this is a smoke check, not a statistical benchmark. The metrics
    // registry is enabled around the runs and its snapshot embedded in the
    // report.
    let cases = cases();
    let (case_json, metrics) = contrarc_obs::metrics::with_metrics(|| {
        let mut rendered: Vec<String> = cases.iter().map(bench_case).collect();
        rendered.push(symmetry_case());
        rendered
    });

    // Overhead guard: an installed NoopSink must be free. With interleaved
    // best-of-N minima the ratio is stable around 1.0, so the sane bound is
    // tight both ways — a ratio well below 1.0 means the measurement is
    // broken (noise-dominated), not that observability is a speedup. The
    // absolute escape hatch covers machines where the whole case runs in
    // few enough milliseconds for one scheduler tick to swing the ratio.
    let noop = measure_noop_overhead(&cases[0].problem);
    assert!(
        (0.90..=1.10).contains(&noop.ratio) || (noop.noop_secs - noop.bare_secs).abs() < 0.020,
        "NoopSink overhead out of bounds: bare {:.3}s (spread {:.2}) vs noop {:.3}s \
         (spread {:.2}), ratio {:.3}",
        noop.bare_secs,
        noop.bare_spread,
        noop.noop_secs,
        noop.noop_spread,
        noop.ratio,
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"cores\": {},\n",
            "  \"thread_points\": [1, 2, 0],\n",
            "  \"noop_overhead_ratio\": {:.4},\n",
            "  \"noop_overhead\": {{\"ratio\": {:.4}, \"bare_secs\": {:.6}, ",
            "\"noop_secs\": {:.6}, \"bare_spread\": {:.4}, \"noop_spread\": {:.4}}},\n",
            "  \"metrics\": {},\n",
            "  \"cases\": [\n{}\n  ]\n",
            "}}\n"
        ),
        contrarc_par::available_parallelism(),
        noop.ratio,
        noop.ratio,
        noop.bare_secs,
        noop.noop_secs,
        noop.bare_spread,
        noop.noop_spread,
        metrics.to_json(),
        case_json.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("write bench report");
    append_history(&out_path, &json, &noop);

    if let Some(sink) = folded_sink {
        // Collapsed stacks on stdout, ready for flamegraph.pl.
        print!("{}", sink.folded());
    }
    event!(
        "explore_bench.done",
        cases = case_json.len(),
        cores = contrarc_par::available_parallelism(),
        noop_overhead_ratio = noop.ratio,
        out = out_path,
    );
    contrarc_obs::flush_sink();
}

/// Append one summary line for this run to `BENCH_history.jsonl` next to
/// the report, building the bench-history time series CI and `bench_diff`
/// work against: git revision, timestamp, core count, the noop-overhead
/// measurement, and per-case serial/max-thread wall clocks with the
/// trajectory counts. The summary is extracted by re-parsing the report
/// just written through the workspace's own JSON parser — so every run also
/// proves the report is well-formed.
fn append_history(out_path: &str, report_json: &str, noop: &NoopOverhead) {
    let doc = contrarc_obs::json::parse(report_json).expect("bench report must parse");
    let contrarc_obs::json::JsonValue::Arr(cases) = doc.get("cases").expect("report has cases")
    else {
        panic!("report 'cases' must be an array");
    };
    let mut case_lines = Vec::new();
    for case in cases {
        let name = case
            .get("case")
            .and_then(|v| v.as_str())
            .expect("case has a name");
        let contrarc_obs::json::JsonValue::Arr(runs) = case.get("runs").expect("case has runs")
        else {
            panic!("case 'runs' must be an array");
        };
        let num = |run: &contrarc_obs::json::JsonValue, key: &str| -> f64 {
            run.get(key).and_then(|v| v.as_num()).unwrap_or(0.0)
        };
        let serial = runs.first().expect("runs nonempty");
        let widest = runs.last().expect("runs nonempty");
        case_lines.push(format!(
            concat!(
                "{{\"case\": \"{}\", \"serial_wall_secs\": {:.6}, ",
                "\"max_threads_wall_secs\": {:.6}, \"iterations\": {}, ",
                "\"cuts_added\": {}, \"pivots\": {}, \"nodes\": {}, \"optimum\": {:.6}}}"
            ),
            name,
            num(serial, "wall_secs"),
            num(widest, "wall_secs"),
            num(serial, "iterations") as u64,
            num(serial, "cuts_added") as u64,
            num(serial, "pivots") as u64,
            num(serial, "nodes") as u64,
            num(serial, "optimum"),
        ));
    }
    let unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let line = format!(
        concat!(
            "{{\"git_rev\": \"{}\", \"unix_secs\": {}, \"cores\": {}, ",
            "\"noop_overhead\": {{\"ratio\": {:.4}, \"bare_spread\": {:.4}, ",
            "\"noop_spread\": {:.4}}}, \"cases\": [{}]}}\n"
        ),
        git_rev(),
        unix_secs,
        contrarc_par::available_parallelism(),
        noop.ratio,
        noop.bare_spread,
        noop.noop_spread,
        case_lines.join(", "),
    );
    contrarc_obs::json::parse(line.trim_end()).expect("history line must be valid JSON");
    let history_path = std::path::Path::new(out_path)
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .map_or_else(
            || std::path::PathBuf::from("BENCH_history.jsonl"),
            |dir| dir.join("BENCH_history.jsonl"),
        );
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&history_path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()));
    match appended {
        Ok(()) => println!("history appended to {}", history_path.display()),
        Err(e) => eprintln!("warning: cannot append {}: {e}", history_path.display()),
    }
}

/// The current short git revision, or `unknown` outside a work tree (the
/// bench must keep working from an exported tarball).
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}
