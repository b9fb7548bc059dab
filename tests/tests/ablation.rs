//! Ablation tests for the exploration's design choices: every knob must
//! preserve the optimum, and the pruning knobs must not increase iteration
//! counts when enabled.

use contrarc::{explore, ExplorerConfig};
use contrarc_systems::epn::{self, EpnConfig};
use contrarc_systems::rpl::{self, RplConfig, RplLines};

fn configs_under_test() -> Vec<(&'static str, ExplorerConfig)> {
    vec![
        ("complete", ExplorerConfig::complete()),
        ("only_iso", ExplorerConfig::only_iso()),
        ("only_dec", ExplorerConfig::only_decomposition()),
        (
            "no_dominance",
            ExplorerConfig {
                dominance_widening: false,
                ..ExplorerConfig::complete()
            },
        ),
        ("no_warm_solver", {
            let mut c = ExplorerConfig::complete();
            c.solve_options.warm_start = false;
            c
        }),
    ]
}

#[test]
fn all_knobs_preserve_the_rpl_optimum() {
    let p = rpl::build(&RplConfig::default(), RplLines::LineA);
    let reference = explore(&p, &ExplorerConfig::complete())
        .unwrap()
        .architecture()
        .unwrap()
        .cost();
    for (name, cfg) in configs_under_test() {
        let got = explore(&p, &cfg).unwrap();
        let cost = got
            .architecture()
            .unwrap_or_else(|| panic!("{name}: infeasible"))
            .cost();
        assert!(
            (cost - reference).abs() < 1e-6,
            "{name}: cost {cost} differs from reference {reference}"
        );
    }
}

#[test]
fn all_knobs_preserve_the_epn_optimum() {
    let p = epn::build(&EpnConfig::table2(1, 0, 0));
    let reference = explore(&p, &ExplorerConfig::complete())
        .unwrap()
        .architecture()
        .unwrap()
        .cost();
    for (name, cfg) in configs_under_test() {
        let got = explore(&p, &cfg).unwrap();
        let cost = got
            .architecture()
            .unwrap_or_else(|| panic!("{name}: infeasible"))
            .cost();
        assert!(
            (cost - reference).abs() < 1e-6,
            "{name}: cost {cost} differs from reference {reference}"
        );
    }
}

#[test]
fn dominance_widening_reduces_iterations() {
    // Widening pays exactly when a violating candidate *dominates* a more
    // expensive alternative (swapping in the alternative provably keeps the
    // violation). Build a machine menu containing such an implementation:
    // `worse` costs more than `slow` but is just as slow, so a cut on `slow`
    // covers it — without widening the explorer must visit it separately.
    use contrarc::attr::{Attrs, COST, FLOW_CONS, FLOW_GEN, LATENCY, THROUGHPUT};
    use contrarc::{FlowSpec, Library, Problem, SystemSpec, Template, TimingSpec, TypeConfig};

    let mut t = Template::new("dom");
    let src_t = t.add_type("src", TypeConfig::source());
    let mach_t = t.add_type("mach", TypeConfig::bounded(2, 2));
    let sink_t = t.add_type("sink", TypeConfig::sink());
    let s = t.add_node("S", src_t);
    let m = t.add_node("M", mach_t);
    let k = t.add_required_node("K", sink_t);
    t.add_candidate_edge(s, m);
    t.add_candidate_edge(m, k);

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
        "slow",
        mach_t,
        Attrs::new()
            .with(COST, 1.0)
            .with(THROUGHPUT, 20.0)
            .with(LATENCY, 30.0),
    );
    lib.add(
        "worse", // dominated by `slow` for timing, but more expensive
        mach_t,
        Attrs::new()
            .with(COST, 2.0)
            .with(THROUGHPUT, 20.0)
            .with(LATENCY, 30.0),
    );
    lib.add(
        "fast",
        mach_t,
        Attrs::new()
            .with(COST, 5.0)
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
            max_latency: 10.0,
            max_input_jitter: 1.0,
            max_output_jitter: 1.0,
        }),
        flow_cap: 100.0,
        horizon: 1000.0,
    };
    let p = Problem::new(t, lib, spec);

    let with = explore(&p, &ExplorerConfig::complete()).unwrap();
    let without = explore(
        &p,
        &ExplorerConfig {
            dominance_widening: false,
            ..ExplorerConfig::complete()
        },
    )
    .unwrap();
    assert!(
        (with.architecture().unwrap().cost() - without.architecture().unwrap().cost()).abs() < 1e-6
    );
    assert!(
        with.stats().iterations < without.stats().iterations,
        "expected strictly fewer iterations with dominance widening ({} vs {})",
        with.stats().iterations,
        without.stats().iterations
    );
}

#[test]
fn explorer_time_budget_is_enforced() {
    // A budget of ~zero must abort promptly, degrading to a partial result
    // that names the exhausted wall-clock budget.
    let p = rpl::build(&RplConfig::default(), RplLines::Both);
    let cfg = ExplorerConfig {
        time_limit_secs: Some(1e-9),
        ..ExplorerConfig::complete()
    };
    match explore(&p, &cfg) {
        Ok(contrarc::Exploration::Partial {
            reason: contrarc::StopReason::TimeLimit { .. },
            ..
        }) => {}
        other => panic!("expected a time-limited partial result, got {other:?}"),
    }
}

#[test]
fn objective_floor_is_transparent() {
    // The floor fast-path must not change the optimum (it is what explore()
    // uses internally; verify against a floor-free configuration by running
    // the baseline encoder directly).
    let p = rpl::build(&RplConfig::default(), RplLines::LineA);
    let via_loop = explore(&p, &ExplorerConfig::complete())
        .unwrap()
        .architecture()
        .unwrap()
        .cost();
    let via_baseline =
        contrarc::baseline::solve_monolithic(&p, &contrarc_milp::SolveOptions::default())
            .unwrap()
            .architecture()
            .unwrap()
            .cost();
    assert!(
        (via_loop - via_baseline).abs() < 1e-6,
        "loop {via_loop} vs baseline {via_baseline}"
    );
}

#[test]
fn iso_pruning_reduces_iterations_on_symmetric_epn() {
    // Two symmetric sides: isomorphism transfers every cut across sides.
    let p = epn::build(&EpnConfig::table2(1, 1, 0));
    let with = explore(&p, &ExplorerConfig::complete()).unwrap();
    let without = explore(&p, &ExplorerConfig::only_decomposition()).unwrap();
    assert!(with.stats().iterations <= without.stats().iterations);
}
