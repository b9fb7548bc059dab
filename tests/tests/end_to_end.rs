//! End-to-end pipeline tests: exploration results re-verified independently
//! and checked for optimality against exhaustive enumeration on a small
//! instance.

use contrarc::attr::{Attrs, COST, FLOW_CONS, FLOW_GEN, JITTER_OUT, LATENCY, THROUGHPUT};
use contrarc::baseline::solve_monolithic;
use contrarc::refinement::{check_candidate_all_cached, RefinementConfig};
use contrarc::{
    explore, ExplorerConfig, FlowSpec, Library, Problem, SystemSpec, Template, TimingSpec,
    TypeConfig,
};
use contrarc_contracts::RefinementChecker;
use contrarc_milp::SolveOptions;

/// Source → machine → sink chain with a parameterized machine menu.
fn chain_problem(menu: &[(f64, f64)], max_latency: f64) -> Problem {
    let mut t = Template::new("chain");
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
            .with(LATENCY, 1.0)
            .with(JITTER_OUT, 0.1),
    );
    for (i, &(cost, lat)) in menu.iter().enumerate() {
        lib.add(
            format!("M{i}"),
            mach_t,
            Attrs::new()
                .with(COST, cost)
                .with(THROUGHPUT, 20.0)
                .with(LATENCY, lat)
                .with(JITTER_OUT, 0.1),
        );
    }
    lib.add(
        "K",
        sink_t,
        Attrs::new()
            .with(COST, 1.0)
            .with(FLOW_CONS, 5.0)
            .with(LATENCY, 1.0)
            .with(JITTER_OUT, 0.1),
    );
    let spec = SystemSpec {
        flow: Some(FlowSpec {
            max_supply: 100.0,
            max_consumption: 100.0,
        }),
        timing: Some(TimingSpec {
            max_latency,
            max_input_jitter: 0.5,
            max_output_jitter: 0.5,
        }),
        flow_cap: 100.0,
        horizon: 1000.0,
    };
    Problem::new(t, lib, spec)
}

#[test]
fn exploration_matches_exhaustive_reference() {
    // Machine menu: (cost, latency). Worst-case end-to-end latency for
    // machine i = 1 + lat_i + 1 + jout_S + jout_M = lat_i + 2.2.
    let menu = [(1.0, 30.0), (2.0, 20.0), (4.0, 12.0), (9.0, 3.0)];
    for bound in [10.0, 15.0, 23.0, 40.0, 4.0] {
        let p = chain_problem(&menu, bound);
        let got = explore(&p, &ExplorerConfig::complete()).unwrap();
        // Reference: cheapest machine whose worst case fits the bound.
        let want: Option<f64> = menu
            .iter()
            .filter(|&&(_, lat)| lat + 2.2 <= bound + 1e-9)
            .map(|&(cost, _)| cost + 2.0)
            .fold(None, |acc, c| Some(acc.map_or(c, |a: f64| a.min(c))));
        match (got.architecture(), want) {
            (Some(a), Some(w)) => {
                assert!(
                    (a.cost() - w).abs() < 1e-6,
                    "bound {bound}: {} vs {w}",
                    a.cost()
                );
            }
            (None, None) => {}
            (g, w) => panic!(
                "bound {bound}: mismatch (got {:?}, want {w:?})",
                g.map(|a| a.cost())
            ),
        }
    }
}

#[test]
fn returned_architecture_passes_independent_recheck() {
    let menu = [(1.0, 30.0), (2.0, 20.0), (4.0, 12.0), (9.0, 3.0)];
    let p = chain_problem(&menu, 15.0);
    let result = explore(&p, &ExplorerConfig::complete()).unwrap();
    let arch = result.architecture().expect("feasible");
    // Re-verify with a fresh checker in both modes.
    for compositional in [true, false] {
        let cfg = RefinementConfig {
            compositional,
            max_paths: 1000,
            ..RefinementConfig::default()
        };
        let v =
            check_candidate_all_cached(&p, arch, &cfg, &RefinementChecker::new(), None).unwrap();
        assert!(
            v.is_empty(),
            "re-check (compositional={compositional}) found {v:?}"
        );
    }
}

#[test]
fn lazy_and_monolithic_agree_across_bounds() {
    let menu = [(1.0, 30.0), (3.0, 18.0), (6.0, 8.0)];
    for bound in [5.0, 12.0, 21.0, 35.0] {
        let p = chain_problem(&menu, bound);
        let lazy = explore(&p, &ExplorerConfig::complete()).unwrap();
        let mono = solve_monolithic(&p, &SolveOptions::default()).unwrap();
        assert_eq!(
            lazy.architecture().map(|a| (a.cost() * 1e6).round()),
            mono.architecture().map(|a| (a.cost() * 1e6).round()),
            "bound {bound}"
        );
    }
}

#[test]
fn ablation_modes_agree_on_chain() {
    let menu = [(1.0, 30.0), (2.0, 20.0), (4.0, 12.0)];
    let p = chain_problem(&menu, 15.0);
    let complete = explore(&p, &ExplorerConfig::complete()).unwrap();
    let only_iso = explore(&p, &ExplorerConfig::only_iso()).unwrap();
    let only_dec = explore(&p, &ExplorerConfig::only_decomposition()).unwrap();
    let cost = complete.architecture().unwrap().cost();
    assert!((only_iso.architecture().unwrap().cost() - cost).abs() < 1e-6);
    assert!((only_dec.architecture().unwrap().cost() - cost).abs() < 1e-6);
}

#[test]
fn architecture_flows_satisfy_demands() {
    let menu = [(1.0, 5.0)];
    let p = chain_problem(&menu, 20.0);
    let result = explore(&p, &ExplorerConfig::complete()).unwrap();
    let arch = result.architecture().unwrap();
    // Sink demand is 5; the edge into the sink must carry at least that.
    let sink = arch.sink_nodes(&p)[0];
    let inflow: f64 = arch
        .graph()
        .in_edges(sink)
        .map(|e| e.weight.flow.expect("flow viewpoint active"))
        .sum();
    assert!(inflow >= 5.0 - 1e-6, "sink inflow {inflow}");
}

mod random_chain {
    use super::chain_problem;
    use contrarc::{explore, ExplorerConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// On randomly generated machine menus, the exploration optimum
        /// equals the brute-force reference: the cheapest implementation
        /// whose worst-case end-to-end latency fits the bound.
        #[test]
        fn exploration_is_optimal_on_random_menus(seed in 0u64..300) {
            let mut rng = StdRng::seed_from_u64(seed);
            let k = rng.random_range(2..=5);
            let menu: Vec<(f64, f64)> = (0..k)
                .map(|_| {
                    (
                        f64::from(rng.random_range(1..=20)),
                        f64::from(rng.random_range(1..=40)),
                    )
                })
                .collect();
            let bound = f64::from(rng.random_range(5..=45));
            let p = chain_problem(&menu, bound);
            let got = explore(&p, &ExplorerConfig::complete()).unwrap();
            // Worst case = 1 + lat + 1 + jout_S + jout_M (0.1 each).
            let want: Option<f64> = menu
                .iter()
                .filter(|&&(_, lat)| lat + 2.2 <= bound + 1e-9)
                .map(|&(cost, _)| cost + 2.0)
                .fold(None, |acc, c| Some(acc.map_or(c, |a: f64| a.min(c))));
            let got_cost = got.architecture().map(contrarc::Architecture::cost);
            match (got_cost, want) {
                (Some(a), Some(w)) => prop_assert!(
                    (a - w).abs() < 1e-6,
                    "seed {seed}: got {a}, want {w} (menu {menu:?}, bound {bound})"
                ),
                (None, None) => {}
                (a, w) => prop_assert!(
                    false,
                    "seed {seed}: feasibility mismatch {a:?} vs {w:?} (menu {menu:?}, bound {bound})"
                ),
            }
        }
    }
}

#[test]
fn stats_time_components_add_up() {
    let menu = [(1.0, 30.0), (4.0, 3.0)];
    let p = chain_problem(&menu, 10.0);
    let result = explore(&p, &ExplorerConfig::complete()).unwrap();
    let s = result.stats();
    assert!(s.total_time >= s.milp_time);
    assert!(s.total_time + 1e-9 >= s.milp_time + s.refine_time + s.cert_time - 1e-3);
    assert!(s.iterations >= 1);
}
