//! Integration tests over the RPL and EPN case studies: exploration
//! dynamics, re-verification, and the qualitative claims of the paper's
//! evaluation.

use contrarc::refinement::{check_candidate_all_cached, RefinementConfig};
use contrarc::{explore, ExplorerConfig};
use contrarc_contracts::RefinementChecker;
use contrarc_systems::decompose::{explore_decomposed, explore_monolithic};
use contrarc_systems::epn::{self, EpnConfig};
use contrarc_systems::rpl::{self, RplConfig, RplLines};

#[test]
fn rpl_architecture_recheck_passes() {
    let p = rpl::build(&RplConfig::default(), RplLines::Both);
    let result = explore(&p, &ExplorerConfig::complete()).unwrap();
    let arch = result.architecture().expect("feasible");
    let v = check_candidate_all_cached(
        &p,
        arch,
        &RefinementConfig::default(),
        &RefinementChecker::new(),
        None,
    )
    .unwrap();
    assert!(v.is_empty(), "re-check found {v:?}");
}

#[test]
fn rpl_iso_pruning_never_needs_more_iterations() {
    let p = rpl::build(&RplConfig::default(), RplLines::Both);
    let complete = explore(&p, &ExplorerConfig::complete()).unwrap();
    let only_dec = explore(&p, &ExplorerConfig::only_decomposition()).unwrap();
    assert!(complete.stats().iterations <= only_dec.stats().iterations);
    assert!(
        (complete.architecture().unwrap().cost() - only_dec.architecture().unwrap().cost()).abs()
            < 1e-6
    );
}

#[test]
fn rpl_symmetric_lines_get_symmetric_solutions() {
    let p = rpl::build(&RplConfig::default(), RplLines::Both);
    let result = explore(&p, &ExplorerConfig::complete()).unwrap();
    let arch = result.architecture().unwrap();
    // Same implementation multiset on both lines ⇒ per-line cost equal.
    let (mut cost_a, mut cost_b) = (0.0, 0.0);
    for (_, w) in arch.graph().nodes() {
        let c = p.library.attr(w.implementation, contrarc::attr::COST);
        if w.name.contains('A') {
            cost_a += c;
        } else {
            cost_b += c;
        }
    }
    assert!((cost_a - cost_b).abs() < 1e-6, "A {cost_a} vs B {cost_b}");
}

#[test]
fn rpl_decomposed_equals_monolithic() {
    let config = RplConfig::default();
    let cfg = ExplorerConfig::complete();
    let dec = explore_decomposed(&config, &cfg).unwrap();
    let mono = explore_monolithic(&config, &cfg).unwrap();
    assert!(dec.compatibility_ok);
    assert!((dec.total_cost().unwrap() - mono.architecture().unwrap().cost()).abs() < 1e-6);
}

#[test]
fn epn_smallest_config_full_pipeline() {
    let p = epn::build(&EpnConfig::table2(1, 0, 0));
    let result = explore(&p, &ExplorerConfig::complete()).unwrap();
    let arch = result.architecture().expect("feasible");
    assert_eq!(arch.num_nodes(), 5, "all five layers instantiated");
    assert_eq!(arch.num_edges(), 4);
    let v = check_candidate_all_cached(
        &p,
        arch,
        &RefinementConfig::default(),
        &RefinementChecker::new(),
        None,
    )
    .unwrap();
    assert!(v.is_empty());
}

#[test]
fn epn_capped_path_enumeration_keeps_the_optimum() {
    // `max_paths: 1` enumerates one source→sink path of a two-sided EPN.
    // Timing must not pass on that path alone: ignoring the unchecked paths
    // admits an architecture costing 81.5, below the true optimum of 85.
    let p = epn::build(&EpnConfig::table2(1, 1, 0));
    let mut config = ExplorerConfig::complete();
    config.max_paths = 1;
    let result = explore(&p, &config).unwrap();
    let arch = result.architecture().expect("feasible");
    assert!((arch.cost() - 85.0).abs() < 1e-6, "cost {}", arch.cost());
    let v = check_candidate_all_cached(
        &p,
        arch,
        &RefinementConfig::default(),
        &RefinementChecker::new(),
        None,
    )
    .unwrap();
    assert!(v.is_empty(), "uncapped re-check found {v:?}");
}

#[test]
fn epn_all_selected_impl_latencies_fit_budget() {
    let config = EpnConfig::table2(1, 0, 0);
    let p = epn::build(&config);
    let result = explore(&p, &ExplorerConfig::complete()).unwrap();
    let arch = result.architecture().unwrap();
    let total_latency: f64 = arch
        .graph()
        .nodes()
        .map(|(_, w)| p.library.attr(w.implementation, contrarc::attr::LATENCY))
        .sum();
    let total_jitter: f64 = arch
        .graph()
        .nodes()
        .map(|(_, w)| p.library.attr(w.implementation, contrarc::attr::JITTER_OUT))
        .sum();
    // Worst case excludes the sink's own output jitter.
    let sink = arch.sink_nodes(&p)[0];
    let sink_jout = p.library.attr(
        arch.graph().node_weight(sink).implementation,
        contrarc::attr::JITTER_OUT,
    );
    assert!(
        total_latency + total_jitter - sink_jout <= config.max_latency + 1e-6,
        "worst-case {} exceeds budget {}",
        total_latency + total_jitter - sink_jout,
        config.max_latency
    );
}

#[test]
fn epn_supply_within_cap() {
    let p = epn::build(&EpnConfig::table2(1, 0, 0));
    let result = explore(&p, &ExplorerConfig::complete()).unwrap();
    let arch = result.architecture().unwrap();
    let supply: f64 = arch
        .source_nodes(&p)
        .iter()
        .map(|&n| {
            p.library.attr(
                arch.graph().node_weight(n).implementation,
                contrarc::attr::FLOW_GEN,
            )
        })
        .sum();
    let cap = p.spec.flow.unwrap().max_supply;
    assert!(supply <= cap + 1e-6, "supply {supply} over cap {cap}");
}

#[test]
fn epn_modes_agree_and_complete_is_not_slower_in_iterations() {
    let p = epn::build(&EpnConfig::table2(1, 0, 0));
    let complete = explore(&p, &ExplorerConfig::complete()).unwrap();
    let only_dec = explore(&p, &ExplorerConfig::only_decomposition()).unwrap();
    assert!(
        (complete.architecture().unwrap().cost() - only_dec.architecture().unwrap().cost()).abs()
            < 1e-6
    );
    assert!(complete.stats().iterations <= only_dec.stats().iterations);
}

#[test]
fn epn_larger_template_is_larger_milp() {
    let p1 = epn::build(&EpnConfig::table2(1, 0, 0));
    let p2 = epn::build(&EpnConfig::table2(1, 1, 0));
    let e1 = contrarc::encode::encode_problem2(&p1).unwrap();
    let e2 = contrarc::encode::encode_problem2(&p2).unwrap();
    assert!(e2.model.stats().num_vars > e1.model.stats().num_vars);
    assert!(e2.model.stats().num_constraints > e1.model.stats().num_constraints);
}
