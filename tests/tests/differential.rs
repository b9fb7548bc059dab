//! A differential check over a generated population. On seeded `synth`
//! problems these runs must reach the same optimum within 1e-9, or all
//! report infeasible:
//!
//! - the default exploration (the paper's complete mode), which warm-starts
//!   every branch-and-bound node;
//! - the exploration with `warm_start: false`, which solves every LP cold;
//! - the paper's two ablations, only decomposition and only isomorphism;
//! - the exploration with the symmetry layer off;
//! - the monolithic baseline (`baseline::solve_monolithic`), warm and cold.
//!
//! The population has the `synth-pop` benchmark workload's nine strata:
//! three template shapes, each at three latency slacks. Each stratum gets six
//! problems, on generator seeds far from the ones `synth-pop` uses (its
//! seed `s` generates seeds `270·s` to `270·s + 269`). Each shape is one
//! test, about 3 s in the test profile.

use contrarc::baseline::solve_monolithic;
use contrarc::synth::{generate, SynthConfig};
use contrarc::{explore, Exploration, ExplorerConfig, Problem, SymmetryConfig};
use contrarc_milp::SolveOptions;

const SLACKS: [f64; 3] = [0.8, 0.9, 1.0];
const PER_STRATUM: u64 = 6;
const FIRST_SEED: u64 = 1_000_000;

/// The optimal cost, or `None` for infeasible.
fn verdict(result: Result<Exploration, contrarc::ExploreError>, run: &str) -> Option<f64> {
    match result.unwrap_or_else(|e| panic!("{run} failed: {e}")) {
        Exploration::Optimal { architecture, .. } => Some(architecture.cost()),
        Exploration::Infeasible { .. } => None,
        Exploration::Partial { reason, .. } => panic!("{run} stopped early: {reason}"),
    }
}

/// The explorations checked against the default one.
fn explorations() -> [(&'static str, ExplorerConfig); 4] {
    let mut cold = ExplorerConfig::complete();
    cold.solve_options.warm_start = false;
    let symmetry_off = ExplorerConfig {
        symmetry: SymmetryConfig::off(),
        ..ExplorerConfig::complete()
    };
    [
        ("cold exploration", cold),
        ("only decomposition", ExplorerConfig::only_decomposition()),
        ("only isomorphism", ExplorerConfig::only_iso()),
        ("symmetry off", symmetry_off),
    ]
}

fn baseline_with(p: &Problem, warm_start: bool) -> Option<f64> {
    let opts = SolveOptions {
        warm_start,
        ..SolveOptions::default()
    };
    verdict(
        solve_monolithic(p, &opts),
        &format!("baseline (warm_start {warm_start})"),
    )
}

fn agree(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => (a - b).abs() <= 1e-9,
        (None, None) => true,
        _ => false,
    }
}

/// Run every problem of one template shape, at every slack, seven ways.
fn assert_runs_agree(shape_index: u64, (layers, width, impls_per_type): (usize, usize, usize)) {
    let explorations = explorations();
    let mut optima = 0;
    for (s, &latency_slack) in SLACKS.iter().enumerate() {
        for k in 0..PER_STRATUM {
            let config = SynthConfig {
                seed: FIRST_SEED + (shape_index * 3 + s as u64) * PER_STRATUM + k,
                layers,
                width,
                impls_per_type,
                latency_slack,
                ..SynthConfig::default()
            };
            let p = generate(&config);
            let reference = verdict(explore(&p, &ExplorerConfig::complete()), "warm exploration");
            let runs = explorations
                .iter()
                .map(|(run, cfg)| (*run, verdict(explore(&p, cfg), run)))
                .chain([
                    ("warm baseline", baseline_with(&p, true)),
                    ("cold baseline", baseline_with(&p, false)),
                ]);
            for (run, got) in runs {
                assert!(
                    agree(got, reference),
                    "{config:?}: {run} gives {got:?}, the warm exploration {reference:?}"
                );
            }
            optima += usize::from(reference.is_some());
        }
    }
    assert!(optima > 0, "the population must not be all infeasible");
}

#[test]
fn warm_cold_and_baseline_agree_on_two_layers_of_two() {
    assert_runs_agree(0, (2, 2, 3));
}

#[test]
fn warm_cold_and_baseline_agree_on_three_layers_of_two() {
    assert_runs_agree(1, (3, 2, 3));
}

#[test]
fn warm_cold_and_baseline_agree_on_two_layers_of_three() {
    assert_runs_agree(2, (2, 3, 3));
}
