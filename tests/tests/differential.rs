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
//! Three metamorphic runs explore a changed problem whose optimum is known
//! from the original's:
//!
//! - "relabelled": the template nodes are added in reverse order and the
//!   library is reversed, so the node and implementation ids change, and
//!   with them the order of the embeddings and of the cuts;
//! - "costlier twins": every implementation gets a copy that costs 1 more,
//!   so no optimum may select a copy;
//! - "doubled costs": every cost is doubled, and the optimum, halved, must
//!   match.
//!
//! The population has the `synth-pop` benchmark workload's nine strata:
//! three template shapes, each at three latency slacks. Each stratum gets six
//! problems, on generator seeds far from the ones `synth-pop` uses (its
//! seed `s` generates seeds `270·s` to `270·s + 269`). Each shape is one
//! test, about 2 s in the test profile.

use contrarc::attr::COST;
use contrarc::baseline::solve_monolithic;
use contrarc::synth::{generate, SynthConfig};
use contrarc::{
    explore, Exploration, ExplorerConfig, Implementation, Library, Problem, SymmetryConfig,
    Template, TypeId,
};
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

/// Name suffix of a costlier twin.
const TWIN: &str = "'";

/// `p` with its template nodes added in reverse order and its library
/// reversed.
fn relabelled(p: &Problem) -> Problem {
    let t = &p.template;
    let mut template = Template::new(t.name());
    for ty in (0..t.num_types()).map(TypeId::from_index) {
        template.add_type(t.type_name(ty), t.type_config(ty).clone());
    }
    let mut new_id = vec![None; t.num_nodes()];
    for n in t.node_ids().collect::<Vec<_>>().into_iter().rev() {
        let node = t.node(n);
        let id = template.add_node(node.name.clone(), node.ty);
        template.set_required(id, node.required);
        template.set_weight(id, node.weight);
        new_id[n.index()] = Some(id);
    }
    for (_, a, b) in t.candidate_edges() {
        template.add_candidate_edge(new_id[a.index()].unwrap(), new_id[b.index()].unwrap());
    }
    let mut library = Library::new();
    for (_, imp) in p.library.iter().collect::<Vec<_>>().into_iter().rev() {
        library.add(imp.name.clone(), imp.ty, imp.attrs.clone());
    }
    Problem::new(template, library, p.spec.clone())
}

/// `p` with its library rebuilt by `add`, called on each implementation in
/// order.
fn with_library(p: &Problem, mut add: impl FnMut(&mut Library, &Implementation)) -> Problem {
    let mut library = Library::new();
    for (_, imp) in p.library.iter() {
        add(&mut library, imp);
    }
    Problem::new(p.template.clone(), library, p.spec.clone())
}

/// `p` with every implementation followed by a twin that costs 1 more.
fn costlier_twins(p: &Problem) -> Problem {
    with_library(p, |library, imp| {
        library.add(imp.name.clone(), imp.ty, imp.attrs.clone());
        let cost = imp.attrs.get(COST) + 1.0;
        let twin = imp.attrs.clone().with(COST, cost);
        library.add(format!("{}{TWIN}", imp.name), imp.ty, twin);
    })
}

/// `p` with every implementation's cost doubled.
fn doubled_costs(p: &Problem) -> Problem {
    with_library(p, |library, imp| {
        let cost = 2.0 * imp.attrs.get(COST);
        library.add(imp.name.clone(), imp.ty, imp.attrs.clone().with(COST, cost));
    })
}

/// The metamorphic runs' optima, each mapped back to `p`'s.
fn metamorphic(p: &Problem) -> [(&'static str, Option<f64>); 3] {
    let complete = ExplorerConfig::complete();
    let twins = costlier_twins(p);
    let twin_optimum = match explore(&twins, &complete) {
        Ok(Exploration::Optimal { architecture, .. }) => {
            for (_, node) in architecture.graph().nodes() {
                let name = &twins.library.implementation(node.implementation).name;
                assert!(
                    !name.ends_with(TWIN),
                    "costlier twins: the optimum selects {name}"
                );
            }
            Some(architecture.cost())
        }
        other => verdict(other, "costlier twins"),
    };
    [
        (
            "relabelled",
            verdict(explore(&relabelled(p), &complete), "relabelled"),
        ),
        ("costlier twins", twin_optimum),
        (
            "doubled costs",
            verdict(explore(&doubled_costs(p), &complete), "doubled costs").map(|c| c / 2.0),
        ),
    ]
}

fn agree(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => (a - b).abs() <= 1e-9,
        (None, None) => true,
        _ => false,
    }
}

/// Run every problem of one template shape, at every slack, ten ways.
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
                ])
                .chain(metamorphic(&p));
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
