//! The four workloads: their problems, thread counts, and reference
//! verdicts.

use contrarc::baseline::solve_monolithic;
use contrarc::synth::{generate, SynthConfig};
use contrarc::{Exploration, ExplorerConfig, Problem};
use contrarc_systems::epn::{build as build_epn, EpnConfig};
use contrarc_systems::rpl::{build_parallel, RplConfig};

/// Names accepted by `--workload`, in reporting order.
pub const NAMES: [&str; 4] = ["sym-dive", "epn-loop", "synth-pop", "sym-dive-2t"];

/// `synth-pop` problems per seed. Nine strata (three template shapes times
/// three latency slacks) with 30 generated instances each; the population is
/// interleaved so every prefix covers the strata evenly.
pub const SYNTH_POPULATION: u64 = 270;
const SYNTH_SHAPES: [(usize, usize, usize); 3] = [(2, 2, 3), (3, 2, 3), (2, 3, 3)];
const SYNTH_SLACKS: [f64; 3] = [0.8, 0.9, 1.0];

/// Verdict of an exploration: the optimal cost, or `None` for infeasible.
pub type Verdict = Option<f64>;

/// One problem of a workload with the verdict it must reach.
pub struct Case {
    pub problem: Problem,
    pub reference: Verdict,
}

/// A workload: its problems, explored one at a time in order (cycling), each
/// with a fresh `Explorer` at `threads`.
pub struct Workload {
    pub name: &'static str,
    pub threads: usize,
    pub cases: Vec<Case>,
}

/// Build a workload's inputs. `seed` only shapes `synth-pop`; the other
/// workloads are fixed instances. Reference verdicts are computed here,
/// before any timing starts.
///
/// # Errors
///
/// Returns a message for an unknown name or a failing reference solve.
pub fn build(name: &str, seed: u64) -> Result<Workload, String> {
    let (name, threads, cases) = match name {
        "sym-dive" | "sym-dive-2t" => {
            let problem = build_parallel(&RplConfig::default(), 6);
            let threads = if name == "sym-dive" { 1 } else { 2 };
            let name = if threads == 1 { NAMES[0] } else { NAMES[3] };
            let case = Case {
                problem,
                reference: Some(96.0),
            };
            (name, threads, vec![case])
        }
        "epn-loop" => {
            let case = Case {
                problem: build_epn(&EpnConfig::default()),
                reference: Some(42.0),
            };
            (NAMES[1], 1, vec![case])
        }
        "synth-pop" => (NAMES[2], 1, synth_population(seed)?),
        other => {
            return Err(format!(
                "unknown workload '{other}' (expected one of {})",
                NAMES.join(", ")
            ))
        }
    };
    Ok(Workload {
        name,
        threads,
        cases,
    })
}

/// The seeded `synth-pop` population with each problem's reference verdict
/// from the monolithic baseline.
fn synth_population(seed: u64) -> Result<Vec<Case>, String> {
    (0..SYNTH_POPULATION)
        .map(|j| {
            let stratum = (j % 9) as usize;
            let (layers, width, impls_per_type) = SYNTH_SHAPES[stratum % 3];
            let problem = generate(&SynthConfig {
                seed: seed.wrapping_mul(SYNTH_POPULATION).wrapping_add(j),
                layers,
                width,
                impls_per_type,
                latency_slack: SYNTH_SLACKS[stratum / 3],
                ..SynthConfig::default()
            });
            let reference = match solve_monolithic(&problem, &config(1).solve_options) {
                Ok(Exploration::Optimal { architecture, .. }) => Some(architecture.cost()),
                Ok(Exploration::Infeasible { .. }) => None,
                Ok(Exploration::Partial { reason, .. }) => {
                    return Err(format!(
                        "synth problem {j}: baseline stopped early: {reason}"
                    ))
                }
                Err(e) => return Err(format!("synth problem {j}: baseline failed: {e}")),
            };
            Ok(Case { problem, reference })
        })
        .collect()
}

/// The exploration configuration every workload runs: the paper's complete
/// mode at `threads`.
pub fn config(threads: usize) -> ExplorerConfig {
    ExplorerConfig {
        threads,
        ..ExplorerConfig::complete()
    }
}

/// Whether `got` matches `reference`: same verdict, and an optimum within
/// 1e-9 of the reference cost.
pub fn matches(got: Verdict, reference: Verdict) -> bool {
    match (got, reference) {
        (Some(a), Some(b)) => (a - b).abs() <= 1e-9,
        (None, None) => true,
        _ => false,
    }
}
