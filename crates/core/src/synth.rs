//! Synthetic problem generation: random layered templates, libraries, and
//! specs.
//!
//! The evaluation section of the paper uses two hand-built case studies;
//! this module provides the matching *workload generator* for stress
//! testing, fuzzing, and benchmarking beyond them — random problems with the
//! same structure (layered typed templates, cost/quality-tradeoff libraries,
//! flow + timing requirements) and tunable size.
//!
//! Generation is fully deterministic in the seed.

use crate::attr::{Attrs, COST, FLOW_CONS, FLOW_GEN, JITTER_OUT, LATENCY, THROUGHPUT};
use crate::library::Library;
use crate::problem::{FlowSpec, Problem, SystemSpec, TimingSpec};
use crate::template::{Template, TypeConfig};

/// Parameters of the random-problem generator.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// RNG seed; equal seeds give equal problems.
    pub seed: u64,
    /// Intermediate layers between source and sink (≥ 1).
    pub layers: usize,
    /// Candidate slots per intermediate layer (≥ 1).
    pub width: usize,
    /// Implementations per component type (≥ 1).
    pub impls_per_type: usize,
    /// Probability (0–1) of each cross-layer candidate edge beyond the
    /// guaranteed connectivity spine.
    pub edge_density: f64,
    /// How tight the latency budget is relative to the cheapest architecture
    /// (1.0 = the cheapest chain exactly fits; smaller forces upgrades).
    pub latency_slack: f64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            seed: 0,
            layers: 2,
            width: 2,
            impls_per_type: 3,
            edge_density: 0.5,
            latency_slack: 0.8,
        }
    }
}

/// A tiny deterministic RNG (xorshift*), so the generator needs no
/// dependencies and is stable across platforms.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(2685821657736338717).max(1))
    }
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(2685821657736338717)
    }
    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Generate a random exploration problem.
///
/// The template is a layered DAG: one source layer, `layers` intermediate
/// layers of `width` slots, one (required) sink layer. Libraries follow the
/// case studies' shape: within a type, cheaper implementations are slower
/// and less capable; the latency budget is set between the fastest and the
/// cheapest chain so the exploration has real work to do.
///
/// # Panics
///
/// Panics on zero `layers`, `width`, or `impls_per_type`.
#[must_use]
pub fn generate(config: &SynthConfig) -> Problem {
    assert!(config.layers >= 1 && config.width >= 1 && config.impls_per_type >= 1);
    let mut rng = Rng::new(config.seed ^ 0x5eed_cafe);
    let mut t = Template::new(format!("synth[{}]", config.seed));
    let mut lib = Library::new();

    // Types.
    let src_t = t.add_type("src", TypeConfig::source());
    let layer_types: Vec<_> = (0..config.layers)
        .map(|k| t.add_type(format!("layer{k}"), TypeConfig::bounded(4, 4)))
        .collect();
    let sink_t = t.add_type("sink", TypeConfig::sink());

    // Library: per layer type, impls ordered cheap-slow → expensive-fast.
    let demand = 5.0 + rng.unit() * 10.0;
    lib.add(
        "src",
        src_t,
        Attrs::new()
            .with(COST, 1.0 + rng.unit() * 3.0)
            .with(FLOW_GEN, demand * 3.0)
            .with(LATENCY, 1.0)
            .with(JITTER_OUT, rng.unit() * 0.3),
    );
    let mut cheapest_lat = 1.0; // source
    let mut fastest_lat = 1.0;
    for (k, &ty) in layer_types.iter().enumerate() {
        let base_cost = 1.0 + rng.unit() * 3.0;
        let base_lat = 4.0 + rng.unit() * 10.0;
        let mut layer_cheapest: f64 = f64::INFINITY;
        let mut layer_fastest: f64 = f64::INFINITY;
        let mut cheapest_cost = f64::INFINITY;
        for i in 0..config.impls_per_type {
            let f = i as f64 / config.impls_per_type.max(1) as f64;
            let cost = base_cost * (1.0 + 2.5 * f) + rng.unit();
            let lat = base_lat * (1.0 - 0.8 * f) + rng.unit();
            if cost < cheapest_cost {
                cheapest_cost = cost;
                layer_cheapest = lat;
            }
            layer_fastest = layer_fastest.min(lat);
            lib.add(
                format!("L{k}I{i}"),
                ty,
                Attrs::new()
                    .with(COST, cost)
                    .with(LATENCY, lat)
                    .with(THROUGHPUT, demand * (1.5 + 2.0 * f))
                    .with(JITTER_OUT, rng.unit() * 0.3),
            );
        }
        cheapest_lat += layer_cheapest;
        fastest_lat += layer_fastest;
    }
    lib.add(
        "sink",
        sink_t,
        Attrs::new()
            .with(COST, 1.0)
            .with(FLOW_CONS, demand)
            .with(THROUGHPUT, demand * 4.0)
            .with(LATENCY, 1.0)
            .with(JITTER_OUT, rng.unit() * 0.3),
    );
    cheapest_lat += 1.0;
    fastest_lat += 1.0;

    // Nodes and candidate edges: a guaranteed spine plus random density.
    let src = t.add_node("S", src_t);
    let mut prev = vec![src];
    for (k, &ty) in layer_types.iter().enumerate() {
        let slots: Vec<_> = (0..config.width)
            .map(|i| t.add_node(format!("N{k}_{i}"), ty))
            .collect();
        for (pi, &p) in prev.iter().enumerate() {
            for (si, &s) in slots.iter().enumerate() {
                // Spine: connect aligned slots (and everything from a single
                // predecessor) so a complete chain always exists.
                let spine = pi % slots.len() == si || prev.len() == 1;
                if spine || rng.unit() < config.edge_density {
                    t.add_candidate_edge(p, s);
                }
            }
        }
        prev = slots;
    }
    let sink = t.add_required_node("K", sink_t);
    for &p in &prev {
        t.add_candidate_edge(p, sink);
    }

    // Budget between the fastest and cheapest chains (plus jitter headroom).
    let jitter_headroom = 0.3 * (config.layers as f64 + 2.0);
    let max_latency = fastest_lat
        + (cheapest_lat - fastest_lat) * config.latency_slack.clamp(0.0, 2.0)
        + jitter_headroom;

    let spec = SystemSpec {
        flow: Some(FlowSpec {
            max_supply: demand * 4.0,
            max_consumption: demand * 2.0,
        }),
        timing: Some(TimingSpec {
            max_latency,
            max_input_jitter: 1.0,
            max_output_jitter: 1.0,
        }),
        flow_cap: demand * 10.0,
        horizon: 10_000.0,
    };
    Problem::new(t, lib, spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{explore, ExplorerConfig};

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&SynthConfig {
            seed: 7,
            ..SynthConfig::default()
        });
        let b = generate(&SynthConfig {
            seed: 7,
            ..SynthConfig::default()
        });
        assert_eq!(a, b);
        let c = generate(&SynthConfig {
            seed: 8,
            ..SynthConfig::default()
        });
        assert_ne!(a, c);
    }

    #[test]
    fn generated_problems_validate() {
        for seed in 0..20 {
            let p = generate(&SynthConfig {
                seed,
                ..SynthConfig::default()
            });
            assert!(p.validate().is_empty(), "seed {seed}: {:?}", p.validate());
        }
    }

    #[test]
    fn size_parameters_respected() {
        let p = generate(&SynthConfig {
            seed: 3,
            layers: 3,
            width: 2,
            impls_per_type: 4,
            ..SynthConfig::default()
        });
        // 1 source + 3 layers × 2 + 1 sink.
        assert_eq!(p.template.num_nodes(), 8);
        // 1 src + 3×4 layer impls + 1 sink.
        assert_eq!(p.library.len(), 14);
    }

    #[test]
    fn generated_problems_explore_to_completion() {
        for seed in 0..6 {
            let p = generate(&SynthConfig {
                seed,
                ..SynthConfig::default()
            });
            let r = explore(&p, &ExplorerConfig::complete())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            // Tight-but-not-impossible budgets: most seeds are feasible; all
            // must terminate cleanly either way.
            let _ = r.architecture();
        }
    }

    #[test]
    fn tighter_slack_costs_more() {
        let loose = generate(&SynthConfig {
            seed: 11,
            latency_slack: 1.5,
            ..SynthConfig::default()
        });
        let tight = generate(&SynthConfig {
            seed: 11,
            latency_slack: 0.1,
            ..SynthConfig::default()
        });
        let c_loose = explore(&loose, &ExplorerConfig::complete())
            .unwrap()
            .architecture()
            .map(|a| a.cost());
        let c_tight = explore(&tight, &ExplorerConfig::complete())
            .unwrap()
            .architecture()
            .map(|a| a.cost());
        if let (Some(l), Some(t)) = (c_loose, c_tight) {
            assert!(
                t >= l - 1e-9,
                "tight budget ({t}) cannot be cheaper than loose ({l})"
            );
        }
    }
}
