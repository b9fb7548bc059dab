//! Template symmetry: automorphism orbits of the candidate-edge graph.
//!
//! CPS templates are full of interchangeable slots (parallel production
//! lines, redundant generators), so both the VF2 matcher and the MILP
//! re-derive the same facts once per slot permutation. This module computes
//! the template's automorphism structure once, with the
//! individualization–refinement search of `contrarc_graph::automorphisms`,
//! at two label strengths:
//!
//! * [`matcher_automorphisms`] labels slots by component *type* only,
//!   exactly the compatibility predicate certificate generation matches
//!   under. Its orbits drive the orbit-pruned VF2 mode
//!   (`subgraph_isomorphisms_orbits`), and its generators expand each
//!   representative cut back into the full symmetric family.
//! * [`encoding_automorphisms`] additionally labels slots by their
//!   `required` flag and cost weight `α`, so a permutation maps every
//!   Problem-2 solution to an equal-cost solution satisfying the same rows.
//!   Its orbits justify the lexicographic symmetry-breaking constraints in
//!   the encoding (see `encode`).

use crate::problem::Problem;
use contrarc_graph::{automorphisms, Automorphisms, DiGraph};

/// Toggles for symmetry-aware exploration. Both default **on**; turning a
/// knob off reproduces the pre-symmetry behaviour of that layer exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymmetryConfig {
    /// Orbit-pruned VF2 in certificate generation: enumerate one embedding
    /// per target-automorphism orbit and expand the cut across the orbit
    /// (same cut set, far fewer searches). Only effective together with
    /// `iso_pruning`.
    pub orbit_pruning: bool,
    /// Orbit-based lexicographic symmetry-breaking rows in the Problem-2
    /// MILP, so branch-and-bound never proves optimality twice across a
    /// slot permutation.
    pub milp_rows: bool,
}

impl Default for SymmetryConfig {
    fn default() -> Self {
        SymmetryConfig {
            orbit_pruning: true,
            milp_rows: true,
        }
    }
}

impl SymmetryConfig {
    /// Everything off — the pre-symmetry behaviour.
    #[must_use]
    pub fn off() -> Self {
        SymmetryConfig {
            orbit_pruning: false,
            milp_rows: false,
        }
    }
}

/// Automorphisms of the template candidate graph under the **type-only**
/// labeling — the exact compatibility (`TypeId` equality) that certificate
/// VF2 matches under, which is what makes orbit expansion reproduce the full
/// embedding set.
#[must_use]
pub fn matcher_automorphisms(problem: &Problem) -> Automorphisms {
    let t = &problem.template;
    let mut g: DiGraph<u32, ()> = DiGraph::new();
    for n in t.node_ids() {
        g.add_node(t.node(n).ty.index() as u32);
    }
    for (_, a, b) in t.candidate_edges() {
        g.add_edge(a, b, ());
    }
    automorphisms(&g, |ty| ty.to_le_bytes().to_vec())
}

/// Automorphisms of the template candidate graph under the **encoding**
/// labeling `(type, required, cost weight)`. A permutation in this group
/// maps any Problem-2 solution to an equal-cost solution (same impl menus,
/// fan bounds, flow/timing attributes, objective coefficients, and required
/// rows), so ordering instantiation indicators along its orbits never cuts
/// off the optimum's whole equivalence class.
#[must_use]
pub fn encoding_automorphisms(problem: &Problem) -> Automorphisms {
    let t = &problem.template;
    let mut g: DiGraph<Vec<u8>, ()> = DiGraph::new();
    for n in t.node_ids() {
        let info = t.node(n);
        let mut label = Vec::with_capacity(13);
        label.extend_from_slice(&(info.ty.index() as u32).to_le_bytes());
        label.push(u8::from(info.required));
        label.extend_from_slice(&info.weight.to_bits().to_le_bytes());
        g.add_node(label);
    }
    for (_, a, b) in t.candidate_edges() {
        g.add_edge(a, b, ());
    }
    automorphisms(&g, Clone::clone)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{Attrs, COST, FLOW_CONS, FLOW_GEN, LATENCY, THROUGHPUT};
    use crate::problem::{FlowSpec, SystemSpec, TimingSpec};
    use crate::template::{Template, TypeConfig};
    use crate::Library;

    /// `k` identical parallel S→M→K lines.
    fn parallel_lines(k: usize) -> Problem {
        let mut t = Template::new("lines");
        let src_t = t.add_type("src", TypeConfig::source());
        let mach_t = t.add_type("mach", TypeConfig::bounded(2, 2));
        let sink_t = t.add_type("sink", TypeConfig::sink());
        for i in 0..k {
            let s = t.add_node(format!("S{i}"), src_t);
            let m = t.add_node(format!("M{i}"), mach_t);
            let sk = t.add_required_node(format!("K{i}"), sink_t);
            t.add_candidate_edge(s, m);
            t.add_candidate_edge(m, sk);
        }
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
            "M",
            mach_t,
            Attrs::new()
                .with(COST, 2.0)
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
        Problem::new(t, lib, spec)
    }

    #[test]
    fn parallel_lines_have_line_swap_symmetry() {
        let p = parallel_lines(3);
        let a = matcher_automorphisms(&p);
        assert!(!a.is_trivial());
        // 9 slots fold into 3 orbits (one per layer).
        assert_eq!(a.num_nodes(), 9);
        assert_eq!(a.num_orbits(), 3);
        let e = encoding_automorphisms(&p);
        assert_eq!(e.num_orbits(), 3, "uniform weights keep the symmetry");
    }

    #[test]
    fn distinct_weights_break_encoding_symmetry_only() {
        let mut p = parallel_lines(2);
        // Skew one machine slot's cost weight: the matcher (type-only) still
        // sees the symmetry, the encoding must not.
        let m0 = p
            .template
            .node_ids()
            .find(|&n| p.template.node(n).name == "M0")
            .unwrap();
        p.template.set_weight(m0, 2.0);
        let matcher = matcher_automorphisms(&p);
        assert!(!matcher.is_trivial());
        let enc = encoding_automorphisms(&p);
        let m1 = p
            .template
            .node_ids()
            .find(|&n| p.template.node(n).name == "M1")
            .unwrap();
        assert_ne!(
            enc.orbit_rep(m0.index()),
            enc.orbit_rep(m1.index()),
            "weighted slots must not share an encoding orbit"
        );
    }

    #[test]
    fn single_line_is_asymmetric() {
        let p = parallel_lines(1);
        assert!(matcher_automorphisms(&p).is_trivial());
        assert!(encoding_automorphisms(&p).is_trivial());
    }

    #[test]
    fn config_defaults_on() {
        let c = SymmetryConfig::default();
        assert!(c.orbit_pruning && c.milp_rows);
        let off = SymmetryConfig::off();
        assert!(!off.orbit_pruning && !off.milp_rows);
    }
}
