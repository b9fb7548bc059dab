//! Problem 4 / Algorithm 2: subgraph-isomorphism-based certificate
//! generation.
//!
//! Given an invalid sub-architecture `𝒢_map` (a path, or the whole candidate)
//! and the violated viewpoint `d_v`, this module
//!
//! 1. detaches the implementation nodes, leaving a typed pattern graph `𝒢`;
//! 2. enumerates every subgraph-isomorphic embedding of `𝒢` in the template
//!    `𝒯` (type-compatible monomorphisms) — or just the identity embedding
//!    when isomorphism pruning is disabled;
//! 3. widens the implicated implementations to the *dominated* set `ℒ_g⁺`:
//!    implementations at least as bad as the selected ones with respect to
//!    `d_v`;
//! 4. adds one cut per embedding forbidding that shape/implementation
//!    combination (strict form for paths, boundary-edge disjunctive form for
//!    whole-architecture violations, per lines 11–15 of Algorithm 2).

use crate::attr;
use crate::candidate::Architecture;
use crate::encode::Encoding;
use crate::library::ImplId;
use crate::problem::Problem;
use crate::refinement::{Violation, ViolationScope};
use crate::template::TypeId;
use crate::viewpoint::Viewpoint;
use contrarc_graph::iso::{subgraph_isomorphisms, subgraph_isomorphisms_orbits, Embedding};
use contrarc_graph::{Automorphisms, DiGraph, NodeId};
use contrarc_milp::{Cmp, LinExpr, SolveError, VarId};
use std::collections::BTreeSet;

/// Whether `other` is at-least-as-bad as `chosen` for the violated
/// viewpoint — i.e. swapping `chosen` for `other` provably preserves the
/// violation (`ImplementationSearch` in Algorithm 2).
#[must_use]
pub fn dominates_violation(
    problem: &Problem,
    viewpoint: Viewpoint,
    chosen: ImplId,
    other: ImplId,
) -> bool {
    let lib = &problem.library;
    if lib.implementation(chosen).ty != lib.implementation(other).ty {
        return false;
    }
    match viewpoint {
        // Timing violations worsen with more latency, more output jitter, or
        // stricter input-jitter assumptions.
        Viewpoint::Timing => {
            lib.attr(other, attr::LATENCY) >= lib.attr(chosen, attr::LATENCY)
                && lib.attr(other, attr::JITTER_OUT) >= lib.attr(chosen, attr::JITTER_OUT)
                && lib.attr(other, attr::JITTER_IN) <= lib.attr(chosen, attr::JITTER_IN)
        }
        // Flow violations (the supply/consumption bounds of `C_s^F`) depend
        // only on the generated and consumed totals. Throughput is
        // irrelevant here: every candidate the MILP can produce already has
        // feasible flows under its throughputs (Problem 2 enforces them), so
        // any swap keeping gen/cons at least as large preserves the
        // violation. Components with equal gen/cons (e.g. buses) are thus
        // fully interchangeable inside a flow cut, which is exactly what
        // stops candidates from dodging cuts via irrelevant swaps.
        Viewpoint::Flow => {
            lib.attr(other, attr::FLOW_GEN) >= lib.attr(chosen, attr::FLOW_GEN)
                && lib.attr(other, attr::FLOW_CONS) >= lib.attr(chosen, attr::FLOW_CONS)
        }
        // Structural violations cannot occur post-MILP; only the identity is
        // "dominated".
        Viewpoint::Interconnection => chosen == other,
    }
}

/// Certificate-generation options (the ablation knobs of the exploration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CutConfig {
    /// Generalize each cut to every subgraph-isomorphic embedding of the
    /// invalid sub-architecture (Algorithm 2 proper). When off, only the
    /// identity embedding is cut.
    pub iso_pruning: bool,
    /// Widen the implicated implementations to the dominated set `ℒ_g⁺`.
    /// When off, cuts mention only the exact implementations of the invalid
    /// candidate (a weaker, but still sound, no-good).
    pub dominance_widening: bool,
    /// Ignored: embeddings are enumerated on one thread. Kept only because
    /// the exploration benchmark still sets it; it will be removed, together
    /// with `contrarc-par`, in the next change to the benchmark.
    pub threads: usize,
}

impl Default for CutConfig {
    fn default() -> Self {
        CutConfig {
            iso_pruning: true,
            dominance_widening: true,
            threads: 1,
        }
    }
}

/// Generate and add the certificate cuts for a violation to the Problem-2
/// MILP. Returns the number of cuts added (always ≥ 1: the current candidate
/// itself is excluded, which guarantees loop progress).
///
/// `sym`, when present, carries the template's type-labeled automorphism
/// group: embedding enumeration then runs in orbit-pruned mode (one VF2
/// search per root orbit) and each representative embedding is expanded
/// across the orbit under the group generators. The resulting embedding
/// *set* — and therefore the cut set, after dedup — is identical to a full
/// enumeration; only the work to produce it shrinks. The group must have
/// been computed over a graph with the same node order as the template.
///
/// `cut_seq` is a caller-owned counter used to keep generated constraint
/// names unique across iterations.
///
/// # Errors
///
/// Propagates model-building errors from the MILP layer.
pub fn apply_cuts(
    problem: &Problem,
    enc: &mut Encoding,
    arch: &Architecture,
    violation: &Violation,
    config: &CutConfig,
    sym: Option<&Automorphisms>,
    cut_seq: &mut u32,
) -> Result<usize, SolveError> {
    let iso_pruning = config.iso_pruning;
    let t = &problem.template;
    let scope_kind = match &violation.scope {
        ViolationScope::Path(_) => "path",
        ViolationScope::Whole => "whole",
    };
    let scope_size = match &violation.scope {
        ViolationScope::Path(nodes) => nodes.len(),
        ViolationScope::Whole => arch.graph().num_nodes(),
    };
    let mut cert_span = contrarc_obs::span!(
        "cert.scope",
        kind = scope_kind,
        viewpoint = format!("{}", violation.viewpoint),
        pattern_nodes = scope_size,
    );
    contrarc_obs::metrics::counter_add("cert.scopes", 1);

    // --- pattern graph 𝒢 (implementation nodes detached) --------------------
    // Pattern nodes carry their type; `scope_arch_nodes[i]` is the
    // architecture node behind pattern node i.
    let (pattern, scope_arch_nodes): (DiGraph<TypeId, ()>, Vec<NodeId>) = match &violation.scope {
        ViolationScope::Path(nodes) => {
            let mut g = DiGraph::new();
            let ids: Vec<NodeId> = nodes
                .iter()
                .map(|&n| g.add_node(arch.graph().node_weight(n).ty))
                .collect();
            for w in ids.windows(2) {
                g.add_edge(w[0], w[1], ());
            }
            (g, nodes.clone())
        }
        ViolationScope::Whole => {
            let mut g = DiGraph::new();
            let arch_nodes: Vec<NodeId> = arch.graph().node_ids().collect();
            let ids: Vec<NodeId> = arch_nodes
                .iter()
                .map(|&n| g.add_node(arch.graph().node_weight(n).ty))
                .collect();
            for e in arch.graph().edges() {
                g.add_edge(ids[e.src.index()], ids[e.dst.index()], ());
            }
            (g, arch_nodes)
        }
    };

    // --- target graph 𝒯 (typed template) -------------------------------------
    let mut target: DiGraph<TypeId, ()> = DiGraph::new();
    for n in t.node_ids() {
        let _ = n;
        target.add_node(t.node(n).ty);
    }
    for (_, a, b) in t.candidate_edges() {
        target.add_edge(a, b, ());
    }

    // --- embeddings ------------------------------------------------------------
    let embeddings: Vec<Embedding> = if iso_pruning {
        match sym {
            Some(aut) if !aut.is_trivial() => {
                let found = subgraph_isomorphisms_orbits(&pattern, &target, aut, |a, b| a == b);
                contrarc_obs::metrics::counter_add("sym.orbits", found.orbits.len() as u64);
                contrarc_obs::metrics::counter_add("sym.embeddings_enumerated", found.enumerated);
                contrarc_obs::metrics::counter_add("sym.embeddings_total", found.total() as u64);
                found.into_embeddings()
            }
            _ => subgraph_isomorphisms(&pattern, &target, |a, b| a == b),
        }
    } else {
        // Identity embedding: each pattern node to its own template node.
        vec![Embedding::from_mapping(
            scope_arch_nodes
                .iter()
                .map(|&n| arch.graph().node_weight(n).template_node)
                .collect(),
        )]
    };

    // --- dominated implementation sets ℒ_g⁺ ------------------------------------
    let dominated: Vec<Vec<ImplId>> = scope_arch_nodes
        .iter()
        .map(|&n| {
            let w = arch.graph().node_weight(n);
            if !config.dominance_widening {
                return vec![w.implementation];
            }
            problem
                .library
                .impls_of_type(w.ty)
                .iter()
                .copied()
                .filter(|&x| dominates_violation(problem, violation.viewpoint, w.implementation, x))
                .collect()
        })
        .collect();

    // --- cuts -------------------------------------------------------------------
    let mut seen: BTreeSet<Vec<u32>> = BTreeSet::new();
    let mut added = 0usize;
    for emb in &embeddings {
        // Collect the e and m variables of this embedding.
        let mut edge_vars: Vec<VarId> = Vec::with_capacity(pattern.num_edges());
        for pe in pattern.edges() {
            let src = emb.target(pe.src);
            let dst = emb.target(pe.dst);
            let te = t
                .graph()
                .find_edge(src, dst)
                .expect("monomorphism maps pattern edges onto template edges");
            edge_vars.push(enc.edge_vars[te.index()]);
        }
        let mut map_vars: Vec<VarId> = Vec::new();
        for (pi, dom) in dominated.iter().enumerate() {
            let tmpl_node = emb.target(NodeId::from_index(pi));
            for &x in dom {
                if let Some(v) = enc.map_var(tmpl_node, x) {
                    map_vars.push(v);
                }
            }
        }

        // Canonical dedup key.
        let mut key: Vec<u32> = edge_vars
            .iter()
            .chain(map_vars.iter())
            .map(|v| u32::try_from(v.index()).expect("var index fits in u32"))
            .collect();
        key.sort_unstable();
        if !seen.insert(key) {
            continue;
        }

        let n_e = edge_vars.len() as f64;
        let n_v = pattern.num_nodes() as f64;
        let lhs_core =
            LinExpr::sum(edge_vars.iter().copied()) + LinExpr::sum(map_vars.iter().copied());

        match &violation.scope {
            ViolationScope::Path(_) => {
                // Line 12: Σe + Σm < |E| + |V|.
                enc.model.add_constr(
                    format!("cut{}[path]", *cut_seq),
                    lhs_core,
                    Cmp::Le,
                    n_e + n_v - 1.0,
                )?;
                *cut_seq += 1;
                added += 1;
            }
            ViolationScope::Whole => {
                // Lines 14–15: allow the shape if extra boundary edges join
                // it; otherwise forbid the shape+implementations combo.
                let mapped: BTreeSet<NodeId> = (0..pattern.num_nodes())
                    .map(|i| emb.target(NodeId::from_index(i)))
                    .collect();
                let image_edges: BTreeSet<VarId> = edge_vars.iter().copied().collect();
                let mut boundary: Vec<VarId> = Vec::new();
                for (te, a, b) in t.candidate_edges() {
                    let v = enc.edge_vars[te.index()];
                    if image_edges.contains(&v) {
                        continue;
                    }
                    if mapped.contains(&a) || mapped.contains(&b) {
                        boundary.push(v);
                    }
                }
                let y = enc.model.add_binary(format!("cut{}[y]", *cut_seq));
                // y = 1 ⇒ all pattern edges plus ≥1 boundary edge selected.
                let c1 = LinExpr::sum(edge_vars.iter().copied())
                    + LinExpr::sum(boundary.iter().copied())
                    - LinExpr::term(y, n_e + 1.0);
                enc.model
                    .add_constr(format!("cut{}[grow]", *cut_seq), c1, Cmp::Ge, 0.0)?;
                // y = 0 ⇒ the shape+implementations combo is excluded.
                let c2 = lhs_core - LinExpr::var(y);
                enc.model.add_constr(
                    format!("cut{}[block]", *cut_seq),
                    c2,
                    Cmp::Le,
                    n_e + n_v - 1.0,
                )?;
                *cut_seq += 1;
                added += 1;
            }
        }
    }
    cert_span.record("embeddings", embeddings.len());
    cert_span.record("cuts", added);
    contrarc_obs::metrics::counter_add("cert.embeddings", embeddings.len() as u64);
    Ok(added)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{Attrs, COST, FLOW_CONS, FLOW_GEN, LATENCY, THROUGHPUT};
    use crate::encode::encode_problem2;
    use crate::problem::{FlowSpec, SystemSpec, TimingSpec};
    use crate::template::{Template, TypeConfig};
    use crate::Library;
    use contrarc_milp::SolveOptions;

    /// Two identical parallel lines so paths are isomorphic.
    fn two_lines() -> Problem {
        let mut t = Template::new("two");
        let src_t = t.add_type("src", TypeConfig::source());
        let mach_t = t.add_type("mach", TypeConfig::bounded(2, 2));
        let sink_t = t.add_type("sink", TypeConfig::sink());
        for side in ["A", "B"] {
            let s = t.add_node(format!("S{side}"), src_t);
            let m = t.add_node(format!("M{side}"), mach_t);
            let k = t.add_required_node(format!("K{side}"), sink_t);
            t.add_candidate_edge(s, m);
            t.add_candidate_edge(m, k);
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
            "M_slow",
            mach_t,
            Attrs::new()
                .with(COST, 1.0)
                .with(THROUGHPUT, 20.0)
                .with(LATENCY, 30.0),
        );
        lib.add(
            "M_fast",
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
        Problem::new(t, lib, spec)
    }

    fn first_candidate(p: &Problem) -> (Encoding, Architecture) {
        let enc = encode_problem2(p).unwrap();
        let sol = enc
            .model
            .solve(&SolveOptions::default())
            .unwrap()
            .expect_optimal()
            .unwrap();
        let arch = Architecture::decode(p, &enc, &sol);
        (enc, arch)
    }

    fn path_violation(p: &Problem, arch: &Architecture) -> Violation {
        // The A-side path S->M->K as architecture node ids.
        let nodes: Vec<NodeId> = arch
            .graph()
            .node_ids()
            .filter(|&n| arch.graph().node_weight(n).name.ends_with('A'))
            .collect();
        assert_eq!(nodes.len(), 3);
        let _ = p;
        Violation {
            viewpoint: Viewpoint::Timing,
            scope: ViolationScope::Path(nodes),
        }
    }

    #[test]
    fn dominance_timing_direction() {
        let p = two_lines();
        let mach_t = p.template.type_by_name("mach").unwrap();
        let impls = p.library.impls_of_type(mach_t);
        let (slow, fast) = (impls[0], impls[1]);
        // Fast chosen: slow dominates (worse), fast dominates itself.
        assert!(dominates_violation(&p, Viewpoint::Timing, fast, slow));
        assert!(dominates_violation(&p, Viewpoint::Timing, fast, fast));
        // Slow chosen: fast is better, not dominated.
        assert!(!dominates_violation(&p, Viewpoint::Timing, slow, fast));
        // Cross-type never dominates.
        let src_t = p.template.type_by_name("src").unwrap();
        let s = p.library.impls_of_type(src_t)[0];
        assert!(!dominates_violation(&p, Viewpoint::Timing, fast, s));
    }

    #[test]
    fn iso_pruning_cuts_both_isomorphic_paths() {
        let p = two_lines();
        let (mut enc, arch) = first_candidate(&p);
        let violation = path_violation(&p, &arch);
        let before = enc.model.num_constrs();
        let mut seq = 0;
        let added = apply_cuts(
            &p,
            &mut enc,
            &arch,
            &violation,
            &CutConfig::default(),
            None,
            &mut seq,
        )
        .unwrap();
        // Two isomorphic embeddings (line A and line B) → two distinct cuts.
        assert_eq!(added, 2, "expected cuts for both isomorphic paths");
        assert_eq!(enc.model.num_constrs(), before + 2);
    }

    #[test]
    fn no_iso_cuts_only_identity() {
        let p = two_lines();
        let (mut enc, arch) = first_candidate(&p);
        let violation = path_violation(&p, &arch);
        let mut seq = 0;
        let added = apply_cuts(
            &p,
            &mut enc,
            &arch,
            &violation,
            &CutConfig {
                iso_pruning: false,
                ..CutConfig::default()
            },
            None,
            &mut seq,
        )
        .unwrap();
        assert_eq!(added, 1);
    }

    #[test]
    fn cut_excludes_current_candidate() {
        let p = two_lines();
        let (mut enc, arch) = first_candidate(&p);
        // Slow machines are cheapest, so the first candidate picks them.
        let mach_t = p.template.type_by_name("mach").unwrap();
        let slow = p.library.impls_of_type(mach_t)[0];
        for n in arch.graph().node_ids() {
            let w = arch.graph().node_weight(n);
            if w.ty == mach_t {
                assert_eq!(w.implementation, slow);
            }
        }
        let violation = path_violation(&p, &arch);
        let mut seq = 0;
        apply_cuts(
            &p,
            &mut enc,
            &arch,
            &violation,
            &CutConfig::default(),
            None,
            &mut seq,
        )
        .unwrap();
        // Re-solve: the new optimum must differ (fast machine on cut paths).
        let sol2 = enc
            .model
            .solve(&SolveOptions::default())
            .unwrap()
            .expect_optimal()
            .unwrap();
        let arch2 = Architecture::decode(&p, &enc, &sol2);
        let fast = p.library.impls_of_type(mach_t)[1];
        let n_fast = arch2
            .graph()
            .nodes()
            .filter(|(_, w)| w.implementation == fast)
            .count();
        assert!(
            n_fast >= 2,
            "both machine slots must upgrade after iso cuts, got {n_fast}"
        );
    }

    #[test]
    fn whole_scope_generates_disjunctive_cut() {
        let p = two_lines();
        let (mut enc, arch) = first_candidate(&p);
        let violation = Violation {
            viewpoint: Viewpoint::Flow,
            scope: ViolationScope::Whole,
        };
        let before_vars = enc.model.num_vars();
        let mut seq = 0;
        let added = apply_cuts(
            &p,
            &mut enc,
            &arch,
            &violation,
            &CutConfig::default(),
            None,
            &mut seq,
        )
        .unwrap();
        assert!(added >= 1);
        // Disjunctive cuts add an auxiliary binary each.
        assert_eq!(enc.model.num_vars(), before_vars + added);
        // Current candidate excluded: re-solving gives a different selection
        // or infeasible.
        let out = enc.model.solve(&SolveOptions::default()).unwrap();
        if let Some(sol2) = out.solution() {
            let arch2 = Architecture::decode(&p, &enc, sol2);
            assert_ne!(
                (arch2.cost() * 1000.0).round(),
                (arch.cost() * 1000.0).round(),
                "candidate must change after a whole-architecture cut (no boundary growth possible here)"
            );
        }
    }

    #[test]
    fn orbit_expansion_matches_full_enumeration() {
        let p = two_lines();
        let violation_of = |arch: &Architecture| path_violation(&p, arch);

        let (mut enc_full, arch) = first_candidate(&p);
        let mut seq_full = 0;
        let added_full = apply_cuts(
            &p,
            &mut enc_full,
            &arch,
            &violation_of(&arch),
            &CutConfig::default(),
            None,
            &mut seq_full,
        )
        .unwrap();

        let aut = crate::sym::matcher_automorphisms(&p);
        assert!(!aut.is_trivial(), "two identical lines must be symmetric");
        let (mut enc_sym, arch2) = first_candidate(&p);
        let mut seq_sym = 0;
        let added_sym = apply_cuts(
            &p,
            &mut enc_sym,
            &arch2,
            &violation_of(&arch2),
            &CutConfig::default(),
            Some(&aut),
            &mut seq_sym,
        )
        .unwrap();

        // One VF2 search per root orbit, but the expanded cut set is the
        // full symmetric family: both lines get cut either way.
        assert_eq!(added_sym, added_full);
        assert_eq!(enc_sym.model.num_constrs(), enc_full.model.num_constrs());
    }

    #[test]
    fn cut_seq_keeps_names_unique() {
        let p = two_lines();
        let (mut enc, arch) = first_candidate(&p);
        let violation = path_violation(&p, &arch);
        let mut seq = 0;
        apply_cuts(
            &p,
            &mut enc,
            &arch,
            &violation,
            &CutConfig::default(),
            None,
            &mut seq,
        )
        .unwrap();
        let seq_after_first = seq;
        apply_cuts(
            &p,
            &mut enc,
            &arch,
            &violation,
            &CutConfig::default(),
            None,
            &mut seq,
        )
        .unwrap();
        assert!(seq > seq_after_first);
    }
}
