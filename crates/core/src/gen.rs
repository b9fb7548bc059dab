//! Section III contract generators, instantiated over a *candidate*
//! architecture.
//!
//! Problem 3 checks system-level contracts against the composition of
//! component-level contracts. At that point the topology and implementation
//! mapping are fixed, so attributes are constants and the remaining free
//! behaviour is the event times (timing viewpoint) or edge flows (flow
//! viewpoint). This module builds, for a scope (a path or the whole
//! architecture):
//!
//! * a [`Vocabulary`] of the scope's behavioural variables,
//! * one component contract per scoped node, and
//! * the system-level contract for the viewpoint.

use crate::attr;
use crate::candidate::Architecture;
use crate::problem::Problem;
use contrarc_contracts::{Contract, Pred, Vocabulary};
use contrarc_graph::NodeId;
use contrarc_milp::{LinExpr, VarId};
use std::collections::BTreeMap;

/// A ready-to-check refinement instance: component contracts plus the system
/// contract they must jointly refine, over a shared vocabulary.
#[derive(Debug, Clone)]
pub struct CheckModel {
    /// Behavioural variable space of the scope.
    pub vocabulary: Vocabulary,
    /// One contract per scoped component, in scope order.
    pub component_contracts: Vec<Contract>,
    /// The system-level contract `C_s^d`.
    pub system_contract: Contract,
}

/// Identifier of an event edge in the timing model: boundary edges carry the
/// system's input/output events, internal edges the component handoffs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventEdge {
    /// Into a scoped source node.
    BoundaryIn(NodeId),
    /// Between two scoped nodes (architecture edge `src → dst` identified by
    /// its endpoint pair; candidate graphs are simple).
    Internal(NodeId, NodeId),
    /// Out of a scoped sink node.
    BoundaryOut(NodeId),
}

/// Build the timing-viewpoint check model (`C_i^T ⪯ C_s^T`) for a scope.
///
/// `scope_nodes` lists architecture node ids; `scope_edges` the architecture
/// edges among them (for a path: the consecutive pairs). `entries`/`exits`
/// are the scope's source-role and sink-role nodes (for a path: its first and
/// last node).
///
/// # Panics
///
/// Panics if the problem has no timing spec, or a scoped edge references a
/// node outside the scope.
#[must_use]
pub fn build_timing_model(
    problem: &Problem,
    arch: &Architecture,
    scope_nodes: &[NodeId],
    scope_edges: &[(NodeId, NodeId)],
    entries: &[NodeId],
    exits: &[NodeId],
) -> CheckModel {
    let spec = problem
        .spec
        .timing
        .expect("timing spec required for timing model");
    let lib = &problem.library;

    // Local horizon: generous enough that every worst-case violation is
    // expressible inside the variable bounds (soundness of the UNSAT answer).
    let mut horizon = spec.max_latency + spec.max_input_jitter + spec.max_output_jitter + 10.0;
    for &n in scope_nodes {
        let imp = arch.graph().node_weight(n).implementation;
        horizon += lib.attr(imp, attr::LATENCY);
        let jout = lib.attr(imp, attr::JITTER_OUT);
        if jout.is_finite() {
            horizon += jout;
        }
    }

    // Event edges: boundary-in per entry, internal edges, boundary-out per exit.
    let mut voc = Vocabulary::new();
    let mut times: BTreeMap<EventEdge, (VarId, VarId)> = BTreeMap::new();
    let mut declare = |voc: &mut Vocabulary, key: EventEdge, label: String| {
        let tau = voc.add_continuous(format!("tau[{label}]"), 0.0, horizon);
        let t = voc.add_continuous(format!("t[{label}]"), 0.0, horizon);
        times.insert(key, (tau, t));
    };
    for &n in entries {
        declare(
            &mut voc,
            EventEdge::BoundaryIn(n),
            format!("in:{}", n.index()),
        );
    }
    for &(a, b) in scope_edges {
        declare(
            &mut voc,
            EventEdge::Internal(a, b),
            format!("{}-{}", a.index(), b.index()),
        );
    }
    for &n in exits {
        declare(
            &mut voc,
            EventEdge::BoundaryOut(n),
            format!("out:{}", n.index()),
        );
    }

    // Component contracts.
    let mut component_contracts = Vec::with_capacity(scope_nodes.len());
    for &n in scope_nodes {
        let w = arch.graph().node_weight(n);
        let imp = w.implementation;
        let jin = lib.attr(imp, attr::JITTER_IN);
        let jout = lib.attr(imp, attr::JITTER_OUT);
        let lat = lib.attr(imp, attr::LATENCY);

        let mut inputs: Vec<(VarId, VarId)> = Vec::new();
        let mut outputs: Vec<(VarId, VarId)> = Vec::new();
        if entries.contains(&n) {
            inputs.push(times[&EventEdge::BoundaryIn(n)]);
        }
        if exits.contains(&n) {
            outputs.push(times[&EventEdge::BoundaryOut(n)]);
        }
        for &(a, b) in scope_edges {
            if b == n {
                inputs.push(times[&EventEdge::Internal(a, b)]);
            }
            if a == n {
                outputs.push(times[&EventEdge::Internal(a, b)]);
            }
        }

        let mut a_pred = Pred::True;
        if jin.is_finite() {
            for &(tau, t) in &inputs {
                a_pred = a_pred.and(Pred::abs_le(LinExpr::var(t) - LinExpr::var(tau), 0.0, jin));
            }
        }
        let mut g_pred = Pred::True;
        if jout.is_finite() {
            for &(tau, t) in &outputs {
                g_pred = g_pred.and(Pred::abs_le(LinExpr::var(t) - LinExpr::var(tau), 0.0, jout));
            }
        }
        for &(_, t_in) in &inputs {
            for &(tau_out, _) in &outputs {
                g_pred = g_pred.and(Pred::le(LinExpr::var(tau_out) - LinExpr::var(t_in), lat));
            }
        }
        component_contracts.push(Contract::new(format!("T[{}]", w.name), a_pred, g_pred));
    }

    // System contract C_s^T.
    let mut a_s = Pred::True;
    for &n in entries {
        let (tau, t) = times[&EventEdge::BoundaryIn(n)];
        a_s = a_s.and(Pred::abs_le(
            LinExpr::var(t) - LinExpr::var(tau),
            0.0,
            spec.max_input_jitter,
        ));
    }
    // End-to-end latency is only meaningful between *connected* pairs: the
    // events of unrelated source/sink lines share no causality, so `L_s^{a,b}`
    // is defined for reachable pairs only.
    let reachable = |from: NodeId, to: NodeId| -> bool {
        let mut seen = vec![from];
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            for &(a, b) in scope_edges {
                if a == n && !seen.contains(&b) {
                    seen.push(b);
                    stack.push(b);
                }
            }
        }
        false
    };
    let mut g_s = Pred::True;
    for &n in exits {
        let (tau_out, t_out) = times[&EventEdge::BoundaryOut(n)];
        g_s = g_s.and(Pred::abs_le(
            LinExpr::var(t_out) - LinExpr::var(tau_out),
            0.0,
            spec.max_output_jitter,
        ));
        for &m in entries {
            if !reachable(m, n) {
                continue;
            }
            let (_, t_in) = times[&EventEdge::BoundaryIn(m)];
            g_s = g_s.and(Pred::le(
                LinExpr::var(tau_out) - LinExpr::var(t_in),
                spec.max_latency,
            ));
        }
    }
    let system_contract = Contract::new("C_s^T", a_s, g_s);

    CheckModel {
        vocabulary: voc,
        component_contracts,
        system_contract,
    }
}

/// Build the flow-viewpoint check model (`C_i^F ⪯ C_s^F`) over the whole
/// candidate architecture.
///
/// # Panics
///
/// Panics if the problem has no flow spec.
#[must_use]
pub fn build_flow_model(problem: &Problem, arch: &Architecture) -> CheckModel {
    let spec = problem
        .spec
        .flow
        .expect("flow spec required for flow model");
    let lib = &problem.library;
    let cap = problem.spec.flow_cap;

    let mut voc = Vocabulary::new();
    // One flow variable per selected edge, keyed by endpoint pair.
    let mut fvar: BTreeMap<(NodeId, NodeId), VarId> = BTreeMap::new();
    for e in arch.graph().edges() {
        let v = voc.add_continuous(format!("f[{}-{}]", e.src.index(), e.dst.index()), 0.0, cap);
        fvar.insert((e.src, e.dst), v);
    }

    let mut component_contracts = Vec::new();
    let mut all_throughput_assumptions = Pred::True;
    for (n, w) in arch.graph().nodes() {
        let imp = w.implementation;
        let thr = lib.attr(imp, attr::THROUGHPUT);
        let gen = lib.attr(imp, attr::FLOW_GEN);
        let cons = lib.attr(imp, attr::FLOW_CONS);

        let in_flow: LinExpr =
            LinExpr::sum(arch.graph().in_edges(n).map(|e| fvar[&(e.src, e.dst)]));
        let out_flow: LinExpr =
            LinExpr::sum(arch.graph().out_edges(n).map(|e| fvar[&(e.src, e.dst)]));

        let mut a_pred = Pred::True;
        if thr.is_finite() {
            a_pred = a_pred.and(Pred::le(in_flow.clone(), thr));
            all_throughput_assumptions =
                all_throughput_assumptions.and(Pred::le(in_flow.clone(), thr));
        }
        let g_pred = Pred::ge(in_flow + LinExpr::constant_expr(gen) - out_flow, cons);
        component_contracts.push(Contract::new(format!("F[{}]", w.name), a_pred, g_pred));
    }

    // System contract C_s^F over constants of the fixed mapping. Like the
    // paper's `φ_{A_s^F}`, the system-level assumptions constrain the flows
    // themselves: the environment keeps every flow within the network's
    // engineered throughput limits. Without this, the refinement's
    // assumption condition could always be failed by driving an internal
    // flow above some component's throughput — not a behaviour any
    // environment of the *system* can produce.
    let total_gen: f64 = arch
        .source_nodes(problem)
        .iter()
        .map(|&n| lib.attr(arch.graph().node_weight(n).implementation, attr::FLOW_GEN))
        .sum();
    let total_cons: f64 = arch
        .graph()
        .nodes()
        .map(|(_, w)| lib.attr(w.implementation, attr::FLOW_CONS))
        .sum();
    let g_s = Pred::le(LinExpr::constant_expr(total_gen), spec.max_supply).and(Pred::le(
        LinExpr::constant_expr(total_cons),
        spec.max_consumption,
    ));
    let system_contract = Contract::new("C_s^F", all_throughput_assumptions, g_s);

    CheckModel {
        vocabulary: voc,
        component_contracts,
        system_contract,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{Attrs, COST, FLOW_CONS, FLOW_GEN, JITTER_OUT, LATENCY, THROUGHPUT};
    use crate::encode::encode_problem2;
    use crate::problem::{FlowSpec, SystemSpec, TimingSpec};
    use crate::template::{Template, TypeConfig};
    use crate::Library;
    use contrarc_contracts::RefinementChecker;
    use contrarc_milp::SolveOptions;

    /// Chain S -> M -> K with configurable machine latency.
    fn chain(m_latency: f64, max_latency: f64) -> (Problem, Architecture) {
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
            "S0",
            src_t,
            Attrs::new()
                .with(COST, 1.0)
                .with(FLOW_GEN, 10.0)
                .with(LATENCY, 1.0)
                .with(JITTER_OUT, 0.5),
        );
        lib.add(
            "M0",
            mach_t,
            Attrs::new()
                .with(COST, 1.0)
                .with(THROUGHPUT, 20.0)
                .with(LATENCY, m_latency)
                .with(JITTER_OUT, 0.5),
        );
        lib.add(
            "K0",
            sink_t,
            Attrs::new()
                .with(COST, 1.0)
                .with(FLOW_CONS, 5.0)
                .with(LATENCY, 1.0)
                .with(JITTER_OUT, 0.5),
        );
        let spec = SystemSpec {
            flow: Some(FlowSpec {
                max_supply: 100.0,
                max_consumption: 100.0,
            }),
            timing: Some(TimingSpec {
                max_latency,
                max_input_jitter: 1.0,
                max_output_jitter: 1.0,
            }),
            flow_cap: 100.0,
            horizon: 1000.0,
        };
        let p = Problem::new(t, lib, spec);
        let enc = encode_problem2(&p).unwrap();
        let sol = enc
            .model
            .solve(&SolveOptions::default())
            .unwrap()
            .expect_optimal()
            .unwrap();
        let arch = Architecture::decode(&p, &enc, &sol);
        (p, arch)
    }

    fn path_scope(arch: &Architecture) -> (Vec<NodeId>, Vec<(NodeId, NodeId)>) {
        let nodes: Vec<NodeId> = arch.graph().node_ids().collect();
        let edges: Vec<(NodeId, NodeId)> = arch.graph().edges().map(|e| (e.src, e.dst)).collect();
        (nodes, edges)
    }

    #[test]
    fn timing_refinement_holds_when_budget_sufficient() {
        // Total latency 1+2+1 = 4 plus internal jitters 0.5+0.5 = 5 ≤ 20.
        let (p, arch) = chain(2.0, 20.0);
        let (nodes, edges) = path_scope(&arch);
        let model = build_timing_model(&p, &arch, &nodes, &edges, &[nodes[0]], &[nodes[2]]);
        let checker = RefinementChecker::new();
        let r = checker
            .check(
                &model.vocabulary,
                &model.component_contracts,
                &model.system_contract,
            )
            .unwrap();
        assert!(r.holds(), "expected refinement to hold: {r}");
    }

    #[test]
    fn timing_refinement_fails_when_too_slow() {
        // Total latency 1+30+1 = 32 > 20.
        let (p, arch) = chain(30.0, 20.0);
        let (nodes, edges) = path_scope(&arch);
        let model = build_timing_model(&p, &arch, &nodes, &edges, &[nodes[0]], &[nodes[2]]);
        let checker = RefinementChecker::new();
        let r = checker
            .check(
                &model.vocabulary,
                &model.component_contracts,
                &model.system_contract,
            )
            .unwrap();
        assert!(!r.holds(), "expected refinement to fail");
    }

    #[test]
    fn timing_boundary_between_pass_and_fail() {
        // Worst case = latencies 1+l+1 plus upstream jitters 0.5+0.5.
        // With l = 6: worst 9; bound 9 → holds. Bound 8.9 → fails.
        let (p, arch) = chain(6.0, 9.0);
        let (nodes, edges) = path_scope(&arch);
        let model = build_timing_model(&p, &arch, &nodes, &edges, &[nodes[0]], &[nodes[2]]);
        let checker = RefinementChecker::new();
        assert!(checker
            .check(
                &model.vocabulary,
                &model.component_contracts,
                &model.system_contract
            )
            .unwrap()
            .holds());

        let (p2, arch2) = chain(6.0, 8.9);
        let (nodes2, edges2) = path_scope(&arch2);
        let model2 = build_timing_model(&p2, &arch2, &nodes2, &edges2, &[nodes2[0]], &[nodes2[2]]);
        assert!(!checker
            .check(
                &model2.vocabulary,
                &model2.component_contracts,
                &model2.system_contract
            )
            .unwrap()
            .holds());
    }

    #[test]
    fn flow_refinement_checks_supply_and_consumption() {
        let (p, arch) = chain(2.0, 20.0);
        let model = build_flow_model(&p, &arch);
        let checker = RefinementChecker::new();
        assert!(checker
            .check(
                &model.vocabulary,
                &model.component_contracts,
                &model.system_contract
            )
            .unwrap()
            .holds());

        // Tighten the supply bound below the source generation (10).
        let mut p2 = p.clone();
        p2.spec.flow = Some(FlowSpec {
            max_supply: 9.0,
            max_consumption: 100.0,
        });
        let model2 = build_flow_model(&p2, &arch);
        assert!(!checker
            .check(
                &model2.vocabulary,
                &model2.component_contracts,
                &model2.system_contract
            )
            .unwrap()
            .holds());
    }

    #[test]
    fn flow_model_has_one_var_per_edge() {
        let (p, arch) = chain(2.0, 20.0);
        let model = build_flow_model(&p, &arch);
        assert_eq!(model.vocabulary.len(), arch.num_edges());
        assert_eq!(model.component_contracts.len(), arch.num_nodes());
    }

    #[test]
    fn timing_model_vocabulary_size() {
        let (p, arch) = chain(2.0, 20.0);
        let (nodes, edges) = path_scope(&arch);
        let model = build_timing_model(&p, &arch, &nodes, &edges, &[nodes[0]], &[nodes[2]]);
        // (1 boundary-in + 2 internal + 1 boundary-out) × (τ, t) = 8 vars.
        assert_eq!(model.vocabulary.len(), 8);
        assert_eq!(model.component_contracts.len(), 3);
    }
}
