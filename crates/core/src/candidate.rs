//! Candidate architectures: decoded MILP solutions (`𝒜_map`).

use crate::encode::Encoding;
use crate::library::ImplId;
use crate::problem::Problem;
use contrarc_graph::{DiGraph, EdgeId, NodeId};
use contrarc_milp::Solution;
use std::collections::BTreeMap;
use std::fmt;

/// A node of a candidate architecture: an instantiated template component
/// with its selected implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchNode {
    /// The template node this instantiates.
    pub template_node: NodeId,
    /// Component name (copied from the template).
    pub name: String,
    /// Type index (copied from the template).
    pub ty: crate::template::TypeId,
    /// The implementation the MILP mapped this node to.
    pub implementation: ImplId,
}

/// An edge of a candidate architecture: a selected connection.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchEdge {
    /// The template candidate edge this selects.
    pub template_edge: EdgeId,
    /// Flow assigned by the MILP, when the flow viewpoint is active.
    pub flow: Option<f64>,
}

/// A candidate architecture `𝒜_map`: the instantiated subgraph of the
/// template together with the implementation mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct Architecture {
    graph: DiGraph<ArchNode, ArchEdge>,
    /// Template node → architecture node.
    remap: BTreeMap<NodeId, NodeId>,
    cost: f64,
}

impl Architecture {
    /// Decode a MILP solution into an architecture.
    ///
    /// Nodes with `β_i = 1` are instantiated with their selected
    /// implementation; edges with `e_{i,j} = 1` are selected.
    ///
    /// # Panics
    ///
    /// Panics if the solution is inconsistent with the encoding (an
    /// instantiated node without exactly one selected implementation), which
    /// would indicate a solver bug.
    #[must_use]
    pub fn decode(problem: &Problem, enc: &Encoding, solution: &Solution) -> Architecture {
        let t = &problem.template;
        let mut graph = DiGraph::new();
        let mut remap = BTreeMap::new();
        for n in t.node_ids() {
            if !solution.is_set(enc.beta_vars[n.index()]) {
                continue;
            }
            let selected: Vec<ImplId> = enc.map_vars[n.index()]
                .iter()
                .filter(|&&(_, v)| solution.is_set(v))
                .map(|&(x, _)| x)
                .collect();
            assert_eq!(
                selected.len(),
                1,
                "instantiated node {} must map to exactly one implementation",
                t.node(n).name
            );
            let info = t.node(n);
            let an = graph.add_node(ArchNode {
                template_node: n,
                name: info.name.clone(),
                ty: info.ty,
                implementation: selected[0],
            });
            remap.insert(n, an);
        }
        for (e, a, b) in t.candidate_edges() {
            if !solution.is_set(enc.edge_vars[e.index()]) {
                continue;
            }
            let (Some(&sa), Some(&sb)) = (remap.get(&a), remap.get(&b)) else {
                panic!("selected edge with uninstantiated endpoint");
            };
            let flow = enc.flow_vars.get(e.index()).map(|&fv| solution.value(fv));
            graph.add_edge(
                sa,
                sb,
                ArchEdge {
                    template_edge: e,
                    flow,
                },
            );
        }
        // Report the exact weighted cost of the selected mapping (rather
        // than trusting the MILP objective value, which carries solver
        // tolerances).
        let cost = graph
            .nodes()
            .map(|(_, w)| {
                problem.template.node(w.template_node).weight
                    * problem.library.attr(w.implementation, crate::attr::COST)
            })
            .sum();
        Architecture { graph, remap, cost }
    }

    /// The architecture graph (instantiated nodes, selected edges).
    #[must_use]
    pub fn graph(&self) -> &DiGraph<ArchNode, ArchEdge> {
        &self.graph
    }

    /// Objective value of the candidate.
    #[must_use]
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// Number of instantiated components.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Number of selected connections.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Architecture node instantiating a template node, if instantiated.
    #[must_use]
    pub fn node_for_template(&self, template_node: NodeId) -> Option<NodeId> {
        self.remap.get(&template_node).copied()
    }

    /// The selected implementation of a template node, if instantiated.
    #[must_use]
    pub fn implementation_of(&self, template_node: NodeId) -> Option<ImplId> {
        self.node_for_template(template_node)
            .map(|an| self.graph.node_weight(an).implementation)
    }

    /// Template edge ids of all selected edges.
    #[must_use]
    pub fn selected_template_edges(&self) -> Vec<EdgeId> {
        self.graph.edges().map(|e| e.weight.template_edge).collect()
    }

    /// Instantiated source nodes (architecture ids), per the template's type
    /// classification.
    #[must_use]
    pub fn source_nodes(&self, problem: &Problem) -> Vec<NodeId> {
        self.graph
            .nodes()
            .filter(|(_, w)| problem.template.type_config(w.ty).source)
            .map(|(id, _)| id)
            .collect()
    }

    /// Instantiated sink nodes (architecture ids).
    #[must_use]
    pub fn sink_nodes(&self, problem: &Problem) -> Vec<NodeId> {
        self.graph
            .nodes()
            .filter(|(_, w)| problem.template.type_config(w.ty).sink)
            .map(|(id, _)| id)
            .collect()
    }

    /// Render a human-readable summary.
    #[must_use]
    pub fn describe(&self, problem: &Problem) -> String {
        let mut out = format!(
            "architecture: cost {:.3}, {} components, {} connections\n",
            self.cost,
            self.num_nodes(),
            self.num_edges()
        );
        for (_, w) in self.graph.nodes() {
            let im = problem.library.implementation(w.implementation);
            out.push_str(&format!(
                "  {} : {} ({})\n",
                w.name,
                im.name,
                problem.template.type_name(w.ty)
            ));
        }
        for e in self.graph.edges() {
            let (src, dst) = (self.graph.node_weight(e.src), self.graph.node_weight(e.dst));
            match e.weight.flow {
                Some(f) => {
                    out.push_str(&format!("  {} -> {} (flow {:.2})\n", src.name, dst.name, f));
                }
                None => out.push_str(&format!("  {} -> {}\n", src.name, dst.name)),
            }
        }
        out
    }
}

impl fmt::Display for Architecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "architecture (cost {:.3}, {} nodes, {} edges)",
            self.cost,
            self.num_nodes(),
            self.num_edges()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{Attrs, COST, FLOW_CONS, FLOW_GEN, THROUGHPUT};
    use crate::encode::encode_problem2;
    use crate::problem::{FlowSpec, SystemSpec};
    use crate::template::{Template, TypeConfig};
    use crate::Library;
    use contrarc_milp::SolveOptions;

    fn solved_chain() -> (Problem, Encoding, Solution) {
        let mut t = Template::new("chain");
        let src_t = t.add_type("src", TypeConfig::source());
        let sink_t = t.add_type("sink", TypeConfig::sink());
        let s = t.add_node("S", src_t);
        let k = t.add_required_node("K", sink_t);
        t.add_candidate_edge(s, k);
        let mut lib = Library::new();
        lib.add(
            "S0",
            src_t,
            Attrs::new().with(COST, 2.0).with(FLOW_GEN, 8.0),
        );
        lib.add(
            "K0",
            sink_t,
            Attrs::new()
                .with(COST, 3.0)
                .with(FLOW_CONS, 5.0)
                .with(THROUGHPUT, 10.0),
        );
        let spec = SystemSpec {
            flow: Some(FlowSpec {
                max_supply: 100.0,
                max_consumption: 100.0,
            }),
            timing: None,
            ..SystemSpec::default()
        };
        let p = Problem::new(t, lib, spec);
        let enc = encode_problem2(&p).unwrap();
        let sol = enc
            .model
            .solve(&SolveOptions::default())
            .unwrap()
            .expect_optimal()
            .unwrap();
        (p, enc, sol)
    }

    #[test]
    fn decode_builds_selected_subgraph() {
        let (p, enc, sol) = solved_chain();
        let arch = Architecture::decode(&p, &enc, &sol);
        assert_eq!(arch.num_nodes(), 2);
        assert_eq!(arch.num_edges(), 1);
        assert!((arch.cost() - 5.0).abs() < 1e-6);
        assert_eq!(arch.source_nodes(&p).len(), 1);
        assert_eq!(arch.sink_nodes(&p).len(), 1);
    }

    #[test]
    fn template_mapping_roundtrip() {
        let (p, enc, sol) = solved_chain();
        let arch = Architecture::decode(&p, &enc, &sol);
        for tn in p.template.node_ids() {
            let an = arch.node_for_template(tn).expect("all nodes instantiated");
            assert_eq!(arch.graph().node_weight(an).template_node, tn);
            assert!(arch.implementation_of(tn).is_some());
        }
        assert_eq!(arch.selected_template_edges().len(), 1);
    }

    #[test]
    fn flow_values_recorded() {
        let (p, enc, sol) = solved_chain();
        let arch = Architecture::decode(&p, &enc, &sol);
        let e = arch.graph().edges().next().unwrap();
        let flow = e.weight.flow.expect("flow viewpoint active");
        assert!(flow >= 5.0 - 1e-6, "sink demand must flow, got {flow}");
    }

    #[test]
    fn describe_mentions_implementations() {
        let (p, enc, sol) = solved_chain();
        let arch = Architecture::decode(&p, &enc, &sol);
        let text = arch.describe(&p);
        assert!(text.contains("S0"));
        assert!(text.contains("K0"));
        assert!(text.contains("->"));
        assert!(arch.to_string().contains("cost"));
    }
}
