//! The exploration problem: template + library + system-level specification.

use crate::attr;
use crate::library::Library;
use crate::template::Template;
use crate::viewpoint::Viewpoint;
use std::fmt;

/// System-level flow requirements (`C_s^F`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSpec {
    /// Bound `F_s^S` on total flow generated by instantiated sources.
    pub max_supply: f64,
    /// Bound `F_s^C` on total flow consumed across the architecture.
    pub max_consumption: f64,
}

/// System-level timing requirements (`C_s^T`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingSpec {
    /// Maximum end-to-end latency `L_s` from any source to any sink.
    pub max_latency: f64,
    /// Input-jitter bound `J_s^I` the system assumes at its sources.
    pub max_input_jitter: f64,
    /// Output-jitter bound `J_s^O` the system guarantees at its sinks.
    pub max_output_jitter: f64,
}

/// Per-viewpoint system contracts plus the variable domains contracts are
/// encoded over.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSpec {
    /// Flow viewpoint requirements; `None` disables the viewpoint.
    pub flow: Option<FlowSpec>,
    /// Timing viewpoint requirements; `None` disables the viewpoint.
    pub timing: Option<TimingSpec>,
    /// Domain bound for per-edge flow variables.
    pub flow_cap: f64,
    /// Domain bound (time horizon) for event-time variables.
    pub horizon: f64,
}

impl Default for SystemSpec {
    fn default() -> Self {
        SystemSpec {
            flow: None,
            timing: None,
            flow_cap: 1e4,
            horizon: 1e4,
        }
    }
}

impl SystemSpec {
    /// The viewpoints this spec activates, in checking order. Interconnection
    /// is always active.
    #[must_use]
    pub fn active_viewpoints(&self) -> Vec<Viewpoint> {
        let mut v = vec![Viewpoint::Interconnection];
        if self.flow.is_some() {
            v.push(Viewpoint::Flow);
        }
        if self.timing.is_some() {
            v.push(Viewpoint::Timing);
        }
        v
    }
}

/// A complete architecture-exploration problem instance (Problem 1 of the
/// paper).
#[derive(Debug, Clone, PartialEq)]
pub struct Problem {
    /// The architecture template `𝒯`.
    pub template: Template,
    /// The implementation library `ℒ`.
    pub library: Library,
    /// System-level contracts per viewpoint.
    pub spec: SystemSpec,
}

impl Problem {
    /// Bundle a problem instance.
    #[must_use]
    pub fn new(template: Template, library: Library, spec: SystemSpec) -> Self {
        Problem {
            template,
            library,
            spec,
        }
    }

    /// Validate internal consistency: every node type has at least one
    /// implementation, attribute values are finite where needed, and domain
    /// caps are positive. Returns a list of human-readable problems (empty
    /// when valid).
    #[must_use]
    pub fn validate(&self) -> Vec<String> {
        let mut issues = Vec::new();
        for n in self.template.node_ids() {
            let ty = self.template.node(n).ty;
            if self.library.impls_of_type(ty).is_empty() {
                issues.push(format!(
                    "node {} has type {} with no implementations in the library",
                    self.template.node(n).name,
                    self.template.type_name(ty)
                ));
            }
        }
        for (id, im) in self.library.iter() {
            let cost = im.attrs.get(attr::COST);
            if !cost.is_finite() {
                issues.push(format!(
                    "implementation {id} ({}) has non-finite cost",
                    im.name
                ));
            }
            if self.spec.timing.is_some() && !im.attrs.get(attr::LATENCY).is_finite() {
                issues.push(format!(
                    "implementation {id} ({}) has non-finite latency",
                    im.name
                ));
            }
        }
        if self.spec.flow_cap <= 0.0 || !self.spec.flow_cap.is_finite() {
            issues.push("flow_cap must be positive and finite".into());
        }
        if self.spec.horizon <= 0.0 || !self.spec.horizon.is_finite() {
            issues.push("horizon must be positive and finite".into());
        }
        if let Some(t) = &self.spec.timing {
            if t.max_latency >= self.spec.horizon {
                issues.push("horizon must exceed the system latency bound".into());
            }
        }
        if !contrarc_graph::topo::is_acyclic(self.template.graph()) {
            issues.push(
                "template candidate-edge graph is cyclic; architectures are expected \
                 to be layered DAGs (timing propagation assumes acyclicity)"
                    .into(),
            );
        }
        issues
    }
}

impl fmt::Display for Problem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "problem: {} nodes, {} candidate edges, {} implementations, viewpoints {:?}",
            self.template.num_nodes(),
            self.template.num_candidate_edges(),
            self.library.len(),
            self.spec.active_viewpoints()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{Attrs, COST};
    use crate::template::TypeConfig;

    fn tiny_problem() -> Problem {
        let mut t = Template::new("t");
        let ty = t.add_type("only", TypeConfig::default());
        t.add_node("n", ty);
        let mut lib = Library::new();
        lib.add("i", ty, Attrs::new().with(COST, 1.0));
        Problem::new(t, lib, SystemSpec::default())
    }

    #[test]
    fn valid_problem_passes() {
        assert!(tiny_problem().validate().is_empty());
    }

    #[test]
    fn missing_impls_detected() {
        let mut p = tiny_problem();
        let ty2 = p.template.add_type("empty", TypeConfig::default());
        p.template.add_node("orphan", ty2);
        let issues = p.validate();
        assert_eq!(issues.len(), 1);
        assert!(issues[0].contains("no implementations"));
    }

    #[test]
    fn nonfinite_cost_detected() {
        let mut p = tiny_problem();
        let ty = p.template.type_by_name("only").unwrap();
        p.library
            .add("bad", ty, Attrs::new().with(COST, f64::INFINITY));
        assert!(p.validate().iter().any(|s| s.contains("non-finite cost")));
    }

    #[test]
    fn bad_caps_detected() {
        let mut p = tiny_problem();
        p.spec.flow_cap = 0.0;
        p.spec.horizon = -1.0;
        let issues = p.validate();
        assert!(issues.iter().any(|s| s.contains("flow_cap")));
        assert!(issues.iter().any(|s| s.contains("horizon")));
    }

    #[test]
    fn horizon_must_cover_latency_bound() {
        let mut p = tiny_problem();
        p.spec.timing = Some(TimingSpec {
            max_latency: 1e5,
            max_input_jitter: 1.0,
            max_output_jitter: 1.0,
        });
        assert!(p.validate().iter().any(|s| s.contains("horizon")));
    }

    #[test]
    fn cyclic_template_detected() {
        let mut p = tiny_problem();
        let ty = p.template.type_by_name("only").unwrap();
        let a = p.template.node_ids().next().unwrap();
        let b = p.template.add_node("m", ty);
        p.template.add_candidate_edge(a, b);
        p.template.add_candidate_edge(b, a);
        assert!(p.validate().iter().any(|s| s.contains("cyclic")));
    }

    #[test]
    fn active_viewpoints_follow_spec() {
        let mut spec = SystemSpec::default();
        assert_eq!(spec.active_viewpoints(), vec![Viewpoint::Interconnection]);
        spec.flow = Some(FlowSpec {
            max_supply: 10.0,
            max_consumption: 10.0,
        });
        spec.timing = Some(TimingSpec {
            max_latency: 10.0,
            max_input_jitter: 1.0,
            max_output_jitter: 1.0,
        });
        assert_eq!(
            spec.active_viewpoints(),
            vec![
                Viewpoint::Interconnection,
                Viewpoint::Flow,
                Viewpoint::Timing
            ]
        );
    }

    #[test]
    fn display_summarizes() {
        let p = tiny_problem();
        assert!(p.to_string().contains("1 nodes"));
    }
}
