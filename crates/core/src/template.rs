//! Architecture templates: typed component nodes and candidate connections.

use contrarc_graph::{DiGraph, EdgeId, NodeId};
use std::fmt;

/// Opaque handle to a component type (a partition `Π_k` of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TypeId(pub(crate) u32);

impl TypeId {
    /// Dense index of the type (declaration order).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild a `TypeId` from a dense index. Only valid for the template
    /// that issued it.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        TypeId(u32::try_from(index).expect("type index overflow"))
    }
}

impl fmt::Display for TypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

/// Configuration of a component type.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeConfig {
    /// Whether nodes of this type are system sources (partition `Π_1`).
    pub source: bool,
    /// Whether nodes of this type are system sinks (partition `Π_n`).
    pub sink: bool,
    /// Fan-in bound `M` (incoming connections per node).
    pub max_in: u32,
    /// Fan-out bound `N` (outgoing connections per node).
    pub max_out: u32,
}

impl Default for TypeConfig {
    fn default() -> Self {
        TypeConfig {
            source: false,
            sink: false,
            max_in: u32::MAX,
            max_out: u32::MAX,
        }
    }
}

impl TypeConfig {
    /// An intermediate type with the given fan bounds.
    #[must_use]
    pub fn bounded(max_in: u32, max_out: u32) -> Self {
        TypeConfig {
            max_in,
            max_out,
            ..TypeConfig::default()
        }
    }

    /// A source type (no predecessors expected).
    #[must_use]
    pub fn source() -> Self {
        TypeConfig {
            source: true,
            ..TypeConfig::default()
        }
    }

    /// A sink type (no successors expected).
    #[must_use]
    pub fn sink() -> Self {
        TypeConfig {
            sink: true,
            ..TypeConfig::default()
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct TypeInfo {
    name: String,
    config: TypeConfig,
}

/// A component node of the template.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateNode {
    /// Human-readable node name (e.g. `M_A1`).
    pub name: String,
    /// The node's type / partition.
    pub ty: TypeId,
    /// Whether the node must be instantiated in every candidate (used for
    /// sinks whose demand drives the whole problem).
    pub required: bool,
    /// User-defined cost weight `α_i` in the objective.
    pub weight: f64,
}

/// The architecture template `𝒯 = (V_𝒯, E_𝒯)`: typed nodes and the candidate
/// edges an architecture may select from.
///
/// ```rust
/// use contrarc::{Template, TypeConfig};
/// let mut t = Template::new("line");
/// let src = t.add_type("source", TypeConfig::source());
/// let mach = t.add_type("machine", TypeConfig::bounded(2, 2));
/// let s = t.add_node("S", src);
/// let m = t.add_node("M1", mach);
/// t.add_candidate_edge(s, m);
/// assert_eq!(t.num_nodes(), 2);
/// assert_eq!(t.num_candidate_edges(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Template {
    name: String,
    graph: DiGraph<TemplateNode, ()>,
    types: Vec<TypeInfo>,
}

impl Template {
    /// Create an empty template.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Template {
            name: name.into(),
            graph: DiGraph::new(),
            types: Vec::new(),
        }
    }

    /// Template name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declare a component type.
    pub fn add_type(&mut self, name: impl Into<String>, config: TypeConfig) -> TypeId {
        let id = TypeId(u32::try_from(self.types.len()).expect("too many types"));
        self.types.push(TypeInfo {
            name: name.into(),
            config,
        });
        id
    }

    /// Add a component node of the given type.
    ///
    /// # Panics
    ///
    /// Panics if `ty` was not declared on this template.
    pub fn add_node(&mut self, name: impl Into<String>, ty: TypeId) -> NodeId {
        assert!(ty.index() < self.types.len(), "unknown type {ty}");
        self.graph.add_node(TemplateNode {
            name: name.into(),
            ty,
            required: false,
            weight: 1.0,
        })
    }

    /// Add a node that must be instantiated in every candidate architecture.
    ///
    /// # Panics
    ///
    /// Panics if `ty` was not declared on this template.
    pub fn add_required_node(&mut self, name: impl Into<String>, ty: TypeId) -> NodeId {
        let n = self.add_node(name, ty);
        self.graph.node_weight_mut(n).required = true;
        n
    }

    /// Mark an existing node as required.
    pub fn set_required(&mut self, node: NodeId, required: bool) {
        self.graph.node_weight_mut(node).required = required;
    }

    /// Set the cost weight `α_i` of a node (default `1.0`).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not finite.
    pub fn set_weight(&mut self, node: NodeId, weight: f64) {
        assert!(weight.is_finite(), "cost weight must be finite");
        self.graph.node_weight_mut(node).weight = weight;
    }

    /// Add a candidate (selectable) connection.
    ///
    /// # Panics
    ///
    /// Panics if a candidate edge between the two nodes already exists (the
    /// exploration variables assume a simple template graph).
    pub fn add_candidate_edge(&mut self, src: NodeId, dst: NodeId) -> EdgeId {
        assert!(
            !self.graph.contains_edge(src, dst),
            "candidate edge {src}->{dst} already present"
        );
        self.graph.add_edge(src, dst, ())
    }

    /// Number of component nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Number of candidate edges.
    #[must_use]
    pub fn num_candidate_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Number of declared types.
    #[must_use]
    pub fn num_types(&self) -> usize {
        self.types.len()
    }

    /// The underlying template graph.
    #[must_use]
    pub fn graph(&self) -> &DiGraph<TemplateNode, ()> {
        &self.graph
    }

    /// Node metadata.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a node of this template.
    #[must_use]
    pub fn node(&self, n: NodeId) -> &TemplateNode {
        self.graph.node_weight(n)
    }

    /// Type name.
    ///
    /// # Panics
    ///
    /// Panics if `ty` was not declared on this template.
    #[must_use]
    pub fn type_name(&self, ty: TypeId) -> &str {
        &self.types[ty.index()].name
    }

    /// Type configuration.
    ///
    /// # Panics
    ///
    /// Panics if `ty` was not declared on this template.
    #[must_use]
    pub fn type_config(&self, ty: TypeId) -> &TypeConfig {
        &self.types[ty.index()].config
    }

    /// Look up a type by name.
    #[must_use]
    pub fn type_by_name(&self, name: &str) -> Option<TypeId> {
        self.types
            .iter()
            .position(|t| t.name == name)
            .map(TypeId::from_index)
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.graph.node_ids()
    }

    /// Nodes of one type.
    pub fn nodes_of_type(&self, ty: TypeId) -> impl Iterator<Item = NodeId> + '_ {
        self.graph
            .nodes()
            .filter(move |(_, w)| w.ty == ty)
            .map(|(id, _)| id)
    }

    /// Nodes whose type is a source type.
    pub fn source_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.graph
            .nodes()
            .filter(|(_, w)| self.types[w.ty.index()].config.source)
            .map(|(id, _)| id)
    }

    /// Nodes whose type is a sink type.
    pub fn sink_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.graph
            .nodes()
            .filter(|(_, w)| self.types[w.ty.index()].config.sink)
            .map(|(id, _)| id)
    }

    /// Candidate edges as `(edge, src, dst)`.
    pub fn candidate_edges(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId)> + '_ {
        self.graph.edges().map(|e| (e.id, e.src, e.dst))
    }
}

impl fmt::Display for Template {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "template {} ({} types, {} nodes, {} candidate edges)",
            self.name,
            self.types.len(),
            self.num_nodes(),
            self.num_candidate_edges()
        )?;
        for (id, w) in self.graph.nodes() {
            writeln!(f, "  {id} {} : {}", w.name, self.type_name(w.ty))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (Template, NodeId, NodeId, NodeId) {
        let mut t = Template::new("t");
        let src = t.add_type("src", TypeConfig::source());
        let mid = t.add_type("mid", TypeConfig::bounded(1, 2));
        let snk = t.add_type("snk", TypeConfig::sink());
        let s = t.add_node("S", src);
        let m = t.add_node("M", mid);
        let k = t.add_required_node("K", snk);
        t.add_candidate_edge(s, m);
        t.add_candidate_edge(m, k);
        (t, s, m, k)
    }

    #[test]
    fn construction_and_queries() {
        let (t, s, m, k) = small();
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.num_candidate_edges(), 2);
        assert_eq!(t.num_types(), 3);
        assert_eq!(t.node(m).name, "M");
        assert!(t.node(k).required);
        assert!(!t.node(s).required);
        assert_eq!(t.type_name(t.node(s).ty), "src");
        assert_eq!(t.type_config(t.node(m).ty).max_out, 2);
    }

    #[test]
    fn source_sink_classification() {
        let (t, s, _m, k) = small();
        assert_eq!(t.source_nodes().collect::<Vec<_>>(), vec![s]);
        assert_eq!(t.sink_nodes().collect::<Vec<_>>(), vec![k]);
    }

    #[test]
    fn nodes_of_type_filters() {
        let (t, _s, m, _k) = small();
        let mid = t.type_by_name("mid").unwrap();
        assert_eq!(t.nodes_of_type(mid).collect::<Vec<_>>(), vec![m]);
        assert!(t.type_by_name("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn duplicate_candidate_edge_rejected() {
        let (mut t, s, m, _) = small();
        t.add_candidate_edge(s, m);
    }

    #[test]
    fn set_required_toggles() {
        let (mut t, s, _, _) = small();
        t.set_required(s, true);
        assert!(t.node(s).required);
    }

    #[test]
    fn display_lists_nodes() {
        let (t, ..) = small();
        let text = t.to_string();
        assert!(text.contains("3 nodes"));
        assert!(text.contains("M : mid"));
    }
}
