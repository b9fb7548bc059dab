//! # contrarc-graph
//!
//! Directed-graph substrate for the ContrArc architecture-exploration
//! methodology: an arena-style digraph with typed node/edge weights
//! ([`DiGraph`]), simple-path enumeration between node sets ([`paths`]), an
//! acyclicity check ([`topo`]), label-aware automorphism groups ([`canon`]),
//! and a VF2-style subgraph-matching engine that enumerates *all* embeddings
//! of a pattern graph in a target graph ([`iso`]).
//!
//! The paper used DotMotif for subgraph matching; this crate replaces it with
//! a self-contained implementation whose semantics are exactly what
//! Algorithm 2 of the paper needs: injective, label-compatible node mappings
//! under which every pattern edge maps to a target edge (a subgraph
//! *monomorphism*).
//!
//! ```rust
//! use contrarc_graph::{DiGraph, iso};
//!
//! // Pattern: a 2-node chain of labels "a" -> "b".
//! let mut pat = DiGraph::new();
//! let p0 = pat.add_node("a");
//! let p1 = pat.add_node("b");
//! pat.add_edge(p0, p1, ());
//!
//! // Target: two disjoint "a" -> "b" chains.
//! let mut tgt = DiGraph::new();
//! let t0 = tgt.add_node("a");
//! let t1 = tgt.add_node("b");
//! let t2 = tgt.add_node("a");
//! let t3 = tgt.add_node("b");
//! tgt.add_edge(t0, t1, ());
//! tgt.add_edge(t2, t3, ());
//!
//! let found = iso::subgraph_isomorphisms(&pat, &tgt, |p, t| p == t);
//! assert_eq!(found.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canon;
mod digraph;
pub mod dot;
pub mod iso;
pub mod paths;
pub mod topo;

pub use canon::{automorphisms, Automorphisms};
pub use digraph::{DiGraph, EdgeId, EdgeRef, NodeId};
pub use iso::Embedding;
